"""Command-line entry point for the experiment harness.

Regenerates the per-experiment artefact rows from the terminal::

    PYTHONPATH=src python -m repro.harness E1            # one experiment
    PYTHONPATH=src python -m repro.harness all           # every experiment

Experiments whose grids run on the runtime layer accept scheduling
options; E9 supports the full set::

    PYTHONPATH=src python -m repro.harness E9 --parallel 4 \
        --store e9.store --stream               # parallel, memoised
    PYTHONPATH=src python -m repro.harness E9 --store e9.store
                                                # reuse completed points

``--stream`` prints each point as it completes (completion order)
before the final table.  Completed points are memoised by the result
store (below): re-running an interrupted sweep against the same
``--store`` serves every point it finished and recomputes only the
rest, reproducing the exact row set of an uninterrupted run.

The distributed layer (:mod:`repro.distributed`) is driven with three
options::

    PYTHONPATH=src python -m repro.harness E14 --nodes 2   # localhost cluster
    PYTHONPATH=src python -m repro.harness E14 --nodes 2 \
        --coordinator 0.0.0.0:7700       # wait for 2 external agents
    PYTHONPATH=src python -m repro.harness --agent \
        --coordinator HOST:7700          # serve as one node agent

``--nodes`` adds a two-level distributed row to E14 (node agents fork
on localhost unless ``--coordinator`` binds an address and waits for
externally started agents); ``--agent`` turns the process into a node
agent that connects to a coordinator, receives its exploration context
in the lease, and serves until released.

The content-addressed result store (:mod:`repro.store`) is driven with
three options::

    PYTHONPATH=src python -m repro.harness E9 --store runs.store \
        --store-stats                    # cold run, then print the index
    PYTHONPATH=src python -m repro.harness E9 --store runs.store
                                         # repeat: served in O(lookup)
    PYTHONPATH=src python -m repro.harness E9 --no-store
                                         # ignore REPRO_STORE for this run

``--store`` names the store directory (created on demand; the
``REPRO_STORE`` environment variable supplies a default), ``--no-store``
disables the store even when the variable is set, and ``--store-stats``
prints the index statistics (entries, hits, bytes, plus this run's
per-kind hit/miss session counters) after the runs.

The telemetry layer (:mod:`repro.obs`) is driven with two options::

    PYTHONPATH=src python -m repro.harness E1 --metrics
                                         # print the counter exposition
    PYTHONPATH=src python -m repro.harness E1 --trace run.jsonl
    PYTHONPATH=src python -m repro.obs run.jsonl     # summarize it

``--metrics`` installs a process-wide metrics registry for the runs and
prints the Prometheus-style text exposition afterwards (with
``--stream`` it also emits throttled ``[progress]`` lines on stderr);
``--trace FILE`` appends one JSONL span/event record per exploration
phase to ``FILE``.  Streaming/progress chatter goes to stderr — stdout
carries only headers, tables and the exposition.
"""

from __future__ import annotations

import argparse
import sys

from repro.harness import experiments
from repro.harness.reporting import print_experiment, stream_experiment

__all__ = ["main"]

# Which experiments understand which runtime options; anything else is
# rejected instead of silently ignored.
_PARALLEL_AWARE = ("E9", "E13", "E14")
_STREAM_AWARE = ("E9",)
_QUICK_AWARE = ("E13", "E14", "E19", "E22")
_NODES_AWARE = ("E14",)
_STORE_AWARE = ("E9",)


def _parse_address(value: str) -> tuple[str, int]:
    """``HOST:PORT`` (or ``:PORT``, binding every interface) -> tuple."""
    host, separator, port = value.rpartition(":")
    if not separator or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT (e.g. 127.0.0.1:7700), got {value!r}"
        )
    return (host or "0.0.0.0", int(port))

# Titles come from the single registry in experiments.py; the CLI only
# overrides the *runner* for experiments that take runtime options.
TITLES = {identifier: title for identifier, (title, _) in experiments.EXPERIMENTS.items()}


def _effective_store(options: argparse.Namespace):
    """The ``store=`` value the option triple resolves to.

    ``--no-store`` wins (``False`` disables even an exported
    ``REPRO_STORE``); ``--store DIR`` names the directory; neither
    leaves ``None``, deferring to the environment.
    """
    if options.no_store:
        return False
    return options.store if options.store else None


def _runner(identifier: str, options: argparse.Namespace, smoke: bool, transport=None, store=None):
    """The zero-argument callable regenerating one experiment's rows.

    ``smoke`` selects the CI-smoke depths for the benchmark-scale
    experiments — the registry's (and ``all_experiments``'s) default —
    used for ``all`` runs; naming E13/E14 explicitly runs them at full
    depth unless ``--quick`` is given.  ``transport`` is the coordinator
    of externally started node agents, when ``--coordinator`` bound one.
    ``store`` is the resolved store argument (shared so ``--store-stats``
    can read the session counters the run accumulated).
    """
    if identifier == "E9":
        return lambda: experiments.experiment_e9_convergence(
            parallel=options.parallel, store=store
        )
    if identifier == "E13":
        return lambda: experiments.experiment_e13_engine(
            quick=options.quick or smoke, parallel=options.parallel
        )
    if identifier == "E14":
        return lambda: experiments.experiment_e14_sharded(
            quick=options.quick or smoke,
            parallel=options.parallel,
            nodes=options.nodes,
            transport=transport,
        )
    if identifier == "E19":
        return lambda: experiments.experiment_e19_fuzz_corpus(quick=options.quick or smoke)
    if identifier == "E22":
        return lambda: experiments.experiment_e22_loadgen(quick=options.quick or smoke)
    return experiments.EXPERIMENTS[identifier][1]


def main(argv: list[str] | None = None) -> int:
    """Run the harness CLI; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the experiment rows of the per-experiment index.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default="all",
        help="experiment id (E1..E14, E19, E22) or 'all' (default)",
    )
    parser.add_argument(
        "--parallel", type=int, default=1,
        help="concurrent sweep points for grid experiments (E9/E13/E14)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="shrunken depths for E13/E14/E19 (the CI smoke configuration)",
    )
    parser.add_argument(
        "--stream", action="store_true",
        help="print each sweep point as it completes (E9)",
    )
    parser.add_argument(
        "--nodes", type=int, default=1,
        help="distributed node agents for the E14 two-level row",
    )
    parser.add_argument(
        "--coordinator", type=_parse_address, default=None, metavar="HOST:PORT",
        help="with --agent: the coordinator to serve; otherwise: bind here and "
        "wait for --nodes externally started agents",
    )
    parser.add_argument(
        "--agent", action="store_true",
        help="run as a distributed node agent (requires --coordinator)",
    )
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="serve E9 points from the content-addressed result store at DIR "
        "(created on demand; REPRO_STORE supplies a default)",
    )
    parser.add_argument(
        "--no-store", action="store_true",
        help="disable the result store even when REPRO_STORE is set",
    )
    parser.add_argument(
        "--store-stats", action="store_true",
        help="print the result-store index statistics after the runs",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="collect telemetry for the runs and print the Prometheus-style "
        "exposition afterwards (with --stream: live [progress] lines on stderr)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="append JSONL span/event records to FILE "
        "(summarize with: python -m repro.obs FILE)",
    )
    options = parser.parse_args(argv)
    if options.agent:
        if options.coordinator is None:
            parser.error("--agent requires --coordinator HOST:PORT")
        from repro.distributed import run_agent

        host, port = options.coordinator
        print(f"serving as node agent for coordinator {host}:{port}")
        run_agent(options.coordinator)
        return 0
    requested = options.experiment.upper() if options.experiment != "all" else "all"
    identifiers = list(TITLES) if requested == "all" else [requested]
    unknown = [identifier for identifier in identifiers if identifier not in TITLES]
    if unknown:
        parser.error(f"unknown experiment {unknown[0]!r}; expected E1..E14, E19, E22 or 'all'")
    # Reject options the requested experiment would silently ignore
    # ('all' applies each option to the experiments that understand it).
    if requested != "all":
        if options.parallel != 1 and requested not in _PARALLEL_AWARE:
            parser.error(f"--parallel applies to {'/'.join(_PARALLEL_AWARE)}, not {requested}")
        if options.stream and requested not in _STREAM_AWARE:
            parser.error(f"--stream applies to {'/'.join(_STREAM_AWARE)}, not {requested}")
        if options.quick and requested not in _QUICK_AWARE:
            parser.error(f"--quick applies to {'/'.join(_QUICK_AWARE)}, not {requested}")
        if options.nodes != 1 and requested not in _NODES_AWARE:
            parser.error(f"--nodes applies to {'/'.join(_NODES_AWARE)}, not {requested}")
        if (options.store or options.no_store or options.store_stats) and requested not in _STORE_AWARE:
            parser.error(
                f"--store/--no-store/--store-stats apply to {'/'.join(_STORE_AWARE)}, "
                f"not {requested}"
            )
    if options.store and options.no_store:
        parser.error("--store and --no-store are mutually exclusive")
    if options.nodes < 1:
        parser.error("--nodes must be positive")
    if options.coordinator is not None and options.nodes == 1:
        parser.error("--coordinator (without --agent) requires --nodes above 1")
    transport = None
    if options.coordinator is not None:
        from repro.distributed import Coordinator

        print(
            f"waiting for {options.nodes} agents on "
            f"{options.coordinator[0]}:{options.coordinator[1]} ..."
        )
        transport = Coordinator.listen(options.coordinator, options.nodes)
    registry = None
    if options.metrics:
        from repro.obs import MetricsRegistry, set_global_registry

        registry = MetricsRegistry()
        set_global_registry(registry)
    tracer = None
    if options.trace:
        from repro.obs import Tracer, set_global_tracer

        tracer = Tracer(options.trace)
        set_global_tracer(tracer)
    # Resolve the store argument once and share the instance, so the
    # session hit/miss counters --store-stats prints are the run's own.
    store = _effective_store(options)
    resolved_store = None
    if options.store_stats:
        from repro.store.service import resolve_store

        resolved_store = resolve_store(store)
        if resolved_store is not None:
            store = resolved_store
    try:
        for identifier in identifiers:
            if identifier == "E9" and options.stream:
                progress = None
                if registry is not None:
                    from repro.obs import ProgressReporter

                    progress = ProgressReporter(registry=registry)
                stream_experiment(
                    identifier,
                    TITLES[identifier],
                    experiments.experiment_e9_convergence,
                    progress=progress,
                    parallel=options.parallel,
                    store=store,
                )
                continue
            rows = _runner(
                identifier, options, smoke=requested == "all", transport=transport, store=store
            )()
            print_experiment(identifier, TITLES[identifier], rows)
        if options.store_stats:
            if resolved_store is None:
                print("store: disabled (pass --store DIR or export REPRO_STORE)")
            else:
                statistics = resolved_store.stats()
                print(
                    "store {root}: {entries} entries "
                    "({results} results, {subgraphs} subgraphs), "
                    "{hits} hits, {bytes} bytes".format(**statistics)
                )
                session = statistics["session"]
                kinds = sorted(set(session["hits"]) | set(session["misses"]))
                if kinds or session["repairs"]:
                    detail = " ".join(
                        f"{kind}={session['hits'].get(kind, 0)}/{session['misses'].get(kind, 0)}"
                        for kind in kinds
                    )
                    print(f"session hit/miss {detail} repairs={session['repairs']}".rstrip())
        if registry is not None:
            exposition = registry.exposition()
            print("\n--- metrics exposition ---")
            print(exposition if exposition else "(no samples)")
    finally:
        # A failing experiment must still release external agents: the
        # shutdown frames end their serve loops instead of stranding
        # them on a dead lease until socket EOF.
        if transport is not None:
            transport.close()
        if registry is not None:
            from repro.obs import set_global_registry

            set_global_registry(None)
        if tracer is not None:
            from repro.obs import set_global_tracer

            set_global_tracer(None)
            tracer.close()
            print(f"trace: {tracer.written} records -> {options.trace}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
