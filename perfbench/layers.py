"""Which functions the traced run wraps, and the per-layer metrics.

Layers are the packages under ``src/repro``.  :data:`PROBES` names the
public functions wrapped per layer; :func:`layer_metrics` turns the
recorded rows and the program's own ``repro.obs`` counters into the
``per_layer`` metrics of ``BENCHMARK.json``; :func:`layer_table` renders
the table the traced run prints.
"""

from __future__ import annotations

from tracing import Probe, timed_generator

#: Row of the benchmark's own unit of work (a query, a replay, a sweep).
OPERATION = "bench.op"


def _count_bindings(recorder, satisfies):
    # recency.semantics calls satisfies once per candidate binding of
    # Recent_b, so at that site each call is one binding tried.
    def counted(*args, **kwargs):
        result = satisfies(*args, **kwargs)
        recorder.count("recency.bindings.tried")
        if result:
            recorder.count("recency.bindings.sat")
        return result

    return counted


def _guard_answers(recorder, iter_answers):
    return timed_generator(recorder, "dms.guard_answers", iter_answers)


def _count_points(recorder, rows, args) -> None:
    recorder.count("modelcheck.sweep.points", len(rows))


PROBES = (
    Probe(
        "fol.satisfies", "repro.fol.evaluator", "satisfies",
        site_wrappers={"repro.recency.semantics": _count_bindings},
    ),
    Probe(
        "fol.iter_answers", "repro.fol.evaluator", "iter_answers", kind="generator",
        site_wrappers={"repro.dms.semantics": _guard_answers},
    ),
    Probe("fol.evaluate_sentence", "repro.fol.evaluator", "evaluate_sentence"),
    Probe(
        "recency.successors", "repro.recency.semantics", "enumerate_b_bounded_successors",
        kind="generator",
    ),
    Probe("recency.apply", "repro.recency.semantics", "apply_action_b_bounded"),
    Probe("dms.successors", "repro.dms.semantics", "enumerate_successors", kind="generator"),
    # Only the unbounded semantics' own calls: recency.apply calls it too.
    Probe("dms.apply", "repro.dms.semantics", "apply_action", sites=("repro.dms.semantics",)),
    Probe("database.holds", "repro.database.instance", "DatabaseInstance.holds"),
    Probe("database.instance_new", "repro.database.instance", "DatabaseInstance.__init__"),
    Probe("database.constraints", "repro.database.constraints", "ConstraintSet.satisfied_by"),
    Probe("search.intern", "repro.search.interning", "InternTable.intern"),
    Probe("search.intern", "repro.search.shm_interning", "SharedInternTable.intern"),
    Probe("search.engine", "repro.search.engine", "Engine.explore", span=True),
    Probe("search.engine", "repro.search.engine", "Engine.search", span=True),
    Probe("search.sharded.engine", "repro.search.sharded", "ShardedEngine.explore", span=True),
    Probe("search.sharded.engine", "repro.search.sharded", "ShardedEngine.search", span=True),
    Probe("store.load", "repro.store.store", "ResultStore.load"),
    Probe("store.save", "repro.store.store", "ResultStore.save"),
    Probe("store.cached_compute", "repro.store.service", "cached_compute", span=True),
    Probe(
        "modelcheck.sweep", "repro.modelcheck.convergence", "reachability_bound_sweep",
        span=True, on_result=_count_points,
    ),
    Probe("api.run_reachability", "repro.api.query", "run_reachability", span=True),
    Probe("api.inline", "repro.api.session", "Session.run_reachability", span=True),
    Probe("api.isolated", "repro.api.session", "Session.run_reachability_isolated", span=True),
    Probe("api.sweep", "repro.api.session", "Session.reachability_bound_sweep", span=True),
    Probe("service.request", "repro.service.asgi", "App._http", kind="coroutine"),
)

#: ``(name, unit, better)`` of every per-layer metric, in report order.
PER_LAYER = (
    ("fol.satisfies.calls", "count", "lower"),
    ("fol.satisfies.s", "s", "lower"),
    ("fol.iter_answers.calls", "count", "lower"),
    ("fol.iter_answers.s", "s", "lower"),
    ("fol.evaluate_sentence.calls", "count", "lower"),
    ("fol.evaluate_sentence.s", "s", "lower"),
    ("recency.successors.calls", "count", "lower"),
    ("recency.successors.self_s", "s", "lower"),
    ("recency.bindings.tried", "count", "lower"),
    ("recency.bindings.sat", "count", "higher"),
    ("recency.guard_yield", "ratio", "higher"),
    ("recency.apply.calls", "count", "lower"),
    ("recency.apply.s", "s", "lower"),
    ("dms.successors.calls", "count", "lower"),
    ("dms.successors.self_s", "s", "lower"),
    ("dms.guard_answers.s", "s", "lower"),
    ("dms.apply.s", "s", "lower"),
    ("database.holds.calls", "count", "lower"),
    ("database.holds.s", "s", "lower"),
    ("database.instance_new.calls", "count", "lower"),
    ("database.instance_new.s", "s", "lower"),
    ("database.constraints.calls", "count", "lower"),
    ("database.constraints.s", "s", "lower"),
    ("search.states", "count", "higher"),
    ("search.edges", "count", "higher"),
    ("search.dup_ratio", "ratio", "lower"),
    ("search.intern.calls", "count", "lower"),
    ("search.intern.s", "s", "lower"),
    ("search.engine.self_s", "s", "lower"),
    ("search.sharded.expand_s", "s", "lower"),
    ("search.sharded.replay_s", "s", "lower"),
    ("search.sharded.levels", "count", "lower"),
    ("search.sharded.steals", "count", "lower"),
    ("runtime.dispatch.calls", "count", "lower"),
    ("runtime.dispatch.s", "s", "lower"),
    ("runtime.respawns", "count", "lower"),
    ("store.lookups", "count", "lower"),
    ("store.hit_ratio", "ratio", "higher"),
    ("store.load.s", "s", "lower"),
    ("store.save.s", "s", "lower"),
    ("store.cached_compute.self_s", "s", "lower"),
    ("store.delta.fresh_states", "count", "lower"),
    ("store.delta.reused_states", "count", "higher"),
    ("modelcheck.sweep.s", "s", "lower"),
    ("modelcheck.sweep.points", "count", "higher"),
    ("api.inline.calls", "count", "lower"),
    ("api.inline.s", "s", "lower"),
    ("api.isolated.calls", "count", "lower"),
    ("api.isolated.s", "s", "lower"),
    ("api.isolated.overhead_s", "s", "lower"),
    ("service.request.self_s", "s", "lower"),
    ("service.admission.rejected", "count", "lower"),
    ("service.admission.active_max", "count", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.fol_recency_dms_share", "ratio", "lower"),
)


class RegistryDelta:
    """What a ``repro.obs`` registry counted between two snapshots."""

    def __init__(self, before: dict, after: dict) -> None:
        self._before = before
        self._after = after

    def counter(self, name: str, **match) -> float:
        """Growth of the counters named ``name`` whose labels include ``match``."""
        wanted = set(match.items())

        def total(snapshot: dict) -> float:
            return sum(
                value
                for (counter, labels), value in snapshot["counters"].items()
                if counter == name and wanted.issubset(labels)
            )

        return total(self._after) - total(self._before)

    def histogram(self, name: str, **match) -> tuple[int, float]:
        """Growth of ``(count, sum)`` of the matching histograms."""
        wanted = set(match.items())

        def total(snapshot: dict) -> tuple[int, float]:
            count, seconds = 0, 0.0
            for (histogram, labels), values in snapshot["histograms"].items():
                if histogram == name and wanted.issubset(labels):
                    count += values[0]
                    seconds += values[1]
            return count, seconds

        (count_after, sum_after), (count_before, sum_before) = (
            total(self._after), total(self._before)
        )
        return count_after - count_before, sum_after - sum_before

    def gauge(self, name: str) -> float:
        """The highest value of the gauges named ``name`` (not a delta)."""
        return max(
            (value for (gauge, _), value in self._after["gauges"].items() if gauge == name),
            default=0,
        )


def merge_tables(tables) -> dict[str, list]:
    """Sum ``name -> [calls, busy, self]`` tables."""
    merged: dict[str, list] = {}
    for table in tables:
        for name, (calls, busy, own) in table.items():
            row = merged.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += busy
            row[2] += own
    return merged


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _rows(parent: dict, workers: dict) -> dict[str, list]:
    """Parent and worker rows merged, with cross-thread self times fixed.

    A request coroutine and its ``api`` calls run on different threads,
    and an isolated query's exploration runs in a worker process, so
    neither child is on the caller's frame stack; their self times are
    busy time minus the children's busy time instead.
    """
    rows = merge_tables([parent, workers])

    def busy(table: dict, name: str) -> float:
        return table.get(name, (0, 0.0, 0.0))[1]

    if "service.request" in rows:
        children = busy(rows, "api.inline") + busy(rows, "api.isolated") + busy(rows, "api.sweep")
        rows["service.request"][2] = max(0.0, busy(rows, "service.request") - children)
    if "api.isolated" in rows:
        in_worker = busy(workers, "api.run_reachability")
        rows["api.isolated"][2] = max(0.0, busy(rows, "api.isolated") - in_worker)
    return rows


def layer_metrics(
    parent: dict, workers: dict, registry: RegistryDelta, overhead: float
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced window.

    ``parent``/``workers`` are merged row tables of the benchmark process
    and of its forked workers.
    """
    rows = _rows(parent, workers)

    def calls(name: str) -> int:
        return rows.get(name, (0, 0.0, 0.0))[0]

    def busy(name: str) -> float:
        return rows.get(name, (0, 0.0, 0.0))[1]

    def own(name: str) -> float:
        return rows.get(name, (0, 0.0, 0.0))[2]

    interned = registry.counter("engine_states_total", kind="interned")
    duplicates = registry.counter("engine_states_total", kind="duplicate")
    edges = registry.counter("engine_edges_total")
    expand = registry.histogram("sharded_level_seconds", phase="expand")
    replay = registry.histogram("sharded_level_seconds", phase="replay")
    dispatch = registry.histogram("pool_dispatch_seconds")
    hits = registry.counter("store_lookups_total", outcome="hit")
    lookups = registry.counter("store_lookups_total")
    inline = registry.histogram("api_query_seconds", path="inline")
    isolated = registry.histogram("api_query_seconds", path="isolated")
    in_worker = workers.get("api.run_reachability", (0, 0.0, 0.0))[1]
    operation = parent.get(OPERATION, (0, 0.0, 0.0))[1]
    semantics = sum(
        row[2]
        for name, row in rows.items()
        if name.split(".")[0] in ("fol", "recency", "dms")
    )
    values = {
        "fol.satisfies.calls": calls("fol.satisfies"),
        "fol.satisfies.s": busy("fol.satisfies"),
        "fol.iter_answers.calls": calls("fol.iter_answers"),
        "fol.iter_answers.s": busy("fol.iter_answers"),
        "fol.evaluate_sentence.calls": calls("fol.evaluate_sentence"),
        "fol.evaluate_sentence.s": busy("fol.evaluate_sentence"),
        "recency.successors.calls": calls("recency.successors"),
        "recency.successors.self_s": own("recency.successors"),
        "recency.bindings.tried": calls("recency.bindings.tried"),
        "recency.bindings.sat": calls("recency.bindings.sat"),
        "recency.guard_yield": _ratio(
            calls("recency.bindings.sat"), calls("recency.bindings.tried")
        ),
        "recency.apply.calls": calls("recency.apply"),
        "recency.apply.s": busy("recency.apply"),
        "dms.successors.calls": calls("dms.successors"),
        "dms.successors.self_s": own("dms.successors"),
        "dms.guard_answers.s": busy("dms.guard_answers"),
        "dms.apply.s": busy("dms.apply"),
        "database.holds.calls": calls("database.holds"),
        "database.holds.s": busy("database.holds"),
        "database.instance_new.calls": calls("database.instance_new"),
        "database.instance_new.s": busy("database.instance_new"),
        "database.constraints.calls": calls("database.constraints"),
        "database.constraints.s": busy("database.constraints"),
        "search.states": interned,
        "search.edges": edges,
        "search.dup_ratio": _ratio(duplicates, edges),
        "search.intern.calls": calls("search.intern"),
        "search.intern.s": busy("search.intern"),
        "search.engine.self_s": own("search.engine"),
        "search.sharded.expand_s": expand[1],
        "search.sharded.replay_s": replay[1],
        "search.sharded.levels": registry.counter("sharded_levels_total"),
        "search.sharded.steals": registry.counter("sharded_steals_total"),
        "runtime.dispatch.calls": dispatch[0],
        "runtime.dispatch.s": dispatch[1],
        "runtime.respawns": registry.counter("pool_respawns_total"),
        "store.lookups": lookups,
        "store.hit_ratio": _ratio(hits, lookups),
        "store.load.s": busy("store.load"),
        "store.save.s": busy("store.save"),
        "store.cached_compute.self_s": own("store.cached_compute"),
        "store.delta.fresh_states": registry.counter("store_delta_states_total", kind="fresh"),
        "store.delta.reused_states": registry.counter("store_delta_states_total", kind="reused"),
        "modelcheck.sweep.s": busy("modelcheck.sweep"),
        "modelcheck.sweep.points": calls("modelcheck.sweep.points"),
        "api.inline.calls": inline[0],
        "api.inline.s": inline[1],
        "api.isolated.calls": isolated[0],
        "api.isolated.s": isolated[1],
        "api.isolated.overhead_s": max(0.0, isolated[1] - in_worker) if isolated[0] else 0.0,
        "service.request.self_s": own("service.request"),
        "service.admission.rejected": registry.counter(
            "service_requests_total", outcome="rejected"
        ),
        "service.admission.active_max": registry.gauge("service_active_requests"),
        "trace.overhead": overhead,
        "trace.fol_recency_dms_share": _ratio(semantics, operation),
    }
    return values


def layer_table(parent: dict, workers: dict) -> list[str]:
    """The traced rows as aligned text lines, with per-layer self-time shares.

    ``share`` is self time over the wall time of the benchmark's timed
    operations.  Worker rows run in parallel with the parent and
    concurrent requests overlap, so shares of the sharded and service
    workloads can add up past 1; ``bench.op`` self time is the time of
    an operation not inside a wrapped call on the same thread.
    """
    rows = _rows(parent, workers)
    wall = parent.get(OPERATION, (0, 0.0, 0.0))[1]
    lines = [
        f"{'row':<26} {'calls':>10} {'busy_s':>10} {'self_s':>10} {'share':>7}  scope"
    ]
    for name in sorted(rows):
        calls, busy, own = rows[name]
        in_parent = name in parent
        in_workers = name in workers
        scope = "+".join(
            where for where, present in (("parent", in_parent), ("workers", in_workers)) if present
        )
        if busy == 0.0 and own == 0.0:
            lines.append(f"{name:<26} {calls:>10} {'-':>10} {'-':>10} {'-':>7}  {scope} (counter)")
            continue
        lines.append(
            f"{name:<26} {calls:>10} {busy:>10.4f} {own:>10.4f} {_ratio(own, wall):>7.1%}  {scope}"
        )
    layers: dict[str, float] = {}
    for name, (_, _, own) in rows.items():
        if name != OPERATION:
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + own
    lines.append("self time by layer (share of the timed operations' wall time):")
    for layer, own in sorted(layers.items(), key=lambda item: -item[1]):
        if own:
            lines.append(f"  {layer:<12} {own:>10.4f} s {_ratio(own, wall):>7.1%}")
    lines.append(
        "registry-derived metrics (search.states/edges/dup_ratio, search.sharded.*, runtime.*, "
        "store.lookups/hit_ratio/delta.*, api.*.calls/s, service.admission.*) count the "
        "parent process only"
    )
    return lines

