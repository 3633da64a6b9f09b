"""Command-line entry point: generate, replay and audit traffic.

``python -m repro.loadgen`` builds a service app in-process (fresh
metrics registry, ``store=False``), generates seeded session scripts —
or loads a recorded JSONL trace via ``--replay`` — drives them through
the chosen load model, and prints a JSON report.  ``--check-invariants``
appends the soak-invariant audit and fails the exit code on any
violation; ``--trace-out`` persists the (byte-deterministic) trace, and
``--plan-only`` stops there, which is how CI compares traces across
interpreter versions without running any load.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.loadgen.driver import run_closed_loop, run_open_loop
from repro.loadgen.invariants import check_invariants
from repro.loadgen.script import generate_sessions, read_trace, write_trace
from repro.loadgen.vocabulary import vocabulary
from repro.obs.metrics import MetricsRegistry
from repro.service.app import ServiceConfig, create_app
from repro.service.testing import AsgiClient

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.loadgen",
        description="Replay seeded user traffic against the in-process verification service.",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed for session scripts")
    parser.add_argument("--users", type=int, default=4, help="concurrent scripted users")
    parser.add_argument(
        "--requests", type=int, default=6, help="requests per user session"
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="soak seconds: closed-loop sessions repeat until this deadline",
    )
    parser.add_argument(
        "--ramp", type=float, default=0.0, help="seconds to spread user starts over"
    )
    parser.add_argument(
        "--mode",
        choices=("closed", "open"),
        default="closed",
        help="closed-loop (default) or open-loop replay",
    )
    parser.add_argument(
        "--think-scale",
        type=float,
        default=1.0,
        help="multiplier on scripted think times (0 = no thinking)",
    )
    parser.add_argument(
        "--replay", type=Path, default=None, help="replay this JSONL trace instead of generating"
    )
    parser.add_argument(
        "--trace-out", type=Path, default=None, help="write the generated trace here"
    )
    parser.add_argument(
        "--plan-only",
        action="store_true",
        help="stop after generating/writing the trace (no load is driven)",
    )
    parser.add_argument(
        "--corpus",
        action="store_true",
        help="extend the vocabulary with fuzz-corpus instances",
    )
    parser.add_argument(
        "--corpus-tier", default="smoke", help="corpus tier to draw from (with --corpus)"
    )
    parser.add_argument(
        "--corpus-limit",
        type=int,
        default=8,
        help="max corpus entries in the vocabulary (with --corpus)",
    )
    parser.add_argument(
        "--max-concurrent",
        type=int,
        default=8,
        help="service admission-control capacity",
    )
    parser.add_argument(
        "--check-invariants",
        action="store_true",
        help="audit verdict parity, metrics reconciliation and post-run health",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the loadgen CLI; returns the process exit code."""
    args = _parser().parse_args(argv)

    templates, case_studies = vocabulary(
        args.corpus, tier=args.corpus_tier, limit=args.corpus_limit
    )

    if args.replay is not None:
        scripts = read_trace(args.replay)
    else:
        scripts = generate_sessions(
            args.seed, args.users, requests_per_user=args.requests, templates=templates
        )
    if args.trace_out is not None:
        write_trace(scripts, args.trace_out)
    if args.plan_only:
        print(
            json.dumps(
                {
                    "users": len(scripts),
                    "requests": sum(len(script.requests) for script in scripts),
                    "trace": str(args.trace_out) if args.trace_out else None,
                },
                sort_keys=True,
            )
        )
        return 0

    metrics = MetricsRegistry()
    config = ServiceConfig(
        max_concurrent=args.max_concurrent,
        store=False,
        metrics=metrics,
        case_studies=case_studies,
    )
    with AsgiClient(create_app(config)) as client:
        if args.mode == "open":
            report = run_open_loop(
                client, scripts, ramp=args.ramp, think_scale=args.think_scale
            )
        else:
            report = run_closed_loop(
                client,
                scripts,
                ramp=args.ramp,
                think_scale=args.think_scale,
                duration=args.duration,
            )
        document = report.as_json()
        failed = False
        if args.check_invariants:
            audit = check_invariants(
                report, client=client, metrics=metrics, case_studies=case_studies
            )
            document["invariants"] = audit.as_json()
            failed = not audit.ok
    print(json.dumps(document, indent=2, sort_keys=True))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
