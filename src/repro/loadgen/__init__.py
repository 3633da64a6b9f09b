"""Seeded traffic replay over the service layer (ROADMAP: sustained load).

The fuzzer (PR 7) gave scenario diversity and the service (PR 9) gave a
streaming API; this package closes the remaining gap — heavy,
realistic, *replayable* traffic.  Everything runs in-process over
:class:`repro.service.testing.AsgiClient` (no sockets, no
dependencies), and every workload derives from a seed, so a load run is
a reproducible experiment rather than a one-off:

* :mod:`repro.loadgen.sketch` — the mergeable log-bucketed
  :class:`QuantileSketch` behind every latency distribution;
* :mod:`repro.loadgen.vocabulary` — the query-template vocabulary
  (§6 case studies, optionally fuzz-corpus instances);
* :mod:`repro.loadgen.script` — seeded per-user session scripts and
  their byte-deterministic JSONL traces;
* :mod:`repro.loadgen.driver` — closed-loop and open-loop replay with
  concurrency ramps, recording latency/throughput/429/504 rates and
  SSE time-to-``ready``/time-to-``final``;
* :mod:`repro.loadgen.invariants` — the soak audit: verdict parity
  with direct library calls, metrics reconciliation, post-chaos
  health;
* :mod:`repro.loadgen.cli` — the ``python -m repro.loadgen`` driver
  (``--seed``, ``--users``, ``--duration``, ``--ramp``, ``--replay``).

See the "Load testing" section of ``docs/service.md`` for a worked
example; harness experiment E22 and ``benchmarks/bench_e22_loadgen.py``
gate sustained throughput and the p99 ceiling.
"""

from repro.loadgen.driver import LoadReport, RequestOutcome, run_closed_loop, run_open_loop
from repro.loadgen.invariants import InvariantReport, check_invariants, request_totals
from repro.loadgen.script import (
    PlannedRequest,
    SessionScript,
    generate_sessions,
    read_trace,
    trace_lines,
    write_trace,
)
from repro.loadgen.sketch import QuantileSketch
from repro.loadgen.vocabulary import QueryTemplate, builtin_templates, vocabulary

__all__ = [
    "QuantileSketch",
    "QueryTemplate",
    "builtin_templates",
    "vocabulary",
    "PlannedRequest",
    "SessionScript",
    "generate_sessions",
    "trace_lines",
    "write_trace",
    "read_trace",
    "RequestOutcome",
    "LoadReport",
    "run_closed_loop",
    "run_open_loop",
    "InvariantReport",
    "check_invariants",
    "request_totals",
]
