"""The library facade: one options surface, one query entry point, one
warm session object.

Every reachability question goes through this package:

* :class:`ExplorationOptions` — every knob that shapes an exploration
  (limits, strategy, retention, sharding, distribution), as one frozen
  value object that travels whole through queries, sessions, the
  convergence sweeps and down to the engines (it lives in
  :mod:`repro.search` and is re-exported here);
* :func:`run_reachability` — the one reachability implementation,
  bounded (``bound=b``) or unbounded (``bound=None``), over a
  proposition name or a boolean FOL(R) query;
* :class:`Session` — a warm, thread-safe verification session owning a
  :class:`~repro.runtime.pool.WorkerPool`, a resolved result store and
  a metrics registry, serving repeated queries without per-call setup.

The HTTP service (:mod:`repro.service`), the experiment harness, the
fuzz oracle and library callers all consume this facade, so behaviour
(verdicts, witnesses, store keys) is defined in exactly one place.
"""

from repro.api.query import check_condition, condition_key, instance_predicate, run_reachability
from repro.api.session import Session
from repro.search import ExplorationOptions

__all__ = [
    "ExplorationOptions",
    "Session",
    "check_condition",
    "condition_key",
    "instance_predicate",
    "run_reachability",
]
