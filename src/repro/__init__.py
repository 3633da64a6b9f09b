"""repro — Recency-bounded verification of dynamic database-driven systems.

A from-scratch Python implementation of the framework of
*Recency-Bounded Verification of Dynamic Database-Driven Systems*
(Abdulla, Aiswarya, Atig, Montali, Rezine; PODS 2016):

* relational databases and FOL(R) queries (:mod:`repro.database`, :mod:`repro.fol`),
* database-manipulating systems and their execution semantics (:mod:`repro.dms`),
* the recency-bounded semantics, abstraction and canonical runs (:mod:`repro.recency`),
* MSO-FO over runs and FO-LTL sugar (:mod:`repro.msofo`),
* nested words, MSO over nested words and visibly pushdown automata
  (:mod:`repro.nestedwords`),
* the nested-word encoding of b-bounded runs, its validity conditions and
  the MSO-FO -> MSONW translation (:mod:`repro.encoding`),
* recency-bounded model checking and convergence sweeps (:mod:`repro.modelcheck`),
* the unified facade — options, one query entry point, warm sessions
  (:mod:`repro.api`) — and the HTTP verification service over it
  (:mod:`repro.service`),
* the Appendix D undecidability reductions (:mod:`repro.counter`),
* the Appendix F model transformations (:mod:`repro.transforms`),
* case studies, workload generators and the experiment harness
  (:mod:`repro.casestudies`, :mod:`repro.workloads`, :mod:`repro.harness`).
"""

from repro.api import ExplorationOptions, Session, run_reachability
from repro.database import DatabaseInstance, Fact, Schema, Substitution, VariableDatabase
from repro.dms import DMS, Action, DMSBuilder
from repro.modelcheck import (
    ReachabilityResult,
    RecencyBoundedModelChecker,
    Verdict,
    check_recency_bounded,
)
from repro.recency import RecencyBoundedRun, SymbolicLabel, abstract_run, concretize_word

__version__ = "1.0.0"

__all__ = [
    "Action",
    "DMS",
    "DMSBuilder",
    "DatabaseInstance",
    "ExplorationOptions",
    "Fact",
    "ReachabilityResult",
    "RecencyBoundedModelChecker",
    "RecencyBoundedRun",
    "Schema",
    "Session",
    "Substitution",
    "SymbolicLabel",
    "Verdict",
    "VariableDatabase",
    "__version__",
    "abstract_run",
    "check_recency_bounded",
    "concretize_word",
    "run_reachability",
]
