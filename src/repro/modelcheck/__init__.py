"""Model checking of DMSs: recency-bounded MSO-FO checking and convergence in the bound.

Reachability queries themselves go through :func:`repro.api.run_reachability`.
"""

from repro.modelcheck.checker import RecencyBoundedModelChecker, check_recency_bounded
from repro.modelcheck.convergence import (
    BoundSweepEntry,
    convergence_bound,
    reachability_bound_sweep,
    state_space_bound_sweep,
)
from repro.modelcheck.result import ModelCheckingResult, ReachabilityResult, Verdict

__all__ = [
    "BoundSweepEntry",
    "ModelCheckingResult",
    "ReachabilityResult",
    "RecencyBoundedModelChecker",
    "Verdict",
    "check_recency_bounded",
    "convergence_bound",
    "reachability_bound_sweep",
    "state_space_bound_sweep",
]
