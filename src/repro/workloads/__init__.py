"""Random workload generators and parameter sweeps for tests and benchmarks."""

from repro.workloads.generators import (
    RandomDMSParameters,
    drop_action_variant,
    random_bounded_runs,
    random_dms,
    random_schema,
)
from repro.workloads.sweeps import dms_family

__all__ = [
    "RandomDMSParameters",
    "dms_family",
    "drop_action_variant",
    "random_bounded_runs",
    "random_dms",
    "random_schema",
]
