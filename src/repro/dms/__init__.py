"""Database-manipulating systems: model and execution semantics (paper, Section 3)."""

from repro.dms.action import Action
from repro.dms.builder import DMSBuilder
from repro.dms.configuration import Configuration
from repro.dms.run import ExtendedRun, Run, Step
from repro.dms.semantics import (
    apply_action,
    enumerate_guard_answers,
    enumerate_successors,
    execute_labels,
    initial_configuration,
    is_instantiating_substitution,
    successor_configuration,
)
from repro.dms.system import DMS

__all__ = [
    "Action",
    "Configuration",
    "DMS",
    "DMSBuilder",
    "ExtendedRun",
    "Run",
    "Step",
    "apply_action",
    "enumerate_guard_answers",
    "enumerate_successors",
    "execute_labels",
    "initial_configuration",
    "is_instantiating_substitution",
    "successor_configuration",
]
