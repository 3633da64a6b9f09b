"""Recency-bounded semantics, abstraction and concretisation (paper, Sections 5–6.1)."""

from repro.recency.abstraction import (
    SymbolicLabel,
    SymbolicSubstitution,
    abstract_run,
    abstract_substitution,
    symbolic_alphabet,
    symbolic_substitutions_for_action,
)
from repro.recency.canonical import (
    is_canonical_run,
    run_isomorphism,
    runs_equivalent_modulo_permutation,
)
from repro.recency.concretize import (
    ConcretizationError,
    canonicalize_run,
    concretize_word,
    is_valid_abstract_word,
)
from repro.recency.explorer import (
    RecencyExplorationResult,
    RecencyExplorer,
    iterate_b_bounded_runs,
)
from repro.recency.recent import element_at_recency_index, recency_index, recent_elements
from repro.recency.semantics import (
    RecencyBoundedRun,
    RecencyConfiguration,
    RecencyStep,
    apply_action_b_bounded,
    enumerate_b_bounded_successors,
    execute_b_bounded_labels,
    initial_recency_configuration,
    is_b_bounded_extended_run,
    is_b_bounded_substitution,
    minimal_recency_bound,
)
from repro.recency.sequence import SequenceNumbering

__all__ = [
    "ConcretizationError",
    "RecencyBoundedRun",
    "RecencyConfiguration",
    "RecencyExplorationResult",
    "RecencyExplorer",
    "RecencyStep",
    "SequenceNumbering",
    "SymbolicLabel",
    "SymbolicSubstitution",
    "abstract_run",
    "abstract_substitution",
    "apply_action_b_bounded",
    "canonicalize_run",
    "concretize_word",
    "element_at_recency_index",
    "enumerate_b_bounded_successors",
    "execute_b_bounded_labels",
    "initial_recency_configuration",
    "is_b_bounded_extended_run",
    "is_b_bounded_substitution",
    "is_canonical_run",
    "is_valid_abstract_word",
    "iterate_b_bounded_runs",
    "minimal_recency_bound",
    "recency_index",
    "recent_elements",
    "run_isomorphism",
    "runs_equivalent_modulo_permutation",
    "symbolic_alphabet",
    "symbolic_substitutions_for_action",
]
