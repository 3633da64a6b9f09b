"""Tests for the recency-indexing abstraction, Concr and canonical runs (Section 6.1)."""

import pytest

from repro.recency.abstraction import (
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
from repro.recency.concretize import ConcretizationError, canonicalize_run, concretize_word, is_valid_abstract_word
from repro.recency.explorer import RecencyExplorer, iterate_b_bounded_runs
from repro.recency.semantics import execute_b_bounded_labels
from repro.search import ExplorationOptions


def expected_example_61_abstraction():
    """The abstract generating sequence of Example 6.1."""
    return [
        ("alpha", {"v1": -1, "v2": -2, "v3": -3}),
        ("beta", {"u": 1, "v1": -1, "v2": -2}),
        ("alpha", {"v1": -1, "v2": -2, "v3": -3}),
        ("gamma", {"u": 1}),
        ("delta", {"u1": 0, "u2": 1}),
        ("delta", {"u1": 1, "u2": 0}),
        ("delta", {"u1": 1, "u2": 1}),
        ("alpha", {"v1": -1, "v2": -2, "v3": -3}),
    ]


def test_symbolic_substitution_accessors():
    substitution = SymbolicSubstitution.of({"u": 1, "v1": -1})
    assert substitution["u"] == 1
    assert substitution.parameter_indices() == {"u": 1}
    assert substitution.fresh_indices() == {"v1": -1}
    assert substitution.max_parameter_index() == 1


def test_symbolic_substitutions_for_action_counts(example31):
    beta = example31.action("beta")
    assert len(symbolic_substitutions_for_action(beta, 2)) == 2
    assert len(symbolic_substitutions_for_action(beta, 3)) == 3
    delta = example31.action("delta")
    assert len(symbolic_substitutions_for_action(delta, 2)) == 4
    alpha = example31.action("alpha")
    assert len(symbolic_substitutions_for_action(alpha, 2)) == 1
    assert len(symbolic_substitutions_for_action(beta, 0)) == 0


def test_symbolic_alphabet_size(example31):
    # alpha:1, beta:2, gamma:2, delta:4 at b = 2.
    assert len(symbolic_alphabet(example31, 2)) == 9
    assert len(symbolic_alphabet(example31, 3)) == 1 + 3 + 3 + 9


def test_abstraction_matches_example_61(example31, figure1_labels):
    run = execute_b_bounded_labels(example31, figure1_labels, bound=2)
    word = abstract_run(run)
    expected = expected_example_61_abstraction()
    assert len(word) == len(expected)
    for label, (action, mapping) in zip(word, expected):
        assert label.action_name == action
        assert dict(label.substitution) == mapping


def test_abstract_substitution_rejects_out_of_window(example31, figure1_labels):
    from repro.errors import RecencyError

    run = execute_b_bounded_labels(example31, figure1_labels, bound=3)
    configuration = run.configurations()[1]
    beta = example31.action("beta")
    with pytest.raises(RecencyError):
        abstract_substitution(beta, configuration, {"u": "e1", "v1": "e4", "v2": "e5"}, bound=2)


def test_concretize_roundtrip_is_identity_on_canonical_runs(example31, figure1_labels):
    run = execute_b_bounded_labels(example31, figure1_labels, bound=2)
    assert is_canonical_run(run)
    word = abstract_run(run)
    rebuilt = concretize_word(example31, word, 2)
    assert rebuilt.instances() == run.instances()
    assert canonicalize_run(example31, run).labels() == run.labels()


def test_concretize_rejects_invalid_words(example31):
    alphabet = symbolic_alphabet(example31, 2)
    beta_label = next(label for label in alphabet if label.action_name == "beta")
    # beta cannot fire at the empty initial database.
    with pytest.raises(ConcretizationError) as error:
        concretize_word(example31, [beta_label], 2)
    assert error.value.failed_at == 0
    assert not is_valid_abstract_word(example31, [beta_label], 2)


def test_runs_with_same_abstraction_are_isomorphic(example31, figure1_labels):
    """Lemma E.1 on a concrete pair of runs differing by a domain permutation."""
    run = execute_b_bounded_labels(example31, figure1_labels, bound=2)
    permuted_labels = []
    renaming = {f"e{i}": f"e{i + 20}" for i in range(1, 12)}
    for action, sigma in figure1_labels:
        permuted_labels.append((action, {k: renaming.get(v, v) for k, v in sigma.items()}))
    permuted = execute_b_bounded_labels(example31, permuted_labels, bound=2)
    assert abstract_run(permuted) == abstract_run(run)
    assert runs_equivalent_modulo_permutation(run, permuted)
    isomorphism = run_isomorphism(run, permuted)
    assert isomorphism is not None and isomorphism["e1"] == "e21"
    assert not is_canonical_run(permuted)


def test_explorer_and_iteration_only_produce_valid_runs(example31):
    explorer = RecencyExplorer(
        example31, bound=2, options=ExplorationOptions(max_depth=3, retention="full")
    )
    result = explorer.explore()
    assert result.configuration_count > 1
    for run in iterate_b_bounded_runs(example31, bound=2, depth=3, max_runs=20):
        word = abstract_run(run)
        assert is_valid_abstract_word(example31, word, 2)
        assert is_canonical_run(run)
