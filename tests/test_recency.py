"""Tests for the recency-bounded semantics (paper, Section 5)."""

import pytest

from repro.api import ExplorationOptions, run_reachability
from repro.casestudies.booking import booking_agency_system
from repro.database.instance import DatabaseInstance, Fact
from repro.database.schema import Schema
from repro.errors import ExecutionError, RecencyError
from repro.fol.parser import parse_query
from repro.recency.recent import element_at_recency_index, recency_index, recent_elements
from repro.recency.semantics import (
    RecencyConfiguration,
    apply_action_b_bounded,
    enumerate_b_bounded_successors,
    execute_b_bounded_labels,
    initial_recency_configuration,
    is_b_bounded_extended_run,
    is_b_bounded_substitution,
    minimal_recency_bound,
)
from repro.recency.sequence import SequenceNumbering


def test_sequence_numbering_injective_and_extension():
    numbering = SequenceNumbering({"e1": 1, "e2": 2})
    extended = numbering.extend_with(["e3", "e4"])
    assert extended["e3"] == 3 and extended["e4"] == 4
    assert extended.highest() == 4
    with pytest.raises(RecencyError):
        SequenceNumbering({"a": 1, "b": 1})
    with pytest.raises(RecencyError):
        numbering.extend_with(["e1"])


def test_sequence_numbering_canonical():
    assert SequenceNumbering.canonical(3).is_canonical()
    assert not SequenceNumbering({"e1": 2}).is_canonical()
    assert SequenceNumbering.canonical(3).order_recent_first(["e1", "e3", "e2"]) == (
        "e3",
        "e2",
        "e1",
    )


def test_recent_elements_and_index(example31, figure1_labels):
    run = execute_b_bounded_labels(example31, figure1_labels, bound=2)
    configuration = run.configurations()[1]  # after alpha: adom {e1,e2,e3}
    recent = recent_elements(configuration.instance, configuration.seq_no, 2)
    assert recent == frozenset({"e2", "e3"})
    assert recency_index(configuration.instance, configuration.seq_no, "e3") == 0
    assert recency_index(configuration.instance, configuration.seq_no, "e2") == 1
    assert recency_index(configuration.instance, configuration.seq_no, "e1") == 2
    assert element_at_recency_index(configuration.instance, configuration.seq_no, 0) == "e3"
    with pytest.raises(RecencyError):
        element_at_recency_index(configuration.instance, configuration.seq_no, 5)
    with pytest.raises(RecencyError):
        recency_index(configuration.instance, configuration.seq_no, "e99")


def test_recent_with_small_active_domain(example31):
    configuration = initial_recency_configuration(example31)
    assert configuration.recent(3) == frozenset()
    assert recent_elements(configuration.instance, configuration.seq_no, 0) == frozenset()


def test_figure1_run_is_2_bounded_not_1_bounded(example31, figure1_labels):
    assert is_b_bounded_extended_run(example31, figure1_labels, 2)
    assert not is_b_bounded_extended_run(example31, figure1_labels, 1)
    assert minimal_recency_bound(example31, figure1_labels) == 2


def test_b_bounded_substitution_rejects_old_elements(example31, figure1_labels):
    run = execute_b_bounded_labels(example31, figure1_labels, bound=2)
    configuration = run.configurations()[1]
    beta = example31.action("beta")
    # e1 has recency index 2, so it is not usable at bound 2.
    assert not is_b_bounded_substitution(
        beta, configuration, {"u": "e1", "v1": "e4", "v2": "e5"}, bound=2
    )
    assert is_b_bounded_substitution(
        beta, configuration, {"u": "e2", "v1": "e4", "v2": "e5"}, bound=2
    )
    with pytest.raises(ExecutionError):
        apply_action_b_bounded(
            beta, configuration, {"u": "e1", "v1": "e4", "v2": "e5"}, bound=2
        )


def test_sequence_numbers_follow_fresh_order(example31, figure1_labels):
    run = execute_b_bounded_labels(example31, figure1_labels, bound=2)
    final = run.final()
    for index in range(1, 12):
        assert final.seq_no[f"e{index}"] == index


def test_enumerate_b_bounded_successors_subset_of_unbounded(example31, figure1_labels):
    from repro.dms.semantics import enumerate_successors

    run = execute_b_bounded_labels(example31, figure1_labels, bound=2)
    configuration = run.configurations()[3]
    bounded = {
        (step.action.name, tuple(sorted(step.substitution.items())))
        for step in enumerate_b_bounded_successors(example31, configuration, 2)
    }
    unbounded = {
        (step.action.name, tuple(sorted(step.substitution.items())))
        for step in enumerate_successors(example31, configuration.plain())
    }
    assert bounded <= unbounded
    assert len(bounded) < len(unbounded)


def test_bounded_run_prefix_structure(example31, figure1_labels):
    run = execute_b_bounded_labels(example31, figure1_labels, bound=2)
    assert len(run) == 8
    assert run.bound == 2
    assert len(run.instances()) == 9
    assert run.labels()[0][0] == "alpha"
    assert run.to_run().instances == run.instances()


def test_configuration_canonicity(example31, figure1_labels):
    run = execute_b_bounded_labels(example31, figure1_labels, bound=2)
    assert all(configuration.is_canonical() for configuration in run.configurations())


# -- trusted successors: a count gate ------------------------------------------------


def _validations(monkeypatch, system, depth: int) -> tuple[int, dict]:
    """States explored and validating calls made by booking at b=2 up to ``depth``."""
    counts = {}

    def count(owner, name: str) -> None:
        original = owner.__dict__[name]
        counts[f"{owner.__name__}.{name}"] = 0

        def counted(*args, **kwargs):
            counts[f"{owner.__name__}.{name}"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(DatabaseInstance, "__init__")
    count(Fact, "__init__")
    count(Schema, "check_atom")
    count(SequenceNumbering, "__init__")
    count(RecencyConfiguration, "__post_init__")
    try:
        result = run_reachability(
            system, parse_query("Exists x. BAccepted(x)"), bound=2,
            options=ExplorationOptions(max_depth=depth), store=False,
        )
    finally:
        monkeypatch.undo()
    return result.configurations_explored, counts


def test_successors_are_built_without_validating_again(monkeypatch):
    """Validation happens at the edges: the counts do not grow with the graph.

    Successors are built from rows, so no :class:`Fact` is built at all.
    """
    system = booking_agency_system().compile_plans()
    shallow_states, shallow = _validations(monkeypatch, system, 3)
    deep_states, deep = _validations(monkeypatch, system, 5)
    assert (shallow_states, deep_states) == (42, 448)
    assert deep == shallow
    assert deep["Fact.__init__"] == 0
