"""Tests for counter machines and the Appendix D reductions."""

import pytest

from repro.api import ExplorationOptions, run_reachability
from repro.counter.machine import CounterMachine, control_state_reachable
from repro.counter.reductions import binary_encoding, state_proposition, unary_encoding
from repro.errors import CounterMachineError
from repro.fol.normalize import is_union_of_conjunctive_queries


@pytest.fixture
def simple_machine():
    return CounterMachine.create(
        states=["q0", "q1", "q2", "qf"],
        initial_state="q0",
        counter_count=2,
        instructions=[
            ("q0", "inc", 1, "q1"),
            ("q1", "inc", 1, "q2"),
            ("q2", "dec", 1, "q1"),
            ("q1", "ifz", 2, "qf"),
        ],
        name="simple",
    )


def test_machine_validation():
    with pytest.raises(CounterMachineError):
        CounterMachine.create(["q0"], "q1", 2, [])
    with pytest.raises(CounterMachineError):
        CounterMachine.create(["q0"], "q0", 2, [("q0", "inc", 3, "q0")])
    with pytest.raises(CounterMachineError):
        CounterMachine.create(["q0"], "q0", 0, [])


def test_machine_semantics(simple_machine):
    initial = simple_machine.initial_configuration()
    assert initial.counters == (0, 0)
    successors = simple_machine.successors(initial)
    assert len(successors) == 1 and successors[0].value(1) == 1
    # dec blocks on zero, ifz blocks on non-zero.
    trace = simple_machine.run_trace([0])
    after_inc = trace[-1]
    options = {succ.state for succ in simple_machine.successors(after_inc)}
    assert options == {"q2", "qf"}


def test_control_state_reachability(simple_machine):
    assert control_state_reachable(simple_machine, "qf")
    unreachable = CounterMachine.create(
        states=["q0", "q1", "qf"],
        initial_state="q0",
        counter_count=2,
        instructions=[("q0", "inc", 1, "q0"), ("q0", "dec", 2, "q1"), ("q1", "inc", 2, "qf")],
    )
    assert not control_state_reachable(unreachable, "qf", max_steps=20)
    with pytest.raises(CounterMachineError):
        control_state_reachable(simple_machine, "nope")


def test_unary_encoding_structure(simple_machine):
    system = unary_encoding(simple_machine)
    assert system.schema.arity_of("C1") == 1
    assert state_proposition("qf") in system.schema.names
    assert len(system.actions) == len(simple_machine.instructions)
    assert system.initial_instance.holds_proposition(state_proposition("q0"))


def test_binary_encoding_structure_and_ucq_guards(simple_machine):
    system = binary_encoding(simple_machine)
    assert system.schema.arity_of("Succ") == 2
    assert len(system.actions) == len(simple_machine.instructions) + 1
    for action in system.actions:
        assert is_union_of_conjunctive_queries(action.guard), action.name


def test_unary_encoding_reachability_agrees(simple_machine):
    system = unary_encoding(simple_machine)
    result = run_reachability(
        system, state_proposition("qf"), bound=2, options=ExplorationOptions(max_depth=6)
    )
    assert result.found == control_state_reachable(simple_machine, "qf")


def test_binary_encoding_reachability_agrees(simple_machine):
    system = binary_encoding(simple_machine)
    result = run_reachability(
        system, state_proposition("qf"), bound=2, options=ExplorationOptions(max_depth=8)
    )
    assert result.found == control_state_reachable(simple_machine, "qf")


def test_encodings_reject_non_two_counter_machines():
    machine = CounterMachine.create(["q0"], "q0", 3, [])
    with pytest.raises(CounterMachineError):
        unary_encoding(machine)
    with pytest.raises(CounterMachineError):
        binary_encoding(machine)


def test_counter_values_tracked_by_relation_sizes(simple_machine):
    """In the unary encoding, |C_i| equals the counter value along a run."""
    from repro.dms.semantics import enumerate_successors, initial_configuration

    system = unary_encoding(simple_machine)
    configuration = initial_configuration(system)
    # Apply the increment twice via canonical successor enumeration.
    for _ in range(2):
        steps = [
            step
            for step in enumerate_successors(system, configuration)
            if "inc" in step.action.name
        ]
        assert steps
        configuration = steps[0].target
    assert len(configuration.instance.relation_rows("C1")) == 2
