"""The undecidability reductions of Theorem 4.1 (Appendix D), executed.

A two-counter Minsky machine is compiled into (i) a DMS with two unary
relations and FOL guards and (ii) a DMS with one binary relation and UCQ
guards.  Control-state reachability of the machine coincides with
propositional reachability of the corresponding ``S_q`` in both
encodings — which is exactly why propositional reachability of DMSs is
undecidable in general, and why the paper turns to recency-bounded
under-approximation.

Run with:  python examples/counter_machine_undecidability.py
"""

from __future__ import annotations

from repro.api import ExplorationOptions, run_reachability
from repro.counter import (
    CounterMachine,
    binary_encoding,
    control_state_reachable,
    state_proposition,
    unary_encoding,
)


def build_machine() -> CounterMachine:
    """Increment counter 1 twice, transfer it to counter 2, then test for zero."""
    return CounterMachine.create(
        states=["q0", "q1", "loop", "drain", "qf"],
        initial_state="q0",
        counter_count=2,
        instructions=[
            ("q0", "inc", 1, "q1"),
            ("q1", "inc", 1, "loop"),
            ("loop", "dec", 1, "loop"),
            ("loop", "ifz", 1, "drain"),
            ("drain", "ifz", 2, "qf"),
        ],
        name="transfer",
    )


def main() -> None:
    machine = build_machine()
    print(f"Machine {machine.name}: {len(machine.instructions)} instructions, target state qf")
    machine_verdict = control_state_reachable(machine, "qf")
    print(f"  control-state reachability of qf (machine level): {machine_verdict}")

    unary = unary_encoding(machine)
    binary = binary_encoding(machine)
    print(f"\nUnary encoding : schema {unary.schema}")
    print(f"Binary encoding: schema {binary.schema}")

    target = state_proposition("qf")
    unary_result = run_reachability(
        unary, target, bound=2, options=ExplorationOptions(max_depth=10)
    )
    binary_result = run_reachability(
        binary, target, bound=2, options=ExplorationOptions(max_depth=12)
    )
    print(f"\n  S_qf reachable in the unary-encoding DMS : {unary_result.found} "
          f"({unary_result.configurations_explored} configurations)")
    print(f"  S_qf reachable in the binary-encoding DMS: {binary_result.found} "
          f"({binary_result.configurations_explored} configurations)")
    print(f"\n  all three verdicts agree: {machine_verdict == unary_result.found == binary_result.found}")

    if unary_result.witness is not None:
        print("\n  witnessing DMS run (unary encoding):")
        for step in unary_result.witness.steps:
            print(f"    {step.action.name:20s} -> {step.target.instance.pretty()}")


if __name__ == "__main__":
    main()
