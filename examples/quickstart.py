"""Quickstart: build a DMS, run it, and model-check it under a recency bound.

The example models a tiny ticketing desk: requests are opened with fresh
identifiers, can be assigned, and are eventually closed.  We then check a
safety property ("a ticket is never simultaneously open and closed") and
a reachability property under the recency-bounded semantics.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.api import ExplorationOptions, run_reachability
from repro.dms import DMSBuilder, enumerate_successors, initial_configuration
from repro.fol import parse_query
from repro.modelcheck import RecencyBoundedModelChecker
from repro.msofo.patterns import safety_formula


def build_ticketing_system():
    """A small database-manipulating system (DMS) for a ticketing desk."""
    builder = DMSBuilder("ticketing")
    builder.relations(("Open", 1), ("Assigned", 2), ("Closed", 1), ("desk_open", 0), ("backlog_empty", 0))
    builder.initially("desk_open")
    # A customer opens a ticket: a fresh identifier enters the database.
    builder.action("open_ticket", fresh=("t",), guard="desk_open", add=[("Open", "t")])
    # An agent (also a fresh value the first time we see them) takes a ticket.
    builder.action(
        "assign",
        parameters=("t",),
        fresh=("a",),
        guard="Open(t)",
        add=[("Assigned", "t", "a")],
    )
    # Closing removes the ticket from the open pool but keeps the audit trail in Assigned.
    builder.action(
        "close",
        parameters=("t", "a"),
        guard="Open(t) & Assigned(t, a)",
        delete=[("Open", "t")],
        add=[("Closed", "t")],
    )
    # The desk can observe that nothing is open any more.
    builder.action(
        "observe_empty",
        guard="desk_open & !exists t. Open(t)",
        add=[("backlog_empty",)],
    )
    return builder.build()


def main() -> None:
    system = build_ticketing_system()
    print(f"System: {system.name} with actions {system.action_names()}")

    # 1. Execute a few canonical steps of the (unbounded) semantics.
    configuration = initial_configuration(system)
    for _ in range(3):
        step = next(iter(enumerate_successors(system, configuration)))
        print(f"  applied {step.action.name:14s} -> {step.target.instance.pretty()}")
        configuration = step.target

    # 2. Recency-bounded reachability: can a ticket ever be closed when only the
    #    2 most recent elements may be modified?
    options = ExplorationOptions(max_depth=4)
    closed_reachable = run_reachability(
        system, parse_query("exists t. Closed(t)"), bound=2, options=options
    )
    print(f"'some ticket closed' reachable at b=2: {closed_reachable.found} "
          f"({closed_reachable.configurations_explored} configurations explored)")

    # 3. Recency-bounded model checking of a safety property over all 2-bounded runs.
    checker = RecencyBoundedModelChecker(system, bound=2, depth=4)
    never_open_and_closed = safety_formula(parse_query("exists t. Open(t) & Closed(t)"))
    result = checker.check(never_open_and_closed)
    print(f"safety 'never open and closed at once': verdict={result.verdict.value} "
          f"after checking {result.runs_checked} run prefixes")

    # 4. The same reachability question through the sharded engine: interned
    #    configurations are hash-partitioned across 4 work-stealing shards
    #    (workers > 1 would batch successor expansion across processes), and
    #    the merged result — verdict, statistics, witness — is bit-identical
    #    to the single-shard exploration of step 2.
    sharded = run_reachability(
        system, parse_query("exists t. Closed(t)"), bound=2,
        options=options.replace(shards=4, workers=1),
    )
    assert sharded.found == closed_reachable.found
    assert sharded.configurations_explored == closed_reachable.configurations_explored
    assert sharded.witness.steps == closed_reachable.witness.steps
    print(f"sharded (4 shards) agrees: {sharded.found} "
          f"({sharded.configurations_explored} configurations explored)")


if __name__ == "__main__":
    main()
