"""The booking-agency case study (paper, Example 3.2 and Appendix C).

The script drives the artifact lifecycles of Figure 5 through a happy
path (offer published, booked, finalised, accepted), shows how the
*gold customer* history query changes the behaviour of the acceptance
step, and runs a bounded recency-bounded analysis of the whole process.

Run with:  python examples/booking_agency.py
"""

from __future__ import annotations

from repro.api import ExplorationOptions, run_reachability
from repro.casestudies.booking import booking_agency_system, gold_customer_query
from repro.dms import enumerate_successors, execute_labels
from repro.fol import satisfies
from repro.fol.syntax import Atom, Exists
from repro.recency import RecencyExplorer
from repro.recency.explorer import RecencyExplorationLimits


HAPPY_PATH = [
    ("regRestaurant", {"r": "e1"}),
    ("regAgent", {"a": "e2"}),
    ("regCustomer", {"c": "e3"}),
    ("newO1", {"r": "e1", "a": "e2", "o": "e4"}),
    ("newB", {"c": "e3", "o": "e4", "bk": "e5"}),
    ("addP2", {"bk": "e5", "h": "e6"}),
    ("checkP", {"bk": "e5", "h": "e6"}),
    ("detProp", {"bk": "e5", "url": "e7"}),
    ("accept2", {"bk": "e5", "o": "e4", "c": "e3", "r": "e1"}),
    ("confirm", {"bk": "e5", "o": "e4"}),
]


def main() -> None:
    system = booking_agency_system(gold_threshold=1)
    print(f"Booking agency model: {len(system.actions)} actions over {len(system.schema)} relations")

    print("\n== Happy path: publish, book, finalise, accept ==")
    run = execute_labels(system, HAPPY_PATH)
    final = run.final().instance
    print(f"  final database: {final.pretty()}")
    print(f"  booking accepted: {final.holds('BAccepted', 'e5')}, offer closed: {final.holds('OClosed', 'e4')}")

    print("\n== The gold-customer history query (Appendix C) ==")
    gold = gold_customer_query("c", "r", threshold=1)
    print(f"  customer e3 is now gold for restaurant e1: {satisfies(final, gold, {'c': 'e3', 'r': 'e1'})}")
    follow_up = HAPPY_PATH + [
        ("regAgent", {"a": "e8"}),
        ("newO1", {"r": "e1", "a": "e8", "o": "e9"}),
        ("newB", {"c": "e3", "o": "e9", "bk": "e10"}),
        ("detProp", {"bk": "e10", "url": "e11"}),
    ]
    state = execute_labels(system, follow_up).final()
    enabled = {step.action.name for step in enumerate_successors(system, state)}
    print(f"  on the second booking the enabled acceptance action is: "
          f"{sorted(name for name in enabled if name.startswith('accept'))} (gold path)")

    print("\n== Recency-bounded analysis ==")
    explorer = RecencyExplorer(
        system, bound=4, limits=RecencyExplorationLimits(max_depth=5, max_configurations=5000)
    )
    exploration = explorer.explore()
    print(f"  explored {exploration.configuration_count} configurations "
          f"({exploration.edge_count} transitions) at bound 4, depth 5")
    reachable = run_reachability(
        system,
        Exists("b", Atom("BDrafting", ("b",))),
        bound=5,
        options=ExplorationOptions(max_depth=6),
    )
    print(f"  'a booking reaches the drafting state' reachable at b=5: {reachable.found}")


if __name__ == "__main__":
    main()
