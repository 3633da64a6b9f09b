"""Tests for the case studies (Appendix C booking agency, warehouse, students)."""


from repro.casestudies.booking import (
    BOOKING_STATES,
    OFFER_STATES,
    booking_agency_system,
    gold_customer_query,
)
from repro.casestudies.simple import example_31_system, figure_1_labels
from repro.casestudies.students import students_system
from repro.casestudies.warehouse import warehouse_base_system, warehouse_system
from repro.dms.semantics import enumerate_successors, execute_labels, initial_configuration
from repro.fol.evaluator import satisfies
from repro.recency.explorer import RecencyExplorer
from repro.search import ExplorationOptions


def test_example31_system_shape():
    system = example_31_system()
    assert system.action_names() == ("alpha", "beta", "delta", "gamma")
    assert system.max_fresh == 3
    assert len(figure_1_labels()) == 8


def test_booking_system_shape():
    system = booking_agency_system()
    assert len(system.actions) == 17
    for state in OFFER_STATES + BOOKING_STATES:
        assert state in system.schema
    assert system.schema.arity_of("Offer") == 3
    assert system.schema.arity_of("Booking") == 3


def booking_happy_path_labels():
    """Registration, offer publication, booking, finalisation and acceptance."""
    return [
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


def test_booking_happy_path_executes():
    system = booking_agency_system()
    run = execute_labels(system, booking_happy_path_labels())
    final = run.final().instance
    assert final.holds("BAccepted", "e5")
    assert final.holds("OClosed", "e4")
    assert not final.relation_rows("Hosts")
    # The booking log persists (history-dependent behaviour).
    assert final.holds("Booking", "e5", "e4", "e3")


def test_booking_gold_customer_query():
    system = booking_agency_system()
    run = execute_labels(system, booking_happy_path_labels())
    final = run.final().instance
    gold = gold_customer_query("c", "r", threshold=1)
    assert satisfies(final, gold, {"c": "e3", "r": "e1"})
    assert not satisfies(final, gold, {"c": "e1", "r": "e1"})
    # A threshold of 2 is not yet met.
    assert not satisfies(final, gold_customer_query("c", "r", 2), {"c": "e3", "r": "e1"})


def test_booking_second_booking_uses_gold_path():
    """After one accepted booking, accept1 (gold) becomes enabled for the same customer."""
    system = booking_agency_system()
    # The first agent still has the closed offer logged against them, so a second
    # agent publishes the next offer.
    labels = booking_happy_path_labels() + [
        ("regAgent", {"a": "e8"}),
        ("newO1", {"r": "e1", "a": "e8", "o": "e9"}),
        ("newB", {"c": "e3", "o": "e9", "bk": "e10"}),
        ("detProp", {"bk": "e10", "url": "e11"}),
    ]
    run = execute_labels(system, labels)
    enabled = {step.action.name for step in enumerate_successors(system, run.final())}
    assert "accept1" in enabled
    assert "accept2" not in enabled


def test_booking_onhold_and_resume_lifecycle():
    system = booking_agency_system()
    labels = [
        ("regRestaurant", {"r": "e1"}),
        ("regAgent", {"a": "e2"}),
        ("newO1", {"r": "e1", "a": "e2", "o": "e3"}),
        # A second, more interesting offer puts the first one on hold.
        ("newO2", {"r": "e1", "a": "e2", "oold": "e3", "o": "e4"}),
        ("closeO", {"o": "e4"}),
        ("regAgent", {"a": "e5"}),
        ("resume", {"a": "e5", "o": "e3", "r": "e1", "aold": "e2"}),
    ]
    run = execute_labels(system, labels)
    final = run.final().instance
    assert final.holds("OAvail", "e3")
    assert final.holds("Offer", "e3", "e1", "e5")
    assert not final.holds("OOnHold", "e3")


def test_booking_bounded_exploration_is_nontrivial():
    system = booking_agency_system()
    explorer = RecencyExplorer(
        system,
        bound=3,
        options=ExplorationOptions(max_depth=4, max_configurations=2000, retention="full"),
    )
    result = explorer.explore()
    assert result.configuration_count > 50


def test_warehouse_systems():
    base = warehouse_base_system()
    assert base.action_names() == ("receive",)
    compiled = warehouse_system()
    assert len(compiled.actions) == 8  # receive + 7 protocol actions
    assert "Lock_NewO" in compiled.schema


def test_students_variants():
    plain = students_system()
    dropout = students_system(allow_dropout=True)
    assert "drop" not in plain.action_names()
    assert "drop" in dropout.action_names()
    configuration = initial_configuration(plain)
    steps = list(enumerate_successors(plain, configuration))
    assert [step.action.name for step in steps] == ["enrol"]
