"""Integration tests exercising the full pipeline across subsystems.

Each test stitches several packages together the way a user of the
library (or the paper's proof) would: build a system, execute it under
the bounded semantics, abstract, encode, validate, translate and check.
"""

import pytest

from repro.api import ExplorationOptions, run_reachability
from repro.dms.builder import DMSBuilder
from repro.encoding.analyzer import EncodingAnalyzer
from repro.encoding.encoder import encode_run
from repro.encoding.translate import evaluate_specification_via_encoding
from repro.fol.parser import parse_query
from repro.modelcheck.checker import RecencyBoundedModelChecker
from repro.modelcheck.result import Verdict
from repro.msofo.patterns import response_formula, safety_formula
from repro.msofo.semantics import holds_on_run
from repro.recency.abstraction import abstract_run
from repro.recency.concretize import concretize_word
from repro.recency.explorer import iterate_b_bounded_runs
from repro.transforms.freshness import weaken_freshness
from repro.transforms.overlapping import standard_substitution
from repro.workloads.generators import RandomDMSParameters, random_dms


@pytest.fixture
def order_system():
    """Orders are created, paid and archived; payment requires the order to be open."""
    builder = DMSBuilder("orders")
    builder.relations(("OpenOrder", 1), ("Paid", 1), ("Archived", 1), ("shop", 0))
    builder.initially("shop")
    builder.action("create", fresh=("o",), guard="shop", add=[("OpenOrder", "o")])
    builder.action(
        "pay", parameters=("o",), guard="OpenOrder(o)", delete=[], add=[("Paid", "o")]
    )
    builder.action(
        "archive",
        parameters=("o",),
        guard="OpenOrder(o) & Paid(o)",
        delete=[("OpenOrder", "o"), ("Paid", "o")],
        add=[("Archived", "o")],
    )
    return builder.build()


def test_full_pipeline_on_order_system(order_system):
    """Execute → abstract → concretise → encode → validate → translate → agree."""
    bound = 2
    runs = [run for run in iterate_b_bounded_runs(order_system, bound, depth=4, max_runs=30) if run.steps]
    assert runs
    specification = safety_formula(parse_query("exists o. Archived(o) & OpenOrder(o)"))
    for run in runs:
        word = abstract_run(run)
        canonical = concretize_word(order_system, word, bound)
        assert canonical.instances() == run.instances()
        encoding = encode_run(order_system, run)
        analyzer = EncodingAnalyzer(order_system, bound, encoding)
        assert analyzer.check_validity().valid
        from repro.dms.run import Run

        truncated = Run(run.instances()[:-1])
        assert holds_on_run(specification, truncated) == evaluate_specification_via_encoding(
            specification, analyzer
        )


def test_model_checking_agrees_with_reachability(order_system):
    """'¬∃o.Archived(o)' fails exactly when an archived order is reachable."""
    bound, depth = 2, 4
    reach = run_reachability(
        order_system,
        parse_query("exists o. Archived(o)"),
        bound=bound,
        options=ExplorationOptions(max_depth=depth),
    )
    checker = RecencyBoundedModelChecker(order_system, bound=bound, depth=depth)
    never_archived = checker.check(safety_formula(parse_query("exists o. Archived(o)")))
    assert reach.found
    assert never_archived.verdict is Verdict.FAILS
    counterexample_actions = [step.action.name for step in never_archived.counterexample.steps]
    assert counterexample_actions[-1] == "archive"


def test_response_property_over_bounded_runs(order_system):
    """Every archived order was paid at some strictly earlier position."""
    checker = RecencyBoundedModelChecker(order_system, bound=2, depth=4)
    paid_before_archive = response_formula(
        parse_query("exists o. Paid(o)"), parse_query("exists o. Archived(o)")
    )
    # This is a liveness-style property; on bounded prefixes it may be violated
    # (an order can be paid without ever being archived within the horizon).
    result = checker.check(paid_before_archive)
    assert result.verdict in (Verdict.FAILS, Verdict.UNKNOWN, Verdict.HOLDS)
    # The converse safety formulation holds: an archive step is always preceded by payment.
    safety = safety_formula(parse_query("exists o. Archived(o) & OpenOrder(o)"))
    assert not checker.check(safety).fails


def test_transformed_systems_stay_checkable(order_system):
    """The Appendix F.2/F.3 transformations produce systems the checker still handles."""
    for transformed in (standard_substitution(order_system), weaken_freshness(order_system)):
        result = run_reachability(
            transformed,
            parse_query("exists o. Archived(o)"),
            bound=2,
            options=ExplorationOptions(max_depth=4),
        )
        assert result.found


@pytest.mark.parametrize("seed", [0, 3, 5])
def test_random_systems_full_cross_validation(seed):
    """Random systems: every explored bounded run encodes validly and round-trips."""
    system = random_dms(seed, RandomDMSParameters(relations=2, max_arity=2, actions=3, max_fresh=2))
    bound = 2
    for run in iterate_b_bounded_runs(system, bound, depth=2, max_runs=10):
        if not run.steps:
            continue
        analyzer = EncodingAnalyzer(system, bound, encode_run(system, run))
        assert analyzer.check_validity().valid
        assert analyzer.symbolic_word() == abstract_run(run)
