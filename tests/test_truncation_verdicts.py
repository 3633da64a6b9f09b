"""Regression tests: truncated explorations must never report ``FAILS``.

:func:`repro.api.run_reachability` is three-valued, bounded or not: a
condition that was not reached is ``FAILS`` only when the explored
fragment was *complete*.  Whenever the explorer truncated on
``max_configurations`` or ``max_steps`` — including the off-by-one case
where the limit is hit exactly on the last successor of an
otherwise-complete exploration — the verdict must be ``UNKNOWN``.
"""

from __future__ import annotations

import pytest

from repro.api import ExplorationOptions, run_reachability
from repro.dms.builder import DMSBuilder
from repro.modelcheck.result import Verdict


@pytest.fixture(scope="module")
def two_step_system():
    """a → b → c, then a dead end; ``goal`` is genuinely unreachable.

    The full configuration graph has exactly 3 configurations and
    2 edges, reached at depth 2 — comfortably below the depth limits
    used in the tests, so un-truncated explorations are exhaustive.
    """
    builder = DMSBuilder("two-step")
    builder.relations(("a", 0), ("b", 0), ("c", 0), ("goal", 0))
    builder.initially("a")
    builder.action("s1", guard="a", delete=[("a",)], add=[("b",)])
    builder.action("s2", guard="b", delete=[("b",)], add=[("c",)])
    return builder.build()


TOTAL_CONFIGURATIONS = 3
TOTAL_EDGES = 2


def test_exhaustive_exploration_reports_fails(two_step_system):
    options = ExplorationOptions(max_depth=5)
    result = run_reachability(two_step_system, "goal", options=options)
    assert result.reachable is Verdict.FAILS
    assert result.configurations_explored == TOTAL_CONFIGURATIONS
    assert result.edges_explored == TOTAL_EDGES
    bounded = run_reachability(two_step_system, "goal", bound=0, options=options)
    assert bounded.reachable is Verdict.FAILS


@pytest.mark.parametrize("max_configurations", [1, 2])
def test_configuration_truncation_reports_unknown(two_step_system, max_configurations):
    options = ExplorationOptions(max_depth=5, max_configurations=max_configurations)
    result = run_reachability(two_step_system, "goal", options=options)
    assert result.reachable is Verdict.UNKNOWN
    bounded = run_reachability(two_step_system, "goal", bound=0, options=options)
    assert bounded.reachable is Verdict.UNKNOWN


def test_exact_configuration_limit_on_last_successor_reports_unknown(two_step_system):
    # The limit equals the total number of configurations: it is hit
    # exactly when the last successor is discovered, so the exploration
    # stops before confirming there are no further edges — UNKNOWN, not
    # FAILS.
    options = ExplorationOptions(max_depth=5, max_configurations=TOTAL_CONFIGURATIONS)
    result = run_reachability(two_step_system, "goal", options=options)
    assert result.reachable is Verdict.UNKNOWN
    bounded = run_reachability(two_step_system, "goal", bound=0, options=options)
    assert bounded.reachable is Verdict.UNKNOWN


@pytest.mark.parametrize("max_steps", [1, TOTAL_EDGES])
def test_step_truncation_reports_unknown(two_step_system, max_steps):
    # max_steps == TOTAL_EDGES is the exact off-by-one: the limit is hit
    # on the very last edge of a complete exploration.
    options = ExplorationOptions(max_depth=5, max_steps=max_steps)
    result = run_reachability(two_step_system, "goal", options=options)
    assert result.reachable is Verdict.UNKNOWN
    bounded = run_reachability(two_step_system, "goal", bound=0, options=options)
    assert bounded.reachable is Verdict.UNKNOWN


def test_witness_on_the_truncating_successor_still_holds(two_step_system):
    # The predicate is checked on every generated successor before the
    # truncation check, so a witness found on the limit-hitting edge
    # wins: HOLDS, not UNKNOWN.
    result = run_reachability(
        two_step_system,
        "c",
        options=ExplorationOptions(max_depth=5, max_configurations=TOTAL_CONFIGURATIONS),
    )
    assert result.reachable is Verdict.HOLDS
    assert len(result.witness.steps) == 2
    bounded = run_reachability(
        two_step_system,
        "c",
        bound=0,
        options=ExplorationOptions(max_depth=5, max_steps=TOTAL_EDGES),
    )
    assert bounded.reachable is Verdict.HOLDS


def test_depth_limited_exploration_reports_unknown(two_step_system):
    # Horizon effect: the graph continues past the depth limit.
    result = run_reachability(two_step_system, "goal", options=ExplorationOptions(max_depth=1))
    assert result.reachable is Verdict.UNKNOWN
