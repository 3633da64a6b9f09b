"""Tests for database instances, their algebra and their pickled form."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.casestudies.booking import booking_agency_system
from repro.database.instance import DatabaseInstance, Fact
from repro.database.schema import Schema, schema_from_pairs
from repro.errors import ArityError, SchemaError, UnknownRelationError
from repro.recency.semantics import enumerate_b_bounded_successors, initial_recency_configuration


def test_fact_basics():
    fact = Fact.of("R", "e1", "e2")
    assert fact.arity == 2
    assert fact.values == frozenset({"e1", "e2"})
    assert str(fact) == "R(e1, e2)"
    assert str(Fact.of("p")) == "p"


def test_fact_rename():
    fact = Fact.of("R", "e1", "e2").rename({"e1": "x"})
    assert fact.arguments == ("x", "e2")


def test_instance_construction_and_lookup(simple_schema, sample_instance):
    assert len(sample_instance) == 5
    assert sample_instance.holds("R", "e1")
    assert not sample_instance.holds("R", "e3")
    assert sample_instance.holds_proposition("p")
    assert sample_instance.active_domain() == frozenset({"e1", "e2", "e3"})


def test_instance_rejects_wrong_arity(simple_schema):
    with pytest.raises(ArityError):
        DatabaseInstance.of(simple_schema, Fact.of("R", "e1", "e2"))


def test_instance_rejects_unknown_relation(simple_schema):
    with pytest.raises(UnknownRelationError):
        DatabaseInstance.of(simple_schema, Fact.of("T", "e1"))


def test_instance_union_and_difference(simple_schema):
    left = DatabaseInstance.of(simple_schema, Fact.of("R", "e1"), Fact.of("p"))
    right = DatabaseInstance.of(simple_schema, Fact.of("R", "e2"))
    union = left + right
    assert len(union) == 3
    difference = union - right
    assert difference == left


def test_apply_update_additions_win(simple_schema):
    instance = DatabaseInstance.of(simple_schema, Fact.of("R", "e1"))
    updated = instance.apply_update([Fact.of("R", "e1")], [Fact.of("R", "e1")])
    assert updated.holds("R", "e1")


def test_from_dict(simple_schema):
    instance = DatabaseInstance.from_dict(
        simple_schema, {"p": True, "R": ["e1", "e2"], "S": [("e1", "e2")]}
    )
    assert instance.holds("S", "e1", "e2")
    assert instance.holds_proposition("p")
    assert len(instance) == 4


def test_from_dict_rejects_non_boolean_proposition(simple_schema):
    with pytest.raises(SchemaError):
        DatabaseInstance.from_dict(simple_schema, {"p": ["e1"]})


def test_holds_proposition_requires_nullary(simple_schema, sample_instance):
    with pytest.raises(SchemaError):
        sample_instance.holds_proposition("R")


def test_rename_values(simple_schema, sample_instance):
    renamed = sample_instance.rename_values({"e1": "x1"})
    assert renamed.holds("R", "x1")
    assert not renamed.holds("R", "e1")
    assert renamed.holds("S", "x1", "e3")


def test_is_isomorphic_to(simple_schema):
    left = DatabaseInstance.of(simple_schema, Fact.of("S", "e1", "e2"))
    right = DatabaseInstance.of(simple_schema, Fact.of("S", "a", "b"))
    assert left.is_isomorphic_to(right, {"e1": "a", "e2": "b"})
    assert not left.is_isomorphic_to(right, {"e1": "b", "e2": "a"})
    assert not left.is_isomorphic_to(right, {"e1": "a"})


def test_algebra_requires_same_schema(simple_schema):
    other_schema = Schema.of(("R", 1))
    left = DatabaseInstance.of(simple_schema, Fact.of("R", "e1"))
    right = DatabaseInstance.of(other_schema, Fact.of("R", "e1"))
    with pytest.raises(SchemaError):
        left + right


def test_true_propositions_and_restrict(simple_schema, sample_instance):
    assert sample_instance.true_propositions() == frozenset({"p"})
    only_r = sample_instance.restrict_to_relations(["R"])
    assert len(only_r) == 2


def test_facts_containing(sample_instance):
    facts = sample_instance.facts_containing("e1")
    assert {str(fact) for fact in facts} == {"R(e1)", "S(e1, e3)"}


def test_instance_equality_and_hash(simple_schema):
    left = DatabaseInstance.of(simple_schema, Fact.of("R", "e1"))
    right = DatabaseInstance.of(simple_schema, Fact.of("R", "e1"))
    assert left == right
    assert hash(left) == hash(right)
    assert left != DatabaseInstance.empty(simple_schema)


def test_pretty_rendering(sample_instance):
    text = sample_instance.pretty()
    assert "R:" in text and "p" in text


# -- the instance is its index; states pickle as rows --------------------------------

_STATE_PROBE = """
import pickle, sys
sys.path.insert(0, sys.argv[1])
from repro.casestudies.booking import booking_agency_system
from repro.recency.semantics import enumerate_b_bounded_successors, initial_recency_configuration

system = booking_agency_system()
frontier = [initial_recency_configuration(system)]
for _ in range(3):
    frontier = [s.target for c in frontier for s in enumerate_b_bounded_successors(system, c, 2)]
sys.stdout.buffer.write(pickle.dumps(frontier[-1], protocol=pickle.HIGHEST_PROTOCOL))
"""


def _count_facts(monkeypatch) -> dict:
    """Count every :class:`Fact` built from now on."""
    counts = {"facts": 0}
    original = Fact.__init__

    def counted(self, *args, **kwargs):
        counts["facts"] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(Fact, "__init__", counted)
    return counts


def test_equal_instances_have_equal_indexes_whatever_the_build(simple_schema, sample_instance):
    emptied = sample_instance - sample_instance.restrict_to_relations(["Q"])
    direct = DatabaseInstance.of(
        simple_schema,
        Fact.of("p"),
        Fact.of("R", "e1"),
        Fact.of("R", "e2"),
        Fact.of("S", "e1", "e3"),
    )
    assert emptied == direct and hash(emptied) == hash(direct)
    assert "Q" not in emptied.rows_by_relation()  # a relation without rows is absent
    assert emptied.rows_by_relation() == direct.rows_by_relation()
    assert Fact.of("R", "e1") in emptied and Fact.of("Q", "e3") not in emptied
    assert "R(e1)" not in emptied  # only facts are members
    assert sorted(emptied, key=str) == sorted(direct.facts, key=str)


def test_instances_pickle_as_their_rows_and_load_without_building_facts(
    sample_instance, monkeypatch
):
    schema, rows = sample_instance.__getstate__()
    assert schema is sample_instance.schema and rows == sample_instance.rows_by_relation()
    blob = pickle.dumps(sample_instance, protocol=pickle.HIGHEST_PROTOCOL)
    counts = _count_facts(monkeypatch)
    loaded = pickle.loads(blob)
    assert counts["facts"] == 0
    assert loaded == sample_instance and hash(loaded) == hash(sample_instance)
    assert loaded.schema is sample_instance.schema  # the schema this process holds
    assert loaded.active_domain() == sample_instance.active_domain()
    # A successor keeps its parent's untouched row sets, and one pickle
    # shares the row sets several states hold.
    grown = sample_instance._updated([("Q", [], [("e4",)])])
    assert grown == sample_instance.add_facts([Fact.of("Q", "e4")])
    assert grown.relation_rows("R") is sample_instance.relation_rows("R")
    left, right = pickle.loads(pickle.dumps([sample_instance, grown]))
    assert left.relation_rows("R") is right.relation_rows("R")


def test_states_written_before_rows_still_load(simple_schema, sample_instance):
    # Before instances pickled as rows they pickled as (schema, facts),
    # and schemas as their sorted relation symbols.
    schema = Schema.__new__(Schema)
    schema.__setstate__((simple_schema.relations,))
    assert schema == simple_schema and hash(schema) == hash(simple_schema)
    instance = DatabaseInstance.__new__(DatabaseInstance)
    instance.__setstate__((schema, frozenset(sample_instance.facts)))
    assert instance == sample_instance and hash(instance) == hash(sample_instance)
    misfit = DatabaseInstance.__new__(DatabaseInstance)
    with pytest.raises(ArityError):
        misfit.__setstate__((schema, frozenset([Fact.of("R", "e1", "e2")])))


@pytest.mark.parametrize(
    "rows,error",
    [
        ({"T": frozenset([("e1",)])}, UnknownRelationError),
        ({"R": frozenset([("e1", "e2")])}, ArityError),
        ({"R": frozenset(["e1"])}, SchemaError),
        ({"R": frozenset()}, SchemaError),
        ({"R": [("e1",)]}, SchemaError),
    ],
    ids=["unknown-relation", "wrong-arity", "non-tuple-row", "empty-rows", "rows-not-a-frozenset"],
)
def test_malformed_row_states_are_rejected(simple_schema, rows, error):
    instance = DatabaseInstance.__new__(DatabaseInstance)
    with pytest.raises(error):
        instance.__setstate__((simple_schema, rows))


def test_schemas_pickle_as_pairs_and_load_as_the_one_this_process_holds(simple_schema):
    loaded = pickle.loads(pickle.dumps(simple_schema))
    assert loaded is simple_schema
    unsorted = schema_from_pairs((("S", 2), ("p", 0)))
    assert unsorted == Schema.of(("p", 0), ("S", 2))
    with pytest.raises(SchemaError):
        schema_from_pairs((("R", 1), ("R", 2)))


def test_states_pickled_under_another_hash_seed_load_with_this_hash():
    src = str(Path(__file__).resolve().parents[1] / "src")
    blob = subprocess.run(
        [sys.executable, "-c", _STATE_PROBE, src],
        env=dict(os.environ, PYTHONHASHSEED="1"),
        capture_output=True,
        check=True,
    ).stdout
    loaded = pickle.loads(blob)
    system = booking_agency_system()
    frontier = [initial_recency_configuration(system)]
    for _ in range(3):
        frontier = [
            step.target
            for configuration in frontier
            for step in enumerate_b_bounded_successors(system, configuration, 2)
        ]
    assert loaded in frontier
    local = frontier[frontier.index(loaded)]
    assert hash(loaded) == hash(local) and hash(loaded.instance) == hash(local.instance)
    rebuilt = DatabaseInstance(system.schema, loaded.instance.facts)
    assert loaded.instance == rebuilt and hash(loaded.instance) == hash(rebuilt)
