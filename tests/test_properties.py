"""Property-based tests (hypothesis) for the core data structures and invariants."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import ExplorationOptions, run_reachability
from repro.casestudies.booking import booking_agency_system
from repro.casestudies.simple import example_31_system
from repro.casestudies.warehouse import warehouse_system
from repro.database.instance import DatabaseInstance, Fact
from repro.database.schema import Schema
from repro.database.substitution import Substitution
from repro.dms.builder import DMSBuilder
from repro.dms.semantics import apply_action, enumerate_successors
from repro.encoding.analyzer import EncodingAnalyzer
from repro.encoding.encoder import encode_run
from repro.fol.evaluator import evaluate_sentence
from repro.fol.normalize import eliminate_derived, to_nnf
from repro.nestedwords.alphabet import VisibleAlphabet
from repro.nestedwords.word import NestedWord
from repro.recency.abstraction import abstract_run
from repro.recency.canonical import is_canonical_run, runs_equivalent_modulo_permutation
from repro.recency.concretize import concretize_word
from repro.fuzz import FuzzShape, generate_instance
from repro.modelcheck.result import Verdict
from repro.recency.explorer import RecencyExplorer, iterate_b_bounded_runs
from repro.recency.semantics import (
    RecencyConfiguration,
    apply_action_b_bounded,
    enumerate_b_bounded_successors,
)
from repro.recency.sequence import SequenceNumbering
from repro.search import ExplorationOptions, InternTable
from repro.transforms.constants import remove_constants
from repro.transforms.freshness import weaken_freshness
from repro.workloads.generators import RandomDMSParameters, random_dms

# ---------------------------------------------------------------------------
# Database instances
# ---------------------------------------------------------------------------

_SCHEMA = Schema.of(("p", 0), ("R", 1), ("S", 2))
_VALUES = st.sampled_from([f"e{i}" for i in range(1, 7)])


def _facts():
    unary = st.builds(lambda v: Fact.of("R", v), _VALUES)
    binary = st.builds(lambda v, w: Fact.of("S", v, w), _VALUES, _VALUES)
    nullary = st.just(Fact.of("p"))
    return st.one_of(unary, binary, nullary)


_INSTANCES = st.builds(lambda facts: DatabaseInstance(_SCHEMA, facts), st.lists(_facts(), max_size=8))


@given(_INSTANCES, _INSTANCES)
def test_instance_union_is_commutative_and_idempotent(left, right):
    assert left + right == right + left
    assert left + left == left
    assert (left + right).facts == left.facts | right.facts


@given(_INSTANCES, _INSTANCES)
def test_instance_difference_laws(left, right):
    assert (left - right).facts == left.facts - right.facts
    assert (left - right) + right == left + right


@given(_INSTANCES)
def test_active_domain_matches_fact_values(instance):
    expected = set()
    for fact in instance:
        expected |= set(fact.arguments)
    assert instance.active_domain() == frozenset(expected)


@given(_INSTANCES, st.dictionaries(_VALUES, st.sampled_from([f"x{i}" for i in range(1, 7)]), max_size=6))
def test_renaming_preserves_cardinality_when_injective(instance, mapping):
    distinct = len(set(mapping.values())) == len(mapping)
    renamed = instance.rename_values(mapping)
    if distinct:
        assert len(renamed) == len(instance)
    assert len(renamed) <= len(instance)


# ---------------------------------------------------------------------------
# Substitutions and sequence numberings
# ---------------------------------------------------------------------------


@given(st.dictionaries(st.sampled_from(["u", "v", "w"]), _VALUES, max_size=3))
def test_substitution_restrict_then_merge_is_identity(bindings):
    sigma = Substitution(bindings)
    assert sigma.restrict(sigma.domain) == sigma
    assert Substitution.empty().merge(sigma) == sigma


@given(st.integers(min_value=0, max_value=8), st.integers(min_value=1, max_value=4))
def test_sequence_numbering_extension_is_monotone(count, extra):
    numbering = SequenceNumbering.canonical(count)
    fresh = [f"f{i}" for i in range(extra)]
    extended = numbering.extend_with(fresh)
    assert extended.highest() == count + extra
    for value in fresh:
        assert extended[value] > count
    # Order of fresh values follows their listing order.
    numbers = [extended[value] for value in fresh]
    assert numbers == sorted(numbers)


# ---------------------------------------------------------------------------
# Query normalisation preserves semantics
# ---------------------------------------------------------------------------

_SENTENCES = st.sampled_from(
    [
        "p -> exists u. R(u)",
        "forall u. R(u) -> exists v. S(u, v)",
        "!(exists u. R(u) & !p)",
        "p <-> exists u, v. S(u, v)",
        "exists u. !R(u)",
    ]
)


@given(_INSTANCES, _SENTENCES)
def test_nnf_preserves_semantics(instance, text):
    from repro.fol.parser import parse_query

    query = parse_query(text)
    assert evaluate_sentence(query, instance) == evaluate_sentence(to_nnf(query), instance)
    assert evaluate_sentence(query, instance) == evaluate_sentence(
        eliminate_derived(query), instance
    )


# ---------------------------------------------------------------------------
# Nested words
# ---------------------------------------------------------------------------

_NW_ALPHABET = VisibleAlphabet.of(push=["<"], pop=[">"], internal=["."])


@given(st.lists(st.sampled_from(["<", ">", "."]), max_size=20))
def test_nesting_relation_invariants(letters):
    word = NestedWord.from_letters(_NW_ALPHABET, letters)
    word.check_invariants()
    matched_pushes = {push for push, _ in word.nesting}
    matched_pops = {pop for _, pop in word.nesting}
    pushes = {i + 1 for i, letter in enumerate(letters) if letter == "<"}
    pops = {i + 1 for i, letter in enumerate(letters) if letter == ">"}
    assert matched_pushes | set(word.pending_pushes) == pushes
    assert matched_pops | set(word.pending_pops) == pops
    # Every pop is matched to the closest earlier unmatched push.
    for push, pop in word.nesting:
        assert push < pop


# ---------------------------------------------------------------------------
# Recency abstraction / concretisation round trips on random systems
# ---------------------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=6))
def test_abstraction_concretisation_roundtrip_random_systems(seed):
    system = random_dms(seed, RandomDMSParameters(relations=2, max_arity=2, actions=3, max_fresh=2))
    bound = 2
    for run in iterate_b_bounded_runs(system, bound, depth=2, max_runs=8):
        if not run.steps:
            continue
        word = abstract_run(run)
        canonical = concretize_word(system, word, bound)
        assert abstract_run(canonical) == word
        assert is_canonical_run(canonical)
        assert runs_equivalent_modulo_permutation(run, canonical)


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=5))
def test_encodings_of_random_runs_are_valid(seed):
    system = random_dms(seed, RandomDMSParameters(relations=2, max_arity=2, actions=3, max_fresh=2))
    bound = 2
    for run in iterate_b_bounded_runs(system, bound, depth=2, max_runs=6):
        if not run.steps:
            continue
        analyzer = EncodingAnalyzer(system, bound, encode_run(system, run))
        report = analyzer.check_validity()
        assert report.valid, report
        # Remark 6.1: unmatched pushes count the active domain before each block.
        for block_number in range(1, analyzer.block_count() + 1):
            assert analyzer.adom_size_from_nesting(block_number) == len(
                analyzer.database_before(block_number).active_domain()
            )


# ---------------------------------------------------------------------------
# Exploration invariants over fuzz-generated systems (repro.fuzz)
# ---------------------------------------------------------------------------

_FUZZ_SHAPES = st.builds(
    FuzzShape,
    relations=st.integers(min_value=1, max_value=3),
    max_arity=st.integers(min_value=1, max_value=2),
    propositions=st.integers(min_value=0, max_value=2),
    actions=st.integers(min_value=1, max_value=3),
    max_fresh=st.integers(min_value=1, max_value=2),
    guard_depth=st.integers(min_value=0, max_value=2),
    guard_or_probability=st.floats(min_value=0.0, max_value=0.5),
    constraint_density=st.floats(min_value=0.0, max_value=0.5),
    bound=st.integers(min_value=1, max_value=2),
    depth=st.integers(min_value=1, max_value=3),
)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), _FUZZ_SHAPES)
def test_interning_is_bijective_on_explored_configurations(seed, shape):
    """Hash-consing maps distinct configurations to distinct dense ids."""
    instance = generate_instance(seed, "smoke", shape=shape)
    explorer = RecencyExplorer(
        instance.system,
        instance.bound,
        ExplorationOptions(max_depth=instance.depth, retention="full"),
    )
    configurations = list(explorer.explore().configurations)
    table = InternTable()
    ids = {}
    for configuration in configurations:
        state_id, canonical, is_new = table.intern(configuration)
        assert is_new and canonical is configuration
        ids[state_id] = configuration
    # Bijective: ids are dense, map back to their state, and re-interning
    # resolves to the same id without creating a new entry.
    assert sorted(ids) == list(range(len(configurations)))
    assert len(table) == len(configurations)
    for state_id, configuration in ids.items():
        assert table.state_of(state_id) == configuration
        again_id, _, again_new = table.intern(configuration)
        assert again_id == state_id and not again_new


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), _FUZZ_SHAPES)
def test_truncation_verdicts_are_monotone_in_depth(seed, shape):
    """Definite verdicts survive a deeper exploration; only UNKNOWN may move."""
    instance = generate_instance(seed, "smoke", shape=shape)
    shallow = run_reachability(
        instance.system, instance.condition, bound=instance.bound,
        options=ExplorationOptions(max_depth=instance.depth), store=False,
    )
    deep = run_reachability(
        instance.system, instance.condition, bound=instance.bound,
        options=ExplorationOptions(max_depth=instance.depth + 1), store=False,
    )
    if shallow.reachable is Verdict.HOLDS:
        assert deep.reachable is Verdict.HOLDS
    if shallow.reachable is Verdict.FAILS:
        assert deep.reachable is Verdict.FAILS


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), _FUZZ_SHAPES)
def test_reachability_witnesses_replay_through_the_semantics(seed, shape):
    """A witness run must be replayable step by step and end satisfying the condition."""
    instance = generate_instance(seed, "smoke", shape=shape)
    result = run_reachability(
        instance.system, instance.condition, bound=instance.bound,
        options=ExplorationOptions(max_depth=instance.depth), store=False,
    )
    if result.reachable is not Verdict.HOLDS:
        return
    witness = result.witness
    assert witness is not None
    for step in witness.steps:
        successors = list(
            enumerate_b_bounded_successors(instance.system, step.source, instance.bound)
        )
        assert any(
            candidate.target == step.target and candidate.label == step.label
            for candidate in successors
        )
    assert evaluate_sentence(instance.condition, witness.instances()[-1])


# ---------------------------------------------------------------------------
# One successor relation: bound=None against the Section 3 reference
# ---------------------------------------------------------------------------


def _assert_unbounded_successors_match_reference(system, depth):
    """``bound=None`` is the reference relation, and so is any ``b ≥ |adom|``."""
    explored = RecencyExplorer(
        system, None, ExplorationOptions(max_depth=depth, retention="full")
    ).explore()
    for configuration in explored.configurations:
        unified = list(enumerate_b_bounded_successors(system, configuration, None))
        reference = list(enumerate_successors(system, configuration.plain()))
        assert [
            (step.action, tuple(step.substitution.items()), step.target.plain())
            for step in unified
        ] == [
            (step.action, tuple(step.substitution.items()), step.target) for step in reference
        ]
        wide = len(configuration.active_domain)
        for bound in (wide, wide + 1):
            assert list(enumerate_b_bounded_successors(system, configuration, bound)) == unified


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), _FUZZ_SHAPES)
def test_unbounded_successors_match_the_reference(seed, shape):
    instance = generate_instance(seed, "smoke", shape=shape)
    _assert_unbounded_successors_match_reference(instance.system, instance.depth)


def test_unbounded_successors_match_the_reference_under_weakened_freshness():
    _assert_unbounded_successors_match_reference(weaken_freshness(example_31_system()), 2)


def _system_without_constants():
    builder = DMSBuilder("with-constants")
    builder.relations(("R", 2), ("Q", 1), ("start", 0))
    builder.initially("start")
    builder.initial_fact("R", "c1", "c2")
    builder.action(
        "grow", parameters=("u",), fresh=("v",), guard="exists w. R(u, w)", add=[("R", "v", "u")]
    )
    builder.action("touch", parameters=("u",), guard="exists w. R(u, w)", add=[("Q", "u")])
    return remove_constants(builder.build(require_empty_initial_adom=False), ("c1", "c2"))


def test_unbounded_successors_match_the_reference_without_constants():
    _assert_unbounded_successors_match_reference(_system_without_constants(), 3)


def test_unbounded_successors_match_the_reference_under_bulk_compilation():
    # Depth 8 reaches every protocol action, Finalize included.
    _assert_unbounded_successors_match_reference(warehouse_system(), 8)


# ---------------------------------------------------------------------------
# Trusted successors: every explored successor equals a validating build
# ---------------------------------------------------------------------------


def _assert_trusted_successors_match_validation(system, bound, depth):
    """Each successor equals the checked step and a rebuild through the public constructors.

    The rebuild takes ``I'`` and ``H'`` from the Section 3 reference
    (``apply_action`` with every check on) and numbers the fresh values
    above the highest number, in the order of ``α·new``.
    """
    explored = RecencyExplorer(
        system, bound, ExplorationOptions(max_depth=depth, retention="full")
    ).explore()
    for configuration in explored.configurations:
        for step in enumerate_b_bounded_successors(system, configuration, bound):
            action, sigma, target = step.action, step.substitution, step.target
            reference = apply_action(action, configuration.plain(), sigma)
            top = max(configuration.seq_no.values(), default=0)
            numbers = configuration.seq_no.as_dict() | {
                sigma[variable]: top + index for index, variable in enumerate(action.fresh, 1)
            }
            rebuilt = RecencyConfiguration(
                DatabaseInstance(system.schema, reference.instance.facts),
                reference.history,
                SequenceNumbering(numbers),
            )
            checked = apply_action_b_bounded(action, configuration, sigma, bound, check=True)
            for other in (rebuilt, checked):
                assert target == other and hash(target) == hash(other)
                assert hash(target.instance) == hash(other.instance)
                assert target.instance.rows_by_relation() == other.instance.rows_by_relation()
                assert target.instance.active_domain() == other.instance.active_domain()
                assert list(target.seq_no.items()) == list(other.seq_no.items())
            instance = target.instance
            _assert_same_instance(instance, DatabaseInstance(system.schema, instance.facts))
            _assert_same_instance(instance, pickle.loads(pickle.dumps(instance)))
            loaded = pickle.loads(pickle.dumps(target))
            assert loaded == target and hash(loaded) == hash(target)


def _assert_same_instance(instance, other):
    """``other`` equals ``instance`` in every view of it: index, facts, ``adom``, hash and size."""
    assert instance == other and hash(instance) == hash(other)
    assert len(instance) == len(other) and instance.facts == other.facts
    assert instance.active_domain() == other.active_domain()
    assert instance.rows_by_relation() == other.rows_by_relation()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), _FUZZ_SHAPES)
@example(7, FuzzShape(relations=2, max_arity=2, actions=3, constraint_density=0.5, depth=3))
def test_trusted_successors_match_a_validating_build(seed, shape):
    instance = generate_instance(seed, "smoke", shape=shape)
    for bound in (0, instance.bound, None):
        _assert_trusted_successors_match_validation(instance.system, bound, instance.depth + 1)


@pytest.mark.parametrize("bound,depth", [(2, 4), (3, 4), (None, 3)])
def test_trusted_successors_match_a_validating_build_on_booking(bound, depth):
    _assert_trusted_successors_match_validation(booking_agency_system(), bound, depth)


@pytest.mark.parametrize("bound", [0, 1, 2, None])
def test_trusted_successors_match_a_validating_build_on_relaxed_systems(bound):
    _assert_trusted_successors_match_validation(weaken_freshness(example_31_system()), bound, 2)
    _assert_trusted_successors_match_validation(_system_without_constants(), bound, 3)
