"""The experiment harness: one function per artefact of the per-experiment index.

Every ``experiment_e*`` function regenerates the rows recorded in
EXPERIMENTS.md; the ``benchmarks/`` targets call these functions (timing
them with pytest-benchmark) and print the rows.
"""

from __future__ import annotations

from repro.api import ExplorationOptions, Session, run_reachability
from repro.casestudies.booking import booking_agency_system
from repro.casestudies.simple import (
    example_31_system,
    figure_1_expected_instances,
    figure_1_labels,
)
from repro.casestudies.warehouse import warehouse_system
from repro.counter.machine import CounterMachine, control_state_reachable
from repro.counter.reductions import binary_encoding, state_proposition, unary_encoding
from repro.dms.semantics import execute_labels
from repro.encoding.analyzer import EncodingAnalyzer
from repro.encoding.encoder import encode_run
from repro.encoding.mso_builder import MSONWBuilder
from repro.encoding.translate import (
    evaluate_specification_via_encoding,
    reduction_formula_size,
)
from repro.modelcheck.convergence import reachability_bound_sweep, state_space_bound_sweep
from repro.msofo.patterns import proposition_reachability_formula, safety_formula
from repro.msofo.semantics import holds_on_run
from repro.recency.abstraction import abstract_run, symbolic_alphabet
from repro.recency.canonical import runs_equivalent_modulo_permutation
from repro.recency.concretize import concretize_word
from repro.recency.explorer import RecencyExplorer, iterate_b_bounded_runs
from repro.recency.semantics import execute_b_bounded_labels, minimal_recency_bound
from repro.search import RETAIN_COUNTS, RETAIN_PARENTS
from repro.search.baseline import SeedExplorationLimits, SeedRecencyExplorer
from repro.transforms.freshness import weaken_freshness
from repro.transforms.overlapping import standard_substitution
from repro.workloads.generators import RandomDMSParameters, random_dms

__all__ = [
    "EXPERIMENTS",
    "experiment_e1_figure1_run",
    "experiment_e2_recency_bound",
    "experiment_e3_encoding",
    "experiment_e4_abstraction_roundtrip",
    "experiment_e5_validity",
    "experiment_e6_translation",
    "experiment_e7_formula_size",
    "experiment_e8_counter_reductions",
    "experiment_e9_convergence",
    "experiment_e10_booking",
    "experiment_e11_transforms",
    "experiment_e12_bulk",
    "experiment_e13_engine",
    "experiment_e14_sharded",
    "experiment_e19_fuzz_corpus",
    "all_experiments",
]


# -- E1: Figure 1 run --------------------------------------------------------------


def experiment_e1_figure1_run() -> list[dict]:
    """Replay Example 3.1 / Figure 1 and compare every instance with the paper."""
    system = example_31_system()
    run = execute_labels(system, figure_1_labels())
    rows = []
    for position, (configuration, expected) in enumerate(
        zip(run.configurations(), figure_1_expected_instances())
    ):
        instance = configuration.instance
        actual = {
            "p": instance.holds_proposition("p"),
            "R": {row[0] for row in instance.relation_rows("R")},
            "Q": {row[0] for row in instance.relation_rows("Q")},
        }
        rows.append(
            {
                "position": position,
                "R": sorted(actual["R"]),
                "Q": sorted(actual["Q"]),
                "p": actual["p"],
                "matches_paper": actual == expected,
            }
        )
    return rows


# -- E2: recency bound of the Figure 1 run ------------------------------------------


def experiment_e2_recency_bound() -> list[dict]:
    """Example 5.1: the Figure 1 run is 2-recency-bounded (and not 1-bounded)."""
    system = example_31_system()
    labels = figure_1_labels()
    minimal = minimal_recency_bound(system, labels)
    rows = [{"quantity": "minimal recency bound of the Figure 1 run", "value": minimal, "paper": 2}]
    for bound in (1, 2, 3):
        from repro.recency.semantics import is_b_bounded_extended_run

        rows.append(
            {
                "quantity": f"admitted at b={bound}",
                "value": is_b_bounded_extended_run(system, labels, bound),
                "paper": bound >= 2,
            }
        )
    return rows


# -- E3: nested-word encoding (Figure 2, Example 6.1) --------------------------------


def experiment_e3_encoding() -> list[dict]:
    """The abstraction (Example 6.1) and block structure (Figure 2) of the Figure 1 run."""
    system = example_31_system()
    run = execute_b_bounded_labels(system, figure_1_labels(), bound=2)
    word = encode_run(system, run)
    analyzer = EncodingAnalyzer(system, 2, word)
    expected_blocks = [
        ("alpha", 0, [], 3),
        ("beta", 2, [0], 2),
        ("alpha", 2, [0, 1], 3),
        ("gamma", 2, [0], 0),
        ("delta", 2, [], 0),
        ("delta", 2, [0], 0),
        ("delta", 2, [0], 0),
        ("alpha", 2, [0, 1], 3),
    ]
    rows = []
    for index, (block, expected) in enumerate(zip(analyzer.blocks, expected_blocks), start=1):
        actual = (block.action_name, block.recent_size, sorted(block.surviving), block.fresh_count)
        rows.append(
            {
                "block": f"B{index}",
                "action": actual[0],
                "m": actual[1],
                "J": actual[2],
                "fresh": actual[3],
                "matches_figure_2": actual == expected,
            }
        )
    rows.append(
        {
            "block": "word",
            "action": "-",
            "m": "-",
            "J": "-",
            "fresh": "-",
            "matches_figure_2": analyzer.check_validity().valid and len(word.letters) == 42,
        }
    )
    return rows


# -- E4: Abstr/Concr round trip and Appendix E --------------------------------------------


def experiment_e4_abstraction_roundtrip(seeds: tuple[int, ...] = (0, 1, 2, 3), bound: int = 2) -> list[dict]:
    """Round-trip ``Concr(Abstr(ρ)) ≈ ρ`` on random systems (Lemma E.1)."""
    rows = []
    for seed in seeds:
        system = random_dms(seed, RandomDMSParameters(relations=2, max_arity=2, actions=3))
        runs = list(iterate_b_bounded_runs(system, bound, depth=3, max_runs=25))
        checked = 0
        equivalent = 0
        for run in runs:
            if not run.steps:
                continue
            checked += 1
            word = abstract_run(run)
            canonical = concretize_word(system, word, bound)
            if runs_equivalent_modulo_permutation(run, canonical):
                equivalent += 1
        rows.append(
            {
                "seed": seed,
                "runs_checked": checked,
                "roundtrip_equivalent": equivalent,
                "all_equivalent": checked == equivalent,
            }
        )
    return rows


# -- E5: validity of encodings ----------------------------------------------------------------


def experiment_e5_validity(bound: int = 2, depth: int = 3) -> list[dict]:
    """Valid encodings are accepted; mutated encodings are rejected (Section 6.3.1)."""
    system = example_31_system()
    runs = [run for run in iterate_b_bounded_runs(system, bound, depth) if run.steps]
    valid_accepted = 0
    mutated_rejected = 0
    mutated_total = 0
    for run in runs:
        word = encode_run(system, run)
        analyzer = EncodingAnalyzer(system, bound, word)
        if analyzer.check_validity().valid:
            valid_accepted += 1
        # Mutate: drop the last letter of the word if it is a push (breaks J-consistency).
        letters = list(word.letters)
        from repro.encoding.alphabet import PushLetter

        if isinstance(letters[-1], PushLetter):
            mutated_total += 1
            mutated = EncodingAnalyzer(system, bound, letters[:-1])
            if not mutated.check_validity().valid:
                mutated_rejected += 1
    return [
        {
            "population": "encodings of real runs",
            "count": len(runs),
            "accepted": valid_accepted,
            "rejected": len(runs) - valid_accepted,
        },
        {
            "population": "mutated encodings (dropped push)",
            "count": mutated_total,
            "accepted": mutated_total - mutated_rejected,
            "rejected": mutated_rejected,
        },
    ]


# -- E6: MSO-FO → MSONW translation cross-validation ---------------------------------------------


def experiment_e6_translation(bound: int = 2, depth: int = 3) -> list[dict]:
    """Direct evaluation vs evaluation through the encoding, per specification."""
    system = example_31_system()
    from repro.fol.parser import parse_query
    from repro.msofo.patterns import response_formula

    specifications = {
        "reach p": proposition_reachability_formula("p"),
        "safety ¬(exists u. R(u) & Q(u))": safety_formula(parse_query("exists u. R(u) & Q(u)")),
        "response R⇒Q": response_formula(parse_query("exists u. R(u)"), parse_query("exists u. Q(u)")),
    }
    runs = [run for run in iterate_b_bounded_runs(system, bound, depth) if run.steps]
    rows = []
    for name, specification in specifications.items():
        agreements = 0
        for run in runs:
            from repro.dms.run import Run

            truncated = Run(run.instances()[:-1])
            direct = holds_on_run(specification, truncated)
            analyzer = EncodingAnalyzer(system, bound, encode_run(system, run))
            via_encoding = evaluate_specification_via_encoding(specification, analyzer)
            if direct == via_encoding:
                agreements += 1
        rows.append(
            {
                "specification": name,
                "runs": len(runs),
                "agreements": agreements,
                "all_agree": agreements == len(runs),
            }
        )
    return rows


# -- E7: size of the reduction formula ---------------------------------------------------------------


def experiment_e7_formula_size(bounds: tuple[int, ...] = (1, 2)) -> list[dict]:
    """Size of ``ϕ_valid ∧ ¬⌊ψ⌋`` as b, |R| and |acts| grow (§6.6 complexity shape)."""
    rows = []
    specification = proposition_reachability_formula("p")
    for bound in bounds:
        system = example_31_system()
        builder = MSONWBuilder(system, bound)
        size_valid = builder.valid_encoding().size()
        size_total = reduction_formula_size(system, bound, specification)
        rows.append(
            {
                "system": system.name,
                "b": bound,
                "relations": len(system.schema),
                "actions": len(system.actions),
                "|symAlph|": len(symbolic_alphabet(system, bound)),
                "size(phi_valid)": size_valid,
                "size(reduction)": size_total,
            }
        )
    return rows


# -- E8: counter-machine reductions (Theorem 4.1 / Appendix D) ------------------------------------------


def _sample_machines() -> list[tuple[CounterMachine, str, bool]]:
    """Machines together with a target state and the expected reachability verdict."""
    reach_after_incs = CounterMachine.create(
        states=["q0", "q1", "q2", "qf"],
        initial_state="q0",
        counter_count=2,
        instructions=[
            ("q0", "inc", 1, "q1"),
            ("q1", "inc", 1, "q2"),
            ("q2", "dec", 1, "q1"),
            ("q1", "ifz", 2, "qf"),
        ],
        name="reachable",
    )
    unreachable = CounterMachine.create(
        states=["q0", "q1", "qf"],
        initial_state="q0",
        counter_count=2,
        instructions=[
            ("q0", "inc", 1, "q0"),
            ("q0", "dec", 2, "q1"),  # counter 2 is always 0, so q1 (and qf) are unreachable
            ("q1", "inc", 2, "qf"),
        ],
        name="unreachable",
    )
    zero_test = CounterMachine.create(
        states=["q0", "q1", "q2", "qf"],
        initial_state="q0",
        counter_count=2,
        instructions=[
            ("q0", "inc", 2, "q1"),
            ("q1", "ifz", 1, "q2"),
            ("q2", "dec", 2, "qf"),
        ],
        name="zero-test",
    )
    return [(reach_after_incs, "qf", True), (unreachable, "qf", False), (zero_test, "qf", True)]


def experiment_e8_counter_reductions(max_depth: int = 8) -> list[dict]:
    """Machine-level reachability vs DMS-level reachability for both encodings."""
    rows = []
    for machine, target, expected in _sample_machines():
        machine_verdict = control_state_reachable(machine, target, max_steps=max_depth)
        unary = unary_encoding(machine)
        binary = binary_encoding(machine)
        proposition = state_proposition(target)
        unary_result = run_reachability(
            unary, proposition, bound=2, options=ExplorationOptions(max_depth=max_depth)
        )
        binary_result = run_reachability(
            binary, proposition, bound=2, options=ExplorationOptions(max_depth=max_depth + 1)
        )
        rows.append(
            {
                "machine": machine.name,
                "expected": expected,
                "machine_reach": machine_verdict,
                "unary_DMS_reach": unary_result.found,
                "binary_DMS_reach": binary_result.found,
                "agree": machine_verdict == unary_result.found == binary_result.found == expected,
            }
        )
    return rows


# -- E9: convergence in the recency bound -----------------------------------------------------------------


def experiment_e9_convergence(
    max_depth: int = 5,
    *,
    parallel: int = 1,
    checkpoint=None,
    resume: bool = False,
    store=None,
    on_point=None,
) -> list[dict]:
    """Reachability verdicts and explored state space as b increases (Section 5).

    Both bound sweeps run through the runtime's sweep scheduler:
    ``parallel`` executes their cells concurrently on forked workers,
    ``checkpoint``/``resume`` persist completed cells to a shared JSONL
    memo (an interrupted run resumed from it reproduces the exact row
    set; the memo is content-keyed, so the two sweeps coexist in one
    file), and ``on_point`` streams records as cells complete.  Rows are
    identical for every parallelism level.  ``store`` serves repeat
    cells from the content-addressed result store (:mod:`repro.store`) —
    cross-run, unlike the checkpoint memo; ``False`` disables it even
    when ``REPRO_STORE`` is set.
    """
    from repro.fol.parser import parse_query

    system = example_31_system()
    rows = []
    # Reaching a database where p has been consumed and some Q-fact remains
    # requires firing beta, whose parameter must be among the 2 most recent
    # elements: the property becomes reachable only from bound 2 onwards.
    condition = parse_query("!p & exists u. Q(u)")
    reach = reachability_bound_sweep(
        system, condition, bounds=(0, 1, 2, 3), max_depth=max_depth,
        parallel=parallel, checkpoint=checkpoint, resume=resume, store=store,
        on_point=on_point,
    )
    for entry in reach:
        rows.append(
            {
                "system": system.name,
                "property": "reach ¬p ∧ ∃u.Q(u)",
                "b": entry.bound,
                "verdict": entry.verdict.value,
                "configurations": entry.configurations,
                "edges": entry.edges,
            }
        )
    # The second sweep appends to the same memo: resume whenever a
    # checkpoint exists so it never clears the first sweep's records
    # (content keys keep the two sweeps' cells apart).
    space = state_space_bound_sweep(
        system, bounds=(0, 1, 2), max_depth=max_depth - 1,
        parallel=parallel, checkpoint=checkpoint,
        resume=resume or checkpoint is not None, store=store, on_point=on_point,
    )
    for entry in space:
        rows.append(
            {
                "system": system.name,
                "property": "state-space size",
                "b": entry.bound,
                "verdict": "-",
                "configurations": entry.configurations,
                "edges": entry.edges,
            }
        )
    return rows


# -- E10: booking agency case study ---------------------------------------------------------------------------


def experiment_e10_booking(max_depth: int = 5) -> list[dict]:
    """Bounded analysis of the Appendix C booking agency."""
    system = booking_agency_system()
    rows = []
    # Only sizes are reported, so the sweep runs in the engine's
    # counts-only retention: no edge objects are held in memory.
    explorer = RecencyExplorer(
        system,
        bound=4,
        options=ExplorationOptions(
            max_depth=max_depth, max_configurations=4000, retention=RETAIN_COUNTS
        ),
    )
    exploration = explorer.explore()
    rows.append(
        {
            "quantity": "explored configurations (b=4, depth ≤ %d)" % max_depth,
            "value": exploration.configuration_count,
        }
    )
    # Both lifecycle queries share one warm facade session (the same
    # surface the verification service holds for its whole lifespan).
    with Session() as session:
        offer_available = session.run_reachability(
            system,
            _exists_state_query("OAvail"),
            bound=4,
            options=ExplorationOptions(max_depth=max_depth),
        )
        rows.append({"quantity": "an offer becomes available", "value": offer_available.found})
        booking_drafting = session.run_reachability(
            system,
            _exists_state_query("BDrafting"),
            bound=5,
            options=ExplorationOptions(max_depth=max_depth + 1),
        )
        rows.append({"quantity": "a booking reaches drafting", "value": booking_drafting.found})
    rows.append(
        {
            "quantity": "actions / relations in the model",
            "value": f"{len(system.actions)} actions, {len(system.schema)} relations",
        }
    )
    return rows


def _exists_state_query(state_relation: str):
    from repro.fol.syntax import Atom, Exists

    return Exists("x_state", Atom(state_relation, ("x_state",)))


# -- E11: Appendix F.1–F.3 transformations ----------------------------------------------------------------------


def experiment_e11_transforms() -> list[dict]:
    """Structural and behavioural checks of the relaxation constructions."""
    system = example_31_system()
    rows = []
    std = standard_substitution(system)
    rows.append(
        {
            "transform": "F.2 standard substitution",
            "original_actions": len(system.actions),
            "transformed_actions": len(std.actions),
            "note": "one action per partition of fresh inputs",
        }
    )
    fresh = weaken_freshness(system)
    rows.append(
        {
            "transform": "F.3 weakened freshness",
            "original_actions": len(system.actions),
            "transformed_actions": len(fresh.actions),
            "note": "2^|new| variants per action + Hist relation",
        }
    )
    from repro.transforms.constants import compacted_schema

    compacted = compacted_schema(system.schema, ("c1", "c2"))
    rows.append(
        {
            "transform": "F.1 constant removal (schema)",
            "original_actions": len(system.schema),
            "transformed_actions": len(compacted),
            "note": "relations split per constant placement",
        }
    )
    return rows


# -- E12: bulk-operation simulation ---------------------------------------------------------------------------------


def experiment_e12_bulk(product_counts: tuple[int, ...] = (1, 2, 3)) -> list[dict]:
    """The Appendix F.4 protocol: steps needed to flush all to-be-ordered products."""
    rows = []
    for products in product_counts:
        system = warehouse_system()
        # The witness is reconstructed from the engine's parent map, so
        # the deep bulk-flush search keeps one spanning-tree edge per
        # configuration instead of the full edge list.
        explorer = RecencyExplorer(
            system,
            bound=products + 2,
            options=ExplorationOptions(
                max_depth=4 * products + 4, max_configurations=50000, retention=RETAIN_PARENTS
            ),
        )

        def all_ordered(configuration) -> bool:
            instance = configuration.instance
            return (
                len(instance.relation_rows("InOrder")) >= products
                and not instance.relation_rows("TBO")
                and not instance.holds_proposition("Lock_NewO")
            )

        witness, stats = explorer.find_configuration(all_ordered)
        protocol_steps = len(witness.steps) - products if witness else None
        rows.append(
            {
                "products": products,
                "bulk_flush_found": witness is not None,
                "total_steps": len(witness.steps) if witness else None,
                "protocol_steps": protocol_steps,
                "expected_protocol_steps": 3 * products + 4,
            }
        )
    return rows


# -- E13: unified exploration engine vs the seed explorer ---------------------------------------------------


def experiment_e13_engine(quick: bool = False, *, parallel: int = 1) -> list[dict]:
    """Throughput and memory of the engine path against the frozen seed explorer.

    For each case study the same exhaustive predicate search (a condition
    that never holds, i.e. the worst case for reachability) runs once
    through :mod:`repro.search.baseline` — the seed breadth-first
    explorer with full-domain guard enumeration, full edge retention and
    prefix threading — and once through the engine path
    (:class:`~repro.recency.explorer.RecencyExplorer` with parents-only
    retention).  Peak memory is compared between a seed ``explore`` (all
    edges retained) and an engine ``counts-only`` exploration, and an
    :func:`~repro.workloads.sweeps.exploration_mode_sweep` over the
    booking study checks that every (strategy, retention) combination
    discovers the same configuration set.

    ``quick`` shrinks the depths for CI smoke runs.  ``parallel`` runs
    the mode-sweep grid concurrently through the sweep scheduler (the
    timed seed-vs-engine comparisons always run sequentially so their
    wall-clock numbers stay meaningful).
    """
    import time
    import tracemalloc

    from repro.workloads.sweeps import exploration_mode_sweep

    cases = [
        ("booking", booking_agency_system(), 2, 4 if quick else 6),
        ("warehouse", warehouse_system(), 5, 6 if quick else 12),
    ]
    rows = []
    for name, system, bound, depth in cases:
        never = lambda configuration: False  # noqa: E731 - exhaustive search

        seed = SeedRecencyExplorer(system, bound, SeedExplorationLimits(max_depth=depth))
        started = time.perf_counter()
        seed_witness, seed_stats = seed.find_configuration(never)
        seed_seconds = time.perf_counter() - started

        engine_explorer = RecencyExplorer(
            system, bound, ExplorationOptions(max_depth=depth, retention=RETAIN_PARENTS)
        )
        started = time.perf_counter()
        engine_witness, engine_stats = engine_explorer.find_configuration(never)
        engine_seconds = time.perf_counter() - started

        tracemalloc.start()
        seed_exploration = seed.explore()
        _, seed_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        counts_only = RecencyExplorer(
            system, bound, ExplorationOptions(max_depth=depth, retention=RETAIN_COUNTS)
        )
        tracemalloc.start()
        counts_exploration = counts_only.explore()
        _, engine_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        rows.append(
            {
                "case": name,
                "bound": bound,
                "depth": depth,
                "configurations": engine_stats.configuration_count,
                "edges": engine_stats.edge_count,
                "seed_seconds": round(seed_seconds, 4),
                "engine_seconds": round(engine_seconds, 4),
                "speedup": round(seed_seconds / engine_seconds, 2) if engine_seconds else None,
                "seed_peak_kb": seed_peak // 1024,
                "counts_only_peak_kb": engine_peak // 1024,
                "seed_retained_edges": seed_exploration.edge_count,
                "counts_only_retained_edges": len(counts_exploration.edges),
                "results_match": (
                    seed_witness is None
                    and engine_witness is None
                    and seed_stats.configuration_count == engine_stats.configuration_count
                    and seed_stats.edge_count == engine_stats.edge_count
                    and seed_stats.truncated == engine_stats.truncated
                ),
            }
        )

    # Strategy/retention plurality: on an un-truncated exploration every
    # engine mode must discover the same configuration set.
    booking = booking_agency_system()
    mode_rows = exploration_mode_sweep(
        booking,
        bound=2,
        strategies=("bfs", "dfs", "best-first"),
        max_depth=3 if quick else 4,
        heuristic=lambda conf, depth: depth,
        parallel=parallel,
    )
    configuration_counts = {point.as_row()["configurations"] for point in mode_rows}
    rows.append(
        {
            "case": "booking (mode sweep)",
            "bound": 2,
            "depth": 3 if quick else 4,
            "modes": len(mode_rows),
            "strategies_agree": len(configuration_counts) == 1,
            "full_retains_edges": all(
                point.as_row()["retained_edges"] > 0
                for point in mode_rows
                if point.as_row()["retention"] == "full"
            ),
            "lean_modes_retain_none": all(
                point.as_row()["retained_edges"] == 0
                for point in mode_rows
                if point.as_row()["retention"] != "full"
            ),
        }
    )
    return rows


# -- E14: sharded work-stealing exploration vs the single-shard engine ---------------------------------------

def experiment_e14_sharded(
    quick: bool = False, *, parallel: int = 1, pool=None, nodes: int = 1, transport=None
) -> list[dict]:
    """Sharded exploration (:mod:`repro.search.sharded`) against the 1-shard engine.

    For the booking and warehouse case studies at recency bound 2, the
    same exhaustive predicate search (a condition that never holds — the
    reachability worst case) runs through the plain single-shard engine
    and through the sharded engine under a ``(shards, workers)`` grid.
    Each sharded row records the expansion backend used (``process``
    when the fork-based pool is available and ``workers > 1``, else the
    deterministic ``serial`` fallback), wall-clock seconds, the speedup
    over the single-shard run and whether the explored fragment matches
    the single-shard one bit-for-bit (configuration count, edge count,
    truncation flag).  A final witness row checks that a *reachable*
    condition yields the identical minimal witness through both paths.

    ``quick`` shrinks the depths for CI smoke runs.  The grid executes
    on the sweep scheduler; ``parallel`` overlaps its points (counts
    stay bit-identical, but per-point seconds then overlap — keep the
    default when speedup numbers matter), and ``pool`` lends warm
    expansion workers to sequential runs.  With ``nodes > 1`` a final
    row replays the booking exploration on the two-level distributed
    engine (``--nodes`` on the CLI; ``transport`` may be a
    :class:`repro.distributed.Coordinator` with externally started
    agents, as set up by ``--coordinator``) and checks it against the
    single-shard counts.
    """
    import time

    from repro.fol.syntax import Atom, Exists
    from repro.workloads.sweeps import sweep

    grid = ((1, 1), (4, 1), (4, 2), (4, 4))
    cases = [
        ("booking", booking_agency_system(), 2, 4 if quick else 6),
        ("warehouse", warehouse_system(), 2, 6 if quick else 12),
    ]
    exploration_pool = pool if parallel <= 1 else None
    rows = []
    for name, system, bound, depth in cases:
        never = lambda configuration: False  # noqa: E731 - exhaustive search

        def measure(parameters: dict, system=system, bound=bound, depth=depth, never=never) -> dict:
            options = ExplorationOptions(
                max_depth=depth,
                retention=RETAIN_PARENTS,
                shards=parameters["shards"],
                workers=parameters["workers"],
            )
            explorer = RecencyExplorer(system, bound, options, pool=exploration_pool)
            backend = explorer.backend_name
            started = time.perf_counter()
            witness, stats = explorer.find_configuration(never)
            seconds = time.perf_counter() - started
            return {
                "backend": backend,
                "configurations": stats.configuration_count,
                "edges": stats.edge_count,
                "truncated": stats.truncated,
                "witness_found": witness is not None,
                "seconds": seconds,
            }

        points = sweep(
            [{"shards": shards, "workers": workers} for shards, workers in grid],
            measure,
            parallel=parallel,
        )
        baseline = points[0].measurements  # grid order: (1, 1) is always first
        for point in points:
            measured = point.measurements
            rows.append(
                {
                    "case": name,
                    "bound": bound,
                    "depth": depth,
                    "shards": point.parameters["shards"],
                    "workers": point.parameters["workers"],
                    "backend": measured["backend"],
                    "configurations": measured["configurations"],
                    "edges": measured["edges"],
                    "seconds": round(measured["seconds"], 4),
                    "speedup": (
                        round(baseline["seconds"] / measured["seconds"], 2)
                        if measured["seconds"]
                        else None
                    ),
                    "results_match": (
                        not measured["witness_found"]
                        and measured["configurations"] == baseline["configurations"]
                        and measured["edges"] == baseline["edges"]
                        and measured["truncated"] == baseline["truncated"]
                    ),
                }
            )

    # Witness determinism: a reachable condition must produce the identical
    # minimal witness through the single-shard and the sharded paths.
    booking = booking_agency_system()
    condition = Exists("x_state", Atom("OAvail", ("x_state",)))
    options = ExplorationOptions(max_depth=4)
    reference = run_reachability(booking, condition, bound=2, options=options)
    sharded = run_reachability(
        booking, condition, bound=2, options=options.replace(shards=4, workers=2)
    )
    witnesses_equal = (
        reference.found
        and sharded.found
        and reference.witness.steps == sharded.witness.steps
    )
    rows.append(
        {
            "case": "booking (witness)",
            "bound": 2,
            "depth": 4,
            "shards": 4,
            "workers": 2,
            "backend": "-",
            "configurations": sharded.configurations_explored,
            "edges": sharded.edges_explored,
            "seconds": None,
            "speedup": None,
            "results_match": witnesses_equal
            and sharded.configurations_explored == reference.configurations_explored
            and sharded.edges_explored == reference.edges_explored,
        }
    )

    if nodes > 1:
        # Two-level distributed replay of the booking exploration: node
        # agents own the intern tables, the merged counts must match the
        # single-shard engine's exactly.
        bound, depth = 2, 4 if quick else 6
        options = ExplorationOptions(max_depth=depth, retention=RETAIN_COUNTS)
        single = RecencyExplorer(booking, bound, options).explore()
        with RecencyExplorer(
            booking, bound, options.replace(nodes=nodes, transport=transport)
        ) as distributed_explorer:
            backend = distributed_explorer.backend_name
            started = time.perf_counter()
            result = distributed_explorer.explore()
            seconds = time.perf_counter() - started
        rows.append(
            {
                "case": f"booking ({nodes}-node distributed)",
                "bound": bound,
                "depth": depth,
                "shards": 1,
                "workers": 1,
                "backend": backend,
                "configurations": result.configuration_count,
                "edges": result.edge_count,
                "seconds": round(seconds, 4),
                "speedup": None,
                "results_match": (
                    result.configuration_count == single.configuration_count
                    and result.edge_count == single.edge_count
                    and result.truncated == single.truncated
                    and result.configurations == single.configurations
                ),
            }
        )
    return rows


# The single experiment registry: ``{id: (title, default runner)}``.
# The harness CLI derives its titles and dispatch from this table and
# ``all_experiments`` runs it, so a new experiment is registered exactly
# once.  The default runners use the CI-smoke configuration where one
# exists (quick=True for the benchmark-scale experiments).
def experiment_e19_fuzz_corpus(quick: bool = True, corpus: str | None = None) -> list:
    """E19: the differential fuzzing oracle over a seed window and the corpus.

    Sweeps a fixed smoke-tier seed window through the differential
    oracle (:mod:`repro.fuzz`) — engine verdict vs the MSO/VPA encoding
    path — and replays a deterministic sample of the committed corpus.
    Every row carries ``oracle_agrees``; a ``False`` anywhere means the
    two verification paths diverged on a concrete instance.
    """
    from repro.fuzz import (
        corpus_root,
        differential_report,
        generate_instance,
        replay_entry,
        sample_entries,
    )

    seeds = 25 if quick else 100
    verdicts: dict[str, int] = {}
    disagreements = 0
    runs_total = 0
    for seed in range(seeds):
        report = differential_report(generate_instance(seed, "smoke"))
        verdicts[report.engine_verdict.value] = verdicts.get(report.engine_verdict.value, 0) + 1
        runs_total += report.runs_checked
        if not report.agree:
            disagreements += 1
    rows = [
        {
            "mode": "differential sweep",
            "tier": "smoke",
            "instances": seeds,
            "runs_enumerated": runs_total,
            "verdicts": dict(sorted(verdicts.items())),
            "disagreements": disagreements,
            "oracle_agrees": disagreements == 0,
        }
    ]
    root = corpus_root(corpus)
    sampled = sample_entries(6 if quick else 24, root)
    failures = 0
    for path in sampled:
        if not replay_entry(path).ok:
            failures += 1
    rows.append(
        {
            "mode": "corpus replay",
            "tier": "all",
            "instances": len(sampled),
            "replay_failures": failures,
            "oracle_agrees": failures == 0,
        }
    )
    return rows


def experiment_e22_loadgen(quick: bool = True, seed: int = 0) -> list:
    """E22: seeded traffic replay over the service with soak invariants.

    Generates seeded user sessions (:mod:`repro.loadgen`), replays them
    closed-loop and open-loop against an in-process service instance,
    and audits the soak invariants.  Every row carries
    ``verdicts_match``/``metrics_reconcile``/``healthy_after_chaos``; a
    ``False`` anywhere means the service drifted from the library,
    miscounted traffic, or came out of the run unhealthy.
    """
    from repro.loadgen import (
        check_invariants,
        generate_sessions,
        run_closed_loop,
        run_open_loop,
    )
    from repro.obs.metrics import MetricsRegistry
    from repro.service.app import ServiceConfig, create_app
    from repro.service.testing import AsgiClient

    users = 4 if quick else 8
    requests = 3 if quick else 6
    rows = []
    for mode, driver in (("closed", run_closed_loop), ("open", run_open_loop)):
        scripts = generate_sessions(seed, users, requests_per_user=requests)
        metrics = MetricsRegistry()
        config = ServiceConfig(max_concurrent=4, store=False, metrics=metrics)
        with AsgiClient(create_app(config)) as client:
            if mode == "open":
                report = driver(client, scripts, think_scale=0.5)
            else:
                report = driver(client, scripts, think_scale=0.0)
            audit = check_invariants(report, client=client, metrics=metrics)
        rows.append(
            {
                "mode": f"{mode}-loop replay",
                "users": users,
                "sent": report.sent,
                "ok": report.count("ok"),
                "rejected": report.count("rejected"),
                "errors": report.count("error"),
                "throughput": round(report.throughput, 2),
                "p50_latency": report.latency.quantile(0.5),
                "p99_latency": report.latency.quantile(0.99),
                "checked_verdicts": audit.checked_verdicts,
                "verdicts_match": audit.verdicts_match,
                "metrics_reconcile": audit.metrics_reconcile,
                "healthy_after_chaos": audit.healthy_after_chaos,
            }
        )
    return rows


EXPERIMENTS: dict = {
    "E1": ("Figure 1 run replay", experiment_e1_figure1_run),
    "E2": ("Recency bound of the Figure 1 run", experiment_e2_recency_bound),
    "E3": ("Nested-word encoding (Figure 2)", experiment_e3_encoding),
    "E4": ("Abstr/Concr round trip", experiment_e4_abstraction_roundtrip),
    "E5": ("Validity of encodings", experiment_e5_validity),
    "E6": ("MSO-FO → MSONW translation", experiment_e6_translation),
    "E7": ("Size of the reduction formula", experiment_e7_formula_size),
    "E8": ("Counter-machine reductions", experiment_e8_counter_reductions),
    "E9": ("Convergence in the recency bound", experiment_e9_convergence),
    "E10": ("Booking agency case study", experiment_e10_booking),
    "E11": ("Relaxation transformations", experiment_e11_transforms),
    "E12": ("Bulk-operation simulation", experiment_e12_bulk),
    "E13": ("Unified engine vs seed explorer", lambda: experiment_e13_engine(quick=True)),
    "E14": ("Sharded exploration vs single-shard engine", lambda: experiment_e14_sharded(quick=True)),
    "E19": ("Differential fuzzing oracle and corpus replay", lambda: experiment_e19_fuzz_corpus(quick=True)),
    "E22": ("Traffic replay over the service with soak invariants", lambda: experiment_e22_loadgen(quick=True)),
}


def all_experiments() -> dict:
    """Run every experiment and return ``{id: rows}`` (used by the harness CLI)."""
    return {identifier: runner() for identifier, (_, runner) in EXPERIMENTS.items()}
