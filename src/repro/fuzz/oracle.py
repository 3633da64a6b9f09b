"""The differential oracle: exploration verdicts vs the MSO/VPA encoding path.

The paper's central claim is that recency-bounded exploration and the
nested-word (MSO/VPA) encoding decide the same properties.  That makes
one path a free test oracle for the other: for every fuzz instance this
module answers the same reachability question along two independent
routes and compares —

* **engine**: :func:`repro.api.run_reachability` at the instance's
  bound, BFS over the deduplicated canonical configuration graph;
* **encoding**: enumerate every canonical b-bounded run prefix
  (:func:`repro.recency.explorer.iterate_b_bounded_runs`), encode each as
  a nested word (:func:`repro.encoding.encoder.encode_run`), and read the
  instance sequence back *from the letters alone* through
  :class:`repro.encoding.analyzer.EncodingAnalyzer` — never from the DMS
  semantics.

Verdict-parity contract (what "agree" means):

* ``HOLDS`` is exact in both directions — a reachable witness must be
  seen by both paths.
* encoding ``FAILS`` ⇒ engine ``FAILS``: if every run prefix dies before
  the depth limit, the graph exploration must be exhaustive too.
* engine ``UNKNOWN`` ⇒ encoding ``UNKNOWN`` (contrapositive of the
  above; engine resource truncation cannot out-conclude the runs).
* The one *allowed* divergence is engine ``FAILS`` with encoding
  ``UNKNOWN``: a cycle in the deduplicated graph lets run prefixes grow
  to the depth limit even though the (finite) graph was exhausted.

On top of reachability parity the oracle checks that every encoding is
valid (``ϕ_valid``), that the per-position condition values read off the
encoding match the run semantics, the safety-dual mapping through
:class:`repro.modelcheck.checker.RecencyBoundedModelChecker`, and the
Section 6.5 translation cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import ExplorationOptions, run_reachability
from repro.encoding.analyzer import EncodingAnalyzer
from repro.encoding.encoder import encode_run
from repro.errors import ModelCheckingError
from repro.fol.evaluator import evaluate_sentence
from repro.fuzz.generator import FuzzInstance
from repro.modelcheck.checker import RecencyBoundedModelChecker
from repro.modelcheck.result import Verdict
from repro.recency.explorer import iterate_b_bounded_runs

__all__ = [
    "DEFAULT_MAX_RUNS",
    "DifferentialCheck",
    "DifferentialReport",
    "encoding_reachability",
    "differential_report",
]

#: Run-enumeration cap protecting the oracle from pathological branching.
#: When hit, the report is marked ``limited`` and only the sound
#: one-directional comparisons are enforced.
DEFAULT_MAX_RUNS = 5000


@dataclass(frozen=True)
class DifferentialCheck:
    """One named comparison between the two verification paths.

    Attributes:
        name: which comparison (``"encoding-valid"``, ``"abstraction"``,
            ``"reachability"``, ``"safety-dual"`` or ``"translation"``).
        agree: whether the two sides are consistent under the parity
            contract of the module docs.
        expected: the engine-side (reference) observation.
        actual: the encoding-side observation.
        detail: human-readable context for a disagreement.
    """

    name: str
    agree: bool
    expected: str
    actual: str
    detail: str = ""

    def describe(self) -> str:
        """One line suitable for CLI output and repro files."""
        status = "ok" if self.agree else "DISAGREE"
        line = f"[{status}] {self.name}: engine={self.expected} encoding={self.actual}"
        return f"{line} ({self.detail})" if self.detail else line


@dataclass(frozen=True)
class DifferentialReport:
    """The oracle's full verdict on one fuzz instance.

    Attributes:
        instance: the instance that was checked.
        checks: every comparison performed, in a fixed order.
        engine_verdict: the graph-exploration reachability verdict.
        encoding_verdict: the run-enumeration/encoding verdict.
        runs_checked: number of run prefixes enumerated on the encoding side.
        limited: True when the ``max_runs`` cap truncated the enumeration
            (strict FAILS/UNKNOWN comparisons are then skipped).
    """

    instance: FuzzInstance
    checks: tuple[DifferentialCheck, ...]
    engine_verdict: Verdict
    encoding_verdict: Verdict
    runs_checked: int
    limited: bool = False

    @property
    def agree(self) -> bool:
        """True when every check is consistent."""
        return all(check.agree for check in self.checks)

    def disagreements(self) -> tuple[DifferentialCheck, ...]:
        """The failing checks, in check order."""
        return tuple(check for check in self.checks if not check.agree)

    def describe(self) -> str:
        """A multi-line summary (one line per check)."""
        return "\n".join(check.describe() for check in self.checks)


def encoding_reachability(
    instance: FuzzInstance, max_runs: int | None = DEFAULT_MAX_RUNS
) -> tuple[Verdict, int, bool, list[DifferentialCheck]]:
    """Decide reachability purely through the nested-word encoding path.

    Enumerates canonical b-bounded run prefixes, encodes each one, and
    evaluates the instance's condition on the symbolic databases the
    :class:`EncodingAnalyzer` reconstructs from the letters.  Returns
    ``(verdict, runs_checked, limited, side_checks)`` where the side
    checks cover encoding validity and the per-position abstraction
    agreement between the run semantics and the encoding readback.
    """
    system, bound, depth = instance.system, instance.bound, instance.depth
    condition = instance.condition
    found = False
    exhaustive = True
    runs_checked = 0
    invalid: DifferentialCheck | None = None
    mismatch: DifferentialCheck | None = None
    for run in iterate_b_bounded_runs(system, bound, depth, max_runs=max_runs):
        runs_checked += 1
        if len(run) >= depth:
            exhaustive = False
        analyzer = EncodingAnalyzer(system, bound, encode_run(system, run))
        if invalid is None:
            report = analyzer.check_validity()
            if not report.valid:
                invalid = DifferentialCheck(
                    name="encoding-valid",
                    agree=False,
                    expected="valid",
                    actual=f"{report.condition}@block{report.failed_block}",
                    detail=f"run #{runs_checked}: {report.reason}",
                )
        # The encoding-side instance sequence: the database before the
        # first block, then the database after each block — element
        # classes instead of canonical names, but conditions are
        # constant-free, so evaluation is isomorphism-invariant.
        blocks = analyzer.block_count()
        if blocks:
            encoded = [analyzer.database_before(1)]
            encoded.extend(analyzer.database_after(i) for i in range(1, blocks + 1))
        else:
            encoded = [run.instances()[0]]
        semantic = run.instances()
        for position, (enc_instance, run_instance) in enumerate(zip(encoded, semantic)):
            enc_value = evaluate_sentence(condition, enc_instance)
            run_value = evaluate_sentence(condition, run_instance)
            if enc_value:
                found = True
            if mismatch is None and enc_value != run_value:
                mismatch = DifferentialCheck(
                    name="abstraction",
                    agree=False,
                    expected=str(run_value),
                    actual=str(enc_value),
                    detail=f"run #{runs_checked} position {position}: condition value diverges",
                )
        if len(encoded) != len(semantic) and mismatch is None:
            mismatch = DifferentialCheck(
                name="abstraction",
                agree=False,
                expected=f"{len(semantic)} instances",
                actual=f"{len(encoded)} instances",
                detail=f"run #{runs_checked}: encoding block count diverges from run length",
            )
    limited = max_runs is not None and runs_checked >= max_runs
    if found:
        verdict = Verdict.HOLDS
    elif exhaustive and not limited:
        verdict = Verdict.FAILS
    else:
        verdict = Verdict.UNKNOWN
    checks = [
        invalid or DifferentialCheck("encoding-valid", True, "valid", "valid"),
        mismatch or DifferentialCheck("abstraction", True, "pointwise-equal", "pointwise-equal"),
    ]
    return verdict, runs_checked, limited, checks


def _reachability_parity(
    engine: Verdict, encoding: Verdict, limited: bool
) -> DifferentialCheck:
    """Apply the verdict-parity contract of the module docs."""
    if limited:
        # Truncated enumeration can only assert HOLDS soundly.
        agree = encoding is not Verdict.HOLDS or engine is Verdict.HOLDS
        detail = "run enumeration hit max_runs; only HOLDS propagation checked"
    elif engine is Verdict.HOLDS or encoding is Verdict.HOLDS:
        agree = engine is encoding
        detail = "witness existence must match exactly"
    elif engine is Verdict.FAILS and encoding is Verdict.UNKNOWN:
        agree = True
        detail = "allowed divergence: graph exhausted while a cycle extends runs to the depth limit"
    else:
        agree = engine is encoding
        detail = "exhaustiveness must match (no witness on either side)"
    return DifferentialCheck(
        name="reachability",
        agree=agree,
        expected=engine.value,
        actual=encoding.value,
        detail=detail,
    )


def _safety_dual(
    instance: FuzzInstance, encoding: Verdict, limited: bool, max_runs: int | None
) -> list[DifferentialCheck]:
    """Check the safety-dual mapping and the translation cross-validation.

    ``check_safety(condition)`` asks "the condition never holds", so over
    the *same* run enumeration the verdicts must be exact duals of the
    encoding-side reachability verdict: safety ``FAILS`` ⇔ reach
    ``HOLDS``, safety ``HOLDS`` ⇔ reach ``FAILS``, ``UNKNOWN`` ⇔
    ``UNKNOWN``.  The checker also re-evaluates every run through its
    encoding (Section 6.5); a translation disagreement raises, which the
    oracle captures as its own check.
    """
    checker = RecencyBoundedModelChecker(
        instance.system,
        instance.bound,
        depth=instance.depth,
        max_runs=max_runs,
        cross_validate_encoding=True,
    )
    try:
        safety = checker.check_safety(instance.condition)
    except ModelCheckingError as error:
        return [
            DifferentialCheck(
                name="translation",
                agree=False,
                expected="direct == encoding evaluation",
                actual="disagreement",
                detail=str(error),
            )
        ]
    translation = DifferentialCheck(
        "translation", True, "direct == encoding evaluation", "consistent"
    )
    dual = {Verdict.FAILS: Verdict.HOLDS, Verdict.HOLDS: Verdict.FAILS}.get(
        safety.verdict, Verdict.UNKNOWN
    )
    if limited:
        # The checker does not know max_runs truncated it; skip strictness.
        agree = dual is not Verdict.HOLDS or encoding is Verdict.HOLDS
        detail = "run enumeration hit max_runs; only counterexample propagation checked"
    else:
        agree = dual is encoding
        detail = f"safety verdict {safety.verdict.value} dualises to {dual.value}"
    return [
        DifferentialCheck(
            name="safety-dual",
            agree=agree,
            expected=encoding.value,
            actual=dual.value,
            detail=detail,
        ),
        translation,
    ]


def differential_report(
    instance: FuzzInstance, max_runs: int | None = DEFAULT_MAX_RUNS
) -> DifferentialReport:
    """Run every differential check on one fuzz instance.

    The engine side always runs with ``store=False`` so a populated
    ``REPRO_STORE`` can never mask a live disagreement behind a cached
    result.
    """
    engine = run_reachability(
        instance.system,
        instance.condition,
        bound=instance.bound,
        options=ExplorationOptions(max_depth=instance.depth),
        store=False,
    )
    encoding, runs_checked, limited, side_checks = encoding_reachability(
        instance, max_runs=max_runs
    )
    checks = list(side_checks)
    checks.append(_reachability_parity(engine.reachable, encoding, limited))
    checks.extend(_safety_dual(instance, encoding, limited, max_runs))
    return DifferentialReport(
        instance=instance,
        checks=tuple(checks),
        engine_verdict=engine.reachable,
        encoding_verdict=encoding,
        runs_checked=runs_checked,
        limited=limited,
    )
