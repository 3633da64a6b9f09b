"""What replayed users ask for: the query-template vocabulary.

A traffic script draws every request from a vocabulary of
:class:`QueryTemplate` values — one per (case study, condition, cost
envelope) shape.  :func:`builtin_templates` covers the paper's §6 case
studies (the anchor workloads: booking lifecycle predicates, the
Example 3.1 system, student enrolment, warehouse orders), and
:func:`vocabulary` optionally extends them with fuzz-corpus instances,
so sustained load exercises generated systems alongside the
hand-written ones.

The service resolves systems by name, so :func:`vocabulary` returns the
templates together with the ``{name: factory}`` registry (defaults plus
one ``fuzz-<tier>-<hash16>`` factory per corpus entry) the loadgen app
must be configured with for those names to resolve.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

from repro.fuzz.corpus import iter_entries, load_instance
from repro.fuzz.serialize import render_query
from repro.service.sessions import DEFAULT_CASE_STUDIES

__all__ = ["QueryTemplate", "builtin_templates", "vocabulary"]

#: Cap on the exploration depth a corpus-derived template may request —
#: corpus tiers grade instance cost, but replayed traffic should stay
#: interactive even for the odd expensive entry.
_CORPUS_DEPTH_CAP = 4


@dataclass(frozen=True)
class QueryTemplate:
    """One drawable request shape.

    Attributes:
        case_study: the servable system name the request targets.
        condition: FOL(R) query text (``None`` when ``proposition`` is
            used instead — exactly one is set).
        proposition: a proposition name, the other condition form.
        bound: recency bound for reachability requests (``None`` =
            unbounded semantics).
        max_depth: exploration depth budget shipped with the payload.
        source: provenance tag (``"builtin"`` or ``"corpus"``).
    """

    case_study: str
    condition: str | None
    proposition: str | None
    bound: int | None
    max_depth: int
    source: str = "builtin"

    def payload(self) -> dict:
        """The base request payload (endpoint knobs added by the script)."""
        body: dict = {"case_study": self.case_study, "max_depth": self.max_depth}
        if self.condition is not None:
            body["condition"] = self.condition
        else:
            body["proposition"] = self.proposition
        if self.bound is not None:
            body["bound"] = self.bound
        return body


def builtin_templates() -> tuple[QueryTemplate, ...]:
    """Templates over the four §6 case studies (cheap, mixed verdicts)."""
    return (
        QueryTemplate("booking", "Exists x. BSubmitted(x)", None, 2, 4),
        QueryTemplate("booking", "Exists x. BAccepted(x)", None, 2, 4),
        QueryTemplate("booking", None, "open", 1, 3),
        QueryTemplate("example31", "Exists x. R(x)", None, 1, 3),
        QueryTemplate("example31", "Exists x. Q(x)", None, 2, 3),
        QueryTemplate("example31", None, "p", None, 2),
        QueryTemplate("students", "Exists x. Graduated(x)", None, 2, 4),
        QueryTemplate("students", "Exists x. Dropped(x)", None, 1, 3),
        QueryTemplate("warehouse", "Exists x. TBO(x)", None, 1, 3),
        QueryTemplate("warehouse", None, "open", 2, 3),
    )


def vocabulary(
    include_corpus: bool = False,
    corpus: Path | None = None,
    tier: str | None = None,
    limit: int | None = None,
) -> tuple[tuple[QueryTemplate, ...], Mapping[str, Callable[[], object]]]:
    """The template vocabulary and the registry that serves it.

    Returns ``(templates, case_studies)``: the builtin templates over
    the default case studies and, with ``include_corpus``, one
    ``source="corpus"`` template and one factory per corpus entry.  The
    corpus slice is read once: ``corpus``/``tier`` select it exactly as
    :func:`repro.fuzz.corpus.iter_entries` does, and ``limit`` keeps the
    first N entries sorted by servable name (independent of directory
    enumeration order).  Corpus templates keep the entry's recorded
    bound and its depth capped at 4, so replay stays interactive; each
    factory returns the system deserialized here, matching how the
    built-in factories behave under the service's own caching.
    """
    templates = list(builtin_templates())
    case_studies: dict[str, Callable[[], object]] = dict(DEFAULT_CASE_STUDIES)
    if include_corpus:
        entries = []
        for path in iter_entries(corpus, tier):
            instance, _ = load_instance(path)
            entries.append((f"fuzz-{instance.tier}-{path.stem}", instance))
        entries.sort(key=lambda entry: entry[0])
        for name, instance in entries[:limit]:
            templates.append(
                QueryTemplate(
                    case_study=name,
                    condition=render_query(instance.condition),
                    proposition=None,
                    bound=instance.bound,
                    max_depth=min(instance.depth, _CORPUS_DEPTH_CAP),
                    source="corpus",
                )
            )
            case_studies[name] = lambda system=instance.system: system
    return tuple(templates), case_studies
