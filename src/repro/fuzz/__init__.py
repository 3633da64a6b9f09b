"""Differential fuzzing of the two verification paths (ROADMAP: scenario diversity).

The package turns the paper's equivalence claim — recency-bounded
exploration and the MSO/nested-word encoding decide the same properties
— into a test oracle over *arbitrary* systems instead of four
hand-written case studies:

* :mod:`repro.fuzz.generator` — seeded random fuzz instances with
  tunable shape knobs, graded into ``smoke``/``stress`` tiers;
* :mod:`repro.fuzz.oracle` — the differential oracle comparing engine
  and encoding verdicts (plus encoding validity, pointwise abstraction
  agreement, the safety dual and the Section 6.5 translation);
* :mod:`repro.fuzz.shrink` — deterministic greedy minimisation of
  disagreeing instances;
* :mod:`repro.fuzz.corpus` — the on-disk corpus under ``corpus/<tier>/``
  keyed by :func:`repro.store.canonical.system_hash`, and repro files;
* :mod:`repro.fuzz.cli` — the ``python -m repro.fuzz`` driver
  (``--seeds``, ``--tier``, ``--budget``, ``--replay``).

See ``docs/fuzzing.md`` for the knob reference and the replay recipe.
"""

from repro.fuzz.corpus import (
    ReplayOutcome,
    corpus_root,
    entry_path,
    iter_entries,
    load_instance,
    replay_entry,
    sample_entries,
    write_entry,
    write_repro,
)
from repro.fuzz.generator import (
    TIERS,
    FuzzInstance,
    FuzzShape,
    generate_instance,
    sample_shape,
)
from repro.fuzz.oracle import (
    DEFAULT_MAX_RUNS,
    DifferentialCheck,
    DifferentialReport,
    differential_report,
    encoding_reachability,
)
from repro.fuzz.serialize import (
    FORMAT_VERSION,
    render_query,
    system_from_json,
    system_to_json,
)
from repro.fuzz.shrink import shrink_candidates, shrink_instance

__all__ = [
    "TIERS",
    "FORMAT_VERSION",
    "DEFAULT_MAX_RUNS",
    "FuzzShape",
    "FuzzInstance",
    "sample_shape",
    "generate_instance",
    "DifferentialCheck",
    "DifferentialReport",
    "differential_report",
    "encoding_reachability",
    "shrink_instance",
    "shrink_candidates",
    "render_query",
    "system_to_json",
    "system_from_json",
    "corpus_root",
    "entry_path",
    "write_entry",
    "write_repro",
    "load_instance",
    "iter_entries",
    "sample_entries",
    "ReplayOutcome",
    "replay_entry",
]
