"""Experiment harness regenerating every figure/example artefact of the paper.

Runnable as a CLI (``python -m repro.harness``) with runtime-layer
options — ``--parallel`` executes grid experiments concurrently on
forked workers, ``--store`` serves completed sweep points from the
content-addressed result store (so a re-run resumes an interrupted
sweep), ``--stream`` prints rows as they complete.  See
:mod:`repro.harness.cli`.
"""

from repro.harness.experiments import (
    all_experiments,
    experiment_e13_engine,
    experiment_e14_sharded,
    experiment_e1_figure1_run,
    experiment_e2_recency_bound,
    experiment_e3_encoding,
    experiment_e4_abstraction_roundtrip,
    experiment_e5_validity,
    experiment_e6_translation,
    experiment_e7_formula_size,
    experiment_e8_counter_reductions,
    experiment_e9_convergence,
    experiment_e10_booking,
    experiment_e11_transforms,
    experiment_e12_bulk,
)
from repro.harness.reporting import (
    format_row,
    format_table,
    point_printer,
    print_experiment,
    stream_experiment,
)

__all__ = [
    "all_experiments",
    "experiment_e10_booking",
    "experiment_e11_transforms",
    "experiment_e12_bulk",
    "experiment_e13_engine",
    "experiment_e14_sharded",
    "experiment_e1_figure1_run",
    "experiment_e2_recency_bound",
    "experiment_e3_encoding",
    "experiment_e4_abstraction_roundtrip",
    "experiment_e5_validity",
    "experiment_e6_translation",
    "experiment_e7_formula_size",
    "experiment_e8_counter_reductions",
    "experiment_e9_convergence",
    "format_row",
    "format_table",
    "point_printer",
    "print_experiment",
    "stream_experiment",
]
