"""Tests for the workload generators, sweeps and the experiment harness."""


from repro.harness.experiments import (
    experiment_e1_figure1_run,
    experiment_e2_recency_bound,
    experiment_e3_encoding,
    experiment_e5_validity,
    experiment_e8_counter_reductions,
    experiment_e11_transforms,
)
from repro.harness.reporting import format_table, print_experiment
from repro.workloads.generators import RandomDMSParameters, random_bounded_runs, random_dms
from repro.runtime import SweepScheduler
from repro.workloads.sweeps import dms_family


def test_random_dms_is_well_formed_and_deterministic():
    left = random_dms(7)
    right = random_dms(7)
    assert left.action_names() == right.action_names()
    assert left.schema == right.schema
    other = random_dms(8)
    assert other.name != left.name
    assert len(left.actions) >= 1
    # The seed action guarantees at least one enabled transition initially.
    from repro.dms.semantics import enumerate_successors, initial_configuration

    assert list(enumerate_successors(left, initial_configuration(left)))


def test_random_dms_respects_parameters():
    parameters = RandomDMSParameters(relations=2, max_arity=1, actions=2, max_fresh=1)
    system = random_dms(3, parameters)
    assert system.schema.max_arity <= 1
    assert len(system.actions) <= 3  # seed + 2


def test_random_bounded_runs():
    system = random_dms(1, RandomDMSParameters(relations=2, max_arity=1, actions=2))
    runs = random_bounded_runs(system, bound=2, depth=2, max_runs=5)
    assert runs
    assert all(run.bound == 2 for run in runs)


def test_sweep_and_family():
    grid = [{"x": 1}, {"x": 2}]
    points = SweepScheduler().run(grid, lambda params: {"double": params["x"] * 2})
    assert [point.as_row()["double"] for point in points] == [2, 4]
    family = dms_family(seeds=(0, 1))
    assert len(family) == 2


def test_format_table_and_print(capsys):
    rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
    table = format_table(rows)
    assert "a" in table and "22" in table
    assert format_table([]) == "(no rows)"
    print_experiment("E0", "demo", rows)
    captured = capsys.readouterr().out
    assert "E0" in captured and "demo" in captured


def test_experiment_e1_rows_match_paper():
    rows = experiment_e1_figure1_run()
    assert len(rows) == 9
    assert all(row["matches_paper"] for row in rows)


def test_experiment_e2_rows():
    rows = experiment_e2_recency_bound()
    assert rows[0]["value"] == rows[0]["paper"] == 2


def test_experiment_e3_rows():
    rows = experiment_e3_encoding()
    assert all(row["matches_figure_2"] for row in rows)


def test_experiment_e5_rows():
    rows = experiment_e5_validity()
    assert rows[0]["rejected"] == 0
    assert rows[1]["accepted"] == 0


def test_experiment_e8_rows():
    rows = experiment_e8_counter_reductions()
    assert all(row["agree"] for row in rows)


def test_experiment_e11_rows():
    rows = experiment_e11_transforms()
    assert len(rows) == 3
    assert rows[0]["transformed_actions"] >= rows[0]["original_actions"]
