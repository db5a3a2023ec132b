import csv
import dataclasses

import pytest
import yaml

from conftest import BUNDLE_DIR
from safefleet.cli import main
from safefleet.scenarios import run_single, serialize_log, unit_task_config


@pytest.fixture(scope="module")
def scenario_run(bundle, tmp_path_factory):
    """One short static scenario run through `run-scenario`, then `report`."""
    tmp = tmp_path_factory.mktemp("cli")
    cfg = unit_task_config("static", 1, 1.0, repetitions=2)
    cfg.time_budget = 3.0
    (tmp / "scenario.yaml").write_text(yaml.safe_dump(dataclasses.asdict(cfg)))
    results = tmp / "results"
    main(["run-scenario", "--config", str(tmp / "scenario.yaml"), "--models", BUNDLE_DIR,
          "--out", str(results)])
    main(["report", "--results", str(results), "--out", str(tmp / "report")])
    return cfg, results, tmp / "report"


def test_run_scenario_log_is_the_seeded_rollout(scenario_run, bundle):
    cfg, results, _ = scenario_run
    want = serialize_log(run_single(cfg, bundle, cfg.seed).log)
    assert (results / f"log_{cfg.name}_rep0.csv").read_text() == want


def test_run_scenario_outputs(scenario_run):
    cfg, results, _ = scenario_run
    assert sorted(p.name for p in results.iterdir()) == \
        [f"log_{cfg.name}_rep{k}.csv" for k in range(cfg.repetitions)] + \
        [f"summary_{cfg.name}.yaml"]


def test_report_aggregates_the_summary(scenario_run):
    cfg, results, report = scenario_run
    with open(results / f"summary_{cfg.name}.yaml") as fh:
        summary = yaml.safe_load(fh)
    assert (summary["scenario"], summary["seed"], summary["type"]) == (cfg.name, 0, "static")
    assert sorted(p.name for p in report.iterdir()) == ["table.csv"]
    with open(report / "table.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert list(rows[0]) == list(summary)
    for col, value in summary.items():
        if isinstance(value, float):
            assert rows[0][col] == f"{value:.4f}"
        else:
            assert rows[0][col] == str(value)


def test_report_without_summaries_exits(tmp_path):
    with pytest.raises(SystemExit, match="no summary_"):
        main(["report", "--results", str(tmp_path), "--out", str(tmp_path / "report")])
    assert not (tmp_path / "report").exists()


def test_multirobot_task_runs_head_to_head(bundle, tmp_path):
    main(["run-scenario", "--models", BUNDLE_DIR, "--out", str(tmp_path),
          "--task", "multirobot", "--repetitions", "1"])
    with open(tmp_path / "log_head_to_head_1_rep0.csv") as fh:
        agents = {(row[1], row[2]) for row in csv.reader(fh)}
    assert agents == {("r0", "robot"), ("r1", "robot")}


def test_removed_train_aliases_are_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["train-cbf", "--out", str(tmp_path)])
    assert exc.value.code == 2
