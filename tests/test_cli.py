import csv

import pytest
import yaml

from conftest import BUNDLE_DIR
from safefleet.cli import main
from safefleet.scenarios import run_single, save_scenario, serialize_log, unit_task_config


@pytest.fixture(scope="module")
def scenario_run(bundle, tmp_path_factory):
    """One short static scenario run through `run-scenario`, then `report`."""
    tmp = tmp_path_factory.mktemp("cli")
    cfg = unit_task_config("static", 1, 1.0, repetitions=2)
    cfg.time_budget = 3.0
    save_scenario(cfg, tmp / "scenario.yaml")
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
    assert (results / f"summary_{cfg.name}.yaml").exists()
    assert (results / "table.csv").exists()
    assert sorted(p.name for p in results.glob("log_*")) == \
        [f"log_{cfg.name}_rep{k}.csv" for k in range(cfg.repetitions)]
    assert not list(results.glob("traj_*"))


def test_report_aggregates_the_summary(scenario_run):
    cfg, results, report = scenario_run
    with open(results / f"summary_{cfg.name}.yaml") as fh:
        summary = yaml.safe_load(fh)
    with open(report / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["scenario"] == cfg.name
    assert float(rows[0]["distance"]) == pytest.approx(summary["distance"], abs=5e-5)
    assert float(rows[0]["success_rate"]) == summary["success_rate"]


def test_removed_train_aliases_are_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["train-cbf", "--out", str(tmp_path)])
    assert exc.value.code == 2
