import dataclasses
import math

import numpy as np
import pytest
import yaml

from safefleet.scenarios import (Metrics, RepResult, ScenarioConfig, ScenarioResult,
                                 compute_metrics, head_to_head_config, load_scenario,
                                 pick_and_place_config, serialize_log, summarize,
                                 unit_task_config)
from safefleet.world import DT


def straight_line_log(robot_id="r0", speed=1.0, duration=5.0, with_bystander=False):
    """Robot driving east at constant speed along y=0."""
    rows = []
    n = int(round(duration / DT))
    for k in range(n + 1):
        t = k * DT
        rows.append((t, robot_id, "robot", speed * t, 0.0, 0.0, speed, 0.0))
        if with_bystander:
            rows.append((t, "ped", "pedestrian", 0.0, 50.0, 0.0, 0.0, 0.0))
    return rows


class TestComputeMetrics:
    def test_straight_line_path_and_velocity(self):
        m = compute_metrics(straight_line_log(speed=1.0, duration=5.0), "r0")
        assert m.path_length == pytest.approx(5.0, abs=1e-9)
        assert m.mean_velocity == pytest.approx(1.0, abs=1e-9)
        assert m.min_distance == math.inf
        assert m.collision_count == 0

    def test_stationary_ticks_do_not_dilute_mean_velocity(self):
        log = straight_line_log(speed=1.0, duration=5.0)
        # park at the end point for another 5 seconds
        t_end, _, _, x_end = log[-1][0], log[-1][1], log[-1][2], log[-1][3]
        for k in range(1, 51):
            log.append((t_end + k * DT, "r0", "robot", x_end, 0.0, 0.0, 0.0, 0.0))
        m = compute_metrics(log, "r0")
        assert m.mean_velocity == pytest.approx(1.0, abs=1e-9)
        assert m.path_length == pytest.approx(5.0, abs=1e-9)

    def test_circle_path_length(self):
        # unit circle traversed once in 1000 ticks
        rows = []
        for k in range(1001):
            a = 2.0 * math.pi * k / 1000.0
            rows.append((k * DT, "r0", "robot", math.cos(a), math.sin(a), 0.0, 0.0, 0.0))
        m = compute_metrics(rows, "r0")
        assert m.path_length == pytest.approx(2.0 * math.pi, rel=0.02)

    def test_min_distance_and_collision_count(self):
        rows = []
        seps = [2.0, 0.8, 0.4, 0.3, 1.0]
        for k, sep in enumerate(seps):
            t = k * DT
            rows.append((t, "r0", "robot", k * 1.0, 0.0, 0.0, 1.0, 0.0))
            rows.append((t, "ped", "pedestrian", k * 1.0, sep, 0.0, 0.0, 0.0))
        m = compute_metrics(rows, "r0")
        assert m.min_distance == pytest.approx(0.3)
        assert m.collision_count == 2  # ticks at 0.4 and 0.3

    def test_nearest_of_several_agents(self):
        rows = [(0.0, "r0", "robot", 0.0, 0.0, 0.0, 0.0, 0.0),
                (0.0, "p0", "pedestrian", 0.0, 0.7, 0.0, 0.0, 0.0),
                (0.0, "o0", "obstacle", 3.0, 4.0, 0.0, 0.0, 0.0),
                (0.0, "r1", "robot", 1.0, 0.0, 0.0, 0.0, 0.0)]
        assert compute_metrics(rows, "r0").min_distance == pytest.approx(0.7)
        assert compute_metrics(rows, "r1").min_distance == pytest.approx(1.0)

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([], "r0")

    def test_unknown_robot_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics(straight_line_log(), "ghost")


class TestSerializeLog:
    def test_formatting(self):
        log = [(0.1, "r0", "robot", 1.0, 2.0, 0.5, 1.0, 0.0)]
        assert serialize_log(log) == "0.1,r0,robot,1.000000,2.000000,0.500000,1.000000,0.000000\n"

    def test_deterministic_for_same_log(self):
        log = straight_line_log()
        assert serialize_log(log) == serialize_log(list(log))


def _fake_result(name="s", seed=0, cfg=None):
    cfg = cfg or unit_task_config("static", 1, 1.0, seed=seed, repetitions=1)
    cfg = dataclasses.replace(cfg, name=name)
    log = straight_line_log(with_bystander=True)
    metrics = {"r0": compute_metrics(log, "r0")}
    rep = RepResult(seed=seed, log=log, metrics=metrics, success=True)
    return ScenarioResult(config=cfg, reps=[rep])


class TestReports:
    def test_summarize_single_rep(self):
        s = summarize(_fake_result(seed=4))
        assert list(s) == ["scenario", "seed", "type", "n_obstacles", "max_speed", "n_robots",
                           "mean_velocity", "mean_velocity_std", "distance", "distance_std",
                           "path_length", "success_rate"]
        assert (s["scenario"], s["seed"], s["type"]) == ("s", 4, "static")
        assert (s["n_obstacles"], s["max_speed"], s["n_robots"]) == (2, 1.0, 1)
        assert s["mean_velocity"] == pytest.approx(1.0)
        assert s["mean_velocity_std"] == 0.0
        assert s["path_length"] == pytest.approx(5.0)
        assert s["success_rate"] == 1.0

    def test_summarize_averages_reps(self):
        res = _fake_result()
        slow = straight_line_log(speed=0.5, with_bystander=True)
        res.reps.append(RepResult(seed=1, log=slow,
                                  metrics={"r0": compute_metrics(slow, "r0")},
                                  success=False))
        s = summarize(res)
        assert s["mean_velocity"] == pytest.approx(0.75)
        assert s["success_rate"] == pytest.approx(0.5)

    @pytest.mark.parametrize("cfg,kind,n_obstacles", [
        (unit_task_config("dynamic", 1, 1.0, n_pedestrians=2), "dynamic", 2),
        (head_to_head_config(), "multirobot", 0),
        (pick_and_place_config(n_pedestrians=1), "pick_and_place", 1),
    ], ids=["dynamic", "head_to_head", "pick_and_place"])
    def test_summarize_scenario_type(self, cfg, kind, n_obstacles):
        s = summarize(_fake_result(cfg=cfg))
        assert (s["type"], s["n_obstacles"], s["n_robots"]) == \
            (kind, n_obstacles, len(cfg.robots))


class TestScenarioConfig:
    def test_yaml_round_trip(self, tmp_path):
        cfg = unit_task_config("dynamic", 2, 1.5, seed=3, repetitions=4)
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(dataclasses.asdict(cfg)))
        assert load_scenario(path) == cfg

    def test_unknown_keys_named(self):
        base = dataclasses.asdict(unit_task_config("static", 1, 1.0))
        # horizon and noise_sigma were scenario keys once: a YAML that still
        # sets them must fail, not run with the constants silently
        for extra, named in (({"max_sped": 1.0, "robts": []}, r"\['max_sped', 'robts'\]"),
                             ({"horizon": 10}, r"\['horizon'\]"),
                             ({"noise_sigma": 0.0}, r"\['noise_sigma'\]")):
            with pytest.raises(ValueError, match=named):
                ScenarioConfig.from_dict({**base, **extra})

    def test_missing_keys_named(self):
        raw = dataclasses.asdict(unit_task_config("static", 1, 1.0))
        del raw["robots"], raw["max_speed"]
        with pytest.raises(ValueError, match=r"missing scenario keys: \['max_speed', 'robots'\]"):
            ScenarioConfig.from_dict(raw)

    def test_unknown_mode_rejected(self):
        raw = {**dataclasses.asdict(unit_task_config("static", 1, 1.0)), "mode": "unit_taks"}
        with pytest.raises(ValueError, match="unit_taks"):
            ScenarioConfig.from_dict(raw)

    @pytest.mark.parametrize("build,spoil,named", [
        (lambda: unit_task_config("static", 2, 1.0),
         lambda raw: raw["robots"][1].update(id="r0"), r"duplicate robot id 'r0'"),
        (lambda: unit_task_config("static", 1, 1.0),
         lambda raw: raw["robots"][0].pop("platform"), r"robot 'r0' lacks \['platform'\]"),
        (lambda: unit_task_config("static", 1, 1.0),
         lambda raw: raw["robots"][0].pop("goal"), r"unit_task robot 'r0' has no goal"),
        (pick_and_place_config,
         lambda raw: raw["homes"].pop("r3"), r"pick_and_place robot 'r3' has no home"),
        (lambda: unit_task_config("static", 2, 1.0),
         lambda raw: raw["robots"][1].update(start=[1.5, 7.5]), r"robot 'r1' start must be 3"),
        (lambda: unit_task_config("static", 1, 1.0),
         lambda raw: raw["robots"][0].update(goal=[10.5, 6.0, 0.0]), r"robot 'r0' goal must be 2"),
        (lambda: unit_task_config("static", 1, 1.0),
         lambda raw: raw["obstacles"][1].append(0.0), r"obstacle 1 must be 2"),
    ], ids=["duplicate_id", "no_platform", "unit_task_no_goal", "pick_and_place_no_home",
            "start_two_numbers", "goal_three_numbers", "obstacle_three_numbers"])
    def test_malformed_robots_named(self, build, spoil, named):
        # each of these used to pass the boundary and fail mid-run (a short
        # start, a long goal or obstacle with a message that named nothing),
        # or, for a duplicate id, run with one robot silently dropped
        raw = dataclasses.asdict(build())
        spoil(raw)
        with pytest.raises(ValueError, match=named):
            ScenarioConfig.from_dict(raw)

    def test_invalid_max_speed_rejected(self):
        with pytest.raises(ValueError):
            unit_task_config("static", 1, 0.7)

    def test_unit_task_static_structure(self):
        cfg = unit_task_config("static", 3, 0.5)
        assert len(cfg.robots) == 3
        assert len(cfg.obstacles) == 2
        assert cfg.pedestrians == []
        assert {r["platform"] for r in cfg.robots} == {"freight", "jackal", "megarover"}

    def test_unit_task_dynamic_structure(self):
        cfg = unit_task_config("dynamic", 1, 1.0, n_pedestrians=2)
        assert cfg.obstacles == []
        assert len(cfg.pedestrians) == 2

    def test_head_to_head_structure(self):
        cfg = head_to_head_config(max_speed=1.0)
        assert len(cfg.robots) == 2
        starts = [r["start"][0] for r in cfg.robots]
        goals = [r["goal"][0] for r in cfg.robots]
        # robots start at opposite ends and swap sides
        assert (starts[0] - starts[1]) * (goals[0] - goals[1]) < 0

    def test_pick_and_place_structure(self):
        cfg = pick_and_place_config(n_pedestrians=2)
        assert len(cfg.robots) == 4
        assert len(cfg.pedestrians) == 2
        assert cfg.mode == "pick_and_place"
        assert cfg.map is not None
