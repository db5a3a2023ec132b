import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from safefleet import data
from safefleet.data import (CONTEXT_DIMS, LABEL_SAFE, LABEL_UNLABELED, LABEL_UNSAFE,
                            LabelingConfig, features_from_context, label_dynamic,
                            label_multirobot, label_static, split_labels)
from safefleet.world import DT, LINEAR_CANDIDATES, make_platform


# ---------------------------------------------------------------------------
# independent labeling oracle: literal rule, written as a plain loop

def oracle_labels(sep, d, tau):
    n = len(sep)
    first_unsafe = None
    for i in range(n):
        if sep[i] < d:
            first_unsafe = i
            break
    if first_unsafe is None:
        return ["safe"] * n
    out = []
    for i in range(n):
        if i < first_unsafe - tau:
            out.append("safe")
        elif i < first_unsafe:
            out.append("unlabeled")
        elif sep[i] < d:
            out.append("unsafe")
        else:
            out.append("discard")
    return out


class TestSplitLabels:
    def test_collision_free_all_safe(self):
        cfg = LabelingConfig(d=0.7, tau=5)
        labels = split_labels(np.full(50, 1.0), cfg)
        assert all(l == LABEL_SAFE for l in labels)

    def test_static_rule_example(self):
        # enters 0.5 m at step 40: steps 35-39 unlabeled, 40+ unsafe, 0-34 safe
        sep = np.concatenate([np.full(40, 1.0), np.full(10, 0.5)])
        labels = split_labels(sep, LabelingConfig(d=0.7, tau=5))
        assert all(l == LABEL_SAFE for l in labels[:35])
        assert all(l == LABEL_UNLABELED for l in labels[35:40])
        assert all(l == LABEL_UNSAFE for l in labels[40:])

    def test_post_unsafe_recovery_discarded(self):
        sep = np.array([1.0, 0.5, 1.0, 0.5])
        labels = split_labels(sep, LabelingConfig(d=0.7, tau=1))
        assert list(labels) == [LABEL_UNLABELED, LABEL_UNSAFE, "discard", LABEL_UNSAFE]

    def test_tau_clamped_at_start(self):
        sep = np.array([0.5, 1.0])
        labels = split_labels(sep, LabelingConfig(d=0.7, tau=12))
        assert labels[0] == LABEL_UNSAFE and labels[1] == "discard"

    def test_matches_oracle_on_100_random_series(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            n = int(rng.integers(1, 200))
            sep = rng.uniform(0.0, 2.0, n)
            d = float(rng.uniform(0.3, 1.0))
            tau = int(rng.integers(1, 15))
            got = list(split_labels(sep, LabelingConfig(d=d, tau=tau)))
            assert got == oracle_labels(sep, d, tau)

    @given(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=60),
           st.integers(1, 15))
    @settings(max_examples=100, deadline=None)
    def test_partition_property(self, sep, tau):
        labels = split_labels(np.array(sep), LabelingConfig(d=0.7, tau=tau))
        assert set(labels) <= {LABEL_SAFE, LABEL_UNSAFE, LABEL_UNLABELED, "discard"}
        for s, l in zip(sep, labels):
            if l == LABEL_UNSAFE:
                assert s < 0.7
            if l == LABEL_SAFE:
                assert s >= 0.7

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LabelingConfig(d=0.0, tau=5)
        with pytest.raises(ValueError):
            LabelingConfig(d=0.7, tau=0)

    def test_table_labeling_parameters(self):
        assert data.TASK_LABELING["static"] == LabelingConfig(d=0.7, tau=5)
        assert data.TASK_LABELING["dynamic"] == LabelingConfig(d=0.7, tau=12)
        assert data.TASK_LABELING["multirobot"] == LabelingConfig(d=0.7, tau=12)


# ---------------------------------------------------------------------------
# independent feature oracles: each task's encoding written per sample

def scalar_static(state, obstacle):
    x, y, th, v, om = state
    return np.array([obstacle[0] - x, obstacle[1] - y, th, v, om])


def scalar_dynamic(state, ped_history):
    x, y, th, v, om = state
    return np.array([th, v, om] + [c for (px, py) in ped_history for c in (px - x, py - y)])


def scalar_multirobot(a, b):
    return np.array([a[0] - b[0], a[1] - b[1], a[2], b[2], a[3], a[4], b[3], b[4]])


def features(task, context):
    return features_from_context(task, np.asarray(context, dtype=float))[0]


class TestFeatures:
    def test_static_encoding(self):
        f = features("static", [1, 2, 0.5, 0.3, 0.1, 2, 3])
        assert np.allclose(f, [1, 1, 0.5, 0.3, 0.1])
        assert len(f) == 5

    def test_static_at_obstacle(self):
        f = features("static", [2, 3, 0, 0, 0, 2, 3])
        assert f[0] == 0 and f[1] == 0

    def test_dynamic_encoding(self):
        # pedestrian moving +x at 1 m/s, robot at origin, current at (2, 0)
        f = features("dynamic", [0, 0, 0.2, 0.4, 0.0, 1.8, 0.0, 1.9, 0.0, 2.0, 0.0])
        assert len(f) == 9
        assert np.allclose(f, [0.2, 0.4, 0.0, 1.8, 0.0, 1.9, 0.0, 2.0, 0.0])

    def test_dynamic_stationary_pedestrian(self):
        f = features("dynamic", [1, 1, 0, 0, 0] + [3, 2] * 3)
        assert np.allclose(f[3:5], f[5:7]) and np.allclose(f[5:7], f[7:9])

    def test_dynamic_needs_three_positions(self):
        # a context with two pedestrian positions has the wrong width
        with pytest.raises(ValueError, match="width"):
            features("dynamic", [0, 0, 0, 0, 0, 1, 1, 2, 2])

    def test_multirobot_encoding(self):
        f = features("multirobot", [0, 0, 0, 0.5, 0, 1, 0, math.pi, 0.5, 0])
        assert len(f) == 8
        assert np.allclose(f, [-1, 0, 0, math.pi, 0.5, 0, 0.5, 0])

    def test_feature_dims_per_task(self):
        assert data.FEATURE_DIMS == {"static": 5, "dynamic": 9, "multirobot": 8}

    def test_features_from_context_matches_scalar_encoders(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            s = rng.normal(size=5)
            obs = rng.normal(size=2)
            np.testing.assert_array_equal(features("static", np.concatenate([s, obs])),
                                          scalar_static(s, obs))
            hist = rng.normal(size=(3, 2))
            np.testing.assert_array_equal(features("dynamic", np.concatenate([s, hist.ravel()])),
                                          scalar_dynamic(s, hist))
            b = rng.normal(size=5)
            np.testing.assert_array_equal(features("multirobot", np.concatenate([s, b])),
                                          scalar_multirobot(s, b))


class TestLabelDrivers:
    def _straight_traj(self, n, y=0.0):
        traj = np.zeros((n, 8))
        traj[:, 0] = np.arange(n) * DT
        traj[:, 1] = np.arange(n) * 0.1  # 1 m/s along +x
        traj[:, 2] = y
        traj[:, 4] = 1.0
        return traj

    def test_label_static_all_safe_far_obstacle(self):
        traj = self._straight_traj(30)
        ctx, labels = label_static(traj, (1.5, 1.0), LabelingConfig(0.7, 5))
        assert len(labels) == 30 and ctx.shape == (30, CONTEXT_DIMS["static"])
        assert all(l == LABEL_SAFE for l in labels)
        np.testing.assert_array_equal(ctx[7], np.concatenate([traj[7, 1:6], [1.5, 1.0]]))

    def test_label_static_near_pass(self):
        traj = self._straight_traj(60)
        ctx, labels = label_static(traj, (3.0, 0.0), LabelingConfig(0.7, 5))
        assert LABEL_UNSAFE in labels and LABEL_UNLABELED in labels
        # discarded rows shrink the labeled set
        assert len(labels) < 60 and len(ctx) == len(labels)
        assert "discard" not in labels

    def test_label_dynamic_parallel_safe(self):
        traj = self._straight_traj(30)
        ped = np.zeros((30, 3))
        ped[:, 0] = np.arange(30) * DT
        ped[:, 1] = np.arange(30) * 0.1
        ped[:, 2] = 2.0
        ctx, labels = label_dynamic(traj, ped, LabelingConfig(0.7, 12))
        assert len(labels) == 28  # first two lack 3-step history
        assert all(l == LABEL_SAFE for l in labels)
        assert ctx.shape == (28, CONTEXT_DIMS["dynamic"])
        # row k holds the robot at step k + 2 and the pedestrian at steps k..k+2
        for k in (0, 13, 27):
            np.testing.assert_array_equal(
                ctx[k], np.concatenate([traj[k + 2, 1:6], ped[k:k + 3, 1:3].ravel()]))

    def test_label_dynamic_rows_keep_their_labels(self):
        # robot drives into a standing pedestrian: each kept row carries the
        # label of its own step, not of the step two earlier
        traj = self._straight_traj(40)
        ped = np.zeros((40, 3))
        ped[:, 0] = np.arange(40) * DT
        ped[:, 1] = 2.5
        ctx, labels = label_dynamic(traj, ped, LabelingConfig(0.7, 12))
        want = oracle_labels(np.abs(traj[:, 1] - 2.5), 0.7, 12)[2:]
        assert list(labels) == [l for l in want if l != "discard"]
        assert LABEL_UNSAFE in labels and LABEL_UNLABELED in labels
        np.testing.assert_array_equal(ctx[:, 0], traj[2:len(ctx) + 2, 1])

    def test_label_dynamic_requires_overlap(self):
        traj = self._straight_traj(10)
        ped = np.zeros((10, 3))
        ped[:, 0] = np.arange(10) * DT + 100.0
        with pytest.raises(ValueError):
            label_dynamic(traj, ped, LabelingConfig(0.7, 12))

    def test_label_multirobot_offset_safe(self):
        a = self._straight_traj(30, y=0.0)
        b = self._straight_traj(30, y=3.0)
        ctx, labels = label_multirobot(a, b, LabelingConfig(0.7, 12))
        assert all(l == LABEL_SAFE for l in labels)
        np.testing.assert_array_equal(ctx, np.hstack([a[:, 1:6], b[:, 1:6]]))

    def test_label_multirobot_head_on(self):
        a = self._straight_traj(60)
        b = self._straight_traj(60)
        b[:, 1] = 5.9 - b[:, 1]  # head-on, meets near the middle
        _, labels = label_multirobot(a, b, LabelingConfig(0.7, 12))
        assert any(l == LABEL_UNSAFE for l in labels)


class TestDatasetDrivers:
    def test_no_pairs_gives_empty_arrays(self):
        # every pedestrian track shorter than the trajectory: nothing to label
        traj = np.zeros((50, 8))
        traj[:, 0] = np.arange(50) * DT
        short = np.zeros((10, 3))
        ctx, labels = data.build_dynamic_dataset([traj], [short], LabelingConfig(0.7, 12), seed=0)
        assert ctx.shape == (0, CONTEXT_DIMS["dynamic"]) and labels.shape == (0,)

    def test_parts_concatenate_in_generation_order(self):
        platform = make_platform("freight", 1.0)
        trajs = data.generate_robot_trajectories(platform, 60.0, seed=2)
        trajs = [t[:200] for t in trajs] + [t[200:400] for t in trajs]
        ctx, labels = data.build_multirobot_dataset(trajs, LabelingConfig(0.7, 12), seed=5, pairs=4)
        assert len(ctx) == len(labels) > 0
        # the first part is the first pair, labeled from robot A's first step
        i, _ = np.random.default_rng(5).integers(len(trajs), size=2)
        np.testing.assert_array_equal(ctx[0, 0:5], trajs[i][0, 1:6])


class TestGeneration:
    def test_trajectory_length_and_spacing(self):
        platform = make_platform("freight", 0.5)
        trajs = data.generate_robot_trajectories(platform, 600.0, seed=3)
        assert sum(len(t) for t in trajs) == 6000
        for t in trajs:
            assert np.allclose(np.diff(t[:, 0]), DT)

    def test_commands_from_candidate_set(self):
        platform = make_platform("freight", 0.5)
        trajs = data.generate_robot_trajectories(platform, 60.0, seed=3)
        for t in trajs:
            assert set(np.unique(t[:, 6])) <= set(LINEAR_CANDIDATES[0.5])

    def test_trajectory_seed_determinism(self):
        platform = make_platform("jackal", 1.0)
        a = data.generate_robot_trajectories(platform, 60.0, seed=8)
        b = data.generate_robot_trajectories(platform, 60.0, seed=8)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_duration_too_short_rejected(self):
        with pytest.raises(ValueError):
            data.generate_robot_trajectories(make_platform("freight", 1.0), 30.0, seed=0)

    def test_pedestrian_track_length(self):
        tracks = data.generate_pedestrian_tracks(2, 1800.0, (0.3, 1.2), seed=0)
        assert len(tracks) == 2
        assert all(len(t) == 18000 for t in tracks)

    def test_pedestrian_constant_speed_displacement(self):
        tracks = data.generate_pedestrian_tracks(1, 60.0, (1.0, 1.0), seed=1)
        steps = np.linalg.norm(np.diff(tracks[0][:, 1:3], axis=0), axis=1)
        assert np.all(steps <= 0.1 + 1e-9)
        assert np.median(steps) == pytest.approx(0.1, abs=1e-6)

    def test_speed_range_validation(self):
        with pytest.raises(ValueError):
            data.generate_pedestrian_tracks(1, 60.0, (0.0, 1.0), seed=0)


class TestRoundTrips:
    def test_trajectory_file_round_trip(self, tmp_path):
        platform = make_platform("freight", 1.0)
        trajs = data.generate_robot_trajectories(platform, 60.0, seed=5)
        path = tmp_path / "trajs.txt"
        data.save_trajectories(path, trajs)
        raw = np.atleast_2d(np.loadtxt(path))   # column 0 is the trajectory index
        loaded = [raw[raw[:, 0] == k][:, 1:] for k in np.unique(raw[:, 0])]
        assert len(loaded) == len(trajs)
        for a, b in zip(trajs, loaded):
            assert np.allclose(a, b, atol=1e-7)
