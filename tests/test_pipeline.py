"""Which dynamics refinements a model bundle ships.

A refinement ships only where it beat kinematics on held-out data: the
bundle holds `dynamics_<platform>` exactly when the training report's
`heldout_mse < baseline_mse`.  At run time every robot predicts with its own
platform limits, plus the shipped net of its platform if there is one.
Last, the test bundle's cache key.
"""
import os

import numpy as np
import yaml

from conftest import source_key
from safefleet import nn, pipeline
from safefleet.barrier import BarrierModel
from safefleet.dynamics import DynamicsModel, predict_next_batch, train_dynamics
from safefleet.scenarios import ModelBundle
from safefleet.world import DT, kinematics_step_batch, make_platform

MANIFEST = os.path.join(os.path.dirname(__file__), ".cache", "bundle", "manifest.yaml")
FREIGHT = make_platform("freight", 1.0)
PUSH = np.array([0.3, 0.0, 0.05, 0.0])   # an unmodelled push a net can learn
CONFIG = nn.TrainConfig(lr=1e-2, batch_size=128, epochs=30, seed=0)


def _trajectories(params, residual, n=1500, seed=0):
    """n two-row (T, 8) trajectories: random state and control, then the
    kinematics successor under `residual` plus velocity noise."""
    rng = np.random.default_rng(seed)
    S = np.column_stack([rng.uniform(0, 12, n), rng.uniform(0, 12, n),
                         rng.uniform(-np.pi, np.pi, n), rng.uniform(-0.8, 0.8, n),
                         rng.uniform(-1, 1, n)])
    U = rng.uniform(-0.8, 0.8, (n, 2))
    R = np.zeros((n, 4)) + residual
    R[:, 2:] += rng.normal(0.0, 0.01, (n, 2))
    SN = kinematics_step_batch(S, U, params.m_v, params.m_omega, params.max_speed, R)
    out = np.zeros((n, 2, 8))
    out[:, 0, 1:6], out[:, 0, 6:8] = S, U
    out[:, 1, 0], out[:, 1, 1:6] = DT, SN
    return list(out)


def _learned(report):
    return {p for p, r in report["dynamics"].items() if r["heldout_mse"] < r["baseline_mse"]}


def _shipped_files(manifest_path):
    with open(manifest_path) as fh:
        return {f for f in yaml.safe_load(fh)["models"] if f.startswith("dynamics_")}


def test_committed_bundle_ships_exactly_the_refinements_that_beat_kinematics(
        bundle, training_report):
    learned = _learned(training_report)
    assert set(bundle.dynamics) == learned
    assert _shipped_files(MANIFEST) == {f"dynamics_{p}.mlp" for p in learned}


class TestTrainDynamicsRule:
    def test_no_signal_no_net(self):
        model, mse, baseline = train_dynamics(_trajectories(FREIGHT, 0.0), FREIGHT, CONFIG,
                                              hidden=(16,))
        assert model.net is None and model.params == FREIGHT
        assert mse == baseline

    def test_learnable_push_keeps_the_net(self):
        model, mse, baseline = train_dynamics(_trajectories(FREIGHT, PUSH), FREIGHT, CONFIG,
                                              hidden=(16,))
        assert model.net is not None and model.params == FREIGHT
        assert mse < baseline


def test_build_models_ships_only_winning_refinements(tmp_path, monkeypatch):
    """Freight's data carries a learnable push, the others plain kinematics:
    only freight's net is built, saved, loaded and paired with robots."""
    real = pipeline.train_dynamics

    def train_on_synthetic(trajs, platform, config):
        push = PUSH if platform.name == "freight" else 0.0
        return real(_trajectories(platform, push), platform, CONFIG, hidden=(16,))

    monkeypatch.setattr(pipeline, "train_dynamics", train_on_synthetic)
    cfg = pipeline.PipelineConfig(seed=0, robot_data_seconds=120.0, ped_data_seconds=300.0,
                                  ood_epochs=1, cbf_epochs=1, max_safe=500, max_unsafe=500,
                                  max_unlabeled=200, static_clones=4, multirobot_pairs=80)
    bundle, report = pipeline.build_models(cfg)
    assert set(bundle.dynamics) == _learned(report) == {"freight"}

    manifest = pipeline.save_bundle(bundle, tmp_path, report=report)
    assert _shipped_files(manifest) == {"dynamics_freight.mlp"}
    loaded = pipeline.load_bundle(tmp_path)
    assert set(loaded.dynamics) == {"freight"}

    robot = make_platform("freight#2", 0.5)
    dyn = loaded.dynamics_for(robot)
    assert dyn.params == robot
    for a, b in zip(dyn.net.weights + dyn.net.biases,
                    bundle.dynamics["freight"].net.weights + bundle.dynamics["freight"].net.biases):
        np.testing.assert_array_equal(a, b)
    jackal = make_platform("jackal", 1.0)
    assert loaded.dynamics_for(jackal) == DynamicsModel(jackal)


def test_bundle_with_zero_nets_predicts_kinematics(tmp_path):
    """Older bundles ship an all-zero net per platform and a `platforms`
    manifest section; they still load and predict kinematics bit for bit."""
    net = nn.Mlp([7, 8, 4], out_activation="tanh", seed=0)
    net.weights[-1][:] = 0.0
    net.biases[-1][:] = 0.0
    old = ModelBundle(dynamics={"megarover": DynamicsModel(make_platform("megarover", 1.5), net)},
                      barriers={})
    manifest = pipeline.save_bundle(old, tmp_path)
    with open(manifest) as fh:
        raw = yaml.safe_load(fh)
    raw["platforms"] = {"megarover": {"beta": 1.0, "delay_h": 0.2, "dt": 0.1, "m_omega": 2.4,
                                      "m_v": 0.6, "max_omega": 1.5, "max_speed": 1.5}}
    with open(manifest, "w") as fh:
        yaml.safe_dump(raw, fh)

    p = make_platform("megarover#2", 0.5)
    rng = np.random.default_rng(3)
    S = np.column_stack([rng.uniform(0, 12, (500, 2)), rng.uniform(-np.pi, np.pi, 500),
                         rng.uniform(-0.5, 0.5, 500), rng.uniform(-1.5, 1.5, 500)])
    U = rng.uniform(-1.0, 1.0, (500, 2))
    want = kinematics_step_batch(S, U, p.m_v, p.m_omega, p.max_speed)
    got = predict_next_batch(pipeline.load_bundle(tmp_path).dynamics_for(p), S, U)
    np.testing.assert_array_equal(got, want)


def test_save_bundle_removes_model_files_its_manifest_does_not_list(tmp_path):
    """Saving over an older bundle leaves exactly the new manifest's model
    files; files that are not model files stay."""
    barrier = BarrierModel(net=nn.Mlp([5, 4, 1], seed=1), task="static")
    net = nn.Mlp([7, 8, 4], out_activation="tanh", seed=0)
    pipeline.save_bundle(ModelBundle(dynamics={"freight": DynamicsModel(FREIGHT, net)},
                                     barriers={"static": barrier}), tmp_path)
    assert (tmp_path / "dynamics_freight.mlp").exists()
    (tmp_path / "notes.txt").write_text("not a model file")

    manifest = pipeline.save_bundle(ModelBundle(dynamics={}, barriers={"static": barrier}),
                                    tmp_path)
    with open(manifest) as fh:
        listed = set(yaml.safe_load(fh)["models"])
    assert listed == {"barrier_static.mlp"}
    assert {p.name for p in tmp_path.iterdir()} == listed | {"manifest.yaml", "notes.txt"}
    assert pipeline.load_bundle(tmp_path).dynamics == {}


def test_bundle_cache_key_counts_code_edits_only():
    # the cached test bundle is rebuilt for an edit that can change a weight,
    # not for a docstring, comment or layout edit
    src = ('"""Module."""\nimport math\n\n\nclass A:\n    """Doc."""\n\n'
           '    def f(self, x):\n        """Doc."""\n        return math.cos(x) + 1  # one\n')
    reworded = ('"""Other words."""\nimport math\n\n\nclass A:\n    def f(self, x):\n'
                '        # a comment\n        return math.cos(x)+1\n')
    assert source_key(reworded) == source_key(src)
    assert source_key(src.replace("+ 1", "- 1")) != source_key(src)
