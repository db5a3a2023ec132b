"""End-to-end training pipeline and model bundle persistence.

Runs the whole chain at desk scale: simulated teleop + pedestrian data,
per-platform dynamics refinements, per-task rejection models and barriers.
A refinement ships only where it beats kinematics on held-out data.  The
resulting bundle directory is self-describing (manifest with seeds, sizes
and file hashes) and is everything a scenario run needs; platform limits
come from `world.make_platform`.
"""
from __future__ import annotations

import glob
import hashlib
import os
from dataclasses import dataclass

import numpy as np
import yaml

from . import data, nn
from .barrier import BarrierModel, CbfTrainConfig, train_cbf
from .dynamics import DynamicsModel, train_dynamics
from .ood import RejectionModel, train_ood
from .scenarios import ModelBundle
from .world import candidate_controls, make_platform

DATA_MAX_SPEED = 1.5   # m/s; higher-speed data covers the lower settings
TASK_HIDDEN = {"static": (32, 32), "dynamic": (128, 128), "multirobot": (128, 128)}
TASK_REJECTION_HIDDEN = {"static": (32, 32), "dynamic": (128, 128), "multirobot": (128, 128)}
TASK_REJECTION_C = {"static": 0.25, "dynamic": 0.1, "multirobot": 0.1}


@dataclass
class PipelineConfig:
    seed: int = 0
    robot_data_seconds: float = 600.0
    ped_data_seconds: float = 1800.0
    dynamics_epochs: int = 30
    ood_epochs: int = 40
    cbf_epochs: int = 60
    max_safe: int = 8000               # per-task training-set caps
    max_unsafe: int = 8000
    max_unlabeled: int = 3000
    static_clones: int = 8
    dynamic_pairs: int = 8
    multirobot_pairs: int = 220


def _subsample(contexts, labels, cfg: PipelineConfig, rng):
    """Cap each label group at its size limit; groups come out safe, unsafe,
    unlabeled, each in generation order."""
    caps = {data.LABEL_SAFE: cfg.max_safe, data.LABEL_UNSAFE: cfg.max_unsafe,
            data.LABEL_UNLABELED: cfg.max_unlabeled}
    keep = []
    for label, cap in caps.items():
        group = np.flatnonzero(labels == label)
        if len(group) > cap:
            group = group[np.sort(rng.choice(len(group), size=cap, replace=False))]
        keep.append(group)
    keep = np.concatenate(keep)
    return contexts[keep], labels[keep]


def build_models(cfg: PipelineConfig | None = None, progress=None):
    """Train everything; returns (ModelBundle, report dict)."""
    cfg = cfg or PipelineConfig()
    rng = np.random.default_rng(cfg.seed)
    say = progress or (lambda msg: None)
    report = {"seed": cfg.seed}

    # 1. data collection (simulated teleop + pedestrians)
    say("generating robot trajectories")
    trajectories = {}
    for i, name in enumerate(["freight", "jackal", "megarover"]):
        platform = make_platform(name, DATA_MAX_SPEED)
        trajectories[name] = data.generate_robot_trajectories(
            platform, cfg.robot_data_seconds, seed=cfg.seed + 11 * (i + 1))
    say("generating pedestrian tracks")
    ped_tracks = data.generate_pedestrian_tracks(
        2, cfg.ped_data_seconds, (0.3, 1.2), seed=cfg.seed + 101)

    # 2. per-platform dynamics; only refinements that beat kinematics ship
    models = {}
    dyn_report = {}
    for name, trajs in trajectories.items():
        say(f"training dynamics model for {name}")
        platform = make_platform(name, DATA_MAX_SPEED)
        config = nn.TrainConfig(lr=1e-3, batch_size=256, epochs=cfg.dynamics_epochs,
                                seed=cfg.seed)
        models[name], mse, baseline = train_dynamics(trajs, platform, config)
        dyn_report[name] = {"heldout_mse": mse, "baseline_mse": baseline}
    report["dynamics"] = dyn_report
    dynamics = {name: m for name, m in models.items() if m.net is not None}

    # 3. labeled sets, rejection models, barriers (freight data drives all tasks)
    base_trajs = trajectories["freight"]
    candidates = candidate_controls(DATA_MAX_SPEED)
    barriers, rejections = {}, {}
    task_report = {}
    for task in data.TASKS:
        say(f"building {task} training set")
        lab = data.TASK_LABELING[task]
        if task == "static":
            contexts, labels = data.build_static_dataset(
                base_trajs, lab, seed=cfg.seed + 201, clones_per_traj=cfg.static_clones)
        elif task == "dynamic":
            contexts, labels = data.build_dynamic_dataset(
                base_trajs, ped_tracks, lab, seed=cfg.seed + 202,
                pairs_per_traj=cfg.dynamic_pairs)
        else:
            pool = base_trajs + trajectories["jackal"]
            contexts, labels = data.build_multirobot_dataset(
                pool, lab, seed=cfg.seed + 203, pairs=cfg.multirobot_pairs)
        contexts, labels = _subsample(contexts, labels, cfg, rng)
        labeled = (labels == data.LABEL_SAFE) | (labels == data.LABEL_UNSAFE)
        labeled_feats = data.features_from_context(task, contexts[labeled])
        say(f"training {task} rejection model")
        rej = train_ood(labeled_feats, c=TASK_REJECTION_C[task],
                        hidden=TASK_REJECTION_HIDDEN[task],
                        config=nn.TrainConfig(lr=2e-3, batch_size=128,
                                              epochs=cfg.ood_epochs, seed=cfg.seed + 301))
        rejections[task] = rej
        say(f"training {task} barrier")
        cbf_cfg = CbfTrainConfig(candidates=candidates, epochs=cfg.cbf_epochs,
                                 seed=cfg.seed + 401, hidden=TASK_HIDDEN[task])
        barrier, brep = train_cbf(task, contexts, labels, models["freight"], rej, cbf_cfg)
        barriers[task] = barrier
        task_report[task] = {
            "n_samples": len(labels),
            "n_safe": int(np.sum(labels == data.LABEL_SAFE)),
            "n_unsafe": int(np.sum(labels == data.LABEL_UNSAFE)),
            "n_unlabeled": int(np.sum(labels == data.LABEL_UNLABELED)),
            "safe_sign_accuracy": brep["safe_sign_accuracy"],
            "unsafe_sign_accuracy": brep["unsafe_sign_accuracy"],
            "final_loss": brep["loss_curve"][-1],
        }
    report["tasks"] = task_report

    bundle = ModelBundle(dynamics=dynamics, barriers=barriers, rejections=rejections)
    return bundle, report


# ---------------------------------------------------------------------------
# bundle persistence

def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def save_bundle(bundle: ModelBundle, out_dir, report=None):
    """Write the bundle's model files and manifest into `out_dir`; model files
    of an earlier bundle there that the new manifest does not list are removed."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = {"format": "safefleet-bundle-v1", "models": {}, "rejection_c": {}}
    for name, dyn in bundle.dynamics.items():
        fname = f"dynamics_{name}.mlp"
        nn.save_model(dyn.net, os.path.join(out_dir, fname), role=f"dynamics:{name}")
        manifest["models"][fname] = None
    for task, barrier in bundle.barriers.items():
        fname = f"barrier_{task}.mlp"
        nn.save_model(barrier.net, os.path.join(out_dir, fname), role=f"barrier:{task}")
        manifest["models"][fname] = None
    for task, rej in bundle.rejections.items():
        fname = f"rejection_{task}.mlp"
        nn.save_model(rej.net, os.path.join(out_dir, fname), role=f"rejection:{task}")
        manifest["models"][fname] = None
        manifest["rejection_c"][task] = rej.c
    for fname in manifest["models"]:
        manifest["models"][fname] = _sha256(os.path.join(out_dir, fname))
    for kind in ("dynamics", "barrier", "rejection"):
        for path in glob.glob(os.path.join(glob.escape(str(out_dir)), f"{kind}_*.mlp")):
            if os.path.basename(path) not in manifest["models"]:
                os.remove(path)
    if report is not None:
        manifest["training_report"] = report
    with open(os.path.join(out_dir, "manifest.yaml"), "w") as fh:
        yaml.safe_dump(manifest, fh, sort_keys=True)
    return os.path.join(out_dir, "manifest.yaml")


def load_bundle(bundle_dir) -> ModelBundle:
    with open(os.path.join(bundle_dir, "manifest.yaml")) as fh:
        manifest = yaml.safe_load(fh)
    if manifest.get("format") != "safefleet-bundle-v1":
        raise ValueError(f"{bundle_dir}: not a model bundle")
    dynamics, barriers, rejections = {}, {}, {}
    for fname, expected in manifest["models"].items():
        path = os.path.join(bundle_dir, fname)
        if _sha256(path) != expected:
            raise ValueError(f"{fname}: hash mismatch, bundle is corrupt")
        net, role = nn.load_model(path)
        kind, _, tag = role.partition(":")
        if kind == "dynamics":
            # trained at the data speed; `ModelBundle.dynamics_for` pairs the
            # net with each robot's own platform limits
            dynamics[tag] = DynamicsModel(make_platform(tag, DATA_MAX_SPEED), net)
        elif kind == "barrier":
            barriers[tag] = BarrierModel(net=net, task=tag)
        elif kind == "rejection":
            rejections[tag] = RejectionModel(net=net, c=manifest["rejection_c"][tag])
        else:
            raise ValueError(f"unknown model role {role!r}")
    return ModelBundle(dynamics=dynamics, barriers=barriers, rejections=rejections)
