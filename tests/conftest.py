"""Shared fixtures: the trained model bundle (disk-cached) and labeled sets;
and `gradient_check`, the finite-difference reference for `nn` backprop.

The full training pipeline takes a minute or two, so the bundle is built once
with the default seed and persisted under tests/.cache/bundle; later sessions
load it back through the same manifest-verified path users go through.  A
`fingerprint` file next to the manifest keys the cache on the pipeline config
and the sources of the modules training runs: when either changes, the bundle
is rebuilt instead of testing new training code against old models.
"""
import hashlib
import os
import sys

import numpy as np
import pytest
import yaml

from safefleet import data, pipeline
from safefleet.world import make_platform

CACHE_DIR = os.path.join(os.path.dirname(__file__), ".cache")
BUNDLE_DIR = os.path.join(CACHE_DIR, "bundle")
PIPELINE_SEED = 0
TRAINING_MODULES = ("world", "nn", "data", "dynamics", "ood", "barrier", "pipeline")


def bundle_fingerprint():
    """sha256 of the seed-0 PipelineConfig repr and the training modules' source bytes."""
    h = hashlib.sha256(repr(pipeline.PipelineConfig(seed=PIPELINE_SEED)).encode())
    for name in TRAINING_MODULES:
        with open(sys.modules[f"safefleet.{name}"].__file__, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _read_text(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except FileNotFoundError:
        return None


@pytest.fixture(scope="session")
def bundle_and_report():
    manifest = os.path.join(BUNDLE_DIR, "manifest.yaml")
    stamp = os.path.join(BUNDLE_DIR, "fingerprint")
    fingerprint = bundle_fingerprint()
    if not os.path.exists(manifest) or _read_text(stamp) != fingerprint:
        cfg = pipeline.PipelineConfig(seed=PIPELINE_SEED)
        bundle, report = pipeline.build_models(cfg)
        pipeline.save_bundle(bundle, BUNDLE_DIR, report=report)
        with open(stamp, "w") as fh:
            fh.write(fingerprint + "\n")
    bundle = pipeline.load_bundle(BUNDLE_DIR)
    with open(manifest) as fh:
        report = yaml.safe_load(fh)["training_report"]
    return bundle, report


@pytest.fixture(scope="session")
def bundle(bundle_and_report):
    return bundle_and_report[0]


@pytest.fixture(scope="session")
def training_report(bundle_and_report):
    return bundle_and_report[1]


@pytest.fixture(scope="session")
def task_samples():
    """The pipeline's labeled training sets, regenerated with its seeds:
    task -> (contexts, labels)."""
    trajs = {}
    for i, name in enumerate(["freight", "jackal"]):
        platform = make_platform(name, 1.5)
        trajs[name] = data.generate_robot_trajectories(
            platform, 600.0, seed=PIPELINE_SEED + 11 * (i + 1))
    peds = data.generate_pedestrian_tracks(2, 1800.0, (0.3, 1.2),
                                           seed=PIPELINE_SEED + 101)
    out = {
        "static": data.build_static_dataset(
            trajs["freight"], data.TASK_LABELING["static"],
            seed=PIPELINE_SEED + 201, clones_per_traj=8),
        "dynamic": data.build_dynamic_dataset(
            trajs["freight"], peds, data.TASK_LABELING["dynamic"],
            seed=PIPELINE_SEED + 202, pairs_per_traj=8),
        "multirobot": data.build_multirobot_dataset(
            trajs["freight"] + trajs["jackal"], data.TASK_LABELING["multirobot"],
            seed=PIPELINE_SEED + 203, pairs=220),
    }
    return out


def gradient_check(model, x, loss_fn):
    """Max relative error between `model.backward`'s parameter gradients and
    central differences (step 1e-5) of `loss_fn(model.forward(x))[0]`.

    loss_fn(y) returns (loss, dLoss/dy).  Near-zero gradient pairs fall back
    to absolute error.
    """
    step = 1e-5
    y, cache = model.forward_cached(x)
    dWs, dbs = model.backward(cache, loss_fn(y)[1])
    worst = 0.0
    for p, g in zip(model.parameters(), dWs + dbs):
        flat = p.ravel()
        gflat = np.asarray(g).ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            lp = loss_fn(model.forward(x))[0]
            flat[i] = orig - step
            lm = loss_fn(model.forward(x))[0]
            flat[i] = orig
            numeric = (lp - lm) / (2 * step)
            denom = max(abs(gflat[i]), abs(numeric))
            err = abs(gflat[i] - numeric) / denom if denom > 1e-8 else abs(gflat[i] - numeric)
            worst = max(worst, err)
    return worst
