"""End-to-end acceptance gate for the trained navigation stack.

Runs the seeded unit-task grid, the head-to-head and pick-and-place
scenarios, and the model-quality and numerical-correctness checks against
the cached model bundle.  These are desk-scale simulation analogues of the
physical experiments; tolerances are pinned next to each assertion.

Known red: the delay-compensation ablation (test_criterion_9_*).  Over its
10 reps the mean minimum distance is 1.044 m with compensation on, 1.079 m
with it off and 0.954 m without delay.  Off reaches the goal 1-3 ticks
sooner in 9 of 10 reps, so it does not hesitate, and on differs from the
zero-delay run by more than 0.15 m in 4 of 10 reps.  The cause is open; see
README.md ("Known limitations").
"""
import dataclasses
import math

import numpy as np
import pytest

from conftest import gradient_check
from safefleet import nn
from safefleet.barrier import GAMMA, _gated_argmax, successor_features
from safefleet.data import (LABEL_SAFE, LabelingConfig, features_from_context,
                            split_labels)
from safefleet.dynamics import predict_next_batch
from safefleet.ood import is_in_distribution_batch
from safefleet.scenarios import (ScenarioConfig, compute_metrics, head_to_head_config,
                                 pick_and_place_config, run_scenario, run_single,
                                 serialize_log, summarize, unit_task_config)
from safefleet.world import (DT, MAX_OMEGA, candidate_controls, kinematics_step_batch,
                             make_platform, wrap_angle)

SPEEDS = (0.5, 1.0, 1.5)
SAFETY_FLOOR = 0.65             # d = 0.7 minus one-tick travel allowance
COLLISION_FLOOR = 0.5


# ---------------------------------------------------------------------------
# shared expensive rollouts

@pytest.fixture(scope="module")
def grid(bundle):
    """Full unit-task grid: 10 seeded reps per cell."""
    results = {}
    for kind, n_peds in (("static", 0), ("dynamic", 1), ("dynamic", 2)):
        for n_robots in (1, 2, 3):
            for speed in SPEEDS:
                cfg = unit_task_config(kind, n_robots, speed,
                                       n_pedestrians=n_peds, seed=0,
                                       repetitions=10)
                results[(kind, n_peds, n_robots, speed)] = run_scenario(cfg, bundle)
    return results


# ---------------------------------------------------------------------------
# 1. safety floor

def test_criterion_1_safety_floor(grid):
    violations = []
    for key, result in grid.items():
        for rep in result.reps:
            for rid, m in rep.metrics.items():
                if m.min_distance < SAFETY_FLOOR:
                    violations.append((key, rep.seed, rid, "min", m.min_distance))
                if m.collision_count != 0:
                    violations.append((key, rep.seed, rid, "ticks<0.5",
                                       m.collision_count))
    assert violations == [], f"safety floor violations: {violations}"


# ---------------------------------------------------------------------------
# 2. efficiency

@pytest.mark.parametrize("speed", [0.5, 1.0])
def test_criterion_2_static_mean_velocity(grid, speed):
    s = summarize(grid[("static", 0, 1, speed)])
    assert s["mean_velocity"] >= 0.9 * speed, \
        f"mean velocity {s['mean_velocity']:.3f} < 0.9 x {speed}"


# ---------------------------------------------------------------------------
# 3. conservatism trend

@pytest.mark.parametrize("n_peds", [1, 2])
def test_criterion_3_conservatism_with_speed(grid, n_peds):
    slow = summarize(grid[("dynamic", n_peds, 1, 0.5)])["distance"]
    fast = summarize(grid[("dynamic", n_peds, 1, 1.5)])["distance"]
    assert fast >= slow, \
        f"{n_peds} peds: min distance at 1.5 ({fast:.3f}) < at 0.5 ({slow:.3f})"


# ---------------------------------------------------------------------------
# 4. head-to-head

def test_criterion_4_head_to_head(bundle):
    result = run_scenario(head_to_head_config(max_speed=1.0, seed=0,
                                              repetitions=10), bundle)
    for rep in result.reps:
        assert rep.success, f"seed {rep.seed}: a robot missed its goal"
        for rid, m in rep.metrics.items():
            assert m.min_distance >= SAFETY_FLOOR, \
                f"seed {rep.seed} {rid}: inter-robot distance {m.min_distance:.3f}"


# ---------------------------------------------------------------------------
# 5. pick-and-place detour bound

def test_criterion_5_pick_and_place(bundle):
    clear = run_scenario(pick_and_place_config(n_pedestrians=0, seed=0,
                                               repetitions=5), bundle)
    crowded = run_scenario(pick_and_place_config(n_pedestrians=2, seed=0,
                                                 repetitions=5), bundle)
    for result in (clear, crowded):
        for rep in result.reps:
            assert rep.success, f"seed {rep.seed}: tasks not all completed"
            for rid, m in rep.metrics.items():
                assert m.min_distance >= SAFETY_FLOOR, \
                    f"seed {rep.seed} {rid}: min distance {m.min_distance:.3f}"
    path0 = summarize(clear)["path_length"]
    path2 = summarize(crowded)["path_length"]
    assert path2 <= 1.25 * path0, \
        f"detour ratio {path2 / path0:.3f} exceeds 1.25"


# ---------------------------------------------------------------------------
# 6. barrier quality

def test_criterion_6_sign_accuracy(training_report):
    for task, rep in training_report["tasks"].items():
        assert rep["safe_sign_accuracy"] >= 0.95, \
            f"{task}: safe accuracy {rep['safe_sign_accuracy']:.3f}"
        assert rep["unsafe_sign_accuracy"] >= 0.95, \
            f"{task}: unsafe accuracy {rep['unsafe_sign_accuracy']:.3f}"


@pytest.mark.parametrize("task", ["static", "dynamic", "multirobot"])
def test_criterion_6_forward_invariance_probe(bundle, task_samples, task):
    """B(x') >= (1 - gamma*dt) B(x) - 1e-3 under the gated best control on
    >= 99% of in-distribution safe contexts with B(x) >= 0.05."""
    contexts, labels = task_samples[task]
    contexts = contexts[labels == LABEL_SAFE]
    rng = np.random.default_rng(0)
    idx = rng.choice(len(contexts), size=min(800, len(contexts)), replace=False)
    contexts = contexts[idx]

    barrier = bundle.barriers[task]
    dyn = bundle.dynamics_for(make_platform("freight", 1.5))   # as in training
    rej = bundle.rejections[task]

    b_now = barrier.value(features_from_context(task, contexts))
    keep = b_now >= 0.05    # probe clearly inside the safe set, not on its edge
    contexts, b_now = contexts[keep], b_now[keep]
    assert len(contexts) >= 100, "probe set unexpectedly small"

    candidates = candidate_controls(1.5)
    succ = successor_features(task, contexts, candidates, dyn)
    n, m, f = succ.shape
    flat = succ.reshape(n * m, f)
    b_succ = barrier.value(flat).reshape(n, m)
    gate = is_in_distribution_batch(rej, flat).reshape(n, m)
    j = _gated_argmax(b_succ, gate)
    b_next = b_succ[np.arange(n), j]

    ok = b_next >= (1.0 - GAMMA * DT) * b_now - 1e-3
    frac = float(np.mean(ok))
    assert frac >= 0.99, f"{task}: invariance holds on only {frac:.4f}"


# ---------------------------------------------------------------------------
# 7. dynamics model quality

def test_criterion_7_heldout_mse_beats_baseline(training_report):
    for name, rep in training_report["dynamics"].items():
        assert rep["heldout_mse"] <= rep["baseline_mse"] + 1e-12, \
            f"{name}: {rep['heldout_mse']:.3e} > baseline {rep['baseline_mse']:.3e}"


def test_criterion_7_refinement_boundedness(bundle):
    """|runtime next state - kinematics next state| <= dt per component on
    1e4 random inputs, for the model every platform runs at every speed."""
    rng = np.random.default_rng(7)
    n = 10_000
    for name in ("freight", "jackal", "megarover"):
        for speed in SPEEDS:
            p = make_platform(name, speed)
            dyn = bundle.dynamics_for(p)
            states = np.column_stack([
                rng.uniform(-10, 10, n), rng.uniform(-10, 10, n),
                rng.uniform(-math.pi, math.pi, n),
                rng.uniform(-p.max_speed, p.max_speed, n),
                rng.uniform(-MAX_OMEGA, MAX_OMEGA, n)])
            controls = np.column_stack([
                rng.uniform(-p.max_speed, p.max_speed, n),
                rng.uniform(-MAX_OMEGA, MAX_OMEGA, n)])
            pred = predict_next_batch(dyn, states, controls)
            base = kinematics_step_batch(states, controls, p.m_v, p.m_omega, p.max_speed)
            diff = pred - base
            diff[:, 2] = wrap_angle(diff[:, 2])
            assert np.all(np.abs(diff) <= DT + 1e-9), \
                f"{name} at {speed} m/s: refinement exceeds dt ({np.abs(diff).max():.3e})"


# ---------------------------------------------------------------------------
# 8. numerical correctness

GRAD_CHECK_ARCHS = [
    ([7, 16, 16, 4], "tanh"),       # dynamics-style head
    ([5, 16, 16, 1], "identity"),   # barrier-style head
    ([9, 16, 16, 2], "sigmoid"),    # rejection-style head
]


@pytest.mark.parametrize("sizes,act", GRAD_CHECK_ARCHS,
                         ids=[a for _, a in GRAD_CHECK_ARCHS])
def test_criterion_8_gradient_check(sizes, act):
    rng = np.random.default_rng(123)
    for k in range(20):
        model = nn.Mlp(sizes, out_activation=act, seed=1000 + k)
        x = rng.normal(size=(4, sizes[0]))
        target = rng.normal(size=(4, sizes[-1]))
        err = gradient_check(model, x, lambda y: nn.mse_loss(y, target))
        assert err < 1e-4, f"fixture {k}: max relative error {err:.2e}"


def _oracle_labels(separations, d, tau):
    """Direct application of the labeling rule, written independently."""
    n = len(separations)
    unsafe = [s < d for s in separations]
    if not any(unsafe):
        return ["safe"] * n
    first = unsafe.index(True)
    out = []
    for k in range(n):
        if unsafe[k]:
            out.append("unsafe")
        elif k < first:
            out.append("safe" if k < first - tau else "unlabeled")
        else:
            out.append("discard")
    return out


def test_criterion_8_labeling_matches_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(5, 120))
        seps = rng.uniform(0.0, 2.5, n)
        d = float(rng.uniform(0.3, 1.2))
        tau = int(rng.integers(1, 15))
        got = split_labels(seps, LabelingConfig(d=d, tau=tau))
        assert list(got) == _oracle_labels(list(seps), d, tau)


def test_criterion_8_candidate_set_sizes():
    assert {len(candidate_controls(s)) for s in SPEEDS} == {15, 28, 35}
    assert [len(candidate_controls(s)) for s in SPEEDS] == [15, 28, 35]


# ---------------------------------------------------------------------------
# 9. delay compensation ablation (known red; see module docstring)

def test_criterion_9_delay_compensation_ablation(bundle):
    base = dataclasses.asdict(unit_task_config("dynamic", 1, 1.0, n_pedestrians=2, seed=0,
                                               repetitions=10))
    on = run_scenario(ScenarioConfig(**{**base, "delay_override": 0.2,
                                        "compensate_delay": True}), bundle)
    off = run_scenario(ScenarioConfig(**{**base, "delay_override": 0.2,
                                         "compensate_delay": False}), bundle)
    # compensation-on must itself satisfy the safety floor
    for rep in on.reps:
        for rid, m in rep.metrics.items():
            assert m.min_distance >= SAFETY_FLOOR and m.collision_count == 0
    d_on = summarize(on)["distance"]
    d_off = summarize(off)["distance"]
    assert d_on >= d_off, (
        f"compensation-on min distance {d_on:.3f} < compensation-off {d_off:.3f}; "
        "known red: with the same seeds, off reaches the goal 1-3 ticks sooner "
        "in 9 of 10 reps and ties in the tenth, so it does not hesitate; why its "
        "later reaction widens the clearance is open (see README 'Known limitations')")


# ---------------------------------------------------------------------------
# 10. determinism

def test_criterion_10_byte_identical_rerun(bundle):
    cfg = unit_task_config("dynamic", 1, 1.0, n_pedestrians=1, seed=5,
                           repetitions=1)
    rep_a = run_single(cfg, bundle, seed=5)
    rep_b = run_single(cfg, bundle, seed=5)
    assert serialize_log(rep_a.log) == serialize_log(rep_b.log)

    res_a = run_scenario(cfg, bundle)
    res_b = run_scenario(cfg, bundle)
    assert summarize(res_a) == summarize(res_b)
    assert [serialize_log(r.log) for r in res_a.reps] == \
        [serialize_log(r.log) for r in res_b.reps]

    # robot tracks carry a per-tick coast of the whole fleet: a rerun of a
    # two-robot rep must not see anything left over from the first run
    h2h = head_to_head_config(seed=0, repetitions=1)
    rep_a = run_single(h2h, bundle, seed=h2h.seed)
    rep_b = run_single(h2h, bundle, seed=h2h.seed)
    assert serialize_log(rep_a.log) == serialize_log(rep_b.log)
