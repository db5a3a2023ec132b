import numpy as np
import pytest
from numpy.testing import assert_array_equal

from safefleet import nn
from safefleet.barrier import (LR, MARGIN, BarrierModel, CbfTrainConfig, advance_contexts,
                               annotate_unlabeled, successor_features, train_cbf,
                               _batch_step, _cbf_objective, _distinct_forward, _first_equal,
                               _gate_of, _gated_argmax)
from safefleet.data import LABEL_SAFE, LABEL_UNLABELED, features_from_context
from safefleet.dynamics import DynamicsModel, predict_next_batch
from safefleet.ood import RejectionModel, is_in_distribution_batch
from safefleet.pipeline import DATA_MAX_SPEED
from safefleet.world import PlatformParams, candidate_controls, make_platform

FREIGHT_DYN = DynamicsModel(make_platform("freight", 1.0))
CANDS = candidate_controls(1.0)


def constant_barrier(task, value, in_dim):
    """Net that outputs `value` for every input."""
    net = nn.Mlp([in_dim, 4, 1], out_activation="identity", seed=0)
    net.weights[-1][:] = 0.0
    net.biases[-1][:] = 0.0
    net.biases[-1][0] = value
    return BarrierModel(net=net, task=task)


def accept_all_rejection(in_dim):
    """Two-score net pinned far above both thresholds."""
    net = nn.Mlp([in_dim, 4, 2], out_activation="sigmoid", seed=0)
    net.weights[-1][:] = 0.0
    net.biases[-1][:] = 0.0
    net.biases[-1][:] = 10.0  # sigmoid(10) ~ 1
    return RejectionModel(net=net, c=0.25)


def reject_all_rejection(in_dim):
    net = nn.Mlp([in_dim, 4, 2], out_activation="sigmoid", seed=0)
    net.weights[-1][:] = 0.0
    net.biases[-1][:] = 0.0
    net.biases[-1][:] = -10.0
    return RejectionModel(net=net, c=0.25)


def full_values(net, succ):
    """Reference: (N, M) barrier values of all N*M successor rows in one forward."""
    n, m, fdim = succ.shape
    return net.forward(succ.reshape(n * m, fdim))[:, 0].reshape(n, m)


def full_gate(rej, succ):
    """Reference: (N, M) OOD gates of all N*M successor rows in one forward."""
    n, m, fdim = succ.shape
    return is_in_distribution_batch(rej, succ.reshape(n * m, fdim)).reshape(n, m)


def cbf_loss(barrier, safe_feats, safe_ctx, unsafe_feats, dyn, rej, candidates, margin):
    """Reference: the full-batch training loss (no gradients), each safe
    sample's successor chosen by the gated argmax over all its candidates."""
    b_s = barrier.value(np.atleast_2d(safe_feats))
    b_u = barrier.value(np.atleast_2d(unsafe_feats))
    succ = successor_features(barrier.task, safe_ctx, candidates, dyn)
    b_succ = full_values(barrier.net, succ)
    b_next = b_succ[np.arange(len(succ)), _gated_argmax(b_succ, full_gate(rej, succ))]
    return _cbf_objective(b_s, b_u, b_next, margin)[0]


def distance_barrier():
    """Static-task barrier B = |relative obstacle position|_1 proxy: here a
    linear form w . features, handy for exact-value assertions."""
    net = nn.Mlp([5, 1], out_activation="identity", seed=0)
    net.weights[0][:] = np.array([[1.0, 1.0, 0.0, 0.0, 0.0]])
    net.biases[0][:] = 0.0
    return BarrierModel(net=net, task="static")


class TestAdvanceContexts:
    def test_static_obstacle_fixed_and_robot_advances(self):
        ctx = np.array([[0.0, 0.0, 0.0, 1.0, 0.0, 3.0, 4.0]])
        u = np.array([[1.0, 0.0]])
        out = advance_contexts("static", ctx, u, FREIGHT_DYN)
        assert out.shape == (1, 1, 7)
        assert np.allclose(out[0, 0, 5:7], [3.0, 4.0])
        want = predict_next_batch(FREIGHT_DYN, ctx[:, 0:5], u)[0]
        assert np.allclose(out[0, 0, 0:5], want)

    def test_dynamic_history_shifts_with_constant_velocity(self):
        # pedestrian history (1,0), (1.1,0), (1.2,0): velocity 1 m/s in +x
        ctx = np.array([[0, 0, 0, 0, 0, 1.0, 0.0, 1.1, 0.0, 1.2, 0.0]])
        out = advance_contexts("dynamic", ctx, np.array([[0.0, 0.0]]), FREIGHT_DYN)
        assert np.allclose(out[0, 0, 5:11], [1.1, 0.0, 1.2, 0.0, 1.3, 0.0])

    def test_multirobot_other_coasts(self):
        ctx = np.array([[0, 0, 0, 0, 0, 2.0, 0.0, 0.0, 1.0, 0.0]])
        out = advance_contexts("multirobot", ctx, np.array([[0.0, 0.0]]), FREIGHT_DYN)
        # other robot at (2,0) heading 0 with v=1: advances 0.1 in x
        assert np.allclose(out[0, 0, 5:10], [2.1, 0.0, 0.0, 1.0, 0.0])

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError):
            advance_contexts("aerial", np.zeros((1, 7)), np.zeros((1, 2)), FREIGHT_DYN)


class TestLieDerivative:
    """The forward-invariance term of the training objective `_cbf_objective`,
    relu(-(b_next - b_s)/DT - GAMMA*b_s): minus the discrete Lie derivative
    of B along the chosen successor, minus the class-K term."""

    @staticmethod
    def invariance_term(b_s, b_next):
        # b_s >= 0 and b_u = -1 clear both sign hinges at margin 0, so the
        # objective is the invariance term alone
        return _cbf_objective(np.array([b_s]), np.array([-1.0]), np.array([b_next]), 0.0)[0]

    @staticmethod
    def values(barrier, ctx, control):
        """B at a raw context and at its successor under one control."""
        b_s = barrier.value(features_from_context(barrier.task, ctx[None, :]))[0]
        succ = successor_features(barrier.task, ctx[None, :], np.array([control]), FREIGHT_DYN)
        return b_s, barrier.value(succ[0])[0]

    def test_constant_barrier_gives_zero(self):
        ctx = np.array([4.0, 4.0, 0.0, 1.0, 0.0, 6.0, 4.0])
        b_s, b_next = self.values(constant_barrier("static", 0.5, 5), ctx, (1.0, 0.0))
        assert b_next == b_s == pytest.approx(0.5)
        assert self.invariance_term(b_s, b_next) == 0.0    # feas = -GAMMA*0.5

    def test_linear_barrier_arithmetic(self):
        # B = (obs_x - x) + (obs_y - y); driving +x at 1 m/s takes B from 3.0
        # to 2.9, so feas = 1 - 3 = -2 and the term is 0; a drop to 2.0
        # would give feas = 10 - 3 = 7
        ctx = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 3.0, 0.0])
        b_s, b_next = self.values(distance_barrier(), ctx, (1.0, 0.0))
        assert (b_s, b_next) == (pytest.approx(3.0), pytest.approx(2.9))
        assert self.invariance_term(b_s, b_next) == pytest.approx(0.0, abs=1e-12)
        assert self.invariance_term(3.0, 2.0) == pytest.approx(7.0)

    def test_forward_difference_definition(self):
        for b_s, b_next, want in ((1.0, 0.5, 4.0), (0.5, 0.5, 0.0), (0.2, 0.1, 0.8),
                                  (0.0, -0.3, 3.0)):
            assert self.invariance_term(b_s, b_next) == pytest.approx(want)

    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(6)
        values = [rng.uniform(-0.5, 0.5, 8), rng.uniform(-0.5, 0.5, 5),
                  rng.uniform(-0.5, 0.5, 8)]          # b_s, b_u, b_next
        _, *grads = _cbf_objective(*values, MARGIN)
        h = 1e-6
        for k, grad in enumerate(grads):
            assert np.count_nonzero(grad) > 0        # some hinge of each input is active
            for i in range(len(values[k])):
                shifted = []
                for step in (h, -h):
                    v = [a.copy() for a in values]
                    v[k][i] += step
                    shifted.append(_cbf_objective(*v, MARGIN)[0])
                assert grad[i] == pytest.approx((shifted[0] - shifted[1]) / (2 * h), abs=1e-6)


class TestGatedArgmax:
    def test_ties_resolve_to_smallest_index(self):
        b = np.array([[1.0, 1.0, 0.5]])
        gate = np.ones((1, 3), bool)
        assert _gated_argmax(b, gate)[0] == 0

    def test_gate_restriction(self):
        b = np.array([[3.0, 2.0, 1.0]])
        gate = np.array([[False, True, True]])
        assert _gated_argmax(b, gate)[0] == 1

    def test_empty_gate_falls_back_unrestricted(self):
        b = np.array([[1.0, 5.0, 3.0]])
        gate = np.zeros((1, 3), bool)
        assert _gated_argmax(b, gate)[0] == 1


def brute_first_equal(succ):
    """Reference map: for each (i, j) the smallest k with bit-equal rows."""
    bits = np.ascontiguousarray(succ).view(np.uint64)
    n, m, _ = succ.shape
    return np.array([[next(k for k in range(m) if (bits[i, k] == bits[i, j]).all())
                      for j in range(m)] for i in range(n)], dtype=np.intp).reshape(n, m)


class TestFirstEqual:
    def test_maps_to_smallest_equal_index(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n, m, f = rng.integers(0, 5), rng.integers(1, 9), rng.integers(1, 4)
            succ = rng.choice([0.0, 1.0, -2.5], (n, m, f))
            assert_array_equal(_first_equal(succ), brute_first_equal(succ))

    def test_real_successors_match_brute_force(self):
        rng = np.random.default_rng(5)
        ctxs = np.column_stack([rng.uniform(0, 4, (40, 2)), rng.uniform(-3, 3, 40),
                                rng.choice([0.0, 0.3, 0.75, 1.0], 40),
                                rng.choice([0.0, -1.2, 0.5], 40), rng.uniform(0, 4, (40, 2))])
        succ = successor_features("static", ctxs, CANDS, FREIGHT_DYN)
        first = _first_equal(succ)
        assert_array_equal(first, brute_first_equal(succ))
        assert (first != np.arange(len(CANDS))).any()    # the clamps do collapse candidates

    def test_row_equal_to_no_earlier_row_maps_to_itself(self):
        succ = np.array([[[1.0, 2.0], [3.0, 4.0], [1.0, 2.0], [5.0, 6.0]],
                         [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]])
        assert_array_equal(_first_equal(succ), [[0, 1, 0, 3], [0, 1, 2, 3]])

    def test_signed_zeros_are_not_merged(self):
        # equal means bit for bit, which is what a forward shares
        succ = np.array([[[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]]])
        assert_array_equal(_first_equal(succ), [[0, 1, 0]])

    def test_gathered_ties_resolve_to_smallest_index(self):
        # candidates 1 and 3 reach the same best successor; the gathered
        # values tie exactly and the gated argmax keeps candidate 1
        succ = np.array([[[0.1], [0.9], [0.5], [0.9]]])
        first = _first_equal(succ)
        b = _distinct_forward(lambda rows: rows[:, 0] * 2.0, succ, first)
        assert_array_equal(b, [[0.2, 1.8, 1.0, 1.8]])
        assert _gated_argmax(b, np.ones((1, 4), bool))[0] == 1
        assert _gated_argmax(b, np.array([[True, False, True, True]]))[0] == 3


@pytest.mark.parametrize("task", ["static", "dynamic", "multirobot"])
def test_distinct_rows_equal_full_rows_on_bundle(bundle, task_samples, task):
    """The first-occurrence forwards give training's gates, annotation masks and
    gated-argmax choices exactly as one forward over all N*M rows does, on the
    committed nets and real training contexts."""
    contexts, labels = task_samples[task]
    rng = np.random.default_rng(1)
    picks = [rng.choice(idx, size=min(300, len(idx)), replace=False)
             for idx in (np.flatnonzero(labels == lab) for lab in (LABEL_SAFE, LABEL_UNLABELED))]
    contexts = contexts[np.concatenate(picks)]
    # one sample whose candidates all collapse (v below every linear candidate
    # and omega above every angular one by more than freight's clamps) ...
    collapsed = contexts[:1].copy()
    collapsed[0, 3:5] = (-0.3, 1.5)
    candidates = candidate_controls(DATA_MAX_SPEED)
    dyn = bundle.dynamics_for(make_platform("freight", DATA_MAX_SPEED))   # as in training
    # ... and one whose candidates all stay distinct, under limits that never clamp
    unclamped = DynamicsModel(PlatformParams("unclamped", m_v=1e3, m_omega=1e3, delay_h=0.1,
                                             max_speed=DATA_MAX_SPEED))
    succ = np.concatenate([successor_features(task, np.vstack([contexts, collapsed]),
                                              candidates, dyn),
                           successor_features(task, contexts[:1], candidates, unclamped)])
    first = _first_equal(succ)
    assert (first[-2] == 0).all()
    assert_array_equal(first[-1], np.arange(len(candidates)))
    assert (first != np.arange(len(candidates))).mean() > 0.5

    barrier, rej = bundle.barriers[task], bundle.rejections[task]
    b_full, gate_full = full_values(barrier.net, succ), full_gate(rej, succ)
    b = _distinct_forward(lambda rows: barrier.net.forward(rows)[:, 0], succ, first)
    gate = _gate_of(rej, succ, first)
    # the values agree to the last bits only (5.6e-17 apart at most when
    # measured): in OpenBLAS's gemm the last (rows mod 4) rows of each
    # thread's share of a call take another kernel path; only the decisions
    # below leave training's three forwards
    np.testing.assert_allclose(b, b_full, rtol=0.0, atol=64 * np.finfo(float).eps)
    assert_array_equal(gate, gate_full)
    promoted, demoted = annotate_unlabeled(succ, first, gate, barrier)
    want = ((b_full >= 0.0) & gate_full).any(axis=1)
    assert_array_equal(promoted, want)
    assert_array_equal(demoted, ~want)
    assert 0 < want.sum() < len(want)
    assert_array_equal(_gated_argmax(b, gate), _gated_argmax(b_full, gate_full))


class TestAnnotateUnlabeled:
    CTXS = np.array([[4.0, 4.0, 0.0, 0.5, 0.0, 6.0, 4.0],
                     [2.0, 2.0, 1.0, 0.2, 0.1, 2.5, 2.0]])
    SUCC = successor_features("static", CTXS, CANDS, FREIGHT_DYN)

    FIRST = _first_equal(SUCC)

    def annotate(self, b, rej):
        return annotate_unlabeled(self.SUCC, self.FIRST, _gate_of(rej, self.SUCC, self.FIRST), b)

    def test_positive_barrier_promotes_all(self):
        b = constant_barrier("static", 1.0, 5)
        promoted, demoted = self.annotate(b, accept_all_rejection(5))
        assert promoted.all() and not demoted.any()

    def test_negative_barrier_demotes_all(self):
        b = constant_barrier("static", -1.0, 5)
        promoted, demoted = self.annotate(b, accept_all_rejection(5))
        assert demoted.all() and not promoted.any()

    def test_ood_gate_blocks_promotion(self):
        b = constant_barrier("static", 1.0, 5)
        promoted, demoted = self.annotate(b, reject_all_rejection(5))
        assert demoted.all()

    def test_matches_exhaustive_enumeration(self):
        b = distance_barrier()
        promoted, _ = self.annotate(b, accept_all_rejection(5))
        for i, ctx in enumerate(self.CTXS):
            feats = successor_features("static", ctx[None, :], CANDS, FREIGHT_DYN)[0]
            want = bool((b.value(feats) >= 0.0).any())
            assert bool(promoted[i]) == want


class TestCbfLoss:
    def test_perfect_separation_zero_loss(self):
        # B = (obs_x - x) - 2: safe contexts at distance > 2, unsafe below,
        # feasibility satisfied by the stop candidate (B constant under it)
        net = nn.Mlp([5, 1], out_activation="identity", seed=0)
        net.weights[0][:] = np.array([[1.0, 0.0, 0.0, 0.0, 0.0]])
        net.biases[0][:] = -2.0
        b = BarrierModel(net=net, task="static")
        safe_ctx = np.array([[0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 0.0]])
        safe_feats = features_from_context("static", safe_ctx)
        unsafe_feats = np.array([[1.0, 0.0, 0.0, 0.0, 0.0]])  # B = -1
        loss = cbf_loss(b, safe_feats, safe_ctx, unsafe_feats, FREIGHT_DYN,
                        accept_all_rejection(5), CANDS, margin=0.0)
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_zero_barrier_zero_loss_at_zero_margin(self):
        b = constant_barrier("static", 0.0, 5)
        safe_ctx = np.array([[0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 0.0]])
        safe_feats = features_from_context("static", safe_ctx)
        unsafe_feats = np.array([[1.0, 0.0, 0.0, 0.0, 0.0]])
        loss = cbf_loss(b, safe_feats, safe_ctx, unsafe_feats, FREIGHT_DYN,
                        accept_all_rejection(5), CANDS, margin=0.0)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_margin_activates_sign_hinges(self):
        b = constant_barrier("static", 0.0, 5)
        safe_ctx = np.array([[0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 0.0]])
        safe_feats = features_from_context("static", safe_ctx)
        unsafe_feats = np.array([[1.0, 0.0, 0.0, 0.0, 0.0]])
        loss = cbf_loss(b, safe_feats, safe_ctx, unsafe_feats, FREIGHT_DYN,
                        accept_all_rejection(5), CANDS, margin=0.1)
        assert loss == pytest.approx(0.2)  # 0.1 from each sign term

    def test_empty_sets_rejected(self):
        # the loss needs both classes; training checks for them up front
        ctx = np.tile([0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 0.0], (2, 1))
        cfg = CbfTrainConfig(candidates=CANDS, epochs=60, seed=0, hidden=(32, 32))
        for labels in (["safe", "safe"], ["unsafe", "unlabeled"]):
            with pytest.raises(ValueError, match="both safe and unsafe"):
                train_cbf("static", ctx, np.array(labels), FREIGHT_DYN,
                          accept_all_rejection(5), cfg)

    def test_trains_without_unlabeled_samples(self):
        # the empty unlabeled set flows through the map, gate and annotation
        rng = np.random.default_rng(8)
        ctx = np.column_stack([rng.uniform(0, 4, (60, 2)), rng.uniform(-3, 3, 60),
                               rng.uniform(0, 1, 60), rng.uniform(-1, 1, 60),
                               rng.uniform(0, 4, (60, 2))])
        labels = np.array(["safe"] * 40 + ["unsafe"] * 20)
        cfg = CbfTrainConfig(candidates=CANDS, epochs=2, seed=0, hidden=(8,))
        _, report = train_cbf("static", ctx, labels, FREIGHT_DYN, accept_all_rejection(5), cfg)
        assert len(report["loss_curve"]) == 2 and np.isfinite(report["loss_curve"]).all()

    def test_batch_step_loss_is_cbf_loss(self):
        # the loss a training step reports, taken before its Adam update, is
        # this objective on the same samples
        rng = np.random.default_rng(4)
        n = 24
        safe_ctx = np.column_stack([rng.uniform(0, 4, (n, 2)), rng.uniform(-3, 3, n),
                                    rng.uniform(0, 1, n), rng.uniform(-1, 1, n),
                                    rng.uniform(0, 4, (n, 2))])
        safe_feats = features_from_context("static", safe_ctx)
        unsafe_feats = features_from_context("static", safe_ctx[:10] * 0.9)
        net = nn.Mlp([5, 16, 1], out_activation="identity", seed=3)
        barrier = BarrierModel(net=net, task="static")
        rej = accept_all_rejection(5)
        want = cbf_loss(barrier, safe_feats, safe_ctx, unsafe_feats, FREIGHT_DYN, rej, CANDS,
                        margin=MARGIN)
        succ = successor_features("static", safe_ctx, CANDS, FREIGHT_DYN)
        first = _first_equal(succ)
        params = net.parameters()
        got = _batch_step(net, nn.Adam(params, lr=LR), params, safe_feats, succ, first,
                          _gate_of(rej, succ, first), unsafe_feats)
        assert want > 0.05   # all three hinges are active on this batch
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


class TestConfig:
    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            CbfTrainConfig(candidates=np.empty((0, 2)), epochs=60, seed=0, hidden=(32, 32))


class TestTrainedBarriers(object):
    def test_sign_accuracies_from_report(self, training_report):
        for task, rep in training_report["tasks"].items():
            assert rep["safe_sign_accuracy"] >= 0.95, task
            assert rep["unsafe_sign_accuracy"] >= 0.95, task
