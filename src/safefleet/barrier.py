"""Neural control barrier function learning.

Per task (static / dynamic / multirobot) a scalar net is trained so that its
zero-superlevel set separates safe from unsafe samples while a discrete
forward-invariance term keeps the best candidate control inside the set:

    loss = mean relu(-B(x)) over safe
         + mean relu(B(x)) over unsafe
         + mean relu(-(B(x') - B(x))/DT - GAMMA*B(x)) over safe,

where x' follows the dynamics model under the candidate that maximizes
B(x') among successors passing the OOD gate.  Unlabeled samples are
re-annotated every epoch against the current barrier: promoted to safe when
some control reaches a successor that is both non-negative under B and
in-distribution, demoted to unsafe for that epoch otherwise.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .data import (FEATURE_DIMS, LABEL_SAFE, LABEL_UNLABELED, LABEL_UNSAFE,
                   features_from_context)
from .dynamics import DynamicsModel, predict_next_batch
from .ood import RejectionModel, is_in_distribution_batch
from .world import DT, coast_step_batch

GAMMA = 1.0          # class-K slope, 1/s; alpha(b) = GAMMA*b, and GAMMA*DT < 1 contracts
MARGIN = 0.1         # training's hinge margin on the sign terms; keeps B from collapsing to ~0
LR = 1e-3            # Adam step size
BATCH_SIZE = 256     # safe samples per mini-batch
HOLDOUT_FRAC = 0.1   # share of safe and of unsafe samples held out for the sign accuracies


@dataclass
class BarrierModel:
    net: nn.Mlp      # feature_dim -> hidden -> 1, identity output
    task: str

    def value(self, features) -> np.ndarray:
        out = self.net.forward(np.atleast_2d(features))
        return out[:, 0]


@dataclass
class CbfTrainConfig:
    candidates: np.ndarray         # (C, 2) discrete control set
    epochs: int
    seed: int
    hidden: tuple

    def __post_init__(self):
        if len(self.candidates) == 0:
            raise ValueError("candidate set must be non-empty")
        self.candidates = np.asarray(self.candidates, dtype=float)


def advance_contexts(task: str, contexts: np.ndarray, controls: np.ndarray,
                     dyn: DynamicsModel) -> np.ndarray:
    """One-step successors: (N, D) contexts x (M, 2) controls -> (N, M, D).

    The controlled robot follows the dynamics model; the static obstacle is
    fixed, the pedestrian history shifts forward under a constant-velocity
    extrapolation, and the other robot coasts at its current velocities.
    """
    C = np.atleast_2d(np.asarray(contexts, dtype=float))
    U = np.atleast_2d(np.asarray(controls, dtype=float))
    n, m = len(C), len(U)
    states = np.repeat(C[:, 0:5], m, axis=0)
    ctrls = np.tile(U, (n, 1))
    next_states = predict_next_batch(dyn, states, ctrls).reshape(n, m, 5)
    out = np.empty((n, m, C.shape[1]))
    out[:, :, 0:5] = next_states
    if task == "static":
        out[:, :, 5:7] = C[:, None, 5:7]
    elif task == "dynamic":
        vel = (C[:, 9:11] - C[:, 5:7]) / (2.0 * DT)
        p_next = C[:, 9:11] + vel * DT
        out[:, :, 5:7] = C[:, None, 7:9]
        out[:, :, 7:9] = C[:, None, 9:11]
        out[:, :, 9:11] = p_next[:, None, :]
    elif task == "multirobot":
        other_next = coast_step_batch(C[:, 5:10])
        out[:, :, 5:10] = other_next[:, None, :]
    else:
        raise ValueError(f"unknown task {task!r}")
    return out


def successor_features(task: str, contexts: np.ndarray, controls: np.ndarray,
                       dyn: DynamicsModel) -> np.ndarray:
    """(N, M, feature_dim) features of the one-step successors."""
    succ = advance_contexts(task, contexts, controls, dyn)
    n, m, d = succ.shape
    return features_from_context(task, succ.reshape(n * m, d)).reshape(n, m, -1)


def _gated_argmax(b_succ: np.ndarray, gate: np.ndarray) -> np.ndarray:
    """Row-wise argmax of b_succ restricted to gated candidates, ungated fallback.

    Ties resolve to the smallest candidate index (canonical ordering).
    """
    masked = np.where(gate, b_succ, -np.inf)
    has_any = gate.any(axis=1)
    choice = np.where(has_any, np.argmax(masked, axis=1), np.argmax(b_succ, axis=1))
    return choice


def annotate_unlabeled(succ: np.ndarray, gate: np.ndarray, barrier: BarrierModel):
    """Split unlabeled samples into (promoted-safe mask, demoted-unsafe mask).

    succ holds the (N, M, F) successor features of N samples under M
    candidates and gate their (N, M) OOD gates.  A sample is promoted iff some
    candidate reaches a successor with B >= 0 that is also in-distribution.
    """
    n, m, fdim = succ.shape
    if n == 0:
        return np.zeros(0, bool), np.zeros(0, bool)
    b = barrier.net.forward(succ.reshape(n * m, fdim))[:, 0].reshape(n, m)
    promoted = ((b >= 0.0) & gate).any(axis=1)
    return promoted, ~promoted


def _cbf_objective(b_s, b_u, b_next, margin):
    """The three-term hinge loss and its gradients w.r.t. b_s, b_u and b_next.

    b_next[i] is the barrier value of safe sample i's chosen successor.
    Returns (loss, dL/db_s, dL/db_u, dL/db_next).
    """
    lie = (b_next - b_s) / DT
    feas = -lie - GAMMA * b_s
    loss = (np.maximum(margin - b_s, 0.0).mean() + np.maximum(margin + b_u, 0.0).mean()
            + np.maximum(feas, 0.0).mean())
    safe_hinge = (b_s < margin).astype(float) / len(b_s)
    unsafe_hinge = (b_u > -margin).astype(float) / len(b_u)
    feas_hinge = (feas > 0).astype(float) / len(b_s)
    return (float(loss), feas_hinge * (1.0 / DT - GAMMA) - safe_hinge, unsafe_hinge,
            -feas_hinge / DT)


def train_cbf(task: str, contexts: np.ndarray, labels: np.ndarray, dyn: DynamicsModel,
              rej: RejectionModel, cfg: CbfTrainConfig):
    """Alternate unlabeled annotation and gradient epochs on a (contexts, labels) set.

    Returns (BarrierModel, report) where report carries the loss curve and
    held-out sign accuracies on the original safe/unsafe labels.
    """
    feats = features_from_context(task, contexts)
    safe, unsafe, unlabeled = (labels == label
                               for label in (LABEL_SAFE, LABEL_UNSAFE, LABEL_UNLABELED))
    feats_s, ctx_s = feats[safe], contexts[safe]
    feats_u = feats[unsafe]
    feats_n, ctx_n = feats[unlabeled], contexts[unlabeled]
    if len(feats_s) == 0 or len(feats_u) == 0:
        raise ValueError("need both safe and unsafe labeled samples")

    rng = np.random.default_rng(cfg.seed)
    hold_s = _holdout_mask(len(feats_s), rng)
    hold_u = _holdout_mask(len(feats_u), rng)
    held = {"safe": feats_s[hold_s], "unsafe": feats_u[hold_u]}
    feats_s, ctx_s = feats_s[~hold_s], ctx_s[~hold_s]
    feats_u = feats_u[~hold_u]

    net = nn.Mlp([FEATURE_DIMS[task], *cfg.hidden, 1], out_activation="identity", seed=cfg.seed)
    pool = np.vstack([feats_s, feats_u]) if len(feats_u) else feats_s
    mu, sd = pool.mean(axis=0), pool.std(axis=0)
    net.set_input_scaler(mu, np.where(sd > 1e-8, sd, 1.0))
    barrier = BarrierModel(net=net, task=task)

    # successor features and OOD gates are barrier-independent: precompute once
    succ_s = successor_features(task, ctx_s, cfg.candidates, dyn)
    gate_s = _gate_of(rej, succ_s)
    if len(ctx_n):
        succ_n = successor_features(task, ctx_n, cfg.candidates, dyn)
        gate_n = _gate_of(rej, succ_n)
    else:
        succ_n = np.empty((0,) + succ_s.shape[1:])
        gate_n = np.empty((0, succ_s.shape[1]), bool)

    params = net.parameters()
    opt = nn.Adam(params, lr=LR)
    curve = []
    for _ in range(cfg.epochs):
        # soft re-annotation against the current barrier
        promoted, demoted = annotate_unlabeled(succ_n, gate_n, barrier)
        ep_safe_feats = np.vstack([feats_s, feats_n[promoted]]) if promoted.any() else feats_s
        ep_succ = np.vstack([succ_s, succ_n[promoted]]) if promoted.any() else succ_s
        ep_gate = np.vstack([gate_s, gate_n[promoted]]) if promoted.any() else gate_s
        ep_unsafe = np.vstack([feats_u, feats_n[demoted]]) if demoted.any() else feats_u

        ns, nu = len(ep_safe_feats), len(ep_unsafe)
        order_s = rng.permutation(ns)
        order_u = rng.permutation(nu)
        n_batches = max(1, ns // BATCH_SIZE)
        bs_u = max(1, nu // n_batches)
        losses = []
        for b in range(n_batches):
            si = order_s[b * BATCH_SIZE:(b + 1) * BATCH_SIZE]
            ui = order_u[b * bs_u:(b + 1) * bs_u]
            if len(si) == 0 or len(ui) == 0:
                continue
            loss = _batch_step(net, opt, params, ep_safe_feats[si], ep_succ[si],
                               ep_gate[si], ep_unsafe[ui])
            if not np.isfinite(loss):
                raise nn.TrainingDiverged(f"CBF loss became {loss}")
            losses.append(loss)
        curve.append(float(np.mean(losses)))

    report = {
        "loss_curve": curve,
        "safe_sign_accuracy": float(np.mean(barrier.value(held["safe"]) >= 0.0))
        if len(held["safe"]) else float("nan"),
        "unsafe_sign_accuracy": float(np.mean(barrier.value(held["unsafe"]) < 0.0))
        if len(held["unsafe"]) else float("nan"),
        "held_safe": held["safe"],
        "held_unsafe": held["unsafe"],
    }
    return barrier, report


def _batch_step(net, opt, params, xs, succ, gate, xu):
    """One mini-batch gradient step on the three-term loss."""
    bs, n_cand, fdim = succ.shape
    bu = len(xu)
    flat = succ.reshape(bs * n_cand, fdim)
    b_succ = net.forward(flat)[:, 0].reshape(bs, n_cand)
    j = _gated_argmax(b_succ, gate)
    chosen = succ[np.arange(bs), j]

    stacked = np.vstack([xs, xu, chosen])
    out, cache = net.forward_cached(stacked)
    loss, g_s, g_u, g_next = _cbf_objective(out[:bs, 0], out[bs:bs + bu, 0],
                                            out[bs + bu:, 0], MARGIN)
    dY = np.zeros_like(out)
    dY[:bs, 0] = g_s
    dY[bs:bs + bu, 0] = g_u
    dY[bs + bu:, 0] = g_next
    dWs, dbs = net.backward(cache, dY)
    opt.step(params, dWs + dbs)
    return loss


def _holdout_mask(n, rng):
    mask = np.zeros(n, bool)
    k = int(n * HOLDOUT_FRAC)
    if k:
        mask[rng.choice(n, size=k, replace=False)] = True
    return mask


def _gate_of(rej, succ):
    n, m, fdim = succ.shape
    if n == 0:
        return np.empty((0, m), bool)
    return is_in_distribution_batch(rej, succ.reshape(n * m, fdim)).reshape(n, m)
