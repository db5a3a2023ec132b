"""Minimal feed-forward network with hand-written backprop.

Hosts every learned model in the project: dynamics refinement (4 tanh
outputs), barrier (1 identity output) and rejection (2 sigmoid outputs).
ReLU hidden layers, seeded initialization, optional per-dimension input
standardization folded into the model so saved files are self-contained.
CPU only, numpy only.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("identity", "tanh", "sigmoid")
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainConfig:
    lr: float
    batch_size: int
    epochs: int
    seed: int

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")


class Mlp:
    def __init__(self, layer_sizes, out_activation="identity", seed=0):
        if out_activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {out_activation!r}")
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        rng = np.random.default_rng(seed)
        self.layer_sizes = list(int(s) for s in layer_sizes)
        self.out_activation = out_activation
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(rng.uniform(-bound, bound, (fan_out, fan_in)))
            self.biases.append(np.zeros(fan_out))
        self.in_shift = None   # optional input standardization
        self.in_scale = None

    @property
    def in_dim(self):
        return self.layer_sizes[0]

    def set_input_scaler(self, shift, scale):
        shift = np.asarray(shift, dtype=float)
        scale = np.asarray(scale, dtype=float)
        if shift.shape != (self.in_dim,) or scale.shape != (self.in_dim,):
            raise ValueError("scaler shape mismatch")
        if np.any(scale <= 0):
            raise ValueError("scale entries must be positive")
        self.in_shift = shift
        self.in_scale = scale

    def parameters(self):
        return self.weights + self.biases

    def _prep(self, x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        X = x[None, :] if single else x
        if X.shape[1] != self.in_dim:
            raise ValueError(f"input dim {X.shape[1]} != {self.in_dim}")
        if self.in_shift is not None:
            X = (X - self.in_shift) / self.in_scale
        return X, single

    def forward(self, x):
        X, single = self._prep(x)
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            # in place, one buffer per layer: training gates ~60k-row batches
            # through 128-wide nets, and their temporaries set the peak memory
            X = X @ W.T
            X += b
            np.maximum(X, 0.0, out=X)
        Z = X @ self.weights[-1].T + self.biases[-1]
        Y = _out_act(Z, self.out_activation)
        return Y[0] if single else Y

    def forward_cached(self, x):
        """Forward pass keeping layer activations for backward()."""
        X, single = self._prep(x)
        acts = [X]
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            X = np.maximum(X @ W.T + b, 0.0)
            acts.append(X)
        Z = X @ self.weights[-1].T + self.biases[-1]
        Y = _out_act(Z, self.out_activation)
        cache = (acts, Y)
        return (Y[0] if single else Y), cache

    def backward(self, cache, dY):
        """Parameter gradients given dLoss/dY (post-activation). Returns [dW...], [db...]."""
        acts, Y = cache
        dY = np.asarray(dY, dtype=float)
        if dY.ndim == 1:
            dY = dY[None, :]
        if self.out_activation == "identity":
            dZ = dY
        elif self.out_activation == "tanh":
            dZ = dY * (1.0 - Y ** 2)
        else:  # sigmoid
            dZ = dY * Y * (1.0 - Y)
        dWs = [None] * len(self.weights)
        dbs = [None] * len(self.biases)
        for i in range(len(self.weights) - 1, -1, -1):
            a = acts[i]
            dWs[i] = dZ.T @ a
            dbs[i] = dZ.sum(axis=0)
            if i > 0:
                dA = dZ @ self.weights[i]
                dZ = dA * (acts[i] > 0)
        return dWs, dbs


def _out_act(Z, kind):
    if kind == "identity":
        return Z
    if kind == "tanh":
        return np.tanh(Z)
    return 1.0 / (1.0 + np.exp(-Z))


class Adam:
    def __init__(self, params, lr=1e-3):
        self.lr = lr
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1 - ADAM_BETA2) * g * g
            mhat = m / (1 - ADAM_BETA1 ** self.t)
            vhat = v / (1 - ADAM_BETA2 ** self.t)
            p -= self.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


def mse_loss(pred, target):
    """Mean squared error over all entries; returns (loss, dLoss/dpred)."""
    diff = pred - target
    n = diff.size
    return float(np.sum(diff ** 2) / n), 2.0 * diff / n


def bce_loss(pred, target, weights=None):
    """Elementwise binary cross-entropy on sigmoid outputs in (0, 1)."""
    eps = 1e-12
    p = np.clip(pred, eps, 1 - eps)
    per = -(target * np.log(p) + (1 - target) * np.log(1 - p))
    if weights is not None:
        per = per * weights
    n = per.size
    grad = (p - target) / (p * (1 - p)) / n
    if weights is not None:
        grad = grad * weights
    return float(per.sum() / n), grad


def train(model: Mlp, X, Y, loss_fn, config: TrainConfig, weights=None):
    """Seeded mini-batch Adam. Returns (model, per-epoch mean loss).

    With per-row `weights`, each batch's rows are passed to the loss as
    loss_fn(pred, target, weights=...).
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if len(X) == 0:
        raise ValueError("empty dataset")
    if Y.ndim == 1:
        Y = Y[:, None]
    rng = np.random.default_rng(config.seed)
    params = model.parameters()
    opt = Adam(params, lr=config.lr)
    curve = []
    n = len(X)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            pred, cache = model.forward_cached(X[idx])
            if weights is None:
                loss, dpred = loss_fn(pred, Y[idx])
            else:
                loss, dpred = loss_fn(pred, Y[idx], weights=weights[idx])
            if not np.isfinite(loss):
                raise TrainingDiverged(f"loss became {loss} at step {opt.t}")
            dWs, dbs = model.backward(cache, dpred)
            opt.step(params, dWs + dbs)
            losses.append(loss)
        curve.append(float(np.mean(losses)))
    return model, curve


_MAGIC = b"SFMLP1\n"


def save_model(model: Mlp, path, role=""):
    """Versioned binary: magic, JSON header line, then raw float64 arrays."""
    header = {
        "role": role,
        "sizes": model.layer_sizes,
        "activation": model.out_activation,
        "scaler": model.in_shift is not None,
    }
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        if model.in_shift is not None:
            fh.write(model.in_shift.astype(np.float64).tobytes())
            fh.write(model.in_scale.astype(np.float64).tobytes())
        for W, b in zip(model.weights, model.biases):
            fh.write(W.astype(np.float64).tobytes())
            fh.write(b.astype(np.float64).tobytes())


def load_model(path):
    """Returns (model, role). Round-trips bit-exactly with save_model."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a safefleet model file")
        header = json.loads(fh.readline().decode())
        sizes = header["sizes"]
        model = Mlp(sizes, out_activation=header["activation"])

        def read_array(shape):
            n = int(np.prod(shape))
            buf = fh.read(n * 8)
            if len(buf) != n * 8:
                raise ValueError(f"{path}: truncated model file")
            return np.frombuffer(buf, dtype=np.float64).reshape(shape).copy()

        if header["scaler"]:
            model.in_shift = read_array((sizes[0],))
            model.in_scale = read_array((sizes[0],))
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            model.weights[i] = read_array((fan_out, fan_in))
            model.biases[i] = read_array((fan_out,))
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the arrays its header declares")
    return model, header["role"]
