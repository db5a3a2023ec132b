"""Out-of-distribution rejection model.

Two bounded scores per input; a point counts as in-distribution only when
score1 > c and score2 > 1 - c.  Trained discriminatively against synthetic
negatives drawn uniformly from an inflated bounding box of the labeled data.

The two heads are independent sigmoids rather than a normalized pair: with
scores summing to one the two-inequality predicate is unsatisfiable for any
c in (0, 0.5), so independent bounded scores are the only reading under
which the thresholds mean anything.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn

INFLATION = 1.5        # negatives fill the data's bounding box scaled by this
POSITIVE_WEIGHT = 2.0  # loss weight of a data point; one uniform negative per data point


@dataclass
class RejectionModel:
    net: nn.Mlp       # feature_dim -> hidden -> 2, sigmoid output
    c: float          # rejection threshold in (0, 0.5)

    def __post_init__(self):
        if not (0.0 < self.c < 0.5):
            raise ValueError("rejection threshold must lie in (0, 0.5)")


def inflated_bounds(features: np.ndarray):
    """Per-dim (lo, hi) of the data bounding box scaled by INFLATION about its center."""
    lo = features.min(axis=0)
    hi = features.max(axis=0)
    width = hi - lo
    if np.any(width <= 0):
        bad = np.where(width <= 0)[0]
        raise ValueError(f"degenerate (zero-width) feature dims: {bad.tolist()}")
    center = (lo + hi) / 2.0
    half = width * INFLATION / 2.0
    return center - half, center + half


def train_ood(features: np.ndarray, c: float, hidden: tuple,
              config: nn.TrainConfig) -> RejectionModel:
    """Fit the two-score discriminator on labeled-data features; `config.seed`
    seeds the negatives, the net's initialization and the training order."""
    features = np.asarray(features, dtype=float)
    if len(features) < 500:
        raise ValueError(f"need >= 500 in-distribution samples, got {len(features)}")
    rng = np.random.default_rng(config.seed)
    lo, hi = inflated_bounds(features)
    n_neg = len(features)
    negatives = rng.uniform(lo, hi, size=(n_neg, features.shape[1]))

    X = np.vstack([features, negatives])
    Y = np.vstack([np.ones((len(features), 2)), np.zeros((n_neg, 2))])
    W = np.vstack([np.full((len(features), 2), POSITIVE_WEIGHT), np.ones((n_neg, 2))])

    net = nn.Mlp([features.shape[1], *hidden, 2], out_activation="sigmoid",
                 seed=config.seed)
    mu, sd = X.mean(axis=0), X.std(axis=0)
    net.set_input_scaler(mu, np.where(sd > 1e-8, sd, 1.0))

    order = rng.permutation(len(X))
    nn.train(net, X[order], Y[order], nn.bce_loss, config, weights=W[order])
    return RejectionModel(net=net, c=c)


def is_in_distribution_batch(model: RejectionModel, X: np.ndarray) -> np.ndarray:
    """Per row of X: score1 > c and score2 > 1 - c, both strict."""
    s = model.net.forward(np.atleast_2d(X))
    return (s[:, 0] > model.c) & (s[:, 1] > 1.0 - model.c)
