import numpy as np
import pytest

from safefleet import nn
from safefleet.ood import RejectionModel, inflated_bounds, is_in_distribution_batch, train_ood


class ScoresAsInput:
    """Stub net: the (N, 2) rows it is given are its two scores."""

    def forward(self, X):
        return X


def accepted(scores, c):
    """is_in_distribution_batch's decision on each (score1, score2) row."""
    model = RejectionModel(net=ScoresAsInput(), c=c)
    return is_in_distribution_batch(model, np.asarray(scores, dtype=float)).tolist()


class TestAcceptPredicate:
    def test_both_thresholds_satisfied(self):
        assert accepted([[0.3, 0.9]], c=0.25) == [True]

    def test_first_threshold_fails(self):
        assert accepted([[0.2, 0.9]], c=0.25) == [False]

    def test_boundary_is_strict(self):
        assert accepted([[0.05, 0.96]], c=0.1) == [False]  # 0.05 <= 0.1

    def test_decision_flips_exactly_at_thresholds(self):
        # acceptance region is the open upper-right quadrant at (c, 1 - c)
        rows = [[0.26, 0.76], [0.26, 0.74], [0.24, 0.76],
                [0.25, 0.76],   # boundary excluded
                [0.26, 0.75]]
        assert accepted(rows, 0.25) == [True, False, False, False, False]

    def test_acceptance_monotone_in_scores(self):
        # raising either score never turns an accept into a reject
        rng = np.random.default_rng(0)
        for _ in range(200):
            s1, s2, c = rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0.01, 0.49)
            if accepted([[s1, s2]], c)[0]:
                assert accepted([[min(s1 + 0.1, 1.0), s2], [s1, min(s2 + 0.1, 1.0)]],
                                c) == [True, True]


class TestRejectionModel:
    def test_threshold_range_validated(self):
        net = nn.Mlp([3, 4, 2], out_activation="sigmoid", seed=0)
        with pytest.raises(ValueError):
            RejectionModel(net=net, c=0.5)
        with pytest.raises(ValueError):
            RejectionModel(net=net, c=0.0)

    def test_is_in_distribution_matches_predicate(self):
        net = nn.Mlp([3, 8, 2], out_activation="sigmoid", seed=1)
        model = RejectionModel(net=net, c=0.4)
        X = np.random.default_rng(2).normal(size=(50, 3))
        want = accepted(model.net.forward(X), 0.4)
        assert 0 < sum(want) < len(want)      # both decisions occur
        assert is_in_distribution_batch(model, X).tolist() == want

    def test_dimension_mismatch_rejected(self):
        net = nn.Mlp([3, 4, 2], out_activation="sigmoid", seed=0)
        model = RejectionModel(net=net, c=0.1)
        with pytest.raises(ValueError):
            is_in_distribution_batch(model, np.ones((1, 5)))


class TestInflatedBounds:
    def test_factor_expands_about_center(self):
        X = np.array([[0.0, 2.0], [2.0, 6.0]])
        lo, hi = inflated_bounds(X)   # INFLATION = 1.5
        assert np.allclose(lo, [-0.5, 1.0])
        assert np.allclose(hi, [2.5, 7.0])

    def test_degenerate_dim_rejected(self):
        X = np.zeros((10, 2))
        X[:, 0] = np.arange(10)
        with pytest.raises(ValueError):
            inflated_bounds(X)


class TestTrainOod:
    @pytest.fixture(scope="class")
    def trained(self):
        rng = np.random.default_rng(7)
        feats = rng.normal(0.0, 1.0, (1500, 4))
        model = train_ood(feats, c=0.25, hidden=(32, 32),
                          config=nn.TrainConfig(lr=2e-3, batch_size=128, epochs=30, seed=0))
        heldout = rng.normal(0.0, 1.0, (400, 4))
        return model, heldout

    def test_heldout_in_distribution_acceptance(self, trained):
        model, heldout = trained
        frac = is_in_distribution_batch(model, heldout).mean()
        assert frac >= 0.95

    def test_far_points_rejected(self, trained):
        model, _ = trained
        far = np.random.default_rng(8).normal(0.0, 1.0, (200, 4)) + 40.0
        assert is_in_distribution_batch(model, far).mean() <= 0.05

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            train_ood(np.random.default_rng(0).normal(size=(100, 3)), c=0.1, hidden=(8,),
                      config=nn.TrainConfig())
