import numpy as np
import pytest

from conftest import gradient_check
from safefleet import nn

RNG = np.random.default_rng(12345)

# one representative architecture per output activation / model role
ARCHITECTURES = [
    ([7, 16, 16, 4], "tanh"),       # dynamics refinement head
    ([5, 16, 16, 1], "identity"),   # barrier head
    ([9, 16, 16, 2], "sigmoid"),    # rejection head
]


class TestForward:
    def test_zero_weights_identity_output(self):
        m = nn.Mlp([3, 4, 2], out_activation="identity", seed=0)
        for W in m.weights:
            W[:] = 0.0
        assert np.array_equal(m.forward(np.ones(3)), np.zeros(2))

    def test_single_linear_layer_dot_product(self):
        m = nn.Mlp([2, 1], out_activation="identity", seed=0)
        m.weights[0][:] = 1.0
        m.biases[0][:] = 0.0
        assert m.forward(np.array([0.3, 0.7]))[0] == pytest.approx(1.0)

    def test_tanh_output_bounded(self):
        m = nn.Mlp([4, 8, 3], out_activation="tanh", seed=1)
        X = RNG.normal(0, 10, (100, 4))
        Y = m.forward(X)
        assert np.all(np.abs(Y) <= 1.0)

    def test_sigmoid_output_in_unit_interval(self):
        m = nn.Mlp([4, 8, 2], out_activation="sigmoid", seed=1)
        Y = m.forward(RNG.normal(0, 10, (100, 4)))
        assert np.all((Y > 0.0) & (Y < 1.0))

    def test_dimension_mismatch_rejected(self):
        m = nn.Mlp([3, 2], seed=0)
        with pytest.raises(ValueError):
            m.forward(np.ones(4))

    def test_batch_matches_single(self):
        m = nn.Mlp([5, 8, 2], out_activation="tanh", seed=2)
        X = RNG.normal(size=(10, 5))
        batch = m.forward(X)
        singles = np.stack([m.forward(x) for x in X])
        assert np.allclose(batch, singles)

    def test_input_scaler_applied(self):
        m = nn.Mlp([2, 1], out_activation="identity", seed=0)
        m.weights[0][:] = 1.0
        m.set_input_scaler(np.array([1.0, 1.0]), np.array([2.0, 2.0]))
        # (x - 1)/2 summed
        assert m.forward(np.array([3.0, 5.0]))[0] == pytest.approx(1.0 + 2.0)

    def test_scaler_validation(self):
        m = nn.Mlp([2, 1], seed=0)
        with pytest.raises(ValueError):
            m.set_input_scaler(np.zeros(3), np.ones(3))
        with pytest.raises(ValueError):
            m.set_input_scaler(np.zeros(2), np.array([1.0, 0.0]))


class TestGradientCheck:
    @pytest.mark.parametrize("sizes,act", ARCHITECTURES)
    def test_random_fixtures_under_tolerance(self, sizes, act):
        def sq_loss(y):
            return float(np.sum(y ** 2)), 2.0 * y

        worst = 0.0
        for k in range(20):
            m = nn.Mlp(sizes, out_activation=act, seed=1000 + k)
            x = np.random.default_rng(k).normal(size=sizes[0])
            err = gradient_check(m, x, sq_loss)
            worst = max(worst, err)
        assert worst < 1e-4

    def test_zero_gradient_absolute_fallback(self):
        m = nn.Mlp([2, 3, 1], out_activation="identity", seed=0)

        def const_loss(y):
            return 7.0, np.zeros_like(y)

        assert gradient_check(m, np.ones(2), const_loss) < 1e-6


class TestTrain:
    def test_linear_regression_recovers_slope(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, (100, 1))
        Y = 2.0 * X
        m = nn.Mlp([1, 1], out_activation="identity", seed=0)
        nn.train(m, X, Y, nn.mse_loss, nn.TrainConfig(lr=5e-2, batch_size=16, epochs=500, seed=0))
        assert m.weights[0][0, 0] == pytest.approx(2.0, abs=0.05)

    def test_zero_epochs_leaves_model_unchanged(self):
        m = nn.Mlp([2, 3, 1], seed=3)
        before = [W.copy() for W in m.weights]
        nn.train(m, np.ones((4, 2)), np.ones(4), nn.mse_loss,
                 nn.TrainConfig(lr=1e-3, batch_size=64, epochs=0, seed=0))
        assert all(np.array_equal(a, b) for a, b in zip(before, m.weights))

    def test_seeded_determinism(self):
        finals = []
        for _ in range(2):
            rng = np.random.default_rng(1)
            X = rng.normal(size=(50, 3))
            Y = rng.normal(size=(50, 2))
            m = nn.Mlp([3, 8, 2], seed=7)
            nn.train(m, X, Y, nn.mse_loss, nn.TrainConfig(lr=1e-3, batch_size=64, epochs=5, seed=7))
            finals.append([W.copy() for W in m.parameters()])
        assert all(np.array_equal(a, b) for a, b in zip(*finals))

    def test_loss_decreases_on_convex_problem(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, (200, 2))
        Y = X @ np.array([1.5, -0.5])
        m = nn.Mlp([2, 1], seed=0)
        _, curve = nn.train(m, X, Y, nn.mse_loss,
                            nn.TrainConfig(lr=1e-3, batch_size=64, epochs=50, seed=0))
        assert curve[-1] < curve[0]

    def test_empty_dataset_rejected(self):
        m = nn.Mlp([2, 1], seed=0)
        with pytest.raises(ValueError):
            nn.train(m, np.empty((0, 2)), np.empty(0), nn.mse_loss,
                     nn.TrainConfig(lr=1e-3, batch_size=64, epochs=100, seed=0))

    def test_nan_loss_aborts(self):
        m = nn.Mlp([1, 1], seed=0)

        def bad_loss(pred, target):
            return float("nan"), np.zeros_like(pred)

        with pytest.raises(nn.TrainingDiverged):
            nn.train(m, np.ones((4, 1)), np.ones(4), bad_loss,
                     nn.TrainConfig(lr=1e-3, batch_size=64, epochs=1, seed=0))

    def test_weights_follow_the_shuffle(self):
        # each row's weight is 10x its target, so a batch whose weights were
        # indexed apart from its rows is caught by the loss itself
        X = np.arange(40.0)[:, None]
        Y = np.arange(40.0)[:, None]
        seen = []

        def checked_mse(pred, target, weights):
            assert np.array_equal(weights, 10.0 * target)
            seen.append(len(target))
            return nn.mse_loss(pred, target)

        nn.train(nn.Mlp([1, 1], seed=0), X, Y, checked_mse,
                 nn.TrainConfig(lr=1e-3, batch_size=16, epochs=2, seed=3), weights=10.0 * Y)
        assert seen == [16, 16, 8] * 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            nn.TrainConfig(lr=0.0, batch_size=64, epochs=100, seed=0)
        with pytest.raises(ValueError):
            nn.TrainConfig(lr=1e-3, batch_size=0, epochs=100, seed=0)


class TestLosses:
    def test_mse_value_and_gradient(self):
        pred = np.array([[1.0, 2.0]])
        target = np.array([[0.0, 0.0]])
        loss, grad = nn.mse_loss(pred, target)
        assert loss == pytest.approx((1 + 4) / 2)
        assert np.allclose(grad, pred)  # 2*diff/n with n=2

    def test_bce_perfect_prediction_near_zero(self):
        pred = np.array([[1 - 1e-9, 1e-9]])
        target = np.array([[1.0, 0.0]])
        loss, _ = nn.bce_loss(pred, target)
        assert loss < 1e-6


class TestSaveLoad:
    @pytest.mark.parametrize("sizes,act", ARCHITECTURES)
    def test_round_trip_bit_exact(self, sizes, act, tmp_path):
        m = nn.Mlp(sizes, out_activation=act, seed=9)
        m.set_input_scaler(RNG.normal(size=sizes[0]), np.abs(RNG.normal(size=sizes[0])) + 0.1)
        path = tmp_path / "model.mlp"
        nn.save_model(m, path, role="test")
        loaded, role = nn.load_model(path)
        assert role == "test"
        assert loaded.layer_sizes == m.layer_sizes
        assert loaded.out_activation == m.out_activation
        assert all(np.array_equal(a, b) for a, b in zip(m.weights, loaded.weights))
        assert all(np.array_equal(a, b) for a, b in zip(m.biases, loaded.biases))
        assert np.array_equal(m.in_shift, loaded.in_shift)
        assert np.array_equal(m.in_scale, loaded.in_scale)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.mlp"
        path.write_bytes(b"not a model")
        with pytest.raises(ValueError):
            nn.load_model(path)

    @pytest.mark.parametrize("edit", [lambda b: b[:-8], lambda b: b + b"\0" * 8])
    def test_size_mismatch_rejected(self, edit, tmp_path):
        # truncated, or with bytes beyond the arrays the header declares
        path = tmp_path / "model.mlp"
        nn.save_model(nn.Mlp([3, 4, 2], seed=0), path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ValueError):
            nn.load_model(path)
