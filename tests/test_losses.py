import numpy as np
import pytest

from evtdetect.losses import LossSpec, batch_loss, loss_grad_wrt_preds

MSE = LossSpec("mse")


class TestLossSpec:
    def test_center_required_for_svdd(self):
        with pytest.raises(ValueError):
            LossSpec("svdd")
        with pytest.raises(ValueError):
            LossSpec("mse", center=np.array([1.0]))

    def test_threshold_required_for_evt(self):
        with pytest.raises(ValueError):
            LossSpec("evt")
        with pytest.raises(ValueError):
            LossSpec("mse", threshold=1.0)

    def test_svdd_threshold_optional(self):
        # svdd carries its closing detection threshold when the fit succeeded.
        assert LossSpec("svdd", center=np.array([0.0])).threshold is None
        assert LossSpec("svdd", center=np.array([1.0, 2.0]), threshold=1.25).threshold == 1.25

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            LossSpec("huber")


class TestMse:
    def test_identity(self):
        assert batch_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0]), MSE) == 0.0

    def test_unit(self):
        assert batch_loss(np.zeros(2), np.ones(2), MSE) == 1.0

    def test_hand_value(self):
        assert batch_loss(np.array([1.0, 3.0]), np.zeros(2), MSE) == pytest.approx(5.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            batch_loss(np.zeros(2), np.zeros(3), MSE)


class TestEvtLoss:
    def test_errors_at_threshold_vanish(self):
        spec = LossSpec("evt", threshold=2.0)
        preds = np.array([3.0, -1.0])
        targets = np.array([1.0, 1.0])  # absolute errors exactly 2
        assert batch_loss(preds, targets, spec) == pytest.approx(0.0)

    def test_hand_value(self):
        spec = LossSpec("evt", threshold=2.0)
        # errors {1, 3} vs threshold 2 -> ((-1)^2 + 1^2) / 2
        assert batch_loss(np.array([1.0, 3.0]), np.zeros(2), spec) == pytest.approx(1.0)

    def test_decay_only(self):
        spec = LossSpec("evt", weight_decay=2.0, threshold=0.0)
        weights = [np.array([[3.0]])]
        assert batch_loss(np.zeros(1), np.zeros(1), spec, weights) == pytest.approx(9.0)

    def test_reduces_to_mse_at_zero_threshold(self):
        rng = np.random.default_rng(0)
        preds, targets = rng.normal(size=12), rng.normal(size=12)
        spec = LossSpec("evt", threshold=0.0)
        assert batch_loss(preds, targets, spec) == pytest.approx(batch_loss(preds, targets, MSE))

    def test_non_negative(self):
        rng = np.random.default_rng(1)
        spec = LossSpec("evt", threshold=0.7)
        assert batch_loss(rng.normal(size=9), rng.normal(size=9), spec) >= 0.0


class TestSvddLoss:
    def test_identity(self):
        spec = LossSpec("svdd", center=np.array([1.0]))
        assert batch_loss(np.array([[1.0], [1.0]]), None, spec) == 0.0

    def test_hand_value(self):
        spec = LossSpec("svdd", center=np.array([1.0]))
        assert batch_loss(np.array([[0.0], [2.0]]), None, spec) == pytest.approx(1.0)

    def test_decay_with_zero_distance(self):
        spec = LossSpec("svdd", weight_decay=0.4, center=np.array([0.5]))
        weights = [np.array([[1.0, 2.0]]), np.array([[2.0]])]
        expected = 0.5 * 0.4 * (1 + 4 + 4)
        assert batch_loss(np.array([[0.5]]), None, spec, weights) == pytest.approx(expected)

    def test_center_dimension_mismatch(self):
        spec = LossSpec("svdd", center=np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            batch_loss(np.array([[1.0]]), None, spec)


class TestGradSign:
    def test_sign_zero_at_nondifferentiable_point(self):
        spec = LossSpec("evt", threshold=0.5)
        grad = loss_grad_wrt_preds(np.array([1.0]), np.array([1.0]), spec)
        assert grad[0] == 0.0

    def test_evt_grad_direction(self):
        spec = LossSpec("evt", threshold=0.5)
        # error above threshold: pulled down toward it
        above = loss_grad_wrt_preds(np.array([2.0]), np.array([1.0]), spec)
        assert above[0] > 0
        # error below threshold: pushed away from the target
        below = loss_grad_wrt_preds(np.array([1.1]), np.array([1.0]), spec)
        assert below[0] < 0
