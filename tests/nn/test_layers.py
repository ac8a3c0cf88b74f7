"""Gradient checks and behavioural tests for the NN layers."""

import numpy as np
import pytest

from repro.nn.fpmath import EngineConfig, MatmulEngine
from repro.nn.functional import (
    accuracy,
    col2im,
    cross_entropy,
    im2col,
    softmax,
)
from repro.nn.layers import (
    Conv2d,
    Dense,
    Flatten,
    MaxPool2d,
    ReLU,
)


def _engine():
    # Exact arithmetic: numeric differentiation needs float64.
    return MatmulEngine(EngineConfig(mode="fp64"))


def _numeric_grad(f, x, eps=1e-5):
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = x[idx]
        x[idx] = old + eps
        hi = f()
        x[idx] = old - eps
        lo = f()
        x[idx] = old
        grad[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return grad


class TestIm2col:
    def test_shapes(self, rng):
        x = rng.normal(0, 1, (2, 3, 6, 6))
        cols, oh, ow = im2col(x, kernel=3, stride=1, padding=1)
        assert (oh, ow) == (6, 6)
        assert cols.shape == (2 * 36, 27)

    def test_stride(self, rng):
        x = rng.normal(0, 1, (1, 1, 6, 6))
        cols, oh, ow = im2col(x, kernel=2, stride=2)
        assert (oh, ow) == (3, 3)

    def test_values(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        cols, _, _ = im2col(x, kernel=2)
        assert list(cols[0]) == [0, 1, 4, 5]
        assert list(cols[1]) == [1, 2, 5, 6]

    def test_col2im_is_adjoint(self, rng):
        """<im2col(x), y> == <x, col2im(y)> -- the defining property."""
        x = rng.normal(0, 1, (2, 3, 5, 5))
        cols, oh, ow = im2col(x, kernel=3, stride=2, padding=1)
        y = rng.normal(0, 1, cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * col2im(y, x.shape, kernel=3, stride=2, padding=1)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestSoftmaxCrossEntropy:
    def test_softmax_rows_sum_to_one(self, rng):
        p = softmax(rng.normal(0, 5, (10, 7)))
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_softmax_shift_invariant(self, rng):
        logits = rng.normal(0, 1, (4, 5))
        assert np.allclose(softmax(logits), softmax(logits + 100.0))

    def test_cross_entropy_gradient(self, rng):
        logits = rng.normal(0, 1, (6, 4))
        labels = rng.integers(0, 4, 6)
        _, grad = cross_entropy(logits, labels)
        numeric = _numeric_grad(
            lambda: cross_entropy(logits, labels)[0], logits
        )
        assert np.allclose(grad, numeric, atol=1e-6)

    def test_accuracy(self):
        logits = np.array([[1.0, 2.0], [3.0, 0.0]])
        assert accuracy(logits, np.array([1, 0])) == 1.0
        assert accuracy(logits, np.array([0, 0])) == 0.5


class TestDense:
    def test_forward_values(self, rng):
        layer = Dense(4, 3, _engine(), rng)
        layer.weight[...] = np.eye(4, 3)
        layer.bias[...] = 1.0
        out = layer.forward(np.array([[1.0, 2.0, 3.0, 4.0]]))
        assert np.allclose(out, [[2.0, 3.0, 4.0]])

    def test_input_gradient(self, rng):
        layer = Dense(5, 3, _engine(), rng)
        x = rng.normal(0, 1, (4, 5))
        target = rng.normal(0, 1, (4, 3))

        def loss():
            return float(((layer.forward(x) - target) ** 2).sum())

        out = layer.forward(x)
        grad_in = layer.backward(2 * (out - target))
        numeric = _numeric_grad(loss, x)
        assert np.allclose(grad_in, numeric, atol=1e-4)

    def test_weight_gradient(self, rng):
        layer = Dense(5, 3, _engine(), rng)
        x = rng.normal(0, 1, (4, 5))
        target = rng.normal(0, 1, (4, 3))

        def loss():
            return float(((layer.forward(x) - target) ** 2).sum())

        out = layer.forward(x)
        layer.backward(2 * (out - target))
        numeric = _numeric_grad(loss, layer.weight)
        assert np.allclose(layer.weight_grad, numeric, atol=1e-4)

    def test_traced_tensors(self, rng):
        layer = Dense(4, 2, _engine(), rng)
        x = rng.normal(0, 1, (3, 4))
        layer.forward(x)
        layer.backward(np.ones((3, 2)))
        traced = layer.traced_tensors()
        assert set(traced) == {"I", "W", "G"}
        assert traced["I"].shape == (3, 4)

    def test_backward_before_forward(self, rng):
        layer = Dense(4, 2, _engine(), rng)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((3, 2)))


class TestConv2d:
    def test_matches_direct_convolution(self, rng):
        layer = Conv2d(2, 3, 3, _engine(), rng, padding=1)
        x = rng.normal(0, 1, (2, 2, 5, 5))
        out = layer.forward(x)
        assert out.shape == (2, 3, 5, 5)
        # Direct computation for one output position.
        w = layer.weight.reshape(2, 3, 3, 3, order="C")  # fan_in layout
        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        patch = padded[0, :, 1:4, 1:4].reshape(-1)
        expected = patch @ layer.weight[:, 1] + layer.bias[1]
        assert out[0, 1, 1, 1] == pytest.approx(float(expected), rel=1e-5)

    def test_input_gradient(self, rng):
        layer = Conv2d(1, 2, 3, _engine(), rng, padding=1)
        x = rng.normal(0, 1, (1, 1, 4, 4))
        target = rng.normal(0, 1, (1, 2, 4, 4))

        def loss():
            return float(((layer.forward(x) - target) ** 2).sum())

        out = layer.forward(x)
        grad_in = layer.backward(2 * (out - target))
        numeric = _numeric_grad(loss, x)
        assert np.allclose(grad_in, numeric, atol=1e-4)

    def test_weight_gradient(self, rng):
        layer = Conv2d(1, 2, 3, _engine(), rng)
        x = rng.normal(0, 1, (2, 1, 5, 5))
        target = rng.normal(0, 1, (2, 2, 3, 3))

        def loss():
            return float(((layer.forward(x) - target) ** 2).sum())

        out = layer.forward(x)
        layer.backward(2 * (out - target))
        numeric = _numeric_grad(loss, layer.weight)
        assert np.allclose(layer.weight_grad, numeric, atol=1e-4)

    def test_strided(self, rng):
        layer = Conv2d(1, 1, 3, _engine(), rng, stride=2, padding=1)
        x = rng.normal(0, 1, (1, 1, 8, 8))
        assert layer.forward(x).shape == (1, 1, 4, 4)


class TestElementwiseLayers:
    def test_relu(self):
        relu = ReLU()
        x = np.array([[-1.0, 2.0], [0.0, -3.0]])
        out = relu.forward(x)
        assert np.array_equal(out, [[0.0, 2.0], [0.0, 0.0]])
        grad = relu.backward(np.ones_like(x))
        assert np.array_equal(grad, [[0.0, 1.0], [0.0, 0.0]])

    def test_maxpool_forward(self):
        pool = MaxPool2d(2)
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = pool.forward(x)
        assert np.array_equal(out[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_maxpool_gradient_routes_to_argmax(self):
        pool = MaxPool2d(2)
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        pool.forward(x)
        grad = pool.backward(np.ones((1, 1, 2, 2)))
        assert grad.sum() == 4.0
        assert grad[0, 0, 1, 1] == 1.0  # position of 5

    def test_maxpool_numeric_gradient(self, rng):
        pool = MaxPool2d(2)
        x = rng.normal(0, 1, (1, 2, 4, 4))
        target = rng.normal(0, 1, (1, 2, 2, 2))

        def loss():
            return float(((pool.forward(x) - target) ** 2).sum())

        out = pool.forward(x)
        grad = pool.backward(2 * (out - target))
        numeric = _numeric_grad(loss, x)
        assert np.allclose(grad, numeric, atol=1e-5)

    def test_maxpool_shape_validation(self):
        with pytest.raises(ValueError):
            MaxPool2d(2).forward(np.zeros((1, 1, 5, 5)))

    def test_flatten_roundtrip(self, rng):
        flat = Flatten()
        x = rng.normal(0, 1, (2, 3, 4, 4))
        out = flat.forward(x)
        assert out.shape == (2, 48)
        assert flat.backward(out).shape == x.shape
