"""Layers with explicit forward/backward passes.

Every layer that multiplies routes its three training operations through
the shared :class:`repro.nn.fpmath.MatmulEngine`:

* forward      (paper eq. 1, the ``A x W`` phase),
* input grad   (paper eq. 2, the ``G x W`` phase),
* weight grad  (paper eq. 3, the ``A x G`` phase),

and exposes the tensors involved (input ``I``, weights ``W``, gradient
``G``) so training runs double as trace generators.
"""

from __future__ import annotations

import numpy as np

from repro.nn.fpmath import MatmulEngine
from repro.nn.functional import col2im, im2col


class Layer:
    """Base layer: forward/backward plus parameter and trace access."""

    name: str = "layer"

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        """Compute the layer output.

        Args:
            x: input tensor.
            training: whether caches for backward should be kept.

        Returns:
            Output tensor.
        """
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Back-propagate, storing parameter gradients.

        Args:
            grad_out: gradient of the loss w.r.t. this layer's output.

        Returns:
            Gradient w.r.t. this layer's input.
        """
        raise NotImplementedError

    def parameters(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(parameter, gradient) pairs for the optimizer."""
        return []

    def traced_tensors(self) -> dict[str, np.ndarray]:
        """Last-step I/W/G tensors for trace capture (may be empty)."""
        return {}


class Dense(Layer):
    """Fully connected layer ``y = x W + b``.

    Args:
        in_features: input width.
        out_features: output width.
        engine: shared arithmetic engine.
        rng: initializer RNG.
        bias: include a bias vector.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        engine: MatmulEngine,
        rng: np.random.Generator,
        bias: bool = True,
        name: str = "dense",
    ) -> None:
        self.name = name
        self.engine = engine
        scale = np.sqrt(2.0 / in_features)
        self.weight = rng.normal(0.0, scale, (in_features, out_features))
        self.bias = np.zeros(out_features) if bias else None
        self.weight_grad = np.zeros_like(self.weight)
        self.bias_grad = np.zeros(out_features) if bias else None
        self._x: np.ndarray | None = None
        self._grad_out: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        w = self.engine.quantize_tensor(self.weight)
        x = self.engine.quantize_tensor(x)
        if training:
            self._x = x
        out = self.engine.matmul(x, w, pre_quantized=True)
        if self.bias is not None:
            out = out + self.bias
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward before forward")
        grad_out = self.engine.quantize_tensor(grad_out)
        self._grad_out = grad_out
        w = self.engine.quantize_tensor(self.weight)
        # Weight gradient (A x G) and input gradient (G x W).
        self.weight_grad = self.engine.matmul(self._x.T, grad_out, pre_quantized=True)
        if self.bias is not None:
            self.bias_grad = grad_out.sum(axis=0)
        return self.engine.matmul(grad_out, w.T, pre_quantized=True)

    def parameters(self) -> list[tuple[np.ndarray, np.ndarray]]:
        params = [(self.weight, self.weight_grad)]
        if self.bias is not None:
            params.append((self.bias, self.bias_grad))
        return params

    def traced_tensors(self) -> dict[str, np.ndarray]:
        traced = {"W": self.weight.copy()}
        if self._x is not None:
            traced["I"] = self._x.copy()
        if self._grad_out is not None:
            traced["G"] = self._grad_out.copy()
        return traced


class Conv2d(Layer):
    """2-d convolution lowered to matmul through im2col.

    Args:
        in_channels: input channels.
        out_channels: filters.
        kernel: square kernel size.
        engine: shared arithmetic engine.
        rng: initializer RNG.
        stride: stride.
        padding: zero padding.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        engine: MatmulEngine,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
        name: str = "conv",
    ) -> None:
        self.name = name
        self.engine = engine
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel * kernel
        scale = np.sqrt(2.0 / fan_in)
        self.weight = rng.normal(0.0, scale, (fan_in, out_channels))
        self.bias = np.zeros(out_channels)
        self.weight_grad = np.zeros_like(self.weight)
        self.bias_grad = np.zeros_like(self.bias)
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None
        self._out_hw: tuple[int, int] = (0, 0)
        self._grad_out: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        x = self.engine.quantize_tensor(x)
        cols, out_h, out_w = im2col(x, self.kernel, self.stride, self.padding)
        w = self.engine.quantize_tensor(self.weight)
        out = self.engine.matmul(cols, w, pre_quantized=True) + self.bias
        batch = x.shape[0]
        if training:
            self._cols = cols
            self._x_shape = x.shape
            self._out_hw = (out_h, out_w)
        return out.reshape(batch, out_h, out_w, self.out_channels).transpose(
            0, 3, 1, 2
        )

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward before forward")
        batch = grad_out.shape[0]
        out_h, out_w = self._out_hw
        grad_mat = self.engine.quantize_tensor(
            grad_out.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
        )
        self._grad_out = grad_mat
        w = self.engine.quantize_tensor(self.weight)
        self.weight_grad = self.engine.matmul(self._cols.T, grad_mat, pre_quantized=True)
        self.bias_grad = grad_mat.sum(axis=0)
        grad_cols = self.engine.matmul(grad_mat, w.T, pre_quantized=True)
        return col2im(
            grad_cols, self._x_shape, self.kernel, self.stride, self.padding
        )

    def parameters(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return [(self.weight, self.weight_grad), (self.bias, self.bias_grad)]

    def traced_tensors(self) -> dict[str, np.ndarray]:
        traced = {"W": self.weight.copy()}
        if self._cols is not None:
            traced["I"] = self._cols.copy()
        if self._grad_out is not None:
            traced["G"] = self._grad_out.copy()
        return traced


class ReLU(Layer):
    """Rectified linear unit -- the source of natural activation sparsity."""

    name = "relu"

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        mask = x > 0.0
        if training:
            self._mask = mask
        return x * mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward before forward")
        return grad_out * self._mask


class MaxPool2d(Layer):
    """Max pooling with square window and matching stride."""

    name = "maxpool"

    def __init__(self, window: int = 2) -> None:
        self.window = window
        self._argmax: np.ndarray | None = None
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        batch, channels, height, width = x.shape
        w = self.window
        if height % w or width % w:
            raise ValueError(f"input {x.shape} not divisible by window {w}")
        view = x.reshape(batch, channels, height // w, w, width // w, w)
        flat = view.transpose(0, 1, 2, 4, 3, 5).reshape(
            batch, channels, height // w, width // w, w * w
        )
        arg = flat.argmax(axis=-1)
        if training:
            self._argmax = arg
            self._x_shape = x.shape
        return flat.max(axis=-1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._argmax is None or self._x_shape is None:
            raise RuntimeError("backward before forward")
        batch, channels, height, width = self._x_shape
        w = self.window
        grad_flat = np.zeros(
            (batch, channels, height // w, width // w, w * w)
        )
        b, c, i, j = np.indices(self._argmax.shape)
        grad_flat[b, c, i, j, self._argmax] = grad_out
        grad = grad_flat.reshape(
            batch, channels, height // w, width // w, w, w
        ).transpose(0, 1, 2, 4, 3, 5)
        return grad.reshape(batch, channels, height, width)


class Flatten(Layer):
    """Flatten all non-batch dimensions."""

    name = "flatten"

    def __init__(self) -> None:
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward before forward")
        return grad_out.reshape(self._shape)
