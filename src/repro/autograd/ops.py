"""Differentiable primitive operations.

Every public function here builds (at most) one tape node via
``Function.apply``.  Higher-level layers (``repro.nn``) compose these
primitives, which keeps each backward rule small and independently
testable against numeric differentiation.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.autograd.function import Context, Function, unbroadcast
from repro.autograd.tensor import Tensor

# ---------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------


class Add(Function):
    @staticmethod
    def forward(ctx: Context, a, b):
        ctx.a_shape, ctx.b_shape = a.shape, b.shape
        return a + b

    @staticmethod
    def backward(ctx: Context, grad):
        return unbroadcast(grad, ctx.a_shape), unbroadcast(grad, ctx.b_shape)


class Sub(Function):
    @staticmethod
    def forward(ctx: Context, a, b):
        ctx.a_shape, ctx.b_shape = a.shape, b.shape
        return a - b

    @staticmethod
    def backward(ctx: Context, grad):
        return unbroadcast(grad, ctx.a_shape), unbroadcast(-grad, ctx.b_shape)


class Mul(Function):
    @staticmethod
    def forward(ctx: Context, a, b):
        ctx.save_for_backward(a, b)
        return a * b

    @staticmethod
    def backward(ctx: Context, grad):
        a, b = ctx.saved
        return unbroadcast(grad * b, a.shape), unbroadcast(grad * a, b.shape)


class Div(Function):
    @staticmethod
    def forward(ctx: Context, a, b):
        ctx.save_for_backward(a, b)
        return a / b

    @staticmethod
    def backward(ctx: Context, grad):
        a, b = ctx.saved
        grad_a = unbroadcast(grad / b, a.shape)
        grad_b = unbroadcast(-grad * a / (b * b), b.shape)
        return grad_a, grad_b


class Neg(Function):
    @staticmethod
    def forward(ctx: Context, a):
        return -a

    @staticmethod
    def backward(ctx: Context, grad):
        return (-grad,)


class Pow(Function):
    @staticmethod
    def forward(ctx: Context, a, exponent: float):
        ctx.save_for_backward(a)
        ctx.exponent = exponent
        return a**exponent

    @staticmethod
    def backward(ctx: Context, grad):
        (a,) = ctx.saved
        return (grad * ctx.exponent * a ** (ctx.exponent - 1), None)


class Clone(Function):
    @staticmethod
    def forward(ctx: Context, a):
        return a.copy()

    @staticmethod
    def backward(ctx: Context, grad):
        return (grad,)


# ---------------------------------------------------------------------
# transcendental / activation
# ---------------------------------------------------------------------


class Exp(Function):
    @staticmethod
    def forward(ctx: Context, a):
        out = np.exp(a)
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx: Context, grad):
        (out,) = ctx.saved
        return (grad * out,)


class Log(Function):
    @staticmethod
    def forward(ctx: Context, a):
        ctx.save_for_backward(a)
        return np.log(a)

    @staticmethod
    def backward(ctx: Context, grad):
        (a,) = ctx.saved
        return (grad / a,)


class Tanh(Function):
    @staticmethod
    def forward(ctx: Context, a):
        out = np.tanh(a)
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx: Context, grad):
        (out,) = ctx.saved
        return (grad * (1.0 - out * out),)


class Sigmoid(Function):
    @staticmethod
    def forward(ctx: Context, a):
        out = 1.0 / (1.0 + np.exp(-a))
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx: Context, grad):
        (out,) = ctx.saved
        return (grad * out * (1.0 - out),)


class Relu(Function):
    @staticmethod
    def forward(ctx: Context, a):
        mask = a > 0
        ctx.save_for_backward(mask)
        return a * mask

    @staticmethod
    def backward(ctx: Context, grad):
        (mask,) = ctx.saved
        return (grad * mask,)


class Abs(Function):
    @staticmethod
    def forward(ctx: Context, a):
        ctx.save_for_backward(np.sign(a))
        return np.abs(a)

    @staticmethod
    def backward(ctx: Context, grad):
        (sign,) = ctx.saved
        return (grad * sign,)


class Sqrt(Function):
    @staticmethod
    def forward(ctx: Context, a):
        out = np.sqrt(a)
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx: Context, grad):
        (out,) = ctx.saved
        return (grad / (2.0 * out),)


class Clamp(Function):
    """Clip values into [low, high]; gradient is 1 inside, 0 outside."""

    @staticmethod
    def forward(ctx: Context, a, low=None, high=None):
        mask = np.ones_like(a, dtype=bool)
        if low is not None:
            mask &= a >= low
        if high is not None:
            mask &= a <= high
        ctx.save_for_backward(mask)
        return np.clip(a, low, high)

    @staticmethod
    def backward(ctx: Context, grad):
        (mask,) = ctx.saved
        return (grad * mask, None, None)


class Stack(Function):
    @staticmethod
    def forward(ctx: Context, *arrays, axis: int = 0):
        ctx.axis = axis
        return np.stack(arrays, axis=axis)

    @staticmethod
    def backward(ctx: Context, grad):
        pieces = np.moveaxis(grad, ctx.axis, 0)
        return tuple(pieces[i] for i in range(pieces.shape[0]))


class Min(Function):
    @staticmethod
    def forward(ctx: Context, a, axis=None, keepdims: bool = False):
        out = a.min(axis=axis, keepdims=keepdims)
        ctx.save_for_backward(a, out)
        ctx.axis = axis
        ctx.keepdims = keepdims
        return out

    @staticmethod
    def backward(ctx: Context, grad):
        a, out = ctx.saved
        out_b = _expand_reduced(out, a.shape, ctx.axis, ctx.keepdims)
        grad_b = _expand_reduced(grad, a.shape, ctx.axis, ctx.keepdims)
        mask = (a == out_b).astype(np.float64)
        counts = mask.sum(axis=ctx.axis, keepdims=True) if ctx.axis is not None else mask.sum()
        return (grad_b * mask / counts, None, None)


class Gelu(Function):
    """Gaussian error linear unit (tanh approximation, as in BERT)."""

    _C = np.sqrt(2.0 / np.pi)

    @staticmethod
    def forward(ctx: Context, a):
        # a*a*a, not a**3: numpy's float pow takes ~50x longer.
        inner = Gelu._C * (a + 0.044715 * (a * a * a))
        t = np.tanh(inner)
        ctx.save_for_backward(a, t)
        return 0.5 * a * (1.0 + t)

    @staticmethod
    def backward(ctx: Context, grad):
        a, t = ctx.saved
        d_inner = Gelu._C * (1.0 + 3 * 0.044715 * a**2)
        local = 0.5 * (1.0 + t) + 0.5 * a * (1.0 - t * t) * d_inner
        return (grad * local,)


# ---------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------


class MatMul(Function):
    @staticmethod
    def forward(ctx: Context, a, b):
        ctx.save_for_backward(a, b)
        return a @ b

    @staticmethod
    def backward(ctx: Context, grad):
        a, b = ctx.saved
        grad_a = grad @ np.swapaxes(b, -1, -2)
        grad_b = np.swapaxes(a, -1, -2) @ grad
        # Batched matmul broadcasts leading dims; fold them back.
        grad_a = unbroadcast(grad_a, a.shape)
        grad_b = unbroadcast(grad_b, b.shape)
        return grad_a, grad_b


class Transpose(Function):
    @staticmethod
    def forward(ctx: Context, a, axis0: int, axis1: int):
        ctx.axes = (axis0, axis1)
        return np.swapaxes(a, axis0, axis1)

    @staticmethod
    def backward(ctx: Context, grad):
        axis0, axis1 = ctx.axes
        return (np.swapaxes(grad, axis0, axis1), None, None)


class Reshape(Function):
    @staticmethod
    def forward(ctx: Context, a, shape: tuple):
        ctx.shape = a.shape
        return a.reshape(shape)

    @staticmethod
    def backward(ctx: Context, grad):
        return (grad.reshape(ctx.shape), None)


class GetItem(Function):
    """Indexing/slicing; backward scatter-adds, so fancy indexing with
    repeated indices (e.g. embedding lookups) accumulates correctly."""

    @staticmethod
    def forward(ctx: Context, a, index):
        ctx.shape = a.shape
        ctx.index = index
        return a[index]

    @staticmethod
    def backward(ctx: Context, grad):
        out = np.zeros(ctx.shape, dtype=np.float64)
        np.add.at(out, ctx.index, grad)
        return (out, None)


class Concat(Function):
    @staticmethod
    def forward(ctx: Context, *arrays, axis: int = 0):
        ctx.axis = axis
        ctx.sizes = [a.shape[axis] for a in arrays]
        return np.concatenate(arrays, axis=axis)

    @staticmethod
    def backward(ctx: Context, grad):
        splits = np.cumsum(ctx.sizes)[:-1]
        return tuple(np.split(grad, splits, axis=ctx.axis))


# ---------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------


class Sum(Function):
    @staticmethod
    def forward(ctx: Context, a, axis=None, keepdims: bool = False):
        ctx.shape = a.shape
        ctx.axis = axis
        ctx.keepdims = keepdims
        return a.sum(axis=axis, keepdims=keepdims)

    @staticmethod
    def backward(ctx: Context, grad):
        grad = _expand_reduced(grad, ctx.shape, ctx.axis, ctx.keepdims)
        return (np.broadcast_to(grad, ctx.shape).copy(), None, None)


class Mean(Function):
    @staticmethod
    def forward(ctx: Context, a, axis=None, keepdims: bool = False):
        ctx.shape = a.shape
        ctx.axis = axis
        ctx.keepdims = keepdims
        ctx.count = a.size if axis is None else np.prod(
            [a.shape[ax] for ax in _normalize_axis(axis, a.ndim)]
        )
        return a.mean(axis=axis, keepdims=keepdims)

    @staticmethod
    def backward(ctx: Context, grad):
        grad = _expand_reduced(grad, ctx.shape, ctx.axis, ctx.keepdims)
        out = np.broadcast_to(grad, ctx.shape) / ctx.count
        return (out.copy(), None, None)


class Max(Function):
    @staticmethod
    def forward(ctx: Context, a, axis=None, keepdims: bool = False):
        out = a.max(axis=axis, keepdims=keepdims)
        ctx.save_for_backward(a, out)
        ctx.axis = axis
        ctx.keepdims = keepdims
        return out

    @staticmethod
    def backward(ctx: Context, grad):
        a, out = ctx.saved
        out_b = _expand_reduced(out, a.shape, ctx.axis, ctx.keepdims)
        grad_b = _expand_reduced(grad, a.shape, ctx.axis, ctx.keepdims)
        mask = (a == out_b).astype(np.float64)
        # Split gradient evenly among ties, matching numeric-gradient tests.
        counts = mask.sum(axis=ctx.axis, keepdims=True) if ctx.axis is not None else mask.sum()
        return (grad_b * mask / counts, None, None)


class LogSoftmax(Function):
    @staticmethod
    def forward(ctx: Context, a, axis: int = -1):
        shifted = a - a.max(axis=axis, keepdims=True)
        logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out = shifted - logsumexp
        ctx.save_for_backward(out)
        ctx.axis = axis
        return out

    @staticmethod
    def backward(ctx: Context, grad):
        (out,) = ctx.saved
        softmax = np.exp(out)
        return (grad - softmax * grad.sum(axis=ctx.axis, keepdims=True), None)


class Softmax(Function):
    @staticmethod
    def forward(ctx: Context, a, axis: int = -1):
        shifted = a - a.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out = e / e.sum(axis=axis, keepdims=True)
        ctx.save_for_backward(out)
        ctx.axis = axis
        return out

    @staticmethod
    def backward(ctx: Context, grad):
        (out,) = ctx.saved
        dot = (grad * out).sum(axis=ctx.axis, keepdims=True)
        return (out * (grad - dot), None)


# ---------------------------------------------------------------------
# convolution / pooling (im2col based)
# ---------------------------------------------------------------------


class Conv2d(Function):
    """2-D cross-correlation over NCHW inputs via im2col.

    Weight layout is ``(out_channels, in_channels, kh, kw)``; stride and
    zero padding are symmetric.
    """

    @staticmethod
    def forward(ctx: Context, x, weight, stride: int = 1, padding: int = 0):
        n, c, h, w = x.shape
        oc, ic, kh, kw = weight.shape
        if ic != c:
            raise ValueError(f"conv2d channel mismatch: input {c}, weight {ic}")
        cols, out_h, out_w = _im2col(x, kh, kw, stride, padding)
        w_mat = weight.reshape(oc, -1)
        out = (cols @ w_mat.T).reshape(n, out_h, out_w, oc).transpose(0, 3, 1, 2)
        ctx.save_for_backward(cols, weight)
        ctx.x_shape = x.shape
        ctx.stride = stride
        ctx.padding = padding
        return np.ascontiguousarray(out)

    @staticmethod
    def backward(ctx: Context, grad):
        cols, weight = ctx.saved
        n, c, h, w = ctx.x_shape
        oc, ic, kh, kw = weight.shape
        grad_mat = grad.transpose(0, 2, 3, 1).reshape(-1, oc)
        grad_weight = (grad_mat.T @ cols).reshape(weight.shape)
        grad_cols = grad_mat @ weight.reshape(oc, -1)
        grad_x = _col2im(
            grad_cols, ctx.x_shape, kh, kw, ctx.stride, ctx.padding
        )
        return grad_x, grad_weight, None, None


class MaxPool2d(Function):
    @staticmethod
    def forward(ctx: Context, x, kernel: int = 2, stride: Optional[int] = None):
        stride = stride or kernel
        n, c, h, w = x.shape
        out_h = (h - kernel) // stride + 1
        out_w = (w - kernel) // stride + 1
        windows = np.lib.stride_tricks.sliding_window_view(x, (kernel, kernel), axis=(2, 3))
        windows = windows[:, :, ::stride, ::stride, :, :]
        flat = windows.reshape(n, c, out_h, out_w, -1)
        argmax = flat.argmax(axis=-1)
        out = np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0]
        ctx.argmax = argmax
        ctx.x_shape = x.shape
        ctx.kernel = kernel
        ctx.stride = stride
        return np.ascontiguousarray(out)

    @staticmethod
    def backward(ctx: Context, grad):
        n, c, h, w = ctx.x_shape
        kernel, stride = ctx.kernel, ctx.stride
        out_h, out_w = grad.shape[2], grad.shape[3]
        grad_x = np.zeros(ctx.x_shape, dtype=np.float64)
        ki = ctx.argmax // kernel
        kj = ctx.argmax % kernel
        ii = (np.arange(out_h)[None, None, :, None] * stride) + ki
        jj = (np.arange(out_w)[None, None, None, :] * stride) + kj
        nn = np.arange(n)[:, None, None, None]
        cc = np.arange(c)[None, :, None, None]
        np.add.at(grad_x, (nn, cc, ii, jj), grad)
        return (grad_x, None, None)


class AvgPool2d(Function):
    @staticmethod
    def forward(ctx: Context, x, kernel: int = 2, stride: Optional[int] = None):
        stride = stride or kernel
        n, c, h, w = x.shape
        out_h = (h - kernel) // stride + 1
        out_w = (w - kernel) // stride + 1
        windows = np.lib.stride_tricks.sliding_window_view(x, (kernel, kernel), axis=(2, 3))
        windows = windows[:, :, ::stride, ::stride, :, :]
        out = windows.mean(axis=(-1, -2))
        ctx.x_shape = x.shape
        ctx.kernel = kernel
        ctx.stride = stride
        return np.ascontiguousarray(out)

    @staticmethod
    def backward(ctx: Context, grad):
        kernel, stride = ctx.kernel, ctx.stride
        n, c, h, w = ctx.x_shape
        out_h, out_w = grad.shape[2], grad.shape[3]
        grad_x = np.zeros(ctx.x_shape, dtype=np.float64)
        share = grad / (kernel * kernel)
        for ki in range(kernel):
            for kj in range(kernel):
                grad_x[:, :, ki : ki + out_h * stride : stride, kj : kj + out_w * stride : stride] += share
        return (grad_x, None, None)


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int):
    n, c, h, w = x.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ph, pw = x.shape[2], x.shape[3]
    out_h = (ph - kh) // stride + 1
    out_w = (pw - kw) // stride + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :]
    # (N, out_h, out_w, C*kh*kw)
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * out_h * out_w, c * kh * kw)
    return np.ascontiguousarray(cols), out_h, out_w


def _col2im(cols: np.ndarray, x_shape: tuple, kh: int, kw: int, stride: int, padding: int):
    n, c, h, w = x_shape
    ph, pw = h + 2 * padding, w + 2 * padding
    out_h = (ph - kh) // stride + 1
    out_w = (pw - kw) // stride + 1
    padded = np.zeros((n, c, ph, pw), dtype=np.float64)
    cols = cols.reshape(n, out_h, out_w, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    for ki in range(kh):
        for kj in range(kw):
            padded[:, :, ki : ki + out_h * stride : stride, kj : kj + out_w * stride : stride] += cols[
                :, :, :, :, ki, kj
            ]
    if padding:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


# ---------------------------------------------------------------------
# public functional wrappers
# ---------------------------------------------------------------------


def add(a, b):
    return Add.apply(a, b)


def sub(a, b):
    return Sub.apply(a, b)


def mul(a, b):
    return Mul.apply(a, b)


def div(a, b):
    return Div.apply(a, b)


def neg(a):
    return Neg.apply(a)


def pow(a, exponent):  # noqa: A001 - mirrors torch naming
    return Pow.apply(a, exponent)


def clone(a):
    return Clone.apply(a)


def exp(a):
    return Exp.apply(a)


def log(a):
    return Log.apply(a)


def tanh(a):
    return Tanh.apply(a)


def sigmoid(a):
    return Sigmoid.apply(a)


def relu(a):
    return Relu.apply(a)


def gelu(a):
    return Gelu.apply(a)


def abs(a):  # noqa: A001 - mirrors torch naming
    return Abs.apply(a)


def sqrt(a):
    return Sqrt.apply(a)


def clamp(a, low=None, high=None):
    return Clamp.apply(a, low=low, high=high)


def stack(tensors, axis: int = 0):
    return Stack.apply(*tensors, axis=axis)


def min(a, axis=None, keepdims: bool = False):  # noqa: A001
    return Min.apply(a, axis=axis, keepdims=keepdims)


def split(a, sections: int, axis: int = 0):
    """Split into ``sections`` equal parts along ``axis`` (gradient flows
    through the underlying slicing)."""
    length = a.shape[axis]
    if length % sections:
        raise ValueError(f"cannot split axis of size {length} into {sections} parts")
    step = length // sections
    index: list = [slice(None)] * a.ndim
    parts = []
    for start in range(0, length, step):
        index[axis] = slice(start, start + step)
        parts.append(getitem(a, tuple(index)))
    return parts


def matmul(a, b):
    return MatMul.apply(a, b)


def transpose(a, axis0: int, axis1: int):
    return Transpose.apply(a, axis0, axis1)


def reshape(a, shape: tuple):
    return Reshape.apply(a, shape)


def getitem(a, index):
    return GetItem.apply(a, index)


def cat(tensors, axis: int = 0):
    return Concat.apply(*tensors, axis=axis)


def sum(a, axis=None, keepdims: bool = False):  # noqa: A001
    return Sum.apply(a, axis=axis, keepdims=keepdims)


def mean(a, axis=None, keepdims: bool = False):
    return Mean.apply(a, axis=axis, keepdims=keepdims)


def max(a, axis=None, keepdims: bool = False):  # noqa: A001
    return Max.apply(a, axis=axis, keepdims=keepdims)


def log_softmax(a, axis: int = -1):
    return LogSoftmax.apply(a, axis=axis)


def softmax(a, axis: int = -1):
    return Softmax.apply(a, axis=axis)


def conv2d(x, weight, stride: int = 1, padding: int = 0):
    return Conv2d.apply(x, weight, stride=stride, padding=padding)


def max_pool2d(x, kernel: int = 2, stride: Optional[int] = None):
    return MaxPool2d.apply(x, kernel=kernel, stride=stride)


def avg_pool2d(x, kernel: int = 2, stride: Optional[int] = None):
    return AvgPool2d.apply(x, kernel=kernel, stride=stride)


# ---------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------


def _normalize_axis(axis, ndim: int) -> Tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def _expand_reduced(grad: np.ndarray, shape: tuple, axis, keepdims: bool) -> np.ndarray:
    """Reinsert reduced axes so ``grad`` broadcasts against ``shape``."""
    grad = np.asarray(grad)
    if axis is None or keepdims:
        return grad.reshape([1] * len(shape)) if axis is None and not keepdims else grad
    for ax in sorted(_normalize_axis(axis, len(shape))):
        grad = np.expand_dims(grad, ax)
    return grad
