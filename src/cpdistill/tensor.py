"""Minimal reverse-mode autodiff over dense numpy arrays.

The kernel set is deliberately closed: matmul, add, sub, elementwise
mul/div, layer norm, softmax, GELU, row lookup/scatter (embedding + MoE
dispatch), top-k selection, log, exp, sqrt, concatenate, slicing, and the
reshape/transpose/sum plumbing needed to compose losses; `tmean` is the
mean over every element and takes no axis. The student defaults to
float32 (`cpdistill.model.ModelConfig`); the gradient checks against finite
differences run in float64, whose tolerances float32 would not meet.
`DimensionError` and `NumericError` are the `cpdistill.errors` classes.

Numerically risky kernels (matmul, div, log, exp, sqrt, gelu, softmax,
layer_norm) validate their outputs and raise NumericError naming the
kernel. Pure data movement (add, sub, mul, concat, slice, reshape, transpose)
cannot create non-finite values from finite inputs and is left unchecked.

Gradients are accumulated without defensive copies. A view of a child's
gradient (reshape, transpose, concat, broadcast sums) is stored as it is and
copied only when a second contribution has to be added in place; arrays a
backward allocated for one edge are owned and summed into directly. Row
gathers and scatters (`take_rows`, `put_rows`) assign directly when their
row indices are unique, as in a top-1 MoE dispatch, and use `np.add.at` only
when an index repeats (top-k > 1 sends a token to several experts). A basic
slice adds its gradient into the matching part of its parent's gradient.
A graph is swept backward once: GELU's backward reuses its saved buffers in
place.

A kernel's backward computes an input's gradient only when that input
``requires_grad`` (PyTorch's ``needs_input_grad``): from stage 2 on the
frozen backbone's weights, and activations that depend on no trainable
tensor, cost no gradient arithmetic. The gradient a trainable input gets is
computed the same way either way, so skipping a frozen one changes no bit.
The order of the sweep does set the bits: a tensor read by several kernels
sums its gradient contributions in that order, so it is part of the
determinism contract.

Everything here is single-threaded and deterministic: same inputs, same
bits out.
"""
from __future__ import annotations

import contextlib
import math
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, NumericError

__all__ = [
    "Tensor",
    "DimensionError",
    "NumericError",
    "no_grad",
    "add",
    "mul",
    "sub",
    "div",
    "matmul",
    "transpose",
    "reshape",
    "tsum",
    "tmean",
    "log",
    "exp",
    "sqrt",
    "gelu",
    "softmax",
    "layer_norm",
    "take_rows",
    "put_rows",
    "topk_indices",
    "concat",
]


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (inference fast path)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _as_float_array(x) -> np.ndarray:
    arr = np.asarray(x)
    if arr.dtype.kind != "f":  # not np.issubdtype: every Tensor passes here
        arr = arr.astype(np.float64)
    return arr


class Tensor:
    """A dense float array plus an optional backward edge into the graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_grad_owned")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_float_array(data)
        self.grad: np.ndarray | None = None
        # True when `grad` was allocated for this tensor alone and may be
        # added to in place; False when it is a child's array or a view of it
        self._grad_owned = False
        self.requires_grad = bool(requires_grad) and _grad_enabled
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(()))

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar output."""
        if self.data.size != 1:
            raise DimensionError("backward() requires a scalar output")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        self._grad_owned = True
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # operator sugar over the kernel functions, with the tensor on the left;
    # python scalars adopt the tensor's dtype so float32 graphs stay float32
    def __add__(self, other):
        return add(self, _ensure(other, self))

    def __mul__(self, other):
        return mul(self, _ensure(other, self))

    def __sub__(self, other):
        return sub(self, _ensure(other, self))

    def __truediv__(self, other):
        return div(self, _ensure(other, self))

    def __matmul__(self, other):
        return matmul(self, _ensure(other, self))

    def __getitem__(self, key):
        return _getitem(self, key)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _ensure(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    if np.isscalar(x):
        return Tensor(np.asarray(x, dtype=like.data.dtype))
    return Tensor(x)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _accum(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """Add a gradient contribution. ``fresh`` marks arrays the caller
    allocated exclusively for this edge. Other arrays (a child's gradient or
    a view of it) are kept as they are; a second contribution then makes a
    new sum instead of writing into memory a sibling may share."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g
        t._grad_owned = fresh
    elif t._grad_owned:
        t.grad += g
    else:
        t.grad = t.grad + g
        t._grad_owned = True


def _own_grad(t: Tensor) -> np.ndarray:
    """``t``'s gradient as an array it owns, zeros when it has none yet."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    elif not t._grad_owned:
        t.grad = t.grad.copy()
    t._grad_owned = True
    return t.grad


def _unique_rows(idx: np.ndarray, n: int) -> bool:
    """True when no row of an n-row axis is indexed twice."""
    if idx.size < 2:
        return True
    hit = np.zeros(n, dtype=bool)
    hit[idx] = True
    return int(np.count_nonzero(hit)) == idx.size


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a gradient back to the shape it was broadcast from."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _check_finite(data: np.ndarray, kernel: str) -> None:
    # single reduction, no temporaries: nan/inf poison the sum, and finite
    # activations at training scale cannot overflow it
    if not math.isfinite(np.add.reduce(data, axis=None)):
        raise NumericError(f"{kernel} produced non-finite values")


# ---------------------------------------------------------------------------
# arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            ga = _unbroadcast(g, a.shape)
            _accum(a, ga, fresh=ga is not g)
        if b.requires_grad:
            gb = _unbroadcast(g, b.shape)
            _accum(b, gb, fresh=gb is not g)

    return _make(data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            ga = _unbroadcast(g, a.shape)
            _accum(a, ga, fresh=ga is not g)
        if b.requires_grad:
            _accum(b, _unbroadcast(-g, b.shape), fresh=True)

    return _make(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.shape), fresh=True)
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.shape), fresh=True)

    return _make(data, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        data = a.data / b.data
    _check_finite(data, "div")

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g / b.data, a.shape), fresh=True)
        if b.requires_grad:
            _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape), fresh=True)

    return _make(data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError("matmul operands must be at least 2-D")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul inner dims differ: {a.shape} @ {b.shape}"
        )
    # stacked @ 2-D collapses to one flat GEMM; the weight gradient then
    # needs no stacked temporary + reduction
    flat = a.ndim > 2 and b.ndim == 2
    if flat:
        k = a.shape[-1]
        a2 = a.data.reshape(-1, k)
        data = (a2 @ b.data).reshape(a.shape[:-1] + (b.shape[-1],))
    else:
        data = a.data @ b.data
    _check_finite(data, "matmul")

    def backward(g):
        if flat:
            g2 = g.reshape(-1, g.shape[-1])
            if a.requires_grad:
                _accum(a, (g2 @ b.data.T).reshape(a.shape), fresh=True)
            if b.requires_grad:
                _accum(b, a2.T @ g2, fresh=True)
        else:
            if a.requires_grad:
                _accum(a, _unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape), fresh=True)
            if b.requires_grad:
                _accum(b, _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape), fresh=True)

    return _make(data, (a, b), backward)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inv = tuple(sorted(range(len(axes)), key=axes.__getitem__))

    def backward(g):
        _accum(a, g.transpose(inv))  # view of g: not fresh

    return _make(a.data.transpose(axes), (a,), backward)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    old = a.shape

    def backward(g):
        _accum(a, g.reshape(old))  # usually a view of g: not fresh

    return _make(a.data.reshape(shape), (a,), backward)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.shape))
            return
        if not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            for ax in sorted(ax % a.ndim for ax in axes):
                g = np.expand_dims(g, ax)
        _accum(a, np.broadcast_to(g, a.shape))

    return _make(data, (a,), backward)


def tmean(a: Tensor) -> Tensor:
    return tsum(a) * (1.0 / a.data.size)


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def log(a: Tensor) -> Tensor:
    with np.errstate(invalid="ignore", divide="ignore"):
        data = np.log(a.data)
    _check_finite(data, "log")

    def backward(g):
        _accum(a, g / a.data, fresh=True)

    return _make(data, (a,), backward)


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        data = np.exp(a.data)
    _check_finite(data, "exp")

    def backward(g):
        _accum(a, g * data, fresh=True)

    return _make(data, (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    with np.errstate(invalid="ignore"):
        data = np.sqrt(a.data)
    _check_finite(data, "sqrt")

    def backward(g):
        _accum(a, g * 0.5 / data, fresh=True)

    return _make(data, (a,), backward)


_GELU_C = float(np.sqrt(2.0 / np.pi))


def gelu(a: Tensor) -> Tensor:
    """GELU, tanh approximation (0.5 x (1 + tanh(c (x + 0.044715 x^3)))).

    Forward and backward run in place on a few buffers, in the operation
    order of the formula, so the bits equal the out-of-place expression."""
    x = a.data
    x2 = x * x
    t = x2 * 0.044715
    t *= x
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    data = x * 0.5
    data *= t + 1.0
    _check_finite(data, "gelu")

    def backward(g):
        # dinner = c (1 + 3 * 0.044715 x^2), built in x2's buffer
        dinner = x2
        dinner *= 3 * 0.044715
        dinner += 1.0
        dinner *= _GELU_C
        # 0.5 x (1 - t^2) dinner + 0.5 (1 + t), times g
        grad = t * t
        np.subtract(1.0, grad, out=grad)
        grad *= x * 0.5
        grad *= dinner
        half = t + 1.0
        half *= 0.5
        grad += half
        grad *= g
        _accum(a, grad, fresh=True)

    return _make(data, (a,), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Row-stabilized softmax (max subtracted before exponentiation)."""
    x = a.data
    if x.flags.c_contiguous:
        # the row max of a contiguous copy with the axis swapped first is an
        # elementwise max across rows, far faster than a reduction along a
        # short last axis. A max does not round, and `x - m` still takes x's
        # memory order, so the sums below and the bits are the same; for
        # another order, this m would change the order of `e`'s sums
        m = np.ascontiguousarray(x.swapaxes(axis, 0)).max(axis=0, keepdims=True)
        m = m.swapaxes(0, axis)
    else:
        m = x.max(axis=axis, keepdims=True)
    e = np.exp(x - m)
    s = e.sum(axis=axis, keepdims=True)
    data = e / s
    _check_finite(data, "softmax")

    def backward(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        _accum(a, data * (g - dot), fresh=True)

    return _make(data, (a,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1] if x.ndim else 0
    if d < 1:
        raise DimensionError("layer_norm needs a non-empty last axis")
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"layer_norm gain/bias must have shape ({d},), "
            f"got {gain.shape} and {bias.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    data = xhat * gain.data + bias.data
    _check_finite(data, "layer_norm")

    def backward(g):
        if x.requires_grad:
            gxhat = g * gain.data
            gx = inv * (
                gxhat
                - gxhat.mean(axis=-1, keepdims=True)
                - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True)
            )
            _accum(x, gx, fresh=True)
        lead = tuple(range(g.ndim - 1))
        if gain.requires_grad:
            _accum(gain, (g * xhat).sum(axis=lead), fresh=True)
        if bias.requires_grad:
            _accum(bias, g.sum(axis=lead), fresh=True)

    return _make(data, (x, gain, bias), backward)


# ---------------------------------------------------------------------------
# data movement


def take_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Gather rows along the first axis (embedding lookup / MoE dispatch).

    The backward assigns into the rows when ``idx`` has no repeats and
    scatter-adds with ``np.add.at`` when it does."""
    idx = np.asarray(idx, dtype=np.intp)
    data = a.data[idx]

    def backward(g):
        if _unique_rows(idx, a.shape[0]):
            _own_grad(a)[idx] += g
        else:
            np.add.at(_own_grad(a), idx, g)

    return _make(data, (a,), backward)


def put_rows(rows: Tensor, idx: np.ndarray, n: int) -> Tensor:
    """Scatter rows into a zero (n, ...) tensor (MoE combine): a direct
    assignment when ``idx`` has no repeats, a sum per row when it does."""
    idx = np.asarray(idx, dtype=np.intp)
    data = np.zeros((n,) + rows.shape[1:], dtype=rows.dtype)
    if _unique_rows(idx, n):
        data[idx] = rows.data
    else:
        np.add.at(data, idx, rows.data)

    def backward(g):
        _accum(rows, g[idx], fresh=True)  # fancy indexing copies

    return _make(data, (rows,), backward)


def topk_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries along the last axis.

    Ties resolve to the lowest index (the first maximum for k = 1, a stable
    sort on negated scores otherwise), which pins routing behaviour for
    tests. Selection is not differentiable.
    """
    if k < 1 or k > scores.shape[-1]:
        raise DimensionError(f"top-k k={k} out of range for {scores.shape}")
    if k == 1:  # argmax picks the first maximum, the lowest index
        return np.argmax(scores, axis=-1)[..., None]
    return np.argsort(-scores, axis=-1, kind="stable")[..., :k]


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            key = [slice(None)] * g.ndim
            key[axis] = slice(lo, hi)
            _accum(t, g[tuple(key)])

    return _make(data, tensors, backward)


def _getitem(a: Tensor, key) -> Tensor:
    # basic indexing only (ints/slices); advanced indexing goes via take_rows
    data = a.data[key]

    def backward(g):
        _own_grad(a)[key] += g

    return _make(data, (a,), backward)

