"""Dense tensors with reverse-mode automatic differentiation.

Every operation records a vector-Jacobian-product closure on its output;
``backward`` walks the recorded graph once in reverse topological order and
accumulates gradients on the leaves. Data lives in numpy arrays (float64 by
default; tests rely on 64-bit precision).
"""
from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np
from scipy.special import erf as _erf

_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))

_grad_enabled = True


class no_grad:
    """Context manager that disables graph recording inside its block."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast axes."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """N-dimensional value array, optionally attached to a computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data: Any, requires_grad: bool = False, dtype=np.float64):
        self.data = np.asarray(data, dtype=dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], tuple[np.ndarray | None, ...]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # -- graph plumbing -----------------------------------------------------

    @staticmethod
    def _result(data, parents, vjp) -> "Tensor":
        out = Tensor(data, dtype=data.dtype)
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._vjp = vjp
        return out

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self, other
        out_data = a.data + b.data

        def vjp(g):
            return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

        return Tensor._result(out_data, (a, b), vjp)

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self, other
        out_data = a.data * b.data

        def vjp(g):
            return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

        return Tensor._result(out_data, (a, b), vjp)

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        a = self
        return Tensor._result(-a.data, (a,), lambda g: (-g,))

    def __sub__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __rsub__(self, other) -> "Tensor":
        return Tensor(other) + (-self)

    def __truediv__(self, scalar) -> "Tensor":
        if isinstance(scalar, Tensor):
            raise TypeError("tensor/tensor division is not supported; multiply by a reciprocal")
        return self * (1.0 / scalar)

    def __matmul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self, other
        if a.ndim < 2 or b.ndim < 2:
            raise ValueError(f"matmul requires >=2-d operands, got {a.shape} @ {b.shape}")
        if a.shape[-1] != b.shape[-2]:
            raise ValueError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
        if b.ndim == 2:
            # Fold a's leading axes into one (N, C) @ (C, D) GEMM: BLAS runs one
            # large product far faster than a stack of small ones, and the
            # weight gradient comes out whole, with no stacked temporary to sum.
            C, D = b.shape
            out_data = (a.data.reshape(-1, C) @ b.data).reshape(a.shape[:-1] + (D,))

            def vjp(g):
                # Reshape here, not in the forward: a non-contiguous ``a`` would
                # otherwise keep a second copy alive until backward.
                g2 = g.reshape(-1, D)
                return (g2 @ b.data.T).reshape(a.shape), a.data.reshape(-1, C).T @ g2

            return Tensor._result(out_data, (a, b), vjp)
        out_data = np.matmul(a.data, b.data)

        def vjp(g):
            ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
            gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
            return ga, gb

        return Tensor._result(out_data, (a, b), vjp)

    # -- shape ops ----------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        out_data = a.data.reshape(shape)
        return Tensor._result(out_data, (a,), lambda g: (g.reshape(a.shape),))

    def transpose(self, axes: Sequence[int]) -> "Tensor":
        a = self
        axes = tuple(axes)
        inv = tuple(np.argsort(axes))
        out_data = a.data.transpose(axes)
        return Tensor._result(out_data, (a,), lambda g: (g.transpose(inv),))

    def __getitem__(self, key) -> "Tensor":
        a = self
        out_data = a.data[key]
        if not isinstance(out_data, np.ndarray):
            out_data = np.asarray(out_data)

        def vjp(g):
            buf = np.zeros_like(a.data)
            buf[key] += g
            return (buf,)

        return Tensor._result(out_data, (a,), vjp)

    def pad(self, pad_width: Sequence[tuple[int, int]]) -> "Tensor":
        """Zero-pad; ``pad_width`` is one (before, after) pair per axis."""
        a = self
        pad_width = tuple((int(lo), int(hi)) for lo, hi in pad_width)
        if len(pad_width) != a.ndim:
            raise ValueError(f"pad expects {a.ndim} (before, after) pairs, got {len(pad_width)}")
        out_data = np.pad(a.data, pad_width)
        crop = tuple(slice(lo, lo + n) for (lo, _), n in zip(pad_width, a.shape))
        return Tensor._result(out_data, (a,), lambda g: (g[crop],))

    # -- reductions & elementwise ---------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        out_data = a.data.sum(axis=axis, keepdims=keepdims)
        if not isinstance(out_data, np.ndarray):
            out_data = np.asarray(out_data)

        def vjp(g):
            if axis is None:
                return (np.broadcast_to(g, a.shape).copy(),)
            axes = axis if isinstance(axis, tuple) else (axis,)
            if not keepdims:
                g = np.expand_dims(g, axes)
            return (np.broadcast_to(g, a.shape).copy(),)

        return Tensor._result(out_data, (a,), vjp)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        if axis is None:
            count = a.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([a.shape[i] for i in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def exp(self) -> "Tensor":
        a = self
        out_data = np.exp(a.data)
        return Tensor._result(out_data, (a,), lambda g: (g * out_data,))

    def log(self) -> "Tensor":
        a = self
        out_data = np.log(a.data)
        return Tensor._result(out_data, (a,), lambda g: (g / a.data,))


class Parameter(Tensor):
    """Trainable tensor with a hierarchical name (unique within a model)."""

    __slots__ = ("name",)

    def __init__(self, data: Any, name: str, dtype=np.float64):
        super().__init__(data, requires_grad=True, dtype=dtype)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


# -- free functions ----------------------------------------------------------


def concatenate(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = tuple(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def vjp(g):
        return tuple(np.split(g, offsets, axis=axis))

    return Tensor._result(out_data, tensors, vjp)


def take(t: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of ``t`` along axis 0; gradients scatter-add back."""
    indices = np.asarray(indices)
    if indices.dtype.kind not in "iu":
        raise ValueError("take expects integer indices")
    out_data = t.data[indices]

    def vjp(g):
        buf = np.zeros_like(t.data)
        np.add.at(buf, indices, g)
        return (buf,)

    return Tensor._result(out_data, (t,), vjp)


def gelu(x: Tensor) -> Tensor:
    """Gaussian Error Linear Unit, exact erf form."""
    cdf = 0.5 * (1.0 + _erf(x.data * _INV_SQRT2))
    out_data = x.data * cdf

    def vjp(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x.data * x.data)
        return (g * (cdf + x.data * pdf),)

    return Tensor._result(out_data, (x,), vjp)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then apply the affine (gamma, beta)."""
    C = x.shape[-1] if x.ndim else 0
    if C == 0:
        raise ValueError("layer_norm requires a non-empty channel axis")
    if gamma.shape != (C,) or beta.shape != (C,):
        raise ValueError(f"layer_norm affine shapes must be ({C},), got {gamma.shape}, {beta.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out_data = xhat * gamma.data + beta.data

    def vjp(g):
        lead = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=lead)
        dbeta = g.sum(axis=lead)
        dxhat = g * gamma.data
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        return dx, dgamma, dbeta

    return Tensor._result(out_data, (x, gamma, beta), vjp)


def _topo_order(root: Tensor) -> list[Tensor]:
    """Children-before-parents ordering of the graph reachable from ``root``."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every reachable requires-grad leaf.

    Each graph node is visited exactly once; repeated calls on freshly built
    graphs accumulate into existing leaf gradients.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    order = _topo_order(loss)
    flowing: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = flowing.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            if node.requires_grad:
                node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            acc = flowing.get(id(parent))
            flowing[id(parent)] = pg if acc is None else acc + pg
