"""Dense tensors with reverse-mode automatic differentiation.

Every operation records a graph node on its output: the vector-Jacobian-
product closure and the nodes or leaves its gradient flows to. A batched
matmul, whose right operand has more than two axes, is the one exception: it
runs forward only and raises if an operand needs a gradient. A node holds
no value; each vjp captures only the arrays it reads, so an intermediate
value lives only while its caller holds it or a vjp needs it. GELU's vjp
reads one array, its slope, which the forward computes when it records a
node; it keeps neither the input nor the normal CDF. One exception lets a
node keep less than its vjp reads: a recorded 2-D matmul always forms its
weight's gradient and keeps, instead of its left operand, the recipe that the
operand's producer offers (``Tensor._remake``). A producer offers one only
when its own vjp already keeps the factors of its output, as LayerNorm keeps
``xhat``; the recipe rebuilds the output with the forward's elementwise
operations, so the weight gradient keeps its bits. ``backward``
walks the nodes once in reverse topological order, accumulates gradients on
the leaves and releases each vjp as it runs it, so a graph takes one backward.
Data lives in float64 numpy arrays; tests rely on 64-bit precision.
"""
from __future__ import annotations

from typing import Any, Callable

import numpy as np
from scipy.special import erf as _erf

_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))
_LN_EPS = 1e-5
# Values per GELU block. ``erf`` runs on its halves: a half-block's input, z and
# rational-form buffers (3 x 256 KB) stay in L2, and the block buffer plus the
# half-block ``z`` buffer keep no-grad GELU under two blocks beyond its output.
_BLOCK = 1 << 16
_ERF_CHUNK = _BLOCK // 2
# The numerator and denominator coefficients of cephes ``ndtr.c``'s ``erf`` on
# |u| <= 1, the branch scipy's ``erf`` takes there; the denominator is monic.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)

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


class _Node:
    """One recorded op: its vjp and, per input, where that input's gradient goes.

    A parent is the input's own node, the input itself when it is a
    requires-grad leaf, or ``None`` when the input needs no gradient.
    """

    __slots__ = ("parents", "vjp")

    def __init__(self, parents: tuple, vjp: Callable[[np.ndarray], tuple]):
        self.parents = parents
        self.vjp = vjp


class Tensor:
    """N-dimensional value array, optionally attached to a computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_node", "_remake")

    def __init__(self, data: Any, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._node: _Node | None = None
        # A recorded producer's recipe: rebuilds ``data`` bit for bit from arrays its vjp keeps.
        self._remake: Callable[[], np.ndarray] | None = None

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

    # -- graph plumbing -----------------------------------------------------

    @property
    def _vjp(self) -> Callable[[np.ndarray], tuple] | None:
        """The recorded vjp, ``None`` when unrecorded or released by backward; assignable."""
        return None if self._node is None else self._node.vjp

    @_vjp.setter
    def _vjp(self, vjp: Callable[[np.ndarray], tuple]) -> None:
        self._node.vjp = vjp

    @staticmethod
    def _records(parents) -> bool:
        """Whether an op over ``parents`` records a node, so its vjp's copies are needed."""
        return _grad_enabled and any(p.requires_grad for p in parents)

    @staticmethod
    def _result(data, parents, vjp) -> "Tensor":
        out = Tensor(data)
        if Tensor._records(parents):
            out.requires_grad = True
            out._node = _Node(tuple(p._node or (p if p.requires_grad else None)
                                    for p in parents), vjp)
        return out

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        a_shape, b_shape = self.shape, other.shape
        out_data = self.data + other.data

        def vjp(g):
            return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

        return Tensor._result(out_data, (self, other), vjp)

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        a_shape, b_shape = self.shape, other.shape
        out_data = self.data * other.data
        # Each gradient reads the other operand: keep an operand only when the
        # other one needs its gradient.
        a_data = self.data if other.requires_grad else None
        b_data = other.data if self.requires_grad else None

        def vjp(g):
            return (None if b_data is None else _unbroadcast(g * b_data, a_shape),
                    None if a_data is None else _unbroadcast(g * a_data, b_shape))

        return Tensor._result(out_data, (self, other), vjp)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        a_shape, b_shape = self.shape, other.shape
        if len(a_shape) < 2 or len(b_shape) < 2:
            raise ValueError(f"matmul requires >=2-d operands, got {a_shape} @ {b_shape}")
        if a_shape[-1] != b_shape[-2]:
            raise ValueError(f"matmul inner extents differ: {a_shape} @ {b_shape}")
        if len(b_shape) > 2:
            # Forward only: the gating unit's mixing GEMM runs here on operands
            # that need no gradient, so a tracer patching ``Tensor`` counts it.
            if Tensor._records((self, other)):
                raise ValueError(f"batched matmul {a_shape} @ {b_shape} records no "
                                 "gradient; its operands must not require one")
            return Tensor(np.matmul(self.data, other.data))
        # As in __mul__, each gradient reads only the other operand. The
        # weight's is always formed, from ``a``'s recipe instead of ``a`` when
        # it has one; the input's only when ``a`` needs it (images do not).
        remake = self._remake or (lambda a=self.data: a)
        b_data = other.data if self.requires_grad else None
        # Fold a's leading axes into one (N, C) @ (C, D) GEMM: BLAS runs one
        # large product far faster than a stack of small ones, and the weight
        # gradient comes out whole, with no stacked temporary to sum.
        C, D = b_shape
        out_data = (self.data.reshape(-1, C) @ other.data).reshape(a_shape[:-1] + (D,))

        def vjp(g):
            # Reshape here, not in the forward: a non-contiguous ``a`` would
            # otherwise keep a second copy alive until backward.
            g2 = g.reshape(-1, D)
            a = remake()
            dw = a.reshape(-1, C).T @ g2
            del a  # a rebuilt input is freed before the input gradient is made
            return None if b_data is None else (g2 @ b_data.T).reshape(a_shape), dw

        return Tensor._result(out_data, (self, other), vjp)

    # -- reductions ---------------------------------------------------------

    def sum(self, axis=None) -> "Tensor":
        a_shape = self.shape
        out_data = self.data.sum(axis=axis)

        def vjp(g):
            if axis is not None:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, a_shape).copy(),)

        return Tensor._result(out_data, (self,), vjp)


class Parameter(Tensor):
    """Trainable tensor with a hierarchical name (unique within a model)."""

    __slots__ = ("name",)

    def __init__(self, data: Any, name: str):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


# -- free functions ----------------------------------------------------------


def _erf_chunk(u: np.ndarray, z: np.ndarray, pq: np.ndarray) -> None:
    """Overwrite ``u`` with scipy's ``erf(u)``, bit for bit; ``z`` and ``pq`` are scratch.

    When every value lies in [-1, 1] (a NaN fails both tests) this runs the
    rational form cephes runs there, ``u * P(u*u) / Q(u*u)``, one multiply or
    add at a time in cephes's order, so every value rounds as scipy's does;
    it negates exactly for negative ``u``, as cephes's ``-erf(-u)`` does. Any
    other chunk calls scipy's ``erf``.
    """
    if not (u.min() >= -1.0 and u.max() <= 1.0):
        _erf(u, out=u)
        return
    np.multiply(u, u, out=z)
    np.multiply(z, _ERF_T[0], out=pq)
    for t in _ERF_T[1:-1]:  # P: Horner's rule from the leading coefficient
        pq += t
        pq *= z
    pq += _ERF_T[-1]
    u *= pq
    np.add(z, _ERF_U[0], out=pq)
    for c in _ERF_U[1:]:  # Q: the monic denominator
        pq *= z
        pq += c
    u /= pq


def gelu(x: Tensor) -> Tensor:
    """Gaussian Error Linear Unit, exact erf form.

    Runs in blocks of ``_BLOCK`` values with the CDF in one reused block
    buffer, so the forward allocates only its output and, when a node is
    recorded, the slope ``cdf + x * pdf``; the vjp keeps only the slope, not
    ``x`` or ``cdf``. Each block runs ``x * (0.5 * (1.0 + erf(x / sqrt 2)))``'s
    operations in that order, so every value rounds as the whole-array form
    with scipy's ``erf``. ``erf`` runs on half-blocks: one whose values all lie
    in [-1, 1] evaluates cephes's rational form in numpy (see ``_erf_chunk``),
    with the output block, not yet written, as its scratch; any other calls
    scipy. Near-init pre-activations fall mostly in the first kind.
    """
    x_flat = x.data.reshape(-1)
    out_data = np.empty(x.shape)  # C-contiguous, so its flat view below is no copy
    out_flat = out_data.reshape(-1)
    slope = np.empty(x.shape) if Tensor._records((x,)) else None
    cdf_buf = np.empty(min(x_flat.size, _BLOCK))
    z_buf = np.empty(min(x_flat.size, _ERF_CHUNK))
    for lo in range(0, x_flat.size, _BLOCK):
        xb = x_flat[lo:lo + _BLOCK]
        ob = out_flat[lo:lo + _BLOCK]
        cdf = cdf_buf[:xb.size]
        np.multiply(xb, _INV_SQRT2, out=cdf)
        for h in range(0, xb.size, _ERF_CHUNK):
            u = cdf[h:h + _ERF_CHUNK]
            _erf_chunk(u, z_buf[:u.size], ob[:u.size])
        cdf += 1.0
        cdf *= 0.5
        np.multiply(xb, cdf, out=ob)
        if slope is not None:
            # The closed form's operations in its order, so the gradient rounds
            # as g * (cdf + x * pdf) with pdf = _INV_SQRT_2PI * exp(-0.5 * x * x) does.
            sb = slope.reshape(-1)[lo:lo + _BLOCK]
            np.multiply(xb, -0.5, out=sb)
            sb *= xb
            np.exp(sb, out=sb)
            sb *= _INV_SQRT_2PI
            sb *= xb
            sb += cdf
    return Tensor._result(out_data, (x,), lambda g: (g * slope,))


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the last axis, then apply the affine (gamma, beta).

    The vjp keeps ``xhat`` and the inverse deviation. A recorded output also
    carries the recipe ``xhat * gamma + beta``, so a matmul it feeds keeps no
    copy of it.
    """
    C = x.shape[-1] if x.ndim else 0
    if C == 0:
        raise ValueError("layer_norm requires a non-empty channel axis")
    if gamma.shape != (C,) or beta.shape != (C,):
        raise ValueError(f"layer_norm affine shapes must be ({C},), got {gamma.shape}, {beta.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = centered * inv
    gamma_data, beta_data = gamma.data, beta.data
    out_data = xhat * gamma_data + beta_data

    def vjp(g):
        lead = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=lead)
        dbeta = g.sum(axis=lead)
        dxhat = g * gamma_data
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        return dx, dgamma, dbeta

    out = Tensor._result(out_data, (x, gamma, beta), vjp)
    if out._node is not None:
        out._remake = lambda: xhat * gamma_data + beta_data
    return out


def _topo_order(root) -> list:
    """Children-before-parents ordering of the nodes and leaves reachable from ``root``."""
    order: list = []
    visited: set[int] = set()
    stack: list[tuple[Any, bool]] = [(root, False)]
    while stack:
        item, expanded = stack.pop()
        if expanded:
            order.append(item)
            continue
        if id(item) in visited:
            continue
        visited.add(id(item))
        stack.append((item, True))
        if isinstance(item, _Node):
            for parent in item.parents:
                if parent is not None and id(parent) not in visited:
                    stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every reachable requires-grad leaf.

    Each graph node is visited exactly once and its vjp released as it runs,
    freeing what the vjp captured. A second call through a released node
    raises ``RuntimeError``; calls on freshly built graphs accumulate into
    existing leaf gradients.

    The vjps read parameters by reference: the matmul's input gradient reads
    the weight, and a rebuilt operand reads LayerNorm's gamma and beta. So a
    graph's backward must run before its parameters change.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    root = loss if loss._node is None else loss._node
    flowing: dict[int, np.ndarray] = {id(root): np.ones_like(loss.data)}
    for item in reversed(_topo_order(root)):
        g = flowing.pop(id(item), None)
        if g is None:
            continue
        if isinstance(item, Tensor):
            if item.requires_grad:
                item.grad = g.copy() if item.grad is None else item.grad + g
            continue
        vjp, item.vjp = item.vjp, None
        if vjp is None:
            raise RuntimeError("backward reached a node that an earlier backward has "
                               "released; a graph takes one backward, so build it again")
        for parent, pg in zip(item.parents, vjp(g)):
            if pg is None or parent is None:
                continue
            acc = flowing.get(id(parent))
            flowing[id(parent)] = pg if acc is None else acc + pg
