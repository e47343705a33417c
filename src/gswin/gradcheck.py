"""Finite-difference verification of analytic gradients.

Central differences with step 1e-6 in float64 resolve gradients to roughly
1e-10 relative accuracy, far below the tolerances asserted by callers
(1e-5 for individual operations, 1e-4 for whole-model losses).
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .sgu import init_sgu_params, multi_head_window_sgu
from .tensor import Tensor, backward
from .train import cross_entropy
from .windows import WindowGrid

_STEP = 1e-6


def numerical_grad(f: Callable[[], Tensor], wrt: Tensor) -> np.ndarray:
    """Central-difference gradient of the scalar ``f()`` w.r.t. ``wrt.data``.

    ``f`` must re-read ``wrt.data`` on every call (i.e. rebuild its graph).
    """
    flat = wrt.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + _STEP
        up = float(f().data)
        flat[i] = keep - _STEP
        down = float(f().data)
        flat[i] = keep
        grad[i] = (up - down) / (2.0 * _STEP)
    return grad.reshape(wrt.shape)


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-6) -> float:
    """Worst elementwise |a - n| / max(|a|, |n|, floor)."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_gradients(
    f: Callable[[], Tensor],
    inputs: Sequence[Tensor],
    tol: float = 1e-5,
    floor: float = 1e-6,
) -> float:
    """Compare analytic and numeric gradients of scalar ``f()`` for every input.

    ``floor`` guards the relative-error denominator: entries whose gradient
    magnitude sits below it are measured against the floor instead, since
    central differences at this step cannot resolve them better than the
    roundoff of the loss itself. Deep compositions need a larger floor
    (~1e-4) than single ops because their losses are larger and noisier.

    Returns the worst relative error observed; raises AssertionError above
    ``tol``. Existing gradients on the inputs are cleared first.
    """
    for t in inputs:
        t.grad = None
    loss = f()
    backward(loss)
    worst = 0.0
    for t in inputs:
        assert t.grad is not None, f"no gradient reached input with shape {t.shape}"
        num = numerical_grad(f, t)
        err = max_rel_err(t.grad, num, floor=floor)
        worst = max(worst, err)
        assert err < tol, f"gradient mismatch {err:.3e} >= {tol:.0e} for input shape {t.shape}"
    return worst


def op_gradcheck_suite(seed: int = 0, tol: float = 1e-5) -> list[tuple[str, float]]:
    """Finite-difference check of every op that records a graph node.

    Returns ``(op name, worst relative error)`` per op; raises AssertionError
    at the first op whose error reaches ``tol``.
    """
    rng = np.random.default_rng(seed)

    def leaf(*shape):
        return Tensor(rng.standard_normal(shape), requires_grad=True)

    a = leaf(3, 4)
    b = leaf(3, 4)
    row = leaf(4)
    m = leaf(2, 3, 4)
    n = leaf(4, 5)
    gamma = leaf(6)
    beta = leaf(6)
    ln_x = leaf(2, 5, 6)
    labels = rng.integers(0, 4, size=3)
    gate = init_sgu_params((2, 2), heads=2, prefix="gate")
    for p in (gate.w_win, gate.b_win, gate.rel_table):
        p.data = rng.standard_normal(p.shape)
    gate_x = leaf(1, 3, 3, 8)
    gate_grid = WindowGrid((3, 3), (2, 2), offset=(1, 1))
    gate_r = Tensor(rng.standard_normal((1, 3, 3, 4)))

    cases: list[tuple[str, Callable[[], Tensor], tuple[Tensor, ...]]] = [
        ("add", lambda: ((a + row) * b).sum(), (a, row, b)),
        ("mul", lambda: (a * b * 0.7).sum(), (a, b)),
        ("matmul", lambda: ((m @ n) * 0.1).sum(), (m, n)),
        ("reshape", lambda: (m.reshape(6, 4) @ n).sum(), (m,)),
        ("transpose", lambda: (m.transpose((2, 0, 1)) * 0.3).sum(), (m,)),
        ("sum", lambda: (a.sum(axis=0, keepdims=True) * row.reshape(1, 4)).sum(), (a, row)),
        ("mean", lambda: (m.mean(axis=(0, 2)) * 2.0).sum(), (m,)),
        ("gelu", lambda: T.gelu(a).sum(), (a,)),
        ("layer_norm", lambda: (T.layer_norm(ln_x, gamma, beta) * 0.2).sum(), (ln_x, gamma, beta)),
        ("cross_entropy", lambda: cross_entropy(a, labels, smoothing=0.1), (a,)),
        ("multi_head_window_sgu", lambda: (multi_head_window_sgu(gate_x, gate, gate_grid)
                                           * gate_r).sum(),
         (gate_x, gate.w_win, gate.b_win, gate.rel_table)),
    ]
    results = []
    for name, f, inputs in cases:
        err = check_gradients(f, inputs, tol=tol)
        results.append((name, err))
    return results
