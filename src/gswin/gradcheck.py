"""Finite-difference verification of analytic gradients, at three scopes.

``SCOPES`` maps each scope to its check: ``ops`` (every op that records a
graph node), ``block`` (one shifted block) and ``model`` (the whole model
under its loss). Each takes a seed and returns ``(name, worst relative
error)`` pairs, or raises AssertionError on a mismatch.

Central differences with step 1e-6 in float64 are bound by the roundoff of
the loss, not by truncation: an entry whose gradient comes out of
cancellation can differ from the analytic one by about 1e-5 relative, the
tolerance for individual operations (1e-4 for a block and a whole model).
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .model import GswinBlock, GswinModel, ModelConfig, space_to_depth
from .sgu import init_sgu_params, multi_head_window_sgu
from .tensor import Tensor, backward
from .train import cross_entropy
from .windows import WindowGrid, shift_offset

_STEP = 1e-6

# Smallest legal four-stage model; finite differences over every parameter
# stay in CLI-friendly time only at this size.
GRADCHECK_CONFIG = ModelConfig(base_channels=4, depths=(1, 1, 1, 1), heads=2,
                               window=(4, 4), expansion=2, num_classes=2,
                               image_size=32)


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
    ``tol`` (raised, not asserted, so ``python -O`` keeps the verdict).
    Existing gradients on the inputs are cleared first.
    """
    for t in inputs:
        t.grad = None
    loss = f()
    backward(loss)
    worst = 0.0
    for t in inputs:
        if t.grad is None:
            raise AssertionError(f"no gradient reached input with shape {t.shape}")
        num = numerical_grad(f, t)
        err = max_rel_err(t.grad, num, floor=floor)
        worst = max(worst, err)
        if not err < tol:
            raise AssertionError(
                f"gradient mismatch {err:.3e} >= {tol:.0e} for input shape {t.shape}")
    return worst


def op_gradcheck_suite(seed: int = 0) -> list[tuple[str, float]]:
    """Finite-difference check of every op that records a graph node.

    Returns ``(op name, worst relative error)`` per op; raises AssertionError
    at the first op whose error reaches :func:`check_gradients`' default 1e-5.
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
    # a zero-padded grid and a rolled one, whose four window types are one window each
    gate_grids = (WindowGrid((3, 3), (2, 2), offset=(1, 1)),
                  WindowGrid((6, 8), (3, 4), offset=(1, 2)))
    gates = [init_sgu_params(grid.window, heads=2, prefix="gate") for grid in gate_grids]
    for gate in gates:
        for p in (gate.w_win, gate.b_win, gate.rel_table):
            p.data = rng.standard_normal(p.shape)
    gate_xs = [leaf(1, *grid.image, 8) for grid in gate_grids]
    gate_rs = [Tensor(rng.standard_normal((1, *grid.image, 4))) for grid in gate_grids]
    gate_inputs = tuple(t for x, g in zip(gate_xs, gates)
                        for t in (x, g.w_win, g.b_win, g.rel_table))
    fold_x = leaf(2, 4, 6, 3)
    fold_r = Tensor(rng.standard_normal((2, 2, 3, 12)))
    ln_r = Tensor(rng.standard_normal(ln_x.shape))

    cases: list[tuple[str, Callable[[], Tensor], tuple[Tensor, ...]]] = [
        ("add", lambda: ((a + row) * b).sum(), (a, row, b)),
        ("mul", lambda: (a * b * 0.7).sum(), (a, b)),
        ("matmul", lambda: ((m @ n) * 0.1).sum(), (m, n)),
        ("sum", lambda: (a.sum(axis=0) * row).sum(), (a, row)),
        ("space_to_depth", lambda: (space_to_depth(fold_x, 2) * fold_r).sum(), (fold_x,)),
        ("gelu", lambda: T.gelu(a).sum(), (a,)),
        ("layer_norm", lambda: (T.layer_norm(ln_x, gamma, beta) * ln_r).sum(), (ln_x, gamma, beta)),
        ("cross_entropy", lambda: cross_entropy(a, labels, smoothing=0.1), (a,)),
        ("multi_head_window_sgu", lambda: sum(
            ((multi_head_window_sgu(x, g, grid) * r).sum()
             for x, g, grid, r in zip(gate_xs, gates, gate_grids, gate_rs)), Tensor(0.0)),
         gate_inputs),
    ]
    return [(name, check_gradients(f, inputs)) for name, f, inputs in cases]


def block_gradcheck(seed: int) -> list[tuple[str, float]]:
    """One shifted block on an 8x8 map, every parameter plus the input."""
    rng = np.random.default_rng(seed)
    grid = WindowGrid((8, 8), (4, 4), offset=shift_offset((4, 4), True))
    block = GswinBlock(dim=4, grid=grid, heads=2, expansion=2, p_drop=0.0,
                       rel_bias=True, prefix="block", rng=rng)
    for p in (block.sgu.w_win, block.sgu.b_win, block.sgu.rel_table):
        p.data += 0.3 * rng.standard_normal(p.shape)
    x = Tensor(rng.standard_normal((2, 8, 8, 4)), requires_grad=True)
    mask = rng.standard_normal((2, 8, 8, 4))

    def loss():
        return (block.forward(x, training=False, rng=None) * mask).sum()

    return [("block", check_gradients(loss, [x] + block.parameters(), tol=1e-4, floor=1e-4))]


def model_gradcheck(seed: int) -> list[tuple[str, float]]:
    """``GRADCHECK_CONFIG`` + smoothed cross-entropy, every parameter."""
    model = GswinModel(GRADCHECK_CONFIG, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for p in model.parameters():
        if p.name.endswith((".w_win", ".b_win", ".rel_table")):
            p.data += 0.3 * rng.standard_normal(p.shape)
    images = rng.standard_normal((2, 32, 32, 3))
    labels = np.array([0, 1])

    def loss():
        return cross_entropy(model.forward(Tensor(images)), labels, smoothing=0.1)

    return [("model", check_gradients(loss, model.parameters(), tol=1e-4, floor=1e-4))]


SCOPES: dict[str, Callable[[int], list[tuple[str, float]]]] = {
    "ops": op_gradcheck_suite, "block": block_gradcheck, "model": model_gradcheck}
