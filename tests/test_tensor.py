"""Autodiff engine: every primitive against central finite differences."""
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

import gswin
import gswin.tensor as gtensor
from gswin.tensor import (
    _BLOCK,
    _ERF_CHUNK,
    Tensor,
    Parameter,
    _Node,
    _topo_order,
    backward,
    gelu,
    layer_norm,
    no_grad,
)
from gswin.gradcheck import check_gradients, max_rel_err, numerical_grad, op_gradcheck_suite
from gswin.model import space_to_depth

RNG = np.random.default_rng(0)


def randt(*shape, scale=1.0):
    return Tensor(RNG.standard_normal(shape) * scale, requires_grad=True)


def test_add_broadcast_grad():
    a = randt(3, 4)
    b = randt(4)
    check_gradients(lambda: ((a + b) * (a + b)).sum(), [a, b])


def test_mul_broadcast_grad():
    a = randt(2, 3, 4)
    b = randt(3, 4)
    check_gradients(lambda: (a * b).sum(), [a, b])


def test_size_one_broadcast_of_an_operand_that_needs_a_gradient_raises():
    # Its gradient would need a sum over the size-1 axis, which the engine does not form.
    rng = np.random.default_rng(1)
    a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((1, 4)), requires_grad=True)
    for op in (lambda: a * b, lambda: b * a, lambda: a + b):
        with pytest.raises(ValueError, match=r"\(1, 4\)"):
            op()
    with no_grad():
        assert (a * b).shape == (2, 3, 4)
    # A drop-path mask broadcasts along size-1 axes, but needs no gradient.
    mask = Tensor(np.array([0.0, 2.0]).reshape(2, 1, 1))
    backward((a * mask).sum())
    np.testing.assert_array_equal(a.grad, np.broadcast_to(mask.data, a.shape))


def test_same_shape_operands_get_the_gradient_itself():
    a, b = randt(2, 3), randt(2, 3)
    g = np.ones((2, 3))
    ga, gb = (a + b)._node.vjp(g)
    assert ga is g and gb is g


def test_matmul_grad():
    a = randt(3, 4)
    b = randt(4, 5)
    check_gradients(lambda: (a @ b).sum(), [a, b])


def _folded_matmul_against_slices(a, w):
    """Forward and both gradients of ``a @ w`` against per-slice np.matmul."""
    G = RNG.standard_normal(a.shape[:-1] + (w.shape[1],))
    out = a @ w
    backward((out * Tensor(G)).sum())
    ref_out = np.empty(out.shape)
    ref_ga = np.empty(a.shape)
    ref_gw = np.zeros(w.shape)
    for idx in np.ndindex(a.shape[:-2]):
        ref_out[idx] = np.matmul(a.data[idx], w.data)
        ref_ga[idx] = np.matmul(G[idx], w.data.T)
        ref_gw += np.matmul(a.data[idx].T, G[idx])
    np.testing.assert_allclose(out.data, ref_out, rtol=0, atol=1e-12)
    np.testing.assert_allclose(a.grad, ref_ga, rtol=0, atol=1e-12)
    np.testing.assert_allclose(w.grad, ref_gw, rtol=0, atol=1e-12)


def test_matmul_folds_leading_axes_4d():
    _folded_matmul_against_slices(randt(2, 3, 5, 4), randt(4, 6))


def test_matmul_folds_leading_axes_3d():
    _folded_matmul_against_slices(randt(3, 7, 4), randt(4, 5))


def test_matmul_folds_non_contiguous_left_operand():
    a = Tensor(RNG.standard_normal((5, 3, 4)).transpose(1, 0, 2), requires_grad=True)
    assert not a.data.flags.c_contiguous
    _folded_matmul_against_slices(a, randt(4, 6))


def test_matmul_folded_gradcheck():
    a = randt(2, 3, 2, 4)
    w = randt(4, 3)
    check_gradients(lambda: ((a @ w) * (a @ w)).sum(), [a, w])


def test_batched_matmul_runs_forward_only():
    w = Tensor(RNG.standard_normal((2, 3, 3)))
    x = RNG.standard_normal((2, 3, 4))
    assert np.array_equal((w @ Tensor(x)).data, np.matmul(w.data, x))
    with pytest.raises(ValueError, match="batched matmul"):
        w @ Tensor(x, requires_grad=True)
    with no_grad():
        assert (w @ Tensor(x, requires_grad=True))._vjp is None


def test_matmul_shape_errors():
    with pytest.raises(ValueError):
        randt(3, 4) @ randt(5, 6)
    with pytest.raises(ValueError):
        randt(4) @ randt(4, 2)


def test_space_to_depth_is_one_node_with_the_inverse_fold_as_vjp():
    x = randt(2, 4, 6, 3)
    out = space_to_depth(x, 2)
    assert sum(isinstance(n, _Node) for n in _topo_order(out._node)) == 1
    fold = x.data.reshape(2, 2, 2, 3, 2, 3).transpose(0, 1, 3, 2, 4, 5).reshape(2, 2, 3, 12)
    assert np.array_equal(out.data, fold)
    g = RNG.standard_normal(out.shape)
    backward((out * Tensor(g)).sum())
    unfold = g.reshape(2, 2, 3, 2, 2, 3).transpose(0, 1, 3, 2, 4, 5).reshape(2, 4, 6, 3)
    assert np.array_equal(x.grad, unfold)


def test_sum_axes_grad():
    a = randt(2, 3, 4)
    check_gradients(lambda: a.sum(axis=(0, 2)).sum(), [a])
    check_gradients(lambda: (a.sum(axis=1) * a.sum(axis=1)).sum(), [a])


def test_gelu_grad_and_values():
    a = randt(4, 4)
    check_gradients(lambda: gelu(a).sum(), [a])
    # sanity at a few known points: gelu(0)=0, gelu(x) -> x for large x
    big = Tensor(np.array([0.0, 10.0, -10.0]))
    out = gelu(big).data
    assert abs(out[0]) < 1e-12
    assert abs(out[1] - 10.0) < 1e-6
    assert abs(out[2]) < 1e-6


def test_gelu_grad_equals_the_closed_form_bit_for_bit():
    # Two blocks and a ragged tail cross every block edge. A transposed view
    # still gets a C-contiguous output: a block written into a flattened copy
    # of the output would be lost. Every erf chunk of ``x_narrow`` lies in
    # [-1, 1] and takes the rational form, and its last block ends 17 values
    # past a half-block edge.
    tails = np.linspace(-8.0, 8.0, 41)
    x_data = np.concatenate([[0.0, 1e-3, -1e-3, 1.0, -1.0], tails,
                             RNG.standard_normal(2 * _BLOCK + 64)])
    x_view = x_data[:7 * (x_data.size // 7)].reshape(7, -1).T
    x_narrow = RNG.uniform(-1.4142, 1.4142, _BLOCK + _ERF_CHUNK + 17)
    for data in (x_data, x_view, x_narrow):
        g = RNG.standard_normal(data.shape)
        cdf = 0.5 * (1.0 + erf(data * (1.0 / np.sqrt(2.0))))
        pdf = (1.0 / np.sqrt(2.0 * np.pi)) * np.exp(-0.5 * data * data)
        x = Tensor(data, requires_grad=True)
        y = gelu(x)
        backward((y * Tensor(g)).sum())
        assert y.data.flags.c_contiguous
        assert np.array_equal(y.data, data * cdf)
        assert np.array_equal(x.grad, g * (cdf + data * pdf))
        with no_grad():
            assert np.array_equal(gelu(Tensor(data)).data, data * cdf)


def test_no_grad_gelu_allocates_its_output_and_one_block():
    # The first two blocks take erf's rational form, the rest scipy's erf.
    x = Tensor(np.concatenate([0.2 * RNG.standard_normal(2 * _BLOCK),
                               RNG.standard_normal(_BLOCK + 5)]))
    tracemalloc.start()
    try:
        with no_grad():
            out = gelu(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.data.nbytes + 2 * _BLOCK * x.data.itemsize, peak


def _erf_in_chunks(u, monkeypatch):
    """``u``'s erf by ``_erf_chunk`` on consecutive erf chunks, and the chunks that called scipy."""
    fallbacks = []

    def scipy_erf(a, out):
        fallbacks.append(a.size)
        return erf(a, out=out)

    monkeypatch.setattr(gtensor, "_erf", scipy_erf)
    out = u.copy()
    z, pq = np.empty(_ERF_CHUNK), np.empty(_ERF_CHUNK)
    for lo in range(0, out.size, _ERF_CHUNK):
        chunk = out[lo:lo + _ERF_CHUNK]
        gtensor._erf_chunk(chunk, z[:chunk.size], pq[:chunk.size])
    return out, fallbacks


def test_erf_rational_form_equals_scipy_bit_for_bit_on_the_unit_interval(monkeypatch):
    rng = np.random.default_rng(22)
    bits = rng.integers(0, 2**64, size=1 << 19, dtype=np.uint64).view(np.float64)
    tiny = np.finfo(np.float64).smallest_normal
    edges = np.array([0.0, 1.0, np.nextafter(1.0, 0.0), 5e-324, tiny - 5e-324, tiny, 1e-300])
    u = np.concatenate([edges, -edges, bits[np.abs(bits) <= 1.0],
                        rng.uniform(-1.0, 1.0, 1 << 18), np.linspace(-1.0, 1.0, 100_003)])
    got, fallbacks = _erf_in_chunks(u, monkeypatch)
    assert fallbacks == []
    assert np.array_equal(got.view(np.uint64), erf(u).view(np.uint64))


@pytest.mark.parametrize("planted", [np.nextafter(1.0, 2.0), -np.nextafter(1.0, 2.0), 1.5,
                                     np.nan, np.inf, -np.inf])
def test_erf_chunk_past_the_unit_interval_calls_scipy(planted, monkeypatch):
    u = RNG.uniform(-1.0, 1.0, 2 * _ERF_CHUNK + 9)
    u[_ERF_CHUNK + 3] = planted
    got, fallbacks = _erf_in_chunks(u, monkeypatch)
    assert fallbacks == [_ERF_CHUNK]
    assert np.array_equal(got.view(np.uint64), erf(u).view(np.uint64))


def test_recorded_gelu_keeps_no_view_of_its_input():
    w = randt(3, 5)
    x = Tensor(RNG.standard_normal((4, 3))) @ w
    loss = gelu(x).sum()
    captured = weakref.ref(x.data)
    del x
    assert captured() is None
    backward(loss)
    assert w.grad is not None


def test_gelu_records_nothing_under_no_grad():
    with no_grad():
        assert gelu(randt(4, 3))._vjp is None


def test_layer_norm_grad():
    x = randt(2, 5, 6)
    g = Parameter(1.0 + 0.1 * RNG.standard_normal(6), "g")
    b = Parameter(0.1 * RNG.standard_normal(6), "b")
    check_gradients(lambda: (layer_norm(x, g, b) * layer_norm(x, g, b)).sum(), [x, g, b])


def test_layer_norm_normalizes():
    x = randt(3, 7, 8, scale=3.0)
    g = Tensor(np.ones(8))
    b = Tensor(np.zeros(8))
    y = layer_norm(x, g, b).data
    assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-12)
    assert np.allclose(y.var(axis=-1), 1.0, atol=1e-4)


def test_layer_norm_shape_errors():
    x = randt(2, 6)
    with pytest.raises(ValueError):
        layer_norm(x, Tensor(np.ones(5)), Tensor(np.zeros(6)))


def test_backward_scalar_only():
    a = randt(2, 2)
    with pytest.raises(ValueError):
        backward(a * a)


def test_backward_accumulates_on_reuse():
    # same leaf used twice in one graph: d/da (a*a + 3a) = 2a + 3
    a = randt(3)
    backward((a * a + a * 3.0).sum())
    assert np.allclose(a.grad, 2 * a.data + 3.0, atol=1e-12)


def test_backward_diamond_graph_counts_once():
    a = Tensor(np.array([2.0]), requires_grad=True)
    b = a * 3.0
    c = a * 4.0
    backward((b + c).sum())
    assert np.allclose(a.grad, [7.0])


def test_no_grad_blocks_recording():
    a = randt(2, 2)
    with no_grad():
        out = (a * a).sum()
    assert not out.requires_grad
    assert out._vjp is None


def test_parameter_carries_name():
    p = Parameter(np.zeros((2, 2)), "block0.w")
    assert p.name == "block0.w"
    assert p.requires_grad


def test_max_rel_err_floor():
    # values below the floor compare absolutely, not relatively
    assert max_rel_err(np.array([1e-9]), np.array([0.0])) < 1e-2


def test_numerical_grad_matches_closed_form():
    a = Tensor(np.array([1.0, 2.0, -0.5]), requires_grad=True)
    num = numerical_grad(lambda: (a * a).sum(), a)
    assert np.allclose(num, 2 * a.data, atol=1e-6)


_OPTIMIZED_VERDICTS = """
import numpy as np
from gswin.gradcheck import check_gradients
from gswin.tensor import Tensor

x = Tensor(np.ones(3), requires_grad=True)
unused = Tensor(np.ones(2), requires_grad=True)
cases = {"mismatch": (lambda: Tensor._result(2 * x.data, (x,), lambda g: (g,)).sum(), [x]),
         "no_grad": (lambda: x.sum(), [x, unused])}
for name, (f, inputs) in cases.items():
    try:
        check_gradients(f, inputs)
    except AssertionError as exc:
        print(name, exc)
    else:
        print(name, "passed")
"""


def test_check_gradients_keeps_its_verdict_under_python_O():
    # -O strips assert statements; both failures must still raise AssertionError
    src = str(Path(gswin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_VERDICTS], env=env,
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out == ["mismatch gradient mismatch 5.000e-01 >= 1e-05 for input shape (3,)",
                   "no_grad no gradient reached input with shape (2,)"]


# -- graph nodes hold no values ---------------------------------------------


def test_value_no_vjp_reads_is_freed_while_the_graph_lives():
    x, w, b = randt(4, 3), randt(3, 5), randt(5)
    h = x @ w  # the bias add's vjp reads only shapes
    out = (h + b).sum()
    freed = weakref.ref(h.data)
    del h
    assert freed() is None
    backward(out)
    x2, w2, b2 = (Tensor(t.data, requires_grad=True) for t in (x, w, b))
    kept = x2 @ w2
    backward((kept + b2).sum())
    for t, ref in ((x, x2), (w, w2), (b, b2)):
        assert np.array_equal(t.grad, ref.grad)


@pytest.mark.parametrize("const_first", [False, True])
def test_mul_by_constant_keeps_no_reference_to_the_other_operand(const_first):
    x, w = randt(3, 4), randt(4, 2)
    mask = Tensor(np.array([[0.0], [2.0], [2.0]]))
    y = x @ w
    z = mask * y if const_first else y * mask
    freed = weakref.ref(y.data)
    del y
    assert freed() is None
    grads = z._vjp(np.ones(z.shape))
    assert grads[0 if const_first else 1] is None  # the constant gets no gradient
    backward(z.sum())
    assert np.array_equal(x.grad, (np.ones((3, 2)) * mask.data) @ w.data.T)


def test_reassigned_vjp_is_what_backward_calls():
    a = randt(3)
    out = a * 2.0
    inner, calls = out._vjp, []

    def spy(g):
        calls.append(g.shape)
        return tuple(None if pg is None else 10.0 * pg for pg in inner(g))

    out._vjp = spy
    assert out._vjp is spy
    backward(out.sum())
    assert calls == [(3,)]
    assert np.array_equal(a.grad, np.full(3, 20.0))


def test_every_primitive_passes_the_gradcheck_suite():
    results = dict(op_gradcheck_suite(seed=1))
    assert set(results) == {"add", "mul", "matmul", "sum", "space_to_depth", "gelu",
                            "layer_norm", "cross_entropy", "multi_head_window_sgu"}
    assert max(results.values()) < 1e-5


# -- backward releases the graph ----------------------------------------------


def test_second_backward_over_one_graph_raises():
    a = randt(3)
    loss = (a * a).sum()
    backward(loss)
    with pytest.raises(RuntimeError, match="one backward"):
        backward(loss)


def test_backward_frees_what_the_vjps_captured_while_the_loss_lives():
    x, w = randt(4, 3), randt(3, 5)
    h = x @ w
    loss = (h * h).sum()  # the product's vjp reads both operands
    captured = weakref.ref(h.data)
    del h
    assert captured() is not None
    backward(loss)
    assert captured() is None


def test_backward_leaves_no_vjp_behind():
    a = randt(2, 3)
    mid = a * a
    out = mid.sum()
    backward(out)
    assert out._vjp is None and mid._vjp is None
