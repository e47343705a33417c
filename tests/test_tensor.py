"""Autodiff engine: every primitive against central finite differences."""
import numpy as np
import pytest

from gswin.tensor import (
    Tensor,
    Parameter,
    backward,
    concatenate,
    gelu,
    layer_norm,
    no_grad,
    take,
)
from gswin.gradcheck import check_gradients, max_rel_err, numerical_grad

RNG = np.random.default_rng(0)


def randt(*shape, scale=1.0):
    return Tensor(RNG.standard_normal(shape) * scale, requires_grad=True)


def test_add_broadcast_grad():
    a = randt(3, 4)
    b = randt(4)
    check_gradients(lambda: ((a + b) * (a + b)).sum(), [a, b])


def test_mul_broadcast_grad():
    a = randt(2, 3, 4)
    b = randt(1, 4)
    check_gradients(lambda: (a * b).sum(), [a, b])


def test_sub_neg_div():
    a = randt(3, 3)
    b = randt(3, 3)
    check_gradients(lambda: ((a - b) * (-a) / 3.0).sum(), [a, b])
    with pytest.raises(TypeError):
        a / b


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


def test_matmul_batched_broadcast_grad():
    # (K, 1, T, T) @ (K, N, T, C) exercises the unbroadcast path on both sides
    w = randt(2, 1, 3, 3)
    x = randt(2, 4, 3, 2)
    check_gradients(lambda: ((w @ x) * (w @ x)).sum(), [w, x])


def test_matmul_shape_errors():
    with pytest.raises(ValueError):
        randt(3, 4) @ randt(5, 6)
    with pytest.raises(ValueError):
        randt(4) @ randt(4, 2)


def test_reshape_transpose_grad():
    a = randt(2, 3, 4)
    check_gradients(lambda: (a.reshape(6, 4).transpose((1, 0)) * 2.0).sum(), [a])


def test_getitem_grad():
    a = randt(5, 6)
    check_gradients(lambda: (a[1:4, ::2] * a[1:4, ::2]).sum(), [a])


def test_pad_grad():
    a = randt(3, 4)
    check_gradients(lambda: (a.pad([(1, 2), (0, 3)]) * 0.5).sum(), [a])
    with pytest.raises(ValueError):
        a.pad([(1, 1)])


def test_sum_mean_axes_grad():
    a = randt(2, 3, 4)
    check_gradients(lambda: a.sum(axis=(0, 2)).sum(), [a])
    check_gradients(lambda: (a.mean(axis=1, keepdims=True) * a).sum(), [a])
    check_gradients(lambda: a.mean(), [a])


def test_exp_log_grad():
    a = randt(3, 3, scale=0.5)
    check_gradients(lambda: (a.exp() + 0.0).sum(), [a])
    pos = Tensor(np.abs(RNG.standard_normal((3, 3))) + 0.5, requires_grad=True)
    check_gradients(lambda: pos.log().sum(), [pos])


def test_concatenate_grad():
    a = randt(2, 3)
    b = randt(2, 5)
    check_gradients(lambda: (concatenate([a, b], axis=1) * 1.5).sum(), [a, b])


def test_take_grad_with_repeats():
    # repeated indices must scatter-add, not overwrite
    t = randt(4, 3)
    idx = np.array([0, 2, 2, 1, 0, 0])
    check_gradients(lambda: (take(t, idx) * take(t, idx)).sum(), [t])


def test_gelu_grad_and_values():
    a = randt(4, 4)
    check_gradients(lambda: gelu(a).sum(), [a])
    # sanity at a few known points: gelu(0)=0, gelu(x) -> x for large x
    big = Tensor(np.array([0.0, 10.0, -10.0]))
    out = gelu(big).data
    assert abs(out[0]) < 1e-12
    assert abs(out[1] - 10.0) < 1e-6
    assert abs(out[2]) < 1e-6


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
