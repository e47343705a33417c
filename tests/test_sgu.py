"""Gating kernels: brute-force oracles, padding equivalence, structure checks."""
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gswin.gradcheck import check_gradients
from gswin.sgu import (
    init_sgu_params,
    materialize_relative_bias,
    multi_head_window_sgu,
    toeplitz_index_map,
    zero_padding_shift_oracle,
)
from gswin.tensor import Tensor, backward, no_grad
from gswin.windows import WindowGrid, window_partition, window_reverse


def random_params(rng, window, heads, rel=True):
    h, w = window
    T = h * w
    p = init_sgu_params(window, heads, rel_bias=rel)
    p.w_win.data = rng.standard_normal((T, T, heads))
    p.b_win.data = rng.standard_normal((T, heads))
    if rel:
        p.rel_table.data = rng.standard_normal(((2 * h - 1) * (2 * w - 1), heads))
    return p


# -- relative-offset table -----------------------------------------------


def test_toeplitz_map_exhaustive_window7():
    # equal relative offsets index the same table row, over all 49^2 pairs
    h = w = 7
    idx = toeplitz_index_map((h, w))
    for a in range(h * w):
        for b in range(h * w):
            dy = a // w - b // w
            dx = a % w - b % w
            assert idx[a, b] == (dy + h - 1) * (2 * w - 1) + (dx + w - 1)
    assert idx.min() >= 0 and idx.max() < (2 * h - 1) * (2 * w - 1)


def test_materialize_1x1_window():
    out = materialize_relative_bias(np.array([[3.5, -1.0]]), (1, 1))
    assert out.shape == (1, 1, 2)
    assert out[0, 0, 0] == 3.5


def test_materialize_2x1_equal_diagonal():
    out = materialize_relative_bias(np.arange(3.0).reshape(3, 1), (2, 1))
    assert out.shape == (2, 2, 1)
    assert out[0, 0, 0] == out[1, 1, 0]  # relative offset 0
    assert out[1, 0, 0] != out[0, 1, 0]  # +1 vs -1 offsets


def test_materialize_diagonal_constancy_window7():
    rng = np.random.default_rng(3)
    out = materialize_relative_bias(rng.standard_normal((13 * 13, 2)), (7, 7))
    h = w = 7
    seen = {}
    for a in range(49):
        for b in range(49):
            key = (a // w - b // w, a % w - b % w)
            if key in seen:
                assert (out[a, b] == seen[key]).all()
            else:
                seen[key] = out[a, b]
    assert len(seen) == 13 * 13


def test_materialize_rejects_wrong_table():
    with pytest.raises(ValueError):
        materialize_relative_bias(np.zeros((10, 1)), (7, 7))


def test_materialize_gradients_scatter_to_table():
    # a 2x2 window reads each table row up to four times; the gating node's
    # vjp must scatter-add every read back onto its row
    rng = np.random.default_rng(5)
    p = random_params(rng, (2, 2), heads=2)
    x = Tensor(rng.standard_normal((1, 4, 4, 8)))
    grid = WindowGrid((4, 4), (2, 2))
    r = Tensor(rng.standard_normal((1, 4, 4, 4)))
    check_gradients(lambda: (multi_head_window_sgu(x, p, grid) * r).sum(), [p.rel_table])
    # the same backward gave w_win the gradient of the effective weight
    idx = toeplitz_index_map((2, 2))
    expect = np.stack([p.w_win.grad[idx == row].sum(axis=0) for row in range(9)])
    np.testing.assert_allclose(p.rel_table.grad, expect, rtol=0, atol=1e-12)


# -- one window -------------------------------------------------------------

ONE_WINDOW = WindowGrid((2, 2), (2, 2))


def test_sgu_identity_at_init():
    rng = np.random.default_rng(0)
    p = init_sgu_params((2, 2), heads=1)
    z = rng.standard_normal((1, 2, 2, 6))
    out = multi_head_window_sgu(Tensor(z), p, ONE_WINDOW)
    assert (out.data == z[..., :3]).all()


def test_sgu_zero_value_half_annihilates():
    rng = np.random.default_rng(1)
    p = random_params(rng, (2, 2), heads=1)
    z = np.zeros((1, 2, 2, 4))
    z[..., 2:] = rng.standard_normal((1, 2, 2, 2))
    assert (multi_head_window_sgu(Tensor(z), p, ONE_WINDOW).data == 0).all()


def test_sgu_brute_force_loop_oracle():
    # direct per-element evaluation: y[n,c] = z1[n,c] * (sum_m W[n,m,k] z2[m,c] + b[n,k])
    rng = np.random.default_rng(2)
    h, w, K, C = 2, 2, 2, 4
    p = random_params(rng, (h, w), heads=K)
    z = rng.standard_normal((h * w, 2 * C))
    out = multi_head_window_sgu(Tensor(z.reshape(1, h, w, 2 * C)), p, ONE_WINDOW)
    out = out.data.reshape(h * w, C)

    table = p.rel_table.data
    ch = C // K
    expect = np.zeros((h * w, C))
    for n in range(h * w):
        for c in range(C):
            k = c // ch
            acc = p.b_win.data[n, k]
            for m in range(h * w):
                dy = n // w - m // w
                dx = n % w - m % w
                rel = table[(dy + h - 1) * (2 * w - 1) + (dx + w - 1), k]
                acc += (p.w_win.data[n, m, k] + rel) * z[m, C + c]
            expect[n, c] = z[n, c] * acc
    assert np.max(np.abs(out - expect)) < 1e-12


def test_sgu_shape_errors():
    p = init_sgu_params((2, 2), heads=2)
    with pytest.raises(ValueError, match="odd"):
        multi_head_window_sgu(Tensor(np.zeros((1, 2, 2, 5))), p, ONE_WINDOW)
    with pytest.raises(ValueError, match="heads 2 do not divide the gate half's 3 channels"):
        multi_head_window_sgu(Tensor(np.zeros((1, 2, 2, 6))), p, ONE_WINDOW)


def _misfit(name, shape):
    """Gating arrays for a (2, 2) window with 2 heads, ``name`` replaced by zeros of ``shape``."""
    p = init_sgu_params((2, 2), heads=2)
    setattr(p, name, Tensor(np.zeros(shape)))
    return p


# Each array against the (2, 2) window and 2 heads that ``w_win`` sets; a
# (1, K) bias or an (L, 1) table would broadcast if nothing checked it.
MISFITS = [("w_win", (4, 3, 2)), ("w_win", (9, 9, 2)), ("b_win", (3, 2)), ("b_win", (1, 2)),
           ("b_win", (4, 1)), ("rel_table", (8, 2)), ("rel_table", (9, 1))]


def test_params_validation():
    x, grid = Tensor(np.zeros((1, 4, 4, 8))), WindowGrid((4, 4), (2, 2))
    for name, shape in MISFITS:
        p = _misfit(name, shape)
        with pytest.raises(ValueError, match=f"{name} shape"):
            multi_head_window_sgu(x, p, grid)
        with pytest.raises(ValueError, match=f"{name} shape"):
            zero_padding_shift_oracle(x, p, grid)


def _rejected_by_the_oracle(x_shape, grid):
    zero_padding_shift_oracle(Tensor(np.zeros(x_shape)), init_sgu_params((2, 2), heads=2), grid)


def _rejected_by_the_gating_node(name, shape):
    multi_head_window_sgu(Tensor(np.zeros((1, 4, 4, 8))), _misfit(name, shape),
                          WindowGrid((4, 4), (2, 2)))


@pytest.mark.parametrize("make, match", [
    (lambda: _rejected_by_the_gating_node("w_win", (4, 3, 2)), "w_win shape"),
    (lambda: _rejected_by_the_gating_node("rel_table", (8, 2)), "rel_table shape"),
    (lambda: init_sgu_params((2, 2), heads=0), "heads must be >= 1"),
    (lambda: _rejected_by_the_oracle((1, 4, 4, 7), WindowGrid((4, 4), (2, 2))),
     "channel extent 7 is odd"),
    (lambda: _rejected_by_the_oracle((1, 4, 4, 6), WindowGrid((4, 4), (2, 2))),
     "do not divide gate channels 3"),
    (lambda: _rejected_by_the_oracle((1, 4, 4, 8), WindowGrid((4, 4), (1, 2))),
     r"w_win shape \(4, 4, 2\) != \(2, 2, 2\) for grid window \(1, 2\)"),
    (lambda: _rejected_by_the_oracle((1, 4, 6, 8), WindowGrid((4, 4), (2, 2))),
     r"grid built for \(4, 4\), input map is \(4, 6\)"),
])
def test_bad_gating_parameters_and_oracle_inputs_are_rejected(make, match):
    with pytest.raises(ValueError, match=match):
        make()


# -- windowed multi-head SGU -----------------------------------------------


def test_window_sgu_identity_at_init_any_heads():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 8, 8, 12))
    for K in (1, 2, 3, 6):
        p = init_sgu_params((4, 4), heads=K)
        for offset in [(0, 0), (2, 2)]:
            grid = WindowGrid((8, 8), (4, 4), offset=offset)
            out = multi_head_window_sgu(Tensor(x), p, grid)
            assert (out.data == x[:, :, :, :6]).all()


def test_window_sgu_k1_reduces_to_plain_sgu():
    rng = np.random.default_rng(6)
    p = random_params(rng, (4, 4), heads=1)
    x = rng.standard_normal((1, 8, 8, 6))
    grid = WindowGrid((8, 8), (4, 4))
    out = multi_head_window_sgu(Tensor(x), p, grid).data
    w_eff = p.w_win.data + p.rel_table.data[toeplitz_index_map((4, 4))]
    for wy in range(0, 8, 4):
        for wx in range(0, 8, 4):
            tile = x[0, wy:wy + 4, wx:wx + 4, :].reshape(16, 6)
            z1, z2 = tile[:, :3], tile[:, 3:]
            ref = (z1 * (w_eff[:, :, 0] @ z2 + p.b_win.data[:, 0:1])).reshape(4, 4, 3)
            assert np.max(np.abs(out[0, wy:wy + 4, wx:wx + 4] - ref)) < 1e-14


def test_window_sgu_head_consistency():
    # identical per-channel inputs within a head block -> identical outputs
    rng = np.random.default_rng(7)
    K, ch = 3, 2
    C = K * ch
    p = random_params(rng, (2, 2), heads=K)
    base = rng.standard_normal((1, 4, 4, 2))  # one value, one gate channel
    x = np.concatenate([np.repeat(base[..., :1], C, axis=-1),
                        np.repeat(base[..., 1:], C, axis=-1)], axis=-1)
    out = multi_head_window_sgu(Tensor(x), p, WindowGrid((4, 4), (2, 2))).data
    for k in range(K):
        blk = out[..., k * ch:(k + 1) * ch]
        assert np.max(np.abs(blk - blk[..., :1])) < 1e-14
    # but distinct heads mix with distinct weights
    assert np.max(np.abs(out[..., 0] - out[..., ch])) > 1e-6


def test_window_sgu_locality():
    # a bump changes exactly the window holding it; window edges sit at
    # offset + 7k, clipped to the map
    rng = np.random.default_rng(8)
    p = random_params(rng, (7, 7), heads=2)
    x = rng.standard_normal((1, 14, 14, 8))
    for offset in [(0, 0), (3, 3)]:
        grid = WindowGrid((14, 14), (7, 7), offset=offset)
        base = multi_head_window_sgu(Tensor(x), p, grid).data
        for token in [(5, 9), (1, 12)]:
            bumped = x.copy()
            bumped[0, token[0], token[1], :] += 1.0
            out = multi_head_window_sgu(Tensor(bumped), p, grid).data
            diff = np.abs(out - base).sum(axis=-1)[0]
            lo = [max(0, o + (t - o) // 7 * 7) for t, o in zip(token, offset)]
            hi = [min(14, o + ((t - o) // 7 + 1) * 7) for t, o in zip(token, offset)]
            mask = np.zeros((14, 14), dtype=bool)
            mask[lo[0]:hi[0], lo[1]:hi[1]] = True
            assert (diff[~mask] == 0).all(), (offset, token)
            assert diff[mask].max() > 0, (offset, token)


def test_window_sgu_validation_errors():
    p = init_sgu_params((4, 4), heads=2)
    grid = WindowGrid((8, 8), (4, 4))
    with pytest.raises(ValueError):
        multi_head_window_sgu(Tensor(np.zeros((1, 8, 8, 7))), p, grid)  # odd
    with pytest.raises(ValueError):
        multi_head_window_sgu(Tensor(np.zeros((1, 8, 8, 6))), p, grid)  # 3 not div by 2
    with pytest.raises(ValueError):
        multi_head_window_sgu(Tensor(np.zeros((1, 6, 6, 8))), p, grid)  # image mismatch
    with pytest.raises(ValueError):
        multi_head_window_sgu(Tensor(np.zeros((1, 8, 8, 8))), p,
                              WindowGrid((8, 8), (2, 2)))  # window mismatch


# -- zero-padding equivalence ------------------------------------------------


def test_oracle_matches_padding_free_shifted_14x14():
    rng = np.random.default_rng(9)
    p = random_params(rng, (7, 7), heads=3)
    x = Tensor(rng.standard_normal((1, 14, 14, 12)))
    grid = WindowGrid((14, 14), (7, 7), offset=(3, 3))
    fast = multi_head_window_sgu(x, p, grid).data
    ref = zero_padding_shift_oracle(x, p, grid)
    assert np.max(np.abs(fast - ref)) < 1e-12


def test_oracle_matches_on_varied_shapes_and_seeds():
    cases = [
        ((14, 14), (3, 3), 2, 4),
        ((21, 28), (3, 3), 1, 2),
        ((7, 7), (3, 3), 7, 14),
        ((10, 12), (0, 0), 2, 6),
        ((9, 16), (3, 3), 3, 3),
        ((12, 12), (3, 3), 2, 4),  # ragged, yet each axis's partial bands share a window
    ]
    for seed, (image, offset, K, C) in enumerate(cases, start=20):
        rng = np.random.default_rng(seed)
        p = random_params(rng, (7, 7), heads=K, rel=seed % 2 == 0)
        x = Tensor(rng.standard_normal((2, *image, 2 * K * C)))
        grid = WindowGrid(image, (7, 7), offset=offset)
        fast = multi_head_window_sgu(x, p, grid).data
        ref = zero_padding_shift_oracle(x, p, grid)
        assert np.max(np.abs(fast - ref)) < 1e-12, (image, offset)


def test_oracle_matches_with_extreme_padding():
    # window as large as the map and shifted, 1x1 windows, ragged maps,
    # non-square windows, several batch samples, one head and seven heads
    cases = [
        ((7, 7), (7, 7), (3, 3), 3, 1),
        ((7, 7), (7, 7), (3, 3), 2, 7),
        ((5, 6), (1, 1), (0, 0), 2, 2),
        ((9, 16), (7, 7), (0, 0), 2, 7),
        ((9, 16), (7, 7), (3, 3), 3, 1),
        ((10, 13), (4, 4), (2, 2), 2, 1),
        ((10, 13), (4, 4), (2, 2), 1, 7),
        ((6, 9), (3, 4), (1, 2), 2, 3),
        ((6, 8), (3, 4), (1, 2), 2, 2),  # rolled: all four window types, one window each
    ]
    for seed, (image, window, offset, B, K) in enumerate(cases, start=40):
        rng = np.random.default_rng(seed)
        p = random_params(rng, window, heads=K, rel=seed % 2 == 0)
        x = Tensor(rng.standard_normal((B, *image, 4 * K)))
        grid = WindowGrid(image, window, offset=offset)
        fast = multi_head_window_sgu(x, p, grid).data
        ref = zero_padding_shift_oracle(x, p, grid)
        assert np.max(np.abs(fast - ref)) < 1e-12, (image, window, offset, B, K)


@st.composite
def _tilings(draw):
    H, W = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    h, w = draw(st.integers(1, H)), draw(st.integers(1, W))
    offset = (draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1)))
    return (H, W), (h, w), offset, draw(st.integers(1, 3)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(_tilings())
def test_window_sgu_matches_oracle_on_random_tilings(case):
    image, window, offset, K, seed = case
    rng = np.random.default_rng(seed)
    grid = WindowGrid(image, window, offset=offset)
    B = int(rng.integers(1, 3))
    C = K * int(rng.integers(1, 3))
    x = Tensor(rng.standard_normal((B, *image, 2 * C)))
    back = window_reverse(window_partition(x.data, grid), grid)
    assert np.array_equal(back, x.data)
    p = random_params(rng, window, heads=K, rel=bool(seed % 2))
    fast = multi_head_window_sgu(x, p, grid).data
    assert np.max(np.abs(fast - zero_padding_shift_oracle(x, p, grid))) < 1e-12


def test_oracle_unshifted_equals_plain_window_sgu():
    rng = np.random.default_rng(11)
    p = random_params(rng, (4, 4), heads=2)
    x = Tensor(rng.standard_normal((2, 8, 8, 8)))
    grid = WindowGrid((8, 8), (4, 4))
    fast = multi_head_window_sgu(x, p, grid).data
    ref = zero_padding_shift_oracle(x, p, grid)
    assert np.max(np.abs(fast - ref)) < 1e-12


# -- gradients ----------------------------------------------------------------


def test_window_sgu_gradcheck_all_parameters():
    rng = np.random.default_rng(12)
    p = random_params(rng, (2, 2), heads=2)
    x = Tensor(rng.standard_normal((1, 4, 4, 8)), requires_grad=True)
    grid = WindowGrid((4, 4), (2, 2), offset=(1, 1))
    r = Tensor(rng.standard_normal((1, 4, 4, 4)))
    worst = check_gradients(
        lambda: (multi_head_window_sgu(x, p, grid) * r).sum(),
        [x, p.w_win, p.b_win, p.rel_table],
        tol=1e-4,
    )
    assert worst < 1e-4


def test_window_sgu_gradcheck_shifted_ragged_map():
    # 6x8 map, 2x3 windows shifted by (1, 1): on each axis the two partial
    # bands share one wrapped window, and the columns' holds a padded position
    rng = np.random.default_rng(13)
    p = random_params(rng, (2, 3), heads=2)
    x = Tensor(rng.standard_normal((2, 6, 8, 8)), requires_grad=True)
    grid = WindowGrid((6, 8), (2, 3), offset=(1, 1))
    assert grid.bands == ((1, 2, 2, 1), (1, 3, 3, 1))
    r = Tensor(rng.standard_normal((2, 6, 8, 4)))
    worst = check_gradients(
        lambda: (multi_head_window_sgu(x, p, grid) * r).sum(),
        [x, p.w_win, p.b_win, p.rel_table],
        tol=1e-4,
    )
    assert worst < 1e-4


# A ragged grid whose partial bands share a wrapped window on both axes, one
# with a padded position on the column axis, and a rolled one whose four
# window types are one window each.
GRADCHECK_GRIDS = [WindowGrid((6, 8), (2, 3), offset=(1, 1)),
                   WindowGrid((6, 8), (3, 4), offset=(1, 2))]


@pytest.mark.parametrize("case", ["no_rel_bias", "input_without_grad", "frozen_params",
                                  "frozen_weight_trainable_table"])
def test_window_sgu_gradcheck_branches_shifted_ragged_map(case):
    # each branch of the gating node's vjp, on a ragged and a rolled grid
    for seed, grid in enumerate(GRADCHECK_GRIDS, start=15):
        rng = np.random.default_rng(seed)
        p = random_params(rng, grid.window, heads=2, rel=case != "no_rel_bias")
        x = Tensor(rng.standard_normal((2, 6, 8, 8)), requires_grad=case != "input_without_grad")
        r = Tensor(rng.standard_normal((2, 6, 8, 4)))
        params = [t for t in (p.w_win, p.b_win, p.rel_table) if t is not None]
        if case == "frozen_params":
            for t in params:
                t.requires_grad = False
        if case == "frozen_weight_trainable_table":
            p.w_win.requires_grad = False  # the node must still keep the gate half
        wrt = [t for t in (x, *params) if t.requires_grad]
        worst = check_gradients(lambda: (multi_head_window_sgu(x, p, grid) * r).sum(), wrt,
                                tol=1e-4)
        assert worst < 1e-4, grid
        assert all(t.grad is None for t in (x, *params) if not t.requires_grad)


def _no_grad_peak(grid, seed):
    """Traced peak of one no-grad gating call on a (2, H, W, 256) map, and its output."""
    rng = np.random.default_rng(seed)
    p = random_params(rng, grid.window, heads=4)
    x = Tensor(rng.standard_normal((2, *grid.image, 256)))
    tracemalloc.start()
    try:
        with no_grad():
            out = multi_head_window_sgu(x, p, grid)
        return tracemalloc.get_traced_memory()[1], out.data.nbytes
    finally:
        tracemalloc.stop()


def test_no_grad_window_sgu_holds_two_gate_halves_beside_its_output():
    # The shifted 12x12 map is three 4x4 windows a side, so it is mixed rolled
    # and unpadded: a gate half is the output's size. Each window type's
    # head-major gate half is freed before the bias adds in place on its
    # mixing GEMM's output; a third copy breaks the bound.
    peak, out = _no_grad_peak(WindowGrid((12, 12), (4, 4), offset=(2, 2)), 30)
    assert peak <= out + 2 * out, (peak, out)
    # The ragged 10x13 map is zero-padded to 12x16, so the bound counts padded
    # gate halves.
    grid = WindowGrid((10, 13), (4, 4), offset=(2, 2))
    (nh, nw), (h, w) = map(len, grid.bands), grid.window
    peak, out = _no_grad_peak(grid, 31)
    padded = 2 * nh * h * nw * w * 128 * 8
    assert peak <= out + 2 * padded, (peak, padded)


def test_window_sgu_node_keeps_no_view_of_its_input():
    for seed, grid in enumerate(GRADCHECK_GRIDS, start=16):
        rng = np.random.default_rng(seed)
        p = random_params(rng, grid.window, heads=2)
        data = rng.standard_normal((2, 6, 8, 8))
        r = Tensor(rng.standard_normal((2, 6, 8, 4)))
        leaves = [Tensor(data, requires_grad=True) for _ in range(2)]
        x = leaves[0] * 1.0  # a node output that nothing but ``x`` holds
        out = multi_head_window_sgu(x, p, grid)
        whole = weakref.ref(x.data)
        del x
        assert whole() is None, grid
        backward((out * r).sum())
        backward((multi_head_window_sgu(leaves[1] * 1.0, p, grid) * r).sum())
        assert np.array_equal(leaves[0].grad, leaves[1].grad)
        with no_grad():
            assert multi_head_window_sgu(Tensor(data), p, grid)._vjp is None
