"""Grid geometry: band decompositions, window types, partition round-trips."""
import ast
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gswin import windows
from gswin.model import PRESETS, ModelConfig
from gswin.windows import WindowGrid, shift_offset, window_partition, window_reverse


def _row_bands(extent, window, origin):
    """The grid's bands along rows; the column axis is one token wide."""
    return WindowGrid((extent, 1), (window, 1), offset=(origin, 0)).bands[0]


def test_axis_runs_uniform():
    assert _row_bands(14, 7, 0) == (7, 7)


def test_axis_runs_shifted_standard():
    # window 7, origin 3: a leading partial band of 3, one whole window, a tail of 4
    assert _row_bands(14, 7, 3) == (3, 7, 4)


def test_axis_runs_single_window_shifted():
    assert _row_bands(7, 7, 3) == (3, 4)


def test_axis_runs_trailing_partial():
    assert _row_bands(10, 7, 0) == (7, 3)


def test_axis_runs_errors():
    with pytest.raises(ValueError):
        WindowGrid((5, 1), (7, 1), offset=(0, 0))
    with pytest.raises(ValueError):
        WindowGrid((14, 1), (7, 1), offset=(7, 0))
    with pytest.raises(ValueError):
        WindowGrid((14, 1), (7, 1), offset=(-1, 0))
    with pytest.raises(ValueError):
        WindowGrid((14, 1), (0, 1), offset=(0, 0))


def test_shift_offset_half_window():
    assert shift_offset((7, 7), True) == (3, 3)
    assert shift_offset((4, 3), True) == (2, 1)
    assert shift_offset((7, 7), False) == (0, 0)


def _zero_padded(ids, grid):
    """(n_h, h, n_w, w) windows of a 2-D map zero-padded by the oracle's rule."""
    (H, W), (h, w), (oy, ox) = grid.image, grid.window, grid.offset
    top, left = (h - oy) % h, (w - ox) % w
    padded = np.pad(ids, ((top, -(top + H) % h), (left, -(left + W) % w)))
    return padded.reshape(padded.shape[0] // h, h, padded.shape[1] // w, w)


def _windows_mixed(grid):
    return sum(a * b for a, b in (t.counts for t in grid.types))


def _real_windows(grid):
    """(extent, first in-window position) of the tokens of each band pair,
    in map order, read from the grid's window batches and masks."""
    (H, W), (h, w) = grid.image, grid.window
    ids = np.arange(1, H * W + 1, dtype=np.float64).reshape(1, H, W, 1)
    out = []
    for t, batch in zip(grid.types, window_partition(ids, grid)):
        for win in batch.reshape(h * w, -1).T:
            bands = {tuple(np.flatnonzero(t.mask[p] & (win != 0))) for p in np.flatnonzero(win)}
            for band in bands:
                rows, cols = np.divmod(band, w)
                out.append((win[band[0]], (len(set(rows)), len(set(cols))), (rows[0], cols[0])))
    return [(shape, start) for _, shape, start in sorted(out)]


def test_grid_unshifted_single_group():
    grid = WindowGrid((14, 14), (7, 7))
    assert [t.counts for t in grid.types] == [(2, 2)]
    assert grid.bands == ((7, 7), (7, 7))


def test_grid_shifted_windows_hold_the_partial_bands():
    # the windows' bands are exactly the padding-free windows: extents, and
    # where their tokens start inside the window (the weight offsets), which
    # is where zero padding puts them
    grid = WindowGrid((14, 14), (7, 7), offset=(3, 3))
    assert [t.counts for t in grid.types] == [(1, 1)] * 4
    assert grid.bands == ((3, 7, 4), (3, 7, 4))
    real = _real_windows(grid)
    assert [shape for shape, _ in real] == [
        (3, 3), (3, 7), (3, 4),
        (7, 3), (7, 7), (7, 4),
        (4, 3), (4, 7), (4, 4),
    ]
    assert [start for _, start in real] == [
        (4, 4), (4, 0), (4, 0),
        (0, 4), (0, 0), (0, 0),
        (0, 4), (0, 0), (0, 0),
    ]


def test_grid_single_window_shifted_corners_only():
    grid = WindowGrid((7, 7), (7, 7), offset=(3, 3))
    assert [shape for shape, _ in _real_windows(grid)] == [(3, 3), (3, 4), (4, 3), (4, 4)]


def test_grid_groups_tile_exactly():
    # every map position lands in exactly one window of one type
    for image, offset in [((14, 14), (3, 3)), ((21, 28), (3, 3)), ((10, 12), (0, 0)),
                          ((9, 16), (3, 3))]:
        grid = WindowGrid(image, (7, 7), offset=offset)
        ids = np.arange(1, image[0] * image[1] + 1, dtype=np.float64)
        batches = window_partition(ids.reshape(1, *image, 1), grid)
        wins = np.concatenate([b.ravel() for b in batches])
        seen = np.sort(wins[wins != 0])
        assert np.array_equal(seen, ids), (image, offset)


def test_grid_rejects_bad_geometry():
    for image, window, offset in [((5, 14), (7, 7), (0, 0)), ((14, 14), (7, 7), (7, 0)),
                                  ((14, 14), (7, 7), (0, -1))]:
        with pytest.raises(ValueError):
            WindowGrid(image, window, offset=offset)


def test_partition_unshifted_counts():
    x = np.arange(2 * 14 * 14 * 3, dtype=np.float64).reshape(2, 14, 14, 3)
    batches = window_partition(x, WindowGrid((14, 14), (7, 7)))
    assert [b.shape for b in batches] == [(49, 2, 2, 2, 3)]


def test_partition_shifted_is_one_padded_batch():
    # a shifted map that is not a whole number of windows is one window type:
    # the 9x16 map zero-padded to 2x3 whole windows
    x = np.zeros((1, 9, 16, 2))
    batches = window_partition(x, WindowGrid((9, 16), (7, 7), offset=(0, 3)))
    assert [b.shape for b in batches] == [(49, 1, 2, 3, 2)]


def test_partition_reverse_round_trip():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 21, 28, 8))
    for offset in [(0, 0), (3, 3)]:
        grid = WindowGrid((21, 28), (7, 7), offset=offset)
        back = window_reverse(window_partition(x, grid), grid)
        assert (back == x).all()


def test_partition_rejects_mismatched_image():
    x = np.zeros((1, 10, 10, 2))
    with pytest.raises(ValueError):
        window_partition(x, WindowGrid((14, 14), (7, 7)))


@pytest.mark.parametrize("batches, match", [
    ([np.zeros((49, 1, 2, 2, 3))] * 2, "expected one window batch per window type, got 2"),
    ([np.zeros((49, 1, 2, 3, 3))], "does not match grid"),
    ([np.zeros((1, 14, 14, 3))], "does not match grid"),
])
def test_reverse_rejects_batches_the_grid_did_not_make(batches, match):
    with pytest.raises(ValueError, match=match):
        window_reverse(batches, WindowGrid((14, 14), (7, 7)))


def test_partition_windows_carry_correct_tokens():
    # second full window along cols of an unshifted grid holds cols 7..13
    x = np.arange(14 * 14, dtype=np.float64).reshape(1, 14, 14, 1)
    grid = WindowGrid((14, 14), (7, 7))
    (wins,) = window_partition(x, grid)
    assert (wins[:, 0, 0, 1, 0].reshape(7, 7) == x[0, 0:7, 7:14, 0]).all()


@pytest.mark.parametrize("image, window, offset", [((14, 14), (7, 7), (3, 3)),
                                                   ((6, 8), (3, 4), (1, 2)),
                                                   ((7, 7), (7, 7), (3, 3)),
                                                   ((8, 12), (4, 4), (0, 2)),
                                                   ((8, 8), (4, 4), (0, 0)),
                                                   ((9, 16), (7, 7), (3, 3)),
                                                   ((6, 8), (2, 3), (1, 1)),
                                                   ((12, 12), (7, 7), (3, 3))])
def test_window_types_place_every_token_where_padding_does(image, window, offset):
    # Every token sits in one window of one type, at the in-window position the
    # zero-padded tiling gives it; a type's mask joins two positions exactly
    # when their tokens share a padded window. A rolled grid pads nothing.
    grid = WindowGrid(image, window, offset=offset)
    (H, W), (h, w) = image, window
    ids = np.arange(1, H * W + 1, dtype=np.float64).reshape(H, W)
    padded = _zero_padded(ids, grid)
    home = {v: ((i, j), (y, x)) for (i, y, j, x), v in np.ndenumerate(padded) if v}
    assert grid.rolled == (H % h == 0 and W % w == 0)
    seen = []
    for t, batch in zip(grid.types, window_partition(ids.reshape(1, H, W, 1), grid)):
        assert not grid.rolled or (batch != 0).all()
        for win in batch.reshape(h * w, -1).T:
            real = win != 0
            for p in np.flatnonzero(real):
                assert home[win[p]][1] == divmod(p, w)
            same = np.array([[home[a][0] == home[b][0] for b in win[real]] for a in win[real]])
            assert np.array_equal(t.mask[np.ix_(real, real)], same)
            seen += list(win[real])
    assert sorted(seen) == list(ids.reshape(-1))
    assert _windows_mixed(grid) == -(-H // h) * -(-W // w)


@st.composite
def _grids(draw):
    """Windows of 1-8 per axis over whole and ragged extents, at any legal offset."""
    axes = []
    for _ in range(2):
        win = draw(st.integers(1, 8))
        extent = draw(st.one_of(st.integers(1, 3).map(lambda n, win=win: n * win),
                                st.integers(win, 3 * win)))
        axes.append((extent, win, draw(st.integers(0, win - 1))))
    return WindowGrid(*zip(*axes))


@settings(max_examples=80, deadline=None)
@given(_grids(), st.integers(1, 2), st.integers(1, 3))
def test_partition_reverse_is_exact_on_random_grids(grid, B, C):
    x = np.random.default_rng(B * 10 + C).standard_normal((B, *grid.image, C))
    batches = window_partition(x, grid)
    assert len(batches) == len(grid.types)
    T = grid.window[0] * grid.window[1]
    for t, batch in zip(grid.types, batches):
        assert batch.shape == (T, B, *t.counts, C)
    assert np.array_equal(window_reverse(batches, grid), x)


@settings(max_examples=200, deadline=None)
@given(_grids())
def test_every_grid_mixes_the_unshifted_window_count(grid):
    # a shifted layer mixes as many windows as the unshifted one; a grid whose
    # partial bands share no window is one batch of the zero-padded tiling
    (H, W), (h, w) = grid.image, grid.window
    assert _windows_mixed(grid) == -(-H // h) * -(-W // w)
    if all(t.mask.all() for t in grid.types):
        ids = np.arange(1, H * W + 1, dtype=np.float64).reshape(H, W)
        (batch,) = window_partition(ids.reshape(1, H, W, 1), grid)
        padded = _zero_padded(ids, grid)
        assert np.array_equal(batch.reshape(h, w, *padded.shape[::2]),
                              padded.transpose(1, 3, 0, 2))


@pytest.mark.parametrize("config", [
    ModelConfig(base_channels=16, depths=(2, 2, 2, 2), heads=4, window=(4, 4),
                num_classes=10, image_size=32),  # the criterion-7 smoke model
    PRESETS["gswin-t"], PRESETS["gswin-vt"]])
def test_whole_window_maps_mix_the_interior_and_the_wrapped_windows(config):
    # per shifted axis: the whole windows but one, then the wrapped one
    for s in range(4):
        for grid in config.block_grids(s):
            assert grid.rolled
            groups = [[e // win] if not o else [c for c in (e // win - 1, 1) if c]
                      for e, win, o in zip(grid.image, grid.window, grid.offset)]
            assert [t.counts for t in grid.types] == [(a, b) for a in groups[0]
                                                      for b in groups[1]]


def test_windows_does_not_import_the_engine():
    # the package imports the engine itself, so read the module's own imports
    tree = ast.parse(inspect.getsource(windows))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
    assert not {"tensor", "gswin.tensor"} & imported, imported
