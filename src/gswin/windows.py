"""Window tiling geometry, and the one window layout the gating unit runs.

:class:`WindowGrid` is the one description of a layer's tiling: its band
extents and the window types the gating unit mixes. One rule tiles every
map. Each token keeps the in-window position that zero padding to whole
windows gives it. Along an axis where a shifted tiling's leading and
trailing partial bands fit in one window side by side, the two share one
wrapped window, as Swin's cyclic shift (the map rolled by ``-offset``) puts
them, and a mask keeps each band's tokens to their own band; on any other
axis each partial band sits in a zero-padded window of its own. So every
layer mixes ceil(H/h) * ceil(W/w) windows, the unshifted layer's count.
:func:`gather` and :func:`scatter` move one window type's tokens between a
map and its batch; :func:`window_partition` and :func:`window_reverse` do so
for every type of a grid. All of them work on numpy arrays.
"""
from __future__ import annotations

from functools import cached_property
from itertools import product
from typing import NamedTuple

import numpy as np


class Piece(NamedTuple):
    """One axis of a block of map tokens that sits whole in a window type's batch.

    ``src`` is the token range on the map, laid out as the windows ``win`` of
    the type's batch at in-window positions ``pos``.
    """

    win: slice
    pos: slice
    src: slice


class WindowType(NamedTuple):
    """Windows of a grid that the gating unit mixes as one batch with one weight.

    counts: (rows, cols) of windows in the batch.
    pieces: (row, column) :class:`Piece` pairs that together place every map
            token of these windows.
    mask:   (T, T) bool, True where two in-window positions lie in one band
            of the map.
    """

    counts: tuple[int, int]
    pieces: tuple[tuple[Piece, Piece], ...]
    mask: np.ndarray


def _axis(extent: int, window: int, origin: int) -> tuple[tuple[int, int, int], list]:
    """One axis of a tiling: its bands ``(origin, full, tail)`` and its window groups.

    Raises ``ValueError`` unless the window fits the axis and the origin lies
    in it. A group is (window count, pieces, band split); a split of 0 leaves
    the window one band. The leading partial band sits at in-window positions
    ``lead..window`` and the trailing one at ``0..tail``. When ``0 < tail <=
    lead``, which every whole-window axis with a nonzero origin meets, the
    two share one wrapped window, split at ``lead``, after a group of the
    whole windows. Otherwise one group covers the axis, zero-padded.
    """
    if not 1 <= window <= extent:
        raise ValueError(f"window {window} does not fit axis extent {extent}")
    if not 0 <= origin < window:
        raise ValueError(f"origin {origin} outside [0, {window})")
    lead = (window - origin) % window
    full, tail = divmod(extent - origin, window)
    first = 1 if origin else 0
    head = Piece(slice(0, 1), slice(lead, window), slice(0, origin))
    body = Piece(slice(first, first + full), slice(0, window),
                 slice(origin, origin + full * window))
    end = Piece(slice(first + full, first + full + 1), slice(0, tail), slice(extent - tail, extent))
    if 0 < tail <= lead:
        shared = [(full, (body._replace(win=slice(0, full)),), 0)] * bool(full)
        return (origin, full, tail), shared + [(1, (end._replace(win=slice(0, 1)), head), lead)]
    padded = (head,) * bool(origin) + (body,) * bool(full) + (end,) * bool(tail)
    return (origin, full, tail), [(bool(origin) + full + bool(tail), padded, 0)]


def _band_mask(window: tuple[int, int], splits: tuple[int, int]) -> np.ndarray:
    """(T, T) bool: True where two in-window positions lie on one side of each split."""
    same = [band[:, None] == band[None, :]
            for band in (np.arange(e) >= split for e, split in zip(window, splits))]
    T = window[0] * window[1]
    return (same[0][:, None, :, None] & same[1][None, :, None, :]).reshape(T, T)


def shift_offset(window: tuple[int, int], shifted: bool) -> tuple[int, int]:
    """Origin of a layer's tiling: half a window along each axis when shifted."""
    return (window[0] // 2, window[1] // 2) if shifted else (0, 0)


class WindowGrid:
    """Uniform tiling of an H x W map by h x w windows.

    The first whole window starts at ``offset`` (oy, ox), so along each axis
    a nonzero origin leaves a leading partial band before it.

    bands:  per axis, the bands the tiling cuts the axis into, as
            ``(origin, full, tail)``: the tokens of the leading partial band,
            the count of whole windows and the tokens of the trailing
            partial band. A partial band of 0 tokens is no band.
    rolled: H and W are whole multiples of h and w, so no window holds
            padding and :func:`gather` need not zero its batch.
    types:  the :class:`WindowType` batches the gating unit mixes, one per
            pair of a row group and a column group. An axis whose partial
            bands share a window has two groups, its whole windows (when it
            has any) and the wrapped window, masked to its two bands; any
            other axis has one group of all its windows. A whole-window map
            thus mixes the interior windows, the wrapped last row, the
            wrapped last column and the corner. Built on first read.
    """

    def __init__(self, image: tuple[int, int], window: tuple[int, int],
                 offset: tuple[int, int] = (0, 0)):
        self.image = (int(image[0]), int(image[1]))
        self.window = (int(window[0]), int(window[1]))
        self.offset = (int(offset[0]), int(offset[1]))
        self.bands, self._groups = zip(
            *(_axis(*axis) for axis in zip(self.image, self.window, self.offset)))
        self.rolled = all(e % win == 0 for e, win in zip(self.image, self.window))

    @cached_property
    def types(self) -> tuple[WindowType, ...]:
        return tuple(
            WindowType((nr, nc), tuple(product(pr, pc)), _band_mask(self.window, (sr, sc)))
            for (nr, pr, sr), (nc, pc, sc) in product(*self._groups))


def _windowed(a: np.ndarray, rows: Piece, cols: Piece, heads: int) -> np.ndarray:
    """The tokens of a (B, H, W, C) map that two pieces name, as a
    (K, h', w', B, n_r, n_c, ch) view laid out like :func:`gather`'s batch."""
    B, C = a.shape[0], a.shape[-1]
    nr, hp = rows.win.stop - rows.win.start, rows.pos.stop - rows.pos.start
    nc, wp = cols.win.stop - cols.win.start, cols.pos.stop - cols.pos.start
    return (a[:, rows.src, cols.src].reshape(B, nr, hp, nc, wp, heads, C // heads)
            .transpose(5, 2, 4, 0, 1, 3, 6))


def gather(a: np.ndarray, wtype: WindowType, grid: WindowGrid, heads: int) -> np.ndarray:
    """One window type's tokens of a (B, H, W, C) map as a (K, T, windows*ch)
    batch in one copy, so each of the K heads mixes them with one GEMM; the
    padding of a grid that is not rolled is zero."""
    (nr, nc), (h, w) = wtype.counts, grid.window
    out = (np.empty if grid.rolled else np.zeros)(
        (heads, h, w, a.shape[0], nr, nc, a.shape[-1] // heads), a.dtype)
    for rows, cols in wtype.pieces:
        out[:, rows.pos, cols.pos, :, rows.win, cols.win] = _windowed(a, rows, cols, heads)
    return out.reshape(heads, h * w, -1)


def scatter(batch: np.ndarray, wtype: WindowType, grid: WindowGrid, out: np.ndarray) -> None:
    """Inverse of :func:`gather`: write the batch back onto its tokens of ``out``."""
    (nr, nc), (h, w), K = wtype.counts, grid.window, batch.shape[0]
    batch = batch.reshape(K, h, w, out.shape[0], nr, nc, -1)
    for rows, cols in wtype.pieces:
        _windowed(out, rows, cols, K)[...] = batch[:, rows.pos, cols.pos, :, rows.win, cols.win]


def window_partition(x: np.ndarray, grid: WindowGrid) -> list[np.ndarray]:
    """Every window of a (B, H, W, C) map, one batch per entry of ``grid.types``.

    Batch t is (h*w, B, n_r, n_c, C) for type t's counts (n_r, n_c): token p
    of window (i, j) of image b is ``[p, b, i, j]``; a grid that is not rolled
    pads with zeros. Reshaped to (h*w, -1) it is :func:`gather`'s one-head batch.
    """
    B, H, W, C = x.shape
    if (H, W) != grid.image:
        raise ValueError(f"grid built for {grid.image}, input map is {(H, W)}")
    T = grid.window[0] * grid.window[1]
    return [gather(x, t, grid, 1).reshape(T, B, *t.counts, C) for t in grid.types]


def window_reverse(batches: list[np.ndarray], grid: WindowGrid) -> np.ndarray:
    """Inverse of :func:`window_partition` for the same grid."""
    if len(batches) != len(grid.types):
        raise ValueError(f"expected one window batch per window type, got {len(batches)}")
    T, shape = grid.window[0] * grid.window[1], batches[0].shape
    B, C = (shape[1], shape[4]) if len(shape) == 5 else (0, 0)  # then the check below fails
    out = np.empty((B, *grid.image, C), batches[0].dtype)
    for batch, t in zip(batches, grid.types):
        if batch.shape != (T, B, *t.counts, C):
            raise ValueError(f"batch shape {batch.shape} does not match grid type "
                             f"{t.counts} of {grid.window} windows")
        scatter(batch[None], t, grid, out)
    return out
