"""Window tiling geometry.

:class:`WindowGrid` is the one description of a layer's tiling: its pad
widths, window counts and band extents, the crop back from the padded map,
and the window types the gating unit mixes. A grid whose map extents are
whole multiples of its window is mixed on the map rolled by ``-offset``
(Swin's cyclic shift): no window is padded, and the windows that wrap round
the map's edge mix only tokens of their own band. Any other grid is mixed
zero-padded to whole windows. The window helpers work on numpy arrays.
"""
from __future__ import annotations

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


def _axis_groups(extent: int, window: int, origin: int,
                 roll: bool) -> list[tuple[int, tuple[Piece, ...], int]]:
    """Along one axis, (window count, pieces, band split) of each window group.

    Padded, one group covers the axis: the leading partial band sits at the
    end of window 0 and the trailing one at the start of the last window.
    Rolled, the whole windows form one group and the two partial bands share
    one wrapped window, split between them at the same positions. A split of
    0 leaves the window one band.
    """
    lead = (window - origin) % window
    full, tail = divmod(extent - origin, window)
    first = 1 if origin else 0
    head = Piece(slice(0, 1), slice(lead, window), slice(0, origin))
    body = Piece(slice(first, first + full), slice(0, window),
                 slice(origin, origin + full * window))
    end = Piece(slice(first + full, first + full + 1), slice(0, tail), slice(extent - tail, extent))
    if not roll:
        pieces = (head,) * bool(origin) + (body,) * bool(full) + (end,) * bool(tail)
        return [(first + full + bool(tail), pieces, 0)]
    groups = [(full, (body._replace(win=slice(0, full)),), 0)] if full else []
    if origin:  # tail == lead: the two partial bands fill one window
        groups.append((1, (end._replace(win=slice(0, 1)), head), lead))
    return groups


def _band_mask(window: tuple[int, int], splits: tuple[int, int]) -> np.ndarray:
    """(T, T) bool: True where two in-window positions lie on one side of each split."""
    same = [band[:, None] == band[None, :]
            for band in (np.arange(e) >= split for e, split in zip(window, splits))]
    T = window[0] * window[1]
    return (same[0][:, None, :, None] & same[1][None, :, None, :]).reshape(T, T)


def _check_axis(extent: int, window: int, origin: int) -> None:
    if window < 1 or window > extent:
        raise ValueError(f"window {window} does not fit axis extent {extent}")
    if not 0 <= origin < window:
        raise ValueError(f"origin {origin} outside [0, {window})")


def shift_offset(window: tuple[int, int], shifted: bool) -> tuple[int, int]:
    """Origin of a layer's tiling: half a window along each axis when shifted."""
    return (window[0] // 2, window[1] // 2) if shifted else (0, 0)


class WindowGrid:
    """Uniform tiling of an H x W map by h x w windows.

    The first whole window starts at ``offset`` (oy, ox). Zero-padded, the
    map gets ``(h - oy) % h`` rows on top and ``(w - ox) % w`` columns on the
    left, so that a leading partial band becomes a whole window, and on the
    bottom and right up to a whole window.

    pads:   (top, bottom, left, right) zero bands.
    counts: (n_h, n_w) windows of the padded map.
    bands:  per axis, the token extents of the bands the tiling cuts the
            unpadded axis into: a leading partial band when the origin is
            nonzero, the whole windows, and a trailing remainder.
    rolled: H and W are whole multiples of h and w, so the windows tile the
            map rolled by ``-offset`` with no padding. Each token keeps the
            in-window position that padding gives it; the last row and
            column of windows wrap round the map's edge.
    types:  the :class:`WindowType` batches the gating unit mixes. Rolled:
            the interior windows, the wrapped last row, the wrapped last
            column and the corner, each present when it holds a window, the
            wrapped ones masked to their bands. Otherwise: one batch of
            every padded window.
    """

    def __init__(self, image: tuple[int, int], window: tuple[int, int],
                 offset: tuple[int, int] = (0, 0)):
        self.image = (int(image[0]), int(image[1]))
        self.window = (int(window[0]), int(window[1]))
        self.offset = (int(offset[0]), int(offset[1]))
        pads, counts, bands = [], [], []
        for extent, win, origin in zip(self.image, self.window, self.offset):
            _check_axis(extent, win, origin)
            lead = (win - origin) % win
            trail = -(lead + extent) % win
            pads += [lead, trail]
            counts.append((lead + extent + trail) // win)
            full, tail = divmod(extent - origin, win)
            bands.append(tuple(e for e in (origin, *[win] * full, tail) if e))
        self.pads = tuple(pads)
        self.counts = tuple(counts)
        self.bands = tuple(bands)
        self.rolled = all(e % win == 0 for e, win in zip(self.image, self.window))
        rows, cols = (_axis_groups(e, win, o, self.rolled)
                      for e, win, o in zip(self.image, self.window, self.offset))
        self.types = tuple(
            WindowType((nr, nc), tuple(product(pr, pc)), _band_mask(self.window, (sr, sc)))
            for (nr, pr, sr), (nc, pc, sc) in product(rows, cols))

    def crop(self, a: np.ndarray) -> np.ndarray:
        """The view of a padded (B, H_pad, W_pad, ...) map that holds the unpadded one."""
        (H, W), top, left = self.image, self.pads[0], self.pads[2]
        return a[:, top:top + H, left:left + W]

    def __repr__(self) -> str:
        return (f"WindowGrid(image={self.image}, window={self.window}, "
                f"offset={self.offset}, pads={self.pads})")


def window_partition(x: np.ndarray, grid: WindowGrid) -> list[np.ndarray]:
    """Pad (B, H, W, C) to whole windows and view it as one window batch.

    Returns a one-element list holding the (B, n_h, h, n_w, w, C) view of
    the padded map; window (i, j) is ``[:, i, :, j, :, :]``. An unpadded
    grid returns a view of ``x`` itself.
    """
    B, H, W, C = x.shape
    if (H, W) != grid.image:
        raise ValueError(f"grid built for {grid.image}, input map is {(H, W)}")
    top, bottom, left, right = grid.pads
    if any(grid.pads):
        x = np.pad(x, ((0, 0), (top, bottom), (left, right), (0, 0)))
    (nh, nw), (h, w) = grid.counts, grid.window
    return [x.reshape(B, nh, h, nw, w, C)]


def window_reverse(batches: list[np.ndarray], grid: WindowGrid) -> np.ndarray:
    """Inverse of :func:`window_partition` for the same grid: un-window and crop."""
    if len(batches) != 1:
        raise ValueError(f"expected one window batch, got {len(batches)}")
    (wins,) = batches
    (nh, nw), (h, w) = grid.counts, grid.window
    if wins.ndim != 6 or wins.shape[1:5] != (nh, h, nw, w):
        raise ValueError(f"batch shape {wins.shape} does not match grid {grid}")
    return grid.crop(wins.reshape(wins.shape[0], nh * h, nw * w, wins.shape[5]))
