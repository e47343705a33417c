"""Window tiling geometry.

:class:`WindowGrid` is the one description of a layer's tiling: its pad
widths, window counts and band extents, and the crop back from the padded
map. The gating unit mixes the padded map as one uniform window batch per
layer. The window helpers work on numpy arrays.
"""
from __future__ import annotations

import numpy as np


def _check_axis(extent: int, window: int, origin: int) -> None:
    if window < 1 or window > extent:
        raise ValueError(f"window {window} does not fit axis extent {extent}")
    if not 0 <= origin < window:
        raise ValueError(f"origin {origin} outside [0, {window})")


def shift_offset(window: tuple[int, int], shifted: bool) -> tuple[int, int]:
    """Origin of a layer's tiling: half a window along each axis when shifted."""
    return (window[0] // 2, window[1] // 2) if shifted else (0, 0)


class WindowGrid:
    """Uniform tiling of an H x W map by h x w windows, zero-padded to fit.

    The first whole window starts at ``offset`` (oy, ox). The map is padded
    with ``(h - oy) % h`` rows on top and ``(w - ox) % w`` columns on the
    left, so that a leading partial band becomes a whole window, and on the
    bottom and right up to a whole window.

    pads:   (top, bottom, left, right) zero bands.
    counts: (n_h, n_w) windows of the padded map.
    bands:  per axis, the token extents of the bands the tiling cuts the
            unpadded axis into: a leading partial band when the origin is
            nonzero, the whole windows, and a trailing remainder.
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
