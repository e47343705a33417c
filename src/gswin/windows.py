"""Window tiling geometry.

A layer's windows form one uniform grid. The map is zero-padded so that
every window is whole: a shifted tiling, whose first full window starts at
offset (oy, ox), pads ``(h - oy) % h`` rows on top and ``(w - ox) % w``
columns on the left, and every tiling pads the bottom and right up to a
whole window. The gating unit then mixes one window batch per layer.
"""
from __future__ import annotations

from .tensor import Tensor


def _check_axis(extent: int, window: int, origin: int) -> None:
    if window < 1 or window > extent:
        raise ValueError(f"window {window} does not fit axis extent {extent}")
    if not 0 <= origin < window:
        raise ValueError(f"origin {origin} outside [0, {window})")


def shift_offset(window: tuple[int, int], shifted: bool) -> tuple[int, int]:
    """Origin of a layer's tiling: half a window along each axis when shifted."""
    return (window[0] // 2, window[1] // 2) if shifted else (0, 0)


def pad_widths(image: tuple[int, int], window: tuple[int, int],
               offset: tuple[int, int]) -> tuple[int, int, int, int]:
    """(top, bottom, left, right) zero bands that make a tiling uniform.

    The first full window starts at ``offset``; padding the map by these
    widths turns the leading and trailing partial bands into whole windows.
    """
    (H, W), (h, w), (oy, ox) = image, window, offset
    top = (h - oy) % h
    left = (w - ox) % w
    return top, (-(top + H)) % h, left, (-(left + W)) % w


class WindowGrid:
    """Uniform tiling of an H x W map by h x w windows, zero-padded to fit.

    With offset (0, 0) on a map the window divides, no padding is needed. A
    shifted tiling (offset (h//2, w//2)) pads ``top``/``left`` so that its
    partial leading band becomes a whole window, and every grid pads the
    bottom and right up to a whole window.
    """

    def __init__(self, image: tuple[int, int], window: tuple[int, int],
                 offset: tuple[int, int] = (0, 0)):
        self.image = (int(image[0]), int(image[1]))
        self.window = (int(window[0]), int(window[1]))
        self.offset = (int(offset[0]), int(offset[1]))
        for extent, win, origin in zip(self.image, self.window, self.offset):
            _check_axis(extent, win, origin)
        self.pads = pad_widths(self.image, self.window, self.offset)
        top, bottom, left, right = self.pads
        self.counts = ((top + self.image[0] + bottom) // self.window[0],
                       (left + self.image[1] + right) // self.window[1])

    @property
    def shifted(self) -> bool:
        return self.offset != (0, 0)

    def __repr__(self) -> str:
        return (f"WindowGrid(image={self.image}, window={self.window}, "
                f"offset={self.offset}, pads={self.pads})")


def window_partition(x: Tensor, grid: WindowGrid) -> list[Tensor]:
    """Pad (B, H, W, C) to whole windows and view it as one window batch.

    Returns a one-element list holding the (B, n_h, h, n_w, w, C) view of
    the padded map; window (i, j) is ``[:, i, :, j, :, :]``.
    """
    B, H, W, C = x.shape
    if (H, W) != grid.image:
        raise ValueError(f"grid built for {grid.image}, input map is {(H, W)}")
    top, bottom, left, right = grid.pads
    if any(grid.pads):
        x = x.pad(((0, 0), (top, bottom), (left, right), (0, 0)))
    (nh, nw), (h, w) = grid.counts, grid.window
    return [x.reshape(B, nh, h, nw, w, C)]


def window_reverse(batches: list[Tensor], grid: WindowGrid) -> Tensor:
    """Inverse of :func:`window_partition` for the same grid: un-window and crop."""
    if len(batches) != 1:
        raise ValueError(f"expected one window batch, got {len(batches)}")
    (wins,) = batches
    (nh, nw), (h, w) = grid.counts, grid.window
    if wins.ndim != 6 or wins.shape[1:5] != (nh, h, nw, w):
        raise ValueError(f"batch shape {wins.shape} does not match grid {grid}")
    B, C = wins.shape[0], wins.shape[5]
    x = wins.reshape(B, nh * h, nw * w, C)
    if any(grid.pads):
        (H, W), top, left = grid.image, grid.pads[0], grid.pads[2]
        x = x[:, top:top + H, left:left + W, :]
    return x
