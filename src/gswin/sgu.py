"""Spatial gating kernels.

The gating step splits tokens channel-wise into a value half and a gate half,
mixes the gate half spatially with a learned token-by-token weight per head,
and multiplies: Y = Z1 * (W Z2 + b). :func:`multi_head_window_sgu` applies
this rule in each window of a :class:`~gswin.windows.WindowGrid`.

Partial windows of a shifted or ragged grid are zero-padded to whole windows
(the ``zero-padding`` strategy of :mod:`gswin.analysis`), so each layer mixes
one uniform window batch with one GEMM per head. Padded tokens contribute
nothing to the real ones and their own outputs are cropped, so the result
equals slicing the weights for each partial window (the ``padding-free``
strategy, which the paper counts as cheaper).

A gating layer records one graph node, over the input, ``w_win``, ``b_win``
and the relative-offset table, with an analytic vjp. The forward builds the
effective weight in numpy, and the vjp scatters its gradient back onto the
table. A recorded node keeps what that vjp reads, a copy of the value half,
the mixed gate and the head-major gate half, and forms every parent's
gradient; ``backward`` drops those of parents that need none. Its output
carries the recipe ``z1 * m`` (see :mod:`gswin.tensor`), so the projection
after it keeps no copy of the gated map and rebuilds it in backward.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Parameter, Tensor
from .windows import WindowGrid, window_partition, window_reverse


def _table_rows(window: tuple[int, int]) -> int:
    """Rows of a window's relative-offset table: one per distinct token offset."""
    h, w = window
    return (2 * h - 1) * (2 * w - 1)


def toeplitz_index_map(window: tuple[int, int]) -> np.ndarray:
    """Indices into a relative-offset table for every token pair of a window.

    For ``window`` = (h, w), the entry for relative offset (dy, dx) lives at
    (dy + h - 1) * (2w - 1) + (dx + w - 1). Returns an int array of shape
    (h*w, h*w).
    """
    h, w = window
    ys, xs = np.divmod(np.arange(h * w), w)
    dy = ys[:, None] - ys[None, :]
    dx = xs[:, None] - xs[None, :]
    return (dy + h - 1) * (2 * w - 1) + (dx + w - 1)


def materialize_relative_bias(rel_table: np.ndarray, window: tuple[int, int]) -> np.ndarray:
    """Expand a relative-offset table (L, K) to mixing-weight form (T, T, K).

    Output entry [(x, y), (x', y'), k] = rel_table[index(x - x', y - y'), k];
    equal relative offsets share one table row.
    """
    L = _table_rows(window)
    if rel_table.shape[0] != L:
        raise ValueError(f"table has {rel_table.shape[0]} rows, window {window} needs {L}")
    T = window[0] * window[1]
    return rel_table[toeplitz_index_map(window).reshape(-1)].reshape(T, T, -1)


@dataclass
class SguParams:
    """Learned state of one windowed gating unit with K heads over h x w windows.

    w_win: (h*w, h*w, K) spatial mixing weight per head.
    b_win: (h*w, K) spatial bias per head.
    rel_table: optional ((2h-1)*(2w-1), K) relative-offset bias table.
    The window comes from the layer's grid, and K from the weights' last axis.
    """

    w_win: Tensor
    b_win: Tensor
    rel_table: Tensor | None = None

    @property
    def heads(self) -> int:
        return self.w_win.shape[-1]


def init_sgu_params(window: tuple[int, int], heads: int, rel_bias: bool = True,
                    prefix: str = "sgu") -> SguParams:
    """Identity-initialized gating parameters: zero mixing, unit bias.

    At this state the gate multiplies by exactly 1 everywhere, so the unit
    passes the value half through unchanged.
    """
    if heads < 1:
        raise ValueError("heads must be >= 1")
    T, L = window[0] * window[1], _table_rows(window)
    return SguParams(w_win=Parameter(np.zeros((T, T, heads)), f"{prefix}.w_win"),
                     b_win=Parameter(np.ones((T, heads)), f"{prefix}.b_win"),
                     rel_table=Parameter(np.zeros((L, heads)), f"{prefix}.rel_table")
                     if rel_bias else None)


def _head_major(a: np.ndarray, grid: WindowGrid, heads: int) -> np.ndarray:
    """Lay a padded (B, ..., C) map out as (K, T, windows*ch) in one copy, so
    each of the K heads mixes all windows of the batch with one GEMM."""
    (nh, nw), (h, w) = grid.counts, grid.window
    B, C = a.shape[0], a.shape[-1]
    return (a.reshape(B, nh, h, nw, w, heads, C // heads)
            .transpose(5, 2, 4, 0, 1, 3, 6).reshape(heads, h * w, -1))


def _map_major(a: np.ndarray, grid: WindowGrid, batch: int) -> np.ndarray:
    """Inverse of :func:`_head_major`: a (B, n_h, h, n_w, w, C) window batch."""
    (nh, nw), (h, w) = grid.counts, grid.window
    return (a.reshape(a.shape[0], h, w, batch, nh, nw, -1)
            .transpose(3, 4, 1, 5, 2, 0, 6).reshape(batch, nh, h, nw, w, -1))


def effective_weight(params: SguParams, window: tuple[int, int]) -> np.ndarray:
    """Learned mixing weight plus the materialized relative-offset bias; raises
    ``ValueError`` unless every array of ``params`` fits ``window`` and K heads."""
    T, L, K = window[0] * window[1], _table_rows(window), params.heads
    for name, shape in (("w_win", (T, T, K)), ("b_win", (T, K)), ("rel_table", (L, K))):
        a = getattr(params, name)
        if a is not None and a.shape != shape:
            raise ValueError(f"{name} shape {a.shape}, expected {shape} for window {window}")
    if params.rel_table is None:
        return params.w_win.data
    return params.w_win.data + materialize_relative_bias(params.rel_table.data, window)


def multi_head_window_sgu(x: Tensor, params: SguParams, grid: WindowGrid) -> Tensor:
    """Windowed multi-head gating over a (B, H, W, 2C) feature map.

    The gate half is zero-padded to whole windows, mixed as one window batch,
    cropped back to the map, and multiplied into the value half. Output is
    (B, H, W, C).
    """
    C2 = x.shape[-1]
    if C2 % 2:
        raise ValueError(f"channel extent {C2} is odd; need value/gate halves")
    C, K = C2 // 2, params.heads
    if C % K:
        raise ValueError(f"heads {K} do not divide the gate half's {C} channels")
    B, H, W, _ = x.shape
    w_win, b_win, table = params.w_win, params.b_win, params.rel_table
    parents = (x, w_win, b_win) if table is None else (x, w_win, b_win, table)
    record = Tensor._records(parents)
    wt = effective_weight(params, grid.window).transpose(2, 0, 1)
    zh = _head_major(window_partition(x.data[..., C:], grid)[0], grid, K)
    # A non-recording wrap keeps the mixing GEMM visible to a tracer patching ``Tensor``.
    mixed = (Tensor(wt) @ Tensor(zh)).data + b_win.data.T.reshape(K, -1, 1)
    zh = zh if record else None
    m = window_reverse([_map_major(mixed, grid, B)], grid)
    del mixed
    z1 = x.data[..., :C]
    if not record:
        return Tensor(z1 * m)
    m = np.ascontiguousarray(m)  # drops the crop's padded base before ``out`` exists
    z1 = z1.copy()  # a view of ``x`` would keep the whole (B, H, W, 2C) input alive
    out = z1 * m
    (nh, nw), (h, w) = grid.counts, grid.window
    padded = (B, nh * h, nw * w, C)

    def vjp(g):
        dm = np.zeros(padded)
        np.multiply(g, z1, out=grid.crop(dm))
        dmh = _head_major(dm, grid, K)
        del dm
        dw = np.matmul(dmh, np.swapaxes(zh, -1, -2)).transpose(1, 2, 0)
        db = dmh.sum(axis=2).T
        dtable = None
        if table is not None:
            dtable = np.zeros(table.shape)
            np.add.at(dtable, toeplitz_index_map(grid.window).reshape(-1), dw.reshape(-1, K))
        dx = np.empty((B, H, W, C2))
        np.multiply(g, m, out=dx[..., :C])
        dz = _map_major(np.matmul(np.swapaxes(wt, -1, -2), dmh), grid, B)
        dx[..., C:] = grid.crop(dz.reshape(padded))
        return dx, dw, db, dtable

    y = Tensor._result(out, parents, vjp)
    y._remake = lambda: z1 * m
    return y


def zero_padding_shift_oracle(x: Tensor, params: SguParams, grid: WindowGrid) -> np.ndarray:
    """Reference path: pad to uniform windows, run the full-window gate, crop.

    Deliberately plain numpy with explicit per-window, per-head loops and its
    own pad widths; shares no code with :func:`multi_head_window_sgu`. Forward
    values only (no graph). Zero-padded gate inputs contribute nothing to
    surviving rows, and cropped rows discard the padding's own outputs, so
    this equals per-window weight slicing and must match the model's batched
    path to within accumulation noise.
    """
    B, H, W, C2 = x.shape
    if C2 % 2:
        raise ValueError(f"channel extent {C2} is odd; need value/gate halves")
    C = C2 // 2
    K = params.w_win.shape[-1]
    if C % K:
        raise ValueError(f"heads {K} do not divide gate channels {C}")
    if (H, W) != grid.image:
        raise ValueError(f"grid built for {grid.image}, input map is {(H, W)}")
    h, w = grid.window
    T, L = h * w, (2 * h - 1) * (2 * w - 1)
    for name, shape in (("w_win", (T, T, K)), ("b_win", (T, K)), ("rel_table", (L, K))):
        a = getattr(params, name)
        if a is not None and a.shape != shape:
            raise ValueError(f"{name} shape {a.shape} != {shape} for grid window {(h, w)}")
    oy, ox = grid.offset
    pad_top = (h - oy) % h
    pad_left = (w - ox) % w
    pad_bottom = (-(pad_top + H)) % h
    pad_right = (-(pad_left + W)) % w

    data = np.asarray(x.data, dtype=np.float64)
    z1 = data[:, :, :, :C]
    z2 = data[:, :, :, C:]
    z2p = np.pad(z2, ((0, 0), (pad_top, pad_bottom), (pad_left, pad_right), (0, 0)))

    w_full = np.asarray(params.w_win.data, dtype=np.float64)
    if params.rel_table is not None:
        table = np.asarray(params.rel_table.data, dtype=np.float64)
        idx = toeplitz_index_map((h, w))
        w_full = w_full + table[idx]
    b_full = np.asarray(params.b_win.data, dtype=np.float64)

    ch = C // K
    Hp, Wp = z2p.shape[1], z2p.shape[2]
    mixed = np.empty_like(z2p)
    for n in range(B):
        for wy in range(0, Hp, h):
            for wx in range(0, Wp, w):
                tile = z2p[n, wy:wy + h, wx:wx + w, :].reshape(h * w, C)
                out = np.empty_like(tile)
                for k in range(K):
                    blk = tile[:, k * ch:(k + 1) * ch]
                    out[:, k * ch:(k + 1) * ch] = w_full[:, :, k] @ blk + b_full[:, k:k + 1]
                mixed[n, wy:wy + h, wx:wx + w, :] = out.reshape(h, w, C)
    cropped = mixed[:, pad_top:pad_top + H, pad_left:pad_left + W, :]
    return z1 * cropped
