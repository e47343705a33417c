"""Spatial gating kernels.

The gating step splits tokens channel-wise into a value half and a gate half,
mixes the gate half spatially with a learned token-by-token weight per head,
and multiplies: Y = Z1 * (W Z2 + b). :func:`multi_head_window_sgu` applies
this rule in each window of a :class:`~gswin.windows.WindowGrid`.

Each layer mixes the window types of its grid with one matmul per type,
batched over the heads. It takes one type's gate half at a time from the map
with :func:`~gswin.windows.gather`, mixes it, and writes the result back with
:func:`~gswin.windows.scatter`. A wrapped window, where a shifted layer's two
partial bands share one window, mixes with the weight zeroed between tokens
of different bands; any other partial band is mixed zero-padded to a whole
window. Either way every token keeps its in-window position and mixes only
with the real tokens of its own band pair, so the result equals slicing the
weights for each partial window (the ``padding-free`` strategy of
:mod:`gswin.analysis`, which the paper counts as cheaper).

A gating layer records one graph node, over the input, ``w_win``, ``b_win``
and the relative-offset table, with an analytic vjp. The forward builds the
effective weight in numpy, and the vjp scatters its gradient back onto the
table. A recorded node keeps what that vjp reads, a copy of the value half,
the mixed gate and each type's head-major gate half, and forms every parent's
gradient; ``backward`` drops those of parents that need none. Its output
carries the recipe ``z1 * m`` (see :mod:`gswin.tensor`), so the projection
after it keeps no copy of the gated map and rebuilds it in backward.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Parameter, Tensor
from .windows import WindowGrid, gather, scatter
# Not called here; the benchmark's probe (perfbench/probe.py) wraps these names.
from .windows import window_partition, window_reverse  # noqa: F401


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

    The gate half is mixed per window type of ``grid``, with the weight
    masked to each type's bands, written back onto the map, and multiplied
    into the value half. Output is (B, H, W, C).
    """
    C2 = x.shape[-1]
    if C2 % 2:
        raise ValueError(f"channel extent {C2} is odd; need value/gate halves")
    C, K = C2 // 2, params.heads
    if C % K:
        raise ValueError(f"heads {K} do not divide the gate half's {C} channels")
    B, H, W, _ = x.shape
    if (H, W) != grid.image:
        raise ValueError(f"grid built for {grid.image}, input map is {(H, W)}")
    w_win, b_win, table = params.w_win, params.b_win, params.rel_table
    parents = (x, w_win, b_win) if table is None else (x, w_win, b_win, table)
    record = Tensor._records(parents)
    wt = effective_weight(params, grid.window).transpose(2, 0, 1)
    wts = [np.where(t.mask, wt, 0.0) for t in grid.types]
    bias = b_win.data.T.reshape(K, -1, 1)
    m, zhs = None, []
    for wtype, wt_t in zip(grid.types, wts):
        zh = gather(x.data[..., C:], wtype, grid, K)
        # A non-recording wrap keeps the mixing GEMM visible to a tracer patching ``Tensor``.
        mixed = (Tensor(wt_t) @ Tensor(zh)).data
        if record:
            zhs.append(zh)
        del zh  # freed before the bias add when no vjp reads it
        mixed += bias
        if m is None:  # allocated only once the first gate-half copy is freed
            m = np.empty((B, H, W, C))
        scatter(mixed, wtype, grid, m)
        del mixed
    z1 = x.data[..., :C]
    if not record:
        m *= z1  # the gate multiply in place: the same product, one half-map fewer
        return Tensor(m)
    z1 = z1.copy()  # a view of ``x`` would keep the whole (B, H, W, 2C) input alive
    out = z1 * m

    def vjp(g):
        dm = g * z1
        dx = np.empty((B, H, W, C2))
        np.multiply(g, m, out=dx[..., :C])
        dw = db = None
        for wtype, wt_t, zh in zip(grid.types, wts, zhs):
            dmh = gather(dm, wtype, grid, K)
            dw_t = np.matmul(dmh, np.swapaxes(zh, -1, -2))
            dw_t[:, ~wtype.mask] = 0.0
            db_t = dmh.sum(axis=2)
            dw, db = (dw_t, db_t) if dw is None else (dw + dw_t, db + db_t)
            scatter(np.matmul(np.swapaxes(wt_t, -1, -2), dmh), wtype, grid, dx[..., C:])
        dw = dw.transpose(1, 2, 0)
        dtable = None
        if table is not None:
            dtable = np.zeros(table.shape)
            np.add.at(dtable, toeplitz_index_map(grid.window).reshape(-1), dw.reshape(-1, K))
        return dx, dw, db.T, dtable

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
