"""Closed-form cost accounting and weight-map export.

Parameter counts are exact (they must match model enumeration to the scalar).
FLOP counts use the 1 MAC = 1 FLOP convention common to published
vision-backbone figures: matmul products, biases, gate multiplies, GELU
(1/element) and LayerNorm (5/element) are counted; residual adds and the
materialization of effective mixing weights are not. Under this convention
the spatial-mixing cost is independent of the head count (each token-mixing
product touches every gate channel exactly once regardless of grouping).

Both strategies read a layer's geometry from the ``bands`` of its
:class:`~gswin.windows.WindowGrid`. "padding-free" charges each window its
true token count (the paper's count); "zero-padding" charges every band pair
a whole h x w window, as if each partial band were zero-padded to a window of
its own. The model mixes ceil(H/h) * ceil(W/w) whole windows on every map,
shifted or not: a shifted layer's two partial bands share one window on
each axis where they fit (see :mod:`gswin.windows`), so its mixing work is
the unshifted layer's and lies between the two counts.
"""
from __future__ import annotations

import csv
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .model import GswinModel, ModelConfig
from .sgu import effective_weight
from .windows import WindowGrid

FLOPS_PER_LN_ELEMENT = 5
CONVENTION = "1 MAC = 1 FLOP; biases, gates, GELU (1/elt) and LayerNorm (5/elt) counted"

STRATEGIES = ("padding-free", "zero-padding")


@dataclass
class CostReport:
    per_module: dict[str, int]
    total_params: int
    flops: int | None = None
    resolution: int | None = None
    strategy: str | None = None
    convention: str = CONVENTION


def _block_params(dim: int, window: tuple[int, int], heads: int, expansion: int,
                  rel_bias: bool) -> int:
    h, w = window
    T = h * w
    gate = (expansion // 2) * dim
    n = 2 * dim                                  # pre-norm affine
    n += dim * expansion * dim + expansion * dim  # input projection
    n += (T * T + T) * heads                      # mixing weight + spatial bias
    if rel_bias:
        n += (2 * h - 1) * (2 * w - 1) * heads
    n += gate * dim + dim                         # output projection
    return n


def count_params(config: ModelConfig) -> CostReport:
    """Exact closed-form parameter count, broken down by module."""
    C = config.base_channels
    per: dict[str, int] = {"patch_embed": 4 * 4 * 3 * C + C + 2 * C}
    for s, depth in enumerate(config.depths):
        dim = config.stage_channels[s]
        win = config.stage_window(s)
        per[f"stages.{s}"] = depth * _block_params(dim, win, config.heads,
                                                   config.expansion, config.rel_bias)
        if s < 3:
            per[f"merges.{s}"] = 2 * 4 * dim + 4 * dim * 2 * dim + 2 * dim
    D = config.stage_channels[-1]
    per["head"] = 2 * D + D * config.num_classes + config.num_classes
    return CostReport(per_module=per, total_params=sum(per.values()))


def enumerate_params(model: GswinModel) -> dict[str, int]:
    """Instantiated-model scalar counts grouped like count_params' breakdown."""
    per: dict[str, int] = {}
    for p in model.parameters():
        parts = p.name.split(".")
        key = ".".join(parts[:2]) if parts[0] in ("stages", "merges") else parts[0]
        per[key] = per.get(key, 0) + p.size
    return per


def _sgu_window_sums(grid: WindowGrid, strategy: str) -> tuple[int, int]:
    """(sum of squared window token counts, sum of window token counts).

    With zero-padding each pair of the grid's row and column bands holds a
    window of h * w tokens. Without padding a window holds e_r * e_c tokens
    for its row and column bands, so the squared sum factors per axis and the
    token sum is H * W.
    """
    if strategy == "zero-padding":
        windows, T = len(grid.bands[0]) * len(grid.bands[1]), grid.window[0] * grid.window[1]
        return windows * T * T, windows * T
    rows, cols = (sum(e * e for e in bands) for bands in grid.bands)
    return rows * cols, grid.image[0] * grid.image[1]


def count_flops(config: ModelConfig, resolution: int, strategy: str) -> CostReport:
    """Forward-pass FLOPs at a square input resolution under one shift strategy."""
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    if resolution != config.image_size:
        config = replace(config, image_size=resolution)  # revalidates divisibility
    params = count_params(config)

    C = config.base_channels
    LN = FLOPS_PER_LN_ELEMENT
    res = config.stage_resolutions
    total = res[0] ** 2 * (48 * C + C + LN * C)  # embed projection + bias + norm
    for s, dim in enumerate(config.stage_channels):
        gate = config.stage_gate_channels[s]
        hidden = config.expansion * dim
        N = res[s] ** 2
        for grid in config.block_grids(s):
            sq, toks = _sgu_window_sums(grid, strategy)
            total += LN * N * dim                 # pre-norm
            total += N * dim * hidden + N * hidden  # input projection
            total += N * hidden                    # GELU
            total += sq * gate                     # spatial mixing matmuls
            total += 2 * toks * gate               # spatial bias + gate multiply
            total += N * gate * dim + N * dim      # output projection
        if s < 3:
            No = res[s + 1] ** 2
            total += LN * No * 4 * dim + No * 4 * dim * 2 * dim + No * 2 * dim
    D, N = config.stage_channels[-1], res[3] ** 2
    total += LN * N * D + N * D                    # final norm + average pool
    total += D * config.num_classes + config.num_classes
    return CostReport(per_module=params.per_module, total_params=params.total_params,
                      flops=total, resolution=resolution, strategy=strategy)


def format_count(n: int) -> str:
    """Human-scale rendering: 21,763,736 -> '21.8M'."""
    if n >= 1e9:
        return f"{n / 1e9:.2f}G"
    if n >= 1e6:
        return f"{n / 1e6:.1f}M"
    if n >= 1e3:
        return f"{n / 1e3:.1f}K"
    return str(n)


# -- weight-map export ---------------------------------------------------------


@contextmanager
def atomic_open(path: str | Path, mode: str = "wb", **kwargs):
    """Write to a temp file beside ``path`` that replaces ``path`` on success.

    If the block raises, the temp file is removed and ``path`` keeps its old
    contents. The replace is atomic against a crash of the process; nothing
    is fsynced, so it is not durable against a crash of the machine.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def effective_mixing_weight(model: GswinModel, stage: int, layer: int, head: int) -> np.ndarray:
    """Materialized (T, T) effective weight (learned + relative-offset bias)."""
    if not 0 <= stage < len(model.stages):
        raise ValueError(f"stage {stage} out of range [0, {len(model.stages)})")
    blocks = model.stages[stage]
    if not 0 <= layer < len(blocks):
        raise ValueError(f"layer {layer} out of range [0, {len(blocks)}) in stage {stage}")
    blk = blocks[layer]
    if not 0 <= head < blk.sgu.heads:
        raise ValueError(f"head {head} out of range [0, {blk.sgu.heads})")
    return effective_weight(blk.sgu, blk.grid.window)[:, :, head].copy()


def weight_tile_grid(w_eff: np.ndarray, window: tuple[int, int]) -> np.ndarray:
    """Lay out each output token's weight row as an h x w tile in an h x w grid."""
    h, w = window
    T = h * w
    if w_eff.shape != (T, T):
        raise ValueError(f"weight shape {w_eff.shape} does not match window {window}")
    tiles = w_eff.reshape(h, w, h, w)          # (out y, out x, in y, in x)
    return tiles.transpose(0, 2, 1, 3).reshape(h * h, w * w)


def export_weight_maps(model: GswinModel, stage: int, layer: int, head: int,
                       out_prefix: str | Path) -> tuple[Path, Path]:
    """Write the effective mixing weight to ``<prefix>.csv`` (exact) and ``<prefix>.pgm``.

    The CSV holds the raw (T, T) matrix with full-precision decimal values;
    the P5 graymap shows the tile grid with min..max scaled to 0..255.
    """
    w_eff = effective_mixing_weight(model, stage, layer, head)  # validates indices
    window = model.stages[stage][layer].grid.window

    prefix = Path(out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    csv_path = prefix.with_name(prefix.name + ".csv")
    pgm_path = prefix.with_name(prefix.name + ".pgm")

    with atomic_open(csv_path, "w", newline="") as f:
        writer = csv.writer(f)
        for row in w_eff:
            writer.writerow([repr(float(v)) for v in row])

    grid = weight_tile_grid(w_eff, window)
    lo, hi = grid.min(), grid.max()
    scaled = np.zeros_like(grid) if hi == lo else (grid - lo) / (hi - lo)
    pixels = np.round(scaled * 255).astype(np.uint8)
    with atomic_open(pgm_path, "wb") as f:
        f.write(f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode())
        f.write(pixels.tobytes())
    return csv_path, pgm_path


def read_weight_csv(path: str | Path) -> np.ndarray:
    with open(path, newline="") as f:
        rows = [[float(v) for v in row] for row in csv.reader(f)]
    return np.array(rows)
