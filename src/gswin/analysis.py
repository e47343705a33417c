"""Closed-form cost accounting and weight-map export.

Parameter counts are exact (they must match model enumeration to the scalar).
FLOP counts use the 1 MAC = 1 FLOP convention common to published
vision-backbone figures: matmul products, biases, gate multiplies, GELU
(1/element) and LayerNorm (5/element) are counted; residual adds and the
materialization of effective mixing weights are not. Under this convention
the spatial-mixing cost is independent of the head count (each token-mixing
product touches every gate channel exactly once regardless of grouping).

:func:`module_costs` walks the layer plan once for both counts, pricing each
stage's two tilings (``ModelConfig.stage_tilings``) from the ``bands`` of
their :class:`~gswin.windows.WindowGrid`. "padding-free" charges each window
its true token count (the paper's count); "zero-padding" charges every band
pair a whole h x w window, as if each partial band were zero-padded to a
window of its own. The model mixes ceil(H/h) * ceil(W/w) whole windows on
every map, shifted or not: a shifted layer's two partial bands share one
window on each axis where they fit (see :mod:`gswin.windows`), so its mixing
work is the unshifted layer's and lies between the two counts.
"""
from __future__ import annotations

import csv
import math
import os
from collections.abc import Iterator
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


def _sgu_window_sums(grid: WindowGrid, strategy: str) -> tuple[int, int]:
    """(sum of squared window token counts, sum of window token counts).

    With zero-padding each pair of the grid's row and column bands holds a
    window of h * w tokens. Without padding a window holds e_r * e_c tokens
    for its row and column bands, so the squared sum factors per axis and the
    token sum is H * W.
    """
    if strategy == "zero-padding":
        windows = math.prod(bool(origin) + full + bool(tail)
                            for origin, full, tail in grid.bands)
        T = grid.window[0] * grid.window[1]
        return windows * T * T, windows * T
    rows, cols = (origin * origin + full * w * w + tail * tail
                  for (origin, full, tail), w in zip(grid.bands, grid.window))
    return rows * cols, grid.image[0] * grid.image[1]


def module_costs(config: ModelConfig,
                 strategy: str = "padding-free") -> Iterator[tuple[str, int, int]]:
    """Yield ``(module, parameters, forward FLOPs)`` for the patch embed, each
    stage, each merge and the head, at the config's ``image_size``.

    A projection's FLOPs per token equal its parameter count, weights plus
    bias. A stage prices each of its tilings once, times the blocks that run it.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    LN, C, res = FLOPS_PER_LN_ELEMENT, config.base_channels, config.stage_resolutions
    embed = 48 * C + C
    yield "patch_embed", embed + 2 * C, res[0] ** 2 * (embed + LN * C)
    for s, dim in enumerate(config.stage_channels):
        gate, hidden, N = config.stage_gate_channels[s], config.expansion * dim, res[s] ** 2
        proj = dim * hidden + hidden + gate * dim + dim
        tilings = config.stage_tilings(s)
        h, w = tilings[0][0].window
        mixing = h * w * (h * w + 1) + config.rel_bias * (2 * h - 1) * (2 * w - 1)
        flops = config.depths[s] * N * (LN * dim + proj + hidden)  # norm, projections, GELU
        for grid, blocks in tilings:
            sq, toks = _sgu_window_sums(grid, strategy)
            flops += blocks * (sq + 2 * toks) * gate  # mixing, spatial bias, gate multiply
        yield f"stages.{s}", config.depths[s] * (2 * dim + proj + config.heads * mixing), flops
        if s < 3:
            reduce = 4 * dim * 2 * dim + 2 * dim
            yield f"merges.{s}", 8 * dim + reduce, res[s + 1] ** 2 * (LN * 4 * dim + reduce)
    D, N = config.stage_channels[-1], res[3] ** 2
    fc = D * config.num_classes + config.num_classes
    yield "head", 2 * D + fc, N * (LN * D + D) + fc  # norm, average pool, classifier


def count_params(config: ModelConfig) -> CostReport:
    """Exact closed-form parameter count, broken down by module."""
    modules, params, _ = zip(*module_costs(config))
    return CostReport(per_module=dict(zip(modules, params)), total_params=sum(params))


def count_flops(config: ModelConfig, resolution: int, strategy: str) -> CostReport:
    """Forward-pass FLOPs at a square input resolution under one shift strategy."""
    config = replace(config, image_size=resolution)  # revalidates divisibility
    modules, params, flops = zip(*module_costs(config, strategy))
    return CostReport(per_module=dict(zip(modules, params)), total_params=sum(params),
                      flops=sum(flops), resolution=resolution, strategy=strategy)


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

