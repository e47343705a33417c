"""The gSwin backbone.

Four stages of gating blocks over a shrinking feature pyramid: 4x4 patch
embedding to C channels, then per stage a run of residual blocks alternating
unshifted / shifted window tilings, with 2x2 patch merging (channels doubled)
between stages and a norm + pool + linear classification head at the end.

Each block is: LayerNorm -> linear d -> a*d -> GELU -> windowed multi-head
gating (halving channels to a*d/2) -> linear a*d/2 -> d -> drop-path ->
residual add. There is no second MLP sub-block after the gate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sgu import init_sgu_params, multi_head_window_sgu
from .tensor import Parameter, Tensor, gelu, layer_norm
from .windows import WindowGrid, shift_offset


@dataclass(frozen=True)
class ModelConfig:
    base_channels: int
    depths: tuple[int, int, int, int]
    heads: int
    window: tuple[int, int] = (7, 7)
    expansion: int = 6
    drop_path_rate: float = 0.0
    num_classes: int = 1000
    image_size: int = 224
    rel_bias: bool = True

    def __post_init__(self):
        window = tuple(int(v) for v in self.window)
        object.__setattr__(self, "depths", tuple(int(d) for d in self.depths))
        object.__setattr__(self, "window", window * 2 if len(window) == 1 else window)
        if len(self.depths) != 4 or any(d < 1 for d in self.depths):
            raise ValueError(f"depths must be four positive counts, got {self.depths}")
        if len(self.window) != 2 or min(self.window) < 1:
            raise ValueError(f"window must be one or two positive extents, got {window}")
        if self.base_channels < 1:
            raise ValueError(f"base_channels must be >= 1, got {self.base_channels}")
        if self.expansion < 2 or self.expansion % 2:
            raise ValueError(f"expansion must be even and >= 2, got {self.expansion}")
        if self.heads < 1:
            raise ValueError("heads must be >= 1")
        if self.image_size < 32 or self.image_size % 32:
            raise ValueError(f"image_size {self.image_size} must be a positive multiple "
                             "of 32 (4x patch embed, then three 2x merges)")
        if not 0.0 <= self.drop_path_rate <= 1.0:
            raise ValueError("drop_path_rate must lie in [0, 1]")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        for s, gate in enumerate(self.stage_gate_channels):
            if gate % self.heads:
                raise ValueError(
                    f"heads {self.heads} must divide stage-{s + 1} gate channels {gate}")

    @property
    def stage_channels(self) -> tuple[int, ...]:
        return tuple(self.base_channels * (1 << s) for s in range(4))

    @property
    def stage_gate_channels(self) -> tuple[int, ...]:
        return tuple((self.expansion // 2) * d for d in self.stage_channels)

    @property
    def stage_resolutions(self) -> tuple[int, ...]:
        base = self.image_size // 4
        return tuple(base >> s for s in range(4))

    def stage_window(self, s: int) -> tuple[int, int]:
        res = self.stage_resolutions[s]
        return (min(self.window[0], res), min(self.window[1], res))

    def block_grids(self, s: int) -> list[WindowGrid]:
        """Stage ``s``'s tilings, one per block; odd blocks shift by half a window."""
        res, win = self.stage_resolutions[s], self.stage_window(s)
        return [WindowGrid((res, res), win, shift_offset(win, i % 2 == 1))
                for i in range(self.depths[s])]

    def drop_path_schedule(self) -> list[float]:
        """Per-block drop probabilities, 0 rising linearly to the configured max."""
        n = sum(self.depths)
        return [self.drop_path_rate * i / (n - 1) for i in range(n)]


# Published per-task drop-path settings. Only the classification column is
# consumed here (it seeds PRESETS below); detection/segmentation rates are
# recorded for reference since those pipelines are out of scope.
DROP_PATH_RATES: dict[str, dict[str, float]] = {
    "gswin-vt": {"classification": 0.25, "detection": 0.25, "segmentation": 0.2},
    "gswin-t": {"classification": 0.35, "detection": 0.3, "segmentation": 0.3},
    "gswin-s": {"classification": 0.5, "detection": 0.4, "segmentation": 0.4},
}

PRESETS: dict[str, ModelConfig] = {
    name: ModelConfig(base_channels=c, depths=depths, heads=heads,
                      drop_path_rate=DROP_PATH_RATES[name]["classification"])
    for name, c, depths, heads in [("gswin-vt", 60, (2, 4, 10, 4), 6),
                                   ("gswin-t", 64, (4, 4, 16, 4), 12),
                                   ("gswin-s", 72, (4, 4, 32, 4), 12)]
}


_INIT_BOUND = 0.02 * np.sqrt(3.0)  # uniform with std 0.02


def _init_weight(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return rng.uniform(-_INIT_BOUND, _INIT_BOUND, size=shape)


def drop_path(x: Tensor, p_drop: float, training: bool,
              rng: np.random.Generator | None) -> Tensor:
    """Stochastic depth: drop the whole branch per sample, scale survivors by 1/keep."""
    if not training or p_drop == 0.0:
        return x
    if p_drop >= 1.0:
        return x * 0.0
    if rng is None:
        raise ValueError("training-mode drop path needs an RNG")
    keep = 1.0 - p_drop
    mask = (rng.random(x.shape[0]) < keep) / keep
    return x * Tensor(mask.reshape((-1,) + (1,) * (x.ndim - 1)))


def space_to_depth(x: Tensor, k: int) -> Tensor:
    """Fold each k x k patch of a (B, H, W, C) map into one token of k*k*C channels.

    Records one node, whose vjp is the inverse fold.
    """
    B, H, W, C = x.shape
    out_data = (x.data.reshape(B, H // k, k, W // k, k, C)
                .transpose(0, 1, 3, 2, 4, 5).reshape(B, H // k, W // k, k * k * C))

    def vjp(g):
        return (g.reshape(B, H // k, W // k, k, k, C)
                .transpose(0, 1, 3, 2, 4, 5).reshape(B, H, W, C),)

    return Tensor._result(out_data, (x,), vjp)


class GswinBlock:
    """One residual gating block over the feature-map tiling ``grid``."""

    def __init__(self, dim: int, grid: WindowGrid, heads: int, expansion: int,
                 p_drop: float, rel_bias: bool, prefix: str, rng: np.random.Generator):
        self.p_drop = p_drop
        hidden = expansion * dim
        self.grid = grid

        self.norm_g = Parameter(np.ones(dim), f"{prefix}.norm.gamma")
        self.norm_b = Parameter(np.zeros(dim), f"{prefix}.norm.beta")
        self.w_in = Parameter(_init_weight(rng, (dim, hidden)), f"{prefix}.proj_in.w")
        self.b_in = Parameter(np.zeros(hidden), f"{prefix}.proj_in.b")
        self.sgu = init_sgu_params(grid.window, heads, rel_bias=rel_bias, prefix=f"{prefix}.sgu")
        self.w_out = Parameter(_init_weight(rng, (hidden // 2, dim)), f"{prefix}.proj_out.w")
        self.b_out = Parameter(np.zeros(dim), f"{prefix}.proj_out.b")

    def parameters(self) -> list[Parameter]:
        sgu = [p for p in (self.sgu.w_win, self.sgu.b_win, self.sgu.rel_table) if p is not None]
        return [self.norm_g, self.norm_b, self.w_in, self.b_in, *sgu, self.w_out, self.b_out]

    def forward(self, x: Tensor, training: bool, rng) -> Tensor:
        y = layer_norm(x, self.norm_g, self.norm_b)
        y = y @ self.w_in + self.b_in
        y = gelu(y)
        y = multi_head_window_sgu(y, self.sgu, self.grid)
        y = y @ self.w_out + self.b_out
        return x + drop_path(y, self.p_drop, training, rng)


class _PatchMerge:
    """2x2 neighborhood concat (4d) -> norm -> linear to 2d."""

    def __init__(self, dim: int, prefix: str, rng):
        self.norm_g = Parameter(np.ones(4 * dim), f"{prefix}.norm.gamma")
        self.norm_b = Parameter(np.zeros(4 * dim), f"{prefix}.norm.beta")
        self.w = Parameter(_init_weight(rng, (4 * dim, 2 * dim)), f"{prefix}.reduce.w")
        self.b = Parameter(np.zeros(2 * dim), f"{prefix}.reduce.b")

    def parameters(self):
        return [self.norm_g, self.norm_b, self.w, self.b]

    def forward(self, x: Tensor) -> Tensor:
        _, H, W, _ = x.shape
        if H % 2 or W % 2:
            raise ValueError(f"patch merge needs even extents, got {(H, W)}")
        y = layer_norm(space_to_depth(x, 2), self.norm_g, self.norm_b)
        return y @ self.w + self.b


class GswinModel:
    """Backbone + classification head, deterministically initialized per seed.

    Gating units start at the identity (zero mixing weights, unit bias, zero
    relative-offset table); projections start from small uniform draws.
    """

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        C = config.base_channels
        patch_in = 4 * 4 * 3

        self.embed_w = Parameter(_init_weight(rng, (patch_in, C)), "patch_embed.proj.w")
        self.embed_b = Parameter(np.zeros(C), "patch_embed.proj.b")
        self.embed_ng = Parameter(np.ones(C), "patch_embed.norm.gamma")
        self.embed_nb = Parameter(np.zeros(C), "patch_embed.norm.beta")
        params = [self.embed_w, self.embed_b, self.embed_ng, self.embed_nb]

        rates = iter(config.drop_path_schedule())
        self.stages: list[list[GswinBlock]] = []
        self.merges: list[_PatchMerge] = []
        for s, dim in enumerate(config.stage_channels):
            blocks = []
            for i, grid in enumerate(config.block_grids(s)):
                blocks.append(GswinBlock(
                    dim=dim, grid=grid, heads=config.heads, expansion=config.expansion,
                    p_drop=next(rates), rel_bias=config.rel_bias,
                    prefix=f"stages.{s}.blocks.{i}", rng=rng))
                params += blocks[-1].parameters()
            self.stages.append(blocks)
            if s < 3:
                self.merges.append(_PatchMerge(dim, f"merges.{s}", rng))
                params += self.merges[-1].parameters()

        D = config.stage_channels[-1]
        self.head_ng = Parameter(np.ones(D), "head.norm.gamma")
        self.head_nb = Parameter(np.zeros(D), "head.norm.beta")
        self.head_w = Parameter(_init_weight(rng, (D, config.num_classes)), "head.fc.w")
        self.head_b = Parameter(np.zeros(config.num_classes), "head.fc.b")
        params += [self.head_ng, self.head_nb, self.head_w, self.head_b]

        self._params: dict[str, Parameter] = {}
        for p in params:
            if p.name in self._params:
                raise AssertionError(f"duplicate parameter name {p.name}")
            self._params[p.name] = p

    def parameters(self) -> list[Parameter]:
        return list(self._params.values())

    def param(self, name: str) -> Parameter:
        return self._params[name]

    def num_params(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grads(self) -> None:
        for p in self.parameters():
            p.grad = None

    # -- forward paths ------------------------------------------------------

    def _embed(self, images: Tensor) -> Tensor:
        _, H, W, Cin = images.shape
        if Cin != 3:
            raise ValueError(f"expected 3 input channels, got {Cin}")
        if (H, W) != (self.config.image_size,) * 2:
            raise ValueError(f"image extents {(H, W)} do not match the model's "
                             f"image_size {self.config.image_size}")
        x = space_to_depth(images, 4) @ self.embed_w + self.embed_b
        return layer_norm(x, self.embed_ng, self.embed_nb)

    def _trunk(self, images: Tensor, training: bool, rng) -> list[Tensor]:
        x = self._embed(images)
        pyramid = []
        for s, blocks in enumerate(self.stages):
            for blk in blocks:
                x = blk.forward(x, training, rng)
            pyramid.append(x)
            if s < 3:
                x = self.merges[s].forward(x)
        return pyramid

    def forward(self, images: Tensor, training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        pyramid = self._trunk(images, training, rng)
        x = layer_norm(pyramid[-1], self.head_ng, self.head_nb)
        _, H, W, _ = x.shape
        pooled = x.sum(axis=(1, 2)) * (1.0 / (H * W))
        return pooled @ self.head_w + self.head_b

    def extract_pyramid(self, images: Tensor) -> list[Tensor]:
        """Eval-mode stage outputs (pre-merge), finest to coarsest."""
        return self._trunk(images, training=False, rng=None)
