"""Cost accounting: published-total reproduction, enumeration cross-checks, export."""
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gswin.analysis as ganalysis
from gswin.analysis import (
    STRATEGIES,
    CostReport,
    count_flops,
    count_params,
    effective_mixing_weight,
    export_weight_maps,
    format_count,
    weight_tile_grid,
)
from gswin.model import GswinModel, ModelConfig, PRESETS
from gswin.windows import WindowGrid
from helpers import enumerate_params, read_weight_csv

PARAM_TARGETS = {"gswin-vt": 16e6, "gswin-t": 22e6, "gswin-s": 40e6}
FLOP_TARGETS = [
    ("gswin-t", "padding-free", 3.6e9),
    ("gswin-t", "zero-padding", 3.8e9),
    ("gswin-vt", "padding-free", 2.3e9),
    ("gswin-s", "padding-free", 7.0e9),
]


def small_cfg(**overrides):
    base = dict(base_channels=8, depths=(2, 2, 2, 2), heads=4, window=(4, 4),
                num_classes=5, image_size=32)
    base.update(overrides)
    return ModelConfig(**base)


def test_param_counts_hit_published_targets():
    for name, target in PARAM_TARGETS.items():
        total = count_params(PRESETS[name]).total_params
        assert abs(total - target) / target < 0.05, (name, total)


def test_param_breakdown_sums_to_total():
    r = count_params(PRESETS["gswin-t"])
    assert sum(r.per_module.values()) == r.total_params
    assert set(r.per_module) == {"patch_embed", "stages.0", "stages.1", "stages.2",
                                 "stages.3", "merges.0", "merges.1", "merges.2", "head"}


def test_closed_form_equals_enumeration_small():
    cfg = small_cfg()
    model = GswinModel(cfg)
    r = count_params(cfg)
    assert r.total_params == model.num_params()
    assert r.per_module == enumerate_params(model)


def test_closed_form_equals_enumeration_random_configs():
    rng = np.random.default_rng(0)
    for _ in range(20):
        C = int(rng.choice([8, 12, 16, 24]))
        expansion = int(rng.choice([2, 4, 6]))
        gate0 = (expansion // 2) * C
        divisors = [k for k in range(1, gate0 + 1) if gate0 % k == 0]
        heads = int(rng.choice(divisors))
        cfg = ModelConfig(
            base_channels=C,
            depths=tuple(int(d) for d in rng.integers(1, 4, size=4)),
            heads=heads,
            window=(int(rng.integers(2, 8)), int(rng.integers(2, 8))),
            expansion=expansion,
            num_classes=int(rng.integers(2, 30)),
            image_size=int(rng.choice([32, 64])),
            rel_bias=bool(rng.integers(0, 2)),
        )
        model = GswinModel(cfg, seed=1)
        r = count_params(cfg)
        assert r.total_params == model.num_params(), cfg
        assert r.per_module == enumerate_params(model), cfg


def test_param_growth_linear_in_heads():
    # with the relative-offset table disabled, going K -> 2K adds exactly
    # K * T * (T + 1) * n_blocks scalars (T = 49 tokens, 28 blocks here)
    base = ModelConfig(base_channels=64, depths=(4, 4, 16, 4), heads=12, rel_bias=False)
    doubled = ModelConfig(base_channels=64, depths=(4, 4, 16, 4), heads=24, rel_bias=False)
    delta = count_params(doubled).total_params - count_params(base).total_params
    assert delta == 12 * 49 * 50 * 28
    # with the table enabled the growth is still linear, plus the table rows
    base_r = ModelConfig(base_channels=64, depths=(4, 4, 16, 4), heads=12)
    doubled_r = ModelConfig(base_channels=64, depths=(4, 4, 16, 4), heads=24)
    delta_r = count_params(doubled_r).total_params - count_params(base_r).total_params
    assert delta_r == 12 * (49 * 50 + 13 * 13) * 28


def test_flop_counts_hit_published_targets():
    for name, strategy, target in FLOP_TARGETS:
        flops = count_flops(PRESETS[name], 224, strategy).flops
        assert abs(flops - target) / target < 0.05, (name, strategy, flops)


def test_flops_independent_of_heads():
    totals = set()
    for K in (1, 3, 6, 12, 24, 48):
        cfg = ModelConfig(base_channels=64, depths=(4, 4, 16, 4), heads=K)
        totals.add(count_flops(cfg, 224, "padding-free").flops)
    assert len(totals) == 1


def test_padding_free_cheaper_when_shifted():
    cfg = PRESETS["gswin-t"]
    free = count_flops(cfg, 224, "padding-free").flops
    padded = count_flops(cfg, 224, "zero-padding").flops
    assert free < padded


def test_strategies_agree_without_shifted_layers():
    cfg = small_cfg(depths=(1, 1, 1, 1))  # alternation never reaches a shifted block
    free = count_flops(cfg, 32, "padding-free").flops
    padded = count_flops(cfg, 32, "zero-padding").flops
    assert free == padded


def test_model_and_flop_count_share_one_tiling_rule(monkeypatch):
    # With every stage's shifted 14x14 tilings swapped for unshifted 7x7 ones,
    # the built model and both counts must follow; a tiling rule of their own
    # in any of them would not.
    cfg = small_cfg(window=(14, 14), image_size=224)

    def padding_tax():
        return (count_flops(cfg, 224, "zero-padding").flops
                - count_flops(cfg, 224, "padding-free").flops)

    assert padding_tax() > 0
    swapped = {s: [(WindowGrid(grid.image, (7, 7)), blocks) for grid, blocks in
                   cfg.stage_tilings(s)] for s in range(4)}
    monkeypatch.setattr(ModelConfig, "stage_tilings", lambda self, s: swapped[s])
    model = GswinModel(cfg)
    assert all(blk.grid is swapped[s][i % 2][0] for s, blocks in enumerate(model.stages)
               for i, blk in enumerate(blocks))
    assert count_params(cfg).per_module == enumerate_params(model)
    assert padding_tax() == 0


def test_counts_build_two_grids_per_stage_and_no_window_mask(monkeypatch):
    # 128x128 windows at 1024 px: one (T, T) mask of stage 0 alone is 256 MiB
    cfg = small_cfg(depths=(64, 2, 9, 1), window=(128, 128), image_size=1024)
    built = []
    init = WindowGrid.__init__
    monkeypatch.setattr(WindowGrid, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    tracemalloc.start()
    try:
        for strategy in STRATEGIES:
            count_flops(cfg, 1024, strategy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(built) == 2 * 7  # per call: two tilings in each stage, one in the last
    assert peak < 1 << 20


@pytest.mark.parametrize("depths", [(1, 1, 1, 1), (2, 2, 2, 2)])
def test_zero_padding_charges_a_padded_window_per_band_pair(depths):
    # 7x7 windows at 64 px: the unshifted 16x16 and 8x8 maps of stages 0 and 1
    # are padded too. Each block's grid is padded by the oracle's rule, one
    # window per pair of bands, which is not how a shifted layer mixes.
    cfg = small_cfg(depths=depths, window=(7, 7), image_size=64)
    extra = 0
    for blk in (b for blocks in GswinModel(cfg).stages for b in blocks):
        (H, W), (h, w), (oy, ox) = blk.grid.image, blk.grid.window, blk.grid.offset
        top, left = (h - oy) % h, (w - ox) % w  # the oracle's pad rule
        ones = np.pad(np.ones((H, W)), ((top, -(top + H) % h), (left, -(left + W) % w)))
        real = ones.reshape(ones.shape[0] // h, h, ones.shape[1] // w, w).sum(axis=(1, 3)).ravel()
        T = h * w
        mixing = real.size * T * T - (real ** 2).sum()
        extra += blk.w_out.shape[0] * (mixing + 2 * (real.size * T - real.sum()))
    free = count_flops(cfg, 64, "padding-free").flops
    padded = count_flops(cfg, 64, "zero-padding").flops
    assert extra > 0
    assert padded - free == extra


def test_flop_totals_pinned_at_224_and_padding_free_at_every_resolution():
    # every map at 224 px is a whole number of 7x7 windows, and padding-free
    # charges no padding, so none of these depends on how a ragged map is padded
    at_224 = {"gswin-vt": (2308069000, 2428100740), "gswin-t": (3643216360, 3821208424),
              "gswin-s": (7031573416, 7346712664)}
    for name, totals in at_224.items():
        assert tuple(count_flops(PRESETS[name], 224, s).flops for s in STRATEGIES) == totals
    padding_free = {32: 71220712, 64: 288452584, 96: 657000936, 128: 1175153128,
                    160: 1845193192, 192: 2660774376, 224: 3643216360, 256: 4753226728,
                    288: 6021637608}
    for res, total in padding_free.items():
        assert count_flops(PRESETS["gswin-t"], res, "padding-free").flops == total


def test_flops_monotone_in_depth_and_resolution():
    shallow = count_flops(small_cfg(), 32, "padding-free").flops
    deep = count_flops(small_cfg(depths=(2, 2, 4, 2)), 32, "padding-free").flops
    assert deep > shallow
    hi_res = count_flops(small_cfg(image_size=64), 64, "padding-free").flops
    assert hi_res > shallow


def test_flop_validation_errors():
    with pytest.raises(ValueError):
        count_flops(PRESETS["gswin-t"], 224, "magic")
    with pytest.raises(ValueError):
        count_flops(PRESETS["gswin-t"], 100, "padding-free")


def test_format_count():
    assert format_count(21_763_736) == "21.8M"
    assert format_count(3_643_216_360) == "3.64G"
    assert format_count(950) == "950"


# -- weight-map export -----------------------------------------------------


def test_identity_init_exports_zero_maps(tmp_path):
    model = GswinModel(small_cfg(), seed=0)
    csv_path, pgm_path = export_weight_maps(model, 0, 1, 0, tmp_path / "m")
    vals = read_weight_csv(csv_path)
    assert vals.shape == (16, 16)
    assert (vals == 0).all()
    blob = pgm_path.read_bytes()
    assert blob.startswith(b"P5\n16 16\n255\n")
    assert set(blob.split(b"255\n", 1)[1]) == {0}


def test_rel_only_model_tiles_are_shifted_copies(tmp_path):
    rng = np.random.default_rng(1)
    model = GswinModel(small_cfg(), seed=0)
    blk = model.stages[0][0]
    blk.sgu.rel_table.data = rng.standard_normal(blk.sgu.rel_table.shape)
    csv_path, _ = export_weight_maps(model, 0, 0, 1, tmp_path / "rel")
    w = read_weight_csv(csv_path)
    h, ww = blk.grid.window
    tiles = w.reshape(h, ww, h, ww)
    # tile of output token (y, x) at input (a, b) depends only on (y - a, x - b)
    for dy in range(-1, 2):
        for dx in range(-1, 2):
            ref = None
            for y in range(h):
                for x in range(ww):
                    a, b = y - dy, x - dx
                    if 0 <= a < h and 0 <= b < ww:
                        v = tiles[y, x, a, b]
                        assert ref is None or v == ref
                        ref = v


def test_export_round_trips_trained_values(tmp_path):
    rng = np.random.default_rng(2)
    model = GswinModel(small_cfg(), seed=0)
    sgu = model.stages[1][0].sgu
    sgu.w_win.data = rng.standard_normal(sgu.w_win.shape)
    sgu.rel_table.data = rng.standard_normal(sgu.rel_table.shape)
    csv_path, _ = export_weight_maps(model, 1, 0, 2, tmp_path / "t")
    back = read_weight_csv(csv_path)
    assert (back == effective_mixing_weight(model, 1, 0, 2)).all()


class _DiskFull:
    """A file that takes ``room`` more bytes or characters, then raises part-way."""

    def __init__(self, f, room):
        self.f, self.room = f, room

    def write(self, data):
        if len(data) > self.room:
            self.f.write(data[:self.room])
            raise OSError("disk full")
        self.room -= len(data)
        return self.f.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


@pytest.mark.parametrize("suffix", [".csv", ".pgm"])
def test_weight_map_write_that_fails_keeps_the_previous_file(tmp_path, monkeypatch, suffix):
    model = GswinModel(small_cfg(), seed=0)
    csv_path, pgm_path = export_weight_maps(model, 0, 0, 1, tmp_path / "m")
    old = csv_path if suffix == ".csv" else pgm_path
    old_bytes = old.read_bytes()
    model.stages[0][0].sgu.w_win.data += 1.0  # the new maps differ from the old ones

    def failing_open(path, *args, **kwargs):
        f = open(path, *args, **kwargs)
        return _DiskFull(f, 20) if suffix in Path(path).name else f

    monkeypatch.setattr(ganalysis, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="disk full"):
        export_weight_maps(model, 0, 0, 1, tmp_path / "m")
    assert old.read_bytes() == old_bytes
    assert sorted(f.name for f in tmp_path.iterdir()) == ["m.csv", "m.pgm"]


def test_dotted_prefixes_keep_their_tails(tmp_path):
    model = GswinModel(small_cfg(), seed=0)
    model.stages[0][1].sgu.w_win.data += 1.0  # the two layers' maps differ
    paths = [export_weight_maps(model, 0, layer, 0, tmp_path / "maps" / f"s0.l{layer}")
             for layer in (0, 1)]
    assert [(c.name, p.name) for c, p in paths] == [("s0.l0.csv", "s0.l0.pgm"),
                                                    ("s0.l1.csv", "s0.l1.pgm")]
    assert (read_weight_csv(paths[0][0]) == 0).all()
    assert (read_weight_csv(paths[1][0]) == 1).all()
    assert len(list((tmp_path / "maps").iterdir())) == 4


def test_export_rejects_bad_indices(tmp_path):
    model = GswinModel(small_cfg(), seed=0)
    for stage, layer, head in [(4, 0, 0), (0, 5, 0), (0, 0, 9), (-1, 0, 0)]:
        with pytest.raises(ValueError):
            export_weight_maps(model, stage, layer, head, tmp_path / "x")


def test_tile_grid_layout():
    h, w = 2, 3
    T = h * w
    w_eff = np.arange(T * T, dtype=float).reshape(T, T)
    grid = weight_tile_grid(w_eff, (h, w))
    assert grid.shape == (h * h, w * w)
    # output token (1, 2) is row 5; its tile sits at grid rows 2:4, cols 6:9
    assert (grid[2:4, 6:9].reshape(-1) == w_eff[5]).all()
