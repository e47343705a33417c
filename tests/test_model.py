"""Backbone assembly: shapes, residual structure, determinism, serialization."""
import re
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

from gswin.checkpoint import (
    apply_checkpoint,
    load_checkpoint,
    model_config_from_mapping,
    model_from_checkpoint,
    parse_config_file,
    save_checkpoint,
    typed_fields,
)
from gswin.gradcheck import check_gradients
from gswin.model import DROP_PATH_RATES, GswinBlock, GswinModel, ModelConfig, PRESETS, drop_path
from gswin.sgu import init_sgu_params, multi_head_window_sgu
from gswin.tensor import Parameter, Tensor, backward, layer_norm
from gswin.train import TrainConfig
from gswin.windows import WindowGrid

TINY = ModelConfig(base_channels=8, depths=(2, 2, 2, 2), heads=4, window=(4, 4),
                   num_classes=5, image_size=32, drop_path_rate=0.2)


def tiny_model(seed=0, **overrides):
    cfg = TINY if not overrides else ModelConfig(**{**TINY.__dict__, **overrides})
    return GswinModel(cfg, seed=seed)


def rand_images(rng, n=2, size=32):
    return Tensor(rng.standard_normal((n, size, size, 3)))


# -- config ---------------------------------------------------------------


def test_presets_match_published_settings():
    vt, t, s = PRESETS["gswin-vt"], PRESETS["gswin-t"], PRESETS["gswin-s"]
    assert (vt.base_channels, vt.depths, vt.heads) == (60, (2, 4, 10, 4), 6)
    assert (t.base_channels, t.depths, t.heads) == (64, (4, 4, 16, 4), 12)
    assert (s.base_channels, s.depths, s.heads) == (72, (4, 4, 32, 4), 12)
    for cfg in (vt, t, s):
        assert cfg.window == (7, 7)
        assert all(d % 2 == 0 for d in cfg.depths)  # alternation stays paired
    published = {"gswin-vt": 0.25, "gswin-t": 0.35, "gswin-s": 0.5}
    for name, rate in published.items():
        assert DROP_PATH_RATES[name]["classification"] == PRESETS[name].drop_path_rate == rate


def test_config_stage_arithmetic():
    cfg = PRESETS["gswin-t"]
    assert cfg.stage_channels == (64, 128, 256, 512)
    assert cfg.stage_resolutions == (56, 28, 14, 7)
    assert cfg.stage_gate_channels == (192, 384, 768, 1536)
    assert all(g % cfg.heads == 0 for g in cfg.stage_gate_channels)


def test_config_window_clamped_to_map():
    assert TINY.stage_window(0) == (4, 4)
    assert TINY.stage_window(2) == (2, 2)
    assert TINY.stage_window(3) == (1, 1)
    grids = [TINY.block_grids(s) for s in range(4)]
    assert [[g.window for g in stage] for stage in grids] == [[(4, 4)] * 2, [(4, 4)] * 2,
                                                              [(2, 2)] * 2, [(1, 1)] * 2]
    assert [[g.offset for g in stage] for stage in grids] == [[(0, 0), (2, 2)], [(0, 0), (2, 2)],
                                                              [(0, 0), (1, 1)], [(0, 0)] * 2]


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(base_channels=8, depths=(2, 2, 2), heads=4)
    with pytest.raises(ValueError):
        ModelConfig(base_channels=8, depths=(2, 2, 2, 2), heads=4, expansion=5)
    with pytest.raises(ValueError):
        ModelConfig(base_channels=8, depths=(2, 2, 2, 2), heads=4, image_size=48)
    with pytest.raises(ValueError):
        ModelConfig(base_channels=8, depths=(2, 2, 2, 2), heads=5)  # 24 % 5 != 0
    with pytest.raises(ValueError):
        ModelConfig(base_channels=8, depths=(2, 2, 2, 2), heads=4, drop_path_rate=1.5)
    for bad in ({"base_channels": 0}, {"base_channels": -8}, {"window": (0, 4)},
                {"window": (4, -1)}, {"window": (4, 5, 6)}, {"window": ()},
                {"image_size": 0}, {"image_size": -32}):
        with pytest.raises(ValueError):
            ModelConfig(**{"base_channels": 8, "depths": (2, 2, 2, 2), "heads": 4, **bad})
    assert ModelConfig(base_channels=8, depths=(2, 2, 2, 2), heads=4,
                       window=(5,)).window == (5, 5)


def test_drop_path_schedule_linear():
    sched = TINY.drop_path_schedule()
    assert len(sched) == 8
    assert sched[0] == 0.0
    assert sched[-1] == pytest.approx(0.2)
    diffs = np.diff(sched)
    assert np.allclose(diffs, diffs[0])


# -- forward behavior ---------------------------------------------------------


def test_forward_shapes_and_pyramid():
    rng = np.random.default_rng(0)
    m = tiny_model()
    logits = m.forward(rand_images(rng))
    assert logits.shape == (2, 5)
    pyr = m.extract_pyramid(rand_images(rng))
    assert [p.shape for p in pyr] == [
        (2, 8, 8, 8), (2, 4, 4, 16), (2, 2, 2, 32), (2, 1, 1, 64)]


def test_batch_permutation_invariance():
    rng = np.random.default_rng(1)
    m = tiny_model()
    imgs = rng.standard_normal((3, 32, 32, 3))
    out = m.forward(Tensor(imgs)).data
    perm = [2, 0, 1]
    out_p = m.forward(Tensor(imgs[perm])).data
    assert (out_p == out[perm]).all()


def test_identical_batch_items_give_identical_rows():
    rng = np.random.default_rng(2)
    m = tiny_model()
    one = rng.standard_normal((1, 32, 32, 3))
    two = np.repeat(one, 2, axis=0)
    pyr = m.extract_pyramid(Tensor(two))
    for p in pyr:
        assert (p.data[0] == p.data[1]).all()


def test_eval_forward_deterministic():
    rng = np.random.default_rng(3)
    m = tiny_model()
    imgs = rand_images(rng)
    a = m.forward(imgs).data
    b = m.forward(imgs).data
    assert (a == b).all()


def test_same_seed_same_params():
    a, b = tiny_model(seed=11), tiny_model(seed=11)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert pa.name == pb.name
        assert (pa.data == pb.data).all()
    c = tiny_model(seed=12)
    assert any((pa.data != pc.data).any() for pa, pc in zip(a.parameters(), c.parameters()))


def test_parameter_names_unique_and_hierarchical():
    m = tiny_model()
    names = [p.name for p in m.parameters()]
    assert len(names) == len(set(names))
    assert "stages.2.blocks.1.sgu.w_win" in names
    assert "merges.0.reduce.w" in names
    assert "head.fc.w" in names


def test_stage1_output_independent_of_stage3_params():
    rng = np.random.default_rng(4)
    m = tiny_model()
    imgs = rand_images(rng)
    before = [p.data.copy() for p in m.extract_pyramid(imgs)]
    for blk in m.stages[2]:
        for p in blk.parameters():
            p.data = p.data + 0.37
    after = m.extract_pyramid(imgs)
    assert (after[0].data == before[0]).all()
    assert (after[1].data == before[1]).all()
    assert (after[2].data != before[2]).any()


def test_block_identity_when_proj_out_zeroed():
    rng = np.random.default_rng(5)
    m = tiny_model()
    blk = m.stages[0][0]
    blk.w_out.data[:] = 0.0
    blk.b_out.data[:] = 0.0
    x = Tensor(rng.standard_normal((2, 8, 8, 8)))
    out = blk.forward(x, training=False, rng=None)
    assert (out.data == x.data).all()


def test_residual_identity_with_all_branches_zeroed():
    # inert blocks: logits must not react to gating weights at all
    rng = np.random.default_rng(6)
    imgs = rand_images(rng)
    m = tiny_model()
    for blocks in m.stages:
        for blk in blocks:
            blk.w_out.data[:] = 0.0
            blk.b_out.data[:] = 0.0
    base = m.forward(imgs).data
    for blocks in m.stages:
        for blk in blocks:
            blk.sgu.w_win.data[:] = rng.standard_normal(blk.sgu.w_win.shape)
    assert (m.forward(imgs).data == base).all()


def test_drop_path_unit():
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((4, 2, 2, 3)))
    assert drop_path(x, 0.5, training=False, rng=None) is x
    assert (drop_path(x, 1.0, training=True, rng=rng).data == 0).all()
    kept = drop_path(x, 0.5, training=True, rng=np.random.default_rng(0)).data
    # per-sample: each item is either dropped or scaled by 2
    for i in range(4):
        item = kept[i]
        assert (item == 0).all() or np.allclose(item, 2 * x.data[i])
    with pytest.raises(ValueError):
        drop_path(x, 0.5, training=True, rng=None)


def test_train_forward_with_drop_path_runs():
    rng = np.random.default_rng(8)
    m = tiny_model()
    logits = m.forward(rand_images(rng), training=True, rng=np.random.default_rng(1))
    assert np.isfinite(logits.data).all()
    # eval path ignores the rate entirely
    a = m.forward(rand_images(np.random.default_rng(9))).data
    b = m.forward(rand_images(np.random.default_rng(9))).data
    assert (a == b).all()


def test_embed_rejects_bad_inputs():
    m = tiny_model()
    with pytest.raises(ValueError):
        m.forward(Tensor(np.zeros((1, 30, 32, 3))))
    with pytest.raises(ValueError):
        m.forward(Tensor(np.zeros((1, 32, 32, 4))))
    # a 64 px image is rejected before the patch embed runs, naming the model's size
    with pytest.raises(ValueError, match="image_size 32"):
        m.forward(Tensor(np.zeros((1, 64, 64, 3))))


@pytest.mark.parametrize("make, match", [
    (lambda: tiny_model(heads=0), "heads must be >= 1"),
    (lambda: tiny_model(num_classes=0), "num_classes must be >= 1"),
    (lambda: tiny_model().merges[0].forward(Tensor(np.zeros((1, 3, 4, 8)))),
     "patch merge needs even extents"),
    (lambda: tiny_model().forward(Tensor(np.zeros((1, 32, 32, 3))), training=True),
     "drop path needs an RNG"),
])
def test_model_rejects_bad_configs_and_inputs(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_single_block_gradcheck():
    rng = np.random.default_rng(10)
    blk = GswinBlock(dim=4, grid=WindowGrid((4, 4), (2, 2), offset=(1, 1)), heads=2,
                     expansion=2, p_drop=0.0, rel_bias=True, prefix="b",
                     rng=np.random.default_rng(0))
    x = Tensor(rng.standard_normal((1, 4, 4, 4)), requires_grad=True)
    r = Tensor(rng.standard_normal((1, 4, 4, 4)))
    worst = check_gradients(lambda: (blk.forward(x, False, None) * r).sum(),
                            [x] + blk.parameters(), tol=1e-4, floor=1e-4)
    assert worst < 1e-4


@pytest.mark.parametrize("shifted, budget", [(False, 17.0), (True, 17.0)])
def test_training_block_holds_its_activation_budget(shifted, budget):
    # In units of one input-sized array (B*H*W*d float64), a block's graph
    # holds 16:
    # - GELU's slope: 6
    # - the gating node's value half z1: 3
    # - its mixed gate m: 3
    # - its head-major gate half zh: 3, unpadded also when shifted, since the
    #   16x16 map is a whole number of windows and is mixed rolled
    # - LayerNorm's xhat: 1
    # The projections keep no input: each rebuilds it from its producer's
    # arrays. A second array kept by any op breaks the budget.
    rng = np.random.default_rng(0)
    grid = WindowGrid((16, 16), (4, 4), offset=(2, 2) if shifted else (0, 0))
    blk = GswinBlock(dim=16, grid=grid, heads=2, expansion=6, p_drop=0.0,
                     rel_bias=True, prefix="b", rng=rng)
    x = Tensor(rng.standard_normal((2, 16, 16, 16)), requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = blk.forward(x, True, rng)
        held = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
    finally:
        tracemalloc.stop()
    assert held / x.data.nbytes <= budget


@pytest.mark.parametrize("case", ["layer_norm", "sgu", "sgu_frozen_input",
                                  "layer_norm_two_matmuls"])
def test_projection_rebuilds_its_input_from_the_producer(case):
    # LayerNorm's and the gating layer's vjps keep the factors of their output,
    # so a matmul that needs its weight's gradient keeps none of that output.
    # A recorded gating layer keeps its mixed gate even when its input needs
    # no gradient.
    rng = np.random.default_rng(21)
    x = Tensor(rng.standard_normal((2, 6, 8, 8)), requires_grad=case != "sgu_frozen_input")
    if case.startswith("layer_norm"):
        y = layer_norm(x, Parameter(1.0 + 0.1 * rng.standard_normal(8), "g"),
                       Parameter(0.1 * rng.standard_normal(8), "b"))
    else:
        p = init_sgu_params((2, 3), heads=2)
        for t in (p.w_win, p.b_win, p.rel_table):
            t.data = rng.standard_normal(t.shape)
        y = multi_head_window_sgu(x, p, WindowGrid((6, 8), (2, 3), offset=(1, 1)))
    C = y.shape[-1]
    ws = [Parameter(rng.standard_normal((C, 5)), f"w{i}")
          for i in range(2 if case == "layer_norm_two_matmuls" else 1)]
    gs = [rng.standard_normal((2, 6, 8, 5)) for _ in ws]
    loss = Tensor(0.0)
    for w, g in zip(ws, gs):
        loss = loss + ((y @ w) * Tensor(g)).sum()
    a = y.data.copy()
    kept = weakref.ref(y.data)
    del y
    assert kept() is None
    backward(loss)
    for w, g in zip(ws, gs):
        assert np.array_equal(w.grad, a.reshape(-1, C).T @ g.reshape(-1, 5))


# -- serialization --------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    m = tiny_model(seed=3)
    for p in m.parameters():  # make values non-degenerate
        p.data = rng.standard_normal(p.shape)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, m)
    arrays = load_checkpoint(path)
    assert set(arrays) == {p.name for p in m.parameters()}
    for p in m.parameters():
        assert arrays[p.name].dtype == np.float32
        assert (arrays[p.name] == p.data.astype(np.float32)).all()

    m2 = tiny_model(seed=99)
    apply_checkpoint(m2, arrays)
    for p, q in zip(m.parameters(), m2.parameters()):
        assert np.allclose(p.data.astype(np.float32), q.data.astype(np.float32))


def test_checkpoint_save_that_fails_keeps_the_previous_file(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, tiny_model(seed=3))
    old = path.read_bytes()
    m = tiny_model(seed=4)
    m.parameters()[-1].name = "\ud800"  # cannot be encoded: raises after earlier params
    with pytest.raises(UnicodeEncodeError):
        save_checkpoint(path, m)
    assert path.read_bytes() == old
    assert [f.name for f in tmp_path.iterdir()] == ["m.ckpt"]


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_apply_rejects_mismatch(tmp_path):
    m = tiny_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, m)
    arrays = load_checkpoint(path)
    arrays.pop("head.fc.b")
    with pytest.raises(ValueError):
        apply_checkpoint(tiny_model(), arrays)


def test_checkpoint_that_stores_a_name_twice_is_rejected(tmp_path):
    # a second head.fc.b record, counted in the header: kept in a dict, it
    # replaced the first and the stored value count still matched the config
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, tiny_model())
    blob = path.read_bytes()
    (config_len,) = struct.unpack("<I", blob[5:9])
    at = 9 + config_len
    (count,) = struct.unpack("<I", blob[at:at + 4])
    name = b"head.fc.b"
    record = (struct.pack("<H", len(name)) + name + struct.pack("<BI", 1, 5)
              + np.ones(5, dtype="<f4").tobytes())
    path.write_bytes(blob[:at] + struct.pack("<I", count + 1) + blob[at + 4:] + record)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: parameter head.fc.b "
                                         "is stored twice$"):
        model_from_checkpoint(path)


def _with_trailing_byte(path):
    path.write_bytes(path.read_bytes() + b"\0")
    return load_checkpoint(path)


def _apply_edited(path, edit):
    arrays = load_checkpoint(path)
    edit(arrays)
    apply_checkpoint(tiny_model(), arrays)


def _config_line_without_equals(path):
    path.write_text("heads 4\n")
    return parse_config_file(path)


@pytest.mark.parametrize("reject, match", [
    (_with_trailing_byte, "1 trailing bytes"),
    (lambda path: _apply_edited(path, lambda a: a.update({"head.fc.b": np.zeros(6)})),
     r"head.fc.b: checkpoint shape \(6,\) != model shape \(5,\)"),
    (lambda path: _apply_edited(path, lambda a: a.update({"extra": np.zeros(1)})),
     r"unknown parameters: \['extra'\]"),
    (_config_line_without_equals, "m.ckpt:1: expected key = value"),
])
def test_checkpoint_and_config_rejections_name_the_fault(tmp_path, reject, match):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, tiny_model())
    with pytest.raises(ValueError, match=match):
        reject(path)


def test_config_inference_from_checkpoint(tmp_path):
    # fields the parameter shapes cannot tell: a rectangular window, the input
    # size, the drop-path rate and the absence of the relative-offset table
    m = tiny_model(seed=5, window=(4, 2), image_size=64, drop_path_rate=0.3,
                   rel_bias=False, expansion=4)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, m)
    m2 = model_from_checkpoint(path)
    assert m2.config == m.config
    assert m2.num_params() == m.num_params()


@pytest.mark.parametrize("name", [*PRESETS, "smoke"])
def test_checkpoint_header_round_trips_the_config(tmp_path, name):
    # "smoke" is criterion 7's training config
    config = PRESETS.get(name) or ModelConfig(base_channels=16, depths=(2, 2, 2, 2),
                                              heads=4, window=(4, 4), num_classes=10,
                                              image_size=32)
    m = GswinModel(config, seed=2)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, m)
    m2 = model_from_checkpoint(path)
    assert m2.config == config
    assert [p.name for p in m2.parameters()] == [p.name for p in m.parameters()]
    for p, q in zip(m.parameters(), m2.parameters()):
        assert q.data.dtype == np.float64
        assert np.array_equal(q.data, p.data.astype(np.float32))


def test_config_file_parsing(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("""
# training config
model = gswin-t
num_classes = 10   # tiny head
rel_bias = false
""")
    kv = parse_config_file(p)
    cfg = model_config_from_mapping(kv)
    assert cfg.base_channels == 64
    assert cfg.num_classes == 10
    assert cfg.rel_bias is False

    bad = tmp_path / "bad.cfg"
    bad.write_text("a = 1\na = 2\n")
    with pytest.raises(ValueError):
        parse_config_file(bad)
    with pytest.raises(ValueError):
        model_config_from_mapping({"model": "gswin-x"})
    with pytest.raises(ValueError):
        model_config_from_mapping({"base_channels": "8"})  # missing depths/heads
    full = {"base_channels": "8", "depths": "1,1,1,1", "heads": "2", "image_size": "32"}
    assert model_config_from_mapping({**full, "window": "4, 2"}).window == (4, 2)
    for key, value in [("window", "4,5,6"), ("window", "0"), ("base_channels", "0"),
                       ("image_size", "0"), ("heads", "two"), ("depths", "1,1,x,1"),
                       ("drop_path_rate", "lots"), ("rel_bias", "maybe")]:
        with pytest.raises(ValueError, match=key):
            model_config_from_mapping({**full, key: value})
    with pytest.raises(ValueError, match="unknown model config keys"):
        model_config_from_mapping({**full, "optimizer": "sgd"})
    assert typed_fields(TrainConfig, {"lr": "2e-3", "seed": "3", "noise": "x"}) == {
        "lr": 2e-3, "seed": 3}
    with pytest.raises(ValueError, match="total_steps"):
        typed_fields(TrainConfig, {"total_steps": "1.5"})


def test_config_file_full_specification(tmp_path):
    p = tmp_path / "tiny.cfg"
    p.write_text("base_channels = 16\ndepths = 2,2,2,2\nheads = 4\nwindow = 4\n"
                 "image_size = 32\nnum_classes = 10\ndrop_path_rate = 0.1\n")
    cfg = model_config_from_mapping(parse_config_file(p))
    assert cfg.base_channels == 16
    assert cfg.window == (4, 4)
    assert cfg.image_size == 32
