"""End-to-end checks of the command-line surface, invoked in-process."""
import json
from dataclasses import replace

import pytest

from gswin.analysis import count_flops, count_params
from gswin.checkpoint import save_checkpoint
from gswin.cli import run
from gswin.model import PRESETS, GswinModel, ModelConfig


def _lines(capsys) -> dict[str, str]:
    """Parse key=value stdout lines into a dict (last write wins)."""
    out = {}
    for line in capsys.readouterr().out.splitlines():
        if "=" in line and not line.startswith("case "):
            key, _, value = line.partition("=")
            out[key] = value
    return out


def test_presets_contains_published_tiny_row(capsys):
    assert run(["presets"]) == 0
    out = capsys.readouterr().out
    assert "gswin-t: C=64 depths=4,4,16,4 heads=12" in out


def test_presets_lists_every_config(capsys):
    assert run(["presets"]) == 0
    out = capsys.readouterr().out
    for name in PRESETS:
        assert f"{name}: " in out


def test_presets_json_fields(capsys):
    assert run(["presets", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["gswin-t"]["depths"] == [4, 4, 16, 4]
    assert doc["gswin-t"]["heads"] == 12
    assert doc["gswin-s"]["params"] == count_params(PRESETS["gswin-s"]).total_params


def test_count_matches_library(capsys):
    assert run(["count", "--model", "gswin-t"]) == 0
    kv = _lines(capsys)
    assert int(kv["total_params"]) == count_params(PRESETS["gswin-t"]).total_params
    assert kv["params_human"] == "21.8M"


def test_count_json_breakdown(capsys):
    assert run(["count", "--model", "gswin-vt", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    report = count_params(PRESETS["gswin-vt"])
    assert doc["total_params"] == report.total_params
    assert doc["params"] == report.per_module


def test_count_needs_model_or_config():
    assert run(["count"]) == 1


def test_count_rejects_model_and_config_together(tmp_path):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("base_channels = 8\n")
    assert run(["count", "--model", "gswin-t", "--config", str(cfg)]) == 1


def test_count_from_config_file(tmp_path, capsys):
    cfg = tmp_path / "m.cfg"
    cfg.write_text(
        "base_channels = 8\ndepths = 1,1,1,1\nheads = 2\n"
        "window = 4\nnum_classes = 4\nimage_size = 32\n")
    assert run(["count", "--config", str(cfg)]) == 0
    kv = _lines(capsys)
    expected = count_params(ModelConfig(base_channels=8, depths=(1, 1, 1, 1), heads=2,
                                        window=(4, 4), num_classes=4, image_size=32))
    assert int(kv["total_params"]) == expected.total_params


def test_count_config_preset_base_with_override(tmp_path, capsys):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("model = gswin-vt\nrel_bias = false\n")
    assert run(["count", "--config", str(cfg)]) == 0
    kv = _lines(capsys)
    expected = count_params(replace(PRESETS["gswin-vt"], rel_bias=False))
    assert int(kv["total_params"]) == expected.total_params


def test_count_config_unknown_key_is_validation_error(tmp_path):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("base_channels = 8\nnonsense = 1\n")
    assert run(["count", "--config", str(cfg)]) == 2


def test_count_missing_config_file_is_validation_error(tmp_path):
    assert run(["count", "--config", str(tmp_path / "absent.cfg")]) == 2


def test_count_bad_preset_name_is_usage_error():
    assert run(["count", "--model", "gswin-xxl"]) == 1


def test_unknown_command_is_usage_error():
    assert run(["frobnicate"]) == 1


def test_flops_tiny_at_224(capsys):
    assert run(["flops", "--model", "gswin-t", "--res", "224",
                "--strategy", "padding-free"]) == 0
    kv = _lines(capsys)
    lib = count_flops(PRESETS["gswin-t"], resolution=224, strategy="padding-free")
    assert int(kv["flops"]) == lib.flops
    assert kv["flops_human"].startswith("3.6")


def test_flops_bad_strategy_is_usage_error():
    assert run(["flops", "--model", "gswin-t", "--strategy", "mirror"]) == 1


def test_flops_indivisible_resolution_is_validation_error():
    assert run(["flops", "--model", "gswin-t", "--res", "100",
                "--strategy", "padding-free"]) == 2


def test_gradcheck_ops_scope(capsys):
    assert run(["gradcheck", "--scope", "ops"]) == 0
    kv = _lines(capsys)
    assert kv["status"] == "ok"
    assert int(kv["checks"]) == 18
    assert float(kv["worst_rel_err"]) < 1e-5


def test_gradcheck_block_scope(capsys):
    assert run(["gradcheck", "--scope", "block", "--seed", "1"]) == 0
    kv = _lines(capsys)
    assert kv["status"] == "ok"
    assert float(kv["worst_rel_err"]) < 1e-4


def test_gradcheck_failure_exits_three(monkeypatch, capsys):
    import gswin.cli as cli

    def boom(seed=0, tol=1e-5):
        raise AssertionError("synthetic mismatch")

    monkeypatch.setattr(cli, "op_gradcheck_suite", boom)
    assert run(["gradcheck", "--scope", "ops"]) == 3
    assert "synthetic mismatch" in capsys.readouterr().err


def test_equiv_reports_and_passes(capsys):
    assert run(["equiv", "--seeds", "2"]) == 0
    raw = capsys.readouterr().out
    kv = dict(line.partition("=")[::2] for line in raw.splitlines() if "=" in line
              and not line.startswith("case "))
    assert kv["status"] == "ok"
    assert int(kv["cases"]) == 10
    assert float(kv["max_abs_diff"]) < 1e-12
    assert raw.count("case image=") == 10


def test_equiv_seed_env_var(monkeypatch, capsys):
    monkeypatch.setenv("GSWIN_SEED", "7")
    assert run(["equiv", "--seeds", "1"]) == 0
    assert "seed=7" in capsys.readouterr().out


def test_equiv_rejects_bad_env_seed(monkeypatch):
    monkeypatch.setenv("GSWIN_SEED", "seven")
    assert run(["equiv", "--seeds", "1"]) == 2


def test_equiv_rejects_nonpositive_seeds():
    assert run(["equiv", "--seeds", "0"]) == 2


TRAIN_CFG = """\
base_channels = 8
depths = 1,1,1,1
heads = 2
window = 4
num_classes = 4
image_size = 32

lr = 2e-3
warmup_steps = 2
total_steps = 6
batch_size = 4
eval_every = 3
seed = 3
train_size = 32
eval_size = 16
"""


def test_train_then_export_weights(tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TRAIN_CFG)
    out_dir = tmp_path / "run"
    assert run(["train", "--config", str(cfg), "--out", str(out_dir)]) == 0
    kv = _lines(capsys)
    assert (out_dir / "metrics.csv").exists()
    assert (out_dir / "final.ckpt").exists()
    assert 0.0 <= float(kv["final_eval_acc"]) <= 1.0

    prefix = tmp_path / "maps"
    assert run(["export-weights", "--ckpt", str(out_dir / "final.ckpt"),
                "--stage", "1", "--layer", "0", "--head", "1",
                "--res", "32", "--out", str(prefix)]) == 0
    assert prefix.with_suffix(".csv").exists()
    assert prefix.with_suffix(".pgm").exists()

    assert run(["export-weights", "--ckpt", str(out_dir / "final.ckpt"),
                "--stage", "1", "--layer", "0", "--head", "9",
                "--res", "32"]) == 2


def test_train_unknown_key_is_validation_error(tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TRAIN_CFG + "optimizer = sgd\n")
    assert run(["train", "--config", str(cfg)]) == 2


def test_train_requires_config_flag():
    assert run(["train"]) == 1


def test_train_json_summary(tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TRAIN_CFG)
    assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "r"),
                "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["steps"] == 6
    assert "final_eval_acc" in doc


def test_export_weights_missing_checkpoint_is_validation_error(tmp_path):
    assert run(["export-weights", "--ckpt", str(tmp_path / "no.ckpt"),
                "--stage", "0", "--layer", "0", "--head", "0"]) == 2


@pytest.mark.parametrize("cut", ["header", "mid-name", "mid-shape", "mid-values"])
def test_export_weights_truncated_checkpoint_is_validation_error(tmp_path, capsys, cut):
    model = GswinModel(ModelConfig(base_channels=8, depths=(1, 1, 1, 1), heads=2,
                                   window=(4, 4), num_classes=4, image_size=32), seed=0)
    full = tmp_path / "full.ckpt"
    save_checkpoint(full, model)
    first = model.parameters()[0]
    name_at = 4 + 5 + 2  # magic, version + count, name length
    shape_at = name_at + len(first.name.encode()) + 1
    values_at = shape_at + 4 * first.ndim
    ends = {"header": 5, "mid-name": name_at + 2, "mid-shape": shape_at + 2,
            "mid-values": values_at + 6}
    short = tmp_path / "short.ckpt"
    short.write_bytes(full.read_bytes()[:ends[cut]])
    assert run(["export-weights", "--ckpt", str(short),
                "--stage", "0", "--layer", "0", "--head", "0"]) == 2
    err = capsys.readouterr().err
    assert "truncated" in err and str(short) in err
    assert "Traceback" not in err
