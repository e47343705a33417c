"""End-to-end checks of the command-line surface, invoked in-process."""
import json
import re
import struct
from dataclasses import replace

import numpy as np
import pytest

from gswin import gradcheck
from gswin.analysis import count_flops, count_params, read_weight_csv
from gswin.checkpoint import load_checkpoint, save_checkpoint
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


def test_count_config_that_is_not_utf8_names_the_file(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"base_channels = \xff8\n")
    assert run(["count", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and "utf-8" in err
    assert "Traceback" not in err


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
    assert int(kv["checks"]) == 9
    assert float(kv["worst_rel_err"]) < 1e-5


def test_gradcheck_block_scope(capsys):
    assert run(["gradcheck", "--scope", "block", "--seed", "1"]) == 0
    kv = _lines(capsys)
    assert kv["status"] == "ok"
    assert float(kv["worst_rel_err"]) < 1e-4


def test_gradcheck_failure_exits_three(monkeypatch, capsys):
    def boom(seed=0):
        raise AssertionError("synthetic mismatch")

    monkeypatch.setitem(gradcheck.SCOPES, "ops", boom)
    assert run(["gradcheck", "--scope", "ops"]) == 3
    assert "synthetic mismatch" in capsys.readouterr().err


def test_gradcheck_model_scope_checks_every_parameter(monkeypatch, capsys):
    # records the call instead of running it: criterion 5 runs the real check
    seen = {}

    def record(f, inputs, tol=1e-5, floor=1e-6):
        seen.update(names=[p.name for p in inputs], tol=tol, floor=floor)
        return 0.0

    monkeypatch.setattr(gradcheck, "check_gradients", record)
    assert run(["gradcheck", "--scope", "model", "--seed", "2"]) == 0
    assert _lines(capsys)["status"] == "ok"
    model = GswinModel(gradcheck.GRADCHECK_CONFIG, seed=2)
    assert seen == {"names": [p.name for p in model.parameters()], "tol": 1e-4, "floor": 1e-4}


def test_equiv_reports_and_passes(capsys):
    assert run(["equiv", "--seeds", "2"]) == 0
    raw = capsys.readouterr().out
    lines = raw.splitlines()
    assert all(line.startswith("case ") for line in lines[:14])
    assert [line.partition("=")[0] for line in lines[14:]] == [
        "seeds", "cases", "tolerance", "max_abs_diff", "status"]
    kv = dict(line.partition("=")[::2] for line in lines[14:])
    assert kv["status"] == "ok"
    assert int(kv["cases"]) == 14
    assert float(kv["max_abs_diff"]) < 1e-12
    assert raw.count("case image=") == 14
    assert raw.count("case image=9x16 shifted=True") == 2
    assert raw.count("case image=12x12 shifted=True") == 2


def test_equiv_seed_env_var(monkeypatch, capsys):
    monkeypatch.setenv("GSWIN_SEED", "7")
    assert run(["equiv", "--seeds", "1"]) == 0
    assert "seed=7" in capsys.readouterr().out


def test_equiv_rejects_bad_env_seed(monkeypatch):
    monkeypatch.setenv("GSWIN_SEED", "seven")
    assert run(["equiv", "--seeds", "1"]) == 2


def test_equiv_rejects_nonpositive_seeds():
    assert run(["equiv", "--seeds", "0"]) == 2


def test_equiv_json_lists_every_case(capsys):
    assert run(["equiv", "--seeds", "1", "--seed", "4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "ok"
    assert len(doc["case_diffs"]) == doc["cases"] == 7
    assert {c["seed"] for c in doc["case_diffs"]} == {4}
    assert all(float(c["max_abs_diff"]) < 1e-12 for c in doc["case_diffs"])


def test_equiv_exits_three_when_the_oracle_disagrees(monkeypatch, capsys):
    import gswin.cli as cli
    oracle = cli.zero_padding_shift_oracle
    monkeypatch.setattr(cli, "zero_padding_shift_oracle",
                        lambda x, params, grid: oracle(x, params, grid) + 1e-9)
    assert run(["equiv", "--seeds", "1"]) == 3
    assert capsys.readouterr().err.startswith("check failed: gating path vs zero-padding oracle")


def test_equiv_builds_no_graph(monkeypatch):
    import gswin.cli as cli
    gate, outputs = cli.multi_head_window_sgu, []
    monkeypatch.setattr(cli, "multi_head_window_sgu",
                        lambda *args: outputs.append(gate(*args)) or outputs[-1])
    cli._equiv_case(np.random.default_rng(0), (9, 9), (7, 7), heads=2, shifted=True)
    assert len(outputs) == 1
    assert outputs[0]._vjp is None and not outputs[0].requires_grad


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
    lines = capsys.readouterr().out.splitlines()
    # six steps, evaluated every three: two step lines between the totals
    assert [line.partition("=")[0] for line in lines] == [
        "params", "step", "step", "early_loss_mean", "final_loss", "final_eval_acc", "out_dir"]
    kv = dict(line.partition("=")[::2] for line in lines)
    assert (out_dir / "metrics.csv").exists()
    assert (out_dir / "final.ckpt").exists()
    assert 0.0 <= float(kv["final_eval_acc"]) <= 1.0

    prefix = tmp_path / "maps"
    assert run(["export-weights", "--ckpt", str(out_dir / "final.ckpt"),
                "--stage", "1", "--layer", "0", "--head", "1",
                "--out", str(prefix)]) == 0
    assert prefix.with_suffix(".csv").exists()
    assert prefix.with_suffix(".pgm").exists()

    assert run(["export-weights", "--ckpt", str(out_dir / "final.ckpt"),
                "--stage", "1", "--layer", "0", "--head", "9"]) == 2


def test_train_unknown_key_is_validation_error(tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TRAIN_CFG + "optimizer = sgd\n")
    assert run(["train", "--config", str(cfg)]) == 2


def test_train_bad_task_value_names_the_key(tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TRAIN_CFG.replace("train_size = 32", "train_size = many"))
    assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    assert "train_size" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("lr", "nan"), ("weight_decay", "nan"),
                                        ("label_smoothing", "inf"), ("label_smoothing", "1.5"),
                                        ("noise", "nan"), ("frequency", "inf")])
def test_train_bad_rate_is_validation_error(tmp_path, capsys, key, value):
    # these would otherwise start a run that diverges or trains on NaN images
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TRAIN_CFG.replace("lr = 2e-3\n", "") + f"{key} = {value}\n")
    assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert key in err
    assert "Traceback" not in err


def test_train_negative_warmup_is_validation_error(tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TRAIN_CFG.replace("warmup_steps = 2", "warmup_steps = -5"))
    assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "warmup_steps" in err
    assert not (tmp_path / "r").exists()


def test_train_out_of_memory_is_validation_error(tmp_path, capsys):
    # the task's arrays cannot be allocated: numpy raises before touching memory
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TRAIN_CFG.replace("train_size = 32", "train_size = 1000000000000"))
    assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_train_requires_config_flag():
    assert run(["train"]) == 1


def test_train_that_fails_at_run_time_exits_three(tmp_path, monkeypatch, capsys):
    import gswin.cli as cli

    def diverge(*args, **kwargs):
        raise RuntimeError("loss diverged at step 1: nan")

    monkeypatch.setattr(cli, "train", diverge)
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TRAIN_CFG)
    assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("run failed: loss diverged at step 1")
    assert "Traceback" not in err


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
    (config_len,) = struct.unpack("<I", full.read_bytes()[5:9])
    name_at = 4 + 5 + config_len + 4 + 2  # magic, version + config, count, name length
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


def test_export_weights_rebuilds_a_rectangular_window_model_from_its_checkpoint(tmp_path):
    model = GswinModel(ModelConfig(base_channels=8, depths=(1, 1, 1, 1), heads=2,
                                   window=(4, 2), num_classes=4, image_size=64), seed=0)
    ckpt = tmp_path / "final.ckpt"
    save_checkpoint(ckpt, model)
    prefix = tmp_path / "maps"
    assert run(["export-weights", "--ckpt", str(ckpt), "--stage", "0", "--layer", "0",
                "--head", "1", "--out", str(prefix)]) == 0
    assert read_weight_csv(prefix.with_suffix(".csv")).shape == (8, 8)


def _with_header(blob: bytes, config: bytes, config_len: int | None = None) -> bytes:
    """``blob``, a version-2 checkpoint, with its config replaced."""
    (old_len,) = struct.unpack("<I", blob[5:9])
    length = len(config) if config_len is None else config_len
    return blob[:4] + struct.pack("<BI", 2, length) + config + blob[9 + old_len:]


@pytest.mark.parametrize("case", ["non-integer", "unknown-key", "length-past-end",
                                  "non-utf8", "version-1", "wider-than-arrays"])
def test_hostile_checkpoint_header_is_validation_error(tmp_path, capsys, case):
    model = GswinModel(ModelConfig(base_channels=8, depths=(1, 1, 1, 1), heads=2,
                                   window=(4, 4), num_classes=4, image_size=32), seed=0)
    good = tmp_path / "good.ckpt"
    save_checkpoint(good, model)
    blob = good.read_bytes()
    (config_len,) = struct.unpack("<I", blob[5:9])
    config = blob[9:9 + config_len]
    params = blob[9 + config_len:]
    bad, says = {
        "non-integer": (_with_header(blob, config.replace(b"heads = 2", b"heads = 2.5")),
                        "heads must be an integer"),
        "unknown-key": (_with_header(blob, config + b"optimizer = sgd\n"), "optimizer"),
        "length-past-end": (_with_header(blob, config, config_len=len(blob)), "truncated"),
        "non-utf8": (_with_header(blob, config.replace(b"heads", b"he\xffds")), "utf-8"),
        # version 1: the parameter count where the config length now sits
        "version-1": (blob[:4] + struct.pack("<B", 1) + params, "version 1"),
        "wider-than-arrays": (_with_header(blob, config.replace(b"base_channels = 8",
                                                                b"base_channels = 4096")),
                              "config describes"),
    }[case]
    path = tmp_path / "bad.ckpt"
    path.write_bytes(bad)
    with pytest.raises(ValueError, match=re.escape(str(path))) as info:
        load_checkpoint(path)
    assert says in str(info.value)
    assert run(["export-weights", "--ckpt", str(path),
                "--stage", "0", "--layer", "0", "--head", "0"]) == 2
    err = capsys.readouterr().err
    assert str(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key, value", [("base_channels", "0"), ("window", "4,5,6"),
                                        ("image_size", "0"), ("heads", "two")])
def test_count_config_bad_value_is_validation_error(tmp_path, capsys, key, value):
    lines = {"base_channels": "8", "depths": "1,1,1,1", "heads": "2", key: value}
    cfg = tmp_path / "m.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    assert run(["count", "--config", str(cfg)]) == 2
    assert key in capsys.readouterr().err
