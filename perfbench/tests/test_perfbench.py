"""Tests of the benchmark's own code, run at a tiny length.

    python -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gswin.checkpoint as gckpt  # noqa: E402
import gswin.model as gmodel  # noqa: E402
import gswin.sgu as gsgu  # noqa: E402
import gswin.train as gtrain  # noqa: E402
import run  # noqa: E402
from gswin.tensor import Tensor  # noqa: E402
from workloads import WORKLOADS, tiny  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _poison(workload):
    """Put one NaN pixel into the inputs the workload's setup generates."""
    setup = workload.setup

    def poisoned(seed):
        state = setup(seed)
        images = state["images"] if "images" in state else state["task"].train_x
        images[0, 0, 0, 0] = np.nan
        return state

    workload.setup = poisoned
    return workload


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_listed_metric_is_printed_with_its_unit(name, trace, tmp_path):
    measured = run.measure(tiny(name), 0, 0.01, trace, tmp_path)
    line = json.loads(json.dumps(run.result_line(SPEC, measured, trace)))
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        entry = line["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert measured["detail"]["failed_frac"] == 0.0
    if not trace:
        assert all(line["metrics"][m["name"]]["value"] > 0 for m in listed)
    else:
        assert 0.5 < line["metrics"]["trace.coverage"]["value"] <= 1.0 + 1e-9
        assert measured["detail"]["oracle_checks"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_injected_nan_input_shows_in_failed_frac(name, tmp_path):
    measured = run.measure(_poison(tiny(name)), 0, 0.01, False, tmp_path)
    assert measured["failed"] > 0
    assert measured["detail"]["failed_frac"] == measured["failed"] / measured["attempted"]
    assert not run.result_line(SPEC, measured, False)["correct"]


def test_wrong_sgu_output_fails_the_oracle_check(tmp_path, monkeypatch):
    exact = gmodel.multi_head_window_sgu

    def off_by_a_little(x, params, grid):
        return exact(x, params, grid) * 1.000001

    monkeypatch.setattr(gmodel, "multi_head_window_sgu", off_by_a_little)
    workload = tiny("t224-eval")
    _, probe = run._episode(workload, workload.setup(0), tmp_path, layers=True)
    assert probe.oracle_checks > 0
    assert probe.oracle_failures == probe.oracle_checks


@pytest.mark.parametrize("name", ["smoke-train", "vt224-train"])
def test_same_seed_gives_bit_identical_losses(name, tmp_path):
    workload = tiny(name)
    runs = [run._episode(workload, workload.setup(5), tmp_path, layers=False)[0].losses
            for _ in range(2)]
    assert len(runs[0]) == workload.steps
    assert runs[0] == runs[1]


@pytest.mark.parametrize("name", ["t224-eval", "vt224-train"])
def test_the_seed_makes_the_inputs(name):
    workload = tiny(name)
    states = [workload.setup(seed) for seed in (5, 5, 6)]
    images = [s["images"] if "images" in s else s["task"].train_x for s in states]
    assert np.array_equal(images[0], images[1])
    assert not np.array_equal(images[0], images[2])


def test_tracing_leaves_losses_unchanged(tmp_path):
    workload = tiny("smoke-train")
    state = workload.setup(1)
    plain, _ = run._episode(workload, state, tmp_path, layers=False)
    traced, probe = run._episode(workload, state, tmp_path, layers=True)
    assert traced.failed == 0 and traced.losses == plain.losses
    assert len(probe.step_records) == workload.steps


def test_probe_puts_every_name_back(tmp_path):
    owners = (gmodel, gsgu, gtrain, gckpt)
    before = [dict(vars(m)) for m in owners] + [dict(vars(Tensor))]
    workload = tiny("vt224-train")
    state = workload.setup(0)
    run._episode(workload, state, tmp_path, layers=True)
    after = [dict(vars(m)) for m in owners] + [dict(vars(Tensor))]
    assert after == before
    model = state["model"]
    assert "forward" not in vars(model) and "_embed" not in vars(model)
    assert all("forward" not in vars(blk) for blocks in model.stages for blk in blocks)


def test_fails_without_printing_when_the_package_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "smoke-train",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="needs /proc/self/statm")
def test_freed_memory_stays_in_the_process():
    code = f"""
import resource, sys
sys.path.insert(0, {str(BENCH)!r})
import run
assert run.retain_freed_memory()
import numpy as np
a = np.ones(1 << 23)  # 64 MB, faulted in and then freed
del a
print(int(open("/proc/self/statm").read().split()[1]) * resource.getpagesize())
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    assert int(proc.stdout) >= 64 << 20
