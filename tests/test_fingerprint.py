"""The same-numbers fingerprint: stable within a process, and moved by a changed number."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import gswin.tensor as gtensor

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("fingerprint", ROOT / "tools" / "fingerprint.py")
fingerprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprint)


def test_fingerprint_is_equal_twice_in_one_process():
    first = fingerprint.fingerprint(tiny=True)
    assert fingerprint.fingerprint(tiny=True) == first
    for section in ("init.", "step.", "eval.", "gelu.", "checkpoint.", "count_params.",
                    "count_flops."):
        assert any(key.startswith(section) for key in first), section
    nodes = {k: v for k, v in first.items() if k.endswith(".nodes")}
    assert len(nodes) == 2 and all(isinstance(v, int) and v > 0 for v in nodes.values())


def test_a_changed_number_shows_only_in_the_computed_keys(monkeypatch):
    before = fingerprint.fingerprint(tiny=True)
    monkeypatch.setattr(gtensor, "_LN_EPS", 2e-5)
    after = fingerprint.fingerprint(tiny=True)
    moved = {k for k in before if before[k] != after[k]}
    assert {k for k in before if k.endswith((".loss", ".logits"))} <= moved
    assert not any(k.startswith(("init.", "checkpoint.", "count_", "env.")) or
                   k.endswith(".nodes") for k in moved)


def test_script_pins_one_blas_thread():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "fingerprint.py"), "--tiny"],
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out)["env.OPENBLAS_NUM_THREADS"] == "1"
