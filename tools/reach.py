"""Which statements of ``gswin`` no program path reaches.

Under a line tracer (``sys.settrace``) limited to ``src/gswin``, this runs:

- every ``gswin`` subcommand on a small config, each with and without
  ``--json``; ``gradcheck`` in each of its scopes; commands that end in each
  of the CLI's error exits; and ``python -m gswin``;
- a no-grad forward of a 64 px model whose 3x5 windows leave ragged maps,
  without the relative-offset table;
- GELU on values in [-8, 8], so that ``erf`` takes scipy's path as well as
  the rational form;
- the benchmark's three workloads at ``perfbench.workloads.tiny`` size under
  a ``perfbench`` ``Probe``, with its layers off and on.

It then prints each statement of ``src/gswin`` that none of these reached, as
``path:line: source``, and leaves out docstrings, declarations and ``raise``
statements. A statement counts as reached when any of its lines runs. From
the repository root:

    python tools/reach.py

Each command's exit code is checked, so a run that stops early fails here
instead of leaving code unreached. It takes about a minute on a 2-CPU machine,
most of it in the model-scope gradient check.
"""
from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import warnings
from collections import defaultdict
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "gswin"

# A comment and a blank line, so the parser's skip of both runs too.
MODEL_CFG = """\
# the smallest four-stage model: about 700 parameters

base_channels = 1
depths = 1,1,1,1
heads = 1
window = 2
expansion = 2
num_classes = 2
image_size = 32
"""
PRESET_CFG = "model = gswin-vt\nrel_bias = false\n"
SMALL_CFG = """\
base_channels = 8
depths = 1,2,1,1
heads = 2
window = 4
num_classes = 4
image_size = 32
"""
# The last block's drop-path rate is 1.0, so both of drop_path's branches run.
TRAIN_CFG = SMALL_CFG + """\
drop_path_rate = 1.0
lr = 2e-3
warmup_steps = 2
total_steps = 4
batch_size = 4
eval_every = 2
seed = 3
train_size = 8
eval_size = 4
"""


def statements(path: Path) -> list[ast.stmt]:
    """The statements of a source file that hold no other statement, less
    docstrings, ``raise`` statements and the ``global`` and ``nonlocal``
    declarations, which run no code."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)
                  and isinstance(node.body[0].value.value, str)}
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and "body" not in node._fields
            and not isinstance(node, (ast.Raise, ast.Global, ast.Nonlocal))
            and id(node) not in docstrings]


class LineTracer:
    """Records the lines run in files under ``root``, while installed.

    A function whose every line, less those of its ``raise`` statements, has
    run is no longer traced line by line: what it still costs is one call
    event per call.
    """

    def __init__(self, root: Path):
        self.prefix = str(root) + "/"
        self.hits: dict[str, set[int]] = defaultdict(set)
        self._raises: dict[str, set[int]] = {}
        self._pending: dict = {}

    def _line(self, frame, event, arg):
        if event == "line":
            self.hits[frame.f_code.co_filename].add(frame.f_lineno)
        return self._line

    def _call(self, frame, event, arg):
        code = frame.f_code
        path = code.co_filename
        if not path.startswith(self.prefix):
            return None
        hits = self.hits[path]
        hits.add(frame.f_lineno)  # the def line, which no line event reports
        pending = self._pending.get(code)
        if pending is None:
            if path not in self._raises:
                tree = ast.parse(Path(path).read_text(encoding="utf-8"))
                self._raises[path] = {line for node in ast.walk(tree)
                                      if isinstance(node, ast.Raise)
                                      for line in range(node.lineno, node.end_lineno + 1)}
            pending = self._pending[code] = (
                {line for _, _, line in code.co_lines() if line} - self._raises[path])
        pending -= hits
        return self._line if pending else None

    def __enter__(self) -> "LineTracer":
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc) -> bool:
        sys.settrace(None)
        return False


def _gswin(argv: list[str], code: int) -> None:
    """``gswin argv`` in process, output and warnings discarded; exits unless
    it ends with ``code``."""
    from gswin.cli import run

    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a diverging run overflows on purpose
        got = run(argv)
    if got != code:
        raise SystemExit(f"gswin {' '.join(argv)} exited {got}, expected {code}: "
                         f"{err.getvalue().strip()}")


def _cli(tmp: Path) -> None:
    """Every subcommand with and without ``--json``, one command per error exit,
    and ``python -m gswin presets`` through ``runpy``."""
    configs = {"model": MODEL_CFG, "small": SMALL_CFG, "preset": PRESET_CFG, "train": TRAIN_CFG,
               "diverge": TRAIN_CFG.replace("lr = 2e-3", "lr = 1e300"),
               "bad": MODEL_CFG.replace("heads = 1", "heads = one"),
               "huge": TRAIN_CFG.replace("train_size = 8", "train_size = 1000000000000")}
    for name, text in configs.items():
        (tmp / f"{name}.cfg").write_text(text)
    cfg = {name: str(tmp / f"{name}.cfg") for name in configs}
    commands = [["presets"],
                ["count", "--config", cfg["model"]],
                ["count", "--config", cfg["small"]],
                ["count", "--config", cfg["preset"]],
                ["flops", "--model", "gswin-t"],
                ["flops", "--config", cfg["small"], "--res", "64", "--strategy", "zero-padding"],
                ["gradcheck", "--scope", "ops"],
                ["gradcheck", "--scope", "block", "--seed", "1"],
                ["equiv", "--seeds", "1"],
                ["train", "--config", cfg["train"], "--out", str(tmp / "run")],
                ["export-weights", "--ckpt", str(tmp / "run" / "final.ckpt"), "--stage", "1",
                 "--layer", "1", "--head", "1", "--out", str(tmp / "maps")]]
    for argv in commands:
        _gswin(argv, 0)
        _gswin(argv + ["--json"], 0)
    with mock.patch.dict(os.environ, {"GSWIN_SEED": "5"}):
        _gswin(["equiv", "--seeds", "1"], 0)
    _gswin(["count"], 1)                                  # usage error
    _gswin(["count", "--config", cfg["bad"]], 2)          # validation error
    # numpy refuses the task's 7 TiB image array before touching memory
    _gswin(["train", "--config", cfg["huge"], "--out", str(tmp / "huge")], 2)
    # A finite-difference gradient of zeros, so every op's check fails.
    with mock.patch("gswin.gradcheck.numerical_grad", lambda f, wrt: 0.0 * wrt.data):
        _gswin(["gradcheck", "--scope", "ops"], 3)
    _gswin(["train", "--config", cfg["diverge"], "--out", str(tmp / "diverge")], 3)
    with mock.patch.object(sys, "argv", ["gswin", "presets"]), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            runpy.run_module("gswin", run_name="__main__")
        except SystemExit as exc:
            if exc.code != 0:
                raise SystemExit(f"python -m gswin presets exited {exc.code}") from None


def _model_scope(tmp: Path) -> None:
    """``gswin gradcheck --scope model``, which calls the model thousands of times."""
    _gswin(["gradcheck", "--scope", "model", "--json"], 0)


def _forward_and_gelu(tmp: Path) -> None:
    import numpy as np

    from gswin.model import GswinModel, ModelConfig
    from gswin.tensor import Tensor, gelu, no_grad

    config = ModelConfig(base_channels=8, depths=(2, 2, 2, 2), heads=4, window=(3, 5),
                         num_classes=10, image_size=64, rel_bias=False)
    images = np.random.default_rng(0).standard_normal((1, 64, 64, 3))
    with no_grad():
        GswinModel(config).forward(Tensor(images))
    gelu(Tensor(np.linspace(-8.0, 8.0, 1001)))


def _bench(tmp: Path) -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from probe import Probe
    from workloads import WORKLOADS, tiny

    for name in WORKLOADS:
        workload = tiny(name)
        state = workload.setup(0)
        for layers in (False, True):
            model = workload.fresh_model(state)
            workdir = Path(tempfile.mkdtemp(dir=tmp))
            with Probe(model, layers=layers) as probe:
                episode = workload.episode(state, probe, workdir, model)
            if episode.failed:
                raise SystemExit(f"bench workload {name} (layers={layers}) failed "
                                 f"{episode.failed} of {episode.attempted} operations")


# The model scope last: by then most of what it calls has run, so little of
# it is traced.
RUNS = (_forward_and_gelu, _bench, _cli, _model_scope)


def unreached(runs=RUNS) -> list[str]:
    """``path:line: source`` of every statement of ``src/gswin`` that ``runs`` leave unreached.

    Each run takes a scratch directory. The package must not be imported
    before this is called, or its module-level statements show as unreached.
    """
    sys.path.insert(0, str(SRC))
    tracer = LineTracer(PACKAGE)
    with tempfile.TemporaryDirectory() as tmp, tracer:
        for run in runs:
            run(Path(tmp))
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        hits = tracer.hits.get(str(path), set())
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in sorted(statements(path), key=lambda n: n.lineno):
            if hits.isdisjoint(range(node.lineno, node.end_lineno + 1)):
                out.append(f"{path.relative_to(ROOT)}:{node.lineno}: "
                           f"{lines[node.lineno - 1].strip()}")
    return out


def main() -> int:
    for line in unreached():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
