"""What gswin computes, as one JSON object of SHA-256 digests and exact counts.

Two source trees compute the same numbers when their fingerprints are equal;
a change that moves a number on purpose names the keys it moves. From the
repository root:

    python tools/fingerprint.py > after.json
    python tools/fingerprint.py --src ../parent/src > before.json
    diff before.json after.json

The object holds, in order:

- ``init.<preset>.<param>``: every initial parameter of each preset, seed 0;
- ``step.<model>.*``: the loss, the graph node count, every gradient and each
  block's ``effective_mixing_weight`` of one training step (perturbed gates,
  drop-path 0.1) of the smoke model, a ragged 64 px model without the
  relative-offset table, and ``gswin-vt`` at 224 px, so that the gating vjp
  runs on rolled grids, on ragged grids whose partial bands share a wrapped
  window and on zero-padded grids;
- ``eval.<model>.logits``: one no-grad forward of one image (perturbed gates)
  through the smoke model, the ragged 64 px model and ``gswin-t`` at 224 px.
  The smoke model and ``gswin-t`` run the non-recording gating unit on rolled
  grids only (every map is a whole number of windows). The ragged model runs
  it on zero-padded grids, on ragged grids whose partial bands share a
  wrapped window (the shifted layers of stages 1 and 2) and on a rolled one
  in its last stage.
  The first two run GELU on maps smaller than one of its blocks, the third on
  many blocks;
- ``gelu.<range>.*``: GELU's no-grad output, and its recorded output and
  slope (the gradient of its sum), on ``GELU_VALUES`` values drawn from
  |x| <= sqrt 2, where every erf chunk takes cephes's rational form in numpy
  (``narrow``), and from [-8, 8], where every chunk calls scipy's ``erf``
  (``wide``);
- ``checkpoint.<model>``: the bytes of a saved seed-0 checkpoint;
- ``count_params.*`` per module and ``count_flops.*`` of each preset at 160,
  224 and 256 px under both strategies.

Run as a script, it pins OpenBLAS to one thread before numpy is loaded, because
at 224 px the bits of a training step depend on the BLAS thread count, and
records the count under ``env.OPENBLAS_NUM_THREADS``. Digests also change with
the numpy and BLAS builds, so compare fingerprints taken on one machine.
``--tiny`` swaps every model for a micro one and runs in about a second.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read once, when numpy loads BLAS

import numpy as np  # noqa: E402

DROP_PATH = 0.1
FLOP_RESOLUTIONS = (160, 224, 256)
GELU_VALUES = 200_003  # three GELU blocks and a ragged tail
GELU_RANGES = {"narrow": 1.4142, "wide": 8.0}


def digest(a) -> str:
    """SHA-256 of an array's dtype, shape and bytes."""
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def _plan(tiny: bool) -> dict:
    from gswin.model import PRESETS, ModelConfig

    smoke = ModelConfig(base_channels=16, depths=(2, 2, 2, 2), heads=4, window=(4, 4),
                        num_classes=10, image_size=32, drop_path_rate=DROP_PATH)
    ragged = replace(smoke, base_channels=8, window=(3, 5), image_size=64, rel_bias=False)
    if tiny:
        micro = replace(smoke, base_channels=4, depths=(1, 2, 1, 1), heads=2)
        tiny_ragged = replace(ragged, base_channels=4)
        return {"presets": {"micro": micro},
                "steps": {"micro": (micro, 2), "ragged": (tiny_ragged, 2)},
                "eval": {"micro": micro, "ragged": tiny_ragged}, "checkpoint": ("micro", micro),
                "resolutions": (32, 64)}
    return {"presets": PRESETS,
            "steps": {"smoke": (smoke, 4), "ragged64": (ragged, 3),
                      "gswin-vt": (replace(PRESETS["gswin-vt"], drop_path_rate=DROP_PATH), 2)},
            "eval": {"smoke": smoke, "ragged64": ragged, "gswin-t": PRESETS["gswin-t"]},
            "checkpoint": ("smoke", smoke),
            "resolutions": FLOP_RESOLUTIONS}


def _perturb_gates(model, rng: np.random.Generator) -> None:
    """Move every gating array off its identity init, so the mixing shows in the digests."""
    for blocks in model.stages:
        for blk in blocks:
            for p in (blk.sgu.w_win, blk.sgu.b_win, blk.sgu.rel_table):
                if p is not None:
                    p.data = p.data + 0.05 * rng.standard_normal(p.shape)


def _step(name: str, config, batch: int, seed: int) -> dict:
    from gswin.analysis import effective_mixing_weight
    from gswin.model import GswinModel
    from gswin.tensor import Tensor, _Node, _topo_order, backward
    from gswin.train import cross_entropy

    model = GswinModel(config, seed=0)
    _perturb_gates(model, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    size = config.image_size
    images = rng.standard_normal((batch, size, size, 3))
    labels = rng.integers(0, config.num_classes, size=batch)
    logits = model.forward(Tensor(images), training=True, rng=np.random.default_rng(seed + 2))
    loss = cross_entropy(logits, labels, smoothing=0.1)
    out = {f"step.{name}.nodes": sum(isinstance(n, _Node) for n in _topo_order(loss._node)),
           f"step.{name}.loss": digest(loss.data)}
    backward(loss)
    del logits, loss
    for p in model.parameters():
        out[f"step.{name}.grad.{p.name}"] = "none" if p.grad is None else digest(p.grad)
    for s, blocks in enumerate(model.stages):
        for i, blk in enumerate(blocks):
            w_eff = [effective_mixing_weight(model, s, i, h) for h in range(blk.sgu.heads)]
            out[f"step.{name}.w_eff.stages.{s}.blocks.{i}"] = digest(np.stack(w_eff))
    return out


def _gelu() -> dict:
    from gswin.tensor import Tensor, backward, gelu, no_grad

    out = {}
    for seed, (name, bound) in enumerate(GELU_RANGES.items()):
        data = np.random.default_rng(seed).uniform(-bound, bound, GELU_VALUES)
        with no_grad():
            out[f"gelu.{name}.no_grad"] = digest(gelu(Tensor(data)).data)
        x = Tensor(data, requires_grad=True)
        y = gelu(x)
        out[f"gelu.{name}.out"] = digest(y.data)
        backward(y.sum())
        out[f"gelu.{name}.slope"] = digest(x.grad)
    return out


def fingerprint(tiny: bool = False) -> dict:
    """The fingerprint of the ``gswin`` on ``sys.path``; ``tiny`` uses micro models."""
    from gswin.analysis import STRATEGIES, count_flops, count_params
    from gswin.checkpoint import save_checkpoint
    from gswin.model import GswinModel
    from gswin.tensor import Tensor, no_grad

    plan = _plan(tiny)
    out: dict = {"env.OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
                 "env.numpy": np.__version__}
    for preset, config in plan["presets"].items():
        for p in GswinModel(config, seed=0).parameters():
            out[f"init.{preset}.{p.name}"] = digest(p.data)
    for seed, (name, (config, batch)) in enumerate(plan["steps"].items()):
        out.update(_step(name, config, batch, seed=100 * (seed + 1)))
    for seed, (name, config) in enumerate(plan["eval"].items()):
        model = GswinModel(config, seed=0)
        _perturb_gates(model, np.random.default_rng(10 * seed + 7))
        size = config.image_size
        images = np.random.default_rng(10 * seed + 8).standard_normal((1, size, size, 3))
        with no_grad():
            out[f"eval.{name}.logits"] = digest(model.forward(Tensor(images)).data)
    out.update(_gelu())
    name, config = plan["checkpoint"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "seed0.ckpt"
        save_checkpoint(path, GswinModel(config, seed=0))
        out[f"checkpoint.{name}"] = digest(np.frombuffer(path.read_bytes(), np.uint8))
    for preset, config in plan["presets"].items():
        for module, n in count_params(config).per_module.items():
            out[f"count_params.{preset}.{module}"] = n
        for res in plan["resolutions"]:
            for strategy in STRATEGIES:
                out[f"count_flops.{preset}.{res}.{strategy}"] = count_flops(
                    config, res, strategy).flops
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="directory that holds the gswin package (default: this "
                             "repository's src/)")
    parser.add_argument("--tiny", action="store_true", help="micro models only")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    print(json.dumps(fingerprint(args.tiny), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
