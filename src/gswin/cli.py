"""Command-line surface over the analysis, verification and training modules.

Subcommands:
    count           parameter totals for a preset or config file
    flops           forward-pass cost at a given resolution and shift strategy
    gradcheck       finite-difference verification (ops, one block, or a model)
    equiv           gating path vs zero-padding oracle agreement battery
    train           run the synthetic-task harness from a config file
    export-weights  dump one head's effective mixing weight as CSV + PGM
    presets         list the built-in model configurations

Output is line-oriented ``key=value``; ``--json`` switches to a JSON document.
Exit codes: 0 success, 1 usage, 2 validation, I/O or memory error, 3 failed check.
The GSWIN_SEED environment variable supplies the default seed where one
applies (gradcheck, equiv, and train configs that omit ``seed``).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from typing import Sequence, get_type_hints

import numpy as np

from .analysis import (STRATEGIES, count_flops, count_params, export_weight_maps,
                       format_count)
from .checkpoint import (MODEL_KEYS, model_config_from_mapping, model_from_checkpoint,
                         parse_config_file, typed_fields, typed_value)
from .gradcheck import SCOPES
from .model import DROP_PATH_RATES, PRESETS, GswinModel, ModelConfig
from .sgu import init_sgu_params, multi_head_window_sgu, zero_padding_shift_oracle
from .tensor import Tensor, no_grad
from .train import SyntheticTask, TrainConfig, train
from .windows import WindowGrid, shift_offset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_CHECK_FAILED = 3

# train config key -> SyntheticTask argument; the class count and image size
# come from the model config
_TASK_KEYS = {"train_size": "train_size", "eval_size": "eval_size", "noise": "noise",
              "frequency": "frequency", "task_seed": "seed"}


class _UsageError(Exception):
    pass


class _CheckFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exception, not SystemExit(2)."""

    def error(self, message: str):
        raise _UsageError(message)


def _seed(flag: int | None = None) -> int:
    """The ``--seed`` flag, else the GSWIN_SEED environment variable, else 0;
    anything but a non-negative integer raises ``ValueError`` naming its source."""
    source, raw = (("--seed", str(flag)) if flag is not None
                   else ("GSWIN_SEED", os.environ.get("GSWIN_SEED", "0")))
    if not raw.isdecimal():
        raise ValueError(f"{source} must be a non-negative integer, got {raw!r}")
    return int(raw)


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
        return
    for key, value in payload.items():
        if isinstance(value, dict):
            for sub, v in value.items():
                print(f"{key}.{sub}={v}")
        else:
            print(f"{key}={value}")


def _resolve_model(args) -> tuple[ModelConfig, str]:
    if args.model is not None:
        return PRESETS[args.model], args.model
    return model_config_from_mapping(parse_config_file(args.config)), str(args.config)


# -- subcommands -----------------------------------------------------------------


def _cmd_count(args) -> int:
    config, label = _resolve_model(args)
    report = count_params(config)
    payload = {"model": label,
               "total_params": report.total_params,
               "params_human": format_count(report.total_params),
               "params": report.per_module,
               "convention": report.convention}
    _emit(payload, args.json)
    return EXIT_OK


def _cmd_flops(args) -> int:
    config, label = _resolve_model(args)
    resolution = config.image_size if args.res is None else args.res
    report = count_flops(config, resolution=resolution, strategy=args.strategy)
    payload = {"model": label,
               "resolution": report.resolution,
               "strategy": report.strategy,
               "flops": report.flops,
               "flops_human": format_count(report.flops),
               "total_params": report.total_params,
               "convention": report.convention}
    _emit(payload, args.json)
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    seed = _seed(args.seed)
    try:
        results = SCOPES[args.scope](seed)
    except AssertionError as exc:
        raise _CheckFailure(f"gradcheck scope={args.scope}: {exc}") from None
    payload = {"scope": args.scope, "seed": seed, "checks": len(results),
               "errors": {name: f"{err:.3e}" for name, err in results},
               "worst_rel_err": f"{max(err for _, err in results):.3e}",
               "status": "ok"}
    _emit(payload, args.json)
    return EXIT_OK


def _equiv_case(rng: np.random.Generator, image: tuple[int, int], window: tuple[int, int],
                heads: int, shifted: bool) -> float:
    gate = heads * int(rng.integers(1, 4))
    params = init_sgu_params(window, heads, rel_bias=True, prefix="equiv")
    for p in (params.w_win, params.b_win, params.rel_table):
        p.data[...] = rng.standard_normal(p.shape)
    grid = WindowGrid(image, window, offset=shift_offset(window, shifted))
    B = int(rng.integers(1, 3))
    x = Tensor(rng.standard_normal((B, image[0], image[1], 2 * gate)))
    with no_grad():  # the gates are parameters, but the battery never calls backward
        fast = multi_head_window_sgu(x, params, grid)
    slow = zero_padding_shift_oracle(x, params, grid)
    return float(np.max(np.abs(fast.data - slow)))


def _cmd_equiv(args) -> int:
    seed = _seed(args.seed)
    if args.seeds < 1:
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    window = (7, 7)
    # whole-window maps; ragged ones whose partial bands share a window (12x12) or not (9x16)
    fixed = [((14, 14), True), ((21, 28), True), ((7, 7), True), ((12, 12), True),
             ((9, 16), True)]
    cases: list[dict] = []
    worst = 0.0
    for i in range(args.seeds):
        rng = np.random.default_rng(seed + i)
        shapes = list(fixed)
        shapes.append(((int(rng.integers(7, 36)), int(rng.integers(7, 36))), True))
        shapes.append(((int(rng.integers(7, 36)), int(rng.integers(7, 36))), False))
        for image, shifted in shapes:
            heads = int(rng.choice([1, 2, 3]))
            diff = _equiv_case(rng, image, window, heads, shifted)
            worst = max(worst, diff)
            cases.append({"image": f"{image[0]}x{image[1]}", "shifted": shifted,
                          "heads": heads, "seed": seed + i, "max_abs_diff": diff})
    tol = 1e-12
    payload = {"seeds": args.seeds, "cases": len(cases), "tolerance": tol,
               "max_abs_diff": f"{worst:.3e}",
               "status": "ok" if worst < tol else "FAILED"}
    if args.json:
        payload["case_diffs"] = [dict(c, max_abs_diff=f"{c['max_abs_diff']:.3e}")
                                 for c in cases]
    else:
        for c in cases:
            print(f"case image={c['image']} shifted={c['shifted']} heads={c['heads']} "
                  f"seed={c['seed']} max_abs_diff={c['max_abs_diff']:.3e}")
    _emit(payload, args.json)
    if worst >= tol:
        raise _CheckFailure(f"gating path vs zero-padding oracle max diff {worst:.3e} >= {tol}")
    return EXIT_OK


def _cmd_train(args) -> int:
    mapping = parse_config_file(args.config)
    unknown = set(mapping) - MODEL_KEYS - {f.name for f in fields(TrainConfig)} - set(_TASK_KEYS)
    if unknown:
        raise ValueError(f"unknown train config keys: {sorted(unknown)}")
    model_config = model_config_from_mapping(
        {k: v for k, v in mapping.items() if k in MODEL_KEYS})
    train_config = TrainConfig(**{"seed": _seed(), **typed_fields(TrainConfig, mapping)})

    kinds = get_type_hints(SyntheticTask.__init__)
    task_args = {arg: typed_value(key, kinds[arg], mapping[key])
                 for key, arg in _TASK_KEYS.items() if key in mapping}
    if task_args.get("seed", 0) < 0:
        raise ValueError(f"task_seed must be >= 0, got {task_args['seed']}")
    task = SyntheticTask(classes=model_config.num_classes, image_size=model_config.image_size,
                         **task_args)

    model = GswinModel(model_config, seed=train_config.seed)
    if not args.json:
        print(f"params={model.num_params()}")

    def report(step: int, lr: float, loss: float, acc: float) -> None:
        if not args.json:
            print(f"step={step} lr={lr:.3e} train_loss={loss:.4f} eval_acc={acc:.4f}")

    history = train(model, task, train_config, out_dir=args.out, on_eval=report)
    early = history.losses[:10]
    payload = {"early_loss_mean": f"{float(np.mean(early)):.6f}",
               "final_loss": f"{history.losses[-1]:.6f}",
               "final_eval_acc": f"{history.final_eval_acc:.4f}",
               "out_dir": str(args.out)}
    if args.json:  # the text report printed these two before the run
        payload = {"steps": train_config.total_steps, "params": model.num_params(), **payload}
    _emit(payload, args.json)
    return EXIT_OK


def _cmd_export_weights(args) -> int:
    model = model_from_checkpoint(args.ckpt)
    prefix = args.out or f"weights_s{args.stage}_l{args.layer}_h{args.head}"
    csv_path, pgm_path = export_weight_maps(model, args.stage, args.layer,
                                            args.head, prefix)
    payload = {"stage": args.stage, "layer": args.layer, "head": args.head,
               "csv": str(csv_path), "pgm": str(pgm_path)}
    _emit(payload, args.json)
    return EXIT_OK


def _cmd_presets(args) -> int:
    if args.json:
        _emit({name: {"base_channels": cfg.base_channels,
                      "depths": list(cfg.depths),
                      "heads": cfg.heads,
                      "window": list(cfg.window),
                      "expansion": cfg.expansion,
                      "drop_path": DROP_PATH_RATES[name],
                      "params": count_params(cfg).total_params}
               for name, cfg in PRESETS.items()}, True)
        return EXIT_OK
    for name, cfg in PRESETS.items():
        depths = ",".join(str(d) for d in cfg.depths)
        params = format_count(count_params(cfg).total_params)
        print(f"{name}: C={cfg.base_channels} depths={depths} heads={cfg.heads} "
              f"window={cfg.window[0]}x{cfg.window[1]} params={params} "
              f"drop_path={cfg.drop_path_rate}")
    return EXIT_OK


# -- parser ----------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="gswin", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit a JSON document")
        p.set_defaults(func=func)
        return p

    def add_model_source(p: argparse.ArgumentParser) -> None:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--model", choices=sorted(PRESETS), help="preset name")
        group.add_argument("--config", help="model config file (key = value lines)")

    p = add("count", _cmd_count, "parameter totals")
    add_model_source(p)

    p = add("flops", _cmd_flops, "forward-pass cost")
    add_model_source(p)
    p.add_argument("--res", type=int, help="square input resolution (default: image_size)")
    p.add_argument("--strategy", choices=STRATEGIES, default="padding-free")

    p = add("gradcheck", _cmd_gradcheck, "finite-difference verification")
    p.add_argument("--scope", choices=tuple(SCOPES), default="ops")
    p.add_argument("--seed", type=int, default=None)

    p = add("equiv", _cmd_equiv, "compare shifted gating against the padded oracle")
    p.add_argument("--seeds", type=int, default=10, help="random case batches")
    p.add_argument("--seed", type=int, default=None, help="base seed")

    p = add("train", _cmd_train, "run the training harness")
    p.add_argument("--config", required=True, help="model+train config file")
    p.add_argument("--out", default="gswin_run", help="artifact directory")

    p = add("export-weights", _cmd_export_weights, "write mixing-weight maps")
    p.add_argument("--ckpt", required=True, help="checkpoint file")
    p.add_argument("--stage", type=int, required=True)
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--head", type=int, required=True)
    p.add_argument("--out", default=None, help="output path prefix")

    add("presets", _cmd_presets, "list built-in configurations")
    return parser


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except _CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except RuntimeError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (ValueError, KeyError, OSError, MemoryError) as exc:
        # Python's own MemoryError carries no message, so name the exception then.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_VALIDATION


def entry() -> None:
    sys.exit(run(sys.argv[1:]))
