"""Acceptance gate: the eight checks this package must pass, one test each.

Every test prints exactly one "[criterion N] PASS/FAIL" line (visible with
-s, or in captured output on failure) and asserts everything behind it.
Published reference totals get a +-5% window; numerical equivalences use
absolute tolerances stated inline; runtime ceilings use perf_counter.
Benchmark accuracies are not reproducible at this scale and are not
attempted; criterion 8 instead proves the ablation switches work end to end.
"""
from dataclasses import replace
from time import perf_counter

import numpy as np

from gswin.analysis import count_flops, count_params, enumerate_params
from gswin.checkpoint import model_config_from_mapping, parse_config_file
from gswin.gradcheck import GRADCHECK_CONFIG, model_gradcheck, op_gradcheck_suite
from gswin.model import PRESETS, GswinModel, ModelConfig
from gswin.sgu import (init_sgu_params, materialize_relative_bias, multi_head_window_sgu,
                       toeplitz_index_map, zero_padding_shift_oracle)
from gswin.tensor import Tensor, backward
from gswin.train import SyntheticTask, TrainConfig, cross_entropy, train
from gswin.windows import WindowGrid, window_partition, window_reverse

PARAM_TARGETS = {"gswin-vt": 16e6, "gswin-t": 22e6, "gswin-s": 40e6}
FLOP_TARGETS = [("gswin-t", "padding-free", 3.6e9),
                ("gswin-t", "zero-padding", 3.8e9),
                ("gswin-vt", "padding-free", 2.3e9),
                ("gswin-s", "padding-free", 7.0e9)]

# Realized curve of the criterion-7 recipe, recorded once and pinned with
# loose windows; the hard thresholds below are asserted separately.
SMOKE_EARLY_LOSS = 2.305239
SMOKE_FINAL_LOSS = 0.500428
SMOKE_FINAL_ACC = 0.9883

SMOKE_CONFIG = ModelConfig(base_channels=16, depths=(2, 2, 2, 2), heads=4,
                           window=(4, 4), num_classes=10, image_size=32)


def _verdict(n: int, problems: list[str], detail: str) -> None:
    status = "PASS" if not problems else "FAIL"
    text = detail if not problems else "; ".join(problems)
    print(f"[criterion {n}] {status}: {text}")
    assert not problems, f"criterion {n}: {text}"


def _random_sgu(rng, window, heads, rel_bias=True, prefix="acc"):
    params = init_sgu_params(window, heads, rel_bias=rel_bias, prefix=prefix)
    fields = (params.w_win, params.b_win) + ((params.rel_table,) if rel_bias else ())
    for p in fields:
        p.data[...] = rng.standard_normal(p.shape)
    return params


def test_criterion_1_parameter_totals():
    problems = []
    t0 = perf_counter()
    realized = {}
    for name, target in PARAM_TARGETS.items():
        report = count_params(PRESETS[name])
        realized[name] = report.total_params
        rel = report.total_params / target - 1.0
        if abs(rel) > 0.05:
            problems.append(f"{name} total {report.total_params} off target {rel:+.2%}")
        per = enumerate_params(GswinModel(PRESETS[name], seed=0))
        if per != report.per_module:
            problems.append(f"{name} closed-form breakdown != enumeration")
        if sum(per.values()) != report.total_params:
            problems.append(f"{name} enumeration total mismatch")
    elapsed = perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, budget 1s")
    detail = " ".join(f"{k}={v / 1e6:.2f}M" for k, v in realized.items())
    _verdict(1, problems, f"{detail}, all within +-5%, closed-form == enumeration, "
                          f"{elapsed:.2f}s")


def test_criterion_2_flop_totals():
    problems = []
    t0 = perf_counter()
    realized = []
    for name, strategy, target in FLOP_TARGETS:
        flops = count_flops(PRESETS[name], resolution=224, strategy=strategy).flops
        rel = flops / target - 1.0
        realized.append(f"{name}/{strategy}={flops / 1e9:.2f}G({rel:+.1%})")
        if abs(rel) > 0.05:
            problems.append(f"{name} {strategy} {flops} off target {rel:+.2%}")
    elapsed = perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, budget 1s")
    _verdict(2, problems, f"{' '.join(realized)}, {elapsed:.2f}s")


def test_criterion_3_flops_independent_of_heads():
    problems = []
    totals = {}
    for strategy in ("padding-free", "zero-padding"):
        per_k = {k: count_flops(replace(PRESETS["gswin-t"], heads=k),
                                resolution=224, strategy=strategy).flops
                 for k in (1, 3, 6, 12, 24, 48)}
        totals[strategy] = set(per_k.values())
        if len(totals[strategy]) != 1:
            problems.append(f"{strategy} totals vary across heads: {per_k}")
    detail = ", ".join(f"{s}={next(iter(v))}" for s, v in totals.items())
    _verdict(3, problems, f"identical across K in {{1,3,6,12,24,48}}: {detail}")


def test_criterion_4_shift_equivalence():
    problems = []
    rng = np.random.default_rng(0)
    window = (7, 7)
    shapes = [(14, 14), (21, 28), (7, 7)]
    shapes += [(int(rng.integers(7, 36)), int(rng.integers(7, 36))) for _ in range(10)]
    worst = 0.0
    for i, image in enumerate(shapes):
        heads = int(rng.choice([1, 2, 7]))
        gate = heads * int(rng.integers(1, 4))
        params = _random_sgu(rng, window, heads, prefix=f"c4.{i}")
        grid = WindowGrid(image, window, offset=(3, 3))
        x = Tensor(rng.standard_normal((2, image[0], image[1], 2 * gate)))
        fast = multi_head_window_sgu(x, params, grid)
        slow = zero_padding_shift_oracle(x, params, grid)
        diff = float(np.max(np.abs(fast.data - slow)))
        worst = max(worst, diff)
        if diff > 1e-12:
            problems.append(f"{image} heads={heads} diff {diff:.2e} > 1e-12")
    _verdict(4, problems, f"{len(shapes)} cases (3 fixed + 10 random), "
                          f"max |diff| = {worst:.2e} <= 1e-12")


def test_criterion_5_gradcheck():
    problems = []
    t0 = perf_counter()
    try:
        op_results = op_gradcheck_suite(seed=0)
        worst_op = max(err for _, err in op_results)
        n_ops = len(op_results)
    except AssertionError as exc:
        problems.append(f"op suite: {exc}")
        worst_op, n_ops = float("nan"), 0

    try:
        [(_, worst_model)] = model_gradcheck(0)
    except AssertionError as exc:
        problems.append(f"whole model: {exc}")
        worst_model = float("nan")
    elapsed = perf_counter() - t0
    if elapsed >= 300.0:
        problems.append(f"took {elapsed:.0f}s, budget 300s")
    n_params = count_params(GRADCHECK_CONFIG).total_params
    _verdict(5, problems, f"{n_ops} ops worst {worst_op:.1e} < 1e-5, full model "
                          f"({n_params} params) worst {worst_model:.1e} < 1e-4, "
                          f"{elapsed:.0f}s")


def test_criterion_6_structural_invariants():
    problems = []
    rng = np.random.default_rng(2)

    # identity at init: fresh gate passes the value half through bit-exactly
    params = init_sgu_params((7, 7), 3, prefix="c6.id")
    grid = WindowGrid((14, 14), (7, 7), offset=(3, 3))
    x = Tensor(rng.standard_normal((2, 14, 14, 12)))
    out = multi_head_window_sgu(x, params, grid)
    if not np.array_equal(out.data, x.data[..., :6]):
        problems.append("identity-init gate is not a bit-exact passthrough")

    # partition/reverse round-trip on uniform, shifted and ragged grids
    for image, window, offset in [((14, 14), (7, 7), (0, 0)),
                                  ((14, 14), (7, 7), (3, 3)),
                                  ((9, 11), (4, 3), (2, 1))]:
        g = WindowGrid(image, window, offset=offset)
        t = rng.standard_normal((2, image[0], image[1], 5))
        back = window_reverse(window_partition(t, g), g)
        if not np.array_equal(back, t):
            problems.append(f"partition round-trip broke at {image} offset {offset}")

    # relative bias depends only on the token offset (exhaustive, 7x7)
    table = rng.standard_normal((13 * 13, 2))
    rel = materialize_relative_bias(table, (7, 7))
    for p in range(49):
        py, px = divmod(p, 7)
        for q in range(49):
            qy, qx = divmod(q, 7)
            expect = table[(py - qy + 6) * 13 + (px - qx + 6)]
            if not np.array_equal(rel[p, q], expect):
                problems.append(f"bias at pair ({p},{q}) is not offset-indexed")
                break
        else:
            continue
        break

    # perturbations stay inside their window group (full and corner groups)
    for offset, token, rows, cols in [((0, 0), (1, 2), slice(0, 7), slice(0, 7)),
                                      ((3, 3), (0, 0), slice(0, 3), slice(0, 3))]:
        heads, gate = 2, 4
        p6 = _random_sgu(rng, (7, 7), heads, prefix=f"c6.loc{offset[0]}")
        g = WindowGrid((14, 14), (7, 7), offset=offset)
        base = rng.standard_normal((1, 14, 14, 2 * gate))
        bumped = base.copy()
        bumped[0, token[0], token[1]] += 1.0
        delta = (multi_head_window_sgu(Tensor(bumped), p6, g).data
                 - multi_head_window_sgu(Tensor(base), p6, g).data)
        outside = delta.copy()
        outside[:, rows, cols] = 0.0
        if np.any(outside != 0.0):
            problems.append(f"offset {offset}: perturbation at {token} leaked "
                            "outside its group")
        if not np.any(delta[:, rows, cols]):
            problems.append(f"offset {offset}: perturbation had no effect in-group")

    # single head reduces to the plain single-window gate z1 * (W_eff z2 + b)
    p1 = _random_sgu(rng, (7, 7), 1, prefix="c6.k1")
    g1 = WindowGrid((7, 7), (7, 7), offset=(0, 0))
    xb = rng.standard_normal((2, 7, 7, 6))
    multi = multi_head_window_sgu(Tensor(xb), p1, g1).data
    w1 = (p1.w_win.data + p1.rel_table.data[toeplitz_index_map((7, 7))])[:, :, 0]
    for b in range(2):
        z = xb[b].reshape(49, 6)
        direct = (z[:, :3] * (w1 @ z[:, 3:] + p1.b_win.data[:, 0:1])).reshape(7, 7, 3)
        if not np.allclose(multi[b], direct, rtol=0.0, atol=1e-13):
            problems.append(f"K=1 path disagrees with single-window gate (batch {b})")
    _verdict(6, problems, "identity init, partition round-trip, offset-only bias "
                          "(49x49 exhaustive), group locality, K=1 reduction")


def test_criterion_7_training_smoke():
    problems = []
    t0 = perf_counter()
    tc = TrainConfig(total_steps=2000, eval_every=200, seed=0)
    histories = []
    weights = []
    for _ in range(2):
        task = SyntheticTask(classes=10, image_size=32, train_size=512,
                             eval_size=256, seed=0)
        model = GswinModel(SMOKE_CONFIG, seed=0)
        h = train(model, task, tc)
        histories.append(h)
        weights.append(np.concatenate([p.data.ravel() for p in model.parameters()]))

    h = histories[0]
    early = float(np.mean(h.losses[:10]))
    final = h.losses[-1]
    acc = h.final_eval_acc
    if final > 0.5 * early:
        problems.append(f"loss only fell {1 - final / early:.1%}, need >=50%")
    if acc <= 0.30:
        problems.append(f"eval accuracy {acc:.3f} not above 0.30")
    if histories[0].losses != histories[1].losses:
        problems.append("seeded reruns produced different loss curves")
    if histories[0].eval_accs != histories[1].eval_accs:
        problems.append("seeded reruns produced different eval curves")
    if not np.array_equal(weights[0], weights[1]):
        problems.append("seeded reruns produced different final weights")

    if abs(early - SMOKE_EARLY_LOSS) > 0.05:
        problems.append(f"early loss {early:.4f} drifted from fixture "
                        f"{SMOKE_EARLY_LOSS:.4f}")
    if abs(final - SMOKE_FINAL_LOSS) > 0.10:
        problems.append(f"final loss {final:.4f} drifted from fixture "
                        f"{SMOKE_FINAL_LOSS:.4f}")
    if acc < SMOKE_FINAL_ACC - 0.05:
        problems.append(f"final accuracy {acc:.4f} below fixture band")
    elapsed = perf_counter() - t0
    if elapsed >= 900.0:
        problems.append(f"took {elapsed:.0f}s, budget 900s")
    _verdict(7, problems, f"loss {early:.3f}->{final:.3f} (-{1 - final / early:.0%}), "
                          f"eval acc {acc:.3f}, two runs bit-identical, {elapsed:.0f}s")


def _fd_spot(loss_fn, model, param, rng, entries=3, step=1e-6, tol=1e-4):
    """Central differences on a few random entries of one parameter."""
    model.zero_grads()
    backward(loss_fn())
    analytic = param.grad.reshape(-1)
    flat = param.data.reshape(-1)
    bad = []
    for i in rng.choice(param.size, size=min(entries, param.size), replace=False):
        keep = flat[i]
        flat[i] = keep + step
        up = float(loss_fn().data)
        flat[i] = keep - step
        down = float(loss_fn().data)
        flat[i] = keep
        numeric = (up - down) / (2.0 * step)
        err = abs(analytic[i] - numeric) / max(abs(analytic[i]), abs(numeric), 1e-4)
        if err >= tol:
            bad.append(f"{param.name}[{i}] rel err {err:.2e}")
    return bad


def test_criterion_8_ablations_via_config(tmp_path):
    problems = []
    base = ("base_channels = 8\ndepths = 1,1,1,1\nwindow = 4\n"
            "num_classes = 4\nimage_size = 32\n")
    totals: dict[str, dict[int, int]] = {"true": {}, "false": {}}
    flops: dict[str, set[int]] = {"true": set(), "false": set()}
    rng = np.random.default_rng(3)

    for heads in (1, 2, 4):
        for rel in ("true", "false"):
            tag = f"heads={heads} rel_bias={rel}"
            cfg_file = tmp_path / f"h{heads}r{rel}.cfg"
            cfg_file.write_text(base + f"heads = {heads}\nrel_bias = {rel}\n")
            cfg = model_config_from_mapping(parse_config_file(cfg_file))

            report = count_params(cfg)
            totals[rel][heads] = report.total_params
            flops[rel].add(count_flops(cfg, resolution=32,
                                       strategy="padding-free").flops)
            model = GswinModel(cfg, seed=0)
            if enumerate_params(model) != report.per_module:
                problems.append(f"{tag}: closed-form != enumeration")

            # identity gate at init, on the model's own first block
            blk = model.stages[0][0]
            xg = Tensor(rng.standard_normal((1, 8, 8, 2 * blk.w_out.shape[0])))
            out = multi_head_window_sgu(xg, blk.sgu, blk.grid)
            if not np.array_equal(out.data, xg.data[..., :blk.w_out.shape[0]]):
                problems.append(f"{tag}: init gate not a passthrough")

            # oracle agreement for this head count / bias setting
            p8 = _random_sgu(rng, (4, 4), heads,
                             rel_bias=(rel == "true"), prefix=f"c8.{heads}.{rel}")
            g8 = WindowGrid((10, 13), (4, 4), offset=(2, 2))
            x8 = Tensor(rng.standard_normal((1, 10, 13, 6 * heads)))
            diff = float(np.max(np.abs(multi_head_window_sgu(x8, p8, g8).data
                                       - zero_padding_shift_oracle(x8, p8, g8))))
            if diff > 1e-12:
                problems.append(f"{tag}: oracle diff {diff:.2e} > 1e-12")

            # spot finite differences through the ablated parameters
            for p in model.parameters():
                if p.name.endswith((".w_win", ".b_win", ".rel_table")):
                    p.data += 0.3 * rng.standard_normal(p.shape)
            images = rng.standard_normal((2, 32, 32, 3))
            labels = np.array([1, 2])

            def loss():
                return cross_entropy(model.forward(Tensor(images)), labels,
                                     smoothing=0.1)

            spot = ["stages.0.blocks.0.sgu.b_win",
                    "stages.1.blocks.0.sgu.rel_table" if rel == "true"
                    else "stages.1.blocks.0.sgu.w_win"]
            for name in spot:
                problems += [f"{tag}: {msg}"
                             for msg in _fd_spot(loss, model, model.param(name), rng)]

            # short seeded reruns must agree bit for bit and stay finite
            curves = []
            for _ in range(2):
                task = SyntheticTask(classes=4, image_size=32, train_size=32,
                                     eval_size=16, seed=0)
                trainee = GswinModel(cfg, seed=0)
                hist = train(trainee, task,
                             TrainConfig(warmup_steps=2, total_steps=8,
                                         batch_size=4, eval_every=4, seed=1))
                curves.append(hist.losses)
            if curves[0] != curves[1]:
                problems.append(f"{tag}: seeded reruns diverged")
            if not all(np.isfinite(curves[0])):
                problems.append(f"{tag}: non-finite training loss")

    for rel in ("true", "false"):
        if not (totals[rel][1] < totals[rel][2] < totals[rel][4]):
            problems.append(f"params not increasing in heads (rel_bias={rel}): "
                            f"{totals[rel]}")
        if len(flops[rel]) != 1:
            problems.append(f"FLOPs vary across heads (rel_bias={rel}): {flops[rel]}")
    for heads in (1, 2, 4):
        if not totals["false"][heads] < totals["true"][heads]:
            problems.append(f"disabling the bias table did not shrink params "
                            f"at heads={heads}")
    _verdict(8, problems, "6 config-file settings (heads x bias toggle): "
                          "count==enumeration, identity init, oracle agreement, "
                          "FD spot checks, K-invariant FLOPs, bit-identical reruns")
