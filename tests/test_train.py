"""Optimizer, schedule, loss, synthetic task, and loop determinism."""
import math

import numpy as np
import pytest

from gswin.gradcheck import check_gradients
from gswin.model import GswinModel, ModelConfig
from gswin.tensor import Parameter, Tensor
from gswin.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    TrainConfig,
    SyntheticTask,
    adamw_step,
    cross_entropy,
    default_decay_mask,
    evaluate,
    lr_at,
    train,
)

MICRO = ModelConfig(base_channels=8, depths=(1, 1, 1, 1), heads=2, window=(4, 4),
                    num_classes=4, image_size=32)


def micro_task(**kw):
    args = dict(classes=4, image_size=32, train_size=32, eval_size=16, seed=0)
    args.update(kw)
    return SyntheticTask(**args)


# -- schedule ------------------------------------------------------------


def test_lr_schedule_endpoints():
    cfg = TrainConfig(lr=0.002, warmup_steps=100, total_steps=1000)
    assert lr_at(0, cfg) == 0.0
    assert lr_at(100, cfg) == pytest.approx(0.002)
    assert lr_at(1000, cfg) == pytest.approx(0.0, abs=1e-18)


def test_lr_schedule_cosine_closed_form():
    cfg = TrainConfig(lr=0.01, warmup_steps=200, total_steps=1200)
    for step in (300, 700, 1100):
        tau = (step - 200) / 1000
        assert lr_at(step, cfg) == pytest.approx(0.01 * (1 + math.cos(math.pi * tau)) / 2)


def test_lr_schedule_linear_warmup():
    cfg = TrainConfig(lr=0.01, warmup_steps=50, total_steps=100)
    assert lr_at(25, cfg) == pytest.approx(0.005)


def test_lr_out_of_range():
    cfg = TrainConfig(total_steps=10, warmup_steps=0)
    with pytest.raises(ValueError):
        lr_at(11, cfg)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(warmup_steps=11, total_steps=10)
    with pytest.raises(ValueError):
        TrainConfig(lr=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)


# -- optimizer -----------------------------------------------------------


def flat_lr_config(lr=0.01, wd=0.0):
    # cosine over a huge horizon is flat to ~1e-15 for small step counts
    return TrainConfig(lr=lr, weight_decay=wd, warmup_steps=0, total_steps=10 ** 9)


def test_adamw_zero_grad_zero_decay_is_identity():
    p = Parameter(np.array([1.0, -2.0, 3.0]), "p")
    before = p.data.copy()
    adamw_step([p], [np.zeros(3)], {}, 1, flat_lr_config(wd=0.0))
    assert (p.data == before).all()


def test_adamw_constant_gradient_reaches_sign_step():
    cfg = flat_lr_config(lr=0.01)
    p = Parameter(np.array([5.0, -5.0]), "p")
    g = np.array([0.3, -0.7])
    state = {}
    for t in range(1, 200):
        prev = p.data.copy()
        adamw_step([p], [g], state, t, cfg)
    step = prev - p.data
    assert np.allclose(step, 0.01 * np.sign(g), rtol=1e-6)


def test_adamw_three_step_scalar_recurrence():
    cfg = flat_lr_config(lr=0.1, wd=0.04)
    p = Parameter(np.array([2.0]), "p")
    grads = [np.array([0.5]), np.array([-0.25]), np.array([1.0])]
    state = {}
    for t, g in enumerate(grads, start=1):
        adamw_step([p], [g], state, t, cfg)

    # independent reference recurrence
    x, m, v = 2.0, 0.0, 0.0
    for t, g in enumerate([0.5, -0.25, 1.0], start=1):
        x *= 1 - 0.1 * 0.04
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1 - 0.9 ** t)
        vhat = v / (1 - 0.999 ** t)
        x -= 0.1 * mhat / (math.sqrt(vhat) + 1e-8)
    assert p.data[0] == pytest.approx(x, rel=1e-12)


def test_adamw_updates_in_place_bit_identical_to_out_of_place_formula():
    rng = np.random.default_rng(5)
    cfg = TrainConfig(lr=0.05, weight_decay=0.1, warmup_steps=2, total_steps=10)
    shapes = [(3, 4), (4,), (2, 2, 3)]
    mask = [True, False, True]
    params = [Parameter(rng.standard_normal(s), f"p{i}") for i, s in enumerate(shapes)]
    ref = [p.data.copy() for p in params]
    ref_m = [np.zeros(s) for s in shapes]
    ref_v = [np.zeros(s) for s in shapes]
    state = {}
    for t in range(1, 6):
        grads = [rng.standard_normal(s) for s in shapes]
        sent = [g.copy() for g in grads]
        adamw_step(params, grads, state, t, cfg, decay_mask=mask)
        if t == 1:
            moments = [state[p.name]["m"] for p in params]
        assert all(state[p.name]["m"] is m for p, m in zip(params, moments))
        lr_t = lr_at(t, cfg)
        for i, g in enumerate(sent):
            assert np.array_equal(grads[i], g)
            if mask[i]:
                ref[i] = ref[i] * (1.0 - lr_t * cfg.weight_decay)
            ref_m[i] = ADAM_BETA1 * ref_m[i] + (1.0 - ADAM_BETA1) * g
            ref_v[i] = ADAM_BETA2 * ref_v[i] + (1.0 - ADAM_BETA2) * (g * g)
            mhat = ref_m[i] / (1.0 - ADAM_BETA1 ** t)
            vhat = ref_v[i] / (1.0 - ADAM_BETA2 ** t)
            ref[i] = ref[i] - lr_t * mhat / (np.sqrt(vhat) + ADAM_EPS)
            assert np.array_equal(params[i].data, ref[i]), (t, i)


def test_adamw_shape_mismatch():
    p = Parameter(np.zeros(3), "p")
    with pytest.raises(ValueError):
        adamw_step([p], [np.zeros(4)], {}, 1, flat_lr_config())


def test_decay_mask_convention():
    m = GswinModel(MICRO)
    mask = dict(zip((p.name for p in m.parameters()), default_decay_mask(m.parameters())))
    assert mask["stages.0.blocks.0.proj_in.w"]
    assert mask["stages.0.blocks.0.sgu.w_win"]
    assert not mask["stages.0.blocks.0.sgu.b_win"]
    assert not mask["stages.0.blocks.0.sgu.rel_table"]
    assert not mask["stages.0.blocks.0.norm.gamma"]
    assert not mask["head.fc.b"]


# -- loss ----------------------------------------------------------------


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((4, 10)))
    loss = cross_entropy(logits, np.zeros(4, dtype=int))
    assert loss.data == pytest.approx(math.log(10))


def test_cross_entropy_matches_manual_log_softmax():
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((5, 7))
    labels = rng.integers(0, 7, size=5)
    loss = cross_entropy(Tensor(raw), labels).data
    logp = raw - np.log(np.exp(raw).sum(axis=1, keepdims=True))
    assert loss == pytest.approx(-logp[np.arange(5), labels].mean())


def test_cross_entropy_smoothing_mixes_targets():
    rng = np.random.default_rng(1)
    raw = rng.standard_normal((3, 4))
    labels = np.array([0, 1, 2])
    loss = cross_entropy(Tensor(raw), labels, smoothing=0.2).data
    logp = raw - np.log(np.exp(raw).sum(axis=1, keepdims=True))
    q = np.full((3, 4), 0.05)
    q[np.arange(3), labels] += 0.8
    assert loss == pytest.approx(-(q * logp).sum(axis=1).mean())


def test_cross_entropy_gradcheck():
    rng = np.random.default_rng(2)
    logits = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
    labels = np.array([1, 4, 0])
    check_gradients(lambda: cross_entropy(logits, labels, smoothing=0.1), [logits])


def test_cross_entropy_label_shape_error():
    with pytest.raises(ValueError):
        cross_entropy(Tensor(np.zeros((2, 3))), np.zeros((3,), dtype=int))


# -- synthetic task ------------------------------------------------------


def test_task_deterministic_per_seed():
    a, b = micro_task(), micro_task()
    assert (a.train_x == b.train_x).all()
    assert (a.eval_x == b.eval_x).all()
    c = micro_task(seed=9)
    assert (a.train_x != c.train_x).any()


def test_task_splits_disjoint_and_balanced():
    t = micro_task(train_size=40, eval_size=20)
    flat_train = t.train_x.reshape(40, -1)
    flat_eval = t.eval_x.reshape(20, -1)
    for e in flat_eval:
        assert not (flat_train == e).all(axis=1).any()
    counts = np.bincount(t.train_y, minlength=4)
    assert counts.max() - counts.min() <= 1
    assert t.train_y.max() < 4


def test_task_classes_differ_in_orientation():
    t = micro_task(noise=0.0, train_size=8)
    # same class, different phase -> different image; orientation dominates
    assert t.train_y[0] == t.train_y[4]
    assert (t.train_x[0] != t.train_x[4]).any()


# -- training loop ---------------------------------------------------------


def test_train_lr_zero_keeps_params_and_loss_constant():
    model = GswinModel(MICRO, seed=0)
    before = {p.name: p.data.copy() for p in model.parameters()}
    task = micro_task(train_size=8)  # one batch == whole split
    cfg = TrainConfig(lr=0.0, warmup_steps=0, total_steps=3, batch_size=8,
                      eval_every=3, seed=0)
    hist = train(model, task, cfg)
    assert len(set(f"{v:.17g}" for v in hist.losses)) == 1
    for p in model.parameters():
        assert (p.data == before[p.name]).all()


def test_train_single_step_moves_gradient_bearing_params():
    model = GswinModel(MICRO, seed=0)
    before = {p.name: p.data.copy() for p in model.parameters()}
    task = micro_task()
    # warmup peak at step 1 keeps the schedule nonzero for the single update
    cfg = TrainConfig(lr=1e-3, warmup_steps=1, total_steps=2, batch_size=4,
                      eval_every=1, seed=0)
    train(model, task, cfg)
    for p in model.parameters():
        if p.grad is not None and np.abs(p.grad).max() > 0:
            assert (p.data != before[p.name]).any(), p.name


def test_train_seeded_runs_bit_identical():
    task = micro_task()
    cfg = TrainConfig(lr=1e-3, warmup_steps=2, total_steps=8, batch_size=4,
                      eval_every=4, seed=3)
    h1 = train(GswinModel(MICRO, seed=1), task, cfg)
    h2 = train(GswinModel(MICRO, seed=1), task, cfg)
    assert h1.losses == h2.losses
    assert h1.eval_accs == h2.eval_accs


def test_train_aborts_on_divergence():
    model = GswinModel(MICRO, seed=0)
    model.param("head.fc.w").data[:] = 1e308
    cfg = TrainConfig(lr=1e-3, warmup_steps=0, total_steps=2, batch_size=4,
                      eval_every=2, seed=0)
    with pytest.raises(RuntimeError, match="diverged"):
        train(model, micro_task(), cfg)


def test_train_writes_metrics_and_checkpoint(tmp_path):
    model = GswinModel(MICRO, seed=0)
    cfg = TrainConfig(lr=1e-3, warmup_steps=1, total_steps=4, batch_size=4,
                      eval_every=2, seed=0)
    hist = train(model, micro_task(), cfg, out_dir=tmp_path)
    lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
    assert lines[0] == "step,lr,train_loss,eval_acc"
    assert len(lines) == 5
    assert lines[2].split(",")[3] != ""  # eval at step 2
    assert lines[1].split(",")[3] == ""  # no eval at step 1
    assert (tmp_path / "final.ckpt").exists()
    assert len(hist.eval_steps) == 2


def test_train_rejects_class_mismatch():
    model = GswinModel(MICRO, seed=0)
    with pytest.raises(ValueError):
        train(model, micro_task(classes=6, train_size=12, eval_size=6),
              TrainConfig(total_steps=1, warmup_steps=0))


def test_evaluate_counts_correct_argmax():
    model = GswinModel(MICRO, seed=0)
    task = micro_task()
    acc = evaluate(model, task.eval_x, task.eval_y)
    assert 0.0 <= acc <= 1.0
