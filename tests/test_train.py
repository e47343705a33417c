"""Optimizer, schedule, loss, synthetic task, and loop determinism."""
import csv
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

import gswin.train as gtrain
from gswin.gradcheck import check_gradients, op_gradcheck_suite
from gswin.model import GswinModel, ModelConfig
from gswin.tensor import Parameter, Tensor, _Node, _topo_order, backward, layer_norm
from gswin.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_BLOCK,
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


def test_lr_schedule_all_warmup():
    # warmup_steps == total_steps: every step, the last included, is on the ramp
    cfg = TrainConfig(lr=0.01, warmup_steps=8, total_steps=8)
    assert [lr_at(t, cfg) for t in range(9)] == [0.01 * t / 8 for t in range(9)]


def test_lr_out_of_range():
    cfg = TrainConfig(total_steps=10, warmup_steps=0)
    with pytest.raises(ValueError):
        lr_at(11, cfg)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(warmup_steps=11, total_steps=10)
    with pytest.raises(ValueError, match="warmup_steps must be >= 0, got -5"):
        TrainConfig(warmup_steps=-5, total_steps=10)  # would start the cosine part-way
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
    adamw_step([p], [np.zeros(3)], {}, 1, flat_lr_config(wd=0.0), decay_mask=[True])
    assert (p.data == before).all()


def test_adamw_constant_gradient_reaches_sign_step():
    cfg = flat_lr_config(lr=0.01)
    p = Parameter(np.array([5.0, -5.0]), "p")
    g = np.array([0.3, -0.7])
    state = {}
    for t in range(1, 200):
        prev = p.data.copy()
        adamw_step([p], [g], state, t, cfg, decay_mask=[True])
    step = prev - p.data
    assert np.allclose(step, 0.01 * np.sign(g), rtol=1e-6)


def test_adamw_three_step_scalar_recurrence():
    cfg = flat_lr_config(lr=0.1, wd=0.04)
    p = Parameter(np.array([2.0]), "p")
    grads = [np.array([0.5]), np.array([-0.25]), np.array([1.0])]
    state = {}
    for t, g in enumerate(grads, start=1):
        adamw_step([p], [g], state, t, cfg, decay_mask=[True])

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
    # the last parameter spans 2.5 update blocks and gets a transposed gradient
    shapes = [(3, 4), (4,), (2, 2, 3), (5, ADAM_BLOCK // 2)]
    mask = [True, False, True, True]
    params = [Parameter(rng.standard_normal(s), f"p{i}") for i, s in enumerate(shapes)]
    ref = [p.data.copy() for p in params]
    ref_m = [np.zeros(s) for s in shapes]
    ref_v = [np.zeros(s) for s in shapes]
    state = {}
    for t in range(1, 6):
        grads = [rng.standard_normal(s) for s in shapes[:-1]]
        grads.append(rng.standard_normal(shapes[-1][::-1]).T)
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
        adamw_step([p], [np.zeros(4)], {}, 1, flat_lr_config(), decay_mask=[True])


@pytest.mark.parametrize("make, match", [
    (lambda: layer_norm(Tensor(np.zeros((2, 0))), Tensor(np.ones(0)), Tensor(np.zeros(0))),
     "non-empty channel axis"),
    (lambda: adamw_step([Parameter(np.zeros(3), "p")], [], {}, 1, flat_lr_config(),
                        decay_mask=[True]),
     "params and grads differ in length"),
    (lambda: adamw_step([Parameter(np.zeros(3), "p"), Parameter(np.zeros(2), "q")],
                        [np.ones(3), np.ones(2)], {}, 1, flat_lr_config(), decay_mask=[True]),
     "decay_mask has 1 entries for 2 params"),
    (lambda: micro_task(classes=1), "two classes"),
])
def test_engine_and_training_reject_degenerate_inputs(make, match):
    with pytest.raises(ValueError, match=match):
        make()


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


def test_cross_entropy_records_one_node_over_the_logits():
    w = Parameter(np.random.default_rng(3).standard_normal((4, 5)), "w")
    logits = Tensor(np.ones((3, 4))) @ w
    loss = cross_entropy(logits, np.array([1, 4, 0]), smoothing=0.1)
    assert loss._node.parents == (logits._node,)
    assert [n for n in _topo_order(loss._node) if isinstance(n, _Node)] == [
        logits._node, loss._node]


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


def test_train_single_step_moves_gradient_bearing_params(monkeypatch):
    model = GswinModel(MICRO, seed=0)
    before = {p.name: p.data.copy() for p in model.parameters()}
    task = micro_task()
    bearing: list[set[str]] = []
    real_adamw = gtrain.adamw_step

    def adamw(params, grads, *args, **kwargs):
        bearing.append({p.name for p, g in zip(params, grads) if np.abs(g).max() > 0})
        return real_adamw(params, grads, *args, **kwargs)

    monkeypatch.setattr(gtrain, "adamw_step", adamw)
    # warmup peak at step 1 keeps the schedule nonzero for the single update
    cfg = TrainConfig(lr=1e-3, warmup_steps=1, total_steps=2, batch_size=4,
                      eval_every=1, seed=0)
    train(model, task, cfg)
    assert len(bearing) == 2 and bearing[-1]
    for name in bearing[-1]:
        assert (model.param(name).data != before[name]).any(), name


def test_train_releases_the_last_step_gradients():
    model = GswinModel(MICRO, seed=0)
    cfg = TrainConfig(total_steps=2, warmup_steps=0, batch_size=4, eval_every=1000)
    train(model, micro_task(eval_size=4), cfg)
    assert all(p.grad is None for p in model.parameters())


def test_train_seeded_runs_bit_identical():
    task = micro_task()
    cfg = TrainConfig(lr=1e-3, warmup_steps=2, total_steps=8, batch_size=4,
                      eval_every=4, seed=3)
    h1 = train(GswinModel(MICRO, seed=1), task, cfg)
    h2 = train(GswinModel(MICRO, seed=1), task, cfg)
    assert h1.losses == h2.losses
    assert h1.eval_accs == h2.eval_accs


def test_train_frees_each_step_graph_before_the_next():
    # with one graph alive at a time, three steps peak near one step; keeping
    # the previous graph through the next forward costs about 1.65x
    def traced_peak(steps):
        model = GswinModel(MICRO, seed=0)
        cfg = TrainConfig(total_steps=steps, warmup_steps=0, batch_size=16, eval_every=1000)
        task = micro_task(eval_size=4)
        tracemalloc.start()
        try:
            train(model, task, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, three = traced_peak(1), traced_peak(3)
    assert three <= 1.5 * one, (one, three)


def test_train_frees_each_step_gradients_before_the_next_forward(monkeypatch):
    model = GswinModel(MICRO, seed=0)
    sent: list[weakref.ref] = []
    alive_at_forward: list[int] = []
    real_adamw, real_forward = gtrain.adamw_step, model.forward

    def adamw(params, grads, *args, **kwargs):
        sent.extend(weakref.ref(g) for g in grads)
        return real_adamw(params, grads, *args, **kwargs)

    def forward(images, training=False, rng=None):
        if training:
            alive_at_forward.append(sum(ref() is not None for ref in sent))
        return real_forward(images, training=training, rng=rng)

    monkeypatch.setattr(gtrain, "adamw_step", adamw)
    monkeypatch.setattr(model, "forward", forward)
    cfg = TrainConfig(total_steps=3, warmup_steps=0, batch_size=4, eval_every=1000)
    train(model, micro_task(eval_size=4), cfg)
    assert len(sent) == 3 * len(model.parameters())
    assert alive_at_forward == [0, 0, 0]


def test_train_aborts_on_divergence():
    model = GswinModel(MICRO, seed=0)
    model.param("head.fc.w").data[:] = 1e308
    cfg = TrainConfig(lr=1e-3, warmup_steps=0, total_steps=2, batch_size=4,
                      eval_every=2, seed=0)
    # the head's 1e308 weights overflow the logits to +-inf, and their sums give NaN
    with pytest.raises(RuntimeError, match="diverged"), \
            pytest.warns(RuntimeWarning, match="overflow"), \
            pytest.warns(RuntimeWarning, match="invalid value"):
        train(model, micro_task(), cfg)


def test_train_stops_on_non_finite_gradient_naming_the_first(monkeypatch):
    model = GswinModel(MICRO, seed=0)
    first, later = "stages.1.blocks.0.proj_in.w", "head.fc.w"
    real_backward = gtrain.backward

    def planted(loss):
        real_backward(loss)
        model.param(later).grad.flat[0] = np.nan
        model.param(first).grad.flat[-1] = np.inf

    monkeypatch.setattr(gtrain, "backward", planted)
    before = {p.name: p.data.copy() for p in model.parameters()}
    cfg = TrainConfig(lr=1e-3, warmup_steps=0, total_steps=2, batch_size=4, eval_every=2)
    with pytest.raises(RuntimeError, match=f"step 1 in {re.escape(first)}$"):
        train(model, micro_task(), cfg)
    assert all(np.array_equal(p.data, before[p.name]) for p in model.parameters())


def test_metrics_write_that_fails_keeps_the_previous_file(tmp_path, monkeypatch):
    cfg = TrainConfig(lr=1e-3, warmup_steps=1, total_steps=4, batch_size=4, eval_every=2)
    train(GswinModel(MICRO, seed=0), micro_task(), cfg, out_dir=tmp_path)
    old = (tmp_path / "metrics.csv").read_bytes()
    real_writer = csv.writer

    class Failing:
        def __init__(self, f):
            self.inner, self.rows = real_writer(f), 0

        def writerow(self, row):
            if self.rows == 2:
                raise OSError("disk full")
            self.rows += 1
            self.inner.writerow(row)

    monkeypatch.setattr(gtrain.csv, "writer", Failing)
    with pytest.raises(OSError, match="disk full"):
        train(GswinModel(MICRO, seed=1), micro_task(), cfg, out_dir=tmp_path)
    assert (tmp_path / "metrics.csv").read_bytes() == old
    assert sorted(f.name for f in tmp_path.iterdir()) == ["final.ckpt", "metrics.csv"]


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


def test_train_out_dir_that_is_a_file_fails_before_the_first_forward(tmp_path, monkeypatch):
    model = GswinModel(MICRO, seed=0)
    forwards = []
    monkeypatch.setattr(model, "forward", lambda *a, **kw: forwards.append(1))
    taken = tmp_path / "run"
    taken.write_text("not a directory")
    with pytest.raises(OSError):
        train(model, micro_task(), TrainConfig(total_steps=2, warmup_steps=0, batch_size=4),
              out_dir=taken)
    assert forwards == []


def test_train_rejects_class_mismatch():
    model = GswinModel(MICRO, seed=0)
    with pytest.raises(ValueError):
        train(model, micro_task(classes=6, train_size=12, eval_size=6),
              TrainConfig(total_steps=1, warmup_steps=0))


def test_train_rejects_a_batch_larger_than_the_training_split():
    model = GswinModel(MICRO, seed=0)
    with pytest.raises(ValueError, match="batch_size 64 exceeds train_size 32"):
        train(model, micro_task(), TrainConfig(total_steps=1, warmup_steps=0, batch_size=64))


@pytest.fixture(scope="module")
def criterion7_step_vjps():
    """The vjp names of the nodes of the criterion-7 recipe's first training step."""
    graphs = []

    def capture(loss):
        graphs.append([n.vjp.__qualname__ for n in _topo_order(loss._node)
                       if isinstance(n, _Node)])
        backward(loss)

    model = GswinModel(ModelConfig(base_channels=16, depths=(2, 2, 2, 2), heads=4,
                                   window=(4, 4), num_classes=10, image_size=32), seed=0)
    task = SyntheticTask(classes=10, image_size=32, train_size=512, eval_size=16, seed=0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gtrain, "backward", capture)
        train(model, task, TrainConfig(total_steps=1, warmup_steps=0, seed=0))
    return graphs[0]


def test_criterion7_step_records_85_nodes(criterion7_step_vjps):
    # one node per gating layer, per merge's patch fold and for the loss; the
    # relative-offset tables and the loss chain add none of their own
    assert len(criterion7_step_vjps) == 85


def test_engine_keeps_only_what_the_model_records(criterion7_step_vjps):
    # the op that recorded a node is the function its vjp was defined in
    recorded = {name.split(".<locals>")[0].rsplit(".", 1)[-1].strip("_")
                for name in criterion7_step_vjps}
    suite = {name for name, _ in op_gradcheck_suite(seed=0)}
    assert suite == recorded, (suite - recorded, recorded - suite)


def test_evaluate_counts_correct_argmax():
    model = GswinModel(MICRO, seed=0)
    task = micro_task()
    acc = evaluate(model, task.eval_x, task.eval_y)
    assert 0.0 <= acc <= 1.0
