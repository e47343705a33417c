"""Desk-scale training: AdamW, warmup + cosine schedule, synthetic gratings.

Single-threaded and deterministic per seed: data order, drop-path draws and
parameter updates all derive from the config seed, so two runs with equal
configs produce bit-identical loss curves.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .analysis import atomic_open
from .checkpoint import save_checkpoint
from .model import GswinModel
from .tensor import Parameter, Tensor, backward, no_grad


@dataclass
class TrainConfig:
    lr: float = 1e-3
    weight_decay: float = 0.05
    warmup_steps: int = 100
    total_steps: int = 2000
    batch_size: int = 16
    label_smoothing: float = 0.1
    seed: int = 0
    eval_every: int = 100

    def __post_init__(self):
        if self.warmup_steps < 0:
            raise ValueError(f"warmup_steps must be >= 0, got {self.warmup_steps}")
        if self.warmup_steps > self.total_steps:
            raise ValueError(f"warmup {self.warmup_steps} exceeds total {self.total_steps}")
        for key in ("lr", "weight_decay", "label_smoothing"):
            value = getattr(self, key)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{key} must be finite and >= 0, got {value}")
        if self.label_smoothing > 1:
            raise ValueError(f"label_smoothing must lie in [0, 1], got {self.label_smoothing}")
        if self.total_steps < 1 or self.batch_size < 1 or self.eval_every < 1:
            raise ValueError("steps, batch size and eval interval must be >= 1")


def lr_at(step: int, config: TrainConfig) -> float:
    """Linear 0 -> lr over warmup, then half-cosine lr -> 0 at total_steps."""
    if not 0 <= step <= config.total_steps:
        raise ValueError(f"step {step} outside [0, {config.total_steps}]")
    if config.warmup_steps and step <= config.warmup_steps:
        return config.lr * step / config.warmup_steps
    tau = (step - config.warmup_steps) / (config.total_steps - config.warmup_steps)
    return config.lr * 0.5 * (1.0 + math.cos(math.pi * tau))


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Values per AdamW block: the block's parameter, gradient, moments and
# temporaries (about 7 x 256 KB) stay in L2 while it is updated.
ADAM_BLOCK = 1 << 15
EVAL_BATCH = 64  # images per no-grad forward in ``evaluate``


def adamw_step(params: list[Parameter], grads: list[np.ndarray],
               state: dict[str, dict[str, np.ndarray]], t: int, config: TrainConfig,
               decay_mask: list[bool]) -> dict:
    """One decoupled-weight-decay Adam update at step ``t`` (1-based).

    Decay multiplies parameters by (1 - lr_t * wd) before the moment update;
    ``decay_mask`` lets the caller exempt parameters (biases, norms, gating
    tables) per the usual convention. State is keyed by parameter name and
    created on first use.
    """
    if len(params) != len(grads):
        raise ValueError("params and grads differ in length")
    if len(decay_mask) != len(params):
        raise ValueError(f"decay_mask has {len(decay_mask)} entries for {len(params)} params")
    lr_t = lr_at(min(t, config.total_steps), config)
    b1c = 1.0 - ADAM_BETA1 ** t
    b2c = 1.0 - ADAM_BETA2 ** t
    for p, g, decay in zip(params, grads, decay_mask):
        if g.shape != p.shape:
            raise ValueError(f"{p.name}: gradient shape {g.shape} != param shape {p.shape}")
        if p.name not in state:
            state[p.name] = {"m": np.zeros(p.shape, p.data.dtype),
                             "v": np.zeros(p.shape, p.data.dtype)}
        if not p.data.flags.c_contiguous:
            p.data = np.ascontiguousarray(p.data)
        # Flat views, so the blocks below update the arrays themselves.
        pf, gf = p.data.reshape(-1), np.ascontiguousarray(g).reshape(-1)
        mf, vf = state[p.name]["m"].reshape(-1), state[p.name]["v"].reshape(-1)
        decay_f = 1.0 - lr_t * config.weight_decay if decay and config.weight_decay else None
        for lo in range(0, pf.size, ADAM_BLOCK):
            s = slice(lo, lo + ADAM_BLOCK)
            pb, gb, m, v = pf[s], gf[s], mf[s], vf[s]
            if decay_f is not None:
                pb *= decay_f
            # In place, in the order of the textbook form, so each value rounds
            # as in p -= lr_t * (m / b1c) / (sqrt(v / b2c) + eps).
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * gb
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (gb * gb)
            step = m / b1c
            step *= lr_t
            step /= np.sqrt(v / b2c) + ADAM_EPS
            pb -= step
    return state


def default_decay_mask(params: list[Parameter]) -> list[bool]:
    """Decay 2-d+ projection weights; spare biases, norms and gating tables."""
    return [p.ndim >= 2 and not p.name.endswith((".b_win", ".rel_table"))
            for p in params]


def cross_entropy(logits: Tensor, labels: np.ndarray, smoothing: float = 0.0) -> Tensor:
    """Mean label-smoothed cross-entropy over a batch of logits (B, n).

    Records one node. The forward and the vjp run the operations of the
    elementwise chain -(log_softmax(logits) * q).sum(axis=1), summed in sorted
    order and scaled by 1/B, in that chain's order, so each value rounds as the
    chain's would.
    """
    B, n = logits.shape
    if labels.shape != (B,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {B}")
    shifted = logits.data + (-logits.data.max(axis=1, keepdims=True))
    e = np.exp(shifted)
    se = e.sum(axis=1, keepdims=True)
    logp = shifted + (-np.log(se))
    q = np.full((B, n), smoothing / n)
    q[np.arange(B), labels] += 1.0 - smoothing
    nll = -(logp * q).sum(axis=1)
    # Sum the per-sample losses in sorted order, so the batch loss does not
    # depend on the order of the samples in the batch.
    loss = nll[np.argsort(nll, kind="stable")].sum() * (1.0 / B)

    def vjp(g):
        dlogp = -(g * (1.0 / B)) * q
        return (dlogp + e * (-dlogp.sum(axis=1, keepdims=True) / se),)

    return Tensor._result(loss, (logits,), vjp)


class SyntheticTask:
    """Oriented-gratings classification, generated deterministically per seed.

    Class c is a sinusoidal grating at angle c * pi / classes; each sample
    gets a random phase, a small frequency jitter and additive pixel noise.
    Train and eval draws come from one stream in order, so the splits are
    disjoint by construction.
    """

    def __init__(self, classes: int = 10, image_size: int = 32, train_size: int = 512,
                 eval_size: int = 256, noise: float = 0.25, frequency: float = 4.0,
                 seed: int = 0):
        if train_size < 1 or eval_size < 1 or classes < 2:
            raise ValueError("need at least one sample per split and two classes")
        for key, value in (("noise", noise), ("frequency", frequency)):
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
        self.classes = classes
        self.image_size = image_size
        self.noise = noise
        self.frequency = frequency
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.train_x, self.train_y = self._draw(rng, train_size)
        self.eval_x, self.eval_y = self._draw(rng, eval_size)

    def _draw(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        size = self.image_size
        u = np.arange(size) / size
        yy, xx = np.meshgrid(u, u, indexing="ij")
        labels = np.arange(n) % self.classes
        images = np.empty((n, size, size, 3))
        for i in range(n):
            theta = math.pi * labels[i] / self.classes
            freq = self.frequency * (1.0 + 0.1 * rng.standard_normal())
            phase = rng.uniform(0, 2 * math.pi)
            wave = np.sin(2 * math.pi * freq * (xx * math.cos(theta) + yy * math.sin(theta))
                          + phase)
            images[i] = wave[:, :, None] + self.noise * rng.standard_normal((size, size, 3))
        return images, labels


@dataclass
class TrainHistory:
    losses: list[float]  # one per step, from step 1
    eval_steps: list[int]
    eval_accs: list[float]

    @property
    def final_eval_acc(self) -> float:
        return self.eval_accs[-1]


def evaluate(model: GswinModel, images: np.ndarray, labels: np.ndarray) -> float:
    correct = 0
    with no_grad():
        for i in range(0, len(images), EVAL_BATCH):
            logits = model.forward(Tensor(images[i:i + EVAL_BATCH]))
            correct += int((logits.data.argmax(axis=1) == labels[i:i + EVAL_BATCH]).sum())
    return correct / len(images)


def train(model: GswinModel, task: SyntheticTask, config: TrainConfig,
          out_dir: str | Path | None = None,
          on_eval: Callable[[int, float, float, float], None] | None = None) -> TrainHistory:
    """Run the loop; returns per-step losses and periodic eval accuracies.

    With ``out_dir`` set, creates it before the first step and writes
    metrics.csv (step, lr, train_loss, eval_acc) and a final checkpoint into
    it at the end. ``on_eval`` is invoked after each evaluation with
    (step, lr, train_loss, eval_acc). Raises ``RuntimeError`` on a non-finite
    loss, or on a non-finite gradient, naming the first such parameter; both
    stop the run before the update.
    """
    if model.config.num_classes != task.classes:
        raise ValueError(f"model has {model.config.num_classes} classes, "
                         f"task has {task.classes}")
    n_train = len(task.train_x)
    if config.batch_size > n_train:
        raise ValueError(f"batch_size {config.batch_size} exceeds train_size {n_train}")
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
    params = model.parameters()
    mask = default_decay_mask(params)
    state: dict = {}
    order_rng = np.random.default_rng(config.seed)
    branch_rng = np.random.default_rng(config.seed + 1)
    history = TrainHistory([], [], [])
    queue: list[int] = []

    for t in range(1, config.total_steps + 1):
        while len(queue) < config.batch_size:
            queue.extend(order_rng.permutation(n_train).tolist())
        idx = np.array(queue[:config.batch_size])
        del queue[:config.batch_size]

        model.zero_grads()
        logits = model.forward(Tensor(task.train_x[idx]), training=True, rng=branch_rng)
        loss = cross_entropy(logits, task.train_y[idx], smoothing=config.label_smoothing)
        loss_v = float(loss.data)
        if not np.isfinite(loss_v):
            raise RuntimeError(f"loss diverged at step {t}: {loss_v}")
        backward(loss)
        # Free this step's graph now, so the next forward does not build its
        # own while this one is still alive.
        del logits, loss
        grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
        for p, g in zip(params, grads):
            # Any NaN or inf reaches g.g, a fast BLAS pass; the elementwise
            # scan only tells an overflow of finite squares apart.
            if not math.isfinite(np.vdot(g, g)) and not np.isfinite(g).all():
                raise RuntimeError(f"non-finite gradient at step {t} in {p.name}")
        adamw_step(params, grads, state, t, config, decay_mask=mask)
        # Drop the list and the loop's last gradient; ``zero_grads`` at the top
        # of the loop (or after it) drops the rest, so no gradient of this step
        # lives through the next step's forward and backward, or past the run.
        del grads, g

        history.losses.append(loss_v)
        if t % config.eval_every == 0 or t == config.total_steps:
            acc = evaluate(model, task.eval_x, task.eval_y)
            history.eval_steps.append(t)
            history.eval_accs.append(acc)
            if on_eval is not None:
                on_eval(t, lr_at(t, config), loss_v, acc)
    model.zero_grads()

    if out_dir is not None:
        eval_at = dict(zip(history.eval_steps, history.eval_accs))
        with atomic_open(out / "metrics.csv", "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["step", "lr", "train_loss", "eval_acc"])
            for step, loss_v in enumerate(history.losses, start=1):
                acc = eval_at.get(step, "")
                writer.writerow([step, f"{lr_at(step, config):.8g}", f"{loss_v:.8g}",
                                 f"{acc:.6g}" if acc != "" else ""])
        save_checkpoint(out / "final.ckpt", model)
    return history
