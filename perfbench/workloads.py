"""The benchmark's three workloads, driven only through gswin's public API.

Each workload has a ``setup(seed)`` (model build, input or task generation,
warmup) and an ``episode(state, probe, workdir)``: a fixed amount of work,
run as a closed loop, whose wall time is ``run_s``. An episode returns the
per-operation outcome so failures are counted against attempts. The sizes
are fields so the benchmark's tests can run the same code at a tiny length.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import gswin.checkpoint as gckpt
import gswin.train as gtrain
from gswin.model import PRESETS, GswinModel, ModelConfig
from gswin.tensor import Tensor, no_grad

# The criterion-7 recipe of tests/test_acceptance.py: its model, its pinned
# first-10 mean loss and the window that criterion allows around it.
SMOKE_CONFIG = ModelConfig(base_channels=16, depths=(2, 2, 2, 2), heads=4,
                           window=(4, 4), num_classes=10, image_size=32)
SMOKE_EARLY_LOSS = 2.305239
SMOKE_EARLY_WINDOW = 0.05
GRATING_CLASSES = 10
# The model is part of the program, so every workload initialises it with
# criterion 7's seed. The workload seed makes the inputs of t224-eval and
# vt224-train: images, batch order, drop-path draws. smoke-train keeps
# criterion 7's own inputs: its first-10 mean loss spreads over about
# 2.27-2.36 across task seeds, wider than the window the fixture allows.
CRITERION7_SEED = 0


@dataclass
class Episode:
    """Outcome of one episode: step times, images processed and failures."""

    wall_s: float
    step_s: list[float]
    images: int
    attempted: int
    failed: int
    losses: list[float] = field(default_factory=list)


def _warm(model: GswinModel, images: np.ndarray, labels: np.ndarray, seed: int):
    """One training-mode forward, loss and backward; parameters are untouched.

    Returns the loss, whose recorded graph stays reachable from it.
    """
    logits = model.forward(Tensor(images), training=True,
                           rng=np.random.default_rng(seed))
    loss = gtrain.cross_entropy(logits, labels, smoothing=0.1)
    gtrain.backward(loss)
    model.zero_grads()
    return loss


def _roundtrip_exact(model: GswinModel, path: Path) -> bool:
    """Save, load, and compare every parameter with its float32 value."""
    gckpt.save_checkpoint(path, model)
    arrays = gckpt.load_checkpoint(path)
    return (set(arrays) == {p.name for p in model.parameters()}
            and all(np.array_equal(arrays[p.name], p.data.astype(np.float32))
                    for p in model.parameters()))


@dataclass
class SmokeTrain:
    """Criterion 7 at bench length, through ``gswin.train.train``."""

    config: ModelConfig = SMOKE_CONFIG
    steps: int = 120
    eval_every: int = 60
    batch_size: int = 16
    train_size: int = 512
    eval_size: int = 256
    lr: float = 1e-3

    def setup(self, seed: int) -> dict:
        """Criterion 7's task and model; the workload seed is not used (see CRITERION7_SEED)."""
        t0 = perf_counter()
        task = gtrain.SyntheticTask(classes=GRATING_CLASSES, image_size=self.config.image_size,
                                    train_size=self.train_size, eval_size=self.eval_size,
                                    seed=CRITERION7_SEED)
        task_s = perf_counter() - t0
        model = GswinModel(self.config, seed=CRITERION7_SEED)
        B = self.batch_size
        _warm(model, task.train_x[:B], task.train_y[:B], CRITERION7_SEED)
        return {"task": task, "task_s": task_s, "model": model, "ref_losses": None}

    def fresh_model(self, state: dict) -> GswinModel:
        """Every episode trains from the same initial weights, so reruns must agree."""
        if state["model"] is None:
            state["model"] = GswinModel(self.config, seed=CRITERION7_SEED)
        model, state["model"] = state["model"], None
        return model

    def episode(self, state: dict, probe, workdir: Path, model: GswinModel) -> Episode:
        tc = gtrain.TrainConfig(lr=self.lr, total_steps=self.steps,
                                warmup_steps=min(100, self.steps),
                                eval_every=self.eval_every, batch_size=self.batch_size,
                                seed=CRITERION7_SEED)
        t0 = perf_counter()
        try:
            history = gtrain.train(model, state["task"], tc, out_dir=workdir)
        except RuntimeError:  # train() stops on a non-finite loss
            wall = perf_counter() - t0
            attempted = min(len(probe.step_s) + 1, self.steps)  # + the step that raised
            return Episode(wall, list(probe.step_s), attempted * self.batch_size,
                           attempted, 1)
        wall = perf_counter() - t0

        losses = history.losses
        bad: set[int] = set()
        early = float(np.mean(losses[:10]))
        if not abs(early - SMOKE_EARLY_LOSS) <= SMOKE_EARLY_WINDOW:
            bad.update(range(min(10, len(losses))))
        ref = state["ref_losses"]
        if ref is None:
            state["ref_losses"] = losses
        else:
            bad.update(i for i, (a, b) in enumerate(zip(losses, ref)) if a != b)
        if not self._artifacts_ok(workdir, model):
            bad.add(len(losses) - 1)
        return Episode(wall, list(probe.step_s), self.steps * self.batch_size,
                       self.steps, len(bad), losses)

    def _artifacts_ok(self, workdir: Path, model: GswinModel) -> bool:
        with open(workdir / "metrics.csv", newline="") as f:
            rows = list(csv.reader(f))
        if len(rows) != self.steps + 1:
            return False
        arrays = gckpt.load_checkpoint(workdir / "final.ckpt")
        return all(np.array_equal(arrays[p.name], p.data.astype(np.float32))
                   for p in model.parameters())


@dataclass
class EvalForward:
    """``gswin-t`` eval forwards under ``no_grad``: B=1 at 224 px."""

    config: ModelConfig = PRESETS["gswin-t"]
    batch_size: int = 1
    forwards: int = 4
    warmup: int = 2

    def setup(self, seed: int) -> dict:
        model = GswinModel(self.config, seed=CRITERION7_SEED)
        # Gates start as the identity; give them the non-zero mixing weights of a
        # trained model, so the oracle check in the traced run compares real mixing.
        rng = np.random.default_rng(CRITERION7_SEED)
        for blocks in model.stages:
            for blk in blocks:
                for p in (blk.sgu.w_win, blk.sgu.rel_table):
                    if p is not None:
                        p.data[...] = 0.02 * rng.standard_normal(p.shape)
        t0 = perf_counter()
        size = self.config.image_size
        images = np.random.default_rng(seed).standard_normal((self.batch_size, size, size, 3))
        task_s = perf_counter() - t0
        with no_grad():
            for _ in range(self.warmup):
                model.forward(Tensor(images))
        return {"model": model, "images": images, "task_s": task_s, "ref_logits": None}

    def fresh_model(self, state: dict) -> GswinModel:
        return state["model"]

    def episode(self, state: dict, probe, workdir: Path, model: GswinModel) -> Episode:
        failed = 0
        t0 = perf_counter()
        for _ in range(self.forwards):
            x = Tensor(state["images"])
            probe.begin_step()
            with no_grad():
                logits = model.forward(x).data
            probe.end_step()
            ref = state["ref_logits"]
            if ref is None:
                state["ref_logits"] = ref = logits
            if not (np.all(np.isfinite(logits)) and np.array_equal(logits, ref)):
                failed += 1
        wall = perf_counter() - t0
        return Episode(wall, list(probe.step_s), self.forwards * self.batch_size,
                       self.forwards, failed)


@dataclass
class TrainStep:
    """``gswin-vt`` training steps on gratings, then a checkpoint round trip."""

    config: ModelConfig = PRESETS["gswin-vt"]
    batch_size: int = 2
    steps: int = 2
    train_size: int = 8

    def setup(self, seed: int) -> dict:
        t0 = perf_counter()
        task = gtrain.SyntheticTask(classes=GRATING_CLASSES, image_size=self.config.image_size,
                                    train_size=self.train_size, eval_size=1, seed=seed)
        task_s = perf_counter() - t0
        model = GswinModel(self.config, seed=CRITERION7_SEED)
        B = self.batch_size
        # Two passes, the second while the first graph is still alive: the
        # process then holds the memory of the timed steps before they start.
        loss = _warm(model, task.train_x[:B], task.train_y[:B], seed)
        loss = _warm(model, task.train_x[:B], task.train_y[:B], seed)
        params = model.parameters()
        return {"task": task, "task_s": task_s, "model": model, "loss": loss,
                "params": params, "mask": gtrain.default_decay_mask(params),
                "adam": {}, "t": 0, "order_rng": np.random.default_rng(seed),
                "branch_rng": np.random.default_rng(seed + 1),
                "train_config": gtrain.TrainConfig(total_steps=1_000_000, seed=seed)}

    def fresh_model(self, state: dict) -> GswinModel:
        return state["model"]

    def episode(self, state: dict, probe, workdir: Path, model: GswinModel) -> Episode:
        task, params, B = state["task"], state["params"], self.batch_size
        losses: list[float] = []
        failed = 0
        t0 = perf_counter()
        for _ in range(self.steps):
            idx = state["order_rng"].choice(len(task.train_x), size=B, replace=False)
            logits = model.forward(Tensor(task.train_x[idx]), training=True,
                                   rng=state["branch_rng"])
            loss = gtrain.cross_entropy(logits, task.train_y[idx], smoothing=0.1)
            # The previous step's graph lives until here, as in gswin.train.train,
            # so every timed step (the first of an episode too) sees the same memory.
            state["loss"] = loss
            model.zero_grads()
            gtrain.backward(loss)
            grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
            state["t"] += 1
            gtrain.adamw_step(params, grads, state["adam"], state["t"], state["train_config"],
                              decay_mask=state["mask"])
            losses.append(float(loss.data))
            if not math.isfinite(losses[-1]):
                failed += 1
        failed += not _roundtrip_exact(model, workdir / "roundtrip.ckpt")
        wall = perf_counter() - t0
        return Episode(wall, list(probe.step_s), self.steps * B, self.steps + 1, failed,
                       losses)


WORKLOADS = {
    "smoke-train": SmokeTrain,
    "t224-eval": EvalForward,
    "vt224-train": TrainStep,
}


def tiny(name: str):
    """The same workload at a size that runs in about a second, for tests."""
    micro = replace(SMOKE_CONFIG, base_channels=8, depths=(1, 2, 1, 1), heads=2)
    if name == "smoke-train":
        # A short warmup climbs fast; the small rate keeps the first losses
        # where criterion 7's 100-step warmup keeps them, and the full batch
        # keeps their mean inside that criterion's window.
        return SmokeTrain(config=micro, steps=4, eval_every=2, train_size=64,
                          eval_size=4, lr=1e-5)
    if name == "t224-eval":
        return EvalForward(config=micro, batch_size=2, forwards=2, warmup=1)
    return TrainStep(config=replace(micro, drop_path_rate=0.25), steps=2)
