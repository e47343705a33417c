"""Step timing and per-layer tracing of gswin, attached from outside the package.

Nothing in ``gswin`` is edited. A :class:`Probe` replaces names the package
looks up at call time and puts every one back on exit:

- step boundaries: the model instance's ``forward`` (a training-mode call
  starts a step) and ``gswin.train.adamw_step`` (its return ends the step).
  An eval-only workload marks its steps with ``begin_step``/``end_step``.
- layer spans (``layers=True``): the names ``gswin.model`` and ``gswin.sgu``
  import (``layer_norm``, ``gelu``, ``multi_head_window_sgu``,
  ``window_partition``, ``window_reverse``, ``materialize_relative_bias``),
  the ``forward`` of each block, merge and the patch embed, the loss,
  ``backward``, AdamW, ``evaluate`` and the checkpoint functions.
  ``Tensor.__matmul__`` and ``Tensor.__add__`` open a ``proj_in``/``proj_out``
  span when their right operand is that projection's ``Parameter``, so a
  projection's time covers its matmul and its bias add.
- backward time: every graph node is built by ``Tensor._result``; the probe
  wraps that constructor so each node's vjp is timed and charged to the
  spans that were open when the node was created.

Each SGU call is also checked against ``zero_padding_shift_oracle``; the
oracle's time is taken off the probe's clock, so no span or step counts it.
"""
from __future__ import annotations

import re
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import gswin.checkpoint as gckpt
import gswin.model as gmodel
import gswin.sgu as gsgu
import gswin.train as gtrain
from gswin.analysis import count_flops
from gswin.tensor import Parameter, Tensor

ORACLE_TOL = 1e-12
_PROJ = re.compile(r"stages\.(\d+)\.blocks\.\d+\.(proj_in|proj_out)\.[wb]$")
_MISSING = object()


# Layers timed forward and backward, for the four stages every model has;
# each gives <layer>.fwd_ms and <layer>.bwd_ms (units are in BENCHMARK.json).
LAYERS = (["model.patch_embed"]
          + [f"model.stage{s}.{part}" for s in range(4)
             for part in ("norm", "proj_in", "gelu", "proj_out", "residual")]
          + [f"model.merge{m}" for m in range(3)]
          + ["model.head"]
          + [f"sgu.stage{s}" for s in range(4)]
          + ["sgu.rel_bias", "windows.partition", "windows.reverse", "train.loss"])


class Probe:
    """Records step times; with ``layers`` also per-layer spans, counts and checks."""

    def __init__(self, model, layers: bool):
        self.model = model
        self.layers = layers
        self.flops_per_image = count_flops(model.config, model.config.image_size,
                                           "padding-free").flops
        self.step_s: list[float] = []       # steps, on the probe's clock
        self.step_records: list[dict] = []  # per-step layer buckets (layers only)
        self.evaluate_ms: list[float] = []
        self.save_ms: list[float] = []
        self.load_ms: list[float] = []
        self.checkpoint_bytes = 0
        self.oracle_checks = 0
        self.oracle_failures = 0
        self.oracle_max_err = 0.0
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []        # open spans: [name, child seconds]
        self._stage: int | None = None
        self._excluded = 0.0
        self._step_t0: float | None = None
        self._cur: dict[str, float] = defaultdict(float)

    # -- clock and spans --------------------------------------------------------

    def now(self) -> float:
        return time.perf_counter() - self._excluded

    def _span(self, name: str, fn, *args, **kwargs):
        self._stack.append([name, 0.0])
        t0 = self.now()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = self.now() - t0
            _, child = self._stack.pop()
            self._cur["fwd:" + name] += dt - child
            self._cur["fwdi:" + name] += dt
            if self._stack:
                self._stack[-1][1] += dt

    def begin_step(self) -> None:
        self._cur = defaultdict(float)
        self._step_t0 = self.now()

    def end_step(self) -> None:
        if self._step_t0 is None:
            return
        dt = self.now() - self._step_t0
        self._step_t0 = None
        self.step_s.append(dt)
        if self.layers:
            self._cur["step"] = dt
            self.step_records.append(dict(self._cur))

    # -- installation -------------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, new)

    def __enter__(self) -> "Probe":
        model = self.model
        model_forward = model.forward
        adamw_step = gtrain.adamw_step

        def forward(images, training=False, rng=None):
            if training:
                self.begin_step()
            self._cur["images"] += images.shape[0]
            return self._call_model(model_forward, images, training, rng)

        def adamw(*args, **kwargs):
            try:
                return (self._span("train.adamw", adamw_step, *args, **kwargs)
                        if self.layers else adamw_step(*args, **kwargs))
            finally:
                self.end_step()

        self._patch(model, "forward", forward)
        self._patch(gtrain, "adamw_step", adamw)
        if self.layers:
            self._install_layers()
        return self

    def __exit__(self, *exc) -> bool:
        while self._patches:
            owner, attr, old = self._patches.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        return False

    def _call_model(self, fn, images, training, rng):
        if not self.layers:
            return fn(images, training=training, rng=rng)
        return self._span("model.head", fn, images, training=training, rng=rng)

    def _install_layers(self) -> None:
        model = self.model
        self._patch(model, "_embed", self._spanned("model.patch_embed", model._embed))
        for s, blocks in enumerate(model.stages):
            for blk in blocks:
                self._patch(blk, "forward", self._block(s, blk.forward))
        for m, merge in enumerate(model.merges):
            self._patch(merge, "forward", self._spanned(f"model.merge{m}", merge.forward))

        self._patch(gmodel, "layer_norm", self._in_stage("norm", gmodel.layer_norm))
        self._patch(gmodel, "gelu", self._in_stage("gelu", gmodel.gelu))
        self._patch(gmodel, "multi_head_window_sgu", self._sgu(gmodel.multi_head_window_sgu))
        self._patch(gsgu, "window_partition", self._partition(gsgu.window_partition))
        self._patch(gsgu, "window_reverse", self._spanned("windows.reverse",
                                                          gsgu.window_reverse))
        self._patch(gsgu, "materialize_relative_bias",
                    self._counted("sgu.rel_bias", gsgu.materialize_relative_bias))
        self._patch(gtrain, "cross_entropy", self._spanned("train.loss", gtrain.cross_entropy))
        self._patch(gtrain, "backward", self._spanned("tensor.backward", gtrain.backward))
        self._patch(gtrain, "evaluate", self._timed_list(self.evaluate_ms, gtrain.evaluate))
        self._patch(gtrain, "save_checkpoint", self._save(gtrain.save_checkpoint))
        self._patch(gckpt, "save_checkpoint", self._save(gckpt.save_checkpoint))
        self._patch(gckpt, "load_checkpoint", self._timed_list(self.load_ms,
                                                               gckpt.load_checkpoint))
        self._patch(Tensor, "__matmul__", self._matmul(Tensor.__matmul__))
        self._patch(Tensor, "__add__", self._proj_add(Tensor.__add__))
        self._patch(Tensor, "_result", staticmethod(self._result(Tensor._result)))

    # -- wrappers -------------------------------------------------------------------

    def _spanned(self, name, fn):
        def wrapped(*args, **kwargs):
            return self._span(name, fn, *args, **kwargs)
        return wrapped

    def _counted(self, name, fn):
        def wrapped(*args, **kwargs):
            self._cur["n:" + name] += 1
            return self._span(name, fn, *args, **kwargs)
        return wrapped

    def _block(self, s, fn):
        def wrapped(*args, **kwargs):
            outer, self._stage = self._stage, s
            try:
                return self._span(f"model.stage{s}", fn, *args, **kwargs)
            finally:
                self._stage = outer
        return wrapped

    def _in_stage(self, part, fn):
        def wrapped(*args, **kwargs):
            if self._stage is None:  # patch embed, merges and head keep their own span
                return fn(*args, **kwargs)
            return self._span(f"model.stage{self._stage}.{part}", fn, *args, **kwargs)
        return wrapped

    def _partition(self, fn):
        def wrapped(x, grid):
            out = self._span("windows.partition", fn, x, grid)
            self._cur["n:windows.groups"] += len(out)
            return out
        return wrapped

    def _sgu(self, fn):
        def wrapped(x, params, grid):
            out = self._span(f"sgu.stage{self._stage}", fn, x, params, grid)
            t0 = time.perf_counter()
            ref = gsgu.zero_padding_shift_oracle(x, params, grid)
            err = float(np.max(np.abs(ref - out.data)))
            self.oracle_checks += 1
            if not err <= ORACLE_TOL:
                self.oracle_failures += 1
            if err > self.oracle_max_err:
                self.oracle_max_err = err
            self._excluded += time.perf_counter() - t0
            return out
        return wrapped

    def _projection(self, other) -> str | None:
        if self._stage is None or not isinstance(other, Parameter):
            return None
        m = _PROJ.search(other.name)
        return f"model.stage{m.group(1)}.{m.group(2)}" if m else None

    def _matmul(self, fn):
        def wrapped(a, b):
            cur = self._cur
            cur["n:tensor.matmul"] += 1
            t0 = self.now()
            name = self._projection(b)
            out = self._span(name, fn, a, b) if name else fn(a, b)
            macs = out.size * a.shape[-1]
            if isinstance(b, Parameter):
                cur["proj_macs"] += macs
                cur["proj_s"] += self.now() - t0
            elif self._stack and self._stack[-1][0].startswith("sgu.stage"):
                cur["mix_macs"] += macs
            return out
        return wrapped

    def _proj_add(self, fn):
        def wrapped(a, b):
            name = self._projection(b)
            return self._span(name, fn, a, b) if name else fn(a, b)
        return wrapped

    def _result(self, fn):
        def result(data, parents, vjp):
            out = fn(data, parents, vjp)
            if out._vjp is not None:
                self._cur["n:tensor.graph_nodes"] += 1
                names = tuple(n for n, _ in self._stack) or ("untraced",)
                out._vjp = self._timed_vjp(out._vjp, names[-1], tuple(set(names)))
            return out
        return result

    def _timed_vjp(self, vjp, own, enclosing):
        def timed(g):
            t0 = time.perf_counter()
            grads = vjp(g)
            dt = time.perf_counter() - t0
            cur = self._cur
            cur["bwd:" + own] += dt
            for name in enclosing:
                cur["bwdi:" + name] += dt
            cur["vjp_s"] += dt
            return grads
        return timed

    def _timed_list(self, sink, fn):
        def wrapped(*args, **kwargs):
            t0 = self.now()
            try:
                return fn(*args, **kwargs)
            finally:
                sink.append(1e3 * (self.now() - t0))
        return wrapped

    def _save(self, fn):
        timed = self._timed_list(self.save_ms, fn)

        def wrapped(path, model):
            timed(path, model)
            self.checkpoint_bytes = Path(path).stat().st_size
        return wrapped


def layer_metrics(probes: list[Probe], untraced_step_s: list[float],
                  task_ms: float) -> dict[str, float]:
    """Per-step medians of every per-layer metric over the traced steps."""
    records = [r for p in probes for r in p.step_records]
    if not records:
        raise RuntimeError("the traced phase recorded no step")
    def med(f):
        return statistics.median(f(r) for r in records)

    def ms(key):
        return med(lambda r: 1e3 * r.get(key, 0.0))

    def keys(name):
        """Bucket keys of a layer: self time, or inclusive for sgu/windows/train."""
        if name.endswith(".residual"):
            return "fwd:" + name[:-len(".residual")], "bwd:" + name[:-len(".residual")]
        if name.startswith(("sgu.", "windows.", "train.")):
            return "fwdi:" + name, "bwdi:" + name
        return "fwd:" + name, "bwd:" + name

    out: dict[str, float] = {}
    for name in LAYERS:
        fwd, bwd = keys(name)
        out[name + ".fwd_ms"] = ms(fwd)
        out[name + ".bwd_ms"] = ms(bwd)
    out["tensor.backward_ms"] = ms("fwdi:tensor.backward")
    out["tensor.backward_engine_ms"] = med(
        lambda r: 1e3 * (r.get("fwdi:tensor.backward", 0.0) - r.get("vjp_s", 0.0)))
    out["tensor.graph_nodes"] = med(lambda r: r.get("n:tensor.graph_nodes", 0))
    out["tensor.matmul.calls"] = med(lambda r: r.get("n:tensor.matmul", 0))
    out["sgu.rel_bias.calls"] = med(lambda r: r.get("n:sgu.rel_bias", 0))
    out["windows.groups"] = med(lambda r: r.get("n:windows.groups", 0))
    out["train.adamw_ms"] = ms("fwdi:train.adamw")
    out["train.evaluate_ms"] = _median_or_zero([v for p in probes for v in p.evaluate_ms])
    out["train.task_ms"] = task_ms
    out["checkpoint.save_ms"] = _median_or_zero([v for p in probes for v in p.save_ms])
    out["checkpoint.load_ms"] = _median_or_zero([v for p in probes for v in p.load_ms])
    out["checkpoint.bytes"] = max(p.checkpoint_bytes for p in probes)
    # computed, not measured: the FLOPs come from operand shapes or closed form
    out["model.proj_gflop_per_s"] = med(lambda r: _rate(r.get("proj_macs", 0),
                                                        r.get("proj_s", 0.0)))
    out["sgu.mix_gflop_per_s"] = med(lambda r: _rate(r.get("mix_macs", 0), sum(
        v for k, v in r.items() if k.startswith("fwdi:sgu.stage"))))
    flops_per_image = probes[0].flops_per_image
    out["model.fwd_gflop_per_s"] = med(lambda r: _rate(
        flops_per_image * r.get("images", 0), r.get("fwdi:model.head", 0.0)))

    # partition, reverse and the relative bias run inside sgu.stage<s>
    disjoint = [n for n in LAYERS if not n.startswith("windows.") and n != "sgu.rel_bias"]

    def coverage(r):
        total = sum(r.get(k, 0.0) for n in disjoint for k in keys(n))
        total += r.get("fwdi:tensor.backward", 0.0) - r.get("vjp_s", 0.0)
        total += r.get("fwdi:train.adamw", 0.0)
        return total / r["step"]

    out["trace.coverage"] = med(coverage)
    out["trace.overhead_frac"] = (statistics.median(r["step"] for r in records)
                                  / statistics.median(untraced_step_s) - 1.0)
    return out


def _median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _rate(ops: float, seconds: float) -> float:
    return ops / seconds / 1e9 if seconds else 0.0
