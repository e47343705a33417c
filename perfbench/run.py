"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload smoke-train --seed 0 --seconds 32 --trace 0

Run from the repository root; the package is imported from ``src/``. With
``--trace 0`` the last line of standard output carries the end-to-end
metrics, with ``--trace 1`` the per-layer ones; names and units come from
``BENCHMARK.json``. The line before it is a detail record: the environment,
``failed_frac``, the step-time tail and the sample counts. See README.md.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread: no higher than any machine's CPU count, and it keeps the
# projections from competing with the interpreter for the same cores.
BLAS_THREADS = 1
SETUP_REPEATS = 3
# glibc mallopt parameters (malloc.h).
M_TRIM_THRESHOLD = -1
M_MMAP_MAX = -4
MIN_EPISODES = 2
TAIL_MIN_SAMPLES = 100  # a p90 needs at least ten samples beyond it


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git without running git; None outside a checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def retain_freed_memory() -> bool:
    """Make glibc keep freed memory in the process instead of giving it back.

    By default each large array is a fresh mapping, so every 224 px step faults
    in about 120 MB of new pages. On a VM that reports free pages to its host,
    that memory comes back from the host on each fault, at a cost that follows
    the host's load rather than the program. With every allocation on the
    never-trimmed heap, the timed steps reuse pages already faulted in. Returns
    False where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return bool(mallopt(M_TRIM_THRESHOLD, 2**31 - 1)) and bool(mallopt(M_MMAP_MAX, 0))


def environment(load_before: tuple[float, ...], malloc_retain: bool) -> dict:
    import numpy
    import scipy
    blas = getattr(numpy.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {"cpu_count": os.cpu_count(), "loadavg_before": list(load_before),
            "loadavg_after": list(os.getloadavg()), "blas_threads": BLAS_THREADS,
            "malloc_retain": malloc_retain,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": blas.get("version"),
            "commit": git_commit(ROOT)}


def _episode(workload, state, workdir: Path, layers: bool):
    from probe import Probe
    model = workload.fresh_model(state)
    epdir = Path(tempfile.mkdtemp(dir=workdir))
    try:
        with Probe(model, layers=layers) as probe:
            return workload.episode(state, probe, epdir, model), probe
    finally:
        shutil.rmtree(epdir)


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Set up, run closed-loop episodes for ``seconds``, and collect the metrics."""
    from probe import layer_metrics
    setup_s = []
    for _ in range(1 if trace else SETUP_REPEATS):
        state = None
        gc.collect()
        t0 = perf_counter()
        state = workload.setup(seed)
        setup_s.append(perf_counter() - t0)

    def more(episodes, minimum, until):
        # Another episode unless the run would then end further past ``until``
        # than it now falls short of it, so a run lasts about ``seconds``.
        return (len(episodes) < minimum
                or perf_counter() - start + episodes[-1][0].wall_s / 2 < until)

    plain, traced = [], []
    start = perf_counter()
    while more(plain, 1 if trace else MIN_EPISODES, seconds / 2 if trace else seconds):
        plain.append(_episode(workload, state, workdir, layers=False))
    while trace and more(traced, 1, seconds):
        traced.append(_episode(workload, state, workdir, layers=True))

    episodes = [ep for ep, _ in plain + traced]
    attempted = sum(ep.attempted for ep in episodes)
    failed = sum(ep.failed for ep in episodes)
    for _, probe in traced:
        attempted += probe.oracle_checks
        failed += probe.oracle_failures
    step_s = [s for ep, _ in plain for s in ep.step_s]
    step_ms = sorted(1e3 * s for s in step_s)
    detail = {"failed_frac": failed / attempted, "step_samples": len(step_ms),
              "episodes": len(plain), "setup_samples": len(setup_s),
              "losses_head": episodes[0].losses[:10]}
    if len(step_ms) >= TAIL_MIN_SAMPLES:
        detail["step_ms_p90"] = statistics.quantiles(step_ms, n=10, method="inclusive")[-1]
    if trace:
        values = layer_metrics([p for _, p in traced], step_s, 1e3 * state["task_s"])
        detail["traced_steps"] = sum(len(p.step_records) for _, p in traced)
        detail["oracle_checks"] = sum(p.oracle_checks for _, p in traced)
        detail["oracle_max_err"] = max(p.oracle_max_err for _, p in traced)
        detail["computed"] = ["model.proj_gflop_per_s", "model.fwd_gflop_per_s",
                              "sgu.mix_gflop_per_s"]
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "images_per_s": sum(ep.images for ep, _ in plain) / sum(step_s),
            "step_ms_p50": statistics.median(step_ms),
            "run_s": statistics.median(ep.wall_s for ep, _ in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return {"values": values, "detail": detail, "attempted": attempted, "failed": failed}


def result_line(spec: dict, measured: dict, trace: bool) -> dict:
    """The contract's result object: every listed metric, by name, with its unit."""
    listed = spec["per_layer" if trace else "end_to_end"]
    values = measured["values"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise KeyError(f"workload did not produce metrics {missing}")
    return {"correct": measured["failed"] == 0, "attempted": measured["attempted"],
            "failed": measured["failed"],
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in listed}}


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "gswin").is_dir():
        print(f"perfbench: no gswin package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 1
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 1

    malloc_retain = retain_freed_memory()
    load_before = os.getloadavg()
    if load_before[0] > 1.0:
        print(f"perfbench: warning: load average {load_before[0]:.2f} is above 1; "
              "timings will be noisy", file=sys.stderr)
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        measured = measure(WORKLOADS[args.workload](), args.seed, args.seconds,
                           bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              **measured["detail"], "env": environment(load_before, malloc_retain)}
    if detail["env"]["loadavg_after"][0] > 1.0:
        print("perfbench: warning: load average rose above 1 during the run",
              file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result_line(spec, measured, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
