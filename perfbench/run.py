#!/usr/bin/env python3
"""modcoh benchmark: one seeded workload per process.

    python3 perfbench/run.py --workload dims --seed 1 --seconds 45 --trace 0

Run from the repository root; modcoh is imported from ./src.  The run
repeats batches of the workload's input stream (batch k is a function of
the seed and k) until --seconds have passed, then prints one JSON line of
run information and, last, the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics.  Their times are normalised to a
fixed machine speed: a reference computation (calibrate.py) is measured
next to and during every query and every set-up process, and each time is
scaled by how fast the reference ran around it.  --trace 1 runs batch 0 in pairs,
untraced then traced, while the next pair fits in --seconds (at least
once), and reports per-layer metrics per batch (see
tracer.py).  Every query is checked against seed-independent answers; any
wrong answer or exception fails the run with exit code 1.
"""

from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported
    if not os.environ.get(_var, "").isdigit() or int(os.environ[_var]) > NPROC:
        os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402  (perfbench/, the script's directory)

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 7
SETUP_SAMPLE_INTERVAL_S = 0.01
TAIL_PERCENTILES = (99, 95, 90, 75, 50)


def import_modcoh():
    """Import modcoh from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import modcoh
    except ImportError as exc:
        sys.exit(f"error: cannot import modcoh from {src}: {exc}")
    if src not in Path(modcoh.__file__).resolve().parents:
        sys.exit(f"error: modcoh was imported from {modcoh.__file__}, not {src}")
    return modcoh


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build batch 0, then exit (times set-up)")
    return ap.parse_args(argv)


class Runner:
    """Runs queries, times them and keeps the failure count.

    A calibrated runner measures a slice of reference work (calibrate.py)
    before every query and samples it during the query: `refs[i]` and
    `refs[i + 1]` enclose query i once `close()` has measured the last
    slice, and `inside[i]` holds the units sampled during it.
    """

    def __init__(self, workloads, calibrated: bool = False) -> None:
        self.w = workloads
        self.sampler = calibrate.Sampler() if calibrated else None
        self.attempted = 0
        self.failed = 0
        self.samples: list[tuple[str, float, float]] = []  # (kind, wall, cpu)
        self.refs: list[tuple[float, float]] = []  # (wall, cpu) per unit
        self.inside: list[tuple[int, float, float]] = []  # (units, wall, cpu)

    def run_query(self, q) -> tuple[float, float]:
        if q.cold:
            self.w.clear_caches()
        # garbage of earlier queries (cyclic contexts, resolutions) would
        # otherwise be freed at a time that varies with the run's history
        gc.collect()
        self.attempted += 1
        sampler = self.sampler or contextlib.nullcontext()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with sampler:
                result, error = q.call(), None
        except (Exception, SystemExit) as exc:  # a failed query, not a crash
            error = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if self.sampler:
            s = self.sampler
            wall, cpu = wall - s.wall, cpu - s.cpu
            self.inside.append((s.units, s.wall, s.cpu))
        if error is None:
            error = q.check(result)
        if error is not None:
            self.failed += 1
            print(f"FAIL {q.kind}: {error[:500]}", file=sys.stderr)
        return wall, cpu

    def run_batch(self, batch, deadline: float | None = None) -> float:
        """Run the batch (stopping early past the deadline); return its wall."""
        total = 0.0
        for q in batch:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            if self.sampler:
                self.refs.append(calibrate.measure_slice())
            wall, cpu = self.run_query(q)
            self.samples.append((q.kind, wall, cpu))
            total += wall
        return total

    def close(self) -> None:
        if self.sampler:
            self.refs.append(calibrate.measure_slice())

    def normalised_samples(self) -> list[tuple[str, float, float]]:
        """Samples rescaled to a machine where a reference unit takes UNIT_S.

        Each query is scaled by the mean time per unit of all reference
        units from the slice before it to the slice after it: wall by
        reference wall, CPU by reference CPU time.
        """
        k = calibrate.SLICE_UNITS
        out = []
        for i, (kind, wall, cpu) in enumerate(self.samples):
            (w0, c0), (w1, c1) = self.refs[i], self.refs[i + 1]
            n, in_wall, in_cpu = self.inside[i]
            unit_wall = ((w0 + w1) * k + in_wall) / (2 * k + n)
            unit_cpu = ((c0 + c1) * k + in_cpu) / (2 * k + n)
            out.append((kind, wall * calibrate.UNIT_S / unit_wall,
                        cpu * calibrate.UNIT_S / unit_cpu))
        return out


def tail(values: list[float]):
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(values)
    for pct in TAIL_PERCENTILES:
        if n * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return None, None


def kind_medians(samples, index: int) -> dict[str, float]:
    """Median of each query kind; their sum estimates the batch time."""
    by_kind: dict[str, list[float]] = {}
    for s in samples:
        by_kind.setdefault(s[0], []).append(s[index])
    return {k: statistics.median(v) for k, v in by_kind.items()}


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Wall times of fresh processes that import modcoh and build batch 0,
    less the reference work they ran: as measured, and normalised by the
    speed of that reference work (see setup_only)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    raw, norm = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, check=True, cwd=ROOT, timeout=120,
                              stdout=subprocess.PIPE, text=True)
        wall = time.perf_counter() - t0
        ref = json.loads(done.stdout.splitlines()[-1])
        raw.append(wall - ref["ref_wall"])
        unit = ref["ref_wall"] / ref["ref_units"]
        norm.append(raw[-1] * calibrate.UNIT_S / unit)
    return raw, norm


def setup_only(args) -> int:
    """Import modcoh and build batch 0, sampling the reference meanwhile.

    Prints the time and units of reference work this process ran, for
    measure_setup.  A final slice ensures at least SLICE_UNITS units.
    """
    with calibrate.Sampler(SETUP_SAMPLE_INTERVAL_S) as sampler:
        _, w, answers = load(args)
        workdir = make_workdir(args)
        try:
            w.make_batch(args.workload, args.seed, 0, workdir, answers)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    k = calibrate.SLICE_UNITS
    last = calibrate.measure_slice(k)[0]
    print(json.dumps({"ref_wall": sampler.wall + last * k,
                      "ref_units": sampler.units + k}))
    return 0


def run_untraced(args, w, workdir: Path, answers: dict) -> tuple[Runner, dict, dict]:
    runner = Runner(w, calibrated=True)
    t_start = time.perf_counter()
    deadline = t_start + args.seconds
    index = 0
    while True:
        batch = w.make_batch(args.workload, args.seed, index, workdir, answers)
        # the first batch always completes, so every query kind has a sample
        runner.run_batch(batch, deadline if index else None)
        if index == 0:
            # later batches start at a point that depends on machine speed,
            # and each may fragment the heap a little further
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        index += 1
        if time.perf_counter() >= deadline:
            break
    runner.close()
    elapsed = time.perf_counter() - t_start
    peak_rss_run_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup, setup_norm = measure_setup(args)
    wall_by_kind = kind_medians(runner.samples, 1)
    norm = runner.normalised_samples()
    norm_wall_by_kind = kind_medians(norm, 1)
    walls = [s[1] for s in norm]
    pct, tail_s = tail(walls)
    ref_wall = [r[0] for r in runner.refs]
    metrics = {
        "wall_norm_s": (sum(norm_wall_by_kind.values()), "s"),
        "cpu_norm_s": (sum(kind_medians(norm, 2).values()), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup_norm), "s"),
    }
    # Per-query percentiles mix query kinds of very different cost, so they
    # jump between kinds from run to run; they are reported, not gated.
    info = {
        "batches_started": index,
        "queries": len(walls),
        "elapsed_s": elapsed,
        "peak_rss_run_mb": peak_rss_run_mb,
        "wall_s": sum(wall_by_kind.values()),
        "cpu_s": sum(kind_medians(runner.samples, 2).values()),
        "reference_unit_s": {"nominal": calibrate.UNIT_S,
                             "median": statistics.median(ref_wall),
                             "min": min(ref_wall), "max": max(ref_wall),
                             "slices": len(ref_wall),
                             "units_in_queries": sum(u[0] for u in runner.inside)},
        "fail_frac": runner.failed / max(runner.attempted, 1),
        "query_p50_norm_s": statistics.median(walls),
        "query_tail_norm_s": tail_s,
        "query_tail_percentile": pct,
        "setup_samples_s": setup,
        "setup_samples_norm_s": setup_norm,
        "kind_median_s": wall_by_kind,
        "kind_median_norm_s": norm_wall_by_kind,
    }
    return runner, metrics, info


def run_traced(args, w, workdir: Path, answers: dict) -> tuple[Runner, dict, dict]:
    import tracer as tracing

    tr = tracing.Tracer()
    runner = Runner(w)
    batch = w.make_batch(args.workload, args.seed, 0, workdir, answers)
    deadline = time.perf_counter() + args.seconds
    untraced, traced, snaps = [], [], []
    pair_s = 0.0
    while not snaps or time.perf_counter() + pair_s < deadline:
        start = time.perf_counter()
        untraced.append(runner.run_batch(batch))
        tr.reset()
        tr.install()
        try:
            wall = runner.run_batch(batch)
        finally:
            tr.uninstall()
        traced.append(wall)
        snaps.append(tr.snapshot(wall))
        pair_s = time.perf_counter() - start
    problems = []
    metrics = {}
    for key in snaps[0]:
        values = [s[key] for s in snaps]
        if tracing.unit_of(key) == "s":
            metrics[key] = statistics.fmean(values)
        else:  # counts are exact: every repeat runs the same inputs
            metrics[key] = values[0]
            if len(set(values)) != 1:
                problems.append(f"{key} differs between repeats of one batch")
    for snap, wall in zip(snaps, traced):
        if snap["trace.untraced_s"] < -1e-9 * max(wall, 1.0):
            problems.append("layer self times exceed traced wall")
    for layer in w.STRESSED_LAYERS[args.workload]:
        if metrics[f"{layer}.calls"] == 0:
            problems.append(f"layer {layer} recorded no calls")
    hits = metrics["resolutions.cache_hit_frac"]
    if args.workload == "dims" and hits != 0:
        problems.append("cold dims queries hit the resolution cache")
    if args.workload == "maps-actions" and not hits > 0:
        problems.append("warm sessions never hit the resolution cache")
    untraced_mean = statistics.fmean(untraced)
    metrics["trace.overhead_frac"] = statistics.fmean(traced) / untraced_mean - 1
    out = {key: (value, tracing.unit_of(key)) for key, value in metrics.items()}
    info = {
        "pairs": len(snaps),
        "traced_wall_s": statistics.fmean(traced),
        "untraced_wall_s": untraced_mean,
        "coverage_problems": problems,
    }
    for p in problems:
        print(f"TRACE CHECK: {p}", file=sys.stderr)
    return runner, out, info


def load(args):
    """modcoh, the workloads module and the pinned answers."""
    modcoh = import_modcoh()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads as w

    if args.workload not in w.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"known: {', '.join(w.WORKLOADS)}")
    return modcoh, w, w.load_answers()


def make_workdir(args) -> Path:
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        return setup_only(args)
    modcoh, w, answers = load(args)
    import numpy as np

    workdir = make_workdir(args)
    try:
        run = run_traced if args.trace else run_untraced
        runner, metrics, info = run(args, w, workdir, answers)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "modcoh": modcoh.__file__, "nproc": NPROC,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    })
    print(json.dumps({"info": info}))
    correct = runner.failed == 0 and not info.get("coverage_problems")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
