"""Workload process of the benchmark: runs one workload's sweeps in-process.

Usage: python3 perfbench/sweep.py --workload NAME --seed N --seconds S --trace 0|1

Writes progress and check failures to stderr and one JSON object of raw
measurements to stdout; ``run.py`` starts this process and turns its output
into the benchmark's metrics.  A sweep runs each of the workload's experiments:
``run_experiment``, then, for workloads with a margin check,
``validate_margin`` and its two report files.  Every sweep of one run repeats
the same experiments, so every sweep must write byte-identical reports.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import hooks  # noqa: E402
import workloads  # noqa: E402
from rcmpaths import experiments  # noqa: E402

MIN_SWEEPS = 3
SETUP_PROBES = 5

# a fresh interpreter imports rcmpaths and builds the workload's configs
_PROBE = (
    "import sys, workloads; workloads.WORKLOADS[sys.argv[1]].configs(int(sys.argv[2])); "
    "print('ready', flush=True)"
)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Run:
    """Runs sweeps of one workload and tallies grid points attempted and failed."""

    def __init__(self, workload: workloads.Workload, seed: int) -> None:
        self.workload = workload
        self.configs = workload.configs(seed)
        self.attempted = 0
        self.failed = 0
        self.reference = None

    def _experiment(self, config, threads: int):
        t0 = time.perf_counter()
        reports = experiments.run_experiment(config, threads=threads)
        checks = None
        if self.workload.margin_replications:
            checks = experiments.validate_margin(
                config, replications=self.workload.margin_replications, threads=threads
            )
            base = os.path.join(config.outputs, config.name + "_margin")
            experiments.write_margin_csv(base + ".csv", config, checks)
            experiments.write_margin_json(base + ".json", config, checks)
        return time.perf_counter() - t0, reports, checks

    def sweep(self, threads: int, exact: bool = False) -> list[float] | None:
        """Run, time and check every experiment of one sweep; returns the
        wall seconds of each, or None when one raised.

        The first sweep's report digest is the reference every later sweep
        must match, whatever its worker count."""
        points = len(self.workload.grid)
        self.attempted += points
        walls, bad = [], 0
        for config in self.configs:
            try:
                wall, reports, checks = self._experiment(config, threads)
            except Exception:
                log(traceback.format_exc())
                self.failed += points
                return None
            walls.append(wall)
            bad += workloads.failed_points(self.workload, config, reports, checks, exact, log)
        digest = workloads.reports_sha256()
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            log(f"{self.workload.name}: reports at {threads} worker(s) differ from the first sweep's")
            bad = points
        self.failed += bad
        return walls


def _loop(seconds: float, body) -> None:
    """Call ``body`` until ``seconds`` have passed, at least MIN_SWEEPS times."""
    deadline = time.perf_counter() + seconds
    done = 0
    while done < MIN_SWEEPS or time.perf_counter() < deadline:
        body()
        done += 1


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to built configs."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", _PROBE, workload, str(seed)], stdout=subprocess.PIPE, env=env, cwd=ROOT
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError("setup probe failed")
    return elapsed


def measure(run: Run, seconds: float, seed: int) -> dict:
    """End-to-end run: a one-worker warm-up sweep, then timed sweeps at the
    workload's worker count for ``seconds``, at least MIN_SWEEPS of them.

    The set-up probes run between sweeps, spread evenly over those seconds,
    so that their median does not hang on one stretch of a noisy machine;
    the time they take is added to the deadline."""
    run.sweep(threads=1, exact=True)
    walls, setup = [], []
    start = time.perf_counter()
    deadline = start + seconds
    while len(walls) < MIN_SWEEPS or time.perf_counter() < deadline:
        gc.collect()
        parts = run.sweep(threads=run.workload.threads)
        if parts is not None:
            walls.append(parts)
        if not setup:
            # the probes are children too: read the workers' peak before them
            workers_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        due = start + len(setup) * seconds / SETUP_PROBES
        if len(setup) < SETUP_PROBES and time.perf_counter() >= due:
            setup.append(setup_probe(run.workload.name, seed))
            deadline += setup[-1]
            start += setup[-1]
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(run.workload.name, seed))
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + workers_kib
    return {"walls": walls, "peak_rss_mb": kib / 1024.0, "setup_s": setup}


def trace(run: Run, seconds: float) -> dict:
    """Traced run: one sweep at the workload's worker count with only the pool
    counter installed, then alternating untraced and traced one-worker sweeps."""
    pool = hooks.PoolCounter()
    pool.install()
    try:
        run.sweep(threads=run.workload.threads, exact=True)
    finally:
        pool.uninstall()
    untraced, traced, stats = [], [], []
    missing = []

    def body():
        gc.collect()
        parts = run.sweep(threads=1)
        if parts is not None:
            untraced.append(sum(parts))
        gc.collect()
        tracer = hooks.Tracer()
        tracer.install()
        try:
            parts = run.sweep(threads=1)
        finally:
            tracer.uninstall()
        missing[:] = tracer.missing
        if parts is not None:
            traced.append(sum(parts))
            stats.append(dict(tracer.stats))

    _loop(seconds, body)
    if not traced or not untraced:
        raise RuntimeError("no traced sweep completed")
    units = dict(hooks.METRICS)
    counts = [{k: v for k, v in s.items() if units.get(k) != "s"} for s in stats]
    if any(c != counts[0] for c in counts):
        log(f"{run.workload.name}: work counts differ between identical traced sweeps")
        run.failed += len(run.workload.grid)
    metrics = {}
    for name, unit in hooks.METRICS:
        if name in pool.stats:
            value = pool.stats[name]
        elif name == "trace_overhead_s":
            value = statistics.median(traced) - statistics.median(untraced)
        elif unit == "s":
            value = statistics.median(s.get(name, 0.0) for s in stats)
        else:
            value = int(stats[0].get(name, 0))
        metrics[name] = {"value": value, "unit": unit}
    silent = hooks.silent_layers(stats[0])
    if not pool.stats["experiments.pool.starts"]:
        silent.append("experiments.pool")
    return {
        "metrics": metrics,
        "sweeps": len(traced),
        "traced_wall_s": statistics.median(traced),
        "untraced_wall_s": statistics.median(untraced),
        "silent": silent,
        "missing": missing,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=workload.name + "-", dir=scratch)
    os.chdir(workdir)
    try:
        run = Run(workload, args.seed)
        out = trace(run, args.seconds) if args.trace else measure(run, args.seconds, args.seed)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    out.update(
        attempted=run.attempted,
        failed=run.failed,
        reps_per_sweep=workload.reps_per_sweep,
        grid_points=len(workload.grid),
        threads=workload.threads,
        reports_sha256=run.reference,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
