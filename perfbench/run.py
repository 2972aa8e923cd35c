"""Sweep benchmark for rcmpaths.

Usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it prints the end-to-end metrics of one workload
(``wall_s``, ``reps_per_s``, ``setup_s``, ``peak_rss_mb``) and ``fail_frac``;
with ``--trace 1`` it prints the per-layer table from traced sweeps.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Workloads are defined in
``workloads.py``; the package is imported from ``src/`` of the checkout that
holds this file, and nothing is built or installed.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170.0


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def _stop(proc: subprocess.Popen) -> None:
    """Kill the process group of ``proc`` (its pool workers too) and reap it."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.wait()


def run_sweeps(args, timeout: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "sweep.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(), cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def end_to_end(raw: dict) -> dict:
    """A sweep's time is the sum over its experiments of each one's fastest
    run: on a shared machine, other tenants slow whole stretches of a run, and
    the minimum over many identical short runs is what stays put from run to
    run.  The median and the slowest full sweep are printed beside it."""
    walls = raw["walls"]
    if not walls:
        raise RuntimeError("no sweep completed")
    best = sum(min(part) for part in zip(*walls))
    totals = [sum(w) for w in walls]
    spread = (
        f"fastest run of each of {len(walls[0])} experiment(s) over {len(walls)} sweeps; "
        f"full sweep median {statistics.median(totals):.4g}, max {max(totals):.4g}"
    )
    metrics = {
        "wall_s": (best, "s", spread),
        "reps_per_s": (raw["reps_per_sweep"] / best, "1/s", f"{raw['reps_per_sweep']} replications / wall_s"),
        "setup_s": (statistics.median(raw["setup_s"]), "s", f"median of {len(raw['setup_s'])} fresh interpreters"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MiB", "getrusage self + pool workers"),
    }
    for name, (value, unit, note) in metrics.items():
        print(f"{name:<12} {value:.6g} {unit:<5} ({note})")
    frac = raw["failed"] / raw["attempted"]
    print(f"{'fail_frac':<12} {frac:.6g}       ({raw['failed']} of {raw['attempted']} grid points)")
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}


def per_layer(raw: dict) -> dict:
    metrics = raw["metrics"]
    print(f"per-layer table, {raw['sweeps']} traced sweeps at 1 worker (times: median per sweep)")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    self_s = sum(m["value"] for name, m in metrics.items() if name.endswith((".self_s", ".writers.s")))
    print(
        f"wall_s traced {raw['traced_wall_s']:.6g} s, untraced {raw['untraced_wall_s']:.6g} s; "
        f"self times sum to {self_s:.6g} s"
    )
    print(f"layers whose hooks never fired: {', '.join(raw['silent']) or 'none'}")
    if raw["missing"]:
        print(f"hooked names missing from rcmpaths: {', '.join(raw['missing'])}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Sweep benchmark for rcmpaths")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "rcmpaths" / "__init__.py").is_file():
        print(f"error: no rcmpaths sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    # children run in their own sessions; exit through the finally clauses
    # that stop them when this process is told to end
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    try:
        raw = run_sweeps(args, TIME_LIMIT_S)
        print(
            f"workload {args.workload}, seed {args.seed}: {raw['grid_points']} grid points, "
            f"{raw['reps_per_sweep']} replications per sweep, {raw['threads']} worker(s)"
        )
        print(f"reports_sha256 {raw['reports_sha256']}")
        metrics = per_layer(raw) if args.trace else end_to_end(raw)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
