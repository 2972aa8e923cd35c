"""Benchmark workloads and the checks that decide whether their reports are right.

Every workload builds its own ``ExperimentConfig`` from the benchmark seed, so
a change to the package's presets cannot change what is measured.  Importing
this module imports ``rcmpaths``; that import is part of the measured set-up
time.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass

from rcmpaths import ConnectionSpec, ExperimentConfig, ModelParams, iter_khop_paths, sample_realization
from rcmpaths.rng import derive_subseed

OUTPUTS = "reports"
BRACKET_ORDERS = (3, 4, 5, 80)
TABLE_KNOTS = ((0.0, 0.9), (0.5, 0.7), (1.0, 0.35), (1.5, 0.0))


@dataclass(frozen=True)
class Block:
    """Grid points run with one replication count and one set of experiment
    options, split into ``parts`` experiments over consecutive equal slices."""

    grid: tuple[ModelParams, ...]
    replications: int
    parts: int = 1
    collect_pairs: bool = False
    attach_numeric: bool = False


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: blocks of grid points and a worker count.

    Every experiment gets its own name and a seed derived from the benchmark
    seed.  Sweeps are timed per experiment: a short experiment is more likely
    than a long one to find the shared machine quiet, so the fastest run of
    each, summed, is a steady estimate of a quiet sweep.
    """

    name: str
    blocks: tuple[Block, ...]
    threads: int
    margin_replications: int = 0
    # replications per grid point whose counts are re-derived by path enumeration
    exact_check_reps: int = 0

    def configs(self, seed: int) -> tuple[ExperimentConfig, ...]:
        configs = []
        for block in self.blocks:
            size = len(block.grid) // block.parts
            for i in range(block.parts):
                j = len(configs)
                configs.append(
                    ExperimentConfig(
                        name=f"{self.name}-{j}",
                        params_grid=block.grid[i * size : (i + 1) * size],
                        replications=block.replications,
                        seed=derive_subseed(seed, j),
                        outputs=OUTPUTS,
                        collect_pair_structures=block.collect_pairs,
                        bracket_orders=BRACKET_ORDERS,
                        attach_numeric=block.attach_numeric,
                    )
                )
        return tuple(configs)

    @property
    def grid(self) -> tuple[ModelParams, ...]:
        return tuple(p for block in self.blocks for p in block.grid)

    @property
    def reps_per_sweep(self) -> int:
        return sum(len(b.grid) * (b.replications + self.margin_replications) for b in self.blocks)


def _rayleigh(rho, r, k, beta=1.0, eta=2.0):
    return ModelParams(
        rho=rho, connection=ConnectionSpec.rayleigh(beta=beta, eta=eta), anchor_distance=r, k=k
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="meanvar-k3",
            blocks=(
                Block(
                    grid=tuple(
                        _rayleigh(rho, i / 4, 3) for rho in (0.5, 2.0, 5.0) for i in range(21)
                    ),
                    replications=20,
                    parts=3,
                    collect_pairs=True,
                ),
            ),
            threads=1,
        ),
        Workload(
            name="existence-2w",
            blocks=(
                Block(
                    grid=tuple(
                        _rayleigh(i / 10, 1.0, k, beta=beta)
                        for k in (2, 3)
                        for beta in (1.0, 1.5)
                        for i in range(1, 21)
                    ),
                    replications=20,
                    parts=8,
                ),
            ),
            threads=2,
            margin_replications=10,
        ),
        # k = 4 and 5 on the full graph, then k = 3 against the FFT quadrature
        # of four connection functions: one workload rather than two, so that
        # each run can be long.  Pair classes stay off, so the classifier is
        # measured on meanvar-k3 alone.
        Workload(
            name="khop45-numeric",
            blocks=(
                Block(
                    grid=tuple(
                        _rayleigh(rho, r, k) for k in (4, 5) for rho in (0.5, 1.0) for r in (1.0, 2.0)
                    ),
                    replications=12,
                    parts=4,
                ),
                Block(
                    grid=tuple(
                        ModelParams(rho=1.0, connection=spec, anchor_distance=1.5, k=3)
                        for spec in (
                            ConnectionSpec.hard_disk(1.0),
                            ConnectionSpec.tabulated(TABLE_KNOTS),
                            ConnectionSpec.rayleigh(beta=1.0, eta=3.0),
                            ConnectionSpec.rayleigh(beta=1.0, eta=2.0),
                        )
                    ),
                    replications=20,
                    parts=4,
                    attach_numeric=True,
                ),
            ),
            threads=1,
            exact_check_reps=3,
        ),
    )
}


def reports_sha256(outputs: str = OUTPUTS) -> str:
    """Digest of every report file, by name and content."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(outputs)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(outputs, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _report_problems(report) -> list[str]:
    problems = []
    counts = report.counts
    r = len(counts)
    k = int(report.params.k)
    if report.analytic_mean is not None:
        ref, ref_var = report.analytic_mean, report.analytic_variance
    else:
        ref, ref_var = report.numeric_mean, report.numeric_variance
    if k <= 3 and ref is not None:
        # a few heavy-tailed draws can make the sample se far too small, so it
        # is floored by the Poisson se and, where known, the reference se
        se = max(report.empirical_mean_se or 0.0, math.sqrt(ref / r), math.sqrt((ref_var or 0.0) / r))
        if abs(report.empirical_mean - ref) > 5.0 * se:
            problems.append(f"mean {report.empirical_mean:.4g} vs reference {ref:.4g} (se {se:.3g})")
    classes = report.pair_class_counts
    if classes is not None:
        if (classes.sum(axis=1) != counts * counts).any():
            problems.append("pair classes do not sum to count**2")
        if (classes[:, 3] != counts).any():
            problems.append("sigma21 differs from the path count")
    if int(counts.max()) <= 80:
        (b80,) = [b for b in report.existence_brackets if b.order == 80]
        if abs(b80.partial_sum - report.empirical_zero_frequency) > 1e-12:
            problems.append("order-80 bracket differs from the zero frequency")
    if report.analytic_mean is not None and report.numeric_mean is not None:
        pairs = [(report.numeric_mean, report.analytic_mean)]
        if report.analytic_variance is not None:
            pairs.append((report.numeric_variance, report.analytic_variance))
        if any(abs(num - ana) > 1e-3 * abs(ana) for num, ana in pairs):
            problems.append("eta=2 quadrature differs from the closed form by more than 1e-3")
    return problems


def _files_problems(config, reports) -> list[str]:
    """The written CSV and JSON must hold the returned reports."""
    base = os.path.join(config.outputs, config.name)
    with open(base + ".json", encoding="utf-8") as fh:
        written = json.load(fh)["reports"]
    with open(base + ".csv", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    problems = []
    if len(written) != len(reports) or len(rows) != len(reports) + 1:
        problems.append("report files do not hold one entry per grid point")
    elif any(w["empirical_mean"] != r.empirical_mean for w, r in zip(written, reports)):
        problems.append("JSON report differs from the returned reports")
    return problems


def exact_count_problems(report, reps: int) -> list[str]:
    """Re-derive the first ``reps`` counts of a grid point by enumerating paths
    on the full realization and checking each path edge by edge."""
    problems = []
    k = int(report.params.k)
    for rep in range(min(reps, len(report.counts))):
        g = sample_realization(report.params, report.grid_seed, rep)
        found = 0
        for path in iter_khop_paths(g, k):
            found += 1
            simple = len(path) == k + 1 and len(set(path)) == k + 1
            ends = path[0] == 0 and path[-1] == 1
            if not (simple and ends and all(g.adjacency[a, b] for a, b in zip(path, path[1:]))):
                problems.append(f"replication {rep}: invalid path {path}")
                break
        if found != int(report.counts[rep]):
            problems.append(f"replication {rep}: reported {int(report.counts[rep])}, enumerated {found}")
    return problems


def failed_points(workload: Workload, config, reports, checks, exact: bool, log) -> int:
    """Number of grid points of one experiment that fail a correctness check."""
    bad = set()
    file_problems = _files_problems(config, reports)
    if file_problems:
        log(f"{config.name}: {'; '.join(file_problems)}")
        return len(config.params_grid)
    for report in reports:
        problems = _report_problems(report)
        if exact and workload.exact_check_reps:
            problems += exact_count_problems(report, workload.exact_check_reps)
        if problems:
            bad.add(report.grid_index)
            log(f"{config.name} grid point {report.grid_index}: {'; '.join(problems)}")
    for check in checks or ():
        if check.flagged:
            bad.add(check.grid_index)
            log(f"{config.name} grid point {check.grid_index}: margin check flagged")
    return len(bad)
