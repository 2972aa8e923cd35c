"""Experiment orchestration: seeded replication sweeps, aggregation, reports.

Each sweep grid point gets an independent master seed derived from the
experiment seed and the grid index, and each replication is a pure function
of (grid seed, replication index).  Replications are embarrassingly parallel;
results are always assembled in replication order, so output files are
byte-identical regardless of worker count.

The counter works on blocks of replications: a block lists slices,
replications ``first`` .. ``last - 1`` of grid points that share one
connection function and one k (see :func:`_blocks`), and its segments are
the (grid point, replication) pairs.  The block is the one unit of work:
a sweep cuts its replications into blocks once, and one entry,
:func:`_count_block`, counts a block, in the calling process and in every
pool worker alike.  The sampler alone decides what a replication draws,
one vectorised pass per block (:func:`rcmpaths.sampler.block_points`, and
at k = 1 :func:`rcmpaths.sampler.anchor_edges`), and the half-path joins of
:mod:`rcmpaths.paths` list the paths from it, drawing only the pairs a path
can use (see :func:`_block_paths`), so the counter finds exactly the paths
of :func:`rcmpaths.sampler.sample_realization`.

A block returns its per-replication columns by name, one dict per slice:
the path ``counts`` and, when pair classes are collected, the
``pair_class_counts``.  The sweep passes the dicts through without knowing
which columns they hold; the summaries and the report writers walk
:data:`COLUMNS`, the one table of the columns, their sub-column labels and
the report field of their means and SEs.  Whether a call counts in the
calling process or on the worker pool (see :func:`_sweep`), and how
replications and grid points fall into blocks, never changes a result.
Margin validation uses the same counter.

Every file format follows a dataclass.  The fields of :class:`MomentReport`
and :class:`MarginCheck`, in order, are the CSV columns and the JSON keys of
their reports; ``params``, the :data:`COLUMNS` stats fields and
``existence_brackets`` span several CSV columns.  The config JSON has one
key per field of :class:`ExperimentConfig`, and a field without a default is
required.  Each file is written to a temporary file in its directory and
then moved over the target, so an interrupted run leaves the previous file
or the complete new one, never a partial one.
"""
from __future__ import annotations

import json
import math
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from typing import get_origin, get_type_hints

import numpy as np

from .analytics import (
    mean_khop_numeric,
    mean_khop_rayleigh,
    variance_terms_numeric,
    variance_threehop_rayleigh,
)
from .errors import ReplicationError, ValidationError, _int_problems
from .model import HARD_DISK, RAYLEIGH, TABULATED, ConnectionSpec, ModelParams
from .moments import ExistenceBracket, bonferroni_bound_order2, bracket_rows, quadratic_existence_bound
from .paths import PairStructureCounts, classify_path_pair_segments, khop_intermediates
from .rng import STREAM_SUBSEED, stream_keys
from .sampler import anchor_edges, block_points, mean_draws, slice_replications

PAIR_CLASSES = tuple(f.name for f in fields(PairStructureCounts))
DEFAULT_BRACKET_ORDERS = (3, 4, 5, 80)
PRESET_NAMES = ("fig-mean-var", "fig-distribution", "fig-existence")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """A complete, self-contained experiment definition.

    ``collect_pair_structures`` classifies every ordered pair of 3-hop paths
    per replication (skip it for dense sweeps where only the count matters).
    ``bracket_orders`` are the truncation orders of the existence brackets,
    distinct integers >= 0; each names two CSV columns.
    """

    name: str
    params_grid: tuple[ModelParams, ...]
    replications: int
    seed: int
    outputs: str
    strict_numerics: bool = False
    collect_pair_structures: bool = True
    bracket_orders: tuple[int, ...] = DEFAULT_BRACKET_ORDERS
    emit_histograms: bool = False
    dump_raw_counts: bool = False
    attach_numeric: bool = False

    def __post_init__(self) -> None:
        problems = []
        if not self.name:
            problems.append("name: must be nonempty")
        elif self.name in (".", "..") or any(sep and sep in self.name for sep in ("/", "\0", os.sep, os.altsep)):
            problems.append(f"name: must be a plain file name, got {self.name!r}")
        if not self.outputs or "\0" in self.outputs:
            problems.append(f"outputs: must be a nonempty path without NUL bytes, got {self.outputs!r}")
        if not self.params_grid:
            problems.append("params_grid: must contain at least one grid point")
        problems += _int_problems(1, replications=self.replications)
        problems += _int_problems(0, 64, seed=self.seed)
        orders = list(self.bracket_orders)
        problems += _int_problems(0, **{f"bracket_orders[{i}]": m for i, m in enumerate(orders)})
        if any(m in orders[:i] for i, m in enumerate(orders)):
            problems.append(f"bracket_orders: orders must be distinct, got {orders!r}")
        if problems:
            raise ValidationError("invalid experiment config: " + "; ".join(problems))
        object.__setattr__(self, "params_grid", tuple(self.params_grid))
        object.__setattr__(self, "bracket_orders", tuple(int(m) for m in self.bracket_orders))


# the keys of each connection kind's JSON form besides "kind"
_CONNECTION_KEYS = {RAYLEIGH: ("beta", "eta"), HARD_DISK: ("r0",), TABULATED: ("table",)}


def connection_to_dict(spec: ConnectionSpec) -> dict:
    out = {"kind": spec.kind, **{key: getattr(spec, key) for key in _CONNECTION_KEYS[spec.kind]}}
    if spec.kind == TABULATED:
        out["table"] = [list(knot) for knot in spec.table]
    return out


def _reject_unknown_keys(d: dict, known, what: str) -> None:
    unknown = [key for key in d if key not in known]
    if unknown:
        raise ValidationError(f"unknown {what} field(s) {', '.join(map(repr, unknown))}")


def connection_from_dict(d: dict) -> ConnectionSpec:
    if not isinstance(d, dict):
        raise ValidationError(f"connection: expected a JSON object, got {d!r}")
    kind = d.get("kind")
    if not isinstance(kind, str) or kind not in _CONNECTION_KEYS:
        raise ValidationError(f"unknown connection kind {kind!r}")
    _reject_unknown_keys(d, ("kind", *_CONNECTION_KEYS[kind]), f"{kind} connection")
    if kind == RAYLEIGH:
        return ConnectionSpec.rayleigh(beta=d.get("beta", 1.0), eta=d.get("eta", 2.0))
    if kind == HARD_DISK:
        return ConnectionSpec.hard_disk(d["r0"])
    return ConnectionSpec.tabulated(d["table"])


def params_to_dict(params: ModelParams) -> dict:
    return {
        "rho": params.rho,
        "connection": connection_to_dict(params.connection),
        "anchor_distance": params.anchor_distance,
        "k": int(params.k),
        "margin": params.margin,
    }


def params_from_dict(d: dict) -> ModelParams:
    if not isinstance(d, dict):
        raise ValidationError(f"expected a JSON object, got {d!r}")
    _reject_unknown_keys(d, [f.name for f in fields(ModelParams)], "grid point")
    return ModelParams(
        rho=d["rho"],
        connection=connection_from_dict(d["connection"]),
        anchor_distance=d["anchor_distance"],
        k=d["k"],
        margin=d.get("margin"),
    )


def config_to_dict(config: ExperimentConfig) -> dict:
    """JSON form of a config: one key per :class:`ExperimentConfig` field."""
    out = {f.name: getattr(config, f.name) for f in fields(ExperimentConfig)}
    out.update(
        params_grid=[params_to_dict(p) for p in config.params_grid],
        replications=int(config.replications),
        seed=int(config.seed),
        bracket_orders=list(config.bracket_orders),
    )
    return out


def _has_type(value, kind) -> bool:
    # JSON true/false are Python bools, which are ints too
    if kind is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, kind)


def config_from_dict(d: dict) -> ExperimentConfig:
    """Build a config from its JSON form, rejecting unknown fields and values
    of the wrong type instead of coercing them; every problem found is listed
    in one :class:`ValidationError`.

    The fields, their JSON types and which are required all come from
    :class:`ExperimentConfig`: a field without a default is required, and a
    tuple field arrives as a JSON list.
    """
    if not isinstance(d, dict):
        raise ValidationError(f"invalid experiment config: expected a JSON object, got {type(d).__name__}")
    config_fields = fields(ExperimentConfig)
    hints = get_type_hints(ExperimentConfig)
    problems = [f"unknown field {key!r}" for key in d if key not in hints]
    problems += [
        f"missing required field {f.name!r}" for f in config_fields if f.default is MISSING and f.name not in d
    ]
    for f in config_fields:
        kind = list if get_origin(hints[f.name]) is tuple else hints[f.name]
        if f.name in d and not _has_type(d[f.name], kind):
            problems.append(f"{f.name}: expected {kind.__name__}, got {d[f.name]!r}")
    orders = d.get("bracket_orders")
    if isinstance(orders, list) and not all(_has_type(m, int) for m in orders):
        problems.append(f"bracket_orders: expected integers, got {orders!r}")
    grid = []
    if isinstance(d.get("params_grid"), list):
        for i, p in enumerate(d["params_grid"]):
            try:
                grid.append(params_from_dict(p))
            except KeyError as exc:
                problems.append(f"params_grid[{i}]: missing required field {exc}")
            except (ValidationError, TypeError) as exc:
                problems.append(f"params_grid[{i}]: {exc}")
    if problems:
        raise ValidationError("invalid experiment config: " + "; ".join(problems))
    # fields left out take the dataclass defaults; the config makes tuples
    # of the JSON lists
    return ExperimentConfig(**{**d, "params_grid": grid})


def load_config(path: str) -> ExperimentConfig:
    """The config in the JSON file ``path``; a file that is not UTF-8 JSON
    raises ``ValidationError`` naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"config file {path!r} is not UTF-8 JSON: {exc}") from exc
    return config_from_dict(d)


# ---------------------------------------------------------------------------
# replication engine
# ---------------------------------------------------------------------------


# The replications of a call that share a connection function, k and
# pair-class choice fill blocks of about this many proposals
# (rcmpaths.sampler.mean_draws) between them, or fewer on the pool (see
# _sweep), so a cheap grid point pays no block's fixed numpy cost of its own.
# The block's arrays grow with it; its joins run a bounded number of pairs at
# a time (rcmpaths.paths._JOIN_PAIRS).
_BLOCK_POINTS = 1 << 16

# A sweep call that draws fewer points or proposals than this counts its
# blocks in the calling process.  A point costs more the denser the grid
# point: on a shared 2-vCPU x86 machine (Rayleigh beta = 1, separation 1,
# medians of 9 calls) 8192 points took 3.3 ms to count at k = 3, rho = 1,
# 4.0 ms at k = 5, rho = 0.5 and 11.0 ms at k = 3, rho = 5.  On two workers
# of a started pool the first two broke even near 3 to 4 times as many
# points, and the third was faster from 8192 points (8.1 ms).
_BATCH_POINTS = 1 << 13


def _block_paths(slices, layout):
    """Every k-hop path of a block of replications.

    ``slices`` lists ``(params, seed, first, last)``: replications ``first``
    .. ``last - 1`` of grid points that share one connection function and
    one k, and ``layout`` is their
    :func:`rcmpaths.sampler.slice_replications`.  Returns ``(near, seg,
    inter)``: the edges of the block's non-anchor points to anchor 0 and to
    anchor 1, the block position of each path's replication (non-decreasing;
    the replications of every slice in turn), and k - 1 arrays holding the
    paths' intermediate vertices as rows of the block's points, in order from
    anchor 0: the joins of :func:`rcmpaths.paths.khop_intermediates` over
    the :func:`rcmpaths.sampler.block_points` of the block and its
    ``linked`` pair draws.  k = 1 draws no points: its count is the anchors' own edge
    (:func:`rcmpaths.sampler.anchor_edges`).
    """
    k = int(slices[0][0].k)
    if k == 1:
        return None, np.flatnonzero(anchor_edges(slices, layout)), ()
    _, owner, near, linked = block_points(slices, layout)
    inter = khop_intermediates(k, near, linked, owner, len(layout[0]))
    return near, owner[inter[0]], inter


def _count_block(slices, collect_pairs):
    """The :data:`COLUMNS` of a block of replications, one dict per slice
    ``(params, seed, first, last)`` of ``slices`` (see :func:`_block_paths`):
    the ``counts`` of its replications' paths, and with ``collect_pairs``
    (k = 3) their ``pair_class_counts``.  A failure is re-raised as a
    :class:`ReplicationError` naming each slice that fails when counted
    alone, with its grid seed and its replications, or every slice when
    none does."""
    try:
        layout = slice_replications(slices)
        near, seg, inter = _block_paths(slices, layout)
        ends = layout[3]
        segments = int(ends[-1])
        columns = {"counts": np.bincount(seg, minlength=segments)}
        if collect_pairs:
            z1, z2 = inter
            # the reverse (z2, z1) shares the middle edge, so it is a path
            # exactly when z2 is adjacent to anchor 0 and z1 to anchor 1
            reversed_too = near[0][z2] & near[1][z1]
            columns["pair_class_counts"] = classify_path_pair_segments(z1, z2, seg, segments, reversed_too)
    except Exception as exc:
        alone = []
        for s in slices if len(slices) > 1 else ():
            try:
                _count_block([s], collect_pairs)
            except ReplicationError:
                alone.append(s)
        where = ", ".join(f"{first}..{last - 1} of {p} (grid seed {seed})" for p, seed, first, last in alone or slices)
        raise ReplicationError(f"failed in replications {where}: {exc!r}") from exc
    return [{name: col[a:b] for name, col in columns.items()} for a, b in zip([0, *ends[:-1]], ends)]


def _points_per_replication(params: ModelParams) -> float:
    """Mean number of proposals one replication draws, with the two
    anchors."""
    return mean_draws(params) + 2.0


def _blocks(tasks, replications: int, budget: float):
    """The blocks that ``replications`` replications of every task
    ``(params, seed, collect_pairs)`` are counted in, each a list of
    ``(task, first, last)``: replications ``first`` .. ``last - 1`` of
    ``tasks[task]``.

    The tasks of each (connection, k, collect_pairs) fill blocks in task
    order, and a block ends at the first replication that takes that
    group's points or proposals so far to a multiple of ``budget`` or past
    it; a task's replications are cut there, and a block holds at least one
    replication.  So each of a group's blocks holds ``budget``, give or take
    a replication, and R >= n replications of one task at a budget of their
    total over n fall into n blocks of R // n or R // n + 1 replications.
    """
    open_blocks = {}
    for t, (params, _, collect_pairs) in enumerate(tasks):
        per_replication = _points_per_replication(params)
        key = (params.connection, int(params.k), collect_pairs)
        block, load, end = open_blocks.get(key, ([], 0.0, budget))
        first = 0
        while first < replications:
            # the replications that take the group's load to the block's end,
            # less a hair, so that rounding in the budget adds none
            need = max(1, math.ceil((end - load) / per_replication - 1e-9))
            last = min(replications, first + need)
            block.append((t, first, last))
            load += (last - first) * per_replication
            if last - first == need:
                yield block
                # the next multiple, past any that one replication spans
                block, end = [], max(end + budget, (load // budget + 1) * budget)
            first = last
        open_blocks[key] = (block, load, end)
    yield from (block for block, _, _ in open_blocks.values() if block)


def _concat(parts):
    return {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}


# the worker pool of this process and its worker count, kept across calls;
# the lock makes calls from several threads take turns with it
_pool: tuple[int, ProcessPoolExecutor] | None = None
_pool_lock = threading.Lock()


def _drop_pool() -> None:
    global _pool
    if _pool is not None:
        _pool[1].shutdown()
        _pool = None


def _pool_map(blocks, threads: int) -> list:
    """:func:`_count_block` of every block ``(slices, collect_pairs)`` on
    the process's pool of ``threads`` workers, started here when there is
    none of that size: one message to a worker per block, handed out as
    workers free up.

    A pool can break while idle (a worker killed, say); the blocks then run
    once more on a fresh pool, which cannot change a result."""
    global _pool
    with _pool_lock:
        for attempt in range(2):
            if _pool is None or _pool[0] != threads:
                _drop_pool()
                _pool = (threads, ProcessPoolExecutor(max_workers=threads))
            try:
                return list(_pool[1].map(_count_block, *zip(*blocks)))
            except BrokenProcessPool as exc:
                _drop_pool()
                if attempt:
                    seeds = sorted({s[1] for slices, _ in blocks for s in slices})
                    raise ReplicationError(f"the worker pool broke twice running grid seeds {seeds}") from exc


def _sweep(tasks, replications: int, threads: int):
    """Run ``replications`` replications of every task ``(params, seed,
    collect_pairs)``; returns the columns of each task's replications (see
    :func:`_count_block`), in task order.

    The call's blocks (:func:`_blocks`) are its only unit of work.  A call
    that draws fewer than ``_BATCH_POINTS`` points or proposals in all, or
    runs at ``threads`` = 1, counts blocks of ``_BLOCK_POINTS`` here, in
    the calling process.  Otherwise it sends the process's worker pool,
    which outlives the call, one message per block, at a budget of its
    total over ``threads`` * n, the least n that keeps it within
    ``_BLOCK_POINTS``: so every worker gets a share, and one grid point
    falls into a multiple of ``threads`` near-equal blocks.  Each
    replication is a pure function of (params, seed, replication index), so
    neither choice nor the cut ever changes a result.
    """
    problems = _int_problems(1, replications=replications, threads=threads)
    for task in tasks:
        problems += _int_problems(0, 64, seed=task[1])
    if problems:
        raise ValidationError("; ".join(problems))
    total = replications * sum(_points_per_replication(task[0]) for task in tasks)
    inline = threads == 1 or total < _BATCH_POINTS
    budget = _BLOCK_POINTS if inline else total / (threads * math.ceil(total / (threads * _BLOCK_POINTS)))
    blocks = list(_blocks(tasks, replications, budget))
    # each block as the slices and pair-class choice of its tasks
    work = [([(*tasks[t][:2], first, last) for t, first, last in block], tasks[block[0][0]][2]) for block in blocks]
    counted = [_count_block(*w) for w in work] if inline else _pool_map(work, threads)
    parts = [[] for _ in tasks]
    for block, columns in zip(blocks, counted):
        for (t, _, _), part in zip(block, columns):
            parts[t].append(part)
    return [_concat(task_parts) for task_parts in parts]


def run_replications(
    params: ModelParams,
    seed: int,
    replications: int,
    collect_pairs: bool = False,
    threads: int = 1,
):
    """Run ``replications`` independent realizations of one grid point.

    Returns ``(counts, pair_classes)``: an int64 array of per-replication
    path counts and, when requested and k = 3, an (R, 5) array of ordered
    pair-class counts in :data:`PAIR_CLASSES` order (else None).  The result
    depends only on (params, seed, replications), never on ``threads``.
    """
    (columns,) = _sweep([(params, seed, collect_pairs and int(params.k) == 3)], replications, threads)
    return columns["counts"], columns.get("pair_class_counts")


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MomentReport:
    """Aggregated statistics for one sweep grid point.

    The fields are in report column order; the raw :data:`COLUMNS`, last,
    are written only with ``dump_raw_counts``.  The summaries reduce a chunk
    of grid points in one pass (:func:`_summaries`): every column of every
    point as rows of one float64 matrix, each row as it would be alone, and
    every bracket from one histogram (:func:`rcmpaths.moments.bracket_rows`).
    Only the references are taken a grid point at a time.
    """

    grid_index: int
    grid_seed: int
    params: ModelParams
    replications: int
    empirical_mean: float
    empirical_mean_se: float | None
    empirical_variance: float | None
    empirical_variance_se: float | None
    empirical_zero_frequency: float
    empirical_zero_frequency_se: float | None
    analytic_mean: float | None
    analytic_variance: float | None
    numeric_mean: float | None
    numeric_variance: float | None
    pair_means: dict | None
    moment_source: str
    quadratic_bound: float
    bonferroni2_bound: float
    existence_brackets: tuple[ExistenceBracket, ...]
    counts: np.ndarray
    pair_class_counts: np.ndarray | None


# Every per-replication column (name, labels, stats), named as a block
# returns it (_count_block): its raw int64 array, (R,) or (R, c) with
# sub-column labels, is the MomentReport field name, and each sub-column's
# {"mean": ..., "se": ...} is in the dict field stats, whose CSV columns for
# a field <p>_means are <p>_<label>_mean and _se.  The counts are summarized
# in the empirical_* fields and the brackets instead.
COLUMNS = (("counts", None, None), ("pair_class_counts", PAIR_CLASSES, "pair_means"))
_SUMMARIZED = tuple((name, labels, field) for name, labels, field in COLUMNS if field)
_STATS = ("mean", "se")


def _attach_references(params: ModelParams, config: ExperimentConfig):
    analytic_mean = analytic_variance = None
    spec = params.connection
    closed_form = spec.kind == RAYLEIGH and spec.eta == 2.0
    if closed_form:
        analytic_mean = mean_khop_rayleigh(params)
        if params.k == 3:
            analytic_variance = variance_threehop_rayleigh(params).variance
    numeric_mean = numeric_variance = None
    if config.attach_numeric or not closed_form:
        if params.k == 3:
            # the variance pass gives the mean from its own radial rule
            moments = variance_terms_numeric(params, strict=config.strict_numerics)
            numeric_mean, numeric_variance = moments.mean, moments.variance
        else:
            numeric_mean = mean_khop_numeric(params, strict=config.strict_numerics)
    return analytic_mean, analytic_variance, numeric_mean, numeric_variance


# Summaries take about this many cells of counts, classes and histogram at a
# time (fig-mean-var's pair classes alone are 25 MB at 10000 replications).
_SUMMARY_CELLS = 1 << 17


def _row_moments(rows):
    """Each row's mean and deviations from it, the (n, R) integer ``rows``
    stacked in a C-ordered float64 matrix: numpy sums each row as a lone one."""
    x = np.concatenate(rows, out=np.empty((sum(map(len, rows)), rows[0].shape[1])))
    mean = x.mean(axis=1)
    return mean, x - mean[:, None]


def _summaries(config: ExperimentConfig, seeds, results) -> list[MomentReport]:
    """The :class:`MomentReport` of every grid point of ``config``, from its
    grid seed and its columns of :func:`_sweep`, a chunk of grid points at a
    time (see :class:`MomentReport`)."""
    r = config.replications
    all_counts = np.stack([columns["counts"] for columns in results])
    width = sum(len(labels or "1") for _, labels, _ in COLUMNS)
    step = max(1, _SUMMARY_CELLS // (r * width + int(all_counts.max()) + 1))
    reports = []
    for lo in range(0, len(results), step):
        chunk, counts = results[lo : lo + step], all_counts[lo : lo + step]
        # the count rows, then each sub-column of every point, in table order
        subs = [cols[name].T for name, _, _ in _SUMMARIZED for cols in chunk if name in cols]
        mean, d = _row_moments([counts, *subs])
        zero = (counts == 0).sum(axis=1) / r
        var = se = var_se = zero_se = [None] * len(d)
        if r >= 2:
            var = (d * d).sum(axis=1) / (r - 1)
            se = (np.sqrt(var) / math.sqrt(r)).tolist()
            # one BLAS dot a row, as a lone grid point takes it
            s2 = np.array([row @ row for row in d[: len(chunk)]]) / (r - 1)
            var_s2 = ((d[: len(chunk)] ** 4).mean(axis=1) - (r - 3) / (r - 1) * s2 * s2) / r
            var, var_se = var.tolist(), np.sqrt(np.maximum(var_s2, 0.0)).tolist()
            zero_se = np.sqrt(zero * (1.0 - zero) / r).tolist()
        mean, zero = mean.tolist(), zero.tolist()
        brackets = bracket_rows(counts, config.bracket_orders)
        # the sub-columns' statistics in stacking order (zip stops at a column's last label)
        sub_stats = iter([dict(zip(_STATS, row)) for row in zip(mean[len(chunk) :], se[len(chunk) :])])
        stats = {
            field: [dict(zip(labels, sub_stats)) if name in cols else None for cols in chunk]
            for name, labels, field in _SUMMARIZED
        }
        for i, cols in enumerate(chunk):
            params = config.params_grid[lo + i]
            analytic_mean, analytic_variance, numeric_mean, numeric_variance = _attach_references(params, config)
            source, ref_mean, ref_var = "empirical", mean[i], var[i] or 0.0
            if analytic_mean is not None and analytic_variance is not None:
                source, ref_mean, ref_var = "analytic", analytic_mean, analytic_variance
            elif numeric_mean is not None and numeric_variance is not None:
                source, ref_mean, ref_var = "numeric", numeric_mean, numeric_variance
            reports.append(
                MomentReport(
                    grid_index=lo + i,
                    grid_seed=seeds[lo + i],
                    params=params,
                    replications=r,
                    empirical_mean=mean[i],
                    empirical_mean_se=se[i],
                    empirical_variance=var[i],
                    empirical_variance_se=var_se[i],
                    empirical_zero_frequency=zero[i],
                    empirical_zero_frequency_se=zero_se[i],
                    analytic_mean=analytic_mean,
                    analytic_variance=analytic_variance,
                    numeric_mean=numeric_mean,
                    numeric_variance=numeric_variance,
                    moment_source=source,
                    quadratic_bound=quadratic_existence_bound(ref_mean, ref_var),
                    bonferroni2_bound=bonferroni_bound_order2(ref_mean, ref_var),
                    existence_brackets=brackets[i],
                    **{field: values[i] for field, values in stats.items()},
                    **{name: cols.get(name) for name, _, _ in COLUMNS},
                )
            )
    return reports


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return repr(float(value))


_COLUMN_DOC = """\
# columns:
#   grid_index / grid_seed: sweep position and its derived master seed
#   k, rho, kind, beta, eta, r0, anchor_distance, margin: model parameters
#   empirical_mean, empirical_variance: sample mean / unbiased sample variance of the k-hop path count
#   empirical_*_se: standard errors (the variance se uses the fourth central moment)
#   empirical_zero_frequency: fraction of replications with zero paths
#   analytic_mean = (1/k) * (rho*pi/beta)**(k-1) * exp(-beta*r**2/k)          [rayleigh, eta=2]
#   analytic_variance = analytic_mean
#       + (pi**3*rho**3/beta**3) * (exp(-beta*r**2/2)/4 + exp(-3*beta*r**2/4)/6)
#       + (pi**2*rho**2/(8*beta**2)) * exp(-beta*r**2)                        [rayleigh, eta=2, k=3]
#   numeric_mean / numeric_variance: grid-convolution quadrature of the same integrals (any connection)
#   pair_sigma0/11/12/21/22: per-replication means (and se) of the ordered 3-hop path-pair classes:
#       sigma0 no shared intermediate; sigma11 one shared, same position; sigma12 one shared,
#       opposite positions; sigma21 self-pairs (= path count); sigma22 both intermediates shared
#   moment_source: which mean/variance pair feeds the two bounds below (analytic > numeric > empirical)
#   quadratic_bound = 1 - 2*mean + mean**2 + variance          (raw, unclamped)
#   bonferroni2_bound = 1.5*mean - variance/2 - mean**2/2      (raw, unclamped)
#   zero_partial_sum_m{M} = mean over replications of sum_{i=0..M} (-1)**i * C(count, i)
#   existence_estimate_m{M} = 1 - zero_partial_sum_m{M} (even M: from below; odd M: from above)
"""


# every MomentReport field but the raw per-replication arrays
_REPORT_FIELDS = tuple(f.name for f in fields(MomentReport) if f.name not in {name for name, _, _ in COLUMNS})
_REPORT_PARAMS = ("k", "rho", "kind", "beta", "eta", "r0", "anchor_distance", "margin")
# the ExistenceBracket fields in the CSV, with their column prefixes
_BRACKET_COLUMNS = {"partial_sum": "zero_partial_sum", "existence_estimate": "existence_estimate"}
_LABELS = {field: labels for _, labels, field in _SUMMARIZED}


def _csv_columns(record, names, param_columns):
    """``(column, value)`` for every CSV column of ``record``: its fields
    ``names`` in order, ``params`` as the ``param_columns`` of
    :func:`params_to_dict` with the connection merged in, and each
    :data:`COLUMNS` stats field and ``existence_brackets`` as one column per
    sub-column or bracket and stat."""
    for name in names:
        value = getattr(record, name)
        if name == "params":
            flat = params_to_dict(value)
            flat.update(flat.pop("connection"))
            yield from ((c, flat.get(c)) for c in param_columns)
        elif name in _LABELS:
            for label in _LABELS[name]:
                for stat in _STATS:
                    yield f"{name.removesuffix('means')}{label}_{stat}", None if value is None else value[label][stat]
        elif name == "existence_brackets":
            for b in value:
                for attr, prefix in _BRACKET_COLUMNS.items():
                    yield f"{prefix}_m{b.order}", getattr(b, attr)
        else:
            yield name, value


def _json_record(record, names) -> dict:
    """JSON form of ``record``: one key per field in ``names``."""
    out = {name: getattr(record, name) for name in names}
    out["params"] = params_to_dict(record.params)
    if "existence_brackets" in out:
        out["existence_brackets"] = [vars(b) for b in record.existence_brackets]
    return out


@contextmanager
def _replacing(path: str):
    """Open a temporary file next to ``path`` for writing; when the block
    completes it replaces ``path``, and when the block raises it is removed
    and ``path`` keeps its old content.  An interrupted run therefore never
    leaves a half-written report."""
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_lines(path: str, lines: list[str]) -> None:
    with _replacing(path) as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path: str, payload: dict) -> None:
    with _replacing(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: str, comments: list[str], records, names, param_columns) -> None:
    """``comments``, the first record's column names, and one row per record."""
    rows = [list(_csv_columns(record, names, param_columns)) for record in records]
    lines = [*comments, ",".join(column for column, _ in rows[0])]
    lines += [",".join(_fmt(value) for _, value in row) for row in rows]
    _write_lines(path, lines)


def write_reports_csv(path: str, config: ExperimentConfig, reports: list[MomentReport]) -> None:
    comments = [f"# experiment: {config.name}", f"# master seed: {config.seed}", _COLUMN_DOC.rstrip()]
    _write_csv(path, comments, reports, _REPORT_FIELDS, _REPORT_PARAMS)


def write_reports_json(path: str, config: ExperimentConfig, reports: list[MomentReport]) -> None:
    records = []
    for report in reports:
        records.append(_json_record(report, _REPORT_FIELDS))
        if config.dump_raw_counts:
            raw = {name: getattr(report, name) for name, _, _ in COLUMNS}
            records[-1].update((name, col.tolist()) for name, col in raw.items() if col is not None)
    _write_json(path, {"config": config_to_dict(config), "reports": records})


def write_histogram_csv(path: str, config: ExperimentConfig, reports: list[MomentReport]) -> None:
    """Integer-valued histogram per grid point: (value, frequency) pairs plus
    the reference probability of a Poisson law with the analytic mean."""
    # scipy.stats takes over a second to import; only this writer needs it
    from scipy.stats import poisson as poisson_dist

    lines = [
        f"# experiment: {config.name} (path-count histogram)",
        "# poisson_probability: Poisson pmf with the analytic (else empirical) mean",
        "grid_index,value,frequency,empirical_probability,poisson_probability",
    ]
    for report in reports:
        counts = report.counts
        mu = report.analytic_mean if report.analytic_mean is not None else report.empirical_mean
        freq = np.bincount(counts)
        r = len(counts)
        for value, n in enumerate(freq):
            pois = float(poisson_dist.pmf(value, mu))
            cells = (report.grid_index, value, int(n), n / r, pois)
            lines.append(",".join(_fmt(c) for c in cells))
    _write_lines(path, lines)


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------


def _grid_tasks(config: ExperimentConfig, collect_pairs: bool):
    """The grid seeds of ``config``'s grid points and their :func:`_sweep`
    tasks, which collect pair classes at k = 3 when ``collect_pairs``."""
    seeds = stream_keys(config.seed, np.arange(len(config.params_grid)), STREAM_SUBSEED).tolist()
    return seeds, [(p, seed, collect_pairs and int(p.k) == 3) for p, seed in zip(config.params_grid, seeds)]


def run_experiment(config: ExperimentConfig, threads: int = 1) -> list[MomentReport]:
    """Run every grid point, write ``<name>.csv`` / ``<name>.json`` (and the
    histogram CSV when enabled) into the output directory, and return the
    reports."""
    seeds, tasks = _grid_tasks(config, config.collect_pair_structures)
    reports = _summaries(config, seeds, _sweep(tasks, config.replications, threads))
    # made only now, so a refused or failed sweep leaves no directory behind
    os.makedirs(config.outputs, exist_ok=True)
    base = os.path.join(config.outputs, config.name)
    write_reports_csv(base + ".csv", config, reports)
    write_reports_json(base + ".json", config, reports)
    if config.emit_histograms:
        write_histogram_csv(base + "_histogram.csv", config, reports)
    return reports


# ---------------------------------------------------------------------------
# margin validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarginCheck:
    """Truncation-bias check for one grid point.

    Every k draws the points within k // 2 hops of an anchor in the whole
    plane, with no box for a margin to truncate, so the doubled-margin count
    is the base count, replication by replication, and the shift, a paired
    difference, is exactly zero.  The fields are kept as the margin
    reports' columns.
    """

    grid_index: int
    grid_seed: int
    params: ModelParams
    replications: int
    base_mean: float
    doubled_mean: float
    shift: float
    shift_se: float | None
    flagged: bool


def validate_margin(
    config: ExperimentConfig, replications: int | None = None, threads: int = 1
) -> list[MarginCheck]:
    """The :class:`MarginCheck` of every grid point, from ``replications``
    replications (by default a tenth of the config's, at least 1000),
    counted once: no draw depends on the margin, so every shift is 0 and no
    grid point is flagged."""
    if replications is None:
        replications = max(1000, config.replications // 10)
    seeds, tasks = _grid_tasks(config, False)
    means = _row_moments([np.stack([c["counts"] for c in _sweep(tasks, replications, threads)])])[0].tolist()
    return [
        MarginCheck(
            grid_index=grid_index,
            grid_seed=seed,
            params=params,
            replications=replications,
            base_mean=mean,
            doubled_mean=mean,
            shift=0.0,
            shift_se=0.0 if replications >= 2 else None,
            flagged=False,
        )
        for grid_index, (params, seed, mean) in enumerate(zip(config.params_grid, seeds, means))
    ]


# every MarginCheck field, in column order
_MARGIN_FIELDS = tuple(f.name for f in fields(MarginCheck))
_MARGIN_PARAMS = ("k", "rho", "kind", "anchor_distance", "margin")


def write_margin_csv(path: str, config: ExperimentConfig, checks: list[MarginCheck]) -> None:
    comments = [
        f"# experiment: {config.name} (margin validation)",
        "# shift = doubled-margin mean - base-margin mean from coupled draws; flagged when |shift| > 2 se",
    ]
    _write_csv(path, comments, checks, _MARGIN_FIELDS, _MARGIN_PARAMS)


def write_margin_json(path: str, config: ExperimentConfig, checks: list[MarginCheck]) -> None:
    records = [_json_record(c, _MARGIN_FIELDS) for c in checks]
    _write_json(path, {"config": config_to_dict(config), "checks": records})


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def preset_config(
    name: str,
    outputs: str,
    seed: int = 0,
    replications: int | None = None,
    anchor_distance: float | None = None,
) -> ExperimentConfig:
    """Built-in experiment definitions.

    fig-mean-var      mean/variance sweep over anchor distance at three
                      densities (rho = 0.5, 2, 5; beta = 1; k = 3).
    fig-distribution  path-count histograms at rho = 2 for beta = 0.7, 0.5,
                      0.3, against a Poisson reference with the same mean.
    fig-existence     existence probability and factorial-moment brackets
                      over a density sweep for k = 2, 3 and beta = 1, 1.5.
    ``anchor_distance`` fixes the separation; fig-mean-var sweeps it instead.
    """
    r = 1.0 if anchor_distance is None else anchor_distance
    if name == "fig-mean-var":
        if anchor_distance is not None:
            raise ValidationError(f"anchor_distance: fig-mean-var sweeps it, so it cannot be {anchor_distance!r}")
        grid = [
            ModelParams(rho=rho, connection=ConnectionSpec.rayleigh(beta=1.0), anchor_distance=i / 4, k=3)
            for rho in (0.5, 2.0, 5.0)
            for i in range(0, 21)
        ]
        default_replications, options = 10_000, {}
    elif name == "fig-distribution":
        grid = [
            ModelParams(rho=2.0, connection=ConnectionSpec.rayleigh(beta=beta), anchor_distance=r, k=3)
            for beta in (0.7, 0.5, 0.3)
        ]
        default_replications, options = 100_000, {"collect_pair_structures": False, "emit_histograms": True}
    elif name == "fig-existence":
        grid = [
            ModelParams(rho=i / 10, connection=ConnectionSpec.rayleigh(beta=beta), anchor_distance=r, k=k)
            for k in (2, 3)
            for beta in (1.0, 1.5)
            for i in range(1, 21)
        ]
        default_replications, options = 10_000, {"collect_pair_structures": False}
    else:
        raise ValidationError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    return ExperimentConfig(
        name=name,
        params_grid=grid,
        replications=default_replications if replications is None else replications,
        seed=seed,
        outputs=outputs,
        **options,
    )
