"""Experiment orchestration: seeded replication sweeps, aggregation, reports.

Each sweep grid point gets an independent master seed derived from the
experiment seed and the grid index, and each replication is a pure function
of (grid seed, replication index).  Replications are embarrassingly parallel;
results are always assembled in replication order, so output files are
byte-identical regardless of worker count.

The counter works on blocks of replications, and a block may span several
grid points that share one connection function and one k: each block is a
list of slices, replications ``first`` .. ``last - 1`` of one grid point,
and its segments are the (grid point, replication) pairs.  One entry,
:func:`_count_batch`, counts a list of jobs, in the calling process and in
every pool worker alike: a job that draws fewer than ``_MERGE_POINTS``
points shares its blocks with the other such jobs of its connection and
k, and a larger one is cut into blocks of its own of about
``_BLOCK_POINTS`` points.  A cheap grid point thus pays no block's fixed
numpy cost of its own.  What a replication draws, its points and every
edge, is decided by the sampler alone: one call,
:func:`rcmpaths.sampler.block_points`, draws a whole block, for every k but
1, and returns its non-anchor points with their edges to the anchors and a
callback that draws the edge of any pair of points; k = 1 draws no points,
only the anchors' own edge (:func:`rcmpaths.sampler.anchor_edges`).  Every
variate is a keyed hash of the grid seed, the replication and the variate
or vertex pair, so the draw, like everything else, is one vectorised pass
per block, hashing only the pair draws a path can use (see
:func:`_block_paths`), and the lazy counter finds exactly the paths of
:func:`rcmpaths.sampler.sample_realization`.  The half-path joins that
list the paths are those of :mod:`rcmpaths.paths`, which also count the
paths of a realized graph.  It reduces counts per segment, and pair classes
by counting identities, and splits them back per grid point.  A join draws
at most about ``rcmpaths.paths._JOIN_PAIRS`` pairs at once, which with the
block sizes bounds memory.  Margin validation uses the same counter, with a
mask of the points inside each grid point's base rectangle (k >= 4; k <= 3
has no box).  How replications and grid points fall into blocks or workers
never changes a result: the reports are byte-identical to one replication
at a time.  A call that draws less than one batch (``_BATCH_POINTS``
points) counts in the calling process whatever ``threads`` says: starting
the workers on it would cost more than they save.  With ``threads`` > 1 a
larger call's replication ranges go through one worker pool per process: it
starts on the first such call and serves every later call with the same
worker count, so repeated calls pay for it once.  A call sends the pool its
jobs in batches, one per worker when the call is cheap, so the messages to
the workers do not outweigh the counting.

Every file format follows a dataclass.  The fields of :class:`MomentReport`
and :class:`MarginCheck`, in order, are the CSV columns and the JSON keys of
their reports; ``params``, ``pair_means`` and ``existence_brackets`` span
several CSV columns.  The config JSON has one key per field of
:class:`ExperimentConfig`, and a field without a default is required.  Each
file is written to a temporary file in its directory and then moved over the
target, so an interrupted run leaves the previous file or the complete new
one, never a partial one.
"""
from __future__ import annotations

import heapq
import json
import math
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, replace
from typing import get_origin, get_type_hints

import numpy as np

from .analytics import (
    mean_khop_numeric,
    mean_khop_rayleigh,
    variance_terms_numeric,
    variance_threehop_rayleigh,
)
from .errors import ReplicationError, ValidationError, _int_problems
from .model import HARD_DISK, RAYLEIGH, TABULATED, ConnectionSpec, ModelParams, region_for
from .moments import (
    ExistenceBracket,
    PathCountSamples,
    bonferroni_bound_order2,
    existence_brackets,
    quadratic_existence_bound,
)
from .paths import PairStructureCounts, classify_path_pair_segments, khop_intermediates
from .rng import derive_subseed
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
        elif self.name in (".", "..") or any(sep and sep in self.name for sep in ("/", os.sep, os.altsep)):
            problems.append(f"name: must be a plain file name, got {self.name!r}")
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
    if kind not in _CONNECTION_KEYS:
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
    with open(path, encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# replication engine
# ---------------------------------------------------------------------------


# A block of replications holds about this many points or neighbour
# proposals (rcmpaths.sampler.mean_draws) on average; the block's arrays,
# and so the counter's working memory, grow with it.
_BLOCK_POINTS = 1 << 16

# A job that draws fewer points or proposals than this shares its blocks
# with the other such jobs of its batch that have its connection function,
# k and pair-class choice, up to this many points a block.  Each block
# costs about 0.5 ms of numpy calls whatever its size, more than 20
# replications of a cheap grid point take.  A larger budget saved little
# more and raised the peak memory of the joins: at 2048 points the 21-point
# rho = 5, k = 3 call of 20 replications peaked at 2.8 MiB against 1.0 MiB
# (BENCH_15.json holds the measured curve).
_MERGE_POINTS = 1 << 10

# A sweep call sends the pool one batch of jobs per this many points or
# proposals, and at least one batch per worker; a call that draws fewer
# counts in the calling process.  A point costs more the denser the grid
# point: on a shared 2-vCPU x86 machine (Rayleigh beta = 1, separation 1,
# medians of 9 calls) one batch took 3.3 ms to count at k = 3, rho = 1,
# 4.0 ms at k = 5, rho = 0.5 and 11.0 ms at k = 3, rho = 5.  On two workers
# of a started pool the first two broke even near 3 to 4 batches, and the
# third was faster from one batch (8.1 ms).
_BATCH_POINTS = 1 << 13


def _block_paths(slices, layout):
    """Every k-hop path of a block of replications.

    ``slices`` lists ``(params, seed, first, last)``: replications ``first``
    .. ``last - 1`` of grid points that share one connection function and
    one k, and ``layout`` is their
    :func:`rcmpaths.sampler.slice_replications`.  Returns ``(xy, near, seg,
    inter)``: the block's non-anchor points, their edges to anchor 0 and to
    anchor 1, the block position of each path's replication (non-decreasing;
    the replications of every slice in turn), and k - 1 arrays holding the
    paths' intermediate vertices as rows of ``xy``, in order from anchor 0:
    the joins of :func:`rcmpaths.paths.khop_intermediates` over the
    :func:`rcmpaths.sampler.block_points` of the block and its ``linked``
    pair draws.  k = 1 draws no points: its count is the anchors' own edge
    (:func:`rcmpaths.sampler.anchor_edges`).
    """
    k = int(slices[0][0].k)
    if k == 1:
        return np.empty((0, 2)), None, np.flatnonzero(anchor_edges(slices, layout)), ()
    xy, owner, near, linked = block_points(slices, layout)
    inter = khop_intermediates(k, near, linked, owner, len(layout[0]))
    return xy, near, owner[inter[0]], inter


def _count_block(slices, collect_pairs, insides):
    """Path counts of a block of replications, one ``(counts, classes,
    kept_counts)`` per slice ``(params, seed, first, last)`` of ``slices``
    (see :func:`_block_paths`): the counts of its replications, their pair
    classes when ``collect_pairs`` (k = 3), and, when the slice's entry of
    ``insides`` is a Region, the counts of the paths whose intermediates all
    lie in it (else None)."""
    layout = slice_replications(slices)
    xy, near, seg, inter = _block_paths(slices, layout)
    ends = layout[3]
    segments = int(ends[-1])
    # slice s holds the segments edges[s] .. edges[s + 1] - 1, and its paths are a run of seg
    edges = np.concatenate(([0], ends))
    bounds = np.searchsorted(seg, edges).tolist()
    counts = np.split(np.bincount(seg, minlength=segments), ends[:-1])
    classes = [None] * len(slices)
    if collect_pairs:
        z1, z2 = inter
        # the reverse (z2, z1) shares the middle edge, so it is a path
        # exactly when z2 is adjacent to anchor 0 and z1 to anchor 1
        reversed_too = near[0][z2] & near[1][z1]
        classes = np.split(classify_path_pair_segments(z1, z2, seg, segments, reversed_too), ends[:-1])
    kept_counts = [None] * len(slices)
    for s, inside in enumerate(insides):
        if inside is not None:
            lo, hi = bounds[s], bounds[s + 1]
            keep = np.ones(hi - lo, dtype=bool)
            for z in inter:
                keep &= inside.contains(xy[z[lo:hi], 0], xy[z[lo:hi], 1])
            kept_counts[s] = np.bincount(seg[lo:hi][keep] - edges[s], minlength=edges[s + 1] - edges[s])
    return list(zip(counts, classes, kept_counts))


def _points_per_replication(params: ModelParams) -> float:
    """Mean number of points or proposals one replication draws, with the
    two anchors."""
    return mean_draws(params) + 2.0


def _blocks(jobs):
    """The blocks a batch of jobs is counted in, each a list of ``(job,
    first, last)``: replications ``first`` .. ``last - 1`` of ``jobs[job]``.

    A job that draws ``_MERGE_POINTS`` or more points keeps blocks of its
    own, of about ``_BLOCK_POINTS`` points or proposals each.  The smaller
    jobs of each (connection, k, collect_pairs) share blocks, in job order,
    each of at most ``_MERGE_POINTS`` points.
    """
    shared = {}
    for j, (params, _, lo, hi, collect_pairs, _) in enumerate(jobs):
        per_replication = _points_per_replication(params)
        points = (hi - lo) * per_replication
        if points >= _MERGE_POINTS:
            step = max(1, int(_BLOCK_POINTS // per_replication))
            for first in range(lo, hi, step):
                yield [(j, first, min(first + step, hi))]
            continue
        key = (params.connection, int(params.k), collect_pairs)
        block, load = shared.get(key, ([], 0.0))
        if block and load + points > _MERGE_POINTS:
            yield block
            block, load = [], 0.0
        shared[key] = ([*block, (j, lo, hi)], load + points)
    for block, _ in shared.values():
        yield block


def _count_batch(jobs) -> list:
    """Count every job ``(params, seed, lo, hi, collect_pairs, inside)``:
    replications ``lo`` .. ``hi - 1`` of one grid point, in the blocks of
    :func:`_blocks`.  Returns one ``(counts, classes, kept_counts)`` per job,
    in job order (see :func:`_count_block`).  A failure is re-raised as a
    :class:`ReplicationError` naming every grid point of the failing block,
    with its grid seed and its replications there."""
    parts = [[] for _ in jobs]
    for block in _blocks(jobs):
        slices = [(jobs[j][0], jobs[j][1], first, last) for j, first, last in block]
        # the jobs of a block share collect_pairs
        collect_pairs = jobs[block[0][0]][4]
        try:
            counted = _count_block(slices, collect_pairs, [jobs[j][5] for j, _, _ in block])
        except Exception as exc:
            where = ", ".join(
                f"{first}..{last - 1} of {params} (grid seed {seed})" for params, seed, first, last in slices
            )
            raise ReplicationError(f"failed in replications {where}: {exc!r}") from exc
        for (j, _, _), part in zip(block, counted):
            parts[j].append(part)
    return [_concat(job_parts) for job_parts in parts]


def _concat(parts):
    return tuple(None if col[0] is None else np.concatenate(col) for col in zip(*parts))


# the worker pool of this process and its worker count, kept across calls;
# the lock makes calls from several threads take turns with it
_pool: tuple[int, ProcessPoolExecutor] | None = None
_pool_lock = threading.Lock()


def _drop_pool() -> None:
    global _pool
    if _pool is not None:
        _pool[1].shutdown()
        _pool = None


def _deal(points, threads: int) -> list[list[int]]:
    """The indices of jobs that draw ``points[j]`` points each, dealt into
    batches for a pool of ``threads`` workers.

    There is one batch per ``_BATCH_POINTS`` points the jobs draw, at least
    one per worker and at most one per job: a call of a few batches sends
    each worker one message, and a costly one hands its jobs out one at a
    time as workers free up.  Jobs go heaviest first to the batch with the
    fewest points so far, so the batches stay even whatever order the grid
    has.
    """
    count = min(len(points), max(threads, math.ceil(sum(points) / _BATCH_POINTS)))
    batches = [[] for _ in range(count)]
    loads = [(0.0, b) for b in range(count)]
    for j in sorted(range(len(points)), key=lambda j: -points[j]):
        load, b = heapq.heappop(loads)
        batches[b].append(j)
        heapq.heappush(loads, (load + points[j], b))
    return batches


def _pool_map(batches, threads: int) -> list:
    """``_count_batch`` of every batch of jobs on the process's pool of
    ``threads`` workers, started here when there is none of that size: one
    message to a worker per batch.

    A pool can break while idle (a worker killed, say); the batches then run
    once more on a fresh pool, which cannot change a result."""
    global _pool
    with _pool_lock:
        for attempt in range(2):
            if _pool is None or _pool[0] != threads:
                _drop_pool()
                _pool = (threads, ProcessPoolExecutor(max_workers=threads))
            try:
                return list(_pool[1].map(_count_batch, batches))
            except BrokenProcessPool as exc:
                _drop_pool()
                if attempt:
                    seeds = sorted({job[1] for batch in batches for job in batch})
                    raise ReplicationError(f"the worker pool broke twice running grid seeds {seeds}") from exc


def _sweep(tasks, replications: int, threads: int):
    """Run ``replications`` replications of every task ``(params, seed,
    collect_pairs, inside)``; returns one ``(counts, classes, kept_counts)``
    per task, in task order.

    The points every task draws are estimated once.  A call that draws
    less than one batch (``_BATCH_POINTS``) in all, or runs at ``threads``
    = 1, counts each task's replications in one range here, in the calling
    process.  Otherwise every task's replication ranges go through the
    process's worker pool, which outlives the call, in the batches of
    :func:`_deal`.  Each replication is a pure function of (params, seed,
    replication index), so neither choice nor the split ever changes a
    result.
    """
    problems = _int_problems(1, replications=replications, threads=threads)
    for task in tasks:
        problems += _int_problems(0, 64, seed=task[1])
    if problems:
        raise ValidationError("; ".join(problems))
    per_replication = [_points_per_replication(task[0]) for task in tasks]
    inline = threads == 1 or replications * sum(per_replication) < _BATCH_POINTS
    parts = 1 if inline else min(-(-threads * 4 // len(tasks)), replications)
    ranges = [(replications * i // parts, replications * (i + 1) // parts) for i in range(parts)]
    jobs = [
        (params, seed, lo, hi, collect, inside)
        for params, seed, collect, inside in tasks
        for lo, hi in ranges
    ]
    if inline:
        results = _count_batch(jobs)
    else:
        batches = _deal([(hi - lo) * p for p in per_replication for lo, hi in ranges], threads)
        results = [None] * len(jobs)
        counted = _pool_map([[jobs[j] for j in batch] for batch in batches], threads)
        for batch, batch_results in zip(batches, counted):
            for j, result in zip(batch, batch_results):
                results[j] = result
    n = len(ranges)
    return [_concat(results[t * n : (t + 1) * n]) for t in range(len(tasks))]


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
    collect = collect_pairs and int(params.k) == 3
    ((counts, classes, _),) = _sweep([(params, seed, collect, None)], replications, threads)
    return counts, classes


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MomentReport:
    """Aggregated statistics for one sweep grid point.

    The fields are in report column order; ``counts`` and
    ``pair_class_counts`` are written only with ``dump_raw_counts``.
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


def _mean_se(x: np.ndarray) -> float | None:
    if len(x) < 2:
        return None
    return float(x.std(ddof=1) / math.sqrt(len(x)))


def _pair_stats(pair_classes: np.ndarray):
    """Each column's mean and :func:`_mean_se` of the (R, 5) pair classes,
    from one contiguous (5, R) float copy whose rows reduce as lone columns
    do."""
    vals = np.ascontiguousarray(pair_classes.T, dtype=np.float64)
    r = vals.shape[1]
    ses = (vals.std(axis=1, ddof=1) / math.sqrt(r)).tolist() if r >= 2 else [None] * len(vals)
    return vals.mean(axis=1).tolist(), ses


def _variance_se(x: np.ndarray) -> float | None:
    """Standard error of the unbiased sample variance, from the fourth
    central moment (valid for non-normal counts)."""
    r = len(x)
    if r < 2:
        return None
    d = x - x.mean()
    s2 = float(d @ d) / (r - 1)
    m4 = float(np.mean(d**4))
    var_s2 = (m4 - (r - 3) / (r - 1) * s2 * s2) / r
    return math.sqrt(max(var_s2, 0.0))


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


def summarize_grid_point(
    grid_index: int,
    grid_seed: int,
    params: ModelParams,
    config: ExperimentConfig,
    counts: np.ndarray,
    pair_classes: np.ndarray | None,
) -> MomentReport:
    r = len(counts)
    mean = float(counts.mean())
    variance = float(counts.var(ddof=1)) if r >= 2 else None
    zero_freq = float(np.mean(counts == 0))
    zero_se = math.sqrt(zero_freq * (1.0 - zero_freq) / r) if r >= 2 else None

    analytic_mean, analytic_variance, numeric_mean, numeric_variance = _attach_references(
        params, config
    )

    pair_means = None
    if pair_classes is not None:
        means, ses = _pair_stats(pair_classes)
        pair_means = {name: {"mean": m, "se": se} for name, m, se in zip(PAIR_CLASSES, means, ses)}

    samples = PathCountSamples(k=int(params.k), counts=counts)
    brackets = existence_brackets(samples, config.bracket_orders)

    if analytic_mean is not None and analytic_variance is not None:
        source, ref_mean, ref_var = "analytic", analytic_mean, analytic_variance
    elif numeric_mean is not None and numeric_variance is not None:
        source, ref_mean, ref_var = "numeric", numeric_mean, numeric_variance
    else:
        source, ref_mean, ref_var = "empirical", mean, (variance if variance is not None else 0.0)

    return MomentReport(
        grid_index=grid_index,
        grid_seed=grid_seed,
        params=params,
        replications=r,
        empirical_mean=mean,
        empirical_mean_se=_mean_se(counts.astype(float)),
        empirical_variance=variance,
        empirical_variance_se=_variance_se(counts.astype(float)),
        empirical_zero_frequency=zero_freq,
        empirical_zero_frequency_se=zero_se,
        analytic_mean=analytic_mean,
        analytic_variance=analytic_variance,
        numeric_mean=numeric_mean,
        numeric_variance=numeric_variance,
        pair_means=pair_means,
        existence_brackets=brackets,
        moment_source=source,
        quadratic_bound=quadratic_existence_bound(ref_mean, ref_var),
        bonferroni2_bound=bonferroni_bound_order2(ref_mean, ref_var),
        counts=counts,
        pair_class_counts=pair_classes,
    )


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
_REPORT_FIELDS = tuple(f.name for f in fields(MomentReport) if f.name not in ("counts", "pair_class_counts"))
_REPORT_PARAMS = ("k", "rho", "kind", "beta", "eta", "r0", "anchor_distance", "margin")
_PAIR_STATS = ("mean", "se")
# the ExistenceBracket fields in the CSV, with their column prefixes
_BRACKET_COLUMNS = {"partial_sum": "zero_partial_sum", "existence_estimate": "existence_estimate"}


def _csv_columns(record, names, param_columns):
    """``(column, value)`` for every CSV column of ``record``: its fields
    ``names`` in order, ``params`` as the ``param_columns`` of
    :func:`params_to_dict` with the connection merged in, and ``pair_means``
    and ``existence_brackets`` as one column per class or bracket and stat."""
    for name in names:
        value = getattr(record, name)
        if name == "params":
            flat = params_to_dict(value)
            flat.update(flat.pop("connection"))
            yield from ((c, flat.get(c)) for c in param_columns)
        elif name == "pair_means":
            for c in PAIR_CLASSES:
                for stat in _PAIR_STATS:
                    yield f"pair_{c}_{stat}", None if value is None else value[c][stat]
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
            records[-1]["counts"] = report.counts.tolist()
            if report.pair_class_counts is not None:
                records[-1]["pair_class_counts"] = report.pair_class_counts.tolist()
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


def run_experiment(config: ExperimentConfig, threads: int = 1) -> list[MomentReport]:
    """Run every grid point, write ``<name>.csv`` / ``<name>.json`` (and the
    histogram CSV when enabled) into the output directory, and return the
    reports."""
    seeds = [derive_subseed(config.seed, i) for i in range(len(config.params_grid))]
    tasks = [
        (params, seed, config.collect_pair_structures and int(params.k) == 3, None)
        for params, seed in zip(config.params_grid, seeds)
    ]
    results = _sweep(tasks, config.replications, threads)
    reports = [
        summarize_grid_point(grid_index, seed, params, config, counts, pair_classes)
        for grid_index, (params, seed, (counts, pair_classes, _)) in enumerate(
            zip(config.params_grid, seeds, results)
        )
    ]
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

    The doubled-margin realization is sampled once per replication and the
    base-margin statistic is computed from its restriction to the base
    rectangle (a Poisson process restricted to a subregion is again a Poisson
    process, and edges are unchanged).  The shift is therefore a paired
    difference: exactly zero whenever no path uses an outer point.  k <= 3
    draws the anchors' neighbours in the whole plane, with no box, so its
    shift is exactly zero.
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
    """Check that the default box margin introduces no visible truncation bias.

    Runs a subsample of replications with the margin doubled and compares the
    coupled base/doubled means; a grid point is flagged when the paired shift
    exceeds two standard errors.
    """
    if replications is None:
        replications = max(1000, config.replications // 10)
    seeds = [derive_subseed(config.seed, i) for i in range(len(config.params_grid))]
    tasks = []
    for i, (params, seed) in enumerate(zip(config.params_grid, seeds)):
        try:
            doubled = replace(params, margin=2.0 * params.margin)
        except ValidationError as exc:
            raise ValidationError(
                f"params_grid[{i}] {params} with its doubled margin {2.0 * params.margin!r}: {exc}"
            ) from exc
        tasks.append((doubled, seed, False, region_for(params) if params.k >= 4 else None))
    checks = []
    for grid_index, (params, seed, (big, _, small)) in enumerate(
        zip(config.params_grid, seeds, _sweep(tasks, replications, threads))
    ):
        # k <= 3 has no box for the margin to truncate
        small = big if small is None else small
        delta = (big - small).astype(float)
        shift = float(delta.mean())
        shift_se = _mean_se(delta)
        if shift_se is None or shift_se == 0.0:
            flagged = shift != 0.0
        else:
            flagged = abs(shift) > 2.0 * shift_se
        checks.append(
            MarginCheck(
                grid_index=grid_index,
                grid_seed=seed,
                params=params,
                replications=replications,
                base_mean=float(small.mean()),
                doubled_mean=float(big.mean()),
                shift=shift,
                shift_se=shift_se,
                flagged=bool(flagged),
            )
        )
    return checks


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
