"""Experiment orchestration: seeded replication sweeps, aggregation, reports.

Each sweep grid point gets an independent master seed derived from the
experiment seed and the grid index, and each replication is a pure function
of (grid seed, replication index).  Replications are embarrassingly parallel;
results are always assembled in replication order, so output files are
byte-identical regardless of worker count.

The counter works on blocks of replications of one grid point.  It draws
each replication's points from its own Philox stream, concatenates them, and
makes one vectorised pass per block that hashes only the pair draws a path
can use (see :func:`_block_paths`); the half-path joins that list the paths
are those of :mod:`rcmpaths.paths`, which also count the paths of a realized
graph.  It reduces counts per replication, and pair classes by counting
identities.  A block grows until it holds ``_BLOCK_POINTS`` points, and a
join draws at most about ``rcmpaths.paths._JOIN_PAIRS`` pairs at once, which
bounds memory.  Margin validation uses the same counter, with a mask of the
points inside the base rectangle.  Edge draws are keyed by the vertex pair,
so the lazy counter agrees bit-for-bit with realizing the full adjacency
matrix.  How replications fall into blocks or workers never changes a
result: the reports are byte-identical to one replication at a time.  With
``threads`` > 1 the replication ranges go through one worker pool per
process: it starts on the first such call and serves every later call with
the same worker count, so repeated calls pay for it once.

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
from .errors import ReplicationError, ValidationError
from .model import HARD_DISK, RAYLEIGH, TABULATED, ConnectionSpec, ModelParams
from .moments import (
    ExistenceBracket,
    PathCountSamples,
    bonferroni_bound_order2,
    quadratic_existence_bound,
    truncated_zero_probability,
)
from .paths import PairStructureCounts, classify_path_pair_segments, khop_intermediates
from .rng import derive_subseed, pair_uniforms
from .sampler import connection_probabilities, region_for, sample_conditioned_ppp

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
    ``bracket_orders`` are the truncation orders of the existence brackets.
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
        if not self.params_grid:
            problems.append("params_grid: must contain at least one grid point")
        problems += _int_problems(1, replications=self.replications)
        problems += _int_problems(0, 64, seed=self.seed)
        if any(m < 0 for m in self.bracket_orders):
            problems.append("bracket_orders: orders must be >= 0")
        if problems:
            raise ValidationError("invalid experiment config: " + "; ".join(problems))
        object.__setattr__(self, "params_grid", tuple(self.params_grid))
        object.__setattr__(self, "bracket_orders", tuple(int(m) for m in self.bracket_orders))


def _int_problems(low: int, bits: int | None = None, **values) -> list[str]:
    """One problem line for each named value that is not an integer >= low
    or, when ``bits`` is given, not below 2**bits.  Seeds and replication
    indices are folded as 64-bit words, where a negative or larger value
    would alias another, so they take ``bits = 64``."""
    wanted = f">= {low}" if bits is None else f"in [{low}, 2**{bits})"
    return [
        f"{name}: must be an integer {wanted}, got {value!r}"
        for name, value in values.items()
        if not isinstance(value, (int, np.integer))
        or isinstance(value, bool)
        or value < low
        or (bits is not None and value >= 1 << bits)
    ]


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
            except (ValidationError, TypeError, AttributeError) as exc:
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


# A block of replications is drawn until it holds this many points; the
# block's arrays, and so the counter's working memory, grow with it.
_BLOCK_POINTS = 1 << 16


def _block_paths(params: ModelParams, seed: int, first: int, pts: list[np.ndarray]):
    """Every k-hop path of a block of replications of one grid point.

    ``pts[b]`` is the point set of replication ``first + b``.  Returns
    ``(xy, seg, inter)``: the concatenated non-anchor points, the block
    position of each path's replication (non-decreasing), and k - 1 arrays
    holding the paths' intermediate vertices as rows of ``xy``, in order from
    anchor 0.  The paths are the half-path joins of
    :func:`rcmpaths.paths.khop_intermediates`, and the edges they read are
    drawn here.  Only the pair draws a path can use are made: the two
    anchor rows, each half-path's last vertex with the other points of its
    replication (k >= 4), and the joining pairs.  Edge draws are keyed by the
    vertex pair, so the paths are exactly those of each replication's full
    realization.
    """
    spec, k = params.connection, int(params.k)
    reps = np.arange(first, first + len(pts))
    # every replication has its anchors where the first one has them, and
    # both on the x axis (y0 == y1)
    (x0, y0), (x1, y1) = pts[0][0], pts[0][1]
    if k == 1:
        dx, dy = x0 - x1, y0 - y1
        prob = connection_probabilities(spec, np.float64(dx * dx + dy * dy))
        return np.empty((0, 2)), np.flatnonzero(pair_uniforms(seed, reps, 0, 1) < prob), ()
    # a k-hop path needs k - 1 points besides the anchors
    others = [p[2:] if len(p) > k else p[:0] for p in pts]
    sizes = np.array([len(o) for o in others])
    xy = np.concatenate(others)
    seg_of = np.repeat(np.arange(len(pts)), sizes)
    rep_of = reps[seg_of]
    # vertex index within its replication: anchors are 0 and 1
    local = np.arange(2, len(xy) + 2) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    x, y = xy[:, 0], xy[:, 1]
    yy = (y - y0) * (y - y0)
    near = []
    for anchor, ax in ((0, x0), (1, x1)):
        probs = connection_probabilities(spec, (x - ax) * (x - ax) + yy)
        near.append(pair_uniforms(seed, rep_of, anchor, local) < probs)

    def linked(u, v):
        d = xy[u] - xy[v]
        probs = connection_probabilities(spec, d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
        return pair_uniforms(seed, rep_of[u], local[u], local[v]) < probs

    inter = khop_intermediates(k, near, linked, seg_of, len(pts))
    return xy, seg_of[inter[0]], inter


def _count_block(params, seed, first, pts, collect_pairs, inside):
    """Path counts of a block of replications, plus the pair classes when
    ``collect_pairs`` (k = 3) and, when ``inside`` is a Region, the counts of
    the paths whose intermediates all lie in it (else None)."""
    xy, seg, inter = _block_paths(params, seed, first, pts)
    counts = np.bincount(seg, minlength=len(pts))
    classes = classify_path_pair_segments(*inter, seg, len(pts)) if collect_pairs else None
    kept_counts = None
    if inside is not None:
        keep = np.ones(len(seg), dtype=bool)
        for z in inter:
            keep &= inside.contains(xy[z, 0], xy[z, 1])
        kept_counts = np.bincount(seg[keep], minlength=len(pts))
    return counts, classes, kept_counts


def _count_range(job):
    """:func:`_count_block` over replications ``lo`` .. ``hi - 1`` of one grid
    point, drawn in blocks of about ``_BLOCK_POINTS`` points.  A failure is
    re-raised as a :class:`ReplicationError` naming the grid point, its seed
    and the failing block's replications."""
    params, seed, lo, hi, collect_pairs, inside = job
    # k = 1 uses only the anchors, which every replication has at the same place
    anchors = np.array([[0.0, 0.0], [params.anchor_distance, 0.0]]) if int(params.k) == 1 else None
    parts = []
    first = rep = lo
    try:
        while rep < hi:
            first, pts, drawn = rep, [], 0
            while rep < hi and drawn < _BLOCK_POINTS:
                rep += 1
                pts.append(sample_conditioned_ppp(params, seed, rep - 1) if anchors is None else anchors)
                drawn += len(pts[-1])
            parts.append(_count_block(params, seed, first, pts, collect_pairs, inside))
    except Exception as exc:
        raise ReplicationError(
            f"{params} (grid seed {seed}) failed in replications {first}..{rep - 1}: {exc!r}"
        ) from exc
    return _concat(parts)


def _concat(parts):
    return tuple(None if col[0] is None else np.concatenate(col) for col in zip(*parts))


def _chunk_ranges(total: int, parts: int) -> list[tuple[int, int]]:
    parts = max(1, min(parts, total))
    size = total // parts
    extra = total % parts
    ranges, lo = [], 0
    for i in range(parts):
        hi = lo + size + (1 if i < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


# the worker pool of this process and its worker count, kept across calls;
# the lock makes calls from several threads take turns with it
_pool: tuple[int, ProcessPoolExecutor] | None = None
_pool_lock = threading.Lock()


def _drop_pool() -> None:
    global _pool
    if _pool is not None:
        _pool[1].shutdown()
        _pool = None


def _pool_map(jobs, threads: int) -> list:
    """``_count_range`` of every job on the process's pool of ``threads``
    workers, started here when there is none of that size.

    A pool can break while idle (a worker killed, say); the jobs then run
    once more on a fresh pool, which cannot change a result."""
    global _pool
    with _pool_lock:
        for attempt in range(2):
            if _pool is None or _pool[0] != threads:
                _drop_pool()
                _pool = (threads, ProcessPoolExecutor(max_workers=threads))
            try:
                return list(_pool[1].map(_count_range, jobs))
            except BrokenProcessPool as exc:
                _drop_pool()
                if attempt:
                    seeds = sorted({job[1] for job in jobs})
                    raise ReplicationError(f"the worker pool broke twice running grid seeds {seeds}") from exc


def _sweep(tasks, replications: int, threads: int):
    """Run ``replications`` replications of every task ``(params, seed,
    collect_pairs, inside)``; returns one ``(counts, classes, kept_counts)``
    per task, in task order.

    With ``threads`` > 1, every task's replication ranges go through the
    process's worker pool, which outlives the call.  Each replication is a
    pure function of (params, seed, replication index), so the split never
    changes a result.
    """
    problems = _int_problems(1, replications=replications, threads=threads)
    if problems:
        raise ValidationError("; ".join(problems))
    ranges = _chunk_ranges(replications, 1 if threads == 1 else -(-threads * 4 // len(tasks)))
    jobs = [
        (params, seed, lo, hi, collect, inside)
        for params, seed, collect, inside in tasks
        for lo, hi in ranges
    ]
    if threads == 1:
        results = [_count_range(job) for job in jobs]
    else:
        results = _pool_map(jobs, threads)
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
            # the variance pass reads the mean off its own convolution chain
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
        pair_means = {}
        for col, name in enumerate(PAIR_CLASSES):
            vals = pair_classes[:, col].astype(float)
            pair_means[name] = {"mean": float(vals.mean()), "se": _mean_se(vals)}

    samples = PathCountSamples(k=int(params.k), counts=counts, params=params, seed=grid_seed)
    brackets = tuple(truncated_zero_probability(samples, m) for m in config.bracket_orders)

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


def _param_cells(params: ModelParams, columns) -> list[str]:
    spec = params.connection
    is_ray = spec.kind == RAYLEIGH
    values = {
        "k": int(params.k),
        "rho": params.rho,
        "kind": spec.kind,
        "beta": spec.beta if is_ray else None,
        "eta": spec.eta if is_ray else None,
        "r0": spec.r0 if spec.kind == HARD_DISK else None,
        "anchor_distance": params.anchor_distance,
        "margin": params.margin,
    }
    return [_fmt(values[c]) for c in columns]


def _csv_header(names, param_columns, bracket_orders=()) -> list[str]:
    """Column names of a record whose fields, in column order, are ``names``:
    ``params``, ``pair_means`` and ``existence_brackets`` span several
    columns, every other field is one column under its own name."""
    columns = []
    for name in names:
        if name == "params":
            columns += param_columns
        elif name == "pair_means":
            columns += [f"pair_{c}_{stat}" for c in PAIR_CLASSES for stat in _PAIR_STATS]
        elif name == "existence_brackets":
            columns += [f"{prefix}_m{m}" for m in bracket_orders for prefix in _BRACKET_COLUMNS.values()]
        else:
            columns.append(name)
    return columns


def _csv_cells(record, names, param_columns) -> list[str]:
    """The CSV row of ``record``, in the columns of :func:`_csv_header`."""
    cells = []
    for name in names:
        value = getattr(record, name)
        if name == "params":
            cells += _param_cells(value, param_columns)
        elif name == "pair_means":
            cells += [
                _fmt(None if value is None else value[c][stat]) for c in PAIR_CLASSES for stat in _PAIR_STATS
            ]
        elif name == "existence_brackets":
            cells += [_fmt(getattr(b, attr)) for b in value for attr in _BRACKET_COLUMNS]
        else:
            cells.append(_fmt(value))
    return cells


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


def write_reports_csv(path: str, config: ExperimentConfig, reports: list[MomentReport]) -> None:
    lines = [f"# experiment: {config.name}", f"# master seed: {config.seed}", _COLUMN_DOC.rstrip()]
    lines.append(",".join(_csv_header(_REPORT_FIELDS, _REPORT_PARAMS, config.bracket_orders)))
    lines += [",".join(_csv_cells(r, _REPORT_FIELDS, _REPORT_PARAMS)) for r in reports]
    _write_lines(path, lines)


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
    difference: exactly zero whenever no path uses an outer point.
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
    tasks = [
        (replace(params, margin=2.0 * params.margin), seed, False, region_for(params))
        for params, seed in zip(config.params_grid, seeds)
    ]
    checks = []
    for grid_index, (params, seed, (big, _, small)) in enumerate(
        zip(config.params_grid, seeds, _sweep(tasks, replications, threads))
    ):
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
    lines = [
        f"# experiment: {config.name} (margin validation)",
        "# shift = doubled-margin mean - base-margin mean from coupled draws; flagged when |shift| > 2 se",
        ",".join(_csv_header(_MARGIN_FIELDS, _MARGIN_PARAMS)),
    ]
    lines += [",".join(_csv_cells(c, _MARGIN_FIELDS, _MARGIN_PARAMS)) for c in checks]
    _write_lines(path, lines)


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
    """
    r = 1.0 if anchor_distance is None else anchor_distance
    if name == "fig-mean-var":
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
