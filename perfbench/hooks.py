"""Per-layer timing of rcmpaths from outside the package.

Each hook replaces, for the length of one traced sweep, a module-level name
that a layer is called through (``rcmpaths.experiments.pair_uniforms`` and
``rcmpaths.sampler.pair_uniforms`` both feed ``rng.pair_uniforms``).  A
layer's self time is the time inside its calls minus the time inside wrapped
calls nested in them; the wrappers' own bookkeeping is charged to neither, so
it shows only in ``trace_overhead_s``.  Work counts are computed from call
arguments and results.  Wrappers see only the process they run in.
"""
from __future__ import annotations

import math
import os
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from rcmpaths import analytics, experiments, sampler
from rcmpaths.analytics import QuadratureSpec


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _pairs_drawn(args, kwargs, result):
    return {"rng.pair_uniforms.pairs": np.size(result)}


def _points_drawn(args, kwargs, result):
    return {"sampler.sample_conditioned_ppp.points": len(result) - 2}


def _pairs_evaluated(args, kwargs, result):
    return {"model.connection.pairs": np.size(_arg(args, kwargs, 1, "sq_dists"))}


def _ordered_pairs(args, kwargs, result):
    m = len(_arg(args, kwargs, 0, "pairs"))
    return {"paths.classify_path_pairs.paths": m, "paths.classify_path_pairs.ordered_pairs": m * m}


def _graph_pairs(args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "points"))
    return {"sampler.realize_graph.pairs": n * (n - 1) // 2}


def _paths_found(args, kwargs, result):
    return {"paths.count_khop_paths.paths_found": result.count}


def _bracket_terms(args, kwargs, result):
    counts = _arg(args, kwargs, 0, "samples").counts
    m = _arg(args, kwargs, 1, "m")
    return {"moments.truncated_zero_probability.terms": int(np.minimum(counts, m).sum()) + len(counts)}


def _grid_cells(args, kwargs, result):
    """Cells of the square kernel grid the quadrature convolves on."""
    params = _arg(args, kwargs, 0, "params")
    quad = args[1] if len(args) > 1 else kwargs.get("quad")
    quad = quad or QuadratureSpec.default_for(params)
    r, step = params.anchor_distance, quad.grid_step
    s = step if r < step / 2.0 else r / round(r / step)
    m = math.ceil(quad.grid_extent / s - 1e-9)
    return {"analytics.grid_cells": (2 * m + 1) ** 2}


def _bytes_written(args, kwargs, result):
    return {"experiments.writers.bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


# (module, attribute, layer, time key, work counter)
HOOKS = (
    (experiments, "pair_uniforms", "rng.pair_uniforms", "self_s", _pairs_drawn),
    (sampler, "pair_uniforms", "rng.pair_uniforms", "self_s", _pairs_drawn),
    (experiments, "sample_conditioned_ppp", "sampler.sample_conditioned_ppp", "self_s", _points_drawn),
    (experiments, "connection_probabilities", "model.connection", "self_s", _pairs_evaluated),
    (sampler, "connection_probabilities", "model.connection", "self_s", _pairs_evaluated),
    (experiments, "run_replications", "experiments.run_replications", "self_s", None),
    (experiments, "classify_path_pairs", "paths.classify_path_pairs", "self_s", _ordered_pairs),
    (experiments, "realize_graph", "sampler.realize_graph", "self_s", _graph_pairs),
    (experiments, "count_khop_paths", "paths.count_khop_paths", "self_s", _paths_found),
    (experiments, "truncated_zero_probability", "moments.truncated_zero_probability", "self_s", _bracket_terms),
    (experiments, "mean_khop_numeric", "analytics.mean_khop_numeric", "self_s", _grid_cells),
    (analytics, "mean_khop_numeric", "analytics.mean_khop_numeric", "self_s", _grid_cells),
    (experiments, "variance_terms_numeric", "analytics.variance_terms_numeric", "self_s", _grid_cells),
    (experiments, "summarize_grid_point", "experiments.summarize_grid_point", "self_s", None),
    (experiments, "validate_margin", "experiments.validate_margin", "self_s", None),
    (experiments, "run_experiment", "experiments.run_experiment", "self_s", None),
    (experiments, "write_reports_csv", "experiments.writers", "s", _bytes_written),
    (experiments, "write_reports_json", "experiments.writers", "s", _bytes_written),
    (experiments, "write_histogram_csv", "experiments.writers", "s", _bytes_written),
    (experiments, "write_margin_csv", "experiments.writers", "s", _bytes_written),
    (experiments, "write_margin_json", "experiments.writers", "s", _bytes_written),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _, _ in HOOKS))

# every per-layer metric a traced run reports, with its unit, in table order
METRICS = (
    ("rng.pair_uniforms.calls", "count"),
    ("rng.pair_uniforms.pairs", "count"),
    ("rng.pair_uniforms.self_s", "s"),
    ("sampler.sample_conditioned_ppp.calls", "count"),
    ("sampler.sample_conditioned_ppp.points", "count"),
    ("sampler.sample_conditioned_ppp.self_s", "s"),
    ("model.connection.calls", "count"),
    ("model.connection.pairs", "count"),
    ("model.connection.self_s", "s"),
    ("experiments.run_replications.calls", "count"),
    ("experiments.run_replications.self_s", "s"),
    ("paths.classify_path_pairs.calls", "count"),
    ("paths.classify_path_pairs.paths", "count"),
    ("paths.classify_path_pairs.ordered_pairs", "count"),
    ("paths.classify_path_pairs.self_s", "s"),
    ("sampler.realize_graph.calls", "count"),
    ("sampler.realize_graph.pairs", "count"),
    ("sampler.realize_graph.self_s", "s"),
    ("paths.count_khop_paths.calls", "count"),
    ("paths.count_khop_paths.paths_found", "count"),
    ("paths.count_khop_paths.self_s", "s"),
    ("moments.truncated_zero_probability.calls", "count"),
    ("moments.truncated_zero_probability.terms", "count"),
    ("moments.truncated_zero_probability.self_s", "s"),
    ("analytics.mean_khop_numeric.calls", "count"),
    ("analytics.mean_khop_numeric.self_s", "s"),
    ("analytics.variance_terms_numeric.calls", "count"),
    ("analytics.variance_terms_numeric.self_s", "s"),
    ("analytics.grid_cells", "count"),
    ("experiments.pool.starts", "count"),
    ("experiments.pool.s", "s"),
    ("experiments.summarize_grid_point.calls", "count"),
    ("experiments.summarize_grid_point.self_s", "s"),
    ("experiments.validate_margin.calls", "count"),
    ("experiments.validate_margin.self_s", "s"),
    ("experiments.run_experiment.calls", "count"),
    ("experiments.run_experiment.self_s", "s"),
    ("experiments.writers.calls", "count"),
    ("experiments.writers.s", "s"),
    ("experiments.writers.bytes", "bytes"),
    ("trace_overhead_s", "s"),
)


class Tracer:
    """Installs the layer hooks and accumulates their counts and times."""

    def __init__(self) -> None:
        self.stats: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, orig, layer, time_key, work):
        stats, stack = self.stats, self._stack
        calls_key, time_name = f"{layer}.calls", f"{layer}.{time_key}"

        def wrapper(*args, **kwargs):
            enter = time.perf_counter()
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                nested = stack.pop()
            stats[calls_key] += 1
            stats[time_name] += (t1 - t0) - nested
            if work is not None:
                for key, value in work(args, kwargs, result).items():
                    stats[key] += value
            if stack:
                stack[-1] += time.perf_counter() - enter
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every hooked name; a name that no longer exists is recorded
        in ``missing`` and its layer reads zero calls."""
        for module, attr, layer, time_key, work in HOOKS:
            if not hasattr(module, attr):
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self._wrap(orig, layer, time_key, work))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)


class PoolCounter:
    """Counts the worker pools a sweep starts and how long they stay open."""

    def __init__(self) -> None:
        self.stats = {"experiments.pool.starts": 0, "experiments.pool.s": 0.0}
        self._orig = None

    def install(self) -> None:
        stats = self.stats

        class TimedPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                stats["experiments.pool.starts"] += 1
                self._opened = time.perf_counter()
                super().__init__(*args, **kwargs)

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                stats["experiments.pool.s"] += time.perf_counter() - self._opened

        self._orig = experiments.ProcessPoolExecutor
        experiments.ProcessPoolExecutor = TimedPool

    def uninstall(self) -> None:
        if self._orig is not None:
            experiments.ProcessPoolExecutor = self._orig
            self._orig = None


def silent_layers(stats) -> list[str]:
    """Layers whose hooks never fired."""
    return [layer for layer in LAYERS if not stats.get(f"{layer}.calls")]
