import dataclasses
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import CONNECTIONS, classify_path_pairs_oracle, count_khop_paths_oracle
from rcmpaths import cli, experiments, paths, sampler
from rcmpaths.analytics import mean_khop_numeric, variance_terms_numeric
from rcmpaths.cli import main as cli_main
from rcmpaths.errors import ReplicationError, ValidationError
from rcmpaths.experiments import (
    ExperimentConfig,
    _attach_references,
    _count_batch,
    _count_block,
    _fmt,
    _mean_se,
    _pair_stats,
    config_from_dict,
    config_to_dict,
    load_config,
    preset_config,
    run_experiment,
    run_replications,
    validate_margin,
    write_reports_json,
)
from rcmpaths.model import ConnectionSpec, ModelParams
from rcmpaths.paths import iter_khop_paths, khop_paths
from rcmpaths.sampler import realize_graph, region_for, sample_conditioned_ppp, sample_realization

RAY1 = ConnectionSpec.rayleigh(beta=1.0)


def tiny_config(tmp_path, **overrides):
    base = dict(
        name="tiny",
        params_grid=(ModelParams(rho=1.0, connection=RAY1, anchor_distance=1.0, k=3),),
        replications=200,
        seed=5,
        outputs=str(tmp_path),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _assert_refused(tmp_path, capsys, d, problem):
    """``config_from_dict`` refuses ``d`` naming ``problem``, and ``rcmpaths
    run`` on it exits 2 saying so."""
    with pytest.raises(ValidationError) as err:
        config_from_dict(d)
    assert problem in str(err.value)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    assert cli_main(["run", str(path)]) == 2
    assert problem in capsys.readouterr().err


class TestConfig:
    def test_validation_lists_fields(self):
        with pytest.raises(ValidationError, match="replications"):
            ExperimentConfig(
                name="x",
                params_grid=(ModelParams(rho=1.0, connection=RAY1, anchor_distance=1.0, k=3),),
                replications=0,
                seed=1,
                outputs="out",
            )
        with pytest.raises(ValidationError, match="params_grid"):
            ExperimentConfig(name="x", params_grid=(), replications=1, seed=1, outputs="out")

    def test_json_round_trip(self, tmp_path):
        cfg = tiny_config(
            tmp_path,
            params_grid=(
                ModelParams(rho=1.0, connection=RAY1, anchor_distance=1.0, k=3),
                ModelParams(rho=0.5, connection=ConnectionSpec.hard_disk(2.0), anchor_distance=1.0, k=2),
                ModelParams(
                    rho=0.5,
                    connection=ConnectionSpec.tabulated([(0.5, 0.9), (1.0, 0.1)]),
                    anchor_distance=0.5,
                    k=2,
                ),
            ),
        )
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        assert load_config(str(path)) == cfg

    def test_missing_field(self):
        with pytest.raises(ValidationError, match="missing"):
            config_from_dict({"name": "x"})

    def test_dict_keys_are_the_config_fields(self, tmp_path):
        names = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert list(config_to_dict(tiny_config(tmp_path))) == names

    def test_every_field_set_round_trips(self, tmp_path):
        # no field may fall back to its default on the way back
        cfg = ExperimentConfig(
            name="all-set",
            params_grid=(
                ModelParams(rho=0.5, connection=ConnectionSpec.hard_disk(2.0), anchor_distance=1.0, k=2),
            ),
            replications=7,
            seed=99,
            outputs=str(tmp_path / "elsewhere"),
            strict_numerics=True,
            collect_pair_structures=False,
            bracket_orders=(0, 9),
            emit_histograms=True,
            dump_raw_counts=True,
            attach_numeric=True,
        )
        for f in dataclasses.fields(ExperimentConfig):
            if f.default is not dataclasses.MISSING:
                assert getattr(cfg, f.name) != f.default, f.name
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg

    @pytest.mark.parametrize(
        "key, value, problem",
        [
            ("strict_numerics", "false", "strict_numerics: expected bool"),
            ("collect_pair_structures", "no", "collect_pair_structures: expected bool"),
            ("replications", 1.9, "replications: expected int"),
            ("replications", True, "replications: expected int"),
            ("replication", 200, "unknown field 'replication'"),
            ("bracket_orders", [3, 4.5], "bracket_orders: expected integers"),
            ("name", "../escaped", "name: must be a plain file name, got '../escaped'"),
            ("name", "sub/x", "name: must be a plain file name, got 'sub/x'"),
        ],
    )
    def test_rejects_coercible_values(self, tmp_path, capsys, key, value, problem):
        d = config_to_dict(tiny_config(tmp_path / "out"))
        d[key] = value
        _assert_refused(tmp_path, capsys, d, problem)
        # refused before any sweep: no report and no output directory
        assert os.listdir(tmp_path) == ["bad.json"]

    @pytest.mark.parametrize(
        "point, problem",
        [
            ({"margn": 9.0}, "params_grid[0]: unknown grid point field(s) 'margn'"),
            (
                {"connection": {"kind": "hard_disk", "r0": 1.0, "beta": 5}},
                "params_grid[0]: unknown hard_disk connection field(s) 'beta'",
            ),
        ],
    )
    def test_rejects_unknown_grid_point_keys(self, tmp_path, capsys, point, problem):
        d = config_to_dict(tiny_config(tmp_path))
        d["params_grid"][0].update(point)
        _assert_refused(tmp_path, capsys, d, problem)

    @pytest.mark.parametrize(
        "point, problem",
        [
            ({"rho": True}, "rho: must be a positive real, got True"),
            ({"anchor_distance": True}, "anchor_distance: must be a nonnegative real, got True"),
            ({"margin": True}, "margin: must be a positive real, got True"),
            ({"connection": {"kind": "rayleigh", "beta": True}}, "beta: must be a positive real, got True"),
            (
                {"connection": {"kind": "tabulated", "table": [["0.5", "1"], [1.0, 0.5]]}},
                "table[0][0]: must be a nonnegative real, got '0.5'; "
                "table[0][1]: must be a nonnegative real, got '1'",
            ),
            ({"connection": {"kind": "hard_disk", "r0": "1"}}, "r0: must be a positive real, got '1'"),
            (
                {"connection": {"kind": "rayleigh", "beta": 1e-300, "eta": 0.01}},
                "beta, eta: the reach (25/beta)**(1/eta) overflows a float, got beta=1e-300, eta=0.01",
            ),
            (
                {"connection": {"kind": "rayleigh", "beta": 1.0, "eta": 0.01}},
                "rho, connection: the mean number of points of each anchor's cloud must be at most "
                "1.342e+08 to be drawn, got inf",
            ),
            # means above the keyed sampler's Poisson limit, 2**27, though
            # far below numpy's
            (
                {"rho": 5e7},
                "rho, connection: the mean number of points of each anchor's cloud must be at most "
                "1.342e+08 to be drawn, got 157079632.67948964",
            ),
            (
                {"rho": 1e19, "k": 4},
                "rho, anchor_distance, margin: the mean number of points of the box must be at most "
                "1.342e+08 to be drawn, got 3.173205080756887e+21",
            ),
            (
                {"rho": 1e6, "k": 4},
                "rho, anchor_distance, margin: the mean number of points of the box must be at most "
                "1.342e+08 to be drawn, got 317320508.07568866",
            ),
            ({"connection": "x"}, "connection: expected a JSON object, got 'x'"),
            ("abc", "expected a JSON object, got 'abc'"),
        ],
        ids=[
            "rho-true",
            "anchor-true",
            "margin-true",
            "beta-true",
            "table-strings",
            "r0-string",
            "reach-overflow",
            "cloud-overflow",
            "cloud-above-poisson-max",
            "box-draw-too-large",
            "box-above-poisson-max",
            "connection-string",
            "point-string",
        ],
    )
    def test_rejects_non_numbers_and_non_objects(self, tmp_path, capsys, point, problem):
        # Python would compare or convert each of these; the config must not
        d = config_to_dict(tiny_config(tmp_path))
        grid = d["params_grid"]
        grid[0] = point if isinstance(point, str) else {**grid[0], **point}
        _assert_refused(tmp_path, capsys, d, "params_grid[0]: " + problem)

    def test_rejects_non_object(self):
        with pytest.raises(ValidationError, match="JSON object"):
            config_from_dict([{"name": "x"}])

    @pytest.mark.parametrize(
        "orders, problems",
        [
            (
                (2.7, 3, 3),
                [
                    "bracket_orders[0]: must be an integer >= 0, got 2.7",
                    "bracket_orders: orders must be distinct, got [2.7, 3, 3]",
                ],
            ),
            ((3, True), ["bracket_orders[1]: must be an integer >= 0, got True"]),
            ((4, -1), ["bracket_orders[1]: must be an integer >= 0, got -1"]),
        ],
        ids=["fraction-and-repeat", "bool", "negative"],
    )
    def test_refuses_bad_bracket_orders(self, tmp_path, orders, problems):
        # each would be coerced or repeated as a CSV column; every problem is
        # listed with the config's others
        with pytest.raises(ValidationError) as err:
            tiny_config(tmp_path, bracket_orders=orders, replications=0)
        for problem in [*problems, "replications: must be an integer >= 1, got 0"]:
            assert problem in str(err.value)

    def test_refuses_repeated_bracket_orders_in_json(self, tmp_path, capsys):
        d = {**config_to_dict(tiny_config(tmp_path)), "bracket_orders": [3, 3]}
        _assert_refused(tmp_path, capsys, d, "bracket_orders: orders must be distinct, got [3, 3]")

    def test_lists_every_problem_and_exits_2(self, tmp_path, capsys):
        d = config_to_dict(tiny_config(tmp_path))
        d.update(strict_numerics="false", replications=1.9, replication=5)
        d["params_grid"][0]["k"] = 2.5
        with pytest.raises(ValidationError) as err:
            config_from_dict(d)
        for problem in ("strict_numerics", "replications", "'replication'", "params_grid[0]"):
            assert problem in str(err.value)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        assert cli_main(["run", str(path)]) == 2
        assert "unknown field 'replication'" in capsys.readouterr().err


def _full_realization_counts(params, seed, rep, inside=None):
    """Count, pair classes and inside-count of one replication from its full
    graph, the DFS and the O(m**2) pair classifier."""
    g = sample_realization(params, seed, rep)
    pts = g.points
    k = int(params.k)
    found = list(iter_khop_paths(g, k))
    c = classify_path_pairs_oracle(np.array([p[1:3] for p in found]).reshape(-1, 2)) if k == 3 else None
    classes = None if c is None else (c.sigma0, c.sigma11, c.sigma12, c.sigma21, c.sigma22)
    kept = None
    if inside is not None:
        kept = sum(1 for p in found if inside.contains(*pts[list(p[1:-1])].T).all())
    return len(found), classes, kept


class TestEngineEquivalence:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_lazy_counts_match_full_realization(self, k):
        params = ModelParams(rho=0.8, connection=RAY1, anchor_distance=1.0, k=k, margin=2.5)
        ((counts, _, _),) = _count_batch([(params, 99, 0, 60, False, None)])
        for rep in range(60):
            assert counts[rep] == _full_realization_counts(params, 99, rep)[0]

    def test_pair_classes_match_graph_classifier(self):
        params = ModelParams(rho=0.8, connection=RAY1, anchor_distance=1.0, k=3, margin=2.5)
        ((counts, classes, _),) = _count_batch([(params, 31, 0, 40, True, None)])
        for rep in range(40):
            count, expected, _ = _full_realization_counts(params, 31, rep)
            assert counts[rep] == count
            assert tuple(classes[rep]) == expected

    @given(
        spec=st.sampled_from(CONNECTIONS),
        k=st.integers(1, 6),
        rho=st.floats(0.02, 2.5),
        anchor_distance=st.floats(0.0, 2.5),
        margin=st.floats(0.2, 2.0),
        seed=st.integers(0, 2**64 - 1),
        first=st.integers(0, 10_000),
        size=st.integers(1, 6),
        masked=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_block_counter_matches_full_realization(
        self, spec, k, rho, anchor_distance, margin, seed, first, size, masked
    ):
        # low densities and narrow boxes give replications without points or
        # without anchor neighbours; every block is ragged in its point counts
        params = ModelParams(rho=rho, connection=spec, anchor_distance=anchor_distance, k=k, margin=margin)
        inside = None
        if masked:
            inside = region_for(
                ModelParams(rho=rho, connection=spec, anchor_distance=anchor_distance, k=k, margin=margin / 2)
            )
        reps = range(first, first + size)
        ((counts, classes, kept),) = _count_block([(params, seed, first, first + size)], k == 3, [inside])
        for b, rep in enumerate(reps):
            count, expected_classes, expected_kept = _full_realization_counts(params, seed, rep, inside)
            assert counts[b] == count
            if k == 3:
                assert tuple(classes[b]) == expected_classes
            if masked:
                assert kept[b] == expected_kept

    @given(
        spec=st.sampled_from(CONNECTIONS),
        k=st.integers(1, 6),
        points=st.lists(
            st.tuples(
                st.floats(0.02, 1.5),
                st.floats(0.0, 2.0),
                st.floats(0.2, 1.5),
                st.integers(0, 2**64 - 1),
                st.integers(0, 10_000),
                st.integers(1, 4),
                st.booleans(),
            ),
            min_size=2,
            max_size=5,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_block_of_grid_points_matches_each_point(self, spec, k, points):
        # grid points of one connection and k, each with its own density,
        # separation, box, seed, replications and mask, share one block;
        # low densities give replications without points
        slices, insides = [], []
        for rho, anchor_distance, margin, seed, first, size, masked in points:
            params = ModelParams(
                rho=rho, connection=spec, anchor_distance=anchor_distance, k=k, margin=margin
            )
            slices.append((params, seed, first, first + size))
            insides.append(region_for(dataclasses.replace(params, margin=margin / 2)) if masked else None)
        merged = _count_block(slices, k == 3, insides)
        batched = _count_batch([(*part, k == 3, inside) for part, inside in zip(slices, insides)])
        assert len(merged) == len(batched) == len(slices)
        for (params, seed, first, last), inside, got, again in zip(slices, insides, merged, batched):
            (alone,) = _count_block([(params, seed, first, last)], k == 3, [inside])
            for expected, a, b in zip(alone, got, again):
                assert (expected is None and a is None and b is None) or (
                    np.array_equal(expected, a) and np.array_equal(expected, b)
                )
            counts, classes, kept = got
            for b, rep in enumerate(range(first, last)):
                count, expected_classes, expected_kept = _full_realization_counts(params, seed, rep, inside)
                assert counts[b] == count
                if k == 3:
                    assert tuple(classes[b]) == expected_classes
                if inside is not None:
                    assert kept[b] == expected_kept

    @given(
        spec=st.sampled_from(CONNECTIONS),
        k=st.integers(1, 6),
        rho=st.floats(0.05, 1.5),
        anchor_distance=st.floats(0.0, 1.5),
        margin=st.floats(0.2, 1.0),
        seed=st.integers(0, 2**64 - 1),
        rep=st.integers(0, 10_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_block_counter_dfs_and_oracle_agree(self, spec, k, rho, anchor_distance, margin, seed, rep):
        # at most 12 points besides the anchors, the limit of the permutation oracle
        params = ModelParams(rho=rho, connection=spec, anchor_distance=anchor_distance, k=k, margin=margin)
        g = sample_realization(params, seed, rep)
        assume(g.n - 2 <= 12)
        (((count,), _, _),) = _count_block([(params, seed, rep, rep + 1)], False, [None])
        assert count == len(khop_paths(g, k)) == len(list(iter_khop_paths(g, k)))
        assert count == count_khop_paths_oracle(g, k)

    @pytest.mark.parametrize("k", [3, 5, 6])
    def test_join_runs_do_not_change_counts(self, k, monkeypatch):
        # joins split into runs of a few pairs, most runs cutting through
        # one half-path's pairs, must find the same paths
        params = ModelParams(rho=1.2, connection=RAY1, anchor_distance=1.0, k=k, margin=2.0)
        inside = region_for(dataclasses.replace(params, margin=1.0))
        (whole,) = _count_block([(params, 8, 0, 5)], k == 3, [inside])
        monkeypatch.setattr(paths, "_JOIN_PAIRS", 7)
        (runs,) = _count_block([(params, 8, 0, 5)], k == 3, [inside])
        for expected, got in zip(whole, runs):
            assert (expected is None and got is None) or np.array_equal(expected, got)
        assert whole[0].sum() > 0

    def test_long_path_memory_is_bounded(self):
        # about 2600 points per replication: one full realization takes
        # about 340 MiB, the half-path joins a fraction of that
        params = ModelParams(rho=5.0, connection=RAY1, anchor_distance=1.0, k=5)
        tracemalloc.start()
        try:
            counts, _ = run_replications(params, 3, 30)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(counts) == 30
        assert peak < 256 * 2**20

    def test_block_memory_is_bounded(self):
        # about 42 neighbour proposals and 440 joining pairs per replication:
        # the 2000 replications join about 880000 pairs, so only joining in
        # runs of pairs stays under the limit
        params = ModelParams(rho=2.0, connection=ConnectionSpec.rayleigh(beta=0.3), anchor_distance=1.0, k=3)
        tracemalloc.start()
        try:
            counts, _ = run_replications(params, 3, 2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(counts) == 2000
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("replications, threads", [(0, 1), (5, 0), (5, -3), (5, True)])
    def test_sweep_refuses_bad_counts(self, replications, threads):
        params = ModelParams(rho=1.0, connection=RAY1, anchor_distance=1.0, k=3)
        with pytest.raises(ValidationError, match="must be an integer >= 1"):
            run_replications(params, 1, replications, threads=threads)

    @pytest.mark.parametrize("value", [-1, 2**64], ids=["-1", "2**64"])
    def test_library_calls_refuse_out_of_range_seeds(self, value):
        # the 64-bit fold would alias -1 to 2**64 - 1 and 2**64 to 0
        params = ModelParams(rho=1.0, connection=RAY1, anchor_distance=1.0, k=3)

        def problem(name):
            return re.escape(f"{name}: must be an integer in [0, 2**64), got {value}")

        for threads in (1, 2):
            with pytest.raises(ValidationError, match=problem("seed")):
                run_replications(params, value, 50, threads=threads)
        with pytest.raises(ValidationError, match=problem("seed")):
            sample_realization(params, value, 4)
        with pytest.raises(ValidationError, match=problem("replication")):
            sample_realization(params, 4, value)
        pts = sample_conditioned_ppp(params, 4, 0)
        with pytest.raises(ValidationError, match=problem("seed")):
            realize_graph(pts, RAY1, value, 0)
        with pytest.raises(ValidationError, match=problem("replication")):
            realize_graph(pts, RAY1, 5, value)

    def test_threads_do_not_change_results(self):
        params = ModelParams(rho=1.0, connection=RAY1, anchor_distance=1.0, k=3)
        a_counts, a_classes = run_replications(params, 7, 60, collect_pairs=True, threads=1)
        b_counts, b_classes = run_replications(params, 7, 60, collect_pairs=True, threads=3)
        assert np.array_equal(a_counts, b_counts)
        assert np.array_equal(a_classes, b_classes)


class TestRunExperiment:
    @pytest.mark.parametrize("r", [1, 2, 7, 8, 9, 128, 129, 1000])
    def test_pair_stats_equal_each_column(self, r):
        # one pass over a (5, R) copy reduces every class as its lone column
        # would, at the edges of numpy's pairwise-summation blocks; counts of
        # many magnitudes make the float sums round
        rng = np.random.default_rng(r)
        classes = rng.integers(0, 10 ** rng.integers(1, 16, size=5), size=(r, 5))
        means, ses = _pair_stats(classes)
        for col in range(5):
            vals = classes[:, col].astype(float)
            assert means[col] == float(vals.mean())
            assert ses[col] == _mean_se(vals)

    def test_outputs_and_content(self, tmp_path):
        cfg = tiny_config(tmp_path, emit_histograms=True)
        reports = run_experiment(cfg)
        assert (tmp_path / "tiny.csv").exists()
        assert (tmp_path / "tiny.json").exists()
        assert (tmp_path / "tiny_histogram.csv").exists()
        report = reports[0]
        assert report.analytic_mean == pytest.approx(2.3573, abs=1e-4)
        assert report.analytic_variance is not None
        assert report.moment_source == "analytic"
        assert report.pair_means is not None
        assert len(report.existence_brackets) == len(cfg.bracket_orders)
        payload = json.loads((tmp_path / "tiny.json").read_text())
        assert len(payload["reports"]) == 1
        assert payload["reports"][0]["analytic_mean"] == report.analytic_mean

    def test_csv_row_count_and_header(self, tmp_path):
        # kinds without a closed form, no brackets and no pair classes
        compact = dict(
            params_grid=tuple(
                ModelParams(rho=0.7, connection=connection, anchor_distance=0.9, k=3)
                for connection in (
                    ConnectionSpec.hard_disk(1.0),
                    ConnectionSpec.tabulated([[0.0, 1.0], [0.5, 0.8], [1.0, 0.3], [1.5, 0.0]]),
                    ConnectionSpec.rayleigh(beta=1.0, eta=3.0),
                )
            ),
            bracket_orders=(),
            collect_pair_structures=False,
            replications=20,
        )
        for overrides in ({}, compact):
            cfg = tiny_config(tmp_path, **overrides)
            run_experiment(cfg)
            lines = (tmp_path / "tiny.csv").read_text().splitlines()
            comments = [l for l in lines if l.startswith("#")]
            data = [l.split(",") for l in lines if not l.startswith("#")]
            assert any("analytic_mean" in c for c in comments)
            header, rows = data[0], data[1:]
            assert len(rows) == len(cfg.params_grid)
            assert all(len(row) == len(header) for row in rows)
            brackets = [c for c in header if c.startswith(("zero_partial_sum_m", "existence_estimate_m"))]
            assert len(brackets) == 2 * len(cfg.bracket_orders)
            # the parameter cells are the report JSON's params, flattened
            records = json.loads((tmp_path / "tiny.json").read_text())["reports"]
            for row, record in zip(rows, records):
                flat = {**record["params"], **record["params"]["connection"]}
                cells = dict(zip(header, row))
                for column in ("k", "rho", "kind", "beta", "eta", "r0", "anchor_distance", "margin"):
                    assert cells[column] == _fmt(flat.get(column)), (column, record["params"])

    def test_numeric_reference_for_non_closed_form(self, tmp_path):
        grid = (ModelParams(rho=0.5, connection=ConnectionSpec.hard_disk(1.0), anchor_distance=1.0, k=3),)
        cfg = tiny_config(tmp_path, params_grid=grid, replications=400)
        report = run_experiment(cfg)[0]
        assert report.analytic_mean is None
        assert report.numeric_mean is not None
        assert report.numeric_variance is not None
        assert report.moment_source == "numeric"
        # numeric reference should sit within Monte Carlo error
        se = report.empirical_mean_se
        assert abs(report.empirical_mean - report.numeric_mean) < 5 * se

    @pytest.mark.parametrize(
        "connection",
        [
            ConnectionSpec.hard_disk(1.0),
            ConnectionSpec.tabulated([[0.0, 1.0], [0.5, 0.8], [1.0, 0.3], [1.5, 0.0]]),
            ConnectionSpec.rayleigh(beta=1.0, eta=3.0),
        ],
        ids=["hard-disk", "tabulated", "eta3"],
    )
    def test_numeric_references_equal_the_quadrature(self, tmp_path, connection):
        params = ModelParams(rho=0.7, connection=connection, anchor_distance=0.9, k=3)
        cfg = tiny_config(tmp_path, params_grid=(params,), attach_numeric=True)
        _, _, numeric_mean, numeric_variance = _attach_references(params, cfg)
        assert numeric_mean == mean_khop_numeric(params)
        assert numeric_variance == variance_terms_numeric(params).variance

    def test_k3_references_run_one_chain(self, tmp_path, quadrature_calls):
        params = ModelParams(rho=0.7, connection=ConnectionSpec.hard_disk(1.0), anchor_distance=1.0, k=3)
        run_experiment(tiny_config(tmp_path, params_grid=(params,), replications=2, attach_numeric=True))
        # after the draws, one variance pass gives the mean too: one J0
        # matrix and one evaluation of H on its nodes, then H on sigma22's
        # square and that term's two forward transforms
        names = [name for name, _ in quadrature_calls]
        assert names[names.index("j0") :] == ["j0", "j0", "kernel", "kernel", "rfft2", "rfft2"]

    def test_byte_identical_across_thread_counts(self, tmp_path):
        cfg = tiny_config(tmp_path, emit_histograms=True)
        run_experiment(cfg, threads=1)
        blobs = {
            name: (tmp_path / name).read_bytes()
            for name in ("tiny.csv", "tiny.json", "tiny_histogram.csv")
        }
        run_experiment(cfg, threads=3)
        for name, blob in blobs.items():
            assert (tmp_path / name).read_bytes() == blob, name

    def test_dump_raw_counts(self, tmp_path):
        cfg = tiny_config(tmp_path, dump_raw_counts=True, replications=50)
        reports = run_experiment(cfg)
        payload = json.loads((tmp_path / "tiny.json").read_text())
        assert payload["reports"][0]["counts"] == reports[0].counts.tolist()

    def test_histogram_consistency(self, tmp_path):
        cfg = tiny_config(tmp_path, emit_histograms=True, replications=300)
        reports = run_experiment(cfg)
        lines = (tmp_path / "tiny_histogram.csv").read_text().splitlines()
        rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
        freq_total = sum(int(row[2]) for row in rows)
        assert freq_total == cfg.replications
        # poisson reference column matches the analytic-mean pmf
        from scipy.stats import poisson

        mu = reports[0].analytic_mean
        for row in rows[:5]:
            assert float(row[4]) == pytest.approx(float(poisson.pmf(int(row[1]), mu)), rel=1e-12)

    def test_brackets_match_direct_computation(self, tmp_path):
        from rcmpaths.moments import PathCountSamples, truncated_zero_probability

        cfg = tiny_config(tmp_path, bracket_orders=(2, 3, 0, 80), replications=100)
        report = run_experiment(cfg)[0]
        s = PathCountSamples(k=3, counts=report.counts)
        assert report.existence_brackets == tuple(truncated_zero_probability(s, m) for m in (2, 3, 0, 80))


class TestAtomicWrites:
    def test_failed_dump_keeps_previous_report(self, tmp_path):
        cfg = tiny_config(tmp_path, replications=20)
        reports = run_experiment(cfg)
        before = (tmp_path / "tiny.json").read_bytes()
        # the second record cannot be serialized, so the dump raises partway
        broken = [reports[0], dataclasses.replace(reports[0], moment_source=object())]
        with pytest.raises(TypeError, match="not JSON serializable"):
            write_reports_json(str(tmp_path / "tiny.json"), cfg, broken)
        assert (tmp_path / "tiny.json").read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["tiny.csv", "tiny.json"]


@pytest.fixture
def counted_pools(monkeypatch):
    """The worker counts of the pools started, from no cached pool.

    The cached pool is dropped before and after the test, so its workers are
    forked after the test's own patches and never outlive them."""
    started = []

    class CountedPool(experiments.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    experiments._drop_pool()
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountedPool)
    yield started
    experiments._drop_pool()


@pytest.fixture
def map_sizes(monkeypatch, counted_pools):
    """The number of items each ``map`` call sends the worker pool."""
    sizes = []

    class MapCountingPool(experiments.ProcessPoolExecutor):
        def map(self, fn, *items, **kwargs):
            items = [list(it) for it in items]
            sizes.append(len(items[0]))
            return super().map(fn, *items, **kwargs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", MapCountingPool)
    return sizes


def _fail_on_replication_3(monkeypatch):
    # the draw of a block of replications
    real = experiments.block_points

    def draw(slices, layout):
        if any(first <= 3 < last for _, _, first, last in slices):
            raise FloatingPointError("bad draw")
        return real(slices, layout)

    monkeypatch.setattr(experiments, "block_points", draw)


def _pooled_replications(*grid):
    """Replications of a sweep over ``grid`` that draw about two batches of
    points: a call that costly counts on the worker pool at threads > 1."""
    per_replication = sum(experiments._points_per_replication(params) for params in grid)
    return math.ceil(2 * experiments._BATCH_POINTS / per_replication)


def _report_files(directory):
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


def _assert_names_replication_3(error):
    message = str(error)
    assert "grid seed 7" in message and "rho=1.0" in message
    lo, hi = map(int, re.search(r"replications (\d+)\.\.(\d+)", message).groups())
    assert lo <= 3 <= hi


class TestWorkerPool:
    def test_one_pool_serves_repeated_calls(self, tmp_path, counted_pools):
        replications = _pooled_replications(*tiny_config(tmp_path).params_grid)
        cfg = tiny_config(tmp_path, replications=replications)
        run_experiment(cfg, threads=3)
        run_experiment(cfg, threads=3)
        validate_margin(cfg, replications=replications, threads=3)
        assert counted_pools == [3]
        run_experiment(cfg, threads=2)
        assert counted_pools == [3, 2]

    @pytest.mark.parametrize(
        "grid",
        [
            (
                ModelParams(rho=1.0, connection=RAY1, anchor_distance=1.0, k=3),
                ModelParams(rho=1.5, connection=ConnectionSpec.hard_disk(1.0), anchor_distance=1.5, k=2),
            ),
            # 60 replications, about 71000 points: 14 jobs in 9 batches
            tuple(
                ModelParams(rho=0.3 * (i + 1), connection=RAY1, anchor_distance=1.0, k=2 + i % 3)
                for i in range(7)
            ),
        ],
        ids=["two-points", "seven-mixed-k"],
    )
    def test_reports_identical_across_pool_switches(self, tmp_path, counted_pools, grid):
        replications = max(60, _pooled_replications(*grid))
        cfg = tiny_config(tmp_path, params_grid=grid, replications=replications, emit_histograms=True)
        run_experiment(cfg, threads=1)
        expected = _report_files(tmp_path)
        for threads in (3, 2, 3):
            run_experiment(cfg, threads=threads)
            assert _report_files(tmp_path) == expected, threads
        assert counted_pools == [3, 2, 3]

    @pytest.mark.parametrize(
        "batch_points, sizes",
        [(1000.0, [2, 3, 3]), (1.0, [10, 20, 12])],
        ids=["cheap-one-batch-per-worker", "costly-one-job-per-item"],
    )
    def test_items_per_map_call(self, tmp_path, monkeypatch, map_sizes, batch_points, sizes):
        # the sweep draws about 1782 points and the run_replications call
        # about 1457: each is one to two batches of 1000 points
        monkeypatch.setattr(experiments, "_BATCH_POINTS", batch_points)
        grid = tuple(
            ModelParams(rho=0.2 * (i + 1), connection=RAY1, anchor_distance=1.0, k=2 + i % 2) for i in range(10)
        )
        cfg = tiny_config(tmp_path, params_grid=grid, replications=20)
        run_experiment(cfg, threads=1)
        expected = _report_files(tmp_path)
        for threads in (2, 3):
            run_experiment(cfg, threads=threads)
            assert _report_files(tmp_path) == expected, threads
        params = grid[-1]
        counts, _ = run_replications(params, 7, 100, threads=3)
        assert np.array_equal(counts, run_replications(params, 7, 100)[0])
        assert map_sizes == sizes

    @pytest.mark.parametrize("batch_points", [1e9, 1.0])
    def test_deal_balances_a_periodic_grid(self, monkeypatch, batch_points):
        # cost cycles with k along the grid, so dealing by grid position would
        # put every k = 5 point on one worker
        monkeypatch.setattr(experiments, "_BATCH_POINTS", batch_points)
        grid = [
            ModelParams(rho=rho, connection=RAY1, anchor_distance=1.0, k=k)
            for rho in (0.5, 1.0, 1.5, 2.0)
            for k in (2, 3, 4, 5)
        ]
        points = [12 * experiments._points_per_replication(params) for params in grid]
        batches = experiments._deal(points, 4)
        assert sorted(j for batch in batches for j in batch) == list(range(16))
        assert len(batches) == (4 if batch_points > 1 else 16)
        loads = [sum(points[j] for j in batch) for batch in batches]
        assert max(loads) - min(loads) <= max(points)
        assert all(sum(grid[j].k == 5 for j in batch) <= 1 for batch in batches)

    def test_killed_workers_are_replaced(self, counted_pools):
        params = ModelParams(rho=1.0, connection=RAY1, anchor_distance=1.0, k=3)
        replications = _pooled_replications(params)
        expected, _ = run_replications(params, 7, replications)
        run_replications(params, 7, replications, threads=2)
        workers = multiprocessing.active_children()
        assert workers
        for worker in workers:
            os.kill(worker.pid, signal.SIGKILL)
        for worker in workers:
            worker.join()
        counts, _ = run_replications(params, 7, replications, threads=2)
        assert np.array_equal(counts, expected)
        assert counted_pools == [2, 2]

    def test_calls_from_threads_take_turns(self, counted_pools):
        # two threads switching worker counts would otherwise drop the pool
        # under each other's calls
        params = ModelParams(rho=1.0, connection=RAY1, anchor_distance=1.0, k=3)
        replications = _pooled_replications(params)
        expected, _ = run_replications(params, 7, replications)
        results = []

        def calls(threads):
            for _ in range(3):
                results.append(run_replications(params, 7, replications, threads=threads)[0])

        workers = [threading.Thread(target=calls, args=(t,)) for t in (2, 3)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert not worker.is_alive()
        assert len(results) == 6
        assert all(np.array_equal(counts, expected) for counts in results)
        assert set(counted_pools) == {2, 3}

    def test_second_break_names_the_grid_seeds(self, monkeypatch, counted_pools):
        class BreakingPool(experiments.ProcessPoolExecutor):
            def map(self, *args, **kwargs):
                raise BrokenProcessPool("worker lost")

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", BreakingPool)
        params = ModelParams(rho=1.0, connection=RAY1, anchor_distance=1.0, k=3)
        with pytest.raises(ReplicationError, match=r"broke twice running grid seeds \[7\]"):
            run_replications(params, 7, _pooled_replications(params), threads=2)
        assert counted_pools == [2, 2]

    def test_failure_names_point_seed_and_block(self, monkeypatch):
        _fail_on_replication_3(monkeypatch)
        params = ModelParams(rho=1.0, connection=RAY1, anchor_distance=1.0, k=3)
        with pytest.raises(ReplicationError) as info:
            run_replications(params, 7, 10)
        _assert_names_replication_3(info.value)
        assert isinstance(info.value.__cause__, FloatingPointError)

    def test_failure_in_a_shared_block_names_every_point(self, tmp_path, monkeypatch):
        # three cheap grid points share one block: a failure cannot be pinned
        # on one of them, so the error names each with its seed and range
        _fail_on_replication_3(monkeypatch)
        grid = tuple(
            ModelParams(rho=0.5 * (i + 1), connection=RAY1, anchor_distance=1.0, k=3) for i in range(3)
        )
        cfg = tiny_config(tmp_path / "out", params_grid=grid, replications=10)
        with pytest.raises(ReplicationError) as info:
            run_experiment(cfg)
        message = str(info.value)
        assert message.count("(grid seed ") == 3
        for i, params in enumerate(grid):
            assert f"0..9 of {params} (grid seed {experiments.derive_subseed(5, i)})" in message
        assert isinstance(info.value.__cause__, FloatingPointError)
        assert not (tmp_path / "out").exists()

    def test_worker_failure_names_point_seed_and_block(self, monkeypatch, counted_pools):
        # the pool starts after the patch, so its workers draw through it
        _fail_on_replication_3(monkeypatch)
        params = ModelParams(rho=1.0, connection=RAY1, anchor_distance=1.0, k=3)
        with pytest.raises(ReplicationError) as info:
            run_replications(params, 7, _pooled_replications(params), threads=2)
        _assert_names_replication_3(info.value)
        assert counted_pools == [2]

    def test_calls_under_one_batch_count_inline(self, tmp_path, counted_pools):
        # 200 replications of about 8.3 points each: under one batch
        cfg = tiny_config(tmp_path)
        run_experiment(cfg, threads=1)
        expected = _report_files(tmp_path)
        run_experiment(cfg, threads=2)
        assert _report_files(tmp_path) == expected
        assert validate_margin(cfg, replications=200, threads=2) == validate_margin(cfg, replications=200)
        assert counted_pools == []

    def test_a_call_of_one_batch_starts_the_pool(self, counted_pools):
        params = ModelParams(rho=1.0, connection=RAY1, anchor_distance=1.0, k=3)
        one_batch = math.ceil(experiments._BATCH_POINTS / experiments._points_per_replication(params))
        for replications, pools in ((one_batch - 1, []), (one_batch, [2])):
            counts, _ = run_replications(params, 7, replications, threads=2)
            assert counted_pools == pools
            assert np.array_equal(counts, run_replications(params, 7, replications)[0])

    def test_k1_draws_no_points(self, monkeypatch):
        params = ModelParams(rho=5.0, connection=RAY1, anchor_distance=1.0, k=1)
        # the anchors' own edge of each full realization
        expected = np.array([sample_realization(params, 7, rep).adjacency[0, 1] for rep in range(50)])
        # neither the block draw nor either of the sampler's point draws runs
        monkeypatch.setattr(experiments, "block_points", None)
        for name in ("anchor_neighbours", "box_points"):
            monkeypatch.setattr(sampler, name, None)
        counts, _ = run_replications(params, 7, 50)
        assert np.array_equal(counts, expected)
        assert expected.sum() > 0


class TestValidateMargin:
    def test_compact_support_shift_exactly_zero(self, tmp_path):
        # k >= 4 draws a box: the default margin is the support radius times k
        grid = (
            ModelParams(rho=1.0, connection=ConnectionSpec.hard_disk(1.0), anchor_distance=1.0, k=4),
        )
        cfg = tiny_config(tmp_path, params_grid=grid)
        check = validate_margin(cfg, replications=300)[0]
        assert check.shift == 0.0
        assert not check.flagged

    def test_default_margin_passes(self, tmp_path):
        cfg = tiny_config(tmp_path)
        check = validate_margin(cfg, replications=500)[0]
        assert not check.flagged

    def test_broken_margin_flagged(self, tmp_path):
        # k <= 3 draws the anchors' neighbours in the whole plane: no margin
        # can truncate it, so its shift is exactly zero
        grid = (
            ModelParams(rho=1.0, connection=RAY1, anchor_distance=1.0, k=4, margin=0.5),
            ModelParams(rho=1.0, connection=RAY1, anchor_distance=1.0, k=3, margin=0.5),
        )
        cfg = tiny_config(tmp_path, params_grid=grid, replications=500)
        box, plane = validate_margin(cfg, replications=500)
        assert box.flagged
        assert box.doubled_mean > box.base_mean
        assert plane.shift == 0.0 and plane.base_mean == plane.doubled_mean > 0
        assert not plane.flagged

    def test_default_subsample_size(self, tmp_path):
        cfg = tiny_config(tmp_path, replications=50_000)
        checks = validate_margin(cfg, replications=None)
        assert checks[0].replications == 5000


class TestPresets:
    def test_grid_shapes(self, tmp_path):
        mv = preset_config("fig-mean-var", outputs=str(tmp_path))
        assert len(mv.params_grid) == 63
        assert mv.replications == 10_000
        assert mv.collect_pair_structures
        dist = preset_config("fig-distribution", outputs=str(tmp_path))
        assert len(dist.params_grid) == 3
        assert dist.replications == 100_000
        assert dist.emit_histograms
        ex = preset_config("fig-existence", outputs=str(tmp_path))
        assert len(ex.params_grid) == 80
        assert ex.bracket_orders == (3, 4, 5, 80)

    def test_anchor_distance_flag(self, tmp_path):
        dist = preset_config("fig-distribution", outputs=str(tmp_path), anchor_distance=2.0)
        assert all(p.anchor_distance == 2.0 for p in dist.params_grid)
        # fig-mean-var sweeps the distance, so fixing it is refused, not ignored
        with pytest.raises(ValidationError, match="fig-mean-var sweeps it"):
            preset_config("fig-mean-var", outputs=str(tmp_path), anchor_distance=2.0)

    def test_unknown_preset(self, tmp_path):
        with pytest.raises(ValidationError):
            preset_config("nope", outputs=str(tmp_path))


class TestCli:
    def test_sample_json(self, capsys):
        code = cli_main(
            ["sample", "--rho", "0.5", "--anchor-distance", "1", "--k", "3", "--seed", "3"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["points"][0] == [0.0, 0.0]
        assert payload["points"][1] == [1.0, 0.0]
        assert payload["path_count"] == len(payload["paths"])
        n = len(payload["points"])
        for i, j in payload["edges"]:
            assert 0 <= i < j < n

    def test_run_config_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        cfg = tiny_config(tmp_path / "out", replications=50)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        code = cli_main(["run", str(path), "--replications", "20", "--threads", "2"])
        assert code == 0
        assert (tmp_path / "out" / "tiny.csv").exists()

    def test_preset_with_overrides(self, tmp_path):
        code = cli_main(
            [
                "preset",
                "fig-existence",
                "--replications",
                "10",
                "--out",
                str(tmp_path),
                "--seed",
                "2",
            ]
        )
        assert code == 0
        assert (tmp_path / "fig-existence.csv").exists()

    def test_preset_refuses_a_fixed_swept_distance(self, tmp_path, capsys):
        argv = ["preset", "fig-mean-var", "--anchor-distance", "2", "--out", str(tmp_path / "out")]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: anchor_distance: fig-mean-var sweeps it, so it cannot be 2.0\n"
        assert not (tmp_path / "out").exists()

    def test_failed_replications_exit_1_with_one_line(self, tmp_path, monkeypatch, capsys):
        _fail_on_replication_3(monkeypatch)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(tiny_config(tmp_path / "out", replications=10))))
        assert cli_main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "failed in replications" in err and "FloatingPointError" in err

    def test_validate_margin_cli(self, tmp_path):
        cfg = tiny_config(tmp_path, replications=50)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        code = cli_main(["validate-margin", "--config", str(path), "--replications", "40"])
        assert code == 0
        assert (tmp_path / "tiny_margin.csv").exists()
        assert (tmp_path / "tiny_margin.json").exists()

    def test_validate_margin_preset_applies_overrides(self, tmp_path):
        # a preset takes --replications and --strict as a config file does,
        # and the margin report's config records them
        argv = ["validate-margin", "--preset", "fig-existence", "--replications", "5", "--strict"]
        assert cli_main(argv + ["--out", str(tmp_path)]) == 0
        config = json.loads((tmp_path / "fig-existence_margin.json").read_text())["config"]
        assert config["replications"] == 5 and config["strict_numerics"] is True
        assert config["outputs"] == str(tmp_path) and config["seed"] == 0

    def test_validate_margin_names_the_point_whose_doubled_box_is_refused(self, tmp_path, capsys):
        # rho = 1e5 is drawn with its own margin (4.2e7 points on average),
        # but not with the doubled one (1.64e8, above 2**27)
        grid = tuple(ModelParams(rho=rho, connection=RAY1, anchor_distance=1.0, k=4) for rho in (1.0, 1e5))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(tiny_config(tmp_path / "out", params_grid=grid))))
        assert cli_main(["validate-margin", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: params_grid[1] ModelParams(rho=100000.0,"), err
        assert "doubled margin 20.0" in err and "164000000.0" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "sources", [["--config", "CONFIG", "--preset", "fig-existence"], []], ids=["both", "neither"]
    )
    def test_validate_margin_takes_one_source(self, tmp_path, capsys, sources):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(config_to_dict(tiny_config(tmp_path / "out"))))
        sources = [str(config) if a == "CONFIG" else a for a in sources]
        with pytest.raises(SystemExit) as exc:
            cli_main(["validate-margin", *sources, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, problem",
        [
            (["preset", "fig-existence", "--replications", "0"], "replications: must be an integer >= 1, got 0"),
            (
                ["validate-margin", "--preset", "fig-existence", "--replications", "0"],
                "replications: must be an integer >= 1, got 0",
            ),
            (["preset", "fig-existence", "--threads", "0"], "threads: must be an integer >= 1, got 0"),
            (["preset", "fig-existence", "--threads", "-3"], "threads: must be an integer >= 1, got -3"),
            (
                ["preset", "fig-existence", "--threads", "100000", "--replications", "5"],
                "threads: must be at most the 2 usable CPUs, got 100000",
            ),
        ],
        ids=["preset-replications-0", "margin-replications-0", "threads-0", "threads-negative", "threads-over-cpus"],
    )
    def test_bad_counts_exit_2(self, tmp_path, capsys, monkeypatch, argv, problem):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a refused run started a worker pool")

        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", NoPool)
        # a refused run makes no output directory, let alone files
        assert cli_main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert problem in err and err.startswith("error: ") and err.count("\n") == 1, err
        assert not list(tmp_path.iterdir())

    def test_strict_coarse_grid_exits_2(self, tmp_path, capsys):
        # Rayleigh eta = 0.5 reaches 625, so its default grid step, 6.25, is
        # above the coarseness limit 0.25, which strict mode refuses
        params = ModelParams(rho=0.01, connection=ConnectionSpec.rayleigh(eta=0.5), anchor_distance=1.0, k=3)
        cfg = tiny_config(tmp_path / "out", params_grid=(params,), replications=5, strict_numerics=True)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        assert cli_main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: grid step 6.25 (grid_step 6.25) is too coarse for this connection (limit 0.25)\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, problem",
        [
            (["sample", "--seed", "-1"], "seed: must be an integer in [0, 2**64), got -1"),
            (["sample", "--replication", "-1"], "replication: must be an integer in [0, 2**64), got -1"),
            (["sample", "--seed", str(2**64)], f"seed: must be an integer in [0, 2**64), got {2**64}"),
            (["preset", "fig-existence", "--seed", "-1"], "seed: must be an integer in [0, 2**64), got -1"),
            (["run", "CONFIG"], "seed: must be an integer in [0, 2**64), got -4"),
        ],
        ids=[
            "sample-seed-negative",
            "sample-replication-negative",
            "sample-seed-2**64",
            "preset-seed-negative",
            "config-seed-negative",
        ],
    )
    def test_out_of_range_seeds_exit_2(self, tmp_path, capsys, argv, problem):
        # seeds and replication indices are folded as 64-bit words, so -1
        # would silently alias 2**64 - 1
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**config_to_dict(tiny_config(tmp_path / "out", replications=5)), "seed": -4}))
        argv = [str(config) if a == "CONFIG" else a for a in argv]
        if argv[0] != "sample":
            argv += ["--out", str(tmp_path / "out")]
        assert cli_main(argv) == 2
        assert problem in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_invalid_config_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x"}))
        assert cli_main(["run", str(path)]) == 2

    def test_unwritable_output_exit_code(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        cfg = tiny_config(blocker / "sub", replications=10)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        assert cli_main(["run", str(path)]) == 1


def test_import_loads_no_scipy():
    # every run's set-up pays for what `import rcmpaths` imports, so it
    # imports no scipy module at all: the histogram writer defers
    # scipy.stats, and the quadrature scipy.special and scipy.fft
    loaded = "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    code = "import sys, rcmpaths; " + loaded
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
    # scipy.signal and scipy.stats take over a second to import; the
    # quadrature imports neither
    loaded = "print(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))"
    code = (
        "import sys; "
        "from rcmpaths import ConnectionSpec, ModelParams; "
        "from rcmpaths.analytics import mean_khop_numeric, variance_terms_numeric; "
        "p = ModelParams(rho=1.0, connection=ConnectionSpec.hard_disk(1.0), anchor_distance=1.0, k=3); "
        "mean_khop_numeric(p); variance_terms_numeric(p); " + loaded
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
