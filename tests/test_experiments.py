import dataclasses
import json
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
from rcmpaths import experiments, paths
from rcmpaths.analytics import mean_khop_numeric, variance_terms_numeric
from rcmpaths.cli import main as cli_main
from rcmpaths.errors import ReplicationError, ValidationError
from rcmpaths.experiments import (
    ExperimentConfig,
    _attach_references,
    _count_block,
    _count_range,
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
from rcmpaths.paths import count_khop_paths, iter_khop_paths
from rcmpaths.sampler import realize_graph, region_for, sample_conditioned_ppp

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
        ],
    )
    def test_rejects_coercible_values(self, tmp_path, key, value, problem):
        d = config_to_dict(tiny_config(tmp_path))
        d[key] = value
        with pytest.raises(ValidationError) as err:
            config_from_dict(d)
        assert problem in str(err.value)

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
        with pytest.raises(ValidationError) as err:
            config_from_dict(d)
        assert problem in str(err.value)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        assert cli_main(["run", str(path)]) == 2
        assert problem in capsys.readouterr().err

    def test_rejects_non_object(self):
        with pytest.raises(ValidationError, match="JSON object"):
            config_from_dict([{"name": "x"}])

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
    pts = sample_conditioned_ppp(params, seed, rep)
    g = realize_graph(pts, params.connection, seed, rep)
    k = int(params.k)
    found = list(iter_khop_paths(g, k))
    c = classify_path_pairs_oracle(np.array([p[1:3] for p in found]).reshape(-1, 2)) if k == 3 else None
    classes = None if c is None else (c.sigma0, c.sigma11, c.sigma12, c.sigma21, c.sigma22)
    kept = None
    if inside is not None:
        allowed = np.ones(g.n, dtype=bool)
        allowed[2:] = inside.contains(pts[2:, 0], pts[2:, 1])
        kept = sum(1 for _ in iter_khop_paths(g, k, allowed))
    return len(found), classes, kept


class TestEngineEquivalence:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_lazy_counts_match_full_realization(self, k):
        params = ModelParams(rho=0.8, connection=RAY1, anchor_distance=1.0, k=k, margin=2.5)
        counts, _, _ = _count_range((params, 99, 0, 60, False, None))
        for rep in range(60):
            assert counts[rep] == _full_realization_counts(params, 99, rep)[0]

    def test_pair_classes_match_graph_classifier(self):
        params = ModelParams(rho=0.8, connection=RAY1, anchor_distance=1.0, k=3, margin=2.5)
        counts, classes, _ = _count_range((params, 31, 0, 40, True, None))
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
        pts = [sample_conditioned_ppp(params, seed, rep) for rep in reps]
        counts, classes, kept = _count_block(params, seed, first, pts, k == 3, inside)
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
        pts = sample_conditioned_ppp(params, seed, rep)
        assume(len(pts) - 2 <= 12)
        g = realize_graph(pts, spec, seed, rep)
        (count,), _, _ = _count_block(params, seed, rep, [pts], False, None)
        assert count == count_khop_paths(g, k).count == len(list(iter_khop_paths(g, k)))
        assert count == count_khop_paths_oracle(g, k).count

    @pytest.mark.parametrize("k", [3, 5, 6])
    def test_join_runs_do_not_change_counts(self, k, monkeypatch):
        # joins split into runs of a few pairs, most runs cutting through
        # one half-path's pairs, must find the same paths
        params = ModelParams(rho=1.2, connection=RAY1, anchor_distance=1.0, k=k, margin=2.0)
        pts = [sample_conditioned_ppp(params, 8, rep) for rep in range(5)]
        inside = region_for(dataclasses.replace(params, margin=1.0))
        whole = _count_block(params, 8, 0, pts, k == 3, inside)
        monkeypatch.setattr(paths, "_JOIN_PAIRS", 7)
        runs = _count_block(params, 8, 0, pts, k == 3, inside)
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
        # about 2060 points per replication: 2000 replications hold about 66 MB
        # of coordinates alone, so only drawing in blocks stays under the limit
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

    def test_threads_do_not_change_results(self):
        params = ModelParams(rho=1.0, connection=RAY1, anchor_distance=1.0, k=3)
        a_counts, a_classes = run_replications(params, 7, 60, collect_pairs=True, threads=1)
        b_counts, b_classes = run_replications(params, 7, 60, collect_pairs=True, threads=3)
        assert np.array_equal(a_counts, b_counts)
        assert np.array_equal(a_classes, b_classes)


class TestRunExperiment:
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
        cfg = tiny_config(tmp_path)
        run_experiment(cfg)
        lines = (tmp_path / "tiny.csv").read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        data = [l for l in lines if not l.startswith("#")]
        assert any("analytic_mean" in c for c in comments)
        header, rows = data[0], data[1:]
        assert len(rows) == len(cfg.params_grid)
        assert len(header.split(",")) == len(rows[0].split(","))

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
        # the chain h, h*h, h*h*h transforms h and h*h; the s22 term
        # transforms the free-vertex grid and h at that grid's size
        assert quadrature_calls == {"_kernel_grid": 1, "rfftn": 4, "irfftn": 3}

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

        cfg = tiny_config(tmp_path, bracket_orders=(2, 3), replications=100)
        report = run_experiment(cfg)[0]
        s = PathCountSamples(k=3, counts=report.counts)
        for bracket, m in zip(report.existence_brackets, (2, 3)):
            direct = truncated_zero_probability(s, m)
            assert bracket.partial_sum == direct.partial_sum
            assert bracket.side == direct.side


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


def _fail_on_replication_3(monkeypatch):
    real = experiments.sample_conditioned_ppp

    def draw(params, seed, rep):
        if rep == 3:
            raise FloatingPointError("bad draw")
        return real(params, seed, rep)

    monkeypatch.setattr(experiments, "sample_conditioned_ppp", draw)


def _assert_names_replication_3(error):
    message = str(error)
    assert "grid seed 7" in message and "rho=1.0" in message
    lo, hi = map(int, re.search(r"replications (\d+)\.\.(\d+)", message).groups())
    assert lo <= 3 <= hi


class TestWorkerPool:
    def test_one_pool_serves_repeated_calls(self, tmp_path, counted_pools):
        cfg = tiny_config(tmp_path, replications=40)
        run_experiment(cfg, threads=3)
        run_experiment(cfg, threads=3)
        validate_margin(cfg, replications=40, threads=3)
        assert counted_pools == [3]
        run_experiment(cfg, threads=2)
        assert counted_pools == [3, 2]

    def test_reports_identical_across_pool_switches(self, tmp_path, counted_pools):
        grid = (
            ModelParams(rho=1.0, connection=RAY1, anchor_distance=1.0, k=3),
            ModelParams(rho=1.5, connection=ConnectionSpec.hard_disk(1.0), anchor_distance=1.5, k=2),
        )
        cfg = tiny_config(tmp_path, params_grid=grid, replications=60, emit_histograms=True)

        def files():
            return {name: (tmp_path / name).read_bytes() for name in sorted(os.listdir(tmp_path))}

        run_experiment(cfg, threads=1)
        expected = files()
        for threads in (3, 2, 3):
            run_experiment(cfg, threads=threads)
            assert files() == expected, threads
        assert counted_pools == [3, 2, 3]

    def test_killed_workers_are_replaced(self, counted_pools):
        params = ModelParams(rho=1.0, connection=RAY1, anchor_distance=1.0, k=3)
        expected, _ = run_replications(params, 7, 60)
        run_replications(params, 7, 60, threads=2)
        workers = multiprocessing.active_children()
        assert workers
        for worker in workers:
            os.kill(worker.pid, signal.SIGKILL)
        for worker in workers:
            worker.join()
        counts, _ = run_replications(params, 7, 60, threads=2)
        assert np.array_equal(counts, expected)
        assert counted_pools == [2, 2]

    def test_calls_from_threads_take_turns(self, counted_pools):
        # two threads switching worker counts would otherwise drop the pool
        # under each other's calls
        params = ModelParams(rho=1.0, connection=RAY1, anchor_distance=1.0, k=3)
        expected, _ = run_replications(params, 7, 30)
        results = []

        def calls(threads):
            for _ in range(3):
                results.append(run_replications(params, 7, 30, threads=threads)[0])

        workers = [threading.Thread(target=calls, args=(t,)) for t in (2, 3)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert not worker.is_alive()
        assert len(results) == 6
        assert all(np.array_equal(counts, expected) for counts in results)

    def test_second_break_names_the_grid_seeds(self, monkeypatch, counted_pools):
        class BreakingPool(experiments.ProcessPoolExecutor):
            def map(self, *args, **kwargs):
                raise BrokenProcessPool("worker lost")

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", BreakingPool)
        params = ModelParams(rho=1.0, connection=RAY1, anchor_distance=1.0, k=3)
        with pytest.raises(ReplicationError, match=r"broke twice running grid seeds \[7\]"):
            run_replications(params, 7, 10, threads=2)
        assert counted_pools == [2, 2]

    def test_failure_names_point_seed_and_block(self, monkeypatch):
        _fail_on_replication_3(monkeypatch)
        params = ModelParams(rho=1.0, connection=RAY1, anchor_distance=1.0, k=3)
        with pytest.raises(ReplicationError) as info:
            run_replications(params, 7, 10)
        _assert_names_replication_3(info.value)
        assert isinstance(info.value.__cause__, FloatingPointError)

    def test_worker_failure_names_point_seed_and_block(self, monkeypatch, counted_pools):
        # the pool starts after the patch, so its workers draw through it
        _fail_on_replication_3(monkeypatch)
        params = ModelParams(rho=1.0, connection=RAY1, anchor_distance=1.0, k=3)
        with pytest.raises(ReplicationError) as info:
            run_replications(params, 7, 10, threads=2)
        _assert_names_replication_3(info.value)

    def test_k1_draws_no_points(self, monkeypatch):
        params = ModelParams(rho=5.0, connection=RAY1, anchor_distance=1.0, k=1)
        pts = [sample_conditioned_ppp(params, 7, rep) for rep in range(50)]
        expected, _, _ = _count_block(params, 7, 0, pts, False, None)
        monkeypatch.setattr(experiments, "sample_conditioned_ppp", None)
        counts, _ = run_replications(params, 7, 50)
        assert np.array_equal(counts, expected)
        assert expected.sum() > 0


class TestValidateMargin:
    def test_compact_support_shift_exactly_zero(self, tmp_path):
        grid = (
            ModelParams(rho=1.0, connection=ConnectionSpec.hard_disk(1.0), anchor_distance=1.0, k=3),
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
        grid = (ModelParams(rho=1.0, connection=RAY1, anchor_distance=1.0, k=3, margin=0.5),)
        cfg = tiny_config(tmp_path, params_grid=grid, replications=500)
        check = validate_margin(cfg, replications=500)[0]
        assert check.flagged
        assert check.doubled_mean > check.base_mean

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

    def test_run_config_file(self, tmp_path):
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

    def test_validate_margin_cli(self, tmp_path):
        cfg = tiny_config(tmp_path, replications=50)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        code = cli_main(["validate-margin", "--config", str(path), "--replications", "40"])
        assert code == 0
        assert (tmp_path / "tiny_margin.csv").exists()
        assert (tmp_path / "tiny_margin.json").exists()

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
        ],
        ids=["preset-replications-0", "margin-replications-0", "threads-0", "threads-negative"],
    )
    def test_bad_counts_exit_2(self, tmp_path, capsys, argv, problem):
        # a refused run makes no output directory, let alone files
        assert cli_main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert problem in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

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
    # scipy.signal and scipy.stats take over a second to import; the package
    # defers scipy.stats to the histogram writer, and the quadrature uses
    # scipy.fft only
    loaded = "print(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))"
    code = "import sys, rcmpaths; " + loaded
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
    code = (
        "import sys; "
        "from rcmpaths import ConnectionSpec, ModelParams; "
        "from rcmpaths.analytics import mean_khop_numeric, variance_terms_numeric; "
        "p = ModelParams(rho=1.0, connection=ConnectionSpec.hard_disk(1.0), anchor_distance=1.0, k=3); "
        "mean_khop_numeric(p); variance_terms_numeric(p); " + loaded
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
