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

from conftest import (
    CONNECTIONS,
    classify_path_pairs_oracle,
    count_khop_paths_oracle,
    mean_se,
    realize_graph,
    summarize_grid_point,
)
from rcmpaths import cli, experiments, paths, sampler
from rcmpaths.analytics import mean_khop_numeric, variance_terms_numeric
from rcmpaths.cli import main as cli_main
from rcmpaths.errors import ReplicationError, ValidationError
from rcmpaths.experiments import (
    ExperimentConfig,
    _attach_references,
    _count_block,
    _fmt,
    _json_record,
    _json_text,
    _REPORT_FIELDS,
    _summaries,
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
from rcmpaths.rng import derive_subseed
from rcmpaths.sampler import sample_realization

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


# any value a JSON file can hold (Python's json reads NaN and Infinity too)
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(["", "a\0b", "rayleigh", "hard_disk", "tabulated"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _json_objects(draw, fields):
    """A JSON object over ``fields``, a strategy for each key: a key takes
    a value from its strategy 14 times in 16, any JSON value once and is
    left out once, and one object in 16 holds an unknown key besides."""
    d = {}
    for key, values in fields.items():
        form = draw(st.sampled_from(["drawn"] * 14 + ["any", "left out"]))
        if form != "left out":
            d[key] = draw(values if form == "drawn" else _JSON_VALUES)
    if draw(st.sampled_from([False] * 15 + [True])):
        d["unknown"] = draw(_JSON_VALUES)
    return d


# (distance, probability) knots of distinct distances
_KNOTS = st.lists(
    st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 1.0)), min_size=1, max_size=3, unique_by=lambda knot: knot[0]
)
_CONNECTION_OBJECTS = st.one_of(
    _json_objects({"kind": st.just("rayleigh"), "beta": st.floats(0.2, 4.0), "eta": st.floats(0.5, 4.0)}),
    _json_objects({"kind": st.just("hard_disk"), "r0": st.floats(0.05, 4.0)}),
    # sorted knots, or as drawn
    _json_objects({"kind": st.just("tabulated"), "table": _KNOTS.map(lambda k: sorted(map(list, k))) | _KNOTS}),
)
_GRID_POINT_OBJECTS = _json_objects(
    {
        "rho": st.floats(0.05, 5.0),
        "connection": _CONNECTION_OBJECTS,
        "anchor_distance": st.floats(0.0, 4.0),
        "k": st.integers(1, 6),
        "margin": st.none() | st.floats(0.05, 4.0),
    }
)
_CONFIG_OBJECTS = _json_objects(
    {
        "name": st.sampled_from(["fuzz"] * 4 + ["", "..", "a/b", "a\0b"]),
        "params_grid": st.lists(_GRID_POINT_OBJECTS, min_size=1, max_size=3),
        "replications": st.integers(1, 5),
        "seed": st.integers(0, 2**64 - 1),
        "outputs": st.sampled_from(["out"] * 4 + ["", "a\0b"]),
        "strict_numerics": st.booleans(),
        "collect_pair_structures": st.booleans(),
        "bracket_orders": st.lists(st.integers(0, 90), max_size=4),
        "emit_histograms": st.booleans(),
        "dump_raw_counts": st.booleans(),
        "attach_numeric": st.booleans(),
    }
)


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
            ("name", "a\0b", "name: must be a plain file name, got 'a\\x00b'"),
            ("outputs", "", "outputs: must be a nonempty path without NUL bytes, got ''"),
            ("outputs", "a\0b", "outputs: must be a nonempty path without NUL bytes, got 'a\\x00b'"),
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
            # k >= 4 explores in the whole plane too: each explored vertex
            # draws a cloud of the anchors' mean
            (
                {"rho": 1e19, "k": 4},
                "rho, connection: the mean number of points of each anchor's cloud must be at most "
                "1.342e+08 to be drawn, got 3.141592653589793e+19",
            ),
            ({"connection": "x"}, "connection: expected a JSON object, got 'x'"),
            ({"connection": {"kind": ["rayleigh"]}}, "unknown connection kind ['rayleigh']"),
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
            "k4-cloud-above-poisson-max",
            "connection-string",
            "kind-list",
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

    @given(d=_CONFIG_OBJECTS)
    @settings(max_examples=300, deadline=None)
    def test_any_json_object_builds_or_is_refused(self, d):
        # the config's keys, its grid points' and their connections', each
        # holding a value of its JSON type or any JSON value: the object
        # builds a config that round-trips, or raises ValidationError
        try:
            cfg = config_from_dict(json.loads(json.dumps(d)))
        except ValidationError:
            return
        assert cfg.outputs and "\0" not in cfg.outputs
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg


def _pair(columns):
    """A block's column dict as its (counts, pair classes or None)."""
    return columns["counts"], columns.get("pair_class_counts")


def _full_realization_counts(params, seed, rep):
    """Count and pair classes of one replication from its full graph, the
    DFS and the O(m**2) pair classifier."""
    g = sample_realization(params, seed, rep)
    k = int(params.k)
    found = list(iter_khop_paths(g, k))
    c = classify_path_pairs_oracle(np.array([p[1:3] for p in found]).reshape(-1, 2)) if k == 3 else None
    classes = None if c is None else (c.sigma0, c.sigma11, c.sigma12, c.sigma21, c.sigma22)
    return len(found), classes


class TestEngineEquivalence:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_lazy_counts_match_full_realization(self, k):
        params = ModelParams(rho=0.8, connection=RAY1, anchor_distance=1.0, k=k, margin=2.5)
        ((counts, _),) = map(_pair, _count_block([(params, 99, 0, 60)], False))
        for rep in range(60):
            assert counts[rep] == _full_realization_counts(params, 99, rep)[0]

    def test_pair_classes_match_graph_classifier(self):
        params = ModelParams(rho=0.8, connection=RAY1, anchor_distance=1.0, k=3, margin=2.5)
        ((counts, classes),) = map(_pair, _count_block([(params, 31, 0, 40)], True))
        for rep in range(40):
            count, expected = _full_realization_counts(params, 31, rep)
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
    )
    @settings(max_examples=150, deadline=None)
    def test_block_counter_matches_full_realization(self, spec, k, rho, anchor_distance, margin, seed, first, size):
        # low densities give replications without points or without anchor
        # neighbours; every block is ragged in its point counts
        params = ModelParams(rho=rho, connection=spec, anchor_distance=anchor_distance, k=k, margin=margin)
        reps = range(first, first + size)
        ((counts, classes),) = map(_pair, _count_block([(params, seed, first, first + size)], k == 3))
        for b, rep in enumerate(reps):
            count, expected_classes = _full_realization_counts(params, seed, rep)
            assert counts[b] == count
            if k == 3:
                assert tuple(classes[b]) == expected_classes

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
            ),
            min_size=2,
            max_size=5,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_block_of_grid_points_matches_each_point(self, spec, k, points):
        # grid points of one connection and k, each with its own density,
        # separation, margin, seed and replications, share one block; low
        # densities give replications without points
        slices = []
        for rho, anchor_distance, margin, seed, first, size in points:
            params = ModelParams(
                rho=rho, connection=spec, anchor_distance=anchor_distance, k=k, margin=margin
            )
            slices.append((params, seed, first, first + size))
        merged = [*map(_pair, _count_block(slices, k == 3))]
        assert len(merged) == len(slices)
        for (params, seed, first, last), got in zip(slices, merged):
            (alone,) = map(_pair, _count_block([(params, seed, first, last)], k == 3))
            for expected, a in zip(alone, got):
                assert (expected is None and a is None) or np.array_equal(expected, a)
            counts, classes = got
            for b, rep in enumerate(range(first, last)):
                count, expected_classes = _full_realization_counts(params, seed, rep)
                assert counts[b] == count
                if k == 3:
                    assert tuple(classes[b]) == expected_classes

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
        (((count,), _),) = map(_pair, _count_block([(params, seed, rep, rep + 1)], False))
        assert count == len(khop_paths(g, k)) == len(list(iter_khop_paths(g, k)))
        assert count == count_khop_paths_oracle(g, k)

    @pytest.mark.parametrize("k", [3, 5, 6])
    def test_join_runs_do_not_change_counts(self, k, monkeypatch):
        # joins split into runs of a few pairs, most runs cutting through
        # one half-path's pairs, must find the same paths
        params = ModelParams(rho=1.2, connection=RAY1, anchor_distance=1.0, k=k)
        (whole,) = map(_pair, _count_block([(params, 8, 0, 5)], k == 3))
        monkeypatch.setattr(paths, "_JOIN_PAIRS", 7)
        (runs,) = map(_pair, _count_block([(params, 8, 0, 5)], k == 3))
        for expected, got in zip(whole, runs):
            assert (expected is None and got is None) or np.array_equal(expected, got)
        assert whole[0].sum() > 0

    @pytest.mark.parametrize("budget", [experiments._BLOCK_POINTS, 50.0])
    def test_blocks_pack_jobs_in_order(self, budget):
        # a mixed list: two connections, k = 2 to 5, pair classes on and
        # off; at 50 points a block the dense k = 5 point draws more than a
        # block a replication
        hard = ConnectionSpec.hard_disk(1.0)
        tasks = [
            (ModelParams(rho=rho, connection=spec, anchor_distance=1.0, k=k), seed, collect)
            for seed, (rho, spec, k, collect) in enumerate(
                [
                    (5.0, RAY1, 3, True),
                    (0.5, RAY1, 3, True),
                    (2.0, RAY1, 3, False),
                    (5.0, hard, 3, True),
                    (1.0, RAY1, 2, False),
                    (5.0, RAY1, 5, False),
                    (2.0, RAY1, 3, True),
                    (0.5, hard, 4, False),
                ]
            )
        ]
        replications = 3000
        per_replication = [experiments._points_per_replication(params) for params, _, _ in tasks]
        blocks = list(experiments._blocks(tasks, replications, budget))
        pieces = [[] for _ in tasks]
        groups = []
        for block in blocks:
            (group,) = {(tasks[t][0].connection, tasks[t][0].k, tasks[t][2]) for t, _, _ in block}
            groups.append(group)
            for t, first, last in block:
                pieces[t].append((first, last))
        for group in set(groups):
            members = [t for t, task in enumerate(tasks) if (task[0].connection, task[0].k, task[2]) == group]
            widest = max(per_replication[t] for t in members)
            loads = [
                sum((last - first) * per_replication[t] for t, first, last in block)
                for block, g in zip(blocks, groups)
                if g == group
            ]
            # a block holds the budget within a replication either way, or
            # one replication that outweighs it; a group's last block holds
            # what is left
            assert all(abs(load - budget) < widest for load in loads[:-1])
            assert loads[-1] < budget + widest
            assert len(loads) == (math.ceil(sum(loads) / budget) if widest < budget else replications)
        for job_pieces in pieces:
            # every replication once, in order
            bounds = [0] + [last for _, last in job_pieces]
            assert [first for first, _ in job_pieces] == bounds[:-1] and bounds[-1] == replications
            assert all(first < last for first, last in job_pieces)
        assert any(len(job_pieces) > 1 for job_pieces in pieces)

    def test_cheap_grid_fills_whole_blocks(self):
        # fig-mean-var's 63 points share one connection and k: its 1000
        # replications fill as few blocks as their proposals allow
        grid = preset_config("fig-mean-var", "unused").params_grid
        tasks = [(params, i, True) for i, params in enumerate(grid)]
        total = sum(1000 * experiments._points_per_replication(params) for params in grid)
        blocks = list(experiments._blocks(tasks, 1000, experiments._BLOCK_POINTS))
        assert len(blocks) == math.ceil(total / experiments._BLOCK_POINTS) > 1

    @given(
        specs=st.lists(st.sampled_from(CONNECTIONS), min_size=2, max_size=2),
        jobs=st.lists(
            st.tuples(
                st.integers(0, 1),
                st.integers(1, 5),
                st.floats(0.05, 1.2),
                st.floats(0.0, 2.0),
                st.integers(0, 2**64 - 1),
                st.booleans(),
            ),
            min_size=1,
            max_size=5,
        ),
        replications=st.integers(1, 6),
        block_points=st.floats(1.0, 40.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_jobs_cut_by_blocks_match_each_replication(self, specs, jobs, replications, block_points):
        # blocks of a few replications cut most grid points mid-range and
        # pack pieces of several grid points together
        tasks = [
            (ModelParams(rho=rho, connection=specs[c], anchor_distance=r, k=k), seed, collect and k == 3)
            for c, k, rho, r, seed, collect in jobs
        ]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiments, "_BLOCK_POINTS", block_points)
            counted = [*map(_pair, experiments._sweep(tasks, replications, 1))]
        for (params, seed, collect), (counts, classes) in zip(tasks, counted):
            assert len(counts) == replications and (classes is None) == (not collect)
            for rep in range(replications):
                ((count, alone),) = map(_pair, _count_block([(params, seed, rep, rep + 1)], collect))
                assert counts[rep] == count[0]
                assert alone is None or np.array_equal(classes[rep], alone[0])

    def test_long_path_memory_is_bounded(self):
        # about 110 explored points and 10000 paths per replication
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

    def test_merged_grid_memory_is_bounded(self):
        # the 21 rho = 5 points of fig-mean-var at 20 replications fill one
        # block of about 14000 proposals and 100000 joining pairs: in runs
        # of _JOIN_PAIRS pairs it peaks near 2 MiB, in runs of 1 << 18 near 13
        row = [p for p in preset_config("fig-mean-var", "unused").params_grid if p.rho == 5.0]
        tasks = [(params, derive_subseed(3, i), True) for i, params in enumerate(row)]
        assert len(list(experiments._blocks(tasks, 20, experiments._BLOCK_POINTS))) == 1
        tracemalloc.start()
        try:
            results = experiments._sweep(tasks, 20, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(results) == 21
        assert peak < 4 * 2**20

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
        pts = sample_realization(params, 4, 0).points
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


class TestColumnTable:
    @pytest.mark.parametrize("collect", [False, True], ids=["pairs-off", "pairs-on"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_every_layer_returns_the_named_int64_columns(self, k, collect):
        # the block counter and a sweep hand on the same column
        # dicts: the counts, and the pair classes only when collected at k = 3
        params = ModelParams(rho=0.8, connection=RAY1, anchor_distance=1.0, k=k)
        other = ModelParams(rho=1.3, connection=RAY1, anchor_distance=0.5, k=k)
        pairs = collect and k == 3
        names = ["counts", "pair_class_counts"] if pairs else ["counts"]
        assert [name for name, _, _ in experiments.COLUMNS] == ["counts", "pair_class_counts"]

        def check(columns, replications):
            assert list(columns) == names
            assert all(columns[name].dtype == np.int64 for name in names)
            assert columns["counts"].shape == (replications,)
            if pairs:
                assert columns["pair_class_counts"].shape == (replications, len(experiments.PAIR_CLASSES))

        slices = [(params, 5, 0, 3), (other, 6, 10, 14)]
        got = _count_block(slices, pairs)
        assert len(got) == 2
        check(got[0], 3)
        check(got[1], 4)
        swept = experiments._sweep([(params, 5, pairs), (other, 6, pairs)], 7, 1)
        assert len(swept) == 2
        for columns in swept:
            check(columns, 7)
        parts = _count_block([(params, 5, 0, 3)], pairs) + _count_block([(params, 5, 3, 7)], pairs)
        counts, classes = run_replications(params, 5, 7, collect_pairs=collect)
        assert np.array_equal(counts, np.concatenate([part["counts"] for part in parts]))
        assert np.array_equal(swept[0]["counts"], counts)
        if pairs:
            assert np.array_equal(classes, np.concatenate([part["pair_class_counts"] for part in parts]))
            assert np.array_equal(swept[0]["pair_class_counts"], classes)
        else:
            assert classes is None

    def test_run_experiment_and_margin_share_the_grid_seeds(self, tmp_path):
        cfg = tiny_config(tmp_path, seed=2**64 - 1)
        cfg = dataclasses.replace(cfg, params_grid=cfg.params_grid * 3)
        seeds = [derive_subseed(2**64 - 1, g) for g in range(3)]
        assert [report.grid_seed for report in run_experiment(cfg)] == seeds
        assert [check.grid_seed for check in validate_margin(cfg, replications=5)] == seeds


class TestRunExperiment:
    @pytest.mark.parametrize("r", [1, 2, 7, 8, 9, 128, 129, 1000])
    def test_pair_stats_equal_each_column(self, r):
        # the summary pass reduces every class of every grid point as its
        # lone column would, at the edges of numpy's pairwise-summation
        # blocks; counts of many magnitudes make the float sums round
        rng = np.random.default_rng(r)
        results = []
        for _ in range(2):
            classes = rng.integers(0, 10 ** rng.integers(1, 16, size=5), size=(r, 5))
            results.append({"counts": rng.poisson(3.0, size=r), "pair_class_counts": classes})
        grid = tuple(ModelParams(rho=1.0, connection=RAY1, anchor_distance=1.0, k=3) for _ in results)
        cfg = ExperimentConfig(name="x", params_grid=grid, replications=r, seed=1, outputs="unused")
        for report, (_, classes) in zip(_summaries(cfg, [0, 1], results), map(_pair, results)):
            for col, name in enumerate(experiments.PAIR_CLASSES):
                vals = classes[:, col].astype(float)
                assert report.pair_means[name] == {"mean": float(vals.mean()), "se": mean_se(vals)}

    @given(
        r=st.sampled_from([1, 2, 3, 8191, 8192, 8193, 10000]),
        points=st.lists(
            st.tuples(st.sampled_from([0.0, 0.05, 0.7, 4.0, 40.0, 300.0]), st.booleans()), min_size=1, max_size=8
        ),
        seed=st.integers(0, 2**32 - 1),
        cells=st.sampled_from([1, 20000, experiments._SUMMARY_CELLS]),
    )
    @settings(max_examples=40, deadline=None)
    def test_summary_pass_equals_each_grid_point(self, r, points, seed, cells):
        # every field of every report, bit for bit, against the per-point
        # oracle: rows past numpy's 8192-element reduction buffer, counts
        # from all zeros to a few hundred (orders 3 to 5 then sum in int64,
        # order 80 in Python integers and order 7 in both), with and without
        # pair classes, and chunks of one grid point to all of them
        rng = np.random.default_rng(seed)
        grid = tuple(
            ModelParams(rho=0.5 + g, connection=RAY1, anchor_distance=1.0, k=3) for g in range(len(points))
        )
        results = [
            {"counts": rng.poisson(lam, size=r)}
            | ({"pair_class_counts": rng.poisson(lam * (lam + 1), size=(r, 5))} if paired else {})
            for lam, paired in points
        ]
        orders = (0, 1, 2, 3, 4, 5, 7, 80)
        cfg = ExperimentConfig(
            name="x", params_grid=grid, replications=r, seed=1, outputs="unused", bracket_orders=orders
        )
        seeds = [derive_subseed(1, g) for g in range(len(grid))]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiments, "_SUMMARY_CELLS", cells)
            reports = _summaries(cfg, seeds, results)
        for g, report in enumerate(reports):
            oracle = summarize_grid_point(g, seeds[g], grid[g], cfg, *_pair(results[g]))
            got, want = (json.dumps(_json_record(rep, _REPORT_FIELDS)) for rep in (report, oracle))
            assert got == want
            assert report.counts is results[g]["counts"]
            assert report.pair_class_counts is results[g].get("pair_class_counts")
            if r == 1:
                assert report.empirical_variance is None
                assert report.empirical_mean_se is report.empirical_variance_se is None
                assert report.empirical_zero_frequency_se is None
                assert all(stats["se"] is None for stats in (report.pair_means or {}).values())

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
        # every row's poisson reference is scipy's analytic-mean pmf, exactly
        from scipy.stats import poisson

        mu = reports[0].analytic_mean
        assert [row[4] for row in rows] == [repr(float(poisson.pmf(int(row[1]), mu))) for row in rows]

    def test_brackets_match_direct_computation(self, tmp_path):
        from rcmpaths.moments import PathCountSamples, truncated_zero_probability

        cfg = tiny_config(tmp_path, bracket_orders=(2, 3, 0, 80), replications=100)
        report = run_experiment(cfg)[0]
        s = PathCountSamples(k=3, counts=report.counts)
        assert report.existence_brackets == tuple(truncated_zero_probability(s, m) for m in (2, 3, 0, 80))


def _old_fmt(value) -> str:
    # the CSV cell chain every type went through before the type table
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return repr(float(value))


def _dumps_or_error(encode, value):
    """``encode(value)``, or the type and message of the ``TypeError`` it raises."""
    try:
        return encode(value)
    except TypeError as exc:
        return TypeError, str(exc)


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_ENCODER_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64 - 2, max_value=2**70) | st.integers(min_value=-(2**70), max_value=-(2**64)),
    _FLOATS,
    _FLOATS.map(np.float64),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 1, True, 0, False]),
    # subclasses: an IntEnum writes as its int, a str subclass as its text
    st.sampled_from([signal.Signals.SIGINT, type("Label", (str,), {})("a\u00e9")]),
    # non-ASCII and control characters, escaped by the C function
    st.text(),
    st.text(alphabet=st.characters(max_codepoint=0x20) | st.sampled_from('"\\\u00e9\u2028\U0001f600')),
)
# one leaf in a few cannot be serialized, and json.dumps raises TypeError on it
_ENCODER_LEAVES = _ENCODER_SCALARS | st.sampled_from([np.int64(3), {1, 2}, np.bool_(True)])
_ENCODER_VALUES = st.recursive(
    _ENCODER_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(st.text(max_size=4) | st.text(alphabet="\x00\x1f\u00e9\u4e2d\"a", max_size=3), children, max_size=6),
        # lists of one exact scalar type, and lists that mix 1 with True
        st.lists(st.integers()),
        st.lists(_FLOATS),
        st.lists(st.text(max_size=3)),
        st.lists(st.booleans()),
        st.lists(st.sampled_from([1, True, 0, False, 1.0])),
    ),
    max_leaves=40,
)
# keys json.dumps turns into strings, and keys it refuses
_ENCODER_KEYS = st.one_of(
    st.integers(), st.floats(), st.booleans(), st.none(), st.text(max_size=2), st.tuples(st.integers())
)


class TestWriters:
    @given(value=_ENCODER_VALUES)
    @settings(max_examples=500, deadline=None)
    def test_json_text_is_json_dumps(self, value):
        want = _dumps_or_error(lambda v: json.dumps(v, indent=2, sort_keys=True), value)
        assert _dumps_or_error(_json_text, value) == want

    @given(d=st.dictionaries(_ENCODER_KEYS, _ENCODER_SCALARS, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_json_text_keys_are_json_dumps(self, d):
        # json.dumps writes int, float, bool and None keys as strings, sorted
        # before they are written, and refuses keys it cannot sort or write
        want = _dumps_or_error(lambda v: json.dumps(v, indent=2, sort_keys=True), d)
        assert _dumps_or_error(_json_text, d) == want

    @pytest.mark.parametrize("value", [np.int64(7), {1}, [1.5, np.int64(7)], {"a": [{"b": {2}}]}])
    def test_json_text_refuses_what_json_dumps_refuses(self, value):
        with pytest.raises(TypeError, match="is not JSON serializable") as exc:
            _json_text(value)
        with pytest.raises(TypeError) as want:
            json.dumps(value, indent=2, sort_keys=True)
        assert str(exc.value) == str(want.value)

    @given(
        value=st.one_of(
            st.none(),
            st.booleans(),
            st.integers(),
            _FLOATS,
            st.text(),
            _FLOATS.map(np.float64),
            st.floats(width=32).map(np.float32),
            st.integers(min_value=-(2**31), max_value=2**31 - 1).map(np.int32),
            st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
            st.booleans().map(np.bool_),
        )
    )
    @settings(max_examples=500, deadline=None)
    def test_fmt_is_the_old_chain(self, value):
        assert _fmt(value) == _old_fmt(value)


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
def mapped(monkeypatch, counted_pools):
    """The items of each ``map`` call to the worker pool, each the tuple of
    its arguments."""
    calls = []

    class MapRecordingPool(experiments.ProcessPoolExecutor):
        def map(self, fn, *items, **kwargs):
            items = [list(it) for it in items]
            calls.append(list(zip(*items)))
            return super().map(fn, *items, **kwargs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", MapRecordingPool)
    return calls


def _fail_on_replication_3(monkeypatch):
    # the draw of a block of replications
    real = experiments.block_points

    def draw(slices, layout):
        if any(first <= 3 < last for _, _, first, last in slices):
            raise FloatingPointError("bad draw")
        return real(slices, layout)

    monkeypatch.setattr(experiments, "block_points", draw)


def _pooled_replications(*grid):
    """Replications of a sweep over ``grid`` that draw about twice
    ``_BATCH_POINTS`` points: a call that costly counts on the worker pool
    at threads > 1."""
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
            # 112 replications, about 16400 points: four blocks at 2 workers
            # and five at 3
            tuple(
                ModelParams(rho=0.3 * (i + 1), connection=RAY1, anchor_distance=1.0, k=2 + i % 3)
                for i in range(7)
            ),
            # 60 replications, about 19800 points: each of the twelve
            # (connection, k) groups, k = 1, 5 and 6 too, is a block on the pool
            tuple(
                ModelParams(rho=1.0, connection=spec, anchor_distance=1.0, k=k)
                for spec in (RAY1, ConnectionSpec.hard_disk(1.0))
                for k in range(1, 7)
            ),
        ],
        ids=["two-points", "seven-mixed-k", "k1-to-6-two-kinds"],
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
        "block_points, sizes",
        [(experiments._BLOCK_POINTS, [3, 4, 3]), (100.0, [19, 19, 15])],
        ids=["cheap-one-batch-per-worker", "costly-one-job-per-item"],
    )
    def test_items_per_map_call(self, tmp_path, monkeypatch, mapped, block_points, sizes):
        # the sweep draws about 1782 points in two (connection, k) groups
        # and the run_replications call about 1457 in one: over 1000 points,
        # each counts on the pool, one map item per block.  By default the
        # sweep's blocks hold 1782 / threads points, 3 blocks at 2 workers
        # and 4 at 3, and the lone point falls into 3; at 100 points a block
        # they hold 1782 / 18 = 99 points, 19 blocks at 2 and 3 workers, and
        # the lone point falls into 15
        monkeypatch.setattr(experiments, "_BATCH_POINTS", 1000.0)
        monkeypatch.setattr(experiments, "_BLOCK_POINTS", block_points)
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
        assert [len(items) for items in mapped] == sizes

    @pytest.mark.parametrize("threads", [2, 3, 4])
    def test_pool_blocks_cover_a_periodic_grid(self, mapped, threads):
        # cost cycles with k along the grid, so the sweep's blocks span grid
        # points of one k; every replication of every point goes to the
        # pool once, in order, and the columns are the one-process sweep's
        grid = [
            ModelParams(rho=rho, connection=RAY1, anchor_distance=1.0, k=k)
            for rho in (0.5, 1.0, 1.5, 2.0)
            for k in (2, 3, 4, 6)
        ]
        tasks = [(params, seed, False) for seed, params in enumerate(grid)]
        replications = _pooled_replications(*grid)
        swept = experiments._sweep(tasks, replications, threads)
        (blocks,) = mapped
        pieces = {seed: [] for _, seed, _ in tasks}
        for slices, collect_pairs in blocks:
            assert not collect_pairs and len({(p.connection, p.k) for p, _, _, _ in slices}) == 1
            for _, seed, first, last in slices:
                pieces[seed].append((first, last))
        for task_pieces in pieces.values():
            bounds = [0] + [last for _, last in task_pieces]
            assert [first for first, _ in task_pieces] == bounds[:-1] and bounds[-1] == replications
            assert all(first < last for first, last in task_pieces)
        for got, expected in zip(swept, experiments._sweep(tasks, replications, 1)):
            assert np.array_equal(got["counts"], expected["counts"])
        # one grid point falls into a multiple of `threads` blocks whose
        # sizes differ by at most one: `threads` of them under threads *
        # _BLOCK_POINTS points in all, and twice as many at 1.5 times that
        params = grid[5]
        per_replication = experiments._points_per_replication(params)
        one_block_each = _pooled_replications(params)
        two_blocks_each = math.ceil(1.5 * threads * experiments._BLOCK_POINTS / per_replication)
        for n, replications in enumerate((one_block_each, two_blocks_each), 1):
            counts, _ = run_replications(params, 7, replications, threads=threads)
            sizes = [last - first for ((_, _, first, last),), _ in mapped[n]]
            assert sum(sizes) == replications and len(sizes) == n * threads
            assert max(sizes) - min(sizes) <= 1
            assert np.array_equal(counts, run_replications(params, 7, replications)[0])

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
        # three cheap grid points share one block, and each of them fails
        # when counted alone, so the error names each with its seed and range
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
            assert f"0..9 of {params} (grid seed {derive_subseed(5, i)})" in message
        assert isinstance(info.value.__cause__, FloatingPointError)
        assert not (tmp_path / "out").exists()

    def test_failure_in_a_shared_block_names_the_failing_point(self, tmp_path, monkeypatch):
        # three cheap grid points share one block, but only the second fails
        # when its slice is counted alone: the error names that point alone
        real = experiments.block_points

        def draw(slices, layout):
            if any(params.rho == 1.0 for params, _, _, _ in slices):
                raise FloatingPointError("bad draw")
            return real(slices, layout)

        monkeypatch.setattr(experiments, "block_points", draw)
        grid = tuple(
            ModelParams(rho=0.5 * (i + 1), connection=RAY1, anchor_distance=1.0, k=3) for i in range(3)
        )
        cfg = tiny_config(tmp_path / "out", params_grid=grid, replications=10)
        with pytest.raises(ReplicationError) as info:
            run_experiment(cfg)
        message = str(info.value)
        assert message.count("(grid seed ") == 1
        assert f"0..9 of {grid[1]} (grid seed {derive_subseed(5, 1)})" in message
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
        # 200 replications of about 8.3 points each: under _BATCH_POINTS
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
        # neither the block draw nor the sampler's point draw runs
        monkeypatch.setattr(experiments, "block_points", None)
        monkeypatch.setattr(sampler, "anchor_neighbours", None)
        counts, _ = run_replications(params, 7, 50)
        assert np.array_equal(counts, expected)
        assert expected.sum() > 0


class TestValidateMargin:
    def test_compact_support_shift_exactly_zero(self, tmp_path):
        # the default margin of a compact kernel is the support radius times
        # k; no k draws a box, so the shift is zero
        grid = (
            ModelParams(rho=1.0, connection=ConnectionSpec.hard_disk(1.0), anchor_distance=1.0, k=4),
        )
        cfg = tiny_config(tmp_path, params_grid=grid)
        check = validate_margin(cfg, replications=300)[0]
        assert check.shift == 0.0 and check.base_mean == check.doubled_mean > 0
        assert not check.flagged

    def test_default_margin_passes(self, tmp_path):
        cfg = tiny_config(tmp_path)
        check = validate_margin(cfg, replications=500)[0]
        assert not check.flagged

    def test_small_margin_shifts_nothing(self, tmp_path):
        # every k draws in the whole plane: no margin, however small, can
        # truncate it, so each shift is exactly zero and the base mean is
        # the sweep's
        grid = (
            ModelParams(rho=1.0, connection=RAY1, anchor_distance=1.0, k=4, margin=0.5),
            ModelParams(rho=1.0, connection=RAY1, anchor_distance=1.0, k=3, margin=0.5),
        )
        cfg = tiny_config(tmp_path, params_grid=grid, replications=500)
        checks = validate_margin(cfg, replications=500)
        for check, report in zip(checks, run_experiment(cfg)):
            assert check.shift == 0.0 and check.shift_se == 0.0
            assert check.base_mean == check.doubled_mean == report.empirical_mean > 0
            assert not check.flagged

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

    @pytest.mark.parametrize("out", ["", "a\0b"], ids=["empty", "nul"])
    def test_sample_refuses_a_bad_out(self, tmp_path, capsys, monkeypatch, out):
        # as run and preset do, rather than writing the sample to stdout
        monkeypatch.chdir(tmp_path)
        assert cli_main(["sample", "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --out: must be a nonempty path without NUL bytes, got {out!r}\n"
        assert not list(tmp_path.iterdir())

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        # a config that is incomplete, not JSON or not UTF-8, and a --table
        # that is not JSON, exit 2 with one error line and write nothing
        path = tmp_path / "bad.json"
        out = ["--out", str(tmp_path / "out")]
        for content, argv, problem in (
            (json.dumps({"name": "x"}).encode(), ["run", str(path), *out], "missing required field"),
            (b'{"name": "x",', ["run", str(path), *out], f"config file {str(path)!r} is not UTF-8 JSON"),
            (b"\xff\xfe", ["run", str(path), *out], f"config file {str(path)!r} is not UTF-8 JSON"),
            (b"", ["sample", "--kind", "tabulated", "--table", "[[0.5, 1", "--out", str(tmp_path / "s.json")],
             "--table: not JSON"),
        ):
            path.write_bytes(content)
            assert cli_main(argv) == 2
            err = capsys.readouterr().err
            assert problem in err and err.startswith("error: ") and err.count("\n") == 1, err
            assert sorted(os.listdir(tmp_path)) == ["bad.json"]

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
    # scipy.special, and the quadrature scipy.special and scipy.fft
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
