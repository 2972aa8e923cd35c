import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CONNECTIONS,
    OracleSizeError,
    build_graph,
    classify_path_pairs_oracle,
    count_khop_paths_oracle,
    small_random_realization,
)
from rcmpaths import cli, paths
from rcmpaths.model import ModelParams
from rcmpaths.paths import (
    classify_pair_structures,
    classify_path_pair_segments,
    iter_khop_paths,
    khop_paths,
)
from rcmpaths.sampler import sample_realization

PATH_4 = [(0, 2), (2, 3), (3, 1)]  # x - a - b - y
COMPLETE_4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
COMPLETE_5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]


def test_single_path_graph():
    g = build_graph(4, PATH_4)
    assert len(khop_paths(g, 3)) == 1
    assert count_khop_paths_oracle(g, 3) == 1


def test_complete_graphs():
    assert len(khop_paths(build_graph(4, COMPLETE_4), 3)) == 2
    assert len(khop_paths(build_graph(5, COMPLETE_5), 3)) == 6


def test_one_hop():
    g = build_graph(3, [(0, 1)])
    assert len(khop_paths(g, 1)) == 1
    g2 = build_graph(3, [(0, 2), (2, 1)])
    assert len(khop_paths(g2, 1)) == 0
    assert len(khop_paths(g2, 2)) == 1


def test_empty_edge_set():
    g = build_graph(5, [])
    for k in (1, 2, 3, 4):
        assert len(khop_paths(g, k)) == 0
        assert count_khop_paths_oracle(g, k) == 0


def test_anchor_not_intermediate():
    # 0-1 edge plus 1-2, 2-3, 3-1: any 3-hop route would have to pass through
    # the far anchor; none may
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 1)])
    assert len(khop_paths(g, 3)) == 0


def test_isolated_anchor_gives_zero():
    g = build_graph(5, [(2, 3), (3, 4), (2, 4)])
    for k in (1, 2, 3):
        assert len(khop_paths(g, k)) == 0


def test_iter_paths_consistent():
    g = build_graph(5, COMPLETE_5)
    paths = list(iter_khop_paths(g, 3))
    assert len(paths) == len(khop_paths(g, 3))
    assert len(set(paths)) == len(paths)
    for p in paths:
        assert p[0] == 0 and p[-1] == 1
        assert len(set(p)) == len(p)
        for a, b in zip(p, p[1:]):
            assert g.adjacency[a, b]


def test_oracle_guard():
    g = build_graph(20, [])
    with pytest.raises(OracleSizeError):
        count_khop_paths_oracle(g, 3)


def test_oracle_equals_dfs_on_random_instances():
    checked = 0
    rep = 0
    while checked < 300:
        g = small_random_realization(101, rep)
        rep += 1
        if g is None:
            continue
        checked += 1
        for k in (1, 2, 3, 4):
            assert len(khop_paths(g, k)) == count_khop_paths_oracle(g, k)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_adding_edge_never_decreases_counts(rep):
    g = small_random_realization(55, rep)
    if g is None:
        return
    before = {k: len(khop_paths(g, k)) for k in (1, 2, 3, 4)}
    free = np.argwhere(~g.adjacency)
    free = [tuple(ij) for ij in free if ij[0] < ij[1]]
    if not free:
        return
    i, j = free[rep % len(free)]
    adj = g.adjacency.copy()
    adj[i, j] = adj[j, i] = True
    g2 = type(g)(points=g.points, adjacency=adj, seed=0, replication=0)
    for k in (1, 2, 3, 4):
        assert len(khop_paths(g2, k)) >= before[k]


class TestPairClassification:
    def test_single_path(self):
        g = build_graph(4, PATH_4)
        c = classify_pair_structures(g)
        assert (c.sigma0, c.sigma11, c.sigma12, c.sigma21, c.sigma22) == (0, 0, 0, 1, 0)

    def test_complete_four(self):
        # paths x-a-b-y and x-b-a-y share both intermediates
        c = classify_pair_structures(build_graph(4, COMPLETE_4))
        assert (c.sigma0, c.sigma11, c.sigma12, c.sigma21, c.sigma22) == (0, 0, 0, 2, 2)

    def test_two_disjoint_paths(self):
        g = build_graph(6, [(0, 2), (2, 3), (3, 1), (0, 4), (4, 5), (5, 1)])
        c = classify_pair_structures(g)
        assert (c.sigma0, c.sigma11, c.sigma12, c.sigma21, c.sigma22) == (2, 0, 0, 2, 0)

    def test_shared_first_position(self):
        # x-a-b-y and x-a-c-y share a as first intermediate (anchor edge x-a)
        g = build_graph(5, [(0, 2), (2, 3), (3, 1), (2, 4), (4, 1)])
        c = classify_pair_structures(g)
        assert (c.sigma0, c.sigma11, c.sigma12, c.sigma21, c.sigma22) == (0, 2, 0, 2, 0)

    def test_shared_opposite_positions(self):
        # x-a-u-y and x-u-b-y share u at opposite positions, no shared edge
        g = build_graph(5, [(0, 2), (2, 4), (4, 1), (0, 4), (4, 3), (3, 1)])
        c = classify_pair_structures(g)
        assert c.sigma12 == 2
        assert c.sigma21 == 2

    def test_mirror_pairs_are_even(self):
        for rep in range(40):
            g = small_random_realization(77, rep)
            if g is None:
                continue
            c = classify_pair_structures(g)
            assert c.sigma11 % 2 == 0
            assert c.sigma12 % 2 == 0
            assert c.sigma22 % 2 == 0

    def test_decomposition_identity_random(self):
        for rep in range(300):
            g = small_random_realization(31, rep)
            if g is None:
                continue
            sigma = len(khop_paths(g, 3))
            c = classify_pair_structures(g)
            assert c.total == sigma * sigma
            assert c.sigma21 == sigma

    def test_classify_empty(self):
        c = classify_pair_structures(build_graph(5, [(0, 2), (2, 3), (4, 1)]))
        assert c.total == 0

    @pytest.mark.parametrize("spec", CONNECTIONS, ids=["eta-2", "eta-3", "hard-disk", "tabulated"])
    @given(
        rho=st.floats(0.05, 3.0),
        anchor_distance=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**64 - 1),
        rep=st.integers(0, 10_000),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_the_oracle_on_realizations(self, spec, rho, anchor_distance, seed, rep):
        # the reversed paths, read off the anchor rows, are those the
        # O(m**2) oracle finds by comparing every pair
        params = ModelParams(rho=rho, connection=spec, anchor_distance=anchor_distance, k=3)
        g = sample_realization(params, seed, rep)
        assert classify_pair_structures(g) == classify_path_pairs_oracle(khop_paths(g, 3)[:, 1:3])

    @given(
        rows=st.sets(
            st.tuples(st.integers(2, 9), st.integers(2, 9)).filter(lambda t: t[0] != t[1]), max_size=40
        ),
        reverse=st.lists(st.booleans(), max_size=40),
    )
    @settings(max_examples=400, deadline=None)
    def test_identities_match_oracle(self, rows, reverse):
        # few vertices, so shared intermediates are common; ``reverse`` adds
        # the swapped twin of some rows, the sigma22 case
        rows = set(rows) | {(b, a) for (a, b), flip in zip(sorted(rows), reverse) if flip}
        _assert_segments_match_oracle([rows])

    @given(
        sets=st.lists(
            st.sets(
                st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda t: t[0] != t[1]),
                max_size=20,
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_segmented_identities_match_oracle(self, sets):
        _assert_segments_match_oracle(sets)


def _assert_segments_match_oracle(sets):
    # each set gets its own vertex ids, as the block counter's sets do; the
    # reversed rows are the caller's, as the sweep reads them off its anchor
    # edges
    z1, z2, seg, reversed_too = [], [], [], []
    for s, rows in enumerate(sets):
        for a, b in sorted(rows):
            z1.append(10 * s + a)
            z2.append(10 * s + b)
            seg.append(s)
            reversed_too.append((b, a) in rows)
    z1, z2, seg = (np.array(v, dtype=np.int64) for v in (z1, z2, seg))
    counts = classify_path_pair_segments(z1, z2, seg, len(sets), np.array(reversed_too, dtype=bool))
    for s, rows in enumerate(sets):
        expected = classify_path_pairs_oracle(np.array(sorted(rows), dtype=np.int64).reshape(-1, 2))
        assert tuple(counts[s]) == (
            expected.sigma0, expected.sigma11, expected.sigma12, expected.sigma21, expected.sigma22
        )


def _assert_rows_are_the_dfs_paths(g, k):
    rows = khop_paths(g, k)
    assert rows.shape[1] == k + 1
    assert [tuple(r) for r in rows.tolist()] == list(iter_khop_paths(g, k))


class TestPathRows:
    """The half-path join on a realized graph lists exactly the DFS's paths,
    in the DFS's order."""

    @given(
        spec=st.sampled_from(CONNECTIONS),
        k=st.integers(1, 6),
        rho=st.floats(0.05, 2.0),
        anchor_distance=st.floats(0.0, 2.0),
        margin=st.floats(0.2, 1.5),
        seed=st.integers(0, 2**64 - 1),
        rep=st.integers(0, 10_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_equal_the_dfs_on_realizations(self, spec, k, rho, anchor_distance, margin, seed, rep):
        params = ModelParams(rho=rho, connection=spec, anchor_distance=anchor_distance, k=k, margin=margin)
        g = sample_realization(params, seed, rep)
        _assert_rows_are_the_dfs_paths(g, k)

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_equal_the_dfs_on_complete_graphs(self, n):
        g = build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        for k in range(1, 7):
            _assert_rows_are_the_dfs_paths(g, k)


def test_no_product_path_reaches_the_dfs(monkeypatch, capsys):
    # the DFS is the tests' reference: counting, pair classes and ``sample``
    # all list paths through the half-path join
    def refuse(*args, **kwargs):
        raise AssertionError("the DFS was called")

    monkeypatch.setattr(paths, "iter_khop_paths", refuse)
    # a name bound in the command-line module by import would escape the patch above
    monkeypatch.setattr(cli, "iter_khop_paths", refuse, raising=False)
    g = build_graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
    assert len(khop_paths(g, 3)) == 12
    assert classify_pair_structures(g).total == 144
    assert cli.main(["sample", "--k", "4", "--rho", "1", "--seed", "3"]) == 0
    assert '"path_count"' in capsys.readouterr().out
