import math

import numpy as np
import pytest

from conftest import CONNECTIONS
from rcmpaths.analytics import mean_khop_numeric
from rcmpaths.experiments import run_replications
from rcmpaths.model import RAYLEIGH, ConnectionSpec, ModelParams, Point, cloud_mass
from rcmpaths.paths import count_khop_paths, iter_khop_paths
from rcmpaths.rng import pair_uniforms, points_generator
from rcmpaths.sampler import (
    box_points,
    draw_edges,
    neighbour_draws,
    realize_graph,
    region_for,
    sample_conditioned_ppp,
    sample_realization,
)

RAY1 = ConnectionSpec.rayleigh(beta=1.0)
HARD_DISK = ConnectionSpec.hard_disk(1.0)
TABLE = ConnectionSpec.tabulated([(0.25, 0.9), (1.5, 0.2)])


def test_region_construction():
    params = ModelParams(rho=2.0, connection=RAY1, anchor_distance=1.0, k=3, margin=5.0)
    region = region_for(params)
    assert region.min_corner == Point(-5.0, -5.0)
    assert region.max_corner == Point(6.0, 5.0)
    assert region.area == pytest.approx(110.0)


def test_anchor_placement():
    params = ModelParams(rho=1.0, connection=RAY1, anchor_distance=2.5, k=3)
    pts = sample_conditioned_ppp(params, 3, 0)
    assert tuple(pts[0]) == (0.0, 0.0)
    assert tuple(pts[1]) == (2.5, 0.0)
    assert abs(np.hypot(*(pts[0] - pts[1])) - 2.5) < 1e-12


def test_points_stay_in_region():
    params = ModelParams(rho=2.0, connection=RAY1, anchor_distance=1.0, k=3, margin=5.0)
    region = region_for(params)
    pts = sample_conditioned_ppp(params, 9, 4)
    assert np.all(region.contains(pts[:, 0], pts[:, 1]))


def test_vanishing_density_leaves_only_anchors():
    params = ModelParams(rho=1e-12, connection=RAY1, anchor_distance=1.0, k=3, margin=5.0)
    for rep in range(100):
        assert len(sample_conditioned_ppp(params, 1, rep)) == 2


def test_poisson_count_mean():
    # area 110 at rho=2: expect 2 + 220 points on average
    params = ModelParams(rho=2.0, connection=RAY1, anchor_distance=1.0, k=3, margin=5.0)
    reps = 10_000
    counts = np.array([len(sample_conditioned_ppp(params, 17, rep)) for rep in range(reps)])
    lam = 220.0
    se = math.sqrt(lam / reps)
    assert abs(counts.mean() - (2 + lam)) < 4 * se


def test_poisson_dispersion():
    params = ModelParams(rho=2.0, connection=RAY1, anchor_distance=1.0, k=3, margin=5.0)
    reps = 10_000
    counts = np.array([len(sample_conditioned_ppp(params, 23, rep)) - 2 for rep in range(reps)])
    lam = 220.0
    assert 0.95 < counts.mean() / lam < 1.05
    assert 0.95 < counts.var(ddof=1) / lam < 1.05


def test_determinism_and_replication_independence():
    params = ModelParams(rho=1.0, connection=RAY1, anchor_distance=1.0, k=3)
    a = sample_conditioned_ppp(params, 5, 11)
    b = sample_conditioned_ppp(params, 5, 11)
    assert np.array_equal(a, b)
    c = sample_conditioned_ppp(params, 5, 12)
    assert a.shape != c.shape or not np.array_equal(a, c)
    ga = sample_realization(params, 5, 11)
    gb = sample_realization(params, 5, 11)
    assert np.array_equal(ga.adjacency, gb.adjacency)
    assert (ga.seed, ga.replication) == (5, 11)


def test_hard_disk_pair_always_connected():
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    spec = ConnectionSpec.hard_disk(2.0)
    for rep in range(50):
        g = realize_graph(pts, spec, 2, rep)
        assert g.adjacency[0, 1]


def test_rayleigh_edge_frequency():
    # two anchors at separation 1: edge probability exp(-1); 1e5 replications
    reps = np.arange(100_000)
    u = pair_uniforms(31, reps, 0, 1)
    p = math.exp(-1.0)
    freq = float(np.mean(u < p))
    se = math.sqrt(p * (1 - p) / len(reps))
    assert abs(freq - p) < 4 * se
    # spot-check that realize_graph uses the same stream
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    for rep in (0, 1, 2, 17, 99):
        g = realize_graph(pts, RAY1, 31, rep)
        assert g.adjacency[0, 1] == (u[rep] < p)


def test_adjacency_structure():
    params = ModelParams(rho=1.0, connection=RAY1, anchor_distance=1.0, k=3, margin=3.0)
    for rep in range(20):
        g = sample_realization(params, 7, rep)
        assert not g.adjacency.diagonal().any()
        assert np.array_equal(g.adjacency, g.adjacency.T)


def test_disjoint_pair_edges_uncorrelated():
    reps = np.arange(100_000)
    x = pair_uniforms(13, reps, 2, 3) < 0.5
    y = pair_uniforms(13, reps, 4, 5) < 0.5
    corr = np.corrcoef(x, y)[0, 1]
    assert abs(corr) < 0.02


class TestAnchorNeighbours:
    """k <= 3 draws only the anchors' neighbours, in the whole plane."""

    @pytest.mark.parametrize(
        "spec",
        [HARD_DISK, TABLE, ConnectionSpec.rayleigh(beta=0.8), ConnectionSpec.rayleigh(beta=0.7, eta=3.0)],
        ids=["hard-disk", "tabulated", "eta-2", "eta-3"],
    )
    @pytest.mark.parametrize("k", [2, 3])
    def test_counter_equals_the_dfs_on_the_realization(self, spec, k):
        params = ModelParams(rho=1.5, connection=spec, anchor_distance=1.0, k=k)
        counts, _ = run_replications(params, 41, 20)
        dfs = [len(list(iter_khop_paths(sample_realization(params, 41, rep), k))) for rep in range(20)]
        assert counts.tolist() == dfs
        assert sum(dfs) > 0

    @pytest.mark.parametrize("spec", [HARD_DISK, CONNECTIONS[3]], ids=["hard-disk", "tabulated"])
    @pytest.mark.parametrize("k", [2, 3])
    def test_mean_matches_quadrature_and_box(self, spec, k):
        params = ModelParams(rho=1.5, connection=spec, anchor_distance=1.2, k=k)
        counts, _ = run_replications(params, 43, 20_000)
        se = counts.std(ddof=1) / math.sqrt(len(counts))
        assert abs(counts.mean() - mean_khop_numeric(params)) < 4 * se
        # the box sampler, realized in full and counted on the graph
        box = np.array(
            [
                count_khop_paths(realize_graph(sample_conditioned_ppp(params, 44, rep), spec, 44, rep), k).count
                for rep in range(2000)
            ]
        )
        box_se = box.std(ddof=1) / math.sqrt(len(box))
        assert abs(counts.mean() - box.mean()) < 4 * math.hypot(se, box_se)

    def test_non_anchor_edges_are_pair_keyed(self):
        # each edge between non-anchor points is drawn once for the unordered
        # pair: realizing twice, or reading the pair either way round, gives
        # the same edge
        params = ModelParams(rho=2.0, connection=RAY1, anchor_distance=1.0, k=3)
        g = sample_realization(params, 9, 4)
        again = sample_realization(params, 9, 4)
        assert np.array_equal(g.points, again.points)
        assert np.array_equal(g.adjacency, again.adjacency)
        iu, ju = np.triu_indices(g.n, k=1)
        iu, ju = iu[iu >= 2], ju[iu >= 2]
        d = g.points[iu] - g.points[ju]
        sq = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
        assert np.array_equal(g.adjacency[iu, ju], g.adjacency[ju, iu])
        assert np.array_equal(g.adjacency[iu, ju], draw_edges(RAY1, 9, 4, ju, iu, sq))
        assert g.adjacency[iu, ju].any()

    def test_every_point_neighbours_an_anchor(self):
        params = ModelParams(rho=2.0, connection=TABLE, anchor_distance=1.0, k=2)
        for rep in range(20):
            g = sample_realization(params, 5, rep)
            assert (g.adjacency[0, 2:] | g.adjacency[1, 2:]).all()

    @pytest.mark.parametrize("spec", CONNECTIONS, ids=["eta-2", "eta-3", "hard-disk", "tabulated"])
    @pytest.mark.parametrize("rho", [0.05, 1.5])
    def test_block_draws_equal_one_replication_at_a_time(self, spec, rho):
        # each replication's variates come from its own public generator in
        # the documented order, however the block is cut; at rho = 0.05 most
        # clouds are empty
        params = ModelParams(rho=rho, connection=spec, anchor_distance=1.0, k=3)
        seed = (1 << 63) + 5

        def one(rep):
            rng = points_generator(seed, rep)
            n0, n1 = rng.poisson(cloud_mass(params), 2).tolist()
            if spec.kind != RAYLEIGH:
                return n0, rng.random((4, n0 + n1))
            radial = rng.standard_gamma(2.0 / spec.eta, n0 + n1)
            return n0, np.vstack([radial, rng.random((2, n0 + n1))])

        expected = [one(rep) for rep in range(40)]
        for a, b in ((0, 40), (7, 8), (13, 29)):
            block = neighbour_draws([(params, seed, a, b)])
            assert len(block) == b - a
            for (n0, v), (want_n0, want_v) in zip(block, expected[a:b]):
                assert n0 == want_n0
                assert v.dtype == want_v.dtype and np.array_equal(v, want_v)
            assert neighbour_draws([(params, seed, b - 1, b)])[0][1].tobytes() == expected[b - 1][1].tobytes()
        sizes = [v.shape[1] for _, v in expected]
        assert max(sizes) > 0
        assert rho > 1 or 0 in sizes


class TestBoxPoints:
    """k >= 4 draws a block of box points, with drawn anchor edges."""

    @pytest.mark.parametrize("rho", [0.05, 1.5])
    def test_box_draws_equal_one_replication_at_a_time(self, rho):
        # each replication's count and uniforms come from its own public
        # generator, placed as in the box, however the block is cut; at
        # rho = 0.05 most boxes are empty
        params = ModelParams(rho=rho, connection=RAY1, anchor_distance=1.0, k=4, margin=1.0)
        region = region_for(params)
        seed = (1 << 63) + 5

        def one(rep):
            rng = points_generator(seed, rep)
            u = rng.random((int(rng.poisson(params.rho * region.area)), 2))
            return np.column_stack(
                [region.min_corner.x + u[:, 0] * region.width, region.min_corner.y + u[:, 1] * region.height]
            )

        expected = [one(rep) for rep in range(40)]
        for a, b in ((0, 40), (7, 8), (13, 29)):
            xy, sizes = box_points(params, seed, range(a, b))
            assert sizes.tolist() == [len(p) for p in expected[a:b]]
            assert xy.tobytes() == np.concatenate(expected[a:b]).tobytes()
            assert sample_conditioned_ppp(params, seed, b - 1)[2:].tobytes() == expected[b - 1].tobytes()
        sizes = [len(p) for p in expected]
        assert max(sizes) > 0
        assert rho > 1 or 0 in sizes

    @pytest.mark.parametrize("spec", CONNECTIONS, ids=["eta-2", "eta-3", "hard-disk", "tabulated"])
    @pytest.mark.parametrize("seed", [0, 19, (1 << 63) + 5], ids=["0", "19", "2**63+5"])
    def test_realization_is_the_full_draw(self, spec, seed):
        # the realization the k >= 4 counter is checked against writes the
        # anchor rows of block_points; they must be the full matrix draw's
        params = ModelParams(rho=1.5, connection=spec, anchor_distance=1.0, k=4, margin=1.0)
        anchor_edges = 0
        for rep in (0, 1, 5, (1 << 64) - 1):
            g = sample_realization(params, seed, rep)
            full = realize_graph(sample_conditioned_ppp(params, seed, rep), spec, seed, rep)
            assert g.points.tobytes() == full.points.tobytes()
            assert np.array_equal(g.adjacency, full.adjacency)
            anchor_edges += int(full.adjacency[:2, 2:].sum())
        assert anchor_edges > 0
