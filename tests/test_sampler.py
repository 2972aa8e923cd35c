import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from conftest import (
    _BOX_X,
    _BOX_Y,
    CONNECTIONS,
    box_bounds,
    box_points,
    pair_uniforms,
    realize_graph,
    sample_conditioned_ppp,
)
from rcmpaths.analytics import mean_khop_numeric, mean_khop_rayleigh
from rcmpaths.experiments import run_replications
from rcmpaths.model import ConnectionSpec, ModelParams, cloud_mass
from rcmpaths.paths import iter_khop_paths, khop_paths
from rcmpaths.rng import (
    STREAM_POINTS,
    fold_keys,
    keyed_uniforms,
    poisson_counts,
    stream_keys,
)
from rcmpaths.sampler import (
    _ANGLE,
    _COUNT,
    _RADIUS,
    anchor_edges,
    anchor_neighbours,
    block_points,
    connection_probabilities,
    sample_realization,
    slice_replications,
)

RAY1 = ConnectionSpec.rayleigh(beta=1.0)
HARD_DISK = ConnectionSpec.hard_disk(1.0)
TABLE = ConnectionSpec.tabulated([(0.25, 0.9), (1.5, 0.2)])


def test_region_construction():
    # the box oracle's rectangle
    params = ModelParams(rho=2.0, connection=RAY1, anchor_distance=1.0, k=3, margin=5.0)
    assert box_bounds(params) == ((-5.0, -5.0), (6.0, 5.0))


def test_anchor_placement():
    for k in (3, 4):
        params = ModelParams(rho=1.0, connection=RAY1, anchor_distance=2.5, k=k)
        pts = sample_realization(params, 3, 0).points
        assert tuple(pts[0]) == (0.0, 0.0)
        assert tuple(pts[1]) == (2.5, 0.0)
        assert abs(np.hypot(*(pts[0] - pts[1])) - 2.5) < 1e-12
        assert len(pts) > 2


def test_points_stay_in_region():
    params = ModelParams(rho=2.0, connection=RAY1, anchor_distance=1.0, k=3, margin=5.0)
    (x0, y0), (x1, y1) = box_bounds(params)
    pts = sample_conditioned_ppp(params, 9, 4)
    assert len(pts) > 2
    assert np.all((pts[:, 0] >= x0) & (pts[:, 0] <= x1) & (pts[:, 1] >= y0) & (pts[:, 1] <= y1))


def test_vanishing_density_leaves_only_anchors():
    for k in (3, 4, 6):
        params = ModelParams(rho=1e-12, connection=RAY1, anchor_distance=1.0, k=k)
        for rep in range(100):
            assert sample_realization(params, 1, rep).n == 2


def _anchor_neighbour_counts(seed):
    # the points adjacent to either anchor, rayleigh beta = 1 at separation
    # 1 and rho = 2: Poisson with mean rho * (2 pi - (pi / 2) exp(-1/2)),
    # the integral of H(|z - x|) + H(|z - y|) - H(|z - x|) H(|z - y|)
    params = ModelParams(rho=2.0, connection=RAY1, anchor_distance=1.0, k=3)
    slices = [(params, seed, 0, 10_000)]
    _, sizes, _, _ = anchor_neighbours(slices, slice_replications(slices))
    return sizes, 2.0 * (2.0 * math.pi - 0.5 * math.pi * math.exp(-0.5))


def test_poisson_count_mean():
    counts, lam = _anchor_neighbour_counts(17)
    se = math.sqrt(lam / len(counts))
    assert abs(counts.mean() - lam) < 4 * se


def test_poisson_dispersion():
    counts, lam = _anchor_neighbour_counts(23)
    assert 0.95 < counts.mean() / lam < 1.05
    assert 0.95 < counts.var(ddof=1) / lam < 1.05


def test_determinism_and_replication_independence():
    params = ModelParams(rho=1.0, connection=RAY1, anchor_distance=1.0, k=3)
    a = sample_realization(params, 5, 11).points
    b = sample_realization(params, 5, 11).points
    assert np.array_equal(a, b)
    c = sample_realization(params, 5, 12).points
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


@given(
    spec=st.sampled_from(CONNECTIONS),
    k=st.sampled_from([3, 4]),
    points=st.lists(
        st.tuples(
            st.integers(0, 2**64 - 1),
            st.integers(0, 2**64 - 3),
            st.integers(1, 3),
            st.sampled_from([0.3, 1.5]),
            st.sampled_from([0.5, 1.0, 2.0]),
        ),
        min_size=1,
        max_size=3,
    ),
)
@settings(max_examples=60, deadline=None)
def test_linked_draws_the_pair_uniforms(spec, k, points):
    # the block's linked callback decides every pair of points of one
    # replication, in either order, as the pair's pair_uniforms below H,
    # save where the exploration decided it (k >= 4): the upper point is
    # adjacent to its parent and to no vertex numbered below the parent
    slices = [
        (ModelParams(rho=rho, connection=spec, anchor_distance=r, k=k, margin=1.0), seed, first, first + n)
        for seed, first, n, rho, r in points
    ]
    layout = slice_replications(slices)
    xy, owner, _, linked = block_points(slices, layout)
    parent = anchor_neighbours(slices, layout)[3]
    seeds, replications, _, _ = layout
    local = np.arange(len(owner)) - np.searchsorted(owner, owner) + 2
    u, v = np.nonzero((owner[:, None] == owner) & ~np.eye(len(owner), dtype=bool))
    d = xy[u] - xy[v]
    h = connection_probabilities(spec, d[:, 0] ** 2 + d[:, 1] ** 2)
    want = pair_uniforms(seeds[owner[u]], replications[owner[u]], local[u], local[v]) < h
    lower, upper = np.minimum(u, v), np.maximum(u, v)
    assert k >= 4 or (parent < 2).all()
    want = (local[lower] == parent[upper]) | ((local[lower] > parent[upper]) & want)
    assert np.array_equal(linked(u, v), want)
    assert np.array_equal(linked(v, u), want)


@pytest.mark.parametrize("spec", CONNECTIONS, ids=["eta-2", "eta-3", "hard-disk", "tabulated"])
def test_anchor_edge_draws_the_pair_uniforms(spec):
    # k = 1 draws the anchors' own edge, the pair {0, 1}, at each slice's
    # anchor distance
    slices = [
        (ModelParams(rho=1.0, connection=spec, anchor_distance=0.6, k=1), 3, 0, 200),
        (ModelParams(rho=2.0, connection=spec, anchor_distance=1.2, k=1), 2**64 - 1, 2**64 - 200, 2**64),
    ]
    layout = slice_replications(slices)
    seeds, replications, distances, _ = layout
    hit = anchor_edges(slices, layout)
    assert np.array_equal(hit, pair_uniforms(seeds, replications, 0, 1) < spec.evaluate(distances))
    assert 0 < hit.sum() < len(hit)


class TestAnchorNeighbours:
    """k <= 3 draws only the anchors' neighbours, in the whole plane."""

    @pytest.mark.parametrize(
        "spec",
        [HARD_DISK, TABLE, ConnectionSpec.rayleigh(beta=0.8), ConnectionSpec.rayleigh(beta=0.7, eta=3.0)],
        ids=["hard-disk", "tabulated", "eta-2", "eta-3"],
    )
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
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
                len(khop_paths(realize_graph(sample_conditioned_ppp(params, 44, rep), spec, 44, rep), k))
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
        assert np.array_equal(g.adjacency[iu, ju], pair_uniforms(9, 4, ju, iu) < connection_probabilities(RAY1, sq))
        assert g.adjacency[iu, ju].any()

    def test_every_point_neighbours_an_anchor(self):
        params = ModelParams(rho=2.0, connection=TABLE, anchor_distance=1.0, k=2)
        for rep in range(20):
            g = sample_realization(params, 5, rep)
            assert (g.adjacency[0, 2:] | g.adjacency[1, 2:]).all()

    @pytest.mark.parametrize("spec", CONNECTIONS, ids=["eta-2", "eta-3", "hard-disk", "tabulated"])
    @pytest.mark.parametrize("rho", [0.05, 1.5])
    def test_block_draws_equal_one_replication_at_a_time(self, spec, rho):
        # every variate is keyed by its replication and its number there, so
        # each replication draws the same points, anchor rows and parents
        # however the block is cut, and beside another grid point's
        # replications, at every depth of the exploration; at rho = 0.05
        # most clouds are empty
        for k in (3, 4, 5, 6):
            params = ModelParams(rho=rho, connection=spec, anchor_distance=1.0, k=k)
            other = replace(params, rho=2.0 * rho, anchor_distance=0.5)
            seed = (1 << 63) + 5
            expected = [_replications([(params, seed, rep, rep + 1)])[0] for rep in range(40)]
            for cut in (
                [(params, seed, 0, 40)],
                [(params, seed, 7, 8)],
                [(other, 3, 0, 5), (params, seed, 13, 29), (other, 3, 5, 9)],
            ):
                got = _replications(cut)
                at = 0
                for p, _, a, b in cut:
                    if p is params:
                        assert got[at : at + b - a] == expected[a:b]
                    at += b - a
            sizes = [len(xy) // 16 for xy, _, _, _ in expected]  # 16 bytes a point
            assert max(sizes) > 0
            assert rho > 1 or 0 in sizes
            # a parent numbered 2 or more is a point found by a point
            deep = [np.frombuffer(parent, dtype=np.int64).max(initial=0) >= 2 for _, _, _, parent in expected]
            assert any(deep) == (k >= 4) or (k >= 4 and rho < 1)

    def test_eta_2_draws_its_documented_keys(self):
        # cloud 0 comes first in each replication: its n0 points lie at
        # sqrt(-log1p(-U) / beta) from anchor 0, U the _RADIUS uniform, at
        # the angle of the _ANGLE uniform
        params = ModelParams(rho=1.5, connection=ConnectionSpec.rayleigh(beta=0.8), anchor_distance=1.0, k=3)
        seed = 21
        slices = [(params, seed, 0, 30)]
        xy, owner, near, _ = block_points(slices, slice_replications(slices))
        sizes = np.bincount(owner, minlength=30)
        starts = np.cumsum(sizes) - sizes
        for rep in range(30):
            key = stream_keys(seed, rep, STREAM_POINTS)
            n0 = int(poisson_counts(cloud_mass(params), keyed_uniforms(fold_keys(key, _COUNT), 0)))
            i = np.arange(n0)
            dist = np.sqrt(-np.log1p(-keyed_uniforms(fold_keys(key, _RADIUS), i)) / 0.8)
            angle = 2.0 * math.pi * keyed_uniforms(fold_keys(key, _ANGLE), i)
            got = xy[starts[rep] : starts[rep] + n0]
            assert np.array_equal(got, np.column_stack([dist * np.cos(angle), dist * np.sin(angle)]))
            assert near[0][starts[rep] : starts[rep] + sizes[rep]].sum() == n0
        assert sizes.sum() > 0

    @pytest.mark.parametrize("eta", [1.0, 2.0, 3.0, 6.0])
    def test_radii_and_angles_follow_their_laws(self, eta):
        # a cloud-0 point lies at distance D from anchor 0 with beta D**eta
        # ~ Gamma(2/eta), at a uniform angle: KS over many replications
        beta = 0.7
        spec = ConnectionSpec.rayleigh(beta=beta, eta=eta)
        params = ModelParams(rho=0.5, connection=spec, anchor_distance=1.0, k=3)
        slices = [(params, 5, 0, 8000)]
        xy, _, near, _ = block_points(slices, slice_replications(slices))
        x, y = xy[near[0]].T
        assert len(x) > 5000
        dist = np.hypot(x, y)
        assert stats.kstest(dist, lambda r: special.gammainc(2.0 / eta, beta * r**eta)).pvalue > 1e-3
        angle = np.mod(np.arctan2(y, x), 2.0 * math.pi) / (2.0 * math.pi)
        assert stats.kstest(angle, "uniform").pvalue > 1e-3


def _replications(slices):
    """The exploration of ``slices`` cut back into replications: the bytes
    of each one's points, of its two anchor rows and of its points'
    parents."""
    xy, sizes, near, parent = anchor_neighbours(slices, slice_replications(slices))
    cuts = np.cumsum(sizes)[:-1]
    parts = (np.split(z, cuts) for z in (xy, *near, parent))
    return [tuple(z.tobytes() for z in rows) for rows in zip(*parts)]


class TestBoxPoints:
    """The box oracle of ``conftest.py``: a Poisson process on the anchors'
    bounding box grown by the margin, realized in full."""

    @pytest.mark.parametrize("rho", [0.05, 1.5])
    def test_box_draws_equal_one_replication_at_a_time(self, rho):
        # each replication draws its count from its _COUNT uniform and point
        # i from its _BOX_X and _BOX_Y uniforms i, placed in the box, however
        # the block is cut and beside another grid point's box; at
        # rho = 0.05 most boxes are empty
        params = ModelParams(rho=rho, connection=RAY1, anchor_distance=1.0, k=4, margin=1.0)
        other = replace(params, rho=2.0 * rho, anchor_distance=2.0)
        (x0, y0), (x1, y1) = box_bounds(params)
        seed = (1 << 63) + 5

        def one(rep):
            key = stream_keys(seed, rep, STREAM_POINTS)
            i = np.arange(poisson_counts(params.rho * ((x1 - x0) * (y1 - y0)), keyed_uniforms(fold_keys(key, _COUNT), 0)))
            u = np.column_stack([keyed_uniforms(fold_keys(key, f), i) for f in (_BOX_X, _BOX_Y)])
            return np.column_stack([x0 + u[:, 0] * (x1 - x0), y0 + u[:, 1] * (y1 - y0)])

        expected = [one(rep) for rep in range(40)]
        for a, b in ((0, 40), (7, 8), (13, 29)):
            slices = [(other, 3, 0, 4), (params, seed, a, b)]
            xy, sizes = box_points(slices, slice_replications(slices))
            assert sizes[4:].tolist() == [len(p) for p in expected[a:b]]
            assert xy[sizes[:4].sum() :].tobytes() == np.concatenate(expected[a:b]).tobytes()
            assert sample_conditioned_ppp(params, seed, b - 1)[2:].tobytes() == expected[b - 1].tobytes()
        sizes = [len(p) for p in expected]
        assert max(sizes) > 0
        assert rho > 1 or 0 in sizes

    def test_box_coordinates_are_uniform(self):
        params = ModelParams(rho=0.05, connection=RAY1, anchor_distance=2.0, k=4, margin=3.0)
        (x0, y0), (x1, y1) = box_bounds(params)
        slices = [(params, 8, 0, 2500)]
        xy, sizes = box_points(slices, slice_replications(slices))
        assert sizes.sum() > 5000
        assert stats.kstest((xy[:, 0] - x0) / (x1 - x0), "uniform").pvalue > 1e-3
        assert stats.kstest((xy[:, 1] - y0) / (y1 - y0), "uniform").pvalue > 1e-3

    @pytest.mark.parametrize("spec", CONNECTIONS, ids=["eta-2", "eta-3", "hard-disk", "tabulated"])
    @pytest.mark.parametrize("seed", [0, 19, (1 << 63) + 5], ids=["0", "19", "2**63+5"])
    def test_realization_is_the_full_draw(self, spec, seed):
        # at k = 4 the realization draws every pair of points that the
        # exploration left open, and the anchors' own pair, as the full
        # matrix draw of its points does
        params = ModelParams(rho=1.5, connection=spec, anchor_distance=1.0, k=4)
        deep = 0
        for rep in (0, 1, 5, (1 << 64) - 1):
            g = sample_realization(params, seed, rep)
            full = realize_graph(g.points, spec, seed, rep)
            parent = np.concatenate([[-1, -1], _parents(params, seed, rep)])
            iu, ju = np.triu_indices(g.n, k=1)
            drawn = (iu > parent[ju]) & ((iu >= 2) | (ju == 1))
            assert np.array_equal(g.adjacency[iu[drawn], ju[drawn]], full.adjacency[iu[drawn], ju[drawn]])
            deep += int((parent >= 2).sum())
        assert deep > 0


def _parents(params, seed, rep):
    """The parents' numbers of the points of one replication."""
    slices = [(params, seed, rep, rep + 1)]
    return anchor_neighbours(slices, slice_replications(slices))[3]


def _hops(adjacency):
    """Each vertex's hop distance from the nearer anchor (-1 if none)."""
    hops = np.full(len(adjacency), -1)
    hops[:2] = 0
    front, d = np.array([0, 1]), 0
    while len(front):
        d += 1
        reached = adjacency[front].any(axis=0) & (hops < 0)
        hops[reached] = d
        front = np.flatnonzero(reached)
    return hops


class TestExplorer:
    """k >= 4 explores the points within k // 2 hops of an anchor, one
    generation after another."""

    @pytest.mark.parametrize("spec", CONNECTIONS, ids=["eta-2", "eta-3", "hard-disk", "tabulated"])
    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_points_lie_within_half_k_hops(self, spec, k):
        # a point found by a point (a parent numbered 2 or more) has no
        # anchor edge, is adjacent to its parent and to no vertex numbered
        # below it, and lies one hop further out than its parent: every
        # point's hop distance is its generation, at most k // 2
        params = ModelParams(rho=1.5, connection=spec, anchor_distance=1.0, k=k)
        deepest = 0
        for rep in range(10):
            g = sample_realization(params, 29, rep)
            parent = np.concatenate([[-1, -1], _parents(params, 29, rep)])
            points = np.arange(2, g.n)
            assert (parent[points] < points).all()
            generation = np.zeros(g.n, dtype=np.int64)
            for v in points:
                generation[v] = generation[parent[v]] + 1 if parent[v] >= 2 else 1
            assert np.array_equal(_hops(g.adjacency)[2:], generation[2:])
            assert generation.max() <= k // 2
            deep = points[parent[points] >= 2]
            assert not g.adjacency[:2, deep].any()
            assert g.adjacency[parent[points], points].all()
            for v in deep:
                assert not g.adjacency[: parent[v], v].any()
            deepest = max(deepest, generation.max())
        assert deepest == k // 2

    @given(
        spec=st.sampled_from(CONNECTIONS),
        k=st.sampled_from([4, 5]),
        points=st.lists(
            st.tuples(
                st.integers(0, 2**64 - 1),
                st.integers(0, 2**64 - 4),
                st.integers(1, 3),
                st.sampled_from([0.3, 1.5]),
                st.sampled_from([0.5, 1.0, 2.0]),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_first_generation_is_the_k3_draw(self, spec, k, points):
        # the first generation, the anchors' neighbours with their marked
        # anchor rows, is the k <= 3 draw bit for bit and comes first in its
        # replication; the later points have no anchor edge
        def draw(k):
            slices = [
                (ModelParams(rho=rho, connection=spec, anchor_distance=r, k=k), seed, first, first + n)
                for seed, first, n, rho, r in points
            ]
            layout = slice_replications(slices)
            return block_points(slices, layout), anchor_neighbours(slices, layout)[3]

        (xy, owner, near, _), parent = draw(k)
        (xy3, owner3, near3, _), _ = draw(3)
        first = parent < 2
        assert np.array_equal(owner[first], owner3)
        assert xy[first].tobytes() == xy3.tobytes()
        for row, row3 in zip(near, near3):
            assert np.array_equal(row[first], row3)
            assert not row[~first].any()
        local = np.arange(len(owner)) - np.searchsorted(owner, owner)
        assert np.array_equal(local[first], np.arange(len(owner3)) - np.searchsorted(owner3, owner3))

    @pytest.mark.parametrize(
        "spec",
        [ConnectionSpec.rayleigh(beta=1.0), ConnectionSpec.hard_disk(1.0), TABLE],
        ids=["eta-2", "hard-disk", "tabulated"],
    )
    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_mean_matches_the_reference(self, spec, k):
        # the closed form at eta = 2, the radial quadrature otherwise
        params = ModelParams(rho=0.5, connection=spec, anchor_distance=1.0, k=k)
        counts, _ = run_replications(params, 47, 20_000)
        se = counts.std(ddof=1) / math.sqrt(len(counts))
        reference = mean_khop_rayleigh(params) if spec.kind == "rayleigh" else mean_khop_numeric(params)
        assert counts.sum() > 1000
        assert abs(counts.mean() - reference) < 4 * se

    @pytest.mark.parametrize(
        "spec, k", [(HARD_DISK, 4), (HARD_DISK, 5), (TABLE, 4)], ids=["hard-disk-4", "hard-disk-5", "tabulated-4"]
    )
    def test_mean_matches_the_box_oracle(self, spec, k):
        # the box oracle at twice the default margin, realized in full and
        # counted on the graph
        params = ModelParams(rho=0.5, connection=spec, anchor_distance=1.0, k=k)
        counts, _ = run_replications(params, 53, 20_000)
        se = counts.std(ddof=1) / math.sqrt(len(counts))
        wide = replace(params, margin=2.0 * params.margin)
        box = np.array(
            [
                len(khop_paths(realize_graph(sample_conditioned_ppp(wide, 59, rep), spec, 59, rep), k))
                for rep in range(2000)
            ]
        )
        box_se = box.std(ddof=1) / math.sqrt(len(box))
        assert box.sum() > 100
        assert abs(counts.mean() - box.mean()) < 4 * math.hypot(se, box_se)
