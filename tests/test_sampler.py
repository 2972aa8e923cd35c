import math

import numpy as np
import pytest

from rcmpaths.model import ConnectionSpec, ModelParams, Point
from rcmpaths.rng import pair_uniforms
from rcmpaths.sampler import (
    realize_graph,
    region_for,
    sample_conditioned_ppp,
    sample_realization,
)

RAY1 = ConnectionSpec.rayleigh(beta=1.0)


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
