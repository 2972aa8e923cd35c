import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import fold, pair_uniforms
from rcmpaths.experiments import ExperimentConfig, _grid_tasks
from rcmpaths.model import ConnectionSpec, ModelParams
from rcmpaths.rng import (
    POISSON_MAX,
    STREAM_EDGES,
    STREAM_POINTS,
    STREAM_SUBSEED,
    derive_subseed,
    fold_keys,
    keyed_uniforms,
    poisson_counts,
    stream_keys,
)
from rcmpaths.sampler import _ACCEPT, _COUNT, _MARK

u64s = st.integers(min_value=0, max_value=(1 << 64) - 1)
small_ints = st.integers(min_value=0, max_value=1 << 20)


def test_pair_uniforms_symmetric():
    assert pair_uniforms(7, 3, 4, 9) == pair_uniforms(7, 3, 9, 4)
    i = np.array([2, 5, 8])
    j = np.array([10, 1, 3])
    assert np.array_equal(pair_uniforms(7, 3, i, j), pair_uniforms(7, 3, j, i))


@given(seed=u64s, rep=u64s, i=u64s, j=u64s)
@settings(max_examples=200)
def test_pair_uniforms_scalar_equals_fold(seed, rep, i, j):
    # scalars take the array fold, which wraps as the Python-int fold does
    u = pair_uniforms(seed, rep, i, j)
    assert np.ndim(u) == 0
    assert u == (fold(seed, rep, STREAM_EDGES, min(i, j), max(i, j)) >> 11) * 2.0**-53


def test_pair_uniforms_scalar_matches_array():
    u_scalar = pair_uniforms(9, 3, 0, 1)
    u_array = pair_uniforms(9, 3, np.array([0]), np.array([1]))[0]
    assert u_scalar == u_array
    u_reps = pair_uniforms(9, np.arange(5), 0, 1)
    assert u_reps[3] == pair_uniforms(9, 3, 0, 1)


def test_streams_are_distinct():
    # same indices, different replication or seed -> different draws
    assert pair_uniforms(1, 0, 0, 1) != pair_uniforms(1, 1, 0, 1)
    assert pair_uniforms(1, 0, 0, 1) != pair_uniforms(2, 0, 0, 1)
    assert derive_subseed(5, 0) != derive_subseed(5, 1)


def test_determinism():
    a = pair_uniforms(42, 7, np.arange(100), np.arange(100, 200))
    b = pair_uniforms(42, 7, np.arange(100), np.arange(100, 200))
    assert np.array_equal(a, b)
    keys = fold_keys(stream_keys(42, 7, STREAM_POINTS), 3)
    assert np.array_equal(keyed_uniforms(keys, np.arange(16)), keyed_uniforms(keys, np.arange(16)))


@given(seed=u64s, rep=small_ints, field=small_ints, index=u64s)
@settings(max_examples=200)
def test_points_key_is_two_folds(seed, rep, field, index):
    # a point variate's uniform is the fold of its draw and its number into
    # the replication's point-stream key
    (u,) = keyed_uniforms(fold_keys(stream_keys(seed, [rep], STREAM_POINTS), field), index).tolist()
    assert u == (fold(seed, rep, STREAM_POINTS, field, index) >> 11) * 2.0**-53


@pytest.mark.parametrize("seed", [0, (1 << 63) + 5, (1 << 64) - 1], ids=["0", "2**63+5", "2**64-1"])
def test_points_keys_fold_a_block(seed):
    # the one-pass uint64 fold of a block gives the Python-int fold of each
    # replication, replications at and above 2**63 included
    reps = [0, 1, 2, 1 << 32, (1 << 63) - 1, 1 << 63, (1 << 64) - 2, (1 << 64) - 1]
    keys = stream_keys(seed, np.array(reps, dtype=np.uint64), STREAM_POINTS)
    assert keys.dtype == np.uint64 and keys.shape == (len(reps),)
    assert keys.tolist() == [fold(seed, rep, STREAM_POINTS) for rep in reps]
    # a range, as the sweep passes its blocks, up to the last replication
    assert np.array_equal(stream_keys(seed, range((1 << 64) - 2, 1 << 64), STREAM_POINTS), keys[-2:])
    assert stream_keys(seed, [], STREAM_POINTS).shape == (0,)


def test_uniformity_gross():
    u = pair_uniforms(3, np.arange(200_000), 0, 1)
    assert 0.0 <= u.min() and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.std() - (1 / 12) ** 0.5) < 0.005
    # occupancy of ten equal bins
    hist = np.histogram(u, bins=10, range=(0, 1))[0] / len(u)
    assert np.all(np.abs(hist - 0.1) < 0.01)


@pytest.mark.parametrize("seed, index", [(0, 0), (11, 5), (123456789, 62), (2**64 - 1, 2**64 - 1)])
def test_derive_subseed_equals_fold(seed, index):
    # the one uint64 hash gives the Python-int fold's grid seeds
    got = derive_subseed(seed, index)
    assert type(got) is int and got == fold(seed, index, STREAM_SUBSEED)


@given(seed=u64s, size=st.integers(1, 70))
@settings(max_examples=50, deadline=None)
def test_grid_seeds_equal_fold(seed, size):
    grid = (ModelParams(rho=1.0, connection=ConnectionSpec.rayleigh(beta=1.0), anchor_distance=1.0, k=3),) * size
    config = ExperimentConfig(name="x", params_grid=grid, replications=1, seed=seed, outputs="unused")
    seeds, tasks = _grid_tasks(config, False)
    assert seeds == [fold(seed, g, STREAM_SUBSEED) for g in range(size)]
    assert [task[1] for task in tasks] == seeds


def test_negative_and_large_seeds_accepted():
    assert isinstance(fold(-5, 1), int)
    assert isinstance(fold(1 << 100, 1), int)


def test_pair_uniforms_replication_array_matches_scalars():
    # runs of equal replications, a repeated replication after another, and
    # an unsorted order all give the scalar route's values element by element
    reps = np.array([3, 3, 3, 7, 7, 3, 0, 12])
    i = np.array([2, 5, 0, 9, 1, 4, 6, 3])
    j = np.array([4, 2, 1, 3, 8, 4, 0, 30])
    u = pair_uniforms(11, reps, i, j)
    for t in range(len(reps)):
        assert u[t] == pair_uniforms(11, int(reps[t]), int(i[t]), int(j[t]))
    empty = np.array([], dtype=np.int64)
    assert pair_uniforms(11, empty, empty, empty).shape == (0,)


@given(seed=u64s, reps=st.lists(u64s, min_size=1, max_size=8))
@settings(max_examples=200)
def test_pair_uniforms_prefixes_equal_fold(seed, reps):
    # the array pass over the replications' edge-stream prefixes must give
    # the bits of the Python-int fold, replications above 2**63 included
    reps = sorted(reps) + [(1 << 63) + 1, (1 << 64) - 1]
    u = pair_uniforms(seed, np.array(reps, dtype=np.uint64), 2, 5)
    for t, rep in enumerate(reps):
        h = fold(seed, rep, STREAM_EDGES, 2, 5)
        assert u[t] == (h >> 11) * 2.0**-53


@given(
    runs=st.lists(st.tuples(u64s, u64s, st.integers(1, 4)), min_size=1, max_size=6),
    big=st.sampled_from([1 << 63, (1 << 64) - 1]),
)
@settings(max_examples=200)
def test_pair_uniforms_per_element_seeds_equal_scalar_seeds(runs, big):
    # runs of (seed, replication), a seed at or above 2**63 among them, and
    # the first run repeated after the others: each element gets the bits
    # of the scalar-seed call
    runs = [*runs, (big, runs[0][1], 2), runs[0]]
    seeds = np.array([s for s, _, n in runs for _ in range(n)], dtype=np.uint64)
    reps = np.array([r for _, r, n in runs for _ in range(n)], dtype=np.uint64)
    i = np.arange(len(seeds)) % 5
    j = i + 3
    u = pair_uniforms(seeds, reps, i, j)
    for t in range(len(seeds)):
        assert u[t] == pair_uniforms(int(seeds[t]), int(reps[t]), int(i[t]), int(j[t]))
    # one seed per element against one replication, and one replication per
    # element against a broadcast seed
    expected = [pair_uniforms(int(s), 9, int(a), int(b)) for s, a, b in zip(seeds, i, j)]
    assert np.array_equal(pair_uniforms(seeds, 9, i, j), expected)
    assert pair_uniforms(seeds[:1], reps[:1], 0, 1)[0] == pair_uniforms(int(seeds[0]), int(reps[0]), 0, 1)


def test_pair_uniforms_per_element_seeds_empty():
    empty = np.array([], dtype=np.uint64)
    assert pair_uniforms(empty, empty, empty, empty).shape == (0,)
    assert pair_uniforms(empty, 3, empty, empty).shape == (0,)
    assert pair_uniforms(np.zeros((2, 0), dtype=np.uint64), 3, 0, 1).shape == (2, 0)


def _point_uniforms(field, n=100_000, seed=(1 << 63) + 7):
    """One point-stream uniform of draw ``field`` for each of ``n``
    replications, and a few variate numbers each."""
    keys = stream_keys(seed, np.arange(n // 4), STREAM_POINTS)
    return keyed_uniforms(fold_keys(keys, field)[:, None], np.array([0, 1, 2, 1 << 40])).ravel()


@pytest.mark.parametrize("field", [_MARK, _ACCEPT])
def test_point_uniforms_are_uniform(field):
    u = _point_uniforms(field)
    assert 0.0 <= u.min() and u.max() < 1.0
    assert stats.kstest(u, "uniform").pvalue > 1e-3


@pytest.mark.parametrize("mean", [0.05, 3.7, 40.0, 903.5])
def test_poisson_counts_follow_the_pmf(mean):
    # chi-squared against the exact pmf, over the counts of many keys, the
    # bins merged until each expects at least 20
    n = poisson_counts(mean, _point_uniforms(_COUNT))
    assert n.min() >= 0
    top = int(stats.poisson.ppf(1 - 1e-9, mean)) + 1
    edges, expected = [0], []
    mass = 0.0
    for c in range(top + 1):
        mass += stats.poisson.pmf(c, mean)
        if mass * len(n) >= 20 and stats.poisson.sf(c, mean) * len(n) >= 20:
            edges.append(c + 1)
            expected.append(mass)
            mass = 0.0
    expected.append(stats.poisson.sf(edges[-1] - 1, mean))
    observed = np.histogram(n, bins=[*edges, np.inf])[0]
    assert len(observed) >= 2
    chi2 = (((observed - len(n) * np.array(expected)) ** 2) / (len(n) * np.array(expected))).sum()
    assert stats.chi2.sf(chi2, len(observed) - 1) > 1e-3


def test_poisson_counts_at_the_largest_mean():
    # the table of the largest mean is built, and its counts are Poisson-like
    n = poisson_counts(POISSON_MAX, _point_uniforms(_COUNT, n=4000))
    z = (n.mean() - POISSON_MAX) / math.sqrt(POISSON_MAX / len(n))
    assert abs(z) < 5
    assert 0.9 < n.var() / POISSON_MAX < 1.1


def test_poisson_counts_per_element_means():
    # each element gets its own mean's count, whatever the means around it
    u = _point_uniforms(_COUNT, n=400)
    means = np.resize([0.5, 7.0, 0.5, 30.0], u.shape)
    n = poisson_counts(means, u)
    for m in (0.5, 7.0, 30.0):
        assert np.array_equal(n[means == m], poisson_counts(m, u[means == m]))
    assert np.array_equal(poisson_counts(means.reshape(-1, 4), u.reshape(-1, 4)).ravel(), n)
    assert poisson_counts(2.0, np.empty(0)).shape == (0,)
