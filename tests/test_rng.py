import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcmpaths.rng import (
    STREAM_EDGES,
    STREAM_POINTS,
    derive_subseed,
    fold,
    pair_uniforms,
    points_generator,
    points_keys,
)
from rcmpaths.sampler import _points_streams

u64s = st.integers(min_value=0, max_value=(1 << 64) - 1)
small_ints = st.integers(min_value=0, max_value=1 << 20)


def test_pair_uniforms_symmetric():
    assert pair_uniforms(7, 3, 4, 9) == pair_uniforms(7, 3, 9, 4)
    i = np.array([2, 5, 8])
    j = np.array([10, 1, 3])
    assert np.array_equal(pair_uniforms(7, 3, i, j), pair_uniforms(7, 3, j, i))


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
    ga = points_generator(42, 7).random(16)
    gb = points_generator(42, 7).random(16)
    assert np.array_equal(ga, gb)


def test_fast_points_rng_matches_public_generator():
    # the samplers' reused stream of each key of a block is the replication's
    # public generator
    for rep, rng in enumerate(_points_streams(points_keys(13, range(100)))):
        a = rng.random(5)
        b = points_generator(13, rep).random(5)
        assert np.array_equal(a, b)


@given(seed=u64s, rep=small_ints)
@settings(max_examples=200)
def test_points_key_is_two_folds(seed, rep):
    (key,) = points_keys(seed, [rep]).tolist()
    assert tuple(key) == (fold(seed, rep, STREAM_POINTS, 0), fold(seed, rep, STREAM_POINTS, 1))


@pytest.mark.parametrize("seed", [0, (1 << 63) + 5, (1 << 64) - 1], ids=["0", "2**63+5", "2**64-1"])
def test_points_keys_fold_a_block(seed):
    # the one-pass uint64 fold of a block gives the Python-int fold of each
    # replication, replications at and above 2**63 included
    reps = [0, 1, 2, 1 << 32, (1 << 63) - 1, 1 << 63, (1 << 64) - 2, (1 << 64) - 1]
    keys = points_keys(seed, reps)
    assert keys.dtype == np.uint64 and keys.shape == (len(reps), 2)
    for key, rep in zip(keys.tolist(), reps):
        assert tuple(key) == (fold(seed, rep, STREAM_POINTS, 0), fold(seed, rep, STREAM_POINTS, 1))
    # a range, as the sweep passes its blocks, up to the last replication
    assert np.array_equal(points_keys(seed, range((1 << 64) - 2, 1 << 64)), keys[-2:])
    assert points_keys(seed, []).shape == (0, 2)


def test_fast_points_rng_resets_a_used_stream():
    # a seed above 2**63, and a previous stream left mid-buffer with a
    # spare 32-bit word: the reset must clear both
    seed = (1 << 63) + 12345
    for rep in range(20):
        (used,) = _points_streams(points_keys(seed, [rep + 1]))
        used.integers(0, 7, size=3, dtype=np.uint32)
        (rng,) = _points_streams(points_keys(seed, [rep]))
        a = rng.random(9)
        b = points_generator(seed, rep).random(9)
        assert np.array_equal(a, b)
    # the same within one block: each key resets the stream the last one used
    for rep, rng in enumerate(_points_streams(points_keys(seed, range(20)))):
        if rep % 2:
            rng.integers(0, 7, size=3, dtype=np.uint32)
        else:
            assert np.array_equal(rng.random(9), points_generator(seed, rep).random(9))


def test_uniformity_gross():
    u = pair_uniforms(3, np.arange(200_000), 0, 1)
    assert 0.0 <= u.min() and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.std() - (1 / 12) ** 0.5) < 0.005
    # occupancy of ten equal bins
    hist = np.histogram(u, bins=10, range=(0, 1))[0] / len(u)
    assert np.all(np.abs(hist - 0.1) < 0.01)


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
