"""Grid and adapted-field plumbing, and the path-prefix indexing of the
reference walks (path_tree.sign_matrix, prefix_walk.prefix_up_counts)."""

import numpy as np
import pytest

from weakbsde.bsde import solve_bsde
from weakbsde.drivers import make_driver
from weakbsde.lattice import (MAX_LEVELS, Lattice, LatticeError, build_lattice,
                              half_sum)

from path_tree import sign_matrix
from prefix_walk import prefix_up_counts


def _times(lat):
    return [lat.time_at(k) for k in range(lat.steps + 1)]


def test_time_grid_times_and_offset():
    lat = Lattice(1.0, 4)
    assert lat.dt == 0.25
    np.testing.assert_allclose(_times(lat), [0.0, 0.25, 0.5, 0.75, 1.0])

    shifted = Lattice(0.5, 4, step_offset=2)
    assert shifted.dt == 0.125
    np.testing.assert_allclose(_times(shifted),
                               [0.25, 0.375, 0.5, 0.625, 0.75])


def test_build_lattice_level_guard():
    build_lattice(1.0, 1)
    build_lattice(1.0, MAX_LEVELS)
    with pytest.raises(LatticeError):
        build_lattice(1.0, 0)
    with pytest.raises(LatticeError):
        build_lattice(1.0, MAX_LEVELS + 1)
    with pytest.raises(LatticeError):
        build_lattice(-1.0, 4)


def test_brownian_values_are_centered_multiples_of_sqrt_dt():
    lat = build_lattice(1.0, 3)
    sq = lat.sqrt_dt
    np.testing.assert_allclose(lat.brownian_values(2),
                               [-2.0 * sq, 0.0, 2.0 * sq])
    np.testing.assert_allclose(lat.brownian_values(0), [0.0])
    # level k holds k+1 nodes, value (2j - k) * sqrt_dt
    for k in range(4):
        vals = lat.brownian_values(k)
        assert vals.shape == (k + 1,)
        np.testing.assert_allclose(vals, (2 * np.arange(k + 1) - k) * sq)


def test_half_sum_matches_cond_expect_field():
    # under the zero driver the solver's level-4 value is the conditional
    # expectation of the terminal field
    lat = build_lattice(1.0, 5)
    rng = np.random.default_rng(7)
    vals = rng.normal(size=6)
    y = solve_bsde(lat, make_driver("zero"), vals)[0]
    np.testing.assert_allclose(y[4], half_sum(vals))
    np.testing.assert_allclose(half_sum(vals), 0.5 * (vals[1:] + vals[:-1]))


def test_sign_matrix_frozen_for_three_levels():
    mat = sign_matrix(3)
    assert mat.shape == (8, 3)
    np.testing.assert_array_equal(mat[0], [1, 1, 1])     # path id 0: all up
    np.testing.assert_array_equal(mat[7], [-1, -1, -1])  # all down
    np.testing.assert_array_equal(mat[5], [-1, 1, -1])
    # exactly half the entries in each column are up-moves
    np.testing.assert_array_equal(mat.sum(axis=0), [0, 0, 0])


def test_leaf_nodes_count_up_moves():
    leaves = prefix_up_counts(3)  # the terminal node of every full path
    np.testing.assert_array_equal(leaves, [3, 2, 2, 1, 2, 1, 1, 0])
    mat = sign_matrix(3)
    np.testing.assert_array_equal(leaves, (mat > 0).sum(axis=1))


def test_prefix_up_counts_matches_sign_matrix():
    counts = prefix_up_counts(2)
    np.testing.assert_array_equal(counts, [2, 1, 1, 0])
    np.testing.assert_array_equal(counts, (sign_matrix(2) > 0).sum(axis=1))


def test_prefix_up_counts_matches_the_popcount_formula():
    for k in range(13):
        counts = prefix_up_counts(k)
        expected = np.array([k - bin(h).count("1") for h in range(2**k)],
                            dtype=np.int64)
        assert counts.dtype == expected.dtype
        np.testing.assert_array_equal(counts, expected)
        assert not counts.flags.writeable
        assert prefix_up_counts(k) is counts  # cached


def test_path_node_walks_the_recombining_indices():
    # walking each path's signs visits the node its length-k prefix names
    paths = sign_matrix(3)
    assert len(paths) == 8
    for p, path in enumerate(paths):
        j = 0
        for k in range(4):
            assert prefix_up_counts(k)[p >> (3 - k)] == j
            if k < 3:
                j += 1 if path[k] > 0 else 0


def test_path_expectation_equals_binomial_mean():
    lat = build_lattice(1.0, 6)
    rng = np.random.default_rng(42)
    for _ in range(20):
        vals = rng.normal(size=7)
        expected = vals
        for _ in range(6):
            expected = half_sum(expected)
        # every one of the 2^6 paths is equally likely
        path_mean = vals[prefix_up_counts(lat.steps)].mean()
        assert abs(path_mean - expected[0]) < 1e-12
