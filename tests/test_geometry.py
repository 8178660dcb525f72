import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nosubkm import geometry
from nosubkm.geometry import (
    as_point,
    center_shift_residual,
    centroid,
    diameter,
    dist,
    kmeans_cost,
    l_fold_diameter,
    min_sq_dist,
    nearest_sq,
)

coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def points_strategy(dim, min_size=1, max_size=8):
    return st.lists(
        st.tuples(*[coord] * dim), min_size=min_size, max_size=max_size
    )


class TestDist:
    def test_three_four_five(self):
        assert dist((0.0, 0.0), (3.0, 4.0)) == 5.0

    def test_identical(self):
        assert dist((1.0, 1.0), (1.0, 1.0)) == 0.0

    def test_one_dimensional(self):
        assert dist((0.0,), (-2.0,)) == 2.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dist((0.0,), (1.0, 2.0))

    @settings(deadline=None)
    @given(points_strategy(3, max_size=6))
    def test_distance_table_has_the_bits_of_dist(self, pts):
        table = geometry.distance_table(pts)
        for i, a in enumerate(pts):
            for j, b in enumerate(pts):
                assert table[i][j] == dist(a, b)

    def test_distance_table_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            geometry.distance_table([(0.0,), (1.0,), (1.0, 2.0)])

    @settings(deadline=None)
    @given(points_strategy(3, min_size=3, max_size=3))
    def test_triangle_inequality(self, pts):
        a, b, c = pts
        assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-9 * (1 + dist(a, c))

    @settings(deadline=None)
    @given(st.tuples(coord, coord), st.tuples(coord, coord))
    def test_symmetry(self, a, b):
        assert dist(a, b) == dist(b, a)


class TestKMeansCost:
    def test_two_points_one_center(self):
        assert kmeans_cost([(0.0,), (2.0,)], [(1.0,)]) == 2.0

    def test_points_subset_of_centers(self):
        pts = [(0.0,), (1.0,), (5.0,)]
        assert kmeans_cost(pts, pts) == 0.0

    def test_nearest_center_wins(self):
        assert kmeans_cost([(0.0,), (1.0,), (5.0,)], [(0.0,), (5.0,)]) == 1.0

    def test_empty_centers(self):
        with pytest.raises(ValueError):
            kmeans_cost([(0.0,)], [])

    def test_empty_points(self):
        with pytest.raises(ValueError):
            kmeans_cost([], [(0.0,)])

    @settings(deadline=None)
    @given(points_strategy(2, min_size=1, max_size=6), points_strategy(2, min_size=1, max_size=4), st.tuples(coord, coord))
    def test_monotone_in_centers(self, pts, centers, extra):
        grown = list(centers) + [extra]
        assert kmeans_cost(pts, grown) <= kmeans_cost(pts, centers) + 1e-9


class TestCentroid:
    def test_midpoint(self):
        assert centroid([(0.0,), (2.0,)]) == (1.0,)

    def test_singleton(self):
        assert centroid([(1.0, 1.0)]) == (1.0, 1.0)

    def test_square(self):
        square = [(0.0, 0.0), (0.0, 2.0), (2.0, 0.0), (2.0, 2.0)]
        assert centroid(square) == (1.0, 1.0)

    def test_empty(self):
        with pytest.raises(ValueError):
            centroid([])


class TestCenterShiftResidual:
    def test_hand_checked(self):
        # L(X,{4}) = 16 + 4 = 20, L(X,{1}) = 2, 2 * 3^2 = 18
        assert center_shift_residual([(0.0,), (2.0,)], (4.0,)) == pytest.approx(0.0, abs=1e-12)

    def test_singleton_at_itself(self):
        assert center_shift_residual([(0.0,)], (0.0,)) == 0.0

    def test_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            pts = [tuple(rng.normal(0, 3, size=3)) for _ in range(10)]
            s = tuple(rng.normal(0, 3, size=3))
            residual = center_shift_residual(pts, s)
            assert abs(residual) <= 1e-9 * kmeans_cost(pts, [s])


class TestLFoldDiameter:
    def test_whole_set(self):
        res = l_fold_diameter([(0.0,), (1.0,), (5.0,)], 1)
        assert res.value == 5.0 and res.exact

    def test_two_fold_split(self):
        res = l_fold_diameter([(0.0,), (1.0,), (5.0,)], 2)
        assert res.value == 1.0 and res.exact

    def test_singletons(self):
        res = l_fold_diameter([(0.0,), (9.0,)], 2)
        assert res.value == 0.0 and res.exact

    def test_invalid_l(self):
        with pytest.raises(ValueError):
            l_fold_diameter([(0.0,)], 0)

    def test_monotone_in_l_and_matches_diameter(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            pts = [tuple(rng.uniform(0, 10, size=2)) for _ in range(7)]
            values = [l_fold_diameter(pts, l).value for l in range(1, 8)]
            assert values[0] == diameter(pts)
            for lo, hi in zip(values, values[1:]):
                assert hi <= lo + 1e-12

    def test_greedy_upper_bounds_exact(self):
        # exhaustive vs greedy on instances small enough for both
        from nosubkm.geometry import _greedy_partition_diameter

        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            pts = [tuple(rng.uniform(0, 10, size=2)) for _ in range(n)]
            for l in (2, 3):
                if n <= l:
                    continue
                exact = l_fold_diameter(pts, l).value
                greedy = _greedy_partition_diameter(pts, l)
                assert greedy >= exact - 1e-12

    def test_floor_does_not_change_the_value(self):
        # the fold diameter of any subset is a valid floor
        rng = np.random.default_rng(9)
        for _ in range(40):
            n = int(rng.integers(3, 10))
            pts = [tuple(rng.uniform(0, 10, size=2)) for _ in range(n)]
            table = geometry.distance_table(pts)
            for l in (2, 3):
                value = geometry.partition_diameter(table, range(n), l)
                floor = geometry.partition_diameter(table, range(n - 1), l)
                assert geometry.partition_diameter(table, range(n), l, floor) == value

    def test_brute_force_cross_check(self):
        # independent oracle: enumerate all assignments of <= 6 points
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            pts = [tuple(rng.uniform(0, 10, size=1)) for _ in range(n)]
            for l in (1, 2, 3):
                best = math.inf
                for assign in itertools.product(range(l), repeat=n):
                    worst = 0.0
                    for g in range(l):
                        part = [pts[i] for i in range(n) if assign[i] == g]
                        if len(part) > 1:
                            worst = max(worst, diameter(part))
                    best = min(best, worst)
                assert l_fold_diameter(pts, l).value == pytest.approx(best, abs=1e-12)


class TestAsPoint:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_point((float("nan"), 0.0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_point(())


def broadcast_nearest_sq(X, C):
    """Unchunked reference: the full row-by-center difference block."""
    sq = ((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
    return sq.argmin(axis=1), sq.min(axis=1)


def left_to_right_nearest_sq(X, C):
    """Unchunked reference: squared differences summed coordinate by coordinate."""
    sq = (X[:, None, 0] - C[None, :, 0]) ** 2
    for j in range(1, X.shape[1]):
        sq = sq + (X[:, None, j] - C[None, :, j]) ** 2
    return sq.argmin(axis=1), sq.min(axis=1)


def scaled_case(d):
    """300 rows spread over seven decades, and 25 centers, 5 of them rows."""
    rng = np.random.default_rng(d)
    X = rng.normal(size=(300, d)) * 10.0 ** rng.integers(-3, 4, size=(300, 1))
    C = np.vstack([X[:5], rng.normal(size=(20, d))])
    return X, C


# Small integer coordinates make exact ties between centers common.
grid_coord = st.integers(-3, 3).map(float)


class TestNearestSq:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 10).flatmap(
            lambda d: st.tuples(
                st.lists(st.tuples(*[grid_coord] * d), min_size=1, max_size=12),
                st.lists(st.tuples(*[grid_coord] * d), min_size=1, max_size=12),
            )
        )
    )
    def test_matches_min_sq_dist_and_lowest_index_ties(self, case):
        pts, centers = case
        labels, d2 = nearest_sq(np.asarray(pts), np.asarray(centers))
        for x, label, value in zip(pts, labels, d2):
            assert value == min_sq_dist(x, centers)
            ties = [j for j, c in enumerate(centers) if sum((a - b) ** 2 for a, b in zip(x, c)) == value]
            assert label == ties[0]

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7])
    def test_bits_of_the_block_reduce_up_to_seven_dimensions(self, d):
        # Below 8 elements numpy's sum over the last axis adds left to right.
        X, C = scaled_case(d)
        labels, d2 = nearest_sq(X, C)
        ref_labels, ref_d2 = broadcast_nearest_sq(X, C)
        assert np.array_equal(labels, ref_labels)
        assert d2.tobytes() == ref_d2.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 9, 17])
    @pytest.mark.parametrize("budget", [1, 50, 1 << 20])
    def test_bits_independent_of_chunking(self, monkeypatch, d, budget):
        monkeypatch.setattr(geometry, "NEAREST_SQ_BUDGET", budget)
        X, C = scaled_case(d)
        labels, d2 = nearest_sq(X, C)
        ref_labels, ref_d2 = left_to_right_nearest_sq(X, C)
        assert np.array_equal(labels, ref_labels)
        assert d2.tobytes() == ref_d2.tobytes()

    def test_temporaries_within_budget(self, monkeypatch):
        budget = 1 << 16
        monkeypatch.setattr(geometry, "NEAREST_SQ_BUDGET", budget)
        rng = np.random.default_rng(7)
        X = rng.normal(size=(20_000, 3))
        C = rng.normal(size=(40, 3))
        # Unchunked, the two row-by-center blocks would be 1.6M elements (13 MB).
        tracemalloc.start()
        try:
            labels, d2 = nearest_sq(X, C)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        outputs = labels.nbytes + d2.nbytes
        # Per-chunk outputs plus their concatenation, two row-by-center
        # blocks of at most `budget` elements together, and object overhead.
        assert peak <= 2 * outputs + budget * 8 + (64 << 10)

    def test_empty_centers(self):
        with pytest.raises(ValueError):
            nearest_sq(np.zeros((3, 2)), np.zeros((0, 2)))

    @pytest.mark.parametrize("cd", [1, 3])
    def test_dimension_mismatch(self, cd):
        with pytest.raises(ValueError, match="dimension"):
            nearest_sq(np.zeros((3, 2)), np.zeros((4, cd)))
