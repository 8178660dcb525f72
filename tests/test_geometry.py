import itertools
import math
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nosubkm import geometry, harness
from nosubkm.cluster import ClusterConfig, OnlineClusterer
from nosubkm.geometry import (
    COORD_LIMIT,
    CellGrid,
    centroid,
    check_point,
    diameter,
    dist,
    grid_below_sq,
    grid_nearest_sq,
    grid_side,
    kmeans_cost,
    l_fold_diameter,
    near_pairs,
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

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            kmeans_cost([(0.0, 1.0)], [(0.0,)])

    def test_exactly_rounded_sum(self):
        # Added left to right in double precision, 1e16 + 1 + 1 is 1e16.
        assert kmeans_cost([(1e8,), (1.0,), (-1.0,)], [(0.0,)]) == 1e16 + 2

    @settings(deadline=None)
    @given(
        st.lists(
            st.tuples(coord, st.integers(-3, 3)).map(lambda c: (c[0] * 10.0 ** c[1],)),
            min_size=1,
            max_size=40,
        ),
        points_strategy(1, min_size=1, max_size=4),
    )
    def test_sum_of_nearest_sq_distances_exactly_rounded(self, pts, centers):
        d2 = nearest_sq(np.asarray(pts), np.asarray(centers))[1].tolist()
        assert kmeans_cost(pts, centers) == float(sum(map(Fraction, d2)))

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

    def test_exactly_rounded_sum(self):
        # Added left to right in double precision, 1e16 + 1 + 1 is 1e16.
        assert centroid([(1e16,), (1.0,), (1.0,)]) == ((1e16 + 2) / 3,)

    def test_empty(self):
        with pytest.raises(ValueError):
            centroid([])

    def test_mixed_dimensions_raise(self):
        with pytest.raises(ValueError):
            centroid([(0.0,), (2.0, 3.0)])


def center_shift_residual(points, s):
    """L(X,{s}) - L(X,{mu}) - |X| d(s,mu)^2, which is 0 in exact arithmetic
    (the center-shift identity)."""
    mu = centroid(points)
    return kmeans_cost(points, [s]) - kmeans_cost(points, [mu]) - len(points) * kmeans_cost([s], [mu])


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
        assert l_fold_diameter([(0.0,), (1.0,), (5.0,)], 1) == 5.0
        # l = 1 takes the greedy split at every size: its one part gives the
        # diameter.
        rng = np.random.default_rng(10)
        for n in range(2, 13):
            for _ in range(5):
                pts = [tuple(rng.normal(0, 10.0 ** rng.integers(-3, 4), size=2)) for _ in range(n)]
                assert l_fold_diameter(pts, 1) == diameter(pts)

    def test_two_fold_split(self):
        assert l_fold_diameter([(0.0,), (1.0,), (5.0,)], 2) == 1.0

    def test_singletons(self):
        assert l_fold_diameter([(0.0,), (9.0,)], 2) == 0.0

    def test_invalid_l(self):
        with pytest.raises(ValueError):
            l_fold_diameter([(0.0,)], 0)

    def test_l_that_is_not_an_int(self):
        with pytest.raises(ValueError, match="l must be an int, got 2.0"):
            l_fold_diameter([(0.0,), (1.0,), (5.0,)], 2.0)

    def test_monotone_in_l_and_matches_diameter(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            pts = [tuple(rng.uniform(0, 10, size=2)) for _ in range(7)]
            values = [l_fold_diameter(pts, l) for l in range(1, 8)]
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
                exact = l_fold_diameter(pts, l)
                greedy = _greedy_partition_diameter(pts, l)
                assert greedy >= exact - 1e-12

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
                assert l_fold_diameter(pts, l) == pytest.approx(best, abs=1e-12)


class TestCheckPoint:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_point((float("nan"), 0.0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_point(())

    @pytest.mark.parametrize(
        "pt", [(0.0, 1e101), (-1e160, 0.0), (sys.float_info.max,) * 2, (0.8e100, 0.8e100)]
    )
    def test_rejects_a_norm_beyond_the_limit(self, pt):
        with pytest.raises(ValueError, match="beyond"):
            check_point(pt)

    def test_accepts_the_limit(self):
        check_point((-COORD_LIMIT, 0.0))


def broadcast_nearest_sq(X, C):
    """Unchunked reference: the full row-by-center difference block."""
    sq = ((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
    return sq.argmin(axis=1), sq.min(axis=1)


def row_major_nearest_sq(X, C):
    """Unchunked reference: the row-major kernel, a rows-by-centers block
    summed left to right over the coordinates, its argmin and the distances
    it takes."""
    sq = np.subtract.outer(X[:, 0], C[:, 0]) ** 2
    for j in range(1, X.shape[1]):
        sq += np.subtract.outer(X[:, j], C[:, j]) ** 2
    labels = sq.argmin(axis=1)
    return labels, sq[np.arange(len(sq)), labels]


def tied_case(rows, centers, d, scaled=False):
    """Rows and centers on a small integer lattice, or spread over seven
    decades, with every other center a repeat, so exact ties are common."""
    rng = np.random.default_rng([rows, centers, d])
    if scaled:
        X = rng.normal(size=(rows, d)) * 10.0 ** rng.integers(-3, 4, size=(rows, 1))
        C = rng.normal(size=(centers, d)) * 10.0 ** rng.integers(-3, 4, size=(centers, 1))
    else:
        X = rng.integers(-2, 3, size=(rows, d)).astype(float)
        C = rng.integers(-2, 3, size=(centers, d)).astype(float)
    C[1::2] = C[: centers // 2]
    return X, C


# nearest_sq's crossover constants that make every chunk run in one orientation
ORIENTATIONS = {"row": (math.inf, 0), "center": (0, math.inf)}


def force_orientation(monkeypatch, orientation):
    min_rows, max_centers = ORIENTATIONS[orientation]
    monkeypatch.setattr(geometry, "_CENTER_MAJOR_MIN_ROWS", min_rows)
    monkeypatch.setattr(geometry, "_CENTER_MAJOR_MAX_CENTERS", max_centers)


def traced_peak(f, *args):
    """f(*args) and the peak of the allocations traced while it ran."""
    tracemalloc.start()
    try:
        result = f(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def min_sq_dist(x, centers):
    """Reference: the squared distance to the nearest center, in plain Python."""
    return min(sum((a - b) * (a - b) for a, b in zip(x, c)) for c in centers)


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
        ref_labels, ref_d2 = row_major_nearest_sq(X, C)
        assert np.array_equal(labels, ref_labels)
        assert d2.tobytes() == ref_d2.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 9])
    @pytest.mark.parametrize(
        "rows, centers", [(5, 9), (9, 9), (40, 9), (1, 1), (1, 6), (6, 1), (700, 4)]
    )
    @pytest.mark.parametrize("scaled", [False, True])
    @pytest.mark.parametrize("orientation", ORIENTATIONS)
    def test_bits_of_the_row_major_kernel(
        self, monkeypatch, orientation, rows, centers, d, scaled
    ):
        force_orientation(monkeypatch, orientation)
        X, C = tied_case(rows, centers, d, scaled)
        labels, d2 = nearest_sq(X, C)
        ref_labels, ref_d2 = row_major_nearest_sq(X, C)
        assert labels.dtype == ref_labels.dtype
        assert np.array_equal(labels, ref_labels)
        assert d2.tobytes() == ref_d2.tobytes()

    def test_orientation_switches_within_one_call(self, monkeypatch):
        # Chunks of 600 rows against 3 centers run center-major; the last,
        # of 100 rows, runs row-major.
        monkeypatch.setattr(geometry, "NEAREST_SQ_BUDGET", 2 * 3 * 600)
        shapes = []
        sum_sq = geometry._sum_sq

        def spy(diff, d):
            sq = sum_sq(diff, d)
            shapes.append(sq.shape)
            return sq

        monkeypatch.setattr(geometry, "_sum_sq", spy)
        X, C = tied_case(1300, 3, 2)
        labels, d2 = nearest_sq(X, C)
        assert shapes == [(3, 600), (3, 600), (100, 3)]
        ref_labels, ref_d2 = row_major_nearest_sq(X, C)
        assert np.array_equal(labels, ref_labels)
        assert d2.tobytes() == ref_d2.tobytes()

    def test_temporaries_within_budget(self, monkeypatch):
        budget = 1 << 16
        monkeypatch.setattr(geometry, "NEAREST_SQ_BUDGET", budget)
        rng = np.random.default_rng(7)
        X = rng.normal(size=(20_000, 3))
        C = rng.normal(size=(40, 3))
        # Unchunked, the two blocks of rows by centers would be 1.6M
        # elements (13 MB).
        for orientation in ORIENTATIONS:
            force_orientation(monkeypatch, orientation)
            (labels, d2), peak = traced_peak(nearest_sq, X, C)
            outputs = labels.nbytes + d2.nbytes
            # Per-chunk outputs plus their concatenation, two blocks of at
            # most `budget` elements together, and object overhead.
            assert peak <= 2 * outputs + budget * 8 + (64 << 10), orientation

    def test_two_blocks_live_in_one_chunk(self, monkeypatch):
        # The running sum and one coordinate's block (256 kB each), plus
        # about 128 kB of ufunc buffers for the strided columns; a third
        # block would be 256 kB more. The center-major label step holds the
        # sum and a bool block (32 kB), then that and a uint8 rank block.
        monkeypatch.setattr(geometry, "NEAREST_SQ_BUDGET", 1 << 16)
        rng = np.random.default_rng(9)
        X = rng.normal(size=(800, 5))
        C = rng.normal(size=(40, 5))
        for orientation in ORIENTATIONS:
            force_orientation(monkeypatch, orientation)
            _, peak = traced_peak(nearest_sq, X, C)
            assert peak <= 2 * 8 * len(X) * len(C) + (192 << 10), orientation

    @pytest.mark.parametrize("d", range(1, 11))
    def test_sq_dist_has_its_bits(self, monkeypatch, d):
        # CellGrid's query sums its candidates' squared distances in plain
        # Python, the only such sum outside _sum_sq. Every center is below R
        # and, with both crossovers lifted, every query takes that loop.
        monkeypatch.setattr(geometry, "_QUERY_FREE_CELLS", math.inf)
        monkeypatch.setattr(geometry, "_QUERY_PY_CANDIDATES", math.inf)
        X, C = scaled_case(d)
        grid = CellGrid()
        grid.set_threshold(1e300)
        for c in C.tolist():
            grid.add(tuple(c))
        assert [grid.min_sq_dist(tuple(x)) for x in X.tolist()] == nearest_sq(X, C)[1].tolist()

    def test_empty_centers(self):
        with pytest.raises(ValueError):
            nearest_sq(np.zeros((3, 2)), np.zeros((0, 2)))

    @pytest.mark.parametrize("cd", [1, 3])
    def test_dimension_mismatch(self, cd):
        with pytest.raises(ValueError, match="dimension"):
            nearest_sq(np.zeros((3, 2)), np.zeros((4, cd)))


def nudged(v, ulps):
    for _ in range(abs(ulps)):
        v = math.nextafter(v, math.copysign(math.inf, ulps))
    return v


def boundary_case(d, max_centers, max_queries):
    """A threshold R, centers and queries on multiples of the cell side h,
    nudged by up to two ulps, plus queries about sqrt(R) from a center
    along one axis, where the query radius cuts."""

    @st.composite
    def build(draw):
        R = draw(st.floats(1.0, 2.0)) * 2.0 ** draw(st.integers(-60, 60))
        h = grid_side(R)
        coord = st.builds(lambda m, ulps: nudged(m * h, ulps), st.integers(-5, 5), st.integers(-2, 2))
        point = st.tuples(*[coord] * d)
        centers = draw(st.lists(point, min_size=1, max_size=max_centers))
        queries = draw(st.lists(point, min_size=1, max_size=max_queries))
        for c in draw(st.lists(st.sampled_from(centers), max_size=4)):
            axis = draw(st.integers(0, d - 1))
            step = nudged(math.sqrt(R), draw(st.integers(-3, 3))) * draw(st.sampled_from([-1.0, 1.0]))
            queries.append(tuple(v + step if j == axis else v for j, v in enumerate(c)))
        return R, centers, queries

    return build()


class TestGridSide:
    @pytest.mark.parametrize("R", [0.0, sys.float_info.min / 2, math.inf, -1.0])
    def test_no_grid(self, R):
        assert grid_side(R) == 0.0

    @pytest.mark.parametrize("R", [sys.float_info.min, 1.0, sys.float_info.max])
    def test_side_just_above_sqrt(self, R):
        h = grid_side(R)
        assert math.sqrt(R) < h <= math.sqrt(R) * (1 + 2 * geometry.GRID_MARGIN)


# One-dimensional coordinates where rounding bites: signed zeros,
# subnormals, the smallest normal, neighbours one ulp apart and the ends of
# the coordinate range, with small integers for exact ties.
line_coord = st.one_of(
    st.sampled_from(
        [
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            1e-310,
            sys.float_info.min,
            1.0,
            math.nextafter(1.0, 2.0),
            1e99,
            COORD_LIMIT,
            -COORD_LIMIT,
            math.nextafter(COORD_LIMIT, 0.0),
            -math.nextafter(COORD_LIMIT, 0.0),
        ]
    ),
    st.integers(-3, 3).map(float),
    st.floats(-COORD_LIMIT, COORD_LIMIT),
)

# R = 0 (warm-up), a subnormal R, normal ones, and one above every gap of
# coordinates within COORD_LIMIT, (2 * COORD_LIMIT)**2 = 4e200.
line_threshold = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, 1e201]),
    st.floats(sys.float_info.min, 1e10),
)


@st.composite
def line_case(draw):
    """A threshold, a one-dimensional set with duplicates and queries on,
    between and outside its points, and how many points come before R."""
    pts = draw(st.lists(line_coord.map(lambda v: (v,)), min_size=1, max_size=30))
    pts += draw(st.lists(st.sampled_from(pts), max_size=5))
    lo, hi = min(pts)[0], max(pts)[0]
    on = st.sampled_from(pts)
    between = st.tuples(on, on).map(lambda ab: (ab[0][0] / 2 + ab[1][0] / 2,))
    outside = st.sampled_from(
        [(math.nextafter(lo, -math.inf),), (lo - 1.0,), (hi + 1.0,), (math.nextafter(hi, math.inf),)]
    )
    anywhere = line_coord.map(lambda v: (v,))
    queries = draw(st.lists(st.one_of(on, between, outside, anywhere), min_size=1, max_size=12))
    return draw(line_threshold), pts, queries, draw(st.integers(0, len(pts)))


class TestCellGrid:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 4).flatmap(lambda d: boundary_case(d, 30, 10)),
        st.sampled_from([0, 24]),
        st.integers(0, 30),
    )
    def test_exact_below_threshold(self, case, py_candidates, before):
        # Some centers are added before the threshold is set (bucketed by
        # the rebuild) and the rest after it (bucketed on arrival).
        R, centers, queries = case
        grid = CellGrid()
        for c in centers[:before]:
            grid.add(c)
        grid.set_threshold(R)
        for c in centers[before:]:
            grid.add(c)
        C = np.asarray(centers)
        with mock.patch.object(geometry, "_QUERY_PY_CANDIDATES", py_candidates):
            for x in queries:
                exact = float(nearest_sq(np.asarray(x)[None, :], C)[1][0])
                got = grid.min_sq_dist(x)
                if exact < R:
                    assert got == exact
                else:
                    assert got in (exact, math.inf)

    @settings(max_examples=200, deadline=None)
    @given(line_case())
    def test_one_dimension_has_the_bits_of_nearest_sq_for_every_R(self, case):
        # Bisection needs no threshold, so the value is exact at any R, and
        # a one-dimensional grid never fills its cells.
        R, pts, queries, before = case
        grid = CellGrid()
        for p in pts[:before]:
            grid.add(p)
        grid.set_threshold(R)
        for p in pts[before:]:
            grid.add(p)
        C = np.asarray(pts)
        for x in queries:
            exact = float(nearest_sq(np.asarray([x]), C)[1][0])
            assert grid.min_sq_dist(x).hex() == exact.hex()
        assert grid._cells is None
        grid.check()

    def test_one_dimension_squares_as_nearest_sq_does(self):
        # `(a - b) ** 2` goes through libm's pow, which misses the exactly
        # rounded square on about one scaled double in a thousand; among
        # 20,000 queries that shows.
        rng = np.random.default_rng(26)
        X = rng.normal(size=(20_000, 1)) * 10.0 ** rng.integers(-3, 4, size=(20_000, 1))
        C = rng.normal(size=(200, 1)) * 10.0 ** rng.integers(-3, 4, size=(200, 1))
        grid = CellGrid()
        grid.set_threshold(1.0)
        for c in C.tolist():
            grid.add(tuple(c))
        assert [grid.min_sq_dist(tuple(x)) for x in X.tolist()] == nearest_sq(X, C)[1].tolist()

    def test_scans_without_a_grid(self):
        grid = CellGrid()
        for p in [(0.0, 0.0), (3.0, 4.0)]:
            grid.add(p)
        assert grid.min_sq_dist((3.0, 5.0)) == 1.0
        grid.set_threshold(0.5)
        assert grid.min_sq_dist((3.0, 5.0)) == math.inf
        assert grid.min_sq_dist((3.0, 4.5)) == 0.25

    def test_empty(self):
        with pytest.raises(ValueError):
            CellGrid().min_sq_dist((0.0,))

    @pytest.mark.parametrize("d", [4, 6])
    def test_many_cells_fall_back_to_the_scan(self, d):
        # 3**6 cells exceed the crossover at 50 points, 3**4 do not.
        rng = np.random.default_rng(d)
        grid = CellGrid()
        for p in rng.normal(size=(50, d)).tolist():
            grid.add(tuple(p))
        grid.set_threshold(0.01)
        x = tuple(rng.normal(size=d).tolist())
        exact = float(nearest_sq(np.asarray(x)[None, :], np.asarray(grid.points))[1][0])
        assert grid.min_sq_dist(x) == (exact if d == 6 else math.inf)


def live_grid():
    """A grid with points added before and after its threshold was set."""
    rng = np.random.default_rng(48)
    grid = CellGrid()
    for p in rng.normal(0, 3, size=(40, 2)).tolist():
        grid.add(tuple(p))
        if len(grid) == 20:
            grid.set_threshold(0.7)
    grid.min_sq_dist((0.0, 0.0))  # the cells are filled by a query
    return grid


def move_to_a_wrong_cell(grid):
    key, ids = next(iter(grid._cells.items()))
    wrong = (key[0] + 1, *key[1:])
    grid._cells.setdefault(wrong, []).append(ids.pop())


def live_line():
    """A one-dimensional grid with points added before and after its
    threshold was set, then queried."""
    rng = np.random.default_rng(49)
    grid = CellGrid()
    for v in rng.normal(0, 3, size=40).tolist():
        grid.add((v,))
        if len(grid) == 20:
            grid.set_threshold(0.7)
    grid.min_sq_dist((0.0,))
    return grid


def swap_two_sorted(grid):
    line = grid._sorted
    line[3], line[4] = line[4], line[3]


class TestCellGridCheck:
    def test_passes_on_a_live_grid(self):
        grid = live_grid()
        grid.check()
        CellGrid().check()

    # Each mutation breaks one invariant of a live grid.
    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda g: setattr(g, "_side", 2.0 * g._side), "cell side"),
            (lambda g: next(iter(g._cells.values())).pop(), "partition"),
            (lambda g: next(iter(g._cells.values())).append(0), "partition"),
            (lambda g: [setattr(g, "threshold", 0.0), setattr(g, "_side", 0.0)], "partition"),
            (move_to_a_wrong_cell, "not in cell"),
            (lambda g: g._rows.__setitem__((7, 1), g._rows[7, 1] + 1.0), "array rows"),
        ],
    )
    def test_raises_on_a_broken_invariant(self, mutate, message):
        grid = live_grid()
        mutate(grid)
        with pytest.raises(AssertionError, match=message):
            grid.check()

    # Each mutation breaks one invariant of a live one-dimensional grid.
    @pytest.mark.parametrize(
        "mutate, message",
        [
            (swap_two_sorted, "increasing order"),
            (lambda g: g._sorted.pop(), "increasing order"),
            (lambda g: g._sorted.__setitem__(-1, g._sorted[-1] + 1.0), "increasing order"),
            (lambda g: g._fill(), "has cells"),
            (lambda g: g._rows.__setitem__((7, 0), g._rows[7, 0] + 1.0), "array rows"),
        ],
    )
    def test_raises_on_a_broken_line(self, mutate, message):
        grid = live_line()
        grid.check()
        mutate(grid)
        with pytest.raises(AssertionError, match=message):
            grid.check()


class TestGridNearestSq:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda d: boundary_case(d, 40, 40)), st.booleans())
    def test_bits_of_nearest_sq(self, case, forced):
        # Forced, the grid runs whatever the crossover says; rows with no
        # center below R (far queries) take the fallback either way.
        R, centers, queries = case
        X, C = np.asarray(queries), np.asarray(centers)
        with mock.patch.object(geometry, "_BATCH_ROWS_PER_PASS", 1e-9 if forced else 150):
            got = grid_nearest_sq(X, C, R)
        assert got.tobytes() == nearest_sq(X, C)[1].tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("R", [0.0, 1e-4, 0.3, 1e6])
    def test_scaled_rows(self, d, R):
        X, C = scaled_case(d)
        with mock.patch.object(geometry, "_BATCH_ROWS_PER_PASS", 1e-9):
            assert grid_nearest_sq(X, C, R).tobytes() == nearest_sq(X, C)[1].tobytes()

    @pytest.mark.parametrize("budget", [1, 7, 1 << 20])
    def test_bits_independent_of_pair_budget(self, monkeypatch, budget):
        monkeypatch.setattr(geometry, "NEAREST_SQ_BUDGET", budget)
        monkeypatch.setattr(geometry, "_BATCH_ROWS_PER_PASS", 1e-9)
        X, C = scaled_case(2)
        assert grid_nearest_sq(X, C, 0.3).tobytes() == nearest_sq(X, C)[1].tobytes()

    def test_pair_temporaries_within_budget(self, monkeypatch):
        budget = 1 << 14
        monkeypatch.setattr(geometry, "NEAREST_SQ_BUDGET", budget)
        rng = np.random.default_rng(8)
        X = rng.uniform(size=(20_000, 2))
        C = X[:2000]
        # About 180 centers in each row's cells: 3.6M pairs in one piece.
        _, peak = traced_peak(grid_nearest_sq, X, C, 0.01)
        # Some per-row arrays, then a dozen pair arrays of at most the
        # budget plus one row's centers, and object overhead.
        assert peak <= 12 * 8 * len(X) + 12 * 8 * (budget + len(C)) + (64 << 10)

    def test_fallback_rows_of_a_stream_with_type2_rejects(self):
        # The population rule rejects some points far from every selected
        # one, so their rows have no center below R and take nearest_sq;
        # the crossover keeps the grid for the rest (937 centers, d=2).
        spec = harness.TrialSpec(
            k=5,
            generator="gaussian_mixture",
            gen_params={"n": 1500, "k": 5, "d": 2, "spread": 0.01, "separation": 1000.0},
            ordering="shuffled",
            seed=5,
        )
        stream = harness.materialize_stream(spec)
        clusterer = OnlineClusterer(ClusterConfig(k=5, seed=5))
        decisions = [clusterer.process(x) for x in stream]
        X, C, R = np.asarray(stream), np.asarray(clusterer.finalize()), clusterer.threshold
        expected = nearest_sq(X, C)[1]
        assert any(d.processing == "type2" and not d.selected for d in decisions)
        assert (expected >= R).sum() > 0 and (expected < R).sum() > 0
        assert grid_nearest_sq(X, C, R).tobytes() == expected.tobytes()
        # The trial draws with its own selector seed; it has fallback rows too.
        report, decisions = harness.run_trial(replace(spec, oracle="lloyd"))
        assert report.achieved_cost == kmeans_cost(stream, [stream[d.index - 1] for d in decisions if d.selected])

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda d: boundary_case(d, 40, 40)), st.booleans())
    def test_below_threshold_without_the_fallback(self, case, forced):
        R, centers, queries = case
        X, C = np.asarray(queries), np.asarray(centers)
        with mock.patch.object(geometry, "_BATCH_ROWS_PER_PASS", 1e-9 if forced else 150):
            got = grid_below_sq(X, C, R)
        exact = nearest_sq(X, C)[1]
        below = exact < R
        assert got[below].tobytes() == exact[below].tobytes()
        assert np.all(got[~below] >= R)

    def test_dimension_mismatch_and_empty(self):
        with pytest.raises(ValueError, match="dimension"):
            grid_nearest_sq(np.zeros((3, 2)), np.zeros((4, 1)), 1.0)
        with pytest.raises(ValueError):
            grid_nearest_sq(np.zeros((3, 2)), np.zeros((0, 2)), 1.0)


def brute_near_pairs(X, R):
    """Every pair i < j of rows below R, with nearest_sq's squared distance."""
    return {
        (i, j): float(nearest_sq(X[j : j + 1], X[i : i + 1])[1][0])
        for i, j in itertools.combinations(range(len(X)), 2)
        if nearest_sq(X[j : j + 1], X[i : i + 1])[1][0] < R
    }


class TestNearPairs:
    # Forced, the grid runs whatever the crossover says; otherwise small
    # sets and high d take every later row as a candidate.
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda d: boundary_case(d, 40, 40)), st.booleans())
    def test_every_pair_below_threshold(self, case, forced):
        R, centers, queries = case
        X = np.asarray(centers + queries)
        with mock.patch.object(geometry, "_BATCH_ROWS_PER_PASS", 1e-9 if forced else 150):
            i, j, sq = near_pairs(X, R, geometry.NEAREST_SQ_BUDGET)
        assert np.all(np.diff(i) >= 0)
        # a pair may be listed twice where cell keys alias, with one value
        got = dict(zip(zip(i.tolist(), j.tolist()), sq.tolist()))
        assert len(got) <= len(i) and got == brute_near_pairs(X, R)

    @pytest.mark.parametrize("forced", [True, False])
    def test_more_candidates_than_the_limit(self, forced):
        # 30 points in one cell: on the grid the cell keys alias, so each of
        # a row's three runs holds the cell's rows after it in the grid's
        # order, 1,305 candidates in all; without it the later rows give 435.
        X = np.random.default_rng(3).uniform(0.0, 0.1, size=(30, 2))
        with mock.patch.object(geometry, "_BATCH_ROWS_PER_PASS", 1e-9 if forced else 1e9):
            assert near_pairs(X, 1.0, 899 if forced else 434) is None
            i, j, _ = near_pairs(X, 1.0, geometry.NEAREST_SQ_BUDGET if forced else 435)
        assert len(set(zip(i.tolist(), j.tolist()))) == 435

    def test_each_pair_measured_once_on_the_grid(self):
        # 30 points in one 1-D cell: each row's one run is the whole cell,
        # and only the rows after it in the grid's order are measured.
        X = np.random.default_rng(3).uniform(0.0, 0.1, size=(30, 1))
        with mock.patch.object(geometry, "_BATCH_ROWS_PER_PASS", 1e-9):
            assert near_pairs(X, 1.0, 434) is None
            i, j, _ = near_pairs(X, 1.0, 435)
        assert sorted(zip(i.tolist(), j.tolist())) == list(itertools.combinations(range(30), 2))

    def test_later_rows_plan_within_budget(self):
        # Without the grid all n(n - 1) / 2 = limit pairs of the 1,024 rows
        # are candidates, and all are below R, so the self-join holds one
        # group of pair arrays of the limit, then the pairs found, their
        # concatenation and its sorted copy.
        X = np.random.default_rng(64).uniform(size=(1024, 2))
        limit = 1024 * 1023 // 2
        with mock.patch.object(geometry, "_BATCH_ROWS_PER_PASS", 1e9):
            (i, _, _), peak = traced_peak(near_pairs, X, 10.0, limit)
        assert len(i) == limit
        # A dozen 8-byte arrays of the limit, and object overhead.
        assert peak <= 12 * 8 * limit + (64 << 10)
