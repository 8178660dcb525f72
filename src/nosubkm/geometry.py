"""Points, distances, k-means cost, centroids, l-fold diameters, subset tables.

A point is a plain tuple of floats; a point set is any sequence of points
of equal dimension. Everything here except `CellGrid` is a pure function,
so values can be shared freely across threads or processes. `nearest_sq`
is the one squared-distance kernel: `kmeans_cost`, the grid's batch and
self-join, the Lloyd oracle and its scoring and the exact oracle's
pairwise table take their squared distances from it or from its
coordinate loop `_sum_sq`. It lays out a long chunk of rows against a few
centers center-major, so that each numpy pass runs one inner loop per
center rather than one per row, and any other chunk row-major; both give
the same bits, and a tie goes to the lowest center index either way. Only
`CellGrid`'s query sums a few candidates in plain Python, with the same
bits. Every reported cost is the `math.fsum` of such distances.

The √R grid (Bentley, Stanat & Williams, IPL 1977) finds the squared
distance from x to its nearest center exactly whenever that is below a
threshold R, by looking only at the cells near x. `CellGrid` answers one
query at a time over a growing center set (a one-dimensional set by
bisection instead, for every R); `grid_below_sq` answers a batch, exactly
where the distance is below R, and `grid_nearest_sq` is that batch with a
`nearest_sq` scan of the rows it leaves at or above R. Both use the cell
side of `grid_side` and the cell rule floor(v / h), and take `nearest_sq`
where the grid cannot answer or costs more than the scan. `near_pairs`
joins a batch with itself: every pair of its rows whose squared distance
is below R, each row measuring only the rows after it in the grid's order
that lie in its cells; with no grid the order is the rows' own and the
one run is all of them, so each pair is measured once either way.

The exact searches run on tables over all 2**n subsets of a small set
(`subset_tables`, or `subset_pairs` where only the pairs are read).
`least_partition`, one layer of `min_over_splits` per part over the
split table `_splits`, gives `l_fold_diameter` with np.maximum on
diameters and the exact k-means oracle with np.add.
`min_over_splits_at` folds the splits of chosen masks only, for
`lower_bound.lower_exact`'s last fold level.

Exactness. Let u = 2**-53, R >= DBL_MIN and h = r = fl(fl(sqrt(R)) *
(1 + GRID_MARGIN)); the scan covers, in each coordinate j, the cells
floor(fl(x_j - r) / h) .. floor(fl(x_j + r) / h). Take a center c whose
computed squared distance D, the left-to-right sum of fl(δ_j * δ_j) with
δ_j = fl(x_j - c_j), is below R. The addends are not negative and rounding
is monotone, so fl(δ_j * δ_j) <= D < R for every j. If δ_j**2 >= DBL_MIN
that gives δ_j**2 (1 - u) < R; otherwise |δ_j| < sqrt(DBL_MIN) <= sqrt(R).
Either way |δ_j| < sqrt(R) / sqrt(1 - u), and since the difference is
rounded once, |x_j - c_j| <= |δ_j| / (1 - u) < sqrt(R) (1 - u)**-1.5. On
the other side r >= sqrt(R) (1 - u)**2 (1 + GRID_MARGIN) >= sqrt(R)
(1 - u)**-1.5, because 1 + GRID_MARGIN > (1 - u)**-3.5. So x_j - r <= c_j
<= x_j + r; c_j is a double, so fl(x_j - r) <= c_j <= fl(x_j + r), and
dividing by h > 0 and taking the floor are monotone too, so c lies in a
scanned cell. The scan assumes no ±1 ring: it runs from the low cell to
the high one, whatever their distance. Hence the smallest D over the
scanned cells is the smallest over all centers whenever it is below R, and
when no scanned center is below R no center is. The margin does not
depend on d. Every cell number is finite: points have coordinates within
COORD_LIMIT and h >= sqrt(DBL_MIN), so |x_j ± r| / h < 2e254.

The same argument serves the self-join of `near_pairs`, with each row as
both a query and a center: the distance is symmetric to the bit, since
fl(b - a) = -fl(a - b), so a pair whose computed squared distance is below
R lies in the scanned cells of each of its rows, and in particular of the
one that comes first in the grid's order; with no grid every row after it
is a candidate. So the distances a `cluster._Window` reads,
`grid_below_sq`'s at the start of a window, each lowered by the later
pairs of the window's takes, are `nearest_sq`'s distances to the grown set
wherever those are below R.

In one dimension no grid is needed. Take points b <= b' <= x: then
x - b >= x - b' >= 0, and rounding is monotone, so fl(x - b) >= fl(x - b')
>= 0 and fl(fl(x - b)**2) >= fl(fl(x - b')**2), subnormals and underflow
to 0 included; the same holds for points at or above x. So the least
computed squared distance is that of the largest point below x or of the
smallest at or above it, x's two neighbours in sorted order, whatever R,
R = 0 included. -0.0 and 0.0 sort as equals, and their differences from
x differ at most in the sign of a zero, which squaring drops.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from bisect import bisect_left, insort
from typing import Callable, Sequence

import numpy as np

Point = tuple[float, ...]

# Largest set whose l-fold diameter is exact; beyond it l_fold_diameter
# returns a certified greedy upper bound, except at l = 1 and at l + 1
# points, whose closed forms are exact at any size. `least_partition` splits the
# subsets of all but one point, so at 12 points and l >= 3 it builds the
# 11-point split table: 88,573 splits, 371 kB kept, 903 kB at its build.
EXACT_PARTITION_LIMIT = 12

# Masks per slice of `min_over_splits`, bounding its temporaries.
_FOLD_CHUNK = 128

# Largest Euclidean norm a point may have. Below it every squared distance
# is at most (2 * COORD_LIMIT)**2 = 4e200, whatever d, so it, the sketch
# radius squared and any sum of fewer than 1e100 such terms stay finite.
COORD_LIMIT = 1e100

# Relative margin of the grid's query radius over sqrt(R); it covers the
# rounding of the square root, of this product and of one squared
# coordinate difference (see the module docstring).
GRID_MARGIN = 2.0**-40

# Float64 elements (8 MiB) that nearest_sq's temporaries may hold at once:
# the running sum and the current coordinate's squared differences, each
# one block of a chunk's rows by the centers. The center-major label step
# holds less: the sum and a bool block, then the bool block and a rank
# block, at most 9 bytes per element.
NEAREST_SQ_BUDGET = 1 << 20

# Where a center-major block pays. Row-major, each numpy pass loops over
# the centers once per row, and argmin makes one call per row; center-major
# loops over the rows once per center, but its labels take four passes
# (min, compare, rank, max) and a fixed ~10 us more. Measured on a 2-CPU
# Xeon (Python 3.11, numpy 2.4, d = 1..3), center-major took 0.3-0.5x the
# row-major time at 4,000 rows and 1 or 5 centers and at most 1.0x from
# 512 rows with 1 to 16 centers; with fewer rows it took up to 2x, and at
# 512-1,024 rows with 32 centers up to 1.07x.
_CENTER_MAJOR_MIN_ROWS = 512
_CENTER_MAJOR_MAX_CENTERS = 16


def check_point(pt: Point) -> None:
    """Raise ValueError unless pt is nonempty with every coordinate finite
    and its Euclidean norm at most COORD_LIMIT."""
    if not pt:
        raise ValueError("a point needs at least one coordinate")
    # hypot is NaN or inf when a coordinate is, and it does not overflow
    if not math.hypot(*pt) <= COORD_LIMIT:
        if not all(map(math.isfinite, pt)):
            raise ValueError(f"point has non-finite coordinates: {pt}")
        raise ValueError(f"point has a norm beyond {COORD_LIMIT:g}: {pt}")


def require(ok: bool, message: str) -> None:
    """Raise AssertionError(message) unless ok; the `check()` methods'
    test, which `python -O` does not strip as it strips `assert`."""
    if not ok:
        raise AssertionError(message)


# Euclidean distance between two points of equal dimension; math.dist
# raises ValueError itself when the dimensions differ.
dist = math.dist


def nearest_sq(X: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of, and squared distance to, the nearest row of C for each row of X.

    Ties go to the lowest index. Each squared distance is the sum of the
    squared coordinate differences taken left to right over the
    coordinates, ((dx0**2 + dx1**2) + dx2**2) + ...; for d <= 7 that has
    the bits of numpy's sum over the last axis, which switches to pairwise
    summation from 8 elements up. Rows of X are taken in chunks so that the
    two rows-by-centers temporaries together hold at most NEAREST_SQ_BUDGET
    elements, except that a chunk is never less than one row.

    A chunk of at least _CENTER_MAJOR_MIN_ROWS rows against at most
    _CENTER_MAJOR_MAX_CENTERS centers is summed center-major, as a
    centers-by-rows block: its minimum over the centers is the distance,
    and the label is the first center that reaches it. Any other chunk is
    summed row-major and takes argmin's label. Neither the bits nor the
    labels depend on the chunk size or the orientation.
    """
    n, d = X.shape
    if len(C) == 0:
        raise ValueError("centers must be nonempty")
    if C.shape[1] != d:
        raise ValueError(f"dimension mismatch: {d} vs {C.shape[1]}")
    rows = max(1, NEAREST_SQ_BUDGET // (2 * len(C)))
    if rows >= n:
        return _nearest_sq_chunk(X, C)
    parts = [_nearest_sq_chunk(X[s : s + rows], C) for s in range(0, n, rows)]
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def _nearest_sq_chunk(X: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    k = len(C)
    if len(X) < _CENTER_MAJOR_MIN_ROWS or k > _CENTER_MAJOR_MAX_CENTERS:
        sq = _sum_sq(lambda j: np.subtract.outer(X[:, j], C[:, j]), X.shape[1])
        labels = sq.argmin(axis=1)
        return labels, sq[np.arange(len(sq)), labels]
    # fl(c - x) is -fl(x - c), so every square has the row-major bits. The
    # label is the first center at the minimum, argmin's tie rule: the
    # largest rank k - i among the centers i that reach it.
    sq = _sum_sq(lambda j: np.subtract.outer(C[:, j], X[:, j]), X.shape[1])
    d2 = sq.min(axis=0)
    at_min = sq == d2
    del sq
    rank = np.arange(k, 0, -1, dtype=np.min_scalar_type(k))[:, None]
    return k - (at_min * rank).max(axis=0).astype(np.intp), d2


def _sum_sq(diff: Callable[[int], np.ndarray], d: int) -> np.ndarray:
    """Sum over j < d of diff(j) squared, exactly rounded and added left to
    right over j: the one order that fixes every squared distance's bits.
    diff(j) returns a fresh block of coordinate-j differences; it is
    squared in place and dropped, so at most two blocks are live."""
    sq = diff(0)
    np.square(sq, out=sq)
    for j in range(1, d):
        tmp = diff(j)
        np.square(tmp, out=tmp)
        sq += tmp
        del tmp
    return sq


def grid_side(threshold: float) -> float:
    """Cell side h of the √R grid, which is also its query radius r; 0.0
    where there is no grid: R below the smallest normal double (R is 0
    during warm-up) or not finite."""
    if not sys.float_info.min <= threshold <= sys.float_info.max:
        return 0.0
    return math.sqrt(threshold) * (1.0 + GRID_MARGIN)


# Where the grid stops paying. The query probes each cell with a dict
# lookup and the scan costs a fixed call overhead plus a pass per center
# and coordinate: the grid is used while cells <= _QUERY_FREE_CELLS +
# |S| * d / _QUERY_ROWS_PER_CELL. Up to _QUERY_PY_CANDIDATES centers found
# in the cells are measured one by one in Python, more with nearest_sq on
# their rows. The batch pays a few numpy passes over the rows per cell
# combination outside the first coordinate against nearest_sq's passes
# over rows times centers: it is used while those combinations
# <= |C| * d / _BATCH_ROWS_PER_PASS.
_QUERY_FREE_CELLS = 100
_QUERY_ROWS_PER_CELL = 100
_QUERY_PY_CANDIDATES = 24
_BATCH_ROWS_PER_PASS = 150


class CellGrid:
    """A growing point set on the √R grid, for exact nearest queries below R.

    Single-owner and mutable. Points are bucketed by cell key
    floor(v / grid_side(threshold)) per coordinate. The cells are filled on
    the first query that reads them after the threshold changes, and kept
    up to date by `add` from then on, so a caller that adds points without
    querying (`cluster`'s `_run` reading a `_Window`) never pays for them.
    `min_sq_dist` scans `nearest_sq` over every point when there is no grid
    or when the cells near x outnumber what a scan costs.

    A one-dimensional set is searched by bisection instead: `add` keeps its
    coordinates in a sorted list, and `min_sq_dist` measures only x's two
    sorted neighbours, which is exact for every R, 0 included (module
    docstring). Its cells are never filled and it never scans.
    """

    def __init__(self) -> None:
        self.points: list[Point] = []
        self.threshold = 0.0
        self._side = 0.0
        # None until a query needs the cells of the current threshold
        self._cells: dict[tuple[int, ...], list[int]] | None = None
        # the points as a growing array, for nearest_sq
        self._rows: np.ndarray | None = None
        # a one-dimensional set's coordinates in increasing order, else None
        self._sorted: list[float] | None = None

    def __len__(self) -> int:
        return len(self.points)

    @property
    def rows(self) -> np.ndarray:
        """The points as an array, one row each: a view of the grid's own."""
        if self._rows is None:
            return np.empty((0, 0))
        return self._rows[: len(self.points)]

    def add(self, p: Point) -> None:
        i = len(self.points)
        self.points.append(p)
        if self._rows is None:
            self._rows = np.empty((64, len(p)))
            if len(p) == 1:
                self._sorted = []
        elif i == len(self._rows):
            self._rows = np.concatenate([self._rows, np.empty_like(self._rows)])
        self._rows[i] = p
        if self._sorted is not None:
            insort(self._sorted, p[0])
        elif self._cells is not None:
            self._bucket(i, p)

    def set_threshold(self, threshold: float) -> None:
        """Move to a new R; the cells of its side are filled by the next
        query that needs them."""
        self.threshold = threshold
        self._side = grid_side(threshold)
        self._cells = None

    def _fill(self) -> dict[tuple[int, ...], list[int]]:
        self._cells = {}
        for i, p in enumerate(self.points):
            self._bucket(i, p)
        return self._cells

    def _key(self, p: Point) -> tuple[int, ...]:
        h = self._side
        return tuple([math.floor(c / h) for c in p])

    def _bucket(self, i: int, p: Point) -> None:
        self._cells.setdefault(self._key(p), []).append(i)

    def check(self) -> None:
        """Raise AssertionError unless the grid matches its points.

        The cell side is that of the threshold; once a query has filled
        them, the cells partition the point ids (no cells without a grid),
        each id in the cell of its point; a one-dimensional set has no
        cells, and its sorted list is its coordinates in increasing order;
        the array rows equal the points.
        """
        n = len(self.points)
        require(
            self._side == grid_side(self.threshold),
            f"cell side {self._side} is not that of R = {self.threshold}",
        )
        if self._sorted is not None:
            require(self._cells is None, "a one-dimensional set has cells")
            require(
                self._sorted == sorted(p[0] for p in self.points),
                "the sorted list is not the points' coordinates in increasing order",
            )
        if self._cells is not None:
            listed = sorted(i for ids in self._cells.values() for i in ids)
            require(
                listed == (list(range(n)) if self._side else []),
                f"the cells hold ids {listed}, not a partition of the {n} points",
            )
            for key, ids in self._cells.items():
                for i in ids:
                    require(key == self._key(self.points[i]), f"point {i} is not in cell {key}")
        rows = [] if self._rows is None else self._rows[:n].tolist()
        require(rows == [list(p) for p in self.points], "the array rows differ from the points")

    def min_sq_dist(self, x: Point) -> float:
        """Squared distance from x to its nearest point, with the bits of
        `nearest_sq`, where that is below the threshold; where it is not,
        either that distance or math.inf. A one-dimensional set always
        gives the distance."""
        count = len(self.points)
        if not count:
            raise ValueError("centers must be nonempty")
        line = self._sorted
        if line is not None:
            # the nearest point is the successor of x or its predecessor
            a = x[0]
            i = bisect_left(line, a)
            best = math.inf
            if i < count:
                b = line[i]
                best = (a - b) * (a - b)
            if i:
                b = line[i - 1]
                d2 = (a - b) * (a - b)
                if d2 < best:
                    best = d2
            return best
        h = self._side
        if h:
            ranges = [range(math.floor((c - h) / h), math.floor((c + h) / h) + 1) for c in x]
            if math.prod(map(len, ranges)) <= (
                _QUERY_FREE_CELLS + count * len(x) // _QUERY_ROWS_PER_CELL
            ):
                found: list[int] = []
                get = (self._fill() if self._cells is None else self._cells).get
                for key in itertools.product(*ranges):
                    ids = get(key)
                    if ids:
                        found += ids
                if len(found) > _QUERY_PY_CANDIDATES:
                    best = float(nearest_sq(np.asarray(x)[None, :], self._rows[found])[1][0])
                else:
                    # _sum_sq's bits in plain Python. A one-row nearest_sq
                    # call runs row-major and took 17-24 us at d = 2 for 8
                    # to 48 candidates; this loop took about 0.5 us a
                    # candidate, so it is the cheaper up to about 32
                    # candidates (2-CPU Xeon, Python 3.11, numpy 2.4).
                    best = math.inf
                    points = self.points
                    for i in found:
                        d2 = 0.0
                        for a, b in zip(x, points[i]):
                            d2 += (a - b) * (a - b)
                        if d2 < best:
                            best = d2
                return best if best < self.threshold else math.inf
        return float(nearest_sq(np.asarray(x)[None, :], self._rows[:count])[1][0])


def grid_nearest_sq(X: np.ndarray, C: np.ndarray, threshold: float) -> np.ndarray:
    """`nearest_sq(X, C)[1]` to the bit, found on the √R grid of C: the
    rows that `grid_below_sq` leaves at or above `threshold` fall back to
    nearest_sq."""
    best = grid_below_sq(X, C, threshold)
    miss = np.flatnonzero(~(best < threshold))
    if len(miss):
        best[miss] = nearest_sq(X[miss], C)[1]
    return best


def grid_below_sq(X: np.ndarray, C: np.ndarray, threshold: float) -> np.ndarray:
    """`nearest_sq(X, C)[1]` to the bit where that is below `threshold`;
    elsewhere some value at or above the threshold, inf included.

    Each row's least squared distance, summed as in nearest_sq, to the
    centers in its cells of the √R grid of C, inf where there are none: by
    the module docstring's argument nearest_sq's value wherever that is
    below R, and a minimum over fewer centers elsewhere. C is sorted by a
    linear cell key whose first coordinate has stride 1, so a row's cells
    that differ only there are one run of keys, found with two searchsorted
    calls; one pass runs per combination of cells in the other coordinates.
    Where the grid cannot answer (`_cell_runs`), every row takes nearest_sq.
    """
    if len(C) == 0:
        raise ValueError("centers must be nonempty")
    if C.shape[1] != X.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {C.shape[1]}")
    plan = _cell_runs(X, C, grid_side(threshold))
    if plan is None:
        return nearest_sq(X, C)[1]
    order, runs = plan
    C = C[order]
    best = np.full(len(X), np.inf)
    for start, count in runs:
        for rows, first, pair_row, pair_center in _pair_groups(start, count):
            sq = _sum_sq(lambda j: X[pair_row, j] - C[pair_center, j], X.shape[1])
            best[rows] = np.minimum(best[rows], np.minimum.reduceat(sq, first))
    return best


def _cell_runs(X: np.ndarray, C: np.ndarray, h: float, self_join: bool = False):
    """Where the grid of side h serves the rows of X against the centers C:
    the order that sorts C by linear cell key, and an iterator over the
    combinations of cells outside the first coordinate that gives each
    row's run of centers, in that order, as arrays (start, count). For a
    self-join, X being C, the rows are taken in that order too, so each
    searchsorted gets its queries sorted but for rounding. None where there
    is no grid (h = 0 or no rows), where the passes outnumber what a scan
    costs, or where cell numbers leave the range where doubles hold
    integers exactly."""
    n, d = X.shape
    if not h or n == 0 or len(C) * d < _BATCH_ROWS_PER_PASS:
        # With fewer center coordinates every span fails the pass test
        # below, as span >= 1, so no cell number need be computed.
        return None
    lo = np.floor((X - h) / h)
    span = int((np.floor((X + h) / h) - lo).max()) + 1
    cc = np.floor(C / h)
    base = cc.min(axis=0)
    extent = [int(e) + 1 for e in cc.max(axis=0) - base]
    if (
        span ** (d - 1) > len(C) * d // _BATCH_ROWS_PER_PASS
        or max(np.abs(lo).max(), np.abs(cc).max()) + span >= 2.0**52
        or math.prod(extent) >= 2**62
    ):
        return None
    strides = np.cumprod([1] + extent[:-1], dtype=np.int64)
    keys = (cc - base).astype(np.int64) @ strides
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    low = ((lo[order] if self_join else lo) - base).astype(np.int64)

    def runs():
        for offset in itertools.product(range(span), repeat=d - 1):
            # A cell outside the centers' extent may alias another cell's
            # key. That only adds candidates: the minimum over any superset
            # of the scanned cells is still exact below R.
            run = (low[:, 1:] + offset) @ strides[1:] + low[:, 0]
            start = np.searchsorted(keys, run)
            yield start, np.searchsorted(keys, run + span) - start

    return order, runs()


def _pair_groups(start: np.ndarray, count: np.ndarray):
    """The rows with candidates, in groups of about NEAREST_SQ_BUDGET
    row-center pairs each (one row's pairs more at most), so that the pair
    temporaries stay bounded. Each group is (rows, first, pair_row,
    pair_center): row rows[i]'s pairs start at first[i], and pair p joins
    row pair_row[p] to center pair_center[p] of its run."""
    rows = np.flatnonzero(count)
    ends = np.cumsum(count[rows])
    total = int(ends[-1]) if len(ends) else 0
    cuts = np.searchsorted(ends, np.arange(NEAREST_SQ_BUDGET, total, NEAREST_SQ_BUDGET))
    for part in np.split(rows, cuts):
        if len(part):
            c = count[part]
            first = np.cumsum(c) - c
            pair_row = np.repeat(part, c)
            pair_center = np.arange(len(pair_row)) - np.repeat(first - start[part], c)
            yield part, first, pair_row, pair_center


def near_pairs(
    X: np.ndarray, threshold: float, limit: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The pairs of rows i < j of X whose squared distance, with the bits
    of nearest_sq, is below `threshold`, as arrays (i, j, sq) in increasing
    order of i. None where that takes more than `limit` candidate pairs,
    or NEAREST_SQ_BUDGET if that is smaller, which bounds the pair
    temporaries.

    A grid self-join: every row is both a query and a center of the √R
    grid, whose `order` sorts the rows by cell, and the queries are taken
    in that order. A row's candidates are the rows in its cells that come
    after its own position in `order`: each run of positions is clamped to
    start past it. By the module docstring's argument, with the earlier of
    the two in `order` as the query, every pair below the threshold is
    among them, measured once; the same pair may be listed twice where
    cell keys alias. Where the grid cannot answer (`_cell_runs`), `order`
    is the identity and each row's one run is every row, which the clamp
    cuts to the later rows.
    """
    n, d = X.shape
    plan = _cell_runs(X, X, grid_side(threshold), self_join=True)
    order, runs = plan or (np.arange(n), [(np.zeros(n, np.intp), np.full(n, n))])
    # the query at position q of the order measures the positions after q
    after = np.arange(1, n + 1)
    runs = [(np.maximum(s, after), np.maximum(s + c, after)) for s, c in runs]
    runs = [(s, e - s) for s, e in runs]
    if sum(int(count.sum()) for _, count in runs) > min(limit, NEAREST_SQ_BUDGET):
        return None
    Y = X[order]

    def near(q, p):
        # the rows at positions q of the order against those at positions p
        sq = _sum_sq(lambda c: Y[p, c] - Y[q, c], d)
        keep = sq < threshold
        i, j, sq = order[q[keep]], order[p[keep]], sq[keep]
        return np.minimum(i, j), np.maximum(i, j, out=j), sq

    # No name holds the groups' arrays, so they go once concatenated.
    found = (near(q, p) for start, count in runs for _, _, q, p in _pair_groups(start, count))
    empty = (np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))
    i, j, sq = (np.concatenate(column) for column in zip(empty, *found))
    by_row = np.argsort(i, kind="stable")
    return i[by_row], j[by_row], sq[by_row]


def kmeans_cost(points: Sequence[Point], centers: Sequence[Point]) -> float:
    """Sum over points of the squared distance to the nearest center:
    `nearest_sq`'s distances added by `math.fsum`, so the sum is exactly
    rounded, whatever the order of the points or the Python version."""
    if not points:
        raise ValueError("points must be nonempty")
    X = np.asarray(points, dtype=float)
    return math.fsum(nearest_sq(X, np.asarray(centers, dtype=float))[1].tolist())


def centroid(points: Sequence[Point]) -> Point:
    """Coordinatewise mean of a nonempty point set: each coordinate's
    exactly rounded sum (`math.fsum`) divided by the count. Raises
    ValueError when the points differ in dimension."""
    if not points:
        raise ValueError("cannot take the centroid of an empty set")
    n = len(points)
    return tuple(math.fsum(c) / n for c in zip(*points, strict=True))


def diameter(points: Sequence[Point]) -> float:
    """Maximum pairwise distance (0 for a single point)."""
    if not points:
        raise ValueError("points must be nonempty")
    if len(points) == 1:
        return 0.0
    return max(dist(a, b) for a, b in itertools.combinations(points, 2))


def l_fold_diameter(points: Sequence[Point], l: int) -> float:
    """Smallest D such that `points` splits into l parts of diameter <= D.

    Exact up to EXACT_PARTITION_LIMIT points: `least_partition` with
    np.maximum on every subset's diameter (`subset_pairs`), a maximum of
    `distance_table` entries or 0.0. Beyond, a certified upper bound from
    greedy farthest-point splitting. Three closed forms are exact at any
    size and build no table: |points| <= l gives 0.0; l + 1 points give
    the closest pair's `dist`, since some part holds two points and the
    closest pair with every other point alone is a split; at l = 1 the
    greedy split is one part, whose diameter it returns.
    """
    if not points:
        raise ValueError("points must be nonempty")
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if len(points) <= l:
        return 0.0
    if len(points) == l + 1:
        return min(dist(a, b) for a, b in itertools.combinations(points, 2))
    if l > 1 and len(points) <= EXACT_PARTITION_LIMIT:
        diam = subset_pairs(distance_table(points), np.maximum, 0.0)
        return least_partition(diam, l, np.maximum)[0]
    return _greedy_partition_diameter(points, l)


def distance_table(points: Sequence[Point]) -> np.ndarray:
    """All pairwise distances as a float64 array: table[i, j] is
    dist(points[i], points[j]).

    Each pair is computed once, below the diagonal, and mirrored by adding
    the transpose, whose entries there are 0.0; math.dist is symmetric to
    the bit, so the mirrored entry equals dist() with its arguments swapped.
    """
    n = len(points)
    table = np.zeros((n, n))
    for i in range(1, n):
        table[i, :i] = [dist(points[i], q) for q in points[:i]]
    return table + table.T


def subset_tables(
    table: np.ndarray, combine: np.ufunc, empty: float
) -> tuple[np.ndarray, np.ndarray]:
    """For every mask S below 2**n, n = len(table): rows[S, x], table[j, x]
    combined over the members j of S, and pairs[S], table[j, i] combined
    over the member pairs j < i of S; `empty` where there are none. The
    subsets whose highest member is i are those below 1 << i plus i, so
    both tables double once per point and combine members in index order."""
    n = len(table)
    rows = np.full((1 << n, table.shape[1]), empty)
    pairs = np.full(1 << n, empty)
    for i in range(n):
        lo, hi = 1 << i, 2 << i
        combine(pairs[:lo], rows[:lo, i], out=pairs[lo:hi])
        combine(rows[:lo], table[i], out=rows[lo:hi])
    return rows, pairs


def subset_pairs(table: np.ndarray, combine: np.ufunc, empty: float) -> np.ndarray:
    """`subset_tables(table, combine, empty)[1]`, to the bit, from only the
    member rows that the pairs read: the masks whose highest member is i
    read column i of the rows below 1 << i, so step i extends only the
    columns after i, and no step writes the rows from 2**(n-1) on. The
    rows are kept column by column, so each column is one contiguous run."""
    n = len(table)
    columns = np.empty((n, 1 << max(n - 1, 0)))  # columns[x, S]: rows[S, x]
    columns[:, 0] = empty
    pairs = np.empty(1 << n)
    pairs[0] = empty
    for i in range(n):
        lo, hi = 1 << i, 2 << i
        combine(pairs[:lo], columns[i, :lo], out=pairs[lo:hi])
        if i + 1 < n:
            combine(columns[i + 1 :, :lo], table[i, i + 1 :, None], out=columns[i + 1 :, lo:hi])
    return pairs


@functools.cache
def _splits(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every split of every nonempty mask S below 2**m, m <= 16, into a part
    A holding S's lowest member and the rest S \\ A, by S and then by A in
    increasing order, as read-only (A, rest, starts): starts[S - 1] is where
    the splits of S begin and starts[-1] their total, so the masks below
    2**j have a prefix, whatever m. Built on first use, from one key per
    split, S then A: the splits of bit | r, r < bit, are those of r with bit
    in the rest or in A, and bit alone has the one split (bit, 0)."""
    key = np.zeros(0, np.uint32)
    for i in range(m):
        up = np.uint32(1 << i + m)  # bit, added to S
        key = np.concatenate([key, [up | 1 << i], key + up, key + (up | 1 << i)])
    key.sort()
    starts = np.searchsorted(key, np.arange(1, (1 << m) + 1, dtype=np.uint32) << m)
    part = (key & (1 << m) - 1).astype(np.uint16)
    key >>= m
    rest = key.astype(np.uint16) ^ part
    for table in (part, rest, starts):
        table.flags.writeable = False
    return part, rest, starts


def min_over_splits(part: np.ndarray, rest: np.ndarray, combine: np.ufunc) -> np.ndarray:
    """For every mask S below len(rest), a power of 2, the least over the
    splits of S of combine(part[A], rest[S \\ A]); 0 at the empty mask. A
    may hold every member, so fewer parts count too. On the diameters and
    the l-fold diameters np.maximum gives the (l+1)-fold diameters; on the
    part costs and the least l-part costs np.add gives the least (l+1)-part
    costs. The split table is the smallest that covers the masks, and its
    uint16 rows are gathered with np.take, about twice as fast as fancy
    indexing (numpy 2.4). A caller that reads few masks takes `min_over_splits_at`."""
    splits_a, splits_rest, starts = _splits((len(rest) - 1).bit_length())
    out = np.zeros_like(rest)
    for lo in range(1, len(rest), _FOLD_CHUNK):
        hi = min(lo + _FOLD_CHUNK, len(rest))
        a, b = starts[lo - 1], starts[hi - 1]
        scores = np.take(part, splits_a[a:b])
        combine(scores, np.take(rest, splits_rest[a:b]), out=scores)
        out[lo:hi] = np.minimum.reduceat(scores, starts[lo - 1 : hi - 1] - a)
    return out


def min_over_splits_at(
    masks: np.ndarray, part: np.ndarray, rest: np.ndarray, combine: np.ufunc
) -> np.ndarray:
    """min_over_splits(part, rest, combine)[masks] for a nonempty array of
    distinct nonempty masks, folding only their splits: the same minimum
    over the same values, so the same bits."""
    splits_a, splits_rest, starts = _splits((len(rest) - 1).bit_length())
    lo = starts[masks - 1]
    count = starts[masks] - lo
    first = np.cumsum(count) - count
    # the positions of each mask's splits, one run after another
    at = np.repeat(lo - first, count)
    at += np.arange(len(at))
    scores = np.take(part, np.take(splits_a, at))
    combine(scores, np.take(rest, np.take(splits_rest, at)), out=scores)
    return np.minimum.reduceat(scores, first)


def least_partition(score: np.ndarray, l: int, combine: np.ufunc) -> tuple[float, list[int]]:
    """The least score of n points in at most l >= 2 parts, and the parts
    that reach it as masks in increasing order of their lowest point. score[S]
    scores each mask S below 2**n, 0.0 the empty one; parts combine by
    `combine`. A set's least score is the least, over its splits into a
    part A holding its lowest member and the rest, of combine(score[A],
    the rest's least score in l - 1 parts). No rest holds point 0, so the
    inner layers split the subsets of points 1..n-1 (`min_over_splits`)
    and only the last reads the whole set. At each layer the first A in
    increasing mask order with the least total wins."""
    n = len(score).bit_length() - 1
    inner = score[0::2]  # the subsets of points 1..n-1, indexed by mask >> 1
    best = [inner]  # best[j - 1][S]: the least score of S in at most j parts
    for _ in range(min(l, n) - 2):
        best.append(min_over_splits(inner, best[-1], combine))
    # The last layer: the parts holding point 0, masks 2a + 1, whose rests
    # have mask >> 1 = full ^ a, so best[-1] is read backwards.
    totals = combine(score[1::2], best.pop()[::-1])
    a = int(np.argmin(totals))
    parts, free = [2 * a + 1], (len(inner) - 1) ^ a
    while free:
        taken = free
        if best:
            part, rest, starts = _splits((len(inner) - 1).bit_length())
            lo, hi = starts[free - 1], starts[free]
            scores = combine(np.take(inner, part[lo:hi]), np.take(best.pop(), rest[lo:hi]))
            taken = int(part[lo + np.argmin(scores)])
        parts.append(taken << 1)
        free ^= taken
    return float(totals[a]), parts


def _greedy_partition_diameter(points: Sequence[Point], l: int) -> float:
    """Farthest-point seeding, nearest-seed assignment, max part diameter.

    Each point's nearest seed is recorded while seeding; a later seed takes
    the point only when strictly nearer, so ties go to the earlier seed.
    """
    nearest = [0] * len(points)
    dist_to_seeds = [dist(p, points[0]) for p in points]
    for _ in range(l - 1):
        far = max(range(len(points)), key=dist_to_seeds.__getitem__)
        for i, p in enumerate(points):
            d = dist(p, points[far])
            if d < dist_to_seeds[i]:
                dist_to_seeds[i], nearest[i] = d, far
    groups: dict[int, list[Point]] = {}
    for p, seed in zip(points, nearest):
        groups.setdefault(seed, []).append(p)
    return max(diameter(g) for g in groups.values())
