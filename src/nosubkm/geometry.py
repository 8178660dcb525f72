"""Points, distances, k-means cost, centroids, and l-fold diameters.

A point is a plain tuple of floats; a point set is any sequence of points
of equal dimension. Everything here is a pure function, so values can be
shared freely across threads or processes. `nearest_sq` is the one numpy
nearest-center kernel for point sets too large for the pure-Python loops.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

Point = tuple[float, ...]

# Default cap for exhaustive partition search in l_fold_diameter. Partition
# counts stay Bell-number feasible up to here; beyond it we fall back to a
# certified greedy upper bound.
EXACT_PARTITION_LIMIT = 12

# Largest temporary nearest_sq allocates, in float64 elements (8 MiB): the
# row-by-center-by-dimension difference block of one chunk of rows.
NEAREST_SQ_BUDGET = 1 << 20


def as_point(coords: Sequence[float]) -> Point:
    """Build a validated point: nonempty, all coordinates finite."""
    pt = tuple(float(c) for c in coords)
    check_point(pt)
    return pt


def check_point(pt: Point) -> None:
    """Raise ValueError unless pt is nonempty with all coordinates finite."""
    if not pt:
        raise ValueError("a point needs at least one coordinate")
    if not all(map(math.isfinite, pt)):
        raise ValueError(f"point has non-finite coordinates: {pt}")


def dist(a: Point, b: Point) -> float:
    """Euclidean distance between two points of equal dimension."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return math.dist(a, b)


def sq_dist(a: Point, b: Point) -> float:
    """Squared Euclidean distance."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum((x - y) ** 2 for x, y in zip(a, b))


def min_sq_dist(x: Point, centers: Sequence[Point]) -> float:
    """Squared distance from x to the nearest of `centers`."""
    if not centers:
        raise ValueError("centers must be nonempty")
    return min(sq_dist(x, c) for c in centers)


def nearest_sq(X: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of, and squared distance to, the nearest row of C for each row of X.

    Ties go to the lowest index. Rows of X are taken in chunks so that no
    temporary holds more than NEAREST_SQ_BUDGET elements, except that a
    chunk is never less than one row. Each squared distance is the sum over
    the last axis of the squared coordinate differences, so equal inputs
    give equal bits at any chunk size.
    """
    n, d = X.shape
    if len(C) == 0:
        raise ValueError("centers must be nonempty")
    rows = max(1, NEAREST_SQ_BUDGET // (len(C) * d))
    if rows >= n:
        return _nearest_sq_chunk(X, C)
    parts = [_nearest_sq_chunk(X[s : s + rows], C) for s in range(0, n, rows)]
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def _nearest_sq_chunk(X: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    diff = X[:, None, :] - C
    np.square(diff, out=diff)
    sq = diff.sum(axis=2)
    return sq.argmin(axis=1), sq.min(axis=1)


def kmeans_cost(points: Sequence[Point], centers: Sequence[Point]) -> float:
    """Sum over points of the squared distance to the nearest center."""
    if not points:
        raise ValueError("points must be nonempty")
    if not centers:
        raise ValueError("centers must be nonempty")
    return sum(min_sq_dist(x, centers) for x in points)


def centroid(points: Sequence[Point]) -> Point:
    """Coordinatewise mean of a nonempty point set."""
    if not points:
        raise ValueError("cannot take the centroid of an empty set")
    n = len(points)
    d = len(points[0])
    return tuple(sum(p[j] for p in points) / n for j in range(d))


def center_shift_residual(points: Sequence[Point], s: Point) -> float:
    """Test probe for the shift identity L(X,{s}) = L(X,{mu}) + |X| d(s,mu)^2.

    Exact arithmetic gives 0; callers assert the result is 0 within floating
    tolerance.
    """
    mu = centroid(points)
    return (
        kmeans_cost(points, [s])
        - kmeans_cost(points, [mu])
        - len(points) * sq_dist(s, mu)
    )


def diameter(points: Sequence[Point]) -> float:
    """Maximum pairwise distance (0 for a single point)."""
    if not points:
        raise ValueError("points must be nonempty")
    if len(points) == 1:
        return 0.0
    return max(dist(a, b) for a, b in itertools.combinations(points, 2))


@dataclass(frozen=True)
class FoldDiameter:
    """l-fold diameter value plus whether it is exact or a greedy upper bound."""

    value: float
    exact: bool


def l_fold_diameter(
    points: Sequence[Point], l: int, exact_limit: int = EXACT_PARTITION_LIMIT
) -> FoldDiameter:
    """Smallest D such that `points` splits into l parts of diameter <= D.

    Exact (exhaustive partition search) when the instance is small enough;
    otherwise a certified upper bound from greedy farthest-point splitting,
    flagged as inexact. l = 1 and |points| <= l are exact at any size.
    """
    if not points:
        raise ValueError("points must be nonempty")
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if len(points) <= l:
        return FoldDiameter(0.0, exact=True)
    if l == 1:
        return FoldDiameter(diameter(points), exact=True)
    if len(points) <= exact_limit:
        table = distance_table(points)
        return FoldDiameter(partition_diameter(table, range(len(points)), l), exact=True)
    return FoldDiameter(_greedy_partition_diameter(points, l), exact=False)


def distance_table(points: Sequence[Point]) -> list[list[float]]:
    """All pairwise distances: table[i][j] is dist(points[i], points[j]).

    Each pair is computed once. math.dist is symmetric to the bit, so the
    mirrored entry equals dist() with its arguments swapped.
    """
    if points:
        d = len(points[0])
        for p in points:
            if len(p) != d:
                raise ValueError(f"dimension mismatch: {d} vs {len(p)}")
    n = len(points)
    table = [[0.0] * n for _ in range(n)]
    for i in range(1, n):
        row = table[i]
        for j in range(i):
            row[j] = table[j][i] = math.dist(points[i], points[j])
    return table


def partition_diameter(
    table: Sequence[Sequence[float]], members: Sequence[int], l: int, floor: float = 0.0
) -> float:
    """Exact l-fold diameter of the points that `members` index in `table`.

    Exhaustive search over partitions into <= l parts, pruned on the running
    maximum. `floor` is a known lower bound on the result, such as the
    l-fold diameter of a subset; the search stops once a partition reaches
    it. The result is a maximum over table entries (0.0 when no part has two
    points), so it has the bits of the distances in the table.
    """
    m = len(members)
    best = math.inf
    parts: list[list[int]] = []
    part_diam: list[float] = []

    def recurse(i: int, cur_max: float) -> None:
        nonlocal best
        if cur_max >= best:
            return
        if i == m:
            best = cur_max
            return
        x = members[i]
        row = table[x]
        for pi in range(len(parts)):
            grown = max(part_diam[pi], max(row[j] for j in parts[pi]))
            if grown < best:
                parts[pi].append(x)
                old = part_diam[pi]
                part_diam[pi] = grown
                recurse(i + 1, max(cur_max, grown))
                part_diam[pi] = old
                parts[pi].pop()
                if best <= floor:
                    return
        if len(parts) < l:
            parts.append([x])
            part_diam.append(0.0)
            recurse(i + 1, cur_max)
            parts.pop()
            part_diam.pop()

    recurse(0, 0.0)
    return best


def _greedy_partition_diameter(points: Sequence[Point], l: int) -> float:
    """Farthest-point seeding, nearest-seed assignment, max part diameter."""
    seeds = [0]
    dist_to_seeds = [dist(p, points[0]) for p in points]
    while len(seeds) < l:
        far = max(range(len(points)), key=dist_to_seeds.__getitem__)
        seeds.append(far)
        for i, p in enumerate(points):
            dist_to_seeds[i] = min(dist_to_seeds[i], dist(p, points[far]))
    groups: dict[int, list[Point]] = {s: [] for s in seeds}
    for p in points:
        nearest = min(seeds, key=lambda s: dist(p, points[s]))
        groups[nearest].append(p)
    return max(diameter(g) for g in groups.values() if g)
