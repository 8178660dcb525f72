"""Ground-truth k-means: exact small-instance optimum, Lloyd heuristic.

The exact solver is the oracle every streaming result is measured
against. It is the subset program (`geometry.least_partition`) that gives
`l_fold_diameter` its exact fold diameters, summing part costs where the
fold takes a maximum of diameters. Lloyd with distance-squared seeding is
the labeled heuristic stand-in for instances beyond the exact limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Point, _sum_sq, check_int, least_partition, nearest_sq, subset_tables

# Largest instance the exact solver accepts, by k; 10 for every k above 3,
# and none for k = 1, which has a closed form. Its subset tables have 2**n
# rows (16,384 at n = 14), and from k = 3 up the split table covers n - 1.
EXACT_LIMITS = {2: 14, 3: 11}


@dataclass
class Clustering:
    """A concrete clustering: per-point cluster ids, centroid centers, cost."""

    assignment: list[int]
    centers: list[Point]
    cost: float


def _clustering_from_assignment(
    points: Sequence[Point] | np.ndarray, assignment: Sequence[int]
) -> Clustering:
    """Score an assignment at per-cluster centroids (empty ids dropped).

    Each centroid coordinate is the `math.fsum` of its members' values over
    their count, as `centroid` takes it. The cost is one `math.fsum` over
    every point's squared distance to its own centroid, summed in one
    `_sum_sq` pass over the coordinates with the bits of `nearest_sq`.
    """
    X = np.asarray(points, dtype=np.float64)
    used, labels = np.unique(np.asarray(assignment), return_inverse=True)
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(len(used) + 1)).tolist()
    columns = X[order].T.tolist()
    centers = [
        tuple(math.fsum(column[lo:hi]) / (hi - lo) for column in columns)
        for lo, hi in zip(bounds, bounds[1:])
    ]
    C = np.array(centers)
    d2 = _sum_sq(lambda j: X[:, j] - C[labels, j], X.shape[1])
    return Clustering(assignment=labels.tolist(), centers=centers, cost=math.fsum(d2.tolist()))


def optimal_kmeans(points: Sequence[Point], k: int) -> Clustering:
    """Globally optimal k-means of a small instance by dynamic programming.

    Centers are unrestricted (cluster centroids). A part of m points scores
    its cost at its centroid, the sum of its pairwise squared distances over
    m, read for every subset from one table (`subset_tables`). Those
    distances take coordinate differences before squaring, so nothing
    cancels and a translation moves no score beyond the rounding of the
    translated coordinates; the squared norms minus the squared sums over m
    would cancel catastrophically far from the origin. The least l-part
    cost of a subset is the least, over its splits into a part A holding
    its lowest member and the rest, of A's score plus the least (l-1)-part
    cost of the rest: `least_partition` with np.add. At each layer the
    first A in increasing mask order with the least total wins, and parts
    are numbered by their lowest point; totals within rounding, a relative
    1e-12 in the tests, may tie. The reported cost is
    `_clustering_from_assignment`'s `math.fsum` at the chosen partition's
    centroids. Raises when the instance exceeds the exact limit; use
    lloyd_kmeans there instead.
    """
    k = check_int("k", k, 1)
    if not points:
        raise ValueError("points must be nonempty")
    if len(set(map(len, points))) > 1:
        raise ValueError("points differ in dimension")
    if k == 1:
        return _clustering_from_assignment(points, [0] * len(points))
    limit = EXACT_LIMITS.get(k, 10)
    if len(points) > limit:
        raise ValueError(
            f"instance of size {len(points)} exceeds the exact limit {limit} "
            f"for k={k}; use lloyd_kmeans"
        )

    n = len(points)
    # sq[i, j] = |p_i - p_j|^2, with the bits of nearest_sq
    X = np.asarray(points, dtype=np.float64)
    sq = _sum_sq(lambda j: np.subtract.outer(X[:, j], X[:, j]), X.shape[1])
    # pair[S]: the sum of sq over the member pairs of S, added in member
    # order; links[S, n]: |S|, the sum of a column of ones.
    links, pair = subset_tables(np.c_[sq, np.ones(n)], np.add, 0.0)
    cost = pair / np.maximum(links[:, n], 1)  # the empty part scores 0
    del links

    _, parts = least_partition(cost, k, np.add)
    assignment = [next(j for j, mask in enumerate(parts) if mask >> i & 1) for i in range(n)]
    return _clustering_from_assignment(X, assignment)


def lloyd_kmeans(
    points: Sequence[Point], k: int, restarts: int = 20, seed: int = 0
) -> Clustering:
    """Best-of-restarts Lloyd iteration with distance-squared seeding.

    Deterministic given the seed; equidistant points go to the lower cluster
    id. A heuristic upper bound on the optimum, not an oracle.

    The centroid step sets each live cluster's center to its members'
    coordinate sums, added in point order by one `np.bincount` per
    coordinate, over its count; an empty cluster keeps its center. For
    d >= 2 that has the bits of numpy's per-cluster `mean(axis=0)`, which
    also adds the rows in order. For d = 1 numpy's mean sums pairwise, so a
    center can differ from it by an ulp; the reported cost is computed from
    the final labels alone, through `math.fsum` centroids.
    """
    k = check_int("k", k, 1)
    if len(points) < k:
        raise ValueError(f"need at least k={k} points, got {len(points)}")
    restarts = check_int("restarts", restarts, 1)
    # One copy with each coordinate's column contiguous, which the distance
    # passes and the centroid sums read: on the eight seed-1 `lloyd_trial`
    # inputs a call took 0.85x the time of a row-major array (2-CPU Xeon,
    # Python 3.11, numpy 2.4), with the same bits.
    X = np.asfortranarray(points, dtype=np.float64)

    best: tuple[float, np.ndarray] | None = None
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        centers, labels = _seed_centers(X, k, rng)
        for _ in range(200):
            counts = np.bincount(labels, minlength=k)
            live = counts > 0
            for j in range(X.shape[1]):
                sums = np.bincount(labels, weights=X[:, j], minlength=k)
                centers[live, j] = sums[live] / counts[live]
            new_labels, d2 = nearest_sq(X, centers)
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
        # labels are the last nearest_sq's, so d2 holds the distances to centers[labels]
        cost = float(d2.sum())
        if best is None or cost < best[0]:
            best = (cost, labels)

    assert best is not None
    return _clustering_from_assignment(X, best[1])


def _seed_centers(
    X: np.ndarray, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Distance-squared seeding: the k centers, and each row's nearest
    center as `nearest_sq(X, centers)` labels it.

    Each chosen center's squared distances come from one `_sum_sq` pass of
    fl(x - c), the bits of a one-center `nearest_sq` in either of its
    orientations, since fl(c - x) is -fl(x - c). Their running minimum is
    `nearest_sq`'s distance, and a row's label moves to a center only where
    it is strictly nearer, so ties keep the lowest index, as there.
    """
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = _sq_to(X, centers[0])
    labels = np.zeros(n, dtype=np.intp)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            # numpy's `rng.choice(n, p=d2 / total)` without its check of p:
            # the same index from the same single `random()` draw
            cdf = np.cumsum(d2 / total)
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(rng.random(), side="right"))
        else:
            idx = rng.integers(n)  # all remaining mass at chosen locations
        centers[j] = X[idx]
        sq = _sq_to(X, centers[j])
        labels[sq < d2] = j
        np.minimum(d2, sq, out=d2)
    return centers, labels


def _sq_to(X: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Each row's squared distance to the point c."""
    return _sum_sq(lambda j: X[:, j] - c[j], X.shape[1])
