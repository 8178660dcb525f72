"""Ground-truth k-means: exact small-instance optimum, Lloyd heuristic.

The exact solver enumerates partitions and is the oracle every streaming
result is measured against. Lloyd with distance-squared seeding is the
labeled heuristic stand-in for instances beyond the exact limits.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Point, centroid, nearest_sq

# Largest instance the exact solver accepts, by k; 10 for every k above 3,
# and none for k = 1, which has a closed form. Chosen so the pruned
# assignment enumeration stays in the ~1e8 range (seconds, not minutes).
EXACT_LIMITS = {2: 14, 3: 11}


@dataclass
class Clustering:
    """A concrete clustering: per-point cluster ids, centroid centers, cost."""

    assignment: list[int]
    centers: list[Point]
    cost: float


def _clustering_from_assignment(
    points: Sequence[Point], assignment: Sequence[int]
) -> Clustering:
    """Score an assignment at per-cluster centroids (empty ids dropped).

    The cost is one `math.fsum` over every point's squared distance to its
    own centroid, each with the bits of `nearest_sq`.
    """
    used = sorted(set(assignment))
    relabel = {old: new for new, old in enumerate(used)}
    labels = [relabel[a] for a in assignment]
    clusters: list[list[Point]] = [[] for _ in used]
    for p, cid in zip(points, labels):
        clusters[cid].append(p)
    centers = [centroid(c) for c in clusters]
    cost = math.fsum(
        d2
        for c, ctr in zip(clusters, centers)
        for d2 in nearest_sq(np.asarray(c), np.asarray([ctr]))[1].tolist()
    )
    return Clustering(assignment=labels, centers=centers, cost=cost)


def optimal_kmeans(points: Sequence[Point], k: int) -> Clustering:
    """Globally optimal k-means of a small instance by partition enumeration.

    Centers are unrestricted (cluster centroids). Ties break toward the
    lexicographically smallest canonical assignment vector. Raises when the
    instance exceeds the exact limit; use lloyd_kmeans there instead.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
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
    d = len(points[0])
    # One (count, coordinate sums, sum of squared norms, cost) value per
    # part, with cost = sumsq - |sums|^2 / count. A tried assignment puts
    # the grown value in place and the old one back after, so a part's
    # value depends only on its members, in order.
    parts: list[tuple[int, list[float], float, float]] = []
    sqnorms = [math.fsum(map(operator.mul, p, p)) for p in points]
    assignment = [0] * n
    best_cost = math.inf
    best_assignment: list[int] | None = None

    def recurse(i: int, total: float) -> None:
        nonlocal best_cost, best_assignment
        if total >= best_cost:
            return
        if i == n:
            best_cost = total
            best_assignment = assignment.copy()
            return
        p = points[i]
        n_parts = len(parts)
        if n_parts < k:
            parts.append((0, [0.0] * d, 0.0, 0.0))
        for pi in range(len(parts)):
            count, sums, sumsq, cost = old = parts[pi]
            sums = list(map(operator.add, sums, p))
            sumsq += sqnorms[i]
            grown = sumsq - math.fsum(map(operator.mul, sums, sums)) / (count + 1)
            parts[pi] = (count + 1, sums, sumsq, grown)
            assignment[i] = pi
            recurse(i + 1, total - cost + grown)
            parts[pi] = old
        if n_parts < k:
            parts.pop()

    recurse(0, 0.0)
    assert best_assignment is not None
    return _clustering_from_assignment(points, best_assignment)


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
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(points) < k:
        raise ValueError(f"need at least k={k} points, got {len(points)}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    X = np.asarray(points, dtype=np.float64)

    best: tuple[float, np.ndarray] | None = None
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        centers = _seed_centers(X, k, rng)
        labels, _ = nearest_sq(X, centers)
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
    return _clustering_from_assignment(points, [int(a) for a in best[1]])


def _seed_centers(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = nearest_sq(X, centers[:1])[1]
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
        d2 = np.minimum(d2, nearest_sq(X, centers[j : j + 1])[1])
    return centers
