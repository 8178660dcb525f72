"""Ground-truth k-means: exact small-instance optimum, Lloyd heuristic.

The exact solver enumerates partitions and is the oracle every streaming
result is measured against. Lloyd with distance-squared seeding is the
labeled heuristic stand-in for instances beyond the exact limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Point, centroid, kmeans_cost, nearest_sq

# Largest instance the exact solver accepts, by k. Chosen so the pruned
# assignment enumeration stays in the ~1e8 range (seconds, not minutes).
EXACT_LIMITS = {2: 14, 3: 11}
EXACT_LIMIT_HIGH_K = 10


def exact_limit_for(k: int) -> int:
    if k <= 1:
        return 10**9  # closed form, no enumeration
    return EXACT_LIMITS.get(k, EXACT_LIMIT_HIGH_K)


@dataclass
class Clustering:
    """A concrete clustering: per-point cluster ids, centroid centers, cost."""

    assignment: list[int]
    centers: list[Point]
    cost: float

    def cluster_sizes(self) -> list[int]:
        sizes = [0] * len(self.centers)
        for cid in self.assignment:
            sizes[cid] += 1
        return sizes


def _clustering_from_assignment(
    points: Sequence[Point], assignment: Sequence[int]
) -> Clustering:
    """Score an assignment at per-cluster centroids (empty ids dropped)."""
    used = sorted(set(assignment))
    relabel = {old: new for new, old in enumerate(used)}
    labels = [relabel[a] for a in assignment]
    clusters: list[list[Point]] = [[] for _ in used]
    for p, cid in zip(points, labels):
        clusters[cid].append(p)
    centers = [centroid(c) for c in clusters]
    cost = sum(kmeans_cost(c, [ctr]) for c, ctr in zip(clusters, centers))
    return Clustering(assignment=labels, centers=centers, cost=cost)


def optimal_kmeans(points: Sequence[Point], k: int, exact_limit: int | None = None) -> Clustering:
    """Globally optimal k-means of a small instance by partition enumeration.

    Centers are unrestricted (cluster centroids). Ties break toward the
    lexicographically smallest canonical assignment vector. Raises when the
    instance exceeds the exact limit; use lloyd_kmeans there instead.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not points:
        raise ValueError("points must be nonempty")
    limit = exact_limit if exact_limit is not None else exact_limit_for(k)
    if len(points) > limit:
        raise ValueError(
            f"instance of size {len(points)} exceeds the exact limit {limit} "
            f"for k={k}; use lloyd_kmeans"
        )
    if k == 1:
        return _clustering_from_assignment(points, [0] * len(points))

    n = len(points)
    d = len(points[0])
    # Per-part running stats for O(d) incremental centroid costs:
    # cost(part) = sumsq - |sum|^2 / count.
    counts: list[int] = []
    sums: list[list[float]] = []
    sumsqs: list[float] = []
    assignment = [0] * n
    best_cost = math.inf
    best_assignment: list[int] | None = None

    def part_cost(pi: int) -> float:
        c = counts[pi]
        if c == 0:
            return 0.0
        return sumsqs[pi] - sum(v * v for v in sums[pi]) / c

    def recurse(i: int, total: float) -> None:
        nonlocal best_cost, best_assignment
        if total >= best_cost:
            return
        if i == n:
            best_cost = total
            best_assignment = assignment.copy()
            return
        p = points[i]
        psq = sum(v * v for v in p)
        n_parts = len(counts)
        for pi in range(min(n_parts + 1, k)):
            if pi == n_parts:
                counts.append(0)
                sums.append([0.0] * d)
                sumsqs.append(0.0)
            before = part_cost(pi)
            counts[pi] += 1
            for j in range(d):
                sums[pi][j] += p[j]
            sumsqs[pi] += psq
            assignment[i] = pi
            recurse(i + 1, total - before + part_cost(pi))
            counts[pi] -= 1
            for j in range(d):
                sums[pi][j] -= p[j]
            sumsqs[pi] -= psq
            if pi == n_parts:
                counts.pop()
                sums.pop()
                sumsqs.pop()

    recurse(0, 0.0)
    assert best_assignment is not None
    return _clustering_from_assignment(points, best_assignment)


def lloyd_kmeans(
    points: Sequence[Point], k: int, restarts: int = 20, seed: int = 0
) -> Clustering:
    """Best-of-restarts Lloyd iteration with distance-squared seeding.

    Deterministic given the seed; equidistant points go to the lower cluster
    id. A heuristic upper bound on the optimum, not an oracle.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(points) < k:
        raise ValueError(f"need at least k={k} points, got {len(points)}")
    X = np.asarray(points, dtype=np.float64)
    n = X.shape[0]

    best: tuple[float, np.ndarray] | None = None
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        centers = _seed_centers(X, k, rng)
        labels, _ = nearest_sq(X, centers)
        for _ in range(200):
            for j in range(k):
                members = X[labels == j]
                if len(members):
                    centers[j] = members.mean(axis=0)
            new_labels, _ = nearest_sq(X, centers)
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
        cost = float(((X - centers[labels]) ** 2).sum())
        if best is None or cost < best[0]:
            best = (cost, labels)

    assert best is not None
    return _clustering_from_assignment(points, [int(a) for a in best[1]])


def _seed_centers(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)  # all remaining mass at chosen locations
        centers[j] = X[idx]
        d2 = np.minimum(d2, ((X - centers[j]) ** 2).sum(axis=1))
    return centers
