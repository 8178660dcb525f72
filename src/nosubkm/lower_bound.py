"""Spread-sequence machinery: certification, exact/greedy search, ordering.

A spread sequence (parameterized by alpha > 1 and k) is an ordering of
distinct points where each point's distance to all predecessors strictly
exceeds sqrt(i * alpha) times the (k-1)-fold diameter of the predecessors.
The length of the longest such sequence hiding inside a point set lower
bounds how many centers any alpha-approximate no-substitution selector must
take when the set is streamed worst-case-first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import (
    COORD_LIMIT,
    Point,
    dist,
    distance_table,
    l_fold_diameter,
    partition_diameter,
)

EXACT_SEARCH_LIMIT = 10


class SequenceOverflowError(OverflowError):
    """Raised when 1-D construction passes COORD_LIMIT before `length`."""

    def __init__(self, achievable: int, requested: int):
        self.achievable = achievable
        self.requested = requested
        super().__init__(
            f"coordinates pass {COORD_LIMIT:g} before reaching length {requested}; "
            f"achievable length is {achievable}"
        )


@dataclass(frozen=True)
class AlphaKSequence:
    indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.indices)


def _prefix_threshold(
    prefix: Sequence[Point], position: int, alpha: float, k: int
) -> float:
    """sqrt(position * alpha) times the (k-1)-fold diameter of the prefix.

    Prefixes of fewer than k points have zero (k-1)-fold diameter, so the
    threshold degenerates to requiring a distinct point. Beyond the exact
    partition limit the diameter is a greedy upper bound, which makes
    certification conservative (it can reject, never wrongly accept).
    """
    if k < 2:
        return math.inf if prefix else 0.0
    return math.sqrt(position * alpha) * l_fold_diameter(prefix, k - 1)


def is_alpha_k_sequence(
    points: Sequence[Point], order: Sequence[int], alpha: float, k: int
) -> bool:
    """Check the spread condition for every position of `order` (strictly)."""
    _validate_alpha_k(alpha, k)
    if len(set(order)) != len(order):
        raise ValueError("order contains a repeated index")
    for idx in order:
        if not 0 <= idx < len(points):
            raise ValueError(f"index {idx} out of range")
    for i in range(2, len(order) + 1):
        prefix = [points[j] for j in order[: i - 1]]
        candidate = points[order[i - 1]]
        threshold = _prefix_threshold(prefix, i, alpha, k)
        if min(dist(candidate, p) for p in prefix) <= threshold:
            return False
    return True


def lower_exact(points: Sequence[Point], alpha: float, k: int) -> AlphaKSequence:
    """Longest spread sequence, exactly, by dynamic programming over subsets.

    A subset is reachable when some ordering of it certifies; it extends by
    any outside point that passes the condition against the whole subset at
    the next position. Exponential in |points|, hence EXACT_SEARCH_LIMIT.

    The search runs on indices into one table of pairwise distances, whose
    entries have the bits of `dist`. A reachable subset keeps only every
    point's distance to its nearest member, a floor on its (k-1)-fold
    diameter and the order that first reached it, all taken from the subset
    it grew from and the new point. No subset passes EXACT_SEARCH_LIMIT <=
    EXACT_PARTITION_LIMIT points, so thresholds use the exact fold
    diameters `is_alpha_k_sequence` uses.
    """
    _validate_alpha_k(alpha, k)
    n = len(points)
    if n > EXACT_SEARCH_LIMIT:
        raise ValueError(
            f"instance of size {n} exceeds the exact search limit "
            f"{EXACT_SEARCH_LIMIT}; use lower_greedy"
        )
    if n == 0:
        return AlphaKSequence(())
    table = distance_table(points)
    if k < 2:
        # Past the first point the threshold is infinite.
        return AlphaKSequence((0,))

    # layer[mask] = (distance from every point to its nearest member, a lower
    # bound on its (k-1)-fold diameter, the order that first reached it) for
    # the reachable subsets of one size. Subsets grow in mask order and the
    # first to reach a subset keeps it, so the answer is deterministic (small
    # masks and small indices first). At k = 2 the bound is the subset's
    # diameter, grown by the new point's row. Beyond, it is the fold diameter
    # of a subset: it lets a subset whose candidates cannot pass skip the
    # partition search, and stops the search once a partition reaches it.
    layer = {1 << i: (table[i], 0.0, (i,)) for i in range(n)}
    while True:
        grown_layer: dict[int, tuple[list[float], float, tuple[int, ...]]] = {}
        for mask in sorted(layer):
            nearest, floor, order = layer[mask]
            size = len(order)
            if size < k:
                threshold = 0.0
            elif k == 2:
                threshold = math.sqrt((size + 1) * alpha) * floor
            else:
                scale = math.sqrt((size + 1) * alpha)
                bar = scale * floor
                if all(d <= bar or mask | 1 << j in grown_layer for j, d in enumerate(nearest)):
                    continue
                floor = partition_diameter(table, sorted(order), k - 1, floor)
                threshold = scale * floor
            # Members are at distance 0 from the subset, and no threshold is
            # negative, so only outside points pass.
            for j, d in enumerate(nearest):
                if d > threshold:
                    grown = mask | 1 << j
                    if grown not in grown_layer:
                        row = table[j]
                        grown_layer[grown] = (
                            list(map(min, nearest, row)),
                            max(floor, max(row[m] for m in order)) if k == 2 else floor,
                            order + (j,),
                        )
        if not grown_layer:
            return AlphaKSequence(next(iter(layer.values()))[2])
        layer = grown_layer


def lower_greedy(points: Sequence[Point], alpha: float, k: int) -> AlphaKSequence:
    """Certified lower estimate by farthest-first extension.

    At each step, among the points passing the condition against the current
    prefix, take the one farthest from it (ties to the smallest index).
    """
    _validate_alpha_k(alpha, k)
    n = len(points)
    if n == 0:
        return AlphaKSequence(())

    order = [0]
    min_dist = [dist(p, points[0]) for p in points]
    while True:
        prefix = [points[j] for j in order]
        threshold = _prefix_threshold(prefix, len(order) + 1, alpha, k)
        best_j = -1
        best_d = -math.inf
        # A prefix point has min_dist 0, above no threshold: it never passes.
        for j in range(n):
            if min_dist[j] > threshold and min_dist[j] > best_d:
                best_j, best_d = j, min_dist[j]
        if best_j < 0:
            break
        order.append(best_j)
        for j in range(n):
            d = dist(points[j], points[best_j])
            if d < min_dist[j]:
                min_dist[j] = d
    return AlphaKSequence(tuple(order))


def lower_estimate(
    points: Sequence[Point], alpha: float, k: int
) -> tuple[AlphaKSequence, bool]:
    """Longest-known spread sequence, and whether it is exactly the longest.

    A set already in certified order is its own longest sequence, as none
    is longer than the set. Otherwise the exact search runs up to
    EXACT_SEARCH_LIMIT points, the greedy estimate beyond. The exact length
    depends only on the point set; the greedy one can change with the
    order of `points`.
    """
    identity = tuple(range(len(points)))
    if is_alpha_k_sequence(points, identity, alpha, k):
        return AlphaKSequence(identity), True
    if len(points) <= EXACT_SEARCH_LIMIT:
        return lower_exact(points, alpha, k), True
    return lower_greedy(points, alpha, k), False


def adversarial_order(
    points: Sequence[Point],
    alpha: float,
    k: int,
    sequence: AlphaKSequence | None = None,
) -> list[int]:
    """Permutation streaming a longest-known spread sequence first.

    The sequence is `sequence` when given, else `lower_estimate(points)`;
    remaining points follow in their original order. `lower_estimate`
    returns a set already in certified order as its own sequence, so such
    a set comes back unchanged.
    """
    if sequence is None:
        sequence, _ = lower_estimate(points, alpha, k)
    chosen = set(sequence.indices)
    return list(sequence.indices) + [i for i in range(len(points)) if i not in chosen]


def gen_alpha_k_sequence(
    k: int,
    alpha: float,
    length: int,
    margin: float = 1.05,
    seed: int = 0,
) -> list[Point]:
    """Build a 1-D point list whose given order certifies as a spread sequence.

    The first k points sit at unit spacing; each later point lands beyond the
    current maximum by the condition threshold times a factor drawn from
    [margin, 1.5 * margin], so certification survives floating rounding while
    the seed varies the exact spacing. Coordinates grow super-exponentially;
    one beyond COORD_LIMIT, the largest a point may have, raises
    SequenceOverflowError carrying the achievable length.
    """
    _validate_alpha_k(alpha, k)
    if k < 2:
        raise ValueError("sequence generation needs k >= 2")
    if length < k:
        raise ValueError(f"length ({length}) must be >= k ({k})")
    if not 1 < margin < math.inf:
        raise ValueError(f"margin must be > 1 and finite, got {margin}")

    rng = np.random.default_rng(seed)
    # Each point lands beyond the last, so the last has the largest coordinate.
    points = [(float(i),) for i in range(k)]
    for i in range(k + 1, length + 1):
        gap = _prefix_threshold(points, i, alpha, k)
        factor = margin * (1.0 + 0.5 * float(rng.random()))
        nxt = points[-1][0] + factor * gap
        if not nxt <= COORD_LIMIT or nxt <= points[-1][0]:
            raise SequenceOverflowError(achievable=len(points), requested=length)
        points.append((nxt,))
    return points


def _validate_alpha_k(alpha: float, k: int) -> None:
    # NaN fails too; inf would give short prefixes a threshold inf * 0 = NaN
    if not 1 < alpha < math.inf:
        raise ValueError(f"alpha must be > 1 and finite, got {alpha}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
