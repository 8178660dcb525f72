"""Spread-sequence machinery: certification, exact/greedy search, ordering.

A spread sequence (parameterized by alpha > 1 and k) is an ordering of
distinct points where each point's distance to all predecessors strictly
exceeds sqrt(i * alpha) times the (k-1)-fold diameter of the predecessors.
The length of the longest such sequence hiding inside a point set lower
bounds how many centers any alpha-approximate no-substitution selector must
take when the set is streamed worst-case-first. The searches return a
sequence as the tuple of its indices into the set.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .geometry import (
    COORD_LIMIT,
    Point,
    check_int,
    dist,
    distance_table,
    l_fold_diameter,
    min_over_splits,
    min_over_splits_at,
    subset_tables,
)

# Largest instance `lower_exact` searches. Each fold pass splits every
# subset of the instance, (3**n - 1) / 2 splits: 29,524 at 10 points, where
# an n = 10, k = 4 call, split table included, peaks under 512 kB of
# tracemalloc; each point more triples them.
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


def _prefix_threshold(
    prefix: Sequence[Point], position: int, alpha: float, k: int
) -> float:
    """sqrt(position * alpha) times the (k-1)-fold diameter of the prefix.

    Prefixes of fewer than k points have zero (k-1)-fold diameter, so the
    threshold degenerates to requiring a distinct point. Beyond the exact
    partition limit the diameter is a greedy upper bound, except for a
    prefix of exactly k points, whose closest pair is exact; the bound
    makes certification conservative (it can reject, never wrongly accept).
    At k = 1 it is inf: no point passes after the first. Every caller
    passes a nonempty prefix.
    """
    if k < 2:
        return math.inf
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


def lower_exact(points: Sequence[Point], alpha: float, k: int) -> tuple[int, ...]:
    """Longest spread sequence, exactly, by dynamic programming over subsets.

    A subset is reachable when some ordering of it certifies; it extends by
    any outside point that passes the condition against the whole subset at
    the next position. Exponential in |points|, hence EXACT_SEARCH_LIMIT.

    The search runs on tables over all 2**n subsets (`subset_tables`), built
    once per call from one table of pairwise distances with the bits of
    `dist`: every point's distance to each subset's nearest member, each
    subset's closest pair and diameter, and its l-fold diameters for
    l = 2 .. k - 2 (`min_over_splits` with np.maximum). The (k-1)-fold
    diameter that a threshold needs is read per layer at the layer's
    subsets only: 0 below k points, the closest pair at k, and beyond the
    least over each subset's splits (`min_over_splits_at`), so k = 3 folds
    no full table. Each value is a minimum or maximum of table entries, so
    a threshold has the bits of the one `is_alpha_k_sequence` computes,
    exact on subsets of up to EXACT_PARTITION_LIMIT >= EXACT_SEARCH_LIMIT
    points. A layer of reachable subsets of one size grows by one compare
    of their nearest-member rows against their thresholds, and a
    scatter-min over the 2**n masks keeps each grown subset's first
    candidate. Subsets grow in mask order and the first to reach a subset
    keeps it, so the answer is deterministic (small masks and small
    indices first): the order that first reached the last layer's first
    subset.
    """
    _validate_alpha_k(alpha, k)
    n = len(points)
    if n > EXACT_SEARCH_LIMIT:
        raise ValueError(
            f"instance of size {n} exceeds the exact search limit "
            f"{EXACT_SEARCH_LIMIT}; use lower_greedy"
        )
    if n == 0:
        return ()
    if k < 2:
        # Past the first point the threshold is infinite, so the greedy
        # search returns (0,) too; it checks the dimensions with no table.
        return lower_greedy(points, alpha, k)
    table = distance_table(points)

    # nearest[mask, j]: the distance from point j to mask's nearest member
    # closest[mask]: the distance between its closest pair of members
    nearest, closest = subset_tables(table, np.minimum, math.inf)
    diam = subset_tables(table, np.maximum, 0.0)[1]  # diam[mask]: its diameter
    # The l-fold diameters of every subset, from l = 1 to k - 2, which only
    # the layers of more than k points read.
    fold = diam
    for _ in range(k - 3 if k < n else 0):
        fold = min_over_splits(diam, fold, np.maximum)

    # One layer per size: its masks in increasing order, and for each the
    # position of its first parent in the layer before and the point added.
    masks = np.left_shift(1, np.arange(n))
    grown_layers = []
    first = 0  # position of the layer's first-reached subset
    for size in range(1, n + 1):
        # The layer's (k-1)-fold diameters: 0 up to k - 1 points, the
        # closest pair's distance at k (`l_fold_diameter`'s closed form),
        # and beyond read from its subsets' splits alone.
        if size < k:
            thresholds = np.zeros(len(masks))
        elif size == k:
            thresholds = closest[masks]
        elif k == 2:
            thresholds = diam[masks]
        else:
            thresholds = min_over_splits_at(masks, diam, fold, np.maximum)
        thresholds *= math.sqrt((size + 1) * alpha)
        # Members are at distance 0 from the subset, and no threshold is
        # negative, so only outside points pass.
        parents, added = np.nonzero(nearest[masks] > thresholds[:, None])
        if not len(parents):
            break
        # Each grown subset keeps its first candidate, in the order of
        # (parent, added), by a scatter-min of candidate numbers.
        grown = masks[parents] | 1 << added
        reached = np.full(1 << n, len(grown))
        np.minimum.at(reached, grown, np.arange(len(grown)))
        masks = np.flatnonzero(reached < len(grown))
        reached = reached[masks]
        grown_layers.append((parents[reached], added[reached]))
        first = int(reached.argmin())

    order = []
    for parents, added in reversed(grown_layers):
        order.append(int(added[first]))
        first = int(parents[first])
    order.append(first)  # the first layer holds point i at position i
    return tuple(reversed(order))


def lower_greedy(points: Sequence[Point], alpha: float, k: int) -> tuple[int, ...]:
    """Certified lower estimate by farthest-first extension.

    At each step, among the points passing the condition against the current
    prefix, take the one farthest from it (ties to the smallest index).
    """
    _validate_alpha_k(alpha, k)
    n = len(points)
    if n == 0:
        return ()

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
    return tuple(order)


def lower_estimate(
    points: Sequence[Point], alpha: float, k: int
) -> tuple[tuple[int, ...], bool]:
    """Longest-known spread sequence, and whether it is exactly the longest.

    A set already in certified order is its own longest sequence, as none
    is longer than the set. Otherwise the exact search runs up to
    EXACT_SEARCH_LIMIT points, the greedy estimate beyond. The exact length
    depends only on the point set; the greedy one can change with the
    order of `points`.
    """
    identity = tuple(range(len(points)))
    if is_alpha_k_sequence(points, identity, alpha, k):
        return identity, True
    if len(points) <= EXACT_SEARCH_LIMIT:
        return lower_exact(points, alpha, k), True
    return lower_greedy(points, alpha, k), False


def adversarial_order(points: Sequence[Point], sequence: Sequence[int]) -> list[int]:
    """Permutation streaming `sequence`, indices into `points`, first;
    remaining points follow in their original order."""
    chosen = set(sequence)
    return list(sequence) + [i for i in range(len(points)) if i not in chosen]


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
    check_int("k", k, 1)
