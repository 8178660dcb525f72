"""Count-augmented online k-center sketch with a witness radius.

Keeps at most k pairwise-distinct centers, each carrying an estimate of how
many arrivals it absorbed, and a radius P. A point within 2P of its nearest
center is absorbed (count + 1); anything farther becomes a new center. When
that makes k+1 centers, P is raised to the minimum gap among them
(P <- max(P, gap)) and one fold pass at 2P brings the count back to at most
k. P stays undefined (0.0) until k+1 distinct points have arrived; until
then only exact duplicates are absorbed.

Lower bound, P^2/2 <= OPT of every prefix: the k+1 centers that last set P
are prefix points pairwise at least P apart, so two of them share a cluster
of any k-clustering, and those two alone cost at least P^2/2.

Coverage, every prefix point within 4P of a center: after a fold the kept
centers are pairwise more than 2P apart, and a new center is more than 2P
from every center, so the next witness gap exceeds 2P and P more than
doubles at every fold. Absorption is within 2P, and a fold hands a center's
points to a center at most 2P away, so a point is within
2P(1 + 1/2 + 1/4 + ...) < 4P of its center.

The sketch is deterministic: the same input prefix always yields the same
centers, counts, and radius. `_insert` returns the center that absorbed
the point, or None when it became a center, the only case in which the
centers, P and the center gap can change. `check()` tests these
invariants on a live sketch; `insert` never calls it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .geometry import Point, check_point, dist, require


@dataclass
class AugmentedCenter:
    center: Point
    count: int  # estimated population absorbed by this center
    birth: int  # arrival index, used for deterministic ordering


def _nearest(centers: Sequence[AugmentedCenter], x: Point) -> tuple[AugmentedCenter, float]:
    """Nearest of a nonempty center list to x, and its distance; the
    comparison is strict, so ties go to the earliest in the list."""
    it = iter(centers)
    best = next(it)
    best_d = math.dist(best.center, x)
    for c in it:
        d = math.dist(c.center, x)
        if d < best_d:
            best, best_d = c, d
    return best, best_d


class KCenterSketch:
    """Single-owner mutable sketch; one insert at a time."""

    def __init__(self, first_points: Sequence[Point], k: int):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if len(first_points) != k:
            raise ValueError(
                f"init needs exactly k={k} points, got {len(first_points)}"
            )
        check_point(first_points[0])
        self.k = k
        self.centers = [AugmentedCenter(center=first_points[0], count=1, birth=1)]
        self.radius = 0.0  # P
        self.t = 1
        for x in first_points[1:]:
            self.insert(x)

    def __len__(self) -> int:
        return len(self.centers)

    def nearest_center(self, x: Point) -> tuple[AugmentedCenter, float]:
        """Nearest center and its distance; ties go to the earliest birth."""
        self._check_dimension(x)
        return _nearest(self.centers, x)

    def _check_dimension(self, x: Point) -> None:
        if len(x) != len(self.centers[0].center):
            raise ValueError(f"dimension mismatch: {len(self.centers[0].center)} vs {len(x)}")

    def min_center_gap(self) -> float:
        """Minimum pairwise distance among centers; +inf with fewer than 2."""
        return min(
            (dist(a.center, b.center) for a, b in itertools.combinations(self.centers, 2)),
            default=math.inf,
        )

    def check(self, prefix: Sequence[Point] | None = None) -> None:
        """Raise AssertionError unless the sketch invariants hold.

        |Z| <= k; the counts sum to t; births strictly increase within
        1..t; the centers are pairwise more than 2P apart, which holds at
        every step, warm-up included. Given `prefix`, the t points inserted
        so far, also every one of them within 4P of a center, with no slack.
        """
        t = self.t
        require(len(self.centers) <= self.k, f"{len(self.centers)} centers, more than k = {self.k}")
        counts = sum(c.count for c in self.centers)
        require(counts == t, f"counts sum to {counts}, not t = {t}")
        births = [c.birth for c in self.centers]
        require(
            all(a < b for a, b in itertools.pairwise([0, *births, t + 1])),
            f"births {births} do not strictly increase within 1..{t}",
        )
        gap = self.min_center_gap()
        require(gap > 2.0 * self.radius, f"center gap {gap} is not above 2P = {2.0 * self.radius}")
        if prefix is not None:
            if len(prefix) != t:
                raise ValueError(f"prefix has {len(prefix)} points, not t = {t}")
            cover = max(self.nearest_center(p)[1] for p in prefix)
            require(
                cover <= 4.0 * self.radius,
                f"a prefix point is {cover} from the centers, beyond 4P = {4.0 * self.radius}",
            )

    def insert(self, x: Point) -> None:
        """Absorb x into its nearest center, or add it as a center and fold.

        Raises ValueError, leaving the sketch unchanged, when x has a
        non-finite coordinate, a Euclidean norm beyond COORD_LIMIT, or the
        wrong dimension.
        """
        check_point(x)
        self._check_dimension(x)
        self._insert(x)

    def _insert(self, x: Point) -> AugmentedCenter | None:
        """`insert` on a point already checked, as `check_point` checks it,
        and of the centers' dimension. Returns the center that absorbed x,
        or None when x became a center, with any fold done."""
        nearest, d = _nearest(self.centers, x)
        self.t += 1
        if d <= 2.0 * self.radius:
            nearest.count += 1
            return nearest
        self.centers.append(AugmentedCenter(center=x, count=1, birth=self.t))
        if len(self.centers) > self.k:
            self.radius = max(self.radius, self.min_center_gap())
            self._merge_pass()
        return None

    def _merge_pass(self) -> None:
        """One fold pass at 2P in insertion order.

        A center farther than 2P from every kept center is kept; otherwise
        its count joins the nearest kept center. Kept centers are pairwise
        more than 2P apart, and since P is at least the minimum center gap,
        the closest pair cannot both be kept: one pass leaves at most k.
        """
        kept: list[AugmentedCenter] = []
        threshold = 2.0 * self.radius
        for c in self.centers:
            if kept:
                target, d = _nearest(kept, c.center)
                if d <= threshold:
                    target.count += c.count
                    continue
            kept.append(c)
        self.centers = kept
