"""Count-augmented online k-center sketch with radius doubling.

Keeps at most k centers, each carrying an estimate of how many arrivals it
absorbed. A point within twice the current radius of its nearest center is
absorbed (count + 1); anything farther becomes a new center, after which
centers within twice the radius of each other are folded together and the
radius doubles until at most k centers remain.

The sketch is deterministic: the same input prefix always yields the same
centers, counts, and radius. The minimum center gap is cached and only
recomputed after the center set changes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .geometry import Point, check_point, dist


@dataclass
class AugmentedCenter:
    center: Point
    count: int  # estimated population absorbed by this center
    birth: int  # arrival index, used for deterministic ordering


class KCenterSketch:
    """Single-owner mutable sketch; one insert at a time."""

    def __init__(self, first_points: Sequence[Point], k: int):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if len(first_points) != k:
            raise ValueError(
                f"init needs exactly k={k} points, got {len(first_points)}"
            )
        self.k = k
        self.centers = [
            AugmentedCenter(center=p, count=1, birth=i + 1)
            for i, p in enumerate(first_points)
        ]
        gaps = [
            dist(a.center, b.center)
            for a, b in itertools.combinations(self.centers, 2)
            if a.center != b.center
        ]
        # All-coincident init leaves the radius estimate at 0; the doubling
        # loop cannot make progress from 0, so the first distinct arrival
        # sets it instead (see insert).
        self.radius = min(gaps) if gaps else 0.0
        self.degenerate = not gaps
        self.t = k
        self._gap: float | None = None  # min_center_gap() cache, None when stale

    def __len__(self) -> int:
        return len(self.centers)

    def nearest_center(self, x: Point) -> tuple[AugmentedCenter, float]:
        """Nearest center and its distance; ties go to the earliest birth."""
        if not self.centers:
            raise ValueError("sketch has no centers")
        centers = iter(self.centers)
        best = next(centers)
        if len(x) != len(best.center):
            raise ValueError(f"dimension mismatch: {len(best.center)} vs {len(x)}")
        best_d = math.dist(best.center, x)
        for c in centers:
            d = math.dist(c.center, x)
            if d < best_d:
                best, best_d = c, d
        return best, best_d

    def min_center_gap(self) -> float:
        """Minimum pairwise distance among centers; +inf with fewer than 2."""
        if self._gap is None:
            self._gap = min(
                (dist(a.center, b.center) for a, b in itertools.combinations(self.centers, 2)),
                default=math.inf,
            )
        return self._gap

    def insert(self, x: Point) -> None:
        """Absorb x into its nearest center, or add it as a center and fold.

        Raises ValueError, leaving the sketch unchanged, when x has a
        non-finite coordinate or the wrong dimension.
        """
        check_point(x)
        nearest, d = self.nearest_center(x)
        self.t += 1
        if self.degenerate and d > 0.0:
            self.radius = d
            self.degenerate = False
        if d <= 2.0 * self.radius:
            nearest.count += 1
            return
        self._gap = None
        self.centers.append(AugmentedCenter(center=x, count=1, birth=self.t))
        while len(self.centers) > self.k:
            self._merge_pass()

    def _merge_pass(self) -> None:
        """One fold pass in insertion order; doubles the radius at the end."""
        kept: list[AugmentedCenter] = []
        threshold = 2.0 * self.radius
        for c in self.centers:
            if not kept:
                kept.append(c)
                continue
            target = kept[0]
            target_d = dist(target.center, c.center)
            for other in kept[1:]:
                d = dist(other.center, c.center)
                if d < target_d:
                    target, target_d = other, d
            if target_d > threshold:
                kept.append(c)
            else:
                target.count += c.count
        self.centers = kept
        self.radius *= 2.0
