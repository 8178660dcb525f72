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

One dimension. One-dimensional centers are also kept in an index: their
coordinates in increasing order, and the centers in that order. A center
never moves, so a point that becomes a center is inserted at its bisection
position, and a fold rebuilds the index. `_insert` and `nearest_center`
then bisect x among the coordinates and measure outwards from x's two
neighbours with abs(a - b), which is what `_nearest` computes: for one
coordinate `math.dist` returns fabs(a - b) exactly. Rounding is monotone,
so no center farther along a side is nearer than x's neighbour on that
side (the one-dimensional argument of `geometry`'s module docstring), but
rounding can make it as near: from x = 2**54, centers 0.25 and 0.5 both
read 2**54. Each side is therefore walked on past the neighbour while the
distance stays the same, and the earliest birth among the centers at the
least distance wins, the center `_nearest`'s scan in birth order returns.
The search gives `_nearest(centers, x)`'s center and distance for every x.
The fold pass, which searches the kept centers only, `min_center_gap` and
every sketch of higher dimension scan.

The sketch is deterministic: the same input prefix always yields the same
centers, counts, and radius. `_insert` returns the center that absorbed
the point, or None when it became a center, the only case in which the
centers, P and the center gap can change. `check()` tests these
invariants on a live sketch; `insert` never calls it.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from .geometry import Point, check_int, check_point, dist, require


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
        k = check_int("k", k, 1)
        if len(first_points) != k:
            raise ValueError(
                f"init needs exactly k={k} points, got {len(first_points)}"
            )
        check_point(first_points[0])
        self.k = k
        self.centers = [AugmentedCenter(center=first_points[0], count=1, birth=1)]
        self.radius = 0.0  # P
        self.t = 1
        # one-dimensional centers' coordinates in increasing order, and the
        # centers in that order; None in higher dimensions
        self._line: list[float] | None = None
        self._on_line: list[AugmentedCenter] | None = None
        if len(first_points[0]) == 1:
            self._index()
        for x in first_points[1:]:
            self.insert(x)

    def __len__(self) -> int:
        return len(self.centers)

    def nearest_center(self, x: Point) -> tuple[AugmentedCenter, float]:
        """Nearest center and its distance; ties go to the earliest birth."""
        self._check_dimension(x)
        return self._search(x)

    def _search(self, x: Point) -> tuple[AugmentedCenter, float]:
        """`_nearest(self.centers, x)`, found by bisection when the centers
        are one-dimensional (module docstring)."""
        line = self._line
        if line is None:
            return _nearest(self.centers, x)
        on_line = self._on_line
        a = x[0]
        n = len(line)
        i = bisect_left(line, a)
        # x's successor, then the centers after it at the same distance
        if i < n:
            best, best_d = on_line[i], abs(a - line[i])
            j = i + 1
            while j < n and abs(a - line[j]) == best_d:
                if on_line[j].birth < best.birth:
                    best = on_line[j]
                j += 1
        else:
            best, best_d = None, math.inf
        # x's predecessor, then the centers before it at the same distance
        if i:
            j = i - 1
            d = abs(a - line[j])
            if d <= best_d:
                if d < best_d or on_line[j].birth < best.birth:
                    best, best_d = on_line[j], d
                while j and abs(a - line[j - 1]) == d:
                    j -= 1
                    if on_line[j].birth < best.birth:
                        best = on_line[j]
        return best, best_d

    def _index(self) -> None:
        """Sort the one-dimensional centers into the index."""
        self._on_line = sorted(self.centers, key=lambda c: c.center[0])
        self._line = [c.center[0] for c in self._on_line]

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
        every step, warm-up included. A one-dimensional sketch's index
        holds its centers, their coordinates strictly increasing; a sketch
        of higher dimension has none. Given `prefix`, the t points inserted
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
        line, on_line = self._line, self._on_line
        if len(self.centers[0].center) == 1:
            require(line is not None and on_line is not None, "a one-dimensional sketch has no index")
            require(
                all(a < b for a, b in itertools.pairwise(line)),
                f"the index coordinates {line} do not strictly increase",
            )
            require(
                line == [c.center[0] for c in on_line],
                "the index coordinates are not those of its centers",
            )
            require(
                len(on_line) == len(self.centers)
                and {id(c) for c in on_line} == {id(c) for c in self.centers},
                "the index does not hold the sketch's centers",
            )
        else:
            require(line is None and on_line is None, "a sketch of dimension above 1 has an index")
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
        nearest, d = self._search(x)
        self.t += 1
        if d <= 2.0 * self.radius:
            nearest.count += 1
            return nearest
        center = AugmentedCenter(center=x, count=1, birth=self.t)
        self.centers.append(center)
        line = self._line
        if len(self.centers) > self.k:
            self.radius = max(self.radius, self.min_center_gap())
            self._merge_pass()
            if line is not None:
                self._index()
        elif line is not None:
            i = bisect_left(line, x[0])
            line.insert(i, x[0])
            self._on_line.insert(i, center)
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
