"""Streaming no-substitution center selection.

Each arrival is irrevocably accepted as a center or rejected. The first
`bootstrap` arrivals are always taken. After that, a deterministic k-center
sketch of the stream decides between two randomized selection rules:

* distance processing ("type1"): take the point with probability
  d(x, S)^2 / R, where R is a threshold raised from the sketch radius and
  doubled whenever too many recent selections accumulate;
* population processing ("type2"), used when the sketch centers are spread
  far apart relative to the radius: take the point with probability
  inversely proportional to the estimated population of its nearest sketch
  cluster.

Selection randomness is counter-based: the draw at arrival t depends only
on (seed, t), so runs are reproducible and the branch taken at each step is
a deterministic function of the input prefix alone.

The distance rule needs d(x, S)^2 exactly only when it is below R, since
the probability is 1 otherwise. The selected set therefore lives on a
`geometry.CellGrid` of cell side just above sqrt(R), which answers that
query from the cells next to x, with the bits of a full `nearest_sq` scan
below R. The grid is rebuilt whenever R is raised or doubled; while R is
0 (warm-up) the query scans every selected point.

`OnlineClusterer.check()` tests the selector's invariants on a live
object, and those of its grid and sketch; `process` never calls it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .geometry import CellGrid, Point, check_point, require
from .kcenter import KCenterSketch

_U64 = (1 << 64) - 1
# Philox4x64 round multipliers and key increments (Salmon et al., SC 2011).
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B


def step_uniform(seed: int, t: int) -> float:
    """The uniform [0,1) draw for arrival t under this seed.

    Philox4x64-10 evaluated directly on counter (1, 0, 0, 0) with key
    (seed mod 2^64, t); the first output word, shifted right by 11, times
    2^-53. This is the double numpy's
    `Generator(Philox(key=(seed & (2**64 - 1)) | t << 64)).random()` returns.
    """
    k0, k1 = seed & _U64, t
    c0, c1, c2, c3 = 1, 0, 0, 0
    for _ in range(10):
        p0 = _PHILOX_M0 * c0
        p1 = _PHILOX_M1 * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _U64, (p0 >> 64) ^ c3 ^ k1, p0 & _U64
        k0 = (k0 + _PHILOX_W0) & _U64
        k1 = (k1 + _PHILOX_W1) & _U64
    return (c0 >> 11) * 2.0**-53


# "type1_only" never runs the population rule.
MODES = ("full", "type1_only")


@dataclass(frozen=True)
class ClusterConfig:
    k: int
    bootstrap: int | None = None  # defaults to k; raise to >= 36 for small-t safety
    c_raise: float = 24.0  # divisor coefficient when raising R from the radius
    c_double: float = 289.0  # selection-count factor before R doubles
    c_type2: float = 12.0  # numerator coefficient of the population rule
    mode: str = "full"  # one of MODES
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.bootstrap is not None and self.bootstrap < self.k:
            raise ValueError(
                f"bootstrap ({self.bootstrap}) must be >= k ({self.k})"
            )
        for name in ("c_raise", "c_double", "c_type2"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode: {self.mode!r}")

    @property
    def bootstrap_size(self) -> int:
        return self.bootstrap if self.bootstrap is not None else self.k


@dataclass(frozen=True, slots=True)
class Decision:
    """Record of one arrival: which rule ran, with what probability.

    Slotted, because a run keeps one per arrival.
    """

    index: int  # arrival index t, 1-based
    processing: str  # "bootstrap" | "type1" | "type2"
    selected: bool
    probability: float
    threshold_after: float
    aux_points: int


@dataclass
class _RunCounters:
    raises: int = 0
    doublings: int = 0


class OnlineClusterer:
    """Single-owner state machine; feed arrivals one at a time."""

    def __init__(self, config: ClusterConfig):
        self.config = config
        # the selected points, bucketed on the grid of the current R
        self._selected = CellGrid()
        self.selected_indices: list[int] = []
        self.selections_since_reset = 0  # F
        self.sketch: KCenterSketch | None = None
        self.t = 0
        self.counters = _RunCounters()
        self._ln_k10 = math.log(config.k + 10)

    @property
    def selected_points(self) -> list[Point]:
        """The selected points in arrival order (the grid's own list)."""
        return self._selected.points

    @property
    def threshold(self) -> float:
        """R, the distance rule's threshold (the grid's own)."""
        return self._selected.threshold

    def aux_memory(self) -> int:
        """Points retained outside the selected set (the sketch centers)."""
        return len(self.sketch) if self.sketch is not None else 0

    def finalize(self) -> list[Point]:
        """Selected centers in arrival order. Idempotent."""
        return list(self.selected_points)

    def check(self) -> None:
        """Raise AssertionError unless the selector invariants hold, then
        check the grid of selected points and the sketch.

        The selected indices strictly increase within 1..t, one per
        selected point; F is at most the doubling limit at t; the sketch
        exists from t = k on and has seen every arrival.
        """
        t = self.t
        indices = self.selected_indices
        require(
            all(a < b for a, b in itertools.pairwise([0, *indices, t + 1])),
            f"selected indices do not strictly increase within 1..{t}",
        )
        require(
            len(indices) == len(self.selected_points),
            f"{len(indices)} selected indices for {len(self.selected_points)} selected points",
        )
        limit = self._doubling_limit(t) if t else 0.0
        require(
            self.selections_since_reset <= limit,
            f"F = {self.selections_since_reset} is past the doubling limit {limit}",
        )
        seen = 0 if self.sketch is None else self.sketch.t
        require(
            seen == (t if t >= self.config.k else 0),
            f"the sketch has seen {seen} arrivals at t = {t}",
        )
        self._selected.check()
        if self.sketch is not None:
            self.sketch.check()

    def process(self, x: Point) -> Decision:
        """Decide on arrival x.

        Raises ValueError, leaving every field unchanged, when x has a
        non-finite coordinate, a Euclidean norm beyond COORD_LIMIT, or a
        dimension unlike the earlier arrivals.
        """
        check_point(x)
        # The first arrival is always taken, so it holds the dimension.
        if self.t and len(x) != len(self.selected_points[0]):
            raise ValueError(
                f"dimension mismatch: expected {len(self.selected_points[0])}, got {len(x)}"
            )
        self.t += 1
        t = self.t
        cfg = self.config
        if t > cfg.k:
            self.sketch.insert(x)

        if t <= cfg.bootstrap_size:
            self._take(x)
            if t == cfg.k:
                self.sketch = KCenterSketch(self.selected_points[: cfg.k], cfg.k)
            return self._decision(t, "bootstrap", True, 1.0)

        if self._population_rule_applies(t):
            processing = "type2"
            nearest, _ = self.sketch.nearest_center(x)
            prob = min(1.0, cfg.c_type2 * self._ln_k10 / nearest.count)
        else:
            processing = "type1"
            raise_to = self.sketch.radius**2 / (cfg.c_raise * cfg.k * self._ln_k10)
            if raise_to > self.threshold:
                self._set_threshold(raise_to)
                self.counters.raises += 1
            # Exact below R; at or above R only its size matters, since
            # prob = min(1, d2 / R) is then 1.0.
            d2 = self._selected.min_sq_dist(x)
            threshold = self.threshold
            if threshold > 0.0:
                prob = min(1.0, d2 / threshold)
            else:
                # R can only still be 0 while the sketch radius is 0, i.e.
                # there were fewer than k+1 distinct arrivals; taking any
                # novel point is the only cost-safe action.
                prob = 1.0 if d2 > 0.0 else 0.0

        selected = step_uniform(cfg.seed, t) < prob
        if selected:
            self._take(x)
        if processing == "type1":
            self.selections_since_reset += selected
            if self.selections_since_reset > self._doubling_limit(t):
                self._set_threshold(2.0 * self.threshold)
                self.counters.doublings += 1
        return self._decision(t, processing, selected, prob)

    def _population_rule_applies(self, t: int) -> bool:
        # The population rule needs a full complement of k centers and a
        # defined radius; with fewer centers the pairwise gap is vacuous
        # (+inf), and with P = 0 any gap exceeds 4(t+2)P, so either would
        # trigger it spuriously.
        if self.config.mode != "full":
            return False
        sketch = self.sketch
        if len(sketch) != self.config.k or sketch.radius == 0.0:
            return False
        return sketch.min_center_gap() > 4.0 * (t + 2) * sketch.radius

    def _doubling_limit(self, t: int) -> float:
        """The count F of type-1 selections may reach at arrival t >= 1
        before R doubles."""
        cfg = self.config
        return cfg.c_double * cfg.k * self._ln_k10 * math.log(t, 2.0)

    def _set_threshold(self, threshold: float) -> None:
        self.selections_since_reset = 0
        self._selected.set_threshold(threshold)

    def _take(self, x: Point) -> None:
        self._selected.add(x)
        self.selected_indices.append(self.t)

    def _decision(
        self, t: int, processing: str, selected: bool, prob: float
    ) -> Decision:
        return Decision(
            index=t,
            processing=processing,
            selected=selected,
            probability=prob,
            threshold_after=self.threshold,
            aux_points=self.aux_memory(),
        )
