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
a deterministic function of the input prefix alone. Both entry points read
their draws from one buffer of consecutive arrivals' draws. An arrival
outside it refills it with one `uniform_draws` call, which evaluates Philox
on a numpy array of counters and falls back to scalar draws below
_BLOCK_MIN_DRAWS, where the block's fixed cost does not pay. `process`
refills at the m-th arrival after the bootstrap with min(m, _WINDOW)
draws, so a run computes at most about twice the draws it reads, and one
of fewer than _BLOCK_MIN_DRAWS arrivals after the bootstrap never computes
a block. `_run`, which knows its length, refills with every draw its
stream has left. The buffer holds at most _WINDOW draws for `process`.

A faster `process` raises the peak RSS of a caller that records every
call's latency, since a run of fixed length then makes more calls and
keeps more records. On the benchmark's `sparse_stream` (d = 1), answering
the nearest query by bisection (`CellGrid`) made a call take 0.67x and
0.68x the time and the run peak 13% higher (medians of 10 alternating
pairs at seeds 1 and 2, 2-CPU Xeon, Python 3.11, numpy 2.4).

Two entry points, one code per event. `process` decides one arrival with
the transition `_step`; so does `_run` through the bootstrap, while R is
0, and on a stream with fewer than _WINDOW_MIN_ARRIVALS arrivals left.
The rest of a `_run` stream is decided a window of _WINDOW arrivals at a
time (`_decide_window`): against the state at the window's start, then
corrected event by event. Each event (a take, a sketch insert with any
new center and fold, a raise of R, a doubling, the population rule's
probability) has one method, which both paths call, and every decision bit
is `_step`'s:

* distances: one batch (`geometry.grid_below_sq`) gives every arrival's
  d(x, S)^2 at the window's start, exact below R. A take can only lower
  a later arrival's distance, and a grid self-join of the window
  (`geometry.near_pairs`) lists, for each arrival, the later ones it is
  nearer to than both R and their distance to S, so a take lowers only
  those. Any change of R prepares the rest of the window again.
* the rules: the gap and P change only at sketch events, so the
  population rule's test is one comparison per arrival; a raise is tested
  at the first type-1 step after an event, and F against the doubling
  limit at each type-1 take, as in `_step`.

The distance rule needs d(x, S)^2 exactly only when it is below R, since
the probability is 1 otherwise. The selected set therefore lives on a
`geometry.CellGrid` of cell side just above sqrt(R), which answers `_step`'s
query from the cells next to x, with the bits of a full `nearest_sq` scan
below R. Its cells are filled again by the first query after R is raised
or doubled, so the window path, which never queries them, never fills
them; while R is 0 (warm-up) the query scans every selected point. A
one-dimensional set has no cells: the grid keeps it sorted and answers
by bisection, exactly at every R, warm-up included.

`OnlineClusterer.check()` tests the selector's invariants on a live
object, and those of its grid and sketch; `process` never calls it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import (
    NEAREST_SQ_BUDGET,
    CellGrid,
    Point,
    check_point,
    grid_below_sq,
    near_pairs,
    require,
)
from .kcenter import KCenterSketch, _nearest

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


# Fewest draws worth a numpy block. The block costs a fixed ~0.45 ms (ten
# rounds of about thirty uint64 array operations) plus ~0.2 us a draw; a
# scalar `step_uniform` costs ~8 us. Measured on a 2-CPU Xeon (Python 3.11,
# numpy 2.4): 48 scalar draws took 0.39 ms and 64 took 0.52, against
# 0.45 ms for a block of either size.
_BLOCK_MIN_DRAWS = 64

# Arrivals per window of `_run`, and the fewest arrivals left after
# warm-up for which `_run` opens windows at all. A window pays a fixed
# cost (the grid batch and the self-join) and saves most of a `_step` per
# arrival. Measured on a 2-CPU Xeon (Python 3.11, numpy 2.4): on the eight
# seed-1 `lloyd_trial` streams, windows of 256, 512, 2,048 and 4,096
# arrivals took 1.23x, 1.06x, 1.02x and 1.24x the time of 1,024; on
# shuffled k = 3 and 5, d = 2 mixtures, windows took 1.03x the time of
# `_step` at 64 arrivals, 0.94x at 128, 0.87x at 256 and 0.75x at 1,024.
# At 256 every exact-oracle stream stays on `_step`.
_WINDOW = 1024
_WINDOW_MIN_ARRIVALS = 256
# Candidate pairs per arrival the self-join may measure before the window
# shrinks. The `lloyd_trial` streams measure 2-18, and any limit from 16 to
# 1,024 timed within 3% there. On 1,500-point uniform boxes whose doublings
# leave every pair of a window within sqrt(R), 16, 32, 128 and 1,024 took
# 1.71x, 1.23x, 0.99x and 1.92x the time of 64 (same host).
_NEAR_PAIRS_PER_ARRIVAL = 64

_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def uniform_draws(seed: int, t0: int, n: int) -> list[float]:
    """`[step_uniform(seed, t) for t in range(t0, t0 + n)]`, to the bit.

    From _BLOCK_MIN_DRAWS draws on, the ten rounds run once on a uint64
    array of the counters.
    """
    if n < _BLOCK_MIN_DRAWS:
        return [step_uniform(seed, t) for t in range(t0, t0 + n)]
    k0 = seed & _U64
    k1 = np.uint64(t0) + np.arange(n, dtype=np.uint64)
    c0 = np.ones(n, dtype=np.uint64)
    c1 = c2 = c3 = np.zeros(n, dtype=np.uint64)
    for _ in range(10):
        hi0, lo0 = _mulhilo(c0, _PHILOX_M0)
        hi1, lo1 = _mulhilo(c2, _PHILOX_M1)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ k1, lo0
        k0 = (k0 + _PHILOX_W0) & _U64
        k1 = k1 + np.uint64(_PHILOX_W1)  # wraps mod 2^64, as step_uniform masks it
    return ((c0 >> np.uint64(11)).astype(np.float64) * 2.0**-53).tolist()


def _mulhilo(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64-bit words of each a * m, from 32-bit halves."""
    m_hi, m_lo = np.uint64(m >> 32), np.uint64(m & 0xFFFFFFFF)
    a_hi, a_lo = a >> _SHIFT32, a & _LO32
    lh = a_lo * m_hi
    hl = a_hi * m_lo
    # at most 2 (2^32 - 1) + (2^32 - 1)^2 = 2^64 - 1, so it cannot wrap
    cross = ((a_lo * m_lo) >> _SHIFT32) + (lh & _LO32) + hl
    return a_hi * m_hi + (lh >> _SHIFT32) + (cross >> _SHIFT32), a * np.uint64(m)


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


class Decision(NamedTuple):
    """Record of one arrival: which rule ran, with what probability.

    A named tuple, because a run builds one per arrival and a tuple is the
    cheapest immutable record to build. It therefore equals the plain tuple
    of its fields, in this order.
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
        # the draws of arrivals _draws_t, _draws_t + 1, ...
        self._draws: list[float] = []
        self._draws_t = 0
        self._ln_k10 = math.log(config.k + 10)
        self._doubling_scale = config.c_double * config.k * self._ln_k10

    @property
    def selected_points(self) -> list[Point]:
        """The selected points in arrival order (the grid's own list)."""
        return self._selected.points

    @property
    def selected_rows(self) -> np.ndarray:
        """The selected points as an array, one row each (the grid's own)."""
        return self._selected.rows

    @property
    def threshold(self) -> float:
        """R, the distance rule's threshold (the grid's own)."""
        return self._selected.threshold

    def finalize(self) -> list[Point]:
        """Selected centers in arrival order. Idempotent."""
        return list(self.selected_points)

    def check(self) -> None:
        """Raise AssertionError unless the selector invariants hold, then
        check the grid of selected points and the sketch.

        The selected indices strictly increase within 1..t, one per
        selected point; F is at most the doubling limit at t; the sketch
        exists from t = k on and has seen every arrival; the draw buffer
        starts after the bootstrap and its first and last entries are
        `step_uniform`'s.
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
        draws, first = self._draws, self._draws_t
        if draws:
            last = first + len(draws) - 1
            require(
                first > self.config.bootstrap_size
                and draws[0] == step_uniform(self.config.seed, first)
                and draws[-1] == step_uniform(self.config.seed, last),
                f"the draw buffer does not hold the draws of arrivals {first}..{last}",
            )
        self._selected.check()
        if self.sketch is not None:
            self.sketch.check()

    def process(self, x: Point) -> Decision:
        """Decide on arrival x.

        Raises ValueError, leaving every field unchanged, when x has a
        non-finite coordinate, a Euclidean norm beyond COORD_LIMIT, or a
        dimension unlike the earlier arrivals.

        The draw comes from the draw buffer, which an arrival past its end
        refills (the module docstring gives the rule).
        """
        check_point(x)
        # The first arrival is always taken, so it holds the dimension.
        if self.t and len(x) != len(self.selected_points[0]):
            raise ValueError(
                f"dimension mismatch: expected {len(self.selected_points[0])}, got {len(x)}"
            )
        return self._step(x)

    def _run(self, stream: Sequence[Point], rows: np.ndarray | None = None) -> list[Decision]:
        """Decide on every point of stream, in order, as `process` would.

        Only for a stream whose points were checked when it was made, as
        `check_point` checks them, with one dimension, that of any earlier
        arrivals: nothing here checks them again. `rows`, when given, is
        the stream as a float array, one row per point. Every draw the
        stream reads comes from the draw buffer, refilled here with all of
        them by one `uniform_draws` call.

        The bootstrap, and every step while R is 0 (a type-1 step then
        reads whether d2 > 0, not d2 / R), go through `_step`, as does a
        stream with fewer than _WINDOW_MIN_ARRIVALS arrivals left after
        them. The rest is decided a window at a time (`_decide_window`).
        """
        cfg = self.config
        n = len(stream)
        # The bootstrap arrivals are taken without a draw.
        first = self.t + 1 + min(n, max(0, cfg.bootstrap_size - self.t))
        end = self.t + n + 1
        if first < end:
            self._refill_draws(first, end - first)
        step = self._step
        decisions = []
        i = 0
        while i < n and (self.t < cfg.bootstrap_size or self.threshold == 0.0):
            decisions.append(step(stream[i]))
            i += 1
        if n - i < _WINDOW_MIN_ARRIVALS:
            decisions.extend(step(x) for x in stream[i:])
            return decisions
        X = np.asarray(stream, dtype=np.float64) if rows is None else rows
        while i < n:
            i = self._decide_window(stream, X, i, min(n, i + _WINDOW), decisions)
        return decisions

    def _decide_window(
        self,
        stream: Sequence[Point],
        X: np.ndarray,
        a: int,
        b: int,
        decisions: list[Decision],
    ) -> int:
        """Decide on arrivals a, a + 1, ... as `_step` would, appending each
        one's `Decision` to `decisions`; returns the end of the window, at
        most b.

        From `_prepare`, every arrival's d2 to the selected set below R;
        a take lowers only the later arrivals on its neighbour list, so d2
        stays exact below R. Every arrival goes through the sketch's
        `_insert`, and every population-rule probability, take, raise and
        doubling through the event code that `_step` runs. The gap and P
        change only with the centers, so they are read again only then, and
        the raise is tested again only after the centers or R change; any
        change of R prepares the rest of the window again, since the batch
        and the lists are exact only below it.
        Arrival r's draw is at r + off in the draw buffer, which `_run`
        filled.
        """
        sketch = self.sketch
        draws, off = self._draws, self.t + 1 - a - self._draws_t
        b, cur, starts, near, near_sq = self._prepare(X, a, b)
        p = a  # the arrival cur[0] belongs to
        centers, radius = sketch.centers, sketch.radius
        aux_points = len(centers)
        gap = self._type2_gap()
        threshold = self.threshold
        check_raise = True  # the raise is decided afresh after any change
        t = self.t
        r = a
        while r < b:
            x = stream[r]
            t += 1
            self.t = t
            sketch._insert(x)
            if sketch.centers is not centers or len(centers) != aux_points:
                centers, radius = sketch.centers, sketch.radius
                aux_points = len(centers)
                gap = self._type2_gap()
                check_raise = True
            if gap > 4.0 * (t + 2) * radius:
                kind = "type2"
                prob = self._type2_probability(x)
            else:
                kind = "type1"
                if check_raise:
                    check_raise = False
                    if self._raise_threshold():
                        threshold = self.threshold
                        b, cur, starts, near, near_sq = self._prepare(X, r, b)
                        p = r
                prob = min(1.0, cur[r - p] / threshold)  # R > 0 here
            selected = draws[r + off] < prob
            if selected:
                self._take(x)
                # the later arrivals this one is nearer to than S was
                for e in range(starts[r - p], starts[r - p + 1]):
                    j = near[e]
                    if near_sq[e] < cur[j]:
                        cur[j] = near_sq[e]
                if kind == "type1" and self._count_type1_take(t):
                    threshold = self.threshold
                    check_raise = True
                    if r + 1 < b:
                        b, cur, starts, near, near_sq = self._prepare(X, r + 1, b)
                        p = r + 1
            decisions.append(Decision(t, kind, selected, prob, threshold, aux_points))
            r += 1
        return b

    def _prepare(self, X: np.ndarray, a: int, b: int) -> tuple[int, list, list, list, list]:
        """For arrivals a..b' - 1, b' <= b: each one's squared distance to
        the selected set, exact below R and else at or above it
        (`grid_below_sq`), and its neighbour list, the later arrivals below
        both R and their own distance (`near_pairs`), as (b', d2, starts,
        later, squared distances), indexed from a: arrival i's list is at
        starts[i]:starts[i + 1]. b' is b, halved towards a until the
        self-join measures at most _NEAR_PAIRS_PER_ARRIVAL candidate pairs
        per arrival."""
        R = self.threshold
        while True:
            limit = min(NEAREST_SQ_BUDGET, _NEAR_PAIRS_PER_ARRIVAL * (b - a))
            pairs = near_pairs(X[a:b], R, limit)
            if pairs is not None:
                break
            b = a + max(1, (b - a) // 2)
        base = grid_below_sq(X[a:b], self._selected.rows, R)
        i, j, sq = pairs
        nearer = sq < base[j]
        i, j, sq = i[nearer], j[nearer], sq[nearer]
        starts = np.searchsorted(i, np.arange(b - a + 1))
        return b, base.tolist(), starts.tolist(), j.tolist(), sq.tolist()

    def _step(self, x: Point) -> Decision:
        """The transition on a checked arrival x, whose draw is read from
        the draw buffer, refilled from arrival t if it does not hold it."""
        self.t += 1
        t = self.t
        cfg = self.config
        if t > cfg.k:
            self.sketch._insert(x)

        if t <= cfg.bootstrap_size:
            self._take(x)
            if t == cfg.k:
                self.sketch = KCenterSketch(self.selected_points[: cfg.k], cfg.k)
            return self._decision(t, "bootstrap", True, 1.0)

        if self._type2_gap() > 4.0 * (t + 2) * self.sketch.radius:
            processing = "type2"
            prob = self._type2_probability(x)
        else:
            processing = "type1"
            self._raise_threshold()
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

        draws, i = self._draws, t - self._draws_t
        if i >= len(draws):
            draws, i = self._refill_draws(t, min(_WINDOW, t - cfg.bootstrap_size)), 0
        selected = draws[i] < prob
        if selected:
            self._take(x)
            if processing == "type1":
                self._count_type1_take(t)
        return self._decision(t, processing, selected, prob)

    def _refill_draws(self, t: int, n: int) -> list[float]:
        """Fill the draw buffer with the draws of arrivals t..t + n - 1."""
        self._draws = uniform_draws(self.config.seed, t, n)
        self._draws_t = t
        return self._draws

    # The events below are the one code of each, for `_step` and the window.

    def _type2_gap(self) -> float:
        """The sketch's center gap where the population rule can run, else
        0.0: the rule runs at arrival t while this exceeds 4(t+2)P.

        It needs a full complement of k centers and a defined radius; with
        fewer centers the pairwise gap is vacuous (+inf), and with P = 0
        any gap exceeds 4(t+2)P, so either would trigger it spuriously.
        """
        sketch = self.sketch
        if self.config.mode != "full" or len(sketch) != self.config.k or sketch.radius == 0.0:
            return 0.0
        return sketch.min_center_gap()

    def _type2_probability(self, x: Point) -> float:
        """The population rule's probability: inverse to the count of x's
        nearest sketch center."""
        nearest, _ = _nearest(self.sketch.centers, x)
        return min(1.0, self.config.c_type2 * self._ln_k10 / nearest.count)

    def _raise_threshold(self) -> bool:
        """Raise R to P**2 / (c_raise k ln(k+10)) where that is above it."""
        cfg = self.config
        raise_to = self.sketch.radius**2 / (cfg.c_raise * cfg.k * self._ln_k10)
        if raise_to > self.threshold:
            self._set_threshold(raise_to)
            self.counters.raises += 1
            return True
        return False

    def _count_type1_take(self, t: int) -> bool:
        """Count a type-1 take at arrival t in F, and double R if F passes
        the doubling limit; returns whether it did.

        F grows only here, and the limit never falls as t grows, so F can
        first pass it at a type-1 take: no other arrival needs the test.
        """
        self.selections_since_reset += 1
        if self.selections_since_reset > self._doubling_limit(t):
            self._set_threshold(2.0 * self.threshold)
            self.counters.doublings += 1
            return True
        return False

    def _doubling_limit(self, t: int) -> float:
        """The count F of type-1 selections may reach at arrival t >= 1
        before R doubles."""
        return self._doubling_scale * math.log(t, 2.0)

    def _set_threshold(self, threshold: float) -> None:
        self.selections_since_reset = 0
        self._selected.set_threshold(threshold)

    def _take(self, x: Point) -> None:
        self._selected.add(x)
        self.selected_indices.append(self.t)

    def _decision(
        self, t: int, processing: str, selected: bool, prob: float
    ) -> Decision:
        sketch = self.sketch
        aux_points = 0 if sketch is None else len(sketch.centers)
        return Decision(t, processing, selected, prob, self._selected.threshold, aux_points)
