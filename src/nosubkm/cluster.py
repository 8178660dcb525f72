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

Selection randomness is counter-based: the draw at arrival t is word t of
numpy's Philox4x64-10 stream under key (seed mod 2^64, 0) (`step_uniform`),
so it depends only on (seed, t), runs are reproducible and the branch taken
at each step is a deterministic function of the input prefix alone. Both
entry points read their draws from one buffer, which `_step` refills at an
arrival outside it with that arrival's draw and the _DRAW_BLOCK - 1 after
it, one slice of the stream in one numpy call (`uniform_draws`). So from
the first arrival after the bootstrap on the buffer holds one block, and
every run past the bootstrap computes at least one.

A faster `process` raises the peak RSS of a caller that records every
call's latency, since a run of fixed length then makes more calls.

Two entry points, one transition. `process` and `_run` both decide each
arrival with `_step`, and each event (a take, a sketch insert, a change of
the sketch's centers, a raise of R, a doubling, the population rule's
probability) has one method, which `_step` calls. A change of the centers
(`_insert` returns None, or the sketch is built) stores the population
rule's gap and marks a raise due (`_sketch_changed`), so the rule choice
costs one comparison per arrival, and the raise is tested at the first
type-1 step after a change. That decides as a test at every type-1 step
would: P changes only with the centers, R never falls, and every test
leaves P^2 / (c_raise k ln(k+10)) <= R, so no raise can fire before the
next change, a doubling included. An absorb leaves the centers as they
were, so the population rule reads the absorbing center's count, which a
fresh nearest search would find.

The entry points differ only in where a type-1 step reads d(x, S)^2, and
only at d >= 2. `process` asks the grid of selected points (below). `_run`,
on a stream of two or more dimensions, once past the bootstrap and with R
above 0, with at least _WINDOW_MIN_ARRIVALS arrivals left, asks a
`_Window` of the stream instead: one batch (`geometry.grid_below_sq`)
gives each of up to _WINDOW arrivals its d(x, S)^2, exact below R, and a
grid self-join (`geometry.near_pairs`) lists, for each arrival, the later
ones it is nearer to than both R and their distance to S. A take can only
lower a later arrival's distance, so it lowers only those on its list. A
read past the prepared arrivals, or after any change of R, prepares again
from the arrival read.

The distance rule needs d(x, S)^2 exactly only when it is below R, since
the probability is 1 otherwise. The selected set therefore lives on a
`geometry.CellGrid` of cell side just above sqrt(R), which answers `_step`'s
query from the cells next to x, with the bits of a full `nearest_sq` scan
below R. Its cells are filled again by the first query after R is raised
or doubled, so a `_run` that reads a `_Window`, and never queries them,
never fills them; while R is 0 (warm-up) the query scans every selected
point. A one-dimensional set has no cells: the grid keeps it sorted and
answers by bisection, exactly at every R, warm-up included. So at d = 1
`_run` opens no window, and reads the grid query as `process` does.

`OnlineClusterer.check()` tests the selector's invariants on a live
object, and those of its grid and sketch; `process` never calls it.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import (
    CellGrid,
    Point,
    check_point,
    grid_below_sq,
    near_pairs,
    require,
)
from .kcenter import AugmentedCenter, KCenterSketch

_U64 = (1 << 64) - 1
# Philox4x64 round multipliers and key increments (Salmon et al., SC 2011).
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B


def step_uniform(seed: int, t: int) -> float:
    """The uniform [0,1) draw for arrival t under this seed, 0 <= t < 2^64.

    Word t of the Philox4x64-10 stream under key (seed mod 2^64, 0): output
    word t % 4 of counter (t // 4 + 1, 0, 0, 0), evaluated directly,
    shifted right by 11, times 2^-53. numpy's raw stream starts at counter
    1, so this is `(Philox(key=seed & (2**64 - 1)).random_raw(t + 1)[t]
    >> 11) * 2**-53`.
    """
    k0, k1 = seed & _U64, 0
    c0, c1, c2, c3 = t // 4 + 1, 0, 0, 0
    for _ in range(10):
        p0 = _PHILOX_M0 * c0
        p1 = _PHILOX_M1 * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _U64, (p0 >> 64) ^ c3 ^ k1, p0 & _U64
        k0 = (k0 + _PHILOX_W0) & _U64
        k1 = (k1 + _PHILOX_W1) & _U64
    return ((c0, c1, c2, c3)[t % 4] >> 11) * 2.0**-53


# Draws per refill. One numpy Philox call costs a fixed ~14 us plus ~25 ns
# a draw: 19 us for 256 draws, 36 for 1,024 and 118 for 4,096, against
# 5.6 us for one scalar `step_uniform` (best of 5x200 calls on a 2-CPU Xeon,
# Python 3.11, numpy 2.4). An exact-oracle trial reads about 8 draws, so a
# block of 256 costs it less than its scalar draws would; draws computed
# past the end of a run are wasted.
_DRAW_BLOCK = 256

# Arrivals per window of `_run`, and the fewest arrivals left after
# warm-up for which `_run` opens windows at all. A window pays a fixed
# cost (the grid batch and the self-join) and saves most of a `_step` per
# arrival. Measured on a 2-CPU Xeon (Python 3.11, numpy 2.4): on the eight
# seed-1 `lloyd_trial` streams, windows of 256, 512, 2,048 and 4,096
# arrivals took 1.23x, 1.06x, 1.02x and 1.24x the time of 1,024; on
# shuffled k = 3 and 5, d = 2 mixtures, windows took 1.03x the time of
# `_step` at 64 arrivals, 0.94x at 128, 0.87x at 256 and 0.75x at 1,024.
# At 256 every exact-oracle stream stays on `_step`. All of this traffic
# is d = 2: at d = 1 the grid's sorted line answers, and `_run` opens no
# window.
_WINDOW = 1024
_WINDOW_MIN_ARRIVALS = 256
# Candidate pairs per arrival the self-join may measure before the window
# shrinks; it measures each pair of rows in one another's cells once. The
# seed-1 `lloyd_trial` windows measure 0.1-8.7 (2.6 on average), and any
# limit from 16 to 1,024 timed within 7% of 64 there. On 1,500-point
# uniform boxes (k = 3, c_double = 0.3, d = 2..4, seeds 1..3), 16, 32, 128
# and 1,024 took 2.10x, 1.31x, 1.00x and 2.73x the time of 64 (same host,
# median of 9 rounds).
_NEAR_PAIRS_PER_ARRIVAL = 64


def uniform_draws(seed: int, t0: int, n: int) -> list[float]:
    """`[step_uniform(seed, t) for t in range(t0, t0 + n)]`, to the bit,
    for 0 <= t0 and t0 + n <= 2^64: words t0..t0 + n - 1 of numpy's raw
    Philox stream, from one call on the counter block that holds word t0."""
    skip = t0 % 4
    raw = np.random.Philox(key=seed & _U64, counter=t0 // 4).random_raw(skip + n)[skip:]
    return ((raw >> np.uint64(11)).astype(np.float64) * 2.0**-53).tolist()


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
        if not isinstance(self.k, numbers.Integral):
            raise ValueError(f"k must be an int, got {self.k!r}")
        if self.bootstrap is not None and not isinstance(self.bootstrap, numbers.Integral):
            raise ValueError(f"bootstrap must be an int, got {self.bootstrap!r}")
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
    # selections by rule, counted at each take
    takes: dict[str, int] = field(
        default_factory=lambda: {"bootstrap": 0, "type1": 0, "type2": 0}
    )
    peak_aux_points: int = 0  # the most sketch centers held at once


class OnlineClusterer:
    """Single-owner state machine; feed arrivals one at a time."""

    def __init__(self, config: ClusterConfig):
        self.config = config
        # the selected points, bucketed on the grid of the current R
        self._selected = CellGrid()
        self.selected_indices: list[int] = []
        self.selections_since_reset = 0  # F
        self.sketch: KCenterSketch | None = None
        # `_type2_gap()` and whether a raise is due, set by `_sketch_changed`
        self._gap = 0.0
        self._raise_due = False
        self.t = 0
        self.counters = _RunCounters()
        # the draws of arrivals _draws_t, _draws_t + 1, ...
        self._draws: list[float] = []
        self._draws_t = 0
        # derived from the config once, for the per-arrival code
        self._bootstrap = config.bootstrap_size
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
        selected point, and the takes counted by rule sum to their number;
        F is at most the doubling limit at t; the sketch exists from t = k
        on and has seen every arrival; the stored gap is `_type2_gap()`,
        and unless a raise is due, R is at least the raise target; the draw
        buffer, once filled, holds _DRAW_BLOCK draws from an arrival after
        the bootstrap, and its first and last entries are `step_uniform`'s.
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
        takes = self.counters.takes
        require(
            sum(takes.values()) == len(indices),
            f"take counts {takes} do not sum to {len(indices)} selections",
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
        if self.sketch is not None:
            gap = self._type2_gap()
            require(self._gap == gap, f"stored gap {self._gap} is not the sketch's {gap}")
            raise_to = self._raise_target()
            require(
                self._raise_due or raise_to <= self.threshold,
                f"no raise is due, but the raise target {raise_to} is above R = {self.threshold}",
            )
        draws, first = self._draws, self._draws_t
        if draws:
            require(
                len(draws) == _DRAW_BLOCK,
                f"the draw buffer holds {len(draws)} draws from arrival {first}, not {_DRAW_BLOCK}",
            )
            last = first + len(draws) - 1
            require(
                first > self._bootstrap
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
        the stream as a float array, one row per point. `_step` reads each
        arrival's draw from the draw buffer, as it does for `process`.

        The bootstrap, and every step while R is 0 (a type-1 step then
        reads whether d2 > 0, not d2 / R), go through `_step` as `process`
        runs it. So does the rest, reading d(x, S)^2 from a `_Window` of
        the stream when it has two or more dimensions and at least
        _WINDOW_MIN_ARRIVALS arrivals are left, and from the grid query
        otherwise: at d = 1 always, since the grid's sorted line answers
        every query by bisection.
        """
        n = len(stream)
        step = self._step
        decisions = []
        i = 0
        while i < n and (self.t < self._bootstrap or self._selected.threshold == 0.0):
            decisions.append(step(stream[i]))
            i += 1
        window = None
        # a one-dimensional stream's sorted line answers as a window would
        if i < n and n - i >= _WINDOW_MIN_ARRIVALS and len(stream[i]) > 1:
            X = np.asarray(stream, dtype=np.float64) if rows is None else rows
            window = _Window(self._selected, X[i:], self.t + 1)
        decisions.extend(step(x, window) for x in stream[i:])
        return decisions

    def _step(self, x: Point, window: _Window | None = None) -> Decision:
        """The transition on a checked arrival x, whose draw is read from
        the draw buffer, refilled from arrival t if it does not hold it.
        d(x, S)^2 comes from `window` when one is given, else from the grid
        query."""
        self.t += 1
        t = self.t
        cfg = self.config
        sketch = self.sketch
        if t > cfg.k:
            holder = sketch._insert(x)
            if holder is None:
                self._sketch_changed()

        if t <= self._bootstrap:
            self._take(x, "bootstrap")
            if t == cfg.k:
                self.sketch = sketch = KCenterSketch(self.selected_points[: cfg.k], cfg.k)
                self._sketch_changed()
            aux_points = 0 if sketch is None else len(sketch.centers)
            return Decision(t, "bootstrap", True, 1.0, self._selected.threshold, aux_points)

        if self._gap > 4.0 * (t + 2) * sketch.radius:
            processing = "type2"
            prob = self._type2_probability(x, holder)
        else:
            processing = "type1"
            if self._raise_due:
                self._raise_threshold()
            # Exact below R; at or above R only its size matters, since
            # prob = min(1, d2 / R) is then 1.0.
            d2 = self._selected.min_sq_dist(x) if window is None else window.d2(t)
            threshold = self._selected.threshold
            if threshold > 0.0:
                prob = min(1.0, d2 / threshold)
            else:
                # R can only still be 0 while the sketch radius is 0, i.e.
                # there were fewer than k+1 distinct arrivals; taking any
                # novel point is the only cost-safe action.
                prob = 1.0 if d2 > 0.0 else 0.0

        draws, i = self._draws, t - self._draws_t
        if i >= len(draws):
            draws, i = self._refill_draws(t, _DRAW_BLOCK), 0
        selected = draws[i] < prob
        if selected:
            self._take(x, processing)
            if window is not None:
                window.took(t)
            if processing == "type1":
                self._count_type1_take(t)
        return Decision(
            t, processing, selected, prob, self._selected.threshold, len(sketch.centers)
        )

    def _refill_draws(self, t: int, n: int) -> list[float]:
        """Fill the draw buffer with the draws of arrivals t..t + n - 1."""
        self._draws = uniform_draws(self.config.seed, t, n)
        self._draws_t = t
        return self._draws

    # The events below are the one code of each.

    def _sketch_changed(self) -> None:
        """The sketch was built, or an arrival became a center: store the
        gap, mark a raise due and tally the peak of |Z|."""
        self._gap = self._type2_gap()
        self._raise_due = True
        self.counters.peak_aux_points = max(self.counters.peak_aux_points, len(self.sketch))

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

    def _type2_probability(self, x: Point, holder: AugmentedCenter | None) -> float:
        """The population rule's probability: inverse to the count of x's
        nearest sketch center, `holder` when that absorbed x."""
        if holder is None:
            holder, _ = self.sketch.nearest_center(x)
        return min(1.0, self.config.c_type2 * self._ln_k10 / holder.count)

    def _raise_target(self) -> float:
        """P**2 / (c_raise k ln(k+10)), the value R is raised to."""
        cfg = self.config
        return self.sketch.radius**2 / (cfg.c_raise * cfg.k * self._ln_k10)

    def _raise_threshold(self) -> None:
        """Raise R to the raise target where that is above it, and mark no
        raise due."""
        self._raise_due = False
        raise_to = self._raise_target()
        if raise_to > self.threshold:
            self._set_threshold(raise_to)
            self.counters.raises += 1

    def _count_type1_take(self, t: int) -> None:
        """Count a type-1 take at arrival t in F, and double R if F passes
        the doubling limit.

        F grows only here, and the limit never falls as t grows, so F can
        first pass it at a type-1 take: no other arrival needs the test.
        """
        self.selections_since_reset += 1
        if self.selections_since_reset > self._doubling_limit(t):
            self._set_threshold(2.0 * self.threshold)
            self.counters.doublings += 1

    def _doubling_limit(self, t: int) -> float:
        """The count F of type-1 selections may reach at arrival t >= 1
        before R doubles."""
        return self._doubling_scale * math.log2(t)

    def _set_threshold(self, threshold: float) -> None:
        self.selections_since_reset = 0
        self._selected.set_threshold(threshold)

    def _take(self, x: Point, processing: str) -> None:
        self._selected.add(x)
        self.selected_indices.append(self.t)
        self.counters.takes[processing] += 1


class _Window:
    """d(x, S)^2 for the arrivals of one `_run` stream of two or more
    dimensions, exact below R, for `_step` to read in place of the grid
    query (module docstring). Row r of `rows` is arrival first + r; the
    rows are prepared a window at a time, and `_step` reports each take
    (`took`).
    """

    def __init__(self, selected: CellGrid, rows: np.ndarray, first: int):
        self._selected = selected
        self._rows = rows
        self._first = first  # the arrival of rows[0]
        # rows _start.._end - 1 are prepared, at threshold _threshold
        self._start = self._end = 0
        self._threshold = selected.threshold
        self._d2: list[float] = []
        self._starts: list[int] = []
        self._near: list[int] = []
        self._near_sq: list[float] = []

    def d2(self, t: int) -> float:
        """Arrival t's squared distance to the selected set, exact below R
        and else at or above it."""
        r = t - self._first
        if r >= self._end or self._threshold != self._selected.threshold:
            self._prepare(r)
        return self._d2[r - self._start]

    def took(self, t: int) -> None:
        """Lower the distances of the later rows that arrival t, just taken,
        is nearer to."""
        r = t - self._first
        if r < self._end:
            d2, near, near_sq = self._d2, self._near, self._near_sq
            i = r - self._start
            for e in range(self._starts[i], self._starts[i + 1]):
                j = near[e]
                if near_sq[e] < d2[j]:
                    d2[j] = near_sq[e]

    def _prepare(self, a: int) -> None:
        """Prepare rows a..b - 1 at the current R. b is the end of the
        prepared rows when a is before it, else _WINDOW rows on, halved
        towards a until the self-join, which measures each row against
        the rows of its cells that come after it in the grid's order
        (with no grid, every later row), measures at most
        _NEAR_PAIRS_PER_ARRIVAL candidate pairs per row.
        Row i's neighbours, less a, and their squared distances are at
        _starts[i - a]:_starts[i - a + 1] of _near and _near_sq."""
        X, R = self._rows, self._selected.threshold
        b = self._end if a < self._end else min(len(X), a + _WINDOW)
        while True:
            pairs = near_pairs(X[a:b], R, _NEAR_PAIRS_PER_ARRIVAL * (b - a))
            if pairs is not None:
                break
            b = a + max(1, (b - a) // 2)
        base = grid_below_sq(X[a:b], self._selected.rows, R)
        i, j, sq = pairs
        nearer = sq < base[j]
        i, j, sq = i[nearer], j[nearer], sq[nearer]
        starts = np.searchsorted(i, np.arange(b - a + 1))
        self._start, self._end, self._threshold = a, b, R
        self._d2, self._starts = base.tolist(), starts.tolist()
        self._near, self._near_sq = j.tolist(), sq.tolist()
