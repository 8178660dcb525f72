import itertools
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nosubkm
from nosubkm import cluster, geometry, harness, kcenter
from nosubkm.cluster import ClusterConfig, Decision, OnlineClusterer, step_uniform, uniform_draws
from nosubkm.geometry import COORD_LIMIT, CellGrid, dist, nearest_sq
from nosubkm.kcenter import KCenterSketch
from nosubkm.lower_bound import gen_alpha_k_sequence
from test_kcenter import reference_init, reference_insert


def run_stream(points, **config_kwargs):
    clusterer = OnlineClusterer(ClusterConfig(**config_kwargs))
    decisions = [clusterer.process(p) for p in points]
    return clusterer, decisions


class TestConfig:
    def test_bootstrap_below_k_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(k=3, bootstrap=2)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(k=2, mode="offline")

    def test_bootstrap_defaults_to_k(self):
        assert ClusterConfig(k=4).bootstrap_size == 4

    @pytest.mark.parametrize("k", [2.5, 2.0])
    def test_k_that_is_not_an_int_rejected(self, k):
        # unchecked, k = 2.5 fails only at the third arrival, after t moved
        with pytest.raises(ValueError, match="k must be an int"):
            ClusterConfig(k=k)

    @pytest.mark.parametrize("bootstrap", [2.5, 3.0])
    def test_bootstrap_that_is_not_an_int_rejected(self, bootstrap):
        with pytest.raises(ValueError, match="bootstrap must be an int"):
            ClusterConfig(k=2, bootstrap=bootstrap)

    @pytest.mark.parametrize("seed", [1.5, "7", None])
    def test_seed_that_is_not_an_int_rejected(self, seed):
        # unchecked, it fails only at the first arrival past the bootstrap,
        # after that arrival has moved t and the sketch
        with pytest.raises(ValueError, match="seed must be an int"):
            ClusterConfig(k=2, seed=seed)

    def test_numpy_integer_seed_decides_as_its_int(self):
        config = ClusterConfig(k=2, seed=np.int64(5))
        assert type(config.seed) is int and config == ClusterConfig(k=2, seed=5)
        rng = np.random.default_rng(3)
        stream = [tuple(p) for p in rng.normal(size=(300, 2)).tolist()]
        numpy_seeded = OnlineClusterer(config)
        int_seeded = OnlineClusterer(ClusterConfig(k=2, seed=5))
        assert [numpy_seeded.process(x) for x in stream] == [int_seeded.process(x) for x in stream]

    @pytest.mark.parametrize("name", ["c_raise", "c_double", "c_type2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_constants_must_be_positive_and_finite(self, name, value):
        with pytest.raises(ValueError, match=name):
            ClusterConfig(k=2, **{name: value})


class TestBootstrap:
    def test_first_k_selected(self):
        pts = [(0.0,), (5.0,), (9.0,)]
        _, decisions = run_stream(pts, k=3, seed=1)
        assert all(d.processing == "bootstrap" and d.selected for d in decisions)

    def test_wide_bootstrap(self):
        rng = np.random.default_rng(50)
        pts = [tuple(rng.uniform(0, 10, size=1)) for _ in range(40)]
        clusterer, decisions = run_stream(pts, k=2, bootstrap=36, seed=1)
        assert all(d.selected for d in decisions[:36])
        assert all(d.processing == "bootstrap" for d in decisions[:36])
        assert all(d.processing != "bootstrap" for d in decisions[36:])

    def test_same_seed_identical_decisions(self):
        rng = np.random.default_rng(51)
        pts = [tuple(rng.uniform(0, 10, size=2)) for _ in range(50)]
        _, first = run_stream(pts, k=3, seed=9)
        _, second = run_stream(pts, k=3, seed=9)
        assert first == second


class TestTypeOne:
    def test_first_draw_raises_threshold_from_radius(self):
        pts = [(0.0,), (1.0,), (3.0,)]
        clusterer, decisions = run_stream(pts, k=2, seed=2)
        d3 = decisions[2]
        assert d3.processing == "type1"
        # R was 0 and the radius is 1, so R = 1 / (24 * 2 * ln 12)
        expected = 1.0 / (24.0 * 2 * math.log(12))
        assert d3.threshold_after == pytest.approx(expected)
        assert clusterer.counters.raises == 1

    def test_duplicate_of_center_never_selected(self):
        pts = [(0.0,), (1.0,), (0.0,), (0.0,)]
        _, decisions = run_stream(pts, k=2, seed=3)
        for d in decisions[2:]:
            assert d.processing == "type1"
            assert d.probability == 0.0
            assert not d.selected

    def test_zero_threshold_selects_novel_point(self):
        # all-coincident bootstrap leaves the radius (hence R) at zero;
        # a novel point must be taken with probability 1
        pts = [(5.0,), (5.0,), (5.0,), (8.0,)]
        _, decisions = run_stream(pts, k=2, seed=4)
        assert decisions[2].probability == 0.0 and not decisions[2].selected
        assert decisions[3].probability == 1.0 and decisions[3].selected

    def test_probabilities_clamped(self):
        rng = np.random.default_rng(52)
        pts = [tuple(rng.uniform(0, 10**rng.integers(0, 4), size=2)) for _ in range(200)]
        _, decisions = run_stream(pts, k=3, seed=5)
        for d in decisions:
            assert 0.0 <= d.probability <= 1.0

    @pytest.mark.parametrize("c_double", [289.0, 0.3])
    @pytest.mark.parametrize("k", [3, 5])
    def test_doubling_limit_equals_the_reference(self, k, c_double):
        # `reference_run`'s limit, associated as it associates it; log(t, 2)
        # differs from log2(t) in the last bit at each of these t.
        clusterer = OnlineClusterer(ClusterConfig(k=k, c_double=c_double))
        for t in (3, 9, 10, 11, 12):
            expected = c_double * k * math.log(k + 10) * math.log2(t)
            assert clusterer._doubling_limit(t) == expected


class TestTypeTwo:
    def test_far_point_routes_to_population_rule(self):
        pts = [(0.0,), (1.0,), (100.0,)]
        _, decisions = run_stream(pts, k=2, seed=6)
        d3 = decisions[2]
        # after insert: centers {0 (count 2), 100}, P = 2, gap 100 > 4*5*2
        assert d3.processing == "type2"
        assert d3.probability == 1.0  # nearest count is 1, 12 ln 12 > 1
        assert d3.selected

    def test_population_rule_probability_uses_count(self):
        # keep one crowd and one far center, then send a point to the crowd
        pts = [(0.0,), (1.0,)] + [(0.5,)] * 30 + [(1e7,), (0.4,)]
        clusterer, decisions = run_stream(pts, k=2, seed=7)
        last = decisions[-1]
        assert last.processing == "type2"
        crowd = max(c.count for c in clusterer.sketch.centers)
        assert last.probability == pytest.approx(
            min(1.0, 12.0 * math.log(12) / crowd)
        )

    # The last arrival of each stream runs the population rule, and ends
    # as one of its three cases.
    POPULATION_CASES = {
        # the crowd at 0 absorbs 0.4
        "absorbed": (2, [(0.0,), (1.0,), *[(0.5,)] * 30, (1e7,), (0.4,)]),
        # 1000.5 and 0.6 fold into 1000 and 0 (P = 0.5), then 1e6 is a
        # third center, far from the crowd at 1000 nearest it
        "a new center": (3, [(0.0,), (1000.0,), (1000.5,), (0.6,), *[(1000.0,)] * 40, (1e6,)]),
        # 3.0 becomes a center and raises P to 3, and the fold then
        # merges it into the crowd at 0
        "folded into another": (2, [(0.0,), (1.0,), (1e7,), *[(0.5,)] * 30, (3.0,)]),
    }

    @pytest.mark.parametrize("case", list(POPULATION_CASES))
    def test_population_rule_reads_the_nearest_center(self, case):
        k, stream = self.POPULATION_CASES[case]
        config = ClusterConfig(k=k, seed=14)
        clusterer = OnlineClusterer(config)
        decisions = [clusterer.process(x) for x in stream[:-1]]
        x = stream[-1]
        # only a new center needs a fresh search; an absorb names its center
        with mock.patch.object(
            KCenterSketch, "nearest_center", autospec=True, side_effect=KCenterSketch.nearest_center
        ) as search:
            last = clusterer.process(x)
        assert search.called == (case != "absorbed")
        decisions.append(last)
        assert decisions == OnlineClusterer(config)._run(stream) == reference_run(stream, config)
        assert last.processing == "type2"
        nearest, _ = clusterer.sketch.nearest_center(x)
        assert (nearest.center == x) == (case == "a new center")
        assert last.probability == min(1.0, 12.0 * math.log(k + 10) / nearest.count)


class TestInvariants:
    def test_no_substitution_replay(self):
        rng = np.random.default_rng(53)
        pts = [tuple(rng.uniform(0, 10**rng.integers(0, 3), size=2)) for _ in range(150)]
        clusterer, decisions = run_stream(pts, k=3, seed=8)
        replayed = [pts[d.index - 1] for d in decisions if d.selected]
        assert replayed == clusterer.finalize()
        assert clusterer.finalize() == clusterer.finalize()  # idempotent
        clusterer.check()

    def test_threshold_monotone(self):
        rng = np.random.default_rng(54)
        pts = [tuple(rng.uniform(0, 10**rng.integers(0, 4), size=1)) for _ in range(300)]
        _, decisions = run_stream(pts, k=2, seed=9)
        thresholds = [d.threshold_after for d in decisions]
        assert all(b >= a for a, b in zip(thresholds, thresholds[1:]))

    def test_branch_sequence_independent_of_seed(self):
        rng = np.random.default_rng(55)
        pts = [tuple(rng.uniform(0, 10**rng.integers(0, 4), size=2)) for _ in range(120)]
        _, first = run_stream(pts, k=3, seed=1)
        _, second = run_stream(pts, k=3, seed=999)
        assert [d.processing for d in first] == [d.processing for d in second]

    def test_aux_memory_bounded(self):
        rng = np.random.default_rng(56)
        pts = [tuple(rng.uniform(0, 100, size=2)) for _ in range(1000)]
        clusterer, decisions = run_stream(pts, k=5, seed=10)
        assert max(d.aux_points for d in decisions) <= 5
        assert decisions[-1].aux_points == len(clusterer.sketch) <= 5

    def test_aux_memory_zero_before_sketch(self):
        clusterer = OnlineClusterer(ClusterConfig(k=3, seed=0))
        assert clusterer.process((0.0,)).aux_points == 0
        assert clusterer.process((1.0,)).aux_points == 0
        assert clusterer.process((2.0,)).aux_points == 3

    def test_selected_count_matches_decisions(self):
        rng = np.random.default_rng(57)
        pts = [tuple(rng.uniform(0, 10, size=2)) for _ in range(80)]
        clusterer, decisions = run_stream(pts, k=2, seed=11)
        assert len(clusterer.finalize()) == sum(d.selected for d in decisions)

    def test_dimension_mismatch(self):
        clusterer = OnlineClusterer(ClusterConfig(k=2, seed=0))
        clusterer.process((0.0, 0.0))
        with pytest.raises(ValueError):
            clusterer.process((1.0,))


class TestTypeOneOnlyMode:
    def test_never_uses_population_rule(self):
        pts = [(0.0,), (1.0,), (100.0,), (1e6,)]
        _, decisions = run_stream(pts, k=2, seed=12, mode="type1_only")
        assert all(d.processing in ("bootstrap", "type1") for d in decisions)

    def test_matches_full_mode_on_type1_steps(self):
        rng = np.random.default_rng(58)
        pts = [tuple(rng.uniform(0, 1, size=2)) for _ in range(100)]
        _, full = run_stream(pts, k=3, seed=13, mode="full")
        _, only = run_stream(pts, k=3, seed=13, mode="type1_only")
        # this stream never leaves the distance rule, so the runs agree bit
        # for bit; streams that do leave it diverge afterward by design
        assert all(d.processing != "type2" for d in full)
        assert full == only


def numpy_philox_draw(seed, t):
    """Reference draw: numpy's double from word t of its Philox stream under
    key seed mod 2^64, read from the counter block that holds the word."""
    bit_generator = np.random.Philox(key=seed & (2**64 - 1), counter=t // 4)
    bit_generator.random_raw(t % 4)
    return float(np.random.Generator(bit_generator).random())


class TestStepUniform:
    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1, 2**64 + 5])
    @pytest.mark.parametrize("t", [1, 2, 1000, 2**32 + 1, 2**63])
    def test_equals_numpy_philox(self, seed, t):
        assert step_uniform(seed, t) == numpy_philox_draw(seed, t)

    @settings(max_examples=300)
    @given(seed=st.integers(-(2**70), 2**70), t=st.integers(0, 2**64 - 1))
    def test_equals_numpy_philox_sweep(self, seed, t):
        assert step_uniform(seed, t) == numpy_philox_draw(seed, t)

    def test_reproducible_and_spread(self):
        draws = [step_uniform(123, t) for t in range(1, 1000)]
        assert draws == [step_uniform(123, t) for t in range(1, 1000)]
        assert all(0.0 <= u < 1.0 for u in draws)
        assert 0.4 < sum(draws) / len(draws) < 0.6

    def test_seed_sensitivity(self):
        assert step_uniform(1, 5) != step_uniform(2, 5)
        assert step_uniform(1, 5) != step_uniform(1, 6)


class TestUniformDraws:
    # t0 and n at every residue mod 4, so a slice starts and ends at every
    # word of a counter block; n up to past one refill block.
    @pytest.mark.parametrize("seed", [0, 2**64 - 1, 0x9B1F_53C2_04E7_6AD5, 2**64 + 5, -3])
    @pytest.mark.parametrize("t0", [1, 2, 3, 2**40])
    @pytest.mark.parametrize(
        "n", [0, 1, 2, 63, 64, 1000, cluster._DRAW_BLOCK, cluster._DRAW_BLOCK + 3]
    )
    def test_equals_step_uniform(self, seed, t0, n):
        expected = [step_uniform(seed, t) for t in range(t0, t0 + n)]
        assert uniform_draws(seed, t0, n) == expected

    @pytest.mark.parametrize("seed", [np.int64(5), np.uint64(2**64 - 1), np.int32(-3)])
    def test_numpy_integer_seed(self, seed):
        assert step_uniform(seed, 9) == step_uniform(int(seed), 9)
        assert uniform_draws(seed, 9, 5) == uniform_draws(int(seed), 9, 5)

    def test_block_wraps_the_key_as_step_uniform_does(self):
        # the key wraps mod 2^64 as it is bumped each round, and the last
        # words before t = 2^64 lie in counter blocks near 2^62; t0 at
        # every residue mod 4
        for t0 in range(2**64 - 203, 2**64 - 199):
            expected = [step_uniform(7, t) for t in range(t0, 2**64)]
            assert uniform_draws(7, t0, 2**64 - t0) == expected


def run_both(stream, **config_kwargs):
    """Decisions of a process loop and of `_run` on the same stream; the
    `_run` clusterer is checked."""
    _, by_process = run_stream(stream, **config_kwargs)
    clusterer = OnlineClusterer(ClusterConfig(**config_kwargs))
    by_run = clusterer._run(stream)
    clusterer.check()
    return by_process, by_run


def run_line_and_lifted(stream, **config_kwargs):
    """`run_both` on a one-dimensional stream, and on the same stream lifted
    to 2-D, each v as (v, 0.0), with _WINDOW_MIN_ARRIVALS = 0. The 1-D
    `_run` reads the grid's sorted line and the lifted one windows, which
    it must prepare. Lifting moves no distance, since
    math.dist((a, 0.0), (b, 0.0)) == abs(a - b), so all four decision lists
    are equal. Returns the 1-D `_run`'s."""
    prepare = mock.patch.object(
        cluster._Window, "_prepare", autospec=True, side_effect=cluster._Window._prepare
    )
    with mock.patch.object(cluster, "_WINDOW_MIN_ARRIVALS", 0):
        by_process, by_run = run_both(stream, **config_kwargs)
        with prepare as prepared:
            lifted = run_both([(v, 0.0) for (v,) in stream], **config_kwargs)
    assert prepared.call_count > 0
    for decisions in (by_run, *lifted):
        assert first_difference(decisions, by_process) is None
    return by_run


def trial_stream(**spec_kwargs):
    spec = harness.TrialSpec(**spec_kwargs)
    return spec, harness.materialize_stream(spec)


class TestRun:
    def test_lloyd_trial_stream(self):
        spec, stream = trial_stream(
            k=5, generator="gaussian_mixture", gen_params={"n": 4000, "k": 5, "d": 2},
            ordering="shuffled", seed=3,
        )
        by_process, by_run = run_both(stream, k=5, seed=spec.cluster_config().seed)
        assert by_run == by_process
        assert sum(d.selected for d in by_run) > 1000

    @pytest.mark.parametrize("n", [10, 11])
    def test_exact_small_adversarial_stream(self, n):
        spec, stream = trial_stream(
            k=3, generator="gaussian_mixture", gen_params={"n": n, "k": 3},
            ordering="adversarial", seed=1,
        )
        by_process, by_run = run_both(stream, k=3, seed=spec.cluster_config().seed)
        assert by_run == by_process

    def test_type1_only(self):
        _, stream = trial_stream(
            k=3, generator="gaussian_mixture",
            gen_params={"n": 500, "k": 3, "d": 2, "spread": 0.01, "separation": 1000.0},
            ordering="shuffled", seed=4,
        )
        by_process, by_run = run_both(stream, k=3, seed=4, mode="type1_only")
        assert by_run == by_process
        assert all(d.processing != "type2" for d in by_run)

    def test_type2_steps(self):
        _, stream = trial_stream(
            k=5, generator="gaussian_mixture",
            gen_params={"n": 1500, "k": 5, "d": 5, "spread": 0.01, "separation": 1000.0},
            ordering="shuffled", seed=7,
        )
        by_process, by_run = run_both(stream, k=5, seed=7)
        assert by_run == by_process
        assert sum(d.processing == "type2" for d in by_run) > 1000

    @pytest.mark.parametrize("bootstrap", [None, 36])
    @pytest.mark.parametrize("first", [0, 1, 2, 40])
    def test_after_process_calls(self, bootstrap, first):
        # _run continues a clusterer that process started, in or after the bootstrap
        rng = np.random.default_rng(63)
        stream = [tuple(p) for p in rng.normal(0, 5, size=(120, 2)).tolist()]
        _, by_process = run_stream(stream, k=3, bootstrap=bootstrap, seed=8)
        clusterer = OnlineClusterer(ClusterConfig(k=3, bootstrap=bootstrap, seed=8))
        head = [clusterer.process(x) for x in stream[:first]]
        assert first_difference(head + clusterer._run(stream[first:]), by_process) is None
        clusterer.check()

    def test_empty_stream(self):
        clusterer = OnlineClusterer(ClusterConfig(k=2, seed=0))
        assert clusterer._run([]) == []
        assert clusterer.t == 0

    def test_run_trial_feeds_through_run(self):
        spec = harness.TrialSpec(
            k=2, generator="uniform_box", gen_params={"n": 200, "d": 2},
            oracle="lloyd", seed=9,
        )
        with mock.patch.object(
            OnlineClusterer, "process", side_effect=AssertionError("process was called")
        ):
            _, decisions = harness.run_trial(spec)
        _, by_process = run_stream(harness.materialize_stream(spec), **vars(spec.cluster_config()))
        assert first_difference(decisions, by_process) is None


def end_state(clusterer):
    """Everything `state_snapshot` holds but the grid's cells, which only
    a query fills."""
    snapshot = state_snapshot(clusterer)
    return snapshot[:2] + snapshot[3:]


def window_stream(shape, n, d, k, seed):
    """n points of one of four shapes. "lattice": an integer lattice times
    a power of two, where many points lie exactly 2P from a sketch center
    or equidistant from two. "clusters": k tight clusters far apart, opened
    one by one as the stream goes on, so that the population rule starts
    inside a window and runs for long spans. "normal": a cloud whose R is
    raised and doubled inside windows. "spread": a short spread sequence
    on the first axis, whose every point lands far beyond the last, then
    its points again in random order."""
    rng = np.random.default_rng(seed)
    if shape == "lattice":
        points = rng.integers(-4, 5, size=(n, d)) * rng.choice([0.25, 1.0, 2.0**40])
    elif shape == "clusters":
        hubs = rng.uniform(-1e3, 1e3, size=(k, d))
        opened = 1 + np.arange(n) * k // n
        points = hubs[(rng.random(n) * opened).astype(int)] + rng.normal(0.0, 1e-2, size=(n, d))
    elif shape == "spread":
        m = int(rng.integers(k + 1, k + 12))
        seq = np.asarray(gen_alpha_k_sequence(max(k, 2), 9.0, m, seed=seed))
        points = np.zeros((n, d))
        points[:, 0] = np.concatenate([seq[:, 0], seq[rng.integers(0, m, size=n), 0]])[:n]
    else:
        points = rng.normal(0.0, 10.0, size=(n, d))
    return [tuple(p) for p in points.tolist()]


def sum_sq(a, b):
    """The squared distance of a and b, added left to right over the
    coordinates (`sum` is compensated from Python 3.12 on)."""
    total = 0.0
    for u, v in zip(a, b):
        total += (u - v) * (u - v)
    return total


def reference_run(stream, config):
    """The selector's decisions on stream, written from the paper's rules
    and not from `cluster.py`: the sketch through `reference_insert`, every
    distance by brute force, every rule tested afresh at every arrival."""
    k, ln = config.k, math.log(config.k + 10)
    S, R, F = [], 0.0, 0
    Z, P = None, 0.0
    decisions = []
    for t, x in enumerate(stream, 1):
        if Z is not None:
            Z, P = reference_insert(Z, P, k, x)
        elif t == k:
            Z, P = reference_init(stream[:k], k)
        aux = 0 if Z is None else len(Z)
        if t <= config.bootstrap_size:
            S.append(x)
            decisions.append(Decision(t, "bootstrap", True, 1.0, R, aux))
            continue
        gap = min((dist(a[0], b[0]) for a, b in itertools.combinations(Z, 2)), default=math.inf)
        if config.mode == "full" and aux == k and P > 0.0 and gap > 4 * (t + 2) * P:
            kind = "type2"
            count = min(Z, key=lambda z: dist(z[0], x))[1]  # ties: the earliest
            prob = min(1.0, config.c_type2 * ln / count)
        else:
            kind = "type1"
            if P**2 / (config.c_raise * k * ln) > R:
                R, F = P**2 / (config.c_raise * k * ln), 0
            d2 = min(sum_sq(x, s) for s in S)
            prob = min(1.0, d2 / R) if R > 0.0 else float(d2 > 0.0)
        selected = step_uniform(config.seed, t) < prob
        if selected:
            S.append(x)
            if kind == "type1":
                F += 1
                if F > config.c_double * k * ln * math.log2(t):
                    R, F = 2.0 * R, 0
        decisions.append(Decision(t, kind, selected, prob, R, aux))
    return decisions


def first_difference(got, expected):
    """None when two decision lists are equal, else the first index where
    they differ and both entries there: a failure report that stays short,
    where pytest would diff the whole lists."""
    for i, pair in enumerate(itertools.zip_longest(got, expected)):
        if pair[0] != pair[1]:
            return i, *pair
    return None


class TestReference:
    # Patched small, windows end and start again inside a short stream, and
    # _WINDOW_MIN_ARRIVALS = 0 sends every `_run` stream to them; a small
    # c_double forces doublings, and clusters and spread sequences type 2.
    @settings(max_examples=300, deadline=None)
    @given(
        d=st.integers(1, 3),
        k=st.integers(1, 5),
        bootstrap=st.sampled_from([None, 6]),
        c_double=st.sampled_from([0.02, 0.3, 289.0]),
        mode=st.sampled_from(cluster.MODES),
        window=st.sampled_from([7, 1024]),
        shape=st.sampled_from(["clusters", "spread", "normal", "lattice"]),
        n=st.integers(1, 250),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_both_entry_points_equal_the_reference(
        self, d, k, bootstrap, c_double, mode, window, shape, n, seed
    ):
        stream = window_stream(shape, n, d, k, seed)
        config = ClusterConfig(k=k, bootstrap=bootstrap, c_double=c_double, mode=mode, seed=seed)
        expected = reference_run(stream, config)
        by_process, decisions = run_stream(stream, **vars(config))
        assert first_difference(decisions, expected) is None
        by_run = OnlineClusterer(config)
        with mock.patch.object(cluster, "_WINDOW", window), mock.patch.object(
            cluster, "_WINDOW_MIN_ARRIVALS", 0
        ):
            assert first_difference(by_run._run(stream), expected) is None
        by_process.check()
        by_run.check()


class TestWindowPath:
    # Patched small, windows end, shrink and start again inside a short
    # stream; _WINDOW_MIN_ARRIVALS = 0 sends every stream to the windows.
    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        d=st.integers(1, 3),
        k=st.integers(1, 4),
        bootstrap=st.sampled_from([None, 6]),
        c_double=st.sampled_from([0.02, 0.3, 289.0]),
        mode=st.sampled_from(cluster.MODES),
        window=st.sampled_from([2, 7, 1024]),
        pairs=st.sampled_from([1, 64]),
        shape=st.sampled_from(["lattice", "clusters", "normal"]),
        n=st.integers(1, 400),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_process(
        self, data, d, k, bootstrap, c_double, mode, window, pairs, shape, n, seed
    ):
        stream = window_stream(shape, n, d, k, seed)
        first = data.draw(st.integers(0, n), label="process calls first")
        config = dict(k=k, bootstrap=bootstrap, c_double=c_double, mode=mode, seed=11)
        reference, expected = run_stream(stream, **config)
        clusterer = OnlineClusterer(ClusterConfig(**config))
        with mock.patch.object(cluster, "_WINDOW", window), mock.patch.object(
            cluster, "_WINDOW_MIN_ARRIVALS", 0
        ), mock.patch.object(cluster, "_NEAR_PAIRS_PER_ARRIVAL", pairs):
            decisions = [clusterer.process(x) for x in stream[:first]]
            decisions += clusterer._run(stream[first:])
        assert first_difference(decisions, expected) is None
        assert end_state(clusterer) == end_state(reference)
        clusterer.check()

    def test_ties_and_points_at_2p(self):
        # The fold at 20 (k = 2) leaves centers 0 and 20 with P = 1: 10 is
        # equidistant from both, 22 lies exactly 2P from 20 and 25 beyond
        # it; 1, 21 and 0 lie well inside a center's 2P.
        clusterer, _ = run_stream([(0.0,), (1.0,), (20.0,)], k=2, seed=0)
        assert [c.center for c in clusterer.sketch.centers] == [(0.0,), (20.0,)]
        assert clusterer.sketch.radius == 1.0
        rows = [(10.0,), (1.0,), (22.0,), (21.0,), (25.0,), (0.0,)]
        stream = [(0.0,), (1.0,), (20.0,), *rows] * 40
        run_line_and_lifted(stream, k=2, seed=0)

    def test_population_rule_takes_lower_later_distances(self):
        # Lifted, arrivals 256-271 are type 2, and type-1 arrival 273 reads
        # a distance that those takes lowered, at the R its window was
        # prepared at: a window lowered only by type-1 takes gives it
        # probability 0.0097, where `process` gives 0.00043.
        stream = window_stream("clusters", 273, 1, 5, 2981874736)
        by_run = run_line_and_lifted(stream, k=5, bootstrap=6, c_double=0.3, seed=2981874736)
        assert [d.processing for d in by_run[255:]] == ["type2"] * 16 + ["type1"] * 2

    def test_one_dimensional_streams_open_no_window(self):
        # The sorted line answers every query at d = 1, so `_run` builds no
        # window however few arrivals a window needs, an empty remainder
        # included.
        _, stream = trial_stream(
            k=5, generator="gaussian_mixture", gen_params={"n": 2000, "k": 5, "d": 1},
            ordering="shuffled", seed=3,
        )
        _, by_process = run_stream(stream, k=5, seed=3)
        no_window = mock.patch.object(
            cluster, "_Window", side_effect=AssertionError("a window was built")
        )
        for min_arrivals in (cluster._WINDOW_MIN_ARRIVALS, 0):
            clusterer = OnlineClusterer(ClusterConfig(k=5, seed=3))
            with no_window, mock.patch.object(cluster, "_WINDOW_MIN_ARRIVALS", min_arrivals):
                decisions = clusterer._run(stream[:1500]) + clusterer._run(stream[1500:])
                assert clusterer._run([]) == []
            assert first_difference(decisions, by_process) is None
            clusterer.check()

    def test_exact_small_streams_never_open_a_window(self):
        spec = harness.TrialSpec(
            k=3, generator="gaussian_mixture", gen_params={"n": 11, "k": 3},
            ordering="adversarial", seed=1,
        )
        stream = harness.materialize_stream(spec)
        with mock.patch.object(
            cluster._Window, "_prepare", side_effect=AssertionError("a window was prepared")
        ):
            harness.run_trial(spec)
            # after the bootstrap, one arrival short of the windows' minimum
            short = stream * 30
            clusterer = OnlineClusterer(ClusterConfig(k=3, seed=1))
            clusterer._run(short[: 3 + cluster._WINDOW_MIN_ARRIVALS - 1])

    def test_long_streams_open_windows(self):
        _, stream = trial_stream(
            k=5, generator="gaussian_mixture", gen_params={"n": 2000, "k": 5, "d": 2},
            ordering="shuffled", seed=3,
        )
        clusterer = OnlineClusterer(ClusterConfig(k=5, seed=3))
        queried_at = []  # the arrival of each grid query
        query = CellGrid.min_sq_dist

        def spy_query(grid, x):
            queried_at.append(clusterer.t)
            return query(grid, x)

        with mock.patch.object(CellGrid, "min_sq_dist", spy_query), mock.patch.object(
            cluster._Window, "_prepare", autospec=True, side_effect=cluster._Window._prepare
        ) as prepare:
            decisions = clusterer._run(stream)
        # two windows for 1,995 arrivals after the bootstrap, and one more
        # for each change of R inside them
        assert prepare.call_count >= 2
        # warm-up ends with the arrival that raises R above 0; no later
        # arrival queries the grid
        warm_up = 1 + next(i for i, d in enumerate(decisions) if d.threshold_after > 0.0)
        assert queried_at and max(queried_at) <= warm_up
        # A Decision equals the plain tuple of its fields, so == alone would
        # pass a window that recorded tuples.
        assert all(type(d) is Decision for d in decisions)
        with mock.patch.object(
            cluster, "_Window", side_effect=AssertionError("process built a window")
        ):
            _, by_process = run_stream(stream, k=5, seed=3)
        assert first_difference(decisions, by_process) is None

    def test_one_window_of_near_pairs_within_budget(self):
        # Every pair of the 1,024 window arrivals is within sqrt(R) (about
        # 9.2 here), so an unshrunk self-join would measure 2**20 pairs; the
        # budget shrinks the window to 64 arrivals, 2**12 pairs.
        budget = 1 << 12
        clusterer, _ = run_stream([(0.0, 0.0), (100.0, 0.0), (0.0, 100.0)], k=2, seed=0)
        assert clusterer.threshold > 50.0
        rng = np.random.default_rng(64)
        stream = [tuple(p) for p in (rng.uniform(-0.5, 0.5, size=(1024, 2)) + 50.0).tolist()]
        rows = np.asarray(stream)
        with mock.patch.object(geometry, "NEAREST_SQ_BUDGET", budget), mock.patch.object(
            cluster, "_NEAR_PAIRS_PER_ARRIVAL", 1 << 20
        ):
            tracemalloc.start()
            try:
                decisions = clusterer._run(stream, rows)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        # About 200 bytes a decision with its record and draw, and a dozen
        # pair arrays of at most the budget.
        assert peak <= 200 * len(stream) + 12 * 8 * budget + (64 << 10)
        _, expected = run_stream([(0.0, 0.0), (100.0, 0.0), (0.0, 100.0), *stream], k=2, seed=0)
        assert first_difference(decisions, expected[3:]) is None
        clusterer.check()


def draws_requested(run):
    """The sizes of the uniform_draws calls made while run() runs."""
    with mock.patch.object(cluster, "uniform_draws", wraps=uniform_draws) as spy:
        run()
    return [call.args[2] for call in spy.call_args_list]


class TestDrawBuffer:
    # _DRAW_BLOCK patched to 16 or 64 makes every refill 16 or 64 draws, so
    # a short stream crosses many refills; _WINDOW_MIN_ARRIVALS = 0 sends
    # every _run segment to the windows.
    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(1, 4),
        bootstrap=st.sampled_from([None, 36]),
        seed=st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
        block=st.sampled_from([16, 64, cluster._DRAW_BLOCK]),
        shape=st.sampled_from(["clusters", "normal"]),
        segments=st.lists(
            st.tuples(st.booleans(), st.integers(0, 150)), min_size=1, max_size=6
        ),
    )
    def test_every_draw_is_step_uniform(self, k, bootstrap, seed, block, shape, segments):
        # Segments of process calls and of _run, in any order, with check()
        # after each; every decision after the bootstrap reads the draw of
        # its own arrival.
        n = sum(length for _, length in segments)
        stream = window_stream(shape, n, 2, k, seed & 0xFFFF)
        clusterer = OnlineClusterer(ClusterConfig(k=k, bootstrap=bootstrap, seed=seed))
        decisions, i = [], 0
        with mock.patch.object(cluster, "_DRAW_BLOCK", block), mock.patch.object(
            cluster, "_WINDOW_MIN_ARRIVALS", 0
        ):
            for by_run, length in segments:
                part = stream[i : i + length]
                i += length
                decisions += clusterer._run(part) if by_run else list(map(clusterer.process, part))
                clusterer.check()
        assert [d.index for d in decisions] == list(range(1, n + 1))
        for d in decisions[clusterer.config.bootstrap_size :]:
            assert d.selected == (step_uniform(seed, d.index) < d.probability)

    @pytest.mark.parametrize("bootstrap", [None, 36])
    def test_short_process_runs_compute_one_block(self, bootstrap):
        # The bootstrap reads no draw; the first arrival after it asks for
        # one block, which the next _DRAW_BLOCK - 1 read, and the arrival
        # after those asks for the next.
        config = ClusterConfig(k=3, bootstrap=bootstrap, seed=5)
        block, head = cluster._DRAW_BLOCK, config.bootstrap_size
        stream = window_stream("normal", head + block + 1, 2, 3, 5)
        clusterer = OnlineClusterer(config)
        assert draws_requested(lambda: [clusterer.process(x) for x in stream[:head]]) == []
        assert draws_requested(lambda: [clusterer.process(x) for x in stream[head:-1]]) == [block]
        assert draws_requested(lambda: clusterer.process(stream[-1])) == [block]

    def test_process_refills_one_block_at_a_time(self):
        block = cluster._DRAW_BLOCK
        clusterer = OnlineClusterer(ClusterConfig(k=3, seed=5))
        stream = window_stream("normal", 3 + 2 * block + 1, 2, 3, 5)

        def feed():
            for x in stream:
                clusterer.process(x)
                assert len(clusterer._draws) <= block

        assert draws_requested(feed) == [block] * 3
        assert clusterer._draws_t == 3 + 1 + 2 * block
        clusterer.check()

    def test_run_refills_as_process_does(self):
        # _run reads its draws through _step's refill: one block at arrival
        # 6, the first after the bootstrap, and one at every _DRAW_BLOCK
        # arrivals from there, whatever the segments
        spec, stream = trial_stream(
            k=5, generator="gaussian_mixture", gen_params={"n": 600, "k": 5, "d": 2},
            ordering="shuffled", oracle="lloyd", seed=3,
        )
        block = cluster._DRAW_BLOCK

        def refills(first, last):
            """The requests of arrivals first..last: one block at each
            arrival 6, 6 + block, ... among them."""
            return [block] * (len(range(6, last + 1, block)) - len(range(6, first, block)))

        assert draws_requested(lambda: harness.run_trial(spec)) == refills(1, 600)
        clusterer = OnlineClusterer(ClusterConfig(k=5, seed=3))
        assert draws_requested(lambda: clusterer._run(stream[:-100])) == refills(1, 500)
        assert draws_requested(lambda: clusterer._run(stream[-100:-50])) == refills(501, 550)
        clusterer.process(stream[-50])
        assert draws_requested(lambda: clusterer._run(stream[-49:])) == refills(552, 600)
        clusterer.check()
        # with blocks of 100, the 595 arrivals after the bootstrap cross six
        # refills, and both entry points ask for the same draws
        by_run = OnlineClusterer(ClusterConfig(k=5, seed=3))
        by_process = OnlineClusterer(ClusterConfig(k=5, seed=3))
        with mock.patch.object(cluster, "_DRAW_BLOCK", 100):
            run_sizes = draws_requested(lambda: by_run._run(stream))
            process_sizes = draws_requested(lambda: [by_process.process(x) for x in stream])
        assert run_sizes == process_sizes == [100] * 6

    def test_run_holds_the_selected_set_and_one_block(self):
        # Measured at these 5*10^4 arrivals: 486 KB held once the decisions
        # are dropped, for 4,410 selected points and the draw buffer. A point
        # costs about 80 bytes: its row at up to twice its 16 (the array
        # doubles), a slot in each of two lists and its arrival index as an
        # int. A buffered draw costs 32 (its float and its list slot). A
        # buffer of every draw held 1.95 MB here.
        spec, stream = trial_stream(
            k=3, generator="gaussian_mixture",
            gen_params={"n": 50_000, "k": 3, "d": 2, "spread": 0.3, "separation": 30.0},
            ordering="shuffled", seed=5,
        )
        rows = np.asarray(stream)
        clusterer = OnlineClusterer(spec.cluster_config())
        tracemalloc.start()
        try:
            decisions = clusterer._run(stream, rows)
            del decisions
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        selected = len(clusterer.selected_indices)
        assert selected > 1000
        assert held <= 100 * selected + 32 * cluster._DRAW_BLOCK + (64 << 10)
        clusterer.check()


class TestDecision:
    DECISION = Decision(
        index=7, processing="type1", selected=True, probability=0.25,
        threshold_after=1.5, aux_points=3,
    )

    def test_fields_in_order(self):
        assert Decision._fields == (
            "index", "processing", "selected", "probability", "threshold_after", "aux_points"
        )

    def test_immutable(self):
        with pytest.raises(AttributeError):
            self.DECISION.selected = False
        with pytest.raises(AttributeError):
            self.DECISION.note = "x"

    def test_repr(self):
        assert repr(self.DECISION) == (
            "Decision(index=7, processing='type1', selected=True, "
            "probability=0.25, threshold_after=1.5, aux_points=3)"
        )

    def test_equals_the_tuple_of_its_fields(self):
        assert self.DECISION == (7, "type1", True, 0.25, 1.5, 3)

    def test_pickle_round_trip(self):
        copy = pickle.loads(pickle.dumps(self.DECISION))
        assert type(copy) is Decision and copy == self.DECISION


def type1_takes(decisions):
    return sum(d.processing == "type1" and d.selected for d in decisions)


class TestOncePerArrival:
    # Tight clusters opened one by one, with a small c_double, run both
    # rules, raise R and double it.
    CONFIG = ClusterConfig(k=3, c_double=0.3, seed=5)

    def test_one_point_check_per_arrival(self):
        stream = window_stream("clusters", 3 + 200, 2, 3, 5)
        clusterer = OnlineClusterer(self.CONFIG)
        for x in stream[:3]:
            clusterer.process(x)
        with mock.patch.object(
            cluster, "check_point", wraps=geometry.check_point
        ) as in_cluster, mock.patch.object(
            kcenter, "check_point", wraps=geometry.check_point
        ) as in_kcenter:
            decisions = [clusterer.process(x) for x in stream[3:]]
        assert {"type1", "type2"} <= {d.processing for d in decisions}
        assert in_cluster.call_count == 200
        assert in_kcenter.call_count == 0

    @pytest.mark.parametrize("by_run", [False, True])
    def test_doubling_limit_only_at_type1_takes(self, by_run):
        # 2,000 arrivals open windows on the _run path
        stream = window_stream("clusters", 2000, 2, 3, 5)
        clusterer = OnlineClusterer(self.CONFIG)
        with mock.patch.object(
            OnlineClusterer, "_doubling_limit", autospec=True,
            side_effect=OnlineClusterer._doubling_limit,
        ) as spy:
            decisions = clusterer._run(stream) if by_run else list(map(clusterer.process, stream))
        assert clusterer.counters.doublings > 0 and clusterer.counters.raises > 0
        assert spy.call_count == type1_takes(decisions) > 0
        clusterer.check()

    @pytest.mark.parametrize("by_run", [False, True])
    def test_one_sketch_insert_per_arrival(self, by_run):
        # k - 1 inserts build the sketch at arrival k, then one per arrival
        stream = window_stream("clusters", 2000, 2, 3, 5)
        clusterer = OnlineClusterer(self.CONFIG)
        with mock.patch.object(
            KCenterSketch, "_insert", autospec=True, side_effect=KCenterSketch._insert
        ) as spy:
            decisions = clusterer._run(stream) if by_run else list(map(clusterer.process, stream))
        assert spy.call_count == 1999
        # takes by rule and the peak of |Z| are counted at their events
        takes = {"bootstrap": 0, "type1": 0, "type2": 0}
        for d in decisions:
            takes[d.processing] += d.selected
        assert takes["type1"] and takes["type2"]
        assert clusterer.counters.takes == takes
        assert clusterer.counters.peak_aux_points == max(d.aux_points for d in decisions)
        clusterer.check()


def state_snapshot(clusterer):
    sketch = clusterer.sketch
    grid = clusterer._selected
    return (
        grid.threshold,
        grid._side,
        None if grid._cells is None else {key: list(ids) for key, ids in grid._cells.items()},
        None if grid._rows is None else grid._rows[: len(grid)].tobytes(),
        clusterer.t,
        clusterer.threshold,
        clusterer.selections_since_reset,
        list(clusterer.selected_points),
        list(clusterer.selected_indices),
        (clusterer.counters.raises, clusterer.counters.doublings),
        (dict(clusterer.counters.takes), clusterer.counters.peak_aux_points),
        (clusterer._gap, clusterer._raise_to),
        None
        if sketch is None
        else (
            sketch.t,
            sketch.radius,
            [(c.center, c.count, c.birth) for c in sketch.centers],
        ),
    )


class TestRejectsInvalidArrival:
    @settings(max_examples=80, deadline=None)
    @given(
        k=st.integers(1, 4),
        stream=st.lists(st.floats(-100, 100), min_size=1, max_size=40),
        where=st.data(),
        bad=st.sampled_from([math.nan, math.inf, -math.inf]),
        axis=st.integers(0, 1),
    )
    def test_non_finite_leaves_state_unchanged(self, k, stream, where, bad, axis):
        self.check_rejected(k, stream, where, bad, axis)

    @settings(max_examples=80, deadline=None)
    @given(
        k=st.integers(1, 4),
        stream=st.lists(st.floats(-100, 100), min_size=1, max_size=40),
        where=st.data(),
        bad=st.sampled_from([1e160, -1e101, np.nextafter(COORD_LIMIT, math.inf), 1.7e308]),
        axis=st.integers(0, 1),
    )
    def test_huge_coordinate_leaves_state_unchanged(self, k, stream, where, bad, axis):
        self.check_rejected(k, stream, where, bad, axis)

    @staticmethod
    def check_rejected(k, stream, where, bad, axis):
        pts = [(v, v / 3.0) for v in stream]
        j = where.draw(st.integers(0, len(pts)), label="reject before arrival")
        invalid = list(pts[0] if pts else (0.0, 0.0))
        invalid[axis] = bad
        clean, expected = run_stream(pts, k=k, seed=4)

        clusterer = OnlineClusterer(ClusterConfig(k=k, seed=4))
        decisions = [clusterer.process(x) for x in pts[:j]]
        before = state_snapshot(clusterer)
        with pytest.raises(ValueError):
            clusterer.process(tuple(invalid))
        assert state_snapshot(clusterer) == before
        # the rejected arrival is not counted: the rest of the run matches
        decisions += [clusterer.process(x) for x in pts[j:]]
        assert decisions == expected
        assert state_snapshot(clusterer) == state_snapshot(clean)
        clusterer.check()

    def test_dimension_mismatch_leaves_state_unchanged(self):
        clusterer, _ = run_stream([(0.0, 0.0), (5.0, 1.0), (9.0, 9.0)], k=2, seed=0)
        before = state_snapshot(clusterer)
        with pytest.raises(ValueError):
            clusterer.process((1.0,))
        assert state_snapshot(clusterer) == before

    def test_huge_coordinates_rejected_before_the_sketch_folds(self):
        # 0, 1e160, 2e160 at k=2 used to fold the sketch to P = 1e160 at
        # t = 3 and then overflow in P**2, with no decision made.
        clusterer, _ = run_stream([(0.0,)], k=2, seed=0)
        before = state_snapshot(clusterer)
        with pytest.raises(ValueError, match="beyond"):
            clusterer.process((1e160,))
        assert state_snapshot(clusterer) == before

    def test_coordinates_at_the_limit_stay_finite(self):
        pts = [(0.0,), (COORD_LIMIT,), (-COORD_LIMIT,), (0.5 * COORD_LIMIT,), (1.0,)]
        clusterer, decisions = run_stream(pts, k=2, seed=0)
        assert math.isfinite(clusterer.threshold) and clusterer.threshold > 0.0
        assert all(0.0 <= d.probability <= 1.0 for d in decisions)


def scan_min_sq_dist(grid, x):
    """The reference query: nearest_sq over every selected point."""
    return float(nearest_sq(np.asarray(x)[None, :], np.asarray(grid.points))[1][0])


def nudged(v, ulps):
    for _ in range(abs(ulps)):
        v = math.nextafter(v, math.copysign(math.inf, ulps))
    return v


class TestGridQuery:
    # Forced to 0, every found candidate goes through nearest_sq on its
    # rows; forced high, through the Python sum. _QUERY_FREE_CELLS = 0
    # sends small sets to the full scan.
    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 3),
        k=st.integers(1, 4),
        c_double=st.sampled_from([0.02, 0.3, 289.0]),
        scale=st.sampled_from([1e-3, 1.0, 1e4]),
        data=st.data(),
        py_candidates=st.sampled_from([0, 24, 10**6]),
        free_cells=st.sampled_from([0, 100]),
    )
    def test_decisions_equal_full_scan(self, d, k, c_double, scale, data, py_candidates, free_cells):
        # Coordinates on a lattice, nudged by an ulp or two, so that many
        # points share or straddle cell boundaries; negative ones too.
        coord = st.builds(
            lambda m, ulps: nudged(m * scale, ulps), st.integers(-30, 30), st.integers(-2, 2)
        )
        pts = data.draw(st.lists(st.tuples(*[coord] * d), min_size=k, max_size=120))
        with mock.patch.object(geometry, "_QUERY_PY_CANDIDATES", py_candidates), mock.patch.object(
            geometry, "_QUERY_FREE_CELLS", free_cells
        ):
            grid_run, decisions = run_stream(pts, k=k, c_double=c_double, seed=3)
        with mock.patch.object(CellGrid, "min_sq_dist", scan_min_sq_dist):
            scan_run, expected = run_stream(pts, k=k, c_double=c_double, seed=3)
        assert decisions == expected
        assert grid_run.counters == scan_run.counters
        grid_run.check()

    def test_doublings_rebuild_the_grid(self):
        rng = np.random.default_rng(60)
        pts = [tuple(rng.normal(0, 5, size=2)) for _ in range(600)]
        grid_run, decisions = run_stream(pts, k=3, c_double=0.05, seed=5)
        with mock.patch.object(CellGrid, "min_sq_dist", scan_min_sq_dist):
            _, expected = run_stream(pts, k=3, c_double=0.05, seed=5)
        assert grid_run.counters.doublings > 3
        assert decisions == expected
        grid_run.check()


def live_clusterer():
    """A clusterer on a stream whose threshold doubles several times."""
    rng = np.random.default_rng(61)
    pts = [tuple(rng.normal(0, 5, size=2)) for _ in range(300)]
    clusterer, _ = run_stream(pts, k=3, c_double=0.05, seed=6)
    return clusterer


def swap_two_indices(clusterer):
    idx = clusterer.selected_indices
    idx[3], idx[4] = idx[4], idx[3]


def grow_radius(clusterer):
    # P grows to where the raise target is twice R, as a fold could grow it
    clusterer.sketch.radius = math.sqrt(2.0 * clusterer.threshold * 24.0 * 3 * math.log(13))


class TestCheck:
    def test_passes_during_a_live_run(self):
        rng = np.random.default_rng(62)
        clusterer = OnlineClusterer(ClusterConfig(k=3, c_double=0.05, seed=6))
        clusterer.check()
        peak_f = 0
        for x in rng.normal(0, 5, size=(300, 2)).tolist():
            decision = clusterer.process(tuple(x))
            clusterer.check()
            # every type-1 step leaves R at or above the raise target
            if decision.processing == "type1":
                assert clusterer.threshold >= clusterer._raise_to
            peak_f = max(peak_f, clusterer.selections_since_reset)
        assert clusterer.counters.doublings > 1 and peak_f > 0

    # Each mutation breaks one invariant of a live clusterer, its grid or
    # its sketch.
    @pytest.mark.parametrize(
        "mutate, message",
        [
            (swap_two_indices, "strictly increase"),
            (lambda c: c.selected_indices.__setitem__(-1, c.t + 1), "strictly increase"),
            (lambda c: c.selected_indices.pop(), "selected indices for"),
            (
                lambda c: setattr(
                    c, "selections_since_reset", math.floor(c._doubling_limit(c.t)) + 1
                ),
                "doubling limit",
            ),
            (lambda c: setattr(c.sketch, "t", c.t + 1), "sketch has seen"),
            (lambda c: setattr(c, "sketch", None), "sketch has seen"),
            (lambda c: c._selected._rows.__setitem__((0, 0), 1e9), "array rows"),
            (lambda c: setattr(c.sketch.centers[0], "count", 0), "counts sum"),
            (lambda c: c._draws.__setitem__(0, c._draws[1]), "draw buffer"),
            (lambda c: c._draws.__setitem__(-1, 0.5), "draw buffer"),
            (lambda c: setattr(c, "_draws_t", c._draws_t + 1), "draw buffer"),
            (lambda c: c._refill_draws(c._draws_t, cluster._DRAW_BLOCK + 1), "draw buffer holds"),
            (lambda c: c._refill_draws(c._bootstrap + 1, 2), "draw buffer holds"),
            (lambda c: setattr(c, "_gap", math.nextafter(c._gap, math.inf)), "stored gap"),
            (grow_radius, "raise target"),
            (lambda c: c.counters.takes.__setitem__("type1", c.counters.takes["type1"] + 1), "take counts"),
        ],
    )
    def test_raises_on_a_broken_invariant(self, mutate, message):
        clusterer = live_clusterer()
        mutate(clusterer)
        with pytest.raises(AssertionError, match=message):
            clusterer.check()

    def test_raises_under_python_O(self):
        # -O strips assert statements; check() raises by an explicit raise.
        # The script's own assert shows that -O is in force.
        script = """
import numpy as np
from nosubkm.cluster import ClusterConfig, OnlineClusterer
assert False, "python -O is not in force"
rng = np.random.default_rng(61)
clusterer = OnlineClusterer(ClusterConfig(k=3, c_double=0.05, seed=6))
for _ in range(300):
    clusterer.process(tuple(rng.normal(0, 5, size=2)))
clusterer._selected._rows[0, 0] = 1e9
clusterer.sketch.centers[0].count = 0
for obj in (clusterer._selected, clusterer.sketch):
    try:
        obj.check()
    except AssertionError as exc:
        print(type(obj).__name__, exc)
"""
        src = str(Path(nosubkm.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        result = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert [line.split()[0] for line in lines] == ["CellGrid", "KCenterSketch"]
        assert "array rows" in lines[0] and "counts sum" in lines[1]

    def test_process_never_calls_check(self):
        broken = mock.Mock(side_effect=AssertionError("check() was called"))
        with mock.patch.object(OnlineClusterer, "check", broken), mock.patch.object(
            KCenterSketch, "check", broken
        ), mock.patch.object(CellGrid, "check", broken):
            live_clusterer()
        broken.assert_not_called()
