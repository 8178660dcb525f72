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
from nosubkm.geometry import COORD_LIMIT, CellGrid, nearest_sq
from nosubkm.kcenter import KCenterSketch


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
        assert clusterer.aux_memory() <= 5

    def test_aux_memory_zero_before_sketch(self):
        clusterer = OnlineClusterer(ClusterConfig(k=3, seed=0))
        assert clusterer.aux_memory() == 0
        clusterer.process((0.0,))
        assert clusterer.aux_memory() == 0

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
    """Reference draw: numpy's Philox generator keyed by (seed mod 2^64, t)."""
    key = (seed & (2**64 - 1)) | (t << 64)
    return float(np.random.Generator(np.random.Philox(key=key)).random())


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
    @pytest.mark.parametrize("seed", [0, 2**64 - 1, 0x9B1F_53C2_04E7_6AD5])
    @pytest.mark.parametrize("t0", [1, 2**40])
    @pytest.mark.parametrize(
        "n",
        [0, 1, 2, cluster._BLOCK_MIN_DRAWS - 1, cluster._BLOCK_MIN_DRAWS, 1000],
    )
    def test_equals_step_uniform(self, seed, t0, n):
        expected = [step_uniform(seed, t) for t in range(t0, t0 + n)]
        assert uniform_draws(seed, t0, n) == expected

    def test_block_wraps_the_key_as_step_uniform_does(self):
        # the counters near 2^64 wrap when the key is bumped each round
        t0 = 2**64 - 200
        assert uniform_draws(7, t0, 200) == [step_uniform(7, t) for t in range(t0, 2**64)]


def run_both(stream, **config_kwargs):
    """Decisions of a process loop and of `_run` on the same stream; the
    `_run` clusterer is checked."""
    _, by_process = run_stream(stream, **config_kwargs)
    clusterer = OnlineClusterer(ClusterConfig(**config_kwargs))
    by_run = clusterer._run(stream)
    clusterer.check()
    return by_process, by_run


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
        assert n < cluster._BLOCK_MIN_DRAWS
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
        assert head + clusterer._run(stream[first:]) == by_process
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
        assert decisions == by_process


def end_state(clusterer):
    """Everything `state_snapshot` holds but the grid's cells, which only
    a query fills."""
    snapshot = state_snapshot(clusterer)
    return snapshot[:2] + snapshot[3:]


def window_stream(shape, n, d, k, seed):
    """n points of one of three shapes. "lattice": an integer lattice times
    a power of two, where many points lie exactly 2P from a sketch center
    or equidistant from two. "clusters": k tight clusters far apart, opened
    one by one as the stream goes on, so that the population rule starts
    inside a window and runs for long spans. "normal": a cloud whose R is
    raised and doubled inside windows."""
    rng = np.random.default_rng(seed)
    if shape == "lattice":
        points = rng.integers(-4, 5, size=(n, d)) * rng.choice([0.25, 1.0, 2.0**40])
    elif shape == "clusters":
        hubs = rng.uniform(-1e3, 1e3, size=(k, d))
        opened = 1 + np.arange(n) * k // n
        points = hubs[(rng.random(n) * opened).astype(int)] + rng.normal(0.0, 1e-2, size=(n, d))
    else:
        points = rng.normal(0.0, 10.0, size=(n, d))
    return [tuple(p) for p in points.tolist()]


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
        assert decisions == expected
        assert end_state(clusterer) == end_state(reference)
        clusterer.check()

    def test_speculation_defers_ties_and_points_at_2p(self):
        # The fold at 20 (k = 2) leaves centers 0 and 20 with P = 1: 10 is
        # equidistant from both, 22 lies exactly 2P from 20 and 25 beyond
        # it, so those go to the exact insert; 1, 21 and 0 are certain.
        clusterer, _ = run_stream([(0.0,), (1.0,), (20.0,)], k=2, seed=0)
        assert [c.center for c in clusterer.sketch.centers] == [(0.0,), (20.0,)]
        assert clusterer.sketch.radius == 1.0
        rows = np.array([[10.0], [1.0], [22.0], [21.0], [25.0], [0.0]])
        assert clusterer._speculate(rows) == [-1, 0, -1, 1, -1, 0]
        stream = [(0.0,), (1.0,), (20.0,), *map(tuple, rows.tolist())] * 40
        with mock.patch.object(cluster, "_WINDOW_MIN_ARRIVALS", 0):
            by_process, by_run = run_both(stream, k=2, seed=0)
        assert by_run == by_process

    def test_no_speculation_below_the_normal_range(self):
        # P = 2**-600: (2P)**2 underflows to 0, so no absorption is trusted,
        # not even of a point that sits on a center.
        clusterer, _ = run_stream([(0.0,), (2.0**-600,), (2.0**-599,)], k=2, seed=0)
        assert 0.0 < clusterer.sketch.radius < 2.0**-500
        assert clusterer._speculate(np.array([[0.0], [2.0**-599]])) == [-1, -1]

    def test_exact_small_streams_never_open_a_window(self):
        spec = harness.TrialSpec(
            k=3, generator="gaussian_mixture", gen_params={"n": 11, "k": 3},
            ordering="adversarial", seed=1,
        )
        stream = harness.materialize_stream(spec)
        with mock.patch.object(
            OnlineClusterer, "_decide_window", side_effect=AssertionError("a window was opened")
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
        with mock.patch.object(
            OnlineClusterer, "_decide_window", autospec=True, side_effect=OnlineClusterer._decide_window
        ) as window:
            decisions = clusterer._run(stream)
        assert window.call_count == 2  # 1,995 arrivals after the bootstrap
        assert decisions == run_stream(stream, k=5, seed=3)[1]

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
            cluster, "NEAREST_SQ_BUDGET", budget
        ), mock.patch.object(cluster, "_NEAR_PAIRS_PER_ARRIVAL", 1 << 20):
            tracemalloc.start()
            try:
                decisions = clusterer._run(stream, rows)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        # About 200 bytes a decision with its columns and draw, and a dozen
        # pair arrays of at most the budget.
        assert peak <= 200 * len(stream) + 12 * 8 * budget + (64 << 10)
        _, expected = run_stream([(0.0, 0.0), (100.0, 0.0), (0.0, 100.0), *stream], k=2, seed=0)
        assert decisions == expected[3:]
        clusterer.check()


def draws_requested(run):
    """The sizes of the uniform_draws calls made while run() runs."""
    with mock.patch.object(cluster, "uniform_draws", wraps=uniform_draws) as spy:
        run()
    return [call.args[2] for call in spy.call_args_list]


class TestDrawBuffer:
    # _WINDOW patched to 16 makes process refill at most 16 draws at a
    # time, so a short stream crosses many refills; _WINDOW_MIN_ARRIVALS
    # = 0 sends every _run segment to the windows.
    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(1, 4),
        bootstrap=st.sampled_from([None, 36]),
        seed=st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
        window=st.sampled_from([16, 1024]),
        shape=st.sampled_from(["clusters", "normal"]),
        segments=st.lists(
            st.tuples(st.booleans(), st.integers(0, 150)), min_size=1, max_size=6
        ),
    )
    def test_every_draw_is_step_uniform(self, k, bootstrap, seed, window, shape, segments):
        # Segments of process calls and of _run, in any order, with check()
        # after each; every decision after the bootstrap reads the draw of
        # its own arrival.
        n = sum(length for _, length in segments)
        stream = window_stream(shape, n, 2, k, seed & 0xFFFF)
        clusterer = OnlineClusterer(ClusterConfig(k=k, bootstrap=bootstrap, seed=seed))
        decisions, i = [], 0
        with mock.patch.object(cluster, "_WINDOW", window), mock.patch.object(
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
    def test_short_process_runs_compute_no_block(self, bootstrap):
        # 63 arrivals after the bootstrap refill 1, 2, 4, ..., 32 draws;
        # the 64th asks for the first block.
        config = ClusterConfig(k=3, bootstrap=bootstrap, seed=5)
        stream = window_stream("normal", config.bootstrap_size + 64, 2, 3, 5)
        clusterer = OnlineClusterer(config)
        short = draws_requested(lambda: [clusterer.process(x) for x in stream[:-1]])
        assert short == [1, 2, 4, 8, 16, 32]
        assert max(short) < cluster._BLOCK_MIN_DRAWS
        assert draws_requested(lambda: clusterer.process(stream[-1])) == [64]

    def test_process_refills_at_most_a_window(self):
        clusterer = OnlineClusterer(ClusterConfig(k=3, seed=5))
        stream = window_stream("normal", 3 + 3000, 2, 3, 5)
        sizes = draws_requested(lambda: [clusterer.process(x) for x in stream])
        assert sizes == [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 1024]
        assert clusterer._draws_t == 3 + 2048
        clusterer.check()

    def test_run_fills_the_stream_at_once(self):
        # every _run asks for all its draws after the bootstrap in one call
        spec, stream = trial_stream(
            k=5, generator="gaussian_mixture", gen_params={"n": 600, "k": 5, "d": 2},
            ordering="shuffled", oracle="lloyd", seed=3,
        )
        assert draws_requested(lambda: harness.run_trial(spec)) == [595]
        clusterer = OnlineClusterer(ClusterConfig(k=5, seed=3))
        assert draws_requested(lambda: clusterer._run(stream[:-100])) == [495]
        assert draws_requested(lambda: clusterer._run(stream[-100:-50])) == [50]
        clusterer.process(stream[-50])
        assert draws_requested(lambda: clusterer._run(stream[-49:])) == [49]
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
        None
        if sketch is None
        else (
            sketch.t,
            sketch.radius,
            sketch._gap,
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


class TestCheck:
    def test_passes_during_a_live_run(self):
        rng = np.random.default_rng(62)
        clusterer = OnlineClusterer(ClusterConfig(k=3, c_double=0.05, seed=6))
        clusterer.check()
        peak_f = 0
        for x in rng.normal(0, 5, size=(300, 2)).tolist():
            clusterer.process(tuple(x))
            clusterer.check()
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
