import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

import nosubkm
from nosubkm import harness, lower_bound
from nosubkm.cluster import OnlineClusterer
from nosubkm.geometry import centroid, grid_nearest_sq, kmeans_cost
from nosubkm.harness import (
    ParseError,
    TrialSpec,
    gen_dataset,
    load_points,
    materialize_stream,
    run_experiment,
    run_trial,
    save_points,
    summarize,
)
from nosubkm.lower_bound import is_alpha_k_sequence
from nosubkm.oracle import lloyd_kmeans


class TestLoadPoints:
    def test_two_dimensional(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("0,0\n3,4\n")
        assert load_points(path) == [(0.0, 0.0), (3.0, 4.0)]

    def test_one_dimensional(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("1\n2\n3\n")
        assert load_points(path) == [(1.0,), (2.0,), (3.0,)]

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ParseError, match="line 2"):
            load_points(path)

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("1,2\nx,3\n")
        with pytest.raises(ParseError, match="line 2"):
            load_points(path)

    def test_huge_value_reports_line(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("1,2\n1e160,3\n")
        with pytest.raises(ParseError, match="line 2.*beyond"):
            load_points(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_points(path)

    def test_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("\n1,2\n\n3,4\n\n")
        assert load_points(path) == [(1.0, 2.0), (3.0, 4.0)]

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(70)
        pts = [tuple(rng.normal(0, 123.0, size=3)) for _ in range(20)]
        path = tmp_path / "pts.csv"
        save_points(pts, path)
        assert load_points(path) == pts


class TestGenDataset:
    def test_uniform_box_in_range(self):
        pts = gen_dataset("uniform_box", {"n": 10, "d": 1, "side": 1.0}, seed=1)
        assert len(pts) == 10
        assert all(0.0 <= p[0] <= 1.0 for p in pts)

    def test_gaussian_mixture_separable(self):
        pts = gen_dataset(
            "gaussian_mixture",
            {"n": 60, "k": 3, "d": 2, "spread": 0.05, "separation": 100.0},
            seed=2,
        )
        fit = lloyd_kmeans(pts, 3, restarts=10, seed=0)
        total = kmeans_cost(pts, [centroid(pts)])
        assert fit.cost <= 0.01 * total

    def test_points_beyond_the_norm_limit_rejected(self):
        with pytest.raises(ValueError, match="beyond"):
            gen_dataset("uniform_box", {"n": 3, "d": 2, "side": 1e101}, seed=1)

    def test_mixture_points_beyond_the_norm_limit_rejected(self):
        with pytest.raises(ValueError, match="beyond"):
            gen_dataset("gaussian_mixture", {"n": 3, "k": 1, "separation": 1e101}, seed=1)

    @pytest.mark.parametrize(
        "kind, params",
        [("uniform_box", {"n": 5, "d": 3}), ("gaussian_mixture", {"n": 5, "k": 2, "d": 3})],
    )
    def test_points_are_tuples_of_floats(self, kind, params):
        for p in gen_dataset(kind, params, seed=4):
            assert type(p) is tuple and len(p) == 3
            assert all(type(c) is float for c in p)

    def test_sequence_generator_certified(self):
        pts = gen_dataset("alpha_k_sequence", {"k": 2, "alpha": 9.0, "length": 8}, seed=3)
        assert is_alpha_k_sequence(pts, list(range(8)), 9.0, 2)

    def test_deterministic(self):
        a = gen_dataset("uniform_box", {"n": 5, "d": 2}, seed=9)
        b = gen_dataset("uniform_box", {"n": 5, "d": 2}, seed=9)
        assert a == b

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gen_dataset("mystery", {}, seed=0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            gen_dataset("uniform_box", {"n": 0, "d": 2}, seed=0)

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("gaussian_mixture", {"n": 4, "k": 2, "separation": math.inf}),
            ("gaussian_mixture", {"n": 4, "k": 2, "separation": math.nan}),
            ("gaussian_mixture", {"n": 4, "k": 2, "spread": math.inf}),
            ("gaussian_mixture", {"n": 4, "k": 2, "spread": math.nan}),
            ("uniform_box", {"n": 4, "side": math.inf}),
            ("uniform_box", {"n": 4, "side": math.nan}),
        ],
    )
    def test_non_finite_scale_rejected_before_any_draw(self, kind, params):
        with mock.patch("numpy.random.default_rng") as rng:
            with pytest.raises(ValueError, match="finite"):
                gen_dataset(kind, params, seed=0)
        rng.assert_not_called()

    @pytest.mark.parametrize(
        "kind, params, message",
        [
            ("gaussian_mixture", {"n": 1e3, "k": 2}, "'n' must be an int"),
            ("gaussian_mixture", {"n": 10, "k": 2.0}, "'k' must be an int"),
            ("uniform_box", {"n": 10, "d": 1.5}, "'d' must be an int"),
            ("alpha_k_sequence", {"k": 2, "length": 10.0}, "'length' must be an int"),
            ("uniform_box", {"n": 10, "foo": 1}, "no parameter 'foo'"),
            ("alpha_k_sequence", {"k": 2, "length": 10, "d": 1}, "no parameter 'd'"),
            ("uniform_box", {"n": 10, "seed": 1}, "no parameter 'seed'"),
        ],
    )
    def test_bad_parameter_named_before_any_draw(self, kind, params, message):
        with mock.patch("numpy.random.default_rng") as rng:
            with pytest.raises(ValueError, match=message):
                gen_dataset(kind, params, seed=0)
        rng.assert_not_called()


class TestTrialSpec:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            TrialSpec(k=2)
        with pytest.raises(ValueError):
            TrialSpec(k=2, input_path="x.csv", generator="uniform_box")

    def test_k_that_is_not_an_int_rejected(self):
        with pytest.raises(ValueError, match="k must be an int"):
            TrialSpec(k=2.5, generator="uniform_box", gen_params={"n": 5})

    @pytest.mark.parametrize(
        "seed, message", [(1.5, "seed must be an int, got 1.5"), (-1, "seed must be >= 0, got -1")]
    )
    def test_bad_seed_rejected_before_numpy_reads_it(self, seed, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            TrialSpec(k=2, generator="uniform_box", gen_params={"n": 5}, seed=seed)

    def test_lloyd_restarts_that_is_not_an_int_rejected(self):
        with pytest.raises(ValueError, match="lloyd_restarts must be an int"):
            TrialSpec(k=2, generator="uniform_box", gen_params={"n": 5}, lloyd_restarts=2.5)

    def test_adversarial_needs_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            TrialSpec(
                k=2, generator="uniform_box", gen_params={"n": 5}, ordering="adversarial", alpha=1.0
            )

    def test_unknown_mode_rejected_before_the_dataset_is_built(self):
        with pytest.raises(ValueError, match="mode"):
            TrialSpec(k=2, generator="uniform_box", mode="type2_only")

    @pytest.mark.parametrize("k, bootstrap", [(0, None), (-1, None), (3, 2)])
    def test_bad_k_or_bootstrap_rejected_before_the_dataset_is_built(self, k, bootstrap):
        with mock.patch("nosubkm.harness.gen_dataset") as gen:
            with pytest.raises(ValueError, match="k must|bootstrap"):
                run_trial(
                    TrialSpec(k=k, bootstrap=bootstrap, generator="uniform_box", gen_params={"n": 5})
                )
        gen.assert_not_called()

    @pytest.mark.parametrize("ordering", ["given", "shuffled", "adversarial"])
    @pytest.mark.parametrize("alpha", [math.nan, 1.0, 0.5])
    def test_alpha_not_above_one_rejected_for_every_ordering(self, ordering, alpha):
        # run_trial scores every ordering against lower_estimate at alpha
        with pytest.raises(ValueError, match="alpha"):
            TrialSpec(
                k=2, generator="uniform_box", gen_params={"n": 5}, ordering=ordering, alpha=alpha
            )

    def test_unknown_generator_rejected_up_front(self):
        with pytest.raises(ValueError, match="unknown generator 'nope'"):
            TrialSpec(k=2, generator="nope")

    def test_bad_generator_parameter_rejected_up_front(self):
        with pytest.raises(ValueError, match="'n' must be an int"):
            TrialSpec(k=2, generator="uniform_box", gen_params={"n": 1e3})
        with pytest.raises(ValueError, match="no parameter 'foo'"):
            TrialSpec(k=2, generator="uniform_box", gen_params={"n": 10, "foo": 1})

    @pytest.mark.parametrize(
        "generator, gen_params, missing",
        [
            ("uniform_box", {}, "['n']"),
            ("gaussian_mixture", {"d": 1}, "['k', 'n']"),
            ("alpha_k_sequence", {"k": 2}, "['length']"),
        ],
    )
    def test_missing_generator_parameter_rejected_up_front(self, generator, gen_params, missing):
        with pytest.raises(ValueError, match=re.escape(f"missing required parameters {missing}")):
            TrialSpec(k=2, generator=generator, gen_params=gen_params)

    def test_infinite_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            TrialSpec(k=2, generator="uniform_box", gen_params={"n": 5}, alpha=math.inf)


class TestRunTrial:
    def test_bootstrap_only_stream(self):
        # n == bootstrap == k: everything selected, zero achieved cost
        spec = TrialSpec(
            k=3, generator="uniform_box", gen_params={"n": 3, "d": 2}, seed=4
        )
        report, decisions = run_trial(spec)
        assert report.centers_selected == 3
        assert report.ratio == "zero-cost"
        assert report.within_nine
        assert all(d.processing == "bootstrap" for d in decisions)

    def test_deterministic_reports(self):
        spec = TrialSpec(
            k=2,
            generator="uniform_box",
            gen_params={"n": 12, "d": 2},
            ordering="shuffled",
            seed=5,
        )
        a, _ = run_trial(spec)
        b, _ = run_trial(spec)
        assert a.to_record() == b.to_record()

    def test_counts_reconcile(self):
        spec = TrialSpec(
            k=2, generator="uniform_box", gen_params={"n": 12, "d": 1}, seed=6
        )
        report, decisions = run_trial(spec)
        assert report.centers_selected == (
            report.bootstrap_selections
            + report.type1_selections
            + report.type2_selections
        )
        assert report.centers_selected == sum(d.selected for d in decisions)
        assert report.peak_aux_points <= 2

    def test_exact_oracle_infeasible_raises(self):
        spec = TrialSpec(
            k=2, generator="uniform_box", gen_params={"n": 40, "d": 1}, seed=7
        )
        with pytest.raises(ValueError, match="lloyd"):
            run_trial(spec)

    @pytest.mark.parametrize(
        "oracle, n, k, message",
        [("exact", 20, 2, "exact limit 14"), ("lloyd", 2, 3, "at least k=3")],
    )
    def test_oracle_refuses_before_any_arrival(self, monkeypatch, oracle, n, k, message):
        # A trial's arrivals go through _run. Lloyd's check is made in this
        # process, so no request reaches a helper either.
        monkeypatch.setattr(harness, "_lloyd", None)
        monkeypatch.setattr(harness, "_start_lloyd", mock.Mock(side_effect=AssertionError))
        arrivals = mock.Mock(side_effect=AssertionError("an arrival ran"))
        monkeypatch.setattr(OnlineClusterer, "_run", arrivals)
        spec = TrialSpec(k=k, generator="uniform_box", gen_params={"n": n}, oracle=oracle)
        with pytest.raises(ValueError, match=message):
            run_trial(spec)
        arrivals.assert_not_called()

    def test_lloyd_oracle_on_larger_instance(self):
        spec = TrialSpec(
            k=2,
            generator="uniform_box",
            gen_params={"n": 40, "d": 1},
            oracle="lloyd",
            seed=7,
        )
        report, _ = run_trial(spec)
        assert not report.oracle_exact
        assert report.oracle_cost > 0

    def test_adversarial_ordering_runs(self):
        spec = TrialSpec(
            k=2,
            generator="alpha_k_sequence",
            gen_params={"k": 2, "alpha": 9.0, "length": 8},
            ordering="adversarial",
            seed=8,
        )
        report, _ = run_trial(spec)
        assert report.n == 8
        assert report.lower_estimate == 8

    @pytest.mark.parametrize(
        "generator, gen_params, k",
        [
            ("gaussian_mixture", {"n": 10, "k": 3}, 3),
            ("gaussian_mixture", {"n": 7, "k": 2, "d": 1}, 2),
            ("alpha_k_sequence", {"k": 2, "length": 9}, 2),  # already in certified order
        ],
    )
    def test_one_exact_search_per_adversarial_trial(self, monkeypatch, generator, gen_params, k):
        real = lower_bound.lower_exact
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(lower_bound, "lower_exact", counted)
        # a set in certified order is its own longest sequence: no search
        searches = 0 if generator == "alpha_k_sequence" else 1
        for seed in range(4):
            spec = TrialSpec(k=k, generator=generator, gen_params=gen_params, ordering="adversarial", seed=seed)
            calls.clear()
            report, _ = run_trial(spec)
            assert len(calls) == searches
            # the length found before reordering is the stream's own
            stream = materialize_stream(spec)
            assert report.lower_exact
            assert report.lower_estimate == len(real(stream, spec.alpha, spec.k))

    @pytest.mark.parametrize(
        "generator, gen_params, k, greedy_calls",
        [
            # a greedy length depends on the order, so the stream gets its own
            ("gaussian_mixture", {"n": 11, "k": 3}, 3, 2),
            # a set in certified order needs no search: its length is n, exactly
            ("alpha_k_sequence", {"k": 2, "length": 12}, 2, 0),
        ],
    )
    def test_greedy_past_the_limit(self, monkeypatch, generator, gen_params, k, greedy_calls):
        exact_calls = []
        monkeypatch.setattr(lower_bound, "lower_exact", lambda *a, **kw: exact_calls.append(a))
        real = lower_bound.lower_greedy
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(lower_bound, "lower_greedy", counted)
        spec = TrialSpec(k=k, generator=generator, gen_params=gen_params, ordering="adversarial", seed=1)
        report, _ = run_trial(spec)
        assert exact_calls == []
        assert len(calls) == greedy_calls
        if greedy_calls:
            assert not report.lower_exact
            assert report.lower_estimate == len(real(calls[-1][0], spec.alpha, spec.k))
        else:
            assert report.lower_exact and report.lower_estimate == report.n == 12

    @pytest.mark.parametrize("ordering", ["adversarial", "given"])
    @pytest.mark.parametrize("length", [12, 20, 40])
    def test_certified_stream_reports_its_length_exactly(self, ordering, length):
        spec = TrialSpec(
            k=2,
            generator="alpha_k_sequence",
            gen_params={"k": 2, "length": length},
            ordering=ordering,
            oracle="lloyd",
            seed=3,
        )
        stream = materialize_stream(spec)
        assert is_alpha_k_sequence(stream, range(length), spec.alpha, spec.k)
        report, _ = run_trial(spec)
        assert report.lower_estimate == length
        assert report.lower_exact


LLOYD_TRIAL = {
    "k": 3,
    "generator": "gaussian_mixture",
    "gen_params": {"n": 300, "k": 3, "d": 2},
    "ordering": "shuffled",
    "oracle": "lloyd",
    "lloyd_restarts": 5,
}


def in_process_lloyd_cost(spec: TrialSpec) -> float:
    X = np.asarray(materialize_stream(spec), dtype=np.float64)
    seed = harness._sub_seed(spec.seed, harness._SEED_LLOYD)
    return lloyd_kmeans(X, spec.k, restarts=spec.lloyd_restarts, seed=seed).cost


def lloyd_helper():
    assert harness._lloyd is not None
    return harness._lloyd.process


def serving_helper():
    """The helper process once it serves: its ready message read and no
    reply owed. Each call's work waits for the helper's next message."""

    def wait():
        assert harness._lloyd.conn.poll(60), "the helper sent nothing in 60 s"

    X = np.random.default_rng(0).normal(size=(20, 2))
    while harness._lloyd is None or not harness._lloyd.ready or harness._lloyd.owed:
        harness._beside_lloyd(wait, X, 2, 1, 0)
    return lloyd_helper()


@pytest.fixture
def new_helper(monkeypatch):
    """No helper before the test, so its first Lloyd call starts one; the
    one it started is ended after it."""
    monkeypatch.setattr(harness, "_lloyd", None)
    yield
    if harness._lloyd is not None:
        harness._lloyd.process.kill()
        harness._lloyd.process.join()
        harness._lloyd.conn.close()


def running(pid: int) -> bool:
    """Whether the process pid exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def package_env() -> dict[str, str]:
    src = str(Path(nosubkm.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def share_among_threads(serving) -> None:
    """Six threads call the helper, each four times and then until
    serving() holds. Each thread's cost must be its own array's, which
    replies crossing between threads on the one pipe would break."""
    rng = np.random.default_rng(6)
    inputs = [rng.normal(size=(int(rng.integers(50, 400)), 2)) for _ in range(6)]
    expected = [lloyd_kmeans(X, 3, restarts=2).cost for X in inputs]
    got = [[] for _ in inputs]
    deadline = time.monotonic() + 60

    def client(i):
        while len(got[i]) < 4 or not serving() and time.monotonic() < deadline:
            got[i].append(harness._beside_lloyd(lambda: i, inputs[i], 3, 2, 0))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=client, args=(i,)) for i in range(len(inputs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert serving()
    assert got == [[(i, cost)] * len(got[i]) for i, cost in enumerate(expected)]


class TestLloydHelper:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cost_is_the_in_process_cost(self, seed):
        spec = TrialSpec(seed=seed, **LLOYD_TRIAL)
        report, _ = run_trial(spec)
        assert report.oracle_cost == in_process_lloyd_cost(spec)

    # a non-integer seed reaches numpy, which refuses it with TypeError
    @pytest.mark.parametrize(
        "k, restarts, seed, error",
        [(2, 0, 0, ValueError), (2.0, 1, 0, ValueError), (2, 1, 1.5, TypeError)],
    )
    def test_exception_in_the_helper_reaches_the_caller(self, k, restarts, seed, error):
        X = np.random.default_rng(4).normal(size=(30, 2))
        with pytest.raises(error) as in_process:
            lloyd_kmeans(X, k, restarts=restarts, seed=seed)
        process = serving_helper()
        work = mock.Mock(return_value="done")
        with pytest.raises(error) as helper:
            harness._beside_lloyd(work, X, k, restarts, seed)
        assert str(helper.value) == str(in_process.value)
        work.assert_called_once()
        # the same helper serves the next request
        done, cost = harness._beside_lloyd(work, X, 2, 1, 0)
        assert done == "done" and cost == lloyd_kmeans(X, 2, restarts=1).cost
        assert lloyd_helper() is process

    def test_a_killed_helper_is_replaced(self):
        spec = TrialSpec(seed=3, **LLOYD_TRIAL)
        before, _ = run_trial(spec)
        process = serving_helper()
        os.kill(process.pid, signal.SIGKILL)
        process.join(timeout=30)
        assert not process.is_alive()
        after, _ = run_trial(spec)
        assert after.to_record() == before.to_record()
        assert lloyd_helper().pid != process.pid

    def test_an_interrupt_leaves_the_helper_to_its_process(self):
        X = np.random.default_rng(7).normal(size=(40, 2))
        process = serving_helper()
        os.kill(process.pid, signal.SIGINT)
        time.sleep(0.2)
        assert process.is_alive()
        assert harness._beside_lloyd(lambda: None, X, 2, 1, 0)[1] == lloyd_kmeans(X, 2, restarts=1).cost
        assert lloyd_helper() is process

    def test_a_helper_that_dies_mid_call_raises_and_the_next_trial_runs(self):
        spec = TrialSpec(seed=4, **LLOYD_TRIAL)
        run_trial(spec)
        process = serving_helper()

        def kill():
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=30)
            assert not process.is_alive()

        # Lloyd on this many points takes far longer than the kill
        X = np.random.default_rng(5).normal(size=(50_000, 2))
        with pytest.raises(RuntimeError, match="helper process ended"):
            harness._beside_lloyd(kill, X, 5, 20, 0)
        report, _ = run_trial(spec)
        assert report.oracle_cost == in_process_lloyd_cost(spec)

    def test_a_new_helper_is_not_waited_for(self, new_helper):
        # Spawning the helper and importing the package take far longer
        # than this work, so the call runs Lloyd here and owes the reply.
        X = np.random.default_rng(8).normal(size=(40, 2))
        done = harness._beside_lloyd(lambda: "done", X, 2, 1, 0)
        assert done == ("done", lloyd_kmeans(X, 2, restarts=1).cost)
        assert not harness._lloyd.ready and harness._lloyd.owed

    def test_each_reply_answers_its_own_call(self, new_helper):
        # Calls made before the helper is up, and so while its first reply
        # is owed, and calls that it serves each get their own array's cost.
        rng = np.random.default_rng(9)
        inputs = [rng.normal(size=(int(rng.integers(50, 400)), 2)) for _ in range(4)]
        expected = [lloyd_kmeans(X, 3, restarts=2).cost for X in inputs]
        got = [harness._beside_lloyd(lambda: None, X, 3, 2, 0)[1] for X in inputs[:2]]
        process = serving_helper()
        got += [harness._beside_lloyd(lambda: None, X, 3, 2, 0)[1] for X in inputs[2:]]
        assert got == expected
        assert lloyd_helper() is process
        assert harness._lloyd.ready and not harness._lloyd.owed

    def test_an_exception_in_this_process_leaves_the_helper(self, new_helper):
        X = np.random.default_rng(10).normal(size=(30, 2))
        with pytest.raises(ValueError, match="restarts must be >= 1"):
            harness._beside_lloyd(lambda: None, X, 2, 0, 0)
        process = lloyd_helper()
        assert process.is_alive() and harness._lloyd.owed
        # its reply to that request, the same exception, is dropped
        assert serving_helper() is process

    def test_threads_share_the_helper_one_request_at_a_time(self):
        share_among_threads(serving=lambda: True)

    def test_threads_share_a_new_helper(self, new_helper):
        # Threads take turns while the helper starts, runs Lloyd here and
        # owes replies, until it serves them.
        share_among_threads(serving=lambda: harness._lloyd.ready and not harness._lloyd.owed)

    def test_import_starts_no_helper(self):
        script = "import sys, nosubkm.cli, nosubkm.harness; print('multiprocessing' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=package_env()
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"

    @pytest.mark.skipif(not Path("/proc/self/stat").is_file(), reason="reads /proc")
    @pytest.mark.parametrize("ending", ["exit", "kill", "kill before ready"])
    def test_no_helper_outlives_its_process(self, tmp_path, ending):
        # A script without a __main__ guard, which spawn would re-run. The
        # last ending kills the script while the helper is still importing,
        # before it can send its ready message.
        script = tmp_path / "trial.py"
        script.write_text(
            "import os, signal, sys\n"
            "from nosubkm import harness\n"
            "if sys.argv[1] == 'kill before ready':\n"
            "    harness._lloyd = harness._start_lloyd()\n"
            "else:\n"
            "    spec = harness.TrialSpec(k=2, generator='uniform_box', gen_params={'n': 40}, oracle='lloyd')\n"
            "    harness.run_trial(spec)\n"
            "print(harness._lloyd.process.pid, flush=True)\n"
            "if sys.argv[1] != 'exit':\n"
            "    os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        # The helper inherits the script's output files, so pipes would
        # wait for it to end; files do not.
        out, err = tmp_path / "out", tmp_path / "err"
        with out.open("w") as stdout, err.open("w") as stderr:
            code = subprocess.run(
                [sys.executable, "-W", "error", str(script), ending],
                stdout=stdout,
                stderr=stderr,
                env=package_env(),
                timeout=120,
            ).returncode
        assert code == (0 if ending == "exit" else -signal.SIGKILL), err.read_text()
        assert err.read_text() == ""
        pid = int(out.read_text())
        deadline = time.monotonic() + 10
        while running(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not running(pid)


class TestScoring:
    def test_grid_scored_cost_is_kmeans_cost(self):
        # Magnitudes spread over seven decades, so that adding the minima
        # in another order or in slices would change the last bits.
        rng = np.random.default_rng(1)
        pts = [tuple(r) for r in rng.normal(size=(9000, 2)) * 10.0 ** rng.integers(-3, 4, size=(9000, 1))]
        centers = pts[::45]
        X, C = np.asarray(pts), np.asarray(centers)
        expected = kmeans_cost(pts, centers)
        # R = 0 scans every center; the others take the grid, the largest
        # with every row on it, the smallest with most rows falling back.
        for threshold in (0.0, 1e-6, 1.0, 1e4, 1e12):
            assert math.fsum(grid_nearest_sq(X, C, threshold).tolist()) == expected


class TestRunExperiment:
    def test_single_trial_aggregate(self, tmp_path):
        spec = TrialSpec(
            k=2, generator="uniform_box", gen_params={"n": 10, "d": 2}, seed=9
        )
        result = run_experiment(spec, trials=1)
        assert result["aggregate"]["trials"] == 1
        trial = result["trials"][0]
        assert result["aggregate"]["fraction_within_nine"] == float(
            trial["within_nine"]
        )
        assert result["aggregate"]["max_peak_aux_points"] == trial["peak_aux_points"]

    @pytest.mark.parametrize(
        "trials, message", [(2.5, "trials must be an int, got 2.5"), (0, "trials must be >= 1, got 0")]
    )
    def test_bad_trials_rejected(self, trials, message):
        spec = TrialSpec(k=2, generator="uniform_box", gen_params={"n": 10, "d": 2})
        with pytest.raises(ValueError, match=re.escape(message)):
            run_experiment(spec, trials=trials)

    def test_aggregate_means_are_exactly_rounded(self):
        # Added left to right in double precision, ten 0.1s make 0.9999999999999999.
        reports = [
            SimpleNamespace(ratio=0.1, within_nine=True, centers_selected=1, lower_estimate=10, peak_aux_points=0)
        ] * 10
        aggregate = summarize(reports)
        assert aggregate["mean_ratio"] == 0.1
        assert aggregate["mean_centers_over_lower"] == 0.1

    def test_fraction_in_unit_interval(self):
        spec = TrialSpec(
            k=2, generator="uniform_box", gen_params={"n": 10, "d": 1}, seed=10
        )
        result = run_experiment(spec, trials=5)
        assert 0.0 <= result["aggregate"]["fraction_within_nine"] <= 1.0

    def test_same_master_seed_identical_json(self, tmp_path):
        spec = TrialSpec(
            k=2,
            generator="gaussian_mixture",
            gen_params={"n": 12, "k": 2, "d": 2, "spread": 0.2, "separation": 10.0},
            ordering="shuffled",
            seed=11,
        )
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        run_experiment(spec, trials=4, out_path=first, out_format="json")
        run_experiment(spec, trials=4, out_path=second, out_format="json")
        assert first.read_bytes() == second.read_bytes()

    def test_csv_output(self, tmp_path):
        spec = TrialSpec(
            k=2, generator="uniform_box", gen_params={"n": 10, "d": 2}, seed=12
        )
        out = tmp_path / "report.csv"
        run_experiment(spec, trials=3, out_path=out, out_format="csv")
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4  # header + one row per trial
        assert lines[0].startswith("n,k,centers_selected")

    def test_json_structure(self, tmp_path):
        spec = TrialSpec(
            k=2, generator="uniform_box", gen_params={"n": 10, "d": 2}, seed=13
        )
        out = tmp_path / "report.json"
        run_experiment(spec, trials=2, out_path=out, out_format="json")
        data = json.loads(out.read_text())
        assert set(data) == {"master_seed", "trials", "aggregate"}
        for record in data["trials"]:
            assert "wall_time_s" not in record  # timings would break replay
            assert record["within_nine"] in (True, False)
