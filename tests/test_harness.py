import json
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from nosubkm import lower_bound
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


class TestTrialSpec:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            TrialSpec(k=2)
        with pytest.raises(ValueError):
            TrialSpec(k=2, input_path="x.csv", generator="uniform_box")

    def test_adversarial_needs_alpha(self):
        with pytest.raises(ValueError):
            TrialSpec(k=2, generator="uniform_box", ordering="adversarial", alpha=1.0)

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
            TrialSpec(k=2, generator="uniform_box", ordering=ordering, alpha=alpha)

    def test_unknown_generator_rejected_up_front(self):
        with pytest.raises(ValueError, match="unknown generator 'nope'"):
            TrialSpec(k=2, generator="nope")

    def test_infinite_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            TrialSpec(k=2, generator="uniform_box", alpha=math.inf)


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
    def test_oracle_refuses_before_any_arrival(self, oracle, n, k, message):
        real = OnlineClusterer.process
        calls = []

        def counted(self, x):
            calls.append(x)
            return real(self, x)

        spec = TrialSpec(k=k, generator="uniform_box", gen_params={"n": n}, oracle=oracle)
        with mock.patch.object(OnlineClusterer, "process", counted):
            with pytest.raises(ValueError, match=message):
                run_trial(spec)
        assert calls == []

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
