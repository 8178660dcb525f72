import argparse
import json
from dataclasses import fields, replace

import pytest

from nosubkm import cli
from nosubkm.cli import main, parse_gen_params
from nosubkm.harness import TrialSpec, run_experiment

# The spec `run --gen uniform_box --gen-params n=8 --k 2` builds; RUN_OPTIONS
# change one field each, except that a new source brings its own gen_params.
SOURCE = ["--gen", "uniform_box", "--gen-params", "n=8", "--k", "2"]
BASE_SPEC = TrialSpec(k=2, generator="uniform_box", gen_params={"n": 8})
RUN_OPTIONS = {
    "k": (["--gen", "uniform_box", "--gen-params", "n=8", "--k", "3"], {"k": 3}),
    "input_path": (
        ["--input", "data.csv", "--k", "2"],
        {"input_path": "data.csv", "generator": None, "gen_params": {}},
    ),
    "generator": (
        ["--gen", "alpha_k_sequence", "--gen-params", "k=2,length=8", "--k", "2"],
        {"generator": "alpha_k_sequence", "gen_params": {"k": 2, "length": 8}},
    ),
    "gen_params": (
        ["--gen", "uniform_box", "--gen-params", "n=8,d=1", "--k", "2"],
        {"gen_params": {"n": 8, "d": 1}},
    ),
    "ordering": ([*SOURCE, "--order", "shuffled"], {"ordering": "shuffled"}),
    "alpha": ([*SOURCE, "--alpha", "4.5"], {"alpha": 4.5}),
    "mode": ([*SOURCE, "--mode", "type1_only"], {"mode": "type1_only"}),
    "seed": ([*SOURCE, "--seed", "7"], {"seed": 7}),
    "oracle": ([*SOURCE, "--oracle", "lloyd"], {"oracle": "lloyd"}),
    "lloyd_restarts": ([*SOURCE, "--lloyd-restarts", "3"], {"lloyd_restarts": 3}),
    "bootstrap": ([*SOURCE, "--bootstrap", "4"], {"bootstrap": 4}),
}


class TestParseGenParams:
    def test_mixed_types(self):
        assert parse_gen_params("n=10,spread=0.5,kind=abc") == {
            "n": 10,
            "spread": 0.5,
            "kind": "abc",
        }

    def test_empty(self):
        assert parse_gen_params(None) == {}
        assert parse_gen_params("") == {}

    def test_item_without_value_refused(self):
        with pytest.raises(argparse.ArgumentTypeError, match="'n'"):
            parse_gen_params("n")


class TestSubcommands:
    def test_gen_then_run_then_lower(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        assert main([
            "gen", "--kind", "uniform_box", "--gen-params", "n=10,d=2",
            "--seed", "3", "--out", str(data),
        ]) == 0
        assert data.exists()
        capsys.readouterr()

        report = tmp_path / "report.json"
        assert main([
            "run", "--input", str(data), "--k", "2", "--order", "shuffled",
            "--trials", "2", "--seed", "7", "--out", str(report),
        ]) == 0
        payload = json.loads(report.read_text())
        assert payload["aggregate"]["trials"] == 2
        capsys.readouterr()

        assert main(["lower", "--input", str(data), "--k", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["exact"] is True
        assert out["length"] >= 1

    def test_run_to_stdout(self, tmp_path, capsys):
        assert main([
            "run", "--gen", "uniform_box", "--gen-params", "n=8,d=1",
            "--k", "2", "--seed", "1",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["aggregate"]["trials"] == 1

    def test_run_csv(self, tmp_path, capsys):
        report = tmp_path / "report.csv"
        assert main([
            "run", "--gen", "uniform_box", "--gen-params", "n=8,d=1",
            "--k", "2", "--seed", "1", "--trials", "3",
            "--out", str(report), "--format", "csv",
        ]) == 0
        assert len(report.read_text().strip().splitlines()) == 4

    def test_run_csv_to_stdout_is_the_report_file(self, tmp_path, capsys):
        argv = [
            "run", "--gen", "uniform_box", "--gen-params", "n=8,d=1",
            "--k", "2", "--seed", "1", "--trials", "3", "--format", "csv",
        ]
        report = tmp_path / "report.csv"
        assert main([*argv, "--out", str(report)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == report.read_bytes().decode()
        assert out.startswith("n,k,centers_selected,")

    def test_lower_greedy_on_large_file(self, tmp_path, capsys):
        data = tmp_path / "big.csv"
        assert main([
            "gen", "--kind", "uniform_box", "--gen-params", "n=30,d=1",
            "--seed", "5", "--out", str(data),
        ]) == 0
        capsys.readouterr()
        assert main(["lower", "--input", str(data), "--k", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["exact"] is False

    def test_lower_on_a_certified_file_is_its_length(self, tmp_path, capsys):
        data = tmp_path / "sequence.csv"
        assert main([
            "gen", "--kind", "alpha_k_sequence", "--gen-params", "k=2,length=20",
            "--seed", "2", "--out", str(data),
        ]) == 0
        capsys.readouterr()
        assert main(["lower", "--input", str(data), "--k", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["length"], out["exact"]) == (20, True)
        assert out["indices"] == list(range(20))

    def test_run_rejects_nan_alpha(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--gen", "uniform_box", "--gen-params", "n=8,d=1",
                  "--k", "2", "--order", "adversarial", "--alpha", "nan"])
        assert exit_info.value.code == 2
        assert "nosubkm run: error: alpha" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--gen-params", "n=1e3"], "'n' must be an int"),
            (["--gen-params", "n=8", "--bootstrap", "1"], "bootstrap (1) must be >= k (2)"),
            ([], "missing required parameters ['n']"),
            (["--gen-params", "n=8", "--seed", "-1"], "seed must be >= 0, got -1"),
        ],
    )
    def test_invalid_spec_is_a_usage_error(self, capsys, options, message):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--gen", "uniform_box", "--k", "2", *options])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: nosubkm run")
        assert "nosubkm run: error: " in err and message in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gen", "--kind", "uniform_box", "--out", "x.csv"], "missing required parameters"),
            (
                ["gen", "--kind", "alpha_k_sequence", "--gen-params", "k=2,length=100",
                 "--out", "x.csv"],
                "achievable length is 75",
            ),
            (
                ["gen", "--kind", "uniform_box", "--gen-params", "n=4", "--out", "no/x.csv"],
                "No such file",
            ),
            (["run", *SOURCE, "--trials", "0"], "trials must be >= 1, got 0"),
            (["run", "--input", "missing.csv", "--k", "2"], "No such file"),
            (["run", "--input", "ragged.csv", "--k", "2"], "line 2: expected 2 values, got 1"),
            (["lower", "--input", "missing.csv", "--k", "2"], "No such file"),
            (["lower", "--input", "ragged.csv", "--k", "2"], "line 2: expected 2 values, got 1"),
            (["lower", "--input", "data.csv", "--k", "0"], "k must be >= 1, got 0"),
            (
                ["run", "--gen", "uniform_box", "--gen-params", "n=12,d=1", "--k", "3"],
                "exceeds the exact limit 11",
            ),
            (
                ["run", "--input", "data.csv", "--k", "3", "--oracle", "lloyd"],
                "need at least k=3 points, got 2",
            ),
        ],
    )
    def test_bad_input_is_a_usage_error(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data.csv").write_text("0,0\n1,1\n")
        (tmp_path / "ragged.csv").write_text("0,0\n1\n")
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: nosubkm {argv[0]}")
        assert f"nosubkm {argv[0]}: error: " in err and message in err
        assert not (tmp_path / "x.csv").exists()

    def test_requires_source(self):
        with pytest.raises(SystemExit):
            main(["run", "--k", "2"])

    def test_malformed_gen_params_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", *SOURCE, "--gen-params", "n"])
        assert exit_info.value.code == 2
        assert "bad generator parameter 'n'" in capsys.readouterr().err


class TestRunOptions:
    def test_omitted_options_take_the_spec_defaults(self, capsys):
        assert main(["run", "--gen", "uniform_box", "--gen-params", "n=8,d=1", "--k", "2"]) == 0
        expected = run_experiment(
            TrialSpec(k=2, generator="uniform_box", gen_params={"n": 8, "d": 1}), 1
        )
        assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    def test_the_cases_cover_every_field(self):
        assert set(RUN_OPTIONS) == {f.name for f in fields(TrialSpec)}

    @pytest.mark.parametrize("field", RUN_OPTIONS)
    def test_each_option_fills_its_own_field(self, monkeypatch, capsys, field):
        specs = []
        monkeypatch.setattr(cli, "run_experiment", lambda spec, *_, **__: specs.append(spec) or {})
        options, changed = RUN_OPTIONS[field]
        assert main(["run", *options]) == 0
        assert specs == [replace(BASE_SPEC, **changed)]
