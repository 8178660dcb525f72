import argparse
import json

import pytest

from nosubkm.cli import main, parse_gen_params


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

    def test_run_rejects_nan_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            main(["run", "--gen", "uniform_box", "--gen-params", "n=8,d=1",
                  "--k", "2", "--order", "adversarial", "--alpha", "nan"])

    def test_requires_source(self):
        with pytest.raises(SystemExit):
            main(["run", "--k", "2"])
