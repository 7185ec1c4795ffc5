import csv
import io
import json
import math

import pytest

from stable_msu.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDensityCommand:
    def test_row_count_and_header(self, capsys):
        code, out, _ = run_cli(capsys, "density", "--alpha", "0.5",
                               "--x-min", "0.1", "--x-max", "10",
                               "--points", "100")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["x", "f", "f_err", "fp", "fpp", "reliable"]
        assert len(rows) == 101

    def test_full_precision_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "density", "--alpha", "0.5",
                            "--x-min", "1", "--x-max", "1", "--points", "1")
        row = list(csv.reader(io.StringIO(out)))[1]
        f = float(row[1])
        assert f == pytest.approx(math.exp(-0.25) / (2 * math.sqrt(math.pi)),
                                  rel=1e-12)

    def test_fraction_alpha(self, capsys):
        code, out, _ = run_cli(capsys, "density", "--alpha", "2/3",
                               "--points", "3")
        assert code == 0
        assert len(out.strip().splitlines()) == 4


class TestScanCommand:
    def test_json_summary(self, capsys):
        code, out, _ = run_cli(capsys, "scan-msu", "--alpha", "0.6",
                               "--x-min", "0.5", "--x-max", "50",
                               "--points", "64")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["classification"] == "violation_found"
        assert payload["witness"] is not None

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "scan-msu", "--alpha", "0.4",
                               "--points", "32", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["x", "g", "g_err", "g_over_f2", "reliable"]
        assert len(rows) == 33

    def test_csv_file_sidecar(self, capsys, tmp_path):
        target = tmp_path / "grid.csv"
        code, out, _ = run_cli(capsys, "scan-msu", "--alpha", "0.4",
                               "--points", "32", "--csv", str(target))
        assert code == 0
        json.loads(out)  # stdout stays JSON
        _, csv_out, _ = run_cli(capsys, "scan-msu", "--alpha", "0.4",
                                "--points", "32", "--format", "csv")
        assert csv_out.startswith("x,g,g_err")
        assert target.read_bytes() == csv_out.encode()


class TestSampleCommand:
    def test_seeded_determinism(self, capsys):
        _, out1, _ = run_cli(capsys, "sample", "--alpha", "0.4",
                             "--count", "5", "--seed", "42")
        _, out2, _ = run_cli(capsys, "sample", "--alpha", "0.4",
                             "--count", "5", "--seed", "42")
        assert out1 == out2
        assert len(out1.strip().splitlines()) == 5
        assert all(float(line) > 0 for line in out1.strip().splitlines())

    def test_seed_changes_output(self, capsys):
        _, out1, _ = run_cli(capsys, "sample", "--alpha", "0.4", "--count",
                             "5", "--seed", "1")
        _, out2, _ = run_cli(capsys, "sample", "--alpha", "0.4", "--count",
                             "5", "--seed", "2")
        assert out1 != out2


class TestSpecialCommand:
    def test_bessel_csv(self, capsys):
        code, out, _ = run_cli(capsys, "special", "--function", "bessel-k",
                               "--nu", "0.3333333333333333", "--x-min", "1",
                               "--x-max", "1", "--points", "1")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["x", "value", "abs_error", "method"]
        assert rows[1][3] == "quadrature"

    def test_log_gamma_carries_sign(self, capsys):
        code, out, _ = run_cli(capsys, "special", "--function", "log-gamma",
                               "--x-min", "-0.6", "--x-max", "-0.6",
                               "--points", "1")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][2] == "sign"
        assert rows[1][2] == "-1"


class TestCheckCommands:
    def test_verify_factorization(self, capsys):
        code, out, _ = run_cli(capsys, "verify-factorization", "--p", "2",
                               "--n", "5", "--s-grid", "0.5,1,2")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["discrepancy"] < 1e-10

    def test_verify_factorization_failure_exit(self, capsys):
        code, out, _ = run_cli(capsys, "verify-factorization", "--p", "2",
                               "--n", "5", "--threshold", "1e-30")
        assert code == 1

    def test_check_laplace(self, capsys):
        code, out, _ = run_cli(capsys, "check-laplace", "--alpha", "0.5",
                               "--lambdas", "0,1")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_check_identities(self, capsys):
        code, out, _ = run_cli(capsys, "check-identities", "--alpha", "0.5",
                               "--count", "50000", "--seed", "9")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_acceptance_with_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checks": [
            {"name": "tails", "kind": "tail_sign", "alpha_step": 0.1}]}))
        code, out, _ = run_cli(capsys, "acceptance", "--config", str(cfg))
        assert code == 0
        payload = json.loads(out)
        assert payload["all_pass"] is True
        assert payload["schema"] == 1

    def test_acceptance_failure_exit_code(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checks": [
            {"name": "wrong", "kind": "msu_dichotomy", "alphas_msu": [0.6],
             "points": 100}]}))
        code, out, _ = run_cli(capsys, "acceptance", "--config", str(cfg))
        assert code == 1


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "density", "--alpha", "0.5",
                               "--bogus", "1")
        assert code == 2

    def test_missing_subcommand(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    def test_bad_alpha_value(self, capsys):
        code, _, err = run_cli(capsys, "density", "--alpha", "1.5")
        assert code == 2

    def test_threads_option_removed(self, capsys):
        code, _, _ = run_cli(capsys, "scan-msu", "--alpha", "0.6",
                             "--threads", "2")
        assert code == 2
