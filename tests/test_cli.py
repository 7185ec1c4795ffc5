import csv
import io
import json
import math
from pathlib import Path

import pytest

import test_verify
from stable_msu import verify
from stable_msu.cli import _COMMANDS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_checks(capsys, *entries):
    """Run ``entries`` as checks through ``acceptance --config`` with the
    config as inline JSON text."""
    return run_cli(capsys, "acceptance", "--config",
                   json.dumps({"checks": list(entries)}))


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
    @pytest.mark.parametrize("function,header,method", [
        ("log-gamma", ["x", "log_abs_gamma", "sign", "abs_error", "method"],
         "lgamma"),
        ("bessel-k", ["x", "value", "abs_error", "method"], "quadrature"),
        ("psi", ["x", "value", "abs_error", "method"], "quadrature"),
        ("whittaker-w", ["x", "value", "abs_error", "method"], "quadrature"),
    ], ids=["log-gamma", "bessel-k", "psi", "whittaker-w"])
    def test_csv(self, capsys, function, header, method):
        code, out, _ = run_cli(capsys, "special", "--function", function,
                               "--x-min", "1", "--x-max", "1", "--points", "1")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == header
        assert len(rows) == 2 and rows[1][-1] == method

    def test_bessel_overflow_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "special", "--function", "bessel-k",
                                 "--nu", "200", "--x-min", "1e-3",
                                 "--x-max", "1e-3", "--points", "1")
        assert code == 2
        assert out == ""
        assert "bessel_k(200.0, 0.001) overflows a double" in err

    def test_log_gamma_carries_sign(self, capsys):
        code, out, _ = run_cli(capsys, "special", "--function", "log-gamma",
                               "--x-min", "-0.6", "--x-max", "-0.6",
                               "--points", "1")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][2] == "sign"
        assert rows[1][2] == "-1"


class TestCheckCommands:
    """Every check kind runs through ``acceptance --config``, from a file
    or from inline JSON text."""

    def test_verify_factorization(self, capsys):
        code, out, _ = run_checks(capsys, {
            "name": "m", "kind": "lemma2_mellin", "pairs": [[2, 5]],
            "s_values": [0.5, 1, 2], "threshold": 1e-10})
        assert code == 0
        (report,) = json.loads(out)["checks"]
        assert report["pass"] is True
        assert report["discrepancy"] < 1e-10

    def test_verify_factorization_empty_s_grid(self, capsys):
        # it used to print a passing report with nothing checked, exit 0
        code, out, err = run_checks(capsys, {
            "name": "m", "kind": "lemma2_mellin", "pairs": [[2, 5]],
            "s_values": [], "threshold": 1e-10})
        assert code == 2
        assert out == "" and err.startswith("error: check 'm': no cases")

    def test_verify_factorization_failure_exit(self, capsys):
        code, out, _ = run_checks(capsys, {
            "name": "m", "kind": "lemma2_mellin", "pairs": [[2, 5]],
            "s_values": [0.1, 0.5, 1, 2, 5], "threshold": 1e-30})
        assert code == 1
        assert json.loads(out)["all_pass"] is False

    def test_check_laplace(self, capsys):
        code, out, _ = run_checks(capsys, {
            "name": "l", "kind": "laplace", "alpha": 0.5, "lambdas": [0, 1],
            "threshold": 1e-5})
        assert code == 0
        assert json.loads(out)["checks"][0]["pass"] is True

    def test_check_identities(self, capsys):
        code, out, _ = run_checks(capsys, {
            "name": "d", "kind": "diff_identity", "alphas": [0.5],
            "n_samples": 50_000, "seed": 9})
        assert code == 0
        assert json.loads(out)["checks"][0]["pass"] is True

    def test_every_kind_runs_from_inline_json(self, capsys):
        smallest = test_verify.TestCheckParams.SMALLEST
        code, out, err = run_checks(capsys, *(
            {"name": kind, "kind": kind, **entry}
            for kind, entry in smallest.items()))
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["all_pass"] is True
        assert sorted(c["name"] for c in payload["checks"]) == sorted(
            smallest)

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

    @pytest.mark.parametrize("command", ["density", "scan-msu", "sample"])
    @pytest.mark.parametrize("alpha", ["1/0", "0/0", "1" + "0" * 400 + "/3"],
                             ids=["1/0", "0/0", "1e400/3"])
    def test_zero_denominator_alpha(self, capsys, command, alpha):
        # Alpha.from_fraction raised ZeroDivisionError, and for 1e400/3
        # OverflowError: a traceback with exit code 1
        code, out, err = run_cli(capsys, command, "--alpha", alpha)
        assert code == 2
        assert out == "" and "--alpha" in err

    def test_threads_option_removed(self, capsys):
        code, _, _ = run_cli(capsys, "scan-msu", "--alpha", "0.6",
                             "--threads", "2")
        assert code == 2

    @pytest.mark.parametrize("text", [None, "{not json"])
    def test_acceptance_config_unreadable(self, capsys, tmp_path, text):
        # a missing file and a file that is not JSON are usage errors
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        code, out, err = run_cli(capsys, "acceptance", "--config", str(cfg))
        assert code == 2
        assert out == "" and err.startswith("error:")

    @pytest.mark.parametrize("text", ["{not json", ' {"checks": [}',
                                      "[1, 2]"])
    def test_acceptance_inline_config_not_json(self, capsys, text):
        # text that starts with "{" is parsed as JSON; other text is a
        # path, and none is found
        code, out, err = run_cli(capsys, "acceptance", "--config", text)
        assert code == 2
        assert out == "" and err.startswith("error:")


    @pytest.mark.parametrize("entry", [
        {"kind": "sampler_fidelity"},
        {"kind": "diff_identity", "alphas": []},
    ])
    def test_acceptance_empty_case_list(self, capsys, tmp_path, entry):
        # it would pass with nothing checked (and print -Infinity)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checks": [{"name": "empty", **entry}]}))
        code, out, err = run_cli(capsys, "acceptance", "--config", str(cfg))
        assert code == 2
        assert out == "" and "no cases" in err

    @pytest.mark.parametrize("entry,reason", [
        ({"kind": "sampler_fidelity", "pairs": [[2, 4]]}, "n > 2p"),
        ({"kind": "diff_identity", "alphas": [0.4, 0.4]}, "repeated"),
    ])
    def test_acceptance_malformed_monte_carlo_entry(self, capsys, tmp_path,
                                                    entry, reason):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checks": [{"name": "mc", **entry}]}))
        code, out, err = run_cli(capsys, "acceptance", "--config", str(cfg))
        assert code == 2
        assert out == "" and reason in err

    @pytest.mark.parametrize("entry,reason", [
        ({"kind": "closed_form", "alpha": [1, 0], "threshold": 1e-8},
         "two integers"),
        ({"kind": "diff_identity", "alphas": 0.5}, "must be a list"),
        ({"kind": "closed_form", "alpha": [1, 2, 3], "threshold": 1e-8},
         "two integers"),
        ({"kind": "closed_form", "alpha": [1.5, 3], "threshold": 1e-8},
         "two integers"),
        ({"kind": "lemma2_mellin", "pairs": [[2.7, 5]], "s_values": [1.0],
          "threshold": 1e-10}, "two integers"),
        ({"kind": "diff_identity", "alphas": [0.5], "n_samples": [1]},
         "n_samples must be an integer"),
        ({"kind": "sampler_fidelity", "alphas": [0.5], "n_samples": 1.5},
         "n_samples must be an integer"),
        ({"kind": "tail_sign", "alpha_step": 1}, "alpha_step must be"),
        ({"kind": "tail_sign", "alpha_step": 1e-9}, "alpha_step must be"),
        ({"kind": "ualpha_dichotomy", "alpha_step": 5e-5},
         "alpha_step must be"),
        ({"kind": "ualpha_dichotomy", "x_max": 1e308}, "x_max must be"),
        ({"kind": "closed_form", "alpha": [1, 2], "threshold": 1e-8,
          "x_hi": 1e300}, "x_hi must be"),
        ({"kind": "msu_dichotomy", "alphas_violation": [0.7, 0.7000001]},
         "repeated cases ['0.7']"),
        ({"kind": "closed_form", "alpha": [1, 2], "threshold": 1e-8,
          "x_lo": 1e-4}, "check 'bad': the series is flagged unreliable "
         "at x = 0.0001"),
        ({"kind": "half_alpha_residual", "xs": [6e-4], "threshold": 1e-7},
         "check 'bad': the series is flagged unreliable at x = 0.0006"),
        ({"kind": "half_alpha_residual", "xs": [8e-4], "threshold": 1e-7},
         "check 'bad': the series is flagged unreliable at x = 0.0008"),
        ({"kind": "bb_crosscheck", "alphas": [0.3], "t_lo": 690,
          "t_hi": 700, "threshold": 1e-5},
         "check 'bad': discrepancy is inf, not a finite number"),
        ({"kind": "half_alpha_residual", "xs": [0.01], "threshold": 1e-7},
         "check 'bad': the series is flagged unreliable at x = 0.01"),
        ({"kind": "lemma2_mellin", "pairs": [[2, 5], [2, 5]],
          "s_values": [1.0], "threshold": 1e-10}, "repeated cases ['2/5']"),
        ({"kind": "lemma1_inequality",
          "triples": [[0.4, 0.6, 0.9], [0.4, 0.6, 0.9]], "floor": -1e-10},
         "repeated cases ['(0.4,0.6,0.9)']"),
        ({"kind": "laplace", "alpha": 0.5, "lambdas": [0.5, 0.5, 1],
          "threshold": 1e-5}, "check 'bad': repeated cases [0.5]"),
        ({"kind": "lemma2_mellin", "pairs": [[2, 5]], "s_values": [1, 1.0],
          "threshold": 1e-10}, "check 'bad': repeated cases [1.0]"),
        ({"kind": "closed_form", "alpha": [10 ** 400, 3], "threshold": 1e-8},
         "check 'bad': alpha: alpha = 1" + "0" * 400 + "/3 needs integers"),
    ], ids=["zero-denominator", "alphas-not-a-list", "three-integers",
            "float-numerator", "float-pair", "list-n-samples",
            "float-n-samples", "step-1", "step-1e-9", "step-5e-5",
            "x-max-1e308", "x-hi-1e300", "repeated-scan",
            "closed-form-zero-reference", "half-residual-zero-reference",
            "half-residual-nan", "bb-zero-reference",
            "half-residual-unreliable", "repeated-pair", "repeated-triple",
            "repeated-lambda", "repeated-s", "huge-fraction"])
    def test_acceptance_malformed_spec(self, capsys, tmp_path, entry,
                                       reason):
        # zero-denominator, alphas-not-a-list and list-n-samples ended in
        # a traceback with exit code 1; the others were truncated to
        # another alpha, pair or sample size and passed, or, for the step,
        # tested no alpha and passed.  A step of 1e-9 swept about 10^9
        # alphas; x_max 1e308 failed on a NaN grid and x_hi 1e300 ended
        # in an OverflowError traceback.  A repeated scan key overwrote
        # one scan's summary with the other's, and passed.  The three
        # zero references (the closed form at x = 1e-4, f^2 underflowing
        # at x = 6e-4, the series density at t = 690) ended in a
        # ZeroDivisionError traceback, and then in the JSON write's
        # error, naming no check, once every check had run.  At x = 8e-4
        # the series residual is NaN, which max() passed over: check 05
        # passed with discrepancy 0.  At x = 0.01 check 05 failed on a
        # residual that the series flags unreliable.  A repeated pair or
        # triple ran twice under one details key and passed; a repeated
        # lambda or s was reported once.  The fraction [10**400, 3] ended
        # in an OverflowError traceback, as p / n was formed first
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checks": [{"name": "bad", **entry}]}))
        code, out, err = run_cli(capsys, "acceptance", "--config", str(cfg))
        assert code == 2
        assert out == "" and err.startswith("error:") and reason in err

    @pytest.mark.parametrize("entry,key", [
        ({"kind": "half_alpha_residual", "xs": [-1.0], "threshold": 1e-7},
         "xs"),
        ({"kind": "laplace", "alpha": 0.5, "lambdas": [-1.0],
          "threshold": 1e-5}, "lambdas"),
        ({"kind": "laplace", "alpha": 0.5, "lambdas": [1e-310],
          "threshold": 1e-5}, "lambdas"),
        ({"kind": "lemma2_mellin", "pairs": [[2, 5]], "s_values": [-3.0],
          "threshold": 1e-10}, "s_values"),
        ({"kind": "lemma1_inequality", "triples": [[0.4, 1.5, 0.9]],
          "floor": -1e-10}, "triples"),
        ({"kind": "lemma2_mellin", "pairs": [[2, 5]], "s_values": [1000.0],
          "threshold": 1e-10}, "s_values"),
        ({"kind": "laplace", "alpha": 0.5, "lambdas": [10 ** 400],
          "threshold": 1e-5}, "lambdas"),
        ({"kind": "closed_form", "alpha": [1, 2], "threshold": 10 ** 400},
         "threshold"),
        ({"kind": "sampler_fidelity", "pairs": [[2, 200]]}, "pairs"),
    ], ids=["negative-x", "negative-lambda", "tiny-lambda", "s-below-domain",
            "b-above-1", "s-moment-overflow", "huge-lambda", "huge-threshold",
            "pair-scale-overflow"])
    def test_acceptance_case_outside_domain(self, capsys, tmp_path,
                                            monkeypatch, entry, key):
        # these raised DomainError or HypothesisError, naming neither the
        # check nor the key, once check 04 before them had run.  At s =
        # 1000 the moment of (2, 5) overflows, which was found only as
        # the check ran; the integer 10**400, too large for a double, and
        # n = 200, whose scale n^n / p^p is, ended in an OverflowError
        # traceback with exit code 1
        ran = []
        for kind, check in list(verify.CHECK_KINDS.items()):
            monkeypatch.setitem(verify.CHECK_KINDS, kind,
                                lambda params, check=check:
                                    ran.append(params["name"])
                                    or check(params))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checks": [
            {"name": "t", "kind": "tail_sign"}, {"name": "bad", **entry}]}))
        code, out, err = run_cli(capsys, "acceptance", "--config", str(cfg))
        assert code == 2
        assert out == "" and ran == []
        assert err.startswith(f"error: check 'bad': {key} must ")

    @pytest.mark.parametrize("config,reason", [
        ([1, 2], "a list of checks"),
        ({"checks": [1]}, "a check must be an object"),
        ({"checks": [{"name": 5, "kind": "tail_sign"},
                     {"name": "a", "kind": "tail_sign"}]}, "got 5"),
        ({"checks": [{"name": "t", "kind": "tail_sign"},
                     {"name": "t", "kind": "tail_sign"}]}, "got 't'"),
        ({"chekcs": [{"name": "t", "kind": "tail_sign"}]}, "chekcs"),
        ({"schema": 2, "checks": [{"name": "t", "kind": "tail_sign"}]},
         "schema must be 1"),
    ], ids=["list", "entry-not-object", "name-not-string", "repeated-name",
            "misspelled-checks", "schema-2"])
    def test_acceptance_malformed_config(self, capsys, tmp_path, config,
                                         reason):
        # the first two ended in a traceback with exit code 1, the third
        # in one after every check had run; a repeated name gave two
        # reports under one name; the last two passed with exit 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "acceptance", "--config", str(cfg))
        assert code == 2
        assert out == "" and err.startswith("error:") and reason in err

    def test_acceptance_missing_required_key(self, capsys, tmp_path):
        # the check used to raise KeyError, a traceback with exit code 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checks": [
            {"name": "a", "kind": "closed_form", "alpha": 0.5}]}))
        code, out, err = run_cli(capsys, "acceptance", "--config", str(cfg))
        assert code == 2
        assert out == "" and "threshold" in err


    @pytest.mark.parametrize("lambdas", [
        [math.nan], [math.inf], [0, 1, math.nan], [], [0.5, 0.5], [1, 1.0, 2],
    ], ids=["nan", "inf", "0,1,nan", "", "0.5,0.5", "1,1.0,2"])
    def test_check_laplace_bad_lambdas(self, capsys, lambdas):
        # nan used to end in a traceback, inf to print "discrepancy": NaN,
        # an empty list to pass with nothing checked and a repeated lambda
        # to report one case for two (JSON text spells them NaN, Infinity)
        code, out, err = run_checks(capsys, {
            "name": "l", "kind": "laplace", "alpha": 0.5, "lambdas": lambdas,
            "threshold": 1e-5})
        assert code == 2
        assert out == "" and err.startswith("error: check 'l': ")

    @pytest.mark.parametrize("argv,message", [
        (("special", "--function", "bessel-k", "--x-min", "nan"), "x > 0"),
        (("scan-msu", "--alpha", "0.5", "--x-max", "inf"), "x_hi < inf"),
        (("acceptance", "--config", '{"checks": [{"name": "l", "kind": '
          '"laplace", "alpha": 0.5, "lambdas": [1e-310], '
          '"threshold": 1e-5}]}'), "check 'l': lambdas must be"),
    ], ids=["bessel-nan", "scan-inf", "laplace-tiny"])
    def test_out_of_domain_argument(self, capsys, argv, message):
        # the first two used to exit 0; the last failed only in JSON
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == "" and err.startswith("error:") and message in err

    def test_non_finite_json_field(self, capsys, monkeypatch):
        # a report that holds a NaN is not valid JSON: nothing is printed
        report = verify.IdentityReport(name="nan", discrepancy=math.nan,
                                       threshold=1.0, passed=False)
        monkeypatch.setitem(verify.CHECK_KINDS, "laplace",
                            lambda params: report)
        code, out, err = run_checks(capsys, {
            "name": "l", "kind": "laplace", "alpha": 0.5, "lambdas": [1.0],
            "threshold": 1e-5})
        assert code == 2
        assert out == "" and err.startswith(
            "error: check 'l': discrepancy is nan")


class TestHelp:
    def test_top_level_lists_every_subcommand(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        for name in _COMMANDS:
            assert name in out

    @pytest.mark.parametrize("name", sorted(_COMMANDS))
    def test_subcommand_help(self, capsys, name):
        code, out, _ = run_cli(capsys, name, "--help")
        assert code == 0
        assert out.startswith("usage:")


class TestReadme:
    def test_command_block_names_every_subcommand(self):
        # the README's command-line block shows exactly the subcommands
        # there are, as its config table shows exactly CHECK_PARAMS
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text().split("## Command line\n")[1]
        block = section.split("```sh\n")[1].split("```")[0]
        named = {line.split()[1] for line in block.splitlines()
                 if line.startswith("stable-msu ")}
        assert named == set(_COMMANDS)
