"""Command-line interface: exit codes, JSON shape, determinism."""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from catconv import suite
from catconv.cli import (
    EXIT_MISMATCH,
    EXIT_NUMERIC,
    EXIT_PASS,
    EXIT_USAGE,
    build_parser,
    main,
)
from catconv.report import CaseRecord, VerificationReport

# sha256 of `catconv all --quick --format json --no-timing --jobs 1` stdout
QUICK_SUITE_SHA256 = (
    "08607fa8f273bfb06c0849850af7a5884c704398e75012ef8fe34452e98dd8c6"
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


class TestVerifyCommand:
    def test_full_grid_json(self, capsys):
        code, payload = run_json(
            capsys,
            "verify", "--identity", "thm-a",
            "--n", "0..40", "--lambda", "0..10",
            "--format", "json",
        )
        assert code == EXIT_PASS
        assert payload["command"] == "verify"
        assert payload["cases_run"] == 451
        assert payload["skipped"] == 0
        assert payload["failures"] == []
        assert payload["flagged"] == []
        assert payload["reports"][0]["name"] == "thm-a"
        assert payload["config_echo"]["identity"] == "thm-a"
        assert payload["config_echo"]["n"] == "0..40"

    def test_single_n_value_is_accepted(self, capsys):
        code, payload = run_json(
            capsys,
            "verify", "--identity", "recurrence", "--n", "17",
            "--format", "json",
        )
        assert code == EXIT_PASS
        assert payload["cases_run"] == 1

    def test_rational_parameter_grids(self, capsys):
        code, payload = run_json(
            capsys,
            "verify", "--identity", "prop-a",
            "--n", "0..10", "--a", "1/2,1", "--c", "5/2",
            "--format", "json",
        )
        assert code == EXIT_PASS
        assert payload["cases_run"] == 22

    def test_flagged_discrepancy_is_pass_by_default(self, capsys):
        code, payload = run_json(
            capsys,
            "verify", "--identity", "cor-2",
            "--n", "0..10", "--lambda", "0..3",
            "--format", "json",
        )
        assert code == EXIT_PASS
        assert payload["failures"] == []
        assert payload["flagged"]
        record = payload["flagged"][0]
        assert "lhs" in record and "rhs" in record and "note" in record

    def test_strict_printed_turns_flags_into_mismatch(self, capsys):
        code, payload = run_json(
            capsys,
            "verify", "--identity", "cor-2",
            "--n", "0..10", "--lambda", "0..3",
            "--strict-printed", "--format", "json",
        )
        assert code == EXIT_MISMATCH
        assert payload["failures"] == []

    def test_strict_printed_text_verdict(self, capsys):
        code, out = run_cli(
            capsys,
            "verify", "--identity", "cor-2",
            "--n", "0..4", "--lambda", "0..1",
            "--strict-printed",
        )
        assert code == EXIT_MISMATCH
        assert "FAIL (flagged, strict)" in out

    def test_unknown_identity_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--identity", "thm-z", "--n", "0..4"])
        assert excinfo.value.code == EXIT_USAGE

    def test_bad_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--identity", "thm-a", "--n", "4..x"])
        assert excinfo.value.code == EXIT_USAGE

    def test_missing_required_lambda_range(self, capsys):
        # thm-a cannot sweep without a lam range
        code, out = run_cli(
            capsys, "verify", "--identity", "thm-a", "--n", "0..4"
        )
        assert code == EXIT_USAGE


class TestSuiteVerdict:
    # `catconv all` over stub criteria: the exit code, the JSON "ok" and
    # the text overall line all follow from the criteria's verdicts
    ALL = ("all", "--quick", "--no-timing")
    FLAG = CaseRecord(params=(("n", 1),), lhs=Fraction(1), rhs=Fraction(2))

    @staticmethod
    def stub(monkeypatch, passed=True, flagged=()):
        result = suite.CriterionResult(
            number=3,
            title="stub criterion",
            passed=passed,
            reports=[
                VerificationReport(
                    name="stub", cases_run=1, flagged=list(flagged)
                )
            ],
            elapsed_s=0.0,
        )
        monkeypatch.setattr(
            suite, "CRITERIA", ((3, lambda sizes, jobs=1: result),)
        )

    def test_failed_criterion_without_failure_records(
        self, capsys, monkeypatch
    ):
        # criterion 3 fails on too few admissible pairs, with every case ok
        self.stub(monkeypatch, passed=False)
        code, payload = run_json(capsys, *self.ALL, "--format", "json")
        assert code == EXIT_MISMATCH
        assert payload["ok"] is False and payload["failures"] == []
        code, out = run_cli(capsys, *self.ALL)
        assert code == EXIT_MISMATCH
        assert "criterion  3 FAIL  stub criterion" in out
        assert out.rstrip().endswith("overall: FAIL")

    def test_flags_alone_pass(self, capsys, monkeypatch):
        self.stub(monkeypatch, flagged=[self.FLAG])
        code, out = run_cli(capsys, *self.ALL)
        assert code == EXIT_PASS
        assert out.rstrip().endswith(
            "overall: PASS (with flagged discrepancies)"
        )

    def test_flags_fail_under_strict_printed(self, capsys, monkeypatch):
        self.stub(monkeypatch, flagged=[self.FLAG])
        code, out = run_cli(capsys, *self.ALL, "--strict-printed")
        assert code == EXIT_MISMATCH
        assert out.rstrip().endswith("overall: FAIL (flagged, strict)")

    def test_error_during_all_reports_no_criteria(self, capsys, monkeypatch):
        def broken(sizes, jobs=1):
            raise ValueError("bad grid")

        monkeypatch.setattr(suite, "CRITERIA", ((1, broken),))
        code, payload = run_json(capsys, *self.ALL, "--format", "json")
        assert code == EXIT_USAGE
        assert payload["reports"] == []
        assert "ok" not in payload and "criteria" not in payload
        assert payload["error"] == {
            "type": "ValueError", "message": "bad grid"
        }

    def test_internal_error_has_its_own_exit_code(self, capsys, monkeypatch):
        # an unexpected exception is not a mismatch (exit 1)
        from catconv.cli import EXIT_INTERNAL

        def broken(quick=False):
            raise RuntimeError("boom")

        monkeypatch.setattr(suite, "run_all", broken)
        code = main([*self.ALL, "--format", "json"])
        captured = capsys.readouterr()
        assert code == EXIT_INTERNAL == 4
        payload = json.loads(captured.out)
        assert payload["error"] == {"type": "RuntimeError", "message": "boom"}
        assert captured.err.startswith("Traceback")
        assert captured.err.splitlines()[-1] == "catconv: RuntimeError: boom"


class TestNRangeOption:
    # the identity or family each command needs before it parses
    COMMANDS = (
        ("verify", "--identity", "thm-a"),
        ("fourf3",),
        ("integral", "--which", "thm-a"),
    )

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize("n", ["-3..2", "-1", "-5..-2"])
    def test_negative_lower_end_is_usage_error(self, command, n):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([*command, f"--n={n}"])
        assert excinfo.value.code == EXIT_USAGE

    def test_verify_rejects_before_any_case(self, capsys):
        # this used to exit 0 after six silent skips
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--identity", "thm-a", "--n=-3..2", "--lambda", "0..1"])
        assert excinfo.value.code == EXIT_USAGE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_zero_lower_end_is_kept(self, command):
        assert build_parser().parse_args([*command, "--n", "0..3"]).n == (0, 3)

    def test_lambda_stays_signed(self):
        args = build_parser().parse_args(["fourf3", "--n", "0..5", "--lambda=-3..2"])
        assert args.lam == (-3, 2)


class TestLambdaMuRangeOption:
    # the command and the option whose lower end must be nonnegative
    OPTIONS = [
        pytest.param(("verify", "--identity", "thm-a"), "--lambda",
                     id="verify-lambda"),
        pytest.param(("verify", "--identity", "thm-e"), "--mu",
                     id="verify-mu"),
        pytest.param(("integral", "--which", "thm-a"), "--lambda",
                     id="integral-lambda"),
    ]

    @pytest.mark.parametrize("command, option", OPTIONS)
    @pytest.mark.parametrize("value", ["-3..0", "-1", "-5..-2"])
    def test_negative_lower_end_is_usage_error(self, command, option, value):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([*command, f"{option}={value}"])
        assert excinfo.value.code == EXIT_USAGE

    @pytest.mark.parametrize("command, option", OPTIONS)
    def test_zero_lower_end_is_kept(self, command, option):
        args = build_parser().parse_args([*command, option, "0..3"])
        assert getattr(args, "lam" if option == "--lambda" else "mu") == (0, 3)

    @pytest.mark.parametrize(
        "argv",
        [
            # these used to exit 0 after nine silent skips, and exit 2
            # only after the first case had started
            ["verify", "--identity", "thm-a", "--n", "0..2", "--lambda=-3..0"],
            ["verify", "--identity", "thm-e", "--n", "0..2", "--lambda", "0",
             "--mu=-1..1"],
            ["integral", "--which", "thm-a", "--n", "0..1", "--lambda=-1..0"],
        ],
        ids=["verify-lambda", "verify-mu", "integral-lambda"],
    )
    def test_rejected_before_any_case(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == EXIT_USAGE
        assert capsys.readouterr().out == ""


class TestDeterminism:
    ARGS = (
        "verify", "--identity", "thm-c",
        "--n", "0..12", "--lambda", "0..4",
        "--format", "json", "--no-timing",
    )

    def test_identical_output_across_runs(self, capsys):
        _, first = run_cli(capsys, *self.ARGS)
        _, second = run_cli(capsys, *self.ARGS)
        assert first == second

    def test_quick_suite_is_byte_identical_across_jobs(self, catconv_env):
        def quick_suite(jobs):
            proc = subprocess.run(
                [
                    sys.executable, "-m", "catconv", "all", "--quick",
                    "--format", "json", "--no-timing", "--jobs", jobs,
                ],
                capture_output=True,
                timeout=300,
                env=catconv_env,
            )
            assert proc.returncode == 0, proc.stderr[-2000:]
            return proc.stdout

        serial, pooled = quick_suite("1"), quick_suite("2")
        # the config echoes the --jobs asked for; every other byte agrees
        assert serial.count(b'"jobs": 1,') == 1
        assert serial.replace(b'"jobs": 1,', b'"jobs": 2,') == pooled
        # the refactor gate: a change that keeps every verdict, case count,
        # skip and witness keeps this digest; one that means to move them
        # states the new digest here
        assert hashlib.sha256(serial).hexdigest() == QUICK_SUITE_SHA256

    def test_no_timing_strips_elapsed_keys(self, capsys):
        _, payload = run_json(capsys, *self.ARGS)
        assert "elapsed_ms" not in payload
        assert all("elapsed_ms" not in r for r in payload["reports"])

    def test_timing_present_by_default(self, capsys):
        code, payload = run_json(
            capsys,
            "verify", "--identity", "recurrence", "--n", "0..5",
            "--format", "json",
        )
        assert code == EXIT_PASS
        assert "elapsed_ms" in payload


class TestJobsOption:
    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_nonpositive_or_malformed_is_usage_error(self, value):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["all", f"--jobs={value}"])
        assert excinfo.value.code == EXIT_USAGE

    def test_parser_keeps_the_requested_count(self):
        # the echoed config is the same on every host
        parser = build_parser()
        assert parser.parse_args(["all", "--jobs", "2"]).jobs == 2
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(["fourf3", "--jobs", "64"])
        assert excinfo.value.code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--identity", "thm-a"),
            ("coeffs", "--formula", "clausen"),
            ("fourf3",),
            ("gamma-selftest",),
            ("numeric", "--family", "dixon"),
            ("integral", "--which", "thm-a"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_only_all_takes_jobs(self, capsys, argv):
        # nothing but `all` would read it, so elsewhere it is not echoed
        # as if applied
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--jobs", "2"])
        assert excinfo.value.code == EXIT_USAGE
        assert capsys.readouterr().out == ""


class TestUnreadOptions:
    # an option the chosen identity, formula or family does not read is a
    # usage error before anything is checked, not silently dropped
    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ("verify", "--identity", "recurrence", "--n", "0..3",
                 "--lambda", "0..2", "--mu", "0..1", "--a", "1/2"),
                "--lambda is not a parameter of recurrence",
            ),
            (
                ("coeffs", "--formula", "clausen", "--a", "1/2", "--c", "2",
                 "--lambda", "3"),
                "--lambda is read only by lemma-linear",
            ),
            (
                ("numeric", "--family", "dixon", "--c", "1/2",
                 "--lambda", "3"),
                "--lambda is read only by linear4f3",
            ),
            (
                ("numeric", "--family", "linear4f3", "--e", "1/2",
                 "--lambda", "3"),
                "--e needs --a",
            ),
        ],
    )
    def test_rejected_before_any_case(self, capsys, argv, message):
        code, payload = run_json(capsys, *argv, "--format", "json")
        assert code == EXIT_USAGE
        assert (payload["cases_run"], payload["skipped"]) == (0, 0)
        assert payload["error"] == {"type": "ValueError", "message": message}


class TestOtherCommands:
    def test_coeffs_single_point(self, capsys):
        code, payload = run_json(
            capsys,
            "coeffs", "--formula", "bailey-dixon",
            "--a", "1", "--c", "2", "--order", "16",
            "--format", "json",
        )
        assert code == EXIT_PASS
        assert payload["cases_run"] == 1

    def test_coeffs_grid_sweep(self, capsys):
        code, payload = run_json(
            capsys,
            "coeffs", "--formula", "clausen", "--order", "12",
            "--format", "json",
        )
        assert code == EXIT_PASS
        assert payload["cases_run"] > 30

    def test_coeffs_lemma_needs_lambda(self, capsys):
        code, payload = run_json(
            capsys,
            "coeffs", "--formula", "lemma-linear",
            "--a", "1/2", "--c", "2",
            "--format", "json",
        )
        assert code == EXIT_USAGE
        assert payload["error"]["type"] == "DegenerateLambda"

    def test_coeffs_requires_both_or_neither(self, capsys):
        code, payload = run_json(
            capsys,
            "coeffs", "--formula", "clausen", "--a", "1/2",
            "--format", "json",
        )
        assert code == EXIT_USAGE
        assert payload["error"]["type"] == "ValueError"

    def test_fourf3_reports_both_checks(self, capsys):
        code, payload = run_json(
            capsys,
            "fourf3", "--n", "0..6", "--lambda", "1..2",
            "--c", "1/3", "--e", "1/5",
            "--format", "json",
        )
        assert code == EXIT_PASS
        names = [r["name"] for r in payload["reports"]]
        assert names == ["terminating-4f3", "contiguous-relation"]
        assert payload["cases_run"] == 28

    def test_fourf3_skips_undefined_points(self, capsys):
        # c = -1, e = -2 and lam = -3..-1 put a zero in a lower parameter
        # once n is large enough, lam = 0 is degenerate; the rest must pass
        code, payload = run_json(
            capsys,
            "fourf3", "--n", "0..5", "--lambda=-3..2",
            "--c=-1,1/3", "--e=1/5,-2",
            "--format", "json",
        )
        assert code == EXIT_PASS
        assert payload["failures"] == []
        for report in payload["reports"]:
            assert (report["cases_run"], report["skipped"]) == (55, 89)

    def test_gamma_selftest(self, capsys):
        code, payload = run_json(
            capsys, "gamma-selftest", "--prec", "30", "--format", "json"
        )
        assert code == EXIT_PASS
        assert payload["cases_run"] == 9

    def test_numeric_single_point(self, capsys):
        code, payload = run_json(
            capsys,
            "numeric", "--family", "dixon",
            "--a", "1/2", "--c", "1/4", "--e", "1/4",
            "--format", "json",
        )
        assert code == EXIT_PASS
        assert payload["cases_run"] == 1

    def test_numeric_nonconvergent_exit_code(self, capsys):
        code, payload = run_json(
            capsys,
            "numeric", "--family", "dixon",
            "--a", "1", "--c", "3/2", "--e", "3/2",
            "--format", "json",
        )
        assert code == EXIT_NUMERIC
        assert payload["error"]["type"] == "NonConvergent"
        assert set(payload["error"]) == {"type", "message"}

    def test_numeric_pole_exit_code(self, capsys):
        code, payload = run_json(
            capsys,
            "numeric", "--family", "dixon",
            "--a", "1", "--c", "2", "--e", "2",
            "--format", "json",
        )
        assert code == EXIT_NUMERIC
        assert payload["error"]["type"] == "PoleError"

    def test_numeric_zero_term_ends_the_sum(self, capsys):
        # c = -1 zeroes the second term, so the lower pole of 1 + a - c
        # at k = 4 is never reached
        code, payload = run_json(
            capsys,
            "numeric", "--family", "dixon",
            "--a=-6", "--c=-1", "--e", "1/5",
            "--format", "json",
        )
        assert code == EXIT_PASS
        assert (payload["cases_run"], payload["skipped"]) == (1, 0)

    @pytest.mark.parametrize(
        "point",
        [
            ["--family", "dixon", "--a", "5/2", "--c=-1", "--e", "1/4"],
            ["--family", "dminus", "--a", "5/2", "--c=-1", "--e", "1/4"],
            ["--family", "linear4f3", "--a", "5/2", "--c=-1", "--e", "1/4",
             "--lambda", "2"],
            ["--family", "dixon", "--a", "5/2", "--c", "1/3", "--e=-2"],
        ],
        ids=["dixon", "dminus", "linear4f3", "dixon-e"],
    )
    def test_numeric_terminates_on_any_upper(self, capsys, point):
        # c = -1 or e = -2 makes the series finite with a non-integer a: a
        # verdict, not a configuration error from the Levin transform
        code, payload = run_json(capsys, "numeric", *point, "--format", "json")
        assert code == EXIT_PASS
        assert (payload["cases_run"], payload["skipped"]) == (1, 0)

    @pytest.mark.parametrize("lam", ["-1", "-3"])
    def test_numeric_linear4f3_column_is_a_pole(self, capsys, lam):
        # 1 + lam is an upper parameter but does not end the series; the
        # lower lam is a pole, as for a nonterminating point
        code, payload = run_json(
            capsys,
            "numeric", "--family", "linear4f3",
            "--a", "5/2", "--c", "1/3", "--e", "1/4", f"--lambda={lam}",
            "--format", "json",
        )
        assert code == EXIT_NUMERIC
        assert payload["error"]["type"] == "PoleError"

    def test_numeric_linear4f3_skips_an_undefined_point(self, capsys):
        # 1 + a - c = -4 vanishes within the seven terms: the 4F3 is
        # undefined there, as in fourf3, not a mismatch
        code, payload = run_json(
            capsys,
            "numeric", "--family", "linear4f3",
            "--a=-6", "--c=-1", "--e", "1/5", "--lambda", "2",
            "--format", "json",
        )
        assert code == EXIT_PASS
        assert (payload["cases_run"], payload["skipped"]) == (0, 1)
        assert payload["failures"] == []

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_numeric_max_terms_below_one_is_usage_error(self, capsys, value):
        # bad input, not a numeric failure (exit 3) after summing no terms
        with pytest.raises(SystemExit) as excinfo:
            main(["numeric", "--family", "dixon", f"--max-terms={value}"])
        assert excinfo.value.code == EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_numeric_incomplete_point(self, capsys):
        code, payload = run_json(
            capsys,
            "numeric", "--family", "dixon", "--a", "1/2",
            "--format", "json",
        )
        assert code == EXIT_USAGE

    def test_integral_sweep(self, capsys):
        code, payload = run_json(
            capsys,
            "integral", "--which", "thm-a",
            "--n", "0..2", "--lambda", "0..1",
            "--format", "json",
        )
        assert code == EXIT_PASS
        assert payload["cases_run"] == 6

    def test_out_writes_same_rendering(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out = run_cli(
            capsys,
            "verify", "--identity", "touchard", "--n", "0..8",
            "--format", "json", "--no-timing", "--out", str(target),
        )
        assert code == EXIT_PASS
        assert target.read_text() == out

    def test_unwritable_out_is_a_configuration_error(
        self, tmp_path, catconv_env
    ):
        target = tmp_path / "missing" / "report.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "catconv",
                "verify", "--identity", "touchard", "--n", "0..8",
                "--no-timing", "--out", str(target),
            ],
            capture_output=True,
            text=True,
            timeout=60,
            env=catconv_env,
        )
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.splitlines() == [
            f"catconv: OSError: cannot write {target}: "
            "No such file or directory"
        ]
        assert not target.parent.exists()

    def test_failed_out_write_keeps_the_old_file(
        self, capsys, tmp_path, monkeypatch
    ):
        target = tmp_path / "report.json"
        target.write_text("previous\n")

        def broken_replace(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("catconv.cli.os.replace", broken_replace)
        code, _ = run_cli(
            capsys,
            "verify", "--identity", "touchard", "--n", "0..8",
            "--no-timing", "--out", str(target),
        )
        assert code == EXIT_USAGE
        assert target.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_text_format_report_line(self, capsys):
        code, out = run_cli(
            capsys,
            "verify", "--identity", "mikic-1", "--n", "0..20",
            "--no-timing",
        )
        assert code == EXIT_PASS
        assert "command: verify" in out
        assert "mikic-1: cases=21 skipped=0 failures=0 flagged=0 PASS" in out
        assert out.rstrip().endswith("overall: PASS")
