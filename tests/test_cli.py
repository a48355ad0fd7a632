import json
import os
import subprocess
import sys

import pytest

from mzsv import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_mzsv(capsys):
    code, out, _ = run_cli(capsys, "eval", "mzsv", "1,2", "--prec", "30")
    assert code == 0
    assert out.strip().startswith("2.4041138063191885707994763230")


def test_eval_finite_star(capsys):
    code, out, _ = run_cli(capsys, "eval", "finite-star", "1,1", "--m", "2")
    assert code == 0
    assert out.strip().startswith("2.361111111111111111")  # 85/36


def test_eval_inadmissible_exit_2(capsys):
    code, _, err = run_cli(capsys, "eval", "mzsv", "2,1")
    assert code == 2
    assert "inadmissible" in err


def test_eval_gamma_and_pochhammer(capsys):
    code, out, _ = run_cli(capsys, "eval", "gamma", "0.5", "--prec", "20")
    assert code == 0
    assert out.strip().startswith("1.772453850905516027")
    # a negative decimal is read exactly, as the Fraction -1/2
    code, out, _ = run_cli(capsys, "eval", "gamma", "-0.5")
    assert code == 0
    assert out.strip().startswith("-3.54490770181103205459")
    code, _, err = run_cli(capsys, "eval", "gamma", "-3")
    assert code == 2 and "pole" in err
    # a negative a/b is a number to the parser, read exactly as a Fraction
    code, out, _ = run_cli(capsys, "eval", "gamma", "-1/3")
    assert code == 0
    assert out.strip().startswith("-4.0623538182792")
    code, out, _ = run_cli(capsys, "eval", "pochhammer", "0.5", "2")
    assert code == 0
    assert out.strip().startswith("0.750")


def test_eval_gamma_of_an_astronomical_argument(capsys):
    # Gamma(1e5000) has a decimal exponent of 5 004 digits, past Python's
    # int-to-string limit: it prints, the exponent in exponent form, and
    # the CLI exits 0 instead of 1 with a ValueError
    code, out, _ = run_cli(capsys, "eval", "gamma", "1e5000")
    assert code == 0
    assert out.strip() == "2.38204060116782191668339086856e+4.9995657055181e+5003"


def test_eval_pfq(capsys):
    code, out, _ = run_cli(capsys, "eval", "pfq", "--upper=-2,1",
                           "--lower", "1", "--z=-1")
    assert code == 0
    assert out.strip().startswith("4.0")


def test_eval_special_pair(capsys):
    code, out1, _ = run_cli(capsys, "eval", "special-lhs", "a3",
                            "--alpha", "1.3", "--s", "2", "--prec", "20")
    assert code == 0
    code, out2, _ = run_cli(capsys, "eval", "special-rhs", "a3",
                            "--alpha", "1.3", "--s", "2", "--prec", "20")
    assert code == 0
    assert out1.strip()[:18] == out2.strip()[:18]


def test_eval_prec_consistency(capsys):
    # --prec P agrees with --prec 2P in the first P-2 digits
    for args in (("eval", "mzsv", "1,2"), ("eval", "zeta", "3"),
                 ("eval", "eta", "2")):
        _, out1, _ = run_cli(capsys, *args, "--prec", "20")
        _, out2, _ = run_cli(capsys, *args, "--prec", "40")
        assert out2.strip().startswith(out1.strip()[:19])


def test_eval_convergence_failure_exit_3(capsys):
    # negative margin at z=-1: divergent configuration
    code, _, err = run_cli(capsys, "eval", "pfq", "--upper", "2,1",
                           "--lower", "1", "--z=-1")
    assert code == 3
    assert "diverges" in err


def test_huge_parameters_and_loops_exit_with_a_message(capsys):
    # a 5 001-digit parameter prints in exponent form, and a loop past
    # max_terms is refused before it starts (twelve 1s need more words than
    # the tail route lists, so that sum is one kernel call over every term);
    # neither leaves a traceback
    for argv, code, says in (
            (("eval", "pfq", "--upper", "1e5000,1", "--lower", "3", "--z", "1"), 3,
             "= -1.0e+5000 <= 0"),
            (("eval", "pfq", "--upper", "1e5000,1", "--lower", "-1e5000", "--z", "1"), 2,
             "parameter -1.0e+5000 is a non-positive integer"),
            (("eval", "kr-rhs-ii", "--s", "1", "--a", "1e5000", "--c0", "1", "--b", "1",
              "--c", "1"), 3, "M = 2.0e+5000"),
            # a coupling past max_terms is refused before its levels are built
            (("eval", "kr-rhs-i", "--s", "2", "--a", "1e5000", "--b", "1,1,1",
              "--c", "1,1,1"), 3, "1+a-b_2-c_2 = 1.0e+5000 exceeds max_terms=100000000"),
            (("eval", "finite-star", ",".join("1" * 12), "--m", "1000000000"), 3,
             "its 1000000001 terms exceed max_terms=100000000"),
            (("eval", "pochhammer", "2", "1000000000"), 3,
             "its 1000000000 factors exceed max_terms=100000000")):
        got, _, err = run_cli(capsys, *argv)
        assert got == code, argv
        assert says in err and "Traceback" not in err, err


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "eq1", "--s", "1..2")
    assert code == 0
    assert "PASS" in out and "summary: 2/2 passed" in out
    code, _, err = run_cli(capsys, "verify", "bogus")
    assert code == 2


def test_verify_failure_exit_1(capsys):
    # the a2-type parameter choice at s=1 has hypothesis margin exactly 0;
    # the side evaluation fails and the run reports a non-passing instance
    code, out, _ = run_cli(capsys, "verify", "theoremA_ii", "--variant", "a2",
                           "--s", "1", "--alpha", "1.0")
    assert code == 1
    assert "ERROR" in out and "margin" in out
    assert "summary: 0/1 passed" in out


def test_verify_unknown_flag_pattern_ok(capsys):
    code, out, _ = run_cli(capsys, "verify", "remark1_*", "--s", "1,2")
    assert code == 0
    assert out.count("PASS") == 4


def test_list_registry(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 26
    assert any("two_one_eq3" in l and "Addendum" in l for l in lines)
    assert any("theoremA_i " in l and "Theorem A (i)" in l for l in lines)


def test_verify_json_report_roundtrip(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "verify", "remark1_even", "--s", "1..3",
                         "--json", str(path))
    assert code == 0
    report = json.loads(path.read_text())
    assert report["tool"]["name"] == "mzsv"
    assert report["summary"]["total"] == 3
    # re-derive pass flags from the serialized decimal fields
    recomputed = 0
    for rec in report["results"]:
        diff = float(rec["abs_diff"])
        tol = float(rec["tolerance"])
        assert ("e" not in rec["lhs"].lower())  # plain decimal text
        if diff <= tol:
            recomputed += 1
        assert rec["pass"] == (diff <= tol)
    assert recomputed == report["summary"]["passed"]


def test_default_precision_env(capsys, monkeypatch):
    monkeypatch.setenv("MZSV_DEFAULT_PREC", "15")
    _, out, _ = run_cli(capsys, "eval", "zeta", "2")
    digits = out.strip().replace(".", "").lstrip("-")
    assert len(digits) == 15


def test_bench_truncation_and_csv(capsys, tmp_path):
    import csv

    path = tmp_path / "bench.csv"
    code, out, _ = run_cli(capsys, "bench", "--suite", "truncation",
                           "--tol", "1e-5", "--csv", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "workload,strategy,terms,elapsed_ms,abs_err"
    rows = list(csv.reader(lines[1:]))
    by_key = {(r[0], r[1]): int(r[2]) for r in rows}
    # the analytic tail correction needs strictly fewer terms than direct,
    # for a plain and for an alternating (Boole-tailed) chain
    for name in ("mzsv(2,2,2)", "alt_mzsv(1,2)"):
        assert by_key[(name, "tail_corrected")] < by_key[(name, "direct")], name
    assert "NO" not in out  # every strategy met the tolerance


def test_eval_kr_rhs_kinds(capsys):
    code, out, _ = run_cli(capsys, "eval", "kr-rhs-i", "--s", "1", "--a", "2",
                           "--b", "1,1", "--c", "1,1", "--prec", "20")
    assert code == 0
    # pi^2/12
    assert out.strip().startswith("0.8224670334241132182")
    code, out, _ = run_cli(capsys, "eval", "kr-rhs-ii", "--s", "2", "--a", "2",
                           "--c0", "1", "--b", "1,1", "--c", "1,1",
                           "--prec", "20")
    assert code == 0
    # zeta(3)
    assert out.strip().startswith("1.202056903159594285")


def test_eval_unknown_and_missing_options_exit_2(capsys):
    # eval has no --r
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "zeta", "3", "--r", "1"])
    assert exc.value.code == 2
    # kr-rhs-ii needs --c0 on top of what kr-rhs-i needs
    code, _, err = run_cli(capsys, "eval", "kr-rhs-ii", "--s", "1", "--a", "2",
                           "--b", "1", "--c", "1")
    assert code == 2 and "--c0" in err
    code, _, err = run_cli(capsys, "eval", "kr-rhs-i", "--s", "1", "--a", "2",
                           "--b", "1,1")
    assert code == 2 and "--c" in err


def test_eval_domain_errors_exit_2(capsys):
    assert run_cli(capsys, "eval", "zeta", "1")[0] == 2
    assert run_cli(capsys, "eval", "eta", "0")[0] == 2
    assert run_cli(capsys, "eval", "special-lhs", "a3", "--alpha", "2.5",
                   "--s", "2")[0] == 2
    # coupling 1+a-b_2-c_2 = 5/2 is not an integer
    assert run_cli(capsys, "eval", "kr-rhs-i", "--s", "2", "--a", "2.5",
                   "--b", "0.75,0.5,0.5", "--c", "0.75,0.5,0.5")[0] == 2
    # a ParseError: no argument
    assert run_cli(capsys, "eval", "zeta")[0] == 2
    # a ConditionError: the convergence margin (2s+1)(a+1) - 2*sum(b_i+c_i) is -2
    assert run_cli(capsys, "eval", "kr-rhs-i", "--s", "1", "--a", "1",
                   "--b", "1,1", "--c", "1,1")[0] == 2
    # malformed numbers are usage errors, not tracebacks
    for argv in (("eval", "zeta", "abc"), ("eval", "gamma", "x"),
                 ("eval", "eta", "1.5"), ("eval", "pochhammer", "1", "x"),
                 ("eval", "pfq", "--upper=a,1", "--lower", "2", "--z", "1"),
                 ("eval", "special-lhs", "a1", "--alpha", "x", "--s", "2"),
                 ("eval", "kr-rhs-i", "--s", "1", "--a", "x", "--b", "1,1",
                  "--c", "1,1"),
                 ("verify", "eq1", "--s", "abc"), ("verify", "eq1", "--s", "1..x"),
                 ("eval", "gamma", "1/0"), ("eval", "pochhammer", "1/0", "2"),
                 ("verify", "eq1", "--s", "1", "--tol", "abc"),
                 ("verify", "eq1", "--s", "1", "--tol", "1/0"),
                 # a digit count too large for mpmath's precision
                 ("eval", "zeta", "3", "--prec", "1" + "0" * 400)):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and err.startswith("error:"), argv
    # so are non-finite ones, which used to hang (zeta) or crash (gamma)
    for argv in (("eval", "zeta", "nan"), ("eval", "zeta", "inf"),
                 ("eval", "gamma", "inf"), ("eval", "gamma", "nan"),
                 ("eval", "pochhammer", "nan", "2"),
                 ("verify", "eq1", "--s", "2", "--tol", "nan")):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and err.startswith("error:"), argv


def test_bench_tol_is_validated(capsys):
    # checked by the context before any run: a malformed, non-finite or
    # zero tolerance is a usage error, not a crash or a convergence failure
    for tol, says in (("abc", "cannot read"), ("nan", "not a finite"),
                      ("0", "tol must be positive")):
        code, out, err = run_cli(capsys, "bench", "--tol", tol)
        assert code == 2 and err.startswith("error:") and says in err, tol
        assert out == "", tol


def test_python_dash_m_runs_the_cli():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "mzsv", "--version"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("mzsv ")


def test_verify_empty_range_exit_2(capsys):
    # a range that selects nothing would verify nothing and report 0/0
    for argv in (("verify", "eq1", "--s", "4..1"),
                 ("verify", "eq2_check", "--m", "1", "--r", "1..0")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and "empty" in err and "summary" not in out, argv


def test_verify_out_of_schema_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "eq1", "--s", "1..9")
    assert code == 2
    assert "bound" in err



def test_prec_zero_is_a_usage_error(capsys):
    # --prec 0 is a precision like any other, not "use the default"
    for argv in (("eval", "zeta", "3"), ("verify", "eq1", "--s", "2"),
                 ("bench",)):
        code, out, err = run_cli(capsys, *argv, "--prec", "0")
        assert code == 2 and err.startswith("error:") and ">= 10" in err, argv
        assert out == "", argv


def test_unwritable_output_path_exit_2(capsys, tmp_path):
    # an output file that cannot be opened is a usage error, raised before
    # the run, not a traceback (exit 1 means "verification failed")
    for path, reason in ((tmp_path / "missing" / "out", "No such file"),
                         (tmp_path, "Is a directory"), ("", "No such file")):
        for argv in (("verify", "eq1", "--s", "2", "--json", str(path)),
                     ("bench", "--csv", str(path))):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and err.startswith("error:"), argv
            assert str(path) in err and reason in err, argv
            assert out == "", argv


def test_verify_axis_no_matched_identity_takes_exit_2(capsys):
    code, out, err = run_cli(capsys, "verify", "eq1", "--alpha", "0.5")
    assert code == 2 and "'alpha'" in err and "summary" not in out
    # one matched identity taking the axis is enough: eq3 takes r
    code, out, _ = run_cli(capsys, "verify", "eq*", "--r", "1")
    assert code == 0 and "eq3" in out
