"""End-to-end command line tests: wiring, formats, exit codes, golden files."""

import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from riordan_lab import alphabeta, bcomp, flow, verify
from riordan_lab.alphabeta import alpha_weights, beta_weights
from riordan_lab.cli import main, run
from riordan_lab.errors import RiordanError
from riordan_lab.exprs import series_from_text
from riordan_lab.pseudo import b_from_g
from riordan_lab.riordan import (TriMatrix, matrix_from_json_dict,
                                 matrix_to_text)
from riordan_lab.series import Series

GOLDEN = Path(__file__).parent / "golden"

FAMILIES = {
    "bcomp_geom": "1/(1-x)",
    "bcomp_one_plus_x": "1+x",
    "bcomp_catalan": "catalan",
}
EXTENSIONS = {"text": "txt", "csv": "csv", "json": "json"}
# golden file stem -> command: each B of FAMILIES through the verbs that
# build triangles, expansions and flows, and x times each family through
# the weight factorization.  The bexp and riordan files were written by
# the partition-sum and Horner routes, so they pin the B-power table and
# the incremental solver to that output byte for byte; the flow and
# alphabeta files were written by the dense matrix logarithm and the
# Horner-composition peels, so they pin the streamed column and the
# closed-form peels the same way.
VERBS = {"bcomp": ["bcomp", "matrix"], "bexp": ["bexp", "poly"],
         "riordan": ["riordan", "build", "--phi=-5/7"],
         "flow": ["flow", "log"]}
GOLDEN_RUNS = {
    verb + name[len("bcomp"):]: argv + ["--b", expr]
    for verb, argv in VERBS.items() for name, expr in FAMILIES.items()}
GOLDEN_RUNS.update({
    "alphabeta" + name[len("bcomp"):]: ["alphabeta", "expand",
                                        "--g", "x*(%s)" % expr]
    for name, expr in FAMILIES.items()})


@pytest.fixture(autouse=True)
def _clean_order_env(monkeypatch):
    monkeypatch.delenv("RIORDAN_LAB_ORDER", raising=False)


# golden files ----------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
@pytest.mark.parametrize("fmt", sorted(EXTENSIONS))
def test_golden_matrix_outputs(name, fmt, capsys):
    code = main(GOLDEN_RUNS[name] + ["--order", "10", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    want = (GOLDEN / ("%s.%s" % (name, EXTENSIONS[fmt]))).read_text()
    assert captured.out == want


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_json_output_reparses_to_the_exact_matrix(name):
    result = run(["bcomp", "matrix", "--b", FAMILIES[name], "--order", "10",
                  "--format", "json"])
    assert result.exit_code == 0
    mat = matrix_from_json_dict(json.loads(result.output))
    assert mat == bcomp.u_matrix(series_from_text(FAMILIES[name], 6), 11)


# series eval -----------------------------------------------------------------

def test_series_eval_text():
    result = run(["series", "eval", "catalan", "--order", "6"])
    assert result.exit_code == 0
    assert result.output == "1, 1, 2, 5, 14, 42, 132"


def test_series_eval_csv_and_json():
    assert run(["series", "eval", "1/(1-x)", "--order", "3",
                "--format", "csv"]).output == "1/1,1/1,1/1,1/1"
    data = json.loads(run(["series", "eval", "catalan", "--order", "4",
                           "--format", "json"]).output)
    assert data == {"order": 4, "coeffs": ["1/1", "1/1", "2/1", "5/1", "14/1"]}


def test_order_env_variable(monkeypatch):
    monkeypatch.setenv("RIORDAN_LAB_ORDER", "3")
    assert run(["series", "eval", "geom"]).output == "1, 1, 1, 1"
    # explicit flag wins over the environment
    assert run(["series", "eval", "geom", "--order", "1"]).output == "1, 1"


def test_invalid_order_env_exits_with_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("RIORDAN_LAB_ORDER", "three")
    with pytest.raises(SystemExit) as info:
        run(["series", "eval", "geom"])
    assert info.value.code == 2
    assert "RIORDAN_LAB_ORDER" in capsys.readouterr().err


# matrix-building verbs -------------------------------------------------------

def test_riordan_build_pascal_two_ways():
    from math import comb
    want = matrix_to_text(TriMatrix.from_entry_fn(
        5, lambda n, m: Fraction(comb(n, m)))).rstrip("\n")
    assert run(["riordan", "build", "--b", "1", "--order", "4"]).output == want
    assert run(["riordan", "build", "--g", "1/(1-x)",
                "--order", "4"]).output == want


def test_riordan_build_distinct_f():
    result = run(["riordan", "build", "--g", "1/(1-x)", "--f", "1+x",
                  "--order", "3"])
    assert result.exit_code == 0
    assert result.output.splitlines()[0].strip() == "1"


def test_flow_log_of_pascal_is_identity():
    result = run(["flow", "log", "--g", "1/(1-x)", "--order", "8"])
    assert result.output == matrix_to_text(TriMatrix.identity(9)).rstrip("\n")


def test_bseq_extract_round_trip():
    result = run(["bseq", "extract", "--g", "1/(1-x)", "--order", "8"])
    assert result.exit_code == 0
    got = [Fraction(tok) for tok in result.output.split(", ")]
    want = b_from_g(Series.geometric(8, 1))
    assert got == [want.coeff(k) for k in range(want.order + 1)]


def test_bexp_poly_rows():
    result = run(["bexp", "poly", "--b", "1/(1-x)", "--order", "4"])
    lines = result.output.splitlines()
    assert lines[0] == "0: 1"
    assert lines[1] == "1: phi"
    assert lines[2] == "2: 1/2*phi + 1/2*phi^2"
    assert len(lines) == 5


def test_alphabeta_expand_weights():
    result = run(["alphabeta", "expand", "--g", "x * catalan",
                  "--order", "6"])
    lines = result.output.splitlines()
    assert lines[0].startswith("alpha:") and lines[1].startswith("beta:")
    g = series_from_text("x * catalan", 6)
    alpha = [Fraction(t) for t in lines[0].split(":", 1)[1].split(", ")]
    beta = [Fraction(t) for t in lines[1].split(":", 1)[1].split(", ")]
    assert alpha == alpha_weights(g)
    assert beta == beta_weights(g)


# verify ----------------------------------------------------------------------

def test_verify_passing_suite():
    result = run(["verify", "theorem5"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert all(line.startswith("ok") for line in lines)
    assert lines[-1] == "ok"


def test_verify_failing_suite_is_reported_not_hidden():
    result = run(["verify", "alphabeta", "--order", "8"])
    assert result.exit_code == 1
    lines = result.output.splitlines()
    assert lines[-1] == "FAIL"
    failing = [ln for ln in lines if ln.startswith("FAIL ")]
    assert len(failing) == 3  # split product, negated product, t=1 tangents


# the lines of the alphabeta suite that state false identities
FALSE_ALPHABETA_LINES = ("split product ", "negated-weight product ",
                         "tangent relations at t = 1 ")


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_suites_at_small_orders_raise_or_report_only_false_lines(suite):
    # below its smallest workable order a suite raises InsufficientOrder
    # (exit 3) rather than a traceback or a true line reported FAIL; from
    # that order on, only the false alphabeta identities may FAIL (exit 1)
    codes = []
    for order in range(13):
        result = run(["verify", suite, "--order", str(order)])
        codes.append(result.exit_code)
        if result.exit_code == 3:
            assert result.output.startswith("InsufficientOrder"), order
            continue
        failing = [line[len("FAIL "):] for line in result.output.splitlines()
                   if line.startswith("FAIL ")]
        if suite != "alphabeta":
            assert failing == [], order
        assert all(line.startswith(FALSE_ALPHABETA_LINES) for line in failing)
        assert result.exit_code == (1 if failing else 0), order
    least = codes.count(3)
    assert codes[:least] == [3] * least, codes


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit) as info:
        run(["verify", "nonsense"])
    assert info.value.code == 2


def test_verify_takes_no_format_flag():
    # verify prints one plain table; a format flag is a usage error
    for fmt in ("text", "json"):
        with pytest.raises(SystemExit) as info:
            run(["verify", "theorem5", "--format", fmt])
        assert info.value.code == 2


# the five dense or empirical routes that are oracles, not claims
ORACLES = ("is_appell_bfun", "power_matches_scaled_bfun",
           "l_matrix_via_log_powers", "bell_power_matrix", "_bell_matrix")


def _claim_names(module) -> list:
    return sorted(name for name, obj in vars(module).items()
                  if inspect.isfunction(obj) and obj.__module__ == module.__name__
                  and (name.endswith(("_check", "_report")) or name in ORACLES))


def test_claims_and_oracles_live_only_in_verify():
    for module in (bcomp, alphabeta, flow):
        assert _claim_names(module) == [], module.__name__
        assert not [name for name in ORACLES if hasattr(module, name)]
    assert set(ORACLES) <= set(_claim_names(verify))


def test_verify_all_calls_every_check(monkeypatch):
    calls = Counter()

    def counting(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return spy

    names = _claim_names(verify)
    for name in names:
        monkeypatch.setattr(verify, name, counting(name, getattr(verify, name)))
    results = verify.run_all(9)    # the smallest order every suite runs at
    assert [name for name in names if not calls[name]] == []
    failing = [name for name, checks in results.items()
               if not verify.suite_passed(checks)]
    assert failing == ["alphabeta"]


def test_verify_prints_the_same_under_optimize():
    # the checks are comparisons, not asserts, so -O changes nothing
    suites = ["theorem%d" % k for k in range(4, 10)] + ["flow"]
    script = ("import sys\n"
              "from riordan_lab.cli import run\n"
              "print(sys.flags.optimize)\n"
              "for suite in %r:\n"
              "    print(run(['verify', suite]).output)\n" % (suites,))
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("RIORDAN_LAB_ORDER", None)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    plain = "".join(run(["verify", suite]).output + "\n" for suite in suites)
    assert proc.stdout == "1\n" + plain


# exit codes and stream routing -----------------------------------------------

def test_exit_code_zero_routes_to_stdout(capsys):
    code = main(["series", "eval", "x", "--order", "2"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "0, 1, 0\n"
    assert captured.err == ""


def test_parse_error_exit_two(capsys):
    result = run(["series", "eval", "1 +"])
    assert result.status == "parse-error"
    assert result.exit_code == 2
    assert "expected" in result.output
    code = main(["series", "eval", "1 +"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("parse error")


def test_domain_error_exit_three(capsys):
    result = run(["bseq", "extract", "--g", "catalan", "--order", "8"])
    assert result.status == "domain-error"
    assert result.exit_code == 3
    assert "NotPseudoInvolution" in result.output
    code = main(["series", "eval", "1/x"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("BadConstantTerm")


# bseq extract at order 0 has no coefficient to read; riordan build with
# g(0) = 0 is not a Riordan pair; the flow of g needs g(0) = 1.  All are
# typed errors, also under -O.
DOMAIN_ERROR_INPUTS = (
    (["bseq", "extract", "--g", "1/(1-x)", "--order", "0"], "InsufficientOrder"),
    (["riordan", "build", "--g", "x", "--order", "4"], "BadConstantTerm"),
    (["flow", "log", "--g", "2+x", "--order", "4"], "BadConstantTerm"),
)


# Library calls with out-of-range arguments: each raises a typed error,
# also under -O, where an assert would be skipped.
API_DOMAIN_ERRORS = (
    ("flow.c_beta_poly_formula(Series([1, 2], 3), -1, 1)", "BadArgument"),
    ("flow.c_beta_poly_formula(Series([1, 2], 3), 2, Poly.var('beta'))",
     "BadArgument"),
    ("pseudo.arcsinh_row_poly(-1)", "BadArgument"),
    ("pseudo.example6_series(-1, 3)", "BadArgument"),
    ("riordan.conv_polys(Series([2, 1], 3), 2)", "BadConstantTerm"),
    ("riordan.conv_polys(Series([1, 1], 3), 0)", "BadArgument"),
    ("bcomp.u_entry(Series([1, 2], 3), -1, 0)", "BadArgument"),
    ("bcomp.u_matrix(Series([1, 2], 3), 0)", "BadArgument"),
    ("bcomp.b_powers(Series([1, 2], 3), -1)", "BadArgument"),
    ("bcomp.b_expansion_rows(Series([1, 2], 3), -1)", "BadArgument"),
    ("bcomp.u_poly(Series([1, 2], 3), -1)", "BadArgument"),
    ("bcomp.u_beta_poly(Series([1, 2], 3), -1, 2)", "BadArgument"),
    ("bcomp.q_poly(Series.geometric(4, 1), -1)", "BadArgument"),
    ("bcomp.exp_pair_entry_partitions(Series([1, 2], 3), 1, 2)", "BadArgument"),
    ("bcomp.scale_entries(riordan.TriMatrix([[1], [1, 1]]), 2)", "BadArgument"),
    ("Series([Poly.var('t'), 1], 3).inverse()", "BadConstantTerm"),
    ("Series([0, Poly.var('t'), 1], 3).revert()", "NotReversible"),
    ("Series([1, 2], 3) / (1 + Poly.var('t'))", "BadArgument"),
    ("Series([1, 2], 3) / Poly.var('t')", "BadArgument"),
    ("falling_factorial(5, -1)", "BadArgument"),
    ("binom_param(5, -2)", "BadArgument"),
    ("list(combinat.partitions(-1))", "BadArgument"),
    ("list(combinat.odd_partitions(-3))", "BadArgument"),
    ("list(combinat.compositions(-1))", "BadArgument"),
    ("pseudo.b_expansion(Series([1 + Poly.var('t'), 2], 1), 3)",
     "BadArgument"),
    ("bcomp.rna_row_poly(-1)", "BadArgument"),
    ("bcomp.rna_power_coeff(2, -1)", "BadArgument"),
    ("bcomp.narayana_poly(-1)", "BadArgument"),
    ("bcomp.narayana_matrix(0)", "BadArgument"),
    ("bcomp.one_plus_x_entry(-1, 0)", "BadArgument"),
    ("bcomp.one_plus_x_row_poly(-1)", "BadArgument"),
    ("bcomp.one_plus_x_up_diag_poly(-1)", "BadArgument"),
    ("bcomp.one_plus_x_column_series(-1, 4)", "BadArgument"),
    ("bcomp.t_poly(-2)", "BadArgument"),
    ("bcomp.catalan_b_entry(0, -1)", "BadArgument"),
    ("bcomp.catalan_b_row_poly(-1)", "BadArgument"),
    ("bcomp.half_matrix(0)", "BadArgument"),
    ("bcomp.u_row_via_conv(Series([1, 2], 3), -1)", "BadArgument"),
    ("bcomp.exp_bfun_row_poly(-1)", "BadArgument"),
    ("bcomp.one_plus_x_series(0, 4)", "BadArgument"),
    ("bcomp.one_plus_x_series(Poly.var('t'), 4)", "BadArgument"),
    ("bcomp.catalan_b_series(0, 4)", "BadArgument"),
    ("bcomp.catalan_b_series(Poly.var('t'), 4)", "BadArgument"),
    ("Series([1, 2], -1)", "BadArgument"),
    ("Series([])", "BadArgument"),
    ("Series([1, 2, 3]).truncate(5)", "InsufficientOrder"),
    ("Series([1, 2], 3).x_mul(-1)", "BadArgument"),
    ("Series([1, 2], 3).div_x(-1)", "BadArgument"),
    ("Series([1, 2], 3) ** 0.5", "BadArgument"),
    ("Poly.var('t') ** -1", "BadArgument"),
    ("Poly.var('t') ** 0.5", "BadArgument"),
    ("Series([1, Poly.var('phi')], 3).pow_param('phi')", "BadArgument"),
    ("riordan.TriMatrix([[1], [1, 1]]) * riordan.TriMatrix([[1]])",
     "BadArgument"),
    ("riordan.TriMatrix([[1], [1, 1]]) + riordan.TriMatrix([[1]])",
     "BadArgument"),
    ("riordan.TriMatrix([[1], [1, 1]]) - riordan.TriMatrix([[1]])",
     "BadArgument"),
    ("riordan.TriMatrix([[1], [1]])", "BadArgument"),
    ("riordan.TriMatrix([[1], [1, 0]]).inverse()", "BadArgument"),
    ("riordan.TriMatrix([[Poly.var('t')]]).inverse()", "BadArgument"),
    ("riordan.TriMatrix([[1], [1, 2]]).log()", "BadArgument"),
    ("riordan.TriMatrix([[2]]).pow_binomial(2)", "BadArgument"),
    ("riordan.TriMatrix([[1]]).truncated(2)", "BadArgument"),
    ("riordan.TriMatrix([[1]]).truncated(-1)", "BadArgument"),
    ("riordan.matrix_from_json_dict({'size': 3, 'rows': [['1/1']]})",
     "BadArgument"),
)
API_PRELUDE = ("from riordan_lab import bcomp, combinat, flow, pseudo, riordan\n"
               "from riordan_lab.series import (Poly, Series, binom_param,\n"
               "                                falling_factorial)\n")
API_SCRIPT = API_PRELUDE + """
for call in %r:
    try:
        eval(call)
    except Exception as exc:
        print(type(exc).__name__)
    else:
        print('no error')
""" % ([call for call, _ in API_DOMAIN_ERRORS],)


def test_reachable_asserts_are_domain_errors():
    for argv, name in DOMAIN_ERROR_INPUTS:
        result = run(argv)
        assert result.exit_code == 3, argv
        assert result.output.startswith(name), result.output
    scope = {}
    exec(API_PRELUDE, scope)
    for call, name in API_DOMAIN_ERRORS:
        with pytest.raises(RiordanError) as info:
            eval(call, scope)
        assert type(info.value).__name__ == name, call


@pytest.mark.parametrize("opt", [[], ["-O"]], ids=["plain", "optimize"])
def test_domain_errors_exit_three_in_a_fresh_process(opt):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    for argv, name in DOMAIN_ERROR_INPUTS:
        proc = subprocess.run([sys.executable] + opt
                              + ["-m", "riordan_lab.cli"] + argv,
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 3, (argv, proc.stderr)
        assert proc.stdout == ""
        assert proc.stderr.startswith(name), proc.stderr
    proc = subprocess.run([sys.executable] + opt + ["-c", API_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [name for _, name in API_DOMAIN_ERRORS]


def test_usage_errors_exit_two():
    for argv in (["bogus"],
                 ["series", "eval", "x", "--order", "-3"],
                 ["riordan", "build", "--b", "1", "--phi", "x"],
                 ["bcomp", "matrix"]):
        with pytest.raises(SystemExit) as info:
            run(argv)
        assert info.value.code == 2, argv


def test_flag_conflicts_are_usage_errors():
    for argv in (["riordan", "build", "--b", "1", "--g", "1/(1-x)"],
                 ["riordan", "build", "--b", "1", "--f", "1+x"],
                 ["flow", "log", "--b", "1", "--g", "1/(1-x)"]):
        with pytest.raises(SystemExit) as info:
            run(argv)
        assert info.value.code == 2, argv
