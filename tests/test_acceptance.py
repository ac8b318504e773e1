"""The final acceptance gate: nine criteria, one pass/fail line each.

Every comparison in this file is exact rational equality -- there are no
tolerances anywhere.  Each criterion prints a single summary line; a failing
criterion lists the individual checks that failed.

Criterion 7 checks the infinite-product layer against the true status of
each statement.  Three identities of the ``alphabeta`` suite are false for
generic weights: the split g_beta^(1-t) o g_alpha^(t) = g, the
negated-weight product = gbar o gbar, and the t = 1 tangents.  The suite
reports those lines FAIL (so ``riordan-lab verify alphabeta`` exits 1); the
criterion requires exactly that, and pins where each identity holds and its
exact first obstruction: the split defect t(1-t)/2 * a*c^2 at x^6 and the
negated-weight defect -a^3*c^2 at x^8 for the two-weight family
w1^a(w2^c(x)).  See the README for the analysis.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from riordan_lab import alphabeta as ab
from riordan_lab.cli import run
from riordan_lab.exprs import parse, to_text
from riordan_lab.series import Poly, Series
from riordan_lab.verify import (_random_normalized, derivative_relations_check,
                                involution_split_check, run_suite,
                                split_identity_check)

from test_exprs import CORPUS

GOLDEN = Path(__file__).parent / "golden"

Check = "tuple[str, bool]"


def _criterion(num: int, description: str, checks) -> None:
    checks = list(checks)
    assert checks, "empty criterion"
    ok = all(flag for _, flag in checks)
    print("%s criterion %d: %s (%d checks)"
          % ("PASS" if ok else "FAIL", num, description, len(checks)))
    if not ok:
        failing = [label for label, flag in checks if not flag]
        pytest.fail("criterion %d fails on: %s" % (num, "; ".join(failing)),
                    pytrace=False)


def test_criterion_1_golden_matrices():
    _criterion(1, "printed matrices reproduced entry-for-entry",
               run_suite("matrices"))


def test_criterion_2_expansion_oracle_equivalence():
    # 25 random B, integer coefficients in [-3, 3], six terms;
    # phi in {-2, -1, 1/2, 1, 3}; all n <= 24
    _criterion(2, "B-expansion polynomials equal power-of-member coefficients",
               run_suite("theorem3"))


def test_criterion_3_composition_matrix_oracle_equivalence():
    # same sampling for the u-polynomials, plus the symbolic b1-ladder rows
    _criterion(3, "composition-matrix rows equal weighted-member coefficients",
               run_suite("bpoly"))


def test_criterion_4_theorem_identities():
    checks = []
    for name in ("theorem1", "theorem2", "theorem4", "theorem5", "theorem6",
                 "theorem7", "theorem8", "theorem9"):
        for label, flag in run_suite(name):
            checks.append(("%s: %s" % (name, label), flag))
    _criterion(4, "square-root factorization and triangle identities",
               checks)


def test_criterion_5_beta_power_rows():
    # nine rational (beta, phi) pairs to n <= 16; closed forms for R^beta
    _criterion(5, "two-parameter rows equal beta-th powers of members",
               run_suite("powers"))


def test_criterion_6_bell_flow():
    _criterion(6, "Bell-subgroup logarithm and flow (identity, Legendre, "
                  "parity, lattice-path log)", run_suite("flow"))


# Label prefixes of the alphabeta suite lines that state false identities;
# the suite's other six lines state true ones.
FALSE_ALPHABETA_LINES = ("split product ", "negated-weight product ",
                         "tangent relations at t = 1 ")


def _alphabeta_random_gs() -> list[Series]:
    """The ten random g of the alphabeta suite at its default order 12:
    its seed, drawn after its seven order-16 round-trip samples."""
    rng = random.Random(87)
    for _ in range(7):
        _random_normalized(rng, 16)
    return [_random_normalized(rng, 12) for _ in range(10)]


def _tangent_at(family: Series, point: int) -> Series:
    """d/dt at t = point of a deformed family with coefficients in t."""
    return family.map_coeffs(
        lambda c: c.deriv()(point) if isinstance(c, Poly) else 0)


def test_criterion_7_infinite_product_identities():
    # The split, negated-weight and t = 1 tangent identities are false for
    # generic weights: the suite must report them FAIL and every other line
    # ok, and each false identity must hold exactly up to its first
    # obstruction (x^6 for the split and the tangents, x^8 for the
    # negated-weight product) and exactly in the degenerate cases.
    checks = []
    suite = run_suite("alphabeta")
    checks.append(("alphabeta suite has 6 true and 3 false lines",
                   len(suite) == 9))
    for prefix in FALSE_ALPHABETA_LINES:
        flags = [flag for label, flag in suite if label.startswith(prefix)]
        checks.append(("suite reports the false line '%s...' FAIL"
                       % prefix.strip(), flags == [False]))
    checks += [("suite line ok: " + label, flag) for label, flag in suite
               if not label.startswith(FALSE_ALPHABETA_LINES)]

    tp = Poly.var("t")
    gs = _alphabeta_random_gs()
    for i, g in enumerate(gs):
        gbar = g.revert()
        checks.append((
            "random g #%d: split product = g through x^5, t in {1/2, 2, -1}"
            % i,
            all(ab.family_beta(g, 1 - tv).compose(ab.family_alpha(g, tv))
                .agrees(g, 5) for tv in (Fraction(1, 2), 2, -1))))
        checks.append((
            "random g #%d: negated-weight products = gbar o gbar and "
            "g o g through x^7" % i,
            ab.family_alpha(g, -1).compose(ab.family_beta(g, -1))
            .agrees(gbar.compose(gbar), 7)
            and ab.family_alpha(gbar, -1).compose(ab.family_beta(gbar, -1))
            .agrees(g.compose(g), 7)))
        checks.append((
            "random g #%d: t = 1 tangents = beta o g and alpha * g' "
            "through x^5" % i,
            _tangent_at(ab.family_alpha(g, tp), 1)
            .agrees(ab.beta_series(g).compose(g), 5)
            and _tangent_at(ab.family_beta(g, tp), 1)
            .agrees(ab.alpha_series(g) * g.deriv(), 5)))

    two_weight = {(a, c): ab.from_alpha([a, c] + [0] * 6, 8)
                  for a, c in ((Fraction(1, 2), Fraction(3)),
                               (Fraction(-2), Fraction(5, 7)),
                               (Fraction(3), Fraction(-1)))}
    for (a, c), g2 in two_weight.items():
        split = (ab.family_beta(g2, 1 - tp).compose(ab.family_alpha(g2, tp))
                 - g2)
        half = a * c ** 2 / 2
        checks.append(("w1^%s(w2^%s(x)): split defect is 0 through x^5 and "
                       "t(1-t)/2*a*c^2 at x^6" % (a, c),
                       all(split.coeff(k) == 0 for k in range(6))
                       and split.coeff(6) == Poly("t", (0, half, -half))))
        gbar = g2.revert()
        negated = (ab.family_alpha(g2, -1).compose(ab.family_beta(g2, -1))
                   - gbar.compose(gbar))
        checks.append(("w1^%s(w2^%s(x)): negated-weight defect is 0 through "
                       "x^7 and -a^3*c^2 at x^8" % (a, c),
                       all(negated.coeff(k) == 0 for k in range(8))
                       and negated.coeff(8) == -a ** 3 * c ** 2))

    # one-parameter subgroups: the Moebius series x/(1-x) and single
    # nonzero weights of types 2 and 3
    singles = [Series.geometric(11, 1).x_mul(1),
               ab.from_alpha([0, Fraction(3)] + [0] * 9, 12),
               ab.from_alpha([0, 0, Fraction(-1, 2)] + [0] * 8, 12)]
    for i, g in enumerate(singles):
        checks.append(("one-parameter subgroup #%d: split holds at "
                       "t in {1/3, -1, 2}" % i,
                       all(split_identity_check(g, tv)
                           for tv in (Fraction(1, 3), -1, 2))))
        checks.append(("one-parameter subgroup #%d: negated-weight product "
                       "holds" % i, involution_split_check(g)))
        checks.append(("one-parameter subgroup #%d: t = 0 and t = 1 "
                       "tangents hold" % i, derivative_relations_check(g)))
    checks.append(("split holds at t in {0, 1} for every g above",
                   all(split_identity_check(g, tv)
                       for g in gs + list(two_weight.values())
                       for tv in (0, 1))))
    _criterion(7, "infinite-product layer: true identities hold, false "
                  "ones fail with their exact obstructions", checks)


def test_criterion_8_pseudo_involution_detector():
    _criterion(8, "detector accepts every constructed member and rejects "
                  "perturbations", run_suite("detector"))


def test_criterion_9_command_line_contract():
    checks = []
    families = {"bcomp_geom": "1/(1-x)", "bcomp_one_plus_x": "1+x",
                "bcomp_catalan": "catalan"}
    for name, expr in sorted(families.items()):
        for fmt, ext in (("text", "txt"), ("csv", "csv"), ("json", "json")):
            result = run(["bcomp", "matrix", "--b", expr, "--order", "10",
                          "--format", fmt])
            want = (GOLDEN / ("%s.%s" % (name, ext))).read_text()
            checks.append(("golden %s %s" % (name, fmt),
                           result.exit_code == 0
                           and result.output + "\n" == want))
    round_trips = all(parse(to_text(parse(text))) == parse(text)
                      for text in CORPUS)
    checks.append(("parser corpus of %d expressions round trips"
                   % len(CORPUS), round_trips))
    checks.append(("exit 0 on success",
                   run(["series", "eval", "catalan"]).exit_code == 0))
    checks.append(("exit 1 on failed verification",
                   run(["verify", "alphabeta", "--order", "8"]).exit_code == 1))
    checks.append(("exit 2 on parse error",
                   run(["series", "eval", "1 +"]).exit_code == 2))
    checks.append(("exit 3 on domain error",
                   run(["bseq", "extract", "--g", "catalan"]).exit_code == 3))
    json_ok = json.loads(run(["bcomp", "matrix", "--b", "1+x", "--order", "6",
                              "--format", "json"]).output)
    checks.append(("json output carries size and num/den rows",
                   isinstance(json_ok, dict) and json_ok.get("size") == 7
                   and json_ok["rows"][0] == ["1/1"]))
    _criterion(9, "golden files, parser corpus, exit-code contract", checks)
