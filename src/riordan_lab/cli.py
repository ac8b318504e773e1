"""Command-line front end.

Two-word verbs expose the library, one module each; ``verify`` runs the
named regression suites.  Series inputs are expressions in the small
grammar of :mod:`riordan_lab.exprs` (rationals, x, + - * / ^, sqrt, log,
exp, and the named series catalan, geom, one_plus_x).

    riordan-lab series eval "1/(1-x)" --order 8
    riordan-lab riordan build --b "1/(1-x)" --phi 1 --order 6
    riordan-lab bseq extract --g "catalan"
    riordan-lab bexp poly --b "1+x" --order 6
    riordan-lab bcomp matrix --b "1/(1-x)" --order 10 --format csv
    riordan-lab flow log --b "1/(1-x)" --order 10
    riordan-lab alphabeta expand --g "x*catalan" --order 10
    riordan-lab verify theorem9 --order 12

Exit codes: 0 success, 1 a verify suite reported failures, 2 malformed
command line or expression, 3 a domain precondition was violated (for
example extracting weights from a series that is not normalized).

``--order`` defaults to 16, overridable with the environment variable
RIORDAN_LAB_ORDER; ``verify`` without an explicit order runs each suite
at its own pinned default instead.  Every verb but ``verify`` takes
``--format text|csv|json``; ``verify`` prints its plain table only.

Only ``verify`` loads the suites and the fixtures: the module imports
:mod:`riordan_lab.verify` when that verb runs or its suite names are
printed, so the other verbs never pay for the claims.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import flow as flow_mod
from .alphabeta import alpha_weights, beta_weights
from .bcomp import b_expansion_rows, u_matrix
from .errors import ParseError, RiordanError
from .exprs import series_from_text
from .pseudo import b_from_g, g_from_b
from .riordan import (RiordanPair, _entry_text, coeff_str, matrix_to_csv,
                      matrix_to_json_dict, matrix_to_text)
from .series import Coeff, Series

DEFAULT_ORDER = 16
_STATUS_CODES = {"ok": 0, "verify-failed": 1, "parse-error": 2,
                 "domain-error": 3}


@dataclass
class CommandResult:
    """Outcome of one invocation: a status word and the text to emit."""

    status: str
    output: str

    @property
    def exit_code(self) -> int:
        return _STATUS_CODES[self.status]


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _order_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("order must be an integer")
    if value < 0:
        raise argparse.ArgumentTypeError("order must be >= 0")
    return value


def _env_order() -> int | None:
    text = os.environ.get("RIORDAN_LAB_ORDER")
    if text is None:
        return None
    try:
        value = int(text)
    except ValueError:
        print("riordan-lab: RIORDAN_LAB_ORDER must be an integer, got %r"
              % text, file=sys.stderr)
        raise SystemExit(2)
    if value < 0:
        print("riordan-lab: RIORDAN_LAB_ORDER must be >= 0, got %d" % value,
              file=sys.stderr)
        raise SystemExit(2)
    return value


def _resolve_order(args: argparse.Namespace,
                   fallback: int | None = DEFAULT_ORDER) -> int | None:
    if args.order is not None:
        return args.order
    env = _env_order()
    return env if env is not None else fallback


def _add_order(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--order", type=_order_arg, default=None,
                    help="truncation order (default %d, or RIORDAN_LAB_ORDER)"
                    % DEFAULT_ORDER)


def _add_common(sp: argparse.ArgumentParser) -> None:
    _add_order(sp)
    sp.add_argument("--format", choices=("text", "csv", "json"),
                    default="text", help="output format (default text)")


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------

def _emit_series(s: Series, fmt: str) -> str:
    if fmt == "text":
        return ", ".join(_entry_text(c) for c in s.coeffs)
    if fmt == "csv":
        return ",".join(coeff_str(c) for c in s.coeffs)
    return json.dumps({"order": s.order,
                       "coeffs": [coeff_str(c) for c in s.coeffs]})


def _emit_matrix(mat, fmt: str) -> str:
    if fmt == "text":
        return matrix_to_text(mat).rstrip("\n")
    if fmt == "csv":
        return matrix_to_csv(mat).rstrip("\n")
    return json.dumps(matrix_to_json_dict(mat))


def _emit_weight_rows(rows: "dict[str, list[Coeff]]", fmt: str) -> str:
    if fmt == "text":
        width = max(len(k) + 1 for k in rows)
        return "\n".join("%-*s  %s" % (width, name + ":",
                                       ", ".join(_entry_text(c) for c in vals))
                         for name, vals in rows.items())
    if fmt == "csv":
        return "\n".join(",".join(coeff_str(c) for c in vals)
                         for vals in rows.values())
    return json.dumps({name: [coeff_str(c) for c in vals]
                       for name, vals in rows.items()})


# ---------------------------------------------------------------------------
# verb handlers
# ---------------------------------------------------------------------------

def _cmd_series_eval(args: argparse.Namespace) -> CommandResult:
    order = _resolve_order(args)
    s = series_from_text(args.expr, order)
    return CommandResult("ok", _emit_series(s, args.format))


def _member_from_args(args: argparse.Namespace, order: int) -> Series:
    """The multiplier series g, from either --g or --b/--phi."""
    if args.b is not None:
        if args.g is not None:
            args.parser.error("--b and --g are mutually exclusive")
        return g_from_b(series_from_text(args.b, order), args.phi, order)
    if args.g is None:
        args.parser.error("one of --g or --b is required")
    return series_from_text(args.g, order)


def _cmd_riordan_build(args: argparse.Namespace) -> CommandResult:
    order = _resolve_order(args)
    if args.b is not None and args.f is not None:
        args.parser.error("--b and --f are mutually exclusive")
    g = _member_from_args(args, order)
    f = g if args.f is None else series_from_text(args.f, order)
    pair = RiordanPair(f, g)
    return CommandResult("ok", _emit_matrix(pair.matrix(order + 1),
                                            args.format))


def _cmd_bseq_extract(args: argparse.Namespace) -> CommandResult:
    order = _resolve_order(args)
    g = series_from_text(args.g, order)
    return CommandResult("ok", _emit_series(b_from_g(g), args.format))


def _cmd_bexp_poly(args: argparse.Namespace) -> CommandResult:
    order = _resolve_order(args)
    bf = series_from_text(args.b, order)
    polys = b_expansion_rows(bf, order)
    if args.format == "text":
        out = "\n".join("%d: %s" % (n, p) for n, p in enumerate(polys))
    elif args.format == "csv":
        out = "\n".join(",".join(coeff_str(c) for c in p.coeffs) or "0/1"
                        for p in polys)
    else:
        out = json.dumps({"param": "phi",
                          "polys": [[coeff_str(c) for c in p.coeffs]
                                    for p in polys]})
    return CommandResult("ok", out)


def _cmd_bcomp_matrix(args: argparse.Namespace) -> CommandResult:
    order = _resolve_order(args)
    bf = series_from_text(args.b, order)
    return CommandResult("ok", _emit_matrix(u_matrix(bf, order + 1),
                                            args.format))


def _cmd_flow_log(args: argparse.Namespace) -> CommandResult:
    order = _resolve_order(args)
    g = _member_from_args(args, order)
    return CommandResult("ok", _emit_matrix(flow_mod.l_matrix(g, order + 1),
                                            args.format))


def _cmd_alphabeta_expand(args: argparse.Namespace) -> CommandResult:
    order = _resolve_order(args)
    g = series_from_text(args.g, order)
    rows = {"alpha": alpha_weights(g), "beta": beta_weights(g)}
    return CommandResult("ok", _emit_weight_rows(rows, args.format))


def _cmd_verify(args: argparse.Namespace) -> CommandResult:
    from . import verify as verify_mod
    order = _resolve_order(args, None)
    if args.suite == "all":
        results = verify_mod.run_all(order)
        width = max(len(name) for name in results)
        lines = []
        all_ok = True
        for name, checks in results.items():
            ok = verify_mod.suite_passed(checks)
            all_ok = all_ok and ok
            lines.append("%-*s  %-4s (%d/%d)"
                         % (width, name, "ok" if ok else "FAIL",
                            sum(1 for _l, o in checks if o), len(checks)))
        lines.append("ok" if all_ok else "FAIL")
        return CommandResult("ok" if all_ok else "verify-failed",
                             "\n".join(lines))
    checks = verify_mod.run_suite(args.suite, order)
    ok = verify_mod.suite_passed(checks)
    lines = ["%-4s %s" % ("ok" if o else "FAIL", label)
             for label, o in checks]
    lines.append("ok" if ok else "FAIL")
    return CommandResult("ok" if ok else "verify-failed", "\n".join(lines))


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

class _SuiteNames:
    """The ``verify`` choices: "all" and the names in ``verify.SUITES``.

    argparse reads them only to parse or print the ``verify`` verb, so the
    suites (and the fixtures they load) are imported only then.
    """

    def __iter__(self):
        from .verify import SUITES
        return iter(("all",) + tuple(SUITES))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riordan-lab",
        description="Exact arithmetic for Riordan-group pseudo-involutions: "
                    "weight-series members, composition triangles, flow "
                    "logarithms and infinite-product factorizations.")
    groups = parser.add_subparsers(dest="group", required=True)

    sp = groups.add_parser("series", help="series expression utilities")
    acts = sp.add_subparsers(dest="action", required=True)
    ev = acts.add_parser("eval", help="evaluate an expression to coefficients")
    ev.add_argument("expr", help='series expression, e.g. "1/(1-x)"')
    _add_common(ev)
    ev.set_defaults(func=_cmd_series_eval)

    rp = groups.add_parser("riordan", help="lower-triangular pair matrices")
    acts = rp.add_subparsers(dest="action", required=True)
    rb = acts.add_parser(
        "build", help="print the matrix of the pair (f, xg); with --b the "
                      "pair is the generated member (g, xg), g from B")
    rb.add_argument("--f", help="multiplier column expression (default: g)")
    rb.add_argument("--g", help="composition part expression")
    rb.add_argument("--b", help="weight series expression")
    rb.add_argument("--phi", type=_fraction_arg, default=Fraction(1),
                    help="scale of the weight series (default 1)")
    _add_common(rb)
    rb.set_defaults(func=_cmd_riordan_build, parser=rb)

    bp = groups.add_parser("bseq", help="weight-sequence extraction")
    acts = bp.add_subparsers(dest="action", required=True)
    bx = acts.add_parser("extract",
                         help="solve g = 1 + x g B(x^2 g) for B, given g")
    bx.add_argument("--g", required=True, help="series expression for g")
    _add_common(bx)
    bx.set_defaults(func=_cmd_bseq_extract)

    ep = groups.add_parser("bexp", help="coefficient expansion in phi")
    acts = ep.add_subparsers(dest="action", required=True)
    ex = acts.add_parser("poly",
                         help="[x^n] g^phi as polynomials in phi, n <= order")
    ex.add_argument("--b", required=True, help="weight series expression")
    _add_common(ex)
    ex.set_defaults(func=_cmd_bexp_poly)

    cp = groups.add_parser("bcomp", help="composition triangles")
    acts = cp.add_subparsers(dest="action", required=True)
    cm = acts.add_parser("matrix",
                         help="the triangle <B> with order + 1 rows")
    cm.add_argument("--b", required=True, help="weight series expression")
    _add_common(cm)
    cm.set_defaults(func=_cmd_bcomp_matrix)

    fp = groups.add_parser("flow", help="one-parameter flow through a member")
    acts = fp.add_subparsers(dest="action", required=True)
    fl = acts.add_parser("log",
                         help="matrix logarithm L of the member's pair")
    fl.add_argument("--g", help="series expression for g")
    fl.add_argument("--b", help="weight series expression")
    fl.add_argument("--phi", type=_fraction_arg, default=Fraction(1),
                    help="scale of the weight series (default 1)")
    _add_common(fl)
    fl.set_defaults(func=_cmd_flow_log, parser=fl)

    ap = groups.add_parser("alphabeta", help="infinite-product factorizations")
    acts = ap.add_subparsers(dest="action", required=True)
    ax = acts.add_parser("expand",
                         help="ascending/descending weights of a normalized "
                              "series x + c2 x^2 + ...")
    ax.add_argument("--g", required=True, help="normalized series expression")
    _add_common(ax)
    ax.set_defaults(func=_cmd_alphabeta_expand)

    vp = groups.add_parser("verify", help="run a named regression suite")
    # set after add_argument, which iterates the choices to check the metavar
    vp.add_argument("suite").choices = _SuiteNames()
    _add_order(vp)
    vp.set_defaults(func=_cmd_verify)

    return parser


def run(argv: "list[str] | None" = None) -> CommandResult:
    """Parse ``argv`` and execute; library errors become status words."""
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        return CommandResult("parse-error", "parse error: %s" % exc)
    except RiordanError as exc:
        return CommandResult("domain-error",
                             "%s: %s" % (type(exc).__name__, exc))


def main(argv: "list[str] | None" = None) -> int:
    result = run(argv)
    stream = sys.stdout if result.exit_code < 2 else sys.stderr
    if result.output:
        print(result.output, file=stream)
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
