"""Inputs, jobs and exact output checks for the three benchmark workloads.

Each workload has a fixed *schedule*: a list of job shapes (order, input
density, coefficient height, parameter, verb, format).  One *pass* runs every
shape once; the random parts of a pass (coefficients, sparse supports) come
from ``random.Random`` seeded by (workload, seed, pass), so the same seed
always gives the same inputs and every pass gets fresh ones.

The library is reached only through the ``lib`` namespace that
:func:`load_library` returns, so that set-up can import it afresh.  Inputs
are plain Python data (Fractions, coefficient lists, argv strings); the
library receives nothing else.

Every job output is reduced to a canonical list of ``num/den`` strings (its
digest), and is cross-checked, untimed, against a second route that already
exists in the library.
"""
from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd
from pathlib import Path
from types import SimpleNamespace

LAYERS = ("series", "riordan", "combinat", "pseudo", "bcomp", "flow",
          "alphabeta", "exprs", "cli")
PHIS = (Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(-5, 7))
NAMED = ("geom", "one_plus_x", "catalan")


class LibraryMissing(RuntimeError):
    """The checkout holds no ``src/riordan_lab`` to benchmark."""


def load_library(root: Path) -> SimpleNamespace:
    """Import ``riordan_lab`` afresh from ``root/src`` and return its modules.

    Any previously imported copy is dropped from ``sys.modules`` first, so
    repeated calls each pay the full import.  An installed copy elsewhere is
    never used: the benchmark measures the checkout it sits in.
    """
    src = root / "src"
    if not (src / "riordan_lab" / "__init__.py").is_file():
        raise LibraryMissing("no riordan_lab package under %s" % src)
    for name in [m for m in sys.modules
                 if m == "riordan_lab" or m.startswith("riordan_lab.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("riordan_lab")
    if Path(pkg.__file__).resolve().parent != (src / "riordan_lab").resolve():
        raise LibraryMissing("riordan_lab imported from %s, not from %s"
                             % (pkg.__file__, src))
    mods = {name: importlib.import_module("riordan_lab." + name)
            for name in LAYERS}
    return SimpleNamespace(**mods)


# ---------------------------------------------------------------------------
# canonical values and digests
# ---------------------------------------------------------------------------

def canon(value) -> str:
    """``num/den`` text of a rational; a Poly becomes its coefficient list."""
    if hasattr(value, "coeffs") and hasattr(value, "param"):
        return "[%s]" % ",".join(canon(c) for c in value.coeffs)
    f = Fraction(value)
    return "%d/%d" % (f.numerator, f.denominator)


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _series_lines(tag: str, s) -> list[str]:
    return ["%s:%s" % (tag, " ".join(canon(c) for c in s.coeffs))]


def _rows_lines(tag: str, rows) -> list[str]:
    return ["%s:%s" % (tag, " ".join(canon(c) for c in row)) for row in rows]


# ---------------------------------------------------------------------------
# random inputs
# ---------------------------------------------------------------------------

def _rand_frac(rng: random.Random, height: int) -> Fraction:
    """A signed p/q in lowest terms with p and q in the upper half of
    [2, height], so that every coefficient of a shape has about the same
    size and a job's cost hardly depends on the draw."""
    lo = max(2, (height + 1) // 2)
    while True:
        p, q = rng.randint(lo, height), rng.randint(lo, height)
        if gcd(p, q) == 1:
            return Fraction(p * rng.choice((1, -1)), q)


def _rand_coeffs(rng: random.Random, size: int, terms: int | None,
                 height: int) -> list[Fraction]:
    """``size`` coefficients, ``terms`` of them (all when None) nonzero.

    The support is spread evenly over the indices and always holds index 0,
    so that a shape's cost hardly depends on the seed; the values are
    random rationals with numerator and denominator at most ``height``.
    """
    cs = [Fraction(0)] * size
    if terms is None or terms >= size:
        support = range(size)
    elif terms == 1:
        support = [0]
    else:
        support = sorted({round(i * (size - 1) / (terms - 1)) for i in range(terms)})
    for i in support:
        cs[i] = _rand_frac(rng, height)
    return cs


def poly_text(cs: list[Fraction]) -> str:
    """Expression text of sum cs[i] x^i, coefficients written as ``(p/q)``
    so the text never relies on how ``x^2/3`` parses."""
    parts = []
    for i, c in enumerate(cs):
        if c == 0:
            continue
        mag = abs(c)
        coef = str(mag.numerator) if mag.denominator == 1 else "(%s)" % mag
        mono = "" if i == 0 else ("x" if i == 1 else "x^%d" % i)
        body = coef if not mono else (mono if mag == 1 else coef + "*" + mono)
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    if not parts:
        return "0"
    first_sign, first = parts[0]
    text = ("-" if first_sign == "-" else "") + first
    for sign, body in parts[1:]:
        text += " %s %s" % (sign, body)
    return text


def named_coeffs(name: str, size: int) -> list[Fraction]:
    """Coefficients of a named weight series, computed here, not by exprs."""
    if name == "geom":
        return [Fraction(1)] * size
    if name == "one_plus_x":
        return [Fraction(1), Fraction(1)] + [Fraction(0)] * (size - 2)
    if name == "catalan":
        return [Fraction(comb(2 * n, n), n + 1) for n in range(size)]
    raise ValueError(name)


# ---------------------------------------------------------------------------
# output parsers for the CLI formats
# ---------------------------------------------------------------------------

def parse_matrix(text: str, fmt: str) -> list[list[Fraction]]:
    if fmt == "json":
        return [[Fraction(s) for s in row] for row in json.loads(text)["rows"]]
    sep = "," if fmt == "csv" else None
    return [[Fraction(s) for s in line.split(sep)] for line in text.splitlines()]


def _parse_terms(text: str, var: str) -> list[Fraction]:
    """Invert ``series.format_terms`` for rational coefficients."""
    if text == "0":
        return []
    tokens = text.split(" ")
    first = tokens[0]
    items = [(-1, first[1:]) if first.startswith("-") else (1, first)]
    items += [(1 if tokens[i] == "+" else -1, tokens[i + 1])
              for i in range(1, len(tokens), 2)]
    out: dict[int, Fraction] = {}
    for sign, term in items:
        if "*" in term:
            coef, mono = term.split("*")
        elif term.startswith(var):
            coef, mono = "1", term
        else:
            coef, mono = term, ""
        power = 0 if not mono else (1 if mono == var else int(mono.split("^")[1]))
        out[power] = sign * Fraction(coef)
    return [out.get(k, Fraction(0)) for k in range(max(out) + 1)]


def _trimmed(cs: list[Fraction]) -> list[Fraction]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def parse_polys(text: str, fmt: str) -> list[list[Fraction]]:
    """Coefficient lists without trailing zeros, whatever the format."""
    if fmt == "json":
        polys = [[Fraction(s) for s in p] for p in json.loads(text)["polys"]]
    elif fmt == "csv":
        polys = [[Fraction(s) for s in line.split(",")] for line in text.splitlines()]
    else:
        polys = [_parse_terms(line.split(": ", 1)[1], "phi")
                 for line in text.splitlines()]
    return [_trimmed(p) for p in polys]


def parse_weight_rows(text: str, fmt: str) -> dict[str, list[Fraction]]:
    if fmt == "json":
        return {k: [Fraction(s) for s in v] for k, v in json.loads(text).items()}
    if fmt == "csv":
        lines = text.splitlines()
        return {name: [Fraction(s) for s in line.split(",")]
                for name, line in zip(("alpha", "beta"), lines)}
    out = {}
    for line in text.splitlines():
        name, vals = line.split(":", 1)
        out[name.strip()] = [Fraction(s) for s in vals.strip().split(", ")]
    return out


def _eval_poly(cs, at: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * at + c
    return acc


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

@dataclass
class Job:
    """One unit of timed work: ``shape`` indexes the workload's schedule."""

    shape: int
    label: str
    inputs: dict = field(default_factory=dict)


class Workload:
    """A schedule of shapes plus how to run, canonicalise and check a job."""

    name = ""
    schedule: tuple = ()

    def rng(self, seed: int, pass_no: int) -> random.Random:
        return random.Random("%s/%d/%d" % (self.name, seed, pass_no))

    def make_jobs(self, seed: int, pass_no: int) -> list[Job]:
        rng = self.rng(seed, pass_no)
        return [self.make_job(i, shape, rng) for i, shape in enumerate(self.schedule)]

    def make_job(self, index: int, shape: tuple, rng: random.Random) -> Job:
        raise NotImplementedError

    def warm_up(self, lib) -> None:
        raise NotImplementedError

    def run(self, lib, job: Job):
        raise NotImplementedError

    def canonical(self, job: Job, out) -> list[str]:
        raise NotImplementedError

    def check(self, lib, job: Job, out) -> str | None:
        """None when the output is right, else the first mismatch found."""
        raise NotImplementedError


def _cli_status(out) -> str | None:
    return None if out.status == "ok" else "status %s: %s" % (out.status, out.output[:200])


# members --------------------------------------------------------------------

class Members(Workload):
    """Forward and inverse round trip through the library API.

    Shape: (order N, density, terms, height, phi).  Density "one" is the
    constant B = b_0, "sparse" has ``terms`` nonzero coefficients, "dense"
    fills every index up to (N-1)/2.  The constant B's get the larger
    heights, so that there are enough of them to keep every B fresh.
    """

    name = "members"
    # Fifteen shapes: job_p90_ms then falls in the middle of the samples
    # of the second-dearest shape and job_p50_ms in the middle of the
    # eighth, not on the edge between two shapes of different cost.  The
    # second-dearest, (32, "one"), has phi = 1: at phi = -5/7 its cost
    # moved by 13% (coefficient of variation) with the factors 5 and 7 of
    # the drawn b_0, at phi = 1 by 3%.
    schedule = (
        (16, "sparse", 3, 4, PHIS[1]),
        (16, "sparse", 5, 60, PHIS[2]), (16, "dense", None, 4, PHIS[3]),
        (24, "one", 1, 30, PHIS[1]), (16, "dense", None, 60, PHIS[0]),
        (16, "sparse", 7, 4, PHIS[3]), (24, "sparse", 3, 60, PHIS[3]),
        (16, "one", 1, 600, PHIS[2]), (32, "one", 1, 90, PHIS[0]),
        (24, "sparse", 5, 4, PHIS[3]),
        (16, "sparse", 3, 60, PHIS[3]), (24, "dense", None, 4, PHIS[1]),
        (16, "dense", None, 9, PHIS[1]), (32, "sparse", 3, 4, PHIS[2]),
        (24, "one", 1, 600, PHIS[2]),
    )

    def make_jobs(self, seed, pass_no):
        """As for every workload, but no B repeats one of an earlier pass
        of the same seed, so that a cache has nothing to reuse."""
        seen: set = set()
        for p in range(pass_no + 1):
            rng = self.rng(seed, p)
            jobs = []
            for i, shape in enumerate(self.schedule):
                job = self.make_job(i, shape, rng)
                while tuple(job.inputs["b"]) in seen:
                    job = self.make_job(i, shape, rng)
                seen.add(tuple(job.inputs["b"]))
                jobs.append(job)
        return jobs

    def make_job(self, index, shape, rng):
        order, density, terms, height, phi = shape
        size = (order - 1) // 2 + 1
        cs = _rand_coeffs(rng, size, 1 if density == "one" else
                          (None if density == "dense" else terms), height)
        return Job(index, "members/N%d/%s%s/h%d/phi=%s"
                   % (order, density, terms or "", height, phi),
                   {"order": order, "b": cs, "phi": phi})

    def warm_up(self, lib):
        b = lib.series.Series([Fraction(1), Fraction(2)], 3)
        g = lib.pseudo.g_from_b(b, Fraction(1, 2), 8)
        lib.pseudo.b_from_g(g)
        lib.pseudo.sqrt_decompose(g)
        lib.riordan.RiordanPair(g, g).is_pseudo_involution()

    def run(self, lib, job):
        i = job.inputs
        b = lib.series.Series(i["b"], len(i["b"]) - 1)
        g = lib.pseudo.g_from_b(b, i["phi"], i["order"])
        b_back = lib.pseudo.b_from_g(g)
        sd = lib.pseudo.sqrt_decompose(g)
        ok = lib.riordan.RiordanPair(g, g).is_pseudo_involution()
        return SimpleNamespace(g=g, b=b_back, sqrt_g=sd.sqrt_g, h=sd.h, s=sd.s,
                               pseudo=ok)

    def canonical(self, job, out):
        return (_series_lines("g", out.g) + _series_lines("b", out.b) +
                _series_lines("sqrt_g", out.sqrt_g) + _series_lines("h", out.h) +
                _series_lines("s", out.s) + ["pseudo:%s" % out.pseudo])

    def check(self, lib, job, out):
        i = job.inputs
        S = lib.series.Series
        want_b = [c * i["phi"] for c in i["b"]]
        if out.pseudo is not True:
            return "is_pseudo_involution returned %r" % (out.pseudo,)
        if out.g.order != i["order"]:
            return "g has order %d" % out.g.order
        if list(out.b.coeffs) != want_b:
            return "b_from_g output differs from phi*B"
        if list(lib.pseudo.b_from_g(out.g).coeffs) != want_b:
            return "b_from_g(g) differs from phi*B"
        if out.sqrt_g * out.sqrt_g != out.g:
            return "sqrt_g^2 differs from g"
        if out.h * out.h.alternate() != S.one(out.h.order):
            return "h(x)h(-x) differs from 1"
        if out.s != (out.h - out.h.alternate()) / 2:
            return "s differs from (h(x) - h(-x))/2"
        return None


# triangles ------------------------------------------------------------------

class Triangles(Workload):
    """CLI verbs that build B-composition triangles and expansion polynomials.

    Shape: (verb, B, order, format, phi).  B is a named family (shared work
    across jobs and passes) or "rand<terms>" (a fresh sparse polynomial).
    ``phi`` is passed to ``riordan build`` and used by the cross-check.
    """

    name = "triangles"
    schedule = (
        ("bcomp", "geom", 12, "text", PHIS[3]), ("bexp", "geom", 12, "csv", PHIS[2]),
        ("riordan", "geom", 12, "json", PHIS[1]),
        ("bcomp", "one_plus_x", 16, "csv", PHIS[2]), ("bexp", "catalan", 16, "json", PHIS[3]),
        ("riordan", "rand3", 16, "text", PHIS[2]), ("bcomp", "rand4", 16, "json", PHIS[1]),
        ("bexp", "rand3", 16, "text", PHIS[1]), ("bcomp", "catalan", 16, "text", PHIS[3]),
        ("bexp", "one_plus_x", 20, "text", PHIS[1]), ("riordan", "catalan", 20, "csv", PHIS[3]),
        ("bcomp", "geom", 20, "json", PHIS[2]), ("bexp", "rand5", 20, "csv", PHIS[3]),
        ("riordan", "rand4", 20, "json", PHIS[0]), ("bcomp", "rand3", 20, "csv", PHIS[3]),
        ("bexp", "geom", 24, "json", PHIS[3]), ("bcomp", "catalan", 24, "csv", PHIS[1]),
        ("riordan", "one_plus_x", 24, "text", PHIS[2]), ("bcomp", "rand5", 24, "text", PHIS[2]),
        ("bexp", "rand4", 24, "json", PHIS[2]), ("riordan", "rand5", 24, "csv", PHIS[1]),
        ("bcomp", "one_plus_x", 28, "json", PHIS[3]), ("bexp", "one_plus_x", 28, "csv", PHIS[0]),
        ("riordan", "geom", 24, "csv", PHIS[3]), ("bcomp", "rand4", 28, "csv", PHIS[0]),
        ("bexp", "one_plus_x", 32, "text", PHIS[2]), ("bcomp", "geom", 32, "text", PHIS[1]),
        ("riordan", "rand3", 28, "json", PHIS[3]),
    )
    _verbs = {"bcomp": ["bcomp", "matrix"], "bexp": ["bexp", "poly"],
              "riordan": ["riordan", "build"]}

    def __init__(self):
        self._memo: dict = {}

    def make_job(self, index, shape, rng):
        verb, family, order, fmt, phi = shape
        size = order + 1
        if family in NAMED:
            text, cs = family, named_coeffs(family, size)
        else:
            half = (order - 1) // 2 + 1
            cs = _rand_coeffs(rng, half, int(family[4:]), 9) + [Fraction(0)] * (size - half)
            text = poly_text(cs)
        argv = self._verbs[verb] + ["--b", text, "--order", str(order), "--format", fmt]
        if verb == "riordan":
            argv.append("--phi=%s" % phi)
        return Job(index, "triangles/%s/%s/N%d/%s" % (verb, family, order, fmt),
                   {"verb": verb, "argv": argv, "b": cs, "order": order,
                    "fmt": fmt, "phi": phi, "shared": family in NAMED})

    def warm_up(self, lib):
        for verb in self._verbs.values():
            lib.cli.run(verb + ["--b", "1 + (1/2)*x", "--order", "6"])

    def run(self, lib, job):
        return lib.cli.run(job.inputs["argv"])

    def _values(self, job, out):
        i = job.inputs
        if i["verb"] == "bexp":
            return parse_polys(out.output, i["fmt"])
        return parse_matrix(out.output, i["fmt"])

    def canonical(self, job, out):
        if out.status != "ok":
            return ["status:%s" % out.status]
        return ["status:ok"] + _rows_lines("row", self._values(job, out))

    def _reference(self, lib, job, kind):
        """Second-route series, memoised for the recurring named families."""
        i = job.inputs
        key = (kind, tuple(i["b"]), i["order"], i["phi"])
        if key in self._memo:
            return self._memo[key]
        S = lib.series.Series
        b = S(i["b"], len(i["b"]) - 1)
        if kind == "bcomp":
            ref = lib.pseudo.g_from_b(b, i["phi"], i["order"])
        else:
            ref = lib.pseudo.g_from_b(b, 1, i["order"]).pow_scalar(i["phi"])
        if i["shared"]:
            self._memo[key] = ref
        return ref

    def check(self, lib, job, out):
        bad = _cli_status(out)
        if bad:
            return bad
        i = job.inputs
        n_rows = i["order"] + 1
        vals = self._values(job, out)
        if len(vals) != n_rows:
            return "%d rows, expected %d" % (len(vals), n_rows)
        phi = i["phi"]
        if i["verb"] in ("bcomp", "bexp"):
            ref = self._reference(lib, job, i["verb"])
            for n, row in enumerate(vals):
                if _eval_poly(row, phi) != ref[n]:
                    return "row %d at phi=%s differs from the fixed-point route" % (n, phi)
            return None
        # riordan build: the pair (g, xg) is a pseudo-involution, so M*D with
        # D = diag((-1)^n) squares to the identity, and its first column is
        # the member whose B-sequence is phi*B.
        for n, row in enumerate(vals):
            if len(row) != n + 1:
                return "row %d has %d entries" % (n, len(row))
        for n in range(n_rows):
            for m in range(n + 1):
                acc = sum((vals[n][k] * vals[k][m] if k % 2 == 0 else -vals[n][k] * vals[k][m])
                          for k in range(m, n + 1))
                want = 1 if m == n else 0
                if (acc if m % 2 == 0 else -acc) != want:
                    return "(M D)^2 differs from I at (%d, %d)" % (n, m)
        g = lib.series.Series([row[0] for row in vals], n_rows - 1)
        kmax = (n_rows - 2) // 2
        want_b = [c * phi for c in i["b"][:kmax + 1]]
        if list(lib.pseudo.b_from_g(g).coeffs) != want_b:
            return "b_from_g(column 0) differs from phi*B"
        return None


# flows ----------------------------------------------------------------------

class Flows(Workload):
    """Bell-subgroup and substitution flows, at rational and symbolic
    parameters, through the API and two CLI verbs.

    Shape: (kind, order, terms or None for dense, parameter).  g is
    1 + a random polynomial of the given support and height 4.
    """

    name = "flows"
    schedule = (
        ("bell", 12, 4, Fraction(1, 3)), ("weights", 12, None, None),
        ("subst", 12, 4, Fraction(2, 3)), ("symbolic", 12, 3, None),
        ("cli_flow", 12, None, "text"), ("cli_ab", 12, 4, "json"),
        ("bell", 16, None, Fraction(-5, 7)), ("weights", 16, 4, None),
        ("subst", 16, None, Fraction(1, 2)), ("symbolic", 14, 4, None),
        ("cli_flow", 16, 4, "csv"), ("cli_ab", 16, None, "text"),
        ("bell", 20, 5, Fraction(2, 3)), ("weights", 20, 5, None),
        ("subst", 18, 4, Fraction(-1, 3)), ("cli_flow", 18, 5, "json"),
        ("cli_ab", 20, 5, "csv"),
        ("bell", 24, 4, Fraction(1, 2)), ("weights", 24, 4, None),
        ("subst", 24, 3, Fraction(1, 3)), ("symbolic", 16, None, None),
    )

    def make_job(self, index, shape, rng):
        kind, order, terms, param = shape
        cs = [Fraction(1)] + _rand_coeffs(rng, order, terms, 4)
        inputs = {"kind": kind, "order": order, "g": cs, "param": param}
        if kind == "cli_flow":
            inputs["argv"] = ["flow", "log", "--g", poly_text(cs),
                              "--order", str(order), "--format", param]
        elif kind == "cli_ab":
            inputs["argv"] = ["alphabeta", "expand", "--g", "x*(%s)" % poly_text(cs),
                              "--order", str(order), "--format", param]
        return Job(index, "flows/%s/N%d/%s/%s" % (kind, order, terms or "dense", param),
                   inputs)

    def warm_up(self, lib):
        g = lib.series.Series([1, Fraction(1, 2), 0, 1], 6)
        xg = g.x_mul(1).truncate(6)
        lib.flow.l_matrix(g, 7)
        lib.alphabeta.alpha_weights(xg)
        lib.alphabeta.composition_poly(xg, 4)
        lib.cli.run(["flow", "log", "--g", "1 + x", "--order", "6"])

    def _series(self, lib, job):
        i = job.inputs
        g = lib.series.Series(i["g"], i["order"])
        return g, g.x_mul(1).truncate(i["order"])

    def run(self, lib, job):
        i = job.inputs
        kind, order, param = i["kind"], i["order"], i["param"]
        if kind in ("cli_flow", "cli_ab"):
            return lib.cli.run(i["argv"])
        g, xg = self._series(lib, job)
        ab, fl = lib.alphabeta, lib.flow
        if kind == "bell":
            return SimpleNamespace(l=fl.l_matrix(g, order + 1),
                                   power=fl.bell_power_series(g, param))
        if kind == "weights":
            return SimpleNamespace(alpha=ab.alpha_weights(xg), beta=ab.beta_weights(xg))
        if kind == "subst":
            return SimpleNamespace(omega=ab.log_generator(xg),
                                   power=ab.substitution_power(xg, param))
        t = lib.series.Poly.var("t")
        return SimpleNamespace(comp=ab.composition_poly(xg, order, "t"),
                               c=fl.c_poly(g, order, "phi"),
                               s=ab.s_poly(xg, order - 1, "z"),
                               family=ab.family_alpha(xg, t, order // 2 + 2))

    def canonical(self, job, out):
        kind = job.inputs["kind"]
        if kind == "cli_flow":
            if out.status != "ok":
                return ["status:%s" % out.status]
            return ["status:ok"] + _rows_lines("row", parse_matrix(out.output, job.inputs["param"]))
        if kind == "cli_ab":
            if out.status != "ok":
                return ["status:%s" % out.status]
            rows = parse_weight_rows(out.output, job.inputs["param"])
            return ["status:ok"] + _rows_lines("alpha", [rows["alpha"]]) + _rows_lines("beta", [rows["beta"]])
        if kind == "bell":
            return _rows_lines("l", out.l.rows) + _series_lines("power", out.power)
        if kind == "weights":
            return _rows_lines("alpha", [out.alpha]) + _rows_lines("beta", [out.beta])
        if kind == "subst":
            return _series_lines("omega", out.omega) + _series_lines("power", out.power)
        return (["comp:" + canon(out.comp), "c:" + canon(out.c), "s:" + canon(out.s)] +
                _series_lines("family", out.family))

    def check(self, lib, job, out):
        i = job.inputs
        kind, order, param = i["kind"], i["order"], i["param"]
        g, xg = self._series(lib, job)
        ab = lib.alphabeta
        S = lib.series.Series
        if kind in ("cli_flow", "cli_ab"):
            bad = _cli_status(out)
            if bad:
                return bad
        if kind == "cli_flow":
            rows = parse_matrix(out.output, param)
            if len(rows) != order + 1:
                return "%d rows, expected %d" % (len(rows), order + 1)
            # row n of the flow triangle is c_n, and c_n(k) = [x^n] g^(k):
            # g at k = 1, and g * g(xg) at k = 2
            square = g * g.compose(xg)
            for n, row in enumerate(rows):
                if _eval_poly(row, Fraction(1)) != g[n]:
                    return "row %d at phi=1 differs from g" % n
                if _eval_poly(row, Fraction(2)) != square[n]:
                    return "row %d at phi=2 differs from g*g(xg)" % n
            return None
        if kind in ("cli_ab", "weights"):
            if kind == "cli_ab":
                rows = parse_weight_rows(out.output, param)
                alpha, beta = rows["alpha"], rows["beta"]
            else:
                alpha, beta = out.alpha, out.beta
            if ab.from_alpha(alpha, order) != xg:
                return "from_alpha(alpha_weights(g)) differs from g"
            if ab.from_beta(beta, order) != xg:
                return "from_beta(beta_weights(g)) differs from g"
            return None
        if kind == "bell":
            for n, row in enumerate(out.l.rows):
                if _eval_poly(row, param) != out.power[n]:
                    return "c_%d(phi) differs from the binomial power" % n
                if _eval_poly(row, Fraction(1)) != g[n]:
                    return "c_%d(1) differs from g" % n
            return None
        if kind == "subst":
            back = ab.substitution_power(xg, 1 - param).compose(out.power)
            if back != xg:
                return "power(1-t) o power(t) differs from g"
            # omega is fixed by omega_2 = g_2 and the Julia equation
            # omega(g(x)) = omega(x) g'(x).  xg is a polynomial, so the
            # equation holds exactly through x^(N+1), where omega_(N+1)
            # cancels and omega_N is tested through its factor (N-2) g_2.
            om = out.omega.zero_extended(order + 1)
            exact = S(i["g"], order).x_mul(1).zero_extended(order + 2)
            if om.coeff(2) != xg.coeff(2):
                return "omega_2 differs from g_2"
            if om.compose(exact.truncate(order + 1)) != om * exact.deriv():
                return "omega(g) differs from omega * g'"
            return None
        # symbolic: evaluate each polynomial at points a second route knows
        comp = list(out.comp.coeffs)
        if _eval_poly(comp, Fraction(1)) != xg[order]:
            return "composition_poly(1) differs from g"
        if _eval_poly(comp, Fraction(-1)) != xg.revert()[order]:
            return "composition_poly(-1) differs from the reversion of g"
        cs = list(out.c.coeffs)
        if _eval_poly(cs, Fraction(1)) != g[order]:
            return "c_poly(1) differs from g"
        if _eval_poly(cs, Fraction(2)) != (g * g.compose(xg))[order]:
            return "c_poly(2) differs from g*g(xg)"
        s = list(out.s.coeffs)
        if _eval_poly(s, Fraction(2)) != (g * g)[order - 1]:
            return "s_poly(2) differs from g^2"
        if _eval_poly(s, Fraction(-1)) != g.inverse()[order - 1]:
            return "s_poly(-1) differs from 1/g"
        fam = out.family
        at1 = [_eval_poly(c.coeffs, Fraction(1)) if hasattr(c, "param") else c
               for c in fam.coeffs]
        at0 = [_eval_poly(c.coeffs, Fraction(0)) if hasattr(c, "param") else c
               for c in fam.coeffs]
        if at1 != list(xg.truncate(fam.order).coeffs):
            return "family_alpha(t=1) differs from g"
        if at0 != list(S.x(fam.order).coeffs):
            return "family_alpha(t=0) differs from x"
        return None


WORKLOADS = {w.name: w for w in (Members, Triangles, Flows)}
