"""Lower-triangular matrices and Riordan pairs over exact scalars.

A :class:`RiordanPair` stores (f, g) and represents the array whose column m
has ordinary generating function f(x) * (x*g(x))**m; the exponential variant
weights entry (n, m) by n!/m!.  The pair convention keeps the "multiplier
part" g with g(0) != 0 explicit, so pseudo-involution bookkeeping (which lives
entirely in g) stays series-level.

Matrix products follow (f, xg)(b, xa) = (f * b(xg), xg * a(xg)); at the
matrix level that is ordinary matrix multiplication, which the tests exercise
as an independent route.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Sequence

from .errors import (BadArgument, BadConstantTerm, InsufficientOrder,
                     NotPseudoInvolution)
from .series import Coeff, Poly, Series

__all__ = [
    "TriMatrix",
    "RiordanPair",
    "a_sequence",
    "conv_polys",
    "row_poly",
    "col_gf",
    "diag_down_gf",
    "diag_up_poly",
    "matrix_to_text",
    "matrix_to_csv",
    "matrix_to_json_dict",
    "matrix_from_json_dict",
    "coeff_str",
]


# ─────────────────────────────────────────────────────────────────────────────
# Triangular matrices
# ─────────────────────────────────────────────────────────────────────────────

class TriMatrix:
    """Dense lower-triangular matrix; row n carries n+1 entries."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[Coeff]]):
        rws = [list(r) for r in rows]
        for n, r in enumerate(rws):
            if len(r) != n + 1:
                raise BadArgument("row %d must have %d entries, got %d"
                                  % (n, n + 1, len(r)))
        self.rows = rws

    @classmethod
    def identity(cls, size: int) -> "TriMatrix":
        return cls([[1 if j == n else 0 for j in range(n + 1)] for n in range(size)])

    @classmethod
    def from_entry_fn(cls, size: int, fn: Callable[[int, int], Coeff]) -> "TriMatrix":
        return cls([[fn(n, m) for m in range(n + 1)] for n in range(size)])

    @property
    def size(self) -> int:
        return len(self.rows)

    def entry(self, n: int, m: int) -> Coeff:
        if not 0 <= n < self.size:
            raise IndexError("row %d outside matrix of size %d" % (n, self.size))
        if not 0 <= m <= n:
            return 0
        return self.rows[n][m]

    def __eq__(self, other):
        if isinstance(other, TriMatrix):
            return (self.size == other.size and
                    all(a == b for ra, rb in zip(self.rows, other.rows)
                        for a, b in zip(ra, rb)))
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __mul__(self, other):
        if not isinstance(other, TriMatrix):
            return NotImplemented
        self._require_size(other.size)
        out = []
        for n in range(self.size):
            row = []
            for m in range(n + 1):
                acc: Coeff = 0
                for k in range(m, n + 1):
                    a = self.rows[n][k]
                    if a == 0:
                        continue
                    b = other.rows[k][m]
                    if b == 0:
                        continue
                    acc = acc + a * b
                row.append(acc)
            out.append(row)
        return TriMatrix(out)

    def __add__(self, other):
        if not isinstance(other, TriMatrix):
            return NotImplemented
        self._require_size(other.size)
        return TriMatrix([[a + b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        if not isinstance(other, TriMatrix):
            return NotImplemented
        self._require_size(other.size)
        return TriMatrix([[a - b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.rows, other.rows)])

    def _require_size(self, size: int) -> None:
        if size != self.size:
            raise BadArgument("matrix sizes differ: %d and %d" % (self.size, size))

    def scale(self, c: Coeff) -> "TriMatrix":
        return TriMatrix([[a * c for a in r] for r in self.rows])

    def inverse(self) -> "TriMatrix":
        """Forward substitution; diagonal entries must be nonzero rationals."""
        size = self.size
        inv: list[list[Coeff]] = [[0] * (n + 1) for n in range(size)]
        for n in range(size):
            dn = self.rows[n][n]
            if isinstance(dn, Poly) or dn == 0:
                raise BadArgument("diagonal entry %s at row %d is not a nonzero "
                                  "rational" % (dn, n))
            dn_inv = 1 / Fraction(dn)
            inv[n][n] = dn_inv
            for m in range(n - 1, -1, -1):
                acc: Coeff = 0
                for k in range(m, n):
                    a = self.rows[n][k]
                    if a != 0:
                        acc = acc + a * inv[k][m]
                inv[n][m] = -dn_inv * acc
        return TriMatrix(inv)

    def is_unipotent(self) -> bool:
        return all(self.rows[n][n] == 1 for n in range(self.size))

    def _require_unipotent(self) -> None:
        if not self.is_unipotent():
            raise BadArgument("matrix logarithm and powers need a unit diagonal")

    def log(self) -> "TriMatrix":
        """Matrix logarithm of a unipotent triangular matrix (finite sum)."""
        self._require_unipotent()
        e = self - TriMatrix.identity(self.size)
        acc = TriMatrix.identity(self.size).scale(0)
        power = TriMatrix.identity(self.size)
        for k in range(1, self.size):
            power = power * e
            acc = acc + power.scale(Fraction((-1) ** (k - 1), k))
        return acc

    def pow_binomial(self, phi: Coeff) -> "TriMatrix":
        """M**phi = sum_k C(phi, k) (M - I)**k; finite because M - I is nilpotent.

        ``phi`` may be rational or a Poly, giving parametric matrix powers.
        """
        self._require_unipotent()
        e = self - TriMatrix.identity(self.size)
        acc = TriMatrix.identity(self.size)
        power = TriMatrix.identity(self.size)
        coeff: Coeff = 1
        for k in range(1, self.size):
            power = power * e
            coeff = coeff * (phi - (k - 1)) / Fraction(k)
            acc = acc + power.scale(coeff)
        return acc

    def truncated(self, size: int) -> "TriMatrix":
        if not 0 <= size <= self.size:
            raise BadArgument("cannot truncate a matrix of size %d to %d"
                              % (self.size, size))
        return TriMatrix([row[:] for row in self.rows[:size]])

    def __repr__(self):
        return "TriMatrix(size=%d)" % self.size


# ─────────────────────────────────────────────────────────────────────────────
# Riordan pairs
# ─────────────────────────────────────────────────────────────────────────────

@dataclass(frozen=True)
class RiordanPair:
    """The array (f(x), x*g(x)) with f(0) != 0 and g(0) != 0."""

    f: Series
    g: Series

    def __post_init__(self):
        if self.f.constant == 0:
            raise BadConstantTerm("f must be invertible at 0")
        if self.g.constant == 0:
            raise BadConstantTerm("g must be invertible at 0")

    @classmethod
    def identity(cls, order: int) -> "RiordanPair":
        return cls(Series.one(order), Series.one(order))

    @classmethod
    def pascal(cls, order: int, phi: Coeff = 1) -> "RiordanPair":
        """P**phi = (1/(1-phi*x), x/(1-phi*x))."""
        geom = Series.geometric(order, phi)
        return cls(geom, geom)

    @property
    def order(self) -> int:
        return min(self.f.order, self.g.order)

    def xg(self) -> Series:
        return self.g.x_mul(1)

    def matrix(self, size: int) -> TriMatrix:
        """First ``size`` rows; entry (n, m) = [x^n] f * (x*g)^m.

        Reads f through x^(size-1) and g through x^(size-2): the factor x
        in x*g spends one order.
        """
        n = size - 1
        if self.f.order < n or self.g.order < n - 1:
            raise InsufficientOrder(
                "need series orders %d (f) and %d (g) for %d rows, have %d and %d"
                % (n, n - 1, size, self.f.order, self.g.order))
        col = self.f
        rows = [[0] * (k + 1) for k in range(size)]
        for m in range(size):
            for r in range(m, size):
                rows[r][m] = col.coeff(r - m)
            if m < n:
                # column m+1 reads only x^0 .. x^(n-m-1) of f * g^(m+1)
                k = n - m - 1
                col = col.truncate(k) * self.g.truncate(k)
        return TriMatrix(rows)

    def exp_matrix(self, size: int) -> TriMatrix:
        """Exponential variant: entry (n, m) = (n!/m!) [x^n] f * (x*g)^m."""
        plain = self.matrix(size)
        return TriMatrix.from_entry_fn(
            size,
            lambda n, m: plain.entry(n, m) * Fraction(factorial(n), factorial(m)))

    def __mul__(self, other):
        if not isinstance(other, RiordanPair):
            return NotImplemented
        # (f, xg)(b, xa) = (f * b(xg), xg * a(xg))
        n = min(self.order, other.order)
        f1, g1 = self.f.truncate(n), self.g.truncate(n)
        xg = g1.x_mul(1).truncate(n)
        b_of = other.f.truncate(n).compose(xg)
        a_of = other.g.truncate(n).compose(xg)
        return RiordanPair(f1 * b_of, g1 * a_of)

    def inv(self) -> "RiordanPair":
        """Group inverse: (f, F)^{-1} = (1/f(revert F), revert F).

        With F = x*g and gbar = revert(F)/x, F(revert F) = x gives
        g(revert F) = 1/gbar.  So when f agrees with g through the pair's
        order (every Bell pair (g, xg)) the inverse is (gbar, x*gbar), with
        no composition; any other f is composed with revert F.
        """
        n = self.order
        w = self.g.truncate(n).x_mul(1)       # F = x*g, order n+1
        wbar = w.revert()
        gbar = wbar.div_x(1)                  # order n
        if self.f.agrees(self.g, n):
            return RiordanPair(gbar, gbar)
        f_at = self.f.truncate(n).compose(wbar.truncate(n))
        return RiordanPair(f_at.inverse(), gbar)

    def is_pseudo_involution(self, upto: int | None = None) -> bool:
        """Does (f, xg)^{-1} = (f(-x), x*g(-x)) hold to the stored order?

        The two degenerate multiplier constants g = -1 (the pairs (1, -x) and
        (-1, -x)) are genuine involutions and are accepted as such; any other
        g with g(0) != 1 is rejected.
        """
        if self.g.constant != 1:
            if self.g.agrees(Series([-1], self.g.order)) and (
                    self.f.agrees(Series.one(self.f.order)) or
                    self.f.agrees(Series([-1], self.f.order))):
                return True
            raise NotPseudoInvolution("multiplier part must have g(0) = 1, got %r"
                                      % (self.g.constant,))
        inv = self.inv()
        n = min(inv.order, self.order if upto is None else upto)
        return (inv.g.agrees(self.g.alternate(), n) and
                inv.f.agrees(self.f.alternate(), n))


# ─────────────────────────────────────────────────────────────────────────────
# Derived sequences and polynomial views
# ─────────────────────────────────────────────────────────────────────────────

def a_sequence(g: Series) -> Series:
    """The A-sequence of (f, xg): the unique A with g = A(x*g).

    Computed through reversion: revert(x*g) = x / A(x).
    """
    w = g.x_mul(1)
    u = w.revert().div_x(1)
    return u.inverse()


def conv_polys(g: Series, count: int, param: str = "z") -> list[Poly]:
    """Convolution polynomials: l_n(z) = [x^n] g(x)**z, as Polys in z."""
    if g.constant != 1:
        raise BadConstantTerm("convolution polynomials need g(0) = 1, got %r"
                              % (g.constant,))
    if count < 1:
        raise BadArgument("need at least one polynomial, got count %d" % count)
    if count - 1 > g.order:
        raise InsufficientOrder("need order %d, have %d" % (count - 1, g.order))
    gz = g.truncate(count - 1).pow_param(param)
    out = []
    for n in range(count):
        c = gz.coeff(n)
        out.append(c if isinstance(c, Poly) else Poly.const(param, c))
    return out


def row_poly(mat: TriMatrix, n: int, param: str = "x") -> Poly:
    if not 0 <= n < mat.size:
        raise IndexError("row %d outside matrix of size %d" % (n, mat.size))
    return Poly(param, mat.rows[n])


def col_gf(mat: TriMatrix, m: int) -> Series:
    """Column m as a series of order size-1 (entries below the triangle are 0)."""
    if not 0 <= m < mat.size:
        raise IndexError("column %d outside matrix of size %d" % (m, mat.size))
    n = mat.size - 1
    return Series([mat.entry(r, m) for r in range(mat.size)], n)


def diag_down_gf(mat: TriMatrix, n: int) -> Series:
    """Falling diagonal from (n, 0): coefficient of x^m is entry (n+m, m)."""
    if not 0 <= n < mat.size:
        raise IndexError("diagonal %d outside matrix of size %d" % (n, mat.size))
    length = mat.size - n
    return Series([mat.entry(n + m, m) for m in range(length)], length - 1)


def diag_up_poly(mat: TriMatrix, n: int, param: str = "x") -> Poly:
    """Rising diagonal from (n, 0): coefficient of x^m is entry (n-m, m)."""
    if not 0 <= n < mat.size:
        raise IndexError("diagonal %d outside matrix of size %d" % (n, mat.size))
    return Poly(param, [mat.entry(n - m, m) for m in range(n // 2 + 1)])


# ─────────────────────────────────────────────────────────────────────────────
# Serialization
# ─────────────────────────────────────────────────────────────────────────────

def coeff_str(c: Coeff) -> str:
    """Bit-exact ``num/den`` rendering of a rational entry."""
    f = Fraction(c)
    return "%d/%d" % (f.numerator, f.denominator)


def matrix_to_json_dict(mat: TriMatrix) -> dict:
    return {"size": mat.size,
            "rows": [[coeff_str(c) for c in row] for row in mat.rows]}


def matrix_from_json_dict(data: dict) -> TriMatrix:
    rows = [[Fraction(s) for s in row] for row in data["rows"]]
    if len(rows) != data["size"]:
        raise BadArgument("size %r but %d rows" % (data["size"], len(rows)))
    return TriMatrix(rows)


def matrix_to_csv(mat: TriMatrix) -> str:
    lines = [",".join(coeff_str(c) for c in row) for row in mat.rows]
    return "\n".join(lines) + "\n"


def _entry_text(c: Coeff) -> str:
    f = Fraction(c)
    return str(f.numerator) if f.denominator == 1 else "%d/%d" % (f.numerator, f.denominator)


def matrix_to_text(mat: TriMatrix) -> str:
    """Column-aligned plain text; integer entries print without a denominator."""
    cells = [[_entry_text(c) for c in row] for row in mat.rows]
    widths = [0] * mat.size
    for row in cells:
        for j, s in enumerate(row):
            widths[j] = max(widths[j], len(s))
    lines = []
    for row in cells:
        lines.append("  ".join(s.rjust(widths[j]) for j, s in enumerate(row)))
    return "\n".join(lines) + "\n"
