"""Exact truncated power series over Q, and polynomials in a named parameter.

Two value types live here:

* :class:`Poly` -- a dense polynomial in one named parameter ("phi", "beta",
  "t", ...).  Coefficients are ints, Fractions, or Polys in a *different*
  parameter, so two-parameter work nests one level without a general
  multivariate engine.
* :class:`Series` -- a truncated formal power series storing coefficients of
  x^0..x^order exactly.  Coefficients may be ints, Fractions, or Polys;
  arithmetic never rounds.

Order bookkeeping: binary operations truncate to the smaller operand order.
Multiplying by x (``x_mul``) raises the order, dividing by x (``div_x``)
lowers it; neither invents coefficients.

Coefficient sums: every kernel that sums coefficient products (``*``,
``inverse``, ``sqrt``, ``exp``, ``revert``, ``pseudo.g_from_b`` and the
streamed flow column of ``alphabeta``) does so through one exact dot
product, ``_dot``.  Rational terms are accumulated as integer numerators
over a running lcm of their denominators and normalised by one gcd per
coefficient; no Fraction is built per term.  Typing rule: a coefficient is
an int when every operand of its sum is an int, a Fraction when one is a
Fraction (a Fraction 0 included), and a Poly when one is a Poly, as when
each term was added as a Fraction or Poly in turn.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Sequence, Union

from .errors import (BadArgument, BadConstantTerm, InsufficientOrder,
                     NonzeroConstant, NotReversible)

Rational = Fraction
Coeff = Union[int, Fraction, "Poly"]

__all__ = [
    "Rational",
    "Coeff",
    "Poly",
    "Series",
    "falling_factorial",
    "binom_param",
]


def _is_zero(c: Coeff) -> bool:
    return c == 0


_RATIONAL = (int, Fraction)


def _dot(xs: Sequence[Coeff], ys: Sequence[Coeff], skip: str = "xy") -> Coeff:
    """Exact sum of x*y over the zipped pairs of ``xs`` and ``ys``; the one
    place the kernels sum coefficient products.

    A pair is left out when its x (``skip`` "x"), its x or its y ("xy", the
    default) or nothing ("") vanishes.  The value does not depend on
    ``skip``; the type does: the result is what ``acc = acc + x*y`` gives
    over the pairs kept, an int when every kept operand is an int (0 when
    none is kept), a Fraction when one is a Fraction, a Poly when one is a
    Poly.  Each kernel passes the ``skip`` of the loop it replaced, so its
    output keeps that loop's types.

    Rational pairs build no Fraction per term: the integer numerator
    products are summed over a running lcm of the denominator products,
    rescaled only when that lcm grows, and one gcd normalises the total.
    Once a kept pair has a Poly operand, the loop above runs instead.
    """
    ints, num, den, frac = 0, 0, 1, False
    for x, y in zip(xs, ys):
        tx, ty = type(x), type(y)
        if tx is int and ty is int:
            ints += x * y
        elif tx not in _RATIONAL or ty not in _RATIONAL:
            if _kept(x, y, skip):
                break                    # a Poly operand: the generic loop
        elif x and y:
            frac = True
            d = x.denominator * y.denominator
            if d == den:
                num += x.numerator * y.numerator
            elif den % d == 0:
                num += x.numerator * y.numerator * (den // d)
            else:
                g = gcd(den, d)
                num = num * (d // g) + x.numerator * y.numerator * (den // g)
                den *= d // g
        elif _kept(x, y, skip):
            frac = True                  # a kept Fraction 0 types the sum
    else:
        return Fraction(num + ints * den, den) if frac else ints
    acc: Coeff = 0
    for x, y in zip(xs, ys):
        if _kept(x, y, skip):
            acc = acc + x * y
    return acc


def _kept(x: Coeff, y: Coeff, skip: str) -> bool:
    return not ("x" in skip and _is_zero(x) or "y" in skip and _is_zero(y))


# ─────────────────────────────────────────────────────────────────────────────
# Polynomials in one named parameter
# ─────────────────────────────────────────────────────────────────────────────

class Poly:
    """Dense polynomial in a single named parameter.

    Same-name polynomials combine; combining with a different-name polynomial
    is allowed only when the latter is constant.  That keeps nesting (e.g. a
    "beta" polynomial whose coefficients are "phi" polynomials) an explicit
    construction rather than a silent coercion.
    """

    __slots__ = ("param", "coeffs")

    def __init__(self, param: str, coeffs: Iterable[Coeff] = ()):
        assert isinstance(param, str), "parameter name must be a string"
        cs = list(coeffs)
        while cs and _is_zero(cs[-1]):
            cs.pop()
        self.param = param
        self.coeffs = tuple(cs)

    # construction ----------------------------------------------------------

    @classmethod
    def var(cls, param: str) -> "Poly":
        return cls(param, (0, 1))

    @classmethod
    def const(cls, param: str, value: Coeff) -> "Poly":
        return cls(param, (value,))

    # structure -------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reporting -1."""
        return len(self.coeffs) - 1

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant(self) -> Coeff:
        return self.coeffs[0] if self.coeffs else 0

    def coeff(self, k: int) -> Coeff:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    # coercion --------------------------------------------------------------

    def _lift(self, other) -> "Poly | None":
        """Return ``other`` as a same-parameter Poly, or None if impossible."""
        if isinstance(other, Poly):
            if other.param == self.param:
                return other
            if other.is_constant():
                return Poly(self.param, (other.constant(),))
            return None
        if isinstance(other, (int, Fraction)):
            return Poly(self.param, (other,))
        return None

    # arithmetic ------------------------------------------------------------

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return Poly(self.param, (self.coeff(k) + o.coeff(k) for k in range(n)))

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.param, (-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if not self.coeffs or not o.coeffs:
            return Poly(self.param)
        out = [0] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if _is_zero(a):
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.param, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = Fraction(other)
        if isinstance(other, Fraction):
            return self * (1 / other)
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise BadArgument("exponent must be a nonnegative int, got %r" % (k,))
        out = Poly.const(self.param, 1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, Poly):
            if other.param == self.param:
                return self.coeffs == other.coeffs or self._coeffs_match(other)
            if self.is_constant() and other.is_constant():
                return self.constant() == other.constant()
            return False
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant() == other
        return NotImplemented

    def _coeffs_match(self, other: "Poly") -> bool:
        # int 3 and Fraction(3) are distinct objects but equal coefficients
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    __hash__ = None  # type: ignore[assignment]

    # calculus / evaluation -------------------------------------------------

    def __call__(self, value):
        """Evaluate by Horner; ``value`` may be a scalar, Poly, or Series."""
        result: Coeff = 0
        for c in reversed(self.coeffs):
            result = result * value + c
        return result

    def deriv(self) -> "Poly":
        return Poly(self.param, (k * c for k, c in enumerate(self.coeffs) if k))

    # display ---------------------------------------------------------------

    def __repr__(self):
        return "Poly(%r, %r)" % (self.param, list(self.coeffs))

    def __str__(self):
        return format_terms(self.coeffs, self.param)


def format_terms(coeffs: Sequence[Coeff], var: str) -> str:
    """Human-readable ``3*x^2 - x + 1/2`` style rendering, highest degree last."""
    parts: list[str] = []
    for k, c in enumerate(coeffs):
        if _is_zero(c):
            continue
        if isinstance(c, Poly):
            body = "(%s)" % c
            sign = "+"
        else:
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            body = str(mag)
        if k == 0:
            term = body
        else:
            x = var if k == 1 else "%s^%d" % (var, k)
            term = x if body == "1" else "%s*%s" % (body, x)
        if not parts:
            parts.append(term if sign == "+" else "-" + term)
        else:
            parts.append("%s %s" % (sign, term))
    return " ".join(parts) if parts else "0"


def falling_factorial(start: Coeff, length: int) -> Coeff:
    """start * (start-1) * ... * (start-length+1); empty product for length 0.

    ``start`` may be a rational or a Poly, so the same helper serves numeric
    and symbolic coefficient formulas.
    """
    if length < 0:
        raise BadArgument("length must be nonnegative, got %d" % length)
    out: Coeff = 1
    for i in range(length):
        out = out * (start - i)
    return out


def binom_param(top: Coeff, k: int) -> Coeff:
    """Generalized binomial coefficient C(top, k) with rational or Poly top."""
    return falling_factorial(top, k) / Fraction(_factorial(k))


def _factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


# ─────────────────────────────────────────────────────────────────────────────
# Truncated power series
# ─────────────────────────────────────────────────────────────────────────────

class Series:
    """Exact truncated power series with coefficients of x^0 .. x^order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Sequence[Coeff], order: int | None = None):
        cs = list(coeffs)
        if order is None:
            if not cs:
                raise BadArgument("an empty coefficient list needs an order")
            order = len(cs) - 1
        if order < 0:
            raise BadArgument("order must be nonnegative, got %d" % order)
        if len(cs) < order + 1:
            cs.extend([0] * (order + 1 - len(cs)))
        else:
            del cs[order + 1:]
        self.order = order
        self.coeffs = tuple(cs)

    # construction ----------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls([], order)

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls([1], order)

    @classmethod
    def x(cls, order: int) -> "Series":
        return cls([0, 1], order)

    @classmethod
    def geometric(cls, order: int, ratio: Coeff = 1) -> "Series":
        """1/(1 - ratio*x)."""
        cs: list[Coeff] = [1]
        for _ in range(order):
            cs.append(cs[-1] * ratio)
        return cls(cs, order)

    @classmethod
    def catalan(cls, order: int) -> "Series":
        """Generating function of the Catalan numbers."""
        from math import comb
        return cls([Fraction(comb(2 * n, n), n + 1) for n in range(order + 1)], order)

    @classmethod
    def from_poly(cls, p: Poly, order: int) -> "Series":
        """View a polynomial in some parameter as a series in x."""
        return cls(list(p.coeffs), order)

    # access ----------------------------------------------------------------

    def __getitem__(self, n: int) -> Coeff:
        if not 0 <= n <= self.order:
            raise IndexError("coefficient %d outside stored order %d" % (n, self.order))
        return self.coeffs[n]

    def coeff(self, n: int) -> Coeff:
        """Like ``[]`` but returns 0 beyond the stored order."""
        return self.coeffs[n] if 0 <= n <= self.order else 0

    @property
    def constant(self) -> Coeff:
        return self.coeffs[0]

    def is_zero(self) -> bool:
        return all(_is_zero(c) for c in self.coeffs)

    def valuation(self) -> int | None:
        for n, c in enumerate(self.coeffs):
            if not _is_zero(c):
                return n
        return None

    # reshaping -------------------------------------------------------------

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise InsufficientOrder("cannot truncate order %d to %d"
                                    % (self.order, order))
        return Series(self.coeffs[: order + 1], order)

    def zero_extended(self, order: int) -> "Series":
        """Pad with zero coefficients up to ``order``.

        Only correct when the caller knows the represented object really has
        zero coefficients there (polynomials, or positions that cannot affect
        the truncated result).
        """
        if order <= self.order:
            return self.truncate(order)
        return Series(self.coeffs + (0,) * (order - self.order), order)

    def x_mul(self, k: int = 1) -> "Series":
        """Multiply by x^k exactly; order rises by k."""
        _require_shift(k)
        return Series((0,) * k + self.coeffs, self.order + k)

    def div_x(self, k: int = 1) -> "Series":
        """Divide by x^k; the dropped coefficients must be zero."""
        _require_shift(k)
        if any(not _is_zero(c) for c in self.coeffs[:k]):
            raise NotReversible("series is not divisible by x^%d" % k)
        return Series(self.coeffs[k:], self.order - k)

    def map_coeffs(self, fn: Callable[[Coeff], Coeff]) -> "Series":
        return Series([fn(c) for c in self.coeffs], self.order)

    def alternate(self) -> "Series":
        """The series of g(-x)."""
        return Series([c if n % 2 == 0 else -c for n, c in enumerate(self.coeffs)],
                      self.order)

    # ring operations -------------------------------------------------------

    def _common(self, other: "Series") -> int:
        return min(self.order, other.order)

    def __add__(self, other):
        if isinstance(other, Series):
            n = self._common(other)
            return Series([self.coeffs[k] + other.coeffs[k] for k in range(n + 1)], n)
        if isinstance(other, (int, Fraction, Poly)):
            cs = list(self.coeffs)
            cs[0] = cs[0] + other
            return Series(cs, self.order)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return self.map_coeffs(lambda c: -c)

    def __sub__(self, other):
        if isinstance(other, (Series, int, Fraction, Poly)):
            return self + (-other if isinstance(other, Series) else (-1) * other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Series):
            n = self._common(other)
            a, b = self.coeffs, other.coeffs
            return Series([_dot(a[:k + 1], b[k::-1]) for k in range(n + 1)], n)
        if isinstance(other, (int, Fraction, Poly)):
            return self.map_coeffs(lambda c: c * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Series):
            return self * other.inverse()
        if isinstance(other, (int, Fraction, Poly)):
            inv = _invert_coeff(other, BadArgument)
            return self.map_coeffs(lambda c: c * inv)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return self.inverse() * other
        return NotImplemented

    def __pow__(self, k: int) -> "Series":
        if not isinstance(k, int):
            raise BadArgument("exponent must be an int, got %r" % (k,))
        if k < 0:
            return self.inverse() ** (-k)
        out = Series.one(self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def inverse(self) -> "Series":
        """Multiplicative inverse; the constant term must be invertible."""
        c = self.coeffs
        inv0 = _invert_coeff(c[0], BadConstantTerm)
        out: list[Coeff] = [inv0]
        for n in range(1, self.order + 1):
            out.append(-inv0 * _dot(c[1:n + 1], out[n - 1::-1], skip="x"))
        return Series(out, self.order)

    # composition and reversion --------------------------------------------

    def compose(self, inner: "Series") -> "Series":
        """self(inner(x)); the inner constant term must vanish."""
        if not _is_zero(inner.coeffs[0]):
            raise NonzeroConstant("inner series has constant term %r" % (inner.coeffs[0],))
        n = self._common(inner)
        g = inner if inner.order == n else inner.truncate(n)
        out = Series.zero(n)
        for c in reversed(self.coeffs[: n + 1]):
            out = out * g
            if not _is_zero(c):
                out = out + c
        return out

    def revert(self) -> "Series":
        """Compositional inverse v of a series w = x*(unit), so w(v) = x.

        Solved one coefficient at a time: [x^n] w(v) = sum_k w_k [x^n] v^k
        reads v_n only through k = 1, so

            v_n = (delta_(n,1) - sum_(k=2..n) w_k [x^n] v^k) / w_1.

        The coefficient lists of v^2 .. v^K, with K the last index where
        w_k != 0, grow by one coefficient each per step: about order^3/6
        coefficient products, and no series product.
        """
        if not _is_zero(self.coeffs[0]):
            raise NotReversible("constant term must be zero")
        c1 = self.coeffs[1] if self.order >= 1 else 0
        if _is_zero(c1):
            raise NotReversible("coefficient of x must be invertible")
        w = self.coeffs
        top = max((k for k in range(2, self.order + 1) if not _is_zero(w[k])),
                  default=1)
        inv1 = _invert_coeff(c1, NotReversible)
        v: list[Coeff] = [inv1]          # v[i] = [x^(i+1)] of the reversion
        # pw[k][j] = [x^(k+j)] of its k-th power; pw[1] is v itself
        pw: list[list[Coeff]] = [[], v] + [[] for _ in range(top - 1)]
        for n in range(2, self.order + 1):
            m = min(n, top)
            for k in range(2, m + 1):
                pw[k].append(_dot(v, pw[k - 1][n - k::-1], skip=""))
            v.append(-_dot(w[2:m + 1], [pw[k][n - k] for k in range(2, m + 1)])
                     * inv1)
        return Series([0] + v, self.order)

    # analytic-style operations (still exact) --------------------------------

    def deriv(self) -> "Series":
        if self.order == 0:
            return Series.zero(0)
        return Series([k * self.coeffs[k] for k in range(1, self.order + 1)],
                      self.order - 1)

    def log(self) -> "Series":
        if self.coeffs[0] != 1:
            raise BadConstantTerm("log needs constant term 1, got %r" % (self.coeffs[0],))
        d = self.deriv() * self.inverse().truncate(max(self.order - 1, 0))
        out: list[Coeff] = [0]
        for n in range(1, self.order + 1):
            out.append(d.coeff(n - 1) / Fraction(n))
        return Series(out, self.order)

    def exp(self) -> "Series":
        if not _is_zero(self.coeffs[0]):
            raise BadConstantTerm("exp needs constant term 0, got %r" % (self.coeffs[0],))
        ka = [k * a for k, a in enumerate(self.coeffs)]
        out: list[Coeff] = [1]
        for n in range(1, self.order + 1):
            out.append(_dot(ka[1:n + 1], out[n - 1::-1], skip="x") / Fraction(n))
        return Series(out, self.order)

    def sqrt(self) -> "Series":
        if self.coeffs[0] != 1:
            raise BadConstantTerm("sqrt needs constant term 1, got %r" % (self.coeffs[0],))
        out: list[Coeff] = [1]
        for n in range(1, self.order + 1):
            out.append((self.coeffs[n] - _dot(out[1:n], out[n - 1:0:-1], skip=""))
                       / Fraction(2))
        return Series(out, self.order)

    def pow_scalar(self, q: Fraction) -> "Series":
        """self**q for rational q; integral q falls back to ring powers."""
        q = Fraction(q)
        if q.denominator == 1:
            return self ** int(q)
        if self.coeffs[0] != 1:
            raise BadConstantTerm("rational powers need constant term 1")
        return (self.log() * q).exp()

    def pow_param(self, param: str) -> "Series":
        """self**p with p a fresh formal parameter; coefficients become Polys."""
        if self.coeffs[0] != 1:
            raise BadConstantTerm("parametric powers need constant term 1")
        for c in self.coeffs:
            if isinstance(c, Poly) and c.param == param:
                raise BadArgument("parameter %r already used in coefficients" % param)
        lg = self.log()
        lifted = Series([Poly(param, (0, c)) for c in lg.coeffs], lg.order)
        return lifted.exp()

    # comparison / display ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Series):
            return self.order == other.order and all(
                a == b for a, b in zip(self.coeffs, other.coeffs))
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def agrees(self, other: "Series", upto: int | None = None) -> bool:
        """Coefficientwise agreement on the shared (or requested) prefix."""
        n = self._common(other)
        if upto is not None:
            if upto > n:
                raise InsufficientOrder("only %d coefficients available" % (n + 1))
            n = upto
        return all(self.coeffs[k] == other.coeffs[k] for k in range(n + 1))

    def __repr__(self):
        return "Series(%r, order=%d)" % (list(self.coeffs), self.order)

    def __str__(self):
        return "%s + O(x^%d)" % (format_terms(self.coeffs, "x"), self.order + 1)


def _require_shift(k: int) -> None:
    if k < 0:
        raise BadArgument("shift must be nonnegative, got %d" % k)


def _invert_coeff(c0: Coeff, error: type) -> Coeff:
    """1/c0 for the leading coefficient of an inverse or a reversion, or for
    a scalar divisor; a non-constant Poly raises ``error``, a zero one
    ZeroDivisionError."""
    if isinstance(c0, Poly):
        if not c0.is_constant():
            raise error("cannot invert the non-constant leading coefficient %s" % c0)
        return Poly.const(c0.param, _invert_coeff(c0.constant(), error))
    if c0 == 0:
        raise ZeroDivisionError("constant term is zero")
    return Fraction(1, 1) / Fraction(c0)
