"""Partition and composition enumerators, and the one partition weight sum
that the paper's closed forms share.

All enumeration orders are deterministic: partitions are produced as
non-decreasing part tuples in lexicographic order, compositions by length and
then lexicographically.  One recursion enumerates partitions into parts
congruent to 1 modulo a step: step 1 gives all partitions, step 2 the odd
ones, with nothing filtered.  Tests count them against an independent dynamic
program, so the generators here stay simple and recursive.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import comb, factorial
from typing import Iterator

from .errors import BadArgument


def _require_nonnegative(n: int) -> None:
    if n < 0:
        raise BadArgument("n must be nonnegative, got %d" % n)


def partitions(n: int, parts: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of n as non-decreasing tuples; optionally exactly ``parts`` parts."""
    _require_nonnegative(n)
    yield from _parts(n, parts, 1, 1)


def _parts(n: int, m: int | None, lo: int, step: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n into parts lo, lo + step, lo + 2*step, ..., exactly m
    of them (any number when m is None), as non-decreasing tuples in
    lexicographic order."""
    if n == 0 and not m:
        yield ()
        return
    if m == 0:
        return
    top, rest_m = (n, None) if m is None else (n // m, m - 1)
    for first in range(lo, top + 1, step):
        for rest in _parts(n - first, rest_m, first, step):
            yield (first,) + rest


def weight_sum(b, n: int, parts: int, step: int):
    """W(b, n, q; step): the sum, over the partitions of n into q = ``parts``
    parts congruent to 1 modulo ``step``, of prod_p b_((p-1)/step)^(m_p) / m_p!,
    where part p occurs m_p times.  ``bcomp.u_entry`` and
    ``pseudo.b_expansion`` sum at step 2, ``bcomp.exp_pair_entry_partitions``
    at step 1.

    ``b`` is anything with a ``coeff(i)`` method, such as a Series; its
    coefficients may be rationals or Polys.  The empty sum is the int 0.
    """
    total = 0
    for tup in _parts(n, parts, 1, step):
        w = Fraction(1)
        for p, run in groupby(tup):
            mult = sum(1 for _ in run)
            w = w * Fraction(1, factorial(mult)) * b.coeff((p - 1) // step) ** mult
        total = total + w
    return total


def compositions(n: int, parts: int | None = None) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of positive ints summing to n, by length then lexicographic."""
    _require_nonnegative(n)
    if n == 0:
        if parts in (None, 0):
            yield ()
        return
    lengths = range(1, n + 1) if parts is None else (parts,)
    for m in lengths:
        yield from _comps_exact(n, m)


def _comps_exact(n: int, m: int) -> Iterator[tuple[int, ...]]:
    if m == 0:
        if n == 0:
            yield ()
        return
    if m == 1:
        if n >= 1:
            yield (n,)
        return
    for first in range(1, n - m + 2):
        for rest in _comps_exact(n - first, m - 1):
            yield (first,) + rest


@dataclass(frozen=True)
class OddPartition:
    """A partition of n into odd parts, stored by multiplicity.

    ``mults[i]`` is the multiplicity of the part 2i+1.  The derived statistics
    q (number of parts) and k (= sum of m_i*(i+1) = (n+q)/2) are the ones the
    coefficient formulas consume.
    """

    mults: tuple[int, ...]

    @property
    def n(self) -> int:
        return sum(m * (2 * i + 1) for i, m in enumerate(self.mults))

    @property
    def q(self) -> int:
        return sum(self.mults)

    @property
    def k(self) -> int:
        return sum(m * (i + 1) for i, m in enumerate(self.mults))

    def parts(self) -> tuple[int, ...]:
        out: list[int] = []
        for i, m in enumerate(self.mults):
            out.extend([2 * i + 1] * m)
        return tuple(out)


def odd_partitions(n: int, parts: int | None = None) -> Iterator[OddPartition]:
    """Partitions of n into odd parts, optionally into exactly ``parts`` parts.

    Multiplicity tuples have length (n+1)//2, so that index i addresses the
    part 2i+1.
    """
    _require_nonnegative(n)
    width = (n + 1) // 2
    for tup in _parts(n, parts, 1, 2):
        mults = [0] * width
        for p in tup:
            mults[(p - 1) // 2] += 1
        yield OddPartition(tuple(mults))


def catalan_number(n: int) -> int:
    return comb(2 * n, n) // (n + 1)
