"""Exception taxonomy for the library.

Every domain failure raised by the package derives from :class:`RiordanError`
so callers (and the CLI) can distinguish "your input is outside the domain of
this operation" from programming errors.  Parse failures in the expression
language use :class:`ParseError`, which deliberately does *not* derive from
RiordanError: a parse failure and a domain failure map to different process
exit codes.
"""
from __future__ import annotations


class RiordanError(Exception):
    """Base class for domain errors raised by the library."""


class NonzeroConstant(RiordanError):
    """Inner series of a composition has a nonzero constant term."""


class NotReversible(RiordanError):
    """Series has no compositional inverse (needs c0 = 0 and c1 invertible)."""


class BadConstantTerm(RiordanError):
    """Constant term unsuitable for log/exp/sqrt/parametric powers."""


class InsufficientOrder(RiordanError):
    """An operand does not carry enough coefficients for the request."""


class NotPseudoInvolution(RiordanError):
    """The series fails the defining identity required by the operation."""


class NotNormalized(RiordanError):
    """Expected a series of the shape x + c2*x^2 + ... (g0 = 0, g1 = 1)."""


class BadArgument(RiordanError):
    """A scalar argument lies outside the operation's range: a negative
    index or count, or a symbolic value where a rational one is needed."""


class ParseError(Exception):
    """Raised by the expression parser; carries the byte offset and the set
    of token kinds that would have been acceptable at that point."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        super().__init__(message)
        self.offset = offset
        self.expected = tuple(expected)

    def __str__(self) -> str:
        base = super().__str__()
        if self.expected:
            return "%s (at offset %d; expected one of: %s)" % (
                base, self.offset, ", ".join(self.expected))
        return "%s (at offset %d)" % (base, self.offset)
