"""Expression language used by the command line for describing series.

Grammar, whitespace insensitive::

    expr     := term (("+" | "-") term)*
    term     := unary (("*" | "/") unary)*
    unary    := "-" unary | power
    power    := atom ["^" exponent]
    exponent := INT | "(" rational ")"
    rational := ["-"] INT ["/" INT]
    atom     := INT | "x" | NAME | FUNC "(" expr ")" | "(" expr ")"

"^" binds tighter than unary minus, which binds tighter than "*" and "/",
which bind tighter than "+" and "-"; binary operators associate to the
left.  An exponent is a literal integer or rational -- nothing symbolic --
so "^" never chains.  A bare exponent is a nonnegative integer; a signed or
rational one must be parenthesised, so ``x^2/3`` means ``(x^2)/3`` and
``x^(2/3)`` is the rational power.  FUNC is one of ``sqrt``, ``log``,
``exp``; NAME is one of the built-in series ``catalan`` (the central
binomial quotient series 1 + x + 2x^2 + 5x^3 + ...), ``geom`` (1/(1-x))
and ``one_plus_x``.

``parse`` produces a small immutable AST, ``to_text`` prints it back, and
``eval_series`` evaluates it exactly to a requested truncation order.  On
ASTs produced by ``parse`` the printer is a section of the parser:
``parse(to_text(node)) == node``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import BadArgument, BadConstantTerm, ParseError
from .series import Series

FUNCS = ("sqrt", "log", "exp")
NAMED = ("catalan", "geom", "one_plus_x")


class Token(NamedTuple):
    kind: str           # "int", "name", one of "+-*/^()", or "end"
    text: str
    pos: int            # byte offset into the source


def tokenize(text: str) -> list[Token]:
    out: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(Token("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(Token("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            out.append(Token(ch, ch, i))
            i += 1
            continue
        raise ParseError("unrecognized character %r" % ch, i)
    out.append(Token("end", "", n))
    return out


# AST ------------------------------------------------------------------------


@dataclass(frozen=True)
class Lit:
    value: Fraction


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Named:
    ident: str


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Power:
    base: "Node"
    exponent: Fraction


Node = Lit | Var | Named | Call | Neg | BinOp | Power


# parsing --------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def take(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, *, expected: tuple[str, ...] = ()) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError("unexpected %s" % (repr(tok.text) if tok.text else "end of input"),
                             tok.pos, expected or (kind,))
        return self.take()

    # one method per grammar rule

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.take().kind
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Node:
        if self.peek().kind == "-":
            self.take()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        if self.peek().kind == "^":
            self.take()
            node = Power(node, self.exponent())
        return node

    def exponent(self) -> Fraction:
        if self.peek().kind != "(":
            return Fraction(int(self.expect("int", expected=("int", "(")).text))
        self.take()
        value = self.rational()
        self.expect(")")
        return value

    def rational(self) -> Fraction:
        negate = False
        if self.peek().kind == "-":
            self.take()
            negate = True
        num_tok = self.expect("int", expected=("int",))
        num = int(num_tok.text)
        den = 1
        if self.peek().kind == "/":
            self.take()
            den_tok = self.expect("int", expected=("int",))
            den = int(den_tok.text)
            if den == 0:
                raise ParseError("zero denominator in exponent", den_tok.pos)
        value = Fraction(num, den)
        return -value if negate else value

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "int":
            self.take()
            return Lit(Fraction(int(tok.text)))
        if tok.kind == "(":
            self.take()
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind == "name":
            self.take()
            if tok.text == "x":
                return Var()
            if tok.text in FUNCS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Call(tok.text, arg)
            if tok.text in NAMED:
                return Named(tok.text)
            raise ParseError("unknown name %r" % tok.text, tok.pos,
                             ("x",) + FUNCS + NAMED)
        raise ParseError("unexpected %s" % (repr(tok.text) if tok.text else "end of input"),
                         tok.pos, ("int", "name", "(", "-"))


def parse(text: str) -> Node:
    parser = _Parser(tokenize(text))
    node = parser.expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError("unexpected %r after a complete expression" % tok.text,
                         tok.pos, ("+", "-", "*", "/", "end"))
    return node


# printing -------------------------------------------------------------------

_LEVEL_SUM, _LEVEL_PRODUCT, _LEVEL_UNARY, _LEVEL_POWER, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _prec(node: Node) -> int:
    if isinstance(node, BinOp):
        return _LEVEL_SUM if node.op in "+-" else _LEVEL_PRODUCT
    if isinstance(node, Neg):
        return _LEVEL_UNARY
    if isinstance(node, Power):
        return _LEVEL_POWER
    return _LEVEL_ATOM


def _render(node: Node, floor: int) -> str:
    text = _text(node)
    if _prec(node) < floor:
        return "(" + text + ")"
    return text


def _text(node: Node) -> str:
    if isinstance(node, Lit):
        return str(node.value)
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Named):
        return node.ident
    if isinstance(node, Call):
        return "%s(%s)" % (node.func, _text(node.arg))
    if isinstance(node, Neg):
        return "-" + _render(node.arg, _LEVEL_UNARY)
    if isinstance(node, BinOp):
        level = _prec(node)
        return "%s %s %s" % (_render(node.left, level), node.op,
                             _render(node.right, level + 1))
    if isinstance(node, Power):
        expo = node.exponent
        if expo.denominator == 1 and expo >= 0:
            tail = str(expo)
        else:
            tail = "(%s)" % expo
        return "%s^%s" % (_render(node.base, _LEVEL_ATOM), tail)
    raise TypeError("not an expression node: %r" % (node,))


def to_text(node: Node) -> str:
    """Render an AST back to source text.

    For parser-produced ASTs this inverts ``parse``; hand-built nodes that
    the grammar cannot produce (e.g. a negative or non-integer literal)
    still print readably but round trip to their canonical equivalent.
    """
    return _text(node)


# evaluation -----------------------------------------------------------------


def eval_series(node: Node, order: int) -> Series:
    """Evaluate an AST to an exact truncated series of the given order."""
    if order < 0:
        raise BadArgument("order must be nonnegative, got %d" % order)
    if isinstance(node, Lit):
        return Series([node.value], order)
    if isinstance(node, Var):
        return Series.x(order)
    if isinstance(node, Named):
        if node.ident == "catalan":
            return Series.catalan(order)
        if node.ident == "geom":
            return Series.geometric(order, 1)
        return Series([1, 1], order)
    if isinstance(node, Call):
        arg = eval_series(node.arg, order)
        if node.func == "sqrt":
            return arg.sqrt()
        if node.func == "log":
            return arg.log()
        return arg.exp()
    if isinstance(node, Neg):
        return -eval_series(node.arg, order)
    if isinstance(node, BinOp):
        left = eval_series(node.left, order)
        right = eval_series(node.right, order)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if right.constant == 0:
            raise BadConstantTerm("division by a series with zero constant term")
        return left / right
    if isinstance(node, Power):
        base = eval_series(node.base, order)
        expo = node.exponent
        if expo.denominator == 1:
            if expo < 0 and base.constant == 0:
                raise BadConstantTerm(
                    "negative power of a series with zero constant term")
            return base ** int(expo)
        return base.pow_scalar(expo)
    raise TypeError("not an expression node: %r" % (node,))


def series_from_text(text: str, order: int) -> Series:
    """Parse and evaluate in one step."""
    return eval_series(parse(text), order)
