"""Recursive-descent parser and printer for tensor and plot expressions.

Grammar (whitespace-insensitive, explicit ``*`` everywhere, rational literals
only -- no floats):

    expr    := ['-'] term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := atom ['^' ['-'] INT]
    atom    := INT | NAME | '(' expr ')'

Half-line tensors use the symbols ``x`` and ``dx`` (any uniform power dx^k);
quadrant tensors use ``x``, ``y`` and the degree-2 symbols ``dx^2``, ``dy^2``,
``dx*dy``.  A coefficient written on ``dx*dy`` is the total symmetric cross
coefficient (it is stored as-is, not halved).

Plot germs:  ``t^2``, ``t^4*(1+t)``, ``interior(1; 1+t)``, ``flat``.

Parentheses nest at most ``MAX_NESTING`` deep; deeper input is a parse error,
not a recursion failure.  Exponents, written or reached by raising a power to
a power, are at most ``MAX_EXPONENT`` in absolute value, and a power c^n of a
coefficient is refused when |n| times the bit length of c exceeds
``MAX_POWER_BITS``, so that a short input cannot ask for unbounded work.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .jets import Jet1, LaurentJet, LaurentJet2, format_terms
from .plots import (
    BoundaryGerm,
    FlatGerm,
    InteriorGerm,
    PlotGerm,
    make_boundary_plot,
    make_interior_plot,
)
from .tensors import (
    MIN_VALUATION,
    HalfLineTensor,
    QuadrantTensor,
    make_halfline_tensor,
    make_quadrant_tensor,
)

__all__ = [
    "ParseError",
    "parse_tensor",
    "parse_plot",
    "parse_polynomial",
    "parse_rational",
    "format_quadrant_tensor",
    "format_plot",
]


MAX_NESTING = 100
# The largest exponent in absolute value: x*dx^2000 and t^2048 are accepted.
MAX_EXPONENT = 2048
# The most bits in the numerator or denominator of c^n, as |n| times the bits
# of c: (3/2*x)^2048 counts 4,096.
MAX_POWER_BITS = 1 << 13


class ParseError(ValueError):
    def __init__(self, message: str, column: int | None = None):
        self.column = column
        if column is not None:
            message = "syntax error at 1:%d: %s" % (column, message)
        super().__init__(message)


class _Token(NamedTuple):
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    column: int


# Digits and names are ASCII only; whitespace is whatever str.isspace accepts.
_TOKEN_RE = re.compile(
    r"\s+|(?P<num>[0-9]+)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*/^();])|(?P<bad>.)",
    re.DOTALL,
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError("unexpected character %r" % m.group(), m.start() + 1)
        if kind:
            tokens.append(_Token(kind, m.group(), m.start() + 1))
    tokens.append(_Token("end", "", len(text) + 1))
    return tokens


# A parsed value is a sum of monomials: (x exp, y exp, dx power, dy power) -> coeff.
# Sums and products keep monomials whose coefficients cancel, with coefficient
# zero, so that "x*dx^2 - x*dx^2" still names its basis dx^2.
_Key = tuple[int, int, int, int]
_Value = dict[_Key, Fraction]

_UNIT_KEY: _Key = (0, 0, 0, 0)


def _clean(value: _Value) -> _Value:
    return {k: c for k, c in value.items() if c != 0}


def _vadd(a: _Value, b: _Value) -> _Value:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, Fraction(0)) + c
    return out


def _vneg(a: _Value) -> _Value:
    return {k: -c for k, c in a.items()}


def _vmul(a: _Value, b: _Value, column: int) -> _Value:
    out: _Value = {}
    for (x1, y1, p1, q1), c1 in a.items():
        for (x2, y2, p2, q2), c2 in b.items():
            k = (x1 + x2, y1 + y2, p1 + p2, q1 + q2)
            out[k] = out.get(k, Fraction(0)) + c1 * c2
    return out


def _single_term(value: _Value, what: str, column: int) -> tuple[_Key, Fraction]:
    value = _clean(value)
    if len(value) != 1:
        raise ParseError("cannot %s a sum" % what, column)
    return next(iter(value.items()))


def _vdiv(a: _Value, b: _Value, column: int) -> _Value:
    if not _clean(b):
        raise ParseError("division by zero", column)
    (x, y, p, q), c = _single_term(b, "divide by", column)
    if p or q:
        raise ParseError("cannot divide by a differential symbol", column)
    return {(x1 - x, y1 - y, p1, q1): c1 / c for (x1, y1, p1, q1), c1 in a.items()}


def _check_exponent(e: int, column: int) -> None:
    if abs(e) > MAX_EXPONENT:
        raise ParseError("exponent %d exceeds the maximum %d" % (e, MAX_EXPONENT), column)


def _raised(key: _Key, n: int, column: int) -> _Key:
    x, y, p, q = key
    out = (x * n, y * n, p * n, q * n)
    _check_exponent(max(out, key=abs), column)
    return out


def _vpow(a: _Value, n: int, column: int) -> _Value:
    _check_exponent(n, column)
    if not _clean(a):
        if n <= 0:
            raise ParseError("zero cannot carry exponent %d" % n, column)
        return {_raised(key, n, column): Fraction(0) for key in a}
    key, c = _single_term(a, "exponentiate", column)
    if n < 0 and (key[2] or key[3]):
        raise ParseError("differential symbols cannot carry negative powers", column)
    key = _raised(key, n, column)
    if c == 1:  # the common case, x^3: skip the slow Fraction power
        return {key: c}
    if abs(n) * max(c.numerator.bit_length(), c.denominator.bit_length()) > MAX_POWER_BITS:
        raise ParseError("power too large: its coefficient exceeds %d bits" % MAX_POWER_BITS,
                         column)
    return {key: c ** n}


class _ExprParser:
    def __init__(self, tokens: list[_Token], symbols: dict[str, _Key]):
        self.tokens = tokens
        self.pos = 0
        self.symbols = symbols
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ParseError("expected %r" % text, tok.column)
        return self.advance()

    def expr(self) -> _Value:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            value = _vneg(self.term())
        else:
            value = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                rhs = self.term()
                value = _vadd(value, rhs if tok.text == "+" else _vneg(rhs))
            else:
                return value

    def term(self) -> _Value:
        value = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "*/":
                self.advance()
                rhs = self.factor()
                if tok.text == "*":
                    value = _vmul(value, rhs, tok.column)
                else:
                    value = _vdiv(value, rhs, tok.column)
            else:
                return value

    def factor(self) -> _Value:
        value = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            sign = 1
            if self.peek().kind == "op" and self.peek().text == "-":
                self.advance()
                sign = -1
            num = self.peek()
            if num.kind != "num":
                raise ParseError("expected an integer exponent", num.column)
            self.advance()
            value = _vpow(value, sign * int(num.text), tok.column)
        return value

    def atom(self) -> _Value:
        tok = self.advance()
        if tok.kind == "num":
            return {_UNIT_KEY: Fraction(int(tok.text))}
        if tok.kind == "name":
            key = self.symbols.get(tok.text)
            if key is None:
                raise ParseError("unknown symbol %r" % tok.text, tok.column)
            return {key: Fraction(1)}
        if tok.kind == "op" and tok.text == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError("expression nested too deeply", tok.column)
            value = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return value
        raise ParseError("unexpected %s" % (tok.text or "end of input"), tok.column)

    def expect_end(self):
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError("unexpected %r after expression" % tok.text, tok.column)


_HALFLINE_SYMBOLS = {"x": (1, 0, 0, 0), "dx": (0, 0, 1, 0)}
_QUADRANT_SYMBOLS = {
    "x": (1, 0, 0, 0),
    "y": (0, 1, 0, 0),
    "dx": (0, 0, 1, 0),
    "dy": (0, 0, 0, 1),
}
_CURVE_SYMBOLS = {"t": (1, 0, 0, 0)}

_QUADRANT_BASES = {(2, 0): "a", (0, 2): "b", (1, 1): "c"}


def _parse_raw(text: str, symbols: dict[str, _Key]) -> _Value:
    """The parsed value, cancelled monomials included (coefficient zero)."""
    parser = _ExprParser(_tokenize(text), symbols)
    value = parser.expr()
    parser.expect_end()
    return value


def _parse_value(text: str, symbols: dict[str, _Key]) -> _Value:
    return _clean(_parse_raw(text, symbols))


def parse_tensor(text: str, space: str = "halfline") -> HalfLineTensor | QuadrantTensor:
    """Parse a tensor expression for the given space ("halfline" or "quadrant").

    No exponent of x or y may be below ``tensors.MIN_VALUATION``.
    """
    if space == "halfline":
        raw = _parse_raw(text, _HALFLINE_SYMBOLS)
        value = _clean(raw)
        # A tensor whose coefficients all cancel keeps the basis it was written in.
        degrees = {p for (_, _, p, _) in value or raw}
        if len(degrees) > 1:
            raise ParseError(
                "mixed tensor degree: %s"
                % " vs ".join(sorted("dx^%d" % p for p in degrees))
            )
        k = degrees.pop() if degrees else 0
        coeff: dict[int, Fraction] = {}
        for (xe, _, _, _), c in value.items():
            if xe < MIN_VALUATION:
                raise ParseError("exponent %d below minimum %d" % (xe, MIN_VALUATION))
            coeff[xe] = c
        if not coeff:
            return make_halfline_tensor(k, LaurentJet())
        lo, hi = min(coeff), max(coeff)
        jet = LaurentJet(lo, tuple(coeff.get(d, Fraction(0)) for d in range(lo, hi + 1)))
        return make_halfline_tensor(k, jet)
    if space == "quadrant":
        value = _parse_value(text, _QUADRANT_SYMBOLS)
        components: dict[str, dict[tuple[int, int], Fraction]] = {"a": {}, "b": {}, "c": {}}
        for (xe, ye, p, q), c in value.items():
            slot = _QUADRANT_BASES.get((p, q))
            if slot is None:
                raise ParseError(
                    "quadrant terms must carry dx^2, dy^2 or dx*dy (got dx^%d*dy^%d)"
                    % (p, q)
                )
            if xe < MIN_VALUATION or ye < MIN_VALUATION:
                raise ParseError(
                    "exponent below minimum %d in x^%d*y^%d" % (MIN_VALUATION, xe, ye)
                )
            components[slot][(xe, ye)] = c
        return make_quadrant_tensor(
            LaurentJet2(components["a"]),
            LaurentJet2(components["b"]),
            LaurentJet2(components["c"]),
        )
    raise ValueError("space must be 'halfline' or 'quadrant'")


def _value_to_jet1(value: _Value) -> Jet1:
    coeffs: dict[int, Fraction] = {}
    for (xe, ye, p, q), c in value.items():
        if ye or p or q:
            raise ParseError("only the curve parameter 't' may appear here")
        if xe < 0:
            raise ParseError("negative powers of t are not allowed")
        coeffs[xe] = c
    degree = max(coeffs, default=0)
    return Jet1(tuple(coeffs.get(d, Fraction(0)) for d in range(degree + 1)))


def parse_polynomial(text: str) -> Jet1:
    """A polynomial in the curve parameter t, e.g. '1 + t/2 - 3*t^4'."""
    return _value_to_jet1(_parse_value(text, _CURVE_SYMBOLS))


_RATIONAL_RE = re.compile(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*")


def parse_rational(text: str) -> Fraction:
    """Exact rational literal: '3', '1/2', '-7/3'.  Decimal points, exponents
    and digit separators are refused."""
    if "." in text:
        raise ParseError("rational literals only; %r has a decimal point" % text)
    try:
        if not _RATIONAL_RE.fullmatch(text):
            raise ValueError
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ParseError("invalid rational literal %r" % text) from None


def parse_plot(text: str) -> PlotGerm:
    """Parse a plot germ: t^2, t^4*(1+t), interior(1; 1+t), or flat."""
    tokens = _tokenize(text)
    head = tokens[0]
    if head.kind == "name" and head.text == "flat":
        if tokens[1].kind != "end":
            raise ParseError("unexpected input after 'flat'", tokens[1].column)
        return FlatGerm()
    if head.kind == "name" and head.text == "interior":
        return _parse_interior(text, tokens)
    if head.kind == "name" and head.text == "t":
        return _parse_boundary(tokens)
    raise ParseError("expected a plot germ (t^2, t^4*(1+t), interior(x0; jet), flat)",
                     head.column)


def _parse_boundary(tokens: list[_Token]) -> BoundaryGerm:
    pos = 1
    exponent = 1
    if tokens[pos].kind == "op" and tokens[pos].text == "^":
        pos += 1
        if tokens[pos].kind != "num":
            raise ParseError("expected an integer exponent", tokens[pos].column)
        exponent = int(tokens[pos].text)
        _check_exponent(exponent, tokens[pos - 1].column)
        pos += 1
    if exponent < 2 or exponent % 2 != 0:
        raise ParseError("plot not certified nonnegative: leading term t^%d" % exponent)
    unit = Jet1.constant(1)
    if tokens[pos].kind == "op" and tokens[pos].text == "*":
        pos += 1
        if not (tokens[pos].kind == "op" and tokens[pos].text == "("):
            raise ParseError("expected a parenthesized unit factor", tokens[pos].column)
        parser = _ExprParser(tokens, _CURVE_SYMBOLS)
        parser.pos = pos + 1
        unit = _value_to_jet1(parser.expr())
        parser.expect_op(")")
        pos = parser.pos
    if tokens[pos].kind != "end":
        raise ParseError("unexpected %r after plot" % tokens[pos].text, tokens[pos].column)
    if unit.constant_term <= 0:
        raise ParseError("plot not certified nonnegative: unit constant term must be positive")
    return make_boundary_plot(exponent // 2, unit)


def _parse_interior(text: str, tokens: list[_Token]) -> InteriorGerm:
    if not (tokens[1].kind == "op" and tokens[1].text == "("):
        raise ParseError("interior germ syntax is interior(x0; jet)", tokens[1].column)
    semi = next((i for i, tok in enumerate(tokens) if tok.text == ";"), None)
    if semi is None:
        raise ParseError("interior germ needs a ';' between base point and jet")
    x0 = parse_rational(text[tokens[1].column : tokens[semi].column - 1])
    if x0 <= 0:
        raise ParseError("interior base point must be positive")
    parser = _ExprParser(tokens, _CURVE_SYMBOLS)
    parser.pos = semi + 1
    jet = _value_to_jet1(_clean(parser.expr()))
    parser.expect_op(")")
    parser.expect_end()
    if jet.constant_term != x0:
        raise ParseError("interior jet constant term must equal the base point")
    return make_interior_plot(x0, jet)


# -- printing ----------------------------------------------------------------


# The dx^2, dy^2 and dx*dy factors, in the order terms of equal x, y powers print.
_QUADRANT_BASIS_FACTORS = ([("dx", 2)], [("dy", 2)], [("dx", 1), ("dy", 1)])


def format_quadrant_tensor(t: QuadrantTensor) -> str:
    rows = sorted(
        (i, j, rank, c) for rank, jet in enumerate((t.a, t.b, t.c)) for i, j, c in jet.terms()
    )
    return format_terms(
        (c, [("x", i), ("y", j)] + _QUADRANT_BASIS_FACTORS[rank]) for i, j, rank, c in rows
    )


def format_plot(p: PlotGerm) -> str:
    if isinstance(p, FlatGerm):
        return "flat"
    if isinstance(p, BoundaryGerm):
        head = "t^%d" % p.contact_degree
        if p.unit == Jet1.constant(1):
            return head
        return "%s*(%s)" % (head, p.unit)
    if isinstance(p, InteriorGerm):
        return "interior(%s; %s)" % (p.x0, p.jet)
    raise TypeError("not a plot germ: %r" % (p,))
