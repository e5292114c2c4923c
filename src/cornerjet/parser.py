"""Recursive-descent parser and printer for tensor and plot expressions.

Grammar (whitespace-insensitive, explicit ``*`` everywhere, rational literals
only -- no floats):

    expr    := ['-'] term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := atom ['^' ['-'] INT]
    atom    := INT | NAME | '(' expr ')'

Half-line tensors use the symbols ``x`` and ``dx`` (any uniform power dx^k);
quadrant tensors use ``x``, ``y`` and the degree-2 basis ``dx^2``, ``dy^2``,
``dx*dy`` of ``tensors.QUADRANT_BASIS``.  A coefficient written on ``dx*dy``
is stored as-is: it is the dx (x) dy entry, so the term stands for
c (dx (x) dy + dy (x) dx).

Plot germs:  ``t^2``, ``t^4*(1+t)``, ``interior(1; 1+t)``, ``flat``.

Evaluation runs with the parse, one term at a time.  The term's monomial
factors (``3``, ``x``, ``/7``, ``x^7``, ``(3/2*x)^5``) add into four exponents
and multiply into an integer numerator and denominator; a parenthesized factor
that is not raised to a power stays a {monomial: coefficient} dict, multiplied
out only in the terms that have one.  Each term adds one ``Fraction`` per
monomial, in place, to the expression's dict.

Parentheses nest at most ``MAX_NESTING`` deep; deeper input is a parse error,
not a recursion failure.  An integer literal, also one in a rational literal
or a CLI integer argument, has at most ``MAX_LITERAL_DIGITS`` digits, on every
Python version.  Exponents, written or reached by powers and products, are at
most ``MAX_EXPONENT`` in absolute value, a power c^n of a coefficient is refused
when |n| times the bit length of c exceeds ``MAX_POWER_BITS``, one parse
multiplies out sums into at most ``MAX_PRODUCTS`` monomial products, and one
term's numbers and coefficient powers, like the sum that one monomial collects,
have at most ``MAX_TERM_BITS`` bits in all, so that no term asks for unbounded
work.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .jets import Jet1, LaurentJet, LaurentJet2, format_terms
from .plots import BoundaryGerm, FlatGerm, InteriorGerm, PlotGerm
from .tensors import MIN_VALUATION, QUADRANT_BASIS, HalfLineTensor, QuadrantTensor

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
# The most digits in an integer literal: CPython's default int-to-str limit.
MAX_LITERAL_DIGITS = 4300
# The most bits in the numerator or denominator of c^n, as |n| times the bits
# of c: (3/2*x)^2048 counts 4,096.
MAX_POWER_BITS = 1 << 13
# Monomial products per parse, each counted as 1 + bits(c1) * bits(c2) / 2^17.
MAX_PRODUCTS = 1 << 14
# The most bits of the numbers and coefficient powers in one term, numerators and
# denominators summed, so its coefficient too: B/C*B/C of 4,000 digits counts <= 53,156.
MAX_TERM_BITS = 1 << 16


class ParseError(ValueError):
    def __init__(self, message: str, column: int | None = None):
        self.column = column
        if column is not None:
            message = "syntax error at 1:%d: %s" % (column, message)
        super().__init__(message)


# Digits and names are ASCII only; whitespace is whatever str.isspace accepts,
# as \s does.  The operator group is unnamed: an operator's kind is its text.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>[0-9]+)|(?P<name>[A-Za-z][A-Za-z0-9]*)|([-+*/^();])|(?P<bad>\S))"
)


def _check_literal(digits: str, column: int) -> None:
    """Refuse a run of digits longer than ``MAX_LITERAL_DIGITS``, at its column."""
    if len(digits) > MAX_LITERAL_DIGITS:
        raise ParseError("integer literal of %d digits exceeds the maximum %d"
                         % (len(digits), MAX_LITERAL_DIGITS), column)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, column) triples: "num", "name" or an operator, then "end"."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        i = m.lastindex
        tok, column = m[i], m.start(i) + 1
        kind = m.lastgroup or tok
        if kind == "num":
            _check_literal(tok, column)
        elif kind == "bad":
            raise ParseError("unexpected character %r" % tok, column)
        tokens.append((kind, tok, column))
    tokens.append(("end", "", len(text) + 1))
    return tokens


# A parsed value is a sum of monomials: (x exp, y exp, dx power, dy power) -> coeff.
# Sums and products keep monomials whose coefficients cancel, with coefficient
# zero, so that "x*dx^2 - x*dx^2" still names its basis dx^2.
_Key = tuple[int, int, int, int]
_Value = dict[_Key, Fraction]

_UNIT_KEY: _Key = (0, 0, 0, 0)


def _clean(value: _Value) -> _Value:
    return {k: c for k, c in value.items() if c != 0}


def _vmul(a: _Value, b: _Value) -> _Value:
    out: _Value = {}
    for (x1, y1, p1, q1), c1 in a.items():
        for (x2, y2, p2, q2), c2 in b.items():
            k = (x1 + x2, y1 + y2, p1 + p2, q1 + q2)
            out[k] = out.get(k, 0) + c1 * c2
    return out


def _bits(value: _Value) -> int:
    return sum(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in value.values())


def _sum_bits(f: Fraction, g: Fraction) -> int:
    """A bound on the numerator plus denominator bits of f + g, read before adding."""
    fd, gd = f.denominator.bit_length(), g.denominator.bit_length()
    if f.denominator == g.denominator:  # like terms: only the numerators add
        return max(f.numerator.bit_length(), g.numerator.bit_length()) + 1 + fd
    return max(f.numerator.bit_length() + gd, g.numerator.bit_length() + fd) + 1 + fd + gd


def _single_term(value: _Value, what: str, column: int) -> tuple:
    """The one nonzero monomial of ``value`` as (key, num, den); (None, 0, 1) if none."""
    value = _clean(value)
    if len(value) > 1:
        raise ParseError("cannot %s a sum" % what, column)
    if not value:
        return None, 0, 1
    (key, c), = value.items()
    return key, c.numerator, c.denominator


def _check_exponent(e: int, column: int) -> None:
    if abs(e) > MAX_EXPONENT:
        raise ParseError("exponent %d exceeds the maximum %d" % (e, MAX_EXPONENT), column)


def _raised(key: _Key, n: int, column: int) -> _Key:
    x, y, p, q = key
    out = (x * n, y * n, p * n, q * n)
    _check_exponent(max(out, key=abs), column)
    return out


def _power(key: _Key, num: int, den: int, n: int, column: int) -> tuple[_Key, int, int]:
    """The monomial (key, num/den) raised to n; num/den is nonzero, in lowest terms."""
    if n < 0 and (key[2] or key[3]):
        raise ParseError("differential symbols cannot carry negative powers", column)
    key = _raised(key, n, column)
    if num == den == 1:  # the common case, x^3
        return key, 1, 1
    if abs(n) * max(num.bit_length(), den.bit_length()) > MAX_POWER_BITS:
        raise ParseError("power too large: its coefficient exceeds %d bits" % MAX_POWER_BITS,
                         column)
    return (key, num ** n, den ** n) if n >= 0 else (key, den ** -n, num ** -n)


class _ExprParser:
    """Evaluates while it parses, one term at a time (see the module docstring)."""

    def __init__(self, tokens: list[tuple[str, str, int]], symbols: dict[str, _Key]):
        self.tokens = tokens
        self.pos = 0
        self.symbols = symbols
        self.depth = 0
        self.products = 0

    def expect_op(self, text: str) -> None:
        kind, _, column = self.tokens[self.pos]
        if kind != text:
            raise ParseError("expected %r" % text, column)
        self.pos += 1

    def expr(self) -> _Value:
        value: _Value = {}
        sign = 1
        if self.tokens[self.pos][0] == "-":
            self.pos, sign = self.pos + 1, -1
        while True:
            self.term(value, sign)
            kind = self.tokens[self.pos][0]
            if kind != "+" and kind != "-":
                return value
            self.pos += 1
            sign = 1 if kind == "+" else -1

    def term(self, value: _Value, sign: int) -> None:
        """Add sign times the next term to ``value`` in place."""
        x = y = p = q = bits = 0
        num, den = sign, 1
        sums = None  # the product of the term's parenthesized factors
        divide = False
        while True:
            key, fnum, fden = self.factor()
            if divide:
                if key is None:
                    key, fnum, fden = _single_term(fnum, "divide by", column)
                if not fnum:
                    raise ParseError("division by zero", column)
                if key[2] or key[3]:
                    raise ParseError("cannot divide by a differential symbol", column)
                key, fnum, fden = (-key[0], -key[1], 0, 0), fden, fnum
            if key is None:
                if sums is not None:
                    self.products += len(sums) * len(fnum) + _bits(sums) * _bits(fnum) // (1 << 17)
                    if self.products > MAX_PRODUCTS:
                        raise ParseError("product too large: multiplying out exceeds %d"
                                         " monomial products" % MAX_PRODUCTS, column)
                sums = fnum if sums is None else _vmul(sums, fnum)
            else:
                x, y, p, q = x + key[0], y + key[1], p + key[2], q + key[3]
                if fnum != 1 or fden != 1:  # a number or a power of one, not a symbol
                    bits += fnum.bit_length() + fden.bit_length()
                    if bits > MAX_TERM_BITS:
                        raise ParseError("term too large: its numbers exceed %d bits"
                                         % MAX_TERM_BITS, column)
                    num, den = num * fnum, den * fden
            kind, _, column = self.tokens[self.pos]
            if kind != "*" and kind != "/":
                break
            self.pos += 1
            divide = kind == "/"
        coeff = Fraction(num, den)
        terms = {_UNIT_KEY: coeff} if sums is None else {k: c * coeff for k, c in sums.items()}
        square_cap = MAX_EXPONENT * MAX_EXPONENT
        for (a, b, c, d), v in terms.items():
            a, b, c, d = key = (a + x, b + y, c + p, d + q)
            old = value.get(key)
            if old is None:  # a new monomial: its exponents, reached by products, are capped
                if a * a + b * b + c * c + d * d > square_cap:  # else none exceeds the cap
                    _check_exponent(max(key, key=abs), column)
                value[key] = v
            elif _sum_bits(old, v) > MAX_TERM_BITS:
                raise ParseError("sum too large: the coefficients of one monomial exceed"
                                 " %d bits" % MAX_TERM_BITS, column)
            else:
                value[key] = old + v

    def factor(self) -> tuple:
        """The next factor: a monomial (key, num, den), or (None, value, 0) for a
        parenthesized expression that is not raised to a power."""
        tokens = self.tokens
        kind, text, column = tokens[self.pos]
        self.pos += 1
        if kind == "num":
            key, num, den = _UNIT_KEY, int(text), 1
        elif kind == "name":
            key, num, den = self.symbols.get(text), 1, 1
            if key is None:
                raise ParseError("unknown symbol %r" % text, column)
        elif kind == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError("expression nested too deeply", column)
            key, num, den = None, self.expr(), 0
            self.expect_op(")")
            self.depth -= 1
        else:
            raise ParseError("unexpected %s" % (text or "end of input"), column)
        kind, _, column = tokens[self.pos]
        if kind != "^":
            return key, num, den
        negative = tokens[self.pos + 1][0] == "-"
        self.pos += 3 if negative else 2
        kind, text, at = tokens[self.pos - 1]
        if kind != "num":
            raise ParseError("expected an integer exponent", at)
        n = -int(text) if negative else int(text)
        _check_exponent(n, column)
        if key is None:  # a parenthesized expression, whose value is in num
            terms = num
            key, num, den = _single_term(terms, "exponentiate", column)
        if num:
            return _power(key, num, den, n, column)
        if n <= 0:
            raise ParseError("zero cannot carry exponent %d" % n, column)
        if key is None:
            return None, {_raised(k, n, column): Fraction(0) for k in terms}, 0
        return key, 0, 1  # the literal 0: raising the unit key leaves it unchanged

    def expect_end(self):
        kind, text, column = self.tokens[self.pos]
        if kind != "end":
            raise ParseError("unexpected %r after expression" % text, column)


_HALFLINE_SYMBOLS = {"x": (1, 0, 0, 0), "dx": (0, 0, 1, 0)}
_QUADRANT_SYMBOLS = {
    "x": (1, 0, 0, 0),
    "y": (0, 1, 0, 0),
    "dx": (0, 0, 1, 0),
    "dy": (0, 0, 0, 1),
}
_CURVE_SYMBOLS = {"t": (1, 0, 0, 0)}


def _parse_raw(text: str, symbols: dict[str, _Key]) -> _Value:
    """The parsed value, cancelled monomials included (coefficient zero)."""
    parser = _ExprParser(_tokenize(text), symbols)
    value = parser.expr()
    parser.expect_end()
    return value


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
        return HalfLineTensor(k, LaurentJet.from_terms(coeff))
    if space == "quadrant":
        value = _clean(_parse_raw(text, _QUADRANT_SYMBOLS))
        components: dict[tuple[int, int], dict[tuple[int, int], Fraction]] = {
            basis: {} for basis in QUADRANT_BASIS
        }
        for (xe, ye, p, q), c in value.items():
            slot = components.get((p, q))
            if slot is None:
                raise ParseError(
                    "quadrant terms must carry dx^2, dy^2 or dx*dy (got dx^%d*dy^%d)"
                    % (p, q)
                )
            if xe < MIN_VALUATION or ye < MIN_VALUATION:
                raise ParseError(
                    "exponent below minimum %d in x^%d*y^%d" % (MIN_VALUATION, xe, ye)
                )
            slot[(xe, ye)] = c
        # every basis and exponent is checked above: no second pass over the terms
        return QuadrantTensor({basis: LaurentJet2(terms) for basis, terms in components.items()})
    raise ValueError("space must be 'halfline' or 'quadrant'")


def _value_to_jet1(value: _Value) -> Jet1:
    """The polynomial in t that ``value`` is, cancelled monomials dropped."""
    coeffs: dict[int, Fraction] = {}
    for (xe, _, _, _), c in _clean(value).items():  # the curve symbols give only powers of t
        if xe < 0:
            raise ParseError("negative powers of t are not allowed")
        coeffs[xe] = c
    degree = max(coeffs, default=0)
    return Jet1(tuple(coeffs.get(d, Fraction(0)) for d in range(degree + 1)))


def parse_polynomial(text: str) -> Jet1:
    """A polynomial in the curve parameter t, e.g. '1 + t/2 - 3*t^4'."""
    return _value_to_jet1(_parse_raw(text, _CURVE_SYMBOLS))


_LITERAL_RE = re.compile(r"\s*[+-]?([0-9]+)(?:/([0-9]+))?\s*")


def _literal(text: str, kind: str) -> str:
    """``text`` stripped, once it is a sign and ASCII digits, over a denominator
    only if ``kind`` is "rational", each run of digits within the literal cap."""
    m = _LITERAL_RE.fullmatch(text)
    if not m or (m[2] and kind != "rational"):
        raise ParseError("invalid %s literal %r" % (kind, text))
    for group in (1, 2):
        if m[group]:
            _check_literal(m[group], m.start(group) + 1)
    return text.strip()


def parse_rational(text: str) -> Fraction:
    """Exact rational literal: '3', '1/2', '-7/3'.  Decimal points, exponents
    and digit separators are refused."""
    if "." in text:
        raise ParseError("rational literals only; %r has a decimal point" % text)
    try:
        return Fraction(_literal(text, "rational"))
    except ZeroDivisionError:
        raise ParseError("invalid rational literal %r" % text) from None


def parse_plot(text: str) -> PlotGerm:
    """Parse a plot germ: t^2, t^4*(1+t), interior(1; 1+t), or flat.  The germ
    records check their own rules, and a refusal keeps the record's text."""
    tokens = _tokenize(text)
    head = tokens[0]
    if head[1] == "flat":
        if tokens[1][0] != "end":
            raise ParseError("unexpected input after 'flat'", tokens[1][2])
        return FlatGerm()
    if head[1] == "interior":
        build, data = InteriorGerm, _parse_interior(text, tokens)
    elif head[1] == "t":
        build, data = BoundaryGerm, _parse_boundary(tokens)
    else:
        raise ParseError("expected a plot germ (t^2, t^4*(1+t), interior(x0; jet), flat)",
                         head[2])
    try:
        return build(*data)
    except ValueError as e:
        raise ParseError(str(e)) from None


def _parse_boundary(tokens: list[tuple[str, str, int]]) -> tuple[int, Jet1]:
    parser = _ExprParser(tokens, _CURVE_SYMBOLS)
    exponent = parser.factor()[0][0]  # the first token is t: t or t^N, as in any expression
    if exponent % 2:  # an even one is judged by the germ record
        raise ParseError("plot not certified nonnegative: leading term t^%d" % exponent)
    unit = Jet1((1,))
    if tokens[parser.pos][0] == "*":
        parser.pos += 1
        if tokens[parser.pos][0] != "(":
            raise ParseError("expected a parenthesized unit factor", tokens[parser.pos][2])
        parser.pos += 1
        unit = _value_to_jet1(parser.expr())
        parser.expect_op(")")
    kind, text, column = tokens[parser.pos]
    if kind != "end":
        raise ParseError("unexpected %r after plot" % text, column)
    return exponent // 2, unit


def _parse_interior(text: str, tokens: list[tuple[str, str, int]]) -> tuple[Jet1]:
    if tokens[1][0] != "(":
        raise ParseError("interior germ syntax is interior(x0; jet)", tokens[1][2])
    semi = next((i for i, tok in enumerate(tokens) if tok[0] == ";"), None)
    if semi is None:
        raise ParseError("interior germ needs a ';' between base point and jet")
    x0 = parse_rational(text[tokens[1][2] : tokens[semi][2] - 1])
    parser = _ExprParser(tokens, _CURVE_SYMBOLS)
    parser.pos = semi + 1
    jet = _value_to_jet1(parser.expr())
    parser.expect_op(")")
    parser.expect_end()
    # The germ stores one base point, its jet's constant term.  A written
    # base point that is not positive is refused first, by the record.
    if x0 > 0 and jet.constant_term != x0:
        raise ParseError("interior jet constant term must equal the base point")
    return (Jet1((x0, *jet.coeffs[1:])),)


# -- printing ----------------------------------------------------------------


def format_quadrant_tensor(t: QuadrantTensor) -> str:
    """The terms by powers of x, then y, then in basis order."""
    rows = sorted(
        (i, j, rank, basis, c)
        for rank, (basis, jet) in enumerate(t.components.items())
        for i, j, c in jet.terms()
    )
    return format_terms(
        (c, [("x", i), ("y", j), ("dx", p), ("dy", q)]) for i, j, _, (p, q), c in rows
    )


def format_plot(p: PlotGerm) -> str:
    if isinstance(p, FlatGerm):
        return "flat"
    if isinstance(p, BoundaryGerm):
        head = "t^%d" % p.contact_degree
        if p.unit == Jet1((1,)):
            return head
        return "%s*(%s)" % (head, p.unit)
    if isinstance(p, InteriorGerm):
        return "interior(%s; %s)" % (p.x0, p.jet)
    raise TypeError("not a plot germ: %r" % (p,))
