import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import cornerjet
from cornerjet import (
    LaurentJet,
    check_gamma_parity,
    decompose_halfline,
    decompose_quadrant,
    format_quadrant_tensor,
    parse_plot,
    parse_tensor,
)
from cornerjet.cli import MAX_GRID, MAX_M_MAX, MAX_ORDER, fraction_str, run
from cornerjet.decompose import ComponentParity, ParityReport
from cornerjet.jets import Jet1, LaurentJet2, format_terms
from cornerjet.parser import (
    MAX_EXPONENT,
    MAX_POWER_BITS,
    MAX_PRODUCTS,
    MAX_TERM_BITS,
    ParseError,
    format_plot,
    parse_polynomial,
    parse_rational,
)
from cornerjet.plots import BoundaryGerm, FlatGerm, InteriorGerm
from cornerjet.pullback import SmoothnessVerdict
from cornerjet.tensors import (
    MIN_VALUATION,
    QUADRANT_BASIS,
    HalfLineTensor,
    QuadrantTensor,
    basis_name,
)

from conftest import laurent2s, nonzero_laurent_jets, polynomial_laurent2s, time_limit
from oracles import (
    evaluate_expression,
    make_halfline_tensor,
    make_quadrant_tensor,
    render_expression,
)


def format_halfline_tensor(t: HalfLineTensor) -> str:
    """A half-line tensor in the syntax that ``parse_tensor`` reads."""
    return format_terms((c, [("x", d), ("dx", t.degree)]) for d, c in t.coeff.terms())


# Decoders of the CLI's JSON forms, for round trips.


def fraction_from_str(s: str) -> F:
    return F(s)


def jet1_from_json(data: dict) -> Jet1:
    coeffs = [fraction_from_str(c) for c in data["coeffs"]]
    if len(coeffs) != data["order"] + 1:
        raise ValueError("jet payload length does not match its order")
    return Jet1(coeffs)


def laurent_from_json(data: dict) -> LaurentJet:
    return LaurentJet(data["valuation"], [fraction_from_str(c) for c in data["coeffs"]])


def laurent2_from_json(data: dict) -> LaurentJet2:
    return LaurentJet2(
        {(t["x"], t["y"]): fraction_from_str(t["c"]) for t in data["terms"]}
    )


def quadrant_from_json(data: dict) -> QuadrantTensor:
    return QuadrantTensor({
        basis: laurent2_from_json(data[basis_name(basis, ("dx", "dy"))])
        for basis in QUADRANT_BASIS
    })


def parity_from_json(data: dict) -> ParityReport:
    components = {}
    for name, fields in data["components"].items():
        degrees = fields["min_degrees"]
        components[name] = ComponentParity(
            **{**fields, "min_degrees": None if degrees is None else tuple(degrees)})
    return ParityReport(components, data["rule_holds"])


class TestParseTensor:
    def test_singular_tensor(self):
        t = parse_tensor("(1/x)*dx^2", "halfline")
        assert t.degree == 2 and t.coeff == LaurentJet(-1, [1])

    def test_pole_plus_polynomial(self):
        t = parse_tensor("(1/x + 3 + x)*dx^2", "halfline")
        assert t.coeff == LaurentJet(-1, [1, 3, 1])

    def test_quadrant_demo_tensor(self):
        t = parse_tensor("(y^2/x)*dx^2 + (1/y)*dy^2 + x*y*dx*dy", "quadrant")
        assert t.a == LaurentJet2({(-1, 2): 1})
        assert t.b == LaurentJet2({(0, -1): 1})
        assert t.c == LaurentJet2({(1, 1): 1})

    def test_unknown_space_is_refused(self):
        with pytest.raises(ValueError, match="space must be 'halfline' or 'quadrant'"):
            parse_tensor("x*dx", "bogus")

    def test_unknown_symbol(self):
        with pytest.raises(ParseError, match="unknown symbol 'dz'"):
            parse_tensor("dz^2", "halfline")

    def test_mixed_degrees(self):
        with pytest.raises(ParseError, match="mixed tensor degree"):
            parse_tensor("dx^2 + dx", "halfline")

    def test_mixed_space_symbols(self):
        with pytest.raises(ParseError, match="unknown symbol 'y'"):
            parse_tensor("y*dx^2", "halfline")

    def test_exponent_below_minimum(self):
        with pytest.raises(ParseError, match="below minimum"):
            parse_tensor("(1/x^5)*dx^2", "halfline")

    def test_quadrant_exponent_below_minimum(self):
        with pytest.raises(ParseError, match="below minimum"):
            parse_tensor("(1/y^5)*dy^2", "quadrant")

    def test_quadrant_needs_degree_two_basis(self):
        with pytest.raises(ParseError, match="dx\\^2, dy\\^2 or dx\\*dy"):
            parse_tensor("x*dx", "quadrant")

    def test_negative_exponent_literal(self):
        assert parse_tensor("x^-1*dx^2", "halfline").coeff == LaurentJet(-1, [1])

    def test_rational_coefficients(self):
        t = parse_tensor("3/2*dx^2 - 7/3*x*dx^2", "halfline")
        assert t.coeff == LaurentJet(0, [F(3, 2), F(-7, 3)])

    def test_no_float_literals(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_tensor("0.5*dx^2", "halfline")

    def test_superscript_exponent_is_a_located_parse_error(self):
        # str.isdigit admits '²', which int() then refused without a column
        with pytest.raises(ParseError, match="at 1:3: unexpected character '²'"):
            parse_tensor("x^²*dx^2", "halfline")

    def test_non_ascii_digits_are_rejected(self):
        # '٣' (ARABIC-INDIC DIGIT THREE) passes str.isdigit and int() reads it as 3
        with pytest.raises(ParseError, match="at 1:3: unexpected character"):
            parse_tensor("x^٣*dx^2", "halfline")

    def test_syntax_error_carries_column(self):
        with pytest.raises(ParseError, match="at 1:8"):
            parse_tensor("x*dx^2 )", "halfline")

    @pytest.mark.parametrize("text", ["0*dx^2", "x*dx^2 - x*dx^2", "(x - x)^3*dx^2", "(1/x)*(x*dx^2 - x*dx^2)"])
    def test_cancelled_coefficients_keep_the_basis(self, text):
        t = parse_tensor(text, "halfline")
        assert t.degree == 2
        assert t.coeff.is_zero

    def test_cancelled_terms_do_not_mix_degrees(self):
        t = parse_tensor("x*dx - x*dx + x*dx^2", "halfline")
        assert (t.degree, t.coeff) == (2, LaurentJet(1, [1]))

    def test_a_power_of_the_literal_zero_is_zero(self):
        # 0^3 keeps the unit key: its term is zero and carries the degree of its dx.
        t = parse_tensor("0^3*dx^2", "halfline")
        assert (t.degree, t.coeff) == (2, LaurentJet())
        t = parse_tensor("0^3*x*dx + x*dx", "halfline")
        assert (t.degree, t.coeff) == (1, LaurentJet(1, [1]))

    @pytest.mark.parametrize("text", ["1/0*dx", "x/(x-x)*dx"])
    def test_division_by_zero_names_the_slash(self, text):
        with pytest.raises(ParseError, match="at 1:2: division by zero"):
            parse_tensor(text, "halfline")

    def test_cancelled_terms_below_minimum_are_ignored(self):
        assert parse_tensor("x^-9*dx^2 - x^-9*dx^2 + dx^2", "halfline").coeff == LaurentJet(0, [1])


class TestParsePlot:
    def test_square_map(self):
        germ = parse_plot("t^2")
        assert isinstance(germ, BoundaryGerm) and germ.m == 1
        assert germ.unit == Jet1([1])

    def test_unit_factor(self):
        germ = parse_plot("t^4*(1+t)")
        assert germ.m == 2 and germ.unit == Jet1([1, 1])

    def test_odd_contact_rejected(self):
        with pytest.raises(ParseError, match="not certified nonnegative"):
            parse_plot("t^3")

    def test_interior(self):
        germ = parse_plot("interior(1; 1+t)")
        assert isinstance(germ, InteriorGerm)
        assert germ.x0 == 1 and germ.jet == Jet1([1, 1])

    def test_interior_error_column_counts_from_the_whole_text(self):
        with pytest.raises(ParseError, match="at 1:15: unknown symbol 'x'"):
            parse_plot("interior(1; 1+x)")

    def test_flat(self):
        assert isinstance(parse_plot("flat"), FlatGerm)

    def test_nonpositive_unit(self):
        with pytest.raises(ParseError, match="not certified nonnegative"):
            parse_plot("t^2*(0 + t)")

    def test_cancelled_unit_terms_are_dropped(self):
        assert parse_plot("t^2*(1 + t - t)") == parse_plot("t^2")
        assert format_plot(parse_plot("t^2*(1 + t - t)")) == "t^2"
        assert parse_plot("t^2*(1 + 0*t^3)").unit == Jet1([1])
        assert parse_plot("t^4*(2 + t^2 - t^2 + t)").unit == Jet1([2, 1])

    def test_format_refuses_a_non_germ(self):
        with pytest.raises(TypeError, match="not a plot germ: 't\\^2'"):
            format_plot("t^2")

    def test_rational_literori(self):
        assert parse_rational("-7/3") == F(-7, 3)
        with pytest.raises(ParseError, match="decimal point"):
            parse_rational("0.5")

    @pytest.mark.parametrize("text, value", [("-1", -1), ("3/4", F(3, 4)), (" -7/3 ", F(-7, 3)), ("+2", 2)])
    def test_rational_literal_forms(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", ["5e-1", "1E3", "1_000", "- 1", "1/-2", "\u0663", "1/0", ""])
    def test_rational_refuses_exponents_and_separators(self, text):
        with pytest.raises(ParseError, match="invalid rational literal"):
            parse_rational(text)

    def test_interior_base_point_is_a_plain_rational(self):
        with pytest.raises(ParseError, match="invalid rational literal"):
            parse_plot("interior(1e1; 10+t)")

    @pytest.mark.parametrize("text, message", [
        # the contact exponent is read as in any expression, so a negative one is
        # refused by the germ rule, and beyond the cap by the exponent cap
        ("t^-2", "plot not certified nonnegative: leading term t^-2"),
        ("t^-2049", "syntax error at 1:2: exponent -2049 exceeds the maximum 2048"),
        # the germ is built after its jet is read: the jet's error comes first
        ("interior(0; 1+x)", "syntax error at 1:15: unknown symbol 'x'"),
        # a boundary germ too: its even contact exponent is judged by the record
        ("t^-2*(1+x)", "syntax error at 1:9: unknown symbol 'x'"),
    ])
    def test_refusal_order(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_plot(text)
        assert str(info.value) == message

    def test_builder_and_parser_refuse_with_one_text(self):
        message = "plot not certified nonnegative: unit constant term must be positive"
        with pytest.raises(ValueError) as info:
            BoundaryGerm(1, Jet1([0, 1]))
        assert str(info.value) == message
        with pytest.raises(ParseError) as info:
            parse_plot("t^2*(0+t)")
        assert str(info.value) == message



class TestParsePolynomial:
    def test_coefficients_by_degree(self):
        assert parse_polynomial("1 + t/2 - 3*t^4") == Jet1([1, F(1, 2), 0, 0, -3])

    def test_cancellation_and_constants(self):
        assert parse_polynomial("t - t + 7") == Jet1([7])

    @pytest.mark.parametrize(
        "text, message", [("x", "unknown symbol"), ("1/t", "negative powers")]
    )
    def test_rejects_non_polynomials(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_polynomial(text)


# One row per ``raise ParseError`` site in ``cornerjet.parser``: the input, the
# parser it goes to, and the full message with its column.
PARSE_ERRORS = [
    ("halfline", "1" + "0" * 4300 + "*dx^2",
     "syntax error at 1:1: integer literal of 4301 digits exceeds the maximum 4300"),
    ("halfline", "x*dx^2 $", "syntax error at 1:8: unexpected character '$'"),
    ("halfline", "x/(x+1)*dx", "syntax error at 1:2: cannot divide by a sum"),
    ("halfline", "(x+1)^2*dx", "syntax error at 1:6: cannot exponentiate a sum"),
    ("halfline", "x^2049*dx", "syntax error at 1:2: exponent 2049 exceeds the maximum 2048"),
    ("halfline", "(x^64)^33*dx", "syntax error at 1:7: exponent 2112 exceeds the maximum 2048"),
    ("halfline", "x*dx^-2", "syntax error at 1:5: differential symbols cannot carry negative powers"),
    ("halfline", "(3^2048)^3*dx", "syntax error at 1:9: power too large: its coefficient exceeds 8192 bits"),
    ("halfline", "(x*dx", "syntax error at 1:6: expected ')'"),
    ("halfline", "1/0*dx", "syntax error at 1:2: division by zero"),
    ("halfline", "x/(x-x)*dx", "syntax error at 1:2: division by zero"),
    ("halfline", "x/dx", "syntax error at 1:2: cannot divide by a differential symbol"),
    ("halfline", "x*dz", "syntax error at 1:3: unknown symbol 'dz'"),
    ("halfline", "(" * 101 + "x" + ")" * 101, "syntax error at 1:101: expression nested too deeply"),
    ("halfline", "x*", "syntax error at 1:3: unexpected end of input"),
    ("halfline", "x*)", "syntax error at 1:3: unexpected )"),
    ("halfline", "x^y*dx", "syntax error at 1:3: expected an integer exponent"),
    ("halfline", "0^0*dx", "syntax error at 1:2: zero cannot carry exponent 0"),
    ("halfline", "(x-x)^-1*dx", "syntax error at 1:6: zero cannot carry exponent -1"),
    ("halfline", "x*dx^2 )", "syntax error at 1:8: unexpected ')' after expression"),
    ("halfline", "dx^2 + dx", "mixed tensor degree: dx^1 vs dx^2"),
    ("halfline", "x^-5*dx^2", "exponent -5 below minimum -4"),
    ("quadrant", "x*dy*dx + x*dx", "quadrant terms must carry dx^2, dy^2 or dx*dy (got dx^1*dy^0)"),
    ("quadrant", "y^-5*dy^2", "exponent below minimum -4 in x^0*y^-5"),
    ("polynomial", "1/t", "negative powers of t are not allowed"),
    ("rational", "0.5", "rational literals only; '0.5' has a decimal point"),
    ("rational", "1e1", "invalid rational literal '1e1'"),
    ("rational", "1/" + "7" * 4301,
     "syntax error at 1:3: integer literal of 4301 digits exceeds the maximum 4300"),
    ("plot", "flat x", "syntax error at 1:6: unexpected input after 'flat'"),
    ("plot", "s^2", "syntax error at 1:1: expected a plot germ (t^2, t^4*(1+t), interior(x0; jet), flat)"),
    ("plot", "t^x", "syntax error at 1:3: expected an integer exponent"),
    ("plot", "t^2050", "syntax error at 1:2: exponent 2050 exceeds the maximum 2048"),
    ("plot", "t^3", "plot not certified nonnegative: leading term t^3"),
    ("plot", "t^0", "plot not certified nonnegative: leading term t^0"),
    ("plot", "t", "plot not certified nonnegative: leading term t^1"),
    ("plot", "t^2*t", "syntax error at 1:5: expected a parenthesized unit factor"),
    ("plot", "t^2 t", "syntax error at 1:5: unexpected 't' after plot"),
    ("plot", "t^2*(0 + t)", "plot not certified nonnegative: unit constant term must be positive"),
    ("plot", "interior 1; t", "syntax error at 1:10: interior germ syntax is interior(x0; jet)"),
    ("plot", "interior(1 1+t)", "interior germ needs a ';' between base point and jet"),
    ("plot", "interior(0; t)", "interior base point must be positive"),
    ("plot", "interior(1; 2+t)", "interior jet constant term must equal the base point"),
    ("plot", "interior(1; 1+t", "syntax error at 1:16: expected ')'"),
    ("plot", "interior(1; 1+t) x", "syntax error at 1:18: unexpected 'x' after expression"),
    ("halfline", "*".join(["2^2048"] * 32) + "*dx",
     "syntax error at 1:217: term too large: its numbers exceed 65536 bits"),
    ("halfline", "x^2048*x^2048*dx", "syntax error at 1:17: exponent 4096 exceeds the maximum 2048"),
    ("halfline", "(x^2000+1)*(x^2000+1)*dx",
     "syntax error at 1:25: exponent 4000 exceeds the maximum 2048"),
    ("plot", "t^2*(1+t^2048*t)", "syntax error at 1:16: exponent 2049 exceeds the maximum 2048"),
    ("plot", "interior(1; 1+t^2048*t)", "syntax error at 1:23: exponent 2049 exceeds the maximum 2048"),
    ("polynomial", "1 + t^1024*t^1025", "syntax error at 1:18: exponent 2049 exceeds the maximum 2048"),
    ("halfline", "x/7^2048/7^2048*dx + x/11^2048/11^2048*dx + x/13^2048/13^2048*dx",
     "syntax error at 1:65: sum too large: the coefficients of one monomial exceed 65536 bits"),
]

_PARSERS = {
    "halfline": lambda text: parse_tensor(text, "halfline"),
    "quadrant": lambda text: parse_tensor(text, "quadrant"),
    "polynomial": parse_polynomial,
    "rational": parse_rational,
    "plot": parse_plot,
}


@pytest.mark.parametrize("space, text, message", PARSE_ERRORS, ids=[
    "%s:%s" % (space, text if len(text) < 30 else "%s...(%d chars)" % (text[:6], len(text)))
    for space, text, _ in PARSE_ERRORS
])
def test_parse_error_messages(space, text, message):
    with pytest.raises(ParseError) as err:
        _PARSERS[space](text)
    assert str(err.value) == message


def _nested(depth: int, core: str = "x") -> str:
    return "(" * depth + core + ")" * depth


class TestNestingLimit:
    def test_deep_but_allowed(self):
        assert parse_tensor(_nested(100) + "*dx^2").coeff == LaurentJet(1, [1])

    @pytest.mark.parametrize("depth", [101, 3000])
    def test_too_deep_is_a_parse_error(self, depth):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_tensor(_nested(depth) + "*dx^2")
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_tensor(_nested(depth, "x*dx^2 + y*dy^2"), "quadrant")
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_plot("interior(1; %s)" % _nested(depth, "1 + t"))
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_plot("t^2*(%s)" % _nested(depth, "1 + t"))
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_polynomial(_nested(depth, "t"))

    def test_cli_exits_one_without_traceback(self, capsys):
        assert run(["pullback", "--plot", "t^2", _nested(3000) + "*dx^2"]) == 1
        assert run(["gl-check", "--f", _nested(3000, "t^2")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("nested too deeply") == 2
        assert "Traceback" not in captured.err


halfline_tensors = st.builds(
    make_halfline_tensor,
    st.integers(0, 4),
    nonzero_laurent_jets(min_valuation=-4, max_degree=5),
)

quadrant_tensors = st.builds(
    make_quadrant_tensor,
    polynomial_laurent2s(max_degree=3, max_terms=4),
    polynomial_laurent2s(max_degree=3, max_terms=4),
    polynomial_laurent2s(max_degree=3, max_terms=4),
)


class TestCaps:
    """Sizes above a cap are refused at once with exit code 1; nothing is clamped."""

    @pytest.mark.parametrize("text", [
        "x^2049*dx", "x^-2049*dx", "x*dx^2049", "(x^64)^33*dx", "(2*x)^99999999*dx",
        "x^99999999999999999999*dx", "0^2049*dx",
        # exponents reached by multiplying factors and sums
        "x^2048*x^2048*dx", "x^-2048*x^-1*dx", "dx^2048*dx^2048*dx^2048*dx^2048",
        "(x^2000+1)*(x^2000+1)*dx", "x*dx + (x^2048+1)*x*dx", "0*x^2048*x*dx",
    ])
    def test_exponent_cap(self, text):
        with pytest.raises(ParseError, match="exponent -?[0-9]+ exceeds the maximum %d" % MAX_EXPONENT):
            parse_tensor(text, "halfline")

    def test_exponents_at_the_cap_are_accepted(self):
        assert parse_tensor("(x^32)^64*dx", "halfline").coeff == LaurentJet(MAX_EXPONENT, [1])
        assert parse_tensor("x*dx^2048", "halfline").degree == MAX_EXPONENT
        assert parse_plot("t^2048").m == MAX_EXPONENT // 2
        assert parse_tensor("x^1024*x^1024*dx").coeff == LaurentJet(MAX_EXPONENT, [1])
        assert parse_tensor("(x^1000+1)*(x^1048+1)*dx").coeff.degree == MAX_EXPONENT
        assert parse_tensor("dx^1024*dx^1024").degree == MAX_EXPONENT
        assert parse_plot("t^2*(1+t^1024*t^1024)").unit.order == MAX_EXPONENT
        # exponents that each stay within the cap, however large together
        assert parse_tensor("x^2048*dx^2048").coeff == LaurentJet(MAX_EXPONENT, [1])
        assert parse_tensor("x^1500*y^1500*dx^2", "quadrant").a == LaurentJet2({(1500, 1500): 1})
        with pytest.raises(ParseError, match="at 1:2: exponent 2050 exceeds"):
            parse_plot("t^2050")

    def test_power_coefficient_cap(self):
        # 3^2048 counts 2 * 2048 bits; cubing it counts 3 * 3247
        assert parse_tensor("(3^2048)^2*dx", "halfline").coeff == LaurentJet(0, [3 ** 4096])
        with pytest.raises(ParseError, match="power too large: .* %d bits" % MAX_POWER_BITS):
            parse_tensor("(3^2048)^3*dx", "halfline")

    def test_product_budget(self):
        # n factors (1+x+y) form sum over k < n of 3 (k+1)(k+2)/2 monomial products
        assert parse_tensor("*".join(["(1+x+y)"] * 31) + "*dx^2", "quadrant").a.valuations == (0, 0)
        text = "*".join(["(1+x+y)"] * 32) + "*dx^2"
        with pytest.raises(ParseError, match="at 1:248: product too large: .* %d monomial products"
                           % MAX_PRODUCTS):
            parse_tensor(text, "quadrant")
        # 128 by 128 terms is exactly the budget; one more term is over it
        row = "+".join("x^%d" % k for k in range(128))
        assert len(parse_tensor("(%s)*(%s)*dx" % (row, row), "halfline").coeff.coeffs) == 255
        with pytest.raises(ParseError, match="product too large"):
            parse_tensor("(%s+x^200)*(%s)*dx" % (row, row), "halfline")

    def test_product_budget_weighs_coefficient_bits(self):
        # two sums of three 14,282-bit coefficients count 9 + (3 * 14282)^2 // 2^17
        # = 14,015; a small third factor adds 14 more, a third such sum 56,025
        big = "(%s+%s*x+%s*y)" % (("9" * 4299,) * 3)
        assert parse_tensor(big + "*" + big + "*(1+x)*dx^2", "quadrant").a.valuations == (0, 0)
        with pytest.raises(ParseError, match="product too large"):
            parse_tensor(big + "*" + big + "*" + big + "*dx^2", "quadrant")

    def test_term_bit_cap(self):
        # a term's numbers and coefficient powers count their numerators' and
        # denominators' bit lengths: 2^2048 counts 2049 + 1, and these reach the cap
        # exactly; symbols count nothing
        at_cap = "*".join(["2^2048"] * 31) + "*2^1984"
        over = "1/" + "/".join(["2^2048"] * 31) + "/2^1982"
        assert parse_tensor(at_cap + "*x*dx").coeff == LaurentJet(1, [2 ** 65472])
        assert parse_tensor(over + "*x*dx").coeff == LaurentJet(1, [F(1, 2 ** 65470)])
        for head, tail in ((at_cap, "*2*dx"), (over, "/2*dx"), (at_cap, "*(-1)^3*dx")):
            with pytest.raises(ParseError, match="at 1:%d: term too large: its numbers exceed"
                               " %d bits" % (len(head) + 1, MAX_TERM_BITS)):
                parse_tensor(head + tail)

    @pytest.mark.parametrize("n", [3, 10, 20, 40, 80])
    def test_term_bit_cap_bounds_long_terms(self, n):
        # 4,000-digit factors B/C: two pass, and a third is refused at its '*' at
        # once, however many follow (80 of them took seconds without the cap)
        factor = "%s/%s" % ("9" * 3999 + "7", "8" * 3999 + "9")
        assert parse_tensor(factor + "*" + factor + "*x*dx").coeff.valuation == 1
        with pytest.raises(ParseError, match="at 1:%d: term too large" % (2 * len(factor) + 2)):
            parse_tensor("*".join([factor] * n) + "*x*dx")

    @pytest.mark.parametrize("n", [3, 16, 64])
    def test_sum_bit_cap_bounds_long_sums(self, n):
        # terms 1/(p^e q^e), distinct primes, each power just under MAX_POWER_BITS:
        # without the cap their sum grows by each denominator, and 64 terms took
        # seconds; two terms reach 44,388 bits, and a third would pass the cap, so it
        # is refused as it ends
        primes = [p for p in range(17, 1000) if all(p % d for d in range(2, int(p ** 0.5) + 1))]
        terms = ["1/%d^%d/%d^%d*x*dx" % (p, MAX_POWER_BITS // p.bit_length(),
                                         q, MAX_POWER_BITS // q.bit_length())
                 for p, q in zip(primes[0:2 * n:2], primes[1:2 * n:2])]
        assert parse_tensor(" + ".join(terms[:2])).coeff.valuation == 1
        # the refusal points at the token after the third term: the end, or a '+'
        column = len(" + ".join(terms[:3])) + (1 if n == 3 else 2)
        with pytest.raises(ParseError, match="at 1:%d: sum too large: the coefficients of one"
                           " monomial exceed %d bits" % (column, MAX_TERM_BITS)):
            parse_tensor(" + ".join(terms))

    def test_sum_bit_cap_accepts_sums_that_stay_small(self):
        # terms over one 23,000-bit denominator add only their numerators, and
        # terms on distinct monomials add nothing up
        big = "/".join(["7^2048"] * 4)
        like_terms = parse_tensor("x/%s*dx + x/%s*dx" % (big, big))
        assert like_terms.coeff == LaurentJet(1, [F(2, 7 ** 8192)])
        text = " + ".join("1/%s*x^%d*dx" % (big, k) for k in range(8))
        assert len(parse_tensor(text).coeff.coeffs) == 8
        assert parse_tensor("x*dx + " * 1000 + "x*dx").coeff == LaurentJet(1, [1001])

    @pytest.mark.parametrize("argv, message", [
        (["pullback", "--order", str(MAX_ORDER + 1), "--plot", "t^2", "(1/x)*dx^2"],
         "order 257 exceeds the maximum 256"),
        (["verify-capacity", "--m-max", str(MAX_M_MAX + 1), "2", "1"],
         "m_max 1001 exceeds the maximum 1000"),
        (["verify-capacity", "2049", "1"], "k 2049 exceeds the maximum 2048"),
        (["verify-capacity", "2", "2049"], "p 2049 exceeds the maximum 2048"),
        (["gl-check", "--f", "t^2", "--grid", str(MAX_GRID + 1)],
         "grid 8193 exceeds the maximum 8192"),
        (["pullback", "--plot", "t^2*(1+t)", "x^100000*dx"], "exponent 100000 exceeds"),
        (["pullback", "--plot", "t^2*(3/2+t)", "x^20000*dx"], "exponent 20000 exceeds"),
        (["parity", "*".join(["(1+x+y)"] * 400) + "*dx^2"],
         "product too large: multiplying out exceeds %d monomial products" % MAX_PRODUCTS),
        # 32 factors x^2048 ran for seconds and then failed on CPython's
        # int-to-str limit; now the term is refused as it ends
        (["pullback", "--order", "256", "--plot", "t^2*(3/2+t)", "*".join(["x^2048"] * 32) + "*dx"],
         "syntax error at 1:227: exponent 65536 exceeds the maximum 2048"),
    ])
    def test_cli_caps_exit_one(self, capsys, argv, message):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert message in captured.err

    @pytest.mark.parametrize("argv", [
        ["capacity", "4"], ["verify-capacity", "2", "1"], ["gl-check", "--f", "t^2"],
        ["parity", "x*y*dx*dy"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("value, message", [
        (str(MAX_ORDER + 1), "order 257 exceeds the maximum 256"),
        ("-5", "order -5 is below the minimum 0"),
    ], ids=["flag", "flag-negative"])
    def test_order_is_checked_by_commands_that_ignore_it(self, capsys, argv, value, message):
        # --order is global: every subcommand refuses a bad one, read or not
        assert run(argv[:1] + ["--order", value] + argv[1:]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: %s\n" % message

    def test_negative_order_is_refused_with_the_library_text(self, capsys):
        # the CLI reads --order with the library's reader, so both say the same
        with pytest.raises(ValueError) as refused:
            decompose_halfline(parse_tensor("(1/x)*dx^2"), order=-5)
        assert run(["decompose", "--order", "-5", "(1/x)*dx^2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: %s\n" % refused.value

    def test_values_at_the_caps_are_accepted(self, capsys):
        assert run(["pullback", "--order", str(MAX_ORDER), "--plot", "t^2", "(1/x)*dx^2"]) == 0
        assert run(["verify-capacity", "--m-max", str(MAX_M_MAX), "2", "1"]) == 0
        assert run(["gl-check", "--f", "t^2", "--grid", str(MAX_GRID)]) == 0
        assert run(["decompose", "--order", "0", "(1/x)*dx^2"]) == 0
        assert run(["decompose", "--order", "1", "(1/x + x)*dx^2"]) == 0
        assert capsys.readouterr().err == ""


class TestPrintParseRoundTrip:
    @settings(max_examples=150)
    @given(halfline_tensors)
    def test_halfline(self, tensor):
        assert parse_tensor(format_halfline_tensor(tensor), "halfline") == tensor

    @settings(max_examples=150)
    @given(quadrant_tensors)
    def test_quadrant(self, tensor):
        assert parse_tensor(format_quadrant_tensor(tensor), "quadrant") == tensor

    @given(st.integers(1, 5), st.integers(0, 3))
    def test_plots(self, m, extra):
        unit = Jet1([1] + [F(1, 2)] * extra)
        germ = BoundaryGerm(m, unit)
        assert parse_plot(format_plot(germ)) == germ

    def test_interior_plot(self):
        germ = InteriorGerm(Jet1([F(1, 2), 1]))
        assert parse_plot(format_plot(germ)) == germ

    def test_flat_plot(self):
        assert parse_plot(format_plot(FlatGerm())) == FlatGerm()


# Expression trees for ``oracles.evaluate_expression``: quadrant tensors whose
# terms multiply coefficient factors in x and y (literals, powers, parenthesized
# monomials and sums, divisions) by a degree-2 basis (dx^2, dx*dy, or a product
# of two parenthesized linear forms in dx and dy), with planted cancellations.
_digits = st.integers(0, 9).map(lambda n: ("num", n))
_nonzero_digits = st.integers(1, 9).map(lambda n: ("num", n))
_variables = st.sampled_from(["x", "y"]).map(lambda name: ("sym", name))
_differentials = st.sampled_from(["dx", "dy"]).map(lambda name: ("sym", name))
_signs = st.sampled_from([1, -1])


@st.composite
def _monomials(draw):
    """A parenthesized nonzero monomial in x and y, such as (3/x*y)."""
    factors = [draw(_nonzero_digits)]
    for _ in range(draw(st.integers(0, 2))):
        factors.append((draw(st.sampled_from("*/")), draw(st.one_of(_variables, _nonzero_digits))))
    return ("paren", ("product", factors))


@st.composite
def _with_cancellation(draw, terms):
    """``terms`` plus, now and then, a planted pair that cancels."""
    if draw(st.booleans()):
        term = draw(_monomials())[1]
        for sign in (1, -1):
            terms.insert(draw(st.integers(0, len(terms))), (sign, term))
    return ("sum", terms)


@st.composite
def _single_monomials(draw):
    """A factor whose value has one nonzero monomial, for a power base or a divisor."""
    base = draw(st.one_of(_variables, _nonzero_digits, _monomials()))
    if base[0] == "paren" and draw(st.booleans()):  # (3*x + 2*y - 2*y)
        base = ("paren", draw(_with_cancellation([(1, base[1])])))
    if draw(st.booleans()):
        base = ("pow", base, draw(st.integers(-3, 3)))
    return base


@st.composite
def _coefficient_factors(draw, depth):
    kind = draw(st.integers(0, 2 if depth else 1))
    if kind == 0:
        return draw(st.one_of(_digits, _variables))
    if kind == 1:
        return draw(_single_monomials())
    return ("paren", draw(_sums(depth - 1, basis=False)))


@st.composite
def _linear_forms(draw):
    """(c1*dx + c2*dy), one factor of degree 1 in the differentials."""
    terms = [(draw(_signs), ("product", [draw(_coefficient_factors(0)), ("*", ("sym", d))]))
             for d in ("dx", "dy")]
    return ("paren", ("sum", terms))


@st.composite
def _terms(draw, depth, basis):
    items = [("*", draw(_coefficient_factors(depth))) for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(0, 2))):
        items.insert(draw(st.integers(1, len(items))), ("/", draw(_single_monomials())))
    if basis:
        if draw(st.booleans()):
            parts = [("pow", draw(_differentials), 2)]
        else:
            parts = [draw(st.one_of(_differentials, _linear_forms())) for _ in range(2)]
        for part in parts:
            items.insert(draw(st.integers(0, len(items))), ("*", part))
    return ("product", [items[0][1]] + items[1:])


@st.composite
def _sums(draw, depth, basis):
    terms = [(draw(_signs), draw(_terms(depth, basis))) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):  # a whole term cancels
        sign, term = draw(st.sampled_from(terms))
        terms.insert(draw(st.integers(0, len(terms))), (-sign, term))
    return draw(_with_cancellation(terms))


class TestExpressionOracle:
    """``parse_tensor`` against a plain evaluation of the same expression tree."""

    @settings(max_examples=200, deadline=None)
    @given(_sums(1, basis=True))
    def test_quadrant_tensor(self, tree):
        text = render_expression(tree)
        expected = evaluate_expression(tree)
        if any(min(key[:2]) < MIN_VALUATION for key in expected):
            with pytest.raises(ParseError, match="below minimum"):
                parse_tensor(text, "quadrant")
            return
        t = parse_tensor(text, "quadrant")
        bases = (((2, 0), t.a), ((0, 2), t.b), ((1, 1), t.c))
        assert {(i, j) + basis: c for basis, jet in bases for i, j, c in jet.terms()} == expected


SCENARIOS = [
    (["decompose", "--space", "halfline", "(1/x)*dx^2"], 0, "c = 1\nregular = 0"),
    (["capacity", "4"], 0, "2"),
    (["capacity", "2"], 0, "1"),
    (
        ["pullback", "--plot", "t^2", "(1/x^2)*dx^2"],
        2,
        "status = Pole(2)\nwitness = 4*t^-2",
    ),
    (
        ["pullback", "--plot", "t^2", "(1/x)*dx^2"],
        0,
        "status = Smooth\nwitness = 4\nvanishing_order = 0",
    ),
    (
        ["pullback", "--plot", "t^2", "(1/x)*dx"],
        2,
        "status = Pole(1)\nwitness = 2*t^-1",
    ),
    (["check-metric", "dx^2"], 0, "accepted"),
    (
        ["check-metric", "(1/x)*dx^2"],
        2,
        "rejected\nplot = t^2\nvalue = 4\nclause = definiteness-zero-required",
    ),
    (["gl-check", "--f", "t^2", "--interval", "-1", "1"], 0, "C = 2.0\nmax_violation = 0.0\npass"),
    (
        ["decompose", "--space", "quadrant", "(y^2/x)*dx^2 + (1/y)*dy^2 + x*y*dx*dy"],
        0,
        "A = y^2\nB = 1\nregular = x*y*dx*dy\n"
        "parity: du^2 even-even ok; dv^2 even-even ok; du*dv odd-odd ok",
    ),
    (
        ["decompose", "--space", "quadrant", "(1/x)*dx*dy"],
        2,
        "rejected: singular cross term: violates odd-odd parity\n"
        "parity: du^2 even-even ok; dv^2 even-even ok; du*dv odd-odd VIOLATED",
    ),
    (
        ["parity", "x*y*dx*dy"],
        0,
        "du^2: empty; ok\ndv^2: empty; ok\ndu*dv: odd-odd:1; ok\nrule holds",
    ),
    (["verify-capacity", "2", "1"], 0,
     "k = 2, p = 1, m_max = 6\nmargins = [0, 2, 4, 6, 8, 10]\nbinding_m = 1\nadmissible"),
    (["verify-capacity", "2", "2"], 2,
     "k = 2, p = 2, m_max = 6\nmargins = [-2, -2, -2, -2, -2, -2]\nbinding_m = 1\ninadmissible"),
]


# Quadrant text, byte for byte, beyond the documented table: the order in
# which terms print (by powers of x, then y, then in basis order) and the
# rejection of an axial component by its name.
QUADRANT_TEXT_SCENARIOS = [
    (["decompose", "--space", "quadrant", "x*dx*dy + x*dy^2 + x*dx^2 + (y/x)*dx^2"], 0,
     "A = y\nB = 0\nregular = x*dx^2 + x*dy^2 + x*dx*dy\n"
     "parity: du^2 even-even ok; dv^2 even-even ok; du*dv odd-odd ok\n"),
    (["decompose", "--space", "quadrant", "(1/y^2)*dy^2"], 2,
     "rejected: not a smooth tensor on the quadrant: dy^2 coefficient pulls back with a pole\n"
     "parity: du^2 even-even ok; dv^2 even-even VIOLATED; du*dv odd-odd ok\n"),
]


class TestCliScenarios:
    @pytest.mark.parametrize("argv, code, expected", SCENARIOS)
    def test_documented_output(self, capsys, argv, code, expected):
        assert run(argv) == code
        assert capsys.readouterr().out.rstrip("\n") == expected

    @pytest.mark.parametrize("argv, code, expected", QUADRANT_TEXT_SCENARIOS)
    def test_pinned_quadrant_text(self, capsys, argv, code, expected):
        assert run(argv) == code
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (expected, "")

    def test_parse_error_exits_one(self, capsys):
        assert run(["decompose", "dz^2"]) == 1
        assert "unknown symbol" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self, capsys):
        assert run(["capacity", "--wat", "4"]) == 1

    def test_unknown_command_exits_one(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_missing_command_exits_one(self, capsys):
        assert run([]) == 1

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "decompose" in capsys.readouterr().out

    def test_odd_plot_exits_one(self, capsys):
        assert run(["pullback", "--plot", "t^3", "dx^2"]) == 1

    def test_superscript_plot_exponent_exits_one_with_column(self, capsys):
        assert run(["pullback", "--plot", "t^²", "dx^2"]) == 1
        assert "syntax error at 1:3: unexpected character '²'" in capsys.readouterr().err

    def test_no_subcommand_imports_numpy_dataclasses_or_typing(self):
        # -S keeps ``site`` out, which may load typing itself; modules loaded
        # before the CLI do not count.
        argvs = list({argv[0]: argv for argv, _, _ in SCENARIOS}.values())
        assert len(argvs) == 7
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "from cornerjet.cli import run\n"
            "for argv in %r:\n"
            "    run(argv)\n"
            "loaded = set(sys.modules) - before\n"
            "assert not loaded & {'numpy', 'dataclasses', 'typing'}, sorted(loaded)\n" % (argvs,)
        )
        src = str(Path(cornerjet.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr

    def test_a_closed_stdout_exits_one_without_a_traceback(self):
        # 720,067 bytes of witness, far more than a pipe buffers: the reader
        # takes 10 and closes the pipe while the CLI still writes.
        src = str(Path(cornerjet.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = ["pullback", "--order", "256", "--plot", "t^2*(3/2+t)", "x^2048*dx^2048"]
        with subprocess.Popen([sys.executable, "-m", "cornerjet", *argv], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.read(10) == b"status = S"
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=120) == 1
        assert "Traceback" not in err, err

    def test_gl_check_nonnegativity_failure_exits_two(self, capsys):
        assert run(["gl-check", "--f", "t", "--interval", "-1", "1"]) == 2
        assert "not nonnegative" in capsys.readouterr().out

    @pytest.mark.parametrize("interval", [["-3/4", "1"], ["-3/4", "-1/2"], ["-2", "-1/3"]])
    @pytest.mark.parametrize("form", ["text", "json"])
    def test_gl_check_reads_a_negative_fraction_as_a_value(self, capsys, interval, form):
        argv = ["gl-check", "--format", form, "--f", "t^2", "--interval"]
        spaced = [" " + a if a.startswith("-") else a for a in interval]
        assert run(argv + spaced) == 0
        expected = capsys.readouterr()
        assert run(argv + interval) == 0
        assert capsys.readouterr() == expected

    def test_gl_check_still_reads_a_dash_word_as_an_option(self, capsys):
        assert run(["gl-check", "--f", "t^2", "--interval", "-x", "1"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "usage error: argument --interval: expected 2 arguments\n")

    @pytest.mark.parametrize("tol", [["--tol", "nan"], ["--tol", "inf"], ["--tol", "-1"], ["--tol=-inf"]])
    def test_gl_check_rejects_bad_tolerance(self, capsys, tol):
        assert run(["gl-check", "--f", "t^2", *tol]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tolerance must be finite and nonnegative" in captured.err

    @pytest.mark.parametrize("text", ["0*dx^2", "x*dx^2 - x*dx^2"])
    def test_cancelled_tensor_is_a_two_tensor(self, capsys, text):
        assert run(["decompose", text]) == 0
        assert capsys.readouterr().out.rstrip("\n") == "c = 0\nregular = 0"
        assert run(["check-metric", text]) == 2
        captured = capsys.readouterr()
        assert "symmetric 2-tensor" not in captured.out + captured.err
        assert "clause = definiteness-nonzero-required" in captured.out

    def test_flat_plot_verdicts(self, capsys):
        assert run(["pullback", "--plot", "flat", "(1/x)*dx^2"]) == 0
        assert capsys.readouterr().out.rstrip() == "status = FlatSmooth"
        assert run(["pullback", "--plot", "flat", "(1/x^2)*dx^2"]) == 2
        assert capsys.readouterr().out.rstrip() == "status = FlatIndeterminate"

    @pytest.mark.parametrize("text", ["1/0*dx", "x/(x-x)*dx"])
    def test_division_by_zero_exits_one(self, capsys, text):
        assert run(["pullback", "--plot", "t^2", text]) == 1
        assert capsys.readouterr().err == "error: syntax error at 1:2: division by zero\n"

    @pytest.mark.parametrize("argv, message", [
        (["--interval", " -1", "1" + "0" * 400], "interval endpoint beyond the float range"),
        (["--f", "1" + "0" * 400 + "*t^2"], "coefficient beyond the float range"),
    ])
    def test_gl_check_refuses_values_beyond_the_float_range(self, capsys, argv, message):
        assert run(["gl-check", "--f", "t^2", *argv]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: %s\n" % message)

    def test_gl_check_json_is_strict_when_the_oracle_overflows(self, capsys):
        def refuse(name):
            raise ValueError("non-standard JSON constant %s" % name)

        argv = ["gl-check", "--f", "t^200", "--interval", " -1000", "1000", "--grid", "16"]
        assert run(argv) == 2
        assert capsys.readouterr().out == "C = inf\nmax_violation = nan\nfail\n"
        assert run(argv + ["--format", "json"]) == 2
        payload = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert (payload["C"], payload["max_violation"], payload["passed"]) == ("inf", "nan", False)
        # finite values stay JSON numbers
        assert run(["gl-check", "--format", "json", "--f", "t^2"]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert (payload["C"], payload["max_violation"]) == (2.0, 0.0)

    def test_order_comes_only_from_the_flag(self, capsys, monkeypatch):
        # the environment sets no order, not even a broken one
        argv = ["decompose", "--format", "json", "(1/x)*dx^2"]
        monkeypatch.delenv("CORNERJET_ORDER", raising=False)
        assert run(argv) == 0
        unset = capsys.readouterr().out
        assert json.loads(unset)["regular"]["order"] == 16
        for value in ("8", "abc", "-5", str(MAX_ORDER + 1)):
            monkeypatch.setenv("CORNERJET_ORDER", value)
            assert run(argv) == 0
            assert capsys.readouterr().out == unset
            assert run(["capacity", "4"]) == 0
            assert capsys.readouterr() == ("2\n", "")
            assert run(argv[:1] + ["--order", "4"] + argv[1:]) == 0
            assert json.loads(capsys.readouterr().out)["regular"]["order"] == 4

    @pytest.mark.parametrize("argv", [
        ["decompose", "(1/x + x)*dx^2"],
        ["pullback", "--plot", "t^2*(1+t)", "(1/x)*dx^2"],
        ["capacity", "4"],
        ["verify-capacity", "2", "1"],
        ["check-metric", "(1/x)*dx^2"],
        ["gl-check", "--f", "t^2"],
        ["parity", "x*y*dx*dy"],
    ], ids=lambda argv: argv[0])
    def test_global_options_before_the_subcommand(self, capsys, argv):
        def output(args):
            return run(args), capsys.readouterr()

        command, rest = argv[0], argv[1:]
        after = output([command, "--format", "json", "--order", "4", *rest])
        assert output(["--format", "json", "--order", "4", *argv]) == after
        # given on both sides, the value after the subcommand wins
        both = ["--format", "text", "--order", "8", command, "--format", "json", "--order", "4"]
        assert output(both + rest) == after
        if command in ("decompose", "pullback"):  # outputs that show the order
            assert output([command, "--format", "json", "--order", "8", *rest]) != after

    def test_decompose_witness_follows_the_order(self, capsys):
        # The capacity-exceeded witness is the pullback along t^2 at --order,
        # the same as check-metric reports.
        tensor = "(1/x^2 + 1/x + 3 + x^2)*dx^2"
        for command in ("decompose", "check-metric"):
            assert run([command, "--order", "4", tensor]) == 2
            assert capsys.readouterr().out == (
                "rejected: not a smooth tensor on the half-line: capacity exceeded\n"
                "status = Pole(2)\nwitness = 4*t^-2 + 4 + 12*t^2\n"
            )
            assert run([command, "--order", "4", "--format", "json", tensor]) == 2
            payload = json.loads(capsys.readouterr().out)
            assert payload["witness"]["witness"] == {
                "valuation": -2, "coeffs": ["4/1", "0/1", "4/1", "0/1", "12/1"],
            }
        # every window from 0 up is exact: 4 t^-2 + 0 t^-1 at order 1, and the
        # leading term alone at order 0
        for order, witness in (("2", "4*t^-2 + 4"), ("1", "4*t^-2"), ("0", "4*t^-2")):
            assert run(["decompose", "--order", order, tensor]) == 2
            assert capsys.readouterr().out.endswith("witness = %s\n" % witness)

    @pytest.mark.parametrize("command", ["decompose", "check-metric"])
    @pytest.mark.parametrize("order, code, out, err", [
        (order, 2, "rejected: not a smooth tensor on the half-line: capacity exceeded\n"
                   "status = Pole(2)\nwitness = 4*t^-2\n", "")
        for order in ("0", "1", "2")
    ])
    def test_capacity_witness_at_the_smallest_orders(self, capsys, command, order, code, out, err):
        # every window from 0 up is exact, and 4 t^-2 is all of this witness
        assert run([command, "--order", order, "(1/x^2)*dx^2"]) == code
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (out, err)

    @pytest.mark.parametrize("order", ["0", "1"])
    def test_cancelled_numerator_ends_at_the_shortest_orders(self, capsys, order):
        # W = 1 - (1 + t) vanishes at the first bound; a bound that does not
        # grow at order 0 would never return
        argv = ["--order", order, "pullback", "--plot", "interior(1; 1+t)", "(1-x)*dx"]
        with time_limit(1):
            assert run(argv) == 0
        assert capsys.readouterr().out == "status = Smooth\nwitness = -t\n"

    def test_capacity_cross_check_failure_exits_one(self, capsys, monkeypatch):
        # A margin that disagrees with the pullback valuation is an internal
        # inconsistency: it ends in a message and exit 1, not a traceback.
        # (``cornerjet.capacity`` is the function; the module comes from importlib.)
        capacity_module = importlib.import_module("cornerjet.capacity")
        pullback = capacity_module.pullback_halfline

        def shifted(tensor, plot, order):
            verdict = pullback(tensor, plot, order)
            w = verdict.witness
            return SmoothnessVerdict(verdict.status, witness=LaurentJet(w.valuation + 1, w.coeffs))

        monkeypatch.setattr(capacity_module, "pullback_halfline", shifted)
        assert run(["verify-capacity", "2", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: capacity margin 0 disagrees with pullback valuation 1 at k=2 p=1 m=1\n"
        )
        assert "Traceback" not in captured.err


    def test_long_literal_exits_one_with_column(self, capsys):
        # int() refuses more than 4,300 digits on CPython 3.10.7+ (and earlier
        # builds have no limit at all); the tokenizer refuses them first.
        assert run(["decompose", "x*dx^2 + 1" + "0" * 5000 + "*dx^2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: syntax error at 1:10: integer literal of 5001 digits exceeds the maximum 4300\n"
        )
        assert run(["decompose", "1" + "0" * 4299 + "*dx^2"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("limit", ["default", "off"])
    def test_interval_endpoint_is_capped_like_a_literal(self, capsys, limit):
        # the cap is the grammar's, not CPython's int-to-str limit: with that
        # limit off an endpoint of 20,000 digits is refused all the same
        saved = sys.get_int_max_str_digits()
        if limit == "off":
            sys.set_int_max_str_digits(0)
        try:
            for digits in (4301, 20000):
                argv = ["gl-check", "--f", "t^2", "--interval", "0", "1/" + "7" * digits]
                assert run(argv) == 1
                assert capsys.readouterr() == ("", "error: syntax error at 1:3: integer literal"
                                               " of %d digits exceeds the maximum 4300\n" % digits)
            assert run(["gl-check", "--f", "t^2", "--interval", "0", "1/" + "7" * 4300]) == 0
            assert capsys.readouterr().err == ""
        finally:
            sys.set_int_max_str_digits(saved)

    @pytest.mark.parametrize("argv, name, value", [
        (["capacity", "\u0664"], "k", "\u0664"),
        (["capacity", "1_0"], "k", "1_0"),
        (["capacity", "0x4"], "k", "0x4"),
        (["capacity", "4.0"], "k", "4.0"),
        (["capacity", "8/2"], "k", "8/2"),
        (["--order", "1_6", "capacity", "4"], "--order", "1_6"),
        (["capacity", "--order", "\uff11\uff16", "4"], "--order", "\uff11\uff16"),
        (["verify-capacity", "4", "\u0663"], "p", "\u0663"),
        (["verify-capacity", "4", "3", "--m-max", "6e0"], "--m-max", "6e0"),
        (["gl-check", "--f", "t^2", "--grid", "\u0661\u0660\u0662\u0664"], "--grid",
         "\u0661\u0660\u0662\u0664"),
    ])
    def test_integer_options_take_ascii_digits_only(self, capsys, argv, name, value):
        assert run(argv) == 1
        assert capsys.readouterr() == (
            "", "usage error: argument %s: invalid integer literal %r\n" % (name, value))

    def test_integer_options_take_a_sign_and_whitespace(self, capsys):
        assert run(["capacity", " +4 "]) == 0
        assert run(["--order", "\t16\n", "verify-capacity", "+4", " 2", "--m-max", "6 "]) == 0
        assert run(["gl-check", "--f", "t^2", "--grid", "+1024"]) == 0
        assert capsys.readouterr().err == ""
        assert run(["capacity", "-1"]) == 1
        assert capsys.readouterr() == ("", "error: tensor degree must be nonnegative\n")

    def test_integer_option_is_capped_like_a_literal(self, capsys):
        assert run(["capacity", "1" * 4301]) == 1
        assert capsys.readouterr() == ("", "usage error: argument k: syntax error at 1:1: integer"
                                       " literal of 4301 digits exceeds the maximum 4300\n")

    def test_internal_type_error_exits_one(self, capsys, monkeypatch):
        # An internal inconsistency that surfaces as a TypeError ends in a
        # message and exit 1, not a traceback.
        cli_module = importlib.import_module("cornerjet.cli")

        def broken(k):
            raise TypeError("unsupported operand type(s) for +: 'int' and 'NoneType'")

        monkeypatch.setattr(cli_module, "capacity", broken)
        assert run(["capacity", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unsupported operand type(s) for +: 'int' and 'NoneType'\n"


# The quadrant JSON, byte for byte: the parity report and the decomposition
# are encoded field by field, so a change of encoder shows here first.
JSON_SCENARIOS = [
    (["decompose", "--space", "quadrant", "--format", "json",
      "(y^2/x)*dx^2 + (1/y)*dy^2 + x*y*dx*dy"], 0, (
        '{"A": {"coeffs": ["0/1", "0/1", "1/1", "0/1", "0/1", "0/1", "0/1", "0/1", '
        '"0/1", "0/1", "0/1", "0/1", "0/1", "0/1", "0/1", "0/1", "0/1"], "order": 16}, '
        '"B": {"coeffs": ["1/1", "0/1", "0/1", "0/1", "0/1", "0/1", "0/1", "0/1", '
        '"0/1", "0/1", "0/1", "0/1", "0/1", "0/1", "0/1", "0/1", "0/1"], "order": 16}, '
        '"accepted": true, "command": "decompose", '
        '"parity": {"components": {"du*dv": {"expected": "odd-odd", '
        '"masses": {"even-even": 0, "even-odd": 0, "odd-even": 0, "odd-odd": 1}, '
        '"min_degrees": [3, 3], "ok": true, "sector_ok": true, "smooth": true}, '
        '"du^2": {"expected": "even-even", "masses": {"even-even": 1, "even-odd": 0, '
        '"odd-even": 0, "odd-odd": 0}, "min_degrees": [0, 4], "ok": true, '
        '"sector_ok": true, "smooth": true}, "dv^2": {"expected": "even-even", '
        '"masses": {"even-even": 1, "even-odd": 0, "odd-even": 0, "odd-odd": 0}, '
        '"min_degrees": [0, 0], "ok": true, "sector_ok": true, "smooth": true}}, '
        '"rule_holds": true}, "regular": {"dx*dy": {"terms": [{"c": "1/1", "x": 1, '
        '"y": 1}]}, "dx^2": {"terms": []}, "dy^2": {"terms": []}}, '
        '"space": "quadrant"}'
    )),
    (["parity", "--format", "json", "x*y*dx*dy"], 0, (
        '{"command": "parity", "components": {"du*dv": {"expected": "odd-odd", '
        '"masses": {"even-even": 0, "even-odd": 0, "odd-even": 0, "odd-odd": 1}, '
        '"min_degrees": [3, 3], "ok": true, "sector_ok": true, "smooth": true}, '
        '"du^2": {"expected": "even-even", "masses": {"even-even": 0, "even-odd": 0, '
        '"odd-even": 0, "odd-odd": 0}, "min_degrees": null, "ok": true, '
        '"sector_ok": true, "smooth": true}, "dv^2": {"expected": "even-even", '
        '"masses": {"even-even": 0, "even-odd": 0, "odd-even": 0, "odd-odd": 0}, '
        '"min_degrees": null, "ok": true, "sector_ok": true, "smooth": true}}, '
        '"rule_holds": true}'
    )),
    (["parity", "--format", "json", "(1/x)*dx*dy"], 2, (
        '{"command": "parity", "components": {"du*dv": {"expected": "odd-odd", '
        '"masses": {"even-even": 0, "even-odd": 0, "odd-even": 0, "odd-odd": 1}, '
        '"min_degrees": [-1, 1], "ok": false, "sector_ok": true, "smooth": false}, '
        '"du^2": {"expected": "even-even", "masses": {"even-even": 0, "even-odd": 0, '
        '"odd-even": 0, "odd-odd": 0}, "min_degrees": null, "ok": true, '
        '"sector_ok": true, "smooth": true}, "dv^2": {"expected": "even-even", '
        '"masses": {"even-even": 0, "even-odd": 0, "odd-even": 0, "odd-odd": 0}, '
        '"min_degrees": null, "ok": true, "sector_ok": true, "smooth": true}}, '
        '"rule_holds": false}'
    )),
    (["decompose", "--space", "quadrant", "--format", "json", "(1/x)*dx*dy"], 2, (
        '{"accepted": false, "command": "decompose", '
        '"error": "singular cross term: violates odd-odd parity", '
        '"parity": {"components": {"du*dv": {"expected": "odd-odd", '
        '"masses": {"even-even": 0, "even-odd": 0, "odd-even": 0, "odd-odd": 1}, '
        '"min_degrees": [-1, 1], "ok": false, "sector_ok": true, "smooth": false}, '
        '"du^2": {"expected": "even-even", "masses": {"even-even": 0, "even-odd": 0, '
        '"odd-even": 0, "odd-odd": 0}, "min_degrees": null, "ok": true, '
        '"sector_ok": true, "smooth": true}, "dv^2": {"expected": "even-even", '
        '"masses": {"even-even": 0, "even-odd": 0, "odd-even": 0, "odd-odd": 0}, '
        '"min_degrees": null, "ok": true, "sector_ok": true, "smooth": true}}, '
        '"rule_holds": false}, "space": "quadrant"}'
    )),
]


class TestJsonRoundTrip:
    def test_fraction_encoding(self):
        assert fraction_str(F(-7, 3)) == "-7/3"
        assert fraction_from_str(fraction_str(F(4))) == 4

    @pytest.mark.parametrize("argv, code, expected", JSON_SCENARIOS)
    def test_pinned_bytes(self, capsys, argv, code, expected):
        assert run(argv) == code
        assert capsys.readouterr().out == expected + "\n"

    def test_decompose_payload_round_trips(self, capsys):
        argv = ["decompose", "--format", "json", "(1/x + 3 + x)*dx^2"]
        assert run(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        tensor = parse_tensor("(1/x + 3 + x)*dx^2", "halfline")
        direct = decompose_halfline(tensor, order=16)
        assert fraction_from_str(payload["c"]) == direct.c
        assert jet1_from_json(payload["regular"]) == direct.regular
        assert jet1_from_json(payload["trace"]["g"]) == direct.trace.g
        assert jet1_from_json(payload["trace"]["h"]) == direct.trace.h

    def test_pullback_payload_round_trips(self, capsys):
        argv = ["pullback", "--format", "json", "--plot", "t^2", "(1/x^2)*dx^2"]
        assert run(argv) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "pole"
        assert payload["pole_order"] == 2
        assert laurent_from_json(payload["witness"]) == LaurentJet(-2, [4])

    def test_quadrant_payload_round_trips(self, capsys):
        expr = "(y^2/x)*dx^2 + (1/y)*dy^2 + x*y*dx*dy"
        assert run(["decompose", "--space", "quadrant", "--format", "json", expr]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert laurent2_from_json(payload["regular"]["dx*dy"]) == LaurentJet2({(1, 1): 1})
        assert payload["parity"]["rule_holds"] is True
        assert set(payload["regular"]) == {"dx^2", "dy^2", "dx*dy"}
        assert set(payload["parity"]["components"]) == {"du^2", "dv^2", "du*dv"}

    @settings(max_examples=50, deadline=None)
    @given(laurent2s(-1, 3, 4), laurent2s(-1, 3, 4), laurent2s(-1, 3, 4))
    def test_quadrant_payloads_decode_to_the_records(self, a, b, c):
        import contextlib
        import io

        tensor = make_quadrant_tensor(a, b, c)
        text = format_quadrant_tensor(tensor)
        payloads = {}
        for argv in (["parity"], ["decompose", "--space", "quadrant"]):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = run(argv + ["--format", "json", "--", text])
            payloads[argv[0]] = code, json.loads(buffer.getvalue())
        report = check_gamma_parity(tensor)
        code, payload = payloads["parity"]
        assert code == (0 if report.rule_holds else 2)
        assert parity_from_json(payload) == report
        code, payload = payloads["decompose"]
        assert parity_from_json(payload["parity"]) == report
        assert payload["accepted"] is report.rule_holds
        if report.rule_holds:
            direct = decompose_quadrant(tensor, order=16)
            assert code == 0
            assert jet1_from_json(payload["A"]) == direct.A
            assert jet1_from_json(payload["B"]) == direct.B
            assert quadrant_from_json(payload["regular"]) == direct.regular
        else:
            assert code == 2

    @pytest.mark.parametrize("argv, code, keys", [
        (["pullback", "--plot", "t^2", "(1/x^2)*dx^2"], 2, {
            (): {"command", "plot", "status", "pole_order", "witness", "vanishing_order"},
            ("witness",): {"valuation", "coeffs"},
        }),
        (["decompose", "(1/x + 3 + x)*dx^2"], 0, {
            (): {"command", "space", "accepted", "c", "regular", "trace"},
            ("regular",): {"order", "coeffs"},
            ("trace",): {"g", "h"},
            ("trace", "g"): {"order", "coeffs"},
            ("trace", "h"): {"order", "coeffs"},
        }),
        (["verify-capacity", "2", "1"], 0, {
            (): {"command", "k", "p", "m_max", "margins", "binding_m", "admissible"},
        }),
        (["check-metric", "(x^2 + 1)*dx^2"], 0, {
            (): {"command", "accepted", "witness"},
        }),
        (["check-metric", "(x - 1)*dx^2"], 2, {
            (): {"command", "accepted", "witness"},
            ("witness",): {"plot", "value", "leading", "clause"},
        }),
        (["gl-check", "--f", "t^2"], 0, {
            (): {"command", "C", "max_violation", "tol", "passed"},
        }),
        (["capacity", "4"], 0, {
            (): {"command", "k", "capacity"},
        }),
        (["parity", "x*y*dx*dy"], 0, {
            (): {"command", "components", "rule_holds"},
            ("components",): {"du^2", "dv^2", "du*dv"},
            ("components", "du*dv"): {
                "expected", "masses", "min_degrees", "sector_ok", "smooth", "ok"},
        }),
        (["decompose", "--space", "quadrant", "(y^2/x)*dx^2 + x*y*dx*dy"], 0, {
            (): {"command", "space", "accepted", "A", "B", "regular", "parity"},
            ("A",): {"order", "coeffs"},
            ("B",): {"order", "coeffs"},
            ("regular",): {"dx^2", "dy^2", "dx*dy"},
            ("regular", "dx^2"): {"terms"},
            ("regular", "dy^2"): {"terms"},
            ("regular", "dx*dy"): {"terms"},
            ("parity",): {"components", "rule_holds"},
            ("parity", "components"): {"du^2", "dv^2", "du*dv"},
            ("parity", "components", "du^2"): {
                "expected", "masses", "min_degrees", "sector_ok", "smooth", "ok"},
            ("parity", "components", "dv^2"): {
                "expected", "masses", "min_degrees", "sector_ok", "smooth", "ok"},
            ("parity", "components", "du*dv"): {
                "expected", "masses", "min_degrees", "sector_ok", "smooth", "ok"},
        }),
    ], ids=["pullback", "decompose", "verify-capacity", "check-metric-accepted",
            "check-metric-rejected", "gl-check", "capacity", "parity", "decompose-quadrant"])
    def test_success_payload_keys(self, capsys, argv, code, keys):
        # The key set of every payload and of the objects nested in it: a new
        # result-record field fails a row here, not a silent schema change.
        assert run(argv[:1] + ["--format", "json"] + argv[1:]) == code
        payload = json.loads(capsys.readouterr().out)
        for path, expected in keys.items():
            node = payload
            for key in path:
                node = node[key]
            assert set(node) == expected, path

    @pytest.mark.parametrize("argv, keys", [
        (["decompose", "(1/x^2)*dx^2"], {"command", "accepted", "error", "space", "witness"}),
        (["decompose", "--space", "quadrant", "(1/x)*dx*dy"],
         {"command", "accepted", "error", "space", "parity"}),
        (["check-metric", "(1/x^2)*dx^2"], {"command", "accepted", "error", "witness"}),
    ])
    def test_rejection_payloads(self, capsys, argv, keys):
        assert run(argv[:1] + ["--format", "json"] + argv[1:]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == keys
        assert payload["command"] == argv[0] and payload["accepted"] is False

    def test_metric_payload(self, capsys):
        assert run(["check-metric", "--format", "json", "(1/x)*dx^2"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["accepted"] is False
        assert payload["witness"]["plot"] == "t^2"
        assert fraction_from_str(payload["witness"]["value"]) == 4

    def test_gl_payload(self, capsys):
        assert run(["gl-check", "--format", "json", "--f", "t^2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True and payload["C"] == 2.0

    @settings(max_examples=50)
    @given(halfline_tensors)
    def test_stable_double_encode(self, tensor):
        import contextlib
        import io

        # "--" ends option parsing: expressions may start with a minus sign
        argv = ["pullback", "--format", "json", "--plot", "t^2", "--",
                format_halfline_tensor(tensor)]
        outputs = []
        for _ in range(2):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                run(argv)
            outputs.append(buffer.getvalue())
        assert outputs[0] == outputs[1]
        json.loads(outputs[0])
