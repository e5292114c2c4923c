"""The integer convolution kernel and the truncated products of the pullback
against a schoolbook Fraction product."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cornerjet import LaurentJet
from cornerjet.jets import Jet1, _convolve
from cornerjet.pullback import _mul_through, _powers

from conftest import rationals
from oracles import schoolbook_product

# Zeros between nonzero coefficients, small and large denominators side by side.
coefficients = st.one_of(
    st.just(F(0)),
    rationals,
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
)


@st.composite
def laurents(draw, max_len=8):
    valuation = draw(st.integers(-8, 8))
    coeffs = draw(st.lists(coefficients, max_size=max_len))
    return LaurentJet(valuation, coeffs)


@st.composite
def windowed(draw):
    """(jet, top): exact (top None) or known through ``top``, below, inside or above the jet."""
    jet = draw(laurents())
    if draw(st.booleans()):
        return jet, None
    lo = jet.valuation
    hi = lo if jet.is_zero else jet.degree
    top = draw(st.integers(lo - 4, hi + 4))
    return jet.truncated(top), top


def _terms(jet: LaurentJet) -> dict:
    return dict((d, c) for d, c in jet.terms())


def _val_lb(jet, top):
    if not jet.is_zero:
        return jet.valuation
    return 0 if top is None else top + 1


@settings(max_examples=150, deadline=None)
@given(st.lists(coefficients, min_size=1, max_size=12), st.lists(coefficients, min_size=1, max_size=12))
def test_jet1_product_matches_schoolbook(a, b):
    product = Jet1(a) * Jet1(b)
    full = schoolbook_product(dict(enumerate(a)), dict(enumerate(b)))
    n = min(len(a), len(b))
    assert product.coeffs == tuple(full.get(d, F(0)) for d in range(n))
    assert all(type(c) is F for c in product.coeffs)


@settings(max_examples=150, deadline=None)
@given(laurents(), laurents())
def test_laurent_product_matches_schoolbook(a, b):
    product = a * b
    assert _terms(product) == schoolbook_product(_terms(a), _terms(b))
    if not product.is_zero:
        assert product.coeffs[0] != 0 and product.coeffs[-1] != 0


def _window_top(a, b):
    """The highest degree on which the product of two windowed operands is known."""
    (ja, ta), (jb, tb) = a, b
    tops = [t + _val_lb(j, tt) for t, (j, tt) in ((ta, b), (tb, a)) if t is not None]
    return min(tops) if tops else None


@settings(max_examples=200, deadline=None)
@given(windowed(), windowed(), st.lists(coefficients, min_size=3, max_size=3),
       st.lists(coefficients, min_size=3, max_size=3), st.integers(-20, 20))
def test_windowed_product_matches_schoolbook(a, b, tail_a, tail_b, exact_top):
    (ja, ta), (jb, tb) = a, b
    top = _window_top(a, b)
    if top is None:
        top = exact_top
    product = _mul_through(ja, jb, top)
    full = schoolbook_product(_terms(ja), _terms(jb))
    assert _terms(product) == {d: c for d, c in full.items() if d <= top}
    # Whatever a windowed operand holds beyond its top cannot reach the result.
    extended = []
    for (j, t), tail in ((a, tail_a), (b, tail_b)):
        terms = _terms(j)
        if t is not None:
            terms.update((t + 1 + i, c) for i, c in enumerate(tail))
        extended.append(terms)
    true = schoolbook_product(*extended)
    assert {d: c for d, c in true.items() if d <= top} == _terms(product)


@pytest.mark.parametrize(
    "a, b, expected_top",
    [
        ((LaurentJet(), 5), (LaurentJet(-2, [1, 3]), None), 3),
        ((LaurentJet(), 4), (LaurentJet(), 6), 11),
        ((LaurentJet(), 4), (LaurentJet(1, [F(1, 3)]), 9), 5),
    ],
)
def test_windowed_zero_operand(a, b, expected_top):
    assert _window_top(a, b) == _window_top(b, a) == expected_top
    assert _mul_through(a[0], b[0], expected_top) == LaurentJet()
    assert _mul_through(b[0], a[0], expected_top) == LaurentJet()


@pytest.mark.parametrize("other", [(LaurentJet(-3, [1, 2]), None), (LaurentJet(), 7), (LaurentJet(2, [5]), 4)])
def test_exact_zero_operand(other):
    for top in (-5, 0, 9):
        assert _mul_through(LaurentJet(), other[0], top) == LaurentJet()
        assert _mul_through(other[0], LaurentJet(), top) == LaurentJet()


@settings(max_examples=100, deadline=None)
@given(laurents(max_len=5), st.sets(st.integers(0, 6), min_size=1), st.integers(0, 12))
def test_powers_keep_their_window(base, exponents, keep):
    if base.is_zero:
        base = LaurentJet(base.valuation, [1])
    powers = _powers(base, exponents, keep)
    assert set(powers) == exponents
    for e, power in powers.items():
        exact = {0: F(1)}
        for _ in range(e):
            exact = schoolbook_product(exact, _terms(base))
        val = e * base.valuation
        assert _terms(power) == {d: c for d, c in exact.items() if d <= val + keep}


@settings(max_examples=60, deadline=None)
@given(laurents(max_len=3), st.sets(st.integers(0, 70), min_size=1, max_size=3), st.integers(0, 5))
def test_powers_by_squaring_match_repeated_products(base, exponents, keep):
    # Gaps up to 70 between exponents: reached by squaring, checked against
    # one schoolbook product per unit of the exponent, each cut to the window.
    if base.is_zero:
        base = LaurentJet(base.valuation, [1])
    powers = _powers(base, exponents, keep)
    chain = {0: F(1)}
    for e in range(max(exponents) + 1):
        if e in exponents:
            assert _terms(powers[e]) == chain
        top = (e + 1) * base.valuation + keep
        chain = {d: c for d, c in schoolbook_product(chain, _terms(base)).items() if d <= top}


def test_kernel_stops_at_the_requested_degree():
    a, b = [F(1, 2), F(0), F(-3, 4)], [F(2, 3), F(5)]
    assert _convolve(a, b, 0) == []
    assert _convolve(a, b, 2) == [F(1, 3), F(5, 2)]
    assert _convolve(a, b, 99) == [F(1, 3), F(5, 2), F(-1, 2), F(-15, 4)]
