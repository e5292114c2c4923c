"""Shared hypothesis strategies for exact jets and tensors."""

from fractions import Fraction

import hypothesis.strategies as st

from cornerjet import LaurentJet
from cornerjet.jets import Jet1, LaurentJet2

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
nonzero_rationals = rationals.filter(lambda q: q != 0)


@st.composite
def jet1s(draw, min_order=0, max_order=8):
    order = draw(st.integers(min_order, max_order))
    coeffs = draw(
        st.lists(rationals, min_size=order + 1, max_size=order + 1)
    )
    return Jet1(coeffs)


@st.composite
def nonzero_jet1s(draw, min_order=0, max_order=8):
    jet = draw(jet1s(min_order, max_order))
    if jet.is_zero:
        index = draw(st.integers(0, jet.order))
        value = draw(nonzero_rationals)
        coeffs = list(jet.coeffs)
        coeffs[index] = value
        jet = Jet1(coeffs)
    return jet


@st.composite
def unit_jet1s(draw, max_order=4):
    """Jets with positive constant term, usable as boundary-plot units."""
    jet = draw(jet1s(0, max_order))
    head = draw(st.fractions(min_value=Fraction(1, 4), max_value=8, max_denominator=12))
    return Jet1((head,) + jet.coeffs[1:])


@st.composite
def laurent_jets(draw, min_valuation=-3, max_degree=6):
    lo = draw(st.integers(min_valuation, max_degree))
    length = draw(st.integers(1, max_degree - lo + 1))
    coeffs = draw(st.lists(rationals, min_size=length, max_size=length))
    return LaurentJet(lo, coeffs)


@st.composite
def nonzero_laurent_jets(draw, min_valuation=-3, max_degree=6):
    jet = draw(laurent_jets(min_valuation, max_degree))
    if jet.is_zero:
        jet = LaurentJet(draw(st.integers(min_valuation, max_degree)),
                         (draw(nonzero_rationals),))
    return jet


@st.composite
def laurent2s(draw, min_valuation=-2, max_degree=4, max_terms=8):
    n_terms = draw(st.integers(0, max_terms))
    exps = st.integers(min_valuation, max_degree)
    terms = {}
    for _ in range(n_terms):
        terms[(draw(exps), draw(exps))] = draw(rationals)
    return LaurentJet2(terms)


@st.composite
def polynomial_laurent2s(draw, max_degree=4, max_terms=8):
    n_terms = draw(st.integers(0, max_terms))
    exps = st.integers(0, max_degree)
    terms = {}
    for _ in range(n_terms):
        terms[(draw(exps), draw(exps))] = draw(rationals)
    return LaurentJet2(terms)
