"""Shared hypothesis strategies for exact jets and tensors, and a time limit."""

import contextlib
import signal
from fractions import Fraction

import hypothesis.strategies as st

from cornerjet import LaurentJet
from cornerjet.jets import Jet1, LaurentJet2
from cornerjet.tensors import QUADRANT_BASIS, QuadrantTensor

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


@st.composite
def quadrant_components(draw, lo):
    """A LaurentJet2 of up to 5 terms with exponents from ``lo`` to 3."""
    exps = st.tuples(st.integers(lo[0], 3), st.integers(lo[1], 3))
    return LaurentJet2(draw(st.dictionaries(exps, nonzero_rationals, max_size=5)))


@st.composite
def quadrant_tensors(draw):
    """Poles down to x^-2 y^-2; half the draws keep each component within the
    poles it admits, so that both verdicts occur often."""
    if draw(st.booleans()):
        bounds = [(-(p // 2), -(q // 2)) for p, q in QUADRANT_BASIS]
    else:
        bounds = [(-2, -2)] * len(QUADRANT_BASIS)
    return QuadrantTensor({
        basis: draw(quadrant_components(lo)) for basis, lo in zip(QUADRANT_BASIS, bounds)})


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise ``TimeoutError`` in the main thread if the block runs past ``seconds``.

    A hang then fails its test instead of holding the whole run.
    """
    def expire(signum, frame):
        raise TimeoutError("no answer within %g s" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
