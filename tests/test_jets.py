from fractions import Fraction as F

import pytest
from hypothesis import given

from cornerjet import (
    Jet1,
    LaurentJet,
    LaurentJet2,
    TruncationError,
    differentiate,
    laurent_divide,
    parity_masses,
    whitney_descend,
)

from conftest import jet1s, laurent_jets, laurent2s, nonzero_laurent_jets
from oracles import compose


def naive_compose(outer: Jet1, inner: Jet1) -> Jet1:
    """Independent oracle: accumulate outer_k * inner^k by repeated products."""
    n = inner.order
    total = Jet1.zero(n)
    power = Jet1.constant(1, n)
    for c in outer.coeffs:
        total = total + power * c
        power = power * inner
    return total


class TestCompose:
    def test_linear_outer(self):
        outer = Jet1([1, 1])
        inner = Jet1([0, 0, 1, 0, 0])  # t^2 at order 4
        assert compose(outer, inner) == Jet1([1, 0, 1, 0, 0])

    def test_monomial_case(self):
        outer = Jet1([0, 0, 1])
        inner = Jet1([0, 2, 0, 0])  # 2t at order 3
        assert compose(outer, inner) == Jet1([0, 0, 4, 0])

    def test_exponential_prefix_in_t_squared(self):
        outer = Jet1([1, 1, F(1, 2), F(1, 6)])
        inner = Jet1([0, 0, 1, 0, 0, 0, 0])  # t^2 at order 6
        expected = Jet1([1, 0, 1, 0, F(1, 2), 0, F(1, 6)])
        assert compose(outer, inner) == expected
        assert naive_compose(outer, inner) == expected

    def test_requires_vanishing_constant_term(self):
        with pytest.raises(ValueError, match="vanishing constant term"):
            compose(Jet1([1, 1]), Jet1([1, 1]))

    @given(jet1s(max_order=5), jet1s(min_order=1, max_order=5))
    def test_matches_naive_oracle(self, outer, inner):
        inner = Jet1((F(0),) + inner.coeffs[1:])
        assert compose(outer, inner) == naive_compose(outer, inner)


class TestDifferentiate:
    def test_square(self):
        assert differentiate(Jet1([0, 0, 1])) == Jet1([0, 2])

    def test_quadratic(self):
        assert differentiate(Jet1([1, 3, 5])) == Jet1([3, 10])

    def test_sine_prefix(self):
        jet = Jet1([0, 1, 0, F(-1, 6), 0, F(1, 120)])
        assert differentiate(jet) == Jet1([1, 0, F(-1, 2), 0, F(1, 24)])

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError, match="order-0"):
            differentiate(Jet1([7]))

    @given(jet1s(min_order=1, max_order=6))
    def test_shift_oracle(self, jet):
        derived = differentiate(jet)
        assert derived.order == jet.order - 1
        for i in range(derived.order + 1):
            assert derived.coeffs[i] == (i + 1) * jet.coeffs[i + 1]


class TestLaurentDivide:
    def test_simple_pole_cancellation(self):
        num = LaurentJet(2, [4])
        den = LaurentJet(2, [1])
        assert laurent_divide(num, den) == LaurentJet(0, [4])

    def test_positive_valuation(self):
        assert laurent_divide(LaurentJet(6, [16]), LaurentJet(4, [1])) == LaurentJet(2, [16])

    def test_negative_valuation(self):
        assert laurent_divide(LaurentJet(2, [4]), LaurentJet(4, [1])) == LaurentJet(-2, [4])

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            laurent_divide(LaurentJet(0, [1]), LaurentJet())

    def test_nonterminating_quotient_window(self):
        # 1 / (1 - t) to five coefficients
        q = laurent_divide(LaurentJet(0, [1]), LaurentJet(0, [1, -1]), terms=5)
        assert q == LaurentJet(0, [1, 1, 1, 1, 1])

    @given(nonzero_laurent_jets(), nonzero_laurent_jets())
    def test_multiply_back(self, a, b):
        assert laurent_divide(a * b, b) == a


class TestWhitneyDescend:
    def test_reindexing(self):
        assert whitney_descend(Jet1([0, 0, 4])) == Jet1([0, 4])

    def test_two_terms(self):
        assert whitney_descend(Jet1([0, 0, 2, 0, 1])) == Jet1([0, 2, 1])

    def test_odd_jet_rejected(self):
        with pytest.raises(ValueError, match="degree 3"):
            whitney_descend(Jet1([0, 0, 0, 1]))

    @given(jet1s(min_order=1, max_order=6))
    def test_round_trip_through_square(self, h):
        square = Jet1([0, 0, 1]).extended(2 * h.order)
        assert whitney_descend(compose(h, square)) == h

    def test_round_trip_order_zero(self):
        h = Jet1([5])
        assert whitney_descend(compose(h, Jet1([0]))) == h


class TestParityDecompose2:
    """The parity split of a two-variable jet, read through ``parity_masses``."""

    def test_even_even_only(self):
        assert parity_masses(LaurentJet2({(2, 2): 1})) == {
            "even-even": 1, "even-odd": 0, "odd-even": 0, "odd-odd": 0,
        }

    def test_odd_odd_only(self):
        assert parity_masses(LaurentJet2({(1, 1): 1})) == {
            "even-even": 0, "even-odd": 0, "odd-even": 0, "odd-odd": 1,
        }

    def test_mixed_split(self):
        j = LaurentJet2({(2, 0): 1, (1, 1): 1, (0, 3): 1})
        assert parity_masses(j) == {
            "even-even": 1, "even-odd": 1, "odd-even": 0, "odd-odd": 1,
        }

    @given(laurent2s(min_valuation=-3, max_degree=5))
    def test_parts_sum_and_are_disjoint(self, j):
        masses = parity_masses(j)
        terms = list(j.terms())
        assert sum(masses.values()) == len(terms)
        parity = ("even", "odd")
        for p in (0, 1):
            for q in (0, 1):
                part = j.restrict(lambda i, jj: i % 2 == p and jj % 2 == q)
                assert masses["%s-%s" % (parity[p], parity[q])] == len(list(part.terms()))


class TestRingLaws:
    @given(jet1s(max_order=5), jet1s(max_order=5), jet1s(max_order=5))
    def test_jet1_laws(self, a, b, c):
        n = min(a.order, b.order, c.order)
        a, b, c = a.truncated(n), b.truncated(n), c.truncated(n)
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(laurent_jets(), laurent_jets(), laurent_jets())
    def test_laurent_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(jet1s(min_order=1, max_order=5), jet1s(min_order=1, max_order=5))
    def test_leibniz(self, a, b):
        n = min(a.order, b.order)
        a, b = a.truncated(n), b.truncated(n)
        assert differentiate(a * b) == differentiate(a) * b + a * differentiate(b)


class TestCanonicalForms:
    def test_laurent_strips_leading_and_trailing_zeros(self):
        assert LaurentJet(-2, [0, 1, 0]) == LaurentJet(-1, [1])

    def test_zero_jet_is_canonical(self):
        jet = LaurentJet(5, [0, 0])
        assert jet.valuation == 0 and jet.coeffs == ()
        assert jet == LaurentJet()

    def test_no_float_coefficients(self):
        with pytest.raises(TypeError, match="floating-point"):
            Jet1([0.5])
        with pytest.raises(TypeError, match="floating-point"):
            LaurentJet(0, [1.0])

    def test_coefficient_lookup(self):
        jet = LaurentJet(-1, [1, 0, 3])
        assert jet.coefficient(-1) == 1
        assert jet.coefficient(0) == 0
        assert jet.coefficient(1) == 3
        assert jet.coefficient(-5) == 0

    def test_jet1_truncation_guard(self):
        with pytest.raises(TruncationError):
            Jet1([1, 2]).coefficient(5)

    def test_substitute_square(self):
        assert LaurentJet(-1, [1, 3, 1]).substitute_square() == LaurentJet(-2, [1, 0, 3, 0, 1])

    @given(laurent_jets())
    def test_shift_round_trip(self, jet):
        assert jet.shifted(3).shifted(-3) == jet


class TestLaurentJet2:
    def test_tight_valuations(self):
        j = LaurentJet2({(-1, 2): 1, (0, -1): 2})
        assert j.valuations == (-1, -1)
        assert j.coefficient(-1, 2) == 1
        assert j.coefficient(5, 5) == 0

    def test_zero_coefficients_dropped(self):
        assert LaurentJet2({(1, 1): 0}) == LaurentJet2()
        assert LaurentJet2({(1, 1): 0}).is_zero

    def test_double_and_halve(self):
        j = LaurentJet2({(-1, 2): 3})
        assert j.double_degrees() == LaurentJet2({(-2, 4): 3})
        assert j.double_degrees().halve_degrees() == j

    def test_halve_rejects_odd(self):
        with pytest.raises(ValueError, match="not even-even"):
            LaurentJet2({(1, 2): 1}).halve_degrees()

    def test_slices(self):
        j = LaurentJet2({(-1, 0): 2, (-1, 2): 5, (3, 1): 7})
        assert j.slice_x(-1) == LaurentJet(0, [2, 0, 5])
        assert j.slice_y(1) == LaurentJet(3, [7])
        assert j.slice_x(10).is_zero

    @given(laurent2s(), laurent2s())
    def test_product_matches_pointwise_convolution(self, a, b):
        prod = a * b
        for i, j, c in prod.terms():
            acc = F(0)
            for i1, j1, c1 in a.terms():
                acc += c1 * b.coefficient(i - i1, j - j1)
            assert acc == c

    def test_parity_masses(self):
        j = LaurentJet2({(-1, 1): 1, (0, 0): 2, (2, 4): 3, (1, 0): 4})
        assert parity_masses(j) == {
            "even-even": 2,
            "even-odd": 0,
            "odd-even": 1,
            "odd-odd": 1,
        }
