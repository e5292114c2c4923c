from fractions import Fraction as F

import pytest
from hypothesis import given

from cornerjet import LaurentJet
from cornerjet.jets import Jet1, LaurentJet2, laurent_divide, parity_masses, whitney_descend
from cornerjet.pullback import _derivative, _mul_through

from conftest import jet1s, laurent_jets, laurent2s, nonzero_laurent_jets
from oracles import compose, schoolbook_product


def times(a: LaurentJet, b: LaurentJet) -> LaurentJet:
    """The full product a * b, by the pullback's truncated product."""
    return _mul_through(a, b, (a.degree or 0) + (b.degree or 0))


def naive_compose(outer, inner, order: int) -> dict:
    """Independent oracle: accumulate outer_k * inner^k by repeated products."""
    total: dict = {}
    power = {0: F(1)}
    for k in range(max(outer, default=0) + 1):
        for e, c in power.items():
            if e <= order:
                total[e] = total.get(e, F(0)) + outer.get(k, 0) * c
        power = schoolbook_product(power, inner)
    return {e: c for e, c in total.items() if c != 0}


class TestCompose:
    def test_linear_outer(self):
        # 1 + x along x = t^2, through t^4
        assert compose({0: 1, 1: 1}, {2: 1}, 4) == {0: 1, 2: 1}

    def test_monomial_case(self):
        # x^2 along x = 2t, through t^3
        assert compose({2: 1}, {1: 2}, 3) == {2: 4}

    def test_exponential_prefix_in_t_squared(self):
        outer = {0: 1, 1: 1, 2: F(1, 2), 3: F(1, 6)}
        expected = {0: 1, 2: 1, 4: F(1, 2), 6: F(1, 6)}
        assert compose(outer, {2: 1}, 6) == expected
        assert naive_compose(outer, {2: 1}, 6) == expected

    def test_requires_vanishing_constant_term(self):
        with pytest.raises(ValueError, match="vanishing constant term"):
            compose({0: 1, 1: 1}, {0: 1, 1: 1}, 1)

    @given(jet1s(max_order=5), jet1s(min_order=1, max_order=5))
    def test_matches_naive_oracle(self, outer, inner):
        outer = dict(enumerate(outer.coeffs))
        order, inner = inner.order, dict(enumerate(inner.coeffs))
        inner[0] = F(0)
        assert compose(outer, inner, order) == naive_compose(outer, inner, order)


class TestDifferentiate:
    """The curve derivative of the pullback, on the polynomials it is given."""

    def test_square(self):
        assert _derivative(LaurentJet(0, [0, 0, 1])) == LaurentJet(1, [2])

    def test_quadratic(self):
        assert _derivative(LaurentJet(0, [1, 3, 5])) == LaurentJet(0, [3, 10])

    def test_sine_prefix(self):
        jet = LaurentJet(0, [0, 1, 0, F(-1, 6), 0, F(1, 120)])
        assert _derivative(jet) == LaurentJet(0, [1, 0, F(-1, 2), 0, F(1, 24)])

    def test_constant_has_zero_derivative(self):
        assert _derivative(LaurentJet(0, [7])).is_zero

    @given(laurent_jets())
    def test_shift_oracle(self, jet):
        derived = _derivative(jet)
        for d in range(jet.valuation - 1, jet.valuation + len(jet.coeffs) + 1):
            assert derived.coefficient(d - 1) == d * jet.coefficient(d)


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
        assert laurent_divide(times(a, b), b) == a


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
        n = 2 * h.order
        g = compose(dict(enumerate(h.coeffs)), {2: 1}, n)
        assert whitney_descend(Jet1([g.get(d, 0) for d in range(n + 1)])) == h

    def test_round_trip_order_zero(self):
        g = compose({0: 5}, {}, 0)
        assert whitney_descend(Jet1([g.get(0, 0)])) == Jet1([5])


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
    @given(laurent_jets(), laurent_jets(), laurent_jets())
    def test_laurent_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert times(a, b) == times(b, a)
        assert times(a, b + c) == times(a, b) + times(a, c)

    @given(laurent_jets(), laurent_jets())
    def test_leibniz(self, a, b):
        assert _derivative(times(a, b)) == times(_derivative(a), b) + times(a, _derivative(b))

    @pytest.mark.parametrize(
        "jet", [Jet1([1, F(1, 2)]), LaurentJet(-1, [2, 3]), LaurentJet2({(-1, 2): 3})]
    )
    def test_star_only_scales(self, jet):
        assert jet * 2 == 2 * jet == jet * F(2)
        with pytest.raises(TypeError):
            jet * jet
        with pytest.raises(TypeError):
            jet ** 2


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

    def test_substitute_square(self):
        assert LaurentJet(-1, [1, 3, 1]).substitute_square() == LaurentJet(-2, [1, 0, 3, 0, 1])

    @given(laurent_jets())
    def test_shift_round_trip(self, jet):
        assert jet.shifted(3).shifted(-3) == jet


class TestLaurentJet2:
    def test_tight_valuations(self):
        j = LaurentJet2({(-1, 2): 1, (0, -1): 2})
        assert j.valuations == (-1, -1)
        assert list(j.terms()) == [(-1, 2, 1), (0, -1, 2)]

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

    def test_parity_masses(self):
        j = LaurentJet2({(-1, 1): 1, (0, 0): 2, (2, 4): 3, (1, 0): 4})
        assert parity_masses(j) == {
            "even-even": 2,
            "even-odd": 0,
            "odd-even": 1,
            "odd-odd": 1,
        }
