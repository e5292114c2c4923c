from fractions import Fraction as F

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cornerjet import (
    LaurentJet,
    PairGerm,
    make_boundary_plot,
    make_halfline_tensor,
    parse_plot,
    parse_tensor,
    pullback_halfline,
    pullback_quadrant_path,
    pullback_sq2,
    tau_sing,
)
from cornerjet.jets import Jet1, LaurentJet2
from cornerjet.plots import FlatGerm, make_interior_plot
from cornerjet.pullback import Status
from cornerjet.tensors import make_quadrant_tensor

from conftest import laurent_jets, polynomial_laurent2s, unit_jet1s
from oracles import long_divide, realize_jet, schoolbook_product


def power(base: dict, n: int) -> dict:
    """base^n for a series given as {degree: coefficient}, by schoolbook products."""
    out = {0: F(1)}
    for _ in range(n):
        out = schoolbook_product(out, base)
    return out


def x_minus_one_power(n: int, valuation: int = 0) -> LaurentJet:
    """(x - 1)^n * x^valuation."""
    terms = power({0: -1, 1: 1}, n)
    return LaurentJet(valuation, [terms[d] for d in range(n + 1)])


def symbolic_pullback(coeff: LaurentJet, plot, k: int, order: int = 24) -> LaurentJet:
    """Oracle: substitute the realized plot jet term by term and multiply out.

    Dict arithmetic throughout: schoolbook products and long division.  Only
    valid when no truncation effects can reach the compared window, so
    callers keep degrees small.
    """
    jet = dict(realize_jet(plot, order).terms())
    deriv = {d - 1: d * c for d, c in jet.items() if d}
    composed: dict[int, F] = {}
    for d, c in coeff.terms():
        if d >= 0:
            piece = power(jet, d)
        else:
            piece = long_divide({0: 1}, power(jet, -d), order)
        for e, x in piece.items():
            composed[e] = composed.get(e, F(0)) + c * x
    composed = {e: x for e, x in composed.items() if x}
    result = schoolbook_product(composed, power(deriv, k))
    top = min(composed) + min(deriv) * k + 8
    lo = min(result)
    return LaurentJet(lo, [result.get(e, F(0)) for e in range(lo, top + 1)])


class TestPullbackHalfline:
    def test_singular_tensor_along_square_map(self):
        verdict = pullback_halfline(tau_sing(), make_boundary_plot(1, 1))
        assert verdict.status is Status.SMOOTH
        assert verdict.witness == LaurentJet(0, [4])

    def test_singular_tensor_along_quartic(self):
        verdict = pullback_halfline(tau_sing(), make_boundary_plot(2, 1))
        # oracle: (4t^3)^2 / t^4 = 16 t^2
        assert verdict.status is Status.SMOOTH
        assert verdict.witness == LaurentJet(2, [16])

    def test_double_pole_along_square_map(self):
        tensor = make_halfline_tensor(2, LaurentJet(-2, [1]))
        verdict = pullback_halfline(tensor, make_boundary_plot(1, 1))
        # oracle: (2t)^2 / t^4 = 4 t^-2
        assert verdict.status is Status.POLE
        assert verdict.pole_order == 2
        assert verdict.witness == LaurentJet(-2, [4])

    def test_simple_pole_cubed_differential(self):
        tensor = make_halfline_tensor(3, LaurentJet(-1, [1]))
        verdict = pullback_halfline(tensor, make_boundary_plot(1, 1))
        # oracle: (2t)^3 / t^2 = 8 t
        assert verdict.status is Status.SMOOTH
        assert verdict.witness == LaurentJet(1, [8])

    def test_order_precondition(self):
        with pytest.raises(ValueError, match="at least 2"):
            pullback_halfline(tau_sing(), make_boundary_plot(1, 1), order=1)

    def test_interior_germ_pullback(self):
        verdict = pullback_halfline(tau_sing(), make_interior_plot(1), order=4)
        # oracle: 1/(1+t) * 1 = 1 - t + t^2 - ...
        assert verdict.status is Status.SMOOTH
        assert verdict.witness == LaurentJet(0, [1, -1, 1, -1, 1])

    def test_interior_polynomial_cancellation_is_resolved_exactly(self):
        coeff = x_minus_one_power(20)  # vanishes to order 20 at x = 1
        tensor = make_halfline_tensor(2, coeff)
        verdict = pullback_halfline(tensor, make_interior_plot(1), order=16)
        # polynomial coefficients compose exactly, so the deep zero is visible
        assert verdict.status is Status.SMOOTH
        assert verdict.witness.valuation == 20

    def test_interior_deep_cancellation_with_pole_is_exact(self):
        # (x - 1)^20 / x at x0 = 1 along 1 + t: the pole is cleared before
        # composing, so the zero of order 20 is seen exactly and the witness
        # is t^20 / (1 + t) through t^36
        coeff = x_minus_one_power(20, -1)
        tensor = make_halfline_tensor(2, coeff)
        verdict = pullback_halfline(tensor, make_interior_plot(1), order=16)
        assert verdict.status is Status.SMOOTH
        assert verdict.witness == LaurentJet(20, [(-1) ** n for n in range(17)])

    def test_bound_grows_until_the_valuation_is_exposed(self):
        # (x - 1)^20 x^29 dx^2 along 1 + t is t^20 (1 + t)^29: W vanishes
        # through the first bound (t^16), the doubled bound (t^32) shows
        # val(W) = 20 with only 12 degrees above it, and the bound rises to t^36
        from math import comb

        coeff = x_minus_one_power(20, 29)
        verdict = pullback_halfline(make_halfline_tensor(2, coeff), make_interior_plot(1))
        assert verdict.witness == LaurentJet(20, [comb(29, n) for n in range(17)])

    def test_high_differential_power_is_cheap_and_exact(self):
        # x dx^2000 along t^4 (1 + t): x' = 4t^3 + 5t^4, so the witness is
        # t^4 (1 + t) (4t^3 + 5t^4)^2000 with valuation 6004 and lead 4^2000
        verdict = pullback_halfline(parse_tensor("x*dx^2000"), parse_plot("t^4*(1+t)"))
        assert verdict.status is Status.SMOOTH
        assert verdict.witness.valuation == verdict.vanishing_order == 6004
        assert verdict.witness.coeffs[0] == 4 ** 2000
        assert verdict.witness.coeffs[1] == 4 ** 2000 + 2000 * 5 * 4 ** 1999

    def test_zero_tensor_is_smooth(self):
        verdict = pullback_halfline(
            make_halfline_tensor(2, LaurentJet()), make_boundary_plot(1, 1)
        )
        assert verdict.status is Status.SMOOTH
        assert verdict.witness == LaurentJet()

    @settings(max_examples=150)
    @given(
        st.integers(0, 8),
        st.integers(0, 5),
        st.integers(1, 6),
        unit_jet1s(max_order=3),
    )
    def test_valuation_law(self, k, p, m, unit):
        tensor = make_halfline_tensor(k, LaurentJet(-p, [1]))
        verdict = pullback_halfline(tensor, make_boundary_plot(m, unit))
        expected = k * (2 * m - 1) - 2 * m * p
        assert verdict.witness.valuation == expected
        assert verdict.is_smooth == (expected >= 0)

    @settings(max_examples=80)
    @given(
        st.integers(0, 5),
        st.integers(0, 4),
        st.integers(1, 4),
        unit_jet1s(max_order=3),
        unit_jet1s(max_order=3),
    )
    def test_verdict_is_unit_independent(self, k, p, m, unit_a, unit_b):
        tensor = make_halfline_tensor(k, LaurentJet(-p, [1]))
        va = pullback_halfline(tensor, make_boundary_plot(m, unit_a))
        vb = pullback_halfline(tensor, make_boundary_plot(m, unit_b))
        assert va.witness.valuation == vb.witness.valuation
        assert va.status == vb.status

    @settings(max_examples=80)
    @given(
        laurent_jets(min_valuation=-4, max_degree=5),
        st.integers(0, 4),
        st.fractions(min_value=F(1, 3), max_value=3, max_denominator=6),
    )
    def test_interior_always_smooth(self, coeff, k, x0):
        tensor = make_halfline_tensor(k, coeff)
        verdict = pullback_halfline(tensor, make_interior_plot(x0), order=12)
        assert verdict.is_smooth

    @settings(max_examples=60)
    @given(
        st.integers(1, 6),
        unit_jet1s(max_order=2),
        laurent_jets(min_valuation=-1, max_degree=4),
    )
    def test_boundary_witness_matches_symbolic_oracle(self, m, unit, coeff):
        plot = make_boundary_plot(m, unit)
        tensor = make_halfline_tensor(2, coeff)
        verdict = pullback_halfline(tensor, plot, order=8)
        if coeff.is_zero:
            assert verdict.witness.is_zero
            return
        oracle = symbolic_pullback(coeff, plot, 2, order=40)
        window = verdict.witness.valuation + 8
        assert verdict.witness.truncated(window) == oracle.truncated(window)


class TestPullbackForm:
    def test_constant_form_vanishes_to_first_order(self):
        verdict = pullback_halfline(make_halfline_tensor(1, 1), make_boundary_plot(1, 1))
        assert verdict.status is Status.SMOOTH
        assert verdict.witness == LaurentJet(1, [2])
        assert verdict.vanishing_order == 1

    def test_linear_coefficient(self):
        verdict = pullback_halfline(
            make_halfline_tensor(1, LaurentJet(1, [1])), make_boundary_plot(1, 1)
        )
        # oracle: t^2 * 2t = 2 t^3
        assert verdict.witness == LaurentJet(3, [2])
        assert verdict.vanishing_order == 3

    def test_pole_form_has_capacity_zero(self):
        verdict = pullback_halfline(
            make_halfline_tensor(1, LaurentJet(-1, [1])), make_boundary_plot(1, 1)
        )
        assert verdict.status is Status.POLE
        assert verdict.pole_order == 1
        assert verdict.witness == LaurentJet(-1, [2])


class TestFlatGerms:
    @pytest.mark.parametrize(
        "k, p, expected",
        [
            (2, 1, Status.FLAT_SMOOTH),
            (2, 2, Status.FLAT_INDETERMINATE),
            (1, 0, Status.FLAT_SMOOTH),
            (1, 1, Status.FLAT_INDETERMINATE),
            (8, 4, Status.FLAT_SMOOTH),
            (8, 5, Status.FLAT_INDETERMINATE),
        ],
    )
    def test_capacity_rule(self, k, p, expected):
        tensor = make_halfline_tensor(k, LaurentJet(-p, [1]) if p else LaurentJet(0, [1]))
        verdict = pullback_halfline(tensor, FlatGerm())
        assert verdict.status is expected
        assert verdict.witness is None


class TestPullbackSq2:
    def test_singular_tensor_in_x_slot(self):
        t = make_quadrant_tensor({(-1, 0): 1}, 0, 0)
        pulled = pullback_sq2(t)
        assert pulled.du2 == LaurentJet2({(0, 0): 4})
        assert pulled.dv2.is_zero and pulled.dudv.is_zero

    def test_euclidean_restriction(self):
        pulled = pullback_sq2(make_quadrant_tensor(1, 1, 0))
        assert pulled.du2 == LaurentJet2({(2, 0): 4})
        assert pulled.dv2 == LaurentJet2({(0, 2): 4})
        assert pulled.dudv.is_zero

    def test_cross_pole(self):
        pulled = pullback_sq2(make_quadrant_tensor(0, 0, {(-1, 0): 1}))
        # oracle: 8uv * u^-2 = 8 v u^-1
        assert pulled.dudv == LaurentJet2({(-1, 1): 8})

    @settings(max_examples=100)
    @given(polynomial_laurent2s(), polynomial_laurent2s(), polynomial_laurent2s())
    def test_parity_selection_rule(self, a, b, c):
        pulled = pullback_sq2(make_quadrant_tensor(a, b, c))
        for component in (pulled.du2, pulled.dv2):
            assert all(i % 2 == 0 and j % 2 == 0 for i, j, _ in component.terms())
        assert all(i % 2 == 1 and j % 2 == 1 for i, j, _ in pulled.dudv.terms())
        total = len(list(a.terms())) + len(list(b.terms())) + len(list(c.terms()))
        assert total == sum(len(list(comp.terms())) for comp in pulled)

    def test_exponents_beyond_the_default_order(self):
        # the square map only reindexes, so no exponent is too large for it
        t = make_quadrant_tensor({(20, 0): 1}, 0, {(0, 17): F(1, 2)})
        pulled = pullback_sq2(t)
        assert pulled.du2 == LaurentJet2({(42, 0): 4})
        assert pulled.dudv == LaurentJet2({(1, 35): 4})


class TestPullbackQuadrantPath:
    def test_demo_tensor_along_diagonal_square(self):
        t = make_quadrant_tensor({(-1, 2): 1}, {(0, -1): 1}, {(1, 1): 1})
        germ = PairGerm(make_boundary_plot(1, 1), make_boundary_plot(1, 1))
        verdict = pullback_quadrant_path(t, germ, order=8)
        # oracle by hand: (t^4/t^2)(2t)^2 + t^-2 (2t)^2 + 2 t^4 (2t)(2t) = 4 + 4t^4 + 8t^6
        assert verdict.status is Status.SMOOTH
        assert verdict.witness == LaurentJet(0, [4, 0, 0, 0, 4, 0, 8])

    def test_cross_pole_detected_along_path(self):
        t = make_quadrant_tensor(0, 0, {(-1, 0): 1})
        germ = PairGerm(make_boundary_plot(1, 1), make_boundary_plot(1, 1))
        verdict = pullback_quadrant_path(t, germ, order=8)
        # oracle: 2 * t^-2 * (2t)(2t) = 8; smooth along this diagonal even
        # though the square-map pullback rejects the tensor
        assert verdict.status is Status.SMOOTH
        assert verdict.witness == LaurentJet(0, [8])

    def test_axial_pole_along_mixed_path(self):
        t = make_quadrant_tensor({(-2, 0): 1}, 0, 0)
        germ = PairGerm(make_boundary_plot(1, 1), make_interior_plot(1))
        verdict = pullback_quadrant_path(t, germ, order=8)
        # oracle: t^-4 * (2t)^2 = 4 t^-2
        assert verdict.status is Status.POLE
        assert verdict.pole_order == 2

    def test_window_doubling_rebuilds_the_power_tables(self):
        # a = 1/x along px = t^2 u with u = 1 + t/2 gives S(t) = px'^2 / px, a
        # unit-series with a nonzero tail.  b(y) = -S_20(y - 1), the degree-20
        # Taylor polynomial of S, cancels it along py = 1 + t through t^20, so
        # the numerator W = px'^2 + b(py) px py'^2 vanishes through t^22: the
        # first bound (t^18) sees nothing, and the power tables are rebuilt
        # through deg W = 23, where W is exact.
        from math import comb

        unit = Jet1([1, F(1, 2)])
        px = make_boundary_plot(1, unit)
        py = make_interior_plot(1)
        # Oracle, slice by slice: (2u + t u')^2 / u by long division.
        lead = {0: 2, 1: F(3, 2)}
        series = long_divide(schoolbook_product(lead, lead), dict(enumerate(unit.coeffs)), 64)
        s = [series.get(k, F(0)) for k in range(64)]
        cut = 20
        b = {(0, j): -sum(s[k] * comb(k, j) * (-1) ** (k - j) for k in range(j, cut + 1))
             for j in range(cut + 1)}
        tensor = make_quadrant_tensor({(-1, 0): 1}, b, 0)
        verdict = pullback_quadrant_path(tensor, PairGerm(px, py), order=16)
        assert verdict.status is Status.SMOOTH
        assert verdict.witness == LaurentJet(cut + 1, s[cut + 1 : cut + 18])
        assert verdict.vanishing_order == cut + 1

    def test_exact_cancellation_along_diagonal(self):
        # a = 1, b = -1 along (t^2, t^2): px'^2 and py'^2 cancel exactly
        t = make_quadrant_tensor(1, {(0, 0): -1}, 0)
        germ = PairGerm(make_boundary_plot(1, 1), make_boundary_plot(1, 1))
        verdict = pullback_quadrant_path(t, germ, order=8)
        assert verdict.status is Status.SMOOTH
        assert verdict.witness == LaurentJet()
