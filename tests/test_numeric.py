from fractions import Fraction as F

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cornerjet import (
    LaurentJet,
    SampledFunction,
    glaeser_landau_check,
    pullback_halfline,
    tau_sing,
)

from oracles import make_boundary_plot, make_halfline_tensor, numeric_pullback_probe

small_rationals = st.fractions(min_value=-10, max_value=10, max_denominator=8)


def poly_from_roots(scale, roots):
    coeffs = [F(scale)]
    for r in roots:
        coeffs = [F(0)] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= F(r) * coeffs[i + 1]
    return coeffs


@st.composite
def sos_functions(draw, grid_n=512):
    """Sums of squares whose zero cluster sits well inside the interval.

    The discriminant inequality with the curvature constant taken over the
    interval itself needs the Taylor excursion toward the zero set to stay
    inside that interval; sampling zeros in the middle of a comfortably wide
    window keeps the check in the inequality's actual range of validity
    (see test_window_missing_the_zero_breaks_the_inequality).
    """
    center = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
    half_width = draw(st.fractions(min_value=1, max_value=4, max_denominator=4))
    cluster = half_width / 4
    offset = st.fractions(min_value=-1, max_value=1, max_denominator=8)
    n_squares = draw(st.integers(1, 3))
    squares = []
    for _ in range(n_squares):
        degree = draw(st.integers(0, 3))
        scale = draw(
            st.fractions(min_value=F(1, 4), max_value=2, max_denominator=4)
        ) * draw(st.sampled_from([1, -1]))
        roots = [center + cluster * draw(offset) for _ in range(degree)]
        squares.append(poly_from_roots(scale, roots))
    interval = (center - half_width, center + half_width)
    return SampledFunction.sum_of_squares(squares, interval, grid_n=grid_n)


class TestGlaeserLandau:
    def test_equality_case(self):
        f = SampledFunction([0, 0, 1], (-1, 1))
        report = glaeser_landau_check(f)
        assert report.C == 2.0
        assert report.max_violation == 0.0
        assert report.passed

    def test_double_well(self):
        # (t^2 - 1)^2 on [-2, 2]
        f = SampledFunction([1, 0, -2, 0, 1], (-2, 2))
        assert glaeser_landau_check(f).passed

    def test_not_nonnegative(self):
        f = SampledFunction([0, 1], (-1, 1))
        with pytest.raises(ValueError, match="not nonnegative"):
            glaeser_landau_check(f)

    def test_sum_of_squares_expansion_is_exact(self):
        f = SampledFunction.sum_of_squares([[0, 1], [1, 1]], (-1, 1))
        # (t)^2 + (1 + t)^2 = 1 + 2t + 2t^2
        assert f.coeffs == (F(1), F(2), F(2))
        assert f.squares is not None

    @settings(max_examples=200, deadline=None)
    @given(sos_functions())
    def test_sos_always_passes(self, f):
        assert glaeser_landau_check(f, tol=1e-9).passed

    def test_window_missing_the_zero_breaks_the_inequality(self):
        # f = (t^2 + t - 1)^2 vanishes at (sqrt(5)-1)/2 ~ 0.618, just outside
        # [0, 1/2].  With the curvature constant taken over that window only,
        # the exact violation at t = 1/2 is 1/8; the check must report it
        # rather than pass.  Widening the window past the zero restores it.
        f = SampledFunction.sum_of_squares([[-1, 1, 1]], (0, F(1, 2)))
        report = glaeser_landau_check(f)
        assert not report.passed
        assert abs(report.max_violation - 0.125) < 1e-9
        wide = SampledFunction.sum_of_squares([[-1, 1, 1]], (-1, F(3, 2)))
        assert glaeser_landau_check(wide).passed

    def test_enlargement_recovers_the_excursion(self):
        f = SampledFunction.sum_of_squares([[-1, 1, 1]], (0, F(1, 2)))
        assert glaeser_landau_check(f, enlargement=1.0).passed

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, -1e-12])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        f = SampledFunction([0, 0, 1], (-1, 1))
        with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
            glaeser_landau_check(f, tol=tol)
        with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
            numeric_pullback_probe(tau_sing(), f, tol=tol)

    def test_interval_validation(self):
        with pytest.raises(ValueError, match="a < b"):
            SampledFunction([1], (1, 1))
        with pytest.raises(ValueError, match="grid_n"):
            SampledFunction([1], (0, 1), grid_n=2)

    @pytest.mark.parametrize("grid_n", [16.5, "20"])
    def test_grid_size_is_an_integer(self, grid_n):
        # refused when built, not later by the grid's range()
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            SampledFunction((F(1),), (F(0), F(1)), grid_n)

    @pytest.mark.parametrize("build, refused", [
        (lambda: SampledFunction((0.1, 0.0, 1.0), (0, 1)), "coefficient 0.1"),
        (lambda: SampledFunction((F(1),), (0.0, 1)), "interval endpoint 0.0"),
        (lambda: SampledFunction((F(1),), (0, 1), squares=((0.5,),)), "coefficient 0.5"),
        (lambda: SampledFunction((0.1,), (0, 1)), "coefficient 0.1"),
        (lambda: SampledFunction((1,), (0, 1.0)), "interval endpoint 1.0"),
        (lambda: SampledFunction.sum_of_squares([[0.5]], (0, 1)), "coefficient 0.5"),
    ], ids=["<lambda>%d" % i for i in range(6)])
    def test_the_record_refuses_floats(self, build, refused):
        # built directly or by a constructor, the record is the one gate, and
        # its refusal names what was a float
        with pytest.raises(TypeError) as err:
            build()
        assert str(err.value) == "floating-point %s is not allowed in exact arithmetic" % refused

    def test_the_record_holds_fractions(self):
        f = SampledFunction([F(1, 10), 0, 1], ["0", 1])
        assert f == SampledFunction(["1/10", 0, 1], (0, F(1)))
        assert {type(c) for c in f.coeffs + f.interval} == {F}
        f = SampledFunction((1, 0, 1), (-1, 1), 16, [[1], ["0", 1]])
        assert f == SampledFunction.sum_of_squares([[1], [0, 1]], (F(-1), F(1)), 16)
        assert {type(c) for q in f.squares for c in q} == {F}

    def test_values_beyond_the_float_range_are_refused(self):
        huge = 10 ** 400
        with pytest.raises(ValueError, match="interval endpoint beyond the float range"):
            SampledFunction([0, 0, 1], (-1, huge))
        with pytest.raises(ValueError, match="coefficient beyond the float range"):
            SampledFunction([0, 0, huge], (-1, 1))
        # f'' = 2 * 10^308 does not fit a float although f's coefficients do
        with pytest.raises(ValueError, match="coefficient beyond the float range"):
            SampledFunction([0, 0, 10 ** 308], (-1, 1))
        with pytest.raises(ValueError, match="coefficient beyond the float range"):
            SampledFunction.sum_of_squares([[0, huge]], (-1, 1))
        # tiny values round to zero instead: they are in range
        SampledFunction([F(1, huge), 0, 1], (F(-1, huge), 1))


# C and max_violation exactly as the vectorised evaluation order produces them:
# asymmetric rational intervals, odd grids, and an interval whose curvature
# overflows to inf.  The reports must keep these bits.
PINNED_REPORTS = [
    ([1, -2, 3], (F(-1, 3), F(5, 7)), 17, "6.0", "-7.999999999999998"),
    ([F(1, 4), 0, F(-5, 3), 0, F(7, 2)], (F(-2, 5), F(9, 11)), 1001,
     "24.782369146005514", "-2.556912421520193"),
    ([0, 0, 1, F(1, 3)], (F(-1, 2), F(13, 3)), 4097,
     "10.666666666666666", "-1.8368133925165724e-06"),
    ([4, 4, 1], (F(-7, 3), F(1, 9)), 33, "2.0", "1.3322676295501878e-15"),
    ([1, 0, 0, 0, 0, 0, 0, 0, 1], (-F(10) ** 80, F(10) ** 79), 255, "inf", "nan"),
]


class TestSample:
    SQUARES = [
        [[0, 1], [1, 1]],
        [[-1, 1, 1]],
        [[F(-1, 3), 1, 1], [F(1, 2), F(-2, 3)]],
        [poly_from_roots(F(3, 2), [F(1, 4), F(1, 4), F(-1, 2)]), [2], [0, F(-5, 4)]],
    ]

    @pytest.mark.parametrize("squares", SQUARES)
    def test_squares_agree_with_the_expanded_polynomial(self, squares):
        sos = SampledFunction.sum_of_squares(squares, (-1, F(3, 2)), grid_n=101)
        plain = SampledFunction(sos.coeffs, sos.interval, grid_n=101)
        grid = sos.grid()
        for by_squares, expanded in zip(sos.sample(grid), plain.sample(grid)):
            assert by_squares == pytest.approx(expanded, rel=1e-9)

    @pytest.mark.parametrize("f", [
        SampledFunction([1, -2, 3], (-1, 1), grid_n=17),
        SampledFunction.sum_of_squares([[-1, 1, 1], [2]], (0, 1), grid_n=33),
    ], ids=["polynomial", "sum_of_squares"])
    def test_three_lists_of_the_grid_length(self, f):
        grid = f.grid(enlargement=0.5)
        sampled = f.sample(grid)
        assert len(sampled) == 3
        assert all(isinstance(values, list) and len(values) == len(grid) for values in sampled)


class TestPinnedReports:
    @pytest.mark.parametrize("coeffs, interval, grid_n, c_sup, violation", PINNED_REPORTS)
    def test_polynomial_reports_keep_their_bits(self, coeffs, interval, grid_n, c_sup, violation):
        report = glaeser_landau_check(SampledFunction(coeffs, interval, grid_n))
        assert (repr(report.C), repr(report.max_violation)) == (c_sup, violation)

    def test_sum_of_squares_report_keeps_its_bits(self):
        f = SampledFunction.sum_of_squares(
            [[F(-1, 3), 1, 1], [F(1, 2), F(-2, 3)]], (F(-3, 4), F(5, 3)), grid_n=129
        )
        report = glaeser_landau_check(f, enlargement=0.25)
        assert (repr(report.C), repr(report.max_violation)) == (
            "90.68576388888889", "-16.263305951235253")


class TestNumericPullbackProbe:
    def test_singular_tensor_attains_curvature_bound(self):
        f = SampledFunction([0, 0, 1], (-1, 1))
        report = numeric_pullback_probe(tau_sing(), f)
        assert report.bounded
        assert report.bound == 4.0
        assert report.bound_ok
        assert abs(report.sup - 4.0) < 1e-12

    def test_double_pole_is_unbounded(self):
        f = SampledFunction([0, 0, 1], (-1, 1))
        tensor = make_halfline_tensor(2, LaurentJet(-2, [1]))
        report = numeric_pullback_probe(tensor, f)
        assert not report.bounded
        assert report.growth > 2.0

    def test_singular_tensor_on_double_well(self):
        f = SampledFunction([1, 0, -2, 0, 1], (-2, 2))
        report = numeric_pullback_probe(tau_sing(), f)
        assert report.bounded
        assert report.bound_ok

    def test_plot_must_be_nonnegative(self):
        f = SampledFunction([0, 1], (-1, 1))
        with pytest.raises(ValueError, match="not nonnegative"):
            numeric_pullback_probe(tau_sing(), f)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_agreement_with_exact_verdict(self, m, k, p):
        # plots t^(2m) are boundary germs and grid-samplable polynomials
        coeffs = [0] * (2 * m) + [1]
        f = SampledFunction(coeffs, (-1, 1), grid_n=512)
        tensor = make_halfline_tensor(k, LaurentJet(-p, [1]) if p else LaurentJet(0, [1]))
        exact = pullback_halfline(tensor, make_boundary_plot(m, 1))
        probe = numeric_pullback_probe(tensor, f)
        assert probe.bounded == exact.is_smooth

    def test_agreement_with_unit_factor(self):
        from cornerjet.jets import Jet1

        # t^2 (1 + t/2) on an interval keeping the unit positive
        f = SampledFunction([0, 0, 1, F(1, 2)], (-1, 1), grid_n=512)
        exact = pullback_halfline(tau_sing(), make_boundary_plot(1, Jet1([1, F(1, 2)])))
        probe = numeric_pullback_probe(tau_sing(), f)
        assert probe.bounded == exact.is_smooth
