import random
import time
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cornerjet import (
    LaurentJet,
    PairGerm,
    parse_plot,
    parse_tensor,
    pullback_halfline,
    pullback_quadrant_path,
    pullback_sq2,
    tau_sing,
)
from cornerjet.jets import Jet1, LaurentJet2
from cornerjet.plots import FlatGerm
from cornerjet.pullback import Status, _times
from cornerjet.tensors import QUADRANT_BASIS, QuadrantTensor

from conftest import (
    laurent2s,
    laurent_jets,
    nonzero_rationals,
    polynomial_laurent2s,
    quadrant_tensors,
    rationals,
    time_limit,
    unit_jet1s,
)
from oracles import (
    long_divide,
    make_boundary_plot,
    make_halfline_tensor,
    make_interior_plot,
    make_quadrant_tensor,
    realize_jet,
    schoolbook_product,
)


def power(base: dict, n: int) -> dict:
    """base^n for a series given as {degree: coefficient}, by schoolbook products."""
    out = {0: F(1)}
    for _ in range(n):
        out = schoolbook_product(out, base)
    return out


def squared(jet: Jet1) -> Jet1:
    """jet^2, every coefficient kept."""
    coeffs = dict(enumerate(jet.coeffs))
    square = schoolbook_product(coeffs, coeffs)
    return Jet1([square.get(d, F(0)) for d in range(2 * len(jet.coeffs) - 1)])


def germ_and_square(kind: str, x0, x2, unit: Jet1):
    """A curve germ u(t) and the germ u(t)^2, for u = x0 + t + x2 t^2 ("interior")
    or u = t^2 unit ("boundary")."""
    if kind == "boundary":
        return make_boundary_plot(1, unit), make_boundary_plot(2, squared(unit))
    jet = Jet1([x0, 1, x2])
    return make_interior_plot(x0, jet), make_interior_plot(x0 ** 2, squared(jet))


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
        # every order from 0 up is a window; only a negative one is refused,
        # with the text of every entry's order reader
        for order in (0, 1):
            verdict = pullback_halfline(tau_sing(), make_boundary_plot(1, 1), order=order)
            assert verdict.witness == LaurentJet(0, [4])
        with pytest.raises(ValueError, match="^order -1 is below the minimum 0$"):
            pullback_halfline(tau_sing(), make_boundary_plot(1, 1), order=-1)

    @pytest.mark.parametrize("order", [2.5, 16.0, "16"])
    @pytest.mark.parametrize("plot", ["t^2", "flat"])
    def test_order_is_an_integer(self, plot, order):
        # also where the flat rule reads no window
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            pullback_halfline(tau_sing(), parse_plot(plot), order)

    def test_non_germ_is_refused(self):
        with pytest.raises(TypeError, match="cannot compose along 't\\^2'"):
            pullback_halfline(tau_sing(), "t^2")

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

    @pytest.mark.parametrize("order", [0, 1])
    def test_cancelled_numerator_ends_at_the_shortest_orders(self, order):
        # 1 - x along 1 + t is -t: W vanishes at the first bound, lo + order,
        # and at order 0 the raised bound must still pass it
        tensor, plot = parse_tensor("(1-x)*dx"), parse_plot("interior(1; 1+t)")
        with time_limit(1):
            verdict = pullback_halfline(tensor, plot, order)
        assert verdict.witness == LaurentJet(1, [-1])

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

    def test_capacity_rule_pulls_nothing_back(self, monkeypatch):
        # the flat rule reads the pole order against the capacity: no witness is built
        def refuse(*args):
            raise AssertionError("a flat germ must not run a pullback")

        monkeypatch.setattr("cornerjet.pullback._pull_back", refuse)
        assert pullback_halfline(parse_tensor("(1/x)*dx^2"), FlatGerm()).status is Status.FLAT_SMOOTH
        verdict = pullback_halfline(parse_tensor("(1/x^2)*dx^2"), FlatGerm())
        assert verdict.status is Status.FLAT_INDETERMINATE


class TestPullbackSq2:
    def test_singular_tensor_in_x_slot(self):
        t = make_quadrant_tensor({(-1, 0): 1}, 0, 0)
        pulled = pullback_sq2(t)
        assert pulled.a == LaurentJet2({(0, 0): 4})
        assert pulled.b.is_zero and pulled.c.is_zero

    def test_euclidean_restriction(self):
        pulled = pullback_sq2(make_quadrant_tensor(1, 1, 0))
        assert pulled.a == LaurentJet2({(2, 0): 4})
        assert pulled.b == LaurentJet2({(0, 2): 4})
        assert pulled.c.is_zero

    def test_cross_pole(self):
        pulled = pullback_sq2(make_quadrant_tensor(0, 0, {(-1, 0): 1}))
        # oracle: 4uv * u^-2 = 4 v u^-1
        assert pulled.c == LaurentJet2({(-1, 1): 4})

    @settings(max_examples=100)
    @given(polynomial_laurent2s(), polynomial_laurent2s(), polynomial_laurent2s())
    def test_parity_selection_rule(self, a, b, c):
        pulled = pullback_sq2(make_quadrant_tensor(a, b, c))
        for component in (pulled.a, pulled.b):
            assert all(i % 2 == 0 and j % 2 == 0 for i, j, _ in component.terms())
        assert all(i % 2 == 1 and j % 2 == 1 for i, j, _ in pulled.c.terms())
        total = len(list(a.terms())) + len(list(b.terms())) + len(list(c.terms()))
        components = (pulled.a, pulled.b, pulled.c)
        assert total == sum(len(list(comp.terms())) for comp in components)

    def test_exponents_beyond_the_default_order(self):
        # the square map only reindexes, so no exponent is too large for it
        t = make_quadrant_tensor({(20, 0): 1}, 0, {(0, 17): F(1, 2)})
        pulled = pullback_sq2(t)
        assert pulled.a == LaurentJet2({(42, 0): 4})
        assert pulled.c == LaurentJet2({(1, 35): 2})


class TestPullbackQuadrantPath:
    @pytest.mark.parametrize("order", [2.5, "16"])
    def test_order_is_an_integer(self, order):
        germ = PairGerm(make_boundary_plot(1, 1), make_boundary_plot(1, 1))
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            pullback_quadrant_path(make_quadrant_tensor(1, 1, 0), germ, order)

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

    def test_preconditions(self):
        t = make_quadrant_tensor(1, 1, 0)
        germ = PairGerm(make_boundary_plot(1, 1), make_interior_plot(1))
        with pytest.raises(ValueError, match="^order -1 is below the minimum 0$"):
            pullback_quadrant_path(t, germ, order=-1)
        for flat in (PairGerm(FlatGerm(), germ.py), PairGerm(germ.px, FlatGerm())):
            with pytest.raises(ValueError, match="flat components are not supported"):
                pullback_quadrant_path(t, flat)

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
        # At order 0 the first bound is lo itself, and still it must grow.
        for order in (0, 1, 16):
            with time_limit(5):
                verdict = pullback_quadrant_path(tensor, PairGerm(px, py), order)
            assert verdict.status is Status.SMOOTH
            assert verdict.witness == LaurentJet(cut + 1, s[cut + 1 : cut + order + 2])
            assert verdict.vanishing_order == cut + 1

    @settings(max_examples=400, deadline=None)
    @given(
        laurent2s(),
        laurent2s(),
        laurent2s(),
        st.sampled_from(("interior", "boundary")),
        st.sampled_from(("interior", "boundary")),
        st.fractions(min_value=F(1, 4), max_value=3, max_denominator=6),
        st.fractions(min_value=F(1, 4), max_value=3, max_denominator=6),
        rationals,
        rationals,
        unit_jet1s(max_order=2),
        unit_jet1s(max_order=2),
    )
    def test_square_map_and_path_share_the_cross_convention(
        self, a, b, c, u_kind, v_kind, u0, v0, ua, va, uw, vw
    ):
        # T along (u(t)^2, v(t)^2) is the square-map pullback S along (u(t), v(t)):
        # S is a tensor in the same convention, its exponents past MIN_VALUATION.
        # Boundary germs t^2 w and their squares t^4 w^2 meet the axes, where
        # the poles of T and S show, so pole verdicts are compared too.
        tensor = QuadrantTensor(dict(zip(QUADRANT_BASIS, (a, b, c))))
        root_u, square_u = germ_and_square(u_kind, u0, ua, uw)
        root_v, square_v = germ_and_square(v_kind, v0, va, vw)
        for order in (2, 8):
            assert pullback_quadrant_path(tensor, PairGerm(square_u, square_v), order) == (
                pullback_quadrant_path(pullback_sq2(tensor), PairGerm(root_u, root_v), order))

    def test_exact_cancellation_along_diagonal(self):
        # a = 1, b = -1 along (t^2, t^2): px'^2 and py'^2 cancel exactly
        t = make_quadrant_tensor(1, {(0, 0): -1}, 0)
        germ = PairGerm(make_boundary_plot(1, 1), make_boundary_plot(1, 1))
        verdict = pullback_quadrant_path(t, germ, order=8)
        assert verdict.status is Status.SMOOTH
        assert verdict.witness == LaurentJet()


# -- sparse exponents: gaps between the exponents present ---------------------


@st.composite
def sparse_exponents(draw, low, high):
    """Up to three exponents from one in ``low``, each the last plus 1 to 20, none above ``high``."""
    exps = [draw(st.integers(*low))]
    for gap in draw(st.lists(st.integers(1, 20), max_size=2)):
        exps.append(exps[-1] + gap)
    return [e for e in exps if e <= high]


@st.composite
def long_germs(draw):
    """Boundary germs t^(2m) u and interior germs u, u of up to 8 terms and never constant."""
    unit = draw(unit_jet1s(max_order=7).filter(lambda u: any(u.coeffs[1:])))
    if draw(st.booleans()):
        return make_boundary_plot(draw(st.integers(1, 2)), unit)
    return make_interior_plot(unit.coeffs[0], unit)


def cleared_pullback(tensor: QuadrantTensor, germ: PairGerm, order: int) -> LaurentJet:
    """Oracle: the path pullback through ``order`` degrees above its valuation, as W / D.

    W = sum c px^(i+vx) py^(j+vy) px'^p py'^q with D = px^vx py^vy, each term
    counted comb(p+q, p) times (``cleared_terms``).
    """
    terms = [(i, j, p, q, comb(p + q, p) * c)
             for (p, q), jet in tensor.components.items() for i, j, c in jet.terms()]
    return cleared_terms(terms, germ.px, germ.py, order)


def cleared_terms(terms, px, py, order: int) -> LaurentJet:
    """Oracle: sum c px^i py^j px'^p py'^q over the terms (i, j, p, q, c), through
    ``order`` degrees above its valuation, as W / D.

    Every factor of W has valuation >= 0, so schoolbook products cut at one
    degree are exact through it; the cut grows until W shows its valuation or
    is complete.  One long division gives W / D.
    """
    curves = [dict(realize_jet(g, 64).terms()) for g in (px, py)]
    bases = curves + [{d - 1: d * c for d, c in s.items() if d} for s in curves]
    vx = max([0] + [-t[0] for t in terms])
    vy = max([0] + [-t[1] for t in terms])
    terms = [((i + vx, j + vy, p, q), c) for i, j, p, q, c in terms
             if all(base or not n for base, n in zip(bases[2:], (p, q)))]
    lo = min([sum(n * min(b) for n, b in zip(e, bases) if n) for e, _ in terms], default=0)
    deg = max([sum(n * max(b) for n, b in zip(e, bases) if n) for e, _ in terms], default=0)
    top = lo + order
    while True:
        w: dict[int, F] = {}
        for e, c in terms:
            prod = {0: c}
            for base, n in zip(bases, e):
                for _ in range(n):
                    prod = {d: x for d, x in schoolbook_product(prod, base).items() if d <= top}
            for d, x in prod.items():
                w[d] = w.get(d, 0) + x
        w = {d: x for d, x in w.items() if x}
        if top >= deg or (w and min(w) + order <= top):
            break
        top += max(order, 1)
    if not w:
        return LaurentJet()
    d = schoolbook_product(power(curves[0], vx), power(curves[1], vy))
    return LaurentJet.from_terms(long_divide(w, d, order + 1))


class TestExponentGaps:
    # Exponents that skip by more than 1 take the gap powers of the Horner
    # evaluation, which no dense tensor reaches.

    @settings(max_examples=25, deadline=None)
    @given(sparse_exponents((-2, 2), 22), st.lists(nonzero_rationals, min_size=3, max_size=3),
           st.integers(0, 3), long_germs())
    def test_halfline_matches_symbolic_oracle(self, exps, coeffs, k, plot):
        coeff = LaurentJet.from_terms(dict(zip(exps, coeffs)))
        verdict = pullback_halfline(make_halfline_tensor(k, coeff), plot, order=8)
        oracle = symbolic_pullback(coeff, plot, k, order=40)
        window = verdict.witness.valuation + 8
        assert verdict.witness.truncated(window) == oracle.truncated(window)

    @settings(max_examples=40, deadline=None)
    @given(st.data(), long_germs(), long_germs(), st.integers(2, 10))
    def test_quadrant_matches_cleared_oracle(self, data, px, py, order):
        components = {}
        for key in QUADRANT_BASIS:
            xs = data.draw(sparse_exponents((-2, 1), 30))
            ys = data.draw(sparse_exponents((-2, 1), 30))
            pairs = st.tuples(st.sampled_from(xs), st.sampled_from(ys))
            terms = data.draw(st.dictionaries(pairs, nonzero_rationals, max_size=3))
            components[key] = LaurentJet2(terms)
        tensor = QuadrantTensor(components)
        germ = PairGerm(px, py)
        verdict = pullback_quadrant_path(tensor, germ, order)
        assert verdict.witness == cleared_pullback(tensor, germ, order)

    def test_a_lone_high_exponent_is_one_gap_power(self):
        # px^2048 is one gap power, built by one recurrence in milliseconds;
        # Horner's rule stepping by px once per unit of the exponent would
        # take over a second.  Best of three against a busy host.
        tensor, plot = parse_tensor("x^2048*dx^2048"), parse_plot("t^2*(3/2+t)")
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            verdict = pullback_halfline(tensor, plot, 64)
            best = min(best, time.perf_counter() - start)
        assert best < 0.25, "took %.3f s" % best
        # t^4096 (3/2 + t)^2048 (3t + 3t^2)^2048 leads with (9/2)^2048 t^6144.
        assert verdict.witness.valuation == 6144
        assert verdict.witness.coeffs[0] == F(9, 2) ** 2048

    def test_a_lone_high_exponent_takes_a_handful_of_products(self, monkeypatch):
        # The same pullback on a count, free of the host's speed: px^2048 is
        # one product, where stepping by px would take 2,048 of them.
        calls = []

        def counted(a, b, top):
            calls.append(top)
            return _times(a, b, top)

        monkeypatch.setattr("cornerjet.pullback._times", counted)
        pullback_halfline(parse_tensor("x^2048*dx^2048"), parse_plot("t^2*(3/2+t)"), 64)
        assert len(calls) <= 8


# -- the shortest windows ------------------------------------------------------


@st.composite
def short_germs(draw):
    """Boundary germs t^(2m) u and interior germs u, u of up to 4 terms, constant included."""
    unit = draw(unit_jet1s(max_order=3))
    if draw(st.booleans()):
        return make_boundary_plot(draw(st.integers(1, 2)), unit)
    return make_interior_plot(unit.coeffs[0], unit)


class TestShortestWindows:
    # Orders 0 and 1 are windows like any other: their witnesses are the first
    # one and two coefficients of a longer one, with the same verdict.

    @staticmethod
    def assert_prefixes(pull):
        full = pull(16)
        for order in (0, 1):
            with time_limit(5):
                short = pull(order)
            assert short.witness == LaurentJet(
                full.witness.valuation, full.witness.coeffs[: order + 1])
            assert (short.status, short.pole_order, short.vanishing_order) == (
                full.status, full.pole_order, full.vanishing_order)

    @settings(max_examples=100, deadline=None)
    @given(laurent_jets(min_valuation=-4, max_degree=5), st.integers(0, 4), short_germs())
    def test_halfline_witness_is_a_prefix(self, coeff, k, plot):
        tensor = make_halfline_tensor(k, coeff)
        self.assert_prefixes(lambda order: pullback_halfline(tensor, plot, order))

    @settings(max_examples=60, deadline=None)
    @given(quadrant_tensors(), short_germs(), short_germs())
    def test_quadrant_witness_is_a_prefix(self, tensor, px, py):
        germ = PairGerm(px, py)
        self.assert_prefixes(lambda order: pullback_quadrant_path(tensor, germ, order))


# -- a seeded set of pullbacks against the composition oracle ------------------

PULLBACK_SEED = 3232
PULLBACK_ORDERS = (0, 1, 16, 64)


def pullback_cases(seed: int, count: int) -> list[tuple]:
    """``count`` seeded cases (tensor, px, py), half-line and quadrant in turn.

    Half-line tensors f dx^k, k from 0 to 4 and f of 1-4 terms, are pulled
    back along (px, 1); quadrant tensors, of 0-3 terms per component, along a
    pair germ.  Exponents run from the parse floor -4 up to 6; germs are
    boundary germs t^(2m) u, m from 1 to 3, and interior germs, their jets of
    1-4 terms, a constant one included.  A larger count extends the same list, so two versions of the
    stage can be compared witness by witness on as many cases as wanted.
    """
    rng = random.Random(seed)

    def rational(positive=False):
        num = rng.randint(1, 9) if positive else rng.choice([-1, 1]) * rng.randint(1, 9)
        return F(num, rng.choice([1, 1, 2, 3, 7]))

    def germ():
        head = [rational(positive=True)]
        tail = [rng.choice([F(0), rational()]) for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.5:
            return make_boundary_plot(rng.randint(1, 3), Jet1(head + tail))
        return make_interior_plot(head[0], Jet1(head + tail))

    def exponents(n):
        return rng.sample(range(-4, 7), n)

    cases = []
    for index in range(count):
        if index % 2 == 0:
            coeff = LaurentJet.from_terms({e: rational() for e in exponents(rng.randint(1, 4))})
            cases.append((make_halfline_tensor(rng.randint(0, 4), coeff), germ(), None))
        else:
            tensor = make_quadrant_tensor(*[
                {(i, j): rational() for i, j in zip(exponents(n), exponents(n))}
                for n in (rng.randint(0, 3) for _ in QUADRANT_BASIS)])
            cases.append((tensor, germ(), germ()))
    return cases


def test_seeded_pullbacks_match_the_composition_oracle():
    # A fixed set from one seed: 100 cases at four orders each, every witness
    # equal to the oracle's by Record equality.
    for tensor, px, py in pullback_cases(PULLBACK_SEED, 100):
        for order in PULLBACK_ORDERS:
            if py is None:
                verdict = pullback_halfline(tensor, px, order)
                terms = [(d, 0, tensor.degree, 0, c) for d, c in tensor.coeff.terms()]
                oracle = cleared_terms(terms, px, make_interior_plot(1, Jet1((1,))), order)
            else:
                germ = PairGerm(px, py)
                verdict = pullback_quadrant_path(tensor, germ, order)
                oracle = cleared_pullback(tensor, germ, order)
            assert verdict.witness == oracle, (tensor, px, py, order)
