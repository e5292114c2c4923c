from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cornerjet import (
    LaurentJet,
    NotSmoothError,
    check_gamma_parity,
    decompose_halfline,
    decompose_quadrant,
    parse_tensor,
    pullback_sq2,
    tau_sing,
)
from cornerjet import decompose as decompose_module
from cornerjet.jets import Jet1, LaurentJet2
from cornerjet.pullback import Status

from conftest import jet1s, nonzero_rationals, polynomial_laurent2s, rationals
from oracles import (
    descend_square_pullback,
    make_halfline_tensor,
    make_quadrant_tensor,
    singular_plus_regular,
)


def valuation_split(coeff: LaurentJet, order: int):
    """Independent oracle: read c and the regular part straight off the degrees."""
    c = coeff.coefficient(-1)
    regular = Jet1(tuple(coeff.coefficient(d) for d in range(order + 1)))
    return c, regular


class TestDecomposeHalfline:
    def test_singular_tensor(self):
        d = decompose_halfline(tau_sing())
        assert d.c == 1
        assert not any(d.regular.coeffs)

    def test_pole_plus_polynomial(self):
        tensor = make_halfline_tensor(2, LaurentJet(-1, [1, 3, 1]))
        d = decompose_halfline(tensor)
        assert d.c == 1
        assert d.regular == Jet1([3, 1])
        # the constructive route passes through g(t) = 4 t^2 f(t^2) and h
        assert d.trace.g == Jet1([4, 0, 12, 0, 4])
        assert d.trace.h == Jet1([4, 12, 4])

    def test_gap_and_rational_coefficient(self):
        # g runs through degree 2 * order + 2, zeros included
        d = decompose_halfline(parse_tensor("(1/x + 3/2*x^2)*dx^2"), order=3)
        assert d.trace.g == Jet1([4, 0, 0, 0, 0, 0, 6, 0, 0])
        assert str(d.trace.g) == "4 + 6*t^6"
        assert d.trace.h == Jet1([4, 0, 0, 6, 0])
        assert str(d.trace.h) == "4 + 6*t^3"
        assert d.c == 1
        assert d.regular == Jet1([0, 0, Fraction(3, 2), 0])
        assert str(d.regular) == "3/2*t^2"

    def test_pole_free_input(self):
        d = decompose_halfline(make_halfline_tensor(2, LaurentJet(1, [1])))
        assert d.c == 0
        assert d.regular == Jet1([0, 1])

    def test_zero_tensor(self):
        d = decompose_halfline(make_halfline_tensor(2, LaurentJet()))
        assert d.c == 0 and not any(d.regular.coeffs)

    def test_singular_part_has_pole_order_one(self):
        assert tau_sing().pole_order == 1
        d = decompose_halfline(tau_sing())
        assert d.reconstruct().coeff == tau_sing().coeff

    def test_capacity_exceeded(self):
        tensor = make_halfline_tensor(2, LaurentJet(-2, [1]))
        with pytest.raises(NotSmoothError, match="capacity exceeded") as err:
            decompose_halfline(tensor)
        verdict = err.value.verdict
        assert verdict.status is Status.POLE
        assert verdict.witness == LaurentJet(-2, [4])

    def test_requires_degree_two(self):
        with pytest.raises(ValueError, match="2-tensor"):
            decompose_halfline(make_halfline_tensor(1, 1))

    def test_order_must_cover_input(self):
        tensor = make_halfline_tensor(2, LaurentJet(0, [0, 0, 0, 1]))
        with pytest.raises(ValueError, match="cannot represent"):
            decompose_halfline(tensor, order=2)

    @pytest.mark.parametrize("order", [2.5, 16.0, "16"])
    @pytest.mark.parametrize("text", ["(1/x + 3)*dx^2", "(1/x^2)*dx^2"])
    def test_order_is_an_integer(self, text, order):
        # the split reads it, and so does the witness of a rejection
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            decompose_halfline(parse_tensor(text), order=order)

    @settings(max_examples=150)
    @given(rationals, jet1s(max_order=10))
    def test_round_trip(self, c, regular):
        tensor = singular_plus_regular(c, regular)
        d = decompose_halfline(tensor, order=regular.order)
        assert d.c == c
        assert d.regular == regular
        assert d.reconstruct().coeff == tensor.coeff

    @settings(max_examples=150)
    @given(jet1s(max_order=10))
    def test_pole_free_means_c_zero(self, regular):
        d = decompose_halfline(make_halfline_tensor(2, regular), order=regular.order)
        assert d.c == 0

    @settings(max_examples=150)
    @given(rationals, jet1s(max_order=10))
    def test_proof_path_equals_valuation_split(self, c, regular):
        tensor = singular_plus_regular(c, regular)
        d = decompose_halfline(tensor, order=regular.order)
        oracle_c, oracle_regular = valuation_split(tensor.coeff, regular.order)
        assert d.c == oracle_c
        assert d.regular == oracle_regular


@pytest.mark.parametrize("order, error, message", [
    (2.5, TypeError, "cannot be interpreted as an integer"),
    ("16", TypeError, "cannot be interpreted as an integer"),
    (-3, ValueError, "^order -3 is below the minimum 0$"),
])
@pytest.mark.parametrize("space, text", [
    ("halfline", "(1/x + 3)*dx^2"),
    ("halfline", "(1/x^2)*dx^2"),
    ("quadrant", "(y^2/x)*dx^2 + (1/y)*dy^2 + x*y*dx*dy"),
    ("quadrant", "(1/x^2)*dx^2"),
], ids=["halfline-accepted", "halfline-rejected", "quadrant-accepted", "quadrant-rejected"])
def test_order_is_read_before_any_work(monkeypatch, space, text, order, error, message):
    tensor = parse_tensor(text, space)

    def work(*args, **kwargs):
        raise AssertionError("work began before the order was read")

    for name in ("_check_capacity", "whitney_descend", "check_gamma_parity"):
        monkeypatch.setattr(decompose_module, name, work)
    decompose = decompose_halfline if space == "halfline" else decompose_quadrant
    with pytest.raises(error, match=message):
        decompose(tensor, order=order)


def build_quadrant(A, B, reg_a, reg_b, reg_c):
    a = LaurentJet2({(-1, j): c for j, c in enumerate(A.coeffs) if c != 0}) + reg_a
    b = LaurentJet2({(i, -1): c for i, c in enumerate(B.coeffs) if c != 0}) + reg_b
    return make_quadrant_tensor(a, b, reg_c)


def terms_dict(jet: LaurentJet2) -> dict:
    return {(i, j): c for i, j, c in jet.terms()}


class TestDecomposeQuadrant:
    @pytest.mark.parametrize("order", [2.5, "16"])
    def test_order_is_an_integer(self, order):
        tensor = parse_tensor("(y^2/x)*dx^2 + (1/y)*dy^2 + x*y*dx*dy", "quadrant")
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            decompose_quadrant(tensor, order=order)

    def test_demo_tensor(self):
        tensor = make_quadrant_tensor({(-1, 2): 1}, {(0, -1): 1}, {(1, 1): 1})
        d = decompose_quadrant(tensor)
        # oracle: 4u^2 (v^4 u^-2) = 4v^4 descends to K = 4y^2, so A(y) = y^2;
        # 4v^2 v^-2 = 4 descends to K = 4, so B = 1; cross passes through.
        assert d.A == Jet1([0, 0, 1])
        assert d.B == Jet1([1])
        assert d.regular.a.is_zero and d.regular.b.is_zero
        assert d.regular.c == LaurentJet2({(1, 1): 1})
        assert d.parity.rule_holds
        assert d.reconstruct() == tensor

    def test_euclidean_restriction(self):
        d = decompose_quadrant(make_quadrant_tensor(1, 1, 0))
        assert not any(d.A.coeffs + d.B.coeffs)
        assert d.regular.a == LaurentJet2({(0, 0): 1})
        assert d.regular.b == LaurentJet2({(0, 0): 1})
        assert d.regular.c.is_zero

    def test_zero_tensor(self):
        tensor = make_quadrant_tensor(0, 0, 0)
        d = decompose_quadrant(tensor)
        assert not any(d.A.coeffs + d.B.coeffs)
        assert d.parity.rule_holds
        assert d.reconstruct() == tensor

    def test_singular_cross_term_rejected(self):
        tensor = make_quadrant_tensor(0, 0, {(-1, 0): 1})
        with pytest.raises(NotSmoothError, match="singular cross term") as err:
            decompose_quadrant(tensor)
        parity = err.value.parity
        # the pullback witness: 4 v u^-1 sits odd-odd at negative degree
        assert parity.components["du*dv"].min_degrees == (-1, 1)
        assert not parity.components["du*dv"].smooth
        assert parity.components["du*dv"].masses["odd-odd"] == 1

    def test_cross_term_is_reported_before_axial_poles(self):
        # dx^2 and dy^2 fail too, and precede dx*dy in the basis
        tensor = make_quadrant_tensor({(-2, 0): 1}, {(0, -2): 1}, {(-1, 0): 1})
        with pytest.raises(NotSmoothError, match="singular cross term") as err:
            decompose_quadrant(tensor)
        assert not any(c.ok for c in err.value.parity.components.values())

    def test_deep_axial_pole_rejected(self):
        with pytest.raises(NotSmoothError, match="dx\\^2 coefficient pulls back"):
            decompose_quadrant(make_quadrant_tensor({(-2, 0): 1}, 0, 0))

    def test_wrong_axis_pole_rejected(self):
        with pytest.raises(NotSmoothError, match="dx\\^2"):
            decompose_quadrant(make_quadrant_tensor({(0, -1): 1}, 0, 0))
        with pytest.raises(NotSmoothError, match="dy\\^2"):
            decompose_quadrant(make_quadrant_tensor(0, {(-1, 0): 1}, 0))

    @settings(max_examples=100)
    @given(
        jet1s(max_order=5),
        jet1s(max_order=5),
        polynomial_laurent2s(),
        polynomial_laurent2s(),
        polynomial_laurent2s(),
    )
    def test_round_trip(self, A, B, reg_a, reg_b, reg_c):
        tensor = build_quadrant(A, B, reg_a, reg_b, reg_c)
        d = decompose_quadrant(tensor, order=max(A.order, B.order))
        assert d.A.coeffs[: A.order + 1] == A.coeffs
        assert d.B.coeffs[: B.order + 1] == B.coeffs
        assert d.regular.a == reg_a
        assert d.regular.b == reg_b
        assert d.regular.c == reg_c
        assert d.reconstruct() == tensor

    @settings(max_examples=100)
    @given(
        jet1s(max_order=5),
        jet1s(max_order=5),
        polynomial_laurent2s(),
        polynomial_laurent2s(),
        polynomial_laurent2s(),
    )
    def test_split_equals_descent_of_square_pullback(self, A, B, reg_a, reg_b, reg_c):
        # the split read off the components against the paper's route: descend
        # the square-map pullback and split it at the axes
        tensor = build_quadrant(A, B, reg_a, reg_b, reg_c)
        d = decompose_quadrant(tensor)
        got = (
            {j: c for j, c in enumerate(d.A.coeffs) if c},
            {i: c for i, c in enumerate(d.B.coeffs) if c},
            terms_dict(d.regular.a),
            terms_dict(d.regular.b),
            terms_dict(d.regular.c),
        )
        assert got == descend_square_pullback(pullback_sq2(tensor))

    @settings(max_examples=100)
    @given(
        jet1s(max_order=4),
        jet1s(max_order=4),
        polynomial_laurent2s(max_terms=5),
    )
    def test_accepted_cross_is_pole_free(self, A, B, reg_c):
        tensor = build_quadrant(A, B, LaurentJet2(), LaurentJet2(), reg_c)
        d = decompose_quadrant(tensor)
        vx, vy = d.regular.c.valuations
        assert vx >= 0 and vy >= 0

    @settings(max_examples=60)
    @given(
        polynomial_laurent2s(max_terms=4),
        st.integers(-4, -1),
        st.integers(0, 3),
        nonzero_rationals,
    )
    def test_any_cross_pole_is_rejected(self, reg_c, bad_i, bad_j, coefficient):
        cross = reg_c + LaurentJet2({(bad_i, bad_j): coefficient})
        tensor = make_quadrant_tensor(0, 0, cross)
        with pytest.raises(NotSmoothError, match="singular cross term") as err:
            decompose_quadrant(tensor)
        dudv = err.value.parity.components["du*dv"]
        assert not dudv.smooth
        occupied = {s for s, n in dudv.masses.items() if n}
        assert occupied == {"odd-odd"}


class TestCheckGammaParity:
    def test_euclidean(self):
        report = check_gamma_parity(make_quadrant_tensor(1, 1, 0))
        assert report.components["du^2"].masses["even-even"] == 1
        assert report.components["dv^2"].masses["even-even"] == 1
        assert report.components["du*dv"].min_degrees is None
        assert report.rule_holds

    def test_smooth_cross(self):
        report = check_gamma_parity(make_quadrant_tensor(0, 0, {(1, 1): 1}))
        # oracle: 4uv * u^2 v^2 = 4 u^3 v^3
        assert report.components["du*dv"].masses == {
            "even-even": 0, "even-odd": 0, "odd-even": 0, "odd-odd": 1,
        }
        assert report.components["du*dv"].min_degrees == (3, 3)
        assert report.rule_holds

    def test_cross_pole_violates_rule(self):
        report = check_gamma_parity(make_quadrant_tensor(0, 0, {(-1, 0): 1}))
        assert report.components["du*dv"].masses["odd-odd"] == 1
        assert report.components["du*dv"].min_degrees == (-1, 1)
        assert not report.components["du*dv"].smooth
        assert not report.rule_holds

    def test_report_matches_direct_pullback(self):
        tensor = make_quadrant_tensor({(-1, 2): 1}, {(0, -1): 1}, {(1, 1): 1})
        report = check_gamma_parity(tensor)
        pulled = pullback_sq2(tensor)
        assert report.components["du^2"].min_degrees == pulled.a.valuations
        assert report.components["dv^2"].min_degrees == pulled.b.valuations
        assert report.components["du*dv"].min_degrees == pulled.c.valuations
