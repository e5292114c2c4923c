from fractions import Fraction as F

import pytest
from hypothesis import given
import hypothesis.strategies as st

import cornerjet
from cornerjet import BoundaryGerm, LaurentJet, parse_plot
from cornerjet.jets import Jet1
from cornerjet.metric import DEFAULT_FAMILY
from cornerjet.plots import FlatGerm, InteriorGerm, PairGerm

from conftest import unit_jet1s
from oracles import make_boundary_plot, make_interior_plot, realize_jet


class TestMakeBoundaryPlot:
    def test_square_map(self):
        germ = make_boundary_plot(1, 1)
        assert realize_jet(germ, 4) == LaurentJet(2, [1])

    def test_quartic_contact(self):
        assert realize_jet(make_boundary_plot(2, 1), 6) == LaurentJet(4, [1])

    def test_unit_factor(self):
        germ = make_boundary_plot(1, Jet1([1, 1]))
        # oracle: t^2 * (1 + t) multiplied out by hand
        assert realize_jet(germ, 4) == LaurentJet(2, [1, 1])

    @pytest.mark.parametrize("m, unit", [(0, 1), (-3, 1), (1, -1), (1, 0)])
    def test_not_nonnegative(self, m, unit):
        with pytest.raises(ValueError, match="not certified nonnegative"):
            BoundaryGerm(m, Jet1([unit]))

    def test_unit_with_negative_constant_jet(self):
        with pytest.raises(ValueError, match="not certified nonnegative"):
            BoundaryGerm(1, Jet1([-1, 2]))

    @pytest.mark.parametrize("m", [1.5, F(3, 2), F(1)])
    def test_contact_half_order_is_an_integer(self, m):
        # t^(2m) with m = 1.5 is t^3, a curve that leaves the half-line
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            BoundaryGerm(m)


class TestRealizeJet:
    def test_interior(self):
        germ = make_interior_plot(1, Jet1([1, 1]))
        assert realize_jet(germ, 2) == LaurentJet(0, [1, 1])

    def test_interior_extends_polynomial_jet(self):
        germ = make_interior_plot(F(1, 2))
        jet = realize_jet(germ, 5)
        assert jet == LaurentJet(0, [F(1, 2), 1])

    def test_flat_has_no_jet(self):
        with pytest.raises(ValueError, match="no finite jet"):
            realize_jet(FlatGerm(), 4)

    def test_truncation_below_contact(self):
        with pytest.raises(ValueError, match="below the plot contact degree"):
            realize_jet(make_boundary_plot(3, 1), 4)

    def test_truncates_unit_tail(self):
        germ = make_boundary_plot(1, Jet1([1, 0, 0, 0, 1]))  # t^2 + t^6
        assert realize_jet(germ, 4) == LaurentJet(2, [1])

    @given(st.integers(1, 5), unit_jet1s())
    def test_boundary_realization_is_shifted_unit(self, m, unit):
        order = 2 * m + unit.order
        realized = realize_jet(make_boundary_plot(m, unit), order)
        assert realized == LaurentJet(2 * m, unit.coeffs)
        # structural nonnegativity: even valuation, positive leading term
        assert realized.valuation == 2 * m
        assert realized.valuation % 2 == 0
        assert realized.coeffs[0] > 0


class TestInteriorValidation:
    def test_base_point_positive(self):
        with pytest.raises(ValueError, match="positive"):
            InteriorGerm(Jet1([0, 1]))

    def test_jet_must_match_base_point(self):
        # the germ stores one base point; only the text form writes it twice
        with pytest.raises(ValueError, match="constant term"):
            parse_plot("interior(1; 2+t)")


class TestGermRecords:
    @pytest.mark.parametrize("build, message", [
        (lambda: BoundaryGerm(1, 1), "boundary unit must be a Jet1, not 1"),
        (lambda: InteriorGerm(1), "interior jet must be a Jet1, not 1"),
    ])
    def test_refuses_a_jet_of_another_type(self, build, message):
        with pytest.raises(TypeError, match=message):
            build()

    @pytest.mark.parametrize("px, py", [
        (1, 2),
        (BoundaryGerm(1), Jet1([1, 1])),
        ("flat", FlatGerm()),
    ])
    def test_pair_refuses_a_component_that_is_not_a_germ(self, px, py):
        # refused when built, not later inside the path pullback
        with pytest.raises(TypeError, match="pair component must be a plot germ"):
            PairGerm(px, py)

    def test_the_package_exports_the_record(self):
        assert "BoundaryGerm" in cornerjet.__all__
        assert "make_boundary_plot" not in cornerjet.__all__

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_unit_defaults_to_one(self, m):
        assert BoundaryGerm(m) == BoundaryGerm(m, Jet1([1])) == parse_plot("t^%d" % (2 * m))

    def test_base_point_is_the_jet_constant_term(self):
        germ = InteriorGerm(Jet1([F(3, 2), 1, 5]))
        assert germ.x0 == F(3, 2) and germ._fields == ("jet",)

    def test_metric_family_is_its_text_forms(self):
        texts = ["t^2", "t^4", "t^6",
                 "interior(1/2; 1/2+t)", "interior(1; 1+t)", "interior(2; 2+t)"]
        assert DEFAULT_FAMILY == tuple(parse_plot(s) for s in texts)
