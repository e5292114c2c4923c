from fractions import Fraction as F

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cornerjet import (
    LaurentJet,
    NotSmoothError,
    check_metric,
    make_halfline_tensor,
    tau_sing,
)
from cornerjet.metric import TestPlotFamily
from cornerjet.plots import BoundaryGerm, InteriorGerm

from conftest import jet1s, nonzero_rationals


class TestCheckMetric:
    def test_singular_tensor_rejected(self):
        verdict = check_metric(tau_sing())
        assert not verdict.accepted
        w = verdict.witness
        assert isinstance(w.plot, BoundaryGerm) and w.plot.m == 1
        assert w.value == 4
        assert w.clause == "definiteness-zero-required"

    def test_flat_euclidean_accepted(self):
        assert check_metric(make_halfline_tensor(2, 1)).accepted

    def test_growing_coefficient_accepted(self):
        assert check_metric(make_halfline_tensor(2, LaurentJet(0, [1, 1]))).accepted

    def test_negative_metric_rejected_for_positivity(self):
        verdict = check_metric(make_halfline_tensor(2, LaurentJet(0, [-1])))
        assert not verdict.accepted
        assert verdict.witness.clause == "positivity"
        # first witness is the lowest boundary germ; its leading term is -4 t^2
        assert isinstance(verdict.witness.plot, BoundaryGerm)
        assert verdict.witness.leading == -4

    def test_interior_positivity_witness(self):
        # vanishing at x = 1/2 while fine at the boundary: x * dx^2
        verdict = check_metric(make_halfline_tensor(2, LaurentJet(1, [1, -3])))
        assert not verdict.accepted
        assert isinstance(verdict.witness.plot, InteriorGerm)

    def test_interior_definiteness_witness(self):
        # coefficient (x - 1)^2 vanishes at the interior point x = 1
        coeff = LaurentJet(0, [1, -2, 1])
        verdict = check_metric(make_halfline_tensor(2, coeff))
        assert not verdict.accepted
        w = verdict.witness
        assert isinstance(w.plot, InteriorGerm) and w.plot.x0 == 1
        assert w.value == 0
        assert w.clause == "definiteness-nonzero-required"

    def test_deep_pole_is_not_even_smooth(self):
        with pytest.raises(NotSmoothError, match="capacity exceeded"):
            check_metric(make_halfline_tensor(2, LaurentJet(-2, [1])))

    def test_requires_degree_two(self):
        with pytest.raises(ValueError, match="2-tensor"):
            check_metric(make_halfline_tensor(1, 1))

    def test_acceptance_is_heuristic_without_contact_order_one(self):
        # along t^(2m) the simple pole pulls back to 4 m^2 t^(2m-2), which
        # vanishes at 0 for m >= 2: only the m = 1 germ detects it
        family = TestPlotFamily(boundary_ms=(2, 3), interior_points=(F(3),))
        assert check_metric(tau_sing(), family).accepted

    def test_first_witness_uses_lowest_contact_order(self):
        family = TestPlotFamily(boundary_ms=(3, 1, 2), interior_points=(F(1),))
        verdict = check_metric(tau_sing(), family)
        assert not verdict.accepted
        assert verdict.witness.plot.m == 1

    @settings(max_examples=100)
    @given(nonzero_rationals, jet1s(max_order=8))
    def test_singular_exclusion(self, c, regular):
        g = c * tau_sing() + make_halfline_tensor(2, regular)
        verdict = check_metric(g)
        assert not verdict.accepted
        assert isinstance(verdict.witness.plot, BoundaryGerm)

    @settings(max_examples=60)
    @given(
        jet1s(max_order=6),
        st.fractions(min_value=F(1, 5), max_value=5, max_denominator=8),
    )
    def test_positive_scaling_invariance(self, regular, scale):
        g = make_halfline_tensor(2, regular)
        assert check_metric(g).accepted == check_metric(scale * g).accepted
