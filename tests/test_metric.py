from fractions import Fraction as F

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cornerjet import (
    LaurentJet,
    NotSmoothError,
    check_metric,
    pullback_halfline,
    tau_sing,
)
from cornerjet.metric import DEFAULT_FAMILY
from cornerjet.plots import BoundaryGerm, InteriorGerm

from conftest import jet1s, nonzero_rationals, rationals
from oracles import make_boundary_plot, make_halfline_tensor, singular_plus_regular

ORDERS = (2, 16, 64, 256)


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
        # vanishes at 0 for m >= 2: only the m = 1 germ detects it, and every
        # other germ of the family passes its clause
        for germ in DEFAULT_FAMILY:
            witness = pullback_halfline(tau_sing(), germ).witness
            if isinstance(germ, BoundaryGerm):
                assert witness == LaurentJet(2 * germ.m - 2, [4 * germ.m ** 2])
                assert (witness.coefficient(0) == 0) == (germ.m != 1)
            else:
                assert witness.coefficient(0) > 0
        assert check_metric(tau_sing()).witness.plot.m == 1

    def test_first_witness_uses_lowest_contact_order(self):
        # boundary germs by increasing contact order, then interior points
        assert [g.m for g in DEFAULT_FAMILY[:3]] == [1, 2, 3]
        assert all(isinstance(g, InteriorGerm) for g in DEFAULT_FAMILY[3:])
        # -dx^2 fails positivity on every germ; the witness is the first one
        verdict = check_metric(make_halfline_tensor(2, -1))
        assert verdict.witness.plot == DEFAULT_FAMILY[0]

    @settings(max_examples=100)
    @given(nonzero_rationals, jet1s(max_order=8))
    def test_singular_exclusion(self, c, regular):
        g = singular_plus_regular(c, regular)
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
        scaled = make_halfline_tensor(2, regular * scale)
        assert check_metric(g).accepted == check_metric(scaled).accepted


@st.composite
def metric_candidates(draw):
    """f(x) dx^2 with at most a simple pole: mixed signs, or only zero and positive coefficients."""
    coefficients = draw(st.sampled_from([
        rationals,
        st.one_of(st.just(F(0)), st.fractions(min_value=F(1, 12), max_value=10, max_denominator=12)),
    ]))
    coeffs = draw(st.lists(coefficients, min_size=1, max_size=7))
    return make_halfline_tensor(2, LaurentJet(draw(st.integers(-1, 3)), coeffs))


class TestMetricWindow:
    """The verdict reads two witness coefficients that every window holds."""

    @pytest.mark.parametrize("order", [2.5, "16"])
    @pytest.mark.parametrize("coeff", [LaurentJet(0, [1, 1]), LaurentJet(-2, [1])],
                             ids=["metric", "double-pole"])
    def test_order_is_an_integer(self, coeff, order):
        # read also where the verdict needs no window beyond the shortest
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            check_metric(make_halfline_tensor(2, coeff), order=order)

    @pytest.mark.parametrize("coeff", [LaurentJet(0, [1, 1]), LaurentJet(-1, [1]),
                                       LaurentJet(-2, [1])],
                             ids=["metric", "rejected", "double-pole"])
    def test_negative_order_is_refused(self, coeff):
        # the decompositions' reader and text: refused before any germ is pulled back
        with pytest.raises(ValueError, match="^order -5 is below the minimum 0$"):
            check_metric(make_halfline_tensor(2, coeff), order=-5)

    @settings(max_examples=80, deadline=None)
    @given(metric_candidates())
    def test_verdict_does_not_depend_on_the_order(self, g):
        verdicts = [check_metric(g, order=o) for o in ORDERS]
        assert all(v == verdicts[0] for v in verdicts)

    @pytest.mark.parametrize("order", ORDERS)
    def test_double_pole_witness_follows_the_order(self, order):
        # 1/x^2 + 1/x + 1 + x + ... along t^2 is 4 t^-2 (1 + t^2 + t^4 + ...):
        # nonzero at every even degree, so the window shows in the witness.
        g = make_halfline_tensor(2, LaurentJet(-2, [1] * 200))
        with pytest.raises(NotSmoothError, match="capacity exceeded") as err:
            check_metric(g, order=order)
        witness = err.value.verdict.witness
        assert witness.valuation == -2
        assert len(witness.coeffs) == order + 1
        assert witness == pullback_halfline(g, make_boundary_plot(1, 1), order).witness

    def test_accepted_metric_asks_only_for_the_shortest_window(self, monkeypatch):
        # An edit that pulls the germs back at ``order`` again would redo the
        # 257-coefficient witness work at order 256 for two coefficients.
        g = make_halfline_tensor(2, LaurentJet(0, [1, 0, 1]))
        asked = []

        def recording(tensor, plot, order):
            asked.append(order)
            return pullback_halfline(tensor, plot, order)

        monkeypatch.setattr("cornerjet.metric.pullback_halfline", recording)
        assert check_metric(g, order=256).accepted
        assert len(asked) == len(DEFAULT_FAMILY)
        assert max(asked) == 0
