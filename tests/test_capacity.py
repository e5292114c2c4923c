import importlib

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cornerjet import (
    LaurentJet,
    capacity,
    pullback_halfline,
    verify_capacity,
)
from cornerjet.capacity import capacity_table

from oracles import make_boundary_plot, make_halfline_tensor


class TestCapacity:
    @pytest.mark.parametrize(
        "k, expected", [(0, 0), (1, 0), (2, 1), (3, 1), (4, 2), (8, 4)]
    )
    def test_floor_rule(self, k, expected):
        assert capacity(k) == expected

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            capacity(-1)

    @pytest.mark.parametrize("k", [2.5, 2.0])
    def test_non_integer_degree_rejected(self, k):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            capacity(k)


class TestVerifyCapacity:
    def test_simple_pole_two_tensor(self):
        report = verify_capacity(2, 1, 6)
        assert report.margins == (0, 2, 4, 6, 8, 10)
        assert report.admissible
        assert report.binding_m == 1

    def test_double_pole_two_tensor(self):
        report = verify_capacity(2, 2, 6)
        assert report.margins[0] == -2
        assert not report.admissible

    def test_double_pole_four_tensor(self):
        report = verify_capacity(4, 2, 6)
        assert report.margins == (0, 4, 8, 12, 16, 20)
        assert report.admissible

    def test_preconditions(self):
        with pytest.raises(ValueError):
            verify_capacity(-1, 0)
        with pytest.raises(ValueError):
            verify_capacity(2, -1)
        with pytest.raises(ValueError):
            verify_capacity(2, 1, m_max=0)

    @pytest.mark.parametrize("order", [2.5, 16.0, "16"])
    def test_order_is_an_integer(self, order):
        # read by pullback._read_order, as check_metric and the decompositions read it
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            verify_capacity(2, 1, 2, order)

    def test_germs_are_pulled_back_at_the_shortest_window(self, monkeypatch):
        # Each margin is checked against a valuation, which every window holds
        # exactly; an edit that pulls back at ``order`` again redoes 257
        # coefficients of work per germ at order 256 to read one number.
        # (``cornerjet.capacity`` is the function; the module comes from importlib.)
        capacity_module = importlib.import_module("cornerjet.capacity")
        pullback = capacity_module.pullback_halfline
        asked = []

        def recording(tensor, plot, order):
            asked.append(order)
            return pullback(tensor, plot, order)

        monkeypatch.setattr(capacity_module, "pullback_halfline", recording)
        verify_capacity(4, 3, 6, order=256)
        assert len(asked) == 6
        capacity_table(3)
        assert len(asked) > 6 and set(asked) == {0}

    @settings(deadline=None)
    @given(st.integers(0, 12), st.integers(0, 7), st.integers(1, 6), st.integers(0, 256))
    def test_report_does_not_depend_on_the_order(self, k, p, m_max, order):
        assert verify_capacity(k, p, m_max, order) == verify_capacity(k, p, m_max)

    @pytest.mark.parametrize("k, p", [(2.5, 1), (2, 1.5)])
    def test_non_integer_exponents_rejected(self, k, p):
        # refused when the tensor x^-p dx^k is built, before any pullback
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            verify_capacity(k, p)

    @pytest.mark.parametrize("k, p, m_max", [(2, 1, 2.5), (2, 1, 0.5), (-1, 0, 2.5), (2, 1, "2")])
    def test_non_integer_m_max_rejected_up_front(self, k, p, m_max):
        # read as an integer before the sign and size checks, like k and p
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            verify_capacity(k, p, m_max)

    def test_report_holds_integers(self):
        # a bool is an integer index, read as the int it stands for
        report = verify_capacity(True, 0, True)
        assert report == verify_capacity(1, 0, 1)
        assert (type(report.k), type(report.p)) == (int, int)


class TestCapacityTable:
    def test_reproduces_floor_table(self):
        assert capacity_table(4) == [(0, 0), (1, 0), (2, 1), (3, 1), (4, 2)]

    def test_degenerate(self):
        assert capacity_table(0) == [(0, 0)]

    @pytest.mark.parametrize("k_max", [2.5, -0.5, "2"])
    def test_non_integer_k_max_rejected(self, k_max):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            capacity_table(k_max)

    def test_negative_k_max_rejected(self):
        with pytest.raises(ValueError, match="k_max must be nonnegative"):
            capacity_table(-1)

    def test_frontier_matches_floor_up_to_eight(self):
        for k, frontier in capacity_table(8):
            assert frontier == capacity(k)


class TestOracleAgreement:
    def test_margins_match_pullback_valuations_exhaustively(self):
        for k in range(0, 9):
            for p in range(0, 6):
                report = verify_capacity(k, p, 6)
                tensor = make_halfline_tensor(k, LaurentJet(-p, [1]))
                for m in range(1, 7):
                    verdict = pullback_halfline(tensor, make_boundary_plot(m, 1))
                    assert verdict.witness.valuation == report.margins[m - 1]

    @given(st.integers(0, 8), st.integers(0, 5))
    def test_monotonicity(self, k, p):
        if verify_capacity(k, p, 6).admissible:
            assert verify_capacity(k + 1, p, 6).admissible
            if p > 0:
                assert verify_capacity(k, p - 1, 6).admissible

    @given(st.integers(0, 8), st.integers(0, 4))
    def test_binding_m_is_one_when_capacity_allows(self, k, p):
        report = verify_capacity(k, p, 6)
        if k >= 2 * p:
            assert report.binding_m == 1

    @given(st.integers(0, 14), st.integers(0, 14), st.sampled_from([1, 2, 6]))
    def test_capacity_rule(self, k, p, m_max):
        # the margin 2m(k - p) - k is smallest at m = 1 iff k >= p, and is
        # nonnegative there iff k >= 2p; otherwise it falls with m
        report = verify_capacity(k, p, m_max)
        assert report.binding_m == (1 if k >= p else m_max)
        assert report.admissible == (k >= 2 * p)
