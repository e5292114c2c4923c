import pytest
from hypothesis import given
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
        # read by the pullbacks that check each margin
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            verify_capacity(2, 1, 2, order)

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
