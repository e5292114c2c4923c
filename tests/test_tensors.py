from fractions import Fraction as F

import pytest

from cornerjet import LaurentJet, make_halfline_tensor, tau_sing
from cornerjet.jets import LaurentJet2
from cornerjet.tensors import QUADRANT_BASIS, basis_name, make_quadrant_tensor


class TestTauSing:
    def test_definition(self):
        t = tau_sing()
        assert t.coeff == LaurentJet(-1, [1])
        assert t.coeff.valuation == -1

    def test_degree(self):
        assert tau_sing().degree == 2

    def test_scalar_action(self):
        assert (3 * tau_sing()).coeff == LaurentJet(-1, [3])


class TestMakeHalfLineTensor:
    def test_pole_order(self):
        t = make_halfline_tensor(2, LaurentJet(-1, [1, 3, 1]))
        assert t.pole_order == 1

    def test_one_form(self):
        t = make_halfline_tensor(1, 1)
        assert t.degree == 1 and t.coeff == LaurentJet(0, [1])

    def test_function(self):
        t = make_halfline_tensor(0, LaurentJet(2, [1]))
        assert t.degree == 0 and t.pole_order == 0

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            make_halfline_tensor(-1, 1)

    def test_addition_requires_same_degree(self):
        with pytest.raises(ValueError, match="different degree"):
            make_halfline_tensor(2, 1) + make_halfline_tensor(1, 1)

    def test_addition_and_scaling(self):
        t = F(1, 2) * tau_sing() + make_halfline_tensor(2, LaurentJet(0, [3, 1]))
        assert t.coeff == LaurentJet(-1, [F(1, 2), 3, 1])


class TestMakeQuadrantTensor:
    def test_both_axial_poles(self):
        t = make_quadrant_tensor({(-1, 2): 1}, {(0, -1): 1}, {(1, 1): 1})
        assert t.a.valuations == (-1, 2)
        assert t.b.valuations == (0, -1)
        assert t.c == LaurentJet2({(1, 1): 1})

    def test_euclidean_restriction(self):
        t = make_quadrant_tensor(1, 1, 0)
        assert t.a == LaurentJet2({(0, 0): 1})
        assert t.c.is_zero

    def test_singular_cross_candidate_is_storable(self):
        t = make_quadrant_tensor(0, 0, {(-1, 0): 1})
        assert t.c.valuations == (-1, 0)

    def test_valuation_bound(self):
        with pytest.raises(ValueError, match="below the configured minimum"):
            make_quadrant_tensor({(-5, 0): 1}, 0, 0)
        with pytest.raises(ValueError, match="below the configured minimum"):
            make_quadrant_tensor(0, {(0, -6): 1}, 0)
        with pytest.raises(ValueError, match=r"^dx\*dy coefficient valuation"):
            make_quadrant_tensor(0, 0, {(0, -5): 1})


class TestQuadrantBasis:
    def test_components_follow_the_fields(self):
        t = make_quadrant_tensor({(-1, 2): 1}, {(0, -1): 1}, {(1, 1): 1})
        assert list(t.components()) == [((2, 0), t.a), ((0, 2), t.b), ((1, 1), t.c)]
        assert [basis for basis, _ in t.components()] == list(QUADRANT_BASIS)

    def test_basis_names(self):
        assert [basis_name(b, ("dx", "dy")) for b in QUADRANT_BASIS] == ["dx^2", "dy^2", "dx*dy"]
        assert [basis_name(b, ("du", "dv")) for b in QUADRANT_BASIS] == ["du^2", "dv^2", "du*dv"]
