
from fractions import Fraction as F

import pytest

import cornerjet
from cornerjet import (
    LaurentJet,
    decompose_quadrant,
    parse_tensor,
    pullback_sq2,
    tau_sing,
)
from cornerjet.jets import Jet1, LaurentJet2
from cornerjet.tensors import QUADRANT_BASIS, HalfLineTensor, QuadrantTensor, basis_name

from oracles import make_halfline_tensor, make_quadrant_tensor


class TestTauSing:
    def test_definition(self):
        t = tau_sing()
        assert t.coeff == LaurentJet(-1, [1])
        assert t.coeff.valuation == -1

    def test_degree(self):
        assert tau_sing().degree == 2


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



class TestTensorRecords:
    @pytest.mark.parametrize("coeff", [1, F(1, 2), Jet1([1]), LaurentJet2({(0, 0): 1})],
                             ids=["int", "fraction", "jet1", "laurent2"])
    def test_halfline_coefficient_is_a_laurent_jet(self, coeff):
        # refused when built, not at the first read of its terms
        with pytest.raises(TypeError, match="coefficient must be a LaurentJet"):
            HalfLineTensor(2, coeff)

    @pytest.mark.parametrize("bad", [1, LaurentJet(0, [1])], ids=["int", "laurent"])
    @pytest.mark.parametrize("basis", QUADRANT_BASIS, ids=["a", "b", "c"])
    def test_quadrant_component_is_a_laurent_jet2(self, basis, bad):
        components = dict.fromkeys(QUADRANT_BASIS, LaurentJet2())
        components[basis] = bad
        with pytest.raises(TypeError, match=r"component \(%d, %d\) must be a LaurentJet2" % basis):
            QuadrantTensor(components)

    def test_the_package_exports_the_record(self):
        assert "HalfLineTensor" in cornerjet.__all__
        assert "make_halfline_tensor" not in cornerjet.__all__
        assert cornerjet.HalfLineTensor(2, LaurentJet(-1, [1])) == tau_sing()


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


_A, _B, _C = LaurentJet2({(-1, 2): 1}), LaurentJet2({(0, -1): 1}), LaurentJet2({(1, 1): 1})


class TestQuadrantBasis:
    @pytest.mark.parametrize("build", [
        lambda: parse_tensor("(y^2/x)*dx^2 + (1/y)*dy^2 + x*y*dx*dy", "quadrant"),
        lambda: parse_tensor("0*dx^2", "quadrant"),
        lambda: make_quadrant_tensor(_A, _B, _C),
        lambda: pullback_sq2(make_quadrant_tensor(_A, _B, _C)),
        lambda: decompose_quadrant(make_quadrant_tensor(_A, _B, _C)).regular,
        lambda: decompose_quadrant(make_quadrant_tensor(_A, _B, _C)).reconstruct(),
    ], ids=["parse", "parse-zero", "make", "pullback-sq2", "regular", "reconstruct"])
    def test_every_tensor_is_keyed_by_the_basis(self, build):
        t = build()
        assert tuple(t.components) == QUADRANT_BASIS
        assert (t.a, t.b, t.c) == (t.components[2, 0], t.components[0, 2], t.components[1, 1])

    def test_the_degree_two_names_read_the_map(self):
        t = make_quadrant_tensor(_A, _B, _C)
        assert t.components == {(2, 0): _A, (0, 2): _B, (1, 1): _C}
        assert (t.a, t.b, t.c) == (_A, _B, _C)
        assert decompose_quadrant(t).reconstruct() == t

    @pytest.mark.parametrize("components", [
        {(2, 0): _A, (0, 2): _B},
        {(2, 0): _A, (0, 2): _B, (1, 1): _C, (3, 0): _A},
        {(0, 2): _B, (2, 0): _A, (1, 1): _C},
        {(2, 0): _A, (0, 2): _B, (0, 0): _C},
        {},
    ], ids=["missing", "extra", "reordered", "foreign", "empty"])
    def test_any_other_key_set_is_refused(self, components):
        message = r"keyed \(\(2, 0\), \(0, 2\), \(1, 1\)\) in that order"
        with pytest.raises(ValueError, match=message):
            QuadrantTensor(components)

    def test_equal_tensors_hash_alike(self):
        t = make_quadrant_tensor(_A, _B, _C)
        assert hash(t) == hash(QuadrantTensor(dict(zip(QUADRANT_BASIS, (_A, _B, _C)))))
        assert t in {parse_tensor("(y^2/x)*dx^2 + (1/y)*dy^2 + x*y*dx*dy", "quadrant")}

    def test_basis_names(self):
        assert [basis_name(b, ("dx", "dy")) for b in QUADRANT_BASIS] == ["dx^2", "dy^2", "dx*dy"]
        assert [basis_name(b, ("du", "dv")) for b in QUADRANT_BASIS] == ["du^2", "dv^2", "du*dv"]
