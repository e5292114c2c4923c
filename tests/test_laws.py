"""The corner's symmetries as laws.

The swap sigma(x, y) = (y, x) and the dilations (x, y) -> (lam x, mu y) map
the quadrant to itself, and x -> lam x maps the half-line to itself; a tensor
is smooth exactly when its pullback along such a map is, and the singular
part moves with it.  A germ reparametrized by s(t) = t + t^2 is the same
curve, and the symmetric product of smooth tensors is smooth.  The maps are
built term by term in ``oracles``.
"""

from fractions import Fraction

from hypothesis import example, given, settings
import hypothesis.strategies as st

from cornerjet import (
    HalfLineTensor,
    LaurentJet,
    NotSmoothError,
    check_gamma_parity,
    decompose_halfline,
    decompose_quadrant,
    pullback_halfline,
    pullback_sq2,
)
from cornerjet.jets import Jet1, LaurentJet2
from cornerjet.tensors import QuadrantTensor

from conftest import nonzero_rationals, quadrant_tensors, rationals, unit_jet1s
from oracles import (
    dilate_halfline,
    dilate_jet,
    dilate_quadrant,
    laurent_product,
    make_boundary_plot,
    make_interior_plot,
    reparametrize,
    reparametrized_witness,
    singular_plus_regular,
    swap_quadrant,
)

scales = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=5)


def split(tensor):
    """The decomposition, or the set of component names its parity report fails."""
    try:
        return decompose_quadrant(tensor)
    except NotSmoothError as err:
        return frozenset(name for name, c in err.parity.components.items() if not c.ok)


_SWAPPED_NAMES = {"du^2": "dv^2", "dv^2": "du^2", "du*dv": "du*dv"}


class TestQuadrantLaws:
    @settings(max_examples=100, deadline=None)
    @given(quadrant_tensors())
    def test_swap(self, tensor):
        before, after = split(tensor), split(swap_quadrant(tensor))
        if isinstance(before, frozenset):
            assert after == {_SWAPPED_NAMES[name] for name in before}
        else:
            assert not isinstance(after, frozenset), after
            assert (after.A, after.B) == (before.B, before.A)
            assert after.regular == swap_quadrant(before.regular)

    @settings(max_examples=100, deadline=None)
    @given(quadrant_tensors(), scales, scales)
    def test_dilation(self, tensor, lam, mu):
        before, after = split(tensor), split(dilate_quadrant(tensor, lam, mu))
        if isinstance(before, frozenset):
            assert after == before
        else:
            assert not isinstance(after, frozenset), after
            assert after.A == dilate_jet(before.A, lam, mu)
            assert after.B == dilate_jet(before.B, mu, lam)
            assert after.regular == dilate_quadrant(before.regular, lam, mu)

    @settings(max_examples=100, deadline=None)
    @given(quadrant_tensors())
    def test_sectors(self, tensor):
        # every term of the (p, q) component lands in sector (p mod 2, q mod 2),
        # so a quadrant rejection is always a pole
        report = check_gamma_parity(tensor)
        assert all(c.sector_ok for c in report.components.values())
        # the square map's side: the exponents of each pulled-back term
        for (p, q), jet in pullback_sq2(tensor).components.items():
            assert all((i - p) % 2 == (j - q) % 2 == 0 for i, j, _ in jet.terms())

    def test_swap_exchanges_the_profiles(self):
        tensor = QuadrantTensor({
            (2, 0): LaurentJet2({(-1, 2): 1, (0, 0): 3}),
            (0, 2): LaurentJet2({(1, -1): 5}),
            (1, 1): LaurentJet2({(1, 2): 7}),
        })
        d, swapped = decompose_quadrant(tensor), decompose_quadrant(swap_quadrant(tensor))
        assert (str(d.A), str(d.B)) == ("t^2", "5*t")
        assert (str(swapped.A), str(swapped.B)) == ("5*t", "t^2")
        assert swapped.regular.a.is_zero and swapped.regular.b == LaurentJet2({(0, 0): 3})
        assert swapped.regular.c == LaurentJet2({(2, 1): 7})


@st.composite
def halfline_tensors(draw, max_degree=4):
    """coeff dx^k with k up to ``max_degree``, from a nonzero x^lo term on, with
    lo from floor(k/2) + 1 poles deep, one past the capacity, to x^2."""
    k = draw(st.integers(0, max_degree))
    lo = draw(st.integers(-1, 2)) - k // 2
    coeffs = [draw(nonzero_rationals)] + draw(st.lists(rationals, max_size=3))
    return HalfLineTensor(k, LaurentJet(lo, coeffs))


def smooth_along_boundary(tensor) -> bool:
    """Whether the pullbacks along t^(2m), m = 1, 2, 3, are all smooth."""
    return all(pullback_halfline(tensor, make_boundary_plot(m, 1), 2).is_smooth
               for m in (1, 2, 3))


# x^-(floor(k/2) + 1) dx^k for odd k: one pole past the capacity, and the
# witness along t^2 is t^-1, one short of smooth.
_PAST_CAPACITY = {k: HalfLineTensor(k, LaurentJet(-(k // 2) - 1, [1])) for k in (1, 3)}


class TestHalfLineLaws:
    @settings(max_examples=100, deadline=None)
    @given(nonzero_rationals, st.lists(rationals, min_size=1, max_size=5), scales)
    def test_dilation(self, c, regular, lam):
        tensor = singular_plus_regular(c, Jet1(regular))
        d = decompose_halfline(tensor)
        dilated = decompose_halfline(dilate_halfline(tensor, lam))
        assert dilated.c == lam * d.c
        assert dilated.regular == dilate_jet(d.regular, lam ** 2, lam)

    @settings(max_examples=100, deadline=None)
    @given(halfline_tensors(), st.integers(1, 3), unit_jet1s(max_order=3),
           st.sampled_from([2, 5, 16]))
    def test_reparametrization_along_boundary_germs(self, tensor, m, unit, order):
        germ = make_boundary_plot(m, unit)
        witness = pullback_halfline(tensor, germ, order).witness
        along_s = pullback_halfline(tensor, reparametrize(germ), order).witness
        assert along_s == reparametrized_witness(witness, tensor.degree, order)
        assert (along_s.valuation, along_s.coeffs[:1]) == (witness.valuation, witness.coeffs[:1])

    @settings(max_examples=50, deadline=None)
    @given(halfline_tensors(), st.fractions(min_value=Fraction(1, 3), max_value=3,
                                            max_denominator=4), st.sampled_from([2, 5]))
    def test_reparametrization_along_interior_germs(self, tensor, x0, order):
        germ = make_interior_plot(x0)
        witness = pullback_halfline(tensor, germ, order).witness
        along_s = pullback_halfline(tensor, reparametrize(germ), order).witness
        assert along_s == reparametrized_witness(witness, tensor.degree, order)

    @settings(max_examples=100, deadline=None)
    @given(halfline_tensors(max_degree=3), halfline_tensors(max_degree=3))
    @example(_PAST_CAPACITY[1], _PAST_CAPACITY[1])
    @example(_PAST_CAPACITY[3], _PAST_CAPACITY[1])
    def test_symmetric_product(self, f, g):
        # singularities accumulate: floor(k/2) + floor(l/2) <= floor((k + l)/2)
        product = HalfLineTensor(f.degree + g.degree, laurent_product(f.coeff, g.coeff))
        if smooth_along_boundary(f) and smooth_along_boundary(g):
            assert smooth_along_boundary(product)

    def test_symmetric_product_of_simple_poles(self):
        tau = HalfLineTensor(2, LaurentJet(-1, [1]))
        square = HalfLineTensor(4, laurent_product(tau.coeff, tau.coeff))
        assert smooth_along_boundary(tau) and smooth_along_boundary(square)
        assert not smooth_along_boundary(HalfLineTensor(2, square.coeff))
