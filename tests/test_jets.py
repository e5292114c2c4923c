from fractions import Fraction as F

import pytest
from hypothesis import given

from cornerjet import (
    LaurentJet,
    check_gamma_parity,
    check_metric,
    decompose_halfline,
    decompose_quadrant,
    glaeser_landau_check,
    parse_plot,
    parse_tensor,
    pullback_halfline,
    pullback_sq2,
    tau_sing,
    verify_capacity,
)
from cornerjet.decompose import ComponentParity
from cornerjet.jets import Jet1, LaurentJet2, Record, parity_masses, whitney_descend
from cornerjet.metric import MetricVerdict, MetricWitness
from cornerjet.numeric import SampledFunction
from cornerjet.plots import BoundaryGerm, FlatGerm, InteriorGerm, PairGerm
from cornerjet.pullback import SmoothnessVerdict, Status, _derivative, _divide
from cornerjet.tensors import (
    QUADRANT_BASIS,
    HalfLineTensor,
    QuadrantTensor,
)

from conftest import jet1s, laurent_jets, laurent2s, nonzero_laurent_jets
from oracles import (
    compose,
    make_boundary_plot,
    make_halfline_tensor,
    make_interior_plot,
    make_quadrant_tensor,
    schoolbook_product,
)
from test_kernel import divide, scaled, unscaled
from test_kernel import times as times_through


def times(a: LaurentJet, b: LaurentJet) -> LaurentJet:
    """The full product a * b, by the pullback's truncated product."""
    return times_through(a, b, (a.degree or 0) + (b.degree or 0))


def derivative(jet: LaurentJet) -> LaurentJet:
    """The pullback's curve derivative, read back as a jet."""
    e, s = scaled(jet)
    return unscaled(_derivative(s), e)


def naive_compose(outer, inner, order: int) -> dict:
    """Independent oracle: accumulate outer_k * inner^k by repeated products."""
    total: dict = {}
    power = {0: F(1)}
    for k in range(max(outer, default=0) + 1):
        for e, c in power.items():
            if e <= order:
                total[e] = total.get(e, F(0)) + outer.get(k, 0) * c
        power = schoolbook_product(power, inner)
    return {e: c for e, c in total.items() if c != 0}


class TestCompose:
    def test_linear_outer(self):
        # 1 + x along x = t^2, through t^4
        assert compose({0: 1, 1: 1}, {2: 1}, 4) == {0: 1, 2: 1}

    def test_monomial_case(self):
        # x^2 along x = 2t, through t^3
        assert compose({2: 1}, {1: 2}, 3) == {2: 4}

    def test_exponential_prefix_in_t_squared(self):
        outer = {0: 1, 1: 1, 2: F(1, 2), 3: F(1, 6)}
        expected = {0: 1, 2: 1, 4: F(1, 2), 6: F(1, 6)}
        assert compose(outer, {2: 1}, 6) == expected
        assert naive_compose(outer, {2: 1}, 6) == expected

    def test_requires_vanishing_constant_term(self):
        with pytest.raises(ValueError, match="vanishing constant term"):
            compose({0: 1, 1: 1}, {0: 1, 1: 1}, 1)

    @given(jet1s(max_order=5), jet1s(min_order=1, max_order=5))
    def test_matches_naive_oracle(self, outer, inner):
        outer = dict(enumerate(outer.coeffs))
        order, inner = inner.order, dict(enumerate(inner.coeffs))
        inner[0] = F(0)
        assert compose(outer, inner, order) == naive_compose(outer, inner, order)


class TestDifferentiate:
    """The curve derivative of the pullback, on the polynomials it is given."""

    def test_square(self):
        assert derivative(LaurentJet(0, [0, 0, 1])) == LaurentJet(1, [2])

    def test_quadratic(self):
        assert derivative(LaurentJet(0, [1, 3, 5])) == LaurentJet(0, [3, 10])

    def test_sine_prefix(self):
        jet = LaurentJet(0, [0, 1, 0, F(-1, 6), 0, F(1, 120)])
        assert derivative(jet) == LaurentJet(0, [1, 0, F(-1, 2), 0, F(1, 24)])

    def test_constant_has_zero_derivative(self):
        assert derivative(LaurentJet(0, [7])).is_zero

    @given(laurent_jets())
    def test_shift_oracle(self, jet):
        derived = derivative(jet)
        for d in range(jet.valuation - 1, jet.valuation + len(jet.coeffs) + 1):
            assert derived.coefficient(d - 1) == d * jet.coefficient(d)


class TestLaurentDivide:
    """The pullback's one series division, fraction-free on integers."""

    def test_simple_pole_cancellation(self):
        num = LaurentJet(2, [4])
        den = LaurentJet(2, [1])
        assert divide(num, den) == LaurentJet(0, [4])

    def test_positive_valuation(self):
        assert divide(LaurentJet(6, [16]), LaurentJet(4, [1])) == LaurentJet(2, [16])

    def test_negative_valuation(self):
        assert divide(LaurentJet(2, [4]), LaurentJet(4, [1])) == LaurentJet(-2, [4])

    def test_zero_denominator(self):
        # The divisor is read from its valuation: a zero there cannot divide.
        with pytest.raises(ZeroDivisionError):
            _divide([1], [0, 1], 2, F(1))

    def test_nonterminating_quotient_window(self):
        # 1 / (1 - t) to five coefficients
        q = divide(LaurentJet(0, [1]), LaurentJet(0, [1, -1]), terms=5)
        assert q == LaurentJet(0, [1, 1, 1, 1, 1])

    @given(nonzero_laurent_jets(), nonzero_laurent_jets())
    def test_multiply_back(self, a, b):
        assert divide(times(a, b), b) == a


class TestWhitneyDescend:
    def test_reindexing(self):
        assert whitney_descend(Jet1([0, 0, 4])) == Jet1([0, 4])

    def test_two_terms(self):
        assert whitney_descend(Jet1([0, 0, 2, 0, 1])) == Jet1([0, 2, 1])

    def test_odd_jet_rejected(self):
        with pytest.raises(ValueError, match="degree 3"):
            whitney_descend(Jet1([0, 0, 0, 1]))

    @given(jet1s(min_order=1, max_order=6))
    def test_round_trip_through_square(self, h):
        n = 2 * h.order
        g = compose(dict(enumerate(h.coeffs)), {2: 1}, n)
        assert whitney_descend(Jet1([g.get(d, 0) for d in range(n + 1)])) == h

    def test_round_trip_order_zero(self):
        g = compose({0: 5}, {}, 0)
        assert whitney_descend(Jet1([g.get(0, 0)])) == Jet1([5])


class TestParityDecompose2:
    """The parity split of a two-variable jet, read through ``parity_masses``."""

    def test_even_even_only(self):
        assert parity_masses(LaurentJet2({(2, 2): 1})) == {
            "even-even": 1, "even-odd": 0, "odd-even": 0, "odd-odd": 0,
        }

    def test_odd_odd_only(self):
        assert parity_masses(LaurentJet2({(1, 1): 1})) == {
            "even-even": 0, "even-odd": 0, "odd-even": 0, "odd-odd": 1,
        }

    def test_mixed_split(self):
        j = LaurentJet2({(2, 0): 1, (1, 1): 1, (0, 3): 1})
        assert parity_masses(j) == {
            "even-even": 1, "even-odd": 1, "odd-even": 0, "odd-odd": 1,
        }

    @given(laurent2s(min_valuation=-3, max_degree=5))
    def test_parts_sum_and_are_disjoint(self, j):
        masses = parity_masses(j)
        terms = list(j.terms())
        assert sum(masses.values()) == len(terms)
        parity = ("even", "odd")
        for p in (0, 1):
            for q in (0, 1):
                part = j.restrict(lambda i, jj: i % 2 == p and jj % 2 == q)
                assert masses["%s-%s" % (parity[p], parity[q])] == len(list(part.terms()))


class TestRingLaws:
    @given(laurent_jets(), laurent_jets(), laurent_jets())
    def test_laurent_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert times(a, b) == times(b, a)
        assert times(a, b + c) == times(a, b) + times(a, c)

    @given(laurent_jets(), laurent_jets())
    def test_laurent_sum(self, a, b):
        total = a + b
        degrees = [jet.valuation for jet in (a, b)] + [jet.degree or 0 for jet in (a, b)]
        for d in range(min(degrees) - 1, max(degrees) + 2):
            assert total.coefficient(d) == a.coefficient(d) + b.coefficient(d)
        assert total == b + a
        assert a + LaurentJet() == a == LaurentJet() + a
        zero = a + (-1) * a
        assert (zero.valuation, zero.coeffs) == (0, ()) and zero == LaurentJet()

    @given(laurent_jets(), laurent_jets())
    def test_leibniz(self, a, b):
        assert derivative(times(a, b)) == times(derivative(a), b) + times(a, derivative(b))

    @pytest.mark.parametrize(
        "jet", [Jet1([1, F(1, 2)]), LaurentJet(-1, [2, 3]), LaurentJet2({(-1, 2): 3})]
    )
    def test_star_only_scales(self, jet):
        assert jet * 2 == 2 * jet == jet * F(2)
        with pytest.raises(TypeError):
            jet * jet
        with pytest.raises(TypeError):
            jet ** 2


class TestCanonicalForms:
    def test_laurent_strips_leading_and_trailing_zeros(self):
        assert LaurentJet(-2, [0, 1, 0]) == LaurentJet(-1, [1])

    def test_zero_jet_is_canonical(self):
        jet = LaurentJet(5, [0, 0])
        assert jet.valuation == 0 and jet.coeffs == ()
        assert jet == LaurentJet()

    def test_scaling_by_zero_is_the_zero_jet(self):
        assert LaurentJet(-1, [1, 2]) * 0 == LaurentJet() == 0 * LaurentJet(3, [5])
        assert LaurentJet(-1, [1]) * F(0) == LaurentJet()

    def test_no_float_coefficients(self):
        with pytest.raises(TypeError, match="floating-point"):
            Jet1([0.5])
        with pytest.raises(TypeError, match="floating-point"):
            LaurentJet(0, [1.0])

    @pytest.mark.parametrize("build", [
        lambda: LaurentJet(1.7, [1]),
        lambda: LaurentJet(F(1), [1]),
        lambda: LaurentJet2({(1.5, 0): 1}),
        lambda: LaurentJet2({(0, F(-1)): 1}),
        lambda: LaurentJet(1.7, []),
        lambda: LaurentJet(1.7, [0]),
        lambda: LaurentJet2({(1.5, 0): 0}),
        lambda: HalfLineTensor(2.5, LaurentJet(-1, [1])),
        lambda: make_halfline_tensor(2.5, LaurentJet(-1, [1])),
    ], ids=["laurent-float", "laurent-fraction", "laurent2-float", "laurent2-fraction",
            "laurent-float-empty", "laurent-float-zero", "laurent2-float-zero",
            "halfline-degree-float", "make-halfline-degree-float"])
    def test_exponents_are_integers_not_truncated(self, build):
        # int() would cut 1.7 down to 1; an exponent must be an integer already,
        # also where a zero coefficient leaves it unused
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            build()

    def test_jet1_stores_its_constant_term(self):
        with pytest.raises(ValueError, match="at least its constant term"):
            Jet1(())

    def test_laurent_jets_print_as_sums(self):
        assert str(LaurentJet(-1, [F(1, 2), 0, -3])) == "1/2*x^-1 - 3*x"
        assert str(LaurentJet()) == "0"
        assert str(LaurentJet2({(-1, 2): 1, (0, 0): F(1, 2)})) == "x^-1*y^2 + 1/2"
        assert str(LaurentJet2()) == "0"

    def test_coefficient_lookup(self):
        jet = LaurentJet(-1, [1, 0, 3])
        assert jet.coefficient(-1) == 1
        assert jet.coefficient(0) == 0
        assert jet.coefficient(1) == 3
        assert jet.coefficient(-5) == 0


class TestLaurentJet2:
    def test_tight_valuations(self):
        j = LaurentJet2({(-1, 2): 1, (0, -1): 2})
        assert j.valuations == (-1, -1)
        assert list(j.terms()) == [(-1, 2, 1), (0, -1, 2)]

    def test_hash_ignores_insertion_order(self):
        terms = {(-1, 2): 1, (0, 0): F(1, 2), (3, 1): -7}
        backwards = LaurentJet2(dict(reversed(terms.items())))
        assert backwards == LaurentJet2(terms)
        assert hash(backwards) == hash(LaurentJet2(terms))

    def test_zero_coefficients_dropped(self):
        assert LaurentJet2({(1, 1): 0}) == LaurentJet2()
        assert LaurentJet2({(1, 1): 0}).is_zero

    def test_slices(self):
        j = LaurentJet2({(-1, 0): 2, (-1, 2): 5, (3, 1): 7})
        assert j.slice_x(-1) == LaurentJet(0, [2, 0, 5])
        assert j.slice_y(1) == LaurentJet(3, [7])
        assert j.slice_x(10).is_zero

    def test_laurent_jet_from_sparse_terms(self):
        assert LaurentJet.from_terms({-2: F(1), 1: F(3)}) == LaurentJet(-2, [1, 0, 0, 3])
        assert LaurentJet.from_terms({4: F(0), 5: F(2)}) == LaurentJet(5, [2])
        assert LaurentJet.from_terms({}) == LaurentJet()

    def test_parity_masses(self):
        j = LaurentJet2({(-1, 1): 1, (0, 0): 2, (2, 4): 3, (1, 0): 4})
        assert parity_masses(j) == {
            "even-even": 2,
            "even-odd": 0,
            "odd-even": 1,
            "odd-odd": 1,
        }


# One instance of every value type of the package.
_QUADRANT = make_quadrant_tensor({(-1, 2): 1}, {(0, -1): 1}, {(1, 1): 1})
_BOUNDARY = make_boundary_plot(1, 1)
_METRIC = check_metric(tau_sing())
_DECOMPOSITION = decompose_halfline(parse_tensor("(1/x + 3 - x/2)*dx^2"), order=1)
_PARITY = check_gamma_parity(_QUADRANT)
_SAMPLED = SampledFunction([0, 0, 1], (-1, 1))
_VERDICT = pullback_halfline(tau_sing(), _BOUNDARY, order=2)
_CAPACITY = verify_capacity(2, 1, m_max=3)
VALUES = [
    Jet1([1, F(1, 2)]),
    LaurentJet(-1, [1, 3]),
    LaurentJet2({(-1, 2): 1, (0, 0): F(1, 2)}),
    tau_sing(),
    _QUADRANT,
    _DECOMPOSITION.trace,
    _DECOMPOSITION,
    make_interior_plot(2),
    _BOUNDARY,
    FlatGerm(),
    PairGerm(_BOUNDARY, _BOUNDARY),
    _METRIC.witness,
    _METRIC,
    _CAPACITY,
    _VERDICT,
    _PARITY.components["du^2"],
    _PARITY,
    decompose_quadrant(_QUADRANT),
    _SAMPLED,
    glaeser_landau_check(_SAMPLED),
]
# Types with their own canonicalizing constructors; the rest bind their fields.
JETS = (Jet1, LaurentJet, LaurentJet2)
RECORDS = [v for v in VALUES if not isinstance(v, JETS)]


def _ids(value):
    return type(value).__name__


def _fields(value) -> list:
    return [getattr(value, name) for name in type(value)._fields]


class TestValueTypes:
    def test_every_value_type_is_listed(self):
        types = {type(v) for v in VALUES}
        assert len(types) == len(VALUES) == 20
        assert types == set(Record.__subclasses__())

    @pytest.mark.parametrize("value", VALUES, ids=_ids)
    def test_assignment_and_del_raise(self, value):
        name = (type(value)._fields or ("anything",))[0]
        before = repr(value)
        with pytest.raises(AttributeError, match="immutable"):
            setattr(value, name, 0)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(value, name)
        assert repr(value) == before

    @pytest.mark.parametrize("value", VALUES, ids=_ids)
    def test_equal_only_to_the_same_type_with_equal_fields(self, value):
        copy = type(value)(*_fields(value))
        assert copy == value and not copy != value
        assert hash(copy) == hash(value)
        assert value != tuple(_fields(value))
        assert value.__eq__(object()) is NotImplemented

    @pytest.mark.parametrize("read", [
        lambda: make_quadrant_tensor(1, 1, 0).components,
        lambda: _PARITY.components,
        lambda: _PARITY.components["du^2"].masses,
    ], ids=["QuadrantTensor.components", "ParityReport.components", "ComponentParity.masses"])
    def test_mapping_fields_are_read_only(self, read):
        mapping = read()
        key = next(iter(mapping))
        with pytest.raises(AttributeError):
            mapping.pop(key)
        with pytest.raises(TypeError):
            mapping[key] = mapping[key]
        assert read() == mapping and len(mapping) == len(read())

    def test_mapping_fields_do_not_alias_the_callers_dict(self):
        components = dict(_QUADRANT.components)
        tensor = QuadrantTensor(components)
        before = hash(tensor)
        components.pop((1, 1))
        assert tuple(tensor.components) == QUADRANT_BASIS and hash(tensor) == before
        masses = dict(_PARITY.components["du^2"].masses)
        parity = ComponentParity("even-even", masses, None, True, True, True)
        masses["odd-odd"] = 7
        assert parity.masses["odd-odd"] == 0

    def test_equality_across_types(self):
        jet = Jet1([1, 1])
        assert InteriorGerm(jet) != BoundaryGerm(1, jet)
        pulled = pullback_sq2(_QUADRANT)
        assert pulled != (pulled.a, pulled.b, pulled.c)
        assert FlatGerm() == FlatGerm() and FlatGerm() != ()

    @pytest.mark.parametrize("value", RECORDS, ids=_ids)
    def test_binding_values(self, value):
        cls, names, values = type(value), type(value)._fields, _fields(value)
        assert cls(**dict(zip(names, values))) == value
        with pytest.raises(TypeError, match="takes %d values, %d given" % (len(names), len(names) + 1)):
            cls(*values, 0)
        with pytest.raises(TypeError, match="an unknown value for 'nonexistent'"):
            cls(*values, nonexistent=0)
        if names:
            with pytest.raises(TypeError, match="a second value for %r" % names[0]):
                cls(*values, **{names[0]: values[0]})
            with pytest.raises(TypeError, match="missing a value for %r" % names[0]):
                cls()

    def test_defaults(self):
        assert SmoothnessVerdict(Status.SMOOTH) == SmoothnessVerdict(Status.SMOOTH, None, 0, None)
        verdict = SmoothnessVerdict(Status.POLE, pole_order=2)
        assert (verdict.witness, verdict.pole_order, verdict.vanishing_order) == (None, 2, None)
        assert MetricVerdict(True).witness is None
        assert MetricWitness(_BOUNDARY, F(4), "clause").leading is None
        assert (_SAMPLED.grid_n, _SAMPLED.squares) == (1024, None)

    @pytest.mark.parametrize("build, message", [
        (lambda: HalfLineTensor(-1, LaurentJet()), "degree must be nonnegative"),
        (lambda: InteriorGerm(Jet1([0, 1])), "base point must be positive"),
        (lambda: parse_plot("interior(1; 2+t)"), "must equal the base point"),
        (lambda: BoundaryGerm(0, Jet1([1])), "not certified nonnegative"),
        (lambda: BoundaryGerm(1, Jet1([0])), "not certified nonnegative"),
        (lambda: SampledFunction((F(1),), (F(1), F(0))), "a < b"),
        (lambda: SampledFunction((F(1),), (F(0), F(1)), 15), "at least 16"),
        (lambda: SampledFunction((F(1),), (F(0), F(10**400))), "interval endpoint beyond"),
        (lambda: SampledFunction((F(10**400),), (F(0), F(1))), "coefficient beyond"),
        (lambda: SampledFunction((F(1),), (F(0), F(1)), squares=((F(1), F(10**400)),)),
         "coefficient beyond"),
    ])
    def test_post_init_checks(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize("field, build, value, use", [
        ("degree", lambda n: HalfLineTensor(n, LaurentJet(-1, [1])), 2,
         lambda t: pullback_halfline(t, _BOUNDARY, 4)),
        ("m", BoundaryGerm, 2, lambda g: pullback_halfline(tau_sing(), g, 4)),
        ("grid_n", lambda n: SampledFunction([0, 0, 1], (-1, 1), n), 32,
         lambda f: f.grid()),
    ])
    def test_int_fields_hold_the_integer_they_check(self, field, build, value, use):
        # a field annotated int is bound as operator.index reads it
        class Index:
            def __index__(self):
                return value

        record = build(Index())
        assert type(getattr(record, field)) is int
        assert record == build(value) and use(record) == use(build(value))
        if field == "grid_n":  # True reads as 1, below the minimum grid
            with pytest.raises(ValueError, match="at least 16"):
                build(True)
        else:
            assert type(getattr(build(True), field)) is int
            assert "%s=1," % field in repr(build(True))

    def test_repr(self):
        # Name(field=value, ...) with each value's repr, as a frozen dataclass prints.
        assert repr(_VERDICT) == (
            "SmoothnessVerdict(status=<Status.SMOOTH: 'smooth'>, witness=LaurentJet(0, ['4']),"
            " pole_order=0, vanishing_order=0)"
        )
        assert repr(_DECOMPOSITION) == (
            "Decomposition(c=Fraction(1, 1), regular=Jet1(['3', '-1/2']),"
            " trace=DecompositionTrace(g=Jet1(['4', '0', '12', '0', '-2']),"
            " h=Jet1(['4', '12', '-2'])))"
        )
        assert repr(_METRIC) == (
            "MetricVerdict(accepted=False, witness=MetricWitness(plot=BoundaryGerm(m=1,"
            " unit=Jet1(['1'])), value=Fraction(4, 1), clause='definiteness-zero-required',"
            " leading=None))"
        )
        assert repr(_CAPACITY) == (
            "CapacityReport(k=2, p=1, margins=(0, 2, 4), admissible=True, binding_m=1)"
        )
