"""The pullback stage's integer kernels, its truncated products, powers and one
fraction-free division, against schoolbook Fraction oracles.

The stage reads a series as (valuation, integer coefficients) over a
denominator it keeps; ``scaled`` and ``unscaled`` convert a ``LaurentJet`` to
and from that layout, so every oracle still works on exact rationals.
"""

from fractions import Fraction as F
from math import comb, lcm

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cornerjet import LaurentJet
from cornerjet.pullback import _combine, _divide, _powers, _times

from conftest import rationals
from oracles import long_divide, schoolbook_product

# Zeros between nonzero coefficients, small and large denominators side by side.
coefficients = st.one_of(
    st.just(F(0)),
    rationals,
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
)


def scaled(jet: LaurentJet) -> tuple[int, tuple[int, list[int]]]:
    """(e, s) with jet = s / e: the stage's integer layout of a jet."""
    e = lcm(*[c.denominator for c in jet.coeffs])
    return e, (jet.valuation, [c.numerator * (e // c.denominator) for c in jet.coeffs])


def unscaled(s: tuple[int, list[int]], e: int) -> LaurentJet:
    return LaurentJet(s[0], [F(c, e) for c in s[1]])


def times(a: LaurentJet, b: LaurentJet, top: int) -> LaurentJet:
    """a * b through degree ``top``, by the stage's truncated product."""
    (ea, sa), (eb, sb) = scaled(a), scaled(b)
    product = _times(sa, sb, top)
    assert all(type(c) is int for c in product[1])
    return unscaled(product, ea * eb)


def divide(num: LaurentJet, den: LaurentJet, terms: int | None = None) -> LaurentJet:
    """The first ``terms`` coefficients of num / den (default: as many as num stores)."""
    (en, sn), (ed, sd) = scaled(num), scaled(den)
    quotient = _divide(sn[1], sd[1], len(num.coeffs) if terms is None else terms, F(ed, en))
    return LaurentJet(sn[0] - sd[0], quotient)


@st.composite
def laurents(draw, max_len=8):
    valuation = draw(st.integers(-8, 8))
    coeffs = draw(st.lists(coefficients, max_size=max_len))
    return LaurentJet(valuation, coeffs)


@st.composite
def windowed(draw):
    """(jet, top): exact (top None) or known through ``top``, below, inside or above the jet."""
    jet = draw(laurents())
    if draw(st.booleans()):
        return jet, None
    lo = jet.valuation
    hi = lo if jet.is_zero else jet.degree
    top = draw(st.integers(lo - 4, hi + 4))
    return jet.truncated(top), top


def _terms(jet: LaurentJet) -> dict:
    return dict((d, c) for d, c in jet.terms())


def _val_lb(jet, top):
    if not jet.is_zero:
        return jet.valuation
    return 0 if top is None else top + 1


@settings(max_examples=150, deadline=None)
@given(laurents(), laurents())
def test_laurent_product_matches_schoolbook(a, b):
    product = times(a, b, (a.degree or 0) + (b.degree or 0))
    assert _terms(product) == schoolbook_product(_terms(a), _terms(b))


def _window_top(a, b):
    """The highest degree on which the product of two windowed operands is known."""
    (ja, ta), (jb, tb) = a, b
    tops = [t + _val_lb(j, tt) for t, (j, tt) in ((ta, b), (tb, a)) if t is not None]
    return min(tops) if tops else None


@settings(max_examples=200, deadline=None)
@given(windowed(), windowed(), st.lists(coefficients, min_size=3, max_size=3),
       st.lists(coefficients, min_size=3, max_size=3), st.integers(-20, 20))
def test_windowed_product_matches_schoolbook(a, b, tail_a, tail_b, exact_top):
    (ja, ta), (jb, tb) = a, b
    top = _window_top(a, b)
    if top is None:
        top = exact_top
    product = times(ja, jb, top)
    full = schoolbook_product(_terms(ja), _terms(jb))
    assert _terms(product) == {d: c for d, c in full.items() if d <= top}
    # Whatever a windowed operand holds beyond its top cannot reach the result.
    extended = []
    for (j, t), tail in ((a, tail_a), (b, tail_b)):
        terms = _terms(j)
        if t is not None:
            terms.update((t + 1 + i, c) for i, c in enumerate(tail))
        extended.append(terms)
    true = schoolbook_product(*extended)
    assert {d: c for d, c in true.items() if d <= top} == _terms(product)


@pytest.mark.parametrize(
    "a, b, expected_top",
    [
        ((LaurentJet(), 5), (LaurentJet(-2, [1, 3]), None), 3),
        ((LaurentJet(), 4), (LaurentJet(), 6), 11),
        ((LaurentJet(), 4), (LaurentJet(1, [F(1, 3)]), 9), 5),
    ],
)
def test_windowed_zero_operand(a, b, expected_top):
    assert _window_top(a, b) == _window_top(b, a) == expected_top
    assert times(a[0], b[0], expected_top) == LaurentJet()
    assert times(b[0], a[0], expected_top) == LaurentJet()


@pytest.mark.parametrize("other", [(LaurentJet(-3, [1, 2]), None), (LaurentJet(), 7), (LaurentJet(2, [5]), 4)])
def test_exact_zero_operand(other):
    for top in (-5, 0, 9):
        assert times(LaurentJet(), other[0], top) == LaurentJet()
        assert times(other[0], LaurentJet(), top) == LaurentJet()


def _power_table(base: LaurentJet, exponents, keep):
    """The stage's power table of ``base``, read back as jets."""
    e, s = scaled(base)
    return {n: unscaled(power, e ** n) for n, power in _powers(s, exponents, keep).items()}


@settings(max_examples=100, deadline=None)
@given(laurents(max_len=5), st.sets(st.integers(0, 6), min_size=1), st.integers(0, 12))
def test_powers_keep_their_window(base, exponents, keep):
    if base.is_zero:
        base = LaurentJet(base.valuation, [1])
    powers = _power_table(base, exponents, keep)
    assert set(powers) == exponents
    for e, power in powers.items():
        exact = {0: F(1)}
        for _ in range(e):
            exact = schoolbook_product(exact, _terms(base))
        val = e * base.valuation
        assert _terms(power) == {d: c for d, c in exact.items() if d <= val + keep}


@settings(max_examples=60, deadline=None)
@given(laurents(max_len=3), st.sets(st.integers(0, 70), min_size=1, max_size=3), st.integers(0, 5))
def test_powers_match_repeated_products(base, exponents, keep):
    # Exponents up to 70, each checked against one schoolbook product per unit
    # of the exponent, cut to the window.
    if base.is_zero:
        base = LaurentJet(base.valuation, [1])
    powers = _power_table(base, exponents, keep)
    chain = {0: F(1)}
    for e in range(max(exponents) + 1):
        if e in exponents:
            assert _terms(powers[e]) == chain
        top = (e + 1) * base.valuation + keep
        chain = {d: c for d, c in schoolbook_product(chain, _terms(base)).items() if d <= top}


@pytest.mark.parametrize("keep", [0, 5, 256])
@pytest.mark.parametrize("e", [0, 1, 2, 7, 2048])
@pytest.mark.parametrize("v, a0, a1", [(0, 3, 2), (1, -2, 5), (-1, 7, -1)])
def test_powers_of_a_binomial_follow_the_binomial_theorem(v, a0, a1, e, keep):
    want = [comb(e, k) * a0 ** (e - k) * a1 ** k for k in range(min(keep, e) + 1)]
    assert _powers((v, [a0, a1]), {e}, keep) == {e: (e * v, want)}


@pytest.mark.parametrize("keep", [0, 16])
def test_the_zero_series_has_only_its_zeroth_power(keep):
    # The derivative of a constant curve: only exponent 0 is ever asked of it.
    assert _powers((0, []), {0}, keep) == {0: (0, [1])}


def test_powers_keep_the_trailing_zeros_of_their_window():
    # A table runs through degree min(keep, e (len(base) - 1)), zeros included.
    assert _powers((0, [2, 3, 0]), {3}, 10) == {3: (0, [8, 36, 54, 27, 0, 0, 0])}


def test_kernel_stops_at_the_requested_degree():
    # 4 (1/2 x^-1 - 3/4 x) times 3 (2/3 + 5 x) is 12 (1/3 x^-1 + 5/2 - 1/2 x - 15/4 x^2).
    a, b = (-1, [2, 0, -3]), (0, [2, 15])
    assert _times(a, b, -2) == (-1, [])
    assert _times(a, b, 0) == (-1, [4, 30])
    assert _times(a, b, 99) == (-1, [4, 30, -6, -45])


@st.composite
def divisors(draw):
    """Monomials and multi-coefficient jets, some with a leading coefficient near 10^6."""
    lead = draw(st.one_of(
        st.fractions(min_value=-10, max_value=10, max_denominator=12),
        st.fractions(min_value=10**5, max_value=10**6, max_denominator=10**6),
        st.fractions(min_value=-10**6, max_value=-10**5, max_denominator=7),
    ).filter(lambda q: q != 0))
    tail = draw(st.lists(coefficients, max_size=draw(st.sampled_from([0, 0, 3, 6]))))
    return LaurentJet(draw(st.integers(-6, 6)), [lead, *tail])


@settings(max_examples=200, deadline=None)
@given(laurents().filter(lambda j: not j.is_zero), divisors(), st.integers(1, 14))
def test_divide_matches_long_division(num, den, terms):
    quotient = divide(num, den, terms)
    assert _terms(quotient) == long_divide(_terms(num), _terms(den), terms)
    assert all(type(q) is F for q in _divide(scaled(num)[1][1], scaled(den)[1][1], terms, F(1)))


@st.composite
def scales(draw, d0):
    """Nonzero scales of either sign, some with powers of d0's factors above or below."""
    shared = F(d0) ** draw(st.integers(-3, 3))
    base = draw(st.one_of(rationals, st.fractions(max_denominator=10**6)).filter(lambda q: q != 0))
    return draw(st.sampled_from([1, -1])) * shared * base


@settings(max_examples=200, deadline=None)
@given(laurents().filter(lambda j: not j.is_zero), divisors(), st.integers(1, 14), st.data())
def test_divide_folds_the_scale_into_each_quotient(num, den, terms, data):
    # One Fraction per coefficient, Q_k sn / (d0^(k+1) sd), against the two
    # steps it replaces, Fraction(Q_k, d0^(k+1)) * scale, and long division.
    (_, (_, w)), (_, (_, d)) = scaled(num), scaled(den)
    scale = data.draw(scales(d[0]))
    folded = _divide(w, d, terms, scale)
    assert folded == [q * scale for q in _divide(w, d, terms, F(1))]
    exact = long_divide(dict(enumerate(w)), dict(enumerate(d)), terms)
    assert folded == [exact.get(k, 0) * scale for k in range(terms)]
    assert all(type(q) is F for q in folded)


def test_divide_known_quotients():
    # 1 / (2 + 3t): q_k = (-3/2)^k / 2, from the integers Q_k = q_k 2^(k+1) = (-3)^k.
    assert _divide([1], [2, 3], 4, F(1)) == [F(1, 2), F(-3, 4), F(9, 8), F(-27, 16)]
    assert _divide([6, 0, 6], [3], 4, F(1)) == [2, 0, 2, 0]
    # The scale meets d0's powers in one reduction: -4/3 / (2 + 3t).
    assert _divide([1], [2, 3], 4, F(-4, 3)) == [F(-2, 3), 1, F(-3, 2), F(9, 4)]


# Integers of either sign, zeros among them, some far beyond a machine word.
integers = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-10**30, 10**30))


@st.composite
def short_and_long(draw):
    """(short, long, top): factors of 1-4 and 0-40 coefficients, top anywhere from
    below the product's valuation to past its degree, so it cuts inside both."""
    short = (draw(st.integers(-6, 6)), draw(st.lists(integers, min_size=1, max_size=4)))
    long = (draw(st.integers(-6, 6)), draw(st.lists(integers, max_size=40)))
    val = short[0] + long[0]
    top = draw(st.one_of(st.integers(val - 2, val + len(short[1])),
                         st.integers(val - 2, val + len(short[1]) + len(long[1]))))
    return short, long, top


@settings(max_examples=200, deadline=None)
@given(short_and_long())
def test_shift_add_product_matches_schoolbook_in_either_order(case):
    short, long, top = case
    product = _times(short, long, top)
    assert _times(long, short, top) == product
    val, coeffs = product
    assert val == short[0] + long[0]
    # Every degree from the valuation through top or the full product's degree,
    # trailing zeros included, and none above.
    assert len(coeffs) == max(0, min(top - val + 1, len(short[1]) + len(long[1]) - 1))
    assert all(type(c) is int for c in coeffs)
    full = schoolbook_product(*[{s[0] + i: c for i, c in enumerate(s[1])} for s in (short, long)])
    assert {val + i: c for i, c in enumerate(coeffs) if c} == {
        d: c for d, c in full.items() if d <= top}


@settings(max_examples=100, deadline=None)
@given(st.integers(-8, 8), integers.filter(bool), st.lists(integers, max_size=20),
       st.integers(0, 24))
def test_the_first_power_is_the_base_itself(val, lead, tail, keep):
    base = (val, [lead, *tail])
    assert _powers(base, {1}, keep) == {1: (val, base[1][: keep + 1])}


# -- one-coefficient factors and single sums pass through ----------------------

# The constants that the half-line makes most: 0, 1 and -1, and integers far
# beyond a machine word.
lone_coefficients = st.one_of(st.sampled_from([0, 1, -1]), integers)


@settings(max_examples=200, deadline=None)
@given(st.integers(-6, 6), lone_coefficients, st.integers(-6, 6), st.lists(integers, max_size=20),
       st.booleans(), st.data())
def test_a_one_coefficient_factor_scales_the_other(v, c, w, coeffs, first, data):
    one, other = (v, [c]), (w, coeffs)
    val = v + w
    # Below the product's valuation, inside it, and past its degree.
    top = data.draw(st.integers(val - 3, val + len(coeffs) + 3))
    product = _times(*((one, other) if first else (other, one)), top)
    assert product[0] == val
    assert len(product[1]) == max(0, min(top - val + 1, len(coeffs)))
    assert all(type(x) is int for x in product[1])
    full = schoolbook_product({v: c}, {w + i: x for i, x in enumerate(coeffs)})
    assert {val + i: x for i, x in enumerate(product[1]) if x} == {
        d: x for d, x in full.items() if d <= top}


@st.composite
def parts(draw):
    """1-4 terms (c, s) of a sum, c often 0 or 1, s at mixed valuations, some
    starting or ending with zeros."""
    return draw(st.lists(st.tuples(
        lone_coefficients,
        st.tuples(st.integers(-6, 6), st.lists(st.one_of(st.just(0), integers), max_size=8)),
    ), min_size=1, max_size=4))


@settings(max_examples=200, deadline=None)
@given(parts())
def test_combine_matches_a_dict_sum(terms):
    val, coeffs = _combine(terms)
    # The sum runs from the lowest valuation to the highest end, zeros kept.
    assert val == min(s[0] for _, s in terms)
    assert len(coeffs) == max(0, max(s[0] + len(s[1]) for _, s in terms) - val)
    assert all(type(x) is int for x in coeffs)
    oracle: dict[int, int] = {}
    for c, (v, series) in terms:
        for i, x in enumerate(series):
            oracle[v + i] = oracle.get(v + i, 0) + c * x
    assert dict(enumerate(coeffs, val)) == {d: oracle.get(d, 0) for d in range(val, val + len(coeffs))}


@pytest.mark.parametrize("terms, expected", [
    ([(1, (-2, [0, 0, 3]))], (-2, [0, 0, 3])),
    ([(0, (1, [4, 5]))], (1, [0, 0])),
    ([(-3, (2, [1, 0, 2]))], (2, [-3, 0, -6])),
    ([(2, (0, [0, 1])), (1, (-1, [0]))], (-1, [0, 0, 2])),
    ([(1, (0, [1, 2])), (-1, (0, [1, 2]))], (0, [0, 0])),
])
def test_combine_keeps_leading_zeros(terms, expected):
    # The stage strips W once, after the sum; no part is stripped here.
    assert _combine(terms) == expected


@settings(max_examples=150, deadline=None)
@given(st.tuples(integers.filter(bool), st.lists(integers, max_size=3)).map(lambda t: [t[0], *t[1]]),
       divisors(), st.integers(5, 20),
       st.fractions(max_denominator=10**6).filter(lambda q: q and q.numerator != 1))
def test_divide_runs_past_a_short_numerator_with_a_scale(w, den, terms, scale):
    # W is used up after at most 4 of 5-20 terms; from there on only the
    # divisor's recurrence and the denominator chain grow.
    d = scaled(den)[1][1]
    exact = long_divide(dict(enumerate(w)), dict(enumerate(d)), terms)
    assert _divide(w, d, terms, scale) == [exact.get(k, 0) * scale for k in range(terms)]


@settings(max_examples=100, deadline=None)
@given(short_and_long(), parts(), lone_coefficients.filter(bool), st.integers(0, 8),
       st.sets(st.integers(0, 5), min_size=1), divisors(), st.integers(1, 10))
def test_no_kernel_changes_its_inputs(case, sums, lead, keep, exponents, den, terms):
    # A kernel may return a slice of an input, or the very list: neither the
    # inputs nor what a later kernel is given may change under it.
    short, long, top = case
    one = (0, [lead])
    base = (long[0], [lead, *long[1]])
    d = scaled(den)[1][1]
    inputs = (short, long, one, sums, base, d)
    before = repr(inputs)
    _times(short, long, top)
    _times(long, short, top)
    _times(one, long, top)
    _times(long, one, top)
    _combine(sums)
    _combine(sums[:1])
    _powers(base, exponents, keep)
    _divide(base[1], d, terms, F(-3, 7))
    assert repr(inputs) == before
