"""Exact truncated power-series and Laurent-series arithmetic in one and two variables.

This is the computational substrate of the package: germs of smooth curves are
represented by truncated Taylor expansions with arbitrary-precision rational
coefficients, and coefficient fields with axial poles by Laurent expansions
carrying an explicit integer valuation.

Conventions:

* every coefficient is a ``fractions.Fraction``; floats are rejected, so no
  operation in this module can round,
* one-variable products go through a single exact kernel, ``_convolve``: each
  operand is scaled to integer numerators over the lcm of its denominators
  (the ``fmpq_poly`` layout of FLINT), the integers are convolved only as far
  as the requested output degree, and one ``Fraction`` is built per output
  coefficient; the ``Fraction`` interface of the jet types is unchanged,
* a ``Jet1`` of order N is a record of the coefficients of t^0 .. t^N, the
  form in which plot germs and decompositions report their jets; it only
  scales and multiplies (result order = min of the inputs), and every other
  series operation runs on ``LaurentJet``,
* a ``LaurentJet`` is kept canonical: leading and trailing coefficients are
  nonzero, and the zero jet is (valuation 0, no coefficients),
* curve germs and tensor coefficients are polynomials and Laurent
  polynomials, so a pullback clears its denominators and stays polynomial
  until one final series division (``cornerjet.pullback``); that division,
  ``laurent_divide``, is the only operation that truncates, and it returns
  exactly the number of quotient terms asked for; degrees beyond them are
  unknown, never assumed zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence, Union

Rational = Union[int, str, Fraction]

DEFAULT_ORDER = 16

__all__ = [
    "DEFAULT_ORDER",
    "Rational",
    "as_fraction",
    "Jet1",
    "LaurentJet",
    "LaurentJet2",
    "laurent_divide",
    "format_terms",
    "whitney_descend",
    "parity_masses",
    "SECTOR_NAMES",
]


def as_fraction(value: Rational) -> Fraction:
    """Coerce to an exact rational; floats are refused on purpose."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(
            "floating-point coefficient %r is not allowed in exact arithmetic" % (value,)
        )
    return Fraction(value)


def _convolve(a: Sequence[Fraction], b: Sequence[Fraction], n: int) -> list[Fraction]:
    """The first ``n`` coefficients of the product of two nonempty coefficient lists.

    Exact: both operands become integer numerators over one denominator each,
    so the inner loop multiplies and adds plain integers.
    """
    da = lcm(*[c.denominator for c in a])
    db = lcm(*[c.denominator for c in b])
    na = [c.numerator * (da // c.denominator) for c in a]
    rb = [c.numerator * (db // c.denominator) for c in reversed(b)]
    la, lb = len(na), len(rb)
    den = da * db
    out = []
    for k in range(min(n, la + lb - 1)):
        lo = max(0, k - lb + 1)
        hi = min(k + 1, la)
        shift = lb - 1 - k
        out.append(Fraction(sum(map(mul, na[lo:hi], rb[lo + shift : hi + shift])), den))
    return out


def format_terms(rows: Iterable[tuple[Fraction, Iterable[tuple[str, int]]]]) -> str:
    """A signed sum of terms (coefficient, [(symbol, exponent), ...]), such as
    ``-x^-1 + 3/2*x*dx^2``; zero terms, zero exponents and unit coefficients
    are left out, and the empty sum is ``0``."""
    parts: list[str] = []
    for coeff, powers in rows:
        if coeff == 0:
            continue
        factors = [var if e == 1 else "%s^%d" % (var, e) for var, e in powers if e]
        if abs(coeff) != 1 or not factors:
            factors.insert(0, str(abs(coeff)))
        body = "*".join(factors)
        if not parts:
            parts.append(body if coeff > 0 else "-" + body)
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(parts) if parts else "0"


class Jet1:
    """Fixed-order coefficient record c_0 + c_1 t + ... + c_N t^N, exact in every stored degree."""

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Rational]):
        cs = tuple(as_fraction(c) for c in coeffs)
        if not cs:
            raise ValueError("a jet stores at least its constant term")
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Jet1 is immutable")

    @classmethod
    def constant(cls, value: Rational, order: int = 0) -> "Jet1":
        c = as_fraction(value)
        return cls((c,) + (Fraction(0),) * order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def constant_term(self) -> Fraction:
        return self.coeffs[0]

    def to_laurent(self) -> "LaurentJet":
        return LaurentJet(0, self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Jet1):
            n = min(self.order, other.order)
            return Jet1(_convolve(self.coeffs, other.coeffs, n + 1))
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            return Jet1(tuple(a * c for a in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("jet powers require a nonnegative integer exponent")
        acc = Jet1.constant(1, self.order)
        for _ in range(n):
            acc = acc * self
        return acc

    def __eq__(self, other):
        return isinstance(other, Jet1) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("Jet1", self.coeffs))

    def __str__(self):
        return self.to_str("t")

    def to_str(self, var: str) -> str:
        return format_terms((c, [(var, d)]) for d, c in enumerate(self.coeffs))

    def __repr__(self):
        return "Jet1([%s])" % ", ".join(repr(str(c)) for c in self.coeffs)


def whitney_descend(g: Jet1) -> Jet1:
    """Given an even jet g, return h with g(t) = h(t^2); pure reindexing."""
    for degree in range(1, g.order + 1, 2):
        if g.coeffs[degree] != 0:
            raise ValueError("jet is not even: nonzero coefficient at degree %d" % degree)
    return Jet1(g.coeffs[0::2])


class LaurentJet:
    """Finite Laurent expansion sum c_d x^d starting at an integer valuation.

    Canonical form: if nonzero, the coefficients at the lowest and highest
    stored degrees are nonzero; the zero jet is (valuation 0, empty).
    Results of :func:`laurent_divide` agree with the true quotient only
    through their highest stored degree.
    """

    __slots__ = ("valuation", "coeffs")

    valuation: int
    coeffs: tuple[Fraction, ...]

    def __init__(self, valuation: int = 0, coeffs: Iterable[Rational] = ()):
        cs = [as_fraction(c) for c in coeffs]
        lead = 0
        while lead < len(cs) and cs[lead] == 0:
            lead += 1
        if lead == len(cs):
            object.__setattr__(self, "valuation", 0)
            object.__setattr__(self, "coeffs", ())
        else:
            tail = len(cs)
            while cs[tail - 1] == 0:
                tail -= 1
            object.__setattr__(self, "valuation", int(valuation) + lead)
            object.__setattr__(self, "coeffs", tuple(cs[lead:tail]))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("LaurentJet is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int | None:
        """Highest stored degree, or None for the zero jet."""
        if not self.coeffs:
            return None
        return self.valuation + len(self.coeffs) - 1

    @property
    def pole_order(self) -> int:
        return max(0, -self.valuation) if self.coeffs else 0

    def coefficient(self, degree: int) -> Fraction:
        i = degree - self.valuation
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def terms(self) -> Iterator[tuple[int, Fraction]]:
        for i, c in enumerate(self.coeffs):
            if c != 0:
                yield self.valuation + i, c

    def shifted(self, n: int) -> "LaurentJet":
        if self.is_zero:
            return self
        return LaurentJet(self.valuation + n, self.coeffs)

    def substitute_square(self) -> "LaurentJet":
        """Exact reindexing x -> t^2: every stored degree doubles."""
        if self.is_zero:
            return self
        spread: list[Fraction] = []
        for i, c in enumerate(self.coeffs):
            if i:
                spread.append(Fraction(0))
            spread.append(c)
        return LaurentJet(2 * self.valuation, spread)

    def truncated(self, max_degree: int) -> "LaurentJet":
        """Drop all degrees above ``max_degree``."""
        if self.is_zero or self.degree <= max_degree:
            return self
        keep = max_degree - self.valuation + 1
        if keep <= 0:
            return LaurentJet()
        return LaurentJet(self.valuation, self.coeffs[:keep])

    def to_jet1(self, order: int) -> Jet1:
        if self.pole_order > 0:
            raise ValueError("cannot convert a jet with a pole to a power-series jet")
        if not self.is_zero and self.degree > order:
            raise ValueError(
                "stored degree %d exceeds requested order %d" % (self.degree, order)
            )
        return Jet1(tuple(self.coefficient(d) for d in range(order + 1)))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentJet(0, (other,))
        if not isinstance(other, LaurentJet):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        low, high = (self, other) if self.valuation <= other.valuation else (other, self)
        out = list(low.coeffs)
        offset = high.valuation - low.valuation
        out.extend([Fraction(0)] * (offset + len(high.coeffs) - len(out)))
        for i, c in enumerate(high.coeffs, offset):
            out[i] += c
        return LaurentJet(low.valuation, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentJet(self.valuation, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentJet(0, (other,))
        if not isinstance(other, LaurentJet):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            if c == 0:
                return LaurentJet()
            return LaurentJet(self.valuation, tuple(a * c for a in self.coeffs))
        if not isinstance(other, LaurentJet):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return LaurentJet()
        n = len(self.coeffs) + len(other.coeffs) - 1
        return LaurentJet(
            self.valuation + other.valuation, _convolve(self.coeffs, other.coeffs, n)
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("use laurent_divide for negative powers")
        acc = LaurentJet(0, (1,))
        for _ in range(n):
            acc = acc * self
        return acc

    def __eq__(self, other):
        return (
            isinstance(other, LaurentJet)
            and self.valuation == other.valuation
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(("LaurentJet", self.valuation, self.coeffs))

    def __str__(self):
        return self.to_str("x")

    def to_str(self, var: str) -> str:
        return format_terms(
            (c, [(var, self.valuation + i)]) for i, c in enumerate(self.coeffs)
        )

    def __repr__(self):
        return "LaurentJet(%d, [%s])" % (
            self.valuation,
            ", ".join(repr(str(c)) for c in self.coeffs),
        )


def laurent_divide(num: LaurentJet, den: LaurentJet, terms: int | None = None) -> LaurentJet:
    """Valuation-tracked division of Laurent jets.

    The result valuation is num.valuation - den.valuation and the
    coefficients come from exact long division of the unit parts.  ``terms``
    bounds how many quotient coefficients are produced (default: as many as
    the numerator stores); the quotient may continue beyond the returned
    window and those degrees are not represented.
    """
    if den.is_zero:
        raise ZeroDivisionError("division by the zero jet")
    if num.is_zero:
        return LaurentJet()
    n_terms = len(num.coeffs) if terms is None else terms
    if n_terms < 1:
        raise ValueError("at least one quotient term is required")
    nu, du = num.coeffs, den.coeffs
    q: list[Fraction] = []
    for n in range(n_terms):
        acc = nu[n] if n < len(nu) else Fraction(0)
        for k in range(max(0, n - len(du) + 1), n):
            if du[n - k] != 0:
                acc -= q[k] * du[n - k]
        q.append(acc / du[0])
    return LaurentJet(num.valuation - den.valuation, q)


SECTOR_NAMES = {
    (0, 0): "even-even",
    (0, 1): "even-odd",
    (1, 0): "odd-even",
    (1, 1): "odd-odd",
}


class LaurentJet2:
    """Two-variable Laurent expansion stored sparsely: (i, j) -> nonzero rational.

    Exact: these arise from finite expressions and the operations on them
    (sums, products, exponent doubling, monomial shifts) never truncate.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], Rational] | None = None):
        cleaned: dict[tuple[int, int], Fraction] = {}
        if terms:
            for (i, j), c in terms.items():
                f = as_fraction(c)
                if f != 0:
                    cleaned[(int(i), int(j))] = f
        object.__setattr__(self, "_terms", cleaned)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("LaurentJet2 is immutable")

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def valuations(self) -> tuple[int, int]:
        """Tight per-variable minimum exponents; (0, 0) for the zero jet."""
        if not self._terms:
            return (0, 0)
        return (
            min(i for i, _ in self._terms),
            min(j for _, j in self._terms),
        )

    def coefficient(self, i: int, j: int) -> Fraction:
        return self._terms.get((i, j), Fraction(0))

    def terms(self) -> Iterator[tuple[int, int, Fraction]]:
        for (i, j) in sorted(self._terms):
            yield i, j, self._terms[(i, j)]

    def double_degrees(self) -> "LaurentJet2":
        """Exact substitution (x, y) -> (u^2, v^2): indices double."""
        return LaurentJet2({(2 * i, 2 * j): c for (i, j), c in self._terms.items()})

    def halve_degrees(self) -> "LaurentJet2":
        """Inverse reindexing for even-even jets; errors on odd exponents."""
        out = {}
        for (i, j), c in self._terms.items():
            if i % 2 or j % 2:
                raise ValueError("jet is not even-even: term x^%d y^%d" % (i, j))
            out[(i // 2, j // 2)] = c
        return LaurentJet2(out)

    def shifted(self, di: int, dj: int) -> "LaurentJet2":
        return LaurentJet2({(i + di, j + dj): c for (i, j), c in self._terms.items()})

    def restrict(self, predicate) -> "LaurentJet2":
        return LaurentJet2({k: c for k, c in self._terms.items() if predicate(*k)})

    def slice_x(self, i: int) -> LaurentJet:
        """The coefficient of x^i as a Laurent jet in y."""
        picked = {j: c for (ii, j), c in self._terms.items() if ii == i}
        if not picked:
            return LaurentJet()
        lo, hi = min(picked), max(picked)
        return LaurentJet(lo, tuple(picked.get(d, Fraction(0)) for d in range(lo, hi + 1)))

    def slice_y(self, j: int) -> LaurentJet:
        """The coefficient of y^j as a Laurent jet in x."""
        picked = {i: c for (i, jj), c in self._terms.items() if jj == j}
        if not picked:
            return LaurentJet()
        lo, hi = min(picked), max(picked)
        return LaurentJet(lo, tuple(picked.get(d, Fraction(0)) for d in range(lo, hi + 1)))

    def __add__(self, other):
        if not isinstance(other, LaurentJet2):
            return NotImplemented
        out = dict(self._terms)
        for k, c in other._terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return LaurentJet2(out)

    def __neg__(self):
        return LaurentJet2({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, LaurentJet2):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            return LaurentJet2({k: a * c for k, a in self._terms.items()})
        if not isinstance(other, LaurentJet2):
            return NotImplemented
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self._terms.items():
            for (i2, j2), c2 in other._terms.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return LaurentJet2(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, LaurentJet2) and self._terms == other._terms

    def __hash__(self):
        return hash(("LaurentJet2", frozenset(self._terms.items())))

    def __str__(self):
        return self.to_str(("x", "y"))

    def to_str(self, vars: tuple[str, str]) -> str:
        return format_terms((c, zip(vars, (i, j))) for i, j, c in self.terms())

    def __repr__(self):
        return "LaurentJet2(%r)" % ({k: str(c) for k, c in sorted(self._terms.items())},)


def parity_masses(j: LaurentJet2) -> dict[str, int]:
    """Number of nonzero monomials in each of the four parity sectors."""
    masses = {name: 0 for name in SECTOR_NAMES.values()}
    for i, jj, _ in j.terms():
        masses[SECTOR_NAMES[(i % 2, jj % 2)]] += 1
    return masses
