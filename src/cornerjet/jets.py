"""Exact truncated power-series and Laurent-series values in one and two variables.

This is the computational substrate of the package: germs of smooth curves are
represented by truncated Taylor expansions with arbitrary-precision rational
coefficients, and coefficient fields with axial poles by Laurent expansions
carrying an explicit integer valuation.

Conventions:

* every value type of the package derives from ``Record``: immutable, equal
  only to a value of the same type with equal fields, never a tuple,
* every coefficient is a ``fractions.Fraction``; floats are rejected, so no
  operation in this module can round,
* ``*`` on every jet type scales by an ``int`` or ``Fraction`` only; a
  series ``*`` or ``**`` raises ``TypeError``: series products and the one
  division run on integers in the pullback stage (``cornerjet.pullback``),
  and this module keeps the value types, their slices and Whitney descent,
* a ``Jet1`` of order N is a record of the coefficients of t^0 .. t^N, the
  form in which plot germs and decompositions report their jets,
* a ``LaurentJet`` is kept canonical: leading and trailing coefficients are
  nonzero, and the zero jet is (valuation 0, no coefficients),
* a pullback witness is the only jet that is known through a window: it holds
  exactly the quotient terms the pullback asked for, and degrees beyond them
  are unknown, never assumed zero.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from operator import index
from types import MappingProxyType

Rational = int | str | Fraction

DEFAULT_ORDER = 16

__all__ = [
    "DEFAULT_ORDER",
    "Rational",
    "as_fraction",
    "Record",
    "Jet1",
    "LaurentJet",
    "LaurentJet2",
    "format_terms",
    "whitney_descend",
    "parity_masses",
    "SECTOR_NAMES",
]


def as_fraction(value: Rational, noun: str = "coefficient") -> Fraction:
    """Coerce to an exact rational; floats are refused on purpose, naming ``noun``."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(
            "floating-point %s %r is not allowed in exact arithmetic" % (noun, value)
        )
    return Fraction(value)


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


_MISSING = object()


class Record:
    """An immutable value whose fields are its class's own annotations, in order.

    A class attribute named like a field is that field's default.  ``__init__``
    binds positional and keyword values, each field annotated ``dict`` as a
    read-only copy (a ``MappingProxyType``) and each annotated ``int`` as
    ``operator.index`` reads it, then calls ``__post_init__``.  A
    record equals only a record of the same type with equal fields, hashes by
    its fields and prints as ``Name(field=value, ...)``.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._mappings = tuple(n for n, t in cls.__annotations__.items() if str(t)[:4] == "dict")
        cls._ints = tuple(n for n, t in cls.__annotations__.items() if t == "int")

    def __init__(self, *args, **kwargs):
        cls, names = type(self), self._fields
        if len(args) > len(names):
            raise TypeError(
                "%s takes %d values, %d given" % (cls.__name__, len(names), len(args)))
        bind = object.__setattr__
        for name, value in zip(names, args):
            bind(self, name, value)
        rest = names[len(args):]
        for name, value in kwargs.items():
            if name not in rest:
                raise TypeError("%s got %s value for %r" % (
                    cls.__name__, "a second" if name in names else "an unknown", name))
            bind(self, name, value)
        if len(kwargs) < len(rest):
            for name in rest:
                if name not in kwargs:
                    value = vars(cls).get(name, _MISSING)
                    if value is _MISSING:
                        raise TypeError("%s is missing a value for %r" % (cls.__name__, name))
                    bind(self, name, value)
        for name in self._mappings:
            bind(self, name, MappingProxyType(dict(getattr(self, name))))
        for name in self._ints:
            bind(self, name, index(getattr(self, name)))
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(tuple([frozenset(v.items()) if name in self._mappings else v
                           for name, v in zip(self._fields, self._values())]))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))


class Jet1(Record):
    """Fixed-order coefficient record c_0 + c_1 t + ... + c_N t^N, exact in every stored degree."""

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Rational]):
        cs = tuple(as_fraction(c) for c in coeffs)
        if not cs:
            raise ValueError("a jet stores at least its constant term")
        object.__setattr__(self, "coeffs", cs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def constant_term(self) -> Fraction:
        return self.coeffs[0]

    def __mul__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        c = as_fraction(other)
        return Jet1(tuple(a * c for a in self.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n):  # kept by name: perfbench/spans.py wraps it
        return NotImplemented

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


class LaurentJet(Record):
    """Finite Laurent expansion sum c_d x^d starting at an integer valuation.

    Canonical form: if nonzero, the coefficients at the lowest and highest
    stored degrees are nonzero; the zero jet is (valuation 0, empty).
    A pullback witness agrees with the true pullback only through its highest
    stored degree.
    """

    __slots__ = ("valuation", "coeffs")

    valuation: int
    coeffs: tuple[Fraction, ...]

    def __init__(self, valuation: int = 0, coeffs: Iterable[Rational] = ()):
        valuation = index(valuation)  # read also for the zero jet, which drops it
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
            object.__setattr__(self, "valuation", valuation + lead)
            object.__setattr__(self, "coeffs", tuple(cs[lead:tail]))

    @classmethod
    def from_terms(cls, terms: Mapping[int, Fraction]) -> "LaurentJet":
        """The jet sum c x^d over a sparse {d: c}."""
        if not terms:
            return cls()
        lo, hi = min(terms), max(terms)
        return cls(lo, tuple(terms.get(d, Fraction(0)) for d in range(lo, hi + 1)))

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

    def truncated(self, max_degree: int) -> "LaurentJet":
        """Drop all degrees above ``max_degree``."""
        if self.is_zero or self.degree <= max_degree:
            return self
        keep = max_degree - self.valuation + 1
        if keep <= 0:
            return LaurentJet()
        return LaurentJet(self.valuation, self.coeffs[:keep])

    def __add__(self, other):
        if not isinstance(other, LaurentJet):
            return NotImplemented
        out = dict(self.terms())
        for d, c in other.terms():
            out[d] = out.get(d, Fraction(0)) + c
        return LaurentJet.from_terms(out)

    def __mul__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        c = as_fraction(other)
        return LaurentJet(self.valuation, tuple(a * c for a in self.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n):  # kept by name: perfbench/spans.py wraps it
        return NotImplemented

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


SECTOR_NAMES = {
    (0, 0): "even-even",
    (0, 1): "even-odd",
    (1, 0): "odd-even",
    (1, 1): "odd-odd",
}


class LaurentJet2(Record):
    """Two-variable Laurent expansion stored sparsely: (i, j) -> nonzero rational.

    Exact: these arise from finite expressions and the operations on them
    (sums, scaling, slices, restriction) never truncate.
    """

    __slots__ = ("_terms",)

    _terms: dict[tuple[int, int], Fraction]

    def __init__(self, terms: Mapping[tuple[int, int], Rational] | None = None):
        cleaned: dict[tuple[int, int], Fraction] = {}
        if terms:
            for (i, j), c in terms.items():
                key, f = (index(i), index(j)), as_fraction(c)
                if f != 0:
                    cleaned[key] = f
        object.__setattr__(self, "_terms", cleaned)

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

    def terms(self) -> Iterator[tuple[int, int, Fraction]]:
        for (i, j) in sorted(self._terms):
            yield i, j, self._terms[(i, j)]

    def restrict(self, predicate) -> "LaurentJet2":
        return LaurentJet2({k: c for k, c in self._terms.items() if predicate(*k)})

    def slice_x(self, i: int) -> LaurentJet:
        """The coefficient of x^i as a Laurent jet in y."""
        return LaurentJet.from_terms({j: c for (ii, j), c in self._terms.items() if ii == i})

    def slice_y(self, j: int) -> LaurentJet:
        """The coefficient of y^j as a Laurent jet in x."""
        return LaurentJet.from_terms({i: c for (i, jj), c in self._terms.items() if jj == j})

    def __add__(self, other):
        if not isinstance(other, LaurentJet2):
            return NotImplemented
        out = dict(self._terms)
        for k, c in other._terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return LaurentJet2(out)

    def __mul__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        c = as_fraction(other)
        return LaurentJet2({k: a * c for k, a in self._terms.items()})

    __rmul__ = __mul__

    def __str__(self):
        return self.to_str(("x", "y"))

    def to_str(self, vars: tuple[str, str]) -> str:
        return format_terms((c, zip(vars, (i, j))) for i, j, c in self.terms())

    def __repr__(self):
        return "LaurentJet2(%r)" % ({k: str(c) for k, c in sorted(self._terms.items())},)


def parity_masses(j: LaurentJet2) -> dict[str, int]:  # kept by name: perfbench/spans.py wraps it
    """Number of nonzero monomials in each of the four parity sectors."""
    masses = {name: 0 for name in SECTOR_NAMES.values()}
    for i, jj, _ in j.terms():
        masses[SECTOR_NAMES[(i % 2, jj % 2)]] += 1
    return masses
