"""Independent exact oracles for the tests.

Each oracle is written the plain way, with one ``Fraction`` operation per
step, and shares no code with the kernels it checks.
"""

from fractions import Fraction


def schoolbook_product(a, b) -> dict[int, Fraction]:
    """Product of two Laurent polynomials given as {degree: coefficient}.

    Returns the nonzero coefficients of the full product, by degree.
    """
    out: dict[int, Fraction] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, Fraction(0)) + Fraction(x) * Fraction(y)
    return {d: c for d, c in out.items() if c != 0}
