"""Singular capacity: how deep a pole a degree-k tensor supports at the boundary.

A curve touching the boundary as t^(2m) contributes a factor t^(k(2m-1)) from
its differentials while a pole of order p costs t^(-2mp); the margin
k(2m-1) - 2mp = 2m(k - p) - k must stay nonnegative for every m >= 1: it binds
at m = 1 iff k >= p (else at m_max) and holds for all m iff k >= 2p.  Each
margin is cross-checked against the pullback valuation, exact at every window
and so taken at order 0, so the rule is rediscovered, not assumed.
"""

from __future__ import annotations

from operator import index

from .jets import DEFAULT_ORDER, LaurentJet, Record
from .plots import BoundaryGerm
from .pullback import _read_order, pullback_halfline
from .tensors import HalfLineTensor, capacity

__all__ = ["CapacityReport", "capacity", "verify_capacity", "capacity_table"]


class CapacityReport(Record):
    k: int
    p: int
    margins: tuple[int, ...]
    admissible: bool
    binding_m: int


def verify_capacity(
    k: int, p: int, m_max: int = 6, order: int = DEFAULT_ORDER
) -> CapacityReport:
    """Margins k(2m-1) - 2mp for m = 1..m_max, matched against pullback valuations."""
    k, p, m_max = index(k), index(p), index(m_max)
    if k < 0 or p < 0:
        raise ValueError("degree and pole order must be nonnegative")
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    _read_order(order)  # checked like every entry's order, and read nowhere
    tensor = HalfLineTensor(k, LaurentJet(-p, (1,)))
    margins = tuple(k * (2 * m - 1) - 2 * m * p for m in range(1, m_max + 1))
    for m, margin in enumerate(margins, 1):
        observed = pullback_halfline(tensor, BoundaryGerm(m), 0).witness.valuation
        if observed != margin:
            raise RuntimeError(
                "capacity margin %d disagrees with pullback valuation %d"
                " at k=%d p=%d m=%d" % (margin, observed, k, p, m)
            )
    return CapacityReport(
        k=k,
        p=p,
        margins=margins,
        admissible=min(margins) >= 0,
        binding_m=1 + margins.index(min(margins)),
    )


def capacity_table(k_max: int) -> list[tuple[int, int]]:
    """(k, largest admissible pole order) for k = 0..k_max, found by search."""
    if index(k_max) < 0:
        raise ValueError("k_max must be nonnegative")
    table = []
    for k in range(k_max + 1):
        frontier = 0
        p = 1
        while verify_capacity(k, p).admissible:
            frontier = p
            p += 1
        table.append((k, frontier))
    return table
