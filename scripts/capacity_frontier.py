#!/usr/bin/env python3
"""Print the pole-capacity frontier and the margins behind it.

For each tensor degree k the frontier is the largest pole order p whose
margins k(2m-1) - 2mp stay nonnegative for every contact order m; every
margin is cross-checked against the actual pullback valuation.
"""

from cornerjet import capacity, verify_capacity
from cornerjet.capacity import capacity_table


def main() -> None:
    print("  k  frontier  floor(k/2)  margins (m = 1..6, binding marked)")
    for k, frontier in capacity_table(8):
        report = verify_capacity(k, frontier, 6)
        margins = ", ".join(
            "%d%s" % (margin, "*" if i + 1 == report.binding_m else "")
            for i, margin in enumerate(report.margins)
        )
        print("%3d  %8d  %10d  [%s]" % (k, frontier, capacity(k), margins))
        over = verify_capacity(k, frontier + 1, 6)
        print("     first inadmissible p = %d: margins %s" % (frontier + 1, list(over.margins)))


if __name__ == "__main__":
    main()
