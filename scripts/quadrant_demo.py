#!/usr/bin/env python3
"""Walk through the quadrant decomposition on a worked example.

Decomposes (y^2/x) dx^2 + (1/y) dy^2 + xy dx dy into its axial singular
profiles and regular remainder, shows the square-map pullback and its parity
sectors, and then demonstrates why a pole in the cross term is rejected.
"""

from cornerjet import (
    NotSmoothError,
    check_gamma_parity,
    decompose_quadrant,
    format_quadrant_tensor,
    parse_tensor,
    pullback_sq2,
)


def show_parity(tensor) -> None:
    report = check_gamma_parity(tensor)
    for name, comp in report.components.items():
        occupied = ", ".join("%s(%d)" % (s, n) for s, n in comp.masses.items() if n)
        print(
            "  %-6s expected %-9s occupied: %-24s %s"
            % (name, comp.expected, occupied or "-", "ok" if comp.ok else "VIOLATED")
        )


def main() -> None:
    expr = "(y^2/x)*dx^2 + (1/y)*dy^2 + x*y*dx*dy"
    tensor = parse_tensor(expr, "quadrant")
    print("input tensor:", format_quadrant_tensor(tensor))

    pulled = pullback_sq2(tensor)
    print("\nsquare-map pullback (x,y) -> (u^2,v^2):")
    print("  du^2  coefficient:", pulled.a.to_str(("u", "v")))
    print("  dv^2  coefficient:", pulled.b.to_str(("u", "v")))
    print("  du*dv coefficient:", pulled.c.to_str(("u", "v")))
    show_parity(tensor)

    d = decompose_quadrant(tensor)
    print("\ndecomposition:")
    print("  A(y) =", d.A.to_str("y"), " (coefficient of dx^2/x)")
    print("  B(x) =", d.B.to_str("x"), " (coefficient of dy^2/y)")
    print("  regular remainder =", format_quadrant_tensor(d.regular))
    print("  reconstruction exact:", d.reconstruct() == tensor)

    print("\na cross-term pole cannot occur in a smooth tensor:")
    bad = parse_tensor("(1/x)*dx*dy", "quadrant")
    show_parity(bad)
    try:
        decompose_quadrant(bad)
    except NotSmoothError as err:
        print("  rejected:", err)


if __name__ == "__main__":
    main()
