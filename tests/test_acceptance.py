"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Every
comparison is exact (zero tolerance) unless the criterion itself states a
floating-point tolerance; random data is seeded, so the suite is
reproducible bit for bit.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from cornerjet import (
    LaurentJet,
    NotSmoothError,
    SampledFunction,
    capacity,
    check_metric,
    decompose_halfline,
    decompose_quadrant,
    glaeser_landau_check,
    parse_tensor,
    pullback_halfline,
    pullback_sq2,
    tau_sing,
    verify_capacity,
)
from cornerjet.capacity import capacity_table
from cornerjet.cli import run
from cornerjet.jets import Jet1, LaurentJet2, parity_masses
from cornerjet.plots import BoundaryGerm
from cornerjet.pullback import Status

from oracles import (
    make_boundary_plot,
    make_halfline_tensor,
    make_quadrant_tensor,
    singular_plus_regular,
)
from test_cli import (
    SCENARIOS,
    fraction_from_str,
    jet1_from_json,
    laurent2_from_json,
    laurent_from_json,
)
from test_numeric import poly_from_roots


@contextmanager
def criterion(number: int, label: str, budget_s: float | None = None):
    start = time.perf_counter()
    state = {}
    try:
        yield state
    except BaseException:
        print("criterion %d (%s): FAIL" % (number, label))
        raise
    elapsed = time.perf_counter() - start
    elapsed = state.get("elapsed", elapsed)
    if budget_s is not None:
        assert elapsed < budget_s, "took %.4f s, budget %.4f s" % (elapsed, budget_s)
    print("criterion %d (%s): PASS [%.3f ms]" % (number, label, elapsed * 1e3))


def rational(rng: random.Random, bound: int = 10, max_den: int = 12) -> F:
    den = rng.randint(1, max_den)
    return F(rng.randint(-bound * den, bound * den), den)


def test_criterion_1_singular_pullback_along_square_map():
    with criterion(1, "singular 2-tensor pulls back to the constant 4", 1e-3) as state:
        tensor = tau_sing()
        plot = make_boundary_plot(1, 1)
        pullback_halfline(tensor, plot)  # warm-up outside the timed runs
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            verdict = pullback_halfline(tensor, plot)
            best = min(best, time.perf_counter() - start)
        state["elapsed"] = best
        assert verdict.status is Status.SMOOTH
        assert verdict.witness == LaurentJet(0, [4])


def test_criterion_2_halfline_decomposition_round_trip():
    rng = random.Random(20240201)
    with criterion(2, "500 half-line round trips, proof path = valuation split", 1.0):
        for _ in range(500):
            c = rational(rng, bound=100, max_den=20)
            regular = Jet1([rational(rng) for _ in range(17)])
            tensor = singular_plus_regular(c, regular)
            result = decompose_halfline(tensor, order=16)
            assert result.c == c
            assert result.regular == regular
            assert result.reconstruct().coeff == tensor.coeff
            # independent oracle: split the coefficient at valuation 0
            assert result.c == tensor.coeff.coefficient(-1)
            assert result.regular == Jet1(
                tuple(tensor.coeff.coefficient(d) for d in range(17))
            )


def _random_regular(rng: random.Random, terms: int = 6, degree: int = 6) -> LaurentJet2:
    return LaurentJet2(
        {(rng.randint(0, degree), rng.randint(0, degree)): rational(rng) for _ in range(terms)}
    )


def _build_quadrant(A: Jet1, B: Jet1, reg_a, reg_b, reg_c):
    a = LaurentJet2({(-1, j): c for j, c in enumerate(A.coeffs) if c != 0}) + reg_a
    b = LaurentJet2({(i, -1): c for i, c in enumerate(B.coeffs) if c != 0}) + reg_b
    return make_quadrant_tensor(a, b, reg_c)


def test_criterion_3_quadrant_decomposition():
    rng = random.Random(20240302)
    with criterion(3, "quadrant round trips, cross poles rejected with witness", 2.0):
        for _ in range(200):
            A = Jet1([rational(rng) for _ in range(9)])
            B = Jet1([rational(rng) for _ in range(9)])
            reg_a, reg_b, reg_c = (_random_regular(rng) for _ in range(3))
            tensor = _build_quadrant(A, B, reg_a, reg_b, reg_c)
            result = decompose_quadrant(tensor, order=8)
            assert result.A == A and result.B == B
            assert result.regular.a == reg_a
            assert result.regular.b == reg_b
            assert result.regular.c == reg_c
            assert result.reconstruct() == tensor
            cx, cy = result.regular.c.valuations
            assert cx >= 0 and cy >= 0
        for _ in range(60):
            cross = _random_regular(rng, terms=3) + LaurentJet2(
                {(rng.randint(-4, -1), rng.randint(0, 3)): F(rng.randint(1, 9))}
            )
            tensor = make_quadrant_tensor(_random_regular(rng, 2), _random_regular(rng, 2), cross)
            with pytest.raises(NotSmoothError, match="singular cross term") as err:
                decompose_quadrant(tensor)
            witness = err.value.parity.components["du*dv"]
            occupied = {s for s, n in witness.masses.items() if n}
            assert occupied == {"odd-odd"}
            assert min(witness.min_degrees) < 0


def test_criterion_4_parity_selection_rule():
    rng = random.Random(20240403)
    with criterion(4, "square-map pullbacks of 200 pole-free tensors stay in their sectors"):
        for _ in range(200):
            tensor = make_quadrant_tensor(
                _random_regular(rng), _random_regular(rng), _random_regular(rng)
            )
            pulled = pullback_sq2(tensor)
            for component in (pulled.a, pulled.b):
                masses = parity_masses(component)
                assert masses["even-odd"] == masses["odd-even"] == masses["odd-odd"] == 0
            cross = parity_masses(pulled.c)
            assert cross["even-even"] == cross["even-odd"] == cross["odd-even"] == 0


def test_criterion_5_capacity_frontier_and_margins():
    with criterion(5, "capacity table and 270 margin/pullback agreements", 1.0):
        table = capacity_table(8)
        assert table == [(k, k // 2) for k in range(9)]
        for k in range(9):
            for p in range(1, 6):
                report = verify_capacity(k, p, 6)
                tensor = make_halfline_tensor(k, LaurentJet(-p, [1]))
                for m in range(1, 7):
                    verdict = pullback_halfline(tensor, make_boundary_plot(m, 1))
                    assert verdict.witness.valuation == report.margins[m - 1]
                if k >= 2 * p:
                    assert report.binding_m == 1
        assert capacity(2) == 1 and capacity(4) == 2  # frontier matches the floor rule


def test_criterion_6_metric_exclusion_of_singular_parts():
    rng = random.Random(20240604)
    with criterion(6, "singular metrics rejected with a boundary witness"):
        for _ in range(100):
            c = F(0)
            while c == 0:
                c = rational(rng, bound=50, max_den=12)
            regular = Jet1([rational(rng) for _ in range(9)])
            g = singular_plus_regular(c, regular)
            verdict = check_metric(g)
            assert not verdict.accepted
            assert isinstance(verdict.witness.plot, BoundaryGerm)
        assert check_metric(parse_tensor("dx^2", "halfline")).accepted
        assert check_metric(parse_tensor("(1+x)*dx^2", "halfline")).accepted


def test_criterion_7_discriminant_inequality_oracle():
    rng = random.Random(20240705)
    with criterion(7, "200 sum-of-squares samples pass the inequality check", 5.0):
        for _ in range(200):
            center = F(rng.randint(-12, 12), 4)
            half_width = F(rng.randint(4, 16), 4)
            cluster = half_width / 4
            squares = []
            for _ in range(rng.randint(1, 3)):
                degree = rng.randint(0, 3)
                scale = F(rng.randint(1, 8), 4) * rng.choice([1, -1])
                roots = [center + cluster * F(rng.randint(-8, 8), 8) for _ in range(degree)]
                squares.append(poly_from_roots(scale, roots))
            f = SampledFunction.sum_of_squares(
                squares, (center - half_width, center + half_width), grid_n=1024
            )
            assert glaeser_landau_check(f, tol=1e-9).passed
        equality_case = SampledFunction([0, 0, 1], (-1, 1), grid_n=1024)
        report = glaeser_landau_check(equality_case)
        assert abs(report.max_violation) <= 1e-12


def test_criterion_8_forms_vanish_on_boundary_germs():
    rng = random.Random(20240806)
    with criterion(8, "1-forms vanish along boundary contact; 1/x dx has a pole"):
        forms = [
            make_halfline_tensor(1, 1),
            make_halfline_tensor(1, LaurentJet(1, [1])),
            make_halfline_tensor(1, LaurentJet(0, [1, 1])),
        ] + [
            make_halfline_tensor(
                1, LaurentJet(0, [rational(rng) for _ in range(9)] + [F(1)])
            )
            for _ in range(20)
        ]
        for m in (1, 2, 3):
            plot = make_boundary_plot(m, 1)
            for form in forms:
                verdict = pullback_halfline(form, plot)
                assert verdict.witness.valuation >= 2 * m - 1 >= 1
                assert verdict.vanishing_order == verdict.witness.valuation
        pole_form = make_halfline_tensor(1, LaurentJet(-1, [1]))
        verdict = pullback_halfline(pole_form, make_boundary_plot(1, 1))
        assert verdict.status is Status.POLE and verdict.pole_order == 1
        assert verdict.witness == LaurentJet(-1, [2])
        assert capacity(1) == 0


def test_criterion_9_cli_contract(capsys):
    with criterion(9, "CLI scenario table and JSON schema round trip"):
        for argv, code, expected in SCENARIOS:
            assert run(argv) == code, argv
            assert capsys.readouterr().out.rstrip("\n") == expected, argv
        # JSON round trip through the documented schema
        assert run(["decompose", "--format", "json", "(1/x + 3 + x)*dx^2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        direct = decompose_halfline(parse_tensor("(1/x + 3 + x)*dx^2", "halfline"), order=16)
        assert fraction_from_str(payload["c"]) == direct.c
        assert jet1_from_json(payload["regular"]) == direct.regular
        assert run(
            ["pullback", "--format", "json", "--plot", "t^2", "(1/x^2)*dx^2"]
        ) == 2
        verdict_payload = json.loads(capsys.readouterr().out)
        assert laurent_from_json(verdict_payload["witness"]) == LaurentJet(-2, [4])
        expr = "(y^2/x)*dx^2 + (1/y)*dy^2 + x*y*dx*dy"
        assert run(["decompose", "--space", "quadrant", "--format", "json", expr]) == 0
        quadrant_payload = json.loads(capsys.readouterr().out)
        assert laurent2_from_json(quadrant_payload["regular"]["dx*dy"]) == LaurentJet2(
            {(1, 1): 1}
        )
        assert quadrant_payload["parity"]["rule_holds"] is True
        assert run(["capacity", "--format", "json", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["capacity"] == 2
