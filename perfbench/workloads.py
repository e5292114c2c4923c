"""Seeded operation lists for the three benchmark workloads.

Each workload is an endless sequence of rounds; the runner warms up on the
first and times the ones after it, so no timed input was seen before.  A round
has a fixed composition (how many operations of each kind and truncation
order), so every seed gives the same mix and only the generated coefficients,
germs and term counts differ.  The
program receives only the expression strings (and plain integers such as a
truncation order); the structured data next to them feeds the independent
references in ``reference.py``.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction

# One round of halfline-deep, one (kind, order, shape) slot per op.  Every
# seed gets the same slots; only coefficients, units and base points differ.
# A "cycle" value turns with the round number, so k and m cover their ranges
# evenly over a run.  The median lands among the order-16 pullbacks and the
# tail among the order-256 ones, never on a boundary between two classes.
# Order 256 keeps k = 2 and simple poles: a double pole there costs ten times
# any other op, and a handful of such ops would decide the tail on their own.
HALFLINE_ROUND = (
    ("boundary", 16, {"k": 2, "m": 1}), ("boundary", 16, {"k": 2, "m": 2}),
    ("boundary", 16, {"k": 2, "m": 3}), ("boundary", 16, {"k": "cycle", "m": "cycle"}),
    ("interior", 16, {"k": 2}), ("metric", 16, {"shape": "pole"}),
    ("metric", 16, {"shape": "signed"}), ("decompose", 16, {}), ("decompose", 16, {}),
    ("capacity", 16, {}),
    ("boundary", 64, {"k": 2, "m": "cycle"}), ("boundary", 64, {"k": "cycle", "m": "cycle"}),
    ("interior", 64, {"k": 2}), ("metric", 64, {"shape": "positive"}),
    ("decompose", 64, {}), ("capacity", 64, {}),
    ("boundary", 256, {"k": 2, "m": "cycle"}), ("boundary", 256, {"k": 2, "m": "cycle"}),
    ("interior", 256, {"k": 2}), ("metric", 256, {"shape": "positive"}),
)
CYCLED_K = (1, 3, 4)
# quadrant-paths: eight valid tensors whose term counts cover 10..49 evenly run
# the whole pipeline; the two invalid kinds must be rejected and take the cheap
# parity-only path.
QUADRANT_ROUND = ("valid",) * 8 + ("cross-pole", "wrong-axis")
CLI_COMMANDS = (
    "decompose", "pullback", "capacity", "verify-capacity",
    "check-metric", "gl-check", "parity",
)

# Rounds are generated lazily, without end, so no input repeats within a run
# and a cache in the program would gain nothing from the benchmark itself.
PARAMS = {
    "halfline-deep": {
        "trace_rounds": 4, "round": HALFLINE_ROUND, "cycled_k": CYCLED_K,
        "coeff_num": 9, "coeff_den": 9, "degree": (4, 5, 6), "boundary_m": (1, 2, 3),
        "germ_terms": (2, 3, 4),
    },
    "quadrant-paths": {
        "trace_rounds": 8, "round": QUADRANT_ROUND, "order": 16,
        "coeff_num": 9, "coeff_den": 9, "terms": (10, 49), "max_exponent": 4,
        "pole_max_exponent": 9, "boundary_m": (1, 2), "germ_terms": (2, 3),
    },
    "cli-sessions": {
        "trace_rounds": 12, "commands": CLI_COMMANDS,
        "formats": ("text", "json"), "order": "default",
    },
}


@dataclass
class Op:
    """One operation: what the program is given, plus data for the reference."""

    index: int
    kind: str
    order: int | None
    inputs: dict          # strings and integers handed to the program
    data: dict = field(default_factory=dict)   # structured truth, never passed on
    expected: object = None                    # reference verdict, filled on first check
    in_process: tuple | None = None            # CLI only: what cornerjet.cli.run gives in-process


# -- expression formatting ----------------------------------------------------


def _rat(rng: random.Random, num: int, den: int) -> Fraction:
    n = rng.randint(1, num) * rng.choice((-1, 1))
    return Fraction(n, rng.randint(1, den))


def _pos_rat(rng: random.Random, num: int, den: int) -> Fraction:
    return Fraction(rng.randint(1, num), rng.randint(1, den))


def _monomial(var: str, e: int) -> str:
    if e == 0:
        return ""
    return var if e == 1 else "%s^%d" % (var, e)


def _sum_str(terms: list[tuple[Fraction, str]]) -> str:
    """'c1*m1 + c2*m2 - ...' with exact rationals; the first coefficient may be negative."""
    out = []
    for c, mono in terms:
        mag = abs(c)
        body = str(mag) if not mono else ("%s*%s" % (mag, mono) if mag != 1 else mono)
        if not out:
            out.append(("-" if c < 0 else "") + body)
        else:
            out.append(("- " if c < 0 else "+ ") + body)
    return " ".join(out)


def _series_str(coeffs: dict[int, Fraction], var: str) -> str:
    return _sum_str([(c, _monomial(var, d)) for d, c in sorted(coeffs.items())])


def _laurent(rng, lo: int, hi: int, num: int, den: int, positive: bool = False) -> dict[int, Fraction]:
    """Coefficients on [lo, hi], both ends nonzero, inner ones present with odds 4/5."""
    draw = _pos_rat if positive else _rat
    coeffs = {}
    for d in range(lo, hi + 1):
        if d in (lo, hi) or rng.random() < 0.8:
            coeffs[d] = draw(rng, num, den)
    return coeffs


def _boundary_germ(rng, m: int, unit_terms: int) -> tuple[str, dict]:
    unit = [_pos_rat(rng, 5, 4)] + [_rat(rng, 5, 7) for _ in range(unit_terms - 1)]
    text = "t^%d*(%s)" % (2 * m, _series_str(dict(enumerate(unit)), "t"))
    return text, {"type": "boundary", "m": m, "unit": unit}


def _interior_germ(rng, jet_terms: int) -> tuple[str, dict]:
    x0 = _pos_rat(rng, 9, 4)
    jet = [x0] + [_rat(rng, 5, 7) for _ in range(jet_terms - 1)]
    text = "interior(%s; %s)" % (x0, _series_str(dict(enumerate(jet)), "t"))
    return text, {"type": "interior", "x0": x0, "jet": jet}


# -- halfline-deep ------------------------------------------------------------


def _halfline_op(rng, index: int, r: int, slot: int, kind: str, order: int, shape: dict,
                 p: dict) -> Op:
    num, den = p["coeff_num"], p["coeff_den"]
    turn = r + slot   # sizes turn with round and slot, so each run covers them evenly
    hi = p["degree"][turn % 3]
    if kind in ("boundary", "interior"):
        k = p["cycled_k"][r % 3] if shape["k"] == "cycle" else shape["k"]
        lo = -2 if k == 4 and r % 2 and order < 256 else -1
        coeff = _laurent(rng, lo, hi, num, den)
        if kind == "boundary":
            ms = p["boundary_m"]
            m = ms[(r // 3) % len(ms)] if shape["m"] == "cycle" else shape["m"]
            plot, germ = _boundary_germ(rng, m, p["germ_terms"][(turn // 3) % 3])
        else:
            plot, germ = _interior_germ(rng, p["germ_terms"][(turn // 3) % 3])
        inputs = {"tensor": "(%s)*dx^%d" % (_series_str(coeff, "x"), k), "plot": plot}
        return Op(index, kind, order, inputs, {"k": k, "coeff": coeff, "germ": germ})
    if kind == "metric":
        if shape["shape"] == "pole":   # rejected on the first germ
            coeff = _laurent(rng, -1, hi, num, den)
        else:
            coeff = _laurent(rng, r % 2, hi, num, den, positive=shape["shape"] == "positive")
        return Op(index, kind, order, {"tensor": "(%s)*dx^2" % _series_str(coeff, "x")},
                  {"coeff": coeff})
    if kind == "decompose":
        coeff = _laurent(rng, -1 if r % 4 else 0, hi, num, den)
        return Op(index, kind, order, {"tensor": "(%s)*dx^2" % _series_str(coeff, "x")},
                  {"coeff": coeff})
    if kind == "capacity":
        inputs = {"k": rng.randint(0, 6), "p": rng.randint(0, 3), "m_max": rng.randint(3, 6)}
        return Op(index, kind, order, inputs, dict(inputs))
    raise ValueError(kind)


# -- quadrant-paths -------------------------------------------------------------


def _keys(rng, xs, ys, n: int) -> list[tuple[int, int]]:
    return rng.sample([(i, j) for i in xs for j in ys], n)


def _quadrant_tensor(rng, n_terms: int, kind: str, p: dict) -> dict[str, dict]:
    """Exactly ``n_terms`` terms for a valid tensor, one more for an invalid one."""
    num, den = p["coeff_num"], p["coeff_den"]
    reg, poles = range(0, p["max_exponent"] + 1), range(0, p["pole_max_exponent"] + 1)
    share = [n_terms // 5] * 5
    share[4] += n_terms - sum(share)
    a = {key: _rat(rng, num, den) for key in _keys(rng, [-1], poles, share[0])}
    a.update({key: _rat(rng, num, den) for key in _keys(rng, reg, reg, share[1])})
    b = {key: _rat(rng, num, den) for key in _keys(rng, poles, [-1], share[2])}
    b.update({key: _rat(rng, num, den) for key in _keys(rng, reg, reg, share[3])})
    c = {key: _rat(rng, num, den) for key in _keys(rng, reg, reg, share[4])}
    if kind == "cross-pole":
        key = (-1, rng.choice(reg)) if rng.random() < 0.5 else (rng.choice(reg), -1)
        c[key] = _rat(rng, num, den)
    elif kind == "wrong-axis":
        if rng.random() < 0.5:
            a[(rng.choice(reg), -1)] = _rat(rng, num, den)
        else:
            b[(-1, rng.choice(reg))] = _rat(rng, num, den)
    return {"a": a, "b": b, "c": c}


_BASIS = {"a": "dx^2", "b": "dy^2", "c": "dx*dy"}


def _quadrant_str(parts: dict[str, dict], rng) -> str:
    terms = []
    for name, comp in parts.items():
        for (i, j), c in comp.items():
            mono = "*".join(s for s in (_monomial("x", i), _monomial("y", j)) if s)
            terms.append((c, (mono + "*" if mono else "") + _BASIS[name]))
    rng.shuffle(terms)
    return _sum_str(terms)


def _positional(expr: str) -> list[str]:
    """An expression that starts with a minus sign must follow '--' on the CLI."""
    return ["--", expr] if expr.startswith("-") else [expr]


def _quadrant_op(rng, index: int, r: int, slot: int, kind: str, p: dict) -> Op:
    lo, hi = p["terms"]
    width = (hi - lo + 1) / QUADRANT_ROUND.count("valid")
    if kind == "valid":   # slot i draws from the i-th stretch of the term range
        n_terms = lo + int(width * slot) + rng.randrange(int(width))
    else:
        n_terms = rng.randint(lo, hi)
    parts = _quadrant_tensor(rng, n_terms, kind, p)
    inputs = {"tensor": _quadrant_str(parts, rng)}
    data = {"parts": parts}
    if kind == "valid":
        ms, sizes = p["boundary_m"], p["germ_terms"]
        boundary, bgerm = _boundary_germ(rng, ms[(slot // 2) % 2], sizes[(r + slot) % 2])
        interior, igerm = _interior_germ(rng, sizes[(r + slot // 2) % 2])
        if slot % 2 == 0:
            inputs.update(px=boundary, py=interior)
            data.update(px=bgerm, py=igerm)
        else:
            inputs.update(px=interior, py=boundary)
            data.update(px=igerm, py=bgerm)
    return Op(index, kind, p["order"], inputs, data)


# -- cli-sessions -------------------------------------------------------------


# Small quadrant tensors for the parity and decompose subcommands.
_CLI_QUADRANT = {"coeff_num": 9, "coeff_den": 9, "max_exponent": 2, "pole_max_exponent": 2}


def _cli_argv(rng, command: str, fmt: str) -> tuple[list[str], dict]:
    """A subcommand's argv, and the structured data the reference derives its exit code from."""
    flags = ["--format", fmt]
    if command == "decompose":
        if rng.random() < 0.5:
            coeff = _laurent(rng, -1, rng.randint(1, 3), 9, 9)
            return (["decompose", *flags, "--space", "halfline",
                     "(%s)*dx^2" % _series_str(coeff, "x")], {"space": "halfline", "k": 2, "coeff": coeff})
        parts = _quadrant_tensor(rng, rng.randint(3, 6), "valid", _CLI_QUADRANT)
        return (["decompose", *flags, "--space", "quadrant", *_positional(_quadrant_str(parts, rng))],
                {"space": "quadrant", "kind": "valid"})
    if command == "pullback":
        coeff = _laurent(rng, -1, rng.randint(1, 3), 9, 9)
        k = rng.choice((1, 2, 2, 3))
        plot, germ = _boundary_germ(rng, rng.randint(1, 2), rng.randint(1, 3)) if rng.random() < 0.7 \
            else _interior_germ(rng, rng.randint(2, 3))
        return (["pullback", *flags, "--plot", plot, "(%s)*dx^%d" % (_series_str(coeff, "x"), k)],
                {"k": k, "coeff": coeff, "germ": germ})
    if command == "capacity":
        return ["capacity", *flags, str(rng.randint(0, 12))], {}
    if command == "verify-capacity":
        k, p, m_max = rng.randint(0, 6), rng.randint(0, 3), rng.randint(2, 6)
        return (["verify-capacity", *flags, str(k), str(p), "--m-max", str(m_max)],
                {"k": k, "p": p, "m_max": m_max})
    if command == "check-metric":
        coeff = _laurent(rng, rng.choice((-1, 0, 0, 1)), rng.randint(1, 3), 9, 9,
                         positive=rng.random() < 0.5)
        return ["check-metric", *flags, "(%s)*dx^2" % _series_str(coeff, "x")], {"coeff": coeff}
    if command == "gl-check":
        # c*(t - a)^2 + d, expanded: nonnegative, so the inequality holds.
        c, a, d = _pos_rat(rng, 5, 4), _rat(rng, 3, 4), _pos_rat(rng, 3, 5) - 1
        d = max(d, Fraction(0))
        poly = {2: c, 1: -2 * c * a, 0: c * a * a + d}
        f = _sum_str([(v, _monomial("t", e)) for e, v in sorted(poly.items(), reverse=True) if v])
        return (["gl-check", *flags, "--f", f, "--interval", "-1", "1",
                 "--grid", str(rng.choice((256, 512, 1024)))], {})
    if command == "parity":
        kind = rng.choice(("valid", "valid", "cross-pole"))
        parts = _quadrant_tensor(rng, rng.randint(3, 6), kind, _CLI_QUADRANT)
        return ["parity", *flags, *_positional(_quadrant_str(parts, rng))], {"kind": kind}
    raise ValueError(command)


# -- entry point --------------------------------------------------------------


def rounds(workload: str, seed: int) -> Iterator[list[Op]]:
    """The workload's ops for ``seed``, as endless rounds of fixed composition."""
    p = PARAMS[workload]
    rng = random.Random("%s:%d" % (workload, seed))
    index = 0
    for r in itertools.count():
        ops = []
        if workload == "cli-sessions":
            for i, command in enumerate(p["commands"]):
                fmt = p["formats"][(r + i) % 2]   # every command in both forms
                argv, data = _cli_argv(rng, command, fmt)
                ops.append(Op(index, "cli", None, {"argv": argv}, {"command": command, **data}))
                index += 1
        elif workload == "halfline-deep":
            for kind, order, shape in p["round"]:
                ops.append(_halfline_op(rng, index, r, len(ops), kind, order, shape, p))
                index += 1
        else:
            for slot, kind in enumerate(p["round"]):
                ops.append(_quadrant_op(rng, index, r, slot, kind, p))
                index += 1
        rng.shuffle(ops)
        yield ops


def generate(workload: str, seed: int, n_rounds: int) -> list[list[Op]]:
    """The first ``n_rounds`` rounds of ``rounds(workload, seed)``."""
    return list(itertools.islice(rounds(workload, seed), n_rounds))


def coverage_ops(seed: int) -> list[Op]:
    """Ops that reach every traced callable: one CLI round and two quadrant paths.

    Traced runs append them to every pass so that each named per-layer metric
    is measured on every workload, not reported as a constant zero.
    """
    cli = generate("cli-sessions", seed, 1)[0]
    quad = [op for op in generate("quadrant-paths", seed, 1)[0] if op.kind == "valid"]
    return cli + quad[:2]
