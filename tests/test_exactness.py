"""The exact modules hold no floats, and the pullback stage divides only exactly.

Every module of the package except the float oracle (``numeric.py``) and the
command line (``cli.py``, which reads ``--tol``) is parsed: a float literal or
a ``float(...)`` call fails the test, and so does a true division ``/`` in
``pullback.py``, whose integer stage uses ``//`` or ``Fraction``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cornerjet"
EXACT_MODULES = sorted(
    p.name for p in PACKAGE.glob("*.py") if p.name not in ("numeric.py", "cli.py")
)


def _violations(source: str, name: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            what = "float literal %r" % node.value
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            what = "float() call"
        elif (name == "pullback.py" and isinstance(node, (ast.BinOp, ast.AugAssign))
              and isinstance(node.op, ast.Div)):
            what = "true division"
        else:
            continue
        found.append((node.lineno, "%s at %s:%d" % (what, name, node.lineno)))
    return [text for _, text in sorted(found)]


def test_the_exact_modules_are_all_checked():
    assert {"jets.py", "pullback.py", "parser.py", "decompose.py"} <= set(EXACT_MODULES)


@pytest.mark.parametrize("name", EXACT_MODULES)
def test_no_floats_and_no_true_division(name):
    assert _violations((PACKAGE / name).read_text(), name) == []


def test_the_guard_sees_what_it_forbids():
    source = "x = 0.5\ny = float(1)\nz = 1 / 2\nz /= 2\nw = 1 // 2\n"
    assert _violations(source, "pullback.py") == [
        "float literal 0.5 at pullback.py:1",
        "float() call at pullback.py:2",
        "true division at pullback.py:3",
        "true division at pullback.py:4",
    ]
    assert _violations(source, "jets.py") == [
        "float literal 0.5 at jets.py:1", "float() call at jets.py:2",
    ]
