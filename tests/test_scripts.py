"""The example scripts print exactly what they printed when last reviewed.

Each script runs as its own process on the package in ``src/``; its stdout is
compared byte for byte.  ``glaeser_landau_sweep.py`` is left out: it takes
seconds and exercises only the float oracle, which ``test_numeric.py`` covers.
README's library example runs too, and each value its comments show is checked.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

CAPACITY_FRONTIER = """\
  k  frontier  floor(k/2)  margins (m = 1..6, binding marked)
  0         0           0  [0*, 0, 0, 0, 0, 0]
     first inadmissible p = 1: margins [-2, -4, -6, -8, -10, -12]
  1         0           0  [1*, 3, 5, 7, 9, 11]
     first inadmissible p = 1: margins [-1, -1, -1, -1, -1, -1]
  2         1           1  [0*, 2, 4, 6, 8, 10]
     first inadmissible p = 2: margins [-2, -2, -2, -2, -2, -2]
  3         1           1  [1*, 5, 9, 13, 17, 21]
     first inadmissible p = 2: margins [-1, 1, 3, 5, 7, 9]
  4         2           2  [0*, 4, 8, 12, 16, 20]
     first inadmissible p = 3: margins [-2, 0, 2, 4, 6, 8]
  5         2           2  [1*, 7, 13, 19, 25, 31]
     first inadmissible p = 3: margins [-1, 3, 7, 11, 15, 19]
  6         3           3  [0*, 6, 12, 18, 24, 30]
     first inadmissible p = 4: margins [-2, 2, 6, 10, 14, 18]
  7         3           3  [1*, 9, 17, 25, 33, 41]
     first inadmissible p = 4: margins [-1, 5, 11, 17, 23, 29]
  8         4           4  [0*, 8, 16, 24, 32, 40]
     first inadmissible p = 5: margins [-2, 4, 10, 16, 22, 28]
"""

QUADRANT_DEMO = """\
input tensor: x^-1*y^2*dx^2 + y^-1*dy^2 + x*y*dx*dy

square-map pullback (x,y) -> (u^2,v^2):
  du^2  coefficient: 4*v^4
  dv^2  coefficient: 4
  du*dv coefficient: 4*u^3*v^3
  du^2   expected even-even occupied: even-even(1)             ok
  dv^2   expected even-even occupied: even-even(1)             ok
  du*dv  expected odd-odd   occupied: odd-odd(1)               ok

decomposition:
  A(y) = y^2  (coefficient of dx^2/x)
  B(x) = 1  (coefficient of dy^2/y)
  regular remainder = x*y*dx*dy
  reconstruction exact: True

a cross-term pole cannot occur in a smooth tensor:
  du^2   expected even-even occupied: -                        ok
  dv^2   expected even-even occupied: -                        ok
  du*dv  expected odd-odd   occupied: odd-odd(1)               VIOLATED
  rejected: singular cross term: violates odd-odd parity
"""


@pytest.mark.parametrize(
    "script, expected",
    [("capacity_frontier.py", CAPACITY_FRONTIER), ("quadrant_demo.py", QUADRANT_DEMO)],
)
def test_script_output_is_pinned(script, expected):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        capture_output=True, env=env, cwd=ROOT, timeout=60,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == expected.encode()


def test_readme_library_example():
    readme = (ROOT / "README.md").read_text()
    example = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    example = example.split("```", 1)[0]
    namespace: dict = {}
    exec(example, namespace)
    # a line "expression   # value  (remark)" shows the repr of its value
    shown = re.findall(r"^(\S.*?)\s+# ('[^']*'|Fraction\(\d+, \d+\))", example, re.M)
    assert [value for _, value in shown] == [
        "'4'", "Fraction(1, 1)", "'3 + x'", "'definiteness-zero-required'"]
    for expression, value in shown:
        assert repr(eval(expression, namespace)) == value, expression
