"""The closed form for two-variable monomial levels.

A level whose summands base^k are all monomial in two variables gets both
of its exponents from one minimum over the generators' exponents.  The
generic level reaches the same numbers the long way round: it expands the
sum of powers, builds the derivative tower, restricts it to the contact
hypersurface and takes the one-variable order there.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import wblow
from wblow.arith import INF, Polynomial, parse_polynomial
from wblow.canonical import _generic_level, _resolve_levels, canonical_center
from wblow.driver import principalize
from wblow.ideals import LocalIdeal

VS = ("x", "y")
VS3 = ("x", "y", "z")
SRC = str(Path(wblow.__file__).resolve().parent.parent)


def _random_monomial_base(rng):
    monos = set()
    while not monos:
        for _ in range(rng.randint(1, 3)):
            mono = (rng.randint(0, 4), rng.randint(0, 4))
            if any(mono):
                monos.add(mono)
    return LocalIdeal(VS, [Polynomial(VS, {m: Fraction(1)}) for m in monos])


def test_closed_form_matches_the_derivative_tower():
    rng = random.Random(20250601)
    for _ in range(400):
        summands = [
            (_random_monomial_base(rng), rng.randint(1, 3))
            for _ in range(rng.randint(1, 3))
        ]
        total = None
        for b, k in summands:
            total = b**k if total is None else total + b**k
        closed, closed_entries = _resolve_levels(summands, VS)
        generic, generic_entries = _generic_level(total)
        assert closed == generic, summands
        assert [v for v, _ in closed_entries] == [v for v, _ in generic_entries]


def test_monomial_with_level_order_ten_factorial():
    # the second level order is 10! = 3,628,800
    ideal = LocalIdeal(VS3, [parse_polynomial("x*y^4*z^5", VS3)])
    r = canonical_center(ideal)
    assert r.invariant == (Fraction(10), Fraction(10), Fraction(10), INF)
    assert repr(r.center) == "[(z)^10, (y)^10, (x)^10]"
    tree = principalize(ideal)
    assert tree.status == "principal"
    assert tree.steps == 10


def test_import_needs_no_numpy():
    out = subprocess.run(
        [sys.executable, "-c", "import sys, wblow; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"]
