"""The admissibility, descent and contact-cleaning checks and the internal
consistency checks raise named errors, also under -O; no division in the
package can give a float, and no coefficient that the corpus reaches is
one."""

import ast
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import wblow
from wblow import (
    DescentError,
    InadmissibleCenterError,
    LocalIdeal,
    TriangularizationError,
    WeightedCenter,
    canonical_center,
    embedded_resolve,
    parse_polynomial,
    principalize,
)
from wblow.arith import INF

from test_blowup import benchmark_corpus

VS = ("x", "y")
CUSP = LocalIdeal(VS, [parse_polynomial("x^2 + y^3", VS)])
# x^2 - (x - y)^3 + z^3: its contact candidate is cleaned against the
# other generators of its derivative level by an exact linear solve (a
# level in two variables, such as x^2 - (x - y)^3 alone, cleans nothing)
VS3 = ("x", "y", "z")
SHEARED = LocalIdeal(
    VS3, [parse_polynomial("x^2 - x^3 + 3*x^2*y - 3*x*y^2 + y^3 + z^3", VS3)]
)
SRC = str(Path(wblow.__file__).resolve().parent.parent)


def test_inadmissible_center_is_named(monkeypatch):
    monkeypatch.setattr(WeightedCenter, "admissible", lambda self, ideal: False)
    with pytest.raises(InadmissibleCenterError):
        canonical_center(CUSP)


def test_missing_descent_is_named(monkeypatch):
    # every node reports the root's invariant, so the first child cannot drop
    root = canonical_center(CUSP)
    monkeypatch.setattr(wblow.driver, "canonical_center", lambda ideal: root)
    with pytest.raises(DescentError, match="does not drop"):
        principalize(CUSP)


def test_wrong_cleaning_solution_is_named(monkeypatch):
    # the zero solution leaves the candidate's sigma monomials in place
    monkeypatch.setattr(wblow.contact, "solve_linear", lambda rows, ncols: [0] * ncols)
    with pytest.raises(TriangularizationError, match="left a sigma monomial"):
        canonical_center(SHEARED)


_UNDER_O = """
import wblow
from wblow import *

VS = ("x", "y")
cusp = LocalIdeal(VS, [parse_polynomial("x^2 + y^3", VS)])
if __debug__:
    raise SystemExit("asserts are on")
root = canonical_center(cusp)
wblow.driver.canonical_center = lambda ideal: root
try:
    principalize(cusp)
except DescentError:
    print("DescentError")
WeightedCenter.admissible = lambda self, ideal: False
try:
    canonical_center(cusp)
except InadmissibleCenterError:
    print("InadmissibleCenterError")
"""


def test_checks_survive_optimized_mode():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-O", "-c", _UNDER_O],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["DescentError", "InadmissibleCenterError"]


_CLEANING_UNDER_O = """
import wblow
from wblow import *

VS = ("x", "y", "z")
sheared = LocalIdeal(VS, [parse_polynomial("x^2 - x^3 + 3*x^2*y - 3*x*y^2 + y^3 + z^3", VS)])
if __debug__:
    raise SystemExit("asserts are on")
wblow.contact.solve_linear = lambda rows, ncols: [0] * ncols
try:
    canonical_center(sheared)
except TriangularizationError as exc:
    print(type(exc).__name__)
"""


def test_cleaning_check_survives_optimized_mode():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-O", "-c", _CLEANING_UNDER_O],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["TriangularizationError"]


# each internal check, provoked by feeding a helper what its callers never do
_INTERNAL = """
from types import SimpleNamespace

import wblow
from wblow import *
from wblow.canonical import _resolve_levels

VS = ("x", "y")
cusp = LocalIdeal(VS, [parse_polynomial("x^2 + y^3", VS)])
center = canonical_center(cusp).center


def attempts():
    yield lambda: _resolve_levels([(cusp, 1)], ())
    yield lambda: _resolve_levels([(LocalIdeal.unit(VS), 1)], VS)
    wblow.contact._order_one_candidates = lambda ideal, d: []
    yield lambda: find_maximal_contact(cusp)
    no_ring = SimpleNamespace(variables=None)
    yield lambda: cusp.generators[0].substitute({"x": no_ring, "y": no_ring})
    wblow.center.math = SimpleNamespace(lcm=lambda *numerators: 1)
    yield lambda: WeightedCenter(VS, center.entries, center.exponents)


for attempt in attempts():
    try:
        attempt()
    except (IdealOrderError, RuntimeError) as exc:
        print(type(exc).__name__)
"""
_INTERNAL_RAISED = [
    "IdealOrderError",
    "IdealOrderError",
    "RuntimeError",
    "RuntimeError",
    "RuntimeError",
]


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["default", "optimized"])
def test_internal_checks_are_explicit(flags):
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, *flags, "-c", _INTERNAL],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == _INTERNAL_RAISED


def test_package_holds_no_assert():
    # python -O strips assert statements, so a check in the package must
    # raise a named error instead
    package = Path(wblow.__file__).resolve().parent
    modules = sorted(package.rglob("*.py"))
    assert {"center.py", "cli.py"} <= {m.name for m in modules}
    found = []
    for module in modules:
        tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
        found += [
            f"{module.relative_to(package)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def _referenced_names(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_package_holds_no_orphan_private_helper():
    # a private module-level function or class that nothing else in the
    # package names is dead code, such as a shortcut whose call site went
    package = Path(wblow.__file__).resolve().parent
    statements = []
    for module in sorted(package.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
        statements += [(module.name, stmt) for stmt in tree.body]
    uses = [_referenced_names(stmt) for _, stmt in statements]
    orphans = []
    for i, (name, stmt) in enumerate(statements):
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not stmt.name.startswith("_") or stmt.name.endswith("__"):
            continue
        if not any(stmt.name in used for j, used in enumerate(uses) if j != i):
            orphans.append(f"{name}:{stmt.lineno} {stmt.name}")
    assert len(statements) > 100
    assert orphans == []



def _defined_names(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


def test_every_public_name_has_a_user():
    # a name in wblow.__all__ must be used in the package outside its own
    # definition, documented in README.md or used by perfbench/; a public
    # name whose only callers are tests belongs with the tests
    package = Path(wblow.__file__).resolve().parent
    repo = Path(__file__).resolve().parent.parent
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    source = {
        alias.asname or alias.name: alias.name
        for stmt in init.body
        if isinstance(stmt, ast.ImportFrom)
        for alias in stmt.names
    }
    uses = [
        (_defined_names(stmt), _referenced_names(stmt))
        for module in sorted(package.glob("*.py"))
        if module.name != "__init__.py"
        for stmt in ast.parse(module.read_text(encoding="utf-8")).body
    ]
    outside = (repo / "README.md").read_text(encoding="utf-8") + "".join(
        f.read_text(encoding="utf-8") for f in sorted((repo / "perfbench").glob("*.py"))
    )
    unused = []
    for public in wblow.__all__:
        if public == "__version__":
            continue
        name = source[public]
        if any(name in used and name not in defined for defined, used in uses):
            continue
        if not re.search(rf"\b{re.escape(public)}\b", outside):
            unused.append(public)
    assert len(source) == len(wblow.__all__) - 1
    assert unused == []

def _is_fraction_call(node):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Fraction"
    )


def test_package_divides_only_fractions():
    # a coefficient may be a plain int, and int / int is a float, so every
    # true division in the package names a Fraction operand; coefficients
    # go through kernel.quotient, which divides by building Fraction(a, b)
    package = Path(wblow.__file__).resolve().parent
    found = []
    divisions = 0
    for module in sorted(package.rglob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                operands = (node.left, node.right)
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
                operands = (node.value,)
            else:
                continue
            divisions += 1
            if not any(_is_fraction_call(op) for op in operands):
                found.append(f"{module.relative_to(package)}:{node.lineno}")
    assert divisions > 0
    assert found == []


def _assert_coefficients(poly):
    for c in poly.terms.values():
        assert type(c) in (int, Fraction), (poly, c)


def _assert_center(invariant, center):
    # the unit ideal's invariant is the plain (0,)
    assert invariant == (0,) or all(
        d == INF or type(d) is Fraction for d in invariant
    ), invariant
    for entry in getattr(center, "entries", ()):
        _assert_coefficients(entry.tail)


def test_corpus_coefficients_are_ints_or_fractions():
    # parsing stores integral coefficients as ints, and no float or bool
    # reaches a node's ideal or point, an invariant or a frame tail of any
    # center or tree that the benchmark corpus builds at seed 0
    corpus = benchmark_corpus()
    trees = 0
    for workload in corpus.WORKLOADS:
        for case in corpus.build(workload, 0):
            gens = [parse_polynomial(g, case.variables) for g in case.generators]
            for g in gens:
                for c in g.terms.values():
                    assert type(c) is (int if c.denominator == 1 else Fraction), (g, c)
            ideal = LocalIdeal(case.variables, gens)
            try:
                if case.mode == "center":
                    result = canonical_center(ideal)
                    _assert_center(result.invariant, result.center)
                    continue
                run = principalize if case.mode == "principalize" else embedded_resolve
                tree = run(ideal)
            except TriangularizationError:
                continue
            trees += 1
            for node in tree.nodes.values():
                assert all(type(c) is Fraction for c in node.point), node.point
                for g in node.ideal.generators:
                    _assert_coefficients(g)
                _assert_center(node.invariant, node.center)
    assert trees > 500
