"""Checks of every answer, independent of the package's own asserts.

Each check returns None when the answer passes and a one-line reason
when it does not; a case with a reason counts as ``wrong``.

* Brieskorn-Pham germs x^a +- y^b (+ z^c) have the sorted exponents
  followed by inf as their invariant.
* The root invariant of a case whose input was recorded at the seed
  commit (``expected_roots.json``) equals the recorded value.
* Every returned center is admissible for its ideal.
* A tree, read back from ``report()``, descends: each child's invariant
  is strictly below its parent's.  The package checks this with an
  ``assert``, which ``python -O`` removes.
* A ``principal`` leaf holds the unit ideal and a ``smooth`` leaf has
  order at most one, read off the terms of the leaf's generators.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Dict, Optional

INF = float("inf")
EXPECTED_ROOTS = Path(__file__).with_name("expected_roots.json")


def load_expected() -> Dict[str, list]:
    with open(EXPECTED_ROOTS, encoding="utf-8") as fh:
        return json.load(fh)


def parse_invariant(strings) -> tuple:
    return tuple(INF if s == "inf" else Fraction(s) for s in strings)


def format_invariant(invariant) -> list:
    return ["inf" if d == INF else str(Fraction(d)) for d in invariant]


def root_invariant(case, result, report=None) -> list:
    """The root invariant of a result, as the strings a report prints."""
    if case.mode == "center":
        return format_invariant(result.invariant)
    return (report or result.report())["nodes"][0]["invariant"]


def _check_root(case, root: list, expected: Dict[str, list]) -> Optional[str]:
    if case.bp is not None:
        want = [str(e) for e in sorted(case.bp)] + ["inf"]
        if root != want:
            return "invariant %s, Brieskorn-Pham form gives %s" % (root, want)
    recorded = expected.get(case.key)
    if recorded is not None and root != recorded:
        return "invariant %s, recorded %s" % (root, recorded)
    return None


def _order(poly) -> float:
    return min((sum(m) for m in poly.terms), default=INF)


def _check_tree(tree, report) -> Optional[str]:
    nodes = {n["id"]: n for n in report["nodes"]}
    for node in report["nodes"]:
        inv = parse_invariant(node["invariant"])
        for child_id in node["children"]:
            child = parse_invariant(nodes[child_id]["invariant"])
            if not child < inv:
                return "%s -> %s does not descend: %s to %s" % (
                    node["id"],
                    child_id,
                    node["invariant"],
                    nodes[child_id]["invariant"],
                )
    for node in tree.nodes.values():
        if node.status in ("principal", "smooth"):
            order = min((_order(g) for g in node.ideal.generators), default=INF)
            if node.status == "principal" and order != 0:
                return "principal leaf %s has order %s, not a unit" % (node.id, order)
            if node.status == "smooth" and order > 1:
                return "smooth leaf %s has order %s" % (node.id, order)
        if node.center is not None and not node.center.admissible(node.ideal):
            return "center of %s is not admissible" % node.id
    return None


def check(case, ideal, result, expected: Dict[str, list]) -> Optional[str]:
    """None when `result` is a correct answer for `case`, else why not."""
    report = None if case.mode == "center" else result.report()
    reason = _check_root(case, root_invariant(case, result, report), expected)
    if reason is not None:
        return reason
    if case.mode == "center":
        if result.center is not None and not result.center.admissible(ideal):
            return "center is not admissible"
        return None
    return _check_tree(result, report)
