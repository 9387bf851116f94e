"""Iterated weighted blowups driven by the canonical center.

principalize starts from an ideal at a marked rational point, computes
its canonical center, blows the center up, and repeats on the weighted
transform in every chart.  The weighted transform is the pullback with
the full exceptional power s^N removed, so it measures exactly the non
monomial part of the pulled back ideal; a study point is finished when
that transform is the unit ideal there.  embedded_resolve runs the same
loop on the strict transform of a hypersurface and stops at points where
the strict transform is smooth.

Study points lie on the exceptional divisor over the marked point.  They
are found by restricting the transform to the axis of each primed frame
coordinate of the chart: the rational roots of the first nonzero
restriction at which every other restriction also vanishes, tested in
integers on coprime candidates p/q.  A point where a complement
coordinate is nonzero lies over another point of the center, so those
axes are not searched.  The origin is always studied.  Positive
dimensional rational loci on the divisor are represented only by those
points.

Each point of the divisor gets one node, whichever chart or conjugate
names it: the charts are the etale charts [A^n/mu_(w_i)] of the blowup,
on which centers are functorial, so every name of a point has one
invariant and one subtree.  A chart origin (t_i = 1, every other frame
coordinate zero) lies in no other chart.  A root r on the axis of frame
entry j in chart i (t_i = 1, t_j = r) is keyed by (lo, hi, kappa) with
lo, hi the smaller and larger of i, j, g = gcd(w_lo, w_hi) and
kappa = t_hi^(w_lo/g) / t_lo^(w_hi/g), an exact Fraction.  kappa is
unchanged by t_k -> lambda^(w_k) * t_k and separates the orbits on which
t_lo and t_hi are both nonzero, so the mu_(w_i)-conjugates of a point in
one chart, and its names in charts i and j, share the key.  The charts
of a blown node are taken in order, and a root whose key an earlier one
of the node already had is skipped.

One routine studies every point, the root included: it moves the point
to the origin, computes the canonical center, checks that the invariant
drops strictly below the parent's, which bounds the depth of the tree,
and records the node as a leaf or queues it for a blowup.  max_steps,
a non-negative int, caps the blowups across the whole tree.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .arith import Polynomial
from .blowup import Chart, all_charts, strict_transform_hypersurface, weighted_transform
from .canonical import canonical_center
from .center import format_rational
from .ideals import LocalIdeal
from .kernel import Coefficient

Point = Tuple[Fraction, ...]


class DescentError(RuntimeError):
    """A child node's invariant did not drop below its parent's."""


@dataclass
class Node:
    """One studied point: an ideal translated so the point is the origin."""

    id: str
    parent: Optional[str]
    depth: int
    variables: Tuple[str, ...]
    point: Point
    ideal: LocalIdeal
    invariant: tuple
    center: object
    status: str
    chart_variable: Optional[str] = None
    exceptional: Optional[str] = None
    exceptional_multiplicity: Optional[int] = None
    children: List[str] = field(default_factory=list)


class BlowupTree:
    """Result of a principalization or resolution run; nodes are kept in
    the order they were studied."""

    def __init__(self, mode: str, max_steps: int):
        self.mode = mode
        self.max_steps = max_steps
        self.nodes: Dict[str, Node] = {}
        self.steps = 0
        self.status = "running"

    def leaves(self) -> List[Node]:
        return [n for n in self.nodes.values() if not n.children]

    def report(self) -> dict:
        nodes = []
        for n in self.nodes.values():
            nodes.append(
                {
                    "id": n.id,
                    "parent": n.parent,
                    "depth": n.depth,
                    "chart": n.chart_variable,
                    "exceptional": n.exceptional,
                    "exceptional_multiplicity": n.exceptional_multiplicity,
                    "variables": list(n.variables),
                    "point": [format_rational(c) for c in n.point],
                    "generators": [str(g) for g in n.ideal.generators],
                    "invariant": [format_rational(d) for d in n.invariant],
                    "center": None
                    if n.center is None
                    else [
                        [str(p), format_rational(d)]
                        for p, d in n.center.parameters()
                    ],
                    "status": n.status,
                    "children": list(n.children),
                }
            )
        return {
            "mode": self.mode,
            "status": self.status,
            "steps": self.steps,
            "max_steps": self.max_steps,
            "nodes": nodes,
        }

    def report_json(self) -> str:
        return json.dumps(self.report(), indent=2)


# -- candidate points --------------------------------------------------------


def _divisors(n: int) -> List[int]:
    n = abs(n)
    out = []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            out.append(d)
            if d * d != n:
                out.append(n // d)
    return sorted(out)


def _integer_coeffs(coeffs: Sequence[Coefficient]) -> List[int]:
    scale = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (scale // c.denominator) for c in coeffs]


def _vanishes(ints: Sequence[int], p: int, q: int) -> bool:
    """Whether sum(ints[i] * v^i) vanishes at v = p/q, q > 0: the sum
    of ints[i] * p^i * q^(n-i), n = len(ints) - 1, by Horner's rule."""
    acc = 0
    qpow = 1
    for c in reversed(ints):
        acc = acc * p + c * qpow
        qpow *= q
    return acc == 0


def _rational_roots(coeffs: List[Coefficient]) -> List[Fraction]:
    """Nonzero rational roots of sum(coeffs[i] * v^i), exact.

    Only coprime candidates p/q are tested, p dividing the lowest and q
    the highest nonzero coefficient once both are made integers."""
    support = [i for i, c in enumerate(coeffs) if c]
    if len(support) <= 1:
        return []
    ints = _integer_coeffs(coeffs[support[0] : support[-1] + 1])
    roots = []
    for p in _divisors(ints[0]):
        for q in _divisors(ints[-1]):
            if math.gcd(p, q) != 1:
                continue
            for a in (p, -p):
                if _vanishes(ints, a, q):
                    roots.append(Fraction(a, q))
    return sorted(roots)


def _axis_coeffs(g: Polynomial, keep: int) -> List[Coefficient]:
    top = g.degree_in(g.variables[keep])
    out = [0] * (top + 1)
    for mono, c in g.terms.items():
        if all(e == 0 for i, e in enumerate(mono) if i != keep):
            out[mono[keep]] += c
    return out


def _search_points(ideal: LocalIdeal, axes: Sequence[str]) -> List[Point]:
    """The origin, then the rational roots on the axes of the divisor.

    The axes are the chart's primed frame coordinates.  A point with a
    nonzero complement coordinate lies over a point of the center other
    than the marked one, so no root is sought on those axes."""
    vs = ideal.variables
    origin = (Fraction(0),) * len(vs)
    points = [origin]
    for keep, v in enumerate(vs):
        if v not in axes:
            continue
        # the roots common to every nonzero restriction
        nonzero = [r for r in (_axis_coeffs(g, keep) for g in ideal.generators) if any(r)]
        if not nonzero:
            continue
        others = [_integer_coeffs(r) for r in nonzero[1:]]
        for root in _rational_roots(nonzero[0]):
            p, q = root.numerator, root.denominator
            if not all(_vanishes(r, p, q) for r in others):
                continue
            pt = list(origin)
            pt[keep] = root
            pt = tuple(pt)
            if pt not in points:
                points.append(pt)
    return points


# -- the search loop ---------------------------------------------------------


def _is_done(mode: str, invariant: tuple) -> bool:
    if invariant == (0,):
        return True
    return mode == "resolve" and invariant[0] == 1


def _leaf_status(mode: str) -> str:
    return "principal" if mode == "principalize" else "smooth"


def _transform(mode: str, chart: Chart, ideal: LocalIdeal):
    """The weighted transform, or in resolve the strict transform of the
    hypersurface and the multiplicity of the exceptional divisor."""
    if mode == "principalize":
        return weighted_transform(chart, ideal), None
    strict, mult = strict_transform_hypersurface(chart, ideal.generators[0])
    return LocalIdeal(chart.variables, [strict]), mult


def _run(mode: str, ideal: LocalIdeal, point: Optional[Point], max_steps: int):
    if isinstance(max_steps, bool) or not isinstance(max_steps, int) or max_steps < 0:
        raise ValueError("max_steps must be a non negative int, not %r" % (max_steps,))
    if ideal.is_zero():
        raise ValueError("the zero ideal cannot be made principal")
    if mode == "resolve" and len(ideal.generators) != 1:
        raise ValueError("embedded resolution expects a single hypersurface")
    if point is None:
        point = (0,) * len(ideal.variables)
    point = tuple(Fraction(c) for c in point)
    if len(point) != len(ideal.variables):
        raise ValueError("point dimension does not match the ring")

    tree = BlowupTree(mode, max_steps)
    queue: List[Node] = []

    def study(
        parent: Optional[Node], ideal: LocalIdeal, point: Point, chart=None, mult=None
    ) -> None:
        # the root has no parent, so no descent to check
        moved = ideal.translate(point)
        result = canonical_center(moved)
        if parent is not None and not result.invariant < parent.invariant:
            raise DescentError(
                "invariant %r at %s does not drop below %r of node %s"
                % (result.invariant, point, parent.invariant, parent.id)
            )
        done = _is_done(mode, result.invariant)
        node = Node(
            id=f"n{len(tree.nodes)}",
            parent=None if parent is None else parent.id,
            depth=0 if parent is None else parent.depth + 1,
            variables=moved.variables,
            point=point,
            ideal=moved,
            invariant=result.invariant,
            center=result.center,
            status=_leaf_status(mode) if done else "active",
            chart_variable=None if chart is None else chart.inverted_variable,
            exceptional=None if chart is None else chart.exceptional,
            exceptional_multiplicity=mult,
        )
        tree.nodes[node.id] = node
        if parent is not None:
            parent.children.append(node.id)
        if not done:
            queue.append(node)

    study(None, ideal, point)
    while queue and tree.steps < max_steps:
        node = queue.pop(0)
        tree.steps += 1
        node.status = "blown"
        # one node per point of the divisor: a chart origin is studied as
        # it comes, a root on an axis only if its key is new (module
        # docstring)
        center = node.center
        weights = center.weights
        seen = set()
        for chart in all_charts(center):
            transform, mult = _transform(mode, chart, node.ideal)
            origin, *roots = _search_points(transform, tuple(chart.renamed.values()))
            study(node, transform, origin, chart, mult)
            if not roots:
                continue
            i = chart.index
            # primed axis variable -> index of its frame entry
            entry = {
                chart.renamed[ent.variable]: j
                for j, ent in enumerate(center.entries)
                if j != i
            }
            for pt in roots:
                keep = next(k for k, c in enumerate(pt) if c)
                j = entry[chart.variables[keep]]
                e = weights[i] // math.gcd(weights[i], weights[j])
                key = (min(i, j), max(i, j), pt[keep] ** (e if j > i else -e))
                if key not in seen:
                    seen.add(key)
                    study(node, transform, pt, chart, mult)

    for node in queue:
        node.status = "exhausted"
    tree.status = "exhausted" if queue else _leaf_status(mode)
    return tree


def principalize(
    ideal: LocalIdeal,
    point: Optional[Sequence[Fraction]] = None,
    max_steps: int = 64,
) -> BlowupTree:
    """Blow up canonical centers until every studied point is trivial."""
    return _run("principalize", ideal, point, max_steps)


def embedded_resolve(
    ideal: LocalIdeal,
    point: Optional[Sequence[Fraction]] = None,
    max_steps: int = 64,
) -> BlowupTree:
    """Strict transform variant: stop where the hypersurface is smooth."""
    return _run("resolve", ideal, point, max_steps)
