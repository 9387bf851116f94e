"""Canonical weighted centers of ideals at the origin.

The construction peels one frame entry per level.  At each level the
ideal order e gives the next entry's exponent, the maximal contact
element gives the frame coordinate, and the ideal for the next level is
the sum over i < e of the restricted derivative levels raised to
e!/(e-i).  Each level reports its own exponents, so the exponents of the
next level are divided by (e-1)! on the way back up; the invariant of the
ideal is the exponent tuple with a trailing infinity (plain (0,) for the
unit ideal, (inf,) for the zero ideal).  Tuples of this shape compare
correctly under native lexicographic order.

A level is kept as its summand bases b with their powers k, and is one
of two kinds (_resolve_levels):

1. Read off points: the remaining levels come from the points k * m of
   the bases' terms, with no ideal built (_newton_levels).  A level in
   one variable or of monomial bases, as given or once _drop_covered has
   run (below), reads its Newton polyhedron as it stands; any other
   level in two variables is first written in the frame of its maximal
   contact (_plane_levels, below).  The exponents come out at the scale
   of the first, so nothing is divided by (e-1)! inside this kind.
2. Generic: the level expands the sum of powers, takes its contact from
   the first base attaining the level order (find_maximal_contact,
   which cleans a candidate that is no graph against the rest of its
   derivative level) and builds its derivative tower (_generic_level).

The plane route.  The first base attaining the level order e has maximal
contact with the whole sum, and so does the first order-one candidate p
of its derivative level, with linear variable v and other variable u.
Where p is a polynomial graph v + tail, that is the frame.  Otherwise
the germ of p is v = phi(u) for a power series phi, and the level is
read in the frame t_N = v - phi_N of phi modulo u^(N+1); no cleaning
solve runs.  Going between t = v - phi and t_N moves a point (p_t, p_o)
of the level to points (p_t - j, p_o + j * m) with m >= N + 1, and the
value e * p_o / (e - p_t) of a point stays at least min(old value,
e * m).  So a read a2 < e * (N + 1) is the second exponent (the
certificate).  N comes from one point of the level in the frame of t,
seen on the Taylor coefficients along a truncation of the branch, whose
value bounds a2 from above, so the first read certifies.  The tail keeps
only its terms of u-degree below a2/e: the others have valuation at
least 1/e, so the center is the same, and the admissibility check runs
as everywhere.  Where every point is covered in the frame of t (a2 =
inf), no truncation certifies.  Where p is a polynomial graph u + tail
in its other variable, the level is read in that frame, whose
coordinate is a unit times t; otherwise it raises
TriangularizationError with p.  An exact division by p shows a2 = inf for
an order-one base; otherwise the Taylor coefficients are checked up to
the Bezout bound deg p * deg g on the order of a nonzero one (contact
module).

Restriction commutes with sums and powers, so each derivative level is
restricted to the contact hypersurface before being raised to its large
power, and levels read off points never form those powers.  Before
either route, a level in several variables that is not all monomial
drops each multi-term generator of a summand (b, k) whose terms x^m all
have their points k * m at or above the point k' * m' of a one-term
generator x^m' of some summand (b', k') (_drop_covered).  Every
valuation is at least as large on such a generator, to the power k, as
on the rest of the level, so the level keeps its integral closure; the
center is the admissible center of maximal invariant, a valuative
condition, so it and the invariant stay.  The second level of
x^a + y^a + z^a + w^a carries (y^a + z^a + w^a)^((a-1)!) beside
(y, z, w)^(a!); the rule drops the first, so the level is read off
points instead of expanding a power whose derivative tower grows to
thousands of generators.  The generic route applies the rule once more
to the expanded sum, a level of one summand, where it drops the products
of powers that the monomials of the sum cover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import ge
from typing import List, Optional, Sequence, Tuple

from .arith import INF, Polynomial
from .center import FrameEntry, TriangularizationError, WeightedCenter, graph_normalize
from .contact import (
    find_maximal_contact,
    first_candidate,
    graph_series,
    restrict_to_contact,
    taylor_along_graph,
)
from .ideals import (
    IdealOrderError,
    LocalIdeal,
    derivative_tower,
    divide_remainder,
    prune_dominated,
)

Summand = Tuple[LocalIdeal, int]


class InadmissibleCenterError(RuntimeError):
    """A computed center does not dominate the ideal it was computed for."""


@dataclass(frozen=True)
class CanonicalResult:
    invariant: tuple
    center: Optional[WeightedCenter]


def canonical_center(ideal: LocalIdeal) -> CanonicalResult:
    """Canonical center and invariant of an ideal at the origin."""
    if ideal.is_unit():
        return CanonicalResult((0,), None)
    if ideal.is_zero():
        return CanonicalResult((INF,), None)
    exponents, entries = _resolve_levels([(ideal, 1)], ideal.variables)
    ambient = ideal.variables
    frame = [FrameEntry(var, tail.embed(ambient)) for var, tail in entries]
    center = WeightedCenter(ambient, frame, exponents)
    if not center.admissible(ideal):
        raise InadmissibleCenterError("canonical center does not dominate %r" % (ideal,))
    return CanonicalResult(tuple(exponents) + (INF,), center)


def _resolve_levels(
    summands: Sequence[Summand], variables: Tuple[str, ...]
) -> Tuple[List[Fraction], List[FrameEntry]]:
    """Exponents and frame entries for an ideal given as sum of base^k.

    Entries carry tails in the ring of their own level; the caller embeds
    them back into the ambient ring."""
    live = [(b, k) for b, k in summands if not b.is_zero()]
    if not live:
        return [], []
    if not variables:
        raise IdealOrderError("a nonzero ideal in no variables would be a unit")
    if any(b.is_unit() for b, _ in live):
        raise IdealOrderError("a summand base is the unit ideal")
    if len(variables) == 1 or all(b.is_monomial() for b, _ in live):
        return _newton_levels(live, variables)
    live = _drop_covered(live)
    if all(b.is_monomial() for b, _ in live):
        return _newton_levels(live, variables)
    if len(variables) == 2:
        return _plane_levels(live, variables)
    return _generic_level(live)


def _drop_covered(live: List[Summand]) -> List[Summand]:
    """The summands without their multi-term generators whose every term
    x^m has its point k * m at or above a point k' * m' of a one-term
    generator x^m' of some summand (b', k'); a base left empty goes.

    For every valuation v such a generator g of (b, k) has
    k * v(g) >= k * min v(x^m) >= k' * v(x^m'), the value of a generator
    of b'^k', so the level keeps its value under v without g: it keeps
    its integral closure, and so its order, invariant and center."""
    points = [
        tuple(k * a for a in g.leading_monomial())
        for b, k in live
        for g in b.generators
        if len(g.terms) == 1
    ]
    if not points:
        return live
    points = prune_dominated(points)

    def covered(g: Polynomial, k: int) -> bool:
        return len(g.terms) > 1 and all(
            any(all(map(ge, point, p)) for p in points)
            for point in ([k * a for a in m] for m in g.terms)
        )

    kept = []
    for b, k in live:
        gens = [g for g in b.generators if not covered(g, k)]
        if len(gens) == len(b.generators):
            kept.append((b, k))
        elif gens:
            kept.append((LocalIdeal(b.variables, gens), k))
    return kept


def _attaining_base(live: Sequence[Summand]) -> Tuple[LocalIdeal, int]:
    """The first summand base attaining the level order e = min k * ord(b),
    and e; its maximal contact has maximal contact with the whole sum."""
    e = min(k * b.order() for b, k in live)
    return next(b for b, k in live if k * b.order() == e), e


def _plane_levels(
    live: Sequence[Summand], variables: Tuple[str, ...]
) -> Tuple[List[Fraction], List[FrameEntry]]:
    """Both levels of a two-variable level, read off points in the frame
    of its maximal contact; see the module docstring."""
    base, e = _attaining_base(live)
    p, var = first_candidate(base)
    tail = graph_normalize(p, var)
    if tail is not None:
        return _newton_levels(live, variables, FrameEntry(var, tail))
    bound = _branch_bound(live, e, p, var)
    u = variables.index(var) ^ 1
    if bound is None:
        tail = graph_normalize(p, variables[u])
        if tail is None:
            raise TriangularizationError(
                "contact candidate is not reducible to a coordinate graph", p
            )
        return _newton_levels(live, variables, FrameEntry(variables[u], tail))
    n = int(bound // e)
    phi = graph_series(p, var, n)
    tail = Polynomial(variables, {((0, d) if u else (d, 0)): -c for d, c in enumerate(phi)})
    exponents, entries = _newton_levels(live, variables, FrameEntry(var, tail))
    if len(exponents) != 2 or exponents[1] >= e * (n + 1):
        raise RuntimeError("the truncated contact does not certify the level")
    kept = {m: c for m, c in tail.terms.items() if e * m[u] < exponents[1]}
    return exponents, [FrameEntry(var, Polynomial(variables, kept)), entries[1]]


def _branch_bound(live: Sequence[Summand], e: int, p: Polynomial, var: str):
    """The least value e * k * o / (e - k * s) over the points (s, o) of the
    level, written in t = var - phi and u, that one precision of the
    branch var = phi of p shows; None when every point is covered, so that
    the second exponent is inf.

    A generator g of the summand (b, k) has the points k * (s, ord g_s)
    for its Taylor coefficients g_s at var = phi, and is covered when
    g_s = 0 for every s < ceil(e / k).  Where that is s = 0 alone, an exact
    division of g by p settles it; otherwise the coefficients are taken
    modulo u^size for size = 2, 4, 8, ..., and a generator is settled once
    size passes deg p * deg g, the Bezout bound on the order of a nonzero
    g_s."""
    pending = []
    for b, k in live:
        c = -(-e // k)
        for g in b.generators:
            if c > 1 or divide_remainder(g, [p]):
                pending.append((g, k, c, p.total_degree() * g.total_degree()))
    size = 2
    while pending:
        phi = graph_series(p, var, size - 1)
        values = []
        for g, k, c, _ in pending:
            for s, coeffs in zip(range(c), taylor_along_graph(g, var, phi)):
                o = next((i for i, x in enumerate(coeffs) if x), None)
                if o is not None:
                    values.append(Fraction(e * k * o, e - k * s))
                    break
        if values:
            return min(values)
        pending = [item for item in pending if item[3] >= size]
        size *= 2
    return None


def _generic_level(live: Sequence[Summand]) -> Tuple[List[Fraction], List[FrameEntry]]:
    pieces = [b**k for b, k in live]
    [(ideal, _)] = _drop_covered([(sum(pieces[1:], pieces[0]), 1)])
    base, e = _attaining_base(live)
    entry = find_maximal_contact(base)
    fact = math.factorial(e)
    subs: List[Summand] = []
    for i, level in enumerate(derivative_tower(ideal, e - 1)):
        subs.append((restrict_to_contact(level, entry), fact // (e - i)))
    sub_vars = tuple(v for v in ideal.variables if v != entry.variable)
    sub, entries = _resolve_levels(subs, sub_vars)
    scale = math.factorial(e - 1)
    return [Fraction(e)] + [Fraction(d, scale) for d in sub], [entry] + entries


def _newton_levels(
    live: Sequence[Summand], variables: Tuple[str, ...], first: Optional[FrameEntry] = None
) -> Tuple[List[Fraction], List[FrameEntry]]:
    """All remaining levels at once, read off the points p = k * m, one for
    each term x^m of a generator of each summand (b, k).

    With cov(p) the sum of p_i / a_i over the variables chosen so far, the
    next exponent a is the least (sum of p_i over the remaining variables)
    / (1 - cov(p)) over the points with cov(p) < 1, and the next frame
    variable is the largest-index remaining variable in a point attaining
    it, the one find_maximal_contact picks on a monomial ideal; a point
    that another dominates never attains a strict minimum or changes a
    tie.  The levels stop once every point is covered, and all exponents
    come out at the scale of the first.

    Without a first entry this reads the Newton polyhedron of monomial
    bases, or of any bases in one variable, with zero tails.  A level in
    two variables takes its maximal contact t = sigma + tail as the first
    entry: the generators are rewritten by sigma -> sigma - tail, which
    keeps every order, so the first exponent is e = min k * ord(b).  In
    the coordinates (t, o), the restricted i-th derivative level raised to
    e!/(e-i) contributes e/(e-i) * (|p| - i) to the second exponent for
    every point p with p_t <= i.  Since |p| >= e that is smallest at
    i = p_t, giving e * p_o / (e - p_t): the step above with
    cov(p) = p_t / e, smallest over the Newton polygon at a vertex.

    Covers are kept as integers cov(p) * scale, with scale the lcm of the
    numerators of the exponents so far; ratios are compared by
    cross-multiplication."""
    gens = [(k, g) for b, k in live for g in b.generators]
    if first is not None and first.tail:
        image = Polynomial.variable(variables, first.variable) - first.tail
        gens = [(k, g.substitute_variable(first.variable, image)) for k, g in gens]
    # (m, k, cov(k * m) * scale, sum of k * m_i over the remaining variables)
    level = [(m, k, 0, k * sum(m)) for k, g in gens for m in g.terms]
    scale = 1
    remaining = list(range(len(variables)))
    exponents: List[Fraction] = []
    entries: List[FrameEntry] = []
    while level:
        best, room = level[0][3], scale - level[0][2]
        for _, _, c, s in level:
            if s * room < best * (scale - c):
                best, room = s, scale - c
        a = Fraction(best * scale, room)
        if first is not None and not entries:
            si, entry = variables.index(first.variable), first
        else:
            si = remaining[0]  # the last variable occurs in every point left
            if len(remaining) > 1:
                ties = [m for m, _, c, s in level if s * room == best * (scale - c)]
                si = max(i for m in ties for i in remaining if m[i])
            entry = FrameEntry(variables[si], Polynomial.zero(variables))
        remaining.remove(si)
        exponents.append(a)
        entries.append(entry)
        if not remaining:  # the last variable covers every point
            break
        grown = math.lcm(scale, a.numerator)
        up, step = grown // scale, grown // a.numerator * a.denominator
        scale = grown
        moved = []
        for m, k, c, s in level:
            c = c * up + k * m[si] * step
            if c < scale:
                moved.append((m, k, c, s - k * m[si]))
        level = moved
    return exponents, entries
