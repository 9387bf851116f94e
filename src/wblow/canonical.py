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

A level is kept as its summand bases b with their powers k, and takes
one of three routes (_resolve_levels), the first that applies:

1. All-monomial: every base is generated by monomials.  The remaining
   levels are read off the points k * m of the Newton polyhedron in any
   number of variables, with zero tails and no ideal built
   (_monomial_levels).  The exponents come out at the scale of the first,
   so nothing is divided by (e-1)! inside this route.
2. At most two variables: the exponents are read off the Newton polygon
   of the bases, written in a contact frame (_plane_levels).
3. Generic: the level expands the sum of powers and builds its
   derivative tower (_generic_level).

On the last two routes the contact comes from the first base attaining
the level order, which has maximal contact with the whole sum
(_level_contact).

Restriction commutes with sums and powers, so each derivative level is
restricted to the contact hypersurface before being raised to its large
power, and the first two routes never form those powers.  Before a
summand base is raised to its power on the generic route, and again on
the summed level, generators whose terms are all divisible by monomial
generators of the same list are absorbed.  Absorption leaves the ideal
unchanged, and without it products such as (y^4 + z^4)^6 inside
(y, z)^24 make the derivative tower of the next level grow to thousands
of generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .arith import INF, Polynomial
from .center import FrameEntry, TriangularizationError, WeightedCenter
from .contact import ContactChoice, find_maximal_contact, restrict_to_contact
from .ideals import (
    IdealOrderError,
    LocalIdeal,
    absorb_monomial_multiples,
    derivative_tower,
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


def mord(ideal: LocalIdeal) -> tuple:
    """Invariant (multiorder) of the ideal: exponents plus terminal inf."""
    return canonical_center(ideal).invariant


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
    if all(b.is_monomial() for b, _ in live):
        return _monomial_levels(live, variables)
    if len(variables) <= 2:
        return _plane_levels(live, variables)
    return _generic_level(live)


def _level_ideal(live: Sequence[Summand]) -> LocalIdeal:
    pieces = [absorb_monomial_multiples(b) ** k for b, k in live]
    return absorb_monomial_multiples(sum(pieces[1:], pieces[0]))


def _level_contact(live: Sequence[Summand], e) -> ContactChoice:
    """Maximal contact for the level sum of b^k, whose order is e; see
    the module docstring.  Where the first attaining base's element is
    not a graph, the contact comes from the expanded level."""
    attaining = [b for b, k in live if k * b.order() == e]
    try:
        return find_maximal_contact(absorb_monomial_multiples(attaining[0]))
    except TriangularizationError:
        if len(live) == 1 and live[0][1] == 1:
            raise
        return find_maximal_contact(_level_ideal(live))


def _generic_level(live: Sequence[Summand]) -> Tuple[List[Fraction], List[FrameEntry]]:
    ideal = _level_ideal(live)
    e = ideal.order()
    choice = _level_contact(live, e)
    fact = math.factorial(e)
    subs: List[Summand] = []
    for i, level in enumerate(derivative_tower(ideal, e - 1)):
        subs.append((restrict_to_contact(level, choice), fact // (e - i)))
    sub_vars = tuple(v for v in ideal.variables if v != choice.frame_entry.variable)
    sub, entries = _resolve_levels(subs, sub_vars)
    scale = math.factorial(e - 1)
    return [Fraction(e)] + [d / scale for d in sub], [choice.frame_entry] + entries


def _plane_levels(
    live: Sequence[Summand], variables: Tuple[str, ...]
) -> Tuple[List[Fraction], List[FrameEntry]]:
    """All remaining levels of a sum in at most two variables at once.

    The first exponent is e = min k * ord(b), and the frame coordinate
    t = sigma + tail is the level's maximal contact (_level_contact).  In
    the coordinates (t, o), the restricted i-th derivative level raised to
    e!/(e-i) contributes e/(e-i) * (|p| - i) to the second exponent for
    every point p of the sum with p_t <= i.  Since |p| >= e that is
    smallest at i = p_t, giving e * p_o / (e - p_t), and this
    linear-fractional function is smallest over the Newton polygon of the
    sum at a vertex k * m, with m a term of a generator of b rewritten by
    sigma -> sigma - tail.  With no point below e in t the next level is
    zero and there is no second entry."""
    e = min(k * b.order() for b, k in live)
    if len(variables) == 1:
        return [Fraction(e)], [FrameEntry(variables[0], Polynomial.zero(variables))]
    sigma, tail = _level_contact(live, e).frame_entry
    gens = [(k, g) for b, k in live for g in b.generators]
    if tail:
        image = Polynomial.variable(variables, sigma) - tail
        gens = [(k, g.substitute_variable(sigma, image)) for k, g in gens]
    si = variables.index(sigma)
    points = ((k * m[si], k * m[1 - si]) for k, g in gens for m in g.terms)
    second = min((Fraction(e * po, e - pt) for pt, po in points if pt < e), default=None)
    if second is None:
        return [Fraction(e)], [FrameEntry(sigma, tail)]
    other = variables[1 - si]
    entries = [FrameEntry(sigma, tail), FrameEntry(other, Polynomial.zero((other,)))]
    return [Fraction(e), second], entries


def _monomial_levels(
    live: Sequence[Summand], variables: Tuple[str, ...]
) -> Tuple[List[Fraction], List[FrameEntry]]:
    """All remaining levels of a sum of monomial bases at once.

    The level is read off the points k * m, one for each generator x^m of
    each summand (b, k); dominated points never attain a minimum below.
    With cov(p) the sum of p_i / a_i over the variables chosen so far,
    the next exponent a is the minimum, over the points with cov(p) < 1,
    of (sum of p_i over the remaining variables) / (1 - cov(p)), and the
    next frame variable is the largest-index remaining variable occurring
    in a point attaining it, the rule of contact._monomial_contact.  The
    levels stop once every point is covered.  All exponents come out at
    the scale of the first."""
    points = prune_dominated(
        [tuple(k * e for e in m) for b, k in live for g in b.generators for m in g.terms]
    )
    cover = {p: Fraction(0) for p in points}
    remaining = list(range(len(variables)))
    exponents: List[Fraction] = []
    entries: List[FrameEntry] = []
    zero = Polynomial.zero(variables)
    while cover:
        ratios = {
            p: Fraction(sum(p[i] for i in remaining)) / (1 - c) for p, c in cover.items()
        }
        a = min(ratios.values())
        si = max(i for p, r in ratios.items() if r == a for i in remaining if p[i])
        remaining.remove(si)
        exponents.append(a)
        entries.append(FrameEntry(variables[si], zero))
        moved = {p: c + Fraction(p[si]) / a for p, c in cover.items()}
        cover = {p: c for p, c in moved.items() if c < 1}
    return exponents, entries
