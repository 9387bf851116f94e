"""Levels read off points: monomial levels and levels in two variables.

A level whose summand bases are all monomial gets every exponent from the
points k * m of its Newton polyhedron, in any number of variables; any
other level in two variables gets its exponents from the same reader once
its summand bases are written in a contact frame.  Neither forms the
powers.  The generic level reaches the same numbers the long way round:
it expands the sum of powers, builds the derivative tower, restricts it
to the contact hypersurface and takes the next level there.  The generic
level stays callable on such levels as the reference.  For monomial
ideals a second reference is the valuative description of the invariant:
the lexicographic maximum, over all orderings of the variables, of a
greedy sequence of exponents.
"""

import functools
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import wblow
import wblow.canonical as canonical
from wblow.arith import INF, Polynomial, parse_polynomial
from wblow.canonical import _drop_covered, _generic_level, _resolve_levels, canonical_center
from wblow.center import TriangularizationError, center_equal
from wblow.driver import principalize
from wblow.ideals import LocalIdeal

from paper_definitions import expanded, frame_from_parameters, mord

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
        closed, closed_entries = _resolve_levels(summands, VS)
        generic, generic_entries = _generic_level([(expanded(summands), 1)])
        assert closed == generic, summands
        assert [v for v, _ in closed_entries] == [v for v, _ in generic_entries]


def _random_exponents(rng, variables, top):
    mono = (0,) * len(variables)
    while not any(mono):
        mono = tuple(rng.randint(0, top) for _ in variables)
    return mono


def _monomial_ideal(variables, monos):
    return LocalIdeal(variables, [Polynomial(variables, {m: Fraction(1)}) for m in monos])


def test_monomial_levels_in_three_variables_match_the_derivative_tower():
    # the generic level takes the first level the long way and hands the
    # rest down, so this checks the first exponent, the frame variable and
    # the scale of the later exponents
    rng = random.Random(20261019)
    for _ in range(200):
        summands = []
        for _ in range(rng.randint(1, 3)):
            monos = {_random_exponents(rng, VS3, 3) for _ in range(rng.randint(1, 3))}
            summands.append((_monomial_ideal(VS3, monos), rng.randint(1, 3)))
        closed, closed_entries = _resolve_levels(summands, VS3)
        generic, generic_entries = _generic_level([(expanded(summands), 1)])
        assert closed == generic, summands
        assert [v for v, _ in closed_entries] == [v for v, _ in generic_entries]


def _greedy_exponents(points, ordering):
    """Exponents a_j for the variables in the given order: a_j is the least
    (sum of p_i over i from the j-th on) / (1 - sum over i < j of p_i / a_i)
    over the points p that the earlier exponents leave below one."""
    exponents = []
    cov = {p: Fraction(0) for p in points}
    for j, var in enumerate(ordering):
        if not cov:
            break
        a = min(Fraction(sum(p[i] for i in ordering[j:])) / (1 - c) for p, c in cov.items())
        exponents.append(a)
        cov = {p: c + Fraction(p[var]) / a for p, c in cov.items()}
        cov = {p: c for p, c in cov.items() if c < 1}
    return tuple(exponents) + (INF,)


def _lexicographic_maximum(points, nvars):
    """The maximum of _greedy_exponents over all orderings of the
    variables.  The exponents after a prefix of an ordering depend only on
    the set of its variables and the covers it leaves, so the search goes
    on from each such state once; _greedy_exponents then reads the
    ordering it finds."""

    @functools.cache
    def best(chosen, cover):
        # the largest continuation from this state, and an ordering of the
        # remaining variables that attains it
        rest = tuple(i for i in range(nvars) if i not in chosen)
        if not cover:
            return (INF,), rest
        a = min(Fraction(sum(p[i] for i in rest)) / (1 - c) for p, c in cover)
        options = []
        for var in rest:
            moved = ((p, c + Fraction(p[var]) / a) for p, c in cover)
            tail, ordering = best(chosen | {var}, tuple((p, c) for p, c in moved if c < 1))
            options.append(((a,) + tail, (var,) + ordering))
        return max(options)

    value, ordering = best(frozenset(), tuple((p, Fraction(0)) for p in points))
    assert _greedy_exponents(points, ordering) == value
    return value


def _random_monomial_ideals(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        vs = ("x", "y", "z", "w", "v")[: rng.randint(2, 5)]
        monos = {_random_exponents(rng, vs, 4) for _ in range(rng.randint(1, 4))}
        yield vs, sorted(monos)


def test_monomial_invariant_is_the_lexicographic_maximum_over_orderings():
    # six variables with exponents up to 9 grow the integer scale of the
    # covers, the lcm of the numerators of the exponents
    rng = random.Random(20261023)
    six = ("x", "y", "z", "w", "v", "u")
    wide = [
        (six, sorted({_random_exponents(rng, six, 9) for _ in range(rng.randint(1, 3))}))
        for _ in range(40)
    ]
    for vs, monos in itertools.chain(_random_monomial_ideals(20261020, 300), wide):
        got = canonical_center(_monomial_ideal(vs, monos)).invariant
        assert got == _lexicographic_maximum(monos, len(vs)), (vs, monos)


def test_monomial_invariant_ignores_the_order_of_the_variables():
    rng = random.Random(20261021)
    for vs, monos in _random_monomial_ideals(20261021, 200):
        perm = rng.sample(range(len(vs)), len(vs))
        moved = [tuple(m[j] for j in perm) for m in monos]
        assert mord(_monomial_ideal(vs, moved)) == mord(_monomial_ideal(vs, monos)), monos


def test_monomial_invariant_ignores_integral_closure():
    # the rounded-up midpoint of two generators lies in the Newton
    # polyhedron, and a product of two generators in the ideal itself
    rng = random.Random(20261022)
    for vs, monos in _random_monomial_ideals(20261022, 200):
        first, second = rng.choice(monos), rng.choice(monos)
        midpoint = tuple(-(-(a + b) // 2) for a, b in zip(first, second))
        product = tuple(a + b for a, b in zip(first, second))
        invariant = mord(_monomial_ideal(vs, monos))
        for extra in (midpoint, product):
            assert mord(_monomial_ideal(vs, monos + [extra])) == invariant, (monos, extra)


def test_four_variable_monomial():
    vs = ("x", "y", "z", "w")
    ideal = LocalIdeal(vs, [parse_polynomial("x*y^2*z^3*w^4", vs)])
    r = canonical_center(ideal)
    assert r.invariant == (10, 10, 10, 10, INF)
    assert repr(r.center) == "[(w)^10, (z)^10, (y)^10, (x)^10]"
    assert principalize(ideal).status == "principal"
    gens = ("x^2*y", "z^3*w^2", "x*y*z*w")
    ideal = LocalIdeal(vs, [parse_polynomial(g, vs) for g in gens])
    assert principalize(ideal).status == "principal"


def _random_polynomial(rng, variables, low, high):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        degree = rng.randint(low, high)
        cuts = sorted(rng.randint(0, degree) for _ in range(len(variables) - 1))
        mono = tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))
        terms[mono] = Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 2]))
    return Polynomial(variables, terms)


def _recorded_plane_levels(monkeypatch, ideals):
    """The two-variable levels that centers of the ideals pass down."""
    levels = []
    resolve = canonical._resolve_levels

    def recording(summands, variables):
        if len(variables) == 2 and any(not b.is_zero() for b, _ in summands):
            levels.append((list(summands), variables))
        return resolve(summands, variables)

    monkeypatch.setattr(canonical, "_resolve_levels", recording)
    for ideal in ideals:
        try:
            canonical_center(ideal)
        except TriangularizationError:
            pass
    monkeypatch.undo()
    return levels


def test_real_levels_match_the_derivative_tower(monkeypatch):
    # second levels of three-variable ideals, and two-variable ideals as
    # levels of one summand; wherever the generic level of the expanded
    # level finishes (its covered generators dropped first, as for every
    # level in several variables), the reader in the contact frame
    # finishes with the same exponents
    rng = random.Random(20261018)
    ideals = [
        LocalIdeal(VS3, [_random_polynomial(rng, VS3, 2, 3) for _ in range(rng.randint(1, 2))])
        for _ in range(300)
    ]
    levels = _recorded_plane_levels(monkeypatch, ideals)
    for _ in range(200):
        gens = [_random_polynomial(rng, VS, 2, 4) for _ in range(rng.randint(1, 2))]
        levels.append(([(LocalIdeal(VS, gens), 1)], VS))
    compared = powered = framed = 0
    for summands, variables in levels:
        try:
            generic, _ = _generic_level(_drop_covered([(expanded(summands), 1)]))
        except TriangularizationError:
            continue
        plane, entries = _resolve_levels(summands, variables)
        assert plane == generic, summands
        compared += 1
        powered += any(k > 1 and not b.is_monomial() for b, k in summands)
        framed += not entries[0].tail.is_zero()
    assert compared > 250 and powered > 30 and framed > 30, (compared, powered, framed)


def _contact_searches(monkeypatch):
    """Record the number of variables of every contact search the center
    construction makes, and whether it found a contact."""
    searches = []
    find = canonical.find_maximal_contact

    def spy(ideal):
        try:
            entry = find(ideal)
        except TriangularizationError:
            searches.append((len(ideal.variables), "raised"))
            raise
        searches.append((len(ideal.variables), "found"))
        return entry

    monkeypatch.setattr(canonical, "find_maximal_contact", spy)
    return searches


def test_level_contact_where_the_base_contact_is_no_graph(monkeypatch):
    # the second level is (b, 2) with b = (3/2*x - 2*y - x*y, 1/2*x - x^2),
    # whose first order-one generator does not normalize to a graph; the
    # level is read in the frame of that generator's truncated series
    # contact, which keeps no tail term below the degree a2/a1 = 1
    searches = _contact_searches(monkeypatch)
    gens = ["3/2*x*z - 2*y*z - x*y*z", "1/2*x*z - x^2*z"]
    r = canonical_center(LocalIdeal(VS3, [parse_polynomial(t, VS3) for t in gens]))
    # the first level searches in three variables, the plane level not at all
    assert searches == [(3, "found")]
    assert r.invariant == (2, 2, 2, INF)
    assert repr(r.center) == "[(z)^2, (x)^2, (y)^2]"
    # the presentation an earlier contact search on the expanded level
    # gave is the same center
    old = frame_from_parameters(
        VS3,
        [(parse_polynomial(t, VS3), 2) for t in ("z", "x - 19/6*y + 5*y^2", "y")],
    )
    assert center_equal(r.center, old) and center_equal(old, r.center)


def test_level_contact_where_no_candidate_is_a_graph(monkeypatch):
    # no order-one generator of the second level's attaining base
    # normalizes to a graph; the level is read in the frame of the first
    # one's truncated series contact, with no contact search on the
    # expanded level
    searches = _contact_searches(monkeypatch)
    f = parse_polynomial("1/3*x*y + 3/2*z^3 + 2*x^2*y*z - 2/3*y*z^3", VS3)
    r = canonical_center(LocalIdeal(VS3, [f]))
    # the first level searches in three variables, the plane level not at all
    assert searches == [(3, "found")]
    assert r.invariant == (2, 2, 3, INF)
    assert repr(r.center) == "[(y)^2, (x)^2, (z)^3]"
    # the expanded level's contact gave [(y)^2, (x - 2*z^3)^2, (z)^3]: the
    # same center
    old = frame_from_parameters(
        VS3, [(parse_polynomial(t, VS3), d) for t, d in (("y", 2), ("x - 2*z^3", 2), ("z", 3))]
    )
    assert center_equal(r.center, old) and center_equal(old, r.center)


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
