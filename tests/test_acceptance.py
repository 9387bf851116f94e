"""End to end acceptance checks, one numbered criterion per test.

Each test prints a single PASS line with its wall time, or a FAIL line
before the assertion surfaces.  Run with `pytest tests/test_acceptance.py -s`
to see the lines.  Every check is exact; the time budgets are generous
and catch only pathological regressions.
"""

import math
import random
import time
from fractions import Fraction

from wblow.arith import INF, Polynomial, parse_polynomial
from wblow.blowup import all_charts, canonical_blowup, weighted_transform
from wblow.canonical import canonical_center
from wblow.center import FrameEntry, WeightedCenter, center_equal
from wblow.driver import embedded_resolve, principalize
from wblow.ideals import LocalIdeal, derivative_tower

from paper_definitions import (
    TransportedCenter,
    coefficient_ideal,
    frame_from_parameters,
    leaves,
    mord,
    ord_via_derivations,
    substitution,
)

VS = ("x", "y")
VS3 = ("x", "y", "z")

NAMED = (
    (VS, "x^2 + y^3"),
    (VS, "x^2 + x*y^2"),
    (VS3, "x^2 + y^2*z"),
)


def P(text, vs=VS):
    return parse_polynomial(text, vs)


def ideal_of(vs, text):
    return LocalIdeal(vs, [parse_polynomial(text, vs)])


def check(num, budget, label, body):
    start = time.monotonic()
    try:
        body()
    except BaseException:
        print(f"FAIL criterion {num}: {label}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s, budget {budget}s"
    print(f"PASS criterion {num}: {label} ({elapsed:.2f} s)")


def scaled(invariant, m):
    return tuple(d if d == INF else m * d for d in invariant)


# -- deterministic random inputs ----------------------------------------------


def random_poly(vs, rng, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randrange(0, max_terms + 1)):
        mono = tuple(rng.randrange(0, max_exp + 1) for _ in vs)
        c = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        if c:
            terms[mono] = c
    return Polynomial(vs, terms)


def random_center(vs, rng):
    perm = list(vs)
    rng.shuffle(perm)
    k = rng.randrange(1, len(vs) + 1)
    frame = perm[:k]
    exps = []
    cur = Fraction(rng.randrange(1, 5), rng.randrange(1, 3))
    for _ in range(k):
        exps.append(cur)
        cur = cur + Fraction(rng.randrange(0, 4), rng.randrange(1, 3))
    entries = []
    for i, v in enumerate(frame):
        banned = set(frame[: i + 1])
        tail = Polynomial.zero(vs)
        if len(banned) < len(vs) and rng.random() < 0.5:
            raw = random_poly(vs, rng, max_terms=2, max_exp=2)
            keep = {
                mono: c
                for mono, c in raw.terms.items()
                if sum(mono)
                and not any(e and vs[j] in banned for j, e in enumerate(mono))
            }
            tail = Polynomial(vs, keep)
        entries.append(FrameEntry(v, tail))
    return WeightedCenter(vs, entries, exps)


def unimodular(n, rng, ops=3):
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        for k in range(n):
            m[i][k] += c * m[j][k]
    return m


def invert(m):
    n = len(m)
    a = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        f = a[col][col]
        a[col] = [v / f for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                g = a[r][col]
                a[r] = [v - g * w for v, w in zip(a[r], a[col])]
    return [row[n:] for row in a]


def linear_sub(m, vs):
    out = {}
    for i, v in enumerate(vs):
        p = Polynomial.zero(vs)
        for j, u in enumerate(vs):
            if m[i][j]:
                p = p + Polynomial.variable(vs, u).scale(m[i][j])
        out[v] = p
    return out


# -- the criteria --------------------------------------------------------------


def test_criterion_01_rounding_of_shifted_parabola():
    def body():
        result = canonical_center(ideal_of(VS, "x^2 + x*y^2"))
        assert result.invariant == (Fraction(2), Fraction(4), INF)
        rounded = [str(g) for g in result.center.rounding()]
        assert rounded == ["x^2", "x*y^2", "y^4"]

    check(1, 1.0, "center of the shifted parabola rounds to (x^2, x*y^2, y^4)", body)


def test_criterion_02_cusp_pipeline():
    def body():
        cusp = ideal_of(VS, "x^2 + y^3")
        result = canonical_center(cusp)
        assert result.invariant == (Fraction(2), Fraction(3), INF)
        assert repr(result.center) == "[(x)^2, (y)^3]"
        assert result.center.weight_lcm == 6
        assert result.center.weights == (3, 2)
        transforms = {}
        for chart in all_charts(result.center):
            tr = weighted_transform(chart, cusp)
            transforms[chart.inverted_variable] = [str(g) for g in tr.generators]
        assert transforms == {"x": ["1 + y'^3"], "y": ["1 + x'^2"]}
        chart_x = canonical_blowup(result.center, 0)
        moved = weighted_transform(chart_x, cusp)
        shifted = LocalIdeal(
            moved.variables,
            [g.translate((Fraction(0), Fraction(-1))) for g in moved.generators],
        )
        inv_at_point = canonical_center(shifted).invariant
        assert inv_at_point == (Fraction(1), INF)
        assert inv_at_point < result.invariant
        tree = principalize(cusp)
        assert tree.status == "principal"
        assert tree.steps <= 5
        assert all(n.status == "principal" for n in leaves(tree))

    check(2, 5.0, "cusp pipeline: center, charts, drop at (0,-1), principalization", body)


def test_criterion_03_pinch_point_drop():
    def body():
        pinch = ideal_of(VS3, "x^2 + y^2*z")
        result = canonical_center(pinch)
        assert result.invariant == (Fraction(2), Fraction(3), Fraction(3), INF)
        assert result.center.weight_lcm == 6
        assert result.center.weights == (3, 2, 2)
        tree = principalize(pinch)
        first_round = [n for n in tree.nodes.values() if n.parent == "n0"]
        assert first_round
        for node in first_round:
            assert node.invariant < result.invariant

    check(3, 10.0, "pinch point: invariant and strict drop at every searched point", body)


def test_criterion_04_valuation_axioms():
    def body():
        rng = random.Random(20240817)
        for trial in range(1000):
            vs = VS if trial % 2 else VS3
            center = random_center(vs, rng)
            f = random_poly(vs, rng)
            g = random_poly(vs, rng)
            nf, ng = center.nu(f), center.nu(g)
            assert center.nu(f * g) == nf + ng
            assert center.nu(f + g) >= min(nf, ng)
            k = rng.choice((2, 3))
            assert center.nu(f**k) == k * nf

    check(4, 10.0, "valuation axioms on 1000 random centers and polynomials", body)


def test_criterion_05_order_duality():
    def body():
        rng = random.Random(99)
        for trial in range(200):
            vs = VS if trial % 2 else VS3
            gens = [
                random_poly(vs, rng, max_terms=3)
                for _ in range(rng.randrange(1, 4))
            ]
            ideal = LocalIdeal(vs, gens)
            assert ideal.order() == ord_via_derivations(ideal)

    check(5, 10.0, "order agrees with the derivation count on 200 random ideals", body)


def test_criterion_06_linear_change_independence():
    def body():
        rng = random.Random(77)
        for vs, text in NAMED:
            f = parse_polynomial(text, vs)
            base = canonical_center(LocalIdeal(vs, [f]))
            for _ in range(20):
                m = unimodular(len(vs), rng)
                fwd = linear_sub(m, vs)
                inv = linear_sub(invert(m), vs)
                moved = canonical_center(LocalIdeal(vs, [f.substitute(fwd)]))
                assert moved.invariant == base.invariant
                carried = TransportedCenter(base.center, to_base=inv, from_base=fwd)
                assert center_equal(moved.center, carried)

    check(6, 30.0, "invariant and center survive 20 linear changes per example", body)


def test_criterion_07_derivatives_of_the_rounding():
    def body():
        presentations = (
            (VS, [("x", 2), ("y", 4)]),
            (VS, [("x", 2), ("y", 3)]),
            (VS3, [("x", 2), ("y", 3), ("z", 3)]),
        )
        for vs, params in presentations:
            center = frame_from_parameters(
                vs, [(parse_polynomial(t, vs), Fraction(d)) for t, d in params]
            )
            rounded = LocalIdeal(vs, center.rounding())
            d = rounded.order()
            assert d == 2
            for i, level in enumerate(derivative_tower(rounded, d - 1)):
                for g in level.generators:
                    assert center.nu(g) >= Fraction(d - i, d)
            for g in coefficient_ideal(rounded).generators:
                assert center.nu(g) >= math.factorial(d - 1)

    check(7, 5.0, "derivative levels of the rounding keep the expected valuations", body)


def test_criterion_08_transform_divisibility():
    def body():
        for vs, text in NAMED:
            ideal = ideal_of(vs, text)
            center = canonical_center(ideal).center
            n = center.weight_lcm
            d = ideal.order()
            co = coefficient_ideal(ideal)
            deep = n * math.factorial(d - 1)
            for chart in all_charts(center):
                idx = chart.variables.index(chart.exceptional)
                for g in ideal.generators:
                    pulled = g.substitute(substitution(chart))
                    assert min(mono[idx] for mono in pulled.terms) >= n
                for g in co.generators:
                    pulled = g.substitute(substitution(chart))
                    assert min(mono[idx] for mono in pulled.terms) >= deep

    check(8, 10.0, "pullbacks divide by s^N and coefficient pullbacks by s^(N(d-1)!)", body)


def test_criterion_09_power_and_coefficient_laws():
    def body():
        for vs, text in NAMED:
            f = parse_polynomial(text, vs)
            base = mord(LocalIdeal(vs, [f]))
            for m in (2, 3):
                assert mord(LocalIdeal(vs, [f**m])) == scaled(base, m)
            d = LocalIdeal(vs, [f]).order()
            co = coefficient_ideal(LocalIdeal(vs, [f]))
            assert mord(co) == scaled(base, math.factorial(d - 1))

    check(9, 10.0, "multiorder scales under powers and the coefficient ideal", body)


def test_criterion_10_descent_audit():
    def body():
        trees = [
            principalize(ideal_of(VS, "x^2 + y^3")),
            embedded_resolve(ideal_of(VS, "x^2 + y^3")),
            principalize(ideal_of(VS, "x")),
            principalize(ideal_of(VS, "x^2 + x*y^2")),
            principalize(ideal_of(VS3, "x^2 + y^2*z")),
        ]
        for tree in trees:
            assert tree.status in ("principal", "smooth")
            for node in tree.nodes.values():
                if node.parent is not None:
                    assert node.invariant < tree.nodes[node.parent].invariant
        for vs, text in NAMED:
            base = canonical_center(ideal_of(vs, text)).invariant
            wider = vs + ("w",)
            assert canonical_center(ideal_of(wider, text)).invariant == base

    check(10, 10.0, "every blowup edge drops the invariant; dummy variables change nothing", body)
