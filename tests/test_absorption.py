"""Dropping the generators of a level whose terms lie above the points of
its one-term generators."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wblow.arith import Polynomial, parse_polynomial
from wblow.canonical import _drop_covered, _resolve_levels, canonical_center
from wblow.center import TriangularizationError
from wblow.driver import principalize
from wblow.ideals import LocalIdeal

from paper_definitions import expanded, mord

VS = ("x", "y")
VS3 = ("x", "y", "z")


def I(*texts, vs=VS):
    return LocalIdeal(vs, [parse_polynomial(t, vs) for t in texts])


def kept(*summands):
    return [(repr(b), k) for b, k in _drop_covered(list(summands))]


class TestAbsorb:
    def test_drops_multiples_of_the_monomial_part(self):
        ideal = I("y^4 + z^4", "y^3", "z^3", vs=("y", "z"))
        assert kept((ideal, 1)) == [("(z^3, y^3)", 1)]

    def test_terms_may_use_different_monomials(self):
        ideal = I("x^2 + y^3", "x^2", "y^2")
        assert kept((ideal, 1)) == [("(y^2, x^2)", 1)]

    def test_keeps_a_term_outside_the_monomial_part(self):
        ideal = I("x^2 + y^3", "x^2")
        [(base, k)] = _drop_covered([(ideal, 1)])
        assert base is ideal and k == 1

    def test_monomial_and_monomial_free_ideals_are_untouched(self):
        for ideal in (I("x^2", "x*y", "y^3"), I("x^2 + y^3", "x*y + y^2")):
            [(base, _)] = _drop_covered([(ideal, 1)])
            assert base is ideal

    def test_points_of_other_summands_cover(self):
        # 6 * (4, 0) and 6 * (0, 4) are the points 24 * (1, 0) and
        # 24 * (0, 1) of (y, z)^24; the emptied base goes
        yz = ("y", "z")
        assert kept((I("y^4 + z^4", vs=yz), 6), (I("y", "z", vs=yz), 24)) == [("(z, y)", 24)]

    def test_one_term_above_no_point_keeps_the_generator(self):
        # 6 * (0, 5) = (0, 30) lies below 24 * (0, 2) = (0, 48)
        yz = ("y", "z")
        summands = [(I("y^4 + z^5", vs=yz), 6), (I("y", "z^2", vs=yz), 24)]
        assert kept(*summands) == [("(y^4 + z^5)", 6), ("(y, z^2)", 24)]

    def test_a_covered_base_that_is_no_graph_goes(self):
        # the first base attaining the order, -y + 2*z^2 - x*y^2, is no
        # polynomial graph in y, so its contact would raise; its points
        # 2 * m lie above those of (z, y)^2, so it goes and the level is
        # read off points
        live = [(I("-y + 2*z^2 - x*y^2", vs=VS3), 2), (I("z", "y", vs=VS3), 2)]
        assert _resolve_levels(live, VS3)[0] == [2, 2]


class TestBrieskornPhamSurfaces:
    # the second level of x^a + y^a + z^a is (y, z)^(a!); without
    # dropping it also carries (y^a + z^a)^((a-1)!) and its relatives
    @pytest.mark.parametrize("a", [4, 5, 6])
    def test_equal_exponents(self, a):
        f = parse_polynomial("x^%d + y^%d + z^%d" % (a, a, a), VS3)
        result = canonical_center(LocalIdeal(VS3, [f]))
        assert result.invariant == (Fraction(a), Fraction(a), Fraction(a), float("inf"))
        assert repr(result.center) == "[(z)^%d, (y)^%d, (x)^%d]" % (a, a, a)

    def test_unequal_exponents(self):
        f = parse_polynomial("x^4 + y^6 + z^6", VS3)
        result = canonical_center(LocalIdeal(VS3, [f]))
        assert result.invariant == (4, 6, 6, float("inf"))
        assert repr(result.center) == "[(x)^4, (z)^6, (y)^6]"

    # the second level carries (y^b + z^c)^((a-1)!), which a level read
    # off points never expands
    @pytest.mark.parametrize(
        "exponents, center",
        [
            ((5, 5, 6), "[(y)^5, (x)^5, (z)^6]"),
            ((5, 6, 6), "[(x)^5, (z)^6, (y)^6]"),
            ((7, 8, 9), "[(x)^7, (y)^8, (z)^9]"),
        ],
    )
    def test_large_unequal_exponents(self, exponents, center):
        f = parse_polynomial("x^%d + y^%d + z^%d" % exponents, VS3)
        result = canonical_center(LocalIdeal(VS3, [f]))
        assert result.invariant == exponents + (float("inf"),)
        assert repr(result.center) == center

    def test_four_variables(self):
        vs = ("x", "y", "z", "w")
        f = parse_polynomial("x^3 + y^3 + z^4 + w^4", vs)
        r = canonical_center(LocalIdeal(vs, [f]))
        assert r.invariant == (3, 3, 4, 4, float("inf"))
        # the second level is a sum of several powers in three variables
        assert repr(r.center) == "[(y)^3, (x)^3, (w)^4, (z)^4]"

    # the second level of a sum of equal powers carries
    # (y^a + z^a + w^a)^((a-1)!) beside (y, z, w)^(a!), which covers it, so
    # it is read off points; in the others each summand of the second level
    # takes its derivative levels from its base, and no power is expanded
    @pytest.mark.parametrize(
        "text, invariant",
        [
            pytest.param(text, invariant, id=text.replace(" ", ""))
            for text, invariant in [
                ("x^4 + y^4 + z^4 + w^4", (4, 4, 4, 4)),
                ("x^5 + y^5 + z^5 + w^5", (5, 5, 5, 5)),
                ("x^4 + y^5 + z^5 + w^5", (4, 5, 5, 5)),
                ("x^5 + y^5 + z^5 + w^6", (5, 5, 5, 6)),
                ("-x*y*z*w + x^2*y^2*z", (4, 4, 4, 4)),
            ]
        ],
    )
    def test_four_variables_within_a_second(self, text, invariant):
        vs = ("x", "y", "z", "w")
        start = time.process_time()
        result = canonical_center(LocalIdeal(vs, [parse_polynomial(text, vs)]))
        assert time.process_time() - start < 1.0
        assert result.invariant == invariant + (float("inf"),)

    def test_principalize_equal_sixth_powers(self):
        f = parse_polynomial("x^6 + y^6 + z^6", VS3)
        assert principalize(LocalIdeal(VS3, [f])).status == "principal"


coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(lambda c: c != 0)
monos = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(monos, coeffs, min_size=1, max_size=4).map(lambda d: Polynomial(VS, d))
proper_monos = monos.filter(lambda m: sum(m) > 0)


def _outcome(ideal):
    try:
        return mord(ideal)
    except TriangularizationError as exc:
        return type(exc)


class TestIdealUnchanged:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(proper_monos, min_size=1, max_size=2), st.lists(polys, max_size=2), polys)
    def test_adjoining_a_monomial_multiple_keeps_mord(self, ms, others, g):
        gens = [Polynomial(VS, {m: Fraction(1)}) for m in ms] + others
        gens = [p for p in gens if not p.constant_term()]
        base = LocalIdeal(VS, gens)
        m = Polynomial(VS, {ms[0]: Fraction(1)})
        grown = LocalIdeal(VS, gens + [m * g])
        assert _outcome(grown) == _outcome(base)

    def test_dropping_keeps_the_exponents_of_the_expanded_level(self):
        # levels of 1-3 summands (b, k) with bases that are not monomial:
        # taking each base's own derivative levels gives the exponents of
        # the expanded level, sum of b^k as one summand; the frames may
        # differ in their tails and in the order of equal exponents
        rng = random.Random(20261022)
        compared = powered = 0
        for _ in range(400):
            live = [(_base(rng), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
            try:
                exponents, _ = _resolve_levels(live, VS3)
                reference, _ = _resolve_levels([(expanded(live), 1)], VS3)
            except TriangularizationError:
                continue
            assert exponents == reference, live
            compared += 1
            powered += len(live) > 1 and any(k > 1 for _, k in live)
        assert compared > 300 and powered > 150, (compared, powered)


def _base(rng):
    """One or two generators of degree at most 2, the first drawn with two
    or three terms."""
    sizes = [rng.randint(2, 3)] + [rng.randint(1, 3) for _ in range(rng.randint(0, 1))]
    gens = [{_low_monomial(rng): rng.choice((1, -1, 2, 3)) for _ in range(n)} for n in sizes]
    return LocalIdeal(VS3, [Polynomial(VS3, terms) for terms in gens])


def _low_monomial(rng):
    m = [0] * len(VS3)
    for _ in range(rng.randint(1, 2)):
        m[rng.randrange(len(VS3))] += 1
    return tuple(m)
