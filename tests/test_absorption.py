"""Absorption of generators into the monomial part of an ideal."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wblow.arith import Polynomial, parse_polynomial
from wblow.canonical import canonical_center
from wblow.center import TriangularizationError
from wblow.driver import principalize
from wblow.ideals import LocalIdeal, absorb_monomial_multiples, divide_remainder

from paper_definitions import mord

VS = ("x", "y")
VS3 = ("x", "y", "z")


def I(*texts, vs=VS):
    return LocalIdeal(vs, [parse_polynomial(t, vs) for t in texts])


class TestAbsorb:
    def test_drops_multiples_of_the_monomial_part(self):
        ideal = I("y^4 + z^4", "y^3", "z^3", vs=("y", "z"))
        assert repr(absorb_monomial_multiples(ideal)) == "(z^3, y^3)"

    def test_terms_may_use_different_monomials(self):
        ideal = I("x^2 + y^3", "x^2", "y^2")
        assert repr(absorb_monomial_multiples(ideal)) == "(y^2, x^2)"

    def test_keeps_a_term_outside_the_monomial_part(self):
        ideal = I("x^2 + y^3", "x^2")
        assert absorb_monomial_multiples(ideal) is ideal

    def test_monomial_and_monomial_free_ideals_are_untouched(self):
        for ideal in (I("x^2", "x*y", "y^3"), I("x^2 + y^3", "x*y + y^2")):
            assert absorb_monomial_multiples(ideal) is ideal


class TestBrieskornPhamSurfaces:
    # the second level of x^a + y^a + z^a is (y, z)^(a!); without
    # absorption it also carries (y^a + z^a)^((a-1)!) and its relatives
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

    @settings(max_examples=100, deadline=None)
    @given(st.lists(proper_monos, min_size=1, max_size=3), st.lists(polys, max_size=4))
    def test_dropped_generators_lie_in_the_kept_ideal(self, ms, others):
        ideal = LocalIdeal(VS, [Polynomial(VS, {m: Fraction(1)}) for m in ms] + others)
        kept = absorb_monomial_multiples(ideal)
        assert set(kept.generators) <= set(ideal.generators)
        monomials = [g for g in kept.generators if len(g.terms) == 1]
        for g in set(ideal.generators) - set(kept.generators):
            assert divide_remainder(g, monomials).is_zero()
