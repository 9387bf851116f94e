import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wblow.arith import INF, Polynomial, parse_polynomial
from wblow.ideals import (
    IdealOrderError,
    LocalIdeal,
    autoreduce,
    derivative_ideal,
    derivative_tower,
    divide_remainder,
    minkowski_sum,
    monomial_power,
    prune_dominated,
)

from paper_definitions import coefficient_ideal, ord_via_derivations

VS = ("x", "y")


def P(text, vs=VS):
    return parse_polynomial(text, vs)


def I(*texts, vs=VS):
    return LocalIdeal(vs, [parse_polynomial(t, vs) for t in texts])


def contains(ideal, gens):
    # division remainder zero certifies membership
    return all(divide_remainder(g, list(ideal.generators)).is_zero() for g in gens)


def same_ideal(a, b):
    return contains(a, b.generators) and contains(b, a.generators)


coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
monos2 = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys2 = st.dictionaries(monos2, coeffs, min_size=1, max_size=4).map(
    lambda d: Polynomial(VS, d)
)
mono_ideals = st.lists(monos2, min_size=1, max_size=5).map(
    lambda ms: LocalIdeal(VS, [Polynomial(VS, {m: Fraction(1)}) for m in ms])
)


class TestCanonicalForm:
    def test_zero_filtered_and_multiples_pruned(self):
        gens = [P("x"), P("2*x"), P("x^2"), P("0" if False else "x*y"), Polynomial.zero(VS)]
        ideal = LocalIdeal(VS, gens)
        assert ideal.generators == (P("x"),)

    def test_sorted_by_grlex_lead(self):
        ideal = I("x^2 + y^3", "y^2", "x")
        assert [str(g) for g in ideal.generators] == ["x", "y^2", "x^2 + y^3"]

    def test_predicates(self):
        assert LocalIdeal.zero(VS).is_zero()
        assert LocalIdeal.unit(VS).is_unit()
        assert I("1 + x").is_unit()
        assert I("x", "y^2").is_monomial()
        assert not I("x + y").is_monomial()

    def test_order(self):
        assert LocalIdeal.zero(VS).order() == INF
        assert LocalIdeal.unit(VS).order() == 0
        assert I("x^2 + y^3").order() == 2
        assert I("y^2*z", "y^4", vs=("y", "z")).order() == 3

    def test_order_is_computed_once(self, monkeypatch):
        ideal = I("x^3 + y^5", "x*y^2", "y^4")
        calls = []
        scan = Polynomial.ord_at_origin

        def counted(p):
            calls.append(p)
            return scan(p)

        monkeypatch.setattr(Polynomial, "ord_at_origin", counted)
        assert ideal.order() == 3
        assert len(calls) == 3
        assert ideal.order() == 3 and LocalIdeal.zero(VS).order() == INF
        assert len(calls) == 3


class TestDerivatives:
    def test_first_level_of_cusp(self):
        D1 = derivative_ideal(I("x^2 + y^3"))
        assert [str(g) for g in D1.generators] == ["2*x", "3*y^2", "x^2 + y^3"]

    def test_monomial_tower_is_a_staircase(self):
        tower = derivative_tower(I("y^2*z", "y^4", vs=("y", "z")), 2)
        lead = lambda J: [g.leading_monomial() for g in J.generators]
        assert lead(tower[1]) == [(1, 1), (2, 0)]
        assert lead(tower[2]) == [(0, 1), (1, 0)]

    def test_tower_matches_iterated_single_steps(self):
        ideal = I("x^2 + y^3", "x*y")
        tower = derivative_tower(ideal, 3)
        cur = ideal
        for level in tower:
            assert level == cur
            cur = derivative_ideal(cur)

    @given(polys2)
    @settings(max_examples=40)
    def test_order_agreement(self, p):
        ideal = LocalIdeal(VS, [p])
        assert ord_via_derivations(ideal) == ideal.order()

    def test_order_of_zero_via_derivations(self):
        assert ord_via_derivations(LocalIdeal.zero(VS)) == INF


class TestCoefficientIdeal:
    def test_cusp(self):
        C = coefficient_ideal(I("x^2 + y^3"))
        assert same_ideal(C, I("x^2", "x*y^2", "y^3"))

    def test_needs_positive_finite_order(self):
        with pytest.raises(IdealOrderError):
            coefficient_ideal(LocalIdeal.zero(VS))
        with pytest.raises(IdealOrderError):
            coefficient_ideal(LocalIdeal.unit(VS))

    @given(polys2)
    @settings(max_examples=25, deadline=None)
    def test_order_at_least_factorial(self, p):
        # keep the order small: the construction takes d!/(d-i) powers
        if p.constant_term() or not 0 < p.ord_at_origin() <= 3:
            return
        ideal = LocalIdeal(VS, [p])
        d = ideal.order()
        assert coefficient_ideal(ideal).order() >= math.factorial(d)

    def test_dummy_variable_does_not_change_order(self):
        ideal = I("x^2 + y^3")
        ring = ("x", "y", "w")
        big = LocalIdeal(ring, [g.embed(ring) for g in ideal.generators])
        assert big.order() == ideal.order()
        assert ord_via_derivations(big) == 2


class TestAlgebra:
    def test_sum_and_product(self):
        s = I("x^2") + I("y^3")
        assert [str(g) for g in s.generators] == ["x^2", "y^3"]
        p = I("x", "y") * I("x", "y")
        assert {g.leading_monomial() for g in p.generators} == {(2, 0), (1, 1), (0, 2)}

    def test_power_zero_is_unit(self):
        assert (I("x") ** 0).is_unit()

    @given(mono_ideals, st.integers(1, 3))
    def test_monomial_power_matches_repeated_product(self, ideal, k):
        by_power = ideal**k
        by_product = ideal
        for _ in range(k - 1):
            by_product = by_product * ideal
        assert by_power == by_product

    def test_eliminate(self):
        ideal = I("x^2 + y^3", "x*y")
        # substitute x -> -1/2*y^2, then drop x
        small = ideal.eliminate("x", P("-1/2*y^2"))
        assert small.variables == ("y",)
        assert same_ideal(small, I("y^3", vs=("y",)))

    def test_eliminate_rejects_self_referential_image(self):
        with pytest.raises(ValueError):
            I("x").eliminate("x", P("x + y"))

    def test_translate_to_the_origin(self):
        ideal = I("x^2 + y^3", "x*y")
        assert ideal.translate((0, Fraction(0))) is ideal
        moved = ideal.translate((0, 1))
        assert moved == LocalIdeal(VS, [g.translate((0, 1)) for g in ideal.generators])

    @pytest.mark.parametrize("point", [(), (0,), (0, 0, 0), (1,)])
    def test_translate_checks_the_arity(self, point):
        for ideal in (I("x^2 + y^3"), LocalIdeal.zero(VS)):
            with pytest.raises(ValueError):
                ideal.translate(point)


class TestStaircases:
    def test_prune_dominated(self):
        assert prune_dominated([(2, 0), (2, 1), (0, 3), (1, 1)]) == [(0, 3), (1, 1), (2, 0)]
        assert prune_dominated([(1, 2, 0), (1, 2, 1), (0, 0, 5)]) == [(0, 0, 5), (1, 2, 0)]

    def test_minkowski_and_power(self):
        assert minkowski_sum([(1, 0), (0, 1)], [(1, 0), (0, 1)]) == [(0, 2), (1, 1), (2, 0)]
        assert monomial_power([(2, 0), (0, 3)], 2) == [(0, 6), (2, 3), (4, 0)]


class TestDivision:
    def test_remainder_zero_for_member(self):
        assert divide_remainder(P("y^3"), [P("x^2"), P("x^2 + y^3")]).is_zero()

    def test_remainder_nonzero(self):
        r = divide_remainder(P("y"), [P("x^2"), P("y^2")])
        assert r == P("y")

    def test_autoreduce_pretty_list(self):
        gens = [P("x^2 + x*y^2 + 1/4*y^4"), P("x*y^2 + 1/2*y^4"), P("y^4")]
        assert [str(g) for g in autoreduce(gens)] == ["x^2", "x*y^2", "y^4"]

    @given(st.lists(polys2, min_size=1, max_size=3))
    @settings(max_examples=40)
    def test_autoreduce_idempotent_and_fully_reduced(self, gens):
        reduced = autoreduce(gens)
        assert autoreduce(reduced) == reduced
        for i, g in enumerate(reduced):
            others = reduced[:i] + reduced[i + 1 :]
            assert divide_remainder(g, others) == g

    @given(mono_ideals)
    def test_autoreduce_of_monomials_is_staircase(self, ideal):
        reduced = autoreduce(list(ideal.generators))
        assert [g.leading_monomial() for g in reduced] == sorted(
            prune_dominated([g.leading_monomial() for g in ideal.generators]),
            key=lambda m: (sum(m), m),
        )
