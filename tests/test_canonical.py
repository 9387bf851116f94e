from fractions import Fraction

import pytest

from wblow.arith import INF, parse_polynomial
from wblow.canonical import CanonicalResult, canonical_center
from wblow.center import center_equal
from wblow.contact import TriangularizationError
from wblow.ideals import LocalIdeal

from paper_definitions import TransportedCenter, frame_from_parameters, mord

VS = ("x", "y")
VS3 = ("x", "y", "z")


def P(text, vs=VS):
    return parse_polynomial(text, vs)


def cc(gens, vs=VS):
    return canonical_center(LocalIdeal(vs, [P(g, vs) for g in gens]))


def C(params, vs=VS):
    return frame_from_parameters(
        vs, [(parse_polynomial(t, vs), Fraction(d)) for t, d in params]
    )


class TestPlaneCurves:
    def test_cusp(self):
        r = cc(["x^2 + y^3"])
        assert r.invariant == (Fraction(2), Fraction(3), INF)
        assert repr(r.center) == "[(x)^2, (y)^3]"

    def test_contact_needs_a_tail(self):
        r = cc(["x^2 + x*y^2"])
        assert r.invariant == (Fraction(2), Fraction(4), INF)
        assert repr(r.center) == "[(x + 1/2*y^2)^2, (y)^4]"

    def test_smooth_curve_is_principal_at_depth_one(self):
        r = cc(["x + y^2"])
        assert r.invariant == (Fraction(1), INF)


class TestSurface:
    def test_pinch_point(self):
        r = cc(["x^2 + y^2*z"], VS3)
        assert r.invariant == (Fraction(2), Fraction(3), Fraction(3), INF)
        assert repr(r.center) == "[(x)^2, (z)^3, (y)^3]"

    def test_unused_variable_does_not_change_the_answer(self):
        r = cc(["x^2 + y^3"], VS3)
        assert r.invariant == (Fraction(2), Fraction(3), INF)
        assert repr(r.center) == "[(x)^2, (y)^3]"


class TestDegenerate:
    def test_unit_ideal(self):
        r = canonical_center(LocalIdeal.unit(VS))
        assert r.invariant == (0,)
        assert r.center is None

    def test_zero_ideal(self):
        r = canonical_center(LocalIdeal.zero(VS))
        assert r.invariant == (INF,)
        assert r.center is None

    def test_result_is_frozen(self):
        r = cc(["x^2 + y^3"])
        assert isinstance(r, CanonicalResult)
        with pytest.raises(Exception):
            r.invariant = (0,)


class TestPowers:
    """Raising the ideal to the m-th power scales every exponent by m."""

    def test_square_of_cusp(self):
        r = cc(["x^4 + 2*x^2*y^3 + y^6"])
        assert r.invariant == (Fraction(4), Fraction(6), INF)

    def test_square_with_mixed_term(self):
        base = cc(["x^2 + x*y^2"])
        r = canonical_center(LocalIdeal(VS, [P("x^2 + x*y^2") ** 2]))
        assert r.invariant == tuple(
            2 * d if d is not INF else INF for d in base.invariant
        )
        assert repr(r.center) == "[(x + 1/2*y^2)^4, (y)^8]"

    def test_square_of_pinch_point(self):
        r = canonical_center(LocalIdeal(VS3, [P("x^2 + y^2*z", VS3) ** 2]))
        assert r.invariant == (Fraction(4), Fraction(6), Fraction(6), INF)
        assert repr(r.center) == "[(x)^4, (z)^6, (y)^6]"

    def test_cube_of_pinch_point(self):
        r = canonical_center(LocalIdeal(VS3, [P("x^2 + y^2*z", VS3) ** 3]))
        assert r.invariant == (Fraction(6), Fraction(9), Fraction(9), INF)
        assert repr(r.center) == "[(x)^6, (z)^9, (y)^9]"

    def test_fifth_power_of_pinch_point(self):
        # the second level order is 15 * 9! = 5,443,200; the closed form
        # never takes its factorial
        r = canonical_center(LocalIdeal(VS3, [P("x^2 + y^2*z", VS3) ** 5]))
        assert r.invariant == (Fraction(10), Fraction(15), Fraction(15), INF)
        assert repr(r.center) == "[(x)^10, (z)^15, (y)^15]"


class TestCoefficientLaw:
    def test_tail_orders_match_the_restricted_ideal(self):
        whole = cc(["x^2 + y^3"])
        tail = canonical_center(
            LocalIdeal(("y",), [parse_polynomial("y^3", ("y",))])
        )
        assert whole.invariant[1:] == tail.invariant
        assert tail.invariant == (Fraction(3), INF)
        assert repr(tail.center) == "[(y)^3]"


class TestInvariantOrder:
    def test_strictly_increasing_chain(self):
        chain = [
            canonical_center(LocalIdeal.unit(VS)).invariant,
            cc(["x + y^2"]).invariant,
            cc(["x^2 + y^3"]).invariant,
            cc(["x^2 + x*y^2"]).invariant,
            canonical_center(LocalIdeal.zero(VS)).invariant,
        ]
        for a, b in zip(chain, chain[1:]):
            assert a < b

    def test_mord_matches_invariant(self):
        ideal = LocalIdeal(VS, [P("x^2 + y^3")])
        assert mord(ideal) == canonical_center(ideal).invariant


class TestCenterIdentity:
    def test_computed_center_matches_admissible_presentation(self):
        got = cc(["x^2 + x*y^2"]).center
        assert center_equal(got, C([("x + 1/2*y^2", 2), ("y", 4)]))
        assert center_equal(got, C([("x", 2), ("y", 4)]))
        assert not center_equal(got, C([("x", 2), ("y", 3)]))
        assert not center_equal(got, C([("x", 2), ("y", 5)]))


class TestChangeOfCoordinates:
    """Unimodular linear changes must not move the invariant."""

    def test_sheared_cusp(self):
        fwd = {"x": P("2*x + 3*y"), "y": P("x + 2*y")}
        inv = {"x": P("2*x - 3*y"), "y": P("-1*x + 2*y")}
        base = cc(["x^2 + y^3"])
        moved = canonical_center(
            LocalIdeal(VS, [P("x^2 + y^3").substitute(fwd)])
        )
        assert moved.invariant == base.invariant
        assert repr(moved.center) == "[(x + 3/2*y)^2, (y)^3]"
        carried = TransportedCenter(base.center, to_base=inv, from_base=fwd)
        assert center_equal(moved.center, carried)

    def test_sheared_pinch_point(self):
        def Q(text):
            return P(text, VS3)

        fwd = {"x": Q("x + y"), "y": Q("y + z"), "z": Q("z + x")}
        inv = {
            "x": Q("1/2*x - 1/2*y + 1/2*z"),
            "y": Q("1/2*x + 1/2*y - 1/2*z"),
            "z": Q("-1/2*x + 1/2*y + 1/2*z"),
        }
        for name, image in fwd.items():
            assert image.substitute(inv) == Q(name)
        base = cc(["x^2 + y^2*z"], VS3)
        moved = canonical_center(
            LocalIdeal(VS3, [Q("x^2 + y^2*z").substitute(fwd)])
        )
        assert moved.invariant == base.invariant
        carried = TransportedCenter(base.center, to_base=inv, from_base=fwd)
        assert center_equal(moved.center, carried)


class TestFailurePropagation:
    def test_untriangularizable_contact_is_reported(self):
        with pytest.raises(TriangularizationError) as err:
            cc(["x + x*y + y^3"])
        assert str(err.value.polynomial) == "x + x*y + y^3"
