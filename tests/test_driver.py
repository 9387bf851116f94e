from fractions import Fraction

import pytest

from wblow.arith import parse_polynomial
from wblow.driver import (
    BlowupTree,
    RunConfig,
    _rational_roots,
    _search_points,
    embedded_resolve,
    principalize,
)
from wblow.ideals import LocalIdeal

VS = ("x", "y")


def P(text, vs=VS):
    return parse_polynomial(text, vs)


def cusp():
    return LocalIdeal(VS, [P("x^2 + y^3")])


def by_id(tree: BlowupTree):
    return {nid: tree.nodes[nid] for nid in tree.order}


class TestCuspPrincipalization:
    def test_full_tree(self):
        tree = principalize(cusp())
        assert tree.status == "principal"
        assert tree.steps == 2
        nodes = by_id(tree)
        assert list(nodes) == ["n0", "n1", "n2", "n3", "n4"]

        root = nodes["n0"]
        assert root.status == "blown"
        assert root.invariant == (Fraction(2), Fraction(3), float("inf"))
        assert root.children == ["n1", "n2", "n3"]

        first = nodes["n1"]
        assert first.chart_variable == "x"
        assert first.point == (Fraction(0), Fraction(0))
        assert [str(g) for g in first.ideal.generators] == ["1 + y'^3"]
        assert first.status == "principal"

        moved = nodes["n2"]
        assert moved.chart_variable == "x"
        assert moved.point == (Fraction(0), Fraction(-1))
        assert [str(g) for g in moved.ideal.generators] == [
            "3*y' - 3*y'^2 + y'^3"
        ]
        assert moved.invariant == (Fraction(1), float("inf"))
        assert moved.status == "blown"

        other = nodes["n3"]
        assert other.chart_variable == "y"
        assert [str(g) for g in other.ideal.generators] == ["1 + x'^2"]
        assert other.status == "principal"

        last = nodes["n4"]
        assert last.parent == "n2"
        assert last.chart_variable == "y'"
        # the parent chart already uses s, so the new divisor is s'
        assert last.variables == ("s'", "s")
        assert [str(g) for g in last.ideal.generators] == ["3 - 3*s' + s'^2"]
        assert last.status == "principal"

    def test_smooth_hypersurface_needs_one_step(self):
        tree = principalize(LocalIdeal(VS, [P("x")]))
        assert tree.status == "principal"
        assert tree.steps == 1
        leaf = tree.nodes["n1"]
        assert [str(g) for g in leaf.ideal.generators] == ["1"]

    def test_unit_input_is_already_done(self):
        tree = principalize(LocalIdeal.unit(VS))
        assert tree.status == "principal"
        assert tree.steps == 0
        assert len(tree.order) == 1

    def test_budget_exhaustion(self):
        tree = principalize(cusp(), config=RunConfig(max_steps=1))
        assert tree.status == "exhausted"
        assert tree.steps == 1
        assert tree.nodes["n2"].status == "exhausted"

    def test_extra_points_are_studied(self):
        extras = ((Fraction(0), Fraction(2)),)
        tree = principalize(cusp(), config=RunConfig(extra_points=extras))
        assert tree.status == "principal"
        studied = {
            (n.chart_variable, n.point) for n in by_id(tree).values()
        }
        assert ("x", (Fraction(0), Fraction(2))) in studied
        assert ("y", (Fraction(0), Fraction(2))) in studied


class TestEmbeddedResolution:
    def test_cusp_is_smooth_after_one_step(self):
        tree = embedded_resolve(cusp())
        assert tree.status == "smooth"
        assert tree.steps == 1
        nodes = by_id(tree)
        assert [n.status for n in nodes.values()] == [
            "blown",
            "smooth",
            "smooth",
            "smooth",
        ]
        assert nodes["n1"].exceptional_multiplicity == 6

    def test_needs_a_single_generator(self):
        with pytest.raises(ValueError):
            embedded_resolve(LocalIdeal(VS, [P("x"), P("y")]))


class TestInputErrors:
    def test_zero_ideal_is_rejected(self):
        with pytest.raises(ValueError):
            principalize(LocalIdeal.zero(VS))

    def test_point_dimension_is_checked(self):
        with pytest.raises(ValueError):
            principalize(cusp(), point=(Fraction(0),))

    def test_marked_point_translates_the_input(self):
        shifted = LocalIdeal(VS, [P("x^2 + 1 + 3*y + 3*y^2 + y^3")])
        tree = principalize(shifted, point=(Fraction(0), Fraction(-1)))
        assert tree.nodes["n0"].invariant == (
            Fraction(2),
            Fraction(3),
            float("inf"),
        )


class TestReports:
    def test_report_shape(self):
        rep = principalize(cusp()).report()
        assert rep["mode"] == "principalize"
        assert rep["status"] == "principal"
        assert rep["steps"] == 2
        root = rep["nodes"][0]
        assert root["invariant"] == ["2", "3", "inf"]
        assert root["center"] == [["x", "2"], ["y", "3"]]
        assert rep["nodes"][2]["point"] == ["0", "-1"]

    def test_reports_are_reproducible(self):
        a = principalize(cusp()).report_json()
        b = principalize(cusp()).report_json()
        assert a == b


class TestRootSearch:
    def test_rational_roots(self):
        assert _rational_roots([Fraction(1), Fraction(0), Fraction(0), Fraction(1)]) == [
            Fraction(-1)
        ]
        assert _rational_roots([Fraction(1), Fraction(0), Fraction(1)]) == []
        assert _rational_roots(
            [Fraction(-1, 4), Fraction(0), Fraction(1)]
        ) == [Fraction(-1, 2), Fraction(1, 2)]
        assert _rational_roots([Fraction(0), Fraction(-1), Fraction(1)]) == [
            Fraction(1)
        ]
        assert _rational_roots([Fraction(3)]) == []
        assert _rational_roots([]) == []

    def test_search_points_are_common_axis_roots(self):
        # on the axis s = 0 the restrictions share the root 1, the first
        # also has 2 and the second -3, and s restricts to zero
        ring = ("s", "y")
        gens = ["s", "2 - 3*y + y^2 + s", "-3 + 2*y + y^2 + s*y"]
        ideal = LocalIdeal(ring, [parse_polynomial(g, ring) for g in gens])
        assert str(ideal.generators[0]) == "s"
        pts = _search_points(ideal, "s", RunConfig())
        assert pts == [(Fraction(0), Fraction(0)), (Fraction(0), Fraction(1))]

    def test_rational_roots_leave_the_input_alone(self):
        coeffs = [Fraction(0), Fraction(-1), Fraction(1), Fraction(0)]
        assert _rational_roots(coeffs) == [Fraction(1)]
        assert coeffs == [Fraction(0), Fraction(-1), Fraction(1), Fraction(0)]

    def test_search_points_on_divisor(self):
        ring = ("s", "y'")
        ideal = LocalIdeal(ring, [parse_polynomial("1 + y'^3", ring)])
        pts = _search_points(ideal, "s", RunConfig())
        assert pts == [
            (Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(-1)),
        ]
