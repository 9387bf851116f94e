import functools
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from paper_definitions import same_divisor_point
from wblow.arith import Polynomial, parse_polynomial
from wblow.blowup import all_charts
from wblow.center import TriangularizationError
from wblow.driver import (
    _axis_coeffs,
    _divisors,
    _rational_roots,
    _search_points,
    _transform,
    embedded_resolve,
    principalize,
)
from wblow.ideals import LocalIdeal

VS = ("x", "y")


def P(text, vs=VS):
    return parse_polynomial(text, vs)


def cusp():
    return LocalIdeal(VS, [P("x^2 + y^3")])


class TestCuspPrincipalization:
    def test_full_tree(self):
        tree = principalize(cusp())
        assert tree.status == "principal"
        assert tree.steps == 2
        nodes = tree.nodes
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
        assert len(tree.nodes) == 1

    def test_budget_exhaustion(self):
        tree = principalize(cusp(), max_steps=1)
        assert tree.status == "exhausted"
        assert tree.steps == 1
        assert tree.nodes["n2"].status == "exhausted"

    def test_zero_budget_studies_only_the_root(self):
        tree = principalize(cusp(), max_steps=0)
        assert tree.status == "exhausted"
        assert tree.steps == 0
        assert [n.status for n in tree.nodes.values()] == ["exhausted"]
        assert tree.report()["max_steps"] == 0
        assert principalize(LocalIdeal.unit(VS), max_steps=0).status == "principal"

    @pytest.mark.parametrize("run", [principalize, embedded_resolve])
    @pytest.mark.parametrize("bad", [-1, "3", 2.5, 3.0, True, False, None])
    def test_bad_budget_is_rejected(self, run, bad):
        # unchecked, -1 ends exhausted after no step, "3" fails inside the
        # loop and 2.5 lets a third blowup of x^3 + y^7 run
        with pytest.raises(ValueError, match="max_steps"):
            run(cusp(), max_steps=bad)


class TestEmbeddedResolution:
    def test_cusp_is_smooth_after_one_step(self):
        tree = embedded_resolve(cusp())
        assert tree.status == "smooth"
        assert tree.steps == 1
        nodes = tree.nodes
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


@pytest.mark.parametrize("run", [principalize, embedded_resolve])
def test_input_ideal_is_left_unchanged(run):
    # at the origin the root node holds the input ideal itself
    ideal = LocalIdeal(VS, [P("x^2 + x*y^2")])
    before = [dict(g.terms) for g in ideal.generators]
    tree = run(ideal)
    assert tree.nodes["n0"].ideal is ideal
    assert len(tree.nodes) > 1
    assert [g.terms for g in ideal.generators] == before


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
        pts = _search_points(ideal, ring[1:])
        assert pts == [(Fraction(0), Fraction(0)), (Fraction(0), Fraction(1))]

    def test_rational_roots_leave_the_input_alone(self):
        coeffs = [Fraction(0), Fraction(-1), Fraction(1), Fraction(0)]
        assert _rational_roots(coeffs) == [Fraction(1)]
        assert coeffs == [Fraction(0), Fraction(-1), Fraction(1), Fraction(0)]

    def test_search_points_on_divisor(self):
        ring = ("s", "y'")
        ideal = LocalIdeal(ring, [parse_polynomial("1 + y'^3", ring)])
        pts = _search_points(ideal, ring[1:])
        assert pts == [
            (Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(-1)),
        ]

    def test_complement_axes_are_not_searched(self):
        # (1 + y')*(2 - z): z is no frame coordinate of the chart, and a
        # point with z != 0 lies over another point of the center, so only
        # the y' axis is searched
        ring = ("s", "y'", "z")
        ideal = LocalIdeal(ring, [parse_polynomial("2 + 2*y' - z - y'*z", ring)])
        pts = _search_points(ideal, ("y'",))
        assert pts == [(0, 0, 0), (0, -1, 0)]
        both = _search_points(ideal, ("y'", "z"))
        assert both == [(0, 0, 0), (0, -1, 0), (0, 0, 2)]


def _fraction_value(coeffs, x):
    return sum((c * x**i for i, c in enumerate(coeffs)), Fraction(0))


def _fraction_rational_roots(coeffs):
    # reference: every candidate p/q, coprime or not, evaluated with
    # Fraction powers
    support = [i for i, c in enumerate(coeffs) if c]
    if len(support) <= 1:
        return []
    coeffs = coeffs[support[0] : support[-1] + 1]
    scale = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    roots = []
    for p in _divisors(ints[0]):
        for q in _divisors(ints[-1]):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand not in roots and _fraction_value(coeffs, cand) == 0:
                    roots.append(cand)
    return sorted(roots)


def _random_axis_polynomial(rng):
    # a product of planted linear factors q*v - p (some repeated) and a
    # random cofactor, times v^k and a rational scale
    coeffs = [Fraction(rng.choice((1, -1, 2, 3, -5)), rng.choice((1, 2, 3, 7)))]
    for _ in range(rng.randint(0, 3)):
        p, q = rng.randint(-6, 6), rng.randint(1, 4)
        factor = [Fraction(-p), Fraction(q)]
        for _ in range(rng.choice((1, 1, 2))):
            coeffs = [
                sum((coeffs[j] * factor[i - j] for j in range(len(coeffs)) if 0 <= i - j < 2), Fraction(0))
                for i in range(len(coeffs) + 1)
            ]
    cofactor = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
    product = [Fraction(0)] * (len(coeffs) + len(cofactor) - 1)
    for i, a in enumerate(coeffs):
        for j, b in enumerate(cofactor):
            product[i + j] += a * b
    return [Fraction(0)] * rng.randint(0, 2) + product + [Fraction(0)] * rng.randint(0, 1)


class TestIntegerRootTest:
    def test_roots_match_the_fraction_search(self):
        rng = random.Random("integer roots")
        found = 0
        for _ in range(250):
            coeffs = _random_axis_polynomial(rng)
            expected = _fraction_rational_roots(coeffs)
            assert _rational_roots(coeffs) == expected
            found += len(expected)
        assert found > 150

    def test_common_root_filter_matches_the_fraction_search(self):
        rng = random.Random("common roots")
        ring = ("s", "y")
        s = Polynomial.variable(ring, "s")
        hits = 0
        for _ in range(150):
            gens = []
            for _ in range(rng.randint(1, 3)):
                coeffs = _random_axis_polynomial(rng)
                on_axis = Polynomial(ring, {(0, i): c for i, c in enumerate(coeffs)})
                gens.append(on_axis + s * Polynomial.constant(ring, rng.randint(0, 2)))
            ideal = LocalIdeal(ring, gens)
            nonzero = [r for r in (_axis_coeffs(g, 1) for g in ideal.generators) if any(r)]
            expected = [(Fraction(0), Fraction(0))]
            for root in _fraction_rational_roots(nonzero[0]) if nonzero else []:
                if not any(_fraction_value(r, root) for r in nonzero[1:]):
                    if (0, root) not in expected:
                        expected.append((Fraction(0), root))
            assert _search_points(ideal, ("y",)) == expected
            hits += len(expected) > 1
        assert hits > 20


class TestStudyPointsOverTheMarkedPoint:
    # a unit at the origin that vanishes elsewhere on the divisor, at a
    # point where a complement coordinate is nonzero, no longer stops the
    # run with a DescentError
    @pytest.mark.parametrize(
        "vs, text",
        [
            (("x", "y"), "x*y + x^2*y"),
            (("x", "y"), "x*y^2 + x*y^3"),
            (("x", "y", "z"), "3*x*y*z + 3*x^2*y*z"),
            (("x", "y", "z"), "x^3*z - x^2*y^2*z"),
        ],
    )
    def test_principalize_ends_principal(self, vs, text):
        tree = principalize(LocalIdeal(vs, [parse_polynomial(text, vs)]))
        assert tree.status == "principal"
        for node in tree.nodes.values():
            if node.parent is not None:
                assert node.invariant < tree.nodes[node.parent].invariant


# -- one node per point of the exceptional divisor ------------------------------

# the two-variable Brieskorn-Pham trees x^a +- y^b, the README germs and
# x^3 - x*y^2, whose resolve report tests/test_golden.py pins
DIVISOR_INPUTS = [
    (VS, "x^%d %s y^%d" % (a, sign, b))
    for a in range(2, 16)
    for b in range(a, 16)
    for sign in "+-"
] + [
    (VS, "x^2 + y^3"),
    (VS, "x^2 + x*y^2"),
    (("x", "y", "z"), "x^2 + y^2*z"),
    (VS, "x^2 + 3/2*x*y^2 - y^3"),
    (VS, "x^3 - x*y^2"),
]


def _divisor_coordinates(chart, point):
    """A chart point as (t_1, ..., t_n) over the parent's variables: 1 on
    the inverted frame coordinate, the primed coordinate on every other
    frame coordinate, complement variables as they stand."""
    return [
        1 if v == chart.inverted_variable else point[chart.variables.index(chart.renamed.get(v, v))]
        for v in chart.center.variables
    ]


def _action_weights(center):
    frame = {ent.variable: w for ent, w in zip(center.entries, center.weights)}
    return [frame.get(v, 0) for v in center.variables]


@functools.lru_cache(maxsize=None)
def _divisor_trees(mode):
    run = principalize if mode == "principalize" else embedded_resolve
    trees = []
    for vs, text in DIVISOR_INPUTS:
        try:
            trees.append(run(LocalIdeal(vs, [parse_polynomial(text, vs)])))
        except TriangularizationError:
            continue
    return trees


def _blown_nodes(mode):
    """Each blown node with its charts, action weights and the divisor
    coordinates of its children."""
    for tree in _divisor_trees(mode):
        for node in tree.nodes.values():
            if node.status != "blown":
                continue
            charts = {c.inverted_variable: c for c in all_charts(node.center)}
            children = [tree.nodes[c] for c in node.children]
            points = [_divisor_coordinates(charts[c.chart_variable], c.point) for c in children]
            yield node, charts, _action_weights(node.center), points


class TestOneNodePerDivisorPoint:
    def test_the_oracle_sees_conjugates_and_overlaps(self):
        # x^2 - y^4 blows up with weights (2, 1): y' = 1 and y' = -1 of
        # chart x are one point, x' = 1 of chart y is that point too, and
        # x' = -1 of chart y is another one
        assert same_divisor_point((2, 1), (1, 1), (1, -1))
        assert same_divisor_point((2, 1), (1, 1), (1, 1))
        assert not same_divisor_point((2, 1), (1, 1), (-1, 1))
        assert not same_divisor_point((2, 1), (1, 0), (1, 1))
        # weights (1, 1): chart x's y' = -1 is chart y's x' = -1
        assert same_divisor_point((1, 1), (1, Fraction(-1)), (Fraction(-1), 1))
        assert not same_divisor_point((1, 1), (1, Fraction(1, 2)), (Fraction(1, 2), 1))
        # a complement variable has weight 0 and must agree
        assert not same_divisor_point((1, 1, 0), (1, 0, 0), (1, 0, 2))

    def test_plane_curves_study_each_point_once(self):
        tree = principalize(LocalIdeal(VS, [P("x^2 - y^2")]))
        assert len(tree.nodes) == 7
        assert [n.point for n in tree.nodes.values() if n.parent == "n0"] == [(0, 0), (0, -1), (0, 1), (0, 0)]
        tree = principalize(LocalIdeal(VS, [P("x^2 - y^4")]))
        points = [(n.chart_variable, n.point) for n in tree.nodes.values() if n.parent == "n0"]
        assert points == [("x", (0, 0)), ("x", (0, -1)), ("y", (0, 0)), ("y", (0, -1))]

    @pytest.mark.parametrize("mode", ["principalize", "resolve"])
    def test_no_two_children_are_one_point(self, mode):
        pairs = 0
        for _node, _charts, weights, points in _blown_nodes(mode):
            for p, q in combinations(points, 2):
                assert not same_divisor_point(weights, p, q), (p, q)
                pairs += 1
        assert pairs > 600, pairs

    @pytest.mark.parametrize("mode", ["principalize", "resolve"])
    def test_every_search_point_has_one_child(self, mode):
        found = 0
        for node, charts, weights, points in _blown_nodes(mode):
            for chart in charts.values():
                transform, _mult = _transform(mode, chart, node.ideal)
                for pt in _search_points(transform, tuple(chart.renamed.values())):
                    p = _divisor_coordinates(chart, pt)
                    assert sum(same_divisor_point(weights, p, q) for q in points) == 1, (node.id, pt)
                    found += 1
        assert found > 800, found
