import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wblow.arith import Polynomial, parse_polynomial
from wblow.blowup import (
    InexactDivisionError,
    all_charts,
    canonical_blowup,
    divide_exceptional,
    strict_transform_hypersurface,
    weighted_transform,
)
from wblow.canonical import canonical_center
from wblow.center import TriangularizationError
from wblow.ideals import LocalIdeal

from paper_definitions import (
    coefficient_ideal,
    frame_from_parameters,
    mu_order,
    mu_weights,
    substitution,
)
from test_center import _random_poly, random_frame

VS = ("x", "y")
VS3 = ("x", "y", "z")


def P(text, vs=VS):
    return parse_polynomial(text, vs)


def center_of(gens, vs=VS):
    return canonical_center(LocalIdeal(vs, [P(g, vs) for g in gens])).center


CUSP = LocalIdeal(VS, [P("x^2 + y^3")])
CUSP_CENTER = center_of(["x^2 + y^3"])


def mu_degrees(chart, p):
    degs = set()
    for mono, _ in p.terms.items():
        total = sum(
            e * mu_weights(chart)[v] for v, e in zip(p.variables, mono)
        )
        degs.add(total % mu_order(chart))
    return degs


class TestCuspCharts:
    def test_first_chart(self):
        ch = canonical_blowup(CUSP_CENTER, 0)
        assert ch.inverted_variable == "x"
        assert ch.variables == ("s", "y'")
        assert ch.exceptional == "s"
        assert ch.center.weight_lcm == 6
        assert str(substitution(ch)["x"]) == "s^3"
        assert str(substitution(ch)["y"]) == "s^2*y'"
        tr = weighted_transform(ch, CUSP)
        assert [str(g) for g in tr.generators] == ["1 + y'^3"]
        assert mu_order(ch) == 3
        assert mu_weights(ch) == {"s": 1, "y'": 1}

    def test_second_chart(self):
        ch = canonical_blowup(CUSP_CENTER, 1)
        assert ch.inverted_variable == "y"
        assert ch.variables == ("s", "x'")
        tr = weighted_transform(ch, CUSP)
        assert [str(g) for g in tr.generators] == ["1 + x'^2"]
        assert mu_order(ch) == 2
        assert mu_weights(ch) == {"s": 1, "x'": 1}

    def test_chart_index_is_checked(self):
        with pytest.raises(IndexError):
            canonical_blowup(CUSP_CENTER, 2)


class TestPinchPointCharts:
    def test_all_three_transforms(self):
        center = center_of(["x^2 + y^2*z"], VS3)
        ideal = LocalIdeal(VS3, [P("x^2 + y^2*z", VS3)])
        seen = {}
        for ch in all_charts(center):
            tr = weighted_transform(ch, ideal)
            seen[ch.inverted_variable] = [str(g) for g in tr.generators]
        assert seen == {
            "x": ["1 + y'^2*z'"],
            "z": ["x'^2 + y'^2"],
            "y": ["z' + x'^2"],
        }

    def test_cyclic_weights(self):
        center = center_of(["x^2 + y^2*z"], VS3)
        ch = canonical_blowup(center, 1)
        assert ch.inverted_variable == "z"
        assert mu_order(ch) == 2
        assert mu_weights(ch) == {"s": 1, "x'": 1, "y'": 0}


class TestTailedCenter:
    """Frames whose parameters carry tails still give exact charts."""

    def test_both_transforms(self):
        ideal = LocalIdeal(VS, [P("x^2 + x*y^2")])
        center = center_of(["x^2 + x*y^2"])
        first = weighted_transform(canonical_blowup(center, 0), ideal)
        second = weighted_transform(canonical_blowup(center, 1), ideal)
        assert [str(g) for g in first.generators] == ["1 - 1/4*y'^4"]
        assert [str(g) for g in second.generators] == ["-1/4 + x'^2"]


class TestExactness:
    def test_inadmissible_ideal_is_rejected(self):
        ch = canonical_blowup(CUSP_CENTER, 0)
        with pytest.raises(InexactDivisionError):
            weighted_transform(ch, LocalIdeal(VS, [P("x")]))

    def test_divide_exceptional_is_exact(self):
        ch = canonical_blowup(CUSP_CENTER, 0)
        pulled = P("x^2 + y^3").substitute(substitution(ch))
        back = divide_exceptional(pulled, "s", 6)
        assert str(back) == "1 + y'^3"
        with pytest.raises(InexactDivisionError):
            divide_exceptional(back, "s", 1)

    def test_strict_transform_multiplicity(self):
        ch = canonical_blowup(CUSP_CENTER, 0)
        st_poly, mult = strict_transform_hypersurface(ch, P("x^2 + y^3"))
        assert (str(st_poly), mult) == ("1 + y'^3", 6)


def _monomial_images(chart):
    # the monomial map a chart kept before its exponent rows: t_i -> s^w_i,
    # t_j -> s^w_j * t_j', complement variables fixed, built by ring powers
    center, ring = chart.center, chart.variables
    s = Polynomial.variable(ring, chart.exceptional)
    images = {v: Polynomial.variable(ring, v) for v in center.variables if v in ring}
    for j, (ent, w) in enumerate(zip(center.entries, center.weights)):
        images[ent.variable] = s**w
        if j != chart.index:
            images[ent.variable] *= Polynomial.variable(ring, chart.renamed[ent.variable])
    return images


def _substitution_pullback(chart, f, images):
    # the pullback that the exponent rows replaced: the frame rewrite,
    # then substitution of the monomial images
    return chart.center.rewrite_in_frame(f).substitute(images)


def _composed_image_pullback(chart, f):
    # an earlier pullback: compose the image of every parent variable (its
    # frame rewrite, then the monomial map), then substitute the images into f
    center = chart.center
    coords = _monomial_images(chart)
    images = {
        v: center.rewrite_in_frame(Polynomial.variable(center.variables, v)).substitute(coords)
        for v in center.variables
    }
    return f.substitute(images)


def benchmark_corpus():
    """The benchmark's corpus module, loaded from perfbench/corpus.py."""
    name = "_perfbench_corpus"
    if name not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        # its dataclass looks its module up by name
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def _corpus_ideals():
    # every distinct ideal of the benchmark corpus at seed 0
    corpus = benchmark_corpus()
    seen = {}
    for workload in corpus.WORKLOADS:
        for case in corpus.build(workload, 0):
            seen[case.variables, case.generators] = None
    return [LocalIdeal(vs, [P(g, vs) for g in gens]) for vs, gens in seen]


def _seeded_centers(rng, count):
    return [CUSP_CENTER, center_of(["x^2 + x*y^2"])] + [random_frame(rng) for _ in range(count)]


def _test_polynomials(rng, center):
    # parameters, their products and random polynomials of every size:
    # most of them are not admissible for the center
    vs = center.variables
    params = [p for p, _ in center.parameters()]
    polys = params + [a * b for a in params for b in params]
    polys += [_random_poly(rng, vs, vs, 3, 4) for _ in range(4)]
    polys.append(_random_poly(rng, vs, vs, 2, 3) + Polynomial.constant(vs, 2))
    return polys


class TestExponentRows:
    """The exponent-row pullback against the substitution it replaced."""

    def test_rows_are_the_monomial_map(self):
        ch = canonical_blowup(CUSP_CENTER, 0)
        assert ch.variables == ("s", "y'")
        assert ch.rows == ((3, 0), (2, 1))
        # the center [x^2, z^3, y^3] inverts z; rows in the order x, y, z
        ch = canonical_blowup(center_of(["x^2 + y^2*z"], VS3), 1)
        assert ch.variables == ("s", "x'", "y'")
        assert ch.rows == ((3, 1, 0), (2, 0, 1), (2, 0, 0))
        # a complement variable keeps its unit row
        cusp3 = center_of(["x^2 + y^3"], VS3)
        assert canonical_blowup(cusp3, 0).rows == ((3, 0, 0), (2, 1, 0), (0, 0, 1))

    def test_seeded_frames(self):
        rng = random.Random(20261105)
        tails = 0
        for center in _seeded_centers(rng, 40):
            tails += any(ent.tail for ent in center.entries)
            polys = _test_polynomials(rng, center)
            for ch in all_charts(center):
                images = _monomial_images(ch)
                for f in polys:
                    assert ch.pullback(f) == _substitution_pullback(ch, f, images), (center, f)
        assert tails > 25

    def test_corpus_centers(self):
        count = 0
        for ideal in _corpus_ideals():
            try:
                center = canonical_center(ideal).center
            except TriangularizationError:
                continue
            if center is None:
                continue
            polys = list(ideal.generators) + [p for p, _ in center.parameters()]
            for ch in all_charts(center):
                images = _monomial_images(ch)
                for f in polys:
                    assert ch.pullback(f) == _substitution_pullback(ch, f, images), (center, f)
                count += 1
        assert count > 1500

    def test_inexact_division_is_raised_where_the_reference_raises(self):
        rng = random.Random(20261106)
        raised = exact = 0
        for center in _seeded_centers(rng, 30):
            polys = _test_polynomials(rng, center)
            for ch in all_charts(center):
                images = _monomial_images(ch)
                exc = ch.variables.index(ch.exceptional)
                for f in polys:
                    pulled = _substitution_pullback(ch, f, images)
                    ideal = LocalIdeal(center.variables, [f])
                    try:
                        expected = divide_exceptional(pulled, ch.exceptional, ch.center.weight_lcm)
                    except InexactDivisionError:
                        raised += 1
                        with pytest.raises(InexactDivisionError):
                            weighted_transform(ch, ideal)
                    else:
                        exact += 1
                        assert weighted_transform(ch, ideal) == LocalIdeal(ch.variables, [expected])
                    mult = min(m[exc] for m in pulled.terms)
                    strict = divide_exceptional(pulled, ch.exceptional, mult)
                    assert strict_transform_hypersurface(ch, f) == (strict, mult)
        assert raised > 300 and exact > 150, (raised, exact)


class TestFrameRelations:
    def test_parameters_pull_back_to_pure_monomials(self):
        rng = random.Random(3)
        seeded = [random_frame(rng) for _ in range(40)]
        for center in [CUSP_CENTER, center_of(["x^2 + x*y^2"])] + seeded:
            weights = center.weights
            for i in range(len(center.entries)):
                ch = canonical_blowup(center, i)
                s = Polynomial.variable(ch.variables, ch.exceptional)
                for j, (param, _) in enumerate(center.parameters()):
                    expected = s ** weights[j]
                    if j != i:
                        primed = ch.renamed[center.entries[j].variable]
                        expected = expected * Polynomial.variable(
                            ch.variables, primed
                        )
                    assert param.substitute(substitution(ch)) == expected

    def test_transforms_match_the_composed_images(self):
        # admissible ideals: combinations of the center's rounding
        rng = random.Random(20261019)
        tails = 0
        for _ in range(30):
            center = random_frame(rng)
            vs = center.variables
            tails += any(ent.tail for ent in center.entries)
            rounding = center.rounding()
            gens = []
            for _ in range(2):
                g = Polynomial.zero(vs)
                for m in rng.sample(rounding, min(2, len(rounding))):
                    g = g + m * (_random_poly(rng, vs, vs, 2, 2) + Polynomial.constant(vs, 1))
                gens.append(g)
            ideal = LocalIdeal(vs, gens)
            for ch in all_charts(center):
                pulled = [_composed_image_pullback(ch, g) for g in ideal.generators]
                expected = [divide_exceptional(p, ch.exceptional, ch.center.weight_lcm) for p in pulled]
                assert weighted_transform(ch, ideal) == LocalIdeal(ch.variables, expected)
                exc = ch.variables.index(ch.exceptional)
                for g, p in zip(ideal.generators, pulled):
                    mult = min(m[exc] for m in p.terms)
                    strict = divide_exceptional(p, ch.exceptional, mult)
                    assert strict_transform_hypersurface(ch, g) == (strict, mult)
        assert tails > 20

    def test_coefficient_ideal_transforms_cleanly(self):
        co = coefficient_ideal(CUSP)
        for i in range(2):
            tr = weighted_transform(canonical_blowup(CUSP_CENTER, i), co)
            assert not tr.is_zero()


coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=2).filter(bool)
monos2 = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys2 = st.dictionaries(monos2, coeffs, max_size=4).map(
    lambda d: Polynomial(VS, d)
)


class TestGrading:
    @given(polys2)
    def test_pullbacks_are_graded_to_degree_zero(self, p):
        for i in range(2):
            ch = canonical_blowup(CUSP_CENTER, i)
            pulled = p.substitute(substitution(ch))
            assert mu_degrees(ch, pulled) <= {0}

    def test_transform_degree_is_uniform(self):
        for i in range(2):
            ch = canonical_blowup(CUSP_CENTER, i)
            tr = weighted_transform(ch, CUSP)
            target = (-ch.center.weight_lcm) % mu_order(ch)
            for g in tr.generators:
                assert mu_degrees(ch, g) == {target}


class TestNameCollisions:
    def test_exceptional_name_is_freshened(self):
        vs = ("s", "t")
        center = frame_from_parameters(
            vs, [(parse_polynomial("s", vs), Fraction(2)),
                 (parse_polynomial("t", vs), Fraction(3))]
        )
        ch = canonical_blowup(center, 0)
        assert ch.exceptional == "s'"
        assert ch.variables == ("s'", "t'")
        ideal = LocalIdeal(vs, [parse_polynomial("s^2 + t^3", vs)])
        tr = weighted_transform(ch, ideal)
        assert [str(g) for g in tr.generators] == ["1 + t'^3"]
