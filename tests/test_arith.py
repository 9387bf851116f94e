import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wblow.arith import (
    INF,
    ParseError,
    Polynomial,
    VariableMismatchError,
    format_polynomial,
    parse_polynomial,
)

VS = ("x", "y")


def P(text, vs=VS):
    return parse_polynomial(text, vs)


coeffs = st.fractions(
    min_value=-4, max_value=4, max_denominator=4
).filter(lambda c: c != 0)
monos2 = st.tuples(st.integers(0, 4), st.integers(0, 4))
polys2 = st.dictionaries(monos2, coeffs, max_size=6).map(lambda d: Polynomial(VS, d))
VS3 = ("x", "y", "z")
monos3 = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
polys3 = st.dictionaries(monos3, coeffs, max_size=5).map(lambda d: Polynomial(VS3, d))
points3 = st.tuples(coeffs | st.just(Fraction(0)), coeffs, coeffs)


class TestBasics:
    def test_zero_and_constant(self):
        z = Polynomial.zero(VS)
        assert z.is_zero()
        assert z.ord_at_origin() == INF
        assert Polynomial.constant(VS, Fraction(3, 2)).constant_term() == Fraction(3, 2)

    def test_duplicate_variables_rejected(self):
        with pytest.raises(ValueError):
            Polynomial(("x", "x"), {})

    def test_ring_mismatch(self):
        with pytest.raises(VariableMismatchError):
            P("x") + parse_polynomial("z", ("z",))

    def test_degree_and_order(self):
        p = P("x^2 + 1/2*x*y^2")
        assert p.total_degree() == 3
        assert p.ord_at_origin() == 2
        assert p.leading_monomial() == (1, 2)

    def test_weighted_order(self):
        p = P("x^2 + y^3")
        assert p.weighted_order([Fraction(3), Fraction(2)]) == 6
        assert p.weighted_order([Fraction(1, 2), Fraction(1, 3)]) == 1
        assert Polynomial.zero(VS).weighted_order([Fraction(1), Fraction(1)]) == INF

    def test_integer_weights_give_an_int(self):
        p = P("x^2 + y^3")
        order = p.weighted_order([3, 2])
        assert order == 6 and type(order) is int
        assert type(P("1 + x").weighted_order((0, 5))) is int
        assert type(p.weighted_order([Fraction(3), Fraction(2)])) is Fraction

    def test_partial(self):
        p = P("x^2 + y^3")
        assert p.partial("x") == P("2*x")
        assert p.partial("y") == P("3*y^2")
        assert P("5").partial("x").is_zero()


class TestSubstitution:
    def test_blowup_chart_image(self):
        # x -> s^3, y -> t*s^2 sends x^2+y^3 to s^6 + t^3*s^6
        cusp = P("x^2 + y^3")
        tvs = ("s", "t")
        img = cusp.substitute(
            {
                "x": parse_polynomial("s^3", tvs),
                "y": parse_polynomial("t*s^2", tvs),
            }
        )
        assert img.terms == {(6, 0): Fraction(1), (6, 3): Fraction(1)}

    def test_substitute_needs_all_images(self):
        with pytest.raises(ValueError):
            P("x + y").substitute({"x": parse_polynomial("s", ("s",))})

    def test_substitute_variable_in_place(self):
        p = P("x^2 + y^3")
        q = p.substitute_variable("x", P("x") + P("1/2*y^2"))
        assert q == P("x^2 + x*y^2 + 1/4*y^4 + y^3")

    def test_translate(self):
        p = parse_polynomial("1 + y^3", ("y",))
        assert str(p.translate([-1])) == "3*y - 3*y^2 + y^3"
        assert p.translate([0]) == p

    @given(polys3, points3)
    @settings(max_examples=60)
    def test_translate_is_a_shift_substitution(self, p, point):
        images = {
            v: Polynomial.variable(VS3, v) + Polynomial.constant(VS3, c)
            for v, c in zip(VS3, point)
        }
        assert p.translate(point) == p.substitute(images)

    def test_translate_matches_the_shift_one_variable_at_a_time(self):
        # the shift as substitute_variable does it, with every power of
        # x_i + c_i expanded by repeated squaring
        def shifted(p, point):
            vs = p.variables
            for v, c in zip(vs, point):
                if c:
                    image = Polynomial.variable(vs, v) + Polynomial.constant(vs, c)
                    p = p.substitute_variable(v, image)
            return p

        rng = random.Random(20261018)
        for _ in range(200):
            terms = {}
            for _ in range(rng.randint(1, 6)):
                mono = tuple(rng.randint(0, 6) for _ in VS3)
                terms[mono] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            p = Polynomial(VS3, terms)
            point = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in VS3]
            assert p.translate(point) == shifted(p, point), (p, point)

    def test_drop_and_embed(self):
        q = P("y^2").drop_variable("x")
        assert q.variables == ("y",)
        assert q.embed(("x", "y", "z")) == parse_polynomial("y^2", ("x", "y", "z"))
        with pytest.raises(ValueError):
            P("x*y").drop_variable("x")

    def test_embed_into_the_same_ring(self):
        p = P("x^2 - 1/2*x*y^3")
        terms = dict(p.terms)
        assert p.embed(list(p.variables)) == p
        assert p.embed(p.variables).terms == terms


class TestPrinting:
    @pytest.mark.parametrize(
        "text",
        [
            "0",
            "1",
            "-1/2",
            "x",
            "x^2 + 1/2*x*y^2",
            "x^2 + 2*x*y + y^2",
            "3*y - 3*y^2 + y^3",
            "x - y",
        ],
    )
    def test_round_trip_fixed(self, text):
        assert str(P(text)) == text

    def test_order_degree_then_lex(self):
        # ascending degree, lex-descending inside a degree
        p = P("y^3 + x*y + 1 + x^2")
        assert str(p) == "1 + x^2 + x*y + y^3"

    def test_parse_errors(self):
        for bad in ["", "x +", "x^0", "x^-2", "q", "1/0", "x**2", "(x)"]:
            with pytest.raises(ParseError):
                P(bad)


# a factor is a coefficient (numerator, denominator or None) or a
# variable with an optional exponent
int_factors = st.tuples(st.just("int"), st.integers(0, 9), st.none() | st.integers(1, 6))
var_factors = st.tuples(st.just("var"), st.sampled_from(VS3), st.none() | st.integers(1, 5))
signed_terms = st.tuples(
    st.sampled_from("+-"), st.lists(int_factors | var_factors, min_size=1, max_size=5)
)


def _factor_text(factor):
    kind, a, b = factor
    if b is None:
        return str(a)
    return ("%s/%s" if kind == "int" else "%s^%s") % (a, b)


def _factor_by_ring_operations(factor):
    kind, a, b = factor
    if kind == "int":
        return Polynomial.constant(VS3, Fraction(a, b or 1))
    return Polynomial.variable(VS3, a) ** (b or 1)


class TestParseAgainstRingOperations:
    # repeated variables and several coefficients in one term never come
    # out of format_polynomial, so the round trip does not cover them
    @settings(max_examples=150)
    @given(st.booleans(), st.lists(signed_terms, min_size=1, max_size=5))
    def test_parse_equals_ring_construction(self, lead_sign, terms):
        text = ""
        expected = Polynomial.zero(VS3)
        for i, (sign, factors) in enumerate(terms):
            if i or lead_sign:
                text += " %s " % sign
            text += "*".join(_factor_text(f) for f in factors)
            term = Polynomial.constant(VS3, 1)
            for f in factors:
                term = term * _factor_by_ring_operations(f)
            expected = expected - term if (i or lead_sign) and sign == "-" else expected + term
        assert parse_polynomial(text, VS3) == expected, text

    def test_several_coefficients_and_repeated_variables(self):
        p = parse_polynomial("2*x*3/4*x^2*y - y*x^3*3/2 + 5", VS3)
        assert p == Polynomial.constant(VS3, 5)

    def test_malformed_sums_still_raise(self):
        for bad in ["x + -y", "2 3", "x*", "1/", "--x", "x^"]:
            with pytest.raises(ParseError):
                parse_polynomial(bad, VS3)


def _reference_tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j]))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            tokens.append(("ident", text[i:j]))
            i = j
        elif ch in "+-*/^":
            tokens.append((ch, ch))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r} at position {i}")
    return tokens


def _reference_parse(text, variables):
    # the tokenizer and recursive-descent parser that the one-pass
    # pattern parser replaced
    vs = tuple(variables)
    tokens = _reference_tokenize(text)
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def take(kind):
        nonlocal pos
        if pos >= len(tokens) or tokens[pos][0] != kind:
            raise ParseError(f"expected {kind}")
        val = tokens[pos][1]
        pos += 1
        return val

    def parse_term():
        coeff, mono = Fraction(1), [0] * len(vs)
        while True:
            kind = peek()
            if kind == "int":
                num, den = int(take("int")), 1
                if peek() == "/":
                    take("/")
                    den = int(take("int"))
                    if den <= 0:
                        raise ParseError("denominator must be positive")
                coeff *= Fraction(num, den)
            elif kind == "ident":
                name, e = take("ident"), 1
                if name not in vs:
                    raise ParseError(f"unknown variable {name}")
                if peek() == "^":
                    take("^")
                    e = int(take("int"))
                    if e <= 0:
                        raise ParseError("exponent must be a positive integer")
                mono[vs.index(name)] += e
            else:
                raise ParseError("expected a factor")
            if peek() != "*":
                return coeff, tuple(mono)
            take("*")

    if not tokens:
        raise ParseError("empty input")
    terms = {}
    sign = take(peek()) if peek() in ("+", "-") else "+"
    while True:
        coeff, mono = parse_term()
        terms[mono] = terms.get(mono, 0) + (-coeff if sign == "-" else coeff)
        if peek() not in ("+", "-"):
            break
        sign = take(peek())
    if pos != len(tokens):
        raise ParseError("trailing input")
    return Polynomial(vs, terms)


PRIMED = ("x", "y'", "z")
# pieces of the grammar's alphabet, including names outside the ring
# and characters it does not accept
_PIECES = ["x", "y'", "z", "y", "w", "x2", "0", "1", "2", "13", "007",
           "/", "^", "*", "+", "-", " ", "  ", "(", "'", "."]


# mostly well-formed sums: a bad factor or operator is drawn one time in
# twenty or so
_FACTORS = 6 * ["x", "y'", "z", "2", "13", "1/2", " 3 / 4", "x^2", "z ^3", "y'^13", "0"]
_FACTORS += ["w", "x^0", "1/0", "2 3"]
_OPERATORS = 6 * ["+", "-", "*", " + ", " - ", " * "] + ["", "**", "^", "+-"]
sums = st.tuples(
    st.sampled_from(["", "-", "+", " - "]),
    st.sampled_from(_FACTORS),
    st.lists(st.tuples(st.sampled_from(_OPERATORS), st.sampled_from(_FACTORS)), max_size=6),
).map(lambda t: t[0] + t[1] + "".join(op + f for op, f in t[2]))


def _outcome(parse, text):
    try:
        return parse(text, PRIMED)
    except ParseError:
        return ParseError


class TestParserAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(
        sums
        | st.lists(st.sampled_from(_PIECES), max_size=14).map("".join)
        | st.text(alphabet="xyz'0123 +-*/^", max_size=16)
    )
    def test_same_polynomial_or_both_raise(self, text):
        assert _outcome(parse_polynomial, text) == _outcome(_reference_parse, text), text


class TestRingLaws:
    @given(polys2, polys2, polys2)
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polys2, polys2)
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(polys2, st.integers(0, 4))
    def test_pow_is_repeated_mul(self, a, k):
        expected = Polynomial.constant(VS, 1)
        for _ in range(k):
            expected = expected * a
        assert a**k == expected

    @given(polys2, polys2)
    def test_order_of_product_adds(self, a, b):
        # exact arithmetic over an integral domain: orders add
        oa, ob, oab = a.ord_at_origin(), b.ord_at_origin(), (a * b).ord_at_origin()
        if a.is_zero() or b.is_zero():
            assert oab == INF
        else:
            assert oab == oa + ob

    @given(polys2)
    @settings(max_examples=60)
    def test_print_parse_round_trip(self, a):
        assert parse_polynomial(format_polynomial(a), VS) == a

    @given(polys2, polys2)
    def test_leibniz(self, a, b):
        lhs = (a * b).partial("x")
        assert lhs == a.partial("x") * b + a * b.partial("x")
