"""The term-map kernel."""

import random
from fractions import Fraction

import pytest

from wblow import kernel


def test_selector_picks_some_backend():
    assert kernel.BACKEND == "python"
    assert kernel.add_terms({(1,): Fraction(2)}, {(1,): Fraction(-2)}) == {}


def test_pure_pow_rejects_negative():
    with pytest.raises(ValueError):
        kernel.pow_terms({}, -1, 2)


def test_pure_mul_example():
    a = {(1, 0): Fraction(1), (0, 1): Fraction(1)}
    assert kernel.mul_terms(a, a) == {
        (2, 0): Fraction(1),
        (1, 1): Fraction(2),
        (0, 2): Fraction(1),
    }


def test_add_into_accumulates_in_place():
    out = {(1, 0): Fraction(2), (0, 1): Fraction(1)}
    b = {(1, 0): Fraction(-2), (2, 0): Fraction(3)}
    assert kernel.add_into(out, b) is None
    assert out == {(0, 1): Fraction(1), (2, 0): Fraction(3)}
    assert b == {(1, 0): Fraction(-2), (2, 0): Fraction(3)}


def _random_terms(rng, nvars):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        mono = tuple(rng.randint(0, 4) for _ in range(nvars))
        terms[mono] = Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3))
    return terms


def test_bounded_mul_is_the_truncated_product():
    rng = random.Random(20261108)
    cut = 0
    for _ in range(300):
        nvars = rng.randint(1, 3)
        a, b = _random_terms(rng, nvars), _random_terms(rng, nvars)
        bound = rng.randint(0, 12)
        full = kernel.mul_terms(a, b)
        expected = {m: c for m, c in full.items() if sum(m) <= bound}
        assert kernel.mul_terms_bounded(a, b, bound) == expected
        cut += len(expected) < len(full)
    assert cut > 100
