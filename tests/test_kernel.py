"""The term-map kernel."""

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
