"""Workload corpora: every case is plain text that the benchmark parses.

A case is one call into the package: an ideal given by generator strings
over named variables, and the mode that says which public function runs
on it (``center`` for canonical_center, ``principalize`` and ``resolve``
for the two tree drivers).  Generation uses only ``random.Random``
streams named by the workload and the seed, so the same seed gives the
same cases in the same order, and the package sees nothing but the
generated text.

The seeded families are built so that the seed changes the ideals but
not the cost profile of the workload.  A case's cost is set almost
entirely by the shape of its ideal (its order, the support of its lowest
degree generator, the number of generators and terms), and a plain
random draw lets the count of expensive cases swing from seed to seed by
more than any bound the benchmark could keep.  So the shapes are a fixed
stratified draw, the same for every seed, and the seed draws a change of
coordinates that leaves the cost nearly alone: signs of the variables
and generators of the mixed ideals, a permutation of the variables of
each monomial ideal.  Invariants do not change under a change of
coordinates, so root invariants recorded at one seed check every seed.
Zero and unit ideals, which the package rightly rejects as input, cannot
be drawn; no case is dropped for failing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

WORKLOADS = ("generic", "monomial", "trees")

XY = ("x", "y")
XYZ = ("x", "y", "z")

# the germs worked through in the package README; the cusp is also a
# Brieskorn-Pham germ
README_GERMS = (
    (XY, "x^2 + y^3"),
    (XY, "x^2 + x*y^2"),
    (XYZ, "x^2 + y^2*z"),
    (XY, "x^2 + 3/2*x*y^2 - y^3"),
)


@dataclass(frozen=True)
class Case:
    """One call into the package.

    ``bp`` holds the sorted exponents of a Brieskorn-Pham germ
    x^a +- y^b (+ z^c), whose invariant is known in closed form.
    ``shape`` names the fixed ideal a seeded case was drawn from by a
    change of coordinates, which leaves the invariant alone."""

    id: str
    mode: str
    variables: Tuple[str, ...]
    generators: Tuple[str, ...]
    bp: Optional[Tuple[int, ...]] = None
    shape: Optional[str] = None

    @property
    def key(self) -> str:
        """Names the problem up to the seed: the same key, the same root
        invariant."""
        return "%s|%s" % (
            self.mode,
            self.shape or "%s|%s" % (",".join(self.variables), "; ".join(self.generators)),
        )


def _monomial_text(variables, mono) -> str:
    factors = []
    for v, e in zip(variables, mono):
        if e == 1:
            factors.append(v)
        elif e > 1:
            factors.append("%s^%d" % (v, e))
    return "*".join(factors) or "1"


def _poly_text(variables, terms) -> str:
    """Terms in ascending degree, descending lex, as the package prints."""
    out = ""
    for mono, c in sorted(terms, key=lambda t: (sum(t[0]), tuple(-e for e in t[0]))):
        body = _monomial_text(variables, mono)
        if abs(c) != 1:
            body = "%d*%s" % (abs(c), body)
        if not out:
            out = ("-" if c < 0 else "") + body
        else:
            out += (" - " if c < 0 else " + ") + body
    return out


def _random_mono(rng, nvars: int, degree: int, support: int, top: int = 5):
    """Exponent vector of the given degree with exactly `support` nonzero
    entries, each at most `top`."""
    while True:
        where = rng.sample(range(nvars), support)
        mono = [0] * nvars
        for i in where:
            mono[i] = 1
        for _ in range(degree - support):
            mono[rng.choice(where)] += 1
        if max(mono) <= top:
            return tuple(mono)


def _mono_above(rng, nvars: int, degree: int, top: int = 5):
    """Exponent vector with entries at most `top` and degree above `degree`."""
    while True:
        mono = tuple(rng.randint(0, top) for _ in range(nvars))
        if sum(mono) > degree:
            return mono


# -- generic: the derivative tower, contact, restriction and powers ----------


def _mixed_generator(shape, order: int, lowest: bool):
    """Two or three terms in x, y of degree order..6 with coefficients in
    +-{1, 2, 3}; with `lowest` one term has degree exactly `order`."""
    terms = {}
    if lowest:
        i = shape.randint(0, order)
        terms[(i, order - i)] = shape.choice((1, -1, 2, -2, 3, -3))
    want = shape.randint(2, 3)
    while len(terms) < want:
        d = shape.randint(order, 6)
        i = shape.randint(0, d)
        terms.setdefault((i, d - i), shape.choice((1, -1, 2, -2, 3, -3)))
    return terms


def generic_cases(shape: random.Random, rng: random.Random) -> List[Case]:
    cases = []
    for a in (2, 3):
        for b in range(a, 7):
            for c in range(b, 7):
                text = "x^%d + y^%d + z^%d" % (a, b, c)
                cases.append(Case("bp:" + text, "center", XYZ, (text,), (a, b, c)))
    # runs for well over a minute at the seed: recorded as a timeout
    cases.append(Case("bp:x^4 + y^4 + z^4", "center", XYZ, ("x^4 + y^4 + z^4",), (4, 4, 4)))
    # 396 mixed two-variable ideals: 1-3 generators x order 2-4, 44 each;
    # fewer leave gaps in the tail where case_p90_ms falls.
    # The seed maps x -> +-x, y -> +-y and flips the sign of each
    # generator; coefficient sizes, and so the cost, stay put.  (Swapping
    # x and y would not: the package's choices follow the variable order.)
    for i in range(396):
        ngens = 1 + i % 3
        order = 2 + (i // 3) % 3
        base = [_mixed_generator(shape, order, j == 0) for j in range(ngens)]
        sx, sy = rng.choice((1, -1)), rng.choice((1, -1))
        gens = []
        for terms in base:
            sign = rng.choice((1, -1))
            moved = [((a, b), sign * c * sx**a * sy**b) for (a, b), c in terms.items()]
            gens.append(_poly_text(XY, moved))
        name = "mixed%03d" % i
        cases.append(Case(name, "center", XY, tuple(gens), shape="generic/" + name))
    return cases


# -- monomial: the monomial shortcut and the min-plus profiles ---------------

# (order, support of the lowest degree generator) of the three-variable
# slots; orders up to 7 are solved at the seed, orders 8 and up raise
# ProfileSizeError
_SOLVED_STRATA = [
    (e, s) for e in range(1, 8) for s in (1, 2, 3) if s <= e and (s > 1 or e <= 5)
]
_PROFILE_STRATA = [(e, s) for e in range(8, 14) for s in (2, 3) if e <= 5 * s]


def _monomial_shape(shape, nvars, ngens, order=None, support=None):
    if order is None:
        first = (0,) * nvars
        while not any(first):
            first = tuple(shape.randint(0, 5) for _ in range(nvars))
        monos = [first] + [
            tuple(shape.randint(0, 5) for _ in range(nvars)) for _ in range(ngens - 1)
        ]
    else:
        monos = [_random_mono(shape, nvars, order, support)]
        monos += [_mono_above(shape, nvars, order) for _ in range(ngens - 1)]
    return monos


def monomial_cases(shape: random.Random, rng: random.Random) -> List[Case]:
    shapes = []
    for i in range(60):
        shapes.append(_monomial_shape(shape, 2, 1 + i % 3))
    for _rep in range(2):
        for e, s in _SOLVED_STRATA:
            for ngens in (1, 2, 3):
                shapes.append(_monomial_shape(shape, 3, ngens, e, s))
    for e, s in _PROFILE_STRATA:
        for ngens in (1, 2, 3):
            shapes.append(_monomial_shape(shape, 3, ngens, e, s))
    # the seed permutes the variables of each ideal
    ideals = []
    for i, monos in enumerate(shapes):
        vs = XYZ[: len(monos[0])]
        perm = rng.sample(range(len(vs)), len(vs))
        gens = tuple(_monomial_text(vs, [m[j] for j in perm]) for m in monos)
        ideals.append((vs, gens, "monomial/mono%03d" % i))
    # level order 10!, far past the profile cap
    ideals.append((XYZ, ("x*y^4*z^5",), None))
    return [
        Case("%s/mono%03d" % (mode, i), mode, vs, gens, shape=name)
        for mode in ("center", "principalize")
        for i, (vs, gens, name) in enumerate(ideals)
    ]


# -- trees: many cheap blowup nodes ------------------------------------------


def trees_cases(shape: random.Random, rng: random.Random) -> List[Case]:
    ideals = []
    for a in range(2, 16):
        for b in range(a, 16):
            for sign in "+-":
                ideals.append((XY, "x^%d %s y^%d" % (a, sign, b), (a, b)))
    ideals += [(vs, text, None) for vs, text in README_GERMS if text != "x^2 + y^3"]
    for b in range(2, 7):
        for c in range(b, 7):
            ideals.append((XYZ, "x^2 + y^%d + z^%d" % (b, c), (2, b, c)))
    return [
        Case("%s/%s" % (mode, text), mode, vs, (text,), bp)
        for mode in ("principalize", "resolve")
        for vs, text, bp in ideals
    ]


def build(workload: str, seed: int) -> List[Case]:
    """The cases of one workload, in the seeded order they run in."""
    shape = random.Random("%s:shape" % workload)
    rng = random.Random("%s:%d" % (workload, seed))
    family = {"generic": generic_cases, "monomial": monomial_cases, "trees": trees_cases}
    cases = family[workload](shape, rng)
    rng.shuffle(cases)
    return cases
