"""Fixed outputs that a refactor must leave unchanged.

Each run is pinned by the sha256 of its JSON report, or by the error
class and message where the run raises; each center by its presentation.
The values were recorded before the contact choice, the chart pullback
and the study-point search were rewritten, and stay as they were.  The
last three centers were recorded while monomial ideals still took a
contact shortcut and one-variable levels a branch of their own, before
both were folded into the general paths.  The run stopped by its step
budget and the resolve run at a marked point were recorded before the
root and the children of a tree were studied by one routine.  The center
of 1/3*x*y + 3/2*z^3 + 2*x^2*y*z - 2/3*y*z^3 was re-recorded when levels
in two variables moved to truncated series contacts: it was
[(y)^2, (x - 2*z^3)^2, (z)^3], the same center, which
tests/test_closed_form.py checks both ways.  The runs of x^2 - y^2,
x^3 - x*y^2 and x^14 - y^14 were re-recorded when each point of an
exceptional divisor got one node, whichever chart or conjugate names it;
tests/test_driver.py checks those trees against an independent test of
when two points are one.
"""

import hashlib

import pytest

from wblow import LocalIdeal, canonical_center, embedded_resolve, parse_polynomial, principalize

_NO_GRAPH = "TriangularizationError: contact candidate is not reducible to a coordinate graph"

RUNS = [
    ("principalize", "x,y", ("x^2 + y^3",), None, "0ef295a6b92c8ae066225a55c00e5e4d7224ea73ad80f1e231265f1ba5fada69"),
    ("resolve", "x,y", ("x^2 + y^3",), None, "216b07ec32aa1190ee682ee45c8dc0c767151864e9078e9fe174417a35f6895b"),
    ("principalize", "x,y", ("x^2 + x*y^2",), None, "5c3329eb9c3193ec900a7a58ec1d9e1a51d3c6778244fde28c925ab2c4cf58a1"),
    ("resolve", "x,y", ("x^2 + x*y^2",), None, "d5056262a861cb2689cbf3652620e1f1066ea77f773ccc54c0a573823a8701b6"),
    ("principalize", "x,y,z", ("x^2 + y^2*z",), None, "1ccf62c306689e01fab18fd6d579240ef3bcdcf747169a5e6db3f08e2757b6f3"),
    ("resolve", "x,y,z", ("x^2 + y^2*z",), None, "a0efccf73fea89b4a5c21b70cc6e3049d40c0d188a180e769b8404de575aad63"),
    ("principalize", "x,y,z", ("x^2 + y^3 + z^5",), None, _NO_GRAPH),
    ("resolve", "x,y,z", ("x^2 + y^3 + z^5",), None, _NO_GRAPH),
    ("principalize", "x,y,z", ("x^2 + y^2 + z^3",), None, _NO_GRAPH),
    ("resolve", "x,y,z", ("x^2 + y^2 + z^3",), None, _NO_GRAPH),
    ("principalize", "x,y", ("x^2*y", "x*y^3"), None, "c61b3ed7cfa64c4e5d2fca5555e886d217c05bd199c8a5d00159ed44443c43d6"),
    ("principalize", "x,y,z", ("x^3", "y^2*z", "x*z^2"), None, "eb608248d47c982576e8dbdbfd4828f544c278b89da05240d03c206e7b70b8b5"),
    ("principalize", "x,y", ("x^2 - y^2",), None, "b11bba6b762a29e763a19e6bc22111bcd4ac14cf05377a8dc66d51cf4d5422f5"),
    ("resolve", "x,y", ("x^3 - x*y^2",), None, "aed29936b084fc47d9c9f240de9f8b5f6c4874a12c34f7ea31db36ab55c0020e"),
    ("principalize", "x,y,z", ("y^2 - x^3*z", "x*z^2 + y^3"), None, "5f1416a2834385a8c71815c33cd773e013c315afc032eec0393c31182898c7d7"),
    ("principalize", "x,y", ("x^2 - 2*x + y^3 + 1",), (1, 0), "8df0110b06045a30d991147ef57afd049abb48056096566f9046675c859f647c"),
    ("resolve", "x,y", ("x^2 - 2*x + y^3 + 1",), (1, 0), "8d0cea75709b41b5f9037f1814ff66551edb0a35dd20029195da7545e985e19f"),
    # order-one nodes whose contact candidates have degree 14
    ("principalize", "x,y", ("x^14 - y^14",), None, "24233216215525540e28561d224f73ed2466c1589cd20c495e504a30aa20f492"),
    ("resolve", "x,y", ("x^14 - y^14",), None, "cf2e57bb05a839af2dfc528cf5240fa1b9985f80fe51091385bae268c2b0aa76"),
]

CENTERS = [
    ("x,y", ("x^2 + y^3",), "[(x)^2, (y)^3]"),
    ("x,y", ("x^2 + x*y^2",), "[(x + 1/2*y^2)^2, (y)^4]"),
    ("x,y", ("x^2 + 3/2*x*y^2 - y^3",), "[(x + 3/4*y^2)^2, (y)^3]"),
    ("x,y", ("x^2 - y^5 + x*y^3",), "[(x + 1/2*y^3)^2, (y)^5]"),
    ("x,y,z", ("x^2 + y^2*z",), "[(x)^2, (z)^3, (y)^3]"),
    ("x,y,z", ("x^2 + y^3 + z^5",), "[(x)^2, (y)^3, (z)^5]"),
    ("x,y,z", ("x^2 + y^2 + z^3",), "[(y)^2, (x)^2, (z)^3]"),
    ("x,y,z", ("x^4 + y^6 + z^6",), "[(x)^4, (z)^6, (y)^6]"),
    ("x,y", ("x^2*y", "x*y^3"), "[(y)^3, (x)^3]"),
    ("x,y,z", ("x*y^2*z^3",), "[(z)^6, (y)^6, (x)^6]"),
    ("x,y,z", ("y^2 - x^3*z", "x*z^2 + y^3"), "[(y)^2, (z)^3, (x)^3]"),
    ("x,y,z", ("1/3*x*y + 3/2*z^3 + 2*x^2*y*z - 2/3*y*z^3",), "[(y)^2, (x)^2, (z)^3]"),
    # a level with a monomial base beside others asks a monomial ideal for its contact
    ("x,y,z", ("-x*y^2*z^2 + 2*y^2*z^2", "2*y*z^2", "z^3"), "[(z)^3, (y)^3]"),
    ("x,y,z", ("z^3", "2*x^3*y^2*z", "x^2*y^3*z^3 + 2*x^2*y^2*z^3"), "[(z)^3, (y)^15/2, (x)^15/2]"),
    # a one-variable level that is not monomial
    ("x", ("x^2 + x^3",), "[(x)^2]"),
]


def _ideal(variables, gens):
    vs = tuple(variables.split(","))
    return LocalIdeal(vs, [parse_polynomial(g, vs) for g in gens])


@pytest.mark.parametrize("mode, variables, gens, point, expected", RUNS)
def test_run_report(mode, variables, gens, point, expected):
    run = principalize if mode == "principalize" else embedded_resolve
    try:
        report = run(_ideal(variables, gens), point).report_json()
    except Exception as exc:  # a pinned failure is an outcome too
        got = f"{type(exc).__name__}: {exc}"
    else:
        got = hashlib.sha256(report.encode()).hexdigest()
    assert got == expected


def test_exhausted_run_report():
    # one blowup leaves the child of invariant (1, inf) queued, so it ends exhausted
    tree = principalize(_ideal("x,y", ("x^2 + y^3",)), max_steps=1)
    assert tree.status == "exhausted"
    report = tree.report_json()
    assert (
        hashlib.sha256(report.encode()).hexdigest()
        == "8e46058061c1d309450ff8d120673c672cc4802b0b889111437723bcfae30ec7"
    )


@pytest.mark.parametrize("variables, gens, expected", CENTERS)
def test_center_presentation(variables, gens, expected):
    assert repr(canonical_center(_ideal(variables, gens)).center) == expected
