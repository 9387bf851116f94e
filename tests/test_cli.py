import json

import pytest

import wblow
from wblow import LocalIdeal, WeightedCenter, canonical_center, parse_polynomial
from wblow.cli import format_invariant, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCenterCommand:
    def test_cusp(self, capsys):
        code, out, err = run(
            capsys, "center", "--vars", "x,y", "--gens", "x^2 + y^3"
        )
        assert code == 0
        assert err == ""
        assert out.splitlines() == [
            "invariant: (2, 3, inf)",
            "center: [(x)^2, (y)^3]",
        ]

    def test_marked_point(self, capsys):
        code, out, _ = run(
            capsys,
            "center",
            "--vars",
            "x,y",
            "--gens",
            "x^2 + 1 + 3*y + 3*y^2 + y^3",
            "--point",
            "0,-1",
        )
        assert code == 0
        assert "invariant: (2, 3, inf)" in out

    def test_unit_ideal_has_no_center(self, capsys):
        code, out, _ = run(capsys, "center", "--vars", "x,y", "--gens", "1")
        assert code == 0
        assert "invariant: (0)" in out
        assert "center: none" in out

    def test_json_payload(self, capsys, tmp_path):
        target = tmp_path / "center.json"
        code, _, _ = run(
            capsys,
            "center",
            "--vars",
            "x,y",
            "--gens",
            "x^2 + y^3",
            "--json",
            str(target),
        )
        assert code == 0
        data = json.loads(target.read_text())
        assert data["invariant"] == ["2", "3", "inf"]
        assert data["center"] == [["x", "2"], ["y", "3"]]


class TestTreeCommands:
    def test_principalize_summary(self, capsys, tmp_path):
        target = tmp_path / "tree.json"
        code, out, _ = run(
            capsys,
            "principalize",
            "--vars",
            "x,y",
            "--gens",
            "x^2 + y^3",
            "--trace",
            "--json",
            str(target),
        )
        assert code == 0
        lines = out.splitlines()
        assert "n2 [chart x] at (0, -1): invariant (1, inf) -> blown" in lines
        assert "status: principal" in lines
        assert "blowups: 2" in lines
        data = json.loads(target.read_text())
        assert data["status"] == "principal"
        assert data["steps"] == 2
        assert data["nodes"][2]["point"] == ["0", "-1"]

    def test_resolve_is_faster(self, capsys):
        code, out, _ = run(
            capsys, "resolve", "--vars", "x,y", "--gens", "x^2 + y^3"
        )
        assert code == 0
        assert "status: smooth" in out
        assert "blowups: 1" in out

    def test_exhausted_budget_exits_3(self, capsys):
        code, out, _ = run(
            capsys,
            "principalize",
            "--vars",
            "x,y",
            "--gens",
            "x^2 + y^3",
            "--max-steps",
            "1",
        )
        assert code == 3
        assert "status: exhausted" in out


CUSP_PROBLEM = {"variables": ["x", "y"], "generators": ["x^2 + y^3"]}


class TestInputHandling:
    def test_input_file(self, capsys, tmp_path):
        problem = tmp_path / "problem.json"
        problem.write_text(
            json.dumps(
                {
                    "variables": ["x", "y"],
                    "generators": ["x^2 + y^3"],
                    "point": ["0", "0"],
                    "max_steps": 10,
                }
            )
        )
        code, out, _ = run(capsys, "principalize", "--input", str(problem))
        assert code == 0
        assert "status: principal" in out

    @pytest.mark.parametrize(
        "problem, field",
        [
            ([1, 2], "JSON object"),
            (dict(CUSP_PROBLEM, point=5), "point"),
            (dict(CUSP_PROBLEM, max_steps=True), "max_steps"),
            (dict(CUSP_PROBLEM, variables="x,y"), "variables"),
            (dict(CUSP_PROBLEM, generators="x^2"), "generators"),
        ],
        ids=[
            "top_level_array",
            "point_number",
            "max_steps_bool",
            "variables_string",
            "generators_string",
        ],
    )
    def test_malformed_json_value_exits_2(self, capsys, tmp_path, problem, field):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        code, out, err = run(capsys, "principalize", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert field in err

    @pytest.mark.parametrize("names", ["x,,y", "x,2", "x,y^2", "x,*", "x, ,y", "1x,y"])
    def test_unwritable_variable_name_exits_2(self, capsys, tmp_path, names):
        # a name the polynomial grammar cannot write, from --vars or from JSON
        code, out, err = run(capsys, "center", "--vars", names, "--gens", "x")
        assert (code, out) == (2, "")
        assert err.startswith("error: bad variable name")
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(dict(CUSP_PROBLEM, variables=names.split(","))))
        code, out, err = run(capsys, "principalize", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: bad variable name")

    def test_primes_and_underscores_are_names(self, capsys):
        code, out, _ = run(capsys, "center", "--vars", "x', _y1", "--gens", "x'^2 + _y1^3")
        assert code == 0
        assert "invariant: (2, 3, inf)" in out

    def test_mode_mismatch(self, capsys, tmp_path):
        problem = tmp_path / "problem.json"
        problem.write_text(
            json.dumps(
                {
                    "variables": ["x"],
                    "generators": ["x"],
                    "mode": "resolve",
                }
            )
        )
        code, _, err = run(capsys, "principalize", "--input", str(problem))
        assert code == 2
        assert "mode" in err

    def test_bad_polynomial_exits_2(self, capsys):
        code, _, err = run(capsys, "center", "--vars", "x,y", "--gens", "x^2 +")
        assert code == 2
        assert "error:" in err

    def test_missing_generators_exits_2(self, capsys):
        code, _, err = run(capsys, "center", "--vars", "x,y")
        assert code == 2
        assert "generators" in err

    def test_bad_point_exits_2(self, capsys):
        code, _, err = run(
            capsys,
            "center",
            "--vars",
            "x,y",
            "--gens",
            "x^2 + y^3",
            "--point",
            "0",
        )
        assert code == 2
        assert "point" in err

    def test_unsupported_input_exits_4(self, capsys):
        # valid input whose contact element has no coordinate graph form
        code, _, err = run(
            capsys, "center", "--vars", "x,y", "--gens", "x + x*y + y^3"
        )
        assert code == 4
        assert "error:" in err

    def test_inadmissible_center_exits_5(self, capsys, monkeypatch):
        monkeypatch.setattr(WeightedCenter, "admissible", lambda self, ideal: False)
        code, _, err = run(capsys, "center", "--vars", "x,y", "--gens", "x^2 + y^3")
        assert code == 5
        assert err.startswith("error: internal check failed: canonical center")

    def test_missing_descent_exits_5(self, capsys, monkeypatch):
        # every node reports the root's invariant, so the first child cannot drop
        vs = ("x", "y")
        root = canonical_center(LocalIdeal(vs, [parse_polynomial("x^2 + y^3", vs)]))
        monkeypatch.setattr(wblow.driver, "canonical_center", lambda ideal: root)
        code, _, err = run(capsys, "principalize", "--vars", "x,y", "--gens", "x^2 + y^3")
        assert code == 5
        assert err.startswith("error: internal check failed:")
        assert "does not drop" in err


class TestFormatting:
    def test_format_invariant(self):
        from fractions import Fraction

        assert format_invariant((0,)) == "(0)"
        assert (
            format_invariant((Fraction(3, 2), Fraction(2), float("inf")))
            == "(3/2, 2, inf)"
        )
