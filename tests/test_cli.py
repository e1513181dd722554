"""Command-line contract: outputs, exit codes, golden files."""

import json
import sys
from pathlib import Path

import pytest

import blockalg.harness as H
from blockalg.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

Z2NN = str(DATA / "z2nn.json")
Z2_00 = str(DATA / "z2_00.json")
PI10_N0 = str(DATA / "pi10_n0.json")
G25 = str(DATA / "g25.json")
ISO_A = str(DATA / "iso_a.json")
ISO_B = str(DATA / "iso_b.json")
ISO_C = str(DATA / "iso_c.json")


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestGolden:
    """Byte-exact outputs pinned against independently hand-computed files."""

    def check(self, capsys, golden_name, *argv):
        rc, out, err = run(capsys, *argv)
        assert rc == 0 and err == ""
        assert out == (GOLDEN / golden_name).read_text(encoding="utf-8")

    def test_identity_bracket_formula(self, capsys):
        self.check(
            capsys,
            "bracket_identity.txt",
            "bracket", "--spec", Z2NN, "x[0,0;0,0]", "x[1,1;2,0]",
        )

    def test_first_index_raiser_row(self, capsys):
        self.check(
            capsys,
            "bracket_witt_row.txt",
            "bracket", "--spec", PI10_N0, "x[0,0;1,0]", "x[0,3;0,0]",
        )

    def test_sigma1_vacuum_reduces_to_zero(self, capsys):
        self.check(
            capsys,
            "zero_sigma1.txt",
            "bracket", "--spec", Z2_00, "x[1,0;0,0]", "x[-1,1;0,0]",
        )


class TestBracketAndDerive:
    def test_bracket_output(self, capsys):
        rc, out, _ = run(
            capsys, "bracket", "--spec", Z2NN, "x[1,1;1,0]", "x[2,3;0,1]"
        )
        assert rc == 0
        assert out == "2 x[3,4;1,1] + x[3,4;1,0] + 2 x[3,4;0,1] + x[3,4;0,0]\n"

    def test_apply_der(self, capsys):
        rc, out, _ = run(
            capsys, "apply-der", "--spec", Z2NN, "--der", "dt2", "x[1,0;0,3]"
        )
        assert rc == 0 and out == "3 x[1,0;0,2]\n"

    def test_apply_der_expression(self, capsys):
        rc, out, _ = run(
            capsys,
            "apply-der", "--spec", Z2NN,
            "--der", "ad(x[0,0;1,0]) + 2*dt2 - dmu(1,0)",
            "x[2,3;0,1]",
        )
        assert rc == 0 and out.strip() != ""

    def test_undefined_derivation_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "apply-der", "--spec", Z2NN, "--der", "d1", "x[1,0;0,0]")
        assert rc == 2 and "blockalg: error:" in err

    def test_permissive_zero(self, capsys):
        rc, out, _ = run(
            capsys,
            "apply-der", "--spec", Z2NN, "--der", "d1", "--permissive-zero",
            "x[1,0;0,0]",
        )
        assert rc == 0 and out == "0\n"


class TestIso:
    def test_decide_found(self, capsys):
        rc, out, _ = run(capsys, "iso", "decide", "--spec", ISO_A, "--spec2", ISO_B)
        assert rc == 0
        assert json.loads(out) == {"verdict": "found", "a": "3", "b": "1"}

    def test_decide_negative_exit_one(self, capsys):
        rc, out, _ = run(capsys, "iso", "decide", "--spec", ISO_A, "--spec2", ISO_C)
        assert rc == 1
        assert json.loads(out) == {
            "verdict": "not_isomorphic",
            "reason": "lattice_invariant_mismatch",
        }

    def test_apply(self, capsys):
        rc, out, _ = run(
            capsys,
            "iso", "apply", "--spec", ISO_A, "--spec2", ISO_B,
            "--a", "3", "--b", "1", "x[1,0;1,0]",
        )
        assert rc == 0 and out == "x[3,1;1,0] + 1/3 x[3,1;0,1]\n"

    def test_apply_wrong_params_is_error(self, capsys):
        rc, _, err = run(
            capsys,
            "iso", "apply", "--spec", ISO_A, "--spec2", ISO_C,
            "--a", "3", "--b", "1", "x[1,0;1,0]",
        )
        assert rc == 2 and "error" in err

    def test_key(self, capsys):
        rc, out, _ = run(capsys, "iso", "key", "--spec", G25)
        assert rc == 0 and out == "(2, (R2, h=5, s*=2))\n"

    def test_key_witt_degenerate_is_error(self, capsys, tmp_path):
        bad = tmp_path / "witt.json"
        bad.write_text(
            json.dumps(
                {"gamma": {"generators": [["1", "0"]]}, "J": ["N", "0"]}
            )
        )
        rc, _, err = run(capsys, "iso", "key", "--spec", str(bad))
        assert rc == 2 and "error" in err


    def test_decide_witt_degenerate_is_error(self, capsys, tmp_path):
        for name, gens in (("x1", [["1", "0"]]), ("x2", [["2", "0"]])):
            (tmp_path / f"{name}.json").write_text(
                json.dumps({"gamma": {"generators": gens}, "J": ["0", "0"]})
            )
        rc, out, err = run(
            capsys, "iso", "decide",
            "--spec", str(tmp_path / "x1.json"), "--spec2", str(tmp_path / "x2.json"),
        )
        assert rc == 2 and out == ""
        assert err.startswith("blockalg: error: ") and err.count("\n") == 1


class TestCanonEnumerate:
    def test_canon_inferred_group(self, capsys):
        rc, out, _ = run(capsys, "canon", "--spec", G25)
        assert rc == 0 and out == "(R2, h=5, s*=2)\n"

    def test_canon_explicit_group(self, capsys):
        rc, out, _ = run(capsys, "canon", "--spec", G25, "--group", "G1")
        assert rc == 0 and out == "(R2, h=5)\n"

    def test_canon_default_is_g1_for_other_j(self, capsys):
        rc, out, _ = run(capsys, "canon", "--spec", Z2NN)
        assert rc == 0 and out == "(R2, h=1)\n"

    def test_enumerate_count(self, capsys):
        rc, out, _ = run(capsys, "enumerate", "--spec", Z2NN, "--K", "1", "--L", "0")
        lines = out.strip().split("\n")
        assert rc == 0 and len(lines) == 8
        assert "x[0,1;0,0]" not in lines  # the quotiented symbol


class TestCheck:
    def test_suite_green_exit_zero(self, capsys):
        rc, out, _ = run(
            capsys, "check", "jacobi", "--spec", Z2NN, "--seed", "7",
            "--trials", "10",
        )
        assert rc == 0
        assert "failures: 0" in out
        assert "wall_time_s:" in out

    def test_out_report_json(self, capsys, tmp_path):
        dest = tmp_path / "report.json"
        rc, _, _ = run(
            capsys, "check", "locality", "--spec", G25, "--seed", "3",
            "--trials", "5", "--out", str(dest),
        )
        assert rc == 0
        data = json.loads(dest.read_text())
        assert data["suite"] == "locality" and data["failures"] == []
        assert "wall_time_s" in data

    def test_suite_failure_exit_one(self, capsys, monkeypatch):
        real = H.bracket
        monkeypatch.setattr(H, "bracket", lambda u, v: real(u, v) + u)
        rc, out, _ = run(
            capsys, "check", "jacobi", "--spec", Z2NN, "--seed", "7",
            "--trials", "5",
        )
        assert rc == 1
        assert "FAIL jacobi" in out

    def test_missing_seed_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "jacobi", "--spec", Z2NN])
        assert exc.value.code == 2

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "nonsense", "--spec", Z2NN, "--seed", "1"])
        assert exc.value.code == 2

    def test_simplicity_via_cli(self, capsys):
        rc, out, _ = run(
            capsys, "check", "simplicity", "--spec", Z2_00, "--seed", "3",
            "--trials", "2", "--K", "1", "--L", "1", "--depth", "6",
        )
        assert rc == 0 and "failures: 0" in out


class TestSpecFiles:
    def test_parse_error_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc, _, err = run(capsys, "bracket", "--spec", str(bad), "0", "0")
        assert rc == 2 and "blockalg: error:" in err

    def test_missing_file_exit_two(self, capsys):
        rc, _, err = run(capsys, "canon", "--spec", "/nonexistent.json")
        assert rc == 2 and "error" in err

    def test_condition_violation_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "cond.json"
        bad.write_text(
            json.dumps({"gamma": {"generators": [["0", "1"]]}, "J": ["0", "0"]})
        )
        rc, _, err = run(capsys, "canon", "--spec", str(bad))
        assert rc == 2

    def test_unsupported_mode_rejected(self, capsys, tmp_path):
        bad = tmp_path / "mode.json"
        bad.write_text(
            json.dumps(
                {
                    "gamma": {"generators": [["1", "0"], ["0", "1"]]},
                    "J": ["N", "N"],
                    "mode": "strict",
                }
            )
        )
        rc, _, err = run(capsys, "canon", "--spec", str(bad))
        assert rc == 2 and "mode" in err

    def test_bad_element_literal_exit_two(self, capsys):
        rc, _, err = run(capsys, "bracket", "--spec", Z2NN, "x[1,0;0,0", "0")
        assert rc == 2

    def test_fractional_lattice_spec(self, capsys, tmp_path):
        half = tmp_path / "half.json"
        half.write_text(
            json.dumps(
                {
                    "gamma": {"generators": [["1/2", "0"], ["0", "1"]]},
                    "J": ["N", "N"],
                }
            )
        )
        rc, out, _ = run(
            capsys, "bracket", "--spec", str(half), "x[1/2,0;0,0]", "x[1/2,1;0,0]"
        )
        assert rc == 0 and out == "1/2 x[1,1;0,0]\n"


class TestInputBoundary:
    """Bad input values end in one `blockalg: error:` line and exit 2."""

    @staticmethod
    def assert_usage_error(rc, out, err):
        assert rc == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("blockalg: error:")

    @pytest.mark.parametrize(
        "literal",
        ["x[1/0,0;0,0]", "x[1,0/0;0,0]", "1/0 x[1,0;0,0]", "x[0,0;1,0] - 2/0 x[1,0;0,0]"],
    )
    def test_zero_denominator_in_element_literal(self, capsys, literal):
        rc, out, err = run(capsys, "bracket", "--spec", Z2NN, literal, "x[1,0;0,0]")
        self.assert_usage_error(rc, out, err)
        assert "zero denominator" in err

    def test_zero_denominator_in_derivation_literal(self, capsys):
        rc, out, err = run(
            capsys, "apply-der", "--spec", Z2NN, "--der", "1/0*dt2", "x[1,0;0,3]"
        )
        self.assert_usage_error(rc, out, err)

    @pytest.mark.parametrize("pair", [["1/0", "0"], ["0", "1/0"]])
    def test_zero_denominator_in_spec_file(self, capsys, tmp_path, pair):
        bad = tmp_path / "zero_den.json"
        bad.write_text(
            json.dumps({"gamma": {"generators": [pair, ["0", "1"]]}, "J": ["N", "N"]})
        )
        rc, out, err = run(capsys, "bracket", "--spec", str(bad), "0", "0")
        self.assert_usage_error(rc, out, err)
        assert "zero denominator" in err

    @pytest.mark.parametrize("a, b", [("1/0", "1"), ("3", "5/0")])
    def test_zero_denominator_in_iso_parameters(self, capsys, a, b):
        rc, out, err = run(
            capsys,
            "iso", "apply", "--spec", ISO_A, "--spec2", ISO_B,
            "--a", a, "--b", b, "x[1,0;1,0]",
        )
        self.assert_usage_error(rc, out, err)

    @pytest.mark.parametrize(
        "suite, option, value",
        [
            ("jacobi", "--K", "-1"),
            ("jacobi", "--L", "-1"),
            ("jacobi", "--trials", "-5"),
            ("jacobi", "--trials", "0"),
            ("simplicity", "--depth", "-1"),
            ("locality", "--cap", "-2"),
            ("locality", "--cap", "0"),
        ],
    )
    def test_check_rejects_out_of_range_arguments(self, capsys, suite, option, value):
        rc, out, err = run(
            capsys, "check", suite, "--spec", Z2NN, "--seed", "1", option, value
        )
        self.assert_usage_error(rc, out, err)
        assert option in err

    def test_iso_suite_refuses_witt_degenerate_spec(self, capsys, tmp_path):
        witt = tmp_path / "witt.json"
        witt.write_text(json.dumps({"gamma": {"generators": [["1", "0"]]}, "J": ["N", "0"]}))
        rc, out, err = run(capsys, "check", "iso", "--spec", str(witt), "--seed", "1")
        self.assert_usage_error(rc, out, err)
        assert "outside the classification" in err

    @pytest.mark.parametrize("option", ["--K", "--L"])
    def test_enumerate_rejects_negative_window(self, capsys, option):
        rc, out, err = run(capsys, "enumerate", "--spec", Z2NN, option, "-3")
        self.assert_usage_error(rc, out, err)
        assert option in err

    @pytest.mark.parametrize(
        "argv",
        [
            # Arabic-Indic digits one and three: not ASCII, so not a literal;
            # read as 3 and 1, the iso parameters would be those of test_apply
            ["bracket", "--spec", Z2NN, "\u0661 x[1,0;0,0]", "x[1,0;0,0]"],
            ["bracket", "--spec", Z2NN, "x[1,0;\u0661,0]", "x[1,0;0,0]"],
            ["iso", "apply", "--spec", ISO_A, "--spec2", ISO_B,
             "--a", "\u0663", "--b", "\u0661", "x[1,0;1,0]"],
        ],
        ids=["coefficient", "index", "iso-parameter"],
    )
    def test_non_ascii_digits_are_parse_errors(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        self.assert_usage_error(rc, out, err)


@pytest.fixture
def int_digit_cap():
    """Run under the interpreter's default int <-> str digit cap, which
    main lifts, and put the process's cap back afterwards."""
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(cap)


@pytest.mark.usefixtures("int_digit_cap")
class TestExactAtAnySize:
    """Numbers past the interpreter's 4,300-digit conversion cap are read and
    printed in full."""

    def test_product_of_two_3000_digit_coefficients(self, capsys):
        c = "9" * 3000
        rc, out, err = run(capsys, "bracket", "--spec", Z2NN, f"{c} x[1,1;1,0]", f"{c} x[1,0;0,0]")
        n = str(int(c) ** 2)
        assert len(n) == 6000
        assert (rc, err) == (0, "")
        assert out == f"-{n} x[2,1;1,0] - {n} x[2,1;0,0]\n"

    def test_5000_digit_literal(self, capsys):
        n = "7" * 5000
        rc, out, err = run(capsys, "bracket", "--spec", Z2NN, f"{n} x[1,1;1,0]", "x[1,0;0,0]")
        assert (rc, err) == (0, "")
        assert out == f"-{n} x[2,1;1,0] - {n} x[2,1;0,0]\n"
