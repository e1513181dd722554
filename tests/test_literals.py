"""Element and derivation literals: parsing, printing, round trips."""

from fractions import Fraction

import pytest

from blockalg.core import JSpec, SIGMA1, bracket, monomial, spec_validate
from blockalg.derivations import (
    UndefinedInThisAlgebra,
    ad,
    apply,
    make_dmu,
    make_dt2,
)
from blockalg.lattice import GroupHom, lattice_from_strs, vec
from blockalg.literals import (
    ParseError,
    fmt_derivation,
    fmt_element,
    fmt_rat,
    parse_derivation,
    parse_element,
    parse_rat,
)

F = Fraction

Z2 = lattice_from_strs([["1", "0"], ["0", "1"]])


def sp(j1="N", j2="N", lat=Z2):
    return spec_validate(lat, JSpec(j1, j2))


class TestRatLiterals:
    def test_forms(self):
        assert parse_rat("3") == F(3)
        assert parse_rat("-1/2") == F(-1, 2)
        assert parse_rat(" 5/10 ") == F(1, 2)

    def test_fmt(self):
        assert fmt_rat(F(3, 2)) == "3/2"
        assert fmt_rat(F(-4)) == "-4"

    def test_rejects(self):
        for bad in ("", "x", "1.5", "1/0x"):
            with pytest.raises(Exception):
                parse_rat(bad)

    def test_zero_denominator_is_parse_error(self):
        for bad in ("1/0", "-3/0", " 0/00 "):
            with pytest.raises(ParseError, match="zero denominator"):
                parse_rat(bad)

    def test_digits_are_ascii_only(self):
        # Arabic-Indic one and two, which int() and a Unicode \d accept
        with pytest.raises(ParseError):
            parse_rat("\u0661/\u0662")
        for bad in ("\u0661 x[1,0;0,0]", "x[\u0661,0;0,0]", "x[1,0;\u0661,0]"):
            with pytest.raises(ParseError):
                parse_element(sp(), bad)


class TestElementLiterals:
    def test_single_term(self):
        s = sp(lat=lattice_from_strs([["1", "0"], ["0", "1/2"]]))
        u = parse_element(s, "x[1,-1/2;2,0]")
        assert u.terms == {(vec(1, "-1/2"), (2, 0)): F(1)}

    def test_coefficients_and_signs(self):
        s = sp()
        u = parse_element(s, "3/2 x[1,0;0,0] - x[0,1;1,0] + 2*x[1,0;0,0]")
        assert u.terms == {
            (vec(1, 0), (0, 0)): F(7, 2),
            (vec(0, 1), (1, 0)): F(-1),
        }

    def test_leading_sign(self):
        s = sp()
        assert parse_element(s, "-x[1,0;0,0]").coeff(vec(1, 0), (0, 0)) == -1

    def test_zero_literal(self):
        s = sp()
        assert parse_element(s, "0").is_zero()
        assert fmt_element(parse_element(s, "0")) == "0"

    def test_parse_reduces_into_the_quotient(self):
        s = sp()
        assert parse_element(s, "x[0,1;0,0]").is_zero()
        assert fmt_element(parse_element(s, "x[0,1;0,0]")) == "0"

    def test_cancellation(self):
        s = sp()
        assert parse_element(s, "x[1,0;0,0] - x[1,0;0,0]").is_zero()

    def test_fmt_ordering_and_units(self):
        s = sp()
        u = (
            monomial(s, vec(1, 1), (0, 0))
            + 2 * monomial(s, vec(1, 1), (1, 0))
            + monomial(s, vec(0, 1), (1, 1), F(-1, 2))
        )
        assert fmt_element(u) == "-1/2 x[0,1;1,1] + 2 x[1,1;1,0] + x[1,1;0,0]"

    def test_roundtrip_is_identity_on_canonical_forms(self):
        s = sp()
        cases = [
            "x[1,1;2,0] + 2 x[1,1;1,0]",
            "-x[2,3;0,1]",
            "3/2 x[1,0;0,0] - 1/2 x[0,1;1,1]",
            "0",
        ]
        for text in cases:
            once = fmt_element(parse_element(s, text))
            twice = fmt_element(parse_element(s, once))
            assert once == twice

    def test_invalid_literals(self):
        s = sp()
        for bad in ("x[1;0,0]", "x[1,0;0]", "x[1,0;0,0] +", "y[1,0;0,0]", ""):
            with pytest.raises(ParseError):
                parse_element(s, bad)

    def test_zero_denominators_are_parse_errors(self):
        s = sp()
        for bad in (
            "1/0 x[1,0;0,0]",  # coefficient
            "x[1/0,0;0,0]",  # first degree entry
            "x[1,0/0;0,0]",  # second degree entry
            "x[1,0;0,0] - 2/0 x[0,0;1,0]",  # a later term
        ):
            with pytest.raises(ParseError, match="zero denominator"):
                parse_element(s, bad)

    def test_index_validation_happens_on_parse(self):
        s = sp("N", "0")
        with pytest.raises(Exception):
            parse_element(s, "x[1,0;0,1]")


class TestDerivationLiterals:
    def test_named_atoms(self):
        s = sp()
        x = monomial(s, vec(2, 3), (2, 1))
        assert apply(parse_derivation(s, "dt1"), x).terms == {
            (vec(2, 3), (1, 1)): F(2)
        }

    def test_combination(self):
        s = sp()
        d = parse_derivation(s, "ad(x[0,0;1,0]) + 2*dt2 - dmu(1,0)")
        x = monomial(s, vec(2, 3), (0, 1))
        manual = (
            bracket(monomial(s, vec(0, 0), (1, 0)), x)
            + 2 * apply(make_dt2(s), x)
            - apply(make_dmu(s, GroupHom(s.gamma, (F(1), F(0)))), x)
        )
        assert apply(d, x) == manual

    def test_scalars_and_signs(self):
        s = sp()
        d = parse_derivation(s, "-3/2 dt1 + dt1")
        x = monomial(s, vec(1, 1), (1, 0))
        assert apply(d, x) == F(-1, 2) * apply(parse_derivation(s, "dt1"), x)

    def test_dmu_arity_enforced(self):
        s = sp()
        with pytest.raises(ParseError):
            parse_derivation(s, "dmu(1)")
        rank1 = sp("N", "N", lattice_from_strs([["0", "1"]]))
        with pytest.raises(ParseError):
            parse_derivation(rank1, "dmu(1,2)")
        parse_derivation(rank1, "dmu(3)")  # fine

    def test_undefined_atom_raises_unless_permissive(self):
        s = sp("N", "N")
        with pytest.raises(UndefinedInThisAlgebra):
            parse_derivation(s, "d1")
        d = parse_derivation(s, "d1", permissive=True)
        assert apply(d, monomial(s, vec(1, 0), (0, 0))).is_zero()

    def test_ad_atom_matches_ad(self):
        s = sp()
        d = parse_derivation(s, "ad(x[1,1;0,1])")
        x = monomial(s, vec(2, 0), (1, 0))
        assert apply(d, x) == apply(ad(monomial(s, vec(1, 1), (0, 1))), x)

    def test_longest_match_d1bar(self):
        s = sp("0", "N")
        d = parse_derivation(s, "d1bar")
        assert d.f2 == 1 and d.f1 == 0

    def test_zero_denominators_are_parse_errors(self):
        s = sp()
        for bad in ("1/0*dt1", "dt1 - 3/0 dt2", "dmu(1/0,0)", "ad(x[1,0/0;0,0])"):
            with pytest.raises(ParseError, match="zero denominator"):
                parse_derivation(s, bad)

    def test_bad_expressions(self):
        s = sp()
        for bad in ("", "dt1 +", "dq", "ad(x[1,0;0,0]", "dmu(1,2"):
            with pytest.raises(ParseError):
                parse_derivation(s, bad)

    def test_fmt_derivation_round_trips(self):
        s = sp()
        for text in ("ad(x[1,0;1,0]) + dmu(1,-1/2) + -3/2*dt2 + dt1", "dt1", "ad(0)"):
            assert fmt_derivation(parse_derivation(s, text)) == text
