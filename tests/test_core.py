"""Algebra construction, reduction, bracket, windows, exact row spans."""

import copy
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockalg.core import (
    J_NAT_NAT,
    J_NAT_ZERO,
    J_ZERO_NAT,
    J_ZERO_ZERO,
    SIGMA1,
    SIGMA2,
    AlgebraError,
    Condition11Violated,
    Element,
    IndexOutsideGamma,
    IndexOutsideJ,
    JSpec,
    Span,
    SpecMismatch,
    assoc_mul,
    bracket,
    bracket_raw,
    enumerate_window,
    grade_component,
    index_key,
    leading_term,
    map_scaled,
    monomial,
    odot,
    one,
    partial,
    reduce,
    spec_validate,
    window_indices,
    zero,
)
from blockalg.lattice import NotInLattice, Vec2, lattice_from_strs, vec
from conftest import quotient_terms

F = Fraction

Z2 = lattice_from_strs([["1", "0"], ["0", "1"]])
G25 = lattice_from_strs([["2", "3"], ["0", "5"]])
YAXIS = lattice_from_strs([["0", "1"]])
XAXIS = lattice_from_strs([["1", "0"]])


def sp(lat, j1, j2):
    return spec_validate(lat, JSpec(j1, j2))


class TestSpecValidate:
    def test_flags_on_z2(self):
        s = sp(Z2, "N", "N")
        assert s.has_sigma1 and s.has_sigma2
        assert not s.simple_part and not s.witt_degenerate

    def test_simple_part_needs_sigma2(self):
        assert sp(Z2, "0", "0").simple_part
        # (0,2) is not in <(2,3),(0,5)>
        assert not sp(G25, "0", "0").simple_part

    def test_trivial_pi1_with_j1_zero_rejected(self):
        for j2 in ("0", "N"):
            with pytest.raises(Condition11Violated):
                sp(YAXIS, "0", j2)

    def test_trivial_pi1_with_j1_nat_allowed(self):
        s = sp(YAXIS, "N", "N")
        assert s.gamma.proj_generator(1) == 0

    def test_witt_degenerate_flag(self):
        s = sp(XAXIS, "N", "0")
        assert s.witt_degenerate
        assert not sp(XAXIS, "N", "N").witt_degenerate

    def test_jspec_validation(self):
        with pytest.raises(AlgebraError):
            JSpec("N", "Z")


class TestElement:
    def test_monomial_and_coeff(self):
        s = sp(Z2, "N", "N")
        x = monomial(s, vec(1, 2), (1, 0), F(3, 2))
        assert x.coeff(vec(1, 2), (1, 0)) == F(3, 2)
        assert x.coeff(vec(1, 2), (0, 0)) == 0

    def test_linear_algebra(self):
        s = sp(Z2, "N", "N")
        x = monomial(s, vec(1, 0), (0, 0))
        y = monomial(s, vec(0, 3), (1, 1))
        u = 2 * x - y
        assert u.coeff(vec(1, 0), (0, 0)) == 2
        assert u.coeff(vec(0, 3), (1, 1)) == -1
        assert (u + y - 2 * x).is_zero()
        assert -u == (-1) * u

    def test_copy_keeps_the_stored_form(self):
        s = sp(Z2, "N", "N")
        u = 2 * monomial(s, vec(1, 0), (0, 0)) - F(1, 3) * monomial(s, vec(0, 3), (1, 1))
        c = copy.copy(u)
        assert c == u and c._ints == u._ints and c._den == u._den == 3

    def test_cross_spec_rejected(self):
        a = monomial(sp(Z2, "N", "N"), vec(1, 0), (0, 0))
        b = monomial(sp(Z2, "0", "0"), vec(1, 0), (0, 0))
        with pytest.raises(SpecMismatch):
            a + b


class TestReduce:
    def test_sigma1_vacuum_dropped(self):
        s = sp(Z2, "N", "N")
        assert reduce(s, {(SIGMA1, (0, 0)): F(5)}).is_zero()
        assert not reduce(s, {(SIGMA1, (1, 0)): F(5)}).is_zero()

    def test_simple_part_drops_sigma_degrees(self):
        s = sp(Z2, "0", "0")
        assert s.simple_part
        assert reduce(s, {(SIGMA1, (0, 0)): F(1)}).is_zero()
        assert reduce(s, {(SIGMA2, (0, 0)): F(1)}).is_zero()
        assert not reduce(s, {(vec(1, 1), (0, 0)): F(1)}).is_zero()

    def test_alpha_outside_gamma_rejected(self):
        s = sp(G25, "N", "N")
        with pytest.raises(IndexOutsideGamma, match=r"^\(1,0\) not in <\(2,3\),\(0,5\)>$"):
            reduce(s, {(vec(1, 0), (0, 0)): F(1)})

    def test_index_outside_j_rejected(self):
        s = sp(Z2, "N", "0")
        with pytest.raises(IndexOutsideJ, match=r"^index \(0, 1\) invalid for J=\(N,0\)$"):
            reduce(s, {(vec(1, 0), (0, 1)): F(1)})
        with pytest.raises(IndexOutsideJ):
            reduce(s, {(vec(1, 0), (-1, 0)): F(1)})

    def test_monomial_validates(self):
        s = sp(Z2, "0", "N")
        with pytest.raises(IndexOutsideJ):
            monomial(s, vec(1, 0), (1, 0))


class TestDifferentialOracles:
    """partial/odot against hand expansions; the bracket is checked via odot."""

    def test_partial_formula(self):
        s = sp(Z2, "N", "N")
        x = monomial(s, vec(2, 3), (1, 2))
        d1 = partial(x, 1)
        assert d1.coeff(vec(2, 3), (1, 2)) == 2
        assert d1.coeff(vec(2, 3), (0, 2)) == 1
        d2 = partial(x, 2)
        assert d2.coeff(vec(2, 3), (1, 2)) == 3
        assert d2.coeff(vec(2, 3), (1, 1)) == 2

    def test_partials_commute(self):
        s = sp(Z2, "N", "N")
        u = monomial(s, vec(1, 2), (2, 1)) + 2 * monomial(s, vec(0, 1), (1, 1))
        assert partial(partial(u, 1), 2) == partial(partial(u, 2), 1)

    def test_assoc_mul_adds_exponents(self):
        s = sp(Z2, "N", "N")
        x = monomial(s, vec(1, 0), (1, 0))
        y = monomial(s, vec(0, 1), (0, 2), F(1, 2))
        p = assoc_mul(x, y)
        assert p.coeff(vec(1, 1), (1, 2)) == F(1, 2)
        assert len(p.terms) == 1

    def test_odot_definition(self):
        # u (.) v = partial_1(u) * (partial_2(v) - v), before any quotient
        s = sp(Z2, "N", "N")
        u = monomial(s, vec(1, 1), (1, 0))
        v = monomial(s, vec(2, 3), (0, 1))
        lhs = odot(u, v)
        rhs = assoc_mul(partial(u, 1), partial(v, 2) - v)
        assert lhs == rhs


class TestBracketOracles:
    """Frozen hand-computed values (worked out term by term off the four-line
    expansion before being asserted here)."""

    def test_full_j_example(self):
        s = sp(Z2, "N", "N")
        u = monomial(s, vec(1, 1), (1, 0))
        v = monomial(s, vec(2, 3), (0, 1))
        w = bracket(u, v)
        expected = {
            (vec(3, 4), (1, 1)): F(2),
            (vec(3, 4), (0, 1)): F(2),
            (vec(3, 4), (1, 0)): F(1),
            (vec(3, 4), (0, 0)): F(1),
        }
        assert w.terms == expected

    def test_j_zero_zero_example(self):
        s = sp(Z2, "0", "0")
        u = monomial(s, vec(1, 2), (0, 0))
        v = monomial(s, vec(3, 5), (0, 0))
        # (a1(b2-1) - b1(a2-1)) = (1*4 - 3*1) = 1 at degree (4,7)
        assert bracket(u, v).terms == {(vec(4, 7), (0, 0)): F(1)}

    def test_j_nat_zero_example(self):
        s = sp(Z2, "N", "0")
        u = monomial(s, vec(1, 1), (1, 0))
        v = monomial(s, vec(2, 3), (0, 0))
        w = bracket(u, v)
        assert w.terms == {
            (vec(3, 4), (1, 0)): F(2),
            (vec(3, 4), (0, 0)): F(2),
        }

    def test_identity_element_formula(self):
        # [1, x^{b,j}] = b1 x^{b,j} + j1 x^{b,j-1_[1]}
        s = sp(Z2, "N", "N")
        v = monomial(s, vec(2, 3), (1, 1))
        w = bracket(one(s), v)
        assert w.terms == {
            (vec(2, 3), (1, 1)): F(2),
            (vec(2, 3), (0, 1)): F(1),
        }

    def test_raw_vs_reduced_on_sigma1(self):
        s = sp(Z2, "0", "0")
        u = monomial(s, vec(1, 0), (0, 0))
        v = monomial(s, vec(-1, 1), (0, 0))
        raw = bracket_raw(u, v)
        assert raw.terms == {(SIGMA1, (0, 0)): F(-1)}
        assert bracket(u, v).is_zero()

    def test_bilinear(self):
        s = sp(Z2, "N", "N")
        x = monomial(s, vec(1, 0), (1, 0))
        y = monomial(s, vec(0, 1), (0, 1))
        z = monomial(s, vec(1, 1), (0, 0))
        assert bracket(x + 2 * y, z) == bracket(x, z) + 2 * bracket(y, z)

    def test_invalid_index_emission_dropped(self):
        # j = 0 terms with a -1_[p] shift vanish instead of leaving the window
        s = sp(Z2, "N", "N")
        u = monomial(s, vec(1, 1), (0, 0))
        v = monomial(s, vec(2, 3), (0, 0))
        w = bracket(u, v)
        # only the first expansion line survives: (1*(3-1) - 2*(1-1)) = 2
        assert w.terms == {(vec(3, 4), (0, 0)): F(2)}

    def test_cross_spec_rejected(self):
        a = monomial(sp(Z2, "N", "N"), vec(1, 0), (0, 0))
        b = monomial(sp(G25, "N", "N"), vec(2, 3), (0, 0))
        with pytest.raises(SpecMismatch):
            bracket(a, b)


class TestIntegerKernel:
    """bracket_raw against the independent odot route in A2, on lattices
    with fractional and non-unit bases and non-unit coefficient denominators."""

    LATTICES = (
        [["1", "0"], ["0", "1"]],
        [["1/2", "0"], ["0", "1"]],
        [["2", "3"], ["0", "5"]],
        [["1/3", "1/2"]],
        [["0", "1"]],
    )
    COEFFS = (F(1), F(-1), F(1, 2), F(2, 3), F(-5, 7), F(3))

    @staticmethod
    def specs():
        for gens in TestIntegerKernel.LATTICES:
            lat = lattice_from_strs(gens)
            for j in ("0", "N"):
                for j2 in ("0", "N"):
                    try:
                        yield spec_validate(lat, JSpec(j, j2))
                    except Condition11Violated:
                        pass

    @classmethod
    def sample(cls, rng, spec):
        """1-4 terms over degrees sum k_i b_i with |k_i| <= 2, levels <= 3;
        pre-quotient, so x^{sigma1,0} may occur."""
        idxs = window_indices(spec, 3)
        u = zero(spec)
        for _ in range(rng.randint(1, 4)):
            alpha = vec(0, 0)
            for b in spec.gamma.basis:
                alpha = alpha + b.scale(F(rng.randint(-2, 2)))
            c = cls.COEFFS[rng.randrange(len(cls.COEFFS))]
            u = u + monomial(spec, alpha, idxs[rng.randrange(len(idxs))], c)
        return u

    def test_matches_odot_route(self):
        specs = list(self.specs())
        assert len(specs) == 18 and any(s.simple_part for s in specs)
        rng = Random(20030304)
        for spec in specs:
            for _ in range(25):
                u, v = self.sample(rng, spec), self.sample(rng, spec)
                raw = bracket_raw(u, v)
                assert raw.terms == (odot(u, v) - odot(v, u)).terms
                assert bracket(u, v) == Element(spec, quotient_terms(spec, raw.terms))
                for (alpha, idx), c in raw.terms.items():
                    assert type(alpha) is Vec2 and spec.gamma.contains(alpha)
                    assert all(type(i) is int for i in idx)
                    assert type(c) is Fraction and c != 0

    def test_map_scaled_sums_rows_into_the_given_dict(self):
        # on n = 3 at (B, j) = (4, 4, 2, 0), row one's form B1 + 2 j1 - 1 is 7
        # at key (4, 7, 1, 0); row two's form B2 - 4 is zero and adds nothing
        rows = ((0, 3, -1, 0, 1, 0, 2, 0, -1), (0, 0, 0, 0, 0, 1, 0, 0, -4))
        acc = {(4, 7, 1, 0): 10}
        assert map_scaled(rows, [((4, 4, 2, 0), 3)], acc) is acc
        assert acc == {(4, 7, 1, 0): 10 + 3 * 7}

    def test_zero_sum_stores_no_terms(self):
        rng = Random(5)
        for spec in self.specs():
            u = self.sample(rng, spec)
            assert bracket_raw(u, u).terms == {}

    def test_degree_outside_gamma_rejected(self):
        s = sp(G25, "N", "N")
        with pytest.raises(NotInLattice):
            Element(s, {(vec(1, 0), (0, 0)): F(1)})

    def test_index_outside_j_rejected(self):
        s = sp(G25, "N", "0")
        with pytest.raises(IndexOutsideJ, match=r"index \(0, 1\) invalid for J=\(N,0\)"):
            Element(s, {(vec(2, 3), (0, 1)): F(1)})
        assert Element(s, {(vec(2, 3), (0, 1)): F(0)}).is_zero()


PROPERTY_SPECS = list(TestIntegerKernel.specs())
PROPERTY_COEFFS = st.fractions(min_value=-4, max_value=4, max_denominator=9)
property_settings = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def fraction_terms(draw, spec):
    """A pre-quotient term dict of up to 5 terms: degrees sum k_i b_i with
    |k_i| <= 2, levels <= 3, nonzero coefficients with denominators <= 9."""
    idxs = window_indices(spec, 3)
    out = {}
    for _ in range(draw(st.integers(0, 5))):
        alpha = vec(0, 0)
        for b in spec.gamma.basis:
            alpha = alpha + b.scale(F(draw(st.integers(-2, 2))))
        out[(alpha, draw(st.sampled_from(idxs)))] = draw(PROPERTY_COEFFS.filter(bool))
    return out


@st.composite
def operand_pairs(draw):
    spec = draw(st.sampled_from(PROPERTY_SPECS))
    return spec, draw(fraction_terms(spec)), draw(fraction_terms(spec))


def fraction_sum(a, b, sign=1):
    """a + sign * b on Fraction term dicts: b's new keys append, and a key
    whose sum is zero is dropped (the term order Element arithmetic keeps)."""
    out = dict(a)
    for k, c in b.items():
        c = out.get(k, 0) + sign * c
        if c:
            out[k] = c
        else:
            del out[k]
    return out


class TestStoredForm:
    """Elements store scaled integers over one denominator; these properties
    compare every operation with the same operation on decoded Fractions."""

    @property_settings
    @given(operand_pairs())
    def test_bracket_matches_odot_route(self, case):
        spec, tu, tv = case
        u, v = Element(spec, tu), Element(spec, tv)
        expected = fraction_sum(odot(u, v).terms, odot(v, u).terms, -1)
        assert bracket_raw(u, v).terms == expected
        assert bracket(u, v) == reduce(spec, expected)

    @property_settings
    @given(operand_pairs(), PROPERTY_COEFFS)
    def test_linear_operations_match_fractions(self, case, r):
        spec, tu, tv = case
        u, v = Element(spec, tu), Element(spec, tv)
        assert list((u + v).terms.items()) == list(fraction_sum(tu, tv).items())
        assert list((u - v).terms.items()) == list(fraction_sum(tu, tv, -1).items())
        assert list((-u).terms.items()) == [(k, -c) for k, c in tu.items()]
        scaled = {k: r * c for k, c in tu.items()} if r else {}
        assert list((r * u).terms.items()) == list(scaled.items())
        assert u * r == r * u
        for w in (u + v, u - v, -u, r * u):
            assert all(type(c) is Fraction and c for c in w.terms.values())

    @property_settings
    @given(operand_pairs(), PROPERTY_COEFFS.filter(bool))
    def test_equal_elements_compare_and_hash_equal(self, case, r):
        spec, tu, tv = case
        u, v = Element(spec, tu), Element(spec, tv)
        built = [
            bracket(u, v),
            bracket_raw(u, v),
            u + v,
            (u + v) - v,
            (1 / r) * (r * u),
        ]
        decoded = [
            reduce(spec, fraction_sum(odot(u, v).terms, odot(v, u).terms, -1)),
            Element(spec, fraction_sum(odot(u, v).terms, odot(v, u).terms, -1)),
            Element(spec, fraction_sum(tu, tv)),
            u,
            u,
        ]
        for w, x in zip(built, decoded):
            assert w == x and hash(w) == hash(x)
            again = Element(spec, dict(w.terms))
            assert again == w and hash(again) == hash(w)
        assert (u - u).is_zero() and u - u == zero(spec)
        assert hash(u - u) == hash(zero(spec))


def test_import_under_warnings_as_errors(tmp_path):
    """No module of the package warns at compile time (e.g. invalid escapes)."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONPYCACHEPREFIX=str(tmp_path))
    code = (
        "import warnings; warnings.simplefilter('error'); "
        "import blockalg, blockalg.cli"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


class TestOrderAndWindows:
    def test_index_key_order(self):
        s = sp(Z2, "N", "N")
        assert window_indices(s, 2) == [
            (0, 0),
            (0, 1),
            (1, 0),
            (0, 2),
            (1, 1),
            (2, 0),
        ]
        assert index_key((0, 1)) < index_key((1, 0))
        assert index_key((2, 0)) > index_key((1, 1))
        assert index_key((2, 1)) == (3, 2)

    def test_window_respects_j(self):
        assert window_indices(sp(Z2, "N", "0"), 2) == [(0, 0), (1, 0), (2, 0)]
        assert window_indices(sp(Z2, "0", "0"), 3) == [(0, 0)]

    def test_enumerate_window_drops_quotiented_symbol(self):
        s = sp(Z2, "N", "N")
        w = enumerate_window(s, 1, 0)
        # 9 degree choices minus the quotiented x^{sigma1,0}
        assert len(w) == 8
        assert (SIGMA1, (0, 0)) not in w

    def test_enumerate_window_simple_part(self):
        s = sp(Z2, "0", "0")
        w = enumerate_window(s, 2, 0)
        degs = {b for b, _ in w}
        assert SIGMA1 not in degs and SIGMA2 not in degs
        assert len(w) == 25 - 2

    def test_enumerate_window_deterministic(self):
        s = sp(G25, "N", "N")
        assert enumerate_window(s, 2, 3) == enumerate_window(s, 2, 3)

    def test_leading_term_and_grade(self):
        s = sp(Z2, "N", "N")
        u = (
            monomial(s, vec(1, 0), (0, 2))
            + 2 * monomial(s, vec(1, 0), (1, 1))
            + monomial(s, vec(0, 1), (5, 5))
        )
        key, c = leading_term(u, vec(1, 0))
        assert key == (vec(1, 0), (1, 1)) and c == 2
        assert leading_term(u, vec(3, 3)) is None
        g = grade_component(u, vec(1, 0))
        assert set(g.terms) == {(vec(1, 0), (0, 2)), (vec(1, 0), (1, 1))}


def span_rows(*us):
    """Elements as Span rows: one column id per stored key, integer numerators."""
    ids = {}
    return [{ids.setdefault(k, len(ids)): n for k, n in u._ints.items()} for u in us]


SPAN_IDS = 12
BIG = 2305843009213693951  # 2**61 - 1, so entries far past a machine word
# small entries and zeros, and large entries
SPAN_VALUES = st.one_of(
    st.integers(-3, 3), st.sampled_from([BIG, -BIG, 2 * BIG, BIG + 1, 3 * BIG - 2])
)
SPAN_VECTORS = st.dictionaries(st.integers(0, SPAN_IDS - 1), SPAN_VALUES, max_size=5)


@st.composite
def span_cases(draw):
    """Vectors to add, with repeats and multiples of earlier ones, and
    vectors to test for membership."""
    vectors = draw(st.lists(SPAN_VECTORS, max_size=14))
    for i in draw(st.lists(st.integers(0, max(len(vectors) - 1, 0)), max_size=4)):
        if vectors:
            m = draw(st.sampled_from([1, -2, BIG + 1]))
            at = draw(st.integers(i, len(vectors)))
            vectors.insert(at, {k: m * c for k, c in vectors[i].items()})
    return vectors, draw(st.lists(SPAN_VECTORS, min_size=1, max_size=6))


def dense_rank(vectors):
    """Rank over Q of sparse vectors on ids below SPAN_IDS, by plain
    Gaussian elimination on dense lists of Fractions."""
    rows = [[F(v.get(k, 0)) for k in range(SPAN_IDS)] for v in vectors]
    rank = 0
    for col in range(SPAN_IDS):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        for row in rows[rank + 1 :]:
            f = row[col] / top[col]
            if f:
                for k in range(col, SPAN_IDS):
                    row[k] -= f * top[k]
        rank += 1
    return rank


def assert_reduced(span):
    """No row holds an entry at a pivot id or a zero entry, cols is exactly
    the transpose of rows, and every value is in the integer form: each row
    with its pivot value is primitive with a positive pivot value."""
    transpose = {}
    assert span.piv.keys() == span.rows.keys()
    for piv, row in span.rows.items():
        for k, x in row.items():
            assert x and k not in span.rows
            transpose.setdefault(k, set()).add(piv)
        c = span.piv[piv]
        assert type(c) is int and all(type(x) is int for x in row.values())
        assert c > 0 and gcd(c, *row.values()) == 1
    assert span.cols == transpose


def spans(span, w):
    """Whether w lies in the span, by adding it to a copy."""
    return not copy.deepcopy(span).add(w)


class TestSpan:
    """Row spans over Q, against a dense Fraction oracle."""

    def test_dim_growth_and_membership(self):
        s = sp(Z2, "N", "N")
        x = monomial(s, vec(1, 0), (0, 0))
        y = monomial(s, vec(0, 1), (0, 0))
        rx, r2x, rxy, ry, r7xy, rz = span_rows(
            x, 2 * x, x + y, y, F(7) * x - y, monomial(s, vec(1, 1), (0, 0))
        )
        span = Span()
        assert span.add(rx) and span.dim == 1
        assert not span.add(r2x) and span.dim == 1
        assert span.add(rxy) and span.dim == 2
        assert spans(span, ry)
        assert spans(span, r7xy)
        assert not spans(span, rz)

    def test_large_entry_stays_independent(self):
        # {0: BIG, 1: 1} is independent of {1: 1}, however large BIG is
        span = Span()
        assert span.add({0: BIG, 1: 1})
        assert not span.spans_unit(1)
        assert not spans(span, {1: 1})
        assert span.add({1: 1})

    def test_zero_never_grows(self):
        s = sp(Z2, "N", "N")
        (r0,) = span_rows(zero(s))
        span = Span()
        assert not span.add(r0)
        assert span.dim == 0
        assert spans(span, r0)

    def test_back_substitution_scales_a_row(self):
        # pivot values 2 and 3, neither dividing the other: eliminating id 1
        # from 2e2 + e1 + e0 with 3e1 + e0 gives 3(2e2 + e1 + e0) - (3e1 + e0)
        # = 6e2 + 2e0, made primitive as 3e2 + e0
        span = Span()
        assert span.add({2: 2, 1: 1, 0: 1})
        assert span.piv == {2: 2}
        assert span.add({1: 3, 0: 1})
        assert span.piv == {2: 3, 1: 3}
        assert span.rows == {2: {0: 1}, 1: {0: 1}}
        assert_reduced(span)
        assert spans(span, {2: 3, 0: 1}) and not spans(span, {2: 1})
        assert not span.spans_unit(2)
        assert span.add({0: 1})
        assert span.rows == {2: {}, 1: {}, 0: {}} and span.piv == {2: 1, 1: 1, 0: 1}
        assert all(span.spans_unit(i) for i in range(3))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(span_cases())
    def test_matches_dense_rank(self, case):
        vectors, probes = case
        span = Span()
        added, rank = [], 0
        for v in vectors:
            added.append(v)
            grown = dense_rank(added)
            assert span.add(v) is (grown > rank)
            rank = grown
            assert span.dim == rank
            assert_reduced(span)
        for w in probes:
            assert spans(span, w) is (dense_rank(added + [w]) == span.dim)
        for i in range(SPAN_IDS):
            assert span.spans_unit(i) is (dense_rank(added + [{i: 1}]) == span.dim)

    def test_span_takes_raw_sums(self):
        # explicit zeros, also at pivot ids, give the same result and the
        # same echelon as the zero-free vector, and so does its negation
        v = {0: 0, 1: -1, 2: BIG, 3: 2 * BIG + 5, 4: 0, 5: -3}
        image = {k: x for k, x in v.items() if x}
        negated = {k: -x for k, x in image.items()}
        priors = ([], [{3: 1}], [{4: 2, 1: 1}, {2: 1}], [{0: 3, 5: 1}, {1: 1}, {3: 1}])
        for prior in priors:
            results = []
            for w in (v, image, negated):
                span = Span()
                for u in prior:
                    span.add(u)
                results.append((span.add(w), span.rows, span.piv, span.cols))
                assert_reduced(span)
            assert results[0] == results[1] == results[2]
