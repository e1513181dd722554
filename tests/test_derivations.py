"""Derivation constructors, hand-computed values, law checks, probes."""

import copy
from fractions import Fraction

import pytest
from conftest import construction_only_configs
from hypothesis import given, settings
from hypothesis import strategies as st

from blockalg.core import (
    Condition11Violated,
    JSpec,
    SIGMA1,
    SIGMA2,
    bracket,
    enumerate_window,
    monomial,
    one,
    reduce,
    spec_validate,
    window_indices,
    zero,
)
from blockalg.derivations import (
    ClosureDim,
    Derivation,
    GrowthWitness,
    UndefinedInThisAlgebra,
    ad,
    apply,
    check_derivation_law,
    is_homogeneous,
    local_finiteness_probe,
    make_d1,
    make_d1bar,
    make_d2,
    make_dmu,
    make_dt1,
    make_dt2,
    named,
    nilpotence_degree,
    pi_hom,
    zero_derivation,
)
from blockalg.harness import default_configs
from blockalg.lattice import GroupHom, lattice_from_strs, vec
from blockalg.literals import fmt_derivation, parse_derivation

F = Fraction

Z2 = lattice_from_strs([["1", "0"], ["0", "1"]])


def sp(j1, j2, lat=Z2):
    return spec_validate(lat, JSpec(j1, j2))


class TestDefinedness:
    def test_d1_needs_sigma1_and_j2_zero(self):
        make_d1(sp("N", "0"))
        make_d1(sp("0", "0"))
        with pytest.raises(UndefinedInThisAlgebra):
            make_d1(sp("N", "N"))
        no_sigma1 = lattice_from_strs([["2", "3"], ["0", "5"]])
        with pytest.raises(UndefinedInThisAlgebra):
            make_d1(sp("N", "0", no_sigma1))

    def test_d1bar_needs_sigma1_and_j1_zero(self):
        make_d1bar(sp("0", "N"))
        with pytest.raises(UndefinedInThisAlgebra):
            make_d1bar(sp("N", "0"))

    def test_d2_needs_sigma2_and_both_zero(self):
        make_d2(sp("0", "0"))
        with pytest.raises(UndefinedInThisAlgebra):
            make_d2(sp("0", "N"))
        no_sigma2 = lattice_from_strs([["2", "3"], ["0", "5"]])
        with pytest.raises(UndefinedInThisAlgebra):
            make_d2(sp("0", "0", no_sigma2))

    def test_dt_needs_nat_side(self):
        make_dt1(sp("N", "0"))
        make_dt2(sp("0", "N"))
        with pytest.raises(UndefinedInThisAlgebra):
            make_dt1(sp("0", "N"))
        with pytest.raises(UndefinedInThisAlgebra):
            make_dt2(sp("N", "0"))

    def test_permissive_returns_zero_map(self):
        s = sp("N", "N")
        d = make_d1(s, permissive=True)
        x = monomial(s, vec(1, 1), (1, 0))
        assert apply(d, x).is_zero()

    def test_direct_construction_guard(self):
        s = sp("N", "N")
        with pytest.raises(UndefinedInThisAlgebra):
            Derivation(s, zero(s), f1=F(1))


# atom -> (constructor, Derivation field), stated here independently of the
# derivations module's table
NAMED = {
    "d1": (make_d1, "f1"),
    "d1bar": (make_d1bar, "f2"),
    "d2": (make_d2, "f3"),
    "dt2": (make_dt2, "f4"),
    "dt1": (make_dt1, "f5"),
}


def _refusal(build):
    """The message of the UndefinedInThisAlgebra build() raises, or None."""
    try:
        build()
    except UndefinedInThisAlgebra as e:
        return str(e)
    return None


@pytest.mark.parametrize("atom", NAMED)
def test_named_maps_agree_with_construction_and_literals(atom):
    """named(), make_* with permissive=True, the Derivation guard and the
    literal grammar accept and refuse the same specs, with the same message."""
    make, field = NAMED[atom]
    specs = default_configs() + construction_only_configs()
    refused = 0
    for s in specs:
        direct = _refusal(lambda: Derivation(s, zero(s), **{field: 1}))
        assert _refusal(lambda: named(s, atom)) == direct, s.summary()
        assert _refusal(lambda: make(s)) == direct, s.summary()
        assert (make(s, permissive=True) == zero_derivation(s)) == (direct is not None)
        if direct is not None:
            assert direct.startswith(f"{atom} undefined here: needs ")
            refused += 1
            continue
        assert getattr(named(s, atom), field) == 1
        for text in (atom, f"-3/2*{atom}"):
            assert fmt_derivation(parse_derivation(s, text)) == text
    assert 0 < refused < len(specs)


class TestHandValues:
    """Frozen hand expansions of each named map on one monomial."""

    def test_d1(self):
        s = sp("N", "0")
        x = monomial(s, vec(1, 1), (1, 0))
        w = apply(make_d1(s), x)
        assert w.terms == {
            (vec(1, 2), (1, 0)): F(-1),
            (vec(1, 2), (0, 0)): F(-1),
        }

    def test_d1bar(self):
        s = sp("0", "N")
        x = monomial(s, vec(2, 3), (0, 1))
        w = apply(make_d1bar(s), x)
        assert w.terms == {
            (vec(2, 4), (0, 1)): F(2),
            (vec(2, 4), (0, 0)): F(1),
        }

    def test_d2(self):
        s = sp("0", "0")
        x = monomial(s, vec(1, 1), (0, 0))
        w = apply(make_d2(s), x)
        assert w.terms == {(vec(1, 3), (0, 0)): F(-1)}

    def test_dmu(self):
        s = sp("N", "N")
        mu = GroupHom(s.gamma, (F(5), F(7)))
        x = monomial(s, vec(2, 3), (1, 1))
        assert apply(make_dmu(s, mu), x) == F(31) * x

    def test_dt1(self):
        s = sp("N", "N")
        x = monomial(s, vec(2, 3), (2, 1))
        w = apply(make_dt1(s), x)
        assert w.terms == {(vec(2, 3), (1, 1)): F(2)}

    def test_dt2(self):
        s = sp("N", "N")
        x = monomial(s, vec(1, 0), (0, 3))
        w = apply(make_dt2(s), x)
        assert w.terms == {(vec(1, 0), (0, 2)): F(3)}

    def test_ad(self):
        s = sp("N", "N")
        u = monomial(s, vec(1, 1), (1, 0))
        v = monomial(s, vec(2, 3), (0, 1))
        assert apply(ad(u), v) == bracket(u, v)

    def test_values_respect_quotient(self):
        # dt1 on x^{sigma1,(1,0)} lands on the quotiented symbol: zero in B
        s = sp("N", "N")
        x = monomial(s, SIGMA1, (1, 0))
        assert apply(make_dt1(s), x).is_zero()


def _table_specs():
    for gens in (
        [["1", "0"], ["0", "1"]],
        [["1/2", "0"], ["0", "1"]],
        [["2", "3"], ["0", "5"]],
        [["1/3", "1/2"]],
        [["0", "1"]],
    ):
        lat = lattice_from_strs(gens)
        for j in (("0", "0"), ("N", "0"), ("0", "N"), ("N", "N")):
            try:
                yield spec_validate(lat, JSpec(*j))
            except Condition11Violated:
                pass


COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def elements(draw, spec):
    """An element of B with up to four terms of level at most 3."""
    idxs = window_indices(spec, 3)
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        alpha = vec(0, 0)
        for b in spec.gamma.basis:
            alpha = alpha + b.scale(F(draw(st.integers(-2, 2))))
        terms[(alpha, draw(st.sampled_from(idxs)))] = draw(COEFFS)
    return reduce(spec, terms)


@st.composite
def derivation_cases(draw):
    """(spec, derivation, element): every named map defined on the spec with
    a drawn coefficient, a drawn d_mu and inner part, and an element of B."""
    spec = draw(st.sampled_from(list(_table_specs())))
    element = lambda: draw(elements(spec))  # noqa: E731

    j1n, j2n = spec.j.nat(1), spec.j.nat(2)
    defined = (
        spec.has_sigma1 and not j2n,
        spec.has_sigma1 and not j1n,
        spec.has_sigma2 and not j1n and not j2n,
        j2n,
        j1n,
    )
    fs = [draw(COEFFS) if ok else F(0) for ok in defined]
    mu = None
    if spec.gamma.rank and draw(st.booleans()):
        mu = GroupHom(spec.gamma, tuple(draw(COEFFS) for _ in spec.gamma.basis))
    return spec, Derivation(spec, element(), mu, *fs), element()


def formula_value(d, v):
    """D(v) from the formulas of the derivations module docstring, evaluated
    term by term in Fractions (mu through lattice coordinates)."""
    out = {}

    def emit(alpha, idx, c):
        if c:
            out[(alpha, idx)] = out.get((alpha, idx), 0) + c

    for (b, (j1, j2)), c in v.terms.items():
        if d.mu is not None:
            emit(b, (j1, j2), c * d.mu(b))
        emit(SIGMA1 + b, (j1, j2), -d.f1 * c * b.c1)
        emit(SIGMA1 + b, (j1 - 1, j2), -d.f1 * c * j1)
        emit(SIGMA1 + b, (j1, j2), d.f2 * c * (b.c2 - 1))
        emit(SIGMA1 + b, (j1, j2 - 1), d.f2 * c * j2)
        emit(SIGMA2 + b, (j1, j2), -d.f3 * c * b.c1)
        emit(b, (j1, j2 - 1), d.f4 * c * j2)
        emit(b, (j1 - 1, j2), d.f5 * c * j1)
    return bracket(d.inner, v) + reduce(d.spec, out)


class TestTableAgainstFormulas:
    """apply runs the named maps and d_mu as a table on scaled integer terms;
    it must agree with the formulas on every lattice shape and J."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(derivation_cases())
    def test_apply_matches_formulas(self, case):
        spec, d, v = case
        assert apply(d, v) == formula_value(d, v)

    def test_linear_form_agrees_with_coordinates(self):
        for spec in _table_specs():
            lat = spec.gamma
            if not lat.rank:
                continue
            mu = GroupHom(lat, tuple(F(2 * k + 3, 5) for k in range(lat.rank)))
            l1, l2 = mu.linear_form()
            for k in range(-3, 4):
                for b in lat.basis:
                    v = b.scale(F(k)) + lat.basis[0]
                    assert l1 * v.c1 + l2 * v.c2 == mu(v)


@st.composite
def split_cases(draw):
    """(d, parts, v) on a stock spec: d = ad(u) + d_mu + sum of f_i times
    each named map defined there, with coefficients of mixed denominators,
    parts its summands, and an element v of B."""
    spec = draw(st.sampled_from(default_configs()))
    parts = [ad(draw(elements(spec)))]
    if spec.gamma.rank:
        mu = GroupHom(spec.gamma, tuple(draw(COEFFS) for _ in spec.gamma.basis))
        parts.append(make_dmu(spec, mu))
    for atom in ("d1", "d1bar", "d2", "dt2", "dt1"):
        if not named(spec, atom, permissive=True) == zero_derivation(spec):
            parts.append(draw(COEFFS) * named(spec, atom))
    return sum(parts[1:], parts[0]), parts, draw(elements(spec))


class TestCompiledApply:
    """apply runs each derivation through one kernel, compiled on first use,
    with the rows of all its maps merged over one denominator."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(split_cases())
    def test_apply_is_the_sum_over_the_parts(self, case):
        d, parts, v = case
        total = zero(d.spec)
        for part in parts:
            total = total + apply(part, v)
        assert apply(d, v) == total

    def test_kernel_stays_out_of_eq_hash_and_repr(self):
        s = sp("N", "N")
        mu = GroupHom(s.gamma, (F(1, 2), F(-3)))

        def build():
            return ad(monomial(s, vec(1, 2), (1, 0))) + make_dmu(s, mu) + F(2, 3) * make_dt1(s)

        a, b = build(), build()
        x = monomial(s, vec(2, 1), (1, 1))
        value = apply(a, x)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        c = copy.deepcopy(a)
        assert c == b and hash(c) == hash(b) and repr(c) == repr(b)
        assert apply(c, x) == apply(b, x) == value


class TestDerivationAlgebra:
    def test_linearity_of_the_space(self):
        s = sp("0", "N")
        d = 2 * make_d1bar(s) - make_dt2(s) + ad(monomial(s, vec(1, 0), (0, 0)))
        x = monomial(s, vec(2, 3), (0, 1))
        expected = (
            2 * apply(make_d1bar(s), x)
            - apply(make_dt2(s), x)
            + bracket(monomial(s, vec(1, 0), (0, 0)), x)
        )
        assert apply(d, x) == expected

    def test_mu_combination(self):
        s = sp("N", "N")
        m1 = make_dmu(s, GroupHom(s.gamma, (F(1), F(0))))
        m2 = make_dmu(s, GroupHom(s.gamma, (F(0), F(1))))
        d = 3 * m1 + m2
        x = monomial(s, vec(2, 5), (0, 0))
        assert apply(d, x) == F(11) * x

    def test_zero_derivation(self):
        s = sp("N", "N")
        assert apply(zero_derivation(s), one(s)).is_zero()


class TestLeibnizLaw:
    def pairs(self, s, window):
        out = []
        for i in range(0, len(window) - 1, 7):
            u = reduce(s, monomial(s, *window[i]))
            v = reduce(s, monomial(s, *window[i + 1]))
            out.append((u, v))
        return out

    def test_named_maps_satisfy_law(self):
        cases = [
            (sp("N", "0"), make_d1),
            (sp("0", "N"), make_d1bar),
            (sp("0", "0"), make_d2),
            (sp("N", "N"), make_dt1),
            (sp("N", "N"), make_dt2),
        ]
        for s, mk in cases:
            window = enumerate_window(s, 2, 2)
            rep = check_derivation_law(mk(s), self.pairs(s, window))
            assert rep.ok and rep.checked >= 3, mk.__name__

    def test_dmu_and_ad_satisfy_law(self):
        s = sp("N", "N")
        window = enumerate_window(s, 2, 2)
        mu = GroupHom(s.gamma, (F(2), F(-3)))
        assert check_derivation_law(make_dmu(s, mu), self.pairs(s, window)).ok
        assert check_derivation_law(
            ad(monomial(s, vec(1, 1), (1, 0))), self.pairs(s, window)
        ).ok

    def test_identity_map_fails_law(self):
        # D = id gives D[u,v] = [u,v] but [Du,v] + [u,Dv] = 2[u,v]
        s = sp("N", "N")
        window = enumerate_window(s, 2, 2)
        rep = check_derivation_law(lambda w: w, self.pairs(s, window))
        assert not rep.ok
        assert rep.failures


class TestHomogeneity:
    def test_named_degrees(self):
        s = sp("0", "0")
        window = enumerate_window(s, 2, 0)
        assert is_homogeneous(make_d1(s), SIGMA1, window)
        assert is_homogeneous(make_d1bar(s), SIGMA1, window)
        assert is_homogeneous(make_d2(s), SIGMA2, window)
        assert not is_homogeneous(make_d2(s), SIGMA1, window)

    def test_degree_zero_maps(self):
        s = sp("N", "N")
        window = enumerate_window(s, 2, 2)
        z = vec(0, 0)
        assert is_homogeneous(make_dt1(s), z, window)
        assert is_homogeneous(make_dt2(s), z, window)
        assert is_homogeneous(make_dmu(s, pi_hom(s, 2)), z, window)

    def test_ad_degree(self):
        s = sp("N", "N")
        window = enumerate_window(s, 1, 1)
        assert is_homogeneous(ad(monomial(s, vec(1, 1), (0, 1))), vec(1, 1), window)


class TestNilpotenceAndLocality:
    def test_dt2_kills_after_index_plus_one(self):
        s = sp("N", "N")
        d = make_dt2(s)
        assert nilpotence_degree(d, monomial(s, vec(1, 1), (0, 2)), 10) == 3
        assert nilpotence_degree(d, monomial(s, vec(1, 1), (3, 0)), 10) == 1

    def test_quotient_shortens_sigma1_chain(self):
        # dt2 chain from x^{sigma1,(0,j)} ends at the quotiented symbol
        s = sp("N", "N")
        d = make_dt2(s)
        assert nilpotence_degree(d, monomial(s, SIGMA1, (0, 2)), 10) == 2
        assert nilpotence_degree(d, monomial(s, SIGMA1, (1, 2)), 10) == 3

    def test_cap_exceeded_returns_none(self):
        s = sp("N", "N")
        d = ad(monomial(s, vec(1, 0), (0, 0)))
        assert nilpotence_degree(d, monomial(s, vec(2, 0), (0, 0)), 4) is None

    def test_dmu_closure_dim_one(self):
        s = sp("N", "N")
        d = make_dmu(s, GroupHom(s.gamma, (F(1), F(2))))
        v = monomial(s, vec(3, 1), (1, 1))
        assert local_finiteness_probe(d, v, 8) == ClosureDim(1)

    def test_dmu_closure_two_eigenlines(self):
        s = sp("N", "N")
        d = make_dmu(s, GroupHom(s.gamma, (F(1), F(0))))
        v = monomial(s, vec(1, 0), (0, 0)) + monomial(s, vec(2, 0), (0, 0))
        out = local_finiteness_probe(d, v, 8)
        assert out == ClosureDim(2)

    def test_inner_growth_witness(self):
        s = sp("N", "N")
        beta = vec(1, 0)
        d = ad(monomial(s, beta, (0, 0)))
        v = monomial(s, beta.scale(F(2)), (0, 0))
        out = local_finiteness_probe(d, v, 5)
        assert isinstance(out, GrowthWitness)
        assert out.steps == 6
        assert [t.dim for t in out.trace] == [1, 2, 3, 4, 5, 6]

    def test_nilpotent_map_closure(self):
        s = sp("N", "N")
        out = local_finiteness_probe(
            make_dt1(s), monomial(s, vec(1, 1), (2, 0)), 8
        )
        assert out == ClosureDim(3)


class TestOuterStructure:
    def test_pi_hom(self):
        s = sp("N", "N", lattice_from_strs([["2", "3"], ["0", "5"]]))
        p1, p2 = pi_hom(s, 1), pi_hom(s, 2)
        assert p1(vec(4, 11)) == 4 and p2(vec(4, 11)) == 11

    def test_dt1_decomposition(self):
        # dt1 agrees with ad(1) - d_{pi1} wherever both sides are defined
        s = sp("N", "N")
        alt = ad(one(s)) - make_dmu(s, pi_hom(s, 1))
        dt1 = make_dt1(s)
        for be, jj in enumerate_window(s, 2, 2):
            x = reduce(s, monomial(s, be, jj))
            assert apply(dt1, x) == apply(alt, x)
