"""Induced maps, the isomorphism decision, and structure-space keys."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockalg.core import (
    JSpec,
    _valid_index,
    bracket,
    enumerate_window,
    monomial,
    reduce,
    spec_validate,
)
from blockalg.isomorphism import (
    Found,
    IsoParams,
    J_MISMATCH,
    LATTICE_INVARIANT_MISMATCH,
    NotIsomorphic,
    PI1_ZERO_RIGIDITY,
    PhiCheckFailed,
    WittDegenerate,
    decide_iso,
    moduli_key,
    phi_apply,
    phi_check,
    phi_inverse_apply,
    psi_apply,
    psi_check,
    verdict_as_dict,
)
from blockalg.lattice import (
    canonical_form,
    lattice_from_strs,
    map_lattice,
    vec,
)
from conftest import quotient_terms

F = Fraction

Z2 = lattice_from_strs([["1", "0"], ["0", "1"]])
L_A = lattice_from_strs([["1", "0"], ["0", "5"]])
L_B = lattice_from_strs([["3", "1"], ["0", "5"]])
L_C = lattice_from_strs([["1", "0"], ["0", "7"]])


def sp(lat, j1, j2):
    return spec_validate(lat, JSpec(j1, j2))


class TestPhi:
    def test_apply_and_inverse(self):
        p = IsoParams(F(3), F(1))
        v = vec("1/2", -4)
        assert phi_apply(p, v) == vec("3/2", F(-4) + F(1, 2))
        assert phi_inverse_apply(p, phi_apply(p, v)) == v

    def test_zero_scale_rejected(self):
        with pytest.raises(Exception):
            IsoParams(F(0), F(1))

    def test_phi_check_accepts_witness(self):
        assert phi_check(IsoParams(F(3), F(1)), sp(L_A, "N", "N"), sp(L_B, "N", "N"))

    def test_phi_check_rejects_wrong_target(self):
        assert not phi_check(
            IsoParams(F(3), F(1)), sp(L_A, "N", "N"), sp(L_C, "N", "N")
        )

    def test_phi_check_rejects_j_mismatch(self):
        assert not phi_check(
            IsoParams(F(1), F(0)), sp(Z2, "N", "N"), sp(Z2, "0", "0")
        )

    def test_phi_check_shear_forbidden_for_nat_zero(self):
        a, b = sp(Z2, "N", "0"), sp(Z2, "N", "0")
        assert phi_check(IsoParams(F(1), F(0)), a, b)
        assert not phi_check(IsoParams(F(1), F(1)), a, b)


class TestPsi:
    def test_hand_value(self):
        a, b = sp(L_A, "N", "N"), sp(L_B, "N", "N")
        u = monomial(a, vec(1, 0), (1, 0))
        w = psi_apply(IsoParams(F(3), F(1)), a, b, u)
        assert w.terms == {
            (vec(3, 1), (1, 0)): F(1),
            (vec(3, 1), (0, 1)): F(1, 3),
        }

    def test_binomial_expansion(self):
        a, b = sp(L_A, "N", "N"), sp(L_B, "N", "N")
        p = IsoParams(F(3), F(1))
        u = monomial(a, vec(1, 0), (2, 0))
        w = psi_apply(p, a, b, u)
        img = vec(3, 1)
        expected = {
            (img, (k, 2 - k)): comb(2, k) * F(3) ** (k - 1) * F(1) ** (2 - k)
            for k in range(3)
        }
        assert w.terms == expected

    def test_preserves_bracket_on_window(self):
        a, b = sp(L_A, "N", "N"), sp(L_B, "N", "N")
        p = IsoParams(F(3), F(1))
        window = enumerate_window(a, 1, 2)
        pairs = []
        for i in range(0, len(window) - 1, 5):
            pairs.append(
                (monomial(a, *window[i]), monomial(a, *window[i + 1]))
            )
        rep = psi_check(p, a, b, pairs, window=window)
        assert rep.ok and rep.triangular_ok is True
        assert rep.pairs_checked == len(pairs)

    def test_corrupted_map_breaks_homomorphism(self):
        # dropping the 1/a normalization breaks psi[u,v] = [psi u, psi v]
        a, b = sp(L_A, "N", "N"), sp(L_B, "N", "N")
        p = IsoParams(F(3), F(0))
        b3 = sp(map_lattice(F(3), F(0), L_A), "N", "N")

        def bad(u):
            return F(3) * psi_apply(p, a, b3, u)

        u = monomial(a, vec(1, 0), (0, 0))
        v = monomial(a, vec(1, 5), (0, 0))
        lhs = bad(bracket(u, v))
        rhs = bracket(bad(u), bad(v))
        assert bracket(u, v) and lhs != rhs

    def test_wrong_params_raise(self):
        a, b = sp(L_A, "N", "N"), sp(L_C, "N", "N")
        with pytest.raises(PhiCheckFailed):
            psi_apply(IsoParams(F(3), F(1)), a, b, monomial(a, vec(1, 0), (0, 0)))

    def test_grading_preserved(self):
        a, b = sp(L_A, "N", "N"), sp(L_B, "N", "N")
        p = IsoParams(F(3), F(1))
        u = monomial(a, vec(2, 5), (1, 1))
        w = psi_apply(p, a, b, u)
        assert {alpha for alpha, _ in w.terms} == {phi_apply(p, vec(2, 5))}


def psi_by_formula(params, spec_a, spec_b, u):
    """The module docstring's psi in Fractions, term by term:
    x^{b,j} -> a^{-1} sum_k C(j1, k) a^k b^{j1-k} x'^{phi(b), (k, j1-k+j2)},
    invalid indices dropped, then the quotient of the target."""
    a, b = params.a, params.b
    out = {}
    for (be, (j1, j2)), c in u.terms.items():
        image = phi_apply(params, be)
        for k in range(j1 + 1):
            idx = (k, j1 - k + j2)
            coeff = c / a * comb(j1, k) * a**k * b ** (j1 - k)
            if not coeff or not _valid_index(spec_b, idx):
                continue
            total = out.get((image, idx), 0) + coeff
            if total:
                out[(image, idx)] = total
            else:
                del out[(image, idx)]
    return quotient_terms(spec_b, out)


PSI_LATTICES = (
    L_A,
    Z2,
    lattice_from_strs([["1/2", "0"], ["0", "1"]]),
    lattice_from_strs([["2", "3"], ["0", "5"]]),
    lattice_from_strs([["1", "0"]]),
    lattice_from_strs([["1/2", "1/3"], ["0", "2"]]),
)
PSI_SPECS = [
    s
    for lat in PSI_LATTICES
    for j in (("0", "0"), ("N", "0"), ("0", "N"), ("N", "N"))
    for s in [spec_validate(lat, JSpec(*j))]
]
PSI_A = (F(1), F(-1), F(2), F(-3, 2), F(2, 3), F(1, 2))
PSI_B = (F(0), F(1), F(-5, 3), F(1, 2))
PSI_COEFFS = (F(1), F(-1), F(2), F(-1, 2), F(3, 2), F(-7, 3))


def psi_elements(spec):
    """1-4 terms of degree k1 b1 + k2 b2, |k_i| <= 3, levels j1 <= 4, j2 <= 3."""
    rank = spec.gamma.rank
    term = st.tuples(
        st.lists(st.integers(-3, 3), min_size=rank, max_size=rank),
        st.integers(0, 4 if spec.j.nat(1) else 0),
        st.integers(0, 3 if spec.j.nat(2) else 0),
        st.sampled_from(PSI_COEFFS),
    )

    def build(terms):
        raw = {}
        for ks, j1, j2, c in terms:
            deg = vec(0, 0)
            for k, bv in zip(ks, spec.gamma.basis):
                deg = deg + bv.scale(F(k))
            raw[(deg, (j1, j2))] = c
        return reduce(spec, raw)

    return st.lists(term, min_size=1, max_size=4).map(build)


class TestPsiAgainstFormula:
    """psi_apply against the closed formula evaluated in Fractions."""

    @pytest.mark.parametrize("spec_a", PSI_SPECS, ids=lambda s: f"{s.gamma}{s.j}")
    @settings(derandomize=True, database=None, max_examples=8, deadline=None)
    @given(data=st.data())
    def test_images_equal_the_formula(self, spec_a, data):
        shears = (F(0),) if spec_a.j.j1 == "N" and spec_a.j.j2 == "0" else PSI_B
        for a in PSI_A:
            for b in shears:
                p = IsoParams(a, b)
                spec_b = spec_validate(map_lattice(a, b, spec_a.gamma), spec_a.j)
                u = data.draw(psi_elements(spec_a))
                w = psi_apply(p, spec_a, spec_b, u)
                expected = psi_by_formula(p, spec_a, spec_b, u)
                assert w == reduce(spec_b, expected)
                assert list(w.terms.items()) == list(expected.items())

    def test_a_bad_witness_raises_on_every_call(self):
        a, b = sp(L_A, "N", "N"), sp(L_C, "N", "N")
        u = monomial(a, vec(1, 0), (0, 0))
        for _ in range(2):
            with pytest.raises(PhiCheckFailed):
                psi_apply(IsoParams(F(3), F(1)), a, b, u)

    def test_result_carries_the_callers_target_spec(self):
        p = IsoParams(F(3), F(1))
        first = (sp(L_A, "N", "N"), sp(L_B, "N", "N"))
        second = (
            sp(lattice_from_strs([["1", "0"], ["0", "5"]]), "N", "N"),
            sp(lattice_from_strs([["3", "1"], ["0", "5"]]), "N", "N"),
        )
        assert first == second and first[1] is not second[1]
        for spec_a, spec_b in (first, second):
            w = psi_apply(p, spec_a, spec_b, monomial(spec_a, vec(1, 0), (2, 1)))
            assert w.spec is spec_b


class TestDecide:
    def test_found_with_witness(self):
        v = decide_iso(sp(L_A, "N", "N"), sp(L_B, "N", "N"))
        assert isinstance(v, Found)
        assert (v.params.a, v.params.b) == (F(3), F(1))

    def test_h_mismatch(self):
        v = decide_iso(sp(L_A, "N", "N"), sp(L_C, "N", "N"))
        assert v == NotIsomorphic(LATTICE_INVARIANT_MISMATCH)

    def test_j_mismatch(self):
        v = decide_iso(sp(L_A, "N", "N"), sp(L_A, "N", "0"))
        assert v == NotIsomorphic(J_MISMATCH)

    def test_pi1_zero_rigidity(self):
        y1 = lattice_from_strs([["0", "1"]])
        y2 = lattice_from_strs([["0", "2"]])
        v = decide_iso(sp(y1, "N", "N"), sp(y2, "N", "N"))
        assert v == NotIsomorphic(PI1_ZERO_RIGIDITY)
        same = decide_iso(sp(y1, "N", "N"), sp(y1, "N", "N"))
        assert isinstance(same, Found)
        assert (same.params.a, same.params.b) == (F(1), F(0))

    def test_nat_zero_needs_sign_search(self):
        g25 = lattice_from_strs([["2", "3"], ["0", "5"]])
        target = map_lattice(F(-2), F(0), g25)
        v = decide_iso(sp(g25, "N", "0"), sp(target, "N", "0"))
        assert isinstance(v, Found)
        assert v.params.b == 0
        assert map_lattice(v.params.a, F(0), g25) == target

    def test_nat_zero_shear_image_rejected(self):
        # a G1 move that is not a G2 move changes the (N,0) class
        g25 = lattice_from_strs([["2", "3"], ["0", "5"]])
        target = map_lattice(F(1), F(1), g25)
        v = decide_iso(sp(g25, "N", "0"), sp(target, "N", "0"))
        assert v == NotIsomorphic(LATTICE_INVARIANT_MISMATCH)

    def test_round_trip_random(self):
        from random import Random

        rng = Random(99)
        pool = [F(1), F(-1), F(2), F(1, 2), F(-3), F(5, 2)]
        shears = [F(0), F(1), F(-2), F(1, 2)]
        for lat in (Z2, L_A, lattice_from_strs([["2", "3"], ["0", "5"]])):
            for j in (("N", "N"), ("0", "N"), ("0", "0")):
                a_spec = sp(lat, *j)
                for _ in range(10):
                    aa, bb = rng.choice(pool), rng.choice(shears)
                    b_spec = sp(map_lattice(aa, bb, lat), *j)
                    v = decide_iso(a_spec, b_spec)
                    assert isinstance(v, Found), (lat, j, aa, bb)
                    assert phi_check(v.params, a_spec, b_spec)


class TestModuliKey:
    def test_j_type_index(self):
        assert moduli_key(sp(Z2, "0", "0"))[0] == 1
        assert moduli_key(sp(Z2, "N", "0"))[0] == 2
        assert moduli_key(sp(Z2, "0", "N"))[0] == 3
        assert moduli_key(sp(Z2, "N", "N"))[0] == 4

    def test_group_choice(self):
        g25 = lattice_from_strs([["2", "3"], ["0", "5"]])
        i, desc = moduli_key(sp(g25, "N", "0"))
        assert (i, str(desc)) == (2, "(R2, h=5, s*=2)")
        i, desc = moduli_key(sp(g25, "N", "N"))
        assert (i, str(desc)) == (4, "(R2, h=5)")

    def test_key_matches_decide(self):
        specs = [
            sp(L_A, "N", "N"),
            sp(L_B, "N", "N"),
            sp(L_C, "N", "N"),
            sp(L_A, "0", "N"),
        ]
        for a in specs:
            for b in specs:
                same_key = moduli_key(a) == moduli_key(b)
                assert same_key == isinstance(decide_iso(a, b), Found)

    def test_witt_degenerate_refused(self):
        x = lattice_from_strs([["1", "0"]])
        with pytest.raises(WittDegenerate):
            moduli_key(sp(x, "N", "0"))

    def test_decide_refuses_witt_degenerate(self):
        # <(1,0)> and <(2,0)> with J = {0}x{0} were once answered Found(a=2)
        x1 = lattice_from_strs([["1", "0"]])
        x2 = lattice_from_strs([["2", "0"]])
        for j in (("0", "0"), ("N", "0")):
            a, b = sp(x1, *j), sp(x2, *j)
            for pair in ((a, b), (b, a), (a, a), (a, sp(Z2, *j))):
                with pytest.raises(WittDegenerate):
                    decide_iso(*pair)

    def test_decide_and_key_share_their_domain(self):
        """decide_iso refuses a pair exactly when moduli_key refuses one of
        its specs; on accepted pairs, Found iff the keys are equal."""
        from blockalg.harness import default_configs
        from conftest import construction_only_configs

        specs = default_configs() + construction_only_configs()
        for gens in ([["1", "0"]], [["2", "0"]]):
            lat = lattice_from_strs(gens)
            specs += [sp(lat, "0", "0"), sp(lat, "N", "0")]
        assert any(s.witt_degenerate for s in specs)

        def key(s):
            try:
                return moduli_key(s)
            except WittDegenerate:
                return None

        for a in specs:
            for b in specs:
                if key(a) is None or key(b) is None:
                    with pytest.raises(WittDegenerate):
                        decide_iso(a, b)
                else:
                    found = isinstance(decide_iso(a, b), Found)
                    assert found == (key(a) == key(b)), (a, b)

    def test_canonical_is_the_key_payload(self):
        g25 = lattice_from_strs([["2", "3"], ["0", "5"]])
        assert moduli_key(sp(g25, "N", "0"))[1] == canonical_form(g25, "G2")


class TestVerdictDict:
    def test_found(self):
        v = decide_iso(sp(L_A, "N", "N"), sp(L_B, "N", "N"))
        assert verdict_as_dict(v) == {"verdict": "found", "a": "3", "b": "1"}

    def test_negative(self):
        v = decide_iso(sp(L_A, "N", "N"), sp(L_C, "N", "N"))
        assert verdict_as_dict(v) == {
            "verdict": "not_isomorphic",
            "reason": "lattice_invariant_mismatch",
        }
