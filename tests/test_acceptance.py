"""Acceptance gate: the nine binding checks, all exact in rational arithmetic.

Each test prints one PASS/FAIL line.  The configuration matrix used by the
batch criteria covers all four J types, lattices with and without the two
distinguished degrees, and the simple part.
"""

import time
from fractions import Fraction
from math import factorial
from pathlib import Path
from random import Random

import blockalg.cli as cli
from blockalg.core import (
    J_NAT_NAT,
    J_NAT_ZERO,
    J_ZERO_NAT,
    J_ZERO_ZERO,
    JSpec,
    bracket,
    bracket_scaled,
    enumerate_window,
    grade_component,
    leading_term,
    map_scaled,
    monomial,
    one,
    reduce,
    spec_validate,
)
from blockalg import derivations as dv
from blockalg import isomorphism as iso
from blockalg.harness import (
    ReachedFullWindow,
    run_suite,
    sample_element,
    sample_nonzero,
    simplicity_probe,
)
from blockalg.lattice import (
    GroupHom,
    canonical_form,
    lattice_from_strs,
    lattice_new,
    map_lattice,
    vec,
)

F = Fraction

Z2 = lattice_from_strs([["1", "0"], ["0", "1"]])
G25 = lattice_from_strs([["2", "3"], ["0", "5"]])
L_A = lattice_from_strs([["1", "0"], ["0", "5"]])

# four J types on Z^2 (sigma1, sigma2 present; simple part included), plus a
# lattice without the distinguished degrees, in both a J={0}^2 and a full-J
# variant: six configurations
CONFIGS = [
    spec_validate(Z2, J_NAT_NAT),
    spec_validate(Z2, J_NAT_ZERO),
    spec_validate(Z2, J_ZERO_NAT),
    spec_validate(Z2, J_ZERO_ZERO),
    spec_validate(G25, J_ZERO_ZERO),
    spec_validate(G25, J_NAT_NAT),
]

SEED = 20260813

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def _verdict(n, desc, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {desc}{tail}")
    assert ok, f"criterion {n} failed: {desc}{tail}"


def test_criterion_1_jacobi_budget():
    t0 = time.perf_counter()
    bad = [
        s.summary()
        for s in CONFIGS
        if not run_suite("jacobi", s, seed=SEED, trials=1000, k_bound=2, level_cap=3).ok
    ]
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 30.0
    _verdict(
        1,
        "Jacobi identity, 1000 seeded triples x 6 configurations under 30 s",
        ok,
        f"{elapsed:.1f} s" + (f"; failing: {bad}" if bad else ""),
    )


def test_criterion_1_jacobi_holds_symbolically_in_the_kernel():
    """Jacobi as a polynomial identity of core.bracket_scaled itself: each
    operand is one term with free scaled degree (A1, A2), free indices
    (i1, i2) and a positive symbolic denominator d.  On symbols every level
    guard of the kernel is true, and each lowered line carries a factor
    i_p or j_p, so the identity also covers the truncated cases."""
    import sympy

    d = sympy.Symbol("d", positive=True)
    u, v, w = ((*sympy.symbols(f"A1{n} A2{n} i1{n} i2{n}"), 1) for n in "uvw")
    total = {}
    for x, y, z in ((u, v, w), (v, w, u), (w, u, v)):
        inner = [(*k, n) for k, n in bracket_scaled(d, [y], [z]).items()]
        for k, n in bracket_scaled(d, [x], inner).items():
            total[k] = total.get(k, 0) + n
    # three lowerings of each index (none, one, two) give nine keys
    assert len(total) == 9
    nonzero = [k for k, n in total.items() if sympy.expand(n) != 0]
    assert not nonzero, f"[u,[v,w]] + cyclic is nonzero at {nonzero}"


def test_criterion_2_bracket_consistency():
    # trials=1000 gives 1000 bracket-vs-odot pairs, >=300 special-case
    # samples, and full-window centrality checks per configuration
    bad = [
        s.summary()
        for s in CONFIGS
        if not run_suite("bracket", s, seed=SEED + 1, trials=1000).ok
    ]
    _verdict(
        2,
        "bracket agrees with the odot route, special-case oracles, "
        "pre-quotient centrality, simple-part closure",
        not bad,
        f"failing: {bad}" if bad else "",
    )


def test_criterion_3_derivation_law():
    # 500 sampled pairs per defined constructor per configuration, plus
    # extension-algebra agreement and the dt1 = ad(1) - d_pi1 identity
    bad = [
        s.summary()
        for s in CONFIGS
        if not run_suite("derivations", s, seed=SEED + 2, trials=500).ok
    ]
    _verdict(
        3,
        "Leibniz law for ad, d1, d1bar, d2, dmu, dt1, dt2 where defined",
        not bad,
        f"failing: {bad}" if bad else "",
    )


def _leibniz_defect(rows, d, zero_levels):
    """D[u,v] - [Du,v] - [u,Dv] per key, at scale d^3, for the map D that
    map_scaled runs on `rows`, on one symbolic term per operand, with the
    level symbols named in zero_levels set to 0 (keys merged after that)."""
    import sympy

    u, v = ((*sympy.symbols(f"A1{n} A2{n} i1{n} i2{n}"), 1) for n in "uv")
    subs = {sympy.Symbol(f"{s}{n}"): 0 for s in zero_levels for n in "uv"}

    def terms(sums):
        return [(*k, n) for k, n in sums.items()]

    def der(ts):
        return terms(map_scaled(rows, [(t[:4], t[4]) for t in ts], {}))

    parts = (
        (1, der(terms(bracket_scaled(d, [u], [v])))),
        (-1, terms(bracket_scaled(d, der([u]), [v]))),
        (-1, terms(bracket_scaled(d, [u], der([v])))),
    )
    total = {}
    for sign, ts in parts:
        for *k, n in ts:
            k = tuple(sympy.sympify(x).subs(subs) for x in k)
            total[k] = total.get(k, 0) + sign * sympy.sympify(n).subs(subs)
    return [k for k, n in total.items() if sympy.expand(n) != 0]


def test_criterion_3_leibniz_holds_symbolically_in_the_kernel():
    """The Leibniz law as a polynomial identity of the rows that
    Derivation compiles (derivations._merged_rows) and of the kernels that
    apply runs (map_scaled, bracket_scaled), with a positive symbolic
    denominator d: for each named map where it is defined, for d_mu with
    symbolic l1, l2, and for their sum with symbolic coefficients, which
    merges rows of one shift.  Adding 1 to c0 of a map's first row breaks
    the law, so the identity sees every row."""
    import sympy

    d = sympy.Symbol("d", positive=True)
    l1, l2, *fs = sympy.symbols("l1 l2 f1:6")
    dmu = ("dmu", (0, 0), (((0, 0), (l1, l2, 0, 0, 0)),))
    # the levels each map's definedness sets to 0 (d1: J2 = {0}, ...)
    zero_levels = {"d1": ("i2",), "d1bar": ("i1",), "d2": ("i1", "i2")}
    maps = [(atom, shift, rows) for atom, _, _, _, shift, rows in dv._NAMED_MAPS]
    for atom, shift, rows in maps + [dmu]:
        levels = zero_levels.get(atom, ())
        assert not _leibniz_defect(dv._merged_rows(d, [(1, shift, rows)]), d, levels), atom
        (e, (*c, c0)), *rest = rows
        mutated = ((e, (*c, c0 + 1)), *rest)
        assert _leibniz_defect(dv._merged_rows(d, [(1, shift, mutated)]), d, levels), atom
    total = [(f, shift, rows) for f, (_, shift, rows) in zip(fs, maps)] + [(1, *dmu[1:])]
    assert not _leibniz_defect(dv._merged_rows(d, total), d, ("i1", "i2"))


def test_criterion_4_induced_map_is_homomorphism():
    rng = Random(SEED + 3)
    pool_a = [F(1), F(-1), F(2), F(-2), F(1, 2), F(3), F(-3, 2), F(2, 3)]
    pool_b = [F(0), F(1), F(-1), F(2), F(1, 2), F(-3)]
    checked = 0
    problems = []
    for j in (J_ZERO_ZERO, J_NAT_ZERO, J_ZERO_NAT, J_NAT_NAT):
        spec_a = spec_validate(L_A, j)
        window = enumerate_window(spec_a, 2, 2)
        shear_allowed = j != J_NAT_ZERO
        for _ in range(20):
            a = rng.choice(pool_a)
            b = rng.choice(pool_b) if shear_allowed else F(0)
            params = iso.IsoParams(a, b)
            spec_b = spec_validate(map_lattice(a, b, L_A), j)
            pairs = [
                (
                    sample_element(rng, spec_a, window),
                    sample_element(rng, spec_a, window),
                )
                for _ in range(300)
            ]
            rep = iso.psi_check(params, spec_a, spec_b, pairs, window=window)
            graded = all(
                {d for d, _ in iso.psi_apply(params, spec_a, spec_b, u).terms}
                <= {iso.phi_apply(params, d) for d, _ in u.terms}
                for u, _ in pairs[:20]
            )
            checked += rep.pairs_checked
            if not (rep.ok and rep.triangular_ok is True and graded):
                problems.append((str(j), str(a), str(b)))
    _verdict(
        4,
        "induced map: homomorphism on 300 pairs x 20 parameters x 4 J types, "
        "grading preserved, index-triangular on the window",
        not problems,
        f"{checked} pairs" + (f"; failing: {problems[:3]}" if problems else ""),
    )


def test_criterion_5_decision_round_trip():
    rng = Random(SEED + 4)
    pool_a = [F(1), F(-1), F(2), F(-2), F(1, 2), F(3), F(2, 3)]
    pool_b = [F(0), F(1), F(-1), F(2), F(1, 2)]
    bases = [Z2, G25, L_A, lattice_from_strs([["1/2", "1/3"], ["0", "2"]])]
    js = [J_ZERO_ZERO, J_NAT_ZERO, J_ZERO_NAT, J_NAT_NAT]
    failures = []
    for n in range(200):
        lat = rng.choice(bases)
        j = rng.choice(js)
        spec_a = spec_validate(lat, j)
        a = rng.choice(pool_a)
        b = rng.choice(pool_b) if j != J_NAT_ZERO else F(0)
        spec_b = spec_validate(map_lattice(a, b, lat), j)
        verdict = iso.decide_iso(spec_a, spec_b)
        if not (
            isinstance(verdict, iso.Found)
            and iso.phi_check(verdict.params, spec_a, spec_b)
        ):
            failures.append(("round_trip", n))
    # invariant-breaking mutations
    for lat in (Z2, G25):
        for j in js:
            spec_a = spec_validate(lat, j)
            for j2 in js:
                if j2 == j:
                    continue
                v = iso.decide_iso(spec_a, spec_validate(lat, j2))
                if v != iso.NotIsomorphic(iso.J_MISMATCH):
                    failures.append(("j_mismatch", str(j), str(j2)))
            b1, b2 = lat.basis
            other = lattice_new([b1, vec(b2.c1, b2.c2 + 1)])
            v = iso.decide_iso(spec_a, spec_validate(other, j))
            if v != iso.NotIsomorphic(iso.LATTICE_INVARIANT_MISMATCH):
                failures.append(("h_mutation", str(lat), str(j)))
    # pi1 = 0 rigidity: unequal y-axis lattices are never isomorphic
    y1 = spec_validate(lattice_from_strs([["0", "1"]]), J_NAT_NAT)
    y2 = spec_validate(lattice_from_strs([["0", "2"]]), J_NAT_NAT)
    if iso.decide_iso(y1, y2) != iso.NotIsomorphic(iso.PI1_ZERO_RIGIDITY):
        failures.append(("pi1_rigidity",))
    if not isinstance(iso.decide_iso(y1, y1), iso.Found):
        failures.append(("pi1_identity",))
    _verdict(
        5,
        "decision procedure: 200 round-trips re-verified, mutations rejected "
        "with the right reason, trivial-projection rigidity",
        not failures,
        f"failing: {failures[:3]}" if failures else "",
    )


def test_criterion_6_canonical_invariance_and_moduli():
    rng = Random(SEED + 5)
    pool = [F(0), F(1), F(-1), F(2), F(-2), F(1, 2), F(3), F(5), F(-1, 3)]
    nonzero = [c for c in pool if c]
    failures = 0
    for _ in range(200):
        gens = [
            vec(rng.choice(pool), rng.choice(pool))
            for _ in range(rng.randint(1, 3))
        ]
        lat = lattice_new(gens)
        for grp in ("G1", "G2"):
            base = canonical_form(lat, grp)
            for _ in range(20):
                a = rng.choice(nonzero)
                b = rng.choice(pool) if grp == "G1" else F(0)
                if canonical_form(map_lattice(a, b, lat), grp) != base:
                    failures += 1
    # moduli key equality must match the decision procedure
    bases = [Z2, G25, L_A, lattice_from_strs([["1", "0"], ["0", "7"]])]
    js = [J_ZERO_ZERO, J_NAT_ZERO, J_ZERO_NAT, J_NAT_NAT]
    mismatches = 0
    for _ in range(200):
        lat_a, j_a = rng.choice(bases), rng.choice(js)
        spec_a = spec_validate(lat_a, j_a)
        if rng.random() < 0.5:
            a = rng.choice(nonzero)
            b = rng.choice(pool) if j_a != J_NAT_ZERO else F(0)
            spec_b = spec_validate(map_lattice(a, b, lat_a), j_a)
        else:
            spec_b = spec_validate(rng.choice(bases), rng.choice(js))
        same_key = iso.moduli_key(spec_a) == iso.moduli_key(spec_b)
        found = isinstance(iso.decide_iso(spec_a, spec_b), iso.Found)
        if same_key != found:
            mismatches += 1
    ok = failures == 0 and mismatches == 0
    _verdict(
        6,
        "canonical form invariant under 20 orbit moves x 200 lattices per "
        "group; key equality = decision verdict on 200 pairs",
        ok,
        f"invariance failures {failures}, key mismatches {mismatches}" if not ok else "",
    )


def test_criterion_7_simplicity_probe():
    rng = Random(SEED + 6)
    fixtures = [
        spec_validate(Z2, J_NAT_NAT),  # full algebra over Z^2
        spec_validate(Z2, J_ZERO_ZERO),  # simple part, J = {0}x{0}
    ]
    missing = []
    for spec in fixtures:
        window = enumerate_window(spec, 2, 2)
        for n in range(10):
            seed_elem = sample_nonzero(rng, spec, window)
            verdict = simplicity_probe(spec, seed_elem, 2, 2, 6)
            if not isinstance(verdict, ReachedFullWindow):
                missing.append((spec.summary(), n))
    _verdict(
        7,
        "ideal-closure probe reaches the full K=2, L=2 window from 10 random "
        "seeds in both distinguished algebras within depth 6",
        not missing,
        f"inconclusive: {missing}" if missing else "",
    )


def test_criterion_8_locality_witnesses():
    spec = spec_validate(Z2, J_NAT_NAT)
    dt2 = dv.make_dt2(spec)
    problems = []
    # one-sided nilpotence: the (i2+1)-th iterate of dt2 kills every window
    # basis element
    for be, jj in enumerate_window(spec, 2, 3):
        x = reduce(spec, monomial(spec, be, jj))
        w = x
        for _ in range(jj[1] + 1):
            w = dv.apply(dt2, w)
        if not w.is_zero():
            problems.append(("dt2_nilpotence", str(be), jj))
    # growth law for the iterated inner derivation: leading coefficient of
    # the k-th iterate is k! * beta1^k; with beta1 = 1 this is the bare k!
    for beta, idx in [(vec(1, 0), (0, 0)), (vec(1, 1), (1, 0)), (vec(1, -2), (0, 1))]:
        d = dv.ad(monomial(spec, beta, idx))
        v = monomial(spec, beta.scale(F(2)), (0, 0))
        w = v
        for k in range(1, 6):
            w = dv.apply(d, w)
            deg = beta.scale(F(k + 2))
            lead = leading_term(w, deg)
            expected_idx = (k * idx[0], k * idx[1])
            if lead is None or lead[0][1] != expected_idx or lead[1] != factorial(k):
                problems.append(("growth", str(beta), k))
                break
            if grade_component(w, deg) != w:
                problems.append(("growth_degree", str(beta), k))
                break
    # the same law with beta1 = 2 scales by beta1^k
    beta = vec(2, 1)
    d = dv.ad(monomial(spec, beta, (0, 0)))
    w = monomial(spec, beta.scale(F(2)), (0, 0))
    for k in range(1, 6):
        w = dv.apply(d, w)
        lead = leading_term(w, beta.scale(F(k + 2)))
        if lead is None or lead[1] != factorial(k) * F(2) ** k:
            problems.append(("growth_beta1", k))
            break
    # d_mu is diagonal: every basis element spans its own invariant line
    mu = GroupHom(spec.gamma, (F(3), F(-2)))
    dmu = dv.make_dmu(spec, mu)
    for be, jj in enumerate_window(spec, 2, 2):
        x = reduce(spec, monomial(spec, be, jj))
        if x.is_zero():
            continue
        probe = dv.local_finiteness_probe(dmu, x, 4)
        if probe != dv.ClosureDim(1):
            problems.append(("dmu_closure", str(be), jj))
    _verdict(
        8,
        "iterated-translation nilpotence on the window, factorial growth law "
        "for inner iterates, diagonal d_mu closure",
        not problems,
        f"failing: {problems[:3]}" if problems else "",
    )


def test_criterion_9_cli_golden_files(capsys):
    cases = [
        (
            ["bracket", "--spec", str(DATA / "z2nn.json"), "x[0,0;0,0]", "x[1,1;2,0]"],
            "bracket_identity.txt",
        ),
        (
            ["bracket", "--spec", str(DATA / "pi10_n0.json"), "x[0,0;1,0]", "x[0,3;0,0]"],
            "bracket_witt_row.txt",
        ),
        (
            ["bracket", "--spec", str(DATA / "z2_00.json"), "x[1,0;0,0]", "x[-1,1;0,0]"],
            "zero_sigma1.txt",
        ),
    ]
    problems = []
    for argv, golden in cases:
        rc = cli.main(argv)
        out = capsys.readouterr().out
        want = (GOLDEN / golden).read_text(encoding="utf-8")
        if rc != 0 or out != want:
            problems.append((golden, rc, out))
    with capsys.disabled():
        _verdict(
            9,
            "spot identities reproduced bit-exactly through the CLI against "
            "golden files",
            not problems,
            f"failing: {problems}" if problems else "",
        )
