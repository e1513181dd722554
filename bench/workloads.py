"""The benchmark's workloads: inputs, operations and output checks.

build(name, seed) is the set-up: it builds the specs (lattice_new,
spec_validate), calls enumerate_window, and parses the generated literals
with parse_element.  It returns the operations of one round.  Each Op has a
`run` that calls only into blockalg and a `check` that judges run's result
with the benchmark's own means, outside any timed section.

Every call into the program goes through a module attribute (core.bracket,
dv.apply, ...) at call time, so the traced run can wrap those names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import Callable

from blockalg import core, harness, lattice, literals
from blockalg import derivations as dv
from blockalg import isomorphism as iso

import gen
import reference as ref
from gen import N0, NN, ZZ

SAMPLE_EVERY = 8  # every 8th bracket-law operation is also checked against the reference bracket


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Workload:
    ops: list[Op]
    # judged after set-up has been timed; each returns True when set-up output is right
    setup_checks: list[Callable[[], bool]] = field(default_factory=list)


def _spec(generators, j) -> core.AlgebraSpec:
    lat = lattice.lattice_new([lattice.Vec2(x, y) for x, y in generators])
    return core.spec_validate(lat, core.JSpec(*j))


def _terms(u: core.Element) -> dict:
    return {(a.c1, a.c2, i[0], i[1]): c for (a, i), c in u.terms.items()}


def _window(w: Workload, spec, basis, j, k_bound: int, level_cap: int) -> list:
    """The benchmark's window, with a set-up check that the program's agrees."""
    mine = gen.window(basis, j, k_bound, level_cap)
    theirs = core.enumerate_window(spec, k_bound, level_cap)
    w.setup_checks.append(
        lambda: {(a.c1, a.c2) + i for a, i in theirs} == set(mine) and len(theirs) == len(mine)
    )
    return mine


def _parse(spec, terms: dict) -> core.Element:
    return literals.parse_element(spec, gen.literal(terms))


# ------------------------------------------------------------ jacobi_levels

JACOBI_LATTICES = (gen.Z2, gen.G23_5, gen.HALF)
JACOBI_REPEATS = 2  # each mix of term counts twice per lattice: 384 triples a round


def _jacobi_op(u, v, w, sampled: tuple | None) -> Op:
    """sampled: None, or the benchmark's own (u terms, v terms, simple part)
    when this op's brackets are checked against the reference bracket."""

    def run():
        br = core.bracket
        uv, vw, wu = br(u, v), br(v, w), br(w, u)
        uv_w = br(uv, w)
        return uv, uv_w, uv_w + br(vw, u) + br(wu, v)

    def check(res) -> bool:
        uv, uv_w, total = res
        if total.terms:
            return False
        if sampled is None:
            return True
        ref_uv = ref.bracket(*sampled)
        return _terms(uv) == ref_uv and _terms(uv_w) == ref.bracket(ref_uv, _terms(w), sampled[2])

    return Op("jacobi", run, check)


def jacobi_levels(seed: int) -> Workload:
    """Jacobi triples of 1-4-term elements, K = 2, L = 3, J = N x N."""
    rng = Random(seed)
    w = Workload([])
    for basis in JACOBI_LATTICES:
        spec = _spec(basis, NN)
        win = _window(w, spec, basis, NN, 2, 3)
        for n, counts in enumerate(gen.term_counts(3) * JACOBI_REPEATS):
            tu, tv, tw = (gen.sample_terms(rng, win, c) for c in counts)
            sampled = (tu, tv, False) if n % SAMPLE_EVERY == 0 else None
            w.ops.append(_jacobi_op(_parse(spec, tu), _parse(spec, tv), _parse(spec, tw), sampled))
    return w


# ------------------------------------------------------------ closure_probe

PROBE_DEPTH = 6

# (basis, J, K, L, seed element literals).  Probe time varies by three orders
# of magnitude with the seed element, so the list is fixed; these seeds all
# reach the full window.  The run's --seed only sets the order of the probes.
PROBES = (
    (gen.Z2, NN, 2, 2, (
        "2 x[1,0;0,0]",
        "x[-1,1;1,1]",
        "-2 x[-2,0;0,0] - 2 x[0,1;1,0] - 2 x[0,2;1,0]",
    )),
    (gen.Z2, NN, 2, 1, (
        "-1/2 x[0,0;0,0]",
        "x[2,-2;0,0] - 1/2 x[2,1;0,1]",
        "-x[2,2;1,0]",
    )),
    (gen.Z2, N0, 2, 2, (
        "-2 x[-1,-2;1,0] - 1/2 x[-1,-2;0,0]",
        "-x[2,-2;2,0] + 3/2 x[2,-1;0,0]",
        "-2 x[2,-1;2,0] - 3/2 x[2,2;2,0]",
    )),
    (gen.Z2, ZZ, 6, 0, (
        "-2 x[1,-1;0,0]",
        "-x[-4,1;0,0]",
        "-7/2 x[4,1;0,0]",
    )),
)


def _probe_op(spec, seed_elem, k_bound: int, level_cap: int, n_targets: int) -> Op:
    def run():
        return harness.simplicity_probe(spec, seed_elem, k_bound, level_cap, PROBE_DEPTH)

    def check(verdict) -> bool:
        return isinstance(verdict, harness.ReachedFullWindow) and verdict.dim >= n_targets

    return Op("probe", run, check)


def closure_probe(seed: int) -> Workload:
    """Fixed closure probes, several per (spec, window), in seeded order."""
    w = Workload([])
    for basis, j, k_bound, level_cap, seeds in PROBES:
        spec = _spec(basis, j)
        n_targets = len(_window(w, spec, basis, j, k_bound, level_cap))
        for text in seeds:
            elem = literals.parse_element(spec, text)
            w.ops.append(_probe_op(spec, elem, k_bound, level_cap, n_targets))
    Random(seed).shuffle(w.ops)
    return w


# ------------------------------------------------------------ maps_iso

A_POOL = tuple(Fraction(x) for x in ("1", "-1", "2", "-2", "3", "1/2", "-3/2", "2/3"))
B_POOL = tuple(Fraction(x) for x in ("0", "1", "-1", "2", "1/2", "-5/3"))
MAPS_K, MAPS_L = 2, 1
MAPS_REPEATS = 2  # each mix of term counts twice per law

# (basis, J) pairs for the Leibniz checks; each gets every defined named
# derivation, one d_mu and one ad
LEIBNIZ_SPECS = ((gen.Z2, ZZ), (gen.Z2, N0), (gen.G23_5, NN))

# source lattices of the decisions: every J that is neither excluded by
# condition 11 nor Witt-degenerate
DECISION_LATTICES = (gen.Z2, gen.HALF, gen.G23_5, gen.G10_5, gen.Y1, gen.X1)

J_MISMATCH = "j_mismatch"
PI1_ZERO_RIGIDITY = "pi1_zero_rigidity"
LATTICE_INVARIANT_MISMATCH = "lattice_invariant_mismatch"


def _valid_js(basis) -> list[tuple[str, str]]:
    pi1 = any(b[0] for b in basis)
    pi2 = any(b[1] for b in basis)
    return [j for j in gen.ALL_J if (pi1 or j[0] == "N") and (pi2 or j[1] == "N")]


def _named_derivations(spec) -> list[dv.Derivation]:
    makers = (dv.make_d1, dv.make_d1bar, dv.make_d2, dv.make_dt1, dv.make_dt2)
    return [d for d in (m(spec, permissive=True) for m in makers) if d != dv.zero_derivation(spec)]


def _law_check(sampled: tuple | None):
    """Check of a run returning ([u, v], lhs, rhs): both sides agree, and
    [u, v] matches the reference bracket when sampled (as in _jacobi_op)."""

    def check(res) -> bool:
        uv, lhs, rhs = res
        return lhs.terms == rhs.terms and (sampled is None or _terms(uv) == ref.bracket(*sampled))

    return check


def _leibniz_op(d, u, v, sampled: tuple | None) -> Op:
    def run():
        br, ap = core.bracket, dv.apply
        uv = br(u, v)
        return uv, ap(d, uv), br(ap(d, u), v) + br(u, ap(d, v))

    return Op("leibniz", run, _law_check(sampled))


def _dt1_op(dt1, alt, x) -> Op:
    def run():
        return dv.apply(dt1, x), dv.apply(alt, x)

    return Op("dt1_identity", run, lambda res: res[0].terms == res[1].terms)


def _psi_op(params, spec_a, spec_b, u, v, sampled: tuple | None) -> Op:
    def run():
        br, psi = core.bracket, iso.psi_apply
        uv = br(u, v)
        return uv, psi(params, spec_a, spec_b, uv), br(
            psi(params, spec_a, spec_b, u), psi(params, spec_a, spec_b, v)
        )

    return Op("psi", run, _law_check(sampled))


def _decide_op(spec_a, spec_b, gens_a, gens_b, expect: str | None) -> Op:
    """expect None: the pair is isomorphic; else the expected refusal reason."""

    def run():
        return iso.decide_iso(spec_a, spec_b), iso.moduli_key(spec_a), iso.moduli_key(spec_b)

    def check(res) -> bool:
        verdict, key_a, key_b = res
        if expect is not None:
            return (
                isinstance(verdict, iso.NotIsomorphic)
                and verdict.reason == expect
                and key_a != key_b
            )
        if not isinstance(verdict, iso.Found):
            return False
        a, b = verdict.params.a, verdict.params.b
        if spec_a.j == core.J_NAT_ZERO and b:
            return False  # J = N x {0} admits no shear
        return ref.maps_onto(a, b, gens_a, gens_b) and key_a == key_b

    return Op("decide", run, check)


def _phi(a, b, gens) -> tuple:
    return tuple((a * x, y + b * x) for x, y in gens)


def maps_iso(seed: int) -> Workload:
    """Leibniz laws, dt1 = ad(1) - d_pi1, psi homomorphisms and decisions."""
    rng = Random(seed)
    w = Workload([])
    pairs = gen.term_counts(2) * MAPS_REPEATS

    def sampled_pairs(spec, win, simple):
        for n, (cu, cv) in enumerate(pairs):
            tu, tv = gen.sample_terms(rng, win, cu), gen.sample_terms(rng, win, cv)
            sampled = (tu, tv, simple) if n % SAMPLE_EVERY == 0 else None
            yield _parse(spec, tu), _parse(spec, tv), sampled

    for basis, j in LEIBNIZ_SPECS:
        spec = _spec(basis, j)
        simple = gen.simple_part(basis, j)
        win = _window(w, spec, basis, j, MAPS_K, MAPS_L)
        mu = lattice.GroupHom(spec.gamma, tuple(rng.choice(gen.COEFFS) for _ in basis))
        ders = _named_derivations(spec)
        ders.append(dv.make_dmu(spec, mu))
        ders.append(dv.ad(_parse(spec, gen.sample_terms(rng, win, 2))))
        for d in ders:
            for u, v, sampled in sampled_pairs(spec, win, simple):
                w.ops.append(_leibniz_op(d, u, v, sampled))
        if j[0] == "N":
            dt1 = dv.make_dt1(spec)
            pi1 = lattice.GroupHom(spec.gamma, tuple(b[0] for b in basis))
            alt = dv.ad(core.one(spec)) - dv.make_dmu(spec, pi1)
            for counts, _ in pairs:
                x = _parse(spec, gen.sample_terms(rng, win, counts))
                w.ops.append(_dt1_op(dt1, alt, x))

    for j in gen.ALL_J:
        spec_a = _spec(gen.G10_5, j)
        a = rng.choice(A_POOL)
        b = Fraction(0) if j == N0 else rng.choice(B_POOL)
        spec_b = _spec(_phi(a, b, gen.G10_5), j)
        params = iso.IsoParams(a, b)
        win = _window(w, spec_a, gen.G10_5, j, MAPS_K, MAPS_L)
        for u, v, sampled in sampled_pairs(spec_a, win, gen.simple_part(gen.G10_5, j)):
            w.ops.append(_psi_op(params, spec_a, spec_b, u, v, sampled))

    for basis in DECISION_LATTICES:
        js = _valid_js(basis)
        for j in js:
            spec_a = _spec(basis, j)
            for _ in range(2):
                a = rng.choice(A_POOL)
                b = Fraction(0) if j == N0 else rng.choice(B_POOL)
                gens_b = _phi(a, b, basis)
                w.ops.append(_decide_op(spec_a, _spec(gens_b, j), basis, gens_b, None))
            other_j = js[(js.index(j) + 1) % len(js)]
            w.ops.append(_decide_op(spec_a, _spec(basis, other_j), basis, basis, J_MISMATCH))
            if len(basis) == 2:
                (c, s), (_, h) = basis
                gens_b = ((c, s), (Fraction(0), h + 1))
                expect = LATTICE_INVARIANT_MISMATCH
            elif not basis[0][0]:
                gens_b = ((Fraction(0), 2 * basis[0][1]),)
                expect = PI1_ZERO_RIGIDITY
            else:
                gens_b = (basis[0], (Fraction(0), Fraction(1)))
                expect = LATTICE_INVARIANT_MISMATCH
            w.ops.append(_decide_op(spec_a, _spec(gens_b, j), basis, gens_b, expect))
    return w


WORKLOADS = {
    "jacobi_levels": jacobi_levels,
    "closure_probe": closure_probe,
    "maps_iso": maps_iso,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
