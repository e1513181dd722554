"""Seeded randomized and exhaustive verification suites.

Each suite samples inputs with a caller-supplied seed, performs exact checks
and returns a SuiteReport.  Reports are deterministic for (config, seed): the
stable serialization (stable_dict / stable_text) is byte-identical across
runs; wall_time_s is informational and excluded from it.  Every failure
record carries the literal inputs of the failing check, and rerun_failure
re-executes exactly that check in isolation.

Element sampling: 1 to 4 terms, coefficients from
{1, -1, 2, -2, 1/2, -1/2, 3/2, -3/2}, indices uniform over the given window.
"""

from __future__ import annotations

import heapq
import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Optional, Sequence, Union

from .lattice import GroupHom, Lattice, Vec2, lattice_new, map_lattice, vec
from .core import (
    J_NAT_NAT,
    J_NAT_ZERO,
    J_ZERO_NAT,
    J_ZERO_ZERO,
    NAT,
    SIGMA1,
    SIGMA2,
    ZERO,
    AlgebraError,
    AlgebraSpec,
    BasisIdx,
    Condition11Violated,
    Element,
    JSpec,
    MultiIndex,
    bracket,
    bracket_raw,
    bracket_scaled,
    enumerate_window,
    grade_component,
    index_key,
    is_quotiented,
    leading_term,
    monomial,
    odot,
    one,
    reduce,
    spec_validate,
    window_indices,
    zero,
)
from . import derivations as dv
from . import isomorphism as iso
from .literals import fmt_element, fmt_rat, parse_element, parse_derivation, parse_rat

_F0 = Fraction(0)
_F1 = Fraction(1)
_BOX_PAD = 1  # working-box margin around the target window
SIMPLICITY_MAX_TRIALS = 10  # run_suite clamps simplicity trials: each is a full probe

COEFF_POOL = (
    Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
    Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-3, 2),
)


class ZeroSeed(AlgebraError):
    pass


@dataclass(frozen=True)
class FailureRecord:
    check: str
    inputs: tuple[tuple[str, str], ...]  # sorted (name, literal) pairs
    detail: str

    def as_dict(self) -> dict:
        return {"check": self.check, "inputs": dict(self.inputs), "detail": self.detail}


@dataclass
class SuiteReport:
    suite: str
    spec_summary: str
    seed: int
    trials: int
    passes: int
    failures: tuple[FailureRecord, ...]
    wall_time_s: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def stable_dict(self) -> dict:
        return {
            "suite": self.suite,
            "spec": self.spec_summary,
            "seed": self.seed,
            "trials": self.trials,
            "passes": self.passes,
            "failures": [f.as_dict() for f in self.failures],
        }

    def as_dict(self) -> dict:
        d = self.stable_dict()
        d["wall_time_s"] = self.wall_time_s
        return d

    def stable_text(self) -> str:
        lines = [
            f"suite: {self.suite}",
            f"spec: {self.spec_summary}",
            f"seed: {self.seed}",
            f"trials: {self.trials}",
            f"passes: {self.passes}",
            f"failures: {len(self.failures)}",
        ]
        for f in self.failures:
            ins = " ".join(f"{k}={v!r}" for k, v in f.inputs)
            lines.append(f"FAIL {f.check} {ins} {f.detail}".rstrip())
        return "\n".join(lines)

    def text(self) -> str:
        return self.stable_text() + f"\nwall_time_s: {self.wall_time_s:.3f}"

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)


class _Run:
    def __init__(self, suite: str, spec: AlgebraSpec, seed: int):
        self.suite = suite
        self.summary = spec.summary()
        self.seed = seed
        self.trials = 0
        self.passes = 0
        self.failures: list[FailureRecord] = []
        self.t0 = time.perf_counter()

    def check(
        self, name: str, ok: bool, detail: str = "", **inputs: Union[str, Element]
    ) -> None:
        """Count one check; Element inputs are formatted only on failure."""
        self.trials += 1
        if ok:
            self.passes += 1
        else:
            lits = {
                k: fmt_element(x) if isinstance(x, Element) else x
                for k, x in inputs.items()
            }
            self.failures.append(FailureRecord(name, tuple(sorted(lits.items())), detail))

    def report(self) -> SuiteReport:
        fails = tuple(sorted(self.failures, key=lambda f: (f.check, f.inputs, f.detail)))
        return SuiteReport(
            self.suite, self.summary, self.seed, self.trials, self.passes,
            fails, time.perf_counter() - self.t0,
        )


def sample_element(rng: Random, spec: AlgebraSpec, window: Sequence[BasisIdx]) -> Element:
    raw: dict[BasisIdx, Fraction] = {}
    for _ in range(rng.randint(1, 4)):
        key = window[rng.randrange(len(window))]
        c = raw.get(key, Fraction(0)) + COEFF_POOL[rng.randrange(len(COEFF_POOL))]
        if c:
            raw[key] = c
        elif key in raw:
            del raw[key]
    return reduce(spec, raw)


def sample_nonzero(rng: Random, spec: AlgebraSpec, window: Sequence[BasisIdx]) -> Element:
    while True:
        u = sample_element(rng, spec, window)
        if not u.is_zero():
            return u


# ---------------------------------------------------------------- checks

def _jacobi_holds(u: Element, v: Element, w: Element) -> bool:
    s = (
        bracket(bracket(u, v), w)
        + bracket(bracket(v, w), u)
        + bracket(bracket(w, u), v)
    )
    return s.is_zero()


def _bracket_vs_odot(u: Element, v: Element) -> bool:
    return bracket(u, v) == reduce(u.spec, odot(u, v) - odot(v, u))


def _antisymmetry(u: Element, v: Element) -> bool:
    return bracket(u, v) == -bracket(v, u) and bracket(u, u).is_zero()


def _identity_bracket(spec: AlgebraSpec, be: Vec2, jj: MultiIndex) -> bool:
    # [1, x^{b,j}] = b1 x^{b,j} + j1 x^{b,j-1_[1]}
    x = reduce(spec, monomial(spec, be, jj))
    if x.is_zero():
        return True
    expected = be.c1 * x
    if jj[0]:
        expected = expected + jj[0] * reduce(
            spec, monomial(spec, be, (jj[0] - 1, jj[1]))
        )
    return bracket(one(spec), x) == expected


def _same_degree_closed_form(spec: AlgebraSpec, be: Vec2, jj: MultiIndex, kk: MultiIndex) -> bool:
    # same-degree bracket with b1 = 0:
    # [x^{b,j}, x^{b,k}] = (b2-1)(j1-k1) x^{2b,j+k-1_[1]} + (j1 k2 - k1 j2) x^{2b,j+k-1-1}
    assert be.c1 == 0
    u = monomial(spec, be, jj)
    v = monomial(spec, be, kk)
    two_b = be + be
    raw: dict[BasisIdx, Fraction] = {}
    s1 = jj[0] + kk[0]
    s2 = jj[1] + kk[1]
    if s1 >= 1:
        c = (be.c2 - 1) * (jj[0] - kk[0])
        if c:
            raw[(two_b, (s1 - 1, s2))] = c
    if s1 >= 1 and s2 >= 1:
        c = Fraction(jj[0] * kk[1] - kk[0] * jj[1])
        if c:
            key = (two_b, (s1 - 1, s2 - 1))
            raw[key] = raw.get(key, Fraction(0)) + c
            if not raw[key]:
                del raw[key]
    return bracket(u, v) == reduce(spec, raw)


def _top_term_coeff(spec: AlgebraSpec, b1: BasisIdx, b2: BasisIdx) -> bool:
    # leading line of the bracket: coefficient of x^{b+g, j+k}
    (be, jj), (ga, kk) = b1, b2
    deg = be + ga
    idx = (jj[0] + kk[0], jj[1] + kk[1])
    if deg == SIGMA1 and idx == (0, 0):
        return True  # quotiented away; nothing to compare
    if spec.simple_part and deg in (SIGMA1, SIGMA2):
        return True
    u = reduce(spec, monomial(spec, *b1))
    v = reduce(spec, monomial(spec, *b2))
    if u.is_zero() or v.is_zero():
        return True
    expected = be.c1 * (ga.c2 - 1) - ga.c1 * (be.c2 - 1)
    return bracket(u, v).coeff(deg, idx) == expected


def _top_term_coeff_pi1_zero(spec: AlgebraSpec, b1: BasisIdx, b2: BasisIdx) -> bool:
    # pi1(Gamma) = {0}: coefficient of x^{b+g, j+k-1_[1]}
    (be, jj), (ga, kk) = b1, b2
    deg = be + ga
    idx = (jj[0] + kk[0] - 1, jj[1] + kk[1])
    expected = jj[0] * (ga.c2 - 1) - kk[0] * (be.c2 - 1)
    if idx[0] < 0:
        return True  # the emitted term vanishes by convention
    if deg == SIGMA1 and idx == (0, 0):
        return True
    u = reduce(spec, monomial(spec, *b1))
    v = reduce(spec, monomial(spec, *b2))
    if u.is_zero() or v.is_zero():
        return True
    return bracket(u, v).coeff(deg, idx) == expected


def _sigma1_central(spec: AlgebraSpec, b: BasisIdx) -> bool:
    x_s1 = monomial(spec, SIGMA1, (0, 0))
    x = monomial(spec, *b)
    return bracket_raw(x_s1, x).is_zero() and bracket_raw(x, x_s1).is_zero()


def _sigma2_closure(u: Element, v: Element) -> bool:
    return grade_component(bracket_raw(u, v), SIGMA2).is_zero()


def _derivation_law(d, u: Element, v: Element) -> bool:
    return dv.check_derivation_law(d, [(u, v)]).ok


def _ker_pi1_gen(lat: Lattice) -> Optional[Vec2]:
    for b in lat.basis:
        if b.c1 == 0:
            return b
    return None


# ---------------------------------------------------------------- suites

def suite_jacobi(
    spec: AlgebraSpec, k_bound: int, level_cap: int, trials: int, seed: int
) -> SuiteReport:
    """Exact Jacobi identity on sampled triples."""
    run = _Run("jacobi", spec, seed)
    rng = Random(seed)
    window = enumerate_window(spec, k_bound, level_cap)
    for _ in range(trials):
        u = sample_element(rng, spec, window)
        v = sample_element(rng, spec, window)
        w = sample_element(rng, spec, window)
        run.check(
            "jacobi", _jacobi_holds(u, v, w),
            u=u, v=v, w=w,
        )
    return run.report()


def suite_bracket_consistency(
    spec: AlgebraSpec, k_bound: int, level_cap: int, trials: int, seed: int
) -> SuiteReport:
    """bracket vs the odot route, antisymmetry, special-case oracles,
    pre-quotient centrality of x^{sigma1,0}, simple-part closure."""
    run = _Run("bracket", spec, seed)
    rng = Random(seed)
    window = enumerate_window(spec, k_bound, level_cap)
    idxs = window_indices(spec, level_cap)
    for _ in range(trials):
        u = sample_element(rng, spec, window)
        v = sample_element(rng, spec, window)
        lits = {"u": u, "v": v}
        run.check("bracket_vs_odot", _bracket_vs_odot(u, v), **lits)
        run.check("antisymmetry", _antisymmetry(u, v), **lits)
    n_special = max(1, trials // 3)
    ker_gen = _ker_pi1_gen(spec.gamma)
    for _ in range(n_special):
        m = rng.randint(-3, 3)
        be = ker_gen.scale(Fraction(m)) if ker_gen is not None else vec(0, 0)
        jj = idxs[rng.randrange(len(idxs))]
        kk = idxs[rng.randrange(len(idxs))]
        run.check(
            "same_degree_closed_form", _same_degree_closed_form(spec, be, jj, kk),
            beta=f"{fmt_rat(be.c1)},{fmt_rat(be.c2)}",
            j=f"{jj[0]},{jj[1]}", k=f"{kk[0]},{kk[1]}",
        )
        b1 = window[rng.randrange(len(window))]
        b2 = window[rng.randrange(len(window))]
        lits = {
            "u": monomial(spec, *b1),
            "v": monomial(spec, *b2),
        }
        run.check("top_term_coeff", _top_term_coeff(spec, b1, b2), **lits)
        if spec.gamma.proj_generator(1) == 0:
            run.check("top_term_coeff_pi1_zero", _top_term_coeff_pi1_zero(spec, b1, b2), **lits)
        if spec.simple_part:
            u = sample_element(rng, spec, window)
            v = sample_element(rng, spec, window)
            run.check(
                "sigma2_closure", _sigma2_closure(u, v),
                u=u, v=v,
            )
    if spec.has_sigma1:
        for b in window:
            run.check(
                "sigma1_central", _sigma1_central(spec, b),
                v=monomial(spec, *b),
            )
    for be, jj in window:
        run.check(
            "identity_bracket", _identity_bracket(spec, be, jj),
            v=monomial(spec, be, jj),
        )
    return run.report()


def _defined_derivations(spec: AlgebraSpec) -> list[tuple[str, dv.Derivation]]:
    """Named derivations available on this algebra, with literal expressions."""
    out: list[tuple[str, dv.Derivation]] = []
    if spec.has_sigma1 and spec.j.j2 == ZERO:
        out.append(("d1", dv.make_d1(spec)))
    if spec.has_sigma1 and spec.j.j1 == ZERO:
        out.append(("d1bar", dv.make_d1bar(spec)))
    if spec.has_sigma2 and spec.j == J_ZERO_ZERO:
        out.append(("d2", dv.make_d2(spec)))
    if spec.j.j1 == NAT:
        out.append(("dt1", dv.make_dt1(spec)))
    if spec.j.j2 == NAT:
        out.append(("dt2", dv.make_dt2(spec)))
    return out


def _dmu_literal(mu: GroupHom) -> str:
    return "dmu(" + ",".join(fmt_rat(v) for v in mu.values) + ")"


def suite_derivations(
    spec: AlgebraSpec, trials: int, seed: int, k_bound: int = 2, level_cap: int = 3
) -> SuiteReport:
    """Leibniz law for every constructor, degree homogeneity, agreement of
    d1/d1bar/d2 with inner derivations of the J = N x N extension, and
    dt1 = ad(1) - d_{pi1}."""
    run = _Run("derivations", spec, seed)
    rng = Random(seed)
    window = enumerate_window(spec, k_bound, level_cap)
    ders: list[tuple[str, dv.Derivation, Optional[Vec2]]] = []
    for name, d in _defined_derivations(spec):
        deg = SIGMA1 if name in ("d1", "d1bar") else SIGMA2 if name == "d2" else vec(0, 0)
        ders.append((name, d, deg))
    if spec.gamma.rank:
        vals = tuple(COEFF_POOL[rng.randrange(len(COEFF_POOL))] for _ in range(spec.gamma.rank))
        mu = GroupHom(spec.gamma, vals)
        ders.append((_dmu_literal(mu), dv.make_dmu(spec, mu), vec(0, 0)))
    for _ in range(2):
        g = sample_nonzero(rng, spec, window)
        ders.append((f"ad({fmt_element(g)})", dv.ad(g), None))
    for name, d, deg in ders:
        for _ in range(trials):
            u = sample_element(rng, spec, window)
            v = sample_element(rng, spec, window)
            run.check(
                "derivation_law", _derivation_law(d, u, v),
                der=name, u=u, v=v,
            )
        if deg is not None:
            run.check(
                "homogeneity", dv.is_homogeneous(d, deg, window),
                der=name, alpha=f"{fmt_rat(deg.c1)},{fmt_rat(deg.c2)}",
                K=str(k_bound), L=str(level_cap),
            )
    ext = spec_validate(spec.gamma, J_NAT_NAT)
    for name, gen_alpha, gen_idx in (
        ("d1", SIGMA1, (0, 1)),
        ("d1bar", SIGMA1, (1, 0)),
        ("d2", SIGMA2, (0, 0)),
    ):
        d = dict(_defined_derivations(spec)).get(name)
        if d is None:
            continue
        w = monomial(ext, gen_alpha, gen_idx)
        for b in window:
            run.check(
                "extension_ad", _extension_ad_agrees(spec, ext, d, w, b),
                der=name, x=monomial(spec, *b),
            )
    if spec.j.j1 == NAT:
        dt1 = dv.make_dt1(spec)
        alt = dv.ad(one(spec)) - dv.make_dmu(spec, dv.pi_hom(spec, 1))
        for b in window:
            x = reduce(spec, monomial(spec, *b))
            run.check(
                "dt1_identity",
                dv.apply(dt1, x) == dv.apply(alt, x),
                x=monomial(spec, *b),
            )
    return run.report()


def _extension_ad_agrees(
    spec: AlgebraSpec, ext: AlgebraSpec, d: dv.Derivation, w: Element, b: BasisIdx
) -> bool:
    x = reduce(spec, monomial(spec, *b))
    if x.is_zero():
        return True
    ext_x = monomial(ext, *b)
    restricted = reduce(spec, dict(bracket(w, ext_x).terms))
    return restricted == dv.apply(d, x)


def _valid_j_options(lat: Lattice) -> list[JSpec]:
    out = []
    for j in (J_ZERO_ZERO, J_NAT_ZERO, J_ZERO_NAT, J_NAT_NAT):
        try:
            s = spec_validate(lat, j)
        except Condition11Violated:
            continue
        if not s.witt_degenerate:
            out.append(j)
    return out


def _sample_iso_params(rng: Random, spec: AlgebraSpec) -> iso.IsoParams:
    """Valid (a, b) whose image spec stays inside the classified region."""
    pool_a = [Fraction(x) for x in (1, -1, 2, -2, 3)] + [Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)]
    pool_b = [Fraction(x) for x in (0, 1, -1, 2)] + [Fraction(1, 2), Fraction(-5, 3)]
    while True:
        a = pool_a[rng.randrange(len(pool_a))]
        b = Fraction(0) if spec.j == J_NAT_ZERO else pool_b[rng.randrange(len(pool_b))]
        image = spec_validate(map_lattice(a, b, spec.gamma), spec.j)
        if not image.witt_degenerate:
            return iso.IsoParams(a, b)


def suite_iso(spec_a: AlgebraSpec, seed: int, trials: int) -> SuiteReport:
    """Round-trip decide_iso on transformed lattices, psi homomorphism spot
    checks, moduli_key agreement, and invariant-breaking mutations."""
    run = _Run("iso", spec_a, seed)
    rng = Random(seed)
    window = enumerate_window(spec_a, 2, 2)
    witt_a = spec_a.witt_degenerate
    for _ in range(trials):
        if witt_a:
            break
        p = _sample_iso_params(rng, spec_a)
        spec_b = spec_validate(map_lattice(p.a, p.b, spec_a.gamma), spec_a.j)
        lits = {"a": fmt_rat(p.a), "b": fmt_rat(p.b)}
        verdict = iso.decide_iso(spec_a, spec_b)
        ok = isinstance(verdict, iso.Found) and iso.phi_check(
            verdict.params, spec_a, spec_b
        )
        run.check("round_trip", ok, **lits)
        if not ok:
            continue
        run.check(
            "moduli_match",
            iso.moduli_key(spec_a) == iso.moduli_key(spec_b),
            **lits,
        )
        u = sample_element(rng, spec_a, window)
        v = sample_element(rng, spec_a, window)
        rep = iso.psi_check(verdict.params, spec_a, spec_b, [(u, v)])
        run.check(
            "psi_law", rep.ok,
            a=fmt_rat(verdict.params.a), b=fmt_rat(verdict.params.b),
            u=u, v=v,
        )
    # mutations: each must be rejected for the right reason
    options = _valid_j_options(spec_a.gamma)
    flips = [j for j in options if j != spec_a.j]
    if flips and not witt_a:
        run.check(
            "j_flip", _j_flip_rejected(spec_a, flips[0]),
            j2=f"{flips[0].j1},{flips[0].j2}",
        )
    lat = spec_a.gamma
    if lat.proj_generator(1) == 0 and lat.rank == 1:
        other = lattice_new([Vec2(Fraction(0), lat.basis[0].c2 + 1)])
        try:
            spec_validate(other, spec_a.j)
        except Condition11Violated:
            other = None
        if other is not None:
            run.check(
                "pi1_rigidity", _mutation_rejected(spec_a, other, iso.PI1_ZERO_RIGIDITY),
                gamma_b=_lattice_literal(other),
            )
    elif lat.rank == 2 and not witt_a:
        b1, b2 = lat.basis
        other = lattice_new([b1, Vec2(b2.c1, b2.c2 + 1)])
        run.check(
            "h_mutation",
            _mutation_rejected(spec_a, other, iso.LATTICE_INVARIANT_MISMATCH),
            gamma_b=_lattice_literal(other),
        )
    return run.report()


def _lattice_literal(lat: Lattice) -> str:
    return ";".join(f"{fmt_rat(b.c1)},{fmt_rat(b.c2)}" for b in lat.basis)


def _parse_lattice_literal(text: str) -> Lattice:
    gens = []
    for part in text.split(";"):
        a, b = part.split(",")
        gens.append(vec(parse_rat(a), parse_rat(b)))
    return lattice_new(gens)


def _j_flip_rejected(spec_a: AlgebraSpec, j2: JSpec) -> bool:
    v = iso.decide_iso(spec_a, spec_validate(spec_a.gamma, j2))
    return isinstance(v, iso.NotIsomorphic) and v.reason == iso.J_MISMATCH


def _mutation_rejected(spec_a: AlgebraSpec, other: Lattice, reason: str) -> bool:
    v = iso.decide_iso(spec_a, spec_validate(other, spec_a.j))
    return isinstance(v, iso.NotIsomorphic) and v.reason == reason


def _expected_nilpotence(be: Vec2, jj: MultiIndex, p: int) -> int:
    """Minimal k with dt_p^k(x^{be,jj}) = 0 in B.

    Normally jj[p]+1; one less when the chain ends on x^{sigma1,(0,0)},
    which the quotient already kills.
    """
    k = jj[p - 1] + 1
    if be == SIGMA1 and jj[2 - p] == 0 and jj[p - 1] >= 1:
        k -= 1
    return k


def suite_locality(spec: AlgebraSpec, cap: int, seed: int) -> SuiteReport:
    """Nilpotence degrees of dt1/dt2, the inner growth witness with its
    leading-coefficient law, and finite-closure verdicts for d_mu and ad(1)."""
    run = _Run("locality", spec, seed)
    rng = Random(seed)
    window = enumerate_window(spec, 2, min(3, max(0, cap - 2)))
    if spec.j.j2 == NAT:
        d = dv.make_dt2(spec)
        for be, jj in window:
            x = reduce(spec, monomial(spec, be, jj))
            if x.is_zero():
                continue
            run.check(
                "dt2_nilpotence",
                dv.nilpotence_degree(d, x, cap) == _expected_nilpotence(be, jj, 2),
                x=x, cap=str(cap),
            )
    if spec.j.j1 == NAT:
        d = dv.make_dt1(spec)
        for be, jj in window:
            x = reduce(spec, monomial(spec, be, jj))
            if x.is_zero():
                continue
            run.check(
                "dt1_nilpotence",
                dv.nilpotence_degree(d, x, cap) == _expected_nilpotence(be, jj, 1),
                x=x, cap=str(cap),
            )
    degs = [b for b in window if b[0].c1 != 0]
    rng.shuffle(degs)
    kmax = min(5, cap)
    for b in degs[:4]:
        run.check(
            "ad_growth_law", _growth_law_holds(spec, b, kmax),
            seed_ad=monomial(spec, *b), kmax=str(kmax),
        )
        probe = dv.local_finiteness_probe(
            dv.ad(reduce(spec, monomial(spec, *b))),
            reduce(spec, monomial(spec, b[0] + b[0], (0, 0))),
            cap,
        )
        run.check(
            "growth_witness", isinstance(probe, dv.GrowthWitness),
            seed_ad=monomial(spec, *b), cap=str(cap),
        )
    if spec.gamma.rank:
        vals = tuple(COEFF_POOL[rng.randrange(len(COEFF_POOL))] for _ in range(spec.gamma.rank))
        d = dv.make_dmu(spec, GroupHom(spec.gamma, vals))
        for b in window[: min(20, len(window))]:
            x = reduce(spec, monomial(spec, *b))
            if x.is_zero():
                continue
            probe = dv.local_finiteness_probe(d, x, cap)
            run.check(
                "dmu_closure", probe == dv.ClosureDim(1),
                der=_dmu_literal(d.mu), x=x, cap=str(cap),
            )
    ad1 = dv.ad(one(spec))
    for b in window[: min(20, len(window))]:
        x = reduce(spec, monomial(spec, *b))
        if x.is_zero():
            continue
        probe = dv.local_finiteness_probe(ad1, x, cap)
        run.check(
            "ad1_closure", isinstance(probe, dv.ClosureDim),
            x=x, cap=str(cap),
        )
    return run.report()


def _growth_law_holds(spec: AlgebraSpec, b: BasisIdx, kmax: int) -> bool:
    """D = ad(x^{b,i}), b1 != 0: the degree-(k+2)b leading term of
    D^k(x^{2b,0}) is k! * b1^k at index k*i, for k <= kmax."""
    be, ii = b
    d = dv.ad(reduce(spec, monomial(spec, be, ii)))
    w = reduce(spec, monomial(spec, be + be, (0, 0)))
    for k in range(1, kmax + 1):
        w = dv.apply(d, w)
        deg = be.scale(Fraction(k + 2))
        lead = leading_term(w, deg)
        if lead is None:
            return False
        (alpha, idx), coeff = lead
        if idx != (k * ii[0], k * ii[1]):
            return False
        if coeff != math.factorial(k) * be.c1**k:
            return False
    return True


@dataclass(frozen=True)
class ReachedFullWindow:
    rounds: int
    dim: int


@dataclass(frozen=True)
class Inconclusive:
    missing: tuple[BasisIdx, ...]
    dim: int


_P = (1 << 61) - 1  # modulus of the independence prefilter
_INV_CACHE: dict[int, int] = {}


def _inv(d: int) -> int:
    v = _INV_CACHE.get(d)
    if v is None:
        v = pow(d, _P - 2, _P)
        _INV_CACHE[d] = v
    return v


def _heap_residue(rows, v, zero):
    """Forward-eliminate v (dict id->value) against echelon rows.

    Rows are normalized (pivot value 1) and keyed by pivot id; every other
    key in a row is smaller than its pivot, so processing candidate keys in
    descending order visits each pivot once.  Returns (residue, pivot) with
    pivot = -1 when the residue is zero.  Works for Fraction values and for
    ints mod _P (pass zero=0 and reduce in the caller's row data).
    """
    v = dict(v)
    heap = [-k for k in v]
    heapq.heapify(heap)
    mod = isinstance(zero, int)
    while heap:
        k = -heapq.heappop(heap)
        c = v.get(k)
        if not c:
            v.pop(k, None)
            continue
        row = rows.get(k)
        if row is None:
            return v, k
        v.pop(k)
        for k2, rv in row.items():
            if k2 == k:
                continue
            nv = v.get(k2, zero) - c * rv
            if mod:
                nv %= _P
            if nv:
                if k2 not in v:
                    heapq.heappush(heap, -k2)
                v[k2] = nv
            else:
                v.pop(k2, None)
    return v, -1


class _ModSpan:
    """Row space over GF(_P), rows keyed by dense integer ids.

    Used as a prefilter: independence mod _P implies independence over Q
    (scale a vanishing rational combination to coprime integers), so every
    vector this filter admits is genuinely new.  The converse can fail with
    probability ~1/_P, which at worst drops a useful vector — never an
    unsound verdict.
    """

    __slots__ = ("rows",)

    def __init__(self) -> None:
        self.rows: dict[int, dict[int, int]] = {}

    def add(self, v: dict[int, int]) -> bool:
        r, piv = _heap_residue(self.rows, v, 0)
        if piv < 0:
            return False
        inv = _inv(r[piv])
        self.rows[piv] = {k: (c * inv) % _P for k, c in r.items()}
        return True

    def contains(self, v: dict[int, int]) -> bool:
        _, piv = _heap_residue(self.rows, v, 0)
        return piv < 0


class _IdSpan:
    """Exact row space over Q with integer column ids (certification pass)."""

    __slots__ = ("rows",)

    def __init__(self) -> None:
        self.rows: dict[int, dict[int, Fraction]] = {}

    def add(self, v: dict[int, Fraction]) -> bool:
        r, piv = _heap_residue(self.rows, v, Fraction(0))
        if piv < 0:
            return False
        inv = 1 / r[piv]
        self.rows[piv] = {k: c * inv for k, c in r.items()}
        return True

    def contains(self, v: dict[int, Fraction]) -> bool:
        _, piv = _heap_residue(self.rows, v, Fraction(0))
        return piv < 0

    @property
    def dim(self) -> int:
        return len(self.rows)


def simplicity_probe(
    spec: AlgebraSpec,
    seed_element: Element,
    k_bound: int,
    level_cap: int,
    depth: int,
) -> Union[ReachedFullWindow, Inconclusive]:
    """One-sided ideal-closure probe.

    Grows the span of the ideal generated by seed_element by bracketing with
    window basis elements, up to `depth` rounds.  Intermediate vectors whose
    support leaves the working box (coefficients |k| <= k_bound + pad,
    level <= level_cap + pad) are discarded whole, which keeps the probe
    sound.  A stall in the narrow box escalates once to a wider box: some
    window corners are only reachable through intermediates just outside it.

    The round-by-round growth runs over GF(_P) with monomial structure
    constants from core.bracket_scaled, integers over D^2 kept for the
    length of one probe; once the modular span covers every window target,
    the claim is certified by exact rational elimination over the recorded
    bracket chain.  ReachedFullWindow is therefore an exact certificate that
    every window basis element lies in the ideal; failure to cover the
    window is reported as Inconclusive, never as a negative.
    """
    verdict = _probe_in_box(spec, seed_element, k_bound, level_cap, depth, _BOX_PAD)
    if isinstance(verdict, ReachedFullWindow):
        return verdict
    return _probe_in_box(
        spec, seed_element, k_bound, level_cap, depth, _BOX_PAD + 1
    )


class _ProbeTable:
    """Column ids and monomial structure constants of one probe.

    Columns are scaled keys (D a1, D a2, i1, i2), D = gamma.den, as in
    core.bracket_scaled.  Ids below n_box number the working box (window
    bounds plus pad); later ids are keys met outside it.  The multipliers are
    the window basis elements in sweep order.  rows[gi][col] holds
    [g_gi, x^col] as (col, n) pairs with coefficient n / D^2, filled on
    first use by images().
    """

    def __init__(self, spec: AlgebraSpec, k_bound: int, level_cap: int, pad: int):
        self.spec = spec
        self.d = spec.gamma.den
        self.window = enumerate_window(spec, k_bound, level_cap)
        box = enumerate_window(spec, k_bound + pad, level_cap + pad)
        self.keys = [self.skey(b) for b in box]
        self.n_box = len(self.keys)
        self.ids = {k: n for n, k in enumerate(self.keys)}
        self.mults = [[(*self.skey(b), 1)] for b in sorted(self.window, key=self._sweep_rank)]
        self.rows: list[dict[int, list[tuple[int, int]]]] = [{} for _ in self.mults]

    def skey(self, b: BasisIdx) -> tuple[int, int, int, int]:
        alpha, (i1, i2) = b
        s1, s2 = self.spec.gamma.scaled(alpha)
        return (s1, s2, i1, i2)

    def _sweep_rank(self, b: BasisIdx) -> tuple:
        # identity and degree translators first, then index raisers, then
        # the rest by size: early candidates move support toward targets,
        # so the coverage early-exit fires before the expensive tail.
        alpha, (i1, i2) = b
        k = self.spec.gamma.coords(alpha)
        return (i1 + i2, sum(abs(q) for q in k), index_key((i1, i2)))

    def kid(self, key: tuple[int, int, int, int]) -> int:
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.keys)
            self.keys.append(key)
        return i

    def images(self, gi: int, col: int) -> list[tuple[int, int]]:
        imgs = self.rows[gi].get(col)
        if imgs is None:
            spec, key = self.spec, self.keys[col]
            if is_quotiented(spec, key):  # a seed term that is zero in B
                imgs = []
            else:
                raw = bracket_scaled(self.d, self.mults[gi], [(*key, 1)])
                imgs = [
                    (self.kid(k2), n) for k2, n in raw.items()
                    if n and not is_quotiented(spec, k2)
                ]
            self.rows[gi][col] = imgs
        return imgs


def _probe_in_box(
    spec: AlgebraSpec,
    seed_element: Element,
    k_bound: int,
    level_cap: int,
    depth: int,
    pad: int,
) -> Union[ReachedFullWindow, Inconclusive]:
    if seed_element.is_zero():
        raise ZeroSeed("the probe needs a nonzero seed element")
    tab = _ProbeTable(spec, k_bound, level_cap, pad)
    window, images, n_box = tab.window, tab.images, tab.n_box
    dd = tab.d * tab.d
    inv_dd = _inv(dd)

    def mod_bracket(gi: int, v: dict[int, int]) -> Optional[dict[int, int]]:
        """[g_i, v] over GF(_P); None when support leaves the working box."""
        acc: dict[int, int] = {}
        get = acc.get
        row = tab.rows[gi]
        for k_id, coeff in v.items():
            c = coeff * inv_dd % _P
            imgs = row.get(k_id)
            if imgs is None:
                imgs = images(gi, k_id)
            for k2, n in imgs:
                nv = (get(k2, 0) + c * n) % _P
                if nv:
                    acc[k2] = nv
                else:
                    acc.pop(k2, None)
        if any(k >= n_box for k in acc):
            return None
        return acc

    # kept[i] = (multiplier index, parent kept index); kept[0] is the seed.
    kept: list[tuple[Optional[int], Optional[int]]] = [(None, None)]
    seed_exact = {tab.kid(tab.skey(b)): c for b, c in seed_element.terms.items()}
    target_ids = {b: tab.ids[tab.skey(b)] for b in window}

    def exact_verify(rounds: int):
        """Recompute the kept chain exactly and certify target coverage."""
        exact_vecs: list[dict[int, Fraction]] = [seed_exact]
        for gi, parent in kept[1:]:
            acc: dict[int, Fraction] = {}
            for k, c in exact_vecs[parent].items():
                c = c / dd
                for k2, n in images(gi, k):
                    nv = acc.get(k2, _F0) + c * n
                    if nv:
                        acc[k2] = nv
                    else:
                        acc.pop(k2, None)
            exact_vecs.append(acc)
        span = _IdSpan()
        for v in exact_vecs:
            span.add(v)
        still = tuple(b for b, i in target_ids.items() if not span.contains({i: _F1}))
        if not still:
            return ReachedFullWindow(rounds, span.dim), (), span.dim
        return None, still, span.dim

    mod = _ModSpan()
    seed_vec = {i: c.numerator * _inv(c.denominator) % _P for i, c in seed_exact.items()}
    mod.add(seed_vec)
    frontier: list[tuple[dict[int, int], int]] = [(seed_vec, 0)]
    missing = list(window)
    pending_checks = 0
    for rounds in range(1, depth + 1):
        new_frontier: list[tuple[dict[int, int], int]] = []
        for gi in range(len(tab.mults)):
            for vvec, vidx in frontier:
                acc = mod_bracket(gi, vvec)
                if not acc:
                    continue
                if not mod.add(acc):
                    continue
                kept.append((gi, vidx))
                new_frontier.append((acc, len(kept) - 1))
                pending_checks += 1
                if pending_checks >= 8 and len(mod.rows) >= len(missing):
                    pending_checks = 0
                    missing = [b for b in missing if not mod.contains({target_ids[b]: 1})]
                    if not missing:
                        verdict, still, _ = exact_verify(rounds)
                        if verdict is not None:
                            return verdict
                        missing = list(still)
        missing = [b for b in missing if not mod.contains({target_ids[b]: 1})]
        if not missing:
            verdict, still, _ = exact_verify(rounds)
            if verdict is not None:
                return verdict
            missing = list(still)
        if not new_frontier:
            break
        new_frontier.sort(key=lambda t: len(t[0]))
        frontier = new_frontier
    _, still, dim = exact_verify(0)
    return Inconclusive(still, dim)


def suite_simplicity(
    spec: AlgebraSpec, k_bound: int, level_cap: int, depth: int, trials: int, seed: int
) -> SuiteReport:
    """Each trial seeds the closure probe with a random nonzero element."""
    run = _Run("simplicity", spec, seed)
    rng = Random(seed)
    window = enumerate_window(spec, k_bound, level_cap)
    for _ in range(trials):
        u = sample_nonzero(rng, spec, window)
        verdict = simplicity_probe(spec, u, k_bound, level_cap, depth)
        run.check(
            "reached_full_window",
            isinstance(verdict, ReachedFullWindow),
            detail="" if isinstance(verdict, ReachedFullWindow)
            else f"missing {len(verdict.missing)} of {len(window)}",
            seed_elem=u,
            K=str(k_bound), L=str(level_cap), depth=str(depth),
        )
    return run.report()


# ---------------------------------------------------------------- configs

_GAMMAS: tuple[tuple[tuple[str, str], ...], ...] = (
    (("1", "0"), ("0", "1")),
    (("1/2", "0"), ("0", "1")),
    (("2", "3"), ("0", "5")),
    (("0", "1"),),
    (("1", "0"),),
)


def default_configs() -> list[AlgebraSpec]:
    """All valid non-degenerate (Gamma, J) combinations of the stock matrix."""
    out = []
    for gens in _GAMMAS:
        lat = lattice_new([vec(a, b) for a, b in gens])
        for j in _valid_j_options(lat):
            out.append(spec_validate(lat, j))
    return out


def construction_only_configs() -> list[AlgebraSpec]:
    """Witt-degenerate combinations: constructible, excluded from suites."""
    out = []
    for gens in _GAMMAS:
        lat = lattice_new([vec(a, b) for a, b in gens])
        for j in (J_ZERO_ZERO, J_NAT_ZERO, J_ZERO_NAT, J_NAT_NAT):
            try:
                s = spec_validate(lat, j)
            except Condition11Violated:
                continue
            if s.witt_degenerate:
                out.append(s)
    return out


def run_suite(
    name: str,
    spec: AlgebraSpec,
    seed: int,
    trials: int = 200,
    k_bound: int = 2,
    level_cap: int = 3,
    depth: int = 6,
    cap: int = 8,
) -> SuiteReport:
    if name == "jacobi":
        return suite_jacobi(spec, k_bound, level_cap, trials, seed)
    if name == "bracket":
        return suite_bracket_consistency(spec, k_bound, level_cap, trials, seed)
    if name == "derivations":
        return suite_derivations(spec, trials, seed, k_bound, level_cap)
    if name == "iso":
        return suite_iso(spec, seed, trials)
    if name == "locality":
        return suite_locality(spec, cap, seed)
    if name == "simplicity":
        trials = max(1, min(trials, SIMPLICITY_MAX_TRIALS))
        return suite_simplicity(spec, k_bound, level_cap, depth, trials, seed)
    raise AlgebraError(f"unknown suite {name!r}")


SUITE_NAMES = ("jacobi", "bracket", "derivations", "iso", "locality", "simplicity")


# ------------------------------------------------------- reproduction

def rerun_failure(spec: AlgebraSpec, record: FailureRecord) -> bool:
    """Re-execute the failed check on its recorded literal inputs.

    Returns the check outcome (True = passes now).  A genuine failure record
    reproduces as False.
    """
    ins = dict(record.inputs)
    name = record.check

    def elem(key: str) -> Element:
        return parse_element(spec, ins[key])

    if name == "jacobi":
        return _jacobi_holds(elem("u"), elem("v"), elem("w"))
    if name == "bracket_vs_odot":
        return _bracket_vs_odot(elem("u"), elem("v"))
    if name == "antisymmetry":
        return _antisymmetry(elem("u"), elem("v"))
    if name == "same_degree_closed_form":
        b1, b2 = ins["beta"].split(",")
        j1, j2 = ins["j"].split(",")
        k1, k2 = ins["k"].split(",")
        return _same_degree_closed_form(
            spec, vec(b1, b2), (int(j1), int(j2)), (int(k1), int(k2))
        )
    if name in ("top_term_coeff", "top_term_coeff_pi1_zero"):
        (b1,) = list(parse_element(spec, ins["u"]).terms) or [None]
        (b2,) = list(parse_element(spec, ins["v"]).terms) or [None]
        if b1 is None or b2 is None:
            return True
        fn = _top_term_coeff if name == "top_term_coeff" else _top_term_coeff_pi1_zero
        return fn(spec, b1, b2)
    if name == "sigma1_central":
        (b,) = list(parse_element(spec, ins["v"]).terms)
        return _sigma1_central(spec, b)
    if name == "sigma2_closure":
        return _sigma2_closure(elem("u"), elem("v"))
    if name == "identity_bracket":
        (b,) = list(parse_element(spec, ins["v"]).terms)
        return _identity_bracket(spec, *b)
    if name == "derivation_law":
        d = parse_derivation(spec, ins["der"])
        return _derivation_law(d, elem("u"), elem("v"))
    if name == "homogeneity":
        d = parse_derivation(spec, ins["der"])
        a1, a2 = ins["alpha"].split(",")
        # a record without K/L replays on the suite's default window
        window = enumerate_window(spec, int(ins.get("K", "2")), int(ins.get("L", "3")))
        return dv.is_homogeneous(d, vec(a1, a2), window)
    if name == "dt1_identity":
        dt1 = dv.make_dt1(spec)
        alt = dv.ad(one(spec)) - dv.make_dmu(spec, dv.pi_hom(spec, 1))
        x = elem("x")
        return dv.apply(dt1, x) == dv.apply(alt, x)
    if name == "ad_growth_law":
        (b,) = list(parse_element(spec, ins["seed_ad"]).terms)
        return _growth_law_holds(spec, b, int(ins.get("kmax", "5")))
    if name == "extension_ad":
        ext = spec_validate(spec.gamma, J_NAT_NAT)
        gen = {"d1": (SIGMA1, (0, 1)), "d1bar": (SIGMA1, (1, 0)), "d2": (SIGMA2, (0, 0))}
        alpha, idx = gen[ins["der"]]
        d = parse_derivation(spec, ins["der"])
        terms = list(parse_element(spec, ins["x"]).terms)
        if not terms:
            return True
        return _extension_ad_agrees(spec, ext, d, monomial(ext, alpha, idx), terms[0])
    if name in ("round_trip", "moduli_match", "psi_law"):
        a, b = parse_rat(ins["a"]), parse_rat(ins["b"])
        spec_b = spec_validate(map_lattice(a, b, spec.gamma), spec.j)
        if name == "round_trip":
            verdict = iso.decide_iso(spec, spec_b)
            return isinstance(verdict, iso.Found) and iso.phi_check(
                verdict.params, spec, spec_b
            )
        if name == "moduli_match":
            return iso.moduli_key(spec) == iso.moduli_key(spec_b)
        pairs = [(elem("u"), elem("v"))]
        return iso.psi_check(iso.IsoParams(a, b), spec, spec_b, pairs).ok
    if name == "j_flip":
        j1, j2 = ins["j2"].split(",")
        return _j_flip_rejected(spec, JSpec(j1, j2))
    if name == "pi1_rigidity":
        return _mutation_rejected(
            spec, _parse_lattice_literal(ins["gamma_b"]), iso.PI1_ZERO_RIGIDITY
        )
    if name == "h_mutation":
        return _mutation_rejected(
            spec, _parse_lattice_literal(ins["gamma_b"]), iso.LATTICE_INVARIANT_MISMATCH
        )
    if name in ("dt2_nilpotence", "dt1_nilpotence"):
        x = elem("x")
        ((be, jj),) = list(x.terms)
        p = 2 if name == "dt2_nilpotence" else 1
        d = dv.make_dt2(spec) if p == 2 else dv.make_dt1(spec)
        expected = _expected_nilpotence(be, jj, p)
        return dv.nilpotence_degree(d, x, int(ins["cap"])) == expected
    if name == "growth_witness":
        (b,) = list(parse_element(spec, ins["seed_ad"]).terms)
        probe = dv.local_finiteness_probe(
            dv.ad(reduce(spec, monomial(spec, *b))),
            reduce(spec, monomial(spec, b[0] + b[0], (0, 0))),
            int(ins["cap"]),
        )
        return isinstance(probe, dv.GrowthWitness)
    if name == "dmu_closure":
        d = parse_derivation(spec, ins["der"])
        probe = dv.local_finiteness_probe(d, elem("x"), int(ins["cap"]))
        return probe == dv.ClosureDim(1)
    if name == "ad1_closure":
        probe = dv.local_finiteness_probe(dv.ad(one(spec)), elem("x"), int(ins["cap"]))
        return isinstance(probe, dv.ClosureDim)
    if name == "reached_full_window":
        verdict = simplicity_probe(
            spec, elem("seed_elem"), int(ins["K"]), int(ins["L"]), int(ins["depth"])
        )
        return isinstance(verdict, ReachedFullWindow)
    raise AlgebraError(f"no reproduction handler for check {name!r}")
