"""Seeded randomized and exhaustive verification suites.

Each suite is one entry of the table SUITES, run by name through run_suite:
it samples inputs from Random(seed), performs exact checks and yields a
SuiteReport.  Reports are deterministic for (config, seed): the stable
serialization (stable_dict / stable_text) is byte-identical across runs;
wall_time_s is informational and excluded from it.

Every check is one entry of the table CHECKS: its predicate
holds(spec, **inputs) and one codec per recorded input field.  Suites call
the predicate through the table on live values; only when it fails are the
inputs formatted, through the codecs, into the failure record.  A predicate
that raises AlgebraError or LatticeError fails, with the exception as the
detail; other exceptions propagate.  rerun_failure looks the check up by
name, decodes the record's literals with the same codecs and calls the same
predicate.

Element sampling: 1 to 4 terms, coefficients from
{1, -1, 2, -2, 1/2, -1/2, 3/2, -3/2}, indices uniform over the given window.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from random import Random
from typing import Any, Callable, NamedTuple, Optional, Sequence, Union

from .lattice import GroupHom, Lattice, LatticeError, Vec2, lattice_new, map_lattice, vec
from .core import (
    J_NAT_NAT,
    J_NAT_ZERO,
    J_ZERO_NAT,
    J_ZERO_ZERO,
    SIGMA1,
    SIGMA2,
    AlgebraError,
    AlgebraSpec,
    BasisIdx,
    Condition11Violated,
    Element,
    JSpec,
    ScaledKey,
    _reduced,
    bracket,
    bracket_raw,
    enumerate_window,
    grade_component,
    leading_term,
    monomial,
    odot,
    one,
    reduce,
    spec_validate,
    window_indices,
)
from . import derivations as dv
from . import isomorphism as iso
from .literals import (
    fmt_derivation,
    fmt_element,
    fmt_rat,
    parse_derivation,
    parse_element,
    parse_rat,
)
from .probe import Inconclusive, ReachedFullWindow, simplicity_probe

_DEG0 = vec(0, 0)
SIMPLICITY_MAX_TRIALS = 10  # the simplicity suite clamps its trials: each is a full probe

COEFF_POOL = (
    Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
    Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-3, 2),
)
_POOL_HALVES = tuple(int(2 * c) for c in COEFF_POOL)  # COEFF_POOL in halves


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
        self.spec = spec
        self.seed = seed
        self.trials = 0
        self.passes = 0
        self.failures: list[FailureRecord] = []
        self.t0 = time.perf_counter()

    def evaluate(self, name: str, **inputs: Any) -> bool:
        """Run the table check `name` on live inputs and count it; on failure
        the inputs are recorded through the check's field codecs."""
        entry = CHECKS[name]
        out = _holds(entry, self.spec, inputs)
        self.trials += 1
        if out is True:
            self.passes += 1
            return True
        lits = tuple(sorted((k, entry.fields[k].fmt(x)) for k, x in inputs.items()))
        self.failures.append(FailureRecord(name, lits, out or ""))
        return False

    def report(self) -> SuiteReport:
        fails = tuple(sorted(self.failures, key=lambda f: (f.check, f.inputs, f.detail)))
        return SuiteReport(
            self.suite, self.spec.summary(), self.seed, self.trials, self.passes,
            fails, time.perf_counter() - self.t0,
        )


def sample_element(rng: Random, spec: AlgebraSpec, window: Sequence[BasisIdx]) -> Element:
    """The reduced sum of 1 to 4 draws from COEFF_POOL on window indices,
    summed in halves on scaled keys."""
    scaled = spec.gamma.scaled
    t: dict[ScaledKey, int] = {}
    for _ in range(rng.randint(1, 4)):
        alpha, (i1, i2) = window[rng.randrange(len(window))]
        key = (*scaled(alpha), i1, i2)
        n = t.get(key, 0) + _POOL_HALVES[rng.randrange(len(_POOL_HALVES))]
        if n:
            t[key] = n
        elif key in t:
            del t[key]
    return _reduced(spec, t, 2)


def sample_nonzero(rng: Random, spec: AlgebraSpec, window: Sequence[BasisIdx]) -> Element:
    while True:
        u = sample_element(rng, spec, window)
        if not u.is_zero():
            return u


# ---------------------------------------------------------------- codecs

class Codec(NamedTuple):
    """Literal form of one recorded input: fmt(value) and parse(spec, text)."""

    fmt: Callable[[Any], str]
    parse: Callable[[AlgebraSpec, str], Any]


def _fmt_vec(v: Vec2) -> str:
    return f"{fmt_rat(v.c1)},{fmt_rat(v.c2)}"


def _parse_vec(spec: AlgebraSpec, text: str) -> Vec2:
    a, b = text.split(",")
    return vec(parse_rat(a), parse_rat(b))


def _parse_monomial(spec: AlgebraSpec, text: str) -> Optional[BasisIdx]:
    """The basis index of a one-term literal; None when it reduces to zero."""
    (b,) = parse_element(spec, text).terms or (None,)
    return b


ELEMENT = Codec(fmt_element, parse_element)
MONOMIAL = Codec(lambda b: f"x[{_fmt_vec(b[0])};{b[1][0]},{b[1][1]}]", _parse_monomial)
INT = Codec(str, lambda spec, text: int(text))
RATIONAL = Codec(fmt_rat, lambda spec, text: parse_rat(text))
VECTOR = Codec(_fmt_vec, _parse_vec)
INDEX = Codec(lambda j: f"{j[0]},{j[1]}", lambda spec, text: tuple(map(int, text.split(","))))
DERIVATION = Codec(fmt_derivation, parse_derivation)
LATTICE = Codec(
    lambda lat: ";".join(map(_fmt_vec, lat.basis)),
    lambda spec, text: lattice_new([_parse_vec(spec, p) for p in text.split(";")]),
)
J_PAIR = Codec(lambda j: f"{j.j1},{j.j2}", lambda spec, text: JSpec(*text.split(",")))


# ---------------------------------------------------------------- checks
#
# Each predicate takes the spec and the check's fields by name.  A field that
# older records lack has the suite's default as its default.

def _jacobi(spec: AlgebraSpec, u: Element, v: Element, w: Element) -> bool:
    s = (
        bracket(bracket(u, v), w)
        + bracket(bracket(v, w), u)
        + bracket(bracket(w, u), v)
    )
    return s.is_zero()


def _bracket_vs_odot(spec: AlgebraSpec, u: Element, v: Element) -> bool:
    return bracket(u, v) == reduce(spec, odot(u, v) - odot(v, u))


def _antisymmetry(spec: AlgebraSpec, u: Element, v: Element) -> bool:
    return bracket(u, v) == -bracket(v, u) and bracket(u, u).is_zero()


def _identity_bracket(spec: AlgebraSpec, v: BasisIdx) -> bool:
    # [1, x^{b,j}] = b1 x^{b,j} + j1 x^{b,j-1_[1]}
    be, jj = v
    x = reduce(spec, monomial(spec, be, jj))
    if x.is_zero():
        return True
    expected = be.c1 * x
    if jj[0]:
        expected = expected + jj[0] * reduce(
            spec, monomial(spec, be, (jj[0] - 1, jj[1]))
        )
    return bracket(one(spec), x) == expected


def _same_degree_closed_form(spec: AlgebraSpec, beta: Vec2, j, k) -> bool:
    # same-degree bracket with b1 = 0:
    # [x^{b,j}, x^{b,k}] = (b2-1)(j1-k1) x^{2b,j+k-1_[1]} + (j1 k2 - k1 j2) x^{2b,j+k-1-1}
    assert beta.c1 == 0
    u = monomial(spec, beta, j)
    v = monomial(spec, beta, k)
    two_b = beta + beta
    raw: dict[BasisIdx, Fraction] = {}
    s1 = j[0] + k[0]
    s2 = j[1] + k[1]
    if s1 >= 1:
        c = (beta.c2 - 1) * (j[0] - k[0])
        if c:
            raw[(two_b, (s1 - 1, s2))] = c
    if s1 >= 1 and s2 >= 1:
        c = Fraction(j[0] * k[1] - k[0] * j[1])
        if c:
            key = (two_b, (s1 - 1, s2 - 1))
            raw[key] = raw.get(key, Fraction(0)) + c
            if not raw[key]:
                del raw[key]
    return bracket(u, v) == reduce(spec, raw)


def _top_term_coeff(spec: AlgebraSpec, u: BasisIdx, v: BasisIdx) -> bool:
    # leading line of the bracket: coefficient of x^{b+g, j+k}
    (be, jj), (ga, kk) = u, v
    deg = be + ga
    idx = (jj[0] + kk[0], jj[1] + kk[1])
    if deg == SIGMA1 and idx == (0, 0):
        return True  # quotiented away; nothing to compare
    if spec.simple_part and deg in (SIGMA1, SIGMA2):
        return True
    x = reduce(spec, monomial(spec, *u))
    y = reduce(spec, monomial(spec, *v))
    if x.is_zero() or y.is_zero():
        return True
    expected = be.c1 * (ga.c2 - 1) - ga.c1 * (be.c2 - 1)
    return bracket(x, y).coeff(deg, idx) == expected


def _top_term_coeff_pi1_zero(spec: AlgebraSpec, u: BasisIdx, v: BasisIdx) -> bool:
    # pi1(Gamma) = {0}: coefficient of x^{b+g, j+k-1_[1]}
    (be, jj), (ga, kk) = u, v
    deg = be + ga
    idx = (jj[0] + kk[0] - 1, jj[1] + kk[1])
    expected = jj[0] * (ga.c2 - 1) - kk[0] * (be.c2 - 1)
    if idx[0] < 0:
        return True  # the emitted term vanishes by convention
    if deg == SIGMA1 and idx == (0, 0):
        return True
    x = reduce(spec, monomial(spec, *u))
    y = reduce(spec, monomial(spec, *v))
    if x.is_zero() or y.is_zero():
        return True
    return bracket(x, y).coeff(deg, idx) == expected


def _sigma1_central(spec: AlgebraSpec, v: BasisIdx) -> bool:
    x_s1 = monomial(spec, SIGMA1, (0, 0))
    x = monomial(spec, *v)
    return bracket_raw(x_s1, x).is_zero() and bracket_raw(x, x_s1).is_zero()


def _sigma2_closure(spec: AlgebraSpec, u: Element, v: Element) -> bool:
    return grade_component(bracket_raw(u, v), SIGMA2).is_zero()


def _derivation_law(spec: AlgebraSpec, der: dv.Derivation, u: Element, v: Element) -> bool:
    return dv.check_derivation_law(der, [(u, v)]).ok


def _homogeneity(
    spec: AlgebraSpec, der: dv.Derivation, alpha: Vec2, K: int = 2, L: int = 3
) -> bool:
    return dv.is_homogeneous(der, alpha, enumerate_window(spec, K, L))


# d1, d1bar, d2 restrict ad of these J = N x N extension elements to B
_EXTENSION_GENERATORS = (("f1", SIGMA1, (0, 1)), ("f2", SIGMA1, (1, 0)), ("f3", SIGMA2, (0, 0)))


def _extension_ad(spec: AlgebraSpec, der: dv.Derivation, x: BasisIdx) -> bool:
    xb = reduce(spec, monomial(spec, *x))
    if xb.is_zero():
        return True
    ext = spec_validate(spec.gamma, J_NAT_NAT)
    (w,) = [monomial(ext, a, i) for f, a, i in _EXTENSION_GENERATORS if getattr(der, f)]
    restricted = reduce(spec, dict(bracket(w, monomial(ext, *x)).terms))
    return restricted == dv.apply(der, xb)


def _dt1_identity(spec: AlgebraSpec, x: Element) -> bool:
    # dt1 = ad(1) - d_{pi1}
    alt = dv.ad(one(spec)) - dv.make_dmu(spec, dv.pi_hom(spec, 1))
    return dv.apply(dv.make_dt1(spec), x) == dv.apply(alt, x)


@lru_cache(maxsize=64)  # each check of an iso trial rebuilds it from (a, b)
def _iso_image(spec: AlgebraSpec, a: Fraction, b: Fraction) -> AlgebraSpec:
    return spec_validate(map_lattice(a, b, spec.gamma), spec.j)


def _round_trip(spec: AlgebraSpec, a: Fraction, b: Fraction) -> bool:
    spec_b = _iso_image(spec, a, b)
    verdict = iso.decide_iso(spec, spec_b)
    return isinstance(verdict, iso.Found) and iso.phi_check(verdict.params, spec, spec_b)


def _moduli_match(spec: AlgebraSpec, a: Fraction, b: Fraction) -> bool:
    return iso.moduli_key(spec) == iso.moduli_key(_iso_image(spec, a, b))


def _psi_law(spec: AlgebraSpec, a: Fraction, b: Fraction, u: Element, v: Element) -> bool:
    spec_b = _iso_image(spec, a, b)
    return iso.psi_check(iso.IsoParams(a, b), spec, spec_b, [(u, v)]).ok


def _rejected(spec: AlgebraSpec, spec_b: AlgebraSpec, reason: str) -> bool:
    v = iso.decide_iso(spec, spec_b)
    return isinstance(v, iso.NotIsomorphic) and v.reason == reason


def _nilpotence(p: int, spec: AlgebraSpec, x: Element, cap: int) -> bool:
    """dt_p^k kills x = x^{be,jj} first at k = jj[p] + 1, or one step
    earlier when the chain ends on x^{sigma1,(0,0)}, which the quotient
    already kills."""
    ((be, jj),) = x.terms
    k = jj[p - 1] + 1
    if be == SIGMA1 and jj[2 - p] == 0 and jj[p - 1] >= 1:
        k -= 1
    d = dv.make_dt1(spec) if p == 1 else dv.make_dt2(spec)
    return dv.nilpotence_degree(d, x, cap) == k


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


def _growth_witness(spec: AlgebraSpec, seed_ad: BasisIdx, cap: int) -> bool:
    be = seed_ad[0]
    probe = dv.local_finiteness_probe(
        dv.ad(reduce(spec, monomial(spec, *seed_ad))),
        reduce(spec, monomial(spec, be + be, (0, 0))),
        cap,
    )
    return isinstance(probe, dv.GrowthWitness)


def _reached_full_window(
    spec: AlgebraSpec, seed_elem: Element, K: int, L: int, depth: int
) -> Union[bool, str]:
    verdict: Union[ReachedFullWindow, Inconclusive] = simplicity_probe(
        spec, seed_elem, K, L, depth
    )
    if isinstance(verdict, ReachedFullWindow):
        return True
    return f"missing {len(verdict.missing)} of {len(enumerate_window(spec, K, L))}"


class Check(NamedTuple):
    """One named check: holds(spec, **inputs) returns True when it passes,
    and False, or the failure's detail string, when it fails; fields maps
    each recorded input to its codec."""

    holds: Callable[..., Union[bool, str]]
    fields: dict[str, Codec]


def _holds(entry: Check, spec: AlgebraSpec, inputs: dict) -> Union[bool, str]:
    """entry.holds on the inputs; a predicate that raises AlgebraError or
    LatticeError fails, with the exception as its detail."""
    try:
        return entry.holds(spec, **inputs)
    except (AlgebraError, LatticeError) as e:
        return f"{type(e).__name__}: {e}"


CHECKS: dict[str, Check] = {
    "jacobi": Check(_jacobi, dict(u=ELEMENT, v=ELEMENT, w=ELEMENT)),
    "bracket_vs_odot": Check(_bracket_vs_odot, dict(u=ELEMENT, v=ELEMENT)),
    "antisymmetry": Check(_antisymmetry, dict(u=ELEMENT, v=ELEMENT)),
    "same_degree_closed_form": Check(
        _same_degree_closed_form, dict(beta=VECTOR, j=INDEX, k=INDEX)
    ),
    "top_term_coeff": Check(_top_term_coeff, dict(u=MONOMIAL, v=MONOMIAL)),
    "top_term_coeff_pi1_zero": Check(_top_term_coeff_pi1_zero, dict(u=MONOMIAL, v=MONOMIAL)),
    "sigma2_closure": Check(_sigma2_closure, dict(u=ELEMENT, v=ELEMENT)),
    "sigma1_central": Check(_sigma1_central, dict(v=MONOMIAL)),
    "identity_bracket": Check(_identity_bracket, dict(v=MONOMIAL)),
    "derivation_law": Check(_derivation_law, dict(der=DERIVATION, u=ELEMENT, v=ELEMENT)),
    "homogeneity": Check(_homogeneity, dict(der=DERIVATION, alpha=VECTOR, K=INT, L=INT)),
    "extension_ad": Check(_extension_ad, dict(der=DERIVATION, x=MONOMIAL)),
    "dt1_identity": Check(_dt1_identity, dict(x=ELEMENT)),
    "round_trip": Check(_round_trip, dict(a=RATIONAL, b=RATIONAL)),
    "moduli_match": Check(_moduli_match, dict(a=RATIONAL, b=RATIONAL)),
    "psi_law": Check(_psi_law, dict(a=RATIONAL, b=RATIONAL, u=ELEMENT, v=ELEMENT)),
    "j_flip": Check(
        lambda spec, j2: _rejected(spec, spec_validate(spec.gamma, j2), iso.J_MISMATCH),
        dict(j2=J_PAIR),
    ),
    "pi1_rigidity": Check(
        lambda spec, gamma_b: _rejected(
            spec, spec_validate(gamma_b, spec.j), iso.PI1_ZERO_RIGIDITY
        ),
        dict(gamma_b=LATTICE),
    ),
    "h_mutation": Check(
        lambda spec, gamma_b: _rejected(
            spec, spec_validate(gamma_b, spec.j), iso.LATTICE_INVARIANT_MISMATCH
        ),
        dict(gamma_b=LATTICE),
    ),
    "dt2_nilpotence": Check(partial(_nilpotence, 2), dict(x=ELEMENT, cap=INT)),
    "dt1_nilpotence": Check(partial(_nilpotence, 1), dict(x=ELEMENT, cap=INT)),
    "ad_growth_law": Check(  # _growth_law_holds is looked up per call, so it can be patched
        lambda spec, seed_ad, kmax=5: _growth_law_holds(spec, seed_ad, kmax),
        dict(seed_ad=MONOMIAL, kmax=INT),
    ),
    "growth_witness": Check(_growth_witness, dict(seed_ad=MONOMIAL, cap=INT)),
    "dmu_closure": Check(
        lambda spec, der, x, cap: dv.local_finiteness_probe(der, x, cap) == dv.ClosureDim(1),
        dict(der=DERIVATION, x=ELEMENT, cap=INT),
    ),
    "ad1_closure": Check(
        lambda spec, x, cap: isinstance(
            dv.local_finiteness_probe(dv.ad(one(spec)), x, cap), dv.ClosureDim
        ),
        dict(x=ELEMENT, cap=INT),
    ),
    "reached_full_window": Check(
        _reached_full_window, dict(seed_elem=ELEMENT, K=INT, L=INT, depth=INT)
    ),
}


# ---------------------------------------------------------------- suites
#
# Each suite body runs its checks on run (its _Run) with the generator rng;
# all take the same parameters, and each reads the ones it uses.

def _suite_jacobi(
    run: _Run, rng: Random, trials: int, k_bound: int, level_cap: int, depth: int, cap: int
) -> None:
    """Exact Jacobi identity on sampled triples."""
    spec = run.spec
    window = enumerate_window(spec, k_bound, level_cap)
    for _ in range(trials):
        u = sample_element(rng, spec, window)
        v = sample_element(rng, spec, window)
        w = sample_element(rng, spec, window)
        run.evaluate("jacobi", u=u, v=v, w=w)


def _suite_bracket(
    run: _Run, rng: Random, trials: int, k_bound: int, level_cap: int, depth: int, cap: int
) -> None:
    """bracket vs the odot route, antisymmetry, special-case oracles,
    pre-quotient centrality of x^{sigma1,0}, simple-part closure."""
    spec = run.spec
    window = enumerate_window(spec, k_bound, level_cap)
    idxs = window_indices(spec, level_cap)
    for _ in range(trials):
        u = sample_element(rng, spec, window)
        v = sample_element(rng, spec, window)
        run.evaluate("bracket_vs_odot", u=u, v=v)
        run.evaluate("antisymmetry", u=u, v=v)
    n_special = max(1, trials // 3)
    ker_gen = next((b for b in spec.gamma.basis if b.c1 == 0), None)
    for _ in range(n_special):
        m = rng.randint(-3, 3)
        be = ker_gen.scale(Fraction(m)) if ker_gen is not None else _DEG0
        jj = idxs[rng.randrange(len(idxs))]
        kk = idxs[rng.randrange(len(idxs))]
        run.evaluate("same_degree_closed_form", beta=be, j=jj, k=kk)
        b1 = window[rng.randrange(len(window))]
        b2 = window[rng.randrange(len(window))]
        run.evaluate("top_term_coeff", u=b1, v=b2)
        if spec.gamma.proj_generator(1) == 0:
            run.evaluate("top_term_coeff_pi1_zero", u=b1, v=b2)
        if spec.simple_part:
            u = sample_element(rng, spec, window)
            v = sample_element(rng, spec, window)
            run.evaluate("sigma2_closure", u=u, v=v)
    if spec.has_sigma1:
        for b in window:
            run.evaluate("sigma1_central", v=b)
    for b in window:
        run.evaluate("identity_bracket", v=b)


# the named derivations with their degrees, in the order the suite runs them
_NAMED_DERIVATIONS = (
    (dv.make_d1, SIGMA1),
    (dv.make_d1bar, SIGMA1),
    (dv.make_d2, SIGMA2),
    (dv.make_dt1, _DEG0),
    (dv.make_dt2, _DEG0),
)


def _suite_derivations(
    run: _Run, rng: Random, trials: int, k_bound: int, level_cap: int, depth: int, cap: int
) -> None:
    """Leibniz law for every constructor, degree homogeneity, agreement of
    d1/d1bar/d2 with inner derivations of the J = N x N extension, and
    dt1 = ad(1) - d_{pi1}."""
    spec = run.spec
    window = enumerate_window(spec, k_bound, level_cap)
    named: list[tuple[dv.Derivation, Vec2]] = []
    for make, deg in _NAMED_DERIVATIONS:
        try:
            named.append((make(spec), deg))
        except dv.UndefinedInThisAlgebra:
            pass
    ders: list[tuple[dv.Derivation, Optional[Vec2]]] = list(named)
    if spec.gamma.rank:
        vals = tuple(COEFF_POOL[rng.randrange(len(COEFF_POOL))] for _ in range(spec.gamma.rank))
        ders.append((dv.make_dmu(spec, GroupHom(spec.gamma, vals)), _DEG0))
    for _ in range(2):
        ders.append((dv.ad(sample_nonzero(rng, spec, window)), None))
    for d, deg in ders:
        for _ in range(trials):
            u = sample_element(rng, spec, window)
            v = sample_element(rng, spec, window)
            run.evaluate("derivation_law", der=d, u=u, v=v)
        if deg is not None:
            run.evaluate("homogeneity", der=d, alpha=deg, K=k_bound, L=level_cap)
    for d, deg in named:
        if not deg.is_zero():  # d1, d1bar, d2
            for b in window:
                run.evaluate("extension_ad", der=d, x=b)
    if spec.j.nat(1):
        for b in window:
            run.evaluate("dt1_identity", x=reduce(spec, monomial(spec, *b)))


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
        if not _iso_image(spec, a, b).witt_degenerate:
            return iso.IsoParams(a, b)


def _suite_iso(
    run: _Run, rng: Random, trials: int, k_bound: int, level_cap: int, depth: int, cap: int
) -> None:
    """Round-trip decide_iso on transformed lattices, psi homomorphism spot
    checks, moduli_key agreement, and invariant-breaking mutations.  Refuses
    (WittDegenerate) a spec outside the classification, as decide_iso does."""
    spec_a = run.spec
    iso._refuse_witt_degenerate(spec_a)
    window = enumerate_window(spec_a, 2, 2)
    for _ in range(trials):
        p = _sample_iso_params(rng, spec_a)
        run.evaluate("round_trip", a=p.a, b=p.b)
        verdict = iso.decide_iso(spec_a, _iso_image(spec_a, p.a, p.b))
        if not isinstance(verdict, iso.Found):
            continue
        run.evaluate("moduli_match", a=p.a, b=p.b)
        u = sample_element(rng, spec_a, window)
        v = sample_element(rng, spec_a, window)
        run.evaluate("psi_law", a=verdict.params.a, b=verdict.params.b, u=u, v=v)
    # mutations: each must be rejected for the right reason
    flips = [j for j in _valid_j_options(spec_a.gamma) if j != spec_a.j]
    if flips:
        run.evaluate("j_flip", j2=flips[0])
    lat = spec_a.gamma
    if lat.proj_generator(1) == 0 and lat.rank == 1:
        other = lattice_new([Vec2(Fraction(0), lat.basis[0].c2 + 1)])
        try:
            spec_validate(other, spec_a.j)
        except Condition11Violated:
            other = None
        if other is not None:
            run.evaluate("pi1_rigidity", gamma_b=other)
    elif lat.rank == 2:
        b1, b2 = lat.basis
        run.evaluate("h_mutation", gamma_b=lattice_new([b1, Vec2(b2.c1, b2.c2 + 1)]))


def _suite_locality(
    run: _Run, rng: Random, trials: int, k_bound: int, level_cap: int, depth: int, cap: int
) -> None:
    """Nilpotence degrees of dt1/dt2, the inner growth witness with its
    leading-coefficient law, and finite-closure verdicts for d_mu and ad(1)."""
    spec = run.spec
    window = enumerate_window(spec, 2, min(3, max(0, cap - 2)))
    xs = [reduce(spec, monomial(spec, *b)) for b in window]  # none is zero
    for p in (2, 1):
        if spec.j.nat(p):
            for x in xs:
                run.evaluate(f"dt{p}_nilpotence", x=x, cap=cap)
    degs = [b for b in window if b[0].c1 != 0]
    rng.shuffle(degs)
    kmax = min(5, cap)
    for b in degs[:4]:
        run.evaluate("ad_growth_law", seed_ad=b, kmax=kmax)
        run.evaluate("growth_witness", seed_ad=b, cap=cap)
    if spec.gamma.rank:
        vals = tuple(COEFF_POOL[rng.randrange(len(COEFF_POOL))] for _ in range(spec.gamma.rank))
        d = dv.make_dmu(spec, GroupHom(spec.gamma, vals))
        for x in xs[:20]:
            run.evaluate("dmu_closure", der=d, x=x, cap=cap)
    for x in xs[:20]:
        run.evaluate("ad1_closure", x=x, cap=cap)


def _suite_simplicity(
    run: _Run, rng: Random, trials: int, k_bound: int, level_cap: int, depth: int, cap: int
) -> None:
    """Each trial seeds the closure probe with a random nonzero element; the
    trials are clamped to 1..SIMPLICITY_MAX_TRIALS."""
    spec = run.spec
    window = enumerate_window(spec, k_bound, level_cap)
    for _ in range(max(1, min(trials, SIMPLICITY_MAX_TRIALS))):
        u = sample_nonzero(rng, spec, window)
        run.evaluate("reached_full_window", seed_elem=u, K=k_bound, L=level_cap, depth=depth)


SUITES: dict[str, Callable[..., None]] = {
    "jacobi": _suite_jacobi,
    "bracket": _suite_bracket,
    "derivations": _suite_derivations,
    "iso": _suite_iso,
    "locality": _suite_locality,
    "simplicity": _suite_simplicity,
}


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
    """Run the suite SUITES[name] on spec, sampling with Random(seed)."""
    body = SUITES.get(name)
    if body is None:
        raise AlgebraError(f"unknown suite {name!r}")
    run = _Run(name, spec, seed)
    body(run, Random(seed), trials, k_bound, level_cap, depth, cap)
    return run.report()


# ------------------------------------------------------- reproduction

def rerun_failure(spec: AlgebraSpec, record: FailureRecord) -> bool:
    """Re-execute the failed check on its recorded literal inputs: decode
    them with the check's codecs and call its predicate from CHECKS.

    Returns the check outcome (True = passes now).  A genuine failure record
    reproduces as False, as does a predicate that raises AlgebraError or
    LatticeError; a one-term literal that reduces to zero in B leaves nothing
    to check and replays as True.
    """
    entry = CHECKS.get(record.check)
    if entry is None:
        raise AlgebraError(f"no reproduction handler for check {record.check!r}")
    inputs = {k: entry.fields[k].parse(spec, text) for k, text in record.inputs}
    if any(x is None for x in inputs.values()):
        return True
    return _holds(entry, spec, inputs) is True
