"""Deciding B(Gamma, J) isomorphic to B(Gamma', J') and the structure space.

Two such algebras are isomorphic iff J = J' and some shear-scale map
phi(b1, b2) = (a*b1, b2 + b*b1), a != 0, carries Gamma onto Gamma', where b
is forced to 0 when J = (N, {0}).  When pi1(Gamma) = {0} every phi fixes
Gamma pointwise, so isomorphy degenerates to (Gamma, J) = (Gamma', J')
(rigidity).  The algebra map realizing phi is

    psi(x^{b,j}) = a^{-1} sum_k C(j1, k) a^k b^{j1-k} x'^{phi(b), (k, j1-k+j2)}

which collapses to a^{j1-1} x'^{phi(b), j} when b = 0.  decide_iso computes
parameters from echelon data and re-verifies every positive verdict with
phi_check before returning it.

phi_apply, phi_inverse_apply and phi_check state phi in Fractions.  psi_apply
runs on the elements' scaled integer form (see core): psi is compiled once per
(params, spec_a, spec_b), checking phi with phi_check at construction, into
an integer degree map on scaled keys and, per level j1, the binomial row
C(j1, k) a^{k-1} b^{j1-k} as integer numerators over one denominator.

The structure space keys isomorphism classes: moduli_key(spec) = (i, D)
where i in 1..4 numbers J = {0}x{0}, Nx{0}, {0}xN, NxN and D is the lattice
orbit descriptor under G1 (i = 1, 3, 4) or the scale-only G2 (i = 2, where
b is forced to 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from typing import Iterable, Optional, Sequence, Union

from .lattice import CanonicalDescriptor, Vec2, canonical_form, map_lattice
from .core import (
    AlgebraError,
    AlgebraSpec,
    BasisIdx,
    Element,
    J_NAT_ZERO,
    ScaledKey,
    _reduced,
    _valid_index,
    bracket,
    index_key,
    monomial,
    reduce,
)

_F0 = Fraction(0)
_F1 = Fraction(1)


class PhiCheckFailed(AlgebraError):
    pass


class WittDegenerate(AlgebraError):
    pass


@dataclass(frozen=True)
class IsoParams:
    a: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        if not self.a:
            raise AlgebraError("a must be nonzero")


@dataclass(frozen=True)
class Found:
    params: IsoParams


@dataclass(frozen=True)
class NotIsomorphic:
    reason: str  # j_mismatch | pi1_zero_rigidity | lattice_invariant_mismatch


IsoVerdict = Union[Found, NotIsomorphic]

J_MISMATCH = "j_mismatch"
PI1_ZERO_RIGIDITY = "pi1_zero_rigidity"
LATTICE_INVARIANT_MISMATCH = "lattice_invariant_mismatch"


def phi_apply(params: IsoParams, v: Vec2) -> Vec2:
    return Vec2(params.a * v.c1, v.c2 + params.b * v.c1)


def phi_inverse_apply(params: IsoParams, v: Vec2) -> Vec2:
    return Vec2(v.c1 / params.a, v.c2 - params.b * v.c1 / params.a)


def phi_check(params: IsoParams, spec_a: AlgebraSpec, spec_b: AlgebraSpec) -> bool:
    """True iff params witness the isomorphism conditions for the two specs."""
    if spec_a.j != spec_b.j:
        return False
    if spec_a.j == J_NAT_ZERO and params.b:
        return False
    la, lb = spec_a.gamma, spec_b.gamma
    if any(not lb.contains(phi_apply(params, v)) for v in la.basis):
        return False
    if any(not la.contains(phi_inverse_apply(params, w)) for w in lb.basis):
        return False
    return True


class _IsoMap:
    """psi for one (params, spec_a, spec_b), on scaled integer keys.

    With D, D' the common denominators of Gamma and Gamma', phi sends the
    scaled degree S = D beta to T = D' phi(beta) = (m11 S1, m21 S1 + m22 S2)/m,
    an integer pair whenever phi maps Gamma into Gamma'.  The row of level j1
    is (den, [(k, n_k)]) with n_k / den = C(j1, k) a^{k-1} b^{j1-k}, kept for
    the k whose index (k, j1 - k) is valid for J; rows are built on first use.
    _iso_map shares one map among equal specs, so the map holds no spec:
    apply takes the caller's target spec, and its result carries it.
    """

    __slots__ = ("_params", "_deg", "_rows")

    def __init__(self, params: IsoParams, spec_a: AlgebraSpec, spec_b: AlgebraSpec):
        if not phi_check(params, spec_a, spec_b):
            raise PhiCheckFailed(f"{params} does not map the source onto the target")
        r = Fraction(spec_b.gamma.den, spec_a.gamma.den)
        xs = (r * params.a, r * params.b, r)
        m = lcm(*(x.denominator for x in xs))
        self._deg = tuple(int(x * m) for x in xs) + (m,)
        self._params = params
        self._rows: dict[int, tuple[int, list[tuple[int, int]]]] = {}

    def _row(self, j1: int, spec_b: AlgebraSpec) -> tuple[int, list[tuple[int, int]]]:
        row = self._rows.get(j1)
        if row is None:
            a, b = Fraction(self._params.a), Fraction(self._params.b)
            cs = [
                (k, comb(j1, k) * a ** (k - 1) * b ** (j1 - k))
                for k in range(j1 + 1)
                if _valid_index(spec_b, (k, j1 - k))
            ]
            den = lcm(*(c.denominator for _, c in cs))
            row = self._rows[j1] = (
                den, [(k, c.numerator * (den // c.denominator)) for k, c in cs if c]
            )
        return row

    def apply(self, u: Element, spec_b: AlgebraSpec) -> Element:
        """psi(u) as an element of spec_b, summed in integers."""
        t = u._ints
        rows = {j1: self._row(j1, spec_b) for j1 in {key[2] for key in t}}
        den = lcm(*(d for d, _ in rows.values()))
        coeffs = {j1: [(k, n * (den // d)) for k, n in row] for j1, (d, row) in rows.items()}
        m11, m21, m22, m = self._deg
        out: dict[ScaledKey, int] = {}
        get = out.get
        for (s1, s2, j1, j2), n in t.items():
            t1, r1 = divmod(m11 * s1, m)
            t2, r2 = divmod(m21 * s1 + m22 * s2, m)
            if r1 or r2:
                raise AlgebraError("internal: phi left the target lattice")
            for k, c in coeffs[j1]:
                key = (t1, t2, k, j1 - k + j2)
                out[key] = get(key, 0) + c * n
        return _reduced(spec_b, out, u._den * den)


# lru_cache does not cache the PhiCheckFailed of a bad witness: it is raised
# on every call
_iso_map = lru_cache(maxsize=64)(_IsoMap)


def psi_apply(
    params: IsoParams, spec_a: AlgebraSpec, spec_b: AlgebraSpec, u: Element
) -> Element:
    """Image of u under the algebra isomorphism attached to params."""
    if u.spec != spec_a:
        raise AlgebraError("element does not belong to the source algebra")
    return _iso_map(params, spec_a, spec_b).apply(u, spec_b)


@dataclass
class PsiReport:
    pairs_checked: int
    failures: list  # (u, v) pairs where psi[u,v] != [psi u, psi v]
    triangular_ok: Optional[bool]  # None when no window was supplied

    @property
    def ok(self) -> bool:
        return not self.failures and self.triangular_ok is not False


def psi_check(
    params: IsoParams,
    spec_a: AlgebraSpec,
    spec_b: AlgebraSpec,
    pairs: Iterable[tuple[Element, Element]],
    window: Optional[Sequence[BasisIdx]] = None,
) -> PsiReport:
    """Exact homomorphism check psi[u,v] = [psi u, psi v] on each pair, plus
    (when a window is given) injectivity evidence: on each graded component
    psi is index-triangular with diagonal entries a^{j1-1} != 0."""
    checked = 0
    failures = []
    for u, v in pairs:
        checked += 1
        lhs = psi_apply(params, spec_a, spec_b, bracket(u, v))
        rhs = bracket(
            psi_apply(params, spec_a, spec_b, u),
            psi_apply(params, spec_a, spec_b, v),
        )
        if lhs != rhs:
            failures.append((u, v))
    tri: Optional[bool] = None
    if window is not None:
        tri = True
        a = params.a
        for be, jj in window:
            x = reduce(spec_a, monomial(spec_a, be, jj))
            if x.is_zero():
                continue
            w = psi_apply(params, spec_a, spec_b, x)
            image = phi_apply(params, be)
            diag = w.coeff(image, jj)
            if diag != a ** (jj[0] - 1):
                tri = False
                break
            for (al, kk), _c in w.terms.items():
                if al != image or (kk != jj and index_key(kk) >= index_key(jj)):
                    tri = False
                    break
            if tri is False:
                break
    return PsiReport(checked, failures, tri)


def _verified(params: IsoParams, spec_a: AlgebraSpec, spec_b: AlgebraSpec) -> Found:
    if not phi_check(params, spec_a, spec_b):
        raise AlgebraError(f"internal: candidate {params} failed re-verification")
    return Found(params)


def _refuse_witt_degenerate(spec: AlgebraSpec) -> None:
    """The classification (and so decide_iso and moduli_key) assumes
    pi2(Gamma) != {0} or J2 = N; outside it B(Gamma, J) is a rank-one Witt
    algebra, for which neither the verdicts nor the keys are claimed."""
    if spec.witt_degenerate:
        raise WittDegenerate(
            "pi2(Gamma) and J2 both trivial: outside the classification"
        )


def decide_iso(spec_a: AlgebraSpec, spec_b: AlgebraSpec) -> IsoVerdict:
    """Decide isomorphy from echelon data; Found verdicts are re-verified.

    Refuses (WittDegenerate) exactly where moduli_key does, on either spec.
    """
    _refuse_witt_degenerate(spec_a)
    _refuse_witt_degenerate(spec_b)
    if spec_a.j != spec_b.j:
        return NotIsomorphic(J_MISMATCH)
    la, lb = spec_a.gamma, spec_b.gamma
    ca, cb = la.proj_generator(1), lb.proj_generator(1)
    if not ca or not cb:
        # phi fixes the y-axis pointwise; only equal lattices qualify
        if not ca and not cb and la == lb:
            return _verified(IsoParams(_F1, _F0), spec_a, spec_b)
        return NotIsomorphic(PI1_ZERO_RIGIDITY)
    if la.rank != lb.rank:
        return NotIsomorphic(LATTICE_INVARIANT_MISMATCH)
    c, s = la.basis[0]
    c2, s2 = lb.basis[0]
    if la.rank == 2 and la.basis[1].c2 != lb.basis[1].c2:
        return NotIsomorphic(LATTICE_INVARIANT_MISMATCH)
    if spec_a.j == J_NAT_ZERO:
        # scale only: the pivot pins |a|, then test both signs outright
        for a in (c2 / c, -c2 / c):
            if map_lattice(a, _F0, la) == lb:
                return _verified(IsoParams(a, _F0), spec_a, spec_b)
        return NotIsomorphic(LATTICE_INVARIANT_MISMATCH)
    a = c2 / c
    b = (s2 - s) / c
    return _verified(IsoParams(a, b), spec_a, spec_b)


def moduli_key(spec: AlgebraSpec) -> tuple[int, CanonicalDescriptor]:
    """Structure-space key: equal keys iff isomorphic algebras (classified region)."""
    _refuse_witt_degenerate(spec)
    i = {("0", "0"): 1, ("N", "0"): 2, ("0", "N"): 3, ("N", "N"): 4}[
        (spec.j.j1, spec.j.j2)
    ]
    group = "G2" if i == 2 else "G1"
    return (i, canonical_form(spec.gamma, group))


def verdict_as_dict(v: IsoVerdict) -> dict:
    if isinstance(v, Found):
        return {"verdict": "found", "a": str(v.params.a), "b": str(v.params.b)}
    return {"verdict": "not_isomorphic", "reason": v.reason}
