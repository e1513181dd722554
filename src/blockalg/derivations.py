"""Derivations of B(Gamma, J): inner parts and the named outer generators.

Every derivation handled here is a sum

    ad_u + d_mu + f1*d1 + f2*d1bar + f3*d2 + f4*dt2 + f5*dt1

with u an element, mu an additive map Gamma -> Q, and the named maps acting
on basis symbols by

    d1:    x^{b,j} -> -b1 x^{s1+b, j} - j1 x^{s1+b, j-1_[1]}     (s1 in Gamma, J2 = {0})
    d1bar: x^{b,j} -> (b2-1) x^{s1+b, j} + j2 x^{s1+b, j-1_[2]}  (s1 in Gamma, J1 = {0})
    d2:    x^{b,0} -> -b1 x^{s2+b, 0}                            (s2 in Gamma, J = {0}x{0})
    d_mu:  x^{b,j} -> mu(b) x^{b,j}
    dt2:   x^{b,j} -> j2 x^{b, j-1_[2]}                          (J2 = N)
    dt1:   x^{b,j} -> j1 x^{b, j-1_[1]}                          (J1 = N)

d1, d1bar and d2 are the restrictions to B of inner derivations of the
J = N x N extension algebra by x^{s1,1_[2]}, x^{s1,1_[1]} and x^{s2,0}; dt1
equals ad(1) - d_{pi1}.  Requesting a map outside its definedness condition
raises UndefinedInThisAlgebra unless permissive=True, which substitutes the
zero derivation.

_NAMED_MAPS is the one place the named maps are defined: per map its literal
atom, its Derivation field, its definedness rule and refusal reason, its
degree shift and its rows.  Derivation, named() and the make_* constructors,
apply and the literal grammar of blockalg.literals all read it.  A
Derivation compiles once, on its first apply, into an integer kernel kept out
of ==, hash and repr; apply sums core.bracket_scaled and core.map_scaled on
it into one integer dict and reduces once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Callable, Iterable, Optional, Sequence, Union

from .lattice import GroupHom, Vec2
from .core import (
    NAT,
    ZERO,
    AlgebraError,
    AlgebraSpec,
    BasisIdx,
    Element,
    Span,
    SpecMismatch,
    _reduced,
    bracket,
    bracket_scaled,
    map_scaled,
    monomial,
    rat,
    reduce,
    zero,
)

_F0 = Fraction(0)
_F1 = Fraction(1)


class UndefinedInThisAlgebra(AlgebraError):
    def __init__(self, name: str, reason: str):
        self.name = name
        self.reason = reason
        super().__init__(f"{name} undefined here: {reason}")


# One row per named map, in the order of Derivation's fields f1..f5: (literal
# atom, field, defined(spec), reason for refusal, degree shift (sigma1 is
# (0, 1), sigma2 (0, 2)), rows), transcribed from the module docstring.  A row
# (e, (c1, c2, c3, c4, c0)) sends x^{b,j} to (c1 b1 + c2 b2 + c3 j1 + c4 j2
# + c0) x^{b + shift, j + e}, compiled by _merged_rows; a row that lowers j_p
# has the form j_p, so it emits no negative index.
_NAMED_MAPS = (
    ("d1", "f1", lambda s: s.has_sigma1 and s.j.j2 == ZERO,
     "needs sigma1 in Gamma and J2 = {0}", (0, 1),
     (((0, 0), (-1, 0, 0, 0, 0)), ((-1, 0), (0, 0, -1, 0, 0)))),
    ("d1bar", "f2", lambda s: s.has_sigma1 and s.j.j1 == ZERO,
     "needs sigma1 in Gamma and J1 = {0}", (0, 1),
     (((0, 0), (0, 1, 0, 0, -1)), ((0, -1), (0, 0, 0, 1, 0)))),
    ("d2", "f3", lambda s: s.has_sigma2 and s.j.j1 == ZERO and s.j.j2 == ZERO,
     "needs sigma2 in Gamma and J = {0}x{0}", (0, 2),
     (((0, 0), (-1, 0, 0, 0, 0)),)),
    ("dt2", "f4", lambda s: s.j.j2 == NAT, "needs J2 = N", (0, 0),
     (((0, -1), (0, 0, 0, 1, 0)),)),
    ("dt1", "f5", lambda s: s.j.j1 == NAT, "needs J1 = N", (0, 0),
     (((-1, 0), (0, 0, 1, 0, 0)),)),
)


def _merged_rows(dd, maps) -> tuple:
    """core.map_scaled rows of the sum of k times each map (k, shift, rows),
    at scale dd = gamma.den (dd and k may be symbols): a row's form times k dd
    in (B1, B2, j1, j2, 1), B = dd b, summed per shift and e, zeros dropped."""
    merged: dict = {}
    for k, (s1, s2), rows in maps:
        for (e1, e2), (c1, c2, c3, c4, c0) in rows:
            form = (k * c1, k * c2, k * dd * c3, k * dd * c4, k * dd * c0)
            key = (dd * s1, dd * s2, e1, e2)
            merged[key] = tuple(a + b for a, b in zip(merged.get(key, (0,) * 5), form))
    return tuple(key + form for key, form in merged.items() if any(form))


@dataclass(frozen=True)
class Derivation:
    """Formal combination of an inner part, a d_mu part and the named maps.

    f1, f2, f3, f4, f5 are the coefficients of d1, d1bar, d2, dt2, dt1;
    each may be nonzero only where the corresponding map is defined.
    """

    spec: AlgebraSpec
    inner: Element
    mu: Optional[GroupHom] = None
    f1: Fraction = _F0
    f2: Fraction = _F0
    f3: Fraction = _F0
    f4: Fraction = _F0
    f5: Fraction = _F0

    def __post_init__(self) -> None:
        s = self.spec
        if self.inner.spec != s:
            raise SpecMismatch("inner element belongs to a different algebra")
        if self.mu is not None and self.mu.lattice != s.gamma:
            raise SpecMismatch("mu is defined on a different lattice")
        for atom, field, defined, reason, _, _ in _NAMED_MAPS:
            if getattr(self, field) and not defined(s):
                raise UndefinedInThisAlgebra(atom, reason)

    @cached_property
    def _kernel(self) -> tuple:
        """(D, inner terms, rows, D L), D = gamma.den: apply(d, v) sums
        bracket_scaled and map_scaled on them over den(v) D L, with L the lcm
        of den(inner) D and the maps' coefficient denominators, d_mu's too."""
        dd = self.spec.gamma.den
        maps = [(rat(getattr(self, f)), s, r) for _, f, _, _, s, r in _NAMED_MAPS]
        if self.mu is not None:
            # mu(b) = l1 b1 + l2 b2: d_mu is 1/m times the row (m l1, m l2, 0, 0, 0)
            l1, l2 = self.mu.linear_form()
            m = lcm(l1.denominator, l2.denominator)
            row = ((0, 0), (int(l1 * m), int(l2 * m), 0, 0, 0))
            maps.append((Fraction(1, m), (0, 0), (row,)))
        u = self.inner
        du = u._den * dd
        ell = lcm(du, *(f.denominator for f, _, _ in maps))  # L
        inner = [k + (n * (ell // du),) for k, n in u._ints.items()]
        maps = [(f.numerator * (ell // f.denominator), s, r) for f, s, r in maps if f]
        return dd, inner, _merged_rows(dd, maps), dd * ell

    def __add__(self, other: "Derivation") -> "Derivation":
        if self.spec != other.spec:
            raise SpecMismatch("derivations on different algebras")
        return Derivation(
            self.spec,
            self.inner + other.inner,
            _mu_add(self.mu, other.mu),
            **{f: getattr(self, f) + getattr(other, f) for _, f, *_ in _NAMED_MAPS},
        )

    def __sub__(self, other: "Derivation") -> "Derivation":
        return self + (-1) * other

    def __rmul__(self, r) -> "Derivation":
        r = rat(r)
        mu = self.mu
        if mu is not None:
            mu = GroupHom(mu.lattice, tuple(r * v for v in mu.values))
            if not any(mu.values):
                mu = None
        return Derivation(
            self.spec,
            r * self.inner,
            mu,
            **{f: r * getattr(self, f) for _, f, *_ in _NAMED_MAPS},
        )

    __mul__ = __rmul__

    def __neg__(self) -> "Derivation":
        return (-1) * self


def _mu_add(a: Optional[GroupHom], b: Optional[GroupHom]) -> Optional[GroupHom]:
    if a is None:
        return b
    if b is None:
        return a
    vals = tuple(x + y for x, y in zip(a.values, b.values))
    return GroupHom(a.lattice, vals) if any(vals) else None


def zero_derivation(spec: AlgebraSpec) -> Derivation:
    return Derivation(spec, zero(spec))


def ad(u: Element) -> Derivation:
    return Derivation(u.spec, u)


def make_dmu(spec: AlgebraSpec, mu: GroupHom) -> Derivation:
    return Derivation(spec, zero(spec), mu=mu)


def named(spec: AlgebraSpec, atom: str, permissive: bool = False) -> Derivation:
    """The named map of _NAMED_MAPS with literal `atom`, coefficient 1.

    Where it is undefined: the zero derivation if permissive, else the
    UndefinedInThisAlgebra that Derivation raises.
    """
    field = next(f for a, f, *_ in _NAMED_MAPS if a == atom)
    try:
        return Derivation(spec, zero(spec), **{field: _F1})
    except UndefinedInThisAlgebra:
        if permissive:
            return zero_derivation(spec)
        raise


def make_d1(spec: AlgebraSpec, permissive: bool = False) -> Derivation:
    return named(spec, "d1", permissive)


def make_d1bar(spec: AlgebraSpec, permissive: bool = False) -> Derivation:
    return named(spec, "d1bar", permissive)


def make_d2(spec: AlgebraSpec, permissive: bool = False) -> Derivation:
    return named(spec, "d2", permissive)


def make_dt2(spec: AlgebraSpec, permissive: bool = False) -> Derivation:
    return named(spec, "dt2", permissive)


def make_dt1(spec: AlgebraSpec, permissive: bool = False) -> Derivation:
    return named(spec, "dt1", permissive)


def apply(d: Derivation, v: Element) -> Element:
    """Value of the derivation on v, as a reduced element of B."""
    spec = d.spec
    if spec is not v.spec and spec != v.spec:
        raise SpecMismatch("element belongs to a different algebra")
    dd, inner, rows, den = d._kernel
    terms = v._ints
    acc = bracket_scaled(dd, inner, [k + (n,) for k, n in terms.items()]) if inner else {}
    return _reduced(spec, map_scaled(rows, terms.items(), acc), v._den * den)


Operator = Union[Derivation, Callable[[Element], Element]]


def _as_callable(d: Operator) -> Callable[[Element], Element]:
    if isinstance(d, Derivation):
        return lambda w: apply(d, w)
    return d


@dataclass
class LawReport:
    checked: int
    failures: list  # list of (u, v) pairs violating the Leibniz law

    @property
    def ok(self) -> bool:
        return not self.failures


def check_derivation_law(d: Operator, pairs: Iterable[tuple[Element, Element]]) -> LawReport:
    """Check D[u,v] = [Du,v] + [u,Dv] exactly on each pair."""
    f = _as_callable(d)
    checked = 0
    failures = []
    for u, v in pairs:
        checked += 1
        lhs = f(bracket(u, v))
        rhs = bracket(f(u), v) + bracket(u, f(v))
        if lhs != rhs:
            failures.append((u, v))
    return LawReport(checked, failures)


def is_homogeneous(d: Derivation, alpha: Vec2, window: Sequence[BasisIdx]) -> bool:
    """True iff D maps each window basis element into degree alpha + beta."""
    for be, jj in window:
        x = reduce(d.spec, monomial(d.spec, be, jj))
        if x.is_zero():
            continue
        target = alpha + be
        if any(k[0] != target for k in apply(d, x).terms):
            return False
    return True


def nilpotence_degree(d: Derivation, v: Element, cap: int) -> Optional[int]:
    """Least k <= cap with D^k(v) = 0, or None when the cap is exceeded.

    D^1(0) = 0, so nilpotence_degree(D, zero, cap) == 1 for any D.
    """
    w = v
    for k in range(1, cap + 1):
        w = apply(d, w)
        if w.is_zero():
            return k
    return None


@dataclass(frozen=True)
class TraceStep:
    step: int
    dim: int
    terms: int
    max_level: int


@dataclass(frozen=True)
class ClosureDim:
    dim: int


@dataclass(frozen=True)
class GrowthWitness:
    steps: int
    trace: tuple[TraceStep, ...]


def local_finiteness_probe(
    d: Derivation, v: Element, cap: int
) -> Union[ClosureDim, GrowthWitness]:
    """One-sided probe of local finiteness of D at v.

    Iterates v, D(v), D^2(v), ...  Once an iterate is linearly dependent on
    the earlier ones the cyclic span is D-invariant and finite-dimensional:
    ClosureDim(dim).  If cap+1 iterates stay independent the span escalated
    strictly at every step; that certificate (with a per-step trace) is
    returned as GrowthWitness.  Inner ad(x^{beta,i}) with beta_1 != 0 always
    ends this way: the k-th iterate of x^{2beta,0} has leading term
    k!*beta_1^k at degree (k+2)beta, index k*i.
    """
    span = Span()
    ids: dict = {}  # stored key -> column id
    trace: list[TraceStep] = []
    w = v
    for k in range(cap + 1):
        terms = w._ints
        if not span.add({ids.setdefault(key, len(ids)): n for key, n in terms.items()}):
            return ClosureDim(span.dim)
        lvl = max((i1 + i2 for _, _, i1, i2 in terms), default=0)
        trace.append(TraceStep(k, span.dim, len(terms), lvl))
        w = apply(d, w)
    return GrowthWitness(cap + 1, tuple(trace))


def pi_hom(spec: AlgebraSpec, p: int) -> GroupHom:
    """The coordinate projection pi_p as a hom on Gamma."""
    lat = spec.gamma
    return GroupHom(
        lat, tuple((b.c1 if p == 1 else b.c2) for b in lat.basis)
    )
