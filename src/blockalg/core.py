r"""Basis-indexed elements and the Lie bracket of the graded algebras B(Gamma, J).

Setup.  Gamma is a finitely generated subgroup of Q^2 and J = J1 x J2 with
J_p either {0} or N.  The commutative algebra A2 has basis x^{alpha,i} for
(alpha, i) in Gamma x J with x^{alpha,i} * x^{beta,j} = x^{alpha+beta,i+j},
and commuting derivations

    partial_p(x^{alpha,i}) = alpha_p x^{alpha,i} + i_p x^{alpha,i-1_[p]}

where any term whose exponent leaves Gamma x J (negative index entry, or a
positive entry in a {0}-coordinate) is read as zero.  The Lie bracket

    [u, v] = partial_1(u) partial_2(v) - partial_1(v) partial_2(u)
             + u partial_1(v) - v partial_1(u)

expands on basis elements to four coefficient lines (bracket_raw below).
With sigma1 = (0,1) and sigma2 = (0,2), x^{sigma1,0} is central, and
B(Gamma, J) is the quotient by its span.  When J = {0} x {0} and sigma2 lies
in Gamma the derived subalgebra is the span over Gamma \ {sigma1, sigma2}
("simple part"); reduce projects onto the retained basis.

One element type serves both the pre-quotient algebra A2 and the quotient B:
assoc_mul, partial and odot compute in A2 and never reduce; bracket reduces
its output.  u odot v = partial_1(u) * (partial_2(v) - v) recovers the
bracket as [u, v] = u odot v - v odot u and is kept as an independent route
for consistency checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Optional, Union

from .lattice import Lattice, Vec2, rat, vec

MultiIndex = tuple[int, int]
BasisIdx = tuple[Vec2, MultiIndex]

SIGMA1 = vec(0, 1)
SIGMA2 = vec(0, 2)

ZERO = "0"
NAT = "N"

_F0 = Fraction(0)
_F1 = Fraction(1)


class AlgebraError(ValueError):
    pass


class Condition11Violated(AlgebraError):
    def __init__(self, p: int):
        self.p = p
        super().__init__(
            f"projection {p} of Gamma is trivial while J{p} = {{0}}"
        )


class IndexOutsideGamma(AlgebraError):
    pass


class IndexOutsideJ(AlgebraError):
    pass


class SpecMismatch(AlgebraError):
    pass


@dataclass(frozen=True)
class JSpec:
    """The index semigroup choice: each coordinate is "0" ({0}) or "N" (N)."""

    j1: str
    j2: str

    def __post_init__(self) -> None:
        for v in (self.j1, self.j2):
            if v not in (ZERO, NAT):
                raise AlgebraError(f'J coordinates must be "0" or "N", got {v!r}')

    def nat(self, p: int) -> bool:
        return (self.j1 if p == 1 else self.j2) == NAT

    def __str__(self) -> str:
        return f"({self.j1},{self.j2})"


J_ZERO_ZERO = JSpec(ZERO, ZERO)
J_NAT_ZERO = JSpec(NAT, ZERO)
J_ZERO_NAT = JSpec(ZERO, NAT)
J_NAT_NAT = JSpec(NAT, NAT)


@dataclass(frozen=True)
class AlgebraSpec:
    gamma: Lattice
    j: JSpec
    has_sigma1: bool
    has_sigma2: bool
    simple_part: bool
    witt_degenerate: bool

    def summary(self) -> str:
        return (
            f"gamma={self.gamma} J={self.j}"
            f" sigma1={'in' if self.has_sigma1 else 'out'}"
            f" sigma2={'in' if self.has_sigma2 else 'out'}"
            f" simple={'yes' if self.simple_part else 'no'}"
            f" witt={'yes' if self.witt_degenerate else 'no'}"
        )


def spec_validate(gamma: Lattice, j: JSpec) -> AlgebraSpec:
    """Build an AlgebraSpec, deriving flags.

    A trivial first projection with J1 = {0} makes the bracket identically
    zero and is rejected.  A trivial second projection with J2 = {0} is the
    degenerate rank-one Witt case: permitted, flagged, excluded from the
    classification (moduli_key refuses it).
    """
    if j.j1 == ZERO and gamma.proj_generator(1) == 0:
        raise Condition11Violated(1)
    witt = j.j2 == ZERO and gamma.proj_generator(2) == 0
    has_s1 = gamma.contains(SIGMA1)
    has_s2 = gamma.contains(SIGMA2)
    simple = j == J_ZERO_ZERO and has_s2
    return AlgebraSpec(gamma, j, has_s1, has_s2, simple, witt)


def _valid_index(spec: AlgebraSpec, idx: MultiIndex) -> bool:
    i1, i2 = idx
    if i1 < 0 or i2 < 0:
        return False
    if i1 and not spec.j.nat(1):
        return False
    if i2 and not spec.j.nat(2):
        return False
    return True


def _acc(
    spec: AlgebraSpec,
    out: dict[BasisIdx, Fraction],
    alpha: Vec2,
    idx: MultiIndex,
    coeff: Fraction,
) -> None:
    """Accumulate one emitted term; exponents outside Gamma x J are zero."""
    if not coeff or not _valid_index(spec, idx):
        return
    key = (alpha, idx)
    c = out.get(key)
    if c is None:
        out[key] = coeff
    else:
        c += coeff
        if c:
            out[key] = c
        else:
            del out[key]


class Element:
    """Sparse linear combination of basis symbols x^{alpha,i} over Q.

    Immutable by convention; `terms` maps BasisIdx -> nonzero Fraction.
    """

    __slots__ = ("spec", "terms")

    def __init__(self, spec: AlgebraSpec, terms: dict[BasisIdx, Fraction]):
        self.spec = spec
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.spec == other.spec and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.spec.gamma.basis, self.spec.j, frozenset(self.terms.items())))

    def __add__(self, other: "Element") -> "Element":
        _same_spec(self, other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            _merge(out, key, c)
        return Element(self.spec, out)

    def __sub__(self, other: "Element") -> "Element":
        _same_spec(self, other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            _merge(out, key, -c)
        return Element(self.spec, out)

    def __neg__(self) -> "Element":
        return Element(self.spec, {k: -c for k, c in self.terms.items()})

    def __rmul__(self, r) -> "Element":
        r = rat(r)
        if not r:
            return Element(self.spec, {})
        return Element(self.spec, {k: r * c for k, c in self.terms.items()})

    __mul__ = __rmul__

    def coeff(self, alpha: Vec2, idx: MultiIndex) -> Fraction:
        return self.terms.get((alpha, idx), _F0)

    def support_degrees(self) -> set[Vec2]:
        return {alpha for alpha, _ in self.terms}

    def __repr__(self) -> str:
        from .literals import fmt_element

        return f"Element({fmt_element(self)})"


def _merge(out: dict[BasisIdx, Fraction], key: BasisIdx, coeff: Fraction) -> None:
    c = out.get(key)
    if c is None:
        if coeff:
            out[key] = coeff
    else:
        c += coeff
        if c:
            out[key] = c
        else:
            del out[key]


def _same_spec(u: Element, v: Element) -> None:
    if u.spec != v.spec:
        raise SpecMismatch("operands belong to different algebras")


def zero(spec: AlgebraSpec) -> Element:
    return Element(spec, {})


def monomial(spec: AlgebraSpec, alpha: Vec2, idx: MultiIndex, coeff=1) -> Element:
    """Single validated term, pre-quotient view (x^{sigma1,0} is allowed here)."""
    if not spec.gamma.contains(alpha):
        raise IndexOutsideGamma(f"{alpha} not in {spec.gamma}")
    i1, i2 = idx
    if i1 < 0 or i2 < 0 or (i1 and not spec.j.nat(1)) or (i2 and not spec.j.nat(2)):
        raise IndexOutsideJ(f"index {idx} invalid for J={spec.j}")
    c = rat(coeff)
    return Element(spec, {(alpha, idx): c} if c else {})


def one(spec: AlgebraSpec) -> Element:
    return monomial(spec, vec(0, 0), (0, 0))


def is_quotiented(spec: AlgebraSpec, key: tuple[int, int, int, int]) -> bool:
    """The quotient rule on a scaled key (D a1, D a2, i1, i2), D = gamma.den:
    x^{sigma1,0} is zero in B, and in the simple part so is every term of
    degree sigma1 or sigma2."""
    s1, s2, i1, i2 = key
    if s1:
        return False
    d = spec.gamma.den
    if spec.simple_part:
        return s2 == d or s2 == 2 * d
    return s2 == d and not i1 and not i2


def _quotient(spec: AlgebraSpec, terms: dict[BasisIdx, Fraction]) -> Element:
    """Apply is_quotiented to terms keyed by lattice degrees."""
    scaled = spec.gamma.scaled
    out = {}
    for key, c in terms.items():
        alpha, (i1, i2) = key
        if not alpha.c1 and is_quotiented(spec, (0, scaled(alpha)[1], i1, i2)):
            continue
        out[key] = c
    return Element(spec, out)


def reduce(
    spec: AlgebraSpec,
    terms: Union[Element, Mapping[BasisIdx, Fraction]],
) -> Element:
    """Canonical representative in B: validate raw terms, apply the quotient."""
    if isinstance(terms, Element):
        if terms.spec != spec:
            raise SpecMismatch("element belongs to a different algebra")
        return _quotient(spec, terms.terms)
    out: dict[BasisIdx, Fraction] = {}
    for (alpha, idx), c in terms.items():
        c = rat(c)
        if not c:
            continue
        if not spec.gamma.contains(alpha):
            raise IndexOutsideGamma(f"{alpha} not in {spec.gamma}")
        if not _valid_index(spec, idx):
            raise IndexOutsideJ(f"index {idx} invalid for J={spec.j}")
        _merge(out, (alpha, idx), c)
    return _quotient(spec, out)


def assoc_mul(u: Element, v: Element) -> Element:
    """Product in A2 (pre-quotient): exponents add."""
    _same_spec(u, v)
    out: dict[BasisIdx, Fraction] = {}
    for (al, ii), cu in u.terms.items():
        for (be, jj), cv in v.terms.items():
            _acc(u.spec, out, al + be, (ii[0] + jj[0], ii[1] + jj[1]), cu * cv)
    return Element(u.spec, out)


def partial(u: Element, p: int) -> Element:
    """The derivation partial_p of A2 (pre-quotient)."""
    assert p in (1, 2)
    out: dict[BasisIdx, Fraction] = {}
    for (al, ii), c in u.terms.items():
        ap = al.c1 if p == 1 else al.c2
        if ap:
            _acc(u.spec, out, al, ii, c * ap)
        ip = ii[p - 1]
        if ip:
            down = (ii[0] - 1, ii[1]) if p == 1 else (ii[0], ii[1] - 1)
            _acc(u.spec, out, al, down, c * ip)
    return Element(u.spec, out)


def odot(u: Element, v: Element) -> Element:
    """u odot v = partial_1(u) * (partial_2(v) - v), computed in A2."""
    return assoc_mul(partial(u, 1), partial(v, 2) - v)


def _scaled_terms(u: Element) -> tuple[list[tuple[int, int, int, int, int]], int]:
    """Encode u as (D*a1, D*a2, i1, i2, n) per term, D = u.spec.gamma.den,
    with coefficient n / L over the lcm L of u's coefficient denominators."""
    lat = u.spec.gamma
    den = 1
    for c in u.terms.values():
        if c.denominator != 1:
            den = lcm(den, c.denominator)
    out = []
    for (al, (i1, i2)), c in u.terms.items():
        s1, s2 = lat.scaled(al)
        out.append((s1, s2, i1, i2, c.numerator * (den // c.denominator)))
    return out, den


def bracket_scaled(
    d: int,
    us: list[tuple[int, int, int, int, int]],
    vs: list[tuple[int, int, int, int, int]],
) -> dict[tuple[int, int, int, int], int]:
    """The four-line basis formula, bilinearly, on scaled integer terms:

    [x^{a,i}, x^{b,j}] = (a1(b2-1) - b1(a2-1)) x^{a+b, i+j}
                       + (i1(b2-1) - j1(a2-1)) x^{a+b, i+j-1_[1]}
                       + (a1 j2 - b1 i2)       x^{a+b, i+j-1_[2]}
                       + (i1 j2 - j1 i2)       x^{a+b, i+j-1_[1]-1_[2]}

    A term is (A1, A2, i1, i2, n) with (A1, A2) = d (a1, a2) an integer pair,
    d the lattice's common denominator, and n an integer coefficient.  The
    four lines times d^2 are integers:

        A1(B2-d) - B1(A2-d),  d(i1(B2-d) - j1(A2-d)),  d(A1 j2 - B1 i2),
        d^2 (i1 j2 - j1 i2).

    Returns the sums per key (A1+B1, A2+B2, k1, k2) at scale d^2: the
    coefficient of x^{(A1+B1, A2+B2)/d, (k1, k2)} is n_u n_v times the sum
    over d^2.  Sums may be zero.  Operand indices valid for J give valid
    output indices.  No quotient is applied (see is_quotiented).
    """
    dd = d * d
    acc: dict[tuple[int, int, int, int], int] = {}
    get = acc.get
    for a1, a2, i1, i2, nu in us:
        a2d = a2 - d
        for b1, b2, j1, j2, nv in vs:
            n = nu * nv
            b2d = b2 - d
            s1 = a1 + b1
            s2 = a2 + b2
            k1 = i1 + j1
            k2 = i2 + j2
            c = a1 * b2d - b1 * a2d
            if c:
                key = (s1, s2, k1, k2)
                acc[key] = get(key, 0) + n * c
            if k1:
                c = i1 * b2d - j1 * a2d
                if c:
                    key = (s1, s2, k1 - 1, k2)
                    acc[key] = get(key, 0) + n * d * c
            if k2:
                c = a1 * j2 - b1 * i2
                if c:
                    key = (s1, s2, k1, k2 - 1)
                    acc[key] = get(key, 0) + n * d * c
                if k1:
                    c = i1 * j2 - j1 * i2
                    if c:
                        key = (s1, s2, k1 - 1, k2 - 1)
                        acc[key] = get(key, 0) + n * dd * c
    return acc


def bracket_raw(u: Element, v: Element) -> Element:
    """Bilinear extension of the four-line basis formula, before the quotient.

    Each operand is encoded once as scaled terms with integer coefficients
    over one denominator per operand (L_u, L_v), and bracket_scaled sums the
    products at scale D^2, D = gamma.den.  Each nonzero sum n becomes one
    Fraction(n, L_u L_v D^2), and each output degree one Vec2.
    """
    _same_spec(u, v)
    spec = u.spec
    lat = spec.gamma
    d = lat.den
    us, lu = _scaled_terms(u)
    vs, lv = _scaled_terms(v)
    den = lu * lv * d * d
    unscaled = lat.unscaled
    out: dict[BasisIdx, Fraction] = {}
    for (s1, s2, k1, k2), n in bracket_scaled(d, us, vs).items():
        if n:
            out[(unscaled((s1, s2)), (k1, k2))] = Fraction(n, den)
    return Element(spec, out)


def bracket(u: Element, v: Element) -> Element:
    """Lie bracket on B: raw four-line expansion followed by the quotient."""
    return _quotient(u.spec, bracket_raw(u, v).terms)


def grade_component(u: Element, alpha: Vec2) -> Element:
    return Element(
        u.spec, {k: c for k, c in u.terms.items() if k[0] == alpha}
    )


def index_key(idx: MultiIndex) -> tuple[int, int]:
    """Sort key for the total order on multi-indices: level, then first entry."""
    return (idx[0] + idx[1], idx[0])


def index_cmp(i: MultiIndex, j: MultiIndex) -> int:
    ki, kj = index_key(i), index_key(j)
    return (ki > kj) - (ki < kj)


def leading_term(u: Element, alpha: Vec2) -> Optional[tuple[BasisIdx, Fraction]]:
    """Highest-index term in the degree-alpha component, or None."""
    best: Optional[tuple[BasisIdx, Fraction]] = None
    for key, c in u.terms.items():
        if key[0] != alpha:
            continue
        if best is None or index_key(key[1]) > index_key(best[0][1]):
            best = (key, c)
    return best


def window_indices(spec: AlgebraSpec, level_cap: int) -> list[MultiIndex]:
    """Multi-indices valid for J with level <= level_cap, in index order."""
    r1 = range(level_cap + 1) if spec.j.nat(1) else range(1)
    r2 = range(level_cap + 1) if spec.j.nat(2) else range(1)
    idxs = [(i1, i2) for i1 in r1 for i2 in r2 if i1 + i2 <= level_cap]
    idxs.sort(key=index_key)
    return idxs


def enumerate_window(spec: AlgebraSpec, k_bound: int, level_cap: int) -> list[BasisIdx]:
    """Retained basis indices with lattice coefficients |k_i| <= k_bound and
    index level <= level_cap, in a deterministic order."""
    lat = spec.gamma
    scaled_basis = [lat.scaled(b) for b in lat.basis]
    idxs = window_indices(spec, level_cap)
    out: list[BasisIdx] = []
    for ks in itertools.product(range(-k_bound, k_bound + 1), repeat=lat.rank):
        s = (
            sum(k * s1 for k, (s1, _) in zip(ks, scaled_basis)),
            sum(k * s2 for k, (_, s2) in zip(ks, scaled_basis)),
        )
        alpha = lat.unscaled(s)
        for idx in idxs:
            if not is_quotiented(spec, (*s, *idx)):
                out.append((alpha, idx))
    return out


class Span:
    """Exact row space over Q spanned by element term-dicts (Gaussian elimination).

    Pivot order is the natural tuple order on BasisIdx; rows are stored
    pivot-normalized.  add() is the only mutator.
    """

    def __init__(self) -> None:
        self.rows: dict[BasisIdx, dict[BasisIdx, Fraction]] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _residue(self, terms: Mapping[BasisIdx, Fraction]) -> dict[BasisIdx, Fraction]:
        row = dict(terms)
        while row:
            p = max(row)
            piv = self.rows.get(p)
            if piv is None:
                return row
            f = row[p]
            for k, c in piv.items():
                _merge(row, k, -f * c)
        return row

    def contains(self, u: Element) -> bool:
        return not self._residue(u.terms)

    def add(self, u: Element) -> bool:
        """Insert u; True iff the dimension grew."""
        row = self._residue(u.terms)
        if not row:
            return False
        p = max(row)
        f = row[p]
        self.rows[p] = {k: c / f for k, c in row.items()}
        return True
