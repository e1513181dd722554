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

Storage.  With D = gamma.den (every D alpha is an integer pair), an Element
stores {(D a1, D a2, i1, i2): n} with integer n over one positive
denominator, in lowest terms.  bracket, reduce, +, -, negation and scalar
multiples work on this form: the bracket through bracket_scaled at scale D^2,
sums over the lcm of the two denominators.  derivations.apply sums
bracket_scaled and map_scaled, the kernel of the row maps, into one integer
dict.  Element.terms is the decoded view {(Vec2, (i1, i2)): Fraction}, built
on first read; Element(spec, terms) takes such a view and encodes it at once,
so every element holds the integer form from construction.  assoc_mul,
partial and odot run on the decoded view, in Fractions, so the odot route
stays independent of the bracket formula.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Optional, Union

from .lattice import Lattice, NotInLattice, Vec2, rat, vec

MultiIndex = tuple[int, int]
BasisIdx = tuple[Vec2, MultiIndex]
ScaledKey = tuple[int, int, int, int]  # (D a1, D a2, i1, i2), D = gamma.den

SIGMA1 = vec(0, 1)
SIGMA2 = vec(0, 2)

ZERO = "0"
NAT = "N"

_F0 = Fraction(0)


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

    Stored in integers: a dict {(D a1, D a2, i1, i2): n} with D = gamma.den,
    over one positive denominator, in canonical form (every n nonzero, and
    gcd of the n's and the denominator 1), so equal elements store equal
    forms.  `terms` is the decoded view, BasisIdx -> nonzero Fraction, built
    on first read and kept.  Element(spec, terms) takes such a view, in any
    rational type, and encodes it at once, skipping zero coefficients: a
    degree outside Gamma raises NotInLattice, an index outside J raises
    IndexOutsideJ.  No quotient is applied (see reduce).  Immutable by
    convention.
    """

    __slots__ = ("spec", "_ints", "_den", "_terms")

    def __new__(cls, spec: AlgebraSpec, terms: Mapping[BasisIdx, Fraction]) -> "Element":
        return _element(spec, *_encode(spec, terms))

    def __reduce__(self):  # copy rebuilds from the stored form, not through __new__
        return _element, (self.spec, self._ints, self._den)

    @property
    def terms(self) -> dict[BasisIdx, Fraction]:
        t = self._terms
        if t is None:
            unscaled = self.spec.gamma.unscaled
            den = self._den
            t = self._terms = {
                (unscaled((s1, s2)), (i1, i2)): Fraction(n, den)
                for (s1, s2, i1, i2), n in self._ints.items()
            }
        return t

    def is_zero(self) -> bool:
        return not self._ints

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        if self.spec is not other.spec and self.spec != other.spec:
            return False
        return self._ints == other._ints and self._den == other._den

    def __hash__(self) -> int:
        t = frozenset(self._ints.items())
        return hash((self.spec.gamma.basis, self.spec.j, self._den, t))

    def __add__(self, other: "Element") -> "Element":
        _same_spec(self, other)
        return _combine(self, other, 1)

    def __sub__(self, other: "Element") -> "Element":
        _same_spec(self, other)
        return _combine(self, other, -1)

    def __neg__(self) -> "Element":
        t = {k: -n for k, n in self._ints.items()}
        return _element(self.spec, t, self._den)

    def __rmul__(self, r) -> "Element":
        r = rat(r)
        if not r:
            return zero(self.spec)
        p = r.numerator
        t = {k: p * n for k, n in self._ints.items()}
        return _element(self.spec, t, self._den * r.denominator)

    __mul__ = __rmul__

    def coeff(self, alpha: Vec2, idx: MultiIndex) -> Fraction:
        return self.terms.get((alpha, idx), _F0)

    def __repr__(self) -> str:
        from .literals import fmt_element

        return f"Element({fmt_element(self)})"


def _element(spec: AlgebraSpec, t: dict[ScaledKey, int], den: int) -> Element:
    """The element with integer terms t (no zero values) over den > 0,
    brought to canonical form by dividing out the common factor; the one
    place an Element's stored form is set."""
    if den != 1:
        g = gcd(den, *t.values())
        if g != 1:
            den //= g
            t = {k: n // g for k, n in t.items()}
    u = object.__new__(Element)
    u.spec = spec
    u._ints = t
    u._den = den
    u._terms = None
    return u


def _encode(
    spec: AlgebraSpec, terms: Mapping[BasisIdx, Fraction]
) -> tuple[dict[ScaledKey, int], int]:
    """Integer terms over one denominator, in lowest terms, of a view
    {(alpha, (i1, i2)): rational}; zero coefficients are skipped.  Raises
    NotInLattice for a degree outside Gamma, IndexOutsideJ for an index
    outside J."""
    scaled = spec.gamma.scaled
    raw: dict[ScaledKey, Fraction] = {}
    for (alpha, idx), c in terms.items():
        c = rat(c)
        if not c:
            continue
        s1, s2 = scaled(alpha)
        if not _valid_index(spec, idx):
            raise IndexOutsideJ(f"index {idx} invalid for J={spec.j}")
        raw[(s1, s2, *idx)] = c
    den = lcm(*(c.denominator for c in raw.values()))
    return {k: c.numerator * (den // c.denominator) for k, c in raw.items()}, den


def _combine(u: Element, v: Element, sign: int) -> Element:
    """u + sign * v, summed in integers over the lcm of the denominators."""
    tu, tv = u._ints, v._ints
    if not tv:
        return u
    if not tu and sign == 1:
        return v
    du, dv = u._den, v._den
    den = lcm(du, dv)
    mu, mv = den // du, sign * (den // dv)
    out = dict(tu) if mu == 1 else {k: mu * n for k, n in tu.items()}
    get = out.get
    for k, n in tv.items():
        c = get(k)
        if c is None:
            out[k] = mv * n
        else:
            c += mv * n
            if c:
                out[k] = c
            else:
                del out[k]
    return _element(u.spec, out, den)


def _same_spec(u: Element, v: Element) -> None:
    if u.spec is not v.spec and u.spec != v.spec:
        raise SpecMismatch("operands belong to different algebras")


def zero(spec: AlgebraSpec) -> Element:
    return _element(spec, {}, 1)


def monomial(spec: AlgebraSpec, alpha: Vec2, idx: MultiIndex, coeff=1) -> Element:
    """Single validated term, pre-quotient view (x^{sigma1,0} is allowed here)."""
    if not spec.gamma.contains(alpha):
        raise IndexOutsideGamma(f"{alpha} not in {spec.gamma}")
    if not _valid_index(spec, idx):
        raise IndexOutsideJ(f"index {idx} invalid for J={spec.j}")
    c = rat(coeff)
    if not c:
        return zero(spec)
    s1, s2 = spec.gamma.scaled(alpha)
    return _element(spec, {(s1, s2, *idx): c.numerator}, c.denominator)


def one(spec: AlgebraSpec) -> Element:
    return monomial(spec, vec(0, 0), (0, 0))


def is_quotiented(spec: AlgebraSpec, key: ScaledKey) -> bool:
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


def _reduced(spec: AlgebraSpec, t: dict[ScaledKey, int], den: int) -> Element:
    """The element of B with integer terms t over den: zero values and terms
    that is_quotiented drops are left out."""
    out = {k: n for k, n in t.items() if n and (k[0] or not is_quotiented(spec, k))}
    return _element(spec, out, den)


def reduce(
    spec: AlgebraSpec,
    terms: Union[Element, Mapping[BasisIdx, Fraction]],
) -> Element:
    """Canonical representative in B: validate raw terms, apply the quotient."""
    if isinstance(terms, Element):
        if terms.spec != spec:
            raise SpecMismatch("element belongs to a different algebra")
        return _reduced(spec, terms._ints, terms._den)
    try:
        t, den = _encode(spec, terms)
    except NotInLattice as e:  # "{alpha} not in {gamma}"
        raise IndexOutsideGamma(str(e)) from None
    return _reduced(spec, t, den)


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


def map_scaled(rows, terms, acc: dict) -> dict:
    """A linear map given by merged integer rows, on scaled integer terms
    (key, n), summed into acc, which it returns.

    A row (t1, t2, e1, e2, p1, p2, p3, p4, p0) sends n x^{B,j} to
    n (p1 B1 + p2 B2 + p3 j1 + p4 j2 + p0) at key (B1 + t1, B2 + t2, j1 + e1,
    j2 + e2).  Sums may be zero.  Rows must not lower an index entry that is
    0 with a nonzero form.
    """
    get = acc.get
    for (b1, b2, j1, j2), n in terms:
        for t1, t2, e1, e2, p1, p2, p3, p4, p0 in rows:
            c = p1 * b1 + p2 * b2 + p3 * j1 + p4 * j2 + p0
            if c:
                key = (b1 + t1, b2 + t2, j1 + e1, j2 + e2)
                acc[key] = get(key, 0) + n * c
    return acc


def _bracket_sums(u: Element, v: Element) -> tuple[dict[ScaledKey, int], int]:
    """bracket_scaled on the stored integer terms: the sums at scale D^2,
    D = gamma.den, and their denominator den(u) den(v) D^2."""
    _same_spec(u, v)
    d = u.spec.gamma.den
    us = [k + (n,) for k, n in u._ints.items()]
    vs = [k + (n,) for k, n in v._ints.items()]
    return bracket_scaled(d, us, vs), u._den * v._den * d * d


def bracket_raw(u: Element, v: Element) -> Element:
    """Bilinear extension of the four-line basis formula, before the quotient."""
    acc, den = _bracket_sums(u, v)
    return _element(u.spec, {k: n for k, n in acc.items() if n}, den)


def bracket(u: Element, v: Element) -> Element:
    """Lie bracket on B: the four-line expansion followed by the quotient."""
    return _reduced(u.spec, *_bracket_sums(u, v))


def grade_component(u: Element, alpha: Vec2) -> Element:
    return Element(
        u.spec, {k: c for k, c in u.terms.items() if k[0] == alpha}
    )


def index_key(idx: MultiIndex) -> tuple[int, int]:
    """Sort key for the total order on multi-indices: level, then first entry."""
    return (idx[0] + idx[1], idx[0])


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
    """Row space over Q of sparse integer vectors {integer id: value}, by
    fraction-free Gauss-Jordan elimination.  add() is the only mutator.
    Rank does not depend on how ids are numbered.

    The echelon is fully reduced.  rows maps each pivot id to its row
    without the pivot entry, and piv maps it to the pivot's value; a row
    holds entries only at ids that are not pivots.  Every value is an int:
    each row with its pivot value is primitive (the gcd of its values is 1)
    with a positive pivot value, so no Fraction is ever built.  The residue
    of v is one pass over v: drop v's entries at pivot ids, scale the rest
    by the lcm m of the values of those pivots whose rows are nonempty, and
    subtract m v[k] / piv[k] times row k for each such pivot k; this is m
    times the residue.  cols is the transpose of rows: the pivots of the
    rows holding each non-pivot id.  add() takes the largest id of a
    nonzero residue as the new pivot and the residue, made primitive, as
    its row.  It then eliminates that id from each row q that cols lists as
    holding it, fraction-free as in Bareiss's elimination: with c the new
    pivot value, a the entry of row q and g = gcd(c, a), row q becomes
    (c/g) row q - (a/g) new row, piv[q] scales by c/g, and row q is made
    primitive again.
    """

    __slots__ = ("rows", "piv", "cols")

    def __init__(self) -> None:
        self.rows: dict[int, dict[int, int]] = {}
        self.piv: dict[int, int] = {}
        self.cols: dict[int, set[int]] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def spans_unit(self, i: int) -> bool:
        """Whether the unit vector at id i lies in the span: in a fully
        reduced echelon, exactly when i is a pivot whose row is empty."""
        row = self.rows.get(i)
        return row is not None and not row

    def _residue(self, v: Mapping[int, int]) -> dict[int, int]:
        """A nonzero multiple of v minus its projection on the span: the
        nonzero entries, all at non-pivot ids.  Entries of v may be zero."""
        rows, piv = self.rows, self.piv
        r = dict(v)
        hits = []  # (v[k], piv[k], row k) per pivot k of v with a nonempty row
        m = 1
        for k, x in v.items():
            row = rows.get(k)
            if row is not None:
                del r[k]
                if row and x:
                    a = piv[k]
                    hits.append((x, a, row))
                    m = lcm(m, a)
        if m != 1:
            r = {k: m * x for k, x in r.items()}
        get = r.get
        for x, a, row in hits:
            f = x * (m // a)
            for k, y in row.items():
                r[k] = get(k, 0) - f * y
        return {k: x for k, x in r.items() if x}

    def add(self, v: Mapping[int, int]) -> bool:
        """Insert v; True iff the dimension grew."""
        r = self._residue(v)
        if not r:
            return False
        new = max(r)
        c = r.pop(new)
        rows, piv, cols = self.rows, self.piv, self.cols
        g = gcd(c, *r.values())
        g = -g if c < 0 else g
        row = r if g == 1 else {k: x // g for k, x in r.items()}
        c //= g
        holders = cols.pop(new, ())
        rows[new] = row
        piv[new] = c
        for k in row:
            cols.setdefault(k, set()).add(new)
        for q in holders:
            rq = rows[q]
            a = rq.pop(new)
            g = gcd(c, a)
            s, a = c // g, a // g
            if s != 1:
                for k in rq:
                    rq[k] *= s
                piv[q] *= s
            for k, x in row.items():
                y = rq.get(k, 0) - a * x
                if y:
                    rq[k] = y
                    cols[k].add(q)
                else:  # a * x is nonzero, so rq held k
                    del rq[k]
                    cols[k].discard(q)
            h = gcd(piv[q], *rq.values())
            if h != 1:
                piv[q] //= h
                for k in rq:
                    rq[k] //= h
        return True
