"""Exact arithmetic for finitely generated additive subgroups of Q^2.

A subgroup ("lattice" below, rank may be 0, 1 or 2) is stored by a canonical
echelon basis obtained by clearing denominators, Hermite-style integer row
reduction, and restoring the common denominator:

    rank 2:  (c, s), (0, h)    with c > 0, h > 0, 0 <= s < h
    rank 1:  (c, s)            with c > 0        (projection to x nonzero)
             (0, h)            with h > 0        (contained in the y-axis)
    rank 0:  empty

Here c generates the projection of the lattice onto the first coordinate and
h generates the subgroup of lattice vectors with first coordinate zero.  The
echelon basis is unique for the subgroup, so two lattices are equal iff their
bases are equal.

The shear-scale maps (b1, b2) -> (a*b1, b2 + b*b1) with a != 0 act on
lattices.  G1 is the full group, G2 the scale-only subgroup (b = 0).  In
matrix form this is right multiplication by ((a, b), (0, 1)); the inverse
action on a row vector v is (v1/a, v2 - v1*b/a).  canonical_form computes a
complete orbit invariant for either group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence, Union

RatLike = Union[Fraction, int, str]


class LatticeError(ValueError):
    pass


class NotInLattice(LatticeError):
    pass


class Vec2:
    """Immutable pair of rationals with a cached hash.

    Vec2 instances are dict keys on every hot path (basis indices of sparse
    elements), and Fraction.__hash__ is expensive, so the hash is computed
    once.
    """

    __slots__ = ("c1", "c2", "_hash")

    def __init__(self, c1: Fraction, c2: Fraction) -> None:
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "_hash", hash((c1, c2)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Vec2 is immutable")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return Vec2, (self.c1, self.c2)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Vec2):
            # equal vectors have equal hashes, and Fraction equality is slow
            return self is other or (
                self._hash == other._hash and self.c1 == other.c1 and self.c2 == other.c2
            )
        return NotImplemented

    def __iter__(self):
        yield self.c1
        yield self.c2

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.c1 + other.c1, self.c2 + other.c2)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.c1 - other.c1, self.c2 - other.c2)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.c1, -self.c2)

    def scale(self, r: Fraction) -> "Vec2":
        return Vec2(self.c1 * r, self.c2 * r)

    def is_zero(self) -> bool:
        return not self.c1 and not self.c2

    def __str__(self) -> str:
        return f"({self.c1},{self.c2})"

    def __repr__(self) -> str:
        return f"Vec2({self.c1!r}, {self.c2!r})"


def rat(x: RatLike) -> Fraction:
    """Coerce int/str/Fraction to Fraction ("3", "-1/2", 2, ...)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise LatticeError(f"not a rational: {x!r}")


def vec(a: RatLike, b: RatLike) -> Vec2:
    return Vec2(rat(a), rat(b))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _hnf_2col(rows: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Echelon basis of the Z-span of integer row vectors, canonical form."""
    piv: Optional[tuple[int, int]] = None
    seconds: list[int] = []
    for a, b in rows:
        if a == 0:
            if b:
                seconds.append(abs(b))
            continue
        if piv is None:
            piv = (a, b)
            continue
        p, q = piv
        g, x, y = _xgcd(p, a)
        nq = x * q + y * b
        # both old rows minus multiples of the new pivot land on the y-axis
        seconds.append(abs(q - (p // g) * nq))
        seconds.append(abs(b - (a // g) * nq))
        piv = (g, nq)
    h = 0
    for s in seconds:
        h = gcd(h, s)
    basis: list[tuple[int, int]] = []
    if piv is not None:
        p, q = piv
        if p < 0:
            p, q = -p, -q
        if h:
            q %= h
        basis.append((p, q))
    if h:
        basis.append((0, h))
    return basis


@dataclass(frozen=True, eq=False)
class Lattice:
    """Finitely generated subgroup of Q^2 with its canonical echelon basis.

    den is the lcm of the basis denominators, so den * v is an integer pair
    for every v in the lattice.  scaled() and unscaled() convert between the
    two forms and remember each lattice vector they have converted, so
    decoded terms (Element.terms) and enumerate_window build one Vec2 per
    distinct degree, and contains() answers for remembered vectors without
    dividing.  The bracket kernel works on scaled integers and builds none.
    """

    basis: tuple[Vec2, ...]
    rank: int
    den: int = field(init=False, repr=False)
    _scaled: dict[Vec2, tuple[int, int]] = field(init=False, repr=False)
    _unscaled: dict[tuple[int, int], Vec2] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        den = 1
        for b in self.basis:
            den = lcm(den, b.c1.denominator, b.c2.denominator)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_scaled", {})
        object.__setattr__(self, "_unscaled", {})

    def __eq__(self, other: object) -> bool:
        # equality of subgroups, not of presentations
        if not isinstance(other, Lattice):
            return NotImplemented
        return self.basis == other.basis

    def __hash__(self) -> int:
        return hash(self.basis)

    def __str__(self) -> str:
        return "<" + ",".join(str(b) for b in self.basis) + ">"

    def coords(self, v: Vec2) -> Optional[tuple[int, ...]]:
        """Integer coordinates of v in the echelon basis, or None."""
        if self.rank == 0:
            return () if v.is_zero() else None
        if self.rank == 1:
            (b,) = self.basis
            if b.c1:
                k = v.c1 / b.c1
                if k.denominator != 1 or v.c2 != k * b.c2:
                    return None
                return (int(k),)
            if v.c1:
                return None
            k = v.c2 / b.c2
            return (int(k),) if k.denominator == 1 else None
        b1, b2 = self.basis
        k1 = v.c1 / b1.c1
        if k1.denominator != 1:
            return None
        k2 = (v.c2 - k1 * b1.c2) / b2.c2
        if k2.denominator != 1:
            return None
        return (int(k1), int(k2))

    def contains(self, v: Vec2) -> bool:
        return v in self._scaled or self.coords(v) is not None

    def scaled(self, v: Vec2) -> tuple[int, int]:
        """The integer pair den * v; NotInLattice when v is not in the lattice."""
        s = self._scaled.get(v)
        if s is None:
            if self.coords(v) is None:
                raise NotInLattice(f"{v} not in {self}")
            s = (int(v.c1 * self.den), int(v.c2 * self.den))
            self._scaled[v] = s
            self._unscaled.setdefault(s, v)
        return s

    def unscaled(self, s: tuple[int, int]) -> Vec2:
        """The lattice vector v with den * v = s."""
        v = self._unscaled.get(s)
        if v is None:
            v = Vec2(Fraction(s[0], self.den), Fraction(s[1], self.den))
            self._unscaled[s] = v
            self._scaled[v] = s
        return v

    def proj_generator(self, p: int) -> Fraction:
        """Nonnegative generator of the projection onto coordinate p (0 if trivial)."""
        assert p in (1, 2)
        g = Fraction(0)
        for b in self.basis:
            g = _rat_gcd(g, b.c1 if p == 1 else b.c2)
        return g


def _rat_gcd(a: Fraction, b: Fraction) -> Fraction:
    if not a:
        return abs(b)
    if not b:
        return abs(a)
    num = gcd(a.numerator * b.denominator, b.numerator * a.denominator)
    return Fraction(num, a.denominator * b.denominator)


def lattice_new(generators: Sequence[Vec2]) -> Lattice:
    gens = tuple(generators)
    den = 1
    for g in gens:
        den = lcm(den, g.c1.denominator, g.c2.denominator)
    rows = [(int(g.c1 * den), int(g.c2 * den)) for g in gens if not g.is_zero()]
    basis = tuple(
        Vec2(Fraction(a, den), Fraction(b, den)) for a, b in _hnf_2col(rows)
    )
    return Lattice(basis, len(basis))


def lattice_from_strs(pairs: Sequence[Sequence[RatLike]]) -> Lattice:
    return lattice_new([vec(a, b) for a, b in pairs])


@dataclass(frozen=True)
class GroupHom:
    """Additive homomorphism lattice -> Q, given by values on the echelon basis."""

    lattice: Lattice
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.lattice.rank:
            raise LatticeError("one value per basis vector required")

    def __call__(self, v: Vec2) -> Fraction:
        ks = self.lattice.coords(v)
        if ks is None:
            raise NotInLattice(f"{v} not in {self.lattice}")
        return sum((k * val for k, val in zip(ks, self.values)), Fraction(0))

    def linear_form(self) -> tuple[Fraction, Fraction]:
        """(l1, l2) with mu(v) = l1 v1 + l2 v2 for every v in the lattice.

        Solved on the echelon basis from the end: a vector (0, h) can only
        come last and fixes l2; a vector (c, s), c != 0, then fixes l1.
        """
        l1 = l2 = Fraction(0)
        for b, val in reversed(tuple(zip(self.lattice.basis, self.values))):
            if b.c1:
                l1 = (val - l2 * b.c2) / b.c1
            else:
                l2 = val / b.c2
        return l1, l2


def map_lattice(a: Fraction, b: Fraction, lat: Lattice) -> Lattice:
    """Image of the lattice under (b1, b2) -> (a*b1, b2 + b*b1)."""
    if not a:
        raise LatticeError("a must be nonzero")
    return lattice_new([Vec2(a * v.c1, v.c2 + b * v.c1) for v in lat.basis])


@dataclass(frozen=True)
class CanonicalDescriptor:
    """Complete orbit invariant of a lattice under G1 or G2."""

    group: str
    rank: int
    tag: str
    params: tuple[Fraction, ...]

    def __str__(self) -> str:
        if self.tag == "R0":
            body = "R0"
        elif self.tag == "R1X":
            body = "R1X" if not self.params else f"R1X, s={self.params[0]}"
        elif self.tag == "R1Y":
            body = f"R1Y, h={self.params[0]}"
        elif len(self.params) == 1:
            body = f"R2, h={self.params[0]}"
        else:
            body = f"R2, h={self.params[0]}, s*={self.params[1]}"
        return f"({body})"


def canonical_form(lat: Lattice, group: str = "G1") -> CanonicalDescriptor:
    """Orbit invariant: equal descriptors iff same orbit under the named group.

    Shear-scale maps never change second coordinates of vectors on the y-axis
    and scale first coordinates freely, so h is always invariant and c never
    is.  Under G1 the shear kills the mixed coordinate; under G2 (no shear)
    the mixed coordinate survives up to sign and, in rank 2, up to the (0, h)
    vector.
    """
    if group not in ("G1", "G2"):
        raise LatticeError(f"unknown group {group!r}")
    if lat.rank == 0:
        return CanonicalDescriptor(group, 0, "R0", ())
    if lat.rank == 1:
        (b,) = lat.basis
        if not b.c1:
            return CanonicalDescriptor(group, 1, "R1Y", (b.c2,))
        if group == "G1":
            return CanonicalDescriptor(group, 1, "R1X", ())
        return CanonicalDescriptor(group, 1, "R1X", (abs(b.c2),))
    b1, b2 = lat.basis
    h = b2.c2
    if group == "G1":
        return CanonicalDescriptor(group, 2, "R2", (h,))
    s = b1.c2
    s_star = min(s % h, (-s) % h)
    return CanonicalDescriptor(group, 2, "R2", (h, s_star))
