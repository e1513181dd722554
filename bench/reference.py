"""Reference computations made apart from blockalg.

These are the benchmark's own oracles.  They share no code with the program
under test and run outside every timed section.

Reference bracket.  The symbol x^{alpha,i} is realized as the function
e^{alpha.s} s1^{i1} s2^{i2} of two variables s = (s1, s2), with
d_p = d/ds_p.  On such functions

    [u, v] = d1(u) d2(v) - d1(v) d2(u) + u d1(v) - v d1(u)

and the result is read back as symbols, followed by the quotient: drop
x^{sigma1,0}, and in the simple part drop the degrees sigma1 and sigma2.
Exponents never leave Gamma x J, because products only raise the powers of
s and a derivative lowers a power only where it is positive.

A function is a dict mapping (alpha1, alpha2, i1, i2) to a nonzero Fraction.

Lattice membership.  A lattice is given by one or two independent rational
generators.  Clearing denominators turns membership into a question about
integer vectors, which Cramer's rule answers exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

Key = tuple  # (alpha1, alpha2, i1, i2)

SIGMA1 = (Fraction(0), Fraction(1))
SIGMA2 = (Fraction(0), Fraction(2))


def _add(out: dict, key: Key, c: Fraction) -> None:
    if not c:
        return
    s = out.get(key, 0) + c
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def deriv(u: dict, p: int) -> dict:
    """d/ds_p of a sum of c e^{alpha.s} s1^{i1} s2^{i2}."""
    out: dict = {}
    for (a1, a2, i1, i2), c in u.items():
        _add(out, (a1, a2, i1, i2), c * (a1 if p == 1 else a2))
        if p == 1 and i1:
            _add(out, (a1, a2, i1 - 1, i2), c * i1)
        if p == 2 and i2:
            _add(out, (a1, a2, i1, i2 - 1), c * i2)
    return out


def mul(u: dict, v: dict) -> dict:
    """Pointwise product: exponents of e and of s1, s2 add."""
    out: dict = {}
    for (a1, a2, i1, i2), c in u.items():
        for (b1, b2, j1, j2), d in v.items():
            _add(out, (a1 + b1, a2 + b2, i1 + j1, i2 + j2), c * d)
    return out


def _combine(*signed: tuple[int, dict]) -> dict:
    out: dict = {}
    for sign, part in signed:
        for key, c in part.items():
            _add(out, key, sign * c)
    return out


def quotient(u: dict, simple_part: bool) -> dict:
    out = {}
    for key, c in u.items():
        alpha = key[:2]
        if alpha == SIGMA1 and key[2:] == (0, 0):
            continue
        if simple_part and alpha in (SIGMA1, SIGMA2):
            continue
        out[key] = c
    return out


def bracket(u: dict, v: dict, simple_part: bool) -> dict:
    """[u, v] in the realization, then the quotient."""
    d1u, d2u, d1v, d2v = deriv(u, 1), deriv(u, 2), deriv(v, 1), deriv(v, 2)
    raw = _combine(
        (1, mul(d1u, d2v)), (-1, mul(d1v, d2u)), (1, mul(u, d1v)), (-1, mul(v, d1u))
    )
    return quotient(raw, simple_part)


def _integer_rows(vectors) -> tuple[int, list[tuple[int, int]]]:
    den = 1
    for x, y in vectors:
        den = lcm(den, Fraction(x).denominator, Fraction(y).denominator)
    return den, [(int(Fraction(x) * den), int(Fraction(y) * den)) for x, y in vectors]


def in_lattice(v, generators) -> bool:
    """True iff v is an integer combination of the 1 or 2 independent generators."""
    den, rows = _integer_rows(list(generators) + [v])
    *gens, (x, y) = rows
    if len(gens) == 1:
        (g1, g2), = gens
        # v = k g  <=>  v is parallel to g and the ratio is an integer
        if x * g2 != y * g1:
            return False
        num, d = (x, g1) if g1 else (y, g2)
        return num % d == 0
    (p, q), (r, s) = gens
    det = p * s - q * r
    if not det:
        raise ValueError("generators are not independent")
    k1 = x * s - y * r  # Cramer: v = (k1 g1 + k2 g2) / det
    k2 = p * y - q * x
    return k1 % det == 0 and k2 % det == 0


def maps_onto(a: Fraction, b: Fraction, gens_a, gens_b) -> bool:
    """True iff phi(b1, b2) = (a b1, b2 + b b1) maps <gens_a> onto <gens_b>."""
    if not a:
        return False
    fwd = all(in_lattice((a * x, y + b * x), gens_b) for x, y in gens_a)
    back = all(in_lattice((x / a, y - b * x / a), gens_a) for x, y in gens_b)
    return fwd and back


# A fixed piece of work made of the same stuff as the program's hot path
# (Fraction arithmetic into dicts keyed by tuples).  Its running time tracks
# the speed the machine gives this process at the moment; see run.py.
_CAL_U = {(Fraction(1), Fraction(1), 1, 0): Fraction(1), (Fraction(-1, 2), Fraction(2), 0, 2): Fraction(3, 2)}
_CAL_V = {(Fraction(2), Fraction(3), 0, 1): Fraction(-1), (Fraction(0), Fraction(-1), 1, 1): Fraction(1, 2)}


def calibration_work() -> dict:
    return bracket(_CAL_U, _CAL_V, False)
