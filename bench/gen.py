"""Seeded input generation, in the benchmark's own terms.

Everything here is plain Python over Fractions: lattices are given by their
echelon bases, windows are enumerated by the benchmark itself, and elements
leave this module as literal strings.  The program sees only those literals,
so a change to blockalg cannot change which inputs a seed produces.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from random import Random

from reference import SIGMA1, SIGMA2, in_lattice

F = Fraction
COEFFS = tuple(F(c) for c in ("1", "-1", "2", "-2", "1/2", "-1/2", "3/2", "-3/2"))

# echelon bases
Z2 = ((F(1), F(0)), (F(0), F(1)))
G23_5 = ((F(2), F(3)), (F(0), F(5)))
HALF = ((F(1, 2), F(0)), (F(0), F(1)))
G10_5 = ((F(1), F(0)), (F(0), F(5)))
Y1 = ((F(0), F(1)),)
X1 = ((F(1), F(0)),)

NN, N0, ZN, ZZ = ("N", "N"), ("N", "0"), ("0", "N"), ("0", "0")
ALL_J = (ZZ, N0, ZN, NN)


def simple_part(basis, j) -> bool:
    return j == ZZ and in_lattice(SIGMA2, basis)


def window(basis, j, k_bound: int, level_cap: int) -> list[tuple]:
    """Retained symbols (alpha1, alpha2, i1, i2) with lattice coordinates
    |k| <= k_bound and level i1 + i2 <= level_cap."""
    simple = simple_part(basis, j)
    r1 = range(level_cap + 1) if j[0] == "N" else range(1)
    r2 = range(level_cap + 1) if j[1] == "N" else range(1)
    idxs = [(i1, i2) for i1 in r1 for i2 in r2 if i1 + i2 <= level_cap]
    out = []
    for ks in itertools.product(range(-k_bound, k_bound + 1), repeat=len(basis)):
        alpha = (
            sum((k * b[0] for k, b in zip(ks, basis)), F(0)),
            sum((k * b[1] for k, b in zip(ks, basis)), F(0)),
        )
        if simple and alpha in (SIGMA1, SIGMA2):
            continue
        for idx in idxs:
            if alpha == SIGMA1 and idx == (0, 0):
                continue
            out.append(alpha + idx)
    return out


def sample_terms(rng: Random, win: list, n: int) -> dict:
    """n distinct window symbols with coefficients from COEFFS."""
    return {key: rng.choice(COEFFS) for key in rng.sample(win, n)}


def literal(terms: dict) -> str:
    """Element literal for a dict of symbol -> nonzero Fraction."""
    parts = []
    for (a1, a2, i1, i2), c in terms.items():
        body = f"{abs(c)} x[{a1},{a2};{i1},{i2}]"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts) if parts else "0"


def term_counts(arity: int) -> list[tuple[int, ...]]:
    """Every combination of 1..4 terms per operand, once each.

    The bracket's cost grows with the product of the operands' term counts,
    so fixing the mix of counts per round keeps the work of a round nearly
    the same from seed to seed; the seed still picks every symbol and
    coefficient.
    """
    return list(itertools.product(range(1, 5), repeat=arity))
