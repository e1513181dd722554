"""Helpers shared by the test modules."""

from blockalg.core import (
    J_NAT_NAT,
    J_NAT_ZERO,
    J_ZERO_NAT,
    J_ZERO_ZERO,
    Condition11Violated,
    spec_validate,
)
from blockalg.harness import _GAMMAS
from blockalg.lattice import lattice_new, vec


def construction_only_configs():
    """Witt-degenerate combinations of the stock lattices: constructible,
    excluded from the suites."""
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
