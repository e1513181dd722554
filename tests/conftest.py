"""Helpers shared by the test modules."""

from blockalg.core import (
    SIGMA1,
    SIGMA2,
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


def quotient_terms(spec, terms):
    """The quotient of B on decoded terms, stated on degrees: x^{sigma1,0}
    is zero, and in the simple part so is every term of degree sigma1 or
    sigma2.  The other terms keep their order."""
    def dropped(alpha, idx):
        if spec.simple_part:
            return alpha in (SIGMA1, SIGMA2)
        return alpha == SIGMA1 and idx == (0, 0)

    return {k: c for k, c in terms.items() if not dropped(*k)}
