"""Exact computer algebra for generalized Block Lie algebras.

The algebras are built from a finitely generated subgroup of Q^2 (the
degree lattice Gamma) and a pair J = (J_1, J_2) with each factor {0} or N.
This package provides the bracket with its quotient reduction, the named
outer derivations, the closed-form isomorphism decision with its
structure-space key, and seeded verification suites for every identity
used along the way.
"""

from .lattice import (
    CanonicalDescriptor,
    GroupHom,
    Lattice,
    LatticeError,
    NotInLattice,
    Vec2,
    canonical_form,
    lattice_from_strs,
    lattice_new,
    map_lattice,
    rat,
    vec,
)
from .core import (
    J_NAT_NAT,
    J_NAT_ZERO,
    J_ZERO_NAT,
    J_ZERO_ZERO,
    SIGMA1,
    SIGMA2,
    AlgebraError,
    AlgebraSpec,
    Condition11Violated,
    Element,
    IndexOutsideGamma,
    IndexOutsideJ,
    JSpec,
    SpecMismatch,
    Span,
    assoc_mul,
    bracket,
    bracket_raw,
    enumerate_window,
    grade_component,
    index_key,
    leading_term,
    monomial,
    odot,
    one,
    partial,
    reduce,
    spec_validate,
    window_indices,
    zero,
)
from .derivations import (
    ClosureDim,
    Derivation,
    GrowthWitness,
    LawReport,
    UndefinedInThisAlgebra,
    ad,
    apply,
    check_derivation_law,
    is_homogeneous,
    local_finiteness_probe,
    make_d1,
    make_d1bar,
    make_d2,
    make_dmu,
    make_dt1,
    make_dt2,
    nilpotence_degree,
    zero_derivation,
)
from .isomorphism import (
    Found,
    IsoParams,
    NotIsomorphic,
    PhiCheckFailed,
    WittDegenerate,
    decide_iso,
    moduli_key,
    phi_apply,
    phi_check,
    phi_inverse_apply,
    psi_apply,
    psi_check,
    verdict_as_dict,
)
from .literals import ParseError, fmt_element, fmt_rat, parse_derivation, parse_element, parse_rat
from .probe import Inconclusive, ReachedFullWindow, ZeroSeed, simplicity_probe
from .harness import (
    FailureRecord,
    SuiteReport,
    default_configs,
    rerun_failure,
    run_suite,
    sample_element,
)

__version__ = "0.1.0"
