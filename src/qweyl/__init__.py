"""Exact workbench for multiparameter quantized Weyl-type algebras.

Builds the algebras from parameter data, computes normal forms on the
ordered-monomial basis, verifies the defining identities, and computes the
dimension of the rank-2n torus localization together with the resulting
growth lower bound for torsionfree modules.
"""

from .dimension import (
    BernsteinReport,
    DimensionReport,
    Witness,
    bernstein_bound,
    integer_rank,
    isotropic_witness_search,
    max_isotropic_rank_single,
    pairing_from_matrix,
    rank_mod_p,
    rank_upper_bound,
    smith_normal_form,
    torus_dimension,
    verify_witness,
)
from .pbw import (
    GrowthReport,
    PBWElement,
    generator,
    growth_count,
    multiply,
    normal_form,
    parse_word,
    render_element,
    skew_power_identity,
    unit,
    verify_ambiskew,
    verify_normality,
    verify_relations,
)
from .presentation import (
    AlgebraSpec,
    AmbiskewStep,
    ConfigError,
    ambiskew_step,
    build_spec,
    casimir,
    spec_from_config,
    spec_to_config,
)
from .scalars import ParameterLattice, Scalar, parse_monomial
from .torus import (
    ExponentPairing,
    check_torus_isomorphism,
    localized_torus,
    standard_torus,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
