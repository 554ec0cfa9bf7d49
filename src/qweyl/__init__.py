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
    pairing_from_matrix,
    torus_dimension,
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
