"""Exact Schubert calculus and residual intersection decompositions.

The package computes, in exact integer arithmetic, how the class of a family
of linear spaces on a degenerating hypersurface distributes over the
components of the limit, together with the general residual-intersection
machinery behind that computation.
"""

from __future__ import annotations

from .bundles import (
    BundleClass,
    adams_twist,
    rank_sym,
    sym_power,
    sym_ustar,
    ustar,
)
from .chow import (
    GrassContext,
    Partition,
    StructRing,
    blowup_plane_at_point,
    builtin_ring,
    integrate,
    integrate_bott,
    load_ring,
    projective_space,
    to_schubert,
)
from .identities import bracket_sum, verify_identity
from .limits import (
    DegenerationSpec,
    LimitReport,
    PieceReport,
    decompose_degeneration,
    enumerate_degenerations,
    fano_degree,
)
from .residual import (
    Decomposition,
    IntersectionSetup,
    divisor_decompose,
    main_term,
    regular_decompose,
    symmetric_decompose,
)
from .symfunc import (
    GeneratorSpec,
    GradedPoly,
    parse_poly,
    roots_to_e,
    series_inverse,
)

__version__ = "0.1.0"

__all__ = [
    "BundleClass",
    "Decomposition",
    "DegenerationSpec",
    "GeneratorSpec",
    "GradedPoly",
    "GrassContext",
    "IntersectionSetup",
    "LimitReport",
    "Partition",
    "PieceReport",
    "StructRing",
    "adams_twist",
    "blowup_plane_at_point",
    "bracket_sum",
    "builtin_ring",
    "decompose_degeneration",
    "divisor_decompose",
    "enumerate_degenerations",
    "fano_degree",
    "integrate",
    "integrate_bott",
    "load_ring",
    "main_term",
    "parse_poly",
    "projective_space",
    "rank_sym",
    "regular_decompose",
    "roots_to_e",
    "series_inverse",
    "sym_power",
    "sym_ustar",
    "symmetric_decompose",
    "to_schubert",
    "ustar",
    "verify_identity",
    "__version__",
]
