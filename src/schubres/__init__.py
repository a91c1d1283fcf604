"""Exact Schubert calculus and residual intersection decompositions.

The package computes, in exact integer arithmetic, how the class of a family
of linear spaces on a degenerating hypersurface distributes over the
components of the limit, together with the general residual-intersection
machinery behind that computation.

Every name in ``__all__`` is imported from its module on first access (PEP
562), so ``import schubres`` loads no submodule, and a command-line run
loads only the layers its subcommand uses.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "bundles": ("BundleClass", "adams_twist", "rank_sym", "sym_power", "sym_ustar", "ustar"),
    "chow": (
        "GrassContext", "Partition", "StructRing", "blowup_plane_at_point", "builtin_ring",
        "integrate", "integrate_bott", "load_ring", "projective_space", "to_schubert",
    ),
    "identities": ("bracket_sum", "verify_identity"),
    "limits": (
        "DegenerationSpec", "LimitReport", "PieceReport", "decompose_degeneration",
        "enumerate_degenerations", "fano_degree",
    ),
    "residual": (
        "Decomposition", "IntersectionSetup", "divisor_decompose", "main_term",
        "regular_decompose", "symmetric_decompose",
    ),
    "symfunc": ("GeneratorSpec", "GradedPoly", "parse_poly", "roots_to_e", "series_inverse"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_MODULE_OF), "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
