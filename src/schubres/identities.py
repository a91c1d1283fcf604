"""Chern-class identities behind the two-piece degeneration formula.

The decomposition evaluators assemble main and adjunct terms from
pre-restricted summation ranges.  This module evaluates the same totals
from the raw double-sum bracket, where Segre indices run negative and are
resolved termwise, here only (``BundleClass.segre`` takes non-negative
indices): a nonnegative index is an honest Segre class, an index
strictly between ``-rank`` and zero kills the term, and an index of exactly
``-rank`` folds against the top Chern class of the same bundle with a sign,
reproducing the main term.  Agreement with the top Chern class of the
ambient bundle is then a genuine cross-check of the index conventions.
"""

from __future__ import annotations

import math

from .bundles import sym_ustar
from .chow import GrassContext
from .limits import fano_family
from .symfunc import GradedPoly, exact_int

__all__ = ["bracket_sum", "verify_identity"]

# Binomial hook: kept at module level so tests can break it deliberately and
# confirm the verification actually distinguishes right from wrong weights.
_binomial = math.comb


def bracket_sum(ctx: GrassContext, k: int, l: int) -> GradedPoly:
    """Evaluate the raw double-sum bracket for a degeneration into two
    reduced pieces of degrees ``k`` and ``l``, both at least one.

    For each piece the summand is

        -C(D-1-i, j) * c_i(N) * s_{j-r_other}(N_other)
                     * s_{D-r_own-i-j}(N_own) * z1*z2

    with ``D`` the rank of the ambient bundle ``N``; ``j`` starts at zero,
    so the ``s_{-r_other}`` fold produces the main term and the genuinely
    positive Segre indices produce the adjunct."""
    if exact_int(k, "piece degree") < 1 or exact_int(l, "piece degree") < 1:
        raise ValueError(f"piece degrees must be >= 1, got ({k}, {l})")
    ambient = sym_ustar(ctx, k + l)
    rank_ambient = ambient.rank

    bundles = (sym_ustar(ctx, k), sym_ustar(ctx, l))
    tops = tuple(bundle.chern(bundle.rank) for bundle in bundles)
    interface = tops[0] * tops[1]

    total = ambient.total_chern.zero_like()
    for own in (0, 1):
        other = 1 - own
        rank_own = bundles[own].rank
        rank_other = bundles[other].rank
        for i in range(0, rank_ambient - rank_own + 1):
            chern_i = ambient.chern(i)
            if chern_i.is_zero:
                continue
            for j in range(0, rank_ambient - i):
                idx_own = rank_ambient - rank_own - i - j
                if idx_own < 0:
                    # Strictly between -rank and zero: the piece's own Segre
                    # factor vanishes (idx_own > -rank_own holds throughout
                    # because j <= D - 1 - i).
                    continue
                coeff = -_binomial(rank_ambient - 1 - i, j)
                if coeff == 0:
                    continue
                idx_other = j - rank_other
                if idx_other == -rank_other:
                    # The fold: s_{-rank}(N_other) cancels the other piece's
                    # top Chern class inside the interface term, leaving
                    # -z_own behind.
                    tail = -tops[own]
                elif idx_other < 0:
                    continue
                else:
                    tail = bundles[other].segre(idx_other) * interface
                total = total + coeff * chern_i * bundles[own].segre(idx_own) * tail
    return total


def verify_identity(ctx: GrassContext, k: int, l: int) -> GradedPoly:
    """Residual of the conservation identity: the top Chern class of the
    ambient bundle minus the bracket total.  Zero when the identity holds."""
    bracket = bracket_sum(ctx, k, l)
    return fano_family(ctx, k + l)[0] - bracket
