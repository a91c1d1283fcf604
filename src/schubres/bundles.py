"""Chern and Segre class computations for bundles over exact Chow rings.

A bundle is represented by its rank and total Chern class.  That class is
any ``symfunc.ClassCarrier`` -- a Grassmannian polynomial or an element of a
tabulated structure ring -- and this module uses only the carrier protocol
on it.  Segre classes are the series inverse of the Chern class.  Negative
Segre indices follow the residual-intersection convention: indices strictly
between -rank and zero vanish, and the index -rank itself is only
meaningful inside a product that cancels it against the top Chern class, so
asking for it alone is an error; that product is -1, and callers write it as
a negation.  ``BundleClass.chern``, ``segre`` and ``total_segre`` are the one
spelling of these operations.

Symmetric powers are computed by the splitting principle: the Chern roots
of the d-th symmetric power are the d-fold multiset sums of the original
roots, and the resulting symmetric polynomial is rewritten in elementary
symmetric functions and evaluated on the actual Chern classes.  A bundle
whose Chern classes are the generators of its polynomial ring, such as the
dual tautological subbundle, needs no evaluation: the elementary symmetric
functions are written straight into that ring.  Twisting by a line bundle
rescales Chern and Segre classes alike, so a twisted bundle inherits its
Segre class instead of inverting its Chern class again.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

from .chow import GrassContext
from .errors import CancellationRequiredError
from .symfunc import GradedPoly, exact_int, root_spec, roots_to_e, substitute


class BundleClass:
    """An honest bundle: positive rank, total Chern class with unit term.

    Chern components above the rank vanish for honest bundles, so the
    constructor drops them; they can only arise as truncation debris of
    virtual inputs.  Instances are immutable; the total Segre class is
    computed on first use and cached, or set by ``adams_twist``.
    """

    __slots__ = ("rank", "total_chern", "_segre")

    def __init__(self, rank: int, total_chern) -> None:
        if exact_int(rank, "rank") < 1:
            raise ValueError(f"rank must be a positive integer, got {rank!r}")
        if total_chern.constant_term != 1:
            raise ValueError(
                f"total Chern class must have constant term 1, got "
                f"{total_chern.constant_term}"
            )
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "total_chern", total_chern.truncate_above(rank))
        object.__setattr__(self, "_segre", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("BundleClass is immutable")

    def chern(self, i: int):
        """The i-th Chern class; zero beyond the carried degrees."""
        if not isinstance(i, int) or i < 0:
            raise IndexError(f"Chern index must be a non-negative integer, got {i}")
        return self.total_chern.degree_part(i)

    def segre(self, i: int):
        """The i-th Segre class.

        Non-negative indices come from inverting the total Chern class.
        Indices strictly between -rank and zero are zero; the index -rank is
        refused because it only makes sense multiplied against the top Chern
        class, where the product is -1; anything lower is out of range.
        """
        if not isinstance(i, int):
            raise IndexError(f"Segre index must be an integer, got {i!r}")
        if i >= 0:
            return self.total_segre().degree_part(i)
        if -self.rank < i < 0:
            return self.total_chern.zero_like()
        if i == -self.rank:
            raise CancellationRequiredError(
                f"Segre index {-self.rank} of a rank-{self.rank} bundle is only "
                "defined against the top Chern class, where the product is -1; "
                "write that product as a negation"
            )
        raise IndexError(f"Segre index {i} below -rank = {-self.rank}")

    def total_segre(self):
        if self._segre is None:
            object.__setattr__(self, "_segre", self.total_chern.series_inverse())
        return self._segre

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BundleClass):
            return NotImplemented
        return self.rank == other.rank and self.total_chern == other.total_chern

    def __hash__(self) -> int:
        return hash((self.rank, self.total_chern))

    def __repr__(self) -> str:
        return f"BundleClass(rank={self.rank}, c={self.total_chern.to_string()!r})"


def rank_sym(r: int, m: int) -> int:
    """Rank of the m-th symmetric power of a bundle of rank r + 1."""
    if exact_int(r, "rank_sym r") < 0 or exact_int(m, "rank_sym m") < 0:
        raise ValueError("rank_sym needs non-negative arguments")
    return comb(m + r, r)


def sym_power(E: BundleClass, d: int) -> BundleClass:
    """The d-th symmetric power via the splitting principle.

    Enumerates the d-element multisets of Chern roots in colexicographic
    order, multiplies the linear factors in a root ring truncated at the
    carrier's bound, rewrites the symmetric result in elementary symmetric
    functions, and evaluates those at the Chern classes of E.  When those
    Chern classes are exactly the generators of their own ring (as for
    ``ustar``), the rewrite lands in that ring directly and the evaluation,
    an identity, is skipped.
    """
    if exact_int(d, "symmetric power exponent") < 0:
        raise IndexError(f"symmetric power exponent must be non-negative, got {d}")
    one = E.total_chern.one_like()
    if d == 0:
        return BundleClass(1, one)
    k = E.rank
    rspec = root_spec(k, E.total_chern.truncation)
    gens = [GradedPoly.generator(rspec, name) for name in rspec.names]
    total = GradedPoly.one(rspec)
    multisets = sorted(
        itertools.combinations_with_replacement(range(k), d),
        key=lambda multiset: multiset[::-1],
    )
    for multiset in multisets:
        factor = GradedPoly.one(rspec)
        for index in multiset:
            factor = factor + gens[index]
        total = total * factor
    chern_spec = _generator_chern_spec(E)
    if chern_spec is not None:
        # The e-basis result already is the total Chern class.
        return BundleClass(rank_sym(k - 1, d), roots_to_e(total, chern_spec))
    in_e_basis = roots_to_e(total)
    images = [E.chern(i) for i in range(1, k + 1)]
    return BundleClass(rank_sym(k - 1, d), substitute(in_e_basis, images, one))


def _generator_chern_spec(E: BundleClass):
    """The spec of E's Chern ring when c_1..c_k of E are exactly its
    generators, of degrees 1..k; None otherwise.

    Then evaluating a polynomial in the elementary symmetric functions at
    the Chern classes of E is the identity on its terms.
    """
    total = E.total_chern
    if not isinstance(total, GradedPoly):
        return None
    spec = total.spec
    if spec.degrees != tuple(range(1, E.rank + 1)):
        return None
    generic = GradedPoly.one(spec)
    for name in spec.names:
        generic = generic + GradedPoly.generator(spec, name)
    return spec if total == generic else None


def adams_twist(E: BundleClass, m: int) -> BundleClass:
    """Scale the i-th Chern component by m**i.

    For a rank-one twist this is exactly tensoring a symmetric power of a
    dual subbundle by the m-th power of the corresponding line bundle, which
    is the only way twists enter downstream.  The rescaling is a ring
    homomorphism, so the Segre class of the result is the rescaled Segre
    class of E.
    """
    twisted = BundleClass(E.rank, E.total_chern.degree_scale(m))
    object.__setattr__(twisted, "_segre", E.total_segre().degree_scale(m))
    return twisted


def ustar(ctx: GrassContext) -> BundleClass:
    """The dual tautological subbundle on a Grassmannian context."""
    total = GradedPoly.one(ctx.spec)
    for i in range(1, ctx.k + 1):
        total = total + ctx.chern_generator(i)
    return BundleClass(ctx.k, total)


@lru_cache(maxsize=None, typed=True)
def sym_ustar(ctx: GrassContext, d: int, twist: int = 1) -> BundleClass:
    """Twisted symmetric power of the dual subbundle, cached per context.

    These are the normal bundle ingredients every degeneration needs, and
    the same powers recur across cases, so memoization pays for itself.
    Safe because contexts and bundle classes are immutable values.  A twist
    rescales the cached untwisted power; the untwisted lookup passes the
    twist positionally so it shares its cache entry with callers that ask
    for ``sym_ustar(ctx, k, 1)``.  The cache is typed, so ``True`` or ``1.0``
    never hits the entry of ``1``: ``sym_power`` refuses it like any other
    non-integer exponent.
    """
    if exact_int(twist, "twist") != 1:
        return adams_twist(sym_ustar(ctx, d, 1), twist)
    return sym_power(ustar(ctx), d)
