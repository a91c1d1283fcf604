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
roots.  Permuting the roots permutes the multisets in orbits, one per
partition of d, so Sym^d is computed one orbit at a time: the product of an
orbit's linear factors is symmetric, is rewritten in elementary symmetric
functions on its own, and the orbit classes are multiplied in that basis.
``sym_power`` evaluates the result at the Chern classes of any bundle.
``sym_ustar`` needs no evaluation: the Chern classes of the dual
tautological subbundle are the generators of the Grassmannian's Chow ring,
so it writes the elementary symmetric functions straight into that ring.
Twisting by a line bundle rescales Chern and Segre classes alike, so a
twisted bundle inherits its Segre class instead of inverting its Chern
class again.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

from .chow import GrassContext
from .errors import CancellationRequiredError
from .symfunc import GradedPoly, e_spec, exact_int, root_spec, roots_to_e, substitute


class BundleClass:
    """An honest bundle: positive rank, total Chern class with unit term.

    Chern classes above the rank vanish for honest bundles, so a total Chern
    class with a nonzero part there is refused.  Instances are immutable;
    the total Segre class is computed on first use and cached, or set by
    ``adams_twist``.
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
        for i in range(rank + 1, total_chern.truncation + 1):
            if not total_chern.degree_part(i).is_zero:
                raise ValueError(f"a rank-{rank} bundle has a Chern class in degree {i}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "total_chern", total_chern)
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


def _orbit_exponents(k: int, d: int) -> list[list[tuple[int, ...]]]:
    """The d-element multisets of k roots, as multiplicity vectors, grouped
    into S_k-orbits: one orbit per partition of d into at most k parts."""
    orbits: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for multiset in itertools.combinations_with_replacement(range(k), d):
        counts = tuple(multiset.count(i) for i in range(k))
        orbits.setdefault(tuple(sorted(counts, reverse=True)), []).append(counts)
    return [orbits[shape] for shape in sorted(orbits, reverse=True)]


def _sym_chern_in_e(k: int, d: int, truncation: int, out_spec=None) -> GradedPoly:
    """Total Chern class of the d-th symmetric power of a rank-k bundle,
    written in the elementary symmetric functions of the k Chern roots.

    The Chern roots are the sums over d-element multisets of roots, and
    permuting the roots permutes the multisets in S_k-orbits.  Each orbit's
    product of linear factors is therefore symmetric on its own: it is formed
    in a root ring truncated at ``truncation``, rewritten with ``roots_to_e``
    over ``out_spec`` (an e1..ek spec when None), and the orbit classes are
    multiplied there.  An orbit's product has far fewer root monomials than
    the product over every multiset.
    """
    if exact_int(d, "symmetric power exponent") < 0:
        raise IndexError(f"symmetric power exponent must be non-negative, got {d}")
    if out_spec is None:
        out_spec = e_spec(k, truncation)
    rspec = root_spec(k, truncation)
    roots = [GradedPoly.generator(rspec, name) for name in rspec.names]
    total = GradedPoly.one(out_spec)
    for orbit in _orbit_exponents(k, d):
        product = GradedPoly.one(rspec)
        for counts in orbit:
            # product * (1 + sum of m_i t_i), as product + sum of m_i product t_i.
            product = product.add_products(
                [(m, product, roots[i]) for i, m in enumerate(counts) if m]
            )
        total = total * roots_to_e(product, out_spec)
    return total


def sym_power(E: BundleClass, d: int) -> BundleClass:
    """The d-th symmetric power via the splitting principle, evaluated at
    the Chern classes of E."""
    in_e_basis = _sym_chern_in_e(E.rank, d, E.total_chern.truncation)
    images = [E.chern(i) for i in range(1, E.rank + 1)]
    chern = substitute(in_e_basis, images, E.total_chern.one_like())
    return BundleClass(rank_sym(E.rank - 1, d), chern)


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


# One op uses at most 21 entries (the identity grid); the bound lets an
# unused context and its Schubert memo be freed.
@lru_cache(maxsize=64, typed=True)
def sym_ustar(ctx: GrassContext, d: int, twist: int = 1) -> BundleClass:
    """Twisted symmetric power of the dual subbundle, cached.

    These are the normal bundle ingredients every degeneration needs, and
    the same powers recur across cases, so memoization pays for itself.
    Safe because contexts and bundle classes are immutable values.  The
    Chern classes of U* are the generators of ``ctx.spec``, so the e-basis
    result lands in that ring as the total Chern class, with nothing to
    evaluate.  A twist rescales the cached untwisted power; the untwisted
    lookup passes the twist positionally so it shares its cache entry with
    callers that ask for ``sym_ustar(ctx, k, 1)``.  The cache is typed, so
    ``True`` or ``1.0`` never hits the entry of ``1`` and is refused like
    any other non-integer.
    """
    if exact_int(twist, "twist") != 1:
        return adams_twist(sym_ustar(ctx, d, 1), twist)
    chern = _sym_chern_in_e(ctx.k, d, ctx.dim, ctx.spec)
    return BundleClass(rank_sym(ctx.k - 1, d), chern)
