"""Chern and Segre class computations for bundles over exact Chow rings.

A bundle is represented by its rank and total Chern class.  That class is
any ``symfunc.ClassCarrier`` -- a Grassmannian polynomial or an element of a
tabulated structure ring -- and this module uses only the carrier protocol
on it.  Segre classes are the series inverse of the Chern class, computed
on demand: ``segre(i)`` draws the inversion only up to degree i, and
``total_segre`` draws the rest.  Both indices are non-negative integers;
the signed Segre indices of the raw residual bracket are resolved where
that bracket is summed, in ``identities.bracket_sum``.
``BundleClass.chern``, ``segre`` and ``total_segre`` are the one spelling
of these operations.

Symmetric powers are computed by the splitting principle: the Chern roots
of the d-th symmetric power are the d-fold multiset sums of the original
roots.  Permuting the roots permutes the multisets in orbits, one per
partition of d, so Sym^d is computed one orbit at a time: the product of an
orbit's linear factors is symmetric, is rewritten in elementary symmetric
functions on its own, and the orbit classes are multiplied in that basis.
The one-part orbit's product is sum of d^j e_j and needs no rewriting.
``sym_power`` evaluates the result at the Chern classes of any bundle.
``sym_ustar`` needs no evaluation: the Chern classes of the dual
tautological subbundle are the generators of the Grassmannian's Chow ring,
so it writes the elementary symmetric functions straight into that ring.
Twisting by a line bundle rescales Chern and Segre classes alike, so a
twisted bundle scales the Segre parts of its untwisted bundle, each when it
is read, instead of inverting its Chern class again.  One Sym^d build
shares one set of e-basis tables across its orbits (see ``roots_to_e``).

A bundle also keeps its excess classes {c * s(N_l)}_e against one ambient
total Chern class c (``BundleClass.excess``): the main term of every piece
a residual decomposition splits off.  They are kept on the bundle and not
in any cache of their own, so ``sym_ustar.cache_clear()`` frees them with
the bundles.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

from .chow import GrassContext
from .symfunc import GradedPoly, e_spec, exact_int, inverse_parts, root_spec, roots_to_e
from .symfunc import Value, substitute


class BundleClass(Value):
    """An honest bundle: positive rank, total Chern class with unit term.

    Chern classes above the rank vanish for honest bundles, so a total Chern
    class with a nonzero part there is refused.  Instances are immutable
    and compare and hash by their rank and total Chern class; the Segre
    parts are drawn on first use, each only as far as a caller reads, and
    kept: from the inversion of the total Chern class, or from the parts of
    the untwisted bundle that ``adams_twist`` rescales.  So are the excess
    classes against the last ambient total Chern class the bundle met (see
    ``excess``).
    """

    __slots__ = ("rank", "total_chern", "_segre_parts", "_segre_source", "_excess")
    _fields = ("rank", "total_chern")

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
        object.__setattr__(self, "_segre_parts", [])
        object.__setattr__(self, "_segre_source", None)
        object.__setattr__(self, "_excess", None)

    def chern(self, i: int):
        """The i-th Chern class; zero beyond the carried degrees."""
        if exact_int(i, "Chern index") < 0:
            raise IndexError(f"Chern index must be non-negative, got {i}")
        return self.total_chern.degree_part(i)

    def segre(self, i: int):
        """The i-th Segre class; no part above degree i is computed for it."""
        if exact_int(i, "Segre index") < 0:
            raise IndexError(f"Segre index must be non-negative, got {i}")
        if i > self.total_chern.truncation:
            return self.total_chern.zero_like()
        if self._segre_source is None:
            object.__setattr__(self, "_segre_source", inverse_parts(self.total_chern))
        parts = self._segre_parts
        while len(parts) <= i:
            parts.append(next(self._segre_source))
        return parts[i]

    def total_segre(self):
        """The total Segre class: every part, drawn up to the truncation."""
        parts = map(self.segre, range(self.total_chern.truncation + 1))
        return sum(parts, self.total_chern.zero_like())

    def excess(self, c, e: int):
        """{c * s(self)}_e, the degree-e part of c times the Segre class.

        With c = c(N) and e = rank N - rank self this is c_e(N - self), the
        excess class of a piece with normal bundle ``self`` (Fulton,
        Intersection Theory, Thm 6.3).  Formed once per (c, e) and kept for
        the last c the bundle met, compared by identity, never by value.
        """
        kept = self._excess
        if kept is None or kept[0] is not c:
            kept = (c, {})
            object.__setattr__(self, "_excess", kept)
        part = kept[1].get(e)
        if part is None:
            part = kept[1][e] = _excess_part(c, self, e)
        return part

    def __repr__(self) -> str:
        return f"BundleClass(rank={self.rank}, c={self.total_chern.to_string()!r})"


def _excess_part(c, bundle: BundleClass, e: int):
    """{c * s(bundle)}_e, formed as the sum of c_i * s_(e-i)(bundle): no
    Segre part above degree e is read."""
    triples = []
    for i in range(e + 1):
        ci = c.degree_part(i)
        if not ci.is_zero:
            triples.append((1, ci, bundle.segre(e - i)))
    return c.zero_like().add_products(triples)


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
    product of linear factors is therefore symmetric on its own.  The
    one-part orbit, the roots d * t_i, has the product sum of d^j e_j, which
    is written into ``out_spec`` (an e1..ek spec when None) directly.  Every
    other orbit's product is formed in a root ring truncated at
    ``truncation``, rewritten there with ``roots_to_e``, and the orbit
    classes are multiplied.  An orbit's product has far fewer root monomials
    than the product over every multiset, and Sym^0 and Sym^1, whose only
    orbit has one part, build no root ring.
    """
    if exact_int(d, "symmetric power exponent") < 0:
        raise IndexError(f"symmetric power exponent must be non-negative, got {d}")
    if out_spec is None:
        out_spec = e_spec(k, truncation)
    total = GradedPoly.one(out_spec).add_products(
        (d**j, GradedPoly.generator(out_spec, name), 1)
        for j, name in enumerate(out_spec.names, 1)
    )
    # The orbits come in descending shape order, the one-part orbit first.
    orbits = _orbit_exponents(k, d)[1:]
    if not orbits:
        return total
    rspec = root_spec(k, truncation)
    roots = [GradedPoly.generator(rspec, name) for name in rspec.names]
    for orbit in orbits:
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
    class of E: each part s_i(E) * m**i is drawn from E when it is read,
    and one inversion of E serves every twist of it.
    """
    twisted = BundleClass(E.rank, E.total_chern.degree_scale(m))
    parts = (E.segre(i).scaled(m**i) for i in range(E.total_chern.truncation + 1))
    object.__setattr__(twisted, "_segre_source", parts)
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
def _sym_ustar(ctx: GrassContext, d: int, twist: int) -> BundleClass:
    if exact_int(twist, "twist") != 1:
        return adams_twist(_sym_ustar(ctx, d, 1), twist)
    chern = _sym_chern_in_e(ctx.k, d, ctx.dim, ctx.spec)
    return BundleClass(rank_sym(ctx.k - 1, d), chern)


def sym_ustar(ctx: GrassContext, d: int, twist: int = 1) -> BundleClass:
    """Twisted symmetric power of the dual subbundle, cached.

    These are the normal bundle ingredients every degeneration needs, and
    the same powers recur across cases, so memoization pays for itself.
    Safe because contexts and bundle classes are immutable values.  The
    Chern classes of U* are the generators of ``ctx.spec``, so the e-basis
    result lands in that ring as the total Chern class, with nothing to
    evaluate.  A twist rescales the cached untwisted power.  The cache is
    keyed by all three arguments, so ``sym_ustar(ctx, d)`` and
    ``sym_ustar(ctx, d, 1)`` are one entry and one bundle.  It is typed, so
    ``True`` or ``1.0`` never hits the entry of ``1`` and is refused like
    any other non-integer.
    """
    return _sym_ustar(ctx, d, twist)


sym_ustar.cache_info = _sym_ustar.cache_info
sym_ustar.cache_clear = _sym_ustar.cache_clear
