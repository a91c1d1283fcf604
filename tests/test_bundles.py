"""Tests for Chern/Segre arithmetic and symmetric powers."""

from __future__ import annotations

import gc
import itertools
import random
import weakref

import pytest

from schubres import bundles, symfunc
from schubres.bundles import (
    BundleClass,
    adams_twist,
    rank_sym,
    sym_power,
    sym_ustar,
    ustar,
)
from schubres.chow import GrassContext, blowup_plane_at_point
from schubres.limits import (
    DegenerationSpec,
    decompose_degeneration,
    enumerate_degenerations,
    fano_family,
)
from schubres.symfunc import (
    GeneratorSpec,
    GradedPoly,
    parse_poly,
    root_spec,
    roots_to_e,
    series_inverse,
    substitute,
)


def lines_ctx() -> GrassContext:
    return GrassContext(1, 3)


def c(ctx: GrassContext, text: str) -> GradedPoly:
    return parse_poly(ctx.spec, text)


def test_bundle_constructor_validation() -> None:
    ctx = lines_ctx()
    with pytest.raises(ValueError):
        BundleClass(0, GradedPoly.one(ctx.spec))
    with pytest.raises(ValueError):
        BundleClass(2, c(ctx, "2 + x"))
    # Honest bundles carry nothing above their rank: refused, not cut off.
    with pytest.raises(ValueError, match="rank-1 bundle has a Chern class in degree 2"):
        BundleClass(1, c(ctx, "1 + x + y"))


def test_bundle_rank_rejects_non_integers() -> None:
    ctx = lines_ctx()
    U = ustar(ctx)
    for bad in (True, 2.0):
        with pytest.raises(ValueError, match="not an integer"):
            BundleClass(bad, c(ctx, "1 + x"))
        # A Chern or Segre index is never read as 1 from True or 1.0.
        with pytest.raises(ValueError, match="not an integer"):
            U.chern(bad)
        with pytest.raises(ValueError, match="not an integer"):
            U.segre(bad)


def test_dual_subbundle_chern_classes() -> None:
    ctx = lines_ctx()
    U = ustar(ctx)
    assert U.rank == 2
    assert U.chern(1) == c(ctx, "x")
    assert U.chern(2) == c(ctx, "y")
    assert U.chern(3).is_zero
    with pytest.raises(IndexError):
        U.chern(-1)


def test_segre_of_dual_subbundle() -> None:
    ctx = lines_ctx()
    U = ustar(ctx)
    assert U.segre(0) == 1
    assert U.segre(1) == c(ctx, "-x")
    assert U.segre(2) == c(ctx, "x^2 - y")
    assert U.total_segre() * U.total_chern == 1


def test_segre_negative_index_conventions() -> None:
    # Signed Segre indices belong to identities.bracket_sum; a bundle takes
    # only non-negative ones.
    U = ustar(lines_ctx())
    for i in (-1, -2, -3):
        with pytest.raises(IndexError):
            U.segre(i)


def test_sym_cube_of_dual_subbundle() -> None:
    # Total Chern class of the third symmetric power on the line
    # Grassmannian, the running rank-two example.
    ctx = lines_ctx()
    E = sym_power(ustar(ctx), 3)
    assert E.rank == 4
    assert E.chern(1) == c(ctx, "6*x")
    assert E.chern(2) == c(ctx, "11*x^2 + 10*y")
    assert E.chern(3) == c(ctx, "6*x^3 + 30*x*y")
    assert E.chern(4) == c(ctx, "18*x^2*y + 9*y^2")


def test_sym_square_of_dual_subbundle() -> None:
    ctx = lines_ctx()
    E = sym_power(ustar(ctx), 2)
    assert E.rank == 3
    assert E.total_chern == c(ctx, "1 + 3*x + 2*x^2 + 4*y + 4*x*y")


def test_sym_power_identity_and_zero() -> None:
    ctx = GrassContext(2, 5)
    U = ustar(ctx)
    assert sym_power(U, 1) == U
    trivial = sym_power(U, 0)
    assert trivial.rank == 1
    assert trivial.total_chern == 1
    with pytest.raises(IndexError):
        sym_power(U, -1)


def test_sym_power_against_numeric_roots() -> None:
    # Independent check: give the bundle explicit integer Chern roots and
    # compare against the direct product of (1 + multiset sum) factors.
    spec = GeneratorSpec(("t",), (1,), 10)
    t = GradedPoly.generator(spec, "t")
    roots = (1, 2, 3)
    total = GradedPoly.one(spec)
    for a in roots:
        total = total * (1 + a * t)
    E = BundleClass(3, total)
    for d in (2, 3):
        sums = [
            sum(roots[i] for i in multiset)
            for multiset in itertools.combinations_with_replacement(range(3), d)
        ]
        expected = GradedPoly.one(spec)
        for s in sums:
            expected = expected * (1 + s * t)
        assert sym_power(E, d).total_chern == expected
        assert sym_power(E, d).rank == len(sums)


def test_sym_power_of_line_bundle() -> None:
    spec = GeneratorSpec(("h",), (1,), 5)
    h = GradedPoly.generator(spec, "h")
    line = BundleClass(1, 1 + 3 * h)
    cube = sym_power(line, 4)
    assert cube.rank == 1
    assert cube.total_chern == 1 + 12 * h


def test_rank_sym_values() -> None:
    assert rank_sym(1, 3) == 4
    assert rank_sym(1, 5) == 6
    assert rank_sym(2, 4) == 15
    assert rank_sym(2, 0) == 1
    with pytest.raises(ValueError):
        rank_sym(-1, 2)


def test_rank_sym_rejects_non_integers() -> None:
    for r, m in ((1, 2.0), (1.0, 2), (True, 2), (1, False)):
        with pytest.raises(ValueError, match="not an integer"):
            rank_sym(r, m)


def test_sym_power_rejects_non_integers() -> None:
    U = ustar(lines_ctx())
    for bad in (True, 2.0):
        with pytest.raises(ValueError, match="not an integer"):
            sym_power(U, bad)
        with pytest.raises(ValueError, match="not an integer"):
            adams_twist(U, bad)
    with pytest.raises(IndexError):
        sym_power(U, -1)


def test_sym_ustar_rejects_non_integers_after_a_cache_hit() -> None:
    # The cache is typed: True and 1.0 must not reuse the entry of 1.
    ctx = lines_ctx()
    sym_ustar(ctx, 1)
    sym_ustar(ctx, 2, 1)
    for d, twist in ((True, 1), (1.0, 1), (2, True), (2, 1.0), (2, 2.0)):
        with pytest.raises(ValueError, match="not an integer"):
            sym_ustar(ctx, d, twist)
    with pytest.raises(ValueError, match="not an integer"):
        sym_ustar(ctx, True)
    assert sym_ustar(ctx, 1) == ustar(ctx)


def test_adams_twist() -> None:
    ctx = lines_ctx()
    U = ustar(ctx)
    twisted = adams_twist(U, 2)
    assert twisted.total_chern == c(ctx, "1 + 2*x + 4*y")
    assert adams_twist(adams_twist(U, 2), 3) == adams_twist(U, 6)
    assert adams_twist(U, 1) == U
    # Twisting commutes with taking Segre classes.
    assert twisted.total_segre() == U.total_segre().degree_scale(2)


def test_sym_power_commutes_with_twists(monkeypatch) -> None:
    # sym_power evaluates through substitute once per call, whatever the
    # bundle.  The twist is a ring homomorphism, so twisting before or after
    # the power must agree exactly.
    substituted = []
    original = bundles.substitute

    def counted(*args):
        substituted.append(args)
        return original(*args)

    monkeypatch.setattr(bundles, "substitute", counted)
    for ctx in (GrassContext(1, 3), GrassContext(1, 4), GrassContext(2, 5)):
        U = ustar(ctx)
        for d in range(1, 5):
            for m in (2, 3, -1):
                before = len(substituted)
                twisted_first = sym_power(adams_twist(U, m), d)
                assert len(substituted) == before + 1
                powered_first = adams_twist(sym_power(U, d), m)
                assert len(substituted) == before + 2
                assert twisted_first == powered_first
                assert twisted_first.total_chern.terms == powered_first.total_chern.terms


def test_twisted_segre_matches_inverted_chern() -> None:
    for ctx in (GrassContext(1, 3), GrassContext(2, 5)):
        for d in (1, 2, 3):
            E = sym_power(ustar(ctx), d)
            for m in (2, 3, -1, 0):
                twisted = adams_twist(E, m)
                assert twisted.total_segre() == series_inverse(twisted.total_chern)
    ring = blowup_plane_at_point()
    N = BundleClass(2, ring.parse("1 + 2*h") ** 2)
    for m in (2, -3):
        twisted = adams_twist(N, m)
        assert twisted.total_segre() == twisted.total_chern.series_inverse()


def test_chern_times_segre_is_one_random() -> None:
    rng = random.Random(23)
    spec = GeneratorSpec(("a", "b", "c"), (1, 2, 3), 8)
    for _ in range(100):
        total = GradedPoly.one(spec)
        for name, degree in zip(spec.names, spec.degrees):
            coeff = rng.randint(-6, 6)
            total = total + coeff * GradedPoly.generator(spec, name)
        for extra in range(rng.randrange(3)):
            total = total + rng.randint(-4, 4) * parse_poly(spec, "a*b")
        E = BundleClass(8, total)
        assert E.total_chern * E.total_segre() == 1


def test_bundles_over_structure_rings() -> None:
    # The same operations work over a tabulated ring carrier.
    ring = blowup_plane_at_point()
    N = BundleClass(2, ring.parse("1 + 2*h") ** 2)
    assert N.chern(1) == ring.parse("4*h")
    assert N.chern(2) == ring.parse("4*P")
    assert N.segre(1) == ring.parse("-4*h")
    assert N.segre(2) == ring.parse("12*P")
    line = BundleClass(1, ring.parse("1 + h"))
    assert sym_power(line, 2).total_chern == ring.parse("1 + 2*h")


def test_sym_ustar_caching() -> None:
    ctx = lines_ctx()
    first = sym_ustar(ctx, 3)
    assert first is sym_ustar(GrassContext(1, 3), 3)
    twisted = sym_ustar(ctx, 1, 2)
    assert twisted.total_chern == c(ctx, "1 + 2*x + 4*y")


def test_sym_ustar_builds_one_power_for_both_spellings(monkeypatch) -> None:
    # The count of lines on a conic asks for Sym^2 with two arguments, the
    # degeneration 2 + 1 asks for it with three as a piece: one bundle, so
    # three powers take three builds, not four.
    built = []
    sym_chern_in_e = bundles._sym_chern_in_e

    def counted(k, d, *args):
        built.append(d)
        return sym_chern_in_e(k, d, *args)

    monkeypatch.setattr(bundles, "_sym_chern_in_e", counted)
    sym_ustar.cache_clear()
    ctx = GrassContext(1, 4)
    fano_family(ctx, 2)
    decompose_degeneration(DegenerationSpec(ctx, ((2, 1), (1, 1))))
    assert sorted(built) == [1, 2, 3]
    assert sym_ustar(ctx, 2) is sym_ustar(ctx, 2, 1)
    assert sym_ustar.cache_info().currsize == 3
    sym_ustar.cache_clear()


def test_sym_power_routes_agree() -> None:
    # sym_ustar writes the e-basis result straight into the Chern ring;
    # sym_power evaluates it at the Chern classes of U* through substitute.
    for (r, n), top in (((1, 4), 5), ((2, 7), 4), ((3, 8), 3)):
        ctx = GrassContext(r, n)
        U = ustar(ctx)
        for d in range(top + 1):
            assert sym_ustar(ctx, d) == sym_power(U, d), (r, n, d)
    # A part above the rank is refused on either carrier.
    ring = blowup_plane_at_point()
    with pytest.raises(ValueError, match="degree 2"):
        BundleClass(1, ring.parse("1 + h + P"))
    with pytest.raises(ValueError, match="degree 3"):
        BundleClass(2, c(GrassContext(1, 3), "1 + x + x*y"))
    # So is a scale factor that is not an int.
    for value in (U.total_chern, ring.parse("1 + h + P")):
        assert value.degree_scale(1) == value
        for bad in (2.0, True):
            with pytest.raises(ValueError, match="not an integer"):
                value.degree_scale(bad)


def test_sym_ustar_cache_is_bounded() -> None:
    # An evicted context, with its Schubert memo, is freed.
    sym_ustar.cache_clear()
    ctx = GrassContext(1, 3)
    sym_ustar(ctx, 2)
    ref = weakref.ref(ctx)
    del ctx
    point_ctx = GrassContext(0, 2)
    for d in range(1, sym_ustar.cache_info().maxsize + 1):
        sym_ustar(point_ctx, d)
    gc.collect()
    assert ref() is None
    assert sym_ustar.cache_info().currsize == sym_ustar.cache_info().maxsize == 64


def full_multiset_product(k: int, d: int, truncation: int) -> GradedPoly:
    """Reference Sym^d route: the linear factor of every d-multiset of k
    roots multiplied in one root ring, rewritten in e1..ek once at the end."""
    rspec = root_spec(k, truncation)
    gens = [GradedPoly.generator(rspec, name) for name in rspec.names]
    total = GradedPoly.one(rspec)
    for multiset in itertools.combinations_with_replacement(range(k), d):
        factor = GradedPoly.one(rspec)
        for index in multiset:
            factor = factor + gens[index]
        total = total * factor
    return roots_to_e(total)


def test_orbit_route_matches_the_full_multiset_product() -> None:
    # One S_k-orbit of multisets at a time gives exactly the Chern classes
    # of the product over all multisets, written into a default e-basis
    # spec or straight into the Chern ring of the Grassmannian.
    for (r, n), top in (((1, 4), 5), ((2, 7), 4), ((3, 8), 3)):
        ctx = GrassContext(r, n)
        for d in range(top + 1):
            expected = full_multiset_product(ctx.k, d, ctx.dim)
            assert bundles._sym_chern_in_e(ctx.k, d, ctx.dim) == expected, (r, n, d)
            in_ring = bundles._sym_chern_in_e(ctx.k, d, ctx.dim, ctx.spec)
            assert in_ring.spec == ctx.spec
            assert in_ring.terms == expected.terms, (r, n, d)


def test_orbit_route_matches_the_full_product_over_a_structure_ring() -> None:
    ring = blowup_plane_at_point()
    for total in (ring.parse("1 + 2*h") ** 2, ring.parse("1 + h - e"), ring.parse("1 + 3*e")):
        E = BundleClass(2, total)
        images = [E.chern(1), E.chern(2)]
        for d in range(5):
            in_e_basis = full_multiset_product(2, d, ring.top_degree)
            expected = substitute(in_e_basis, images, total.one_like())
            assert sym_power(E, d).total_chern == expected, (total, d)


def table_bundles() -> list[tuple[GrassContext, int, int]]:
    """(context, degree, twist) of every bundle the two paper tables read:
    each piece, twisted or not, and the ambient power."""
    found = []
    for (r, n), degree in (((1, 4), 5), ((2, 7), 4)):
        ctx = GrassContext(r, n)
        found.append((ctx, degree, 1))
        for pieces in enumerate_degenerations(degree):
            found.extend((ctx, k, e) for k, e in pieces if (ctx, k, e) not in found)
    return found


def test_segre_on_demand_matches_the_whole_inversion() -> None:
    # Whatever order the indices are read in, on a cold cache, each Segre
    # class is the part of the total Segre class and of the inverted total
    # Chern class in its degree; twisted bundles draw from their untwisted
    # power.
    rng = random.Random(19)
    for ctx, d, m in table_bundles():
        indices = list(range(ctx.dim + 1))
        for order in (indices, indices[::-1], rng.sample(indices, len(indices))):
            sym_ustar.cache_clear()
            bundle = sym_ustar(ctx, d, m)
            read = {i: bundle.segre(i) for i in order}
            total = bundle.total_segre()
            assert total == series_inverse(bundle.total_chern)
            assert [read[i] for i in indices] == [total.degree_part(i) for i in indices]
            assert bundle.segre(ctx.dim + 1).is_zero


def test_segre_draws_no_part_above_its_index(monkeypatch) -> None:
    drawn = []
    inverse_parts = bundles.inverse_parts

    def counted(total_chern):
        for i, part in enumerate(inverse_parts(total_chern)):
            drawn.append(i)
            yield part

    monkeypatch.setattr(bundles, "inverse_parts", counted)
    ctx = GrassContext(2, 7)
    for m in (1, 2, -1):
        sym_ustar.cache_clear()
        drawn.clear()
        bundle = sym_ustar(ctx, 3, m)
        assert bundle.segre(3) == series_inverse(bundle.total_chern).degree_part(3)
        assert drawn == [0, 1, 2, 3]
        bundle.segre(1)
        assert drawn == [0, 1, 2, 3]
        bundle.total_segre()
        assert drawn == list(range(ctx.dim + 1))
        for bad, error in ((-1, IndexError), (True, ValueError), (2.0, ValueError)):
            with pytest.raises(error):
                bundle.segre(bad)


def test_one_sym_power_build_shares_its_e_basis_tables(monkeypatch) -> None:
    # Sym^3 of a rank-3 bundle has three S_3-orbits.  The one-part orbit
    # is written down directly, so there are two roots_to_e calls; they
    # share one set of elementary symmetric polynomials, built once on the
    # build's root spec, and the spec and its tables are freed with the
    # build.
    built, specs = [], []
    elementary = symfunc.elementary_symmetric
    make_root_spec = bundles.root_spec

    def counted(spec, i):
        built.append(i)
        return elementary(spec, i)

    def recorded(k, truncation):
        spec = make_root_spec(k, truncation)
        specs.append(weakref.ref(spec))
        return spec

    ctx = GrassContext(2, 7)
    expected = full_multiset_product(ctx.k, 3, ctx.dim)
    monkeypatch.setattr(symfunc, "elementary_symmetric", counted)
    monkeypatch.setattr(bundles, "root_spec", recorded)
    in_ring = bundles._sym_chern_in_e(ctx.k, 3, ctx.dim, ctx.spec)
    assert in_ring.terms == expected.terms
    assert sorted(built) == [1, 2, 3]
    gc.collect()
    assert [ref() for ref in specs] == [None]
    assert ctx.spec._e_tables is None


def test_one_part_orbits_build_no_root_ring(monkeypatch) -> None:
    # The only orbit of Sym^0 and Sym^1 has one part, and its product is
    # sum of d^j e_j: it is written into the output ring with no root spec
    # and no roots_to_e call, also when e_k lies above the truncation.
    def refuse(*args):
        raise AssertionError(f"called with {args}")

    monkeypatch.setattr(bundles, "root_spec", refuse)
    monkeypatch.setattr(bundles, "roots_to_e", refuse)
    for k, truncation in ((1, 2), (2, 6), (3, 15), (4, 20), (3, 2)):
        for d in (0, 1):
            expected = full_multiset_product(k, d, truncation)
            assert bundles._sym_chern_in_e(k, d, truncation) == expected, (k, d)
    sym_ustar.cache_clear()
    for r, n in ((0, 2), (1, 4), (2, 7), (3, 8)):
        ctx = GrassContext(r, n)
        assert sym_ustar(ctx, 1) == ustar(ctx)
        assert sym_ustar(ctx, 0).total_chern == 1


class WeakPoly(GradedPoly):
    """A GradedPoly that can be weakly referenced.  Every class computed
    from one (its parts, products with it, sums onto its zero) is another,
    so classes derived from a WeakPoly can be watched being freed."""

    __slots__ = ("__weakref__",)


class WeakBundle(BundleClass):
    __slots__ = ("__weakref__",)


def weak(value: GradedPoly) -> WeakPoly:
    return WeakPoly._raw(value.ring, value.packed)


def test_a_bundle_keeps_the_excess_classes_of_one_ambient() -> None:
    # {c * s(N)}_e is formed once per (c, e) and looked up by the identity of
    # c.  A bundle that meets many ambients keeps only the last one's
    # classes, and an ambient equal in value but another object forms its
    # classes again.
    ctx = GrassContext(2, 7)
    N = sym_ustar(ctx, 1, 2)
    segre = N.total_segre()
    refs = []
    for d in range(2, 6):
        chern = sym_ustar(ctx, d).total_chern
        c = weak(chern)
        parts = [N.excess(c, e) for e in range(5)]
        assert [part.packed for part in parts] == [
            (chern * segre).degree_part(e).packed for e in range(5)
        ]
        assert all(N.excess(c, e) is part for e, part in enumerate(parts))
        refs.append([weakref.ref(c), *map(weakref.ref, parts)])
        del c, parts
    gc.collect()
    alive = [[ref() is not None for ref in row] for row in refs]
    assert alive == [[False] * 6] * 3 + [[True] * 6]
    last = refs[-1][0]()
    twin = weak(last)
    assert N.excess(twin, 3) == N.excess(last, 3)
    assert N.excess(twin, 3) is not refs[-1][4]()
    assert N.excess(twin, 3) is N.excess(twin, 3)


def test_tables_form_each_excess_class_once_and_free_it_with_the_cache(monkeypatch) -> None:
    # The excess class of a piece depends only on the ambient c(N) and the
    # piece, so a table on a cold cache forms it once per distinct piece: 8
    # times on G(1,4) with d = 5 and 5 times on G(2,7) with d = 4.  A warm
    # pass forms none.  The classes are kept on the bundles and in no cache
    # of their own: after sym_ustar.cache_clear() a pass forms them again,
    # and the bundles and their classes are freed.  The bundles and classes
    # are made weakly referable here to see them freed.
    formed = []
    excess_part = bundles._excess_part
    sym_chern_in_e = bundles._sym_chern_in_e

    def recorded(c, bundle, e):
        part = excess_part(c, bundle, e)
        formed.append((weakref.ref(bundle), weakref.ref(part)))
        return part

    monkeypatch.setattr(bundles, "_excess_part", recorded)
    monkeypatch.setattr(bundles, "_sym_chern_in_e", lambda *args: weak(sym_chern_in_e(*args)))
    monkeypatch.setattr(bundles, "BundleClass", WeakBundle)
    for (r, n), degree, pieces in (((1, 4), 5, 8), ((2, 7), 4, 5)):
        ctx = GrassContext(r, n)
        specs = [DegenerationSpec(ctx, p) for p in enumerate_degenerations(degree)]
        for cold in (True, False, True):
            if cold:
                sym_ustar.cache_clear()
                gc.collect()
                assert [(b(), p()) for b, p in formed] == [(None, None)] * len(formed)
                formed.clear()
            assert all(decompose_degeneration(spec).conserved for spec in specs)
            # The warm pass adds nothing to what the cold pass formed.
            assert len(formed) == len({bundle() for bundle, _ in formed}) == pieces
    sym_ustar.cache_clear()
    gc.collect()
    assert [(b(), p()) for b, p in formed] == [(None, None)] * 5
