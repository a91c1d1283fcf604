"""Tests for Chern/Segre arithmetic and symmetric powers."""

from __future__ import annotations

import itertools
import random

import pytest

from schubres import bundles
from schubres.bundles import (
    BundleClass,
    VirtualClass,
    adams_twist,
    difference,
    rank_sym,
    sym_power,
    sym_ustar,
    ustar,
)
from schubres.chow import GrassContext, blowup_plane_at_point
from schubres.errors import CancellationRequiredError
from schubres.symfunc import GeneratorSpec, GradedPoly, parse_poly, series_inverse


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
    with pytest.raises(ValueError):
        VirtualClass(c(ctx, "x"))
    # Honest bundles carry nothing above their rank.
    line = BundleClass(1, c(ctx, "1 + x + y"))
    assert line.total_chern == c(ctx, "1 + x")


def test_bundle_rank_rejects_non_integers() -> None:
    ctx = lines_ctx()
    for bad in (True, 2.0):
        with pytest.raises(ValueError, match="not an integer"):
            BundleClass(bad, c(ctx, "1 + x"))


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
    U = ustar(lines_ctx())
    assert U.segre(-1).is_zero
    with pytest.raises(CancellationRequiredError):
        U.segre(-2)
    with pytest.raises(IndexError):
        U.segre(-3)


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
    # A twisted U* is not generated by its own Chern classes, so its power
    # goes through substitute; U* itself takes the identity route.  The
    # twist is a ring homomorphism, so both routes must agree exactly.
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
                assert len(substituted) == before + 1
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


def test_difference_virtual_class() -> None:
    ctx = lines_ctx()
    U = ustar(ctx)
    cube = sym_power(U, 3)
    diff = difference(cube, U)
    assert diff.chern(1) == c(ctx, "5*x")
    assert diff.chern(2) == c(ctx, "6*x^2 + 9*y")
    trivial = BundleClass(1, GradedPoly.one(ctx.spec))
    assert difference(cube, trivial).total_chern == cube.total_chern


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
