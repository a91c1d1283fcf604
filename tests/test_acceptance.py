"""Acceptance gate: every frozen reference value, exact, one line each.

Run with ``pytest tests/test_acceptance.py -v`` (or ``-s`` to see the
per-criterion PASS lines even when everything is green).  Each criterion is
one test; all comparisons are exact integer or polynomial equalities.
"""

from __future__ import annotations

import random

from schubres.bundles import BundleClass, sym_ustar, ustar
from schubres.chow import GrassContext, blowup_plane_at_point, integrate, integrate_oracle, projective_space
from schubres.identities import verify_identity
from schubres.limits import (
    DegenerationSpec,
    decompose_degeneration,
    enumerate_degenerations,
    fano_class,
    fano_degree,
)
from schubres.residual import (
    IntersectionSetup,
    divisor_decompose,
    main_term,
    regular_decompose,
)
from schubres.symfunc import GeneratorSpec, GradedPoly, parse_poly


def _report(number: int, name: str) -> None:
    print(f"[acceptance] criterion {number} ({name}): PASS")


def test_criterion_1_sym_cube_chern_and_segre_goldens() -> None:
    ctx = GrassContext(1, 3)
    poly = lambda text: parse_poly(ctx.spec, text)

    cube = sym_ustar(ctx, 3)
    assert cube.rank == 4
    assert cube.chern(1) == poly("6*x")
    assert cube.chern(2) == poly("11*x^2 + 10*y")
    assert cube.chern(3) == poly("6*x^3 + 30*x*y")
    assert cube.chern(4) == poly("18*x^2*y + 9*y^2")

    dual = ustar(ctx)
    assert dual.segre(1) == poly("-x")
    assert dual.segre(2) == poly("x^2 - y")
    _report(1, "Sym^3 U* classes and Segre parts")


def test_criterion_2_cubic_surface_split() -> None:
    ctx = GrassContext(1, 3)
    poly = lambda text: parse_poly(ctx.spec, text)
    report = decompose_degeneration(DegenerationSpec(ctx, ((1, 1), (1, 2))))
    first, second = report.pieces
    assert first.total_class == poly("6*x^2*y - 3*y^2")
    assert second.total_class == poly("12*x^2*y + 12*y^2")
    assert first.total_degree == 3
    assert second.total_degree == 24
    assert first.total_degree + second.total_degree == 27
    assert report.ambient_degree == 27
    _report(2, "cubic surface split 3 + 24 = 27")


QUINTIC_TABLE = (
    (((1, 4), (1, 1)), ((2400, 320, 2720), (1275, -1120, 155))),
    (((1, 3), (2, 1)), ((3195, -540, 2655), (1300, -1080, 220))),
    (((1, 3), (1, 2)), ((3195, -1080, 2115), (2920, -2160, 760))),
    (((1, 2), (3, 1)), ((2920, -540, 2380), (1575, -1080, 495))),
    (((2, 2), (1, 1)), ((2880, -640, 2240), (1275, -640, 635))),
)


def test_criterion_3_quintic_threefold_table() -> None:
    ctx = GrassContext(1, 4)
    assert fano_degree(ctx, 5) == 2875
    for pieces, expected in QUINTIC_TABLE:
        report = decompose_degeneration(DegenerationSpec(ctx, pieces))
        got = tuple(
            (p.main_degree, p.adjunct_degree, p.total_degree) for p in report.pieces
        )
        assert got == expected, f"case {pieces}: {got} != {expected}"
        assert report.pieces[0].total_degree + report.pieces[1].total_degree == 2875
        assert report.conserved
    _report(3, "quintic threefold: 2875 over five degenerations")


QUARTIC_TABLE = (
    (((3, 1), (1, 1)),
     ((3_304_098, -2_820_258, 483_840), (3_656_569, -843_129, 2_813_440))),
    (((2, 1), (2, 1)),
     ((3_087_616, -1_438_976, 1_648_640), (3_087_616, -1_438_976, 1_648_640))),
    (((1, 3), (1, 1)),
     ((-20_855_205, 24_000_165, 3_144_960), (3_656_569, -3_504_249, 152_320))),
    (((1, 2), (1, 2)),
     ((2_645_888, -997_248, 1_648_640), (2_645_888, -997_248, 1_648_640))),
    (((1, 2), (2, 1)),
     ((2_645_888, 561_792, 3_207_680), (3_087_616, -2_998_016, 89_600))),
)


def test_criterion_4_quartic_fivefold_table() -> None:
    ctx = GrassContext(2, 7)
    assert fano_degree(ctx, 4) == 3_297_280
    for pieces, expected in QUARTIC_TABLE:
        report = decompose_degeneration(DegenerationSpec(ctx, pieces))
        got = tuple(
            (p.main_degree, p.adjunct_degree, p.total_degree) for p in report.pieces
        )
        assert got == expected, f"case {pieces}: {got} != {expected}"
        assert report.pieces[0].total_degree + report.pieces[1].total_degree == 3_297_280
        assert report.conserved
    _report(4, "quartic in P^7: 3,297,280 over five degenerations")


def test_criterion_5_identity_grid() -> None:
    for r, n in ((1, 3), (1, 4), (2, 5)):
        ctx = GrassContext(r, n)
        for k in range(1, 4):
            for l in range(1, 5 - k):
                residual = verify_identity(ctx, k, l)
                assert residual.is_zero, f"(r,n,k,l)=({r},{n},{k},{l}): {residual}"
    _report(5, "conservation identity grid k+l <= 4")


def _struct_degrees(decomposition) -> tuple[tuple[int, int, int], ...]:
    """(main, adjunct, total) degree of each component on a tabulated ring."""
    return tuple(
        (c.main.integrate(), c.adjunct.integrate(), c.total.integrate())
        for c in decomposition.components
    )


def test_criterion_6_blowup_divisor_fixture() -> None:
    ring = blowup_plane_at_point()
    setup = IntersectionSetup(cN=ring.parse("1 + 2*h") ** 2, d=2)
    s_single = ring.parse("e + P")

    one_copy_first = divisor_decompose(setup, s_single, ring.parse("e"), s_single)
    assert one_copy_first.components[0].total == ring.parse("2*P")
    assert one_copy_first.components[1].total == ring.parse("2*P")
    assert _struct_degrees(one_copy_first) == ((1, 1, 2), (1, 1, 2))

    whole_first = divisor_decompose(
        setup,
        ring.parse("2*e + 4*P"),
        ring.parse("2*e"),
        ring.zero(),
    )
    assert whole_first.components[0].total == ring.parse("4*P")
    assert whole_first.components[1].total.is_zero
    assert _struct_degrees(whole_first) == ((4, 0, 4), (0, 0, 0))

    base = projective_space(2)
    coarse = IntersectionSetup(cN=base.parse("1 + 4*h + 4*h2"), d=2)
    main = main_term(coarse, base.parse("h2"))
    assert main == base.parse("h2")
    assert base.parse("4*h2") - main == base.parse("3*h2")
    _report(6, "blow-up fixture: (2p, 2p), (4p, 0), coarse (p, 3p)")


def test_criterion_7_property_suites() -> None:
    rng = random.Random(99)

    # c * s == 1 (up to truncation) on 1000 random bundles.
    for _ in range(1000):
        ngens = rng.randint(1, 3)
        names = tuple("abc"[:ngens])
        degrees = tuple(range(1, ngens + 1))
        truncation = rng.randint(3, 7)
        spec = GeneratorSpec(names, degrees, truncation)
        rank = rng.randint(1, 4)
        total = GradedPoly.one(spec)
        for _ in range(rng.randint(1, 6)):
            expo = tuple(rng.randint(0, 2) for _ in range(ngens))
            degree = sum(x * d for x, d in zip(expo, degrees))
            if 1 <= degree <= min(rank, truncation):
                total = total + GradedPoly(spec, {expo: rng.randint(-9, 9)})
        bundle = BundleClass(rank, total)
        assert bundle.total_chern * bundle.total_segre() == GradedPoly.one(spec)

    # Pieri-rule integration agrees with the Jacobi root oracle, exhaustively.
    for r, n in ((1, 3), (2, 4), (0, 3)):
        ctx = GrassContext(r, n)
        for exponents in _exhaustive_top_monomials(ctx):
            p = GradedPoly(ctx.spec, {exponents: 1})
            assert integrate(ctx, p) == integrate_oracle(ctx, p)

    # Swap symmetry of the regular-embedding evaluator.
    ctx = GrassContext(1, 3)
    ambient = sym_ustar(ctx, 3)
    setup = IntersectionSetup(cN=ambient.total_chern, d=ambient.rank)
    b1, b2 = sym_ustar(ctx, 1, 1), sym_ustar(ctx, 1, 2)
    z1, z2 = b1.chern(2), b2.chern(2)
    forward = regular_decompose(setup, b1, b2, z1, z2, z1 * z2)
    backward = regular_decompose(setup, b2, b1, z2, z1, z1 * z2)
    assert forward.components[0].total == backward.components[1].total
    assert forward.components[1].total == backward.components[0].total

    # Adjunct vanishing: lines, both pieces reduced.
    for n in (3, 4):
        ctx = GrassContext(1, n)
        for k, l in ((1, 1), (1, 2), (2, 2)):
            report = decompose_degeneration(DegenerationSpec(ctx, ((k, 1), (l, 1))))
            assert report.pieces[0].adjunct_class.is_zero
            assert report.pieces[1].adjunct_class.is_zero

    # Conservation on random valid degeneration specs with r <= 2, n <= 7,
    # d <= 5: the piece totals always sum to the top Chern class.
    for _ in range(12):
        r = rng.randint(1, 2)
        n = rng.randint(r + 1, 7)
        d = rng.randint(2, 5)
        pieces = rng.choice(enumerate_degenerations(d))
        ctx = GrassContext(r, n)
        report = decompose_degeneration(DegenerationSpec(ctx, pieces))
        assert report.conserved, f"(r,n,d,pieces)=({r},{n},{d},{pieces})"
        total = report.pieces[0].total_class + report.pieces[1].total_class
        assert total == fano_class(ctx, d)
    _report(7, "property suites: c*s=1, oracle, swap, vanishing, conservation")


def _exhaustive_top_monomials(ctx: GrassContext):
    degrees = ctx.spec.degrees
    target = ctx.dim

    def extend(prefix: tuple[int, ...], remaining: int):
        index = len(prefix)
        if index == len(degrees):
            if remaining == 0:
                yield prefix
            return
        step = degrees[index]
        for count in range(remaining // step + 1):
            yield from extend(prefix + (count,), remaining - count * step)

    yield from extend((), target)
