"""Tests for degeneration limits of hypersurface plane schemes."""

from __future__ import annotations

import random

import pytest

from schubres import bundles, chow, kernel, limits, symfunc
from schubres.chow import GrassContext, integrate, partitions_in_box, schubert_poly
from schubres.limits import (
    DegenerationSpec,
    decompose_degeneration,
    enumerate_degenerations,
    fano_class,
    fano_degree,
    piece_label,
)
from schubres.symfunc import parse_poly


def test_piece_labels() -> None:
    assert piece_label(2, 1) == "X2"
    assert piece_label(1, 4) == "X1^4"
    spec = DegenerationSpec(GrassContext(1, 4), ((1, 4), (1, 1)))
    assert spec.labels == ("X1^4", "X1")
    assert str(spec) == "X1^4 + X1"
    assert spec.degree == 5


def test_spec_validation() -> None:
    ctx = GrassContext(1, 3)
    with pytest.raises(ValueError):
        DegenerationSpec(ctx, ((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        DegenerationSpec(ctx, ((1, 0), (1, 2)))
    with pytest.raises(ValueError):
        DegenerationSpec(ctx, ((1, 1), (1, 1), (1, 1)))  # type: ignore[arg-type]


def test_spec_rejects_non_integers() -> None:
    ctx = GrassContext(1, 4)
    for pieces in (((1.9, 1), (1, 3)), ((1, 1), (True, 3)), ((1, 1.0), (1, 3))):
        with pytest.raises(ValueError, match="not an integer"):
            DegenerationSpec(ctx, pieces)


def test_fano_counts_for_classical_surfaces() -> None:
    assert fano_degree(GrassContext(1, 3), 3) == 27
    assert fano_degree(GrassContext(1, 4), 5) == 2875
    # A general quartic surface contains no lines.
    assert fano_degree(GrassContext(1, 3), 4) == 0


def test_cubic_surface_degeneration() -> None:
    # A cubic surface degenerating to a plane plus a doubled plane:
    # 3 limit lines attach to the reduced plane, 24 to the double one.
    ctx = GrassContext(1, 3)
    report = decompose_degeneration(DegenerationSpec(ctx, ((1, 1), (1, 2))))

    def poly(text: str):
        return parse_poly(ctx.spec, text)

    reduced, doubled = report.pieces
    assert reduced.label == "X1"
    assert doubled.label == "X1^2"
    assert reduced.total_class == poly("6*x^2*y - 3*y^2")
    assert doubled.total_class == poly("12*x^2*y + 12*y^2")
    assert (reduced.main_degree, reduced.adjunct_degree) == (15, -12)
    assert reduced.total_degree == 3
    assert doubled.total_degree == 24
    assert report.ambient_class == poly("18*x^2*y + 9*y^2")
    assert report.ambient_degree == 27
    assert report.conserved


def test_quintic_threefold_sample_cases() -> None:
    ctx = GrassContext(1, 4)

    report = decompose_degeneration(DegenerationSpec(ctx, ((1, 4), (1, 1))))
    quadruple, plain = report.pieces
    assert (quadruple.main_degree, quadruple.adjunct_degree, quadruple.total_degree) == (
        2400, 320, 2720,
    )
    assert (plain.main_degree, plain.adjunct_degree, plain.total_degree) == (
        1275, -1120, 155,
    )
    assert report.ambient_degree == 2875
    assert report.conserved

    report = decompose_degeneration(DegenerationSpec(ctx, ((2, 2), (1, 1))))
    doubled_quadric, plane = report.pieces
    assert (
        doubled_quadric.main_degree,
        doubled_quadric.adjunct_degree,
        doubled_quadric.total_degree,
    ) == (2880, -640, 2240)
    assert (plane.main_degree, plane.adjunct_degree, plane.total_degree) == (
        1275, -640, 635,
    )
    assert report.ambient_degree == 2875
    assert report.conserved


def test_quartic_fivefold_sample_case() -> None:
    # Planes on a quartic in P^7 degenerating to a doubled hyperplane plus
    # a quadric; one of the adjunct corrections is positive.
    ctx = GrassContext(2, 7)
    report = decompose_degeneration(DegenerationSpec(ctx, ((1, 2), (2, 1))))
    doubled, quadric = report.pieces
    assert (doubled.main_degree, doubled.adjunct_degree, doubled.total_degree) == (
        2_645_888, 561_792, 3_207_680,
    )
    assert (quadric.main_degree, quadric.adjunct_degree, quadric.total_degree) == (
        3_087_616, -2_998_016, 89_600,
    )
    assert report.ambient_degree == 3_297_280
    assert report.conserved


# The cubic table for 3-planes in P^11, (main, adjunct, total) per piece.
# Ellingsrud-Stromme's localization (Bott's formula, alg-geom/9411005),
# run as an independent prototype, gave exactly these values.
G411_CUBIC_TABLE = {
    ((1, 2), (1, 1)): (
        (-91_593_000_049_408, 91_594_740_621_472, 1_740_572_064),
        (844_658_100, -772_583_328, 72_074_772),
    ),
    ((2, 1), (1, 1)): (
        (-3_763_927_200, 3_763_927_200, 0),
        (844_658_100, 967_988_736, 1_812_646_836),
    ),
}


def test_g411_cubic_table() -> None:
    ctx = GrassContext(4, 11)
    assert fano_degree(ctx, 3) == 1_812_646_836
    cases = enumerate_degenerations(3)
    assert sorted(cases) == sorted(G411_CUBIC_TABLE)
    for pieces in cases:
        report = decompose_degeneration(DegenerationSpec(ctx, pieces))
        got = tuple(
            (piece.main_degree, piece.adjunct_degree, piece.total_degree)
            for piece in report.pieces
        )
        assert got == G411_CUBIC_TABLE[pieces], pieces
        assert report.ambient_degree == 1_812_646_836
        assert report.conserved


def test_adjuncts_vanish_for_reduced_line_degenerations() -> None:
    # For lines and two reduced pieces the shared locus imposes no excess,
    # so both adjunct corrections vanish identically.
    ctx = GrassContext(1, 4)
    report = decompose_degeneration(DegenerationSpec(ctx, ((2, 1), (3, 1))))
    assert report.pieces[0].adjunct_class.is_zero
    assert report.pieces[1].adjunct_class.is_zero
    assert report.conserved


def test_swap_symmetry() -> None:
    ctx = GrassContext(1, 4)
    forward = decompose_degeneration(DegenerationSpec(ctx, ((1, 3), (1, 2))))
    backward = decompose_degeneration(DegenerationSpec(ctx, ((1, 2), (1, 3))))
    assert forward.pieces[0].total_class == backward.pieces[1].total_class
    assert forward.pieces[0].adjunct_class == backward.pieces[1].adjunct_class
    assert forward.ambient_class == backward.ambient_class


def test_positive_dimensional_family_needs_pairing() -> None:
    # Lines on a quadric surface form a curve in the Grassmannian; degrees
    # require pairing against a Schubert condition of complementary size.
    ctx = GrassContext(1, 3)
    spec = DegenerationSpec(ctx, ((1, 1), (1, 1)))
    free = decompose_degeneration(spec)
    assert free.pieces[0].total_degree is None
    assert free.ambient_degree is None
    assert free.conserved

    paired = decompose_degeneration(spec, pairing=(1,))
    assert paired.pieces[0].total_degree == 2
    assert paired.pieces[1].total_degree == 2
    assert paired.ambient_degree == 4
    assert paired.ambient_class == parse_poly(ctx.spec, "4*x*y")

    with pytest.raises(ValueError):
        decompose_degeneration(spec, pairing=(2,))


def test_pairing_must_match_the_family_dimension() -> None:
    # A finite family takes no pairing but the empty one, and a pairing that
    # does not fit the box is refused; none is dropped silently.
    cubic = GrassContext(1, 3)
    spec = DegenerationSpec(cubic, ((1, 1), (2, 1)))
    for pairing in ((1,), (1, 1), (2,)):
        with pytest.raises(ValueError, match="must have size 0"):
            fano_degree(cubic, 3, pairing)
        with pytest.raises(ValueError, match="must have size 0"):
            decompose_degeneration(spec, pairing=pairing)
    assert fano_degree(cubic, 3, ()) == 27
    assert decompose_degeneration(spec, pairing=()).ambient_degree == 27
    with pytest.raises(ValueError, match="does not fit"):
        fano_degree(GrassContext(1, 4), 2, (1, 1, 1))


# Contexts with a positive-dimensional family: (r, n, total degree, pieces).
PAIRED_CASES = (
    (1, 4, 2, ((1, 1), (1, 1))),
    (1, 5, 2, ((1, 1), (1, 1))),
    (2, 5, 2, ((1, 1), (1, 1))),
    (2, 6, 2, ((1, 1), (1, 1))),
    (1, 6, 3, ((2, 1), (1, 1))),
)


def test_paired_degree_is_the_dual_schubert_coefficient() -> None:
    # Reference route: multiply by the determinantal Schubert polynomial and
    # integrate.  Every partition of the family's dimension in the box.
    for r, n, d, pieces in PAIRED_CASES:
        ctx = GrassContext(r, n)
        spec = DegenerationSpec(ctx, pieces)
        excess = ctx.dim - bundles.sym_ustar(ctx, d).rank
        pairings = [p for p in partitions_in_box(ctx.k, ctx.m) if p.size == excess]
        assert pairings
        for pairing in pairings:
            sigma = schubert_poly(ctx, pairing)

            def reference(value):
                return integrate(ctx, value * sigma)

            assert fano_degree(ctx, d, pairing) == reference(fano_class(ctx, d))
            report = decompose_degeneration(spec, pairing=pairing.parts)
            assert report.ambient_degree == reference(report.ambient_class)
            for piece in report.pieces:
                assert piece.main_degree == reference(piece.main_class)
                assert piece.adjunct_degree == reference(piece.adjunct_class)
                assert piece.total_degree == reference(piece.total_class)


def test_paired_counts_need_no_schubert_polynomial(monkeypatch) -> None:
    def refused(*args):
        raise AssertionError("schubert_poly called")

    monkeypatch.setattr(chow, "schubert_poly", refused)
    monkeypatch.setattr(limits, "schubert_poly", refused, raising=False)
    ctx = GrassContext(1, 3)
    assert fano_degree(ctx, 2, (1,)) == 4
    report = decompose_degeneration(DegenerationSpec(ctx, ((1, 1), (1, 1))), (1,))
    assert [piece.total_degree for piece in report.pieces] == [2, 2]
    assert fano_degree(GrassContext(1, 10), 2, (9, 6)) == 0


def closed_form_line_count(n: int) -> int:
    """Lines on a general hypersurface of degree 2n - 3 in P^n: the
    coefficient of z^(n-1) in (1 - z) * prod_j ((2n-3-j) + j*z), j = 0..2n-3
    (Zagier's formula in Grunberg-Moree, Experimental Math. 2008)."""
    d = 2 * n - 3
    coeffs = [1]
    for j in range(d + 1):
        shifted = [0] + [j * c for c in coeffs]
        coeffs = [(d - j) * c for c in coeffs] + [0]
        coeffs = [a + b for a, b in zip(coeffs, shifted)]
    return coeffs[n - 1] - coeffs[n - 2]


def test_line_counts_match_the_closed_form() -> None:
    expected = [27, 2875, 698005, 305093061, 210480374951, 210776836330775]
    assert [closed_form_line_count(n) for n in range(3, 9)] == expected
    for n, count in zip(range(3, 9), expected):
        assert fano_degree(GrassContext(1, n), 2 * n - 3) == count


def test_enumerate_degenerations() -> None:
    assert enumerate_degenerations(2) == [((1, 1), (1, 1))]
    assert enumerate_degenerations(3) == [((1, 2), (1, 1)), ((2, 1), (1, 1))]
    assert len(enumerate_degenerations(4)) == 5
    cases = enumerate_degenerations(5)
    assert len(cases) == 7
    assert cases[0] == ((1, 4), (1, 1))
    for pieces in cases:
        assert sum(k * e for k, e in pieces) == 5
    with pytest.raises(ValueError):
        enumerate_degenerations(1)


def test_conservation_across_random_specs() -> None:
    rng = random.Random(20260815)
    contexts = [GrassContext(1, 3), GrassContext(1, 4), GrassContext(2, 5)]
    for _ in range(10):
        ctx = rng.choice(contexts)
        d = rng.randint(2, 4 if ctx.r == 1 else 3)
        pieces = rng.choice(enumerate_degenerations(d))
        report = decompose_degeneration(DegenerationSpec(ctx, pieces))
        assert report.conserved
        total = report.pieces[0].total_class + report.pieces[1].total_class
        assert total == fano_class(ctx, d)


def test_quartic_table_pieri_work_is_bounded(monkeypatch) -> None:
    # Integration expands each Chern monomial once per context, so the whole
    # quartic table costs at most one Pieri step per monomial of weighted
    # degree <= dim(G(2,7)) = 15, of which there are 174.
    steps = []
    pieri = chow.dual_pieri_multiply

    def counted(ctx, vector, i):
        steps.append(i)
        return pieri(ctx, vector, i)

    monkeypatch.setattr(chow, "dual_pieri_multiply", counted)
    ctx = GrassContext(2, 7)
    for pieces in enumerate_degenerations(4):
        assert decompose_degeneration(DegenerationSpec(ctx, pieces)).conserved
    assert 0 < len(steps) <= 174
    assert len(ctx._schubert_memo) <= 174


def test_degeneration_tables_product_work_is_bounded(monkeypatch) -> None:
    # Exact products behind both paper tables from cold caches: Sym^k U* is
    # multiplied out one S_k-orbit of multisets at a time and lands directly
    # in the Chern ring (no substitute), twisted pieces inherit their Segre
    # class (one inversion per distinct untwisted piece: 4 on G(1,4), 3 on
    # G(2,7)), and the adjunct Segre products are formed once per
    # decomposition, one product per Segre class of the first piece.  Every
    # product is one kernel call, also inside ``add_products``, and sums of
    # products accumulate without subtracting (a subtraction copies its
    # operand twice).  Counted, not timed; the engine needs 854 products
    # over 11,980 term pairs, 7 inversions, no substitute and no
    # subtraction.  A piece's total degree is the sum of its main and adjunct
    # degrees, so a decomposition integrates five classes: 60 in all.
    counts = {
        "mul_terms": 0, "pairs": 0, "series_inverse": 0, "substitute": 0, "__sub__": 0,
        "integrate": 0,
    }

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            if name == "mul_terms":
                counts["pairs"] += len(args[0]) * len(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    counting(kernel, "mul_terms")
    counting(symfunc, "series_inverse")
    counting(bundles, "substitute")
    counting(symfunc.ClassCarrier, "__sub__")
    counting(limits, "integrate")
    bundles.sym_ustar.cache_clear()
    for context, degree in (((1, 4), 5), ((2, 7), 4)):
        ctx = GrassContext(*context)
        for pieces in enumerate_degenerations(degree):
            assert decompose_degeneration(DegenerationSpec(ctx, pieces)).conserved
    assert 0 < counts["mul_terms"] <= 854
    assert 0 < counts["integrate"] <= 60
    assert 0 < counts["pairs"] <= 11_980
    assert 0 < counts["series_inverse"] <= 7
    assert counts["substitute"] == 0
    assert counts["__sub__"] == 0


def test_integration_builds_no_partition(monkeypatch) -> None:
    # Pieri targets and memo entries are plain tuples of parts; Partition is
    # validated only where a partition comes in from outside.  From cold
    # caches, both paper tables and the G(3,8) cubic count build none.
    built = []
    validate = chow.Partition.__post_init__

    def counted(self) -> None:
        built.append(self.parts)
        validate(self)

    monkeypatch.setattr(chow.Partition, "__post_init__", counted)
    bundles.sym_ustar.cache_clear()
    for context, degree in (((1, 4), 5), ((2, 7), 4)):
        ctx = GrassContext(*context)
        for pieces in enumerate_degenerations(degree):
            assert decompose_degeneration(DegenerationSpec(ctx, pieces)).conserved
    assert fano_degree(GrassContext(3, 8), 3) == 321489
    assert built == []


def test_empty_families_build_no_bundle(monkeypatch) -> None:
    # On G(5,13), rank Sym^3 U* = 56 exceeds the dimension 48: every class
    # of the family lies above the top degree, so the count is 0 and no
    # symmetric power is built.  A pairing is still checked first.
    def refuse(*args):
        raise AssertionError(f"sym_ustar{args} called")

    monkeypatch.setattr(limits, "sym_ustar", refuse)
    ctx = GrassContext(5, 13)
    cls, family_dim, count = limits.fano_family(ctx, 3)
    assert (cls.is_zero, family_dim, count) == (True, 0, 0)
    assert fano_degree(ctx, 3, pairing=()) == 0
    with pytest.raises(ValueError, match="size 0"):
        fano_degree(ctx, 3, pairing=(1,))
    for pieces in enumerate_degenerations(3):
        report = decompose_degeneration(DegenerationSpec(ctx, pieces))
        assert report.conserved and report.ambient_class.is_zero and report.ambient_degree == 0
        for piece in report.pieces:
            assert (piece.main_degree, piece.adjunct_degree, piece.total_degree) == (0, 0, 0)
            assert piece.total_class.is_zero and piece.main_class.is_zero
