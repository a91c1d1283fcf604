"""Tests for the residual intersection evaluators.

The running fixture is a length-four point scheme in the plane: the square
of an ideal of two lines, pulled back from a product of planes, meeting the
diagonal plane in the scheme cut by both coordinate squares.  Blowing up
the underlying reduced point turns the scheme into divisors and the class
of the intersection, four points, splits two-and-two or four-and-zero
depending on which piece is treated as the divisor.
"""

from __future__ import annotations

import random
from math import comb

import pytest

from schubres import cli, kernel, residual
from schubres.bundles import BundleClass, sym_ustar, ustar
from schubres.chow import (
    GrassContext,
    StructRing,
    blowup_plane_at_point,
    integrate,
    projective_space,
)
from schubres.errors import UnsupportedOperationError
from schubres.limits import DegenerationSpec, decompose_degeneration, enumerate_degenerations
from schubres.residual import (
    Decomposition,
    IntersectionSetup,
    divisor_decompose,
    main_term,
    regular_decompose,
    symmetric_decompose,
)
from schubres.symfunc import parse_poly


def blowup_setup() -> tuple[StructRing, IntersectionSetup]:
    ring = blowup_plane_at_point()
    cN = ring.parse("1 + 2*h") ** 2
    return ring, IntersectionSetup(cN=cN, d=2)


def degrees(dec: Decomposition, integrate_class=lambda value: value.integrate()):
    """(main, adjunct, total) degree of each component: the evaluators return
    classes only, so the caller integrates them."""
    return tuple(
        (integrate_class(c.main), integrate_class(c.adjunct), integrate_class(c.total))
        for c in dec.components
    )


def test_setup_validation() -> None:
    ring = blowup_plane_at_point()
    with pytest.raises(ValueError):
        IntersectionSetup(cN=ring.parse("2"), d=2)
    with pytest.raises(ValueError):
        IntersectionSetup(cN=ring.one(), d=0)


def test_setup_rejects_non_integers() -> None:
    one = blowup_plane_at_point().one()
    for d in (True, 2.0):
        with pytest.raises(ValueError, match="not an integer"):
            IntersectionSetup(cN=one, d=d)


def test_main_term_alone() -> None:
    ring, setup = blowup_setup()
    assert main_term(setup, ring.parse("e + P")) == ring.parse("P")


def test_divisor_decompose_exceptional_first() -> None:
    # Treat one copy of the exceptional curve as the divisor; the residual
    # is the other copy.  Each piece receives two of the four points.
    ring, setup = blowup_setup()
    dec = divisor_decompose(setup, ring.parse("e"), ring.parse("e + P"))
    d_comp, r_comp = dec.components
    assert d_comp.main == ring.parse("P")
    assert d_comp.adjunct == ring.parse("P")
    assert d_comp.total == ring.parse("2*P")
    assert r_comp.total == ring.parse("2*P")
    assert dec.ambient_total == ring.parse("4*P")
    assert degrees(dec) == ((1, 1, 2), (1, 1, 2))
    assert dec.ambient_total.integrate() == 4
    assert dec.conserved


def test_divisor_decompose_whole_scheme_first() -> None:
    # Treat the full doubled exceptional divisor as D; nothing is left over
    # and D absorbs all four points.
    ring, setup = blowup_setup()
    dec = divisor_decompose(setup, ring.parse("2*e"), ring.zero())
    assert degrees(dec) == ((4, 0, 4), (0, 0, 0))
    assert dec.components[0].adjunct.is_zero
    assert dec.ambient_total.integrate() == 4


def test_divisor_decompose_rejects_non_divisor() -> None:
    ring, setup = blowup_setup()
    with pytest.raises(ValueError):
        divisor_decompose(setup, ring.parse("e + P"), ring.parse("e + P"))


def test_divisor_ambient_total_checks_the_binomial_weights(monkeypatch) -> None:
    # The ambient total is the residual intersection formula, whose terms
    # come from the powers of 1 - D; the components regroup them with the
    # binomials C(d-1-i, j).  They agree on random cases with no degree-zero
    # residual Segre part, and weights C(d-i, j) break some of them.
    rng = random.Random(20261020)
    cases = []
    for ring in (blowup_plane_at_point(), projective_space(3), projective_space(4)):
        basis = [ring.basis_element(i) for i, deg in enumerate(ring.degrees) if deg > 0]
        divisors = [b for b in basis if b.degree_part(1) == b]
        for d in range(1, ring.top_degree + 1):
            for _ in range(20):
                cN, D, sR = (
                    sum((rng.randint(-4, 4) * b for b in pool), start)
                    for pool, start in ((basis, ring.one()), (divisors, ring.zero()),
                                        (basis, ring.zero()))
                )
                cases.append((IntersectionSetup(cN=cN, d=d), D, sR))
    for setup, D, sR in cases:
        dec = divisor_decompose(setup, D, sR)
        assert dec.conserved
        one_minus_d = 1 - D
        twisted = sum(
            (setup.cN.degree_part(i) * one_minus_d ** (setup.d - i) for i in range(setup.d + 1)),
            D.zero_like(),
        )
        expected = main_term(setup, D * (1 + D).series_inverse()) + main_term(
            IntersectionSetup(cN=twisted, d=setup.d), sR
        )
        assert dec.ambient_total == expected
    monkeypatch.setattr(residual, "comb", lambda n, j: comb(n + 1, j))
    broken = sum(not divisor_decompose(*case).conserved for case in cases)
    assert broken > len(cases) // 4


def test_coarser_main_term_comparison() -> None:
    # Working downstairs with the unresolved scheme: the main term sees only
    # one of the four points and the other three are residual.
    base = projective_space(2)
    setup = IntersectionSetup(cN=base.parse("1 + 4*h + 4*h2"), d=2)
    main = main_term(setup, base.parse("h2"))
    assert main == base.parse("h2")
    total = base.parse("4*h2")
    assert (total - main).integrate() == 3


def test_symmetric_decompose_matches_divisor_route() -> None:
    ring, setup = blowup_setup()
    e = ring.parse("e")
    dec = symmetric_decompose(setup, e, e)
    target = ring.pushforward_target
    for component in dec.components:
        assert component.main == target.parse("h2")
        assert component.adjunct == target.parse("h2")
        assert component.total == target.parse("2*h2")
    assert dec.ambient_total == target.parse("4*h2")
    assert degrees(dec) == ((1, 1, 2), (1, 1, 2))
    assert dec.conserved


def test_symmetric_decompose_empty_second_divisor() -> None:
    ring, setup = blowup_setup()
    dec = symmetric_decompose(setup, ring.parse("2*e"), ring.zero())
    assert degrees(dec) == ((4, 0, 4), (0, 0, 0))
    assert dec.conserved


def test_symmetric_decompose_needs_pushforward() -> None:
    base = projective_space(2)
    setup = IntersectionSetup(cN=base.one(), d=2)
    with pytest.raises(UnsupportedOperationError):
        symmetric_decompose(setup, base.parse("h"), base.parse("h"))
    ctx = GrassContext(1, 3)
    x = parse_poly(ctx.spec, "x")
    with pytest.raises(UnsupportedOperationError):
        symmetric_decompose(IntersectionSetup(cN=1 + x, d=2), x, x)


def identity_pushforward_space(m: int) -> StructRing:
    """Projective m-space with the identity pushforward to itself."""
    labels = projective_space(m).labels
    products = {
        f"{a}*{b}": labels[i + j]
        for i, a in enumerate(labels[1:], 1)
        for j, b in enumerate(labels[i:], i)
        if i + j <= m
    }
    return StructRing(
        {
            "name": f"p{m}_id",
            "basis": labels,
            "degrees": list(range(m + 1)),
            "products": products,
            "integral": {labels[m]: 1},
            "pushforward": {"target": f"p{m}", "map": {label: label for label in labels}},
        }
    )


def explicit_symmetric_components(setup, e1, e2):
    """(main, adjunct) of each divisor, pushed forward, and the pushed-forward
    ambient total, each written out from its own formula.

    The reference for ``symmetric_decompose``: the main term of E_l is the
    sum of c_i(N) * (-E_l)^(d-1-i) * E_l, its adjunct the sum of
    comb(d-1-i, j) * c_i(N) * (-E_o)^j * (-E_l)^(d-1-i-j) * E_l over j >= 1,
    and the ambient total is the main term of E1 + E2.
    """
    d = setup.d

    def component(own, other):
        main = own.zero_like()
        adjunct = own.zero_like()
        for i in range(0, d):
            ci = setup.cN.degree_part(i)
            main = main + ci * (-own) ** (d - 1 - i) * own
            for j in range(1, d - i):
                weight = comb(d - 1 - i, j)
                adjunct = adjunct + weight * (
                    ci * (-other) ** j * (-own) ** (d - 1 - i - j) * own
                )
        return main.pushforward(), adjunct.pushforward()

    whole = e1 + e2
    ambient = whole.zero_like()
    for i in range(0, d):
        ambient = ambient + setup.cN.degree_part(i) * (-whole) ** (d - 1 - i) * whole
    return (component(e1, e2), component(e2, e1)), ambient.pushforward()


def test_symmetric_decompose_matches_explicit_reference() -> None:
    rng = random.Random(20261019)

    def coefficient() -> int:
        return rng.randint(-4, 4)

    rings = [blowup_plane_at_point()] + [identity_pushforward_space(m) for m in (3, 4, 5)]
    checked = 0
    for ring in rings:
        divisors = [label for label, degree in zip(ring.labels, ring.degrees) if degree == 1]
        for d in range(1, ring.top_degree + 1):
            for _ in range(6):
                cN = ring.one()
                for i, label in enumerate(ring.labels):
                    if ring.degrees[i] > 0:
                        cN = cN + coefficient() * ring.element(label)
                e1, e2 = (
                    sum((coefficient() * ring.element(label) for label in divisors), ring.zero())
                    for _ in range(2)
                )
                setup = IntersectionSetup(cN=cN, d=d)
                dec = symmetric_decompose(setup, e1, e2)
                expected, ambient = explicit_symmetric_components(setup, e1, e2)
                for component, (main, adjunct) in zip(dec.components, expected):
                    assert component.main == main
                    assert component.adjunct == adjunct
                    assert component.total == main + adjunct
                assert dec.ambient_total == ambient
                assert dec.conserved
                checked += 1
    assert checked == 6 * (2 + 3 + 4 + 5)


def test_symmetric_equals_regular_on_transverse_divisors() -> None:
    # Two transverse lines in the plane: blowing up along a divisor changes
    # nothing, so the symmetric evaluator with the identity pushforward must
    # agree with the regular-embedding evaluator fed the line bundles.
    ring = identity_pushforward_space(2)
    base = ring.pushforward_target
    cN = ring.parse("1 + 2*h") * ring.parse("1 + 3*h")
    setup = IntersectionSetup(cN=cN, d=2)
    h = ring.parse("h")
    sym = symmetric_decompose(setup, h, h)

    cN_base = base.parse("1 + 2*h") * base.parse("1 + 3*h")
    base_setup = IntersectionSetup(cN=cN_base, d=2)
    line = BundleClass(1, base.parse("1 + h"))
    reg = regular_decompose(base_setup, line, line, base.parse("h"), base.parse("h"))
    for sym_comp, reg_comp in zip(sym.components, reg.components):
        assert sym_comp.main == reg_comp.main
        assert sym_comp.adjunct == reg_comp.adjunct
    assert sym.ambient_total == reg.ambient_total
    assert degrees(sym) == degrees(reg) == ((4, -1, 3), (4, -1, 3))


def test_disjoint_sum_matches_decomposition_without_overlap() -> None:
    # A line and a point off the line: no shared geometry, no adjuncts.
    base = projective_space(2)
    setup = IntersectionSetup(cN=base.parse("1 + 3*h + 3*h2"), d=2)
    s_point = base.parse("h2")
    dec = divisor_decompose(setup, base.parse("h"), s_point)
    assert dec.components[0].adjunct.is_zero
    assert dec.components[1].adjunct.is_zero
    # The line's Segre class h * (1 + h)^-1 is h - h2.
    s_line = base.parse("h - h2")
    assert dec.ambient_total == main_term(setup, s_line) + main_term(setup, s_point)


def test_regular_decompose_on_cubic_surfaces() -> None:
    # Lines on a cubic surface degenerating into a plane plus a quadric:
    # the 27 lines split as 3 on the plane side and 24 on the quadric side.
    ctx = GrassContext(1, 3)
    N = sym_ustar(ctx, 3)
    setup = IntersectionSetup(cN=N.total_chern, d=N.rank)
    N1 = sym_ustar(ctx, 1, 1)
    N2 = sym_ustar(ctx, 1, 2)
    z1 = N1.chern(2)
    z2 = N2.chern(2)
    dec = regular_decompose(setup, N1, N2, z1, z2)

    def poly(text: str):
        return parse_poly(ctx.spec, text)

    first, second = dec.components
    assert first.main == poly("6*x^2*y + 9*y^2")
    assert first.adjunct == poly("-12*y^2")
    assert first.total == poly("6*x^2*y - 3*y^2")
    assert second.total == poly("12*x^2*y + 12*y^2")
    assert degrees(dec, lambda value: integrate(ctx, value)) == ((15, -12, 3), (36, -12, 24))
    assert dec.ambient_total == poly("18*x^2*y + 9*y^2")
    assert integrate(ctx, dec.ambient_total) == 27
    assert dec.conserved


def test_regular_decompose_swap_symmetry() -> None:
    ctx = GrassContext(1, 3)
    N = sym_ustar(ctx, 3)
    setup = IntersectionSetup(cN=N.total_chern, d=N.rank)
    N1 = sym_ustar(ctx, 1, 1)
    N2 = sym_ustar(ctx, 1, 2)
    z1, z2 = N1.chern(2), N2.chern(2)
    forward = regular_decompose(setup, N1, N2, z1, z2)
    backward = regular_decompose(setup, N2, N1, z2, z1)
    assert forward.components[0].total == backward.components[1].total
    assert forward.components[0].adjunct == backward.components[1].adjunct
    assert forward.ambient_total == backward.ambient_total


def test_regular_decompose_empty_adjunct_ranges() -> None:
    # When the two ranks exhaust the codimension the intersection is
    # excess-free and the adjuncts vanish identically.
    ctx = GrassContext(1, 3)
    N = sym_ustar(ctx, 2)
    setup = IntersectionSetup(cN=N.total_chern, d=N.rank)
    N1 = sym_ustar(ctx, 1, 1)
    N2 = N1
    z = N1.chern(2)
    dec = regular_decompose(setup, N1, N2, z, z)
    assert dec.components[0].adjunct.is_zero
    assert dec.components[1].adjunct.is_zero
    # One-dimensional excess: [c(N) s(N1)] in degree 1 is c1(N) - c1(N1).
    assert dec.components[0].main == (N.chern(1) - ustar(ctx).chern(1)) * z
    assert dec.components[0].main == parse_poly(ctx.spec, "2*x*y")


def test_empty_adjuncts_form_no_product(monkeypatch) -> None:
    # Lines on a quintic threefold degenerating to a quartic and a plane:
    # d = 6 < r1 + r2 = 5 + 2, so no term of either adjunct exists.  With
    # the Segre parts drawn beforehand, the only kernel calls are the main
    # terms': one per nonzero c_i(N) with i <= d - r_l, and one times z_l.
    # Neither z1 * z2 nor any product for the zero adjuncts is formed.
    # The excess classes are kept on the bundles, so the cache starts cold.
    sym_ustar.cache_clear()
    ctx = GrassContext(1, 4)
    ambient = sym_ustar(ctx, 5)
    setup = IntersectionSetup(cN=ambient.total_chern, d=ambient.rank)
    N1, N2 = sym_ustar(ctx, 4), sym_ustar(ctx, 1)
    assert setup.d - N1.rank - N2.rank == -1
    N1.total_segre(), N2.total_segre()
    expected = sum(
        1 + sum(not ambient.chern(i).is_zero for i in range(setup.d - N.rank + 1))
        for N in (N1, N2)
    )
    calls = []
    mul_terms = kernel.mul_terms

    def counted(*args):
        calls.append(args)
        return mul_terms(*args)

    monkeypatch.setattr(kernel, "mul_terms", counted)
    dec = regular_decompose(setup, N1, N2, N1.chern(N1.rank), N2.chern(N2.rank))
    assert [c.adjunct.is_zero for c in dec.components] == [True, True]
    assert len(calls) == expected == 9


def unshared_regular_components(setup, N1, N2, z1, z2):
    """(main, adjunct) of each piece, every adjunct term formed on its own.

    The reference for ``regular_decompose``: each term
    comb(d-1-i, j) * c_i(N) * s_{j-r_o}(N_other) * s_{d-r_l-i-j}(N_l) is a
    separate pair of products, and nothing is shared between the pieces.
    """
    d = setup.d
    r1, r2 = N1.rank, N2.rank

    def main_for(N_l, z_l):
        excess_codim = d - N_l.rank
        excess = setup.cN.zero_like()
        for i in range(0, excess_codim + 1):
            excess = excess + setup.cN.degree_part(i) * N_l.segre(excess_codim - i)
        return excess * z_l

    def adjunct_for(N_l, N_other):
        acc = setup.cN.zero_like()
        r_l, r_o = N_l.rank, N_other.rank
        for i in range(0, d - r1 - r2 + 1):
            ci = setup.cN.degree_part(i)
            for j in range(r_o, d - r_l - i + 1):
                term = ci * N_other.segre(j - r_o) * N_l.segre(d - r_l - i - j)
                acc = acc + comb(d - 1 - i, j) * term
        return -(acc * z1 * z2)

    return (
        (main_for(N1, z1), adjunct_for(N1, N2)),
        (main_for(N2, z2), adjunct_for(N2, N1)),
    )


def test_regular_decompose_matches_unshared_reference() -> None:
    rng = random.Random(20261018)
    excess_free_seen = set()
    for r, n, degrees in ((1, 4, (2, 3, 4, 5)), (2, 5, (2, 3, 4)), (2, 7, (2, 3, 4))):
        ctx = GrassContext(r, n)
        for _ in range(6):
            d = rng.choice(degrees)
            (k1, e1), (k2, e2) = rng.choice(enumerate_degenerations(d))
            N = sym_ustar(ctx, d)
            setup = IntersectionSetup(cN=N.total_chern, d=N.rank)
            N1, N2 = sym_ustar(ctx, k1, e1), sym_ustar(ctx, k2, e2)
            z1, z2 = N1.chern(N1.rank), N2.chern(N2.rank)
            excess_free_seen.add(N.rank - N1.rank - N2.rank < 0)
            for A, B, za, zb in ((N1, N2, z1, z2), (N2, N1, z2, z1)):
                dec = regular_decompose(setup, A, B, za, zb)
                expected = unshared_regular_components(setup, A, B, za, zb)
                for component, (main, adjunct) in zip(dec.components, expected):
                    assert component.main == main
                    assert component.adjunct == adjunct
                    assert component.total == main + adjunct
    # Both empty and non-empty adjunct ranges were exercised.
    assert excess_free_seen == {True, False}


def counted_adjunct_sums(monkeypatch) -> list:
    calls = []
    adjunct_sum = residual._adjunct_sum

    def counted(*args):
        calls.append(args)
        return adjunct_sum(*args)

    monkeypatch.setattr(residual, "_adjunct_sum", counted)
    return calls


def test_identical_pieces_are_split_once(monkeypatch) -> None:
    # X1^2 + X1^2 and X2 + X2 on G(2,7): both pieces are one cached bundle
    # and one class, so one main term and one adjunct are formed and
    # reported for both.  The table values and conservation are unchanged.
    calls = counted_adjunct_sums(monkeypatch)
    ctx = GrassContext(*cli.QUARTIC_CONTEXT)
    table = dict(cli.QUARTIC_CASES)
    for pieces in (((1, 2), (1, 2)), ((2, 1), (2, 1))):
        calls.clear()
        report = decompose_degeneration(DegenerationSpec(ctx, pieces))
        first, second = report.pieces
        assert first.main_class is second.main_class
        assert first.adjunct_class is second.adjunct_class
        assert len(calls) == 1
        assert report.conserved
        got = tuple((p.main_degree, p.adjunct_degree, p.total_degree) for p in report.pieces)
        assert got == table[pieces]


def test_only_identical_pieces_share_their_split(monkeypatch) -> None:
    # Sharing keys on identity and does not guess: one bundle with two
    # classes, one bundle with two equal classes, or two bundles equal in
    # value but distinct take the unshared path, with two adjunct sums.
    # Each agrees with the swapped call, and the equal ones with the split
    # the shared path gives.
    calls = counted_adjunct_sums(monkeypatch)
    ctx = GrassContext(2, 7)
    ambient = sym_ustar(ctx, 4)
    setup = IntersectionSetup(cN=ambient.total_chern, d=ambient.rank)
    N = sym_ustar(ctx, 1, 2)
    z = N.chern(N.rank)
    shared = regular_decompose(setup, N, N, z, z)
    assert len(calls) == 1 and shared.conserved
    twin, z_twin = BundleClass(N.rank, N.total_chern), z + 0
    assert (twin, z_twin) == (N, z) and twin is not N and z_twin is not z
    other = z + ctx.chern_generator(1) ** 3
    for N1, N2, z1, z2 in ((N, N, z, other), (N, N, z, z_twin), (N, twin, z, z), (twin, N, z, z)):
        calls.clear()
        forward = regular_decompose(setup, N1, N2, z1, z2)
        backward = regular_decompose(setup, N2, N1, z2, z1)
        assert len(calls) == 4
        for a, b in zip(forward.components, backward.components[::-1]):
            assert (a.main, a.adjunct) == (b.main, b.adjunct)
        if z2 is not other:
            for a, b in zip(forward.components, shared.components):
                assert (a.main, a.adjunct) == (b.main, b.adjunct)
            assert forward.conserved


def test_decomposition_conserved_flag() -> None:
    ring, setup = blowup_setup()
    dec = divisor_decompose(setup, ring.parse("e"), ring.parse("e + P"))
    assert dec.conserved
    broken = Decomposition(dec.components, ring.parse("5*P"))
    assert not broken.conserved
