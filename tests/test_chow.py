"""Tests for Schubert calculus and structure-constant rings."""

from __future__ import annotations

import operator
import random
import sys
import threading
from pathlib import Path

import pytest

from schubres import chow
from schubres.chow import (
    GrassContext,
    Partition,
    StructElement,
    StructRing,
    blowup_plane_at_point,
    builtin_ring,
    dual_pieri_multiply,
    integrate,
    integrate_bott,
    load_ring,
    partitions_in_box,
    projective_space,
    to_schubert,
)
from schubres.errors import ContextMismatchError, RingFormatError, UnsupportedOperationError
from schubres.symfunc import GradedPoly, parse_poly


def test_partition_normalization() -> None:
    assert Partition((2, 1, 0, 0)).parts == (2, 1)
    assert Partition(()).size == 0
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((-1,))


def test_partition_rejects_non_integers() -> None:
    for bad in ((2.9, 1), (2, 1.0), (True,)):
        with pytest.raises(ValueError, match="not an integer"):
            Partition(bad)


def test_partitions_in_box() -> None:
    box22 = partitions_in_box(2, 2)
    assert len(box22) == 6
    assert box22[0] == Partition(())
    assert box22[-1] == Partition((2, 2))
    assert len(partitions_in_box(3, 5)) == 56


def test_context_derived_quantities() -> None:
    ctx = GrassContext(1, 3)
    assert (ctx.k, ctx.m, ctx.dim) == (2, 2, 4)
    assert ctx.spec.names == ("x", "y")
    assert ctx.spec.degrees == (1, 2)
    assert ctx.spec.truncation == 4
    assert ctx.box == Partition((2, 2))
    big = GrassContext(4, 9)
    assert big.spec.names == ("c1", "c2", "c3", "c4", "c5")
    with pytest.raises(ValueError):
        GrassContext(3, 3)
    with pytest.raises(ValueError):
        GrassContext(-1, 3)


def test_context_rejects_non_integers() -> None:
    for r, n in ((True, 3), (1, 3.0), (1.0, 3), (0, True)):
        with pytest.raises(ValueError, match="not an integer"):
            GrassContext(r, n)


def test_dual_pieri_adds_vertical_strips() -> None:
    ctx = GrassContext(1, 3)
    assert dual_pieri_multiply(ctx, {(1, 1): 1}, 1) == {(2, 1): 1}
    assert dual_pieri_multiply(ctx, {(1,): 1}, 1) == {(2,): 1, (1, 1): 1}
    assert dual_pieri_multiply(ctx, {(2, 2): 1}, 1) == {}
    assert dual_pieri_multiply(ctx, {(1,): 1}, 2) == {(2, 1): 1}
    with pytest.raises(IndexError):
        dual_pieri_multiply(ctx, {(1,): 1}, 3)
    with pytest.raises(IndexError):
        dual_pieri_multiply(ctx, {(1,): 1}, 0)


def test_to_schubert_examples() -> None:
    ctx = GrassContext(1, 3)
    p = parse_poly(ctx.spec, "x^2*y")
    assert to_schubert(ctx, p) == {(2, 2): 1}
    ctx4 = GrassContext(1, 4)
    p4 = parse_poly(ctx4.spec, "x^2*y")
    assert to_schubert(ctx4, p4) == {(3, 1): 1, (2, 2): 1}
    with pytest.raises(ContextMismatchError):
        to_schubert(ctx, p4)


def test_integrate_classical_values() -> None:
    ctx = GrassContext(1, 3)
    assert integrate(ctx, parse_poly(ctx.spec, "x^4")) == 2
    assert integrate(ctx, parse_poly(ctx.spec, "x^2*y")) == 1
    assert integrate(ctx, parse_poly(ctx.spec, "y^2")) == 1
    assert integrate(ctx, parse_poly(ctx.spec, "x^2")) == 0
    ctx4 = GrassContext(1, 4)
    assert integrate(ctx4, parse_poly(ctx4.spec, "x^6")) == 5


def monomials_of_degree(spec, degree):
    def extend(i, remaining):
        if i == spec.ngens:
            if remaining == 0:
                yield ()
            return
        step = spec.degrees[i]
        for e in range(remaining // step + 1):
            for rest in extend(i + 1, remaining - e * step):
                yield (e,) + rest

    yield from extend(0, degree)


@pytest.mark.parametrize("r,n", [(1, 3), (2, 4), (0, 3)])
def test_integrate_agrees_with_oracle_exhaustively(r: int, n: int) -> None:
    ctx = GrassContext(r, n)
    for expo in monomials_of_degree(ctx.spec, ctx.dim):
        p = GradedPoly(ctx.spec, {expo: 1})
        assert integrate(ctx, p) == integrate_bott(ctx, p), expo


def test_integrate_agrees_with_oracle_random() -> None:
    rng = random.Random(19)
    for ctx in (GrassContext(1, 4), GrassContext(2, 5)):
        monomials = list(monomials_of_degree(ctx.spec, ctx.dim))
        for _ in range(10):
            terms = {e: rng.randint(-5, 5) for e in rng.sample(monomials, 3)}
            p = GradedPoly(ctx.spec, terms)
            assert integrate(ctx, p) == integrate_bott(ctx, p)


def pieri_chain(ctx: GrassContext, p: GradedPoly) -> dict:
    """Unmemoized reference: a full Pieri chain for every monomial."""
    result: dict = {}
    for expo, coeff in p.terms.items():
        vector = {(): coeff}
        for index, exponent in enumerate(expo):
            for _ in range(exponent):
                vector = dual_pieri_multiply(ctx, vector, index + 1)
        for parts, value in vector.items():
            result[parts] = result.get(parts, 0) + value
    return {parts: value for parts, value in result.items() if value}


def all_monomials(spec) -> list[tuple[int, ...]]:
    return [
        expo
        for degree in range(spec.truncation + 1)
        for expo in monomials_of_degree(spec, degree)
    ]


# (r, n) -> random polynomials checked against the unmemoized Pieri chain and
# Bott's formula; the chain grows fast, so the larger Grassmannians get fewer.
MEMO_CONTEXTS = {(1, 3): 12, (1, 4): 12, (2, 5): 8, (2, 7): 4, (3, 8): 2}


def memo_polynomials(ctx: GrassContext) -> list[GradedPoly]:
    """The seeded random polynomials of ``MEMO_CONTEXTS`` on ``ctx``: five
    terms of any degree and two of top degree each."""
    rng = random.Random(1000 * ctx.r + ctx.n)
    monomials = all_monomials(ctx.spec)
    top = [expo for expo in monomials if ctx.spec.weighted_degree(expo) == ctx.dim]
    polys = []
    for _ in range(MEMO_CONTEXTS[(ctx.r, ctx.n)]):
        terms = {e: rng.randint(-9, 9) for e in rng.sample(monomials, 5)}
        terms.update({e: rng.randint(-9, 9) for e in rng.sample(top, 2)})
        polys.append(GradedPoly(ctx.spec, terms))
    return polys


@pytest.mark.parametrize("r,n", sorted(MEMO_CONTEXTS))
def test_memoized_to_schubert_matches_pieri_chain(r: int, n: int) -> None:
    ctx = GrassContext(r, n)
    monomials = all_monomials(ctx.spec)
    assert len(monomials) == {3: 9, 4: 16, 5: 53, 7: 174, 8: 717}[n]
    for p in memo_polynomials(ctx):
        assert to_schubert(ctx, p) == pieri_chain(ctx, p)
        assert integrate(ctx, p) == integrate_bott(ctx, p)
        for d in range(-1, ctx.spec.truncation + 2):
            fresh = {e: c for e, c in p.terms.items() if ctx.spec.weighted_degree(e) == d}
            assert p.degree_part(d).terms == fresh
    assert len(ctx._schubert_memo) <= len(monomials)


@pytest.mark.parametrize("r,n", [(1, 4), (2, 5), (2, 7)])
def test_memo_fill_order_does_not_matter(r: int, n: int) -> None:
    monomials = all_monomials(GrassContext(r, n).spec)
    forward, shuffled = GrassContext(r, n), GrassContext(r, n)
    order = list(monomials)
    random.Random(r + n).shuffle(order)
    got_forward = {e: to_schubert(forward, GradedPoly(forward.spec, {e: 1})) for e in monomials}
    got_shuffled = {e: to_schubert(shuffled, GradedPoly(shuffled.spec, {e: 1})) for e in order}
    assert got_forward == got_shuffled
    assert forward._schubert_memo == shuffled._schubert_memo
    assert len(forward._schubert_memo) == len(monomials)


def test_memo_rejects_foreign_specs() -> None:
    ctx, other = GrassContext(1, 4), GrassContext(2, 5)
    integrate(ctx, parse_poly(ctx.spec, "x^6"))
    for foreign in (parse_poly(other.spec, "x^6"), parse_poly(GrassContext(1, 3).spec, "x^4")):
        with pytest.raises(ContextMismatchError):
            to_schubert(ctx, foreign)
        with pytest.raises(ContextMismatchError):
            integrate(ctx, foreign)


def test_memo_is_shared_safely_between_threads() -> None:
    ctx = GrassContext(2, 6)
    rng = random.Random(7)
    monomials = all_monomials(ctx.spec)
    polys = [
        GradedPoly(ctx.spec, {e: rng.randint(-9, 9) for e in rng.sample(monomials, 8)})
        for _ in range(20)
    ]
    expected = [pieri_chain(ctx, p) for p in polys]
    results: list[list[dict]] = []

    def work() -> None:
        results.append([to_schubert(ctx, p) for p in polys])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * 4


def test_returned_expansions_are_not_memo_entries() -> None:
    # Expansions are mutable dicts: clearing one that a caller holds must
    # not reach the memo behind later conversions, not even for a single
    # monomial with coefficient one, whose expansion equals a memo entry.
    ctx = GrassContext(1, 4)
    monomials = [GradedPoly(ctx.spec, {e: 1}) for e in all_monomials(ctx.spec)]
    expected = [pieri_chain(ctx, p) for p in monomials]
    for p in monomials:
        vector = to_schubert(ctx, p)
        assert all(vector is not entry for entry in ctx._schubert_memo.values())
        vector.clear()
        for i in range(1, ctx.k + 1):
            dual_pieri_multiply(ctx, to_schubert(ctx, p), i).clear()
    assert [to_schubert(ctx, p) for p in monomials] == expected


def test_schubert_coefficients_are_bott_pairings() -> None:
    # Pairing with sigma_l picks out the coefficient of the dual class l^v,
    # parts m - l_(k+1-i): Bott's formula, paired with every l in the box,
    # gives the whole Pieri expansion of each polynomial.
    for r, n in sorted(MEMO_CONTEXTS)[:-1]:
        ctx = GrassContext(r, n)
        for p in memo_polynomials(ctx):
            expected = {}
            for lam in partitions_in_box(ctx.k, ctx.m):
                padded = lam.parts + (0,) * (ctx.k - len(lam.parts))
                dual = tuple(ctx.m - part for part in reversed(padded) if part < ctx.m)
                value = integrate_bott(ctx, p, lam)
                assert value == integrate(ctx, p, lam) and type(value) is int
                if value:
                    expected[dual] = value
            assert to_schubert(ctx, p) == expected


def test_integrate_bott_refuses_what_integrate_refuses(monkeypatch) -> None:
    ctx = GrassContext(1, 3)
    p = parse_poly(ctx.spec, "x^2")
    assert integrate_bott(ctx, p, Partition((1, 1))) == 1
    for bad in (Partition((3,)), Partition((1, 1, 1))):
        for route in (integrate, integrate_bott):
            with pytest.raises(ValueError, match="does not fit"):
                route(ctx, p, bad)
    foreign = parse_poly(GrassContext(1, 4).spec, "x^6")
    for route in (integrate, integrate_bott):
        with pytest.raises(ContextMismatchError):
            route(ctx, foreign)
    # A wrong Schur value leaves a remainder over the common denominator.
    exact = chow._det
    monkeypatch.setattr(chow, "_det", lambda rows: exact(rows) + 1)
    with pytest.raises(ArithmeticError, match="remainder"):
        integrate_bott(ctx, p, Partition((1, 1)))


def test_blowup_ring_products() -> None:
    ring = blowup_plane_at_point()
    # The builtin ring leaves h*e out; listing it as zero is the same ring.
    listed = {
        "name": "blowup_p2",
        "basis": ["1", "h", "e", "P"],
        "degrees": [0, 1, 1, 2],
        "products": {"h*h": "P", "h*e": "0", "e*e": "-P"},
        "integral": {"P": 1},
        "pushforward": {"target": "p2", "map": {"1": "1", "h": "h", "e": "0", "P": "h2"}},
    }
    assert StructRing(listed) == ring
    h, e, point = ring.element("h"), ring.element("e"), ring.element("P")
    assert h * h == point
    assert (h * e).is_zero
    assert e * e == -point
    assert (h + e) * (h + e) == ring.zero()
    assert (3 * point).integrate() == 3
    assert h.integrate() == 0


def test_blowup_pushforward() -> None:
    ring = blowup_plane_at_point()
    target = ring.pushforward_target
    assert ring.element("h").pushforward() == target.element("h")
    assert ring.element("e").pushforward().is_zero
    assert ring.element("P").pushforward() == target.element("h2")
    assert ring.one().pushforward() == target.one()
    with pytest.raises(UnsupportedOperationError):
        projective_space(2).one().pushforward()


def test_struct_element_series_inverse() -> None:
    ring = blowup_plane_at_point()
    a = ring.parse("1 + 2*h")
    assert a.series_inverse() == ring.parse("1 - 2*h + 4*P")
    assert a * a.series_inverse() == ring.one()
    with pytest.raises(Exception):
        ring.parse("2*h").series_inverse()


def geometric_series_inverse(a: StructElement) -> StructElement:
    """Reference inverse: the non-constant part is nilpotent, so the
    geometric series 1 - u + u^2 - ... terminates at the top degree."""
    ring = a.ring
    nilpotent = a - 1
    result = power = ring.one()
    for _ in range(ring.top_degree):
        power = power * (-nilpotent)
        if power.is_zero:
            break
        result = result + power
    return result


@pytest.mark.parametrize(
    "ring",
    [projective_space(m) for m in range(1, 6)] + [blowup_plane_at_point()],
    ids=lambda ring: ring.name,
)
def test_struct_series_inverse_matches_geometric_series(ring: StructRing) -> None:
    rng = random.Random(sum(map(ord, ring.name)))
    for _ in range(25):
        coeffs = {i: rng.randint(-6, 6) for i in range(len(ring.labels))}
        coeffs[ring.labels.index("1")] = 1
        a = StructElement(ring, coeffs)
        inverse = a.series_inverse()
        assert inverse == geometric_series_inverse(a)
        assert a * inverse == ring.one()


def test_carriers_of_different_kinds_do_not_mix() -> None:
    point = blowup_plane_at_point().element("P")
    poly = parse_poly(GrassContext(1, 3).spec, "x")
    for op in (operator.add, operator.sub, operator.mul):
        for a, b in ((point, poly), (poly, point)):
            with pytest.raises(TypeError):
                op(a, b)
    with pytest.raises(AttributeError, match="StructElement is immutable"):
        point.packed = {}
    assert (2 - point).to_string() == "2 - P"
    assert (point - 2) == -(2 - point)


def test_struct_parse_and_string_round_trip() -> None:
    ring = blowup_plane_at_point()
    for text in ("2*h + 4*P", "-P", "1 - e", "3", "0"):
        assert ring.parse(text).to_string() == text
    with pytest.raises(ValueError):
        ring.parse("h*h")
    with pytest.raises(ValueError):
        ring.parse("h^2")
    with pytest.raises(KeyError):
        ring.parse("q")


def test_projective_space_ring() -> None:
    ring = projective_space(3)
    h = ring.element("h")
    assert h ** 3 == ring.element("h3")
    assert (h ** 4).is_zero
    assert (h ** 3).integrate() == 1
    assert ring.parse("1 + 4*h + 4*h2") == ring.one() + 4 * h + 4 * h * h


def test_ring_validation_catches_bad_tables() -> None:
    base = {"basis": ["1", "h", "P"], "degrees": [0, 1, 2]}
    with pytest.raises(RingFormatError):
        # Non-homogeneous product: degree 1 times degree 1 landing in degree 1.
        StructRing({**base, "products": {"h*h": "h"}, "integral": {"P": 1}})
    with pytest.raises(RingFormatError):
        # Integral supported off the top degree.
        StructRing({**base, "products": {"h*h": "P"}, "integral": {"h": 1}})
    with pytest.raises(RingFormatError):
        # Two degree-zero elements.
        StructRing({"basis": ["1", "u"], "degrees": [0, 0], "products": {}, "integral": {}})
    with pytest.raises(RingFormatError):
        # Associativity failure: (x*x)*y = z*y = t but x*(x*y) = 0.
        StructRing(
            {
                "basis": ["1", "x", "y", "z", "t"],
                "degrees": [0, 1, 1, 2, 3],
                "products": {
                    "x*x": "z",
                    "x*y": "0",
                    "y*y": "0",
                    "x*z": "0",
                    "y*z": "t",
                },
                "integral": {"t": 1},
            }
        )
    with pytest.raises(RingFormatError, match="conflicting products for h\\*e"):
        # A product listed as zero still conflicts with a nonzero listing.
        StructRing(
            {
                "basis": ["1", "h", "e", "P"],
                "degrees": [0, 1, 1, 2],
                "products": {"h*h": "P", "e*h": "P", "h*e": "0"},
                "integral": {"P": 1},
            }
        )


def test_ring_yaml_fixture_matches_builtin(tmp_path) -> None:
    # The ring-file example in README.md is the blown-up plane.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("**Ring files**", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "blowup_p2.yaml"
    path.write_text(example, encoding="utf-8")
    loaded = load_ring(path)
    assert loaded == blowup_plane_at_point()
    assert loaded.element("e") * loaded.element("e") == -loaded.element("P")


def test_ring_description_resolves_bare_integers_to_a_named_unit() -> None:
    # The unit is labelled "one", not "1": bare integers in products, in the
    # pushforward map and in parse must all become multiples of it.
    ring = StructRing(
        {
            "basis": ["one", "a", "p"],
            "degrees": [0, 1, 2],
            "products": {"one*one": "1", "a*a": "2*p"},
            "integral": {"p": 1},
            "pushforward": {
                "target": {"basis": ["u", "q"], "degrees": [0, 1], "integral": {"q": 1}},
                "map": {"one": "0", "a": "3", "p": "q - 0"},
            },
        }
    )
    one, a, p = (ring.element(label) for label in ("one", "a", "p"))
    target = ring.pushforward_target
    assert one * one == ring.one() == one
    assert a * a == 2 * p
    assert ring.parse("2 + a - 1") == one + a
    assert ring.parse("5").constant_term == 5
    assert ring.parse("0").is_zero
    assert ring.parse("1 + a") ** 2 == ring.parse("1 + 2*a + 2*p")
    assert a.pushforward() == 3 * target.one()
    assert one.pushforward().is_zero
    assert p.pushforward() == target.element("q")
    assert (ring.parse("4 - 2*a + p").pushforward()).to_string() == "-6 + q"


def test_ring_description_rejects_malformed() -> None:
    with pytest.raises(RingFormatError):
        StructRing({"basis": ["1", "h"], "degrees": [0]})
    with pytest.raises(RingFormatError):
        StructRing({"basis": ["1", "h"], "degrees": [0, 1], "bogus": 1})
    with pytest.raises(RingFormatError):
        StructRing(
            {
                "basis": ["1", "h"],
                "degrees": [0, 1],
                "products": {"h": "h"},
            }
        )


_GOOD_RING = {
    "basis": ["1", "h", "h2"],
    "degrees": [0, 1, 2],
    "products": {"h*h": "h2"},
    "integral": {"h2": 1},
}


def test_ring_from_dict_rejects_non_integers() -> None:
    assert StructRing(_GOOD_RING).element("h2").integrate() == 1
    for key, value in (
        ("degrees", [0, 1.7, 2]),
        ("degrees", [0, True, 2]),
        ("integral", {"h2": 1.5}),
        ("integral", {"h2": True}),
    ):
        with pytest.raises(RingFormatError):
            StructRing({**_GOOD_RING, key: value})


def test_struct_ring_rejects_non_integers() -> None:
    assert StructRing(_GOOD_RING).element("h2").integrate() == 1
    for key, value in (
        ("degrees", [0, 1.0, 2]),
        ("products", {"h*h": True}),
        ("products", {"h*h": 1.5}),
        ("integral", {"h2": False}),
    ):
        with pytest.raises(RingFormatError):
            StructRing({**_GOOD_RING, key: value})


def test_struct_element_rejects_non_integers() -> None:
    ring = projective_space(2)
    assert StructElement(ring, {1: 2}).to_string() == "2*h"
    for bad in (2.9, 1.0, 0.0, True):
        with pytest.raises(RingFormatError):
            StructElement(ring, {1: bad})


def test_struct_element_degree_part_rejects_non_integer_degrees() -> None:
    # True and 1.0 are never read as degree 1, nor "a" as an empty degree.
    value = blowup_plane_at_point().parse("1 + h - e + 3*P")
    assert value.degree_part(1) == value.ring.parse("h - e")
    for bad in (True, 1.0, "a"):
        with pytest.raises(ValueError, match="not an integer"):
            value.degree_part(bad)


def test_builtin_ring_lookup() -> None:
    assert builtin_ring("blowup_p2") == blowup_plane_at_point()
    assert builtin_ring("p2") == projective_space(2)
    with pytest.raises(KeyError):
        builtin_ring("nope")
