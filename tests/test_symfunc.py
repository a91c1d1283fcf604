"""Tests for the truncated polynomial ring layer."""

from __future__ import annotations

import random

import pytest

from schubres import kernel
from schubres.errors import ContextMismatchError, NonUnitError, NotSymmetricError
from schubres.chow import (
    GrassContext,
    StructElement,
    blowup_plane_at_point,
    dual_pieri_multiply,
    projective_space,
)
from schubres.symfunc import (
    ClassCarrier,
    GeneratorSpec,
    GradedPoly,
    add_terms,
    elementary_symmetric,
    parse_linear_terms,
    parse_poly,
    root_spec,
    roots_to_e,
    series_inverse,
    substitute,
)


def lines_spec(truncation: int = 4) -> GeneratorSpec:
    return GeneratorSpec(("x", "y"), (1, 2), truncation)


def P(text: str, spec: GeneratorSpec | None = None) -> GradedPoly:
    return parse_poly(spec if spec is not None else lines_spec(), text)


def random_poly(rng: random.Random, spec: GeneratorSpec, max_terms: int = 6) -> GradedPoly:
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        expo = []
        budget = spec.truncation
        for d in spec.degrees:
            e = rng.randrange(budget // d + 1) if d <= budget else 0
            expo.append(e)
            budget -= e * d
        terms[tuple(expo)] = rng.randint(-9, 9)
    return GradedPoly(spec, terms)


def test_spec_validation() -> None:
    with pytest.raises(ValueError):
        GeneratorSpec(("x", "x"), (1, 2), 4)
    with pytest.raises(ValueError):
        GeneratorSpec(("x",), (0,), 4)
    with pytest.raises(ValueError):
        GeneratorSpec(("x",), (1, 2), 4)
    with pytest.raises(ValueError):
        GeneratorSpec(("2bad",), (1,), 4)
    with pytest.raises(ValueError):
        GeneratorSpec(("x",), (1,), -1)


def test_spec_rejects_non_integers() -> None:
    for bad in (1.7, 1.0, True):
        with pytest.raises(ValueError, match="not an integer"):
            GeneratorSpec(("x",), (bad,), 4)
    with pytest.raises(ValueError, match="not an integer"):
        GeneratorSpec(("x",), (1,), True)
    spec = lines_spec()
    for bad in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="not an integer"):
            GradedPoly.constant(spec, bad)
        with pytest.raises(ValueError, match="not an integer"):
            GradedPoly(spec, {(bad, 0): 1})
        with pytest.raises(ValueError, match="not an integer"):
            GradedPoly(spec, {(1, 0): bad})
        with pytest.raises(ValueError, match="not an integer"):
            P("x + y") ** bad
        with pytest.raises(ValueError, match="not an integer"):
            P("x + y").degree_scale(bad)


@pytest.mark.parametrize(
    "expression", ["x - True", "e - True", "e + True", "e * True", "True - e", "x * True"]
)
def test_bool_operands_are_refused(expression: str) -> None:
    # x lives on G(1,3), e on the blown-up plane; a bool is never read as 1.
    operands = {
        "x": parse_poly(GrassContext(1, 3).spec, "x"),
        "e": blowup_plane_at_point().element("e"),
    }
    with pytest.raises(ValueError, match="not an integer"):
        eval(expression, {}, operands)


def naive_merge(pairs) -> dict:
    totals: dict = {}
    for key, coeff in pairs:
        totals[key] = totals.get(key, 0) + coeff
    return {key: value for key, value in totals.items() if value}


def random_pairs(rng: random.Random, keys: list, count: int) -> list:
    # Few keys and small coefficients, zero among them, so that terms
    # cancel often.
    return [(rng.choice(keys), rng.randint(-3, 3)) for _ in range(count)]


def test_add_terms_matches_naive_merge() -> None:
    assert add_terms({1: 2, 4: 1}, [(1, -2), (2, 0), (3, 1), (3, -1)]) == {4: 1}
    rng = random.Random(31)
    for _ in range(300):
        start = naive_merge(random_pairs(rng, list(range(6)), rng.randrange(8)))
        items = random_pairs(rng, list(range(6)), rng.randrange(12))
        out = dict(start)
        assert add_terms(out, iter(items)) is out
        assert out == naive_merge(list(start.items()) + items)


def test_term_merges_match_naive_merge() -> None:
    # Every carrier constructor, sum, product and parser that merges terms
    # agrees with a naive merge on the same random terms.
    rng = random.Random(32)
    spec = lines_spec(4)
    expos = [(0, 0), (1, 0), (0, 1), (2, 1), (4, 0)]
    ctx = GrassContext(1, 3)
    parts = [(), (1,), (2,), (1, 1), (2, 1)]
    ring = projective_space(4)
    for _ in range(100):
        a, b = random_pairs(rng, expos, 6), random_pairs(rng, expos, 6)
        assert GradedPoly(spec, a).terms == naive_merge(a)
        assert (GradedPoly(spec, a) + GradedPoly(spec, b)).terms == naive_merge(a + b)
        a, b = random_pairs(rng, parts, 6), random_pairs(rng, parts, 6)
        vector = naive_merge(a + b)
        by_term = [
            (target, coeff * value)
            for partition, coeff in vector.items()
            for target, value in dual_pieri_multiply(ctx, {partition: 1}, 1).items()
        ]
        assert dual_pieri_multiply(ctx, vector, 1) == naive_merge(by_term)
        a, b = random_pairs(rng, range(5), 6), random_pairs(rng, range(5), 6)
        ea, eb = StructElement(ring, naive_merge(a)), StructElement(ring, naive_merge(b))
        assert (ea + eb).coeffs == naive_merge(a + b)
        product = [(i + j, ca * cb) for i, ca in a for j, cb in b if i + j <= 4]
        assert (ea * eb).coeffs == naive_merge(product)
        text = " ".join(f"{'-' if c < 0 else '+'} {abs(c)}*{ring.labels[i]}" for i, c in a)
        assert ring.parse(text).coeffs == naive_merge(a)


def test_addition_merges_and_cancels() -> None:
    a = P("x + y")
    b = P("x - y")
    assert a + b == P("2*x")
    assert (a - a).is_zero
    assert (a - a).terms == {}


def test_constructor_truncates_and_canonicalizes() -> None:
    spec = lines_spec(2)
    p = GradedPoly(spec, {(3, 0): 5, (0, 1): 2, (1, 0): 0})
    assert p.terms == {(0, 1): 2}


def test_multiplication_truncates_eagerly() -> None:
    spec = lines_spec(2)
    a = P("1 + x + y", spec)
    b = P("1 - x + x^2 - y", spec)
    assert a * b == GradedPoly.one(spec)
    spec3 = lines_spec(3)
    product = P("1 + x + y", spec3) * P("1 - x + x^2 - y", spec3)
    assert product == P("1 + x^3 - 2*x*y", spec3)


def test_int_interop() -> None:
    p = P("x + y")
    assert 2 * p == P("2*x + 2*y")
    assert p + 1 == P("1 + x + y")
    assert 1 - p == P("1 - x - y")
    assert p * 0 == GradedPoly.zero(p.spec)
    assert p ** 2 == P("x^2 + 2*x*y + y^2")


def test_spec_mismatch_raises() -> None:
    with pytest.raises(ContextMismatchError):
        P("x", lines_spec(4)) + P("x", lines_spec(5))
    with pytest.raises(ContextMismatchError):
        P("x", lines_spec(4)) * P("x", lines_spec(5))


def test_degree_part_and_scale() -> None:
    p = P("1 + 3*x + 2*x^2 + 4*y + 4*x*y")
    assert p.degree_part(2) == P("2*x^2 + 4*y")
    assert p.degree_part(7).is_zero
    assert p.degree_scale(2) == P("1 + 6*x + 8*x^2 + 16*y + 32*x*y")
    assert p.max_degree() == 3
    # GradedPoly scales in one pass; the base's sum over degrees is the
    # reference, scales 0 and -1 included.
    rng = random.Random(53)
    spec = GeneratorSpec(("a", "b", "c"), (1, 2, 3), 7)
    for _ in range(50):
        q = random_poly(rng, spec)
        for m in (0, 1, -1, 3, -(10**20)):
            assert q.degree_scale(m) == ClassCarrier.degree_scale(q, m)
            assert 0 not in q.degree_scale(m).packed.values()


def test_degree_part_rejects_non_integer_degrees() -> None:
    # True and 1.0 are never read as degree 1, nor "a" as an empty degree.
    p = P("1 + 3*x + 2*x^2 + 4*y")
    p.degree_part(1)  # the cached split by degree must not admit them either
    for bad in (True, 1.0, "a"):
        with pytest.raises(ValueError, match="not an integer"):
            p.degree_part(bad)
    assert p.degree_part(-1).is_zero


def test_zero_generator_spec_is_integers() -> None:
    spec = GeneratorSpec((), (), 0)
    two = GradedPoly.constant(spec, 2)
    three = GradedPoly.constant(spec, 3)
    assert two * three == GradedPoly.constant(spec, 6)
    assert series_inverse(GradedPoly.one(spec)) == 1


def test_series_inverse_of_total_chern() -> None:
    spec = lines_spec(3)
    inv = series_inverse(P("1 + x + y", spec))
    assert inv.degree_part(1) == P("-x", spec)
    assert inv.degree_part(2) == P("x^2 - y", spec)
    assert inv.degree_part(3) == P("-x^3 + 2*x*y", spec)
    assert inv * P("1 + x + y", spec) == 1


def test_series_inverse_requires_unit() -> None:
    with pytest.raises(NonUnitError):
        series_inverse(P("2 + x"))
    with pytest.raises(NonUnitError):
        series_inverse(P("x"))


def test_series_inverse_random_property() -> None:
    rng = random.Random(42)
    spec = GeneratorSpec(("a", "b", "c"), (1, 2, 3), 7)
    for _ in range(60):
        p = random_poly(rng, spec) + 1 - random_poly(rng, spec).degree_part(0)
        p = p + 1 - p.constant_term
        assert p.constant_term == 1
        assert series_inverse(p) * p == 1


def test_ring_laws_random() -> None:
    rng = random.Random(7)
    spec = GeneratorSpec(("a", "b"), (1, 3), 6)
    for _ in range(40):
        p = random_poly(rng, spec)
        q = random_poly(rng, spec)
        r = random_poly(rng, spec)
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) * r == p * r + q * r
        assert (p * q) * r == p * (q * r)


def test_elementary_symmetric() -> None:
    spec = root_spec(3, 5)
    e2 = elementary_symmetric(spec, 2)
    assert e2 == parse_poly(spec, "t1*t2 + t1*t3 + t2*t3")
    assert elementary_symmetric(spec, 0) == 1
    assert elementary_symmetric(spec, 4).is_zero


def test_roots_to_e_newton_examples() -> None:
    spec = root_spec(2, 4)
    power_sum = parse_poly(spec, "t1^2 + t2^2")
    assert roots_to_e(power_sum).to_string() == "e1^2 - 2*e2"
    assert roots_to_e(parse_poly(spec, "t1*t2")).to_string() == "e2"


def test_roots_to_e_total_chern_of_squares() -> None:
    # Product of (1 + sum of a two-element multiset of roots) over all
    # multisets from {t1, t2}: the splitting-principle total class of the
    # symmetric square of a rank-two bundle.
    spec = root_spec(2, 4)
    product = (
        parse_poly(spec, "1 + 2*t1")
        * parse_poly(spec, "1 + t1 + t2")
        * parse_poly(spec, "1 + 2*t2")
    )
    expected = "1 + 3*e1 + 2*e1^2 + 4*e2 + 4*e1*e2"
    assert roots_to_e(product).to_string() == expected


def test_roots_to_e_rejects_asymmetric() -> None:
    spec = root_spec(2, 4)
    with pytest.raises(NotSymmetricError):
        roots_to_e(parse_poly(spec, "t1"))
    with pytest.raises(NotSymmetricError):
        roots_to_e(parse_poly(spec, "t1^2*t2 + t1*t2"))


def test_roots_to_e_refuses_asymmetric_input_after_sharing_tables() -> None:
    # Calls over one root spec share its e-basis tables; a table filled by a
    # symmetric input never lets a non-symmetric one through.
    spec = root_spec(3, 6)
    symmetric = parse_poly(spec, "1 + t1 + t2 + t3 + t1^2*t2^2*t3^2")
    assert roots_to_e(symmetric).to_string() == "1 + e1 + e3^2"
    tables = spec._e_tables
    for text in ("t1", "t1^2*t2^2*t3^2 + t1^3", "t1*t2 + t1*t3"):
        with pytest.raises(NotSymmetricError):
            roots_to_e(parse_poly(spec, text))
    assert roots_to_e(symmetric).to_string() == "1 + e1 + e3^2"
    assert spec._e_tables is tables
    assert root_spec(3, 6)._e_tables is None


def test_roots_to_e_section_property() -> None:
    # Expanding e_i into fresh roots and contracting back is the identity.
    rng = random.Random(11)
    k = 3
    espec = GeneratorSpec(("e1", "e2", "e3"), (1, 2, 3), 6)
    rspec = root_spec(k, 6)
    images = [elementary_symmetric(rspec, i + 1) for i in range(k)]
    for _ in range(25):
        p = random_poly(rng, espec)
        expanded = substitute(p, images, GradedPoly.one(rspec))
        assert roots_to_e(expanded, espec) == p


def test_substitute_matches_direct_evaluation() -> None:
    spec = lines_spec(4)
    p = P("3*x^2*y - y^2 + 5", spec)
    images = [GradedPoly.constant(spec, 2), GradedPoly.constant(spec, 3)]
    value = substitute(p, images, GradedPoly.one(spec))
    assert value == 3 * 4 * 3 - 9 + 5


def test_to_string_ordering_and_signs() -> None:
    assert P("18*x^2*y + 9*y^2").to_string() == "18*x^2*y + 9*y^2"
    p = GradedPoly(lines_spec(), {(0, 1): 10, (2, 0): 11, (1, 0): 6})
    assert p.to_string() == "6*x + 11*x^2 + 10*y"
    assert P("-x^3 + 2*x*y", lines_spec(3)).to_string() == "-x^3 + 2*x*y"
    assert GradedPoly.zero(lines_spec()).to_string() == "0"
    assert GradedPoly.constant(lines_spec(), -7).to_string() == "-7"


def test_parse_round_trip_random() -> None:
    rng = random.Random(3)
    spec = GeneratorSpec(("x", "y", "z"), (1, 2, 3), 8)
    for _ in range(50):
        p = random_poly(rng, spec)
        assert parse_poly(spec, p.to_string()) == p


@pytest.mark.parametrize(
    "text, terms",
    [
        ("x", [(1, [("x", 1)])]),
        ("18*x^2*y + 9*y^2", [(18, [("x", 2), ("y", 1)]), (9, [("y", 2)])]),
        (" - x ^ 2 * 3*y2", [(-3, [("x", 2), ("y2", 1)])]),
        ("+x-2", [(1, [("x", 1)]), (-2, [])]),
        ("2*3*_a*x^0", [(6, [("_a", 1), ("x", 0)])]),
        ("x*x^ 007", [(1, [("x", 1), ("x", 7)])]),
        ("0 - 0*x", [(0, []), (0, [("x", 1)])]),
        ("x + 1 ", [(1, [("x", 1)]), (1, [])]),
        ("\tx\n", [(1, [("x", 1)])]),
    ],
)
def test_parse_linear_terms_accepts(text, terms) -> None:
    # A term is split off at each sign and a factor at each '*'; whitespace
    # around any part is ignored, trailing whitespace included.
    assert parse_linear_terms(text) == terms


def test_parse_rejects_garbage() -> None:
    # One string for each way the grammar can fail.
    for text in ("", "  ", "x +", "x ** 2", "x @ y", "2x", "x^y", "--x", "x*", "*x", "x y", "2^3"):
        with pytest.raises(ValueError, match="expected an integer or name"):
            parse_poly(lines_spec(), text)
    with pytest.raises(KeyError):
        parse_poly(lines_spec(), "q + 1")


def test_immutability() -> None:
    p = P("x + y")
    with pytest.raises(AttributeError):
        p.terms = {}
    with pytest.raises(AttributeError):
        p.packed = {}
    with pytest.raises(TypeError):
        p.terms[(1, 0)] = 5


# Packed monomial keys.  The layout is fixed by the module docstring:
# W = (2 * truncation).bit_length() bits per exponent field, e_0 in the most
# significant field and the weighted degree above all of them.


def random_layout_spec(rng: random.Random) -> GeneratorSpec:
    # At least one degree-one generator, so exponents can reach the
    # truncation itself, next to generators of higher degree.
    n = rng.randint(1, 5)
    degrees = [rng.randint(1, 4) for _ in range(n)]
    degrees[rng.randrange(n)] = 1
    return GeneratorSpec(
        tuple(f"g{i}" for i in range(n)), tuple(degrees), rng.randint(1, 12)
    )


def in_range_exponent(
    rng: random.Random, spec: GeneratorSpec, budget: int
) -> tuple[int, ...]:
    # A random exponent of weighted degree at most ``budget``, filled in a
    # random generator order so that every field can come out large.
    expo = [0] * spec.ngens
    order = list(range(spec.ngens))
    rng.shuffle(order)
    for i in order:
        expo[i] = rng.randint(0, budget // spec.degrees[i])
        budget -= expo[i] * spec.degrees[i]
    return tuple(expo)


def axis_extremes(spec: GeneratorSpec) -> list[tuple[int, ...]]:
    # The largest in-range power of each generator: truncation // degree.
    return [
        tuple(spec.truncation // d if j == i else 0 for j in range(spec.ngens))
        for i, d in enumerate(spec.degrees)
    ]


def documented_key(spec: GeneratorSpec, expo: tuple[int, ...]) -> int:
    width = (2 * spec.truncation).bit_length()
    n = spec.ngens
    key = spec.weighted_degree(expo) << (n * width)
    for i, e in enumerate(expo):
        key |= e << ((n - 1 - i) * width)
    return key


def layout_exponents(rng: random.Random, spec: GeneratorSpec) -> list[tuple[int, ...]]:
    return axis_extremes(spec) + [
        in_range_exponent(rng, spec, spec.truncation) for _ in range(20)
    ]


def test_packed_layout_round_trips() -> None:
    # Every field of a sum of two in-range keys is at most twice the
    # truncation, so pack and unpack must round-trip over that whole range.
    rng = random.Random(101)
    for _ in range(200):
        spec = random_layout_spec(rng)
        for expo in layout_exponents(rng, spec):
            assert spec.unpack(spec.pack(expo)) == expo
            assert spec.pack(expo) == documented_key(spec, expo)
            assert spec.pack(expo) >> spec.key_shift == spec.weighted_degree(expo)
        top = 2 * spec.truncation
        for expo in [
            tuple(rng.randint(0, top) for _ in range(spec.ngens)) for _ in range(10)
        ] + [(top,) * spec.ngens]:
            assert spec.unpack(spec.pack(expo)) == expo
            assert spec.pack(expo) == documented_key(spec, expo)


def test_packed_keys_add_without_carry() -> None:
    rng = random.Random(102)
    for _ in range(200):
        spec = random_layout_spec(rng)
        exponents = layout_exponents(rng, spec)
        for a in exponents:
            for b in rng.sample(exponents, 8) + [a]:
                total = tuple(x + y for x, y in zip(a, b))
                key = spec.pack(a) + spec.pack(b)
                assert key == spec.pack(total)
                assert spec.unpack(key) == total
                degree = spec.weighted_degree(total)
                assert key >> spec.key_shift == degree
                assert (key < spec.key_limit) == (degree <= spec.truncation)


def test_products_one_degree_over_truncation_are_dropped() -> None:
    rng = random.Random(103)
    for _ in range(300):
        spec = random_layout_spec(rng)
        j = spec.degrees.index(1)
        a = list(in_range_exponent(rng, spec, spec.truncation))
        if spec.weighted_degree(a) == 0:
            a[j] = 1
        over = spec.truncation + 1 - spec.weighted_degree(a)
        b = list(in_range_exponent(rng, spec, over))
        b[j] += over - spec.weighted_degree(b)
        x_a, x_b = GradedPoly(spec, {tuple(a): 3}), GradedPoly(spec, {tuple(b): 5})
        assert not x_a.is_zero and not x_b.is_zero
        assert (x_a * x_b).is_zero
        # One degree less is kept, with the summed exponent.
        if b[j]:
            b[j] -= 1
            kept = x_a * GradedPoly(spec, {tuple(b): 5})
            assert kept.terms == {tuple(x + y for x, y in zip(a, b)): 15}
            assert kept.max_degree() == spec.truncation


def test_key_order_is_graded_lex() -> None:
    rng = random.Random(104)
    for _ in range(200):
        spec = random_layout_spec(rng)
        exponents = layout_exponents(rng, spec)
        graded_lex = sorted(exponents, key=lambda e: (spec.weighted_degree(e), e))
        assert sorted(exponents, key=spec.pack) == graded_lex
        for a in exponents:
            for b in rng.sample(exponents, 5):
                assert (spec.pack(a) < spec.pack(b)) == (
                    (spec.weighted_degree(a), a) < (spec.weighted_degree(b), b)
                )


def test_add_products_agrees_across_carriers() -> None:
    # Projective 4-space as a tabulated ring and as Z[h] / (h^5): on both
    # carriers add_products is self plus the sum of c * a * b, with no zero
    # coefficient left, whatever cancels across the products.
    rng = random.Random(47)
    ring = projective_space(4)
    spec = GeneratorSpec(("h",), (1,), 4)

    def both(coeffs: dict) -> tuple[StructElement, GradedPoly]:
        return (
            StructElement(ring, coeffs),
            GradedPoly(spec, {(i,): c for i, c in coeffs.items()}),
        )

    def random_class() -> tuple[StructElement, GradedPoly]:
        bound = rng.choice((1, 9, 10**30))
        terms = rng.randrange(4)
        return both({rng.randrange(5): rng.randint(-bound, bound) for _ in range(terms)})

    for _ in range(150):
        start = random_class()
        triples = [
            (rng.choice((0, -1, 1, 6, -(10**25))), random_class(), random_class())
            for _ in range(rng.randint(1, 4))
        ]
        if rng.random() < 0.3:
            c, a, b = triples[0]
            triples.append((-c, a, b))
        tabulated = start[0].add_products([(c, a[0], b[0]) for c, a, b in triples])
        graded = start[1].add_products([(c, a[1], b[1]) for c, a, b in triples])
        expected = start[1]
        for c, a, b in triples:
            expected = expected + (a[1] * b[1]) * c
        assert graded == expected
        assert {(i,): c for i, c in tabulated.coeffs.items()} == dict(graded.terms)
        assert 0 not in tabulated.coeffs.values()
        assert 0 not in graded.packed.values()
    # Carrier times carrier is the one-triple case.
    a, b = both({1: 2, 0: 1}), both({3: -1, 1: 4})
    assert a[0] * b[0] == a[0].zero_like().add_products([(1, a[0], b[0])])
    assert a[1] * b[1] == a[1].zero_like().add_products([(1, a[1], b[1])])


def test_add_products_refuses_non_integer_coefficients_and_foreign_operands() -> None:
    tabulated = projective_space(4).element("h")
    graded = parse_poly(GeneratorSpec(("h",), (1,), 4), "h")
    for x in (tabulated, graded):
        for bad in (1.0, 2.5, True, False):
            with pytest.raises(ValueError, match="not an integer"):
                x.add_products([(bad, x, x)])
        assert x.add_products([]) == x
    with pytest.raises(ContextMismatchError):
        tabulated.add_products([(1, tabulated, projective_space(3).element("h"))])
    with pytest.raises(ContextMismatchError):
        graded.add_products([(1, parse_poly(GeneratorSpec(("h",), (1,), 5), "h"), graded)])
    with pytest.raises(ContextMismatchError):
        graded.add_products([(1, graded, tabulated)])
    with pytest.raises(TypeError):
        graded * tabulated


def test_add_products_takes_an_int_factor(monkeypatch) -> None:
    # (c, a, m) with an int m adds c * m * a on both carriers, with no
    # kernel call; a bool or float factor is refused, and so is an operand
    # of another ring.
    calls = []
    mul_terms = kernel.mul_terms
    monkeypatch.setattr(kernel, "mul_terms", lambda *args: calls.append(args) or mul_terms(*args))
    tabulated = projective_space(4)
    spec = GeneratorSpec(("h",), (1,), 4)
    for x, a in (
        (tabulated.parse("1 + h"), tabulated.parse("2*h - 3*h2 + h4")),
        (parse_poly(spec, "1 + h"), parse_poly(spec, "2*h - 3*h^2 + h^4")),
    ):
        sums = [x.add_products([(3, a, 2)]), x.add_products([(1, a, -1), (1, a, 1)])]
        assert calls == []
        assert sums == [x + 6 * a, x]
        assert x.add_products([(2, a, 1), (1, a, 0), (-1, x, x)]) == x + 2 * a - x * x
        for bad in (True, False, 2.0, 0.5):
            with pytest.raises(ValueError, match="not an integer"):
                x.add_products([(1, a, bad)])
        calls.clear()
    with pytest.raises(ContextMismatchError):
        tabulated.one().add_products([(1, projective_space(3).element("h"), 2)])
    with pytest.raises(ContextMismatchError):
        parse_poly(spec, "h").add_products([(1, tabulated.one(), 2)])
    with pytest.raises(ContextMismatchError):
        parse_poly(spec, "h").add_products([(1, parse_poly(lines_spec(), "x"), 2)])
