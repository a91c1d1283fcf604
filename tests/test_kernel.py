"""The multiplication kernel must agree with a naive product on exponent tuples.

Every product goes through ``GradedPoly`` and is read back through its
tuple-keyed ``terms`` view, so these tests do not depend on the key layout.
The accumulate mode of ``kernel.mul_terms`` is driven on packed keys made by
``GeneratorSpec.pack`` and read back through ``unpack``.
"""

from __future__ import annotations

import random

from schubres import kernel
from schubres.symfunc import GeneratorSpec, GradedPoly


def naive_mul(a, b, degrees, truncation):
    out: dict[tuple[int, ...], int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            expo = tuple(x + y for x, y in zip(ea, eb))
            if sum(x * d for x, d in zip(expo, degrees)) <= truncation:
                out[expo] = out.get(expo, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def random_terms(rng, ngens, degrees, truncation, nterms, coeff_bound=50):
    terms: dict[tuple[int, ...], int] = {}
    for _ in range(nterms):
        expo = tuple(rng.randint(0, 3) for _ in range(ngens))
        if sum(x * d for x, d in zip(expo, degrees)) > truncation:
            continue
        coeff = rng.randint(-coeff_bound, coeff_bound)
        if coeff:
            terms[expo] = coeff
    return terms


def mul(a, b, degrees, truncation):
    """Product of two tuple-keyed term maps through ``GradedPoly``."""
    names = tuple(f"g{i}" for i in range(len(degrees)))
    spec = GeneratorSpec(names, degrees, truncation)
    product = GradedPoly(spec, a) * GradedPoly(spec, b)
    assert 0 not in product.packed.values()
    return dict(product.terms)


def test_kernel_matches_naive_product_on_random_inputs() -> None:
    rng = random.Random(7)
    for _ in range(150):
        ngens = rng.randint(1, 4)
        degrees = tuple(rng.randint(1, 3) for _ in range(ngens))
        truncation = rng.randint(3, 12)
        a = random_terms(rng, ngens, degrees, truncation, rng.randint(0, 8))
        b = random_terms(rng, ngens, degrees, truncation, rng.randint(0, 8))
        assert mul(a, b, degrees, truncation) == naive_mul(a, b, degrees, truncation)
    # 13 generators at truncation 31: keys of 13 * 6 + 5 bits, wider than a
    # machine word.
    rng = random.Random(11)
    degrees = (1,) * 13
    a = {tuple(rng.randint(0, 2) for _ in range(13)): rng.randint(1, 9) for _ in range(6)}
    b = {tuple(rng.randint(0, 2) for _ in range(13)): rng.randint(1, 9) for _ in range(6)}
    assert mul(a, b, degrees, 31) == naive_mul(a, b, degrees, 31)


def test_cancelling_inputs_leave_no_zero_coefficients() -> None:
    # Coefficients of +-1 over few exponents make partial sums cancel often;
    # every cancelled term must be gone from the result, not kept as zero.
    rng = random.Random(29)
    cancelled = 0
    for _ in range(200):
        ngens = rng.randint(1, 3)
        degrees = tuple(rng.randint(1, 2) for _ in range(ngens))
        truncation = rng.randint(2, 6)
        a = random_terms(rng, ngens, degrees, truncation, rng.randint(1, 6), 1)
        b = random_terms(rng, ngens, degrees, truncation, rng.randint(1, 6), 1)
        expected = naive_mul(a, b, degrees, truncation)
        touched = {
            tuple(x + y for x, y in zip(ea, eb))
            for ea in a
            for eb in b
            if sum(d * (x + y) for d, x, y in zip(degrees, ea, eb)) <= truncation
        }
        cancelled += len(touched - expected.keys())
        result = mul(a, b, degrees, truncation)
        assert result == expected
        assert 0 not in result.values()
    assert cancelled > 0
    # (x + y)(x - y) = x^2 - y^2: the mixed term cancels exactly.
    assert mul({(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -1}, (1, 1), 2) == {
        (2, 0): 1,
        (0, 2): -1,
    }


def test_huge_coefficients_stay_exact() -> None:
    degrees = (1, 2)
    truncation = 6
    a = {(1, 0): 10**30 + 7, (0, 1): -(10**25), (0, 0): 2**70}
    b = {(2, 0): 3, (0, 2): 10**28, (1, 0): -(2**70)}
    assert mul(a, b, degrees, truncation) == naive_mul(a, b, degrees, truncation)
    # A product whose 2**140-sized partial sums cancel to zero.
    assert mul(
        {(1, 0): 2**70, (0, 0): 2**70}, {(1, 0): 2**70, (0, 0): -(2**70)}, degrees, 1
    ) == {(0, 0): -(2**140)}


def test_zero_generator_ring() -> None:
    assert mul({(): 3}, {(): 5}, (), 0) == {(): 15}
    assert mul({}, {(): 5}, (), 0) == {}


def test_truncation_drops_uncomputable_terms() -> None:
    degrees = (1, 1)
    a = {(3, 0): 1, (1, 0): 2}
    b = {(0, 3): 1, (0, 1): 5}
    result = mul(a, b, degrees, 4)
    assert result == naive_mul(a, b, degrees, 4)
    assert (3, 3) not in result


def naive_sum_of_products(start, products, degrees, truncation):
    """``start`` plus each scale * a * b, summed naively on exponent tuples."""
    out = dict(start)
    for scale, a, b in products:
        for expo, coeff in naive_mul(a, b, degrees, truncation).items():
            out[expo] = out.get(expo, 0) + scale * coeff
    return {k: v for k, v in out.items() if v}


def accumulate(start, products, degrees, truncation):
    """The same sum through the kernel's accumulate mode: every product adds
    into one dict, and the zeros are dropped once at the end."""
    spec = GeneratorSpec(tuple(f"g{i}" for i in range(len(degrees))), degrees, truncation)
    def packed(terms):
        return {spec.pack(expo): coeff for expo, coeff in terms.items()}

    out = packed(start)
    for scale, a, b in products:
        assert kernel.mul_terms(packed(a), packed(b), spec.key_limit, out, scale) is out
    return {spec.unpack(key): coeff for key, coeff in out.items() if coeff}


def test_accumulate_mode_matches_the_sum_of_separate_products() -> None:
    rng = random.Random(43)
    for _ in range(200):
        ngens = rng.randint(1, 3)
        degrees = tuple(rng.randint(1, 2) for _ in range(ngens))
        truncation = rng.randint(2, 7)
        bound = rng.choice((1, 50, 10**40))
        start = random_terms(rng, ngens, degrees, truncation, rng.randint(0, 5), bound)
        products = [
            (
                rng.choice((0, -1, 1, 3, -(10**30))),
                random_terms(rng, ngens, degrees, truncation, rng.randint(0, 6), bound),
                random_terms(rng, ngens, degrees, truncation, rng.randint(0, 6), bound),
            )
            for _ in range(rng.randint(1, 4))
        ]
        expected = naive_sum_of_products(start, products, degrees, truncation)
        assert accumulate(start, products, degrees, truncation) == expected


def test_accumulate_mode_cancels_across_products() -> None:
    degrees = (1, 1)
    a = {(1, 0): 2**70, (0, 1): 3}
    b = {(1, 0): 1, (0, 0): -(10**30)}
    start = {(0, 0): 7, (1, 0): 1}
    # a*b - a*b cancels every term the two products touch; so does adding
    # a*(-b) to a*b, and a scale of 0 touches nothing.
    cancelled = accumulate(start, [(1, a, b), (-1, a, b), (0, a, b)], degrees, 2)
    assert cancelled == start
    negated_b = {expo: -coeff for expo, coeff in b.items()}
    assert accumulate({}, [(5, a, b), (5, a, negated_b)], degrees, 2) == {}
    # The start term at x cancels against the product's x term.
    assert accumulate({(1, 0): -3}, [(1, {(1, 0): 1}, {(0, 0): 3})], degrees, 2) == {}
    # Products above the truncation are dropped in accumulate mode too.
    assert accumulate({}, [(1, {(2, 0): 1}, {(0, 1): 1})], degrees, 2) == {}


def test_positional_call_returns_a_fresh_canonical_dict() -> None:
    spec = GeneratorSpec(("x", "y"), (1, 1), 2)
    x, y = spec.pack((1, 0)), spec.pack((0, 1))
    a = {x: 1, y: 1}
    b = {x: 1, y: -1}
    out = kernel.mul_terms(a, b, spec.key_limit)
    assert out == {spec.pack((2, 0)): 1, spec.pack((0, 2)): -1}
    assert a == {x: 1, y: 1} and b == {x: 1, y: -1}
