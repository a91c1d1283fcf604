"""The two multiplication kernels must be indistinguishable."""

from __future__ import annotations

import random

import pytest

from schubres import kernel, _pykernel
from schubres.symfunc import GeneratorSpec, GradedPoly

try:
    from schubres import _mulcore
except ImportError:
    _mulcore = None

needs_compiled = pytest.mark.skipif(
    _mulcore is None, reason="compiled kernel not built"
)


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


def backends():
    yield _pykernel
    if _mulcore is not None:
        yield _mulcore


def test_backends_match_naive_product_on_random_inputs() -> None:
    rng = random.Random(7)
    for _ in range(150):
        ngens = rng.randint(1, 4)
        degrees = tuple(rng.randint(1, 3) for _ in range(ngens))
        truncation = rng.randint(3, 12)
        a = random_terms(rng, ngens, degrees, truncation, rng.randint(0, 8))
        b = random_terms(rng, ngens, degrees, truncation, rng.randint(0, 8))
        expected = naive_mul(a, b, degrees, truncation)
        for backend in backends():
            assert backend.mul_terms(a, b, degrees, truncation) == expected


@needs_compiled
def test_compiled_kernel_keeps_huge_coefficients_exact() -> None:
    degrees = (1, 2)
    truncation = 6
    a = {(1, 0): 10**30 + 7, (0, 1): -(10**25)}
    b = {(2, 0): 3, (0, 2): 10**28}
    expected = naive_mul(a, b, degrees, truncation)
    assert _mulcore.mul_terms(a, b, degrees, truncation) == expected
    assert _pykernel.mul_terms(a, b, degrees, truncation) == expected


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
        for backend in backends():
            result = backend.mul_terms(a, b, degrees, truncation)
            assert result == expected
            assert 0 not in result.values()
    assert cancelled > 0
    # (x + y)(x - y) = x^2 - y^2: the mixed term cancels exactly.
    for backend in backends():
        assert backend.mul_terms(
            {(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -1}, (1, 1), 2
        ) == {(2, 0): 1, (0, 2): -1}


def test_huge_coefficients_stay_exact() -> None:
    degrees = (1, 2)
    truncation = 6
    a = {(1, 0): 10**30 + 7, (0, 1): -(10**25), (0, 0): 2**70}
    b = {(2, 0): 3, (0, 2): 10**28, (1, 0): -(2**70)}
    expected = naive_mul(a, b, degrees, truncation)
    for backend in backends():
        assert backend.mul_terms(a, b, degrees, truncation) == expected
    # A product whose 2**140-sized partial sums cancel to zero.
    assert _pykernel.mul_terms(
        {(1, 0): 2**70, (0, 0): 2**70}, {(1, 0): 2**70, (0, 0): -(2**70)}, degrees, 1
    ) == {(0, 0): -(2**140)}


def test_zero_generator_ring() -> None:
    for backend in backends():
        assert backend.mul_terms({(): 3}, {(): 5}, (), 0) == {(): 15}
        assert backend.mul_terms({}, {(): 5}, (), 0) == {}


@needs_compiled
def test_compiled_kernel_falls_back_when_packing_is_too_wide() -> None:
    # 13 generators at truncation 31 need 13 * 5 = 65 bits, above the packing
    # budget, so the compiled kernel must route to the pure implementation.
    rng = random.Random(11)
    ngens = 13
    degrees = (1,) * ngens
    truncation = 31
    a = {tuple(rng.randint(0, 2) for _ in range(ngens)): rng.randint(1, 9) for _ in range(6)}
    b = {tuple(rng.randint(0, 2) for _ in range(ngens)): rng.randint(1, 9) for _ in range(6)}
    expected = naive_mul(a, b, degrees, truncation)
    assert _mulcore.mul_terms(a, b, degrees, truncation) == expected


def test_truncation_drops_uncomputable_terms() -> None:
    degrees = (1, 1)
    a = {(3, 0): 1, (1, 0): 2}
    b = {(0, 3): 1, (0, 1): 5}
    expected = naive_mul(a, b, degrees, 4)
    for backend in backends():
        result = backend.mul_terms(a, b, degrees, 4)
        assert result == expected
        assert (3, 3) not in result


@needs_compiled
def test_set_backend_switches_graded_poly_products() -> None:
    spec = GeneratorSpec(("x", "y"), (1, 2), 8)
    rng = random.Random(3)
    polys = []
    for _ in range(6):
        terms = random_terms(rng, 2, (1, 2), 8, 6)
        polys.append(GradedPoly(spec, terms))
    original = kernel.backend_name()
    try:
        results = {}
        for name in kernel.available_backends():
            kernel.set_backend(name)
            results[name] = [
                (p * q).terms for p in polys for q in polys
            ]
        assert results["python"] == results["cython"]
    finally:
        kernel.set_backend(original)


def test_set_backend_rejects_unknown_names() -> None:
    with pytest.raises(ValueError):
        kernel.set_backend("fortran")
