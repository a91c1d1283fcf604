"""Pure Python multiplication kernel for truncated term maps.

A term map is a dict from exponent tuples to nonzero int coefficients.  The
kernel multiplies two canonical term maps and returns a canonical term map,
dropping every product term whose weighted degree exceeds the truncation
bound.  Coefficients are Python ints throughout; intermediate values routinely
exceed 64 bits, so no fixed-width arithmetic is allowed here.

Loop contract: the smaller operand is sorted by weighted degree once, so the
inner loop stops at the first product above the bound.  Partial sums are
accumulated without testing for zero, and terms that cancelled to zero are
dropped in one pass at the end, so the result never holds a zero coefficient.
"""

from __future__ import annotations

from operator import add, itemgetter, mul


def mul_terms(
    a: dict[tuple[int, ...], int],
    b: dict[tuple[int, ...], int],
    degrees: tuple[int, ...],
    truncation: int,
) -> dict[tuple[int, ...], int]:
    if not a or not b:
        return {}
    if len(b) > len(a):
        a, b = b, a

    # Sorting the smaller operand by degree lets the inner loop stop as soon
    # as every remaining product would exceed the truncation bound.
    b_sorted = sorted(
        ((sum(map(mul, expo, degrees)), expo, coeff) for expo, coeff in b.items()),
        key=itemgetter(0),
    )
    out: dict[tuple[int, ...], int] = {}
    get = out.get
    for expo_a, coeff_a in a.items():
        budget = truncation - sum(map(mul, expo_a, degrees))
        if budget < 0:
            continue
        for deg_b, expo_b, coeff_b in b_sorted:
            if deg_b > budget:
                break
            key = tuple(map(add, expo_a, expo_b))
            out[key] = get(key, 0) + coeff_a * coeff_b
    return {key: value for key, value in out.items() if value}
