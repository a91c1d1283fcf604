"""Multiplication kernel for truncated polynomials over packed monomial keys.

A term map is a dict from packed monomial keys to nonzero int coefficients,
laid out as in ``symfunc``: the weighted degree sits in the bits from
``key_shift`` up and the exponent fields below it, each wide enough to hold
twice the truncation bound.  The fields of a sum of two in-range keys never
carry, so the key of a product is the sum of the keys, and the product is
within the truncation exactly when that sum is below the spec's
``key_limit``, ``(truncation + 1) << key_shift``.

The kernel multiplies two canonical term maps and returns a canonical term
map, dropping every product above the truncation.  Coefficients are Python
ints throughout; intermediate values routinely exceed 64 bits, so no
fixed-width arithmetic is allowed here.

Loop contract: the smaller operand is sorted by key, which sorts it by
weighted degree, so the inner loop stops at the first product above the
bound.  Partial sums are accumulated without testing for zero, and terms that
cancelled to zero are dropped in one pass at the end, so the result never
holds a zero coefficient.
"""

from __future__ import annotations


def mul_terms(a: dict[int, int], b: dict[int, int], limit: int) -> dict[int, int]:
    if not a or not b:
        return {}
    if len(b) > len(a):
        a, b = b, a
    b_sorted = sorted(b.items())
    out: dict[int, int] = {}
    get = out.get
    for key_a, coeff_a in a.items():
        room = limit - key_a
        for key_b, coeff_b in b_sorted:
            if key_b >= room:
                break
            key = key_a + key_b
            out[key] = get(key, 0) + coeff_a * coeff_b
    return {key: value for key, value in out.items() if value}
