"""Multiplication kernel for truncated polynomials over packed monomial keys.

A term map is a dict from packed monomial keys to nonzero int coefficients,
laid out as in ``symfunc``: the weighted degree sits in the bits from
``key_shift`` up and the exponent fields below it, each wide enough to hold
twice the truncation bound.  The fields of a sum of two in-range keys never
carry, so the key of a product is the sum of the keys, and the product is
within the truncation exactly when that sum is below the spec's
``key_limit``, ``(truncation + 1) << key_shift``.

The kernel multiplies two canonical term maps, dropping every product above
the truncation.  Coefficients are Python ints throughout; intermediate
values routinely exceed 64 bits, so no fixed-width arithmetic is allowed
here.

Loop contract: the smaller operand is sorted by key, which sorts it by
weighted degree, so the inner loop stops at the first product above the
bound.  Partial sums are accumulated without testing for zero.  Called as
``mul_terms(a, b, limit)`` the kernel returns a new canonical term map: the
terms that cancelled to zero are dropped in one pass at the end.  Called
with a caller's dict ``out`` and an int ``scale``, it adds ``scale * a * b``
into ``out`` and returns ``out`` itself, zeros included; the caller sums
any number of products that way and drops the zeros once, when the sum is
done.
"""

from __future__ import annotations


def mul_terms(
    a: dict[int, int],
    b: dict[int, int],
    limit: int,
    out: dict[int, int] | None = None,
    scale: int = 1,
) -> dict[int, int]:
    fresh = out is None
    if fresh:
        out = {}
    if not a or not b or not scale:
        return out
    if len(b) > len(a):
        a, b = b, a
    b_sorted = sorted(b.items())
    get = out.get
    for key_a, coeff_a in a.items():
        room = limit - key_a
        coeff_a *= scale
        for key_b, coeff_b in b_sorted:
            if key_b >= room:
                break
            key = key_a + key_b
            out[key] = get(key, 0) + coeff_a * coeff_b
    if fresh:
        return {key: value for key, value in out.items() if value}
    return out
