"""Tests for the raw-bracket conservation identity."""

from __future__ import annotations

import math

import pytest

import schubres.identities as identities
from schubres.chow import GrassContext
from schubres.identities import bracket_sum, verify_identity
from schubres.limits import DegenerationSpec, decompose_degeneration


GRID_CONTEXTS = (GrassContext(1, 3), GrassContext(1, 4), GrassContext(2, 5))


def grid_cases():
    for ctx in GRID_CONTEXTS:
        for k in range(1, 4):
            for l in range(1, 5 - k):
                yield ctx, k, l


def test_identity_grid_is_zero() -> None:
    for ctx, k, l in grid_cases():
        residual = verify_identity(ctx, k, l)
        assert residual.is_zero, f"residual nonzero for {ctx!r} k={k} l={l}"
        assert verify_identity(ctx, k, l).is_zero


def test_bracket_matches_decomposition_totals() -> None:
    ctx = GrassContext(1, 4)
    for k, l in ((1, 2), (2, 3), (1, 4)):
        report = decompose_degeneration(DegenerationSpec(ctx, ((k, 1), (l, 1))))
        total = report.pieces[0].total_class + report.pieces[1].total_class
        assert bracket_sum(ctx, k, l) == total


def test_bracket_is_symmetric_in_the_pieces() -> None:
    ctx = GrassContext(1, 4)
    assert bracket_sum(ctx, 1, 3) == bracket_sum(ctx, 3, 1)


def test_case_validation() -> None:
    ctx = GrassContext(1, 3)
    with pytest.raises(ValueError):
        bracket_sum(ctx, 0, 2)
    with pytest.raises(ValueError):
        bracket_sum(ctx, 2, 0)
    with pytest.raises(ValueError):
        bracket_sum(ctx, 1, -1)


def test_case_rejects_non_integers() -> None:
    ctx = GrassContext(1, 3)
    for k, l in ((True, 2), (2.0, 1), (1, True), (1, 2.0)):
        with pytest.raises(ValueError, match="not an integer"):
            bracket_sum(ctx, k, l)


def test_broken_binomial_breaks_the_identity(monkeypatch) -> None:
    # Guard against a vacuous check: corrupt one binomial weight in a case
    # with a surviving adjunct term and make sure the residual notices.
    def skewed(n: int, r: int) -> int:
        value = math.comb(n, r)
        if r == 3 and n >= 3:
            value += 1
        return value

    ctx = GrassContext(2, 5)
    assert verify_identity(ctx, 1, 1).is_zero
    monkeypatch.setattr(identities, "_binomial", skewed)
    residual = verify_identity(ctx, 1, 1)
    assert not residual.is_zero
