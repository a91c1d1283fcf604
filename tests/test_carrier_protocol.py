"""The layers above the rings touch classes only through the carrier protocol.

``bundles``, ``residual``, ``identities`` and ``limits`` must run over any
``symfunc.ClassCarrier``.  This reads their source: no ``isinstance`` test
against a concrete carrier, and no access to a carrier's storage.  Nor does
``residual`` import from ``chow``: it returns classes, and its callers
integrate them.

The two carriers are one implementation: every member that works on the
stored terms is ``ClassCarrier``'s own, and each ring supplies only its key
algebra.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from schubres.chow import StructElement, projective_space
from schubres.symfunc import ClassCarrier, GeneratorSpec, GradedPoly

LAYERS = ("bundles", "residual", "identities", "limits")
CARRIERS = {"GradedPoly", "StructElement"}
STORAGE = {"packed", "coeffs", "_parts", "_raw", "terms"}
# The members ClassCarrier implements on the stored terms, for every carrier.
STORAGE_MEMBERS = (
    "_raw", "is_zero", "constant_term", "truncation", "zero_like", "one_like",
    "_check", "__add__", "scaled", "add_products", "__eq__", "__hash__",
    "degree_part", "degree_scale", "to_string",
)
# Layer -> the schubres modules it may not import from.
BANNED_IMPORTS = {"residual": {"chow"}}


def protocol_breaches(source: str) -> list[str]:
    """Each line of ``source`` that tests for a concrete carrier type or
    touches carrier storage."""
    breaches = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in STORAGE:
            breaches.append(f"line {node.lineno}: .{node.attr}")
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            named = {
                sub.id if isinstance(sub, ast.Name) else sub.attr
                for sub in ast.walk(node.args[1])
                if isinstance(sub, (ast.Name, ast.Attribute))
            }
            for carrier in sorted(named & CARRIERS):
                breaches.append(f"line {node.lineno}: isinstance(..., {carrier})")
    return breaches


def schubres_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) for each schubres module ``source`` imports from, the
    module named within the package; relative imports are read as made from
    a module of the package itself."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"schubres.{module}" if module else "schubres"
            if module == "schubres":
                targets = [f"schubres.{alias.name}" for alias in node.names]
            else:
                targets = [module]
        else:
            continue
        found.extend(
            (node.lineno, target.split(".")[1])
            for target in targets
            if target.startswith("schubres.")
        )
    return found


def import_breaches(source: str, banned: set[str]) -> list[str]:
    return [
        f"line {line}: imports {module}"
        for line, module in schubres_imports(source)
        if module in banned
    ]


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_uses_only_the_carrier_protocol(layer: str) -> None:
    module = importlib.import_module(f"schubres.{layer}")
    source = Path(module.__file__).read_text(encoding="utf-8")
    assert protocol_breaches(source) == []


def test_protocol_check_catches_breaches() -> None:
    source = """
if isinstance(total, GradedPoly):
    pass
if isinstance(value, (int, chow.StructElement)) or isinstance(value, symfunc.GradedPoly | int):
    pass
keys = total.packed
coeffs = dict(element.coeffs)
view = poly.terms.items()
parts = poly._parts
raw = GradedPoly._raw(spec, {})
fine = isinstance(ring, GrassContext) and bundle.total_chern.degree_part(1)
"""
    assert sorted(protocol_breaches(source)) == sorted([
        "line 2: isinstance(..., GradedPoly)",
        "line 4: isinstance(..., StructElement)",
        "line 4: isinstance(..., GradedPoly)",
        "line 6: .packed",
        "line 7: .coeffs",
        "line 8: .terms",
        "line 9: ._parts",
        "line 10: ._raw",
    ])


@pytest.mark.parametrize("layer", sorted(BANNED_IMPORTS))
def test_layer_keeps_off_banned_modules(layer: str) -> None:
    module = importlib.import_module(f"schubres.{layer}")
    source = Path(module.__file__).read_text(encoding="utf-8")
    assert import_breaches(source, BANNED_IMPORTS[layer]) == []


def test_import_check_catches_breaches() -> None:
    source = """
from .chow import integrate
from schubres.chow import StructRing
from . import chow
from schubres import bundles, chow
import schubres.chow as grass
from .bundles import BundleClass
from .symfunc import exact_int
from math import comb
import schubres.symfunc
"""
    assert import_breaches(source, {"chow"}) == [
        "line 2: imports chow",
        "line 3: imports chow",
        "line 4: imports chow",
        "line 5: imports chow",
        "line 6: imports chow",
    ]


@pytest.mark.parametrize("carrier", [GradedPoly, StructElement])
@pytest.mark.parametrize("member", STORAGE_MEMBERS)
def test_carriers_share_the_base_implementation(carrier, member) -> None:
    # By identity along the MRO: the benchmark tracer rebinds and restores
    # GradedPoly.degree_part, which leaves the base's own function in place.
    assert inspect.getattr_static(carrier, member) is inspect.getattr_static(
        ClassCarrier, member
    )


def test_constant_carriers_hash_as_the_int_they_equal() -> None:
    spec, ring = GeneratorSpec(("x",), (1,), 3), projective_space(2)
    for make, generator in (
        (lambda c: GradedPoly.constant(spec, c), GradedPoly.generator(spec, "x")),
        (lambda c: ring.one().scaled(c), ring.parse("h")),
    ):
        for c in (0, 3, -1, 2**70):
            constant = make(c)
            assert constant == c and hash(constant) == hash(c)
            assert len({c, constant}) == 1 and {c: "int"}[constant] == "int"
        moved = generator + 3
        assert moved != 3 and hash(moved) == hash(generator + 3)
        assert len({moved, generator + 3, generator, 3}) == 3
