"""The benchmark's layer tracer must still find what it traces.

``perfbench/layertrace.py`` wraps library functions from outside ``src/`` by
name.  A span whose every binding is gone silently drops its metrics from a
traced benchmark run, so deleting or renaming a traced function is caught
here, before the benchmark runs.  So is a caller that holds a function
object the tracer cannot rebind, which leaves the span present but at zero
calls.  The tracer module is imported and read; the last two tests install
it, around a few products and around ``decompose`` commands, and uninstall it.
"""

from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path

import pytest

from schubres import bundles, cli, kernel
from schubres.symfunc import GeneratorSpec, parse_poly

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _live(layertrace, owner_path: str, attr: str) -> bool:
    # The same lookup Tracer.install makes before it replaces a binding.
    owner = layertrace._owner(owner_path)
    if owner is None:
        return False
    try:
        inspect.getattr_static(owner, attr)
    except AttributeError:
        return False
    return True


def test_every_traced_span_has_a_live_binding() -> None:
    layertrace = _load_layertrace()
    absent = [
        span
        for span, bindings in layertrace.SPANS.items()
        if not any(_live(layertrace, owner, attr) for owner, attr in bindings)
    ]
    assert absent == []


def test_sym_ustar_keeps_its_cache_counters() -> None:
    # The benchmark reports sym_ustar hits and misses from these two.
    assert callable(getattr(bundles.sym_ustar, "cache_info", None))
    assert callable(getattr(bundles.sym_ustar, "cache_clear", None))


def test_the_spans_the_tables_report_stay_traced() -> None:
    # A traced degeneration_tables run reports these; a missing one makes
    # its result line malformed.
    layertrace = _load_layertrace()
    for span in (
        "kernel.mul_terms",
        "symfunc.roots_to_e",
        "symfunc.series_inverse",
        "residual.regular_decompose",
        "bundles.sym_power",
        "symfunc.substitute",
    ):
        bindings = layertrace.SPANS[span]
        assert any(_live(layertrace, owner, attr) for owner, attr in bindings), span


def test_mul_terms_called_positionally_returns_a_dict() -> None:
    # The tracer's wrapper passes (a, b, limit) through and reads len(a),
    # len(b) and len(result).
    spec = GeneratorSpec(("x",), (1,), 3)
    x, one = spec.pack((1,)), spec.pack((0,))
    out = kernel.mul_terms({x: 2, one: 1}, {x: 3}, spec.key_limit)
    assert isinstance(out, dict)
    assert out == {spec.pack((2,)): 6, x: 3}


def test_tracer_counts_accumulated_products() -> None:
    layertrace = _load_layertrace()
    tracer = layertrace.Tracer()
    spec = GeneratorSpec(("x", "y"), (1, 2), 4)
    a, b = parse_poly(spec, "1 + x + y"), parse_poly(spec, "x - y")
    tracer.install()
    try:
        product = a * b
        total = a.add_products([(2, a, b), (-1, b, b)])
    finally:
        tracer.uninstall()
    assert product == parse_poly(spec, "x - y + x^2 - y^2")
    assert total == a + 2 * product - b * b
    assert tracer.stats["kernel.mul_terms"][0] == 3
    assert tracer.mul["pairs"] == 3 * 2 + 3 * 2 + 2 * 2
    # Every carrier product adds into a dict and reports that dict's size,
    # cancelled keys included: x, y, x^2, x*y and y^2 for a * b, then 1, x, y,
    # x^2, x*y and y^2 after each product of add_products.
    assert tracer.mul["terms_out"] == 5 + 6 + 6


@pytest.mark.parametrize(
    "fixture, span",
    [
        ("double_line_split_single", "residual.divisor_decompose"),
        ("double_line_symmetric", "residual.symmetric_decompose"),
    ],
)
def test_decompose_command_runs_through_its_traced_span(fixture, span, capsys) -> None:
    # A traced cli_small round reads these spans' inclusive time; the command
    # must reach the decomposition through the binding the tracer replaces.
    layertrace = _load_layertrace()
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        status = cli.main(["decompose", fixture, "--format", "json"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert status == 0
    assert tracer.stats[span][0] == 1
    assert tracer.stats["cli.main"][0] == 1
