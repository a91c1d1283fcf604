"""The benchmark's layer tracer must still find what it traces.

``perfbench/layertrace.py`` wraps library functions from outside ``src/`` by
name.  A span whose every binding is gone silently drops its metrics from a
traced benchmark run, so deleting or renaming a traced function is caught
here, before the benchmark runs.  The tracer module is imported and read
only; nothing is installed.
"""

from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path

from schubres import bundles

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
