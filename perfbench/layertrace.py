"""Spans around the calls into each layer of schubres, recorded from outside.

``Tracer.install`` replaces each traced function at every binding its callers
look up (a module global, a class attribute or a property) with a wrapper that
records a span; ``uninstall`` puts the originals back.  Nothing under ``src/``
is edited.  A binding that no longer exists is skipped, and a span none of
whose bindings exist is reported as absent.

Counts and times accumulate over every traced round.  The spans themselves
(id, parent id, name, start and end in ns) are kept in memory for the first
traced round only, which bounds memory, and are written out when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

# Span name -> the bindings callers actually look up, as (owner, attribute).
# An owner is a schubres module, or a module and a class joined by a dot.
SPANS: dict[str, tuple[tuple[str, str], ...]] = {
    "kernel.mul_terms": (("kernel", "mul_terms"),),
    "symfunc.roots_to_e": (("bundles", "roots_to_e"), ("symfunc", "roots_to_e")),
    "symfunc.series_inverse": (("symfunc", "series_inverse"),),
    "symfunc.substitute": (
        ("bundles", "substitute"), ("chow", "substitute"), ("symfunc", "substitute"),
    ),
    "symfunc.GradedPoly.degree_part": (("symfunc.GradedPoly", "degree_part"),),
    "bundles.sym_power": (("bundles", "sym_power"),),
    "chow.dual_pieri_multiply": (("chow", "dual_pieri_multiply"),),
    "chow.to_schubert": (("chow", "to_schubert"),),
    "chow.integrate": (
        ("chow", "integrate"), ("limits", "integrate"), ("residual", "grass_integrate"),
    ),
    "chow.GrassContext.spec": (("chow.GrassContext", "spec"),),
    "residual.regular_decompose": (
        ("residual", "regular_decompose"), ("limits", "regular_decompose"),
    ),
    "residual.divisor_decompose": (
        ("residual", "divisor_decompose"), ("cli", "divisor_decompose"),
    ),
    "residual.symmetric_decompose": (
        ("residual", "symmetric_decompose"), ("cli", "symmetric_decompose"),
    ),
    "limits.decompose_degeneration": (
        ("limits", "decompose_degeneration"), ("cli", "decompose_degeneration"),
    ),
    "limits.fano_degree": (("limits", "fano_degree"), ("cli", "fano_degree")),
    "identities.bracket_sum": (("identities", "bracket_sum"),),
    "cli.main": (("cli", "main"),),
}

MUL_SPAN = "kernel.mul_terms"


def _owner(path: str):
    module_name, _, class_name = path.partition(".")
    try:
        owner = importlib.import_module(f"schubres.{module_name}")
    except ImportError:
        return None
    return getattr(owner, class_name, None) if class_name else owner


class Tracer:
    def __init__(self) -> None:
        # name -> [calls, inclusive ns, self ns]
        self.stats: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.mul = {"pairs": 0, "terms_out": 0, "max_terms": 0}
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.keep_spans = True
        self.present: set[str] = set()
        self._stack: list[list[int]] = []  # [span id, child ns] per open span
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [span_id, 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            stat = self.stats[name]
            stat[0] += 1
            stat[1] += duration
            stat[2] += duration - frame[1]
            if self.keep_spans:
                self.spans.append((span_id, parent, name, start, end))

    def _wrap(self, name: str, fn):
        if name == MUL_SPAN:
            mul = self.mul

            def wrapper(a, b, *args, **kwargs):
                out = self.span(name, fn, a, b, *args, **kwargs)
                mul["pairs"] += len(a) * len(b)
                mul["terms_out"] += len(out)
                mul["max_terms"] = max(mul["max_terms"], len(a), len(b), len(out))
                return out

            return wrapper

        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        for name, bindings in SPANS.items():
            wrappers: dict[int, object] = {}
            for owner_path, attr in bindings:
                owner = _owner(owner_path)
                if owner is None:
                    continue
                try:
                    original = inspect.getattr_static(owner, attr)
                except AttributeError:
                    continue
                if isinstance(original, property):
                    replacement = property(self._wrap(name, original.fget))
                else:
                    # One wrapper per function, shared by all its bindings.
                    key = id(original)
                    if key not in wrappers:
                        wrappers[key] = self._wrap(name, original)
                    replacement = wrappers[key]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, replacement)
                self.present.add(name)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# Per-layer metrics read from span statistics: span -> fields reported.
SPAN_METRICS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("kernel.mul_terms", ("calls", "self_s")),
    ("symfunc.roots_to_e", ("calls", "self_s")),
    ("symfunc.series_inverse", ("calls", "self_s")),
    ("symfunc.substitute", ("self_s",)),
    ("symfunc.GradedPoly.degree_part", ("calls", "self_s")),
    ("bundles.sym_power", ("calls", "incl_s")),
    ("chow.dual_pieri_multiply", ("calls", "self_s")),
    ("chow.to_schubert", ("calls", "self_s")),
    ("chow.integrate", ("calls", "incl_s")),
    ("chow.GrassContext.spec", ("calls",)),
    ("residual.regular_decompose", ("calls", "self_s")),
    ("residual.divisor_decompose", ("incl_s",)),
    ("residual.symmetric_decompose", ("incl_s",)),
    ("limits.decompose_degeneration", ("calls", "incl_s")),
    ("limits.fano_degree", ("incl_s",)),
    ("identities.bracket_sum", ("calls", "self_s")),
    ("cli.main", ("incl_s",)),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, rounds: int, cache: dict[str, int] | None) -> dict:
    """Per-layer metrics per traced round, as ``{name: (value, unit)}``.

    ``cache`` holds the summed ``sym_ustar`` hit and miss deltas, or is None
    when the cache no longer exists.  Metrics of absent spans are left out.
    """
    out: dict[str, tuple[float, str]] = {}
    for span, fields in SPAN_METRICS:
        if span not in tracer.present:
            continue
        calls, incl_ns, self_ns = tracer.stats[span]
        values = {
            "calls": (calls / rounds, "count"),
            "self_s": (self_ns / 1e9 / rounds, "s"),
            "incl_s": (incl_ns / 1e9 / rounds, "s"),
        }
        for field in fields:
            out[f"{span}.{field}"] = values[field]
    if MUL_SPAN in tracer.present:
        mul = tracer.mul
        out[f"{MUL_SPAN}.pairs"] = (mul["pairs"] / rounds, "count")
        out[f"{MUL_SPAN}.terms_out"] = (mul["terms_out"] / rounds, "count")
        out[f"{MUL_SPAN}.useful_ratio"] = (_ratio(mul["terms_out"], mul["pairs"]), "ratio")
        out[f"{MUL_SPAN}.max_terms"] = (mul["max_terms"], "count")
    if cache is not None:
        hits, misses = cache["hits"], cache["misses"]
        out["bundles.sym_ustar.hits"] = (hits / rounds, "count")
        out["bundles.sym_ustar.misses"] = (misses / rounds, "count")
        out["bundles.sym_ustar.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    return out
