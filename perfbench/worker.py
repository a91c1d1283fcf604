"""One fresh benchmark worker process: import schubres, build a workload's
inputs, then run its operations in a closed loop.

The worker prints ``ready <monotonic ns>`` as soon as the first operation can
start, so that the parent can time set-up from its own spawn, and at the end
one JSON line with the raw samples.  ``--setup-only`` exits after ``ready``.

Run it through ``run.py``; it is not meant to be called by hand.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a host-speed diagnostic only,
    never used to rescale a metric."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def _backend_name() -> str:
    from schubres import kernel

    backend_name = getattr(kernel, "backend_name", None)
    return backend_name() if callable(backend_name) else "absent"


def _cache_clear():
    from schubres import bundles

    return getattr(bundles.sym_ustar, "cache_clear", lambda: None)


def _cache_info():
    from schubres import bundles

    return getattr(bundles.sym_ustar, "cache_info", None)


def _run_op(op, run=None) -> tuple[float, str | None]:
    start = time.perf_counter()
    try:
        result = (run or op.run)()
    except Exception as exc:  # noqa: BLE001 - a failed operation, not a crash
        return time.perf_counter() - start, f"{op.label}: {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    try:
        problem = op.check(result)
    except Exception as exc:  # noqa: BLE001 - unreadable output is a wrong answer
        problem = f"{type(exc).__name__}: {exc}"
    return elapsed, f"{op.label}: {problem}" if problem else None


class Loop:
    """Closed loop, one operation at a time, with cold caches before each."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.clear = _cache_clear()
        self.attempted = 0
        self.failures: list[str] = []

    def round(self, call=None) -> list[float]:
        times = []
        for op in self.ops:
            self.clear()
            gc.collect()
            elapsed, problem = _run_op(op) if call is None else call(op)
            times.append(elapsed)
            self.attempted += 1
            if problem:
                self.failures.append(problem)
        return times


def run_untraced(ops, seconds: float) -> dict:
    loop = Loop(ops)
    times: list[float] = []
    start = time.perf_counter()
    while True:
        times += loop.round()
        if time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    return {
        "times": times,
        "elapsed_s": elapsed,
        "attempted": loop.attempted,
        "failures": loop.failures,
    }


def run_traced(ops, seconds: float, spans_out: Path) -> dict:
    """Alternate traced and untraced rounds; the difference of their medians
    is the tracing overhead."""
    from layertrace import SPANS, Tracer, layer_metrics

    tracer = Tracer()
    loop = Loop(ops)
    info = _cache_info()
    cache = {"hits": 0, "misses": 0} if info is not None else None

    def traced_op(op):
        before = info() if info is not None else None
        result = _run_op(op, lambda: tracer.span("op", op.run))
        if before is not None:
            after = info()
            cache["hits"] += after.hits - before.hits
            cache["misses"] += after.misses - before.misses
        return result

    def counts() -> dict:
        snapshot = {name: stat[0] for name, stat in tracer.stats.items()}
        snapshot.update(pairs=tracer.mul["pairs"], terms_out=tracer.mul["terms_out"])
        if cache is not None:
            snapshot.update(cache)
        return snapshot

    traced_s: list[float] = []
    untraced_s: list[float] = []
    round_counts: list[tuple] = []
    previous = counts()
    start = time.perf_counter()
    index = 0
    while True:
        if index % 2 == 0:
            tracer.install()
            try:
                traced_s.append(sum(loop.round(traced_op)))
            finally:
                tracer.uninstall()
            tracer.keep_spans = False
            current = counts()
            round_counts.append(
                tuple(sorted((k, v - previous.get(k, 0)) for k, v in current.items()))
            )
            previous = current
        else:
            untraced_s.append(sum(loop.round()))
        index += 1
        if index >= 2 and time.perf_counter() - start >= seconds:
            break

    spans_out.parent.mkdir(parents=True, exist_ok=True)
    spans_out.write_text(
        json.dumps({"fields": ["id", "parent", "name", "start_ns", "end_ns"],
                    "spans": tracer.spans}) + "\n",
        encoding="utf-8",
    )
    layers = layer_metrics(tracer, len(traced_s), cache)
    return {
        "traced_round_s": traced_s,
        "untraced_round_s": untraced_s,
        "layers": layers,
        "absent": sorted(set(SPANS) - tracer.present),
        "counts_repeat": len(set(round_counts)) <= 1,
        "self_s_by_span": {
            name: stat[2] / 1e9 / len(traced_s) for name, stat in tracer.stats.items()
        },
        "attempted": loop.attempted,
        "failures": loop.failures,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--wrong-golden", action="store_true")
    parser.add_argument("--spans-out", type=Path)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    ops = workloads.build(args.workload, args.seed, args.wrong_golden, bool(args.trace))
    print(f"ready {time.monotonic_ns()}", flush=True)
    if args.setup_only:
        return 0

    calibration = [calibrate()]
    if args.trace:
        result = run_traced(ops, args.seconds, args.spans_out)
    else:
        result = run_untraced(ops, args.seconds)
    calibration.append(calibrate())
    who = (
        resource.RUSAGE_CHILDREN
        if args.workload in workloads.SUBPROCESS_WORKLOADS and not args.trace
        else resource.RUSAGE_SELF
    )
    result.update(
        peak_rss_mib=resource.getrusage(who).ru_maxrss / 1024,
        calibration_s=calibration,
        kernel_backend=_backend_name(),
        SCHUBRES_THREADS=os.environ.get("SCHUBRES_THREADS"),
        SCHUBRES_PURE=os.environ.get("SCHUBRES_PURE"),
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
