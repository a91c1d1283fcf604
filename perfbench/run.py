#!/usr/bin/env python3
"""The schubres benchmark: one workload, one client, one operation at a time.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload degeneration_tables --seed 1 --seconds 55 --trace 0

The workloads are defined in ``workloads.py`` and listed with their reasons in
``BENCHMARK.json``.  Every operation is checked against the exact frozen
answers; a wrong integer, a non-conserving report, an exception or a nonzero
CLI exit counts as a failed operation.

``--trace 0`` measures the end-to-end metrics with tracing off.  Set-up time
and peak RSS come from fresh worker processes (``worker.py``).  The result
carries the end-to-end metrics that ``BENCHMARK.json`` gates; the others
(``op_p50_s``, ``ops_per_s``) are printed and recorded too.  ``--trace 1``
is a separate run that alternates traced and untraced rounds and reports the
per-layer metrics from ``layertrace.py`` plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A human-readable
summary goes to standard error, and the full record of the run (environment,
calibration, samples, failures) to ``perfbench/out/``.  The engine runs from
``src/`` of this checkout; nothing is installed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Fresh set-up-only workers timed before and after the measuring worker, to
# spread the set-up samples over the run.
SETUP_SAMPLES_EACH_SIDE = 5
# Fresh processes timed for the interpreter and import probes.
PROBE_SAMPLES = 5
WORKER_GRACE_S = 120


class BenchmarkError(Exception):
    """The harness could not produce a result."""


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without leaving the root."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker_env() -> dict[str, str]:
    # One engine computation at a time: the CLI's thread pool stays off.
    return {**os.environ, "SCHUBRES_THREADS": "1"}


def run_worker(args: argparse.Namespace, *extra: str) -> tuple[float, list[str]]:
    """Start a fresh worker; return its set-up time and its output lines."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    if args.wrong_golden:
        cmd.append("--wrong-golden")
    started = time.monotonic_ns()
    with subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT
    ) as proc:
        try:
            out, _ = proc.communicate(timeout=args.seconds + WORKER_GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchmarkError(f"worker timed out: {' '.join(cmd)}") from None
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise BenchmarkError(f"worker exited with status {proc.returncode}: {' '.join(cmd)}")
    return (int(lines[0].split()[1]) - started) / 1e9, lines[1:]


def probe(code: str) -> list[float]:
    """Wall time of ``python -c code`` in fresh processes, or the float the
    code prints when it prints one."""
    env = {**worker_env(), "PYTHONPATH": str(ROOT / "src")}
    samples = []
    for _ in range(PROBE_SAMPLES):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
            env=env, cwd=ROOT, timeout=60,
        )
        wall = time.perf_counter() - start
        if done.returncode != 0:
            raise BenchmarkError(f"probe failed: {code}")
        samples.append(float(done.stdout) if done.stdout.strip() else wall)
    return samples


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it: value,
    percentile and number of samples beyond.  With ten samples or fewer it
    is the largest sample."""
    ordered = sorted(times)
    index = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[index], 100 * (index + 1) / len(ordered), len(ordered) - 1 - index


def end_to_end(args: argparse.Namespace, record: dict) -> dict:
    setups = [run_worker(args, "--setup-only")[0] for _ in range(SETUP_SAMPLES_EACH_SIDE)]
    ready_s, lines = run_worker(args)
    setups.append(ready_s)
    setups += [run_worker(args, "--setup-only")[0] for _ in range(SETUP_SAMPLES_EACH_SIDE)]
    result = json.loads(lines[-1])
    times = result.pop("times")
    value, percentile, beyond = tail(times)
    correct_ops = result["attempted"] - len(result["failures"])
    record.update(result, setup_samples_s=setups, op_times_s=times,
                  op_tail_percentile=percentile, op_tail_beyond=beyond)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (value, "s"),
        "ops_per_s": (correct_ops / result["elapsed_s"], "1/s"),
        "peak_rss_mib": (result["peak_rss_mib"], "MiB"),
    }


def per_layer(args: argparse.Namespace, record: dict) -> dict:
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    _, lines = run_worker(args, "--spans-out", str(spans))
    result = json.loads(lines[-1])
    metrics = {name: tuple(pair) for name, pair in result.pop("layers").items()}
    traced = statistics.median(result["traced_round_s"])
    untraced = statistics.median(result["untraced_round_s"])
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.overhead_ratio"] = ((traced - untraced) / untraced, "ratio")
    metrics["cli.interpreter_s"] = (statistics.median(probe("pass")), "s")
    metrics["cli.import_s"] = (statistics.median(probe(
        "import time; t = time.perf_counter(); import schubres; "
        "print(time.perf_counter() - t)"
    )), "s")
    round_s = statistics.fmean(result["traced_round_s"])
    record.update(result, spans_file=str(spans.relative_to(ROOT)), self_share={
        name: self_s / round_s
        for name, self_s in sorted(result["self_s_by_span"].items(), key=lambda kv: -kv[1])
    })
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="measure for this long; 0 runs a single round")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--wrong-golden", action="store_true",
                        help="expect one deliberately wrong answer (harness self-test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "schubres" / "__init__.py").is_file():
        print(f"error: no schubres sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "commit": git_commit(), "nproc": os.cpu_count(),
    }
    try:
        metrics = (per_layer if args.trace else end_to_end)(args, record)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = record["failures"]
    record["metrics"] = metrics
    gated = metrics
    if not args.trace:
        declared = {m["name"] for m in json.loads(
            (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]}
        gated = {name: pair for name, pair in metrics.items() if name in declared}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    for name, (value, unit) in metrics.items():
        note = "" if name in gated else "  (not gated)"
        print(f"{args.workload:20s} {name:40s} {value:14.6g} {unit}{note}", file=sys.stderr)
    if "op_tail_s" in metrics:
        print(f"{args.workload:20s} op_tail_s is p{record['op_tail_percentile']:.1f} of "
              f"{len(record['op_times_s'])} ops ({record['op_tail_beyond']} beyond)",
              file=sys.stderr)
    for name, share in list(record.get("self_share", {}).items())[:6]:
        print(f"{args.workload:20s} self time share {name:30s} {share:6.1%}", file=sys.stderr)
    for problem in failures[:5]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": record["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in gated.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
