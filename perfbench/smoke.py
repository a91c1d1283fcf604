#!/usr/bin/env python3
"""The benchmark's own smoke test.

For every workload in ``workloads.py``, listed in ``BENCHMARK.json`` or
not, it runs one round untraced and two traced rounds under two
seeds, and checks that:

* every end-to-end and per-layer metric named in ``BENCHMARK.json`` appears,
  each with its unit;
* every operation is correct, and the counts of the two traced runs agree
  exactly;
* a deliberately wrong expected value is counted as a failed operation.

It prints every metric by name and unit per workload and exits nonzero on the
first failed check.  Run it from the root of the repository:

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Units of per-layer metrics that are counts of work, which must repeat.
COUNT_UNITS = {"count"}


def run(workload: str, seed: int, trace: int, *extra: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), *extra],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT,
        timeout=300,
    )
    if done.returncode != 0:
        raise AssertionError(f"{workload}: run.py exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def check_metrics(workload: str, result: dict, declared: list[dict]) -> None:
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        assert got is not None, f"{workload}: metric {metric['name']} missing"
        assert got["unit"] == metric["unit"], (
            f"{workload}: {metric['name']} in {got['unit']}, declared {metric['unit']}"
        )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in workloads.WORKLOADS:
        plain = run(workload, 1, 0)
        assert plain["correct"] and plain["failed"] == 0, f"{workload}: {plain}"
        check_metrics(workload, plain, spec["end_to_end"])

        traced = [run(workload, seed, 1) for seed in (1, 2)]
        for result in traced:
            assert result["correct"], f"{workload}: traced run failed"
            check_metrics(workload, result, spec["per_layer"])
        counts = [
            {name: m["value"] for name, m in result["metrics"].items()
             if m["unit"] in COUNT_UNITS}
            for result in traced
        ]
        assert counts[0] == counts[1], f"{workload}: traced counts differ"

        wrong = run(workload, 1, 0, "--wrong-golden")
        assert not wrong["correct"] and wrong["failed"] >= 1, (
            f"{workload}: a wrong expected value was not counted as a failure"
        )

        for name, metric in {**plain["metrics"], **traced[0]["metrics"]}.items():
            print(f"{workload:20s} {name:40s} {metric['value']:14.6g} {metric['unit']}")
        print(f"{workload}: ok ({plain['attempted']} ops, wrong golden -> "
              f"{wrong['failed']} of {wrong['attempted']} failed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
