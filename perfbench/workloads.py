"""The benchmark's workloads: inputs made from a seed, one operation each, and
the exact answer every operation must reproduce.

A workload is a list of operations, called a round.  The seed permutes the
operations of a round and, for degenerations, swaps the order of the two
pieces; it never changes the amount of work.  The engine only ever receives
the inputs built here.

Golden values come from the package's own frozen tables where it has them
(``schubres.cli.QUINTIC_CASES``, ``QUARTIC_CASES`` and the fixture table in
``cli._check_fixtures``); the classical counts below are the published ones.
"""

from __future__ import annotations

import ast
import contextlib
import inspect
import io
import json
import os
import random
import subprocess
import sys
import textwrap
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

FANO_G38_CUBIC = 321_489
LINES_ON_CUBIC_SURFACE = 27
LINES_ON_QUINTIC_THREEFOLD = 2875

CLI_TIMEOUT_S = 60


@dataclass
class Op:
    """One operation: ``run`` is the timed engine call and ``check`` returns
    ``None`` when its result is right, or a description of what is wrong."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def _wrong(value: int, wrong_golden: bool) -> int:
    # The smoke test asks for one deliberately wrong expected value, to prove
    # that a mismatch is counted as a failed operation.
    return value + 1 if wrong_golden else value


def _table_goldens(table) -> tuple[int, dict, int]:
    """Total degree, expected triples by piece pair, and ambient degree of a
    frozen degeneration table."""
    degree = sum(k * e for k, e in table[0][0])
    ambients = {sum(triple[2] for triple in triples) for _, triples in table}
    if len(ambients) != 1:
        raise ValueError(f"frozen table disagrees on the ambient degree: {ambients}")
    return degree, dict(table), ambients.pop()


def _expected(golden: dict, pieces) -> tuple | None:
    """The frozen triples of ``pieces`` in their given order, whichever order
    the table lists them in; swapping the pieces swaps the triples."""
    if pieces in golden:
        return golden[pieces]
    swapped = golden.get(pieces[::-1])
    return swapped[::-1] if swapped is not None else None


def _uncovered(golden: dict, cases) -> list:
    covered = {frozenset(pieces) for pieces in cases}
    return [pieces for pieces in golden if frozenset(pieces) not in covered]


def degeneration_tables(seed: int, wrong_golden: bool = False) -> list[Op]:
    """Every two-piece degeneration of the quintic threefold on G(1,4) and of
    the quartic fivefold on G(2,7), as one operation."""
    from schubres import cli, limits
    from schubres.chow import GrassContext

    rng = random.Random(seed)
    cases = []
    uncovered = []
    for context, table in (
        (cli.QUINTIC_CONTEXT, cli.QUINTIC_CASES),
        (cli.QUARTIC_CONTEXT, cli.QUARTIC_CASES),
    ):
        ctx = GrassContext(*context)
        degree, golden, ambient = _table_goldens(table)
        ambient = _wrong(ambient, wrong_golden)
        enumerated = limits.enumerate_degenerations(degree)
        uncovered += _uncovered(golden, enumerated)
        for pieces in enumerated:
            if rng.random() < 0.5:
                pieces = pieces[::-1]
            expected = _expected(golden, pieces)
            cases.append((limits.DegenerationSpec(ctx, pieces), expected, ambient))
    rng.shuffle(cases)

    def run():
        return [limits.decompose_degeneration(spec) for spec, _, _ in cases]

    def check(reports) -> str | None:
        if uncovered:
            return f"frozen cases not enumerated: {uncovered}"
        for (spec, expected, ambient), report in zip(cases, reports):
            got = tuple(
                (piece.main_degree, piece.adjunct_degree, piece.total_degree)
                for piece in report.pieces
            )
            if not report.conserved:
                return f"{spec}: not conserved"
            if report.ambient_degree != ambient:
                return f"{spec}: ambient {report.ambient_degree}, want {ambient}"
            if expected is not None and got != expected:
                return f"{spec}: got {got}, want {expected}"
        return None

    return [Op("tables", run, check)]


def fano_g38_cubic(seed: int, wrong_golden: bool = False) -> list[Op]:
    """The count of 3-planes on a general cubic in P^8, from a cold cache."""
    from schubres import limits
    from schubres.chow import GrassContext

    ctx = GrassContext(3, 8)
    expected = _wrong(FANO_G38_CUBIC, wrong_golden)

    def run():
        return limits.fano_degree(ctx, 3)

    def check(count) -> str | None:
        return None if count == expected else f"got {count}, want {expected}"

    return [Op("fano-g38-d3", run, check)]


def identity_grid(seed: int, wrong_golden: bool = False) -> list[Op]:
    """The conservation identity for every k + l <= D, as one operation."""
    from schubres import identities
    from schubres.chow import GrassContext

    grids = (((1, 4), 6), ((2, 5), 5), ((2, 6), 5), ((2, 7), 5))
    cases = [
        (GrassContext(*context), k, l)
        for context, bound in grids
        for k in range(1, bound)
        for l in range(1, bound - k + 1)
    ]
    random.Random(seed).shuffle(cases)
    # A residual is expected to vanish; the wrong golden expects one not to.
    expected_zero = [not (wrong_golden and i == 0) for i in range(len(cases))]

    def run():
        return [identities.verify_identity(ctx, k, l).is_zero for ctx, k, l in cases]

    def check(zeros) -> str | None:
        for (ctx, k, l), is_zero, want in zip(cases, zeros, expected_zero):
            if is_zero != want:
                return f"G({ctx.r},{ctx.n}) k={k} l={l}: residual zero is {is_zero}"
        return None

    return [Op("grid", run, check)]


def fixture_goldens() -> dict[str, tuple[tuple[int, int, int], ...]]:
    """The fixture degrees frozen in ``schubres.cli._check_fixtures``.

    They live in a local ``expected`` table of that function, so they are read
    from its source rather than copied here.
    """
    from schubres import cli

    tree = ast.parse(textwrap.dedent(inspect.getsource(cli._check_fixtures)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "expected"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError("cli._check_fixtures has no 'expected' table")


def _cli_count(text: str) -> int:
    for line in text.splitlines():
        if line.startswith("count:"):
            return int(line.split(":", 1)[1].strip().replace(",", ""))
    raise ValueError("no 'count:' line in the output")


def _check_fano_table(expected: int):
    def check(text: str) -> str | None:
        count = _cli_count(text)
        return None if count == expected else f"count {count}, want {expected}"

    return check


def _check_fano_json(expected: int):
    def check(text: str) -> str | None:
        count = json.loads(text)["count"]
        return None if count == expected else f"count {count}, want {expected}"

    return check


def _check_degenerate_json(golden: dict, ambient: int):
    def check(text: str) -> str | None:
        cases = json.loads(text)["cases"]
        seen = []
        for case in cases:
            pieces = tuple((p["k"], p["e"]) for p in case["pieces"])
            seen.append(pieces)
            expected = _expected(golden, pieces)
            got = tuple(
                (p["main_degree"], p["adjunct_degree"], p["total_degree"])
                for p in case["pieces"]
            )
            if case["conserved"] is not True:
                return f"{pieces}: not conserved"
            if case["ambient"]["degree"] != ambient:
                return f"{pieces}: ambient {case['ambient']['degree']}, want {ambient}"
            if expected is not None and got != expected:
                return f"{pieces}: got {got}, want {expected}"
        missing = _uncovered(golden, seen)
        return f"frozen cases missing from the output: {missing}" if missing else None

    return check


def _check_verify_table(text: str) -> str | None:
    lines = text.splitlines()
    cases = [line for line in lines if line.startswith("k=")]
    bad = [line for line in cases if not line.endswith(": ok")]
    if not cases or bad:
        return f"failing cases: {bad or 'none listed'}"
    summary = f"{len(cases)} of {len(cases)} cases ok"
    return None if lines[-1] == summary else f"summary {lines[-1]!r}, want {summary!r}"


def _check_decompose_json(expected: tuple[tuple[int, int, int], ...]):
    def check(text: str) -> str | None:
        payload = json.loads(text)
        got = tuple(
            (c["main_degree"], c["adjunct_degree"], c["total_degree"])
            for c in payload["components"]
        )
        if got != expected:
            return f"degrees {got}, want {expected}"
        if payload["conserved"] is not True or payload["undecomposed_ok"] is False:
            return "not conserved"
        ambient = sum(triple[2] for triple in expected)
        if payload["ambient"]["degree"] != ambient:
            return f"ambient {payload['ambient']['degree']}, want {ambient}"
        return None

    return check


def cli_commands(wrong_golden: bool = False) -> list[tuple[list[str], Callable]]:
    """The fixed list of CLI calls and the check of each one's output."""
    from schubres import cli

    degree, golden, ambient = _table_goldens(cli.QUINTIC_CASES)
    r, n = cli.QUINTIC_CONTEXT
    commands = [
        (["fano", "-r", "1", "-n", "3", "-d", "3"],
         _check_fano_table(_wrong(LINES_ON_CUBIC_SURFACE, wrong_golden))),
        (["fano", "-r", "1", "-n", "4", "-d", "5", "--format", "json"],
         _check_fano_json(LINES_ON_QUINTIC_THREEFOLD)),
        (["degenerate", "-r", str(r), "-n", str(n), "--all", "-d", str(degree),
          "--format", "json"],
         _check_degenerate_json(golden, ambient)),
        (["verify", "-r", "2", "-n", "5"], _check_verify_table),
    ]
    for stem, degrees in fixture_goldens().items():
        commands.append(
            (["decompose", stem, "--format", "json"], _check_decompose_json(degrees))
        )
    return commands


def _cli_check(check: Callable[[str], str | None]):
    def checked(result: tuple[int, str]) -> str | None:
        code, text = result
        if code != 0:
            return f"exit status {code}"
        return check(text)

    return checked


def cli_small(
    seed: int, wrong_golden: bool = False, in_process: bool = False
) -> list[Op]:
    """One ``python -m schubres`` call per operation, over a fixed list.

    With ``in_process`` each call is ``cli.main(argv)`` in this process
    instead, so that the traced run can see into the engine's layers.
    """
    from schubres import cli

    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    commands = cli_commands(wrong_golden)
    random.Random(seed).shuffle(commands)

    def subprocess_run(argv):
        def run():
            done = subprocess.run(
                [sys.executable, "-m", "schubres", *argv],
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                env=env,
                text=True,
                timeout=CLI_TIMEOUT_S,
            )
            return done.returncode, done.stdout

        return run

    def in_process_run(argv):
        def run():
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(argv)
            return code, buffer.getvalue()

        return run

    make = in_process_run if in_process else subprocess_run
    return [Op(" ".join(argv), make(argv), _cli_check(check)) for argv, check in commands]


# Workloads whose operations run in child processes; their peak RSS is the
# children's.
SUBPROCESS_WORKLOADS = {"cli_small"}

WORKLOADS = {
    "degeneration_tables": degeneration_tables,
    "fano_g38_cubic": fano_g38_cubic,
    "identity_grid": identity_grid,
    "cli_small": cli_small,
}


def build(name: str, seed: int, wrong_golden: bool = False, traced: bool = False) -> list[Op]:
    """The round of operations of workload ``name`` for ``seed``."""
    if name == "cli_small":
        return cli_small(seed, wrong_golden, in_process=traced)
    return WORKLOADS[name](seed, wrong_golden)
