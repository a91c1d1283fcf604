#!/usr/bin/env python3
"""Mutation check: every listed one-line mutant of the package must fail a test.

Usage, from the root of the repository:

    python3 tools/mutants.py

For each mutant, ``src``, ``tests`` and the files the tests read
(``perfbench``, ``README.md``, ``pyproject.toml``) are copied into a fresh
temporary directory.  There the one line of ``src/schubres/<file>`` that
contains ``old`` has it replaced by ``new``, and ``python -m pytest -x -q``
runs.  A mutant is caught when the tests fail.  The unmutated copy runs
first and must pass, so that a broken tree does not count as a catch.

One line is printed per mutant, then a summary.  The exit status is 0 when
every mutant was caught, 1 when one survived, and 2 when the unmutated tests
fail or a mutant's ``old`` text is not on exactly one line of its file (the
list below must then be updated along with the code).  A check added to the
package should add the mutant it catches here.  The script is not part of
the test suite; it takes about a minute on two cores.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "README.md", "pyproject.toml")

# (what the mutant breaks, file under src/schubres, old text, new text)
MUTANTS: tuple[tuple[str, str, str, str], ...] = (
    ("adjunct weight C(d-1-i, j) -> C(d-i, j)", "residual.py",
     "(comb(d - 1 - i, j), *factors(j, d - i - j))", "(comb(d - i, j), *factors(j, d - i - j))"),
    ("twist power m^i -> m^(i+1)", "bundles.py",
     "E.segre(i).scaled(m**i)", "E.segre(i).scaled(m ** (i + 1))"),
    ("Bott remainder check removed", "chow.py", "    if rest:", "    if False:"),
    ("binomial of identities.bracket_sum", "identities.py",
     "-_binomial(rank_ambient - 1 - i, j)", "-_binomial(rank_ambient - i, j)"),
    ("split shared on equal rank, not identity", "residual.py",
     "shared = N1 is N2 and z1 is z2", "shared = N1.rank == N2.rank and z1 == z2"),
    ("adjunct span >= 0 -> span > 0", "residual.py", "    if span >= 0:", "    if span > 0:"),
    ("Pieri strip allowed one column past the box", "chow.py",
     "if grown[0] > cols:", "if grown[0] > cols + 1:"),
    ("degenerate exits 0 when a case does not conserve", "cli.py",
     '0 if all(p["conserved"] for p in payloads) else 1,', "0,"),
    ("box check on pairings removed", "chow.py",
     "if pairing is not None and not pairing.fits_in_box(ctx.k, ctx.m):", "if False:"),
    ("undecomposed check always ok", "cli.py",
     "undecomposed = whole == decomposition.ambient_total", "undecomposed = True"),
    ("decompose status ignores the undecomposed check", "cli.py",
     'payload["conserved"] and payload["undecomposed_ok"] is not False', 'payload["conserved"]'),
    ("limits checks the pairing box only after building Sym^d", "limits.py",
     "    if not pairing.fits_in_box(ctx.k, ctx.m):", "    if False:"),
    ("cli imports identities at module level", "cli.py",
     "from .errors import EngineError",
     "from .errors import EngineError; from . import identities"),
    ("Value.__eq__ compares only the first field", "symfunc.py",
     "return self._values() == other._values()",
     "return self._values()[:1] == other._values()[:1]"),
    ("Immutable allows assignment", "symfunc.py",
     'raise AttributeError(f"{type(self).__name__} is immutable")',
     "object.__setattr__(self, name, value)"),
    ("Immutable rebuilds a copy from its fields reversed", "symfunc.py",
     "return type(self), self._values()", "return type(self), self._values()[::-1]"),
    ("Immutable.__repr__ prints only the first four fields", "symfunc.py",
     "zip(self._fields, self._values())", "zip(self._fields[:4], self._values())"),
    ("a class without fields copies to a bare constructor call", "symfunc.py",
     "if not self._fields:", "if False:"),
    ("PieceReport fields swapped", "limits.py",
     '"main_degree", "adjunct_degree", "total_degree",',
     '"adjunct_degree", "main_degree", "total_degree",'),
    ("GradedPoly copies to the zero class", "symfunc.py",
     "return GradedPoly, (self.ring, dict(self.terms))", "return GradedPoly, (self.ring,)"),
    ("a constant carrier hashes apart from its int", "symfunc.py",
     "if self.packed.keys() <= {self.ring.unit_key}:", "if False:"),
)


def _copy(dest: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name,
                            ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
        else:
            shutil.copy2(source, dest / name)


def _mutate(path: Path, old: str, new: str) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if old in line]
    if len(hits) != 1 or lines[hits[0]].count(old) != 1:
        raise LookupError(f"{path.name}: {old!r} is on {len(hits)} lines, not exactly one")
    lines[hits[0]] = lines[hits[0]].replace(old, new)
    path.write_text("".join(lines), encoding="utf-8")


def _tests_pass(tree: Path) -> bool:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return done.returncode == 0


def _run(mutant: tuple[str, str, str, str] | None) -> bool:
    with tempfile.TemporaryDirectory(prefix="schubres-mutant-") as tmp:
        tree = Path(tmp)
        _copy(tree)
        if mutant is not None:
            _, name, old, new = mutant
            _mutate(tree / "src" / "schubres" / name, old, new)
        return _tests_pass(tree)


def main() -> int:
    start = time.perf_counter()
    if not _run(None):
        print("error: the unmutated tests fail", file=sys.stderr)
        return 2
    survived = []
    for mutant in MUTANTS:
        what, name = mutant[:2]
        began = time.perf_counter()
        try:
            passed = _run(mutant)
        except LookupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if passed:
            survived.append(what)
        verdict = "SURVIVED" if passed else "caught"
        print(f"{verdict:8}  {name:13} {what}  ({time.perf_counter() - began:.1f} s)", flush=True)
    caught = len(MUTANTS) - len(survived)
    print(f"{len(MUTANTS)} mutants: {caught} caught, {len(survived)} survived "
          f"({time.perf_counter() - start:.0f} s)")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
