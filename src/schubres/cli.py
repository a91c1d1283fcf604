"""Command-line interface for degeneration counts and decompositions.

Subcommands:

* ``fano`` -- class and count of linear subspaces on a general hypersurface.
* ``degenerate`` -- split the count over the pieces of a degeneration.
* ``verify`` -- check the conservation identity over a grid of piece degrees.
* ``decompose`` -- run a divisor or symmetric decomposition from a ring
  fixture file.

Each ``cmd_*`` function computes and returns its exit status, its JSON
payload, its table text and, for ``degenerate`` and ``decompose``, its CSV
cases.  ``main`` renders the one ``--format`` names and writes it to
standard output, or to the ``--output`` file.

``degenerate`` and ``decompose`` report one shape: per component its
``label`` (and, for a degeneration piece, its degree ``k`` and multiplicity
``e``), then ``main_class``, ``adjunct_class``, ``total_class``,
``main_degree``, ``adjunct_degree`` and ``total_degree``, and then the
``ambient`` class and degree the components must sum to.  A degree is null
where the class has none.  CSV has the columns ``case``, ``label``, ``k``,
``e``, the three degrees and the three classes, one row per component and
an ``ambient`` row per case; ``decompose`` leaves ``k`` and ``e`` blank.

Exit status is 0 when every result conserves (or every identity holds), 1
when one does not, and 2 for bad input or usage, reported on one
``error:`` line, never as a traceback.  A reader that closes standard
output early is not bad input: the status is then 141 (128 + SIGPIPE),
and nothing is printed on standard error.  ``schubres --selftest`` replays the package's
frozen reference values and exits 1 if any disagree.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from . import __version__
from .chow import (
    GrassContext,
    Partition,
    StructRing,
    builtin_ring,
    check_keys,
    integrate_bott,
    load_ring,
    read_yaml,
)
from .errors import EngineError
from .symfunc import exact_int

if TYPE_CHECKING:
    from .limits import DegenerationSpec, LimitReport

# ``limits``, ``identities`` and ``residual`` are imported by the commands and
# selftest checks that run them, so each subcommand loads only its own layers.
# Their functions are looked up on those modules at call time, so a caller
# that rebinds a module's function is the one called.

Piece = tuple[int, int]

# Frozen reference degrees for --selftest: (main, adjunct, total) per piece.
QUINTIC_CONTEXT = (1, 4)
QUINTIC_CASES: tuple[tuple[tuple[Piece, Piece], tuple[tuple[int, int, int], ...]], ...] = (
    (((1, 4), (1, 1)), ((2400, 320, 2720), (1275, -1120, 155))),
    (((1, 3), (2, 1)), ((3195, -540, 2655), (1300, -1080, 220))),
    (((1, 3), (1, 2)), ((3195, -1080, 2115), (2920, -2160, 760))),
    (((1, 2), (3, 1)), ((2920, -540, 2380), (1575, -1080, 495))),
    (((2, 2), (1, 1)), ((2880, -640, 2240), (1275, -640, 635))),
)
QUARTIC_CONTEXT = (2, 7)
QUARTIC_CASES: tuple[tuple[tuple[Piece, Piece], tuple[tuple[int, int, int], ...]], ...] = (
    (((3, 1), (1, 1)), ((3_304_098, -2_820_258, 483_840), (3_656_569, -843_129, 2_813_440))),
    (((2, 1), (2, 1)), ((3_087_616, -1_438_976, 1_648_640), (3_087_616, -1_438_976, 1_648_640))),
    (((1, 3), (1, 1)), ((-20_855_205, 24_000_165, 3_144_960), (3_656_569, -3_504_249, 152_320))),
    (((1, 2), (1, 2)), ((2_645_888, -997_248, 1_648_640), (2_645_888, -997_248, 1_648_640))),
    (((1, 2), (2, 1)), ((2_645_888, 561_792, 3_207_680), (3_087_616, -2_998_016, 89_600))),
)


# ---------------------------------------------------------------------------
# argument parsing helpers


def _parse_pieces(text: str) -> tuple[Piece, Piece]:
    """Parse a piece list like ``1x4+1x1`` (degree x multiplicity)."""
    pieces = []
    for token in text.replace(" ", "").split("+"):
        if not token:
            raise argparse.ArgumentTypeError(f"empty piece in {text!r}")
        head, sep, tail = token.partition("x")
        try:
            degree = int(head)
            multiplicity = int(tail) if sep else 1
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"piece {token!r} is not of the form DEGREE or DEGREExMULTIPLICITY"
            ) from None
        if degree < 1 or multiplicity < 1:
            raise argparse.ArgumentTypeError(
                f"piece {token!r} needs degree and multiplicity >= 1"
            )
        pieces.append((degree, multiplicity))
    if len(pieces) != 2:
        raise argparse.ArgumentTypeError(
            f"expected exactly two pieces joined by '+', got {len(pieces)} in {text!r}"
        )
    return tuple(pieces)


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _parse_pairing(text: str) -> Partition:
    try:
        parts = tuple(int(p) for p in text.split(",") if p.strip())
        return Partition(parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad pairing partition {text!r}: {exc}") from None


# ---------------------------------------------------------------------------
# output helpers


# A subcommand's exit status, JSON payload, table text and CSV cases (or None).
Result = tuple[int, dict, str, list[tuple[str, list[dict], dict]] | None]


def _context_payload(ctx: GrassContext, degree: int | None = None) -> dict:
    payload = {"r": ctx.r, "n": ctx.n}
    if degree is not None:
        payload["d"] = degree
    return payload


_KINDS = ("main", "adjunct", "total")


def _component(label: str, classes, degrees, **extra) -> dict:
    """One component of a decomposition, as every report prints it: the
    label, any ``extra`` keys, then the (main, adjunct, total) classes and
    degrees.  A degree is ``None`` where the class has none."""
    return {
        "label": label,
        **extra,
        **{f"{kind}_class": cls.to_string() for kind, cls in zip(_KINDS, classes)},
        **{f"{kind}_degree": degree for kind, degree in zip(_KINDS, degrees)},
    }


def _ambient(cls, degree: int | None) -> dict:
    return {"class": cls.to_string(), "degree": degree}


def _cell(degree: int | None, cls: str) -> str:
    """A table cell: the degree, or the class where there is no degree."""
    return cls if degree is None else f"{degree:,}"


def _component_table(first: str, components: list[dict]) -> str:
    """One row per component under a header: the label left-aligned, then
    the main, adjunct and total cells right-aligned."""
    rows = [(first, *_KINDS)] + [
        (c["label"], *(_cell(c[f"{kind}_degree"], c[f"{kind}_class"]) for kind in _KINDS))
        for c in components
    ]
    label_width, *widths = (max(map(len, column)) for column in zip(*rows))
    return "\n".join(
        "  ".join([label.ljust(label_width), *map(str.rjust, cells, widths)]).rstrip()
        for label, *cells in rows
    )


_CSV_FIELDS = (
    "case", "label", "k", "e",
    "main_degree", "adjunct_degree", "total_degree",
    "main_class", "adjunct_class", "total_class",
)


def _write_csv(cases: Iterable[tuple[str, list[dict], dict]]) -> str:
    """One row per component, then the ambient row, for each
    ``(case, components, ambient)``; columns a row lacks stay blank."""
    import csv

    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_CSV_FIELDS, restval="", lineterminator="\n")
    writer.writeheader()
    for case, components, ambient in cases:
        writer.writerows({"case": case, **component} for component in components)
        writer.writerow({
            "case": case, "label": "ambient",
            "total_degree": ambient["degree"], "total_class": ambient["class"],
        })
    return buffer.getvalue().rstrip("\n")


def _limit_payload(report: LimitReport) -> dict:
    return {
        "context": _context_payload(report.spec.context, report.spec.degree),
        "pieces": [
            _component(
                piece.label,
                (piece.main_class, piece.adjunct_class, piece.total_class),
                (piece.main_degree, piece.adjunct_degree, piece.total_degree),
                k=piece.degree,
                e=piece.multiplicity,
            )
            for piece in report.pieces
        ],
        "ambient": _ambient(report.ambient_class, report.ambient_degree),
        "conserved": report.conserved,
    }


def _limit_table(spec: DegenerationSpec, payload: dict) -> str:
    ambient = payload["ambient"]
    return "\n".join([
        f"degeneration: {spec}  "
        f"(degree {spec.degree} on G({spec.context.r}, {spec.context.n}))",
        _component_table("piece", payload["pieces"]),
        f"ambient total: {_cell(ambient['degree'], ambient['class'])}",
        f"conserved: {'yes' if payload['conserved'] else 'NO'}",
    ])


# ---------------------------------------------------------------------------
# subcommands


def cmd_fano(args: argparse.Namespace) -> Result:
    from . import limits

    ctx = GrassContext(args.r, args.n)
    cls, family_dim, count = limits.fano_family(ctx, args.degree, args.pair)
    payload = {
        "context": _context_payload(ctx, args.degree),
        "class": cls.to_string(),
        "count": count,
        "family_dimension": family_dim,
        "pairing": list(args.pair.parts) if args.pair else None,
    }
    lines = [
        f"context: {args.r}-planes in P^{args.n} (G({args.r}, {args.n}), dimension {ctx.dim})",
        f"hypersurface degree: {args.degree}",
        f"class: {cls.to_string()}",
    ]
    if count is None:
        lines.append(
            f"count: - (family of dimension {family_dim}; "
            "supply --pair with a partition of that size)"
        )
    else:
        label = "count" if family_dim == 0 else "paired count"
        lines.append(f"{label}: {count:,}")
    return 0, payload, "\n".join(lines), None


def cmd_degenerate(args: argparse.Namespace) -> Result:
    from . import limits

    ctx = GrassContext(args.r, args.n)
    if args.all:
        if args.pieces is not None:
            raise ValueError("give either a piece list or --all, not both")
        if args.degree is None:
            raise ValueError("--all needs --degree")
        specs = [
            limits.DegenerationSpec(ctx, pieces)
            for pieces in limits.enumerate_degenerations(args.degree)
        ]
    else:
        if args.pieces is None:
            raise ValueError("give a piece list like '1x4+1x1' or use --all --degree D")
        specs = [limits.DegenerationSpec(ctx, args.pieces)]
        got = specs[0].degree
        if args.degree is not None and args.degree != got:
            raise ValueError(
                f"pieces have total degree {got}, which contradicts --degree {args.degree}"
            )
    payloads = [_limit_payload(limits.decompose_degeneration(spec, args.pair)) for spec in specs]
    every_case = {"context": _context_payload(ctx, args.degree), "cases": payloads}
    return (
        0 if all(p["conserved"] for p in payloads) else 1,
        every_case if args.all else payloads[0],
        "\n\n".join(_limit_table(spec, p) for spec, p in zip(specs, payloads)),
        [(str(spec), p["pieces"], p["ambient"]) for spec, p in zip(specs, payloads)],
    )


def cmd_verify(args: argparse.Namespace) -> Result:
    from . import identities

    ctx = GrassContext(args.r, args.n)
    cases = [
        (k, l)
        for k in range(1, args.max_degree)
        for l in range(1, args.max_degree - k + 1)
    ]
    residuals = [identities.verify_identity(ctx, k, l) for k, l in cases]
    results = [
        {"k": k, "l": l, "ok": residual.is_zero}
        for (k, l), residual in zip(cases, residuals)
    ]
    all_ok = all(entry["ok"] for entry in results)
    payload = {
        "context": _context_payload(ctx),
        "max_degree": args.max_degree,
        "cases": results,
        "all_ok": all_ok,
    }
    lines = [
        f"conservation identity on G({args.r}, {args.n}) "
        f"for piece degrees k + l <= {args.max_degree}"
    ]
    for entry, residual in zip(results, residuals):
        status = "ok" if entry["ok"] else f"FAIL (residual {residual.to_string()})"
        lines.append(f"k={entry['k']} l={entry['l']}: {status}")
    good = sum(1 for entry in results if entry["ok"])
    lines.append(f"{good} of {len(results)} cases ok")
    return 0 if all_ok else 1, payload, "\n".join(lines), None


def _fixture_path(source: str) -> Path:
    from importlib import resources

    path = Path(source)
    if path.exists():
        return path
    candidates = [source, f"{source}.yaml", source.replace("-", "_") + ".yaml"]
    for name in candidates:
        packaged = resources.files("schubres").joinpath("data").joinpath(name)
        if packaged.is_file():
            return Path(str(packaged))
    raise FileNotFoundError(
        f"no fixture file {source!r} and no shipped fixture of that name"
    )


def _read_section(
    section: dict, base_dir: Path, dim: int, what: str = "ring"
) -> tuple[StructRing, Callable[[str], object]]:
    """The ring a fixture section's ``ring`` key names, a builtin name or a
    path from ``base_dir``, and the reader that parses the section's value
    at a key as an element of that ring.  A ring whose top degree is not
    the fixture's ``dim`` raises ``ValueError`` naming ``what``."""
    value = section["ring"]
    if not isinstance(value, str):
        raise ValueError(f"cannot resolve ring from {value!r}")
    try:
        ring = builtin_ring(value)
    except KeyError:
        ring = load_ring(base_dir / value)
    if dim != ring.top_degree:
        raise ValueError(
            f"fixture key 'dim' is {dim}, but {what} {ring.name!r} has top degree "
            f"{ring.top_degree}"
        )
    return ring, lambda key: ring.parse(str(section[key]))


# The class keys each decomposition mode reads, in the order its function
# takes them.
_MODE_KEYS = {
    "divisor": ("divisor_class", "residual_segre"),
    "symmetric": ("first", "second"),
}


def _fixture_payload(source: str, coarse: bool) -> dict:
    """Run a decomposition fixture and return the ``decompose`` JSON payload.

    Each class is integrated in its own ring.  ``undecomposed_ok`` compares
    the summed decomposition with the one-piece main term of the whole
    scheme when the fixture records its total Segre class, and is ``None``
    otherwise.  With ``coarse`` the fixture's ``coarse`` section, the same
    codimension-d intersection on a coarser ring where the pieces are not
    told apart, is evaluated too; a fixture without one raises
    ``ValueError``.
    """
    from . import residual

    path = _fixture_path(source)
    data = read_yaml(path)
    mode = data.get("mode", "divisor") if isinstance(data, dict) else "divisor"
    if not isinstance(mode, str) or mode not in _MODE_KEYS:
        raise ValueError(f"unknown decomposition mode {mode!r}")
    class_keys = _MODE_KEYS[mode]
    check_keys(
        data, f"fixture {path.name!r}", ("ring", "dim", "codim", "normal_chern", *class_keys),
        ("name", "mode", "labels", "total_segre", "coarse"),
    )
    if "coarse" in data:
        what = "fixture key 'coarse'"
        check_keys(data["coarse"], what, ("ring", "normal_chern", "segre", "total"))
    dim = exact_int(data["dim"], "fixture key 'dim'")
    ring, element = _read_section(data, path.parent, dim)
    setup = residual.IntersectionSetup(
        cN=element("normal_chern"), d=exact_int(data["codim"], "fixture key 'codim'")
    )
    labels = data.get("labels", ["D", "R"])
    if not (isinstance(labels, list) and list(map(type, labels)) == [str, str]):
        raise ValueError(f"fixture key 'labels' must be a list of two strings, got {labels!r}")
    decompose = residual.divisor_decompose if mode == "divisor" else residual.symmetric_decompose
    decomposition = decompose(setup, *map(element, class_keys), labels=tuple(labels))

    undecomposed = None
    if "total_segre" in data:
        whole = residual.main_term(setup, element("total_segre"))
        if mode == "symmetric":
            whole = whole.pushforward()
        undecomposed = whole == decomposition.ambient_total

    coarse_payload = None
    if coarse:
        if "coarse" not in data:
            raise ValueError(f"fixture {data.get('name', path.name)!r} has no coarse section")
        _, coarse_element = _read_section(data["coarse"], path.parent, dim, "coarse ring")
        coarse_setup = residual.IntersectionSetup(cN=coarse_element("normal_chern"), d=setup.d)
        main = residual.main_term(coarse_setup, coarse_element("segre"))
        coarse_payload = {
            "main_class": main.to_string(),
            "main_degree": main.integrate(),
            "residual_degree": (coarse_element("total") - main).integrate(),
        }

    components = []
    for c in decomposition.components:
        degrees = (c.main.integrate(), c.adjunct.integrate())
        components.append(
            _component(c.label, (c.main, c.adjunct, c.total), (*degrees, sum(degrees)))
        )
    ambient = decomposition.ambient_total
    return {
        "fixture": data.get("name", path.stem),
        "mode": mode,
        "ring": ring.name,
        "components": components,
        "ambient": _ambient(ambient, ambient.integrate()),
        "conserved": decomposition.conserved,
        "undecomposed_ok": undecomposed,
        "coarse": coarse_payload,
    }


def _fixture_table(payload: dict) -> str:
    components, ambient = payload["components"], payload["ambient"]
    lines = [
        f"fixture: {payload['fixture']} ({payload['mode']} mode, ring {payload['ring']})",
        _component_table("component", components),
        f"ambient: {_cell(ambient['degree'], ambient['class'])}",
        "classes:",
        *(
            f"  {c['label']}: main {c['main_class']}, "
            f"adjunct {c['adjunct_class']}, total {c['total_class']}"
            for c in components
        ),
        f"  ambient {ambient['class']}",
        f"conserved: {'yes' if payload['conserved'] else 'NO'}",
    ]
    if payload["undecomposed_ok"] is not None:
        lines.append(f"undecomposed check: {'ok' if payload['undecomposed_ok'] else 'FAIL'}")
    coarse = payload["coarse"]
    if coarse is not None:
        lines.append(f"coarse main term: {coarse['main_class']} (degree {coarse['main_degree']})")
        lines.append(f"coarse residual degree: {coarse['residual_degree']}")
    return "\n".join(lines)


def cmd_decompose(args: argparse.Namespace) -> Result:
    payload = _fixture_payload(args.fixture, args.coarse)
    return (
        0 if payload["conserved"] and payload["undecomposed_ok"] is not False else 1,
        payload,
        _fixture_table(payload),
        [(payload["fixture"], payload["components"], payload["ambient"])],
    )


# ---------------------------------------------------------------------------
# selftest


def _expect(got, want, *what) -> None:
    # Not ``assert``, which ``python -O`` strips.
    if got != want:
        raise AssertionError(f"{' '.join(map(str, what))}: got {got!r}, want {want!r}")


def _check_counts() -> None:
    # Each count by the Pieri route, then by Bott's formula on the same class.
    from . import limits

    for r, n, d, count in ((1, 3, 3, 27), (1, 4, 5, 2875), (2, 7, 4, 3_297_280), (1, 3, 4, 0)):
        ctx = GrassContext(r, n)
        _expect(limits.fano_degree(ctx, d), count, "Pieri count", ctx, d)
        _expect(integrate_bott(ctx, limits.fano_family(ctx, d)[0]), count, "Bott count", ctx, d)


def _check_cubic_split() -> None:
    from . import limits

    spec = limits.DegenerationSpec(GrassContext(1, 3), ((1, 1), (1, 2)))
    report = limits.decompose_degeneration(spec)
    _expect([piece.total_degree for piece in report.pieces], [3, 24], "piece totals")
    _expect(report.ambient_degree, 27, "ambient degree")
    _expect(report.conserved, True, "conserved")


def _check_table(context: tuple[int, int], cases) -> None:
    from . import limits

    ctx = GrassContext(*context)
    specs = [limits.DegenerationSpec(ctx, pieces) for pieces, _ in cases]
    reports = [limits.decompose_degeneration(spec) for spec in specs]
    for (pieces, expected), report in zip(cases, reports):
        got = tuple(
            (piece.main_degree, piece.adjunct_degree, piece.total_degree)
            for piece in report.pieces
        )
        _expect(got, expected, "pieces", pieces)
        _expect(report.conserved, True, "conserved", pieces)


def _check_quintic_table() -> None:
    from . import limits

    _check_table(QUINTIC_CONTEXT, QUINTIC_CASES)
    # The two degenerations not in the frozen table still conserve.
    ctx = GrassContext(*QUINTIC_CONTEXT)
    for pieces in (((4, 1), (1, 1)), ((3, 1), (2, 1))):
        report = limits.decompose_degeneration(limits.DegenerationSpec(ctx, pieces))
        _expect(report.conserved, True, "conserved", pieces)


def _check_quartic_table() -> None:
    _check_table(QUARTIC_CONTEXT, QUARTIC_CASES)


def _check_identity_grid() -> None:
    from . import identities

    cases = [
        (ctx, k, l)
        for ctx in (GrassContext(1, 3), GrassContext(1, 4), GrassContext(2, 5))
        for k in range(1, 4)
        for l in range(1, 5 - k)
    ]
    residuals = [identities.verify_identity(*case) for case in cases]
    for case, residual in zip(cases, residuals):
        _expect(residual.is_zero, True, "identity residual is zero for", case)


def _check_fixtures() -> None:
    expected = {
        "double_line_split_single": ((1, 1, 2), (1, 1, 2)),
        "double_line_split_whole": ((4, 0, 4), (0, 0, 0)),
        "double_line_symmetric": ((1, 1, 2), (1, 1, 2)),
    }
    for stem, degrees in expected.items():
        payload = _fixture_payload(stem, coarse=stem == "double_line_split_single")
        got = (
            tuple(tuple(c[f"{kind}_degree"] for kind in _KINDS) for c in payload["components"]),
            payload["ambient"]["degree"],
        )
        _expect(got, (degrees, 4), stem, "degrees")
        _expect(payload["conserved"], True, stem, "conserved")
        _expect(payload["undecomposed_ok"] is not False, True, stem, "undecomposed_ok")
        coarse = payload["coarse"]
        if coarse is not None:
            _expect((coarse["main_degree"], coarse["residual_degree"]), (1, 3), stem, "coarse")


SELFTEST_CHECKS: tuple[tuple[str, Callable[[], None]], ...] = (
    ("classical counts (27, 2875, 3297280, 0)", _check_counts),
    ("cubic surface split 3 + 24", _check_cubic_split),
    ("quintic threefold table", _check_quintic_table),
    ("quartic fivefold table", _check_quartic_table),
    ("conservation identity grid", _check_identity_grid),
    ("shipped decomposition fixtures", _check_fixtures),
)


def run_selftest() -> int:
    print(f"schubres {__version__} selftest")
    failures = 0
    for name, check in SELFTEST_CHECKS:
        start = time.perf_counter()
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - report and keep going
            failures += 1
            print(f"selftest: {name}: FAIL ({exc}) ({time.perf_counter() - start:.2f} s)")
        else:
            print(f"selftest: {name}: ok ({time.perf_counter() - start:.2f} s)")
    total = len(SELFTEST_CHECKS)
    if failures:
        print(f"selftest: {failures} of {total} checks FAILED")
        return 1
    print(f"selftest: all {total} checks passed")
    return 0


# ---------------------------------------------------------------------------
# parser


def _context_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-r", type=int, required=True,
                        help="dimension of the linear subspaces")
    parser.add_argument("-n", type=int, required=True,
                        help="dimension of the ambient projective space")


def _io_parent(formats: tuple[str, ...]) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--format", choices=formats, default="table",
                        help="output format (default: table)")
    parent.add_argument("--output", metavar="FILE",
                        help="write the result to FILE instead of stdout")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schubres",
        description="Exact counts of linear subspaces on degenerating hypersurfaces.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--selftest", action="store_true",
                        help="replay the frozen reference values and exit")
    subparsers = parser.add_subparsers(dest="command")

    fano = subparsers.add_parser(
        "fano", parents=[_io_parent(("table", "json"))],
        help="class and count of subspaces on a general hypersurface",
    )
    _context_arguments(fano)
    fano.add_argument("-d", "--degree", type=_int_at_least(1), required=True,
                      help="degree of the hypersurface")
    fano.add_argument("--pair", type=_parse_pairing, default=None, metavar="P1,P2,...",
                      help="Schubert partition to pair a positive-dimensional family against")
    fano.set_defaults(func=cmd_fano)

    degenerate = subparsers.add_parser(
        "degenerate", parents=[_io_parent(("table", "json", "csv"))],
        help="split the count over the pieces of a degeneration",
    )
    _context_arguments(degenerate)
    degenerate.add_argument("pieces", nargs="?", type=_parse_pieces, default=None,
                            help="piece list like '1x4+1x1' (degree x multiplicity)")
    degenerate.add_argument("--all", action="store_true",
                            help="run every two-piece degeneration of --degree")
    degenerate.add_argument("-d", "--degree", type=int, default=None,
                            help="total degree (with --all)")
    degenerate.add_argument("--pair", type=_parse_pairing, default=None, metavar="P1,P2,...",
                            help="Schubert partition for positive-dimensional families")
    degenerate.set_defaults(func=cmd_degenerate)

    verify = subparsers.add_parser(
        "verify", parents=[_io_parent(("table", "json"))],
        help="check the conservation identity on a grid of piece degrees",
    )
    _context_arguments(verify)
    verify.add_argument("--max-degree", type=_int_at_least(2), default=4,
                        help="check all k, l >= 1 with k + l <= this bound (default 4)")
    verify.set_defaults(func=cmd_verify)

    decompose = subparsers.add_parser(
        "decompose", parents=[_io_parent(("table", "json", "csv"))],
        help="run a divisor or symmetric decomposition from a fixture file",
    )
    decompose.add_argument("fixture",
                           help="fixture file path or the name of a shipped fixture")
    decompose.add_argument("--coarse", action="store_true",
                           help="also evaluate the fixture's coarse main-term section")
    decompose.set_defaults(func=cmd_decompose)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not (args.selftest or getattr(args, "command", None)):
        parser.print_help()
        return 2
    try:
        if args.selftest:
            status = run_selftest()
        else:
            status, payload, table, cases = args.func(args)
            if args.format == "json":
                import json

                text = json.dumps(payload, indent=2)
            elif args.format == "csv":
                text = _write_csv(cases)
            else:
                text = table
            if args.output:
                Path(args.output).write_text(text + "\n", encoding="utf-8")
            else:
                print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout, which is not bad input.  Point stdout at
        # devnull so that the flush at interpreter exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (EngineError, ValueError, KeyError, OSError) as exc:
        # A KeyError prints its message as a repr; print the message itself.
        message = exc.args[0] if isinstance(exc, KeyError) and len(exc.args) == 1 else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
