"""Command-line interface for degeneration counts and decompositions.

Subcommands:

* ``fano`` -- class and count of linear subspaces on a general hypersurface.
* ``degenerate`` -- split the count over the pieces of a degeneration.
* ``verify`` -- check the conservation identity over a grid of piece degrees.
* ``decompose`` -- run a divisor or symmetric decomposition from a ring
  fixture file.

``schubres --selftest`` replays the package's frozen reference values and
exits nonzero if any disagree.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Sequence

import yaml

from . import __version__
from .chow import GrassContext, Partition, StructRing, builtin_ring, load_ring
from .errors import EngineError
from .identities import verify_identity
from .limits import (
    DegenerationSpec,
    LimitReport,
    decompose_degeneration,
    enumerate_degenerations,
    fano_degree,
    fano_family,
)
from .residual import (
    Decomposition,
    IntersectionSetup,
    SegreData,
    divisor_decompose,
    main_term,
    symmetric_decompose,
)
from .symfunc import exact_int

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


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _fmt_degree(value: int | None) -> str:
    return "-" if value is None else f"{value:,}"


def _degree_or_class(degree: int | None, cls) -> str:
    return cls.to_string() if degree is None else f"{degree:,}"


def _render_table(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    rows = [list(map(str, row)) for row in rows]
    widths = [
        max(len(str(header[i])), *(len(row[i]) for row in rows)) if rows else len(str(header[i]))
        for i in range(len(header))
    ]
    lines = []
    for row in [list(map(str, header))] + rows:
        cells = [
            row[i].ljust(widths[i]) if i == 0 else row[i].rjust(widths[i])
            for i in range(len(row))
        ]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


def _emit(text: str, args: argparse.Namespace) -> None:
    output = getattr(args, "output", None)
    if output:
        Path(output).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _context_payload(ctx: GrassContext, degree: int | None = None) -> dict:
    payload = {"r": ctx.r, "n": ctx.n}
    if degree is not None:
        payload["d"] = degree
    return payload


def _limit_payload(report: LimitReport) -> dict:
    return {
        "context": _context_payload(report.spec.context, report.spec.degree),
        "pieces": [
            {
                "label": piece.label,
                "k": piece.degree,
                "e": piece.multiplicity,
                "main_class": piece.main_class.to_string(),
                "adjunct_class": piece.adjunct_class.to_string(),
                "total_class": piece.total_class.to_string(),
                "main_degree": piece.main_degree,
                "adjunct_degree": piece.adjunct_degree,
                "total_degree": piece.total_degree,
            }
            for piece in report.pieces
        ],
        "ambient": {
            "class": report.ambient_class.to_string(),
            "degree": report.ambient_degree,
        },
        "conserved": report.conserved,
    }


def _limit_table(report: LimitReport) -> str:
    ctx = report.spec.context
    lines = [
        f"degeneration: {report.spec}  "
        f"(degree {report.spec.degree} on G({ctx.r}, {ctx.n}))"
    ]
    rows = [
        [
            piece.label,
            _degree_or_class(piece.main_degree, piece.main_class),
            _degree_or_class(piece.adjunct_degree, piece.adjunct_class),
            _degree_or_class(piece.total_degree, piece.total_class),
        ]
        for piece in report.pieces
    ]
    lines.append(_render_table(("piece", "main", "adjunct", "total"), rows))
    ambient = _degree_or_class(report.ambient_degree, report.ambient_class)
    lines.append(f"ambient total: {ambient}")
    lines.append(f"conserved: {'yes' if report.conserved else 'NO'}")
    return "\n".join(lines)


_CSV_FIELDS = (
    "case", "label", "k", "e",
    "main_degree", "adjunct_degree", "total_degree",
    "main_class", "adjunct_class", "total_class",
)


def _csv_rows(case: str, components, ambient_degree, ambient_class) -> list[dict]:
    """One CSV row per component, then the ambient row.

    Each component is ``(label, k, e, degrees, classes)`` with the
    (main, adjunct, total) degrees and classes as triples.
    """
    rows = [
        dict(zip(_CSV_FIELDS, (case, label, k, e, *degrees, *map(str, classes))))
        for label, k, e, degrees, classes in components
    ]
    ambient = (case, "ambient", "", "", "", "", ambient_degree, "", "", str(ambient_class))
    rows.append(dict(zip(_CSV_FIELDS, ambient)))
    return rows


def _limit_csv_rows(report: LimitReport) -> list[dict]:
    components = [
        (
            piece.label,
            piece.degree,
            piece.multiplicity,
            (piece.main_degree, piece.adjunct_degree, piece.total_degree),
            (piece.main_class, piece.adjunct_class, piece.total_class),
        )
        for piece in report.pieces
    ]
    return _csv_rows(str(report.spec), components, report.ambient_degree, report.ambient_class)


def _write_csv(rows: list[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue().rstrip("\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_fano(args: argparse.Namespace) -> int:
    ctx = GrassContext(args.r, args.n)
    cls, family_dim, count = fano_family(ctx, args.degree, args.pair)
    if args.format == "json":
        payload = {
            "context": _context_payload(ctx, args.degree),
            "class": cls.to_string(),
            "count": count,
            "family_dimension": family_dim,
            "pairing": list(args.pair.parts) if args.pair else None,
        }
        _emit(json.dumps(payload, indent=2), args)
        return 0
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
    _emit("\n".join(lines), args)
    return 0


def cmd_degenerate(args: argparse.Namespace) -> int:
    ctx = GrassContext(args.r, args.n)
    if args.all:
        if args.pieces is not None:
            return _usage_error("give either a piece list or --all, not both")
        if args.degree is None:
            return _usage_error("--all needs --degree")
        piece_pairs = enumerate_degenerations(args.degree)
    else:
        if args.pieces is None:
            return _usage_error("give a piece list like '1x4+1x1' or use --all --degree D")
        piece_pairs = [args.pieces]
        got = sum(k * e for k, e in args.pieces)
        if args.degree is not None and args.degree != got:
            return _usage_error(
                f"pieces have total degree {got}, which contradicts --degree {args.degree}"
            )
    specs = [DegenerationSpec(ctx, pieces) for pieces in piece_pairs]
    reports = [decompose_degeneration(spec, args.pair) for spec in specs]

    if args.format == "json":
        if args.all:
            payload = {
                "context": _context_payload(ctx, args.degree),
                "cases": [_limit_payload(report) for report in reports],
            }
        else:
            payload = _limit_payload(reports[0])
        _emit(json.dumps(payload, indent=2), args)
    elif args.format == "csv":
        rows = [row for report in reports for row in _limit_csv_rows(report)]
        _emit(_write_csv(rows), args)
    else:
        _emit("\n\n".join(_limit_table(report) for report in reports), args)
    return 0 if all(report.conserved for report in reports) else 1


def cmd_verify(args: argparse.Namespace) -> int:
    ctx = GrassContext(args.r, args.n)
    cases = [
        (k, l)
        for k in range(1, args.max_degree)
        for l in range(1, args.max_degree - k + 1)
    ]
    residuals = [verify_identity(ctx, k, l) for k, l in cases]
    results = [
        {"k": k, "l": l, "ok": residual.is_zero}
        for (k, l), residual in zip(cases, residuals)
    ]
    all_ok = all(entry["ok"] for entry in results)
    if args.format == "json":
        payload = {
            "context": _context_payload(ctx),
            "max_degree": args.max_degree,
            "cases": results,
            "all_ok": all_ok,
        }
        _emit(json.dumps(payload, indent=2), args)
    else:
        lines = [
            f"conservation identity on G({args.r}, {args.n}) "
            f"for piece degrees k + l <= {args.max_degree}"
        ]
        for entry, residual in zip(results, residuals):
            status = "ok" if entry["ok"] else f"FAIL (residual {residual.to_string()})"
            lines.append(f"k={entry['k']} l={entry['l']}: {status}")
        good = sum(1 for entry in results if entry["ok"])
        lines.append(f"{good} of {len(results)} cases ok")
        _emit("\n".join(lines), args)
    return 0 if all_ok else 1


def _fixture_path(source: str) -> Path:
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


def _resolve_ring(value, base_dir: Path) -> StructRing:
    if isinstance(value, str):
        try:
            return builtin_ring(value)
        except KeyError:
            return load_ring(base_dir / value)
    raise ValueError(f"cannot resolve ring from {value!r}")


def _run_fixture(data: dict, base_dir: Path) -> tuple[Decomposition, IntersectionSetup, StructRing]:
    ring = _resolve_ring(data["ring"], base_dir)
    setup = IntersectionSetup(
        cN=ring.parse(str(data["normal_chern"])),
        d=exact_int(data["codim"], "fixture key 'codim'"),
        k=exact_int(data["dim"], "fixture key 'dim'"),
        ring=ring,
    )
    mode = data.get("mode", "divisor")
    labels = tuple(data.get("labels", ("D", "R")))
    if mode == "divisor":
        decomposition = divisor_decompose(
            setup,
            SegreData(ring.parse(str(data["divisor_segre"]))),
            ring.parse(str(data["divisor_class"])),
            SegreData(ring.parse(str(data["residual_segre"]))),
            labels=labels,
        )
    elif mode == "symmetric":
        decomposition = symmetric_decompose(
            setup,
            ring.parse(str(data["first"])),
            ring.parse(str(data["second"])),
            labels=labels,
        )
    else:
        raise ValueError(f"unknown decomposition mode {mode!r}")
    return decomposition, setup, ring


def _undecomposed_check(
    data: dict, decomposition: Decomposition, setup: IntersectionSetup, ring: StructRing
) -> bool | None:
    """Compare the summed decomposition against the one-piece main term of
    the whole scheme, when the fixture records its total Segre class."""
    if "total_segre" not in data:
        return None
    whole = main_term(setup, SegreData(ring.parse(str(data["total_segre"]))))
    if data.get("mode") == "symmetric":
        whole = whole.pushforward()
    return whole == decomposition.ambient_total


def _coarse_section(data: dict, d: int, base_dir: Path) -> dict:
    """Main class and degree, and residual degree, of a fixture's ``coarse``
    section: the same codimension-d intersection on a coarser ring, where
    the pieces are not told apart."""
    coarse = data["coarse"]
    ring = _resolve_ring(coarse["ring"], base_dir)
    setup = IntersectionSetup(
        cN=ring.parse(str(coarse["normal_chern"])), d=d, k=ring.top_degree, ring=ring
    )
    main = main_term(setup, SegreData(ring.parse(str(coarse["segre"]))))
    return {
        "main_class": main.to_string(),
        "main_degree": main.integrate(),
        "residual_degree": (ring.parse(str(coarse["total"])) - main).integrate(),
    }


def cmd_decompose(args: argparse.Namespace) -> int:
    path = _fixture_path(args.fixture)
    data = yaml.safe_load(path.read_text(encoding="utf-8"))
    decomposition, setup, ring = _run_fixture(data, path.parent)
    undecomposed = _undecomposed_check(data, decomposition, setup, ring)

    coarse_payload = None
    if args.coarse:
        if "coarse" not in data:
            return _usage_error(f"fixture {data.get('name', path.name)!r} has no coarse section")
        coarse_payload = _coarse_section(data, setup.d, path.parent)

    name = data.get("name", path.stem)
    degrees = decomposition.degrees or tuple(
        (None, None, None) for _ in decomposition.components
    )
    ok = decomposition.conserved and undecomposed is not False

    if args.format == "json":
        payload = {
            "fixture": name,
            "mode": data.get("mode", "divisor"),
            "ring": ring.name,
            "components": [
                {
                    "label": component.label,
                    "main_class": component.main.to_string(),
                    "adjunct_class": component.adjunct.to_string(),
                    "total_class": component.total.to_string(),
                    "main_degree": triple[0],
                    "adjunct_degree": triple[1],
                    "total_degree": triple[2],
                }
                for component, triple in zip(decomposition.components, degrees)
            ],
            "ambient": {
                "class": decomposition.ambient_total.to_string(),
                "degree": decomposition.ambient_degree,
            },
            "conserved": decomposition.conserved,
            "undecomposed_ok": undecomposed,
            "coarse": coarse_payload,
        }
        _emit(json.dumps(payload, indent=2), args)
        return 0 if ok else 1

    if args.format == "csv":
        components = [
            (c.label, "", "", triple, (c.main, c.adjunct, c.total))
            for c, triple in zip(decomposition.components, degrees)
        ]
        rows = _csv_rows(
            name, components, decomposition.ambient_degree, decomposition.ambient_total
        )
        _emit(_write_csv(rows), args)
        return 0 if ok else 1

    lines = [f"fixture: {name} ({data.get('mode', 'divisor')} mode, ring {ring.name})"]
    rows = [
        [component.label, _fmt_degree(triple[0]), _fmt_degree(triple[1]), _fmt_degree(triple[2])]
        for component, triple in zip(decomposition.components, degrees)
    ]
    lines.append(_render_table(("component", "main", "adjunct", "total"), rows))
    lines.append(f"ambient: {_fmt_degree(decomposition.ambient_degree)}")
    lines.append("classes:")
    for component in decomposition.components:
        lines.append(
            f"  {component.label}: main {component.main.to_string()}, "
            f"adjunct {component.adjunct.to_string()}, total {component.total.to_string()}"
        )
    lines.append(f"  ambient {decomposition.ambient_total.to_string()}")
    lines.append(f"conserved: {'yes' if decomposition.conserved else 'NO'}")
    if undecomposed is not None:
        lines.append(f"undecomposed check: {'ok' if undecomposed else 'FAIL'}")
    if coarse_payload is not None:
        lines.append(
            f"coarse main term: {coarse_payload['main_class']} "
            f"(degree {coarse_payload['main_degree']})"
        )
        lines.append(f"coarse residual degree: {coarse_payload['residual_degree']}")
    _emit("\n".join(lines), args)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# selftest


def _check_counts() -> None:
    assert fano_degree(GrassContext(1, 3), 3) == 27
    assert fano_degree(GrassContext(1, 4), 5) == 2875
    assert fano_degree(GrassContext(2, 7), 4) == 3_297_280
    assert fano_degree(GrassContext(1, 3), 4) == 0


def _check_cubic_split() -> None:
    report = decompose_degeneration(DegenerationSpec(GrassContext(1, 3), ((1, 1), (1, 2))))
    assert [piece.total_degree for piece in report.pieces] == [3, 24]
    assert report.ambient_degree == 27
    assert report.conserved


def _check_table(context: tuple[int, int], cases) -> None:
    ctx = GrassContext(*context)
    specs = [DegenerationSpec(ctx, pieces) for pieces, _ in cases]
    reports = [decompose_degeneration(spec) for spec in specs]
    for (pieces, expected), report in zip(cases, reports):
        got = tuple(
            (piece.main_degree, piece.adjunct_degree, piece.total_degree)
            for piece in report.pieces
        )
        assert got == expected, f"pieces {pieces}: got {got}, want {expected}"
        assert report.conserved


def _check_quintic_table() -> None:
    _check_table(QUINTIC_CONTEXT, QUINTIC_CASES)
    # The two degenerations not in the frozen table still conserve.
    ctx = GrassContext(*QUINTIC_CONTEXT)
    for pieces in (((4, 1), (1, 1)), ((3, 1), (2, 1))):
        assert decompose_degeneration(DegenerationSpec(ctx, pieces)).conserved


def _check_quartic_table() -> None:
    _check_table(QUARTIC_CONTEXT, QUARTIC_CASES)


def _check_identity_grid() -> None:
    cases = [
        (ctx, k, l)
        for ctx in (GrassContext(1, 3), GrassContext(1, 4), GrassContext(2, 5))
        for k in range(1, 4)
        for l in range(1, 5 - k)
    ]
    residuals = [verify_identity(*case) for case in cases]
    for case, residual in zip(cases, residuals):
        assert residual.is_zero, f"identity failed for {case}"


def _check_fixtures() -> None:
    expected = {
        "double_line_split_single": ((1, 1, 2), (1, 1, 2)),
        "double_line_split_whole": ((4, 0, 4), (0, 0, 0)),
        "double_line_symmetric": ((1, 1, 2), (1, 1, 2)),
    }
    for stem, degrees in expected.items():
        path = _fixture_path(stem)
        data = yaml.safe_load(path.read_text(encoding="utf-8"))
        decomposition, setup, ring = _run_fixture(data, path.parent)
        assert decomposition.degrees == degrees, (stem, decomposition.degrees)
        assert decomposition.ambient_degree == 4
        assert decomposition.conserved
        assert _undecomposed_check(data, decomposition, setup, ring) is not False
        if stem == "double_line_split_single":
            coarse = _coarse_section(data, setup.d, path.parent)
            assert (coarse["main_degree"], coarse["residual_degree"]) == (1, 3)


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
    if args.selftest:
        return run_selftest()
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (EngineError, ValueError, KeyError, OSError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
