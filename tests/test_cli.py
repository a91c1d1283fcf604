"""Tests for the command-line interface."""

from __future__ import annotations

import csv
import importlib
import io
import json
import pkgutil
import re

import pytest

from schubres.bundles import sym_ustar
from schubres.chow import GrassContext
from schubres.cli import main, _parse_pieces
from schubres.limits import fano_class
from schubres.symfunc import GradedPoly, parse_poly


def run(capsys, argv: list[str]) -> tuple[int, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_fano_json_reports_classical_count(capsys) -> None:
    code, out = run(capsys, ["fano", "-r", "1", "-n", "4", "-d", "5", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2875
    assert payload["context"] == {"r": 1, "n": 4, "d": 5}
    ctx = GrassContext(1, 4)
    assert parse_poly(ctx.spec, payload["class"]) == fano_class(ctx, 5)


def test_fano_table_with_pairing(capsys) -> None:
    code, out = run(capsys, ["fano", "-r", "1", "-n", "3", "-d", "2", "--pair", "1"])
    assert code == 0
    assert "paired count: 4" in out


def test_fano_positive_dimensional_family_without_pairing(capsys) -> None:
    code, out = run(capsys, ["fano", "-r", "1", "-n", "3", "-d", "2"])
    assert code == 0
    assert "family of dimension 1" in out


def test_degenerate_table_quintic_case(capsys) -> None:
    code, out = run(capsys, ["degenerate", "-r", "1", "-n", "4", "1x4+1x1"])
    assert code == 0
    assert "X1^4" in out
    assert "2,720" in out
    assert "155" in out
    assert "conserved: yes" in out


def test_degenerate_json_round_trips_classes(capsys) -> None:
    code, out = run(
        capsys,
        ["degenerate", "-r", "1", "-n", "4", "1x4+1x1", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["context"] == {"r": 1, "n": 4, "d": 5}
    labels = [piece["label"] for piece in payload["pieces"]]
    assert labels == ["X1^4", "X1"]
    triples = [
        (piece["main_degree"], piece["adjunct_degree"], piece["total_degree"])
        for piece in payload["pieces"]
    ]
    assert triples == [(2400, 320, 2720), (1275, -1120, 155)]
    assert payload["ambient"]["degree"] == 2875
    assert payload["conserved"] is True
    ctx = GrassContext(1, 4)
    total = sum(
        (parse_poly(ctx.spec, piece["total_class"]) for piece in payload["pieces"]),
        start=parse_poly(ctx.spec, "0"),
    )
    assert total == parse_poly(ctx.spec, payload["ambient"]["class"])


def test_degenerate_quartic_spec_example(capsys) -> None:
    code, out = run(
        capsys,
        ["degenerate", "-r", "2", "-n", "7", "1x2+2x1", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    totals = [piece["total_degree"] for piece in payload["pieces"]]
    assert totals == [3_207_680, 89_600]
    assert payload["ambient"]["degree"] == 3_297_280


def test_degenerate_csv_output(capsys) -> None:
    code, out = run(
        capsys,
        ["degenerate", "-r", "1", "-n", "3", "1+1x2", "--format", "csv"],
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["label"] for row in rows] == ["X1", "X1^2", "ambient"]
    assert rows[0]["total_degree"] == "3"
    assert rows[1]["total_degree"] == "24"
    assert rows[2]["total_degree"] == "27"


def test_degenerate_all_enumerates_every_case(capsys) -> None:
    code, out = run(
        capsys,
        ["degenerate", "-r", "1", "-n", "4", "--all", "-d", "5", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["cases"]) == 7
    assert all(case["conserved"] for case in payload["cases"])
    assert {case["ambient"]["degree"] for case in payload["cases"]} == {2875}


def test_degenerate_all_json_shape_follows_the_flag(capsys) -> None:
    # One degeneration of degree 2 still prints the case list under --all.
    code, out = run(
        capsys,
        ["degenerate", "-r", "1", "-n", "3", "--all", "-d", "2", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"context", "cases"}
    assert payload["context"] == {"r": 1, "n": 3, "d": 2}
    assert [case["conserved"] for case in payload["cases"]] == [True]


def test_fano_refuses_a_pairing_it_cannot_use(capsys) -> None:
    for argv, message in (
        (["fano", "-r", "1", "-n", "3", "-d", "3", "--pair", "1"], "must have size 0, got 1"),
        (["fano", "-r", "1", "-n", "4", "-d", "2", "--pair", "1,1,1"], "does not fit"),
        (["degenerate", "-r", "1", "-n", "3", "1+2", "--pair", "1"], "must have size 0"),
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert message in captured.err, argv


def test_fano_looks_up_its_bundle_once(monkeypatch, capsys) -> None:
    # Class, family dimension and count come from one Sym^d U* lookup: from
    # a cleared cache one miss, and one degree_part for c_top plus one in
    # integrate.
    calls = []
    degree_part = GradedPoly.degree_part

    def counted(self, d):
        calls.append(d)
        return degree_part(self, d)

    monkeypatch.setattr(GradedPoly, "degree_part", counted)
    sym_ustar.cache_clear()
    code, out = run(capsys, ["fano", "-r", "3", "-n", "8", "-d", "3"])
    assert code == 0
    assert "count: 321,489" in out
    info = sym_ustar.cache_info()
    assert info.misses == 1
    assert info.hits <= 1
    assert len(calls) == 2


def test_degenerate_with_pairing(capsys) -> None:
    code, out = run(
        capsys,
        ["degenerate", "-r", "1", "-n", "3", "1+1", "--pair", "1", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert [piece["total_degree"] for piece in payload["pieces"]] == [2, 2]
    assert payload["ambient"]["degree"] == 4


def test_verify_grid(capsys) -> None:
    code, out = run(
        capsys,
        ["verify", "-r", "1", "-n", "4", "--max-degree", "4", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_ok"] is True
    assert len(payload["cases"]) == 6


def test_decompose_shipped_fixtures(capsys) -> None:
    for name, degrees in (
        ("double-line-split-single", [(1, 1, 2), (1, 1, 2)]),
        ("double_line_split_whole", [(4, 0, 4), (0, 0, 0)]),
        ("double_line_symmetric", [(1, 1, 2), (1, 1, 2)]),
    ):
        code, out = run(capsys, ["decompose", name, "--format", "json"])
        assert code == 0, name
        payload = json.loads(out)
        got = [
            (c["main_degree"], c["adjunct_degree"], c["total_degree"])
            for c in payload["components"]
        ]
        assert got == degrees, name
        assert payload["ambient"]["degree"] == 4
        assert payload["conserved"] is True
        assert payload["undecomposed_ok"] is True


def test_decompose_coarse_section(capsys) -> None:
    code, out = run(
        capsys,
        ["decompose", "double-line-split-single", "--coarse", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["coarse"]["main_degree"] == 1
    assert payload["coarse"]["residual_degree"] == 3


def test_decompose_fixture_from_file(tmp_path, capsys) -> None:
    fixture = tmp_path / "case.yaml"
    fixture.write_text(
        """
name: transverse-check
mode: divisor
ring: blowup_p2
dim: 2
codim: 2
normal_chern: "1 + 4*h + 4*P"
divisor_class: "2*e"
divisor_segre: "2*e + 4*P"
residual_segre: "0"
""",
        encoding="utf-8",
    )
    code, out = run(capsys, ["decompose", str(fixture), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["fixture"] == "transverse-check"
    assert payload["undecomposed_ok"] is None


def test_decompose_rejects_non_integer_inputs(tmp_path, capsys) -> None:
    fixture = """
name: non-integer
mode: divisor
ring: {ring}
dim: {dim}
codim: {codim}
normal_chern: "1 + 4*h + 4*P"
divisor_class: "2*e"
divisor_segre: "2*e + 4*P"
residual_segre: "0"
"""
    (tmp_path / "ring.yaml").write_text(
        """
basis: ["1", "h", "e", "P"]
degrees: [0, 1, 1, 2]
products: {"h*h": "P", "e*e": "-P"}
integral: {P: 1.5}
""",
        encoding="utf-8",
    )
    for values in (
        {"ring": "blowup_p2", "dim": 2, "codim": 1.5},
        {"ring": "blowup_p2", "dim": "true", "codim": 2},
        {"ring": "ring.yaml", "dim": 2, "codim": 2},
    ):
        path = tmp_path / "case.yaml"
        path.write_text(fixture.format(**values), encoding="utf-8")
        assert main(["decompose", str(path)]) == 2, values
        assert "integer" in capsys.readouterr().err, values


def test_decompose_rejects_unresolvable_rings(tmp_path, capsys) -> None:
    # A ring is a built-in name or a path; a {file: ...} mapping is neither,
    # even when the file it names is a valid ring.
    (tmp_path / "ring.yaml").write_text(
        """
basis: ["1", "h", "e", "P"]
degrees: [0, 1, 1, 2]
products: {"h*h": "P", "e*e": "-P"}
integral: {P: 1}
""",
        encoding="utf-8",
    )
    fixture = """
name: unresolvable
mode: divisor
ring: {ring}
dim: 2
codim: 2
normal_chern: "1 + 4*h + 4*P"
divisor_class: "2*e"
divisor_segre: "2*e + 4*P"
residual_segre: "0"
"""
    path = tmp_path / "case.yaml"
    path.write_text(fixture.format(ring="ring.yaml"), encoding="utf-8")
    assert main(["decompose", str(path)]) == 0
    capsys.readouterr()
    for ring in ("{file: ring.yaml}", "[ring.yaml]", "3"):
        path.write_text(fixture.format(ring=ring), encoding="utf-8")
        assert main(["decompose", str(path)]) == 2, ring
        assert "cannot resolve ring" in capsys.readouterr().err, ring


def test_output_file(tmp_path, capsys) -> None:
    target = tmp_path / "result.json"
    code, _ = run(
        capsys,
        ["fano", "-r", "1", "-n", "3", "-d", "3",
         "--format", "json", "--output", str(target)],
    )
    assert code == 0
    assert json.loads(target.read_text())["count"] == 27


def test_usage_errors_exit_2(capsys) -> None:
    assert main(["degenerate", "-r", "1", "-n", "4"]) == 2
    assert main(["degenerate", "-r", "1", "-n", "4", "--all"]) == 2
    assert main(["decompose", "no-such-fixture"]) == 2
    assert main(["decompose", "double_line_split_whole", "--coarse"]) == 2
    assert main(["degenerate", "-r", "1", "-n", "4", "-d", "5", "7x9+1"]) == 2
    assert main(["degenerate", "-r", "1", "-n", "4", "-d", "5", "1x4+1x1"]) == 0
    with pytest.raises(SystemExit) as info:
        main(["degenerate", "-r", "1", "-n", "4", "1x4"])
    assert info.value.code == 2
    capsys.readouterr()
    for argv, message in (
        (["fano", "-r", "1", "-n", "3", "-d", "-1"], "must be at least 1, got -1"),
        (["fano", "-r", "1", "-n", "3", "-d", "0"], "must be at least 1, got 0"),
        (["fano", "-r", "1", "-n", "3", "-d", "x"], "invalid int value"),
        (["verify", "-r", "1", "-n", "3", "--max-degree", "1"], "must be at least 2, got 1"),
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, argv
        assert message in capsys.readouterr().err, argv


def test_piece_parsing() -> None:
    assert _parse_pieces("1x4+1x1") == ((1, 4), (1, 1))
    assert _parse_pieces("3+2") == ((3, 1), (2, 1))
    assert _parse_pieces(" 1x2 + 2x1 ") == ((1, 2), (2, 1))
    import argparse

    for bad in ("5", "1x0+1", "0x2+1", "1x+1", "ax2+1", "1+1+1"):
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_pieces(bad)


def test_selftest_passes(capsys) -> None:
    code, out = run(capsys, ["--selftest"])
    assert code == 0
    assert "all 6 checks passed" in out
    checks = [line for line in out.splitlines() if line.endswith(" s)")]
    assert len(checks) == 6
    assert all(re.search(r": ok \(\d+\.\d\d s\)$", line) for line in checks)


def test_every_exported_name_resolves() -> None:
    # A name deleted from a module but left in an __all__ fails here.
    import schubres

    modules = [schubres] + [
        importlib.import_module(f"schubres.{info.name}")
        for info in pkgutil.iter_modules(schubres.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists {name!r}"


def test_no_command_prints_help(capsys) -> None:
    code, out = run(capsys, [])
    assert code == 2
    assert "usage:" in out
