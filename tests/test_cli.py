"""Tests for the command-line interface."""

from __future__ import annotations

import ast
import csv
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from schubres import cli, residual
from schubres.bundles import sym_ustar
from schubres.chow import GrassContext
from schubres.cli import main, _parse_pieces
from schubres.limits import DegenerationSpec, decompose_degeneration, fano_family
from schubres.residual import IntersectionSetup, regular_decompose
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
    assert parse_poly(ctx.spec, payload["class"]) == fano_family(ctx, 5)[0]


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


def test_decompose_divisor_mode_sees_wrong_binomial_weights(monkeypatch, capsys) -> None:
    # The divisor-mode ambient total is the residual intersection formula,
    # not the components' own sum, so components with the weights C(d-i, j)
    # in place of C(d-1-i, j) do not conserve.
    monkeypatch.setattr(residual, "comb", lambda n, j: math.comb(n + 1, j))
    code, out = run(capsys, ["decompose", "double-line-split-single"])
    assert code == 1
    assert "conserved: NO" in out.splitlines()


def test_degenerate_sees_wrong_binomial_weights(monkeypatch, capsys) -> None:
    # The regular evaluator's ambient total is c_d(N), read off the Chern
    # class rather than summed from the components, so adjuncts with the
    # weights C(d-i, j) in place of C(d-1-i, j) do not conserve: not in the
    # decomposition, not in the degeneration report, not at the CLI.
    ctx = GrassContext(1, 4)
    ambient = sym_ustar(ctx, 5)
    setup = IntersectionSetup(cN=ambient.total_chern, d=ambient.rank)
    N1, N2 = sym_ustar(ctx, 1, 4), sym_ustar(ctx, 1, 1)
    assert setup.d - N1.rank - N2.rank >= 0
    monkeypatch.setattr(residual, "comb", lambda n, j: math.comb(n + 1, j))
    assert not regular_decompose(setup, N1, N2, N1.chern(N1.rank), N2.chern(N2.rank)).conserved
    assert not decompose_degeneration(DegenerationSpec(ctx, ((1, 4), (1, 1)))).conserved
    code, out = run(capsys, ["degenerate", "-r", "1", "-n", "4", "1x4+1x1"])
    assert code == 1
    assert "conserved: NO" in out.splitlines()


def test_every_shipped_fixture_is_replayed() -> None:
    # --selftest and the benchmark replay the fixtures named in the literal
    # ``expected`` table of cli._check_fixtures; a fixture shipped without a
    # row there would go unchecked.
    tree = ast.parse(textwrap.dedent(inspect.getsource(cli._check_fixtures)))
    tables = [
        ast.literal_eval(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["expected"]
    ]
    assert len(tables) == 1
    data = Path(cli.__file__).parent / "data"
    assert set(tables[0]) == {path.stem for path in data.glob("*.yaml")}


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


def test_decompose_requires_dim_to_be_the_top_degree(tmp_path, capsys) -> None:
    fixture = """
name: wrong-dim
mode: divisor
ring: blowup_p2
dim: {dim}
codim: 2
normal_chern: "1 + 4*h + 4*P"
divisor_class: "2*e"
residual_segre: "0"
"""
    path = tmp_path / "case.yaml"
    for dim in (1, 3):
        path.write_text(fixture.format(dim=dim), encoding="utf-8")
        assert main(["decompose", str(path)]) == 2, dim
        assert "top degree 2" in capsys.readouterr().err, dim
    path.write_text(fixture.format(dim=2), encoding="utf-8")
    assert main(["decompose", str(path)]) == 0
    capsys.readouterr()


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


_DIVISOR_FIXTURE = """
mode: divisor
ring: blowup_p2
dim: 2
codim: 2
normal_chern: "1 + 4*h + 4*P"
divisor_class: "e"
residual_segre: "e + P"
"""


# The blown-up plane as a ring file, its pushforward target a builtin.
_RING_FILE = """
basis: ["1", h, e, P]
degrees: [0, 1, 1, 2]
products: {h*h: P, e*e: -P}
integral: {P: 1}
pushforward:
  target: p2
  map: {"1": "1", h: h, e: "0", P: h2}
"""


_COARSE = """coarse:
  ring: p2
  normal_chern: "1 + 4*h + 4*h2"
  segre: "h2"
  total: "4*h2"
"""


_LABELS = "fixture key 'labels'"


@pytest.mark.parametrize(
    "text, argv, message",
    [
        pytest.param(_DIVISOR_FIXTURE + "labels: [A]\n", [], _LABELS, id="one-label"),
        pytest.param(_DIVISOR_FIXTURE + "labels: 5\n", [], _LABELS, id="int-labels"),
        pytest.param(_DIVISOR_FIXTURE + "labels: AB\n", [], _LABELS, id="str-labels"),
        pytest.param(_DIVISOR_FIXTURE + "labels: [A, B, C]\n", [], _LABELS, id="three-labels"),
        pytest.param(_DIVISOR_FIXTURE + "labels: [1, 2]\n", [], _LABELS, id="int-label-items"),
        pytest.param(
            _DIVISOR_FIXTURE + "coarse: 5\n", ["--coarse"], "fixture key 'coarse'", id="int-coarse"
        ),
        pytest.param(
            _DIVISOR_FIXTURE + _COARSE.replace("p2", "p3"), ["--coarse"],
            "fixture key 'dim' is 2, but coarse ring 'p3' has top degree 3", id="coarse-dim",
        ),
        pytest.param("- ring\n- blowup_p2\n", [], "must be a mapping", id="list-file"),
        pytest.param("7\n", [], "must be a mapping", id="scalar-file"),
        pytest.param("", [], "must be a mapping", id="empty-file"),
    ],
)
def test_decompose_rejects_malformed_fixtures(tmp_path, capsys, text, argv, message) -> None:
    # Bad input exits 2 with a message, never 1 ("not conserved") and never
    # with a traceback; labels are never split or truncated silently.
    path = tmp_path / "case.yaml"
    path.write_text(text, encoding="utf-8")
    assert main(["decompose", str(path), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err


@pytest.mark.parametrize(
    "old, new, message",
    [
        pytest.param(
            "{h*h: P, e*e: -P}", "[h]", "key 'products' must be a mapping", id="products"
        ),
        pytest.param("{P: 1}", "5", "key 'integral' must be a mapping", id="integral"),
        pytest.param(
            '{"1": "1", h: h, e: "0", P: h2}', "[h]", "key 'map' must be a mapping", id="map"
        ),
        pytest.param('["1", h, e, P]', "5", "key 'basis' must be a list", id="basis"),
        pytest.param("[0, 1, 1, 2]", "5", "key 'degrees' must be a list", id="degrees"),
        pytest.param(
            "P: h2}", "P: q}", "pushforward of 'P' names label 'q', which ring 'p2' lacks",
            id="map-target-label",
        ),
    ],
)
def test_decompose_rejects_malformed_ring_files(tmp_path, capsys, old, new, message) -> None:
    # A ring file block of the wrong shape, or a label the ring lacks, is
    # bad input: exit 2 and one line naming it, never a traceback.
    assert _RING_FILE.count(old) == 1
    (tmp_path / "ring.yaml").write_text(_RING_FILE.replace(old, new), encoding="utf-8")
    path = tmp_path / "case.yaml"
    path.write_text(_DIVISOR_FIXTURE.replace("blowup_p2", "ring.yaml"), encoding="utf-8")
    assert main(["decompose", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


_SYMMETRIC_FIXTURE = """
mode: symmetric
ring: blowup_p2
dim: 2
codim: 2
normal_chern: "1 + 4*h + 4*P"
first: "e"
"""


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(
            _SYMMETRIC_FIXTURE, "error: fixture 'case.yaml' lacks key 'second'\n", id="no-second"
        ),
        pytest.param(
            _SYMMETRIC_FIXTURE + 'second: "q"\n',
            "error: no basis label 'q' in ring 'blowup_p2'\n",
            id="unknown-label",
        ),
        pytest.param(
            _DIVISOR_FIXTURE.replace("codim: 2\n", ""),
            "error: fixture 'case.yaml' lacks key 'codim'\n",
            id="no-codim",
        ),
        pytest.param(
            _DIVISOR_FIXTURE + "coarse: {ring: blowup_p2}\n",
            "error: fixture key 'coarse' lacks key 'normal_chern'\n",
            id="coarse-without-normal-chern",
        ),
        pytest.param("ring: [\n", "is not valid YAML", id="bad-yaml"),
        pytest.param(
            _DIVISOR_FIXTURE + 'total_segr: "2*e + 4*P"\n',
            "error: fixture 'case.yaml' has unknown key 'total_segr'\n",
            id="misspelt-total-segre",
        ),
        pytest.param(
            _DIVISOR_FIXTURE + "label: [A, B]\n",
            "error: fixture 'case.yaml' has unknown key 'label'\n",
            id="misspelt-labels",
        ),
        pytest.param(
            _SYMMETRIC_FIXTURE + 'second: "e"\ndivisor_class: "e"\n',
            "error: fixture 'case.yaml' has unknown key 'divisor_class'\n",
            id="divisor-key-in-symmetric",
        ),
        pytest.param(
            _DIVISOR_FIXTURE + _COARSE + "  sgre: h2\n",
            "error: fixture key 'coarse' has unknown key 'sgre'\n",
            id="unknown-coarse-key",
        ),
        # s(D,V) is computed from divisor_class, so a second source is refused.
        pytest.param(
            _DIVISOR_FIXTURE + 'divisor_segre: "e + 5*P"\n',
            "error: fixture 'case.yaml' has unknown key 'divisor_segre'\n",
            id="divisor-segre-key",
        ),
    ],
)
def test_fixture_errors_name_what_is_wrong(tmp_path, capsys, text, message) -> None:
    # A missing key is named, and a message is printed as itself, not as
    # the repr of a KeyError.
    path = tmp_path / "case.yaml"
    path.write_text(text, encoding="utf-8")
    assert main(["decompose", str(path), "--coarse"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err


def test_unread_keys_are_refused_without_coarse(tmp_path, capsys) -> None:
    # A coarse section is checked even when --coarse is not given, and a
    # ring file's pushforward block is checked like the ring itself.
    path = tmp_path / "case.yaml"
    path.write_text(_DIVISOR_FIXTURE + _COARSE + "  sgre: h2\n", encoding="utf-8")
    assert main(["decompose", str(path)]) == 2
    assert capsys.readouterr().err == "error: fixture key 'coarse' has unknown key 'sgre'\n"
    ring = _RING_FILE
    path.write_text(_SYMMETRIC_FIXTURE.replace("blowup_p2", "ring.yaml") + 'second: "e"\n')
    (tmp_path / "ring.yaml").write_text(ring + "  maps: {}\n", encoding="utf-8")
    assert main(["decompose", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: pushforward of ring ") and "has unknown key 'maps'" in err
    (tmp_path / "ring.yaml").write_text(ring, encoding="utf-8")
    assert main(["decompose", str(path)]) == 0


@pytest.mark.parametrize("total_segre, ok", [("2*e + 4*P", True), ("2*e + 3*P", False)])
def test_decompose_checks_the_recorded_total_segre(tmp_path, capsys, total_segre, ok) -> None:
    # The components conserve either way; a ``total_segre`` whose main term
    # is not the FKLM total fails the undecomposed check, and exits 1.
    path = tmp_path / "case.yaml"
    path.write_text(_DIVISOR_FIXTURE + f'total_segre: "{total_segre}"\n', encoding="utf-8")
    code, out = run(capsys, ["decompose", str(path)])
    assert code == (0 if ok else 1)
    lines = out.splitlines()
    assert "conserved: yes" in lines
    assert f"undecomposed check: {'ok' if ok else 'FAIL'}" in lines
    code, out = run(capsys, ["decompose", str(path), "--format", "json"])
    assert code == (0 if ok else 1)
    payload = json.loads(out)
    assert payload["conserved"] is True
    assert payload["undecomposed_ok"] is ok


def test_readme_fixture_example_runs(tmp_path, capsys) -> None:
    # The fixture example in README.md is the shipped double_line_split_single.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("**Decomposition fixtures**", 1)[1]
    example = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "example.yaml"
    path.write_text(example, encoding="utf-8")
    code, out = run(capsys, ["decompose", str(path), "--coarse", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    degrees = [[c[f"{kind}_degree"] for kind in ("main", "adjunct", "total")]
               for c in payload["components"]]
    assert degrees == [[1, 1, 2], [1, 1, 2]]
    assert payload["ambient"]["degree"] == 4
    assert payload["undecomposed_ok"] is True
    assert (payload["coarse"]["main_degree"], payload["coarse"]["residual_degree"]) == (1, 3)
    shipped = ["decompose", "double_line_split_single", "--coarse", "--format", "json"]
    assert run(capsys, shipped) == (0, out)


@pytest.mark.parametrize(
    "argv, status",
    [
        pytest.param(["fano", "-r", "1", "-n", "4", "-d", "5"], 141, id="small-output"),
        pytest.param(
            ["degenerate", "-r", "2", "-n", "7", "--all", "-d", "4", "--format", "json"],
            141,
            id="large-output",
        ),
        pytest.param(["--selftest"], 141, id="selftest"),
        pytest.param(["decompose", "no-such-fixture"], 2, id="missing-fixture"),
        pytest.param(["fano", "-r", "1", "-n", "3", "-d", "3", "--output", "."], 2, id="output"),
    ],
)
def test_closed_stdout_is_not_bad_input(tmp_path, argv, status) -> None:
    # The reader of stdout is gone before anything is written: a small
    # output fails at the final flush, a large one inside print.  That exits
    # 141 (128 + SIGPIPE) in silence; bad input still exits 2 with a message.
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src)] + [entry for entry in [os.environ.get("PYTHONPATH")] if entry]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "schubres", *argv], cwd=tmp_path, env=env,
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.returncode == status, done.stderr
    if status == 141:
        assert done.stderr == ""
    else:
        assert done.stderr.startswith("error: ")


_IDENTITIES = "schubres.identities"


@pytest.mark.parametrize(
    "argv, absent, present",
    [
        pytest.param(
            ["fano", "-r", "1", "-n", "3", "-d", "3"], ("yaml", _IDENTITIES), (), id="fano"
        ),
        pytest.param(
            ["degenerate", "-r", "1", "-n", "3", "--all", "-d", "3"], ("yaml", _IDENTITIES), (),
            id="degenerate",
        ),
        pytest.param(["verify", "-r", "2", "-n", "5"], ("yaml",), (), id="verify"),
        pytest.param(
            ["decompose", "double-line-symmetric"],
            ("schubres.limits", _IDENTITIES, "schubres.bundles"), ("yaml",), id="decompose",
        ),
        pytest.param(None, (), (), id="bare-import"),
    ],
)
def test_each_command_imports_only_its_layers(argv, absent, present) -> None:
    # A fresh interpreter runs one command, or only ``import schubres``, and
    # lists the modules it loaded.  No command loads ``dataclasses`` or
    # ``inspect``; ``yaml`` is imported only where a YAML file is read; a
    # bare import loads no submodule, since the package exports lazily.
    import schubres

    if argv is None:
        absent = [f"schubres.{info.name}" for info in pkgutil.iter_modules(schubres.__path__)]
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src)] + [entry for entry in [os.environ.get("PYTHONPATH")] if entry]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    script = "import sys\nimport schubres\n"
    if argv is not None:
        script += f"from schubres.cli import main\nassert main({argv!r}) == 0\n"
    script += "print(' '.join(sorted(sys.modules)))\n"
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.splitlines()[-1].split())
    assert "schubres" in loaded
    assert sorted(loaded & {"dataclasses", "inspect", *absent}) == []
    assert sorted(set(present) - loaded) == []


def _json(payload: dict) -> str:
    """The bytes the CLI writes for a JSON payload: two-space indent, keys in
    the order given, one trailing newline."""
    return json.dumps(payload, indent=2) + "\n"


def _piece(label, k, e, classes, degrees) -> dict:
    """One piece of a frozen degeneration payload, keys in output order."""
    return {
        "label": label, "k": k, "e": e,
        **{f"{kind}_class": cls for kind, cls in zip(("main", "adjunct", "total"), classes)},
        **{f"{kind}_degree": deg for kind, deg in zip(("main", "adjunct", "total"), degrees)},
    }


_CUBIC_SURFACE = {"r": 1, "n": 3, "d": 3}
_CUBIC_SURFACE_AMBIENT = {"class": "18*x^2*y + 9*y^2", "degree": 27}

# Rendered output frozen as literal text, so that a change to any table,
# JSON or CSV layout shows here.
FROZEN_OUTPUT = [
    (
        ["fano", "-r", "1", "-n", "3", "-d", "3"],
        "context: 1-planes in P^3 (G(1, 3), dimension 4)\n"
        "hypersurface degree: 3\n"
        "class: 18*x^2*y + 9*y^2\n"
        "count: 27\n",
    ),
    (
        ["fano", "-r", "1", "-n", "3", "-d", "3", "--format", "json"],
        _json({
            "context": _CUBIC_SURFACE, "class": "18*x^2*y + 9*y^2", "count": 27,
            "family_dimension": 0, "pairing": None,
        }),
    ),
    (
        # A positive-dimensional family has no count until it is paired.
        ["fano", "-r", "1", "-n", "3", "-d", "2"],
        "context: 1-planes in P^3 (G(1, 3), dimension 4)\n"
        "hypersurface degree: 2\n"
        "class: 4*x*y\n"
        "count: - (family of dimension 1; supply --pair with a partition of that size)\n",
    ),
    (
        ["fano", "-r", "1", "-n", "3", "-d", "2", "--format", "json"],
        _json({
            "context": {"r": 1, "n": 3, "d": 2}, "class": "4*x*y", "count": None,
            "family_dimension": 1, "pairing": None,
        }),
    ),
    (
        ["fano", "-r", "1", "-n", "3", "-d", "2", "--pair", "1"],
        "context: 1-planes in P^3 (G(1, 3), dimension 4)\n"
        "hypersurface degree: 2\n"
        "class: 4*x*y\n"
        "paired count: 4\n",
    ),
    (
        ["fano", "-r", "1", "-n", "3", "-d", "2", "--pair", "1", "--format", "json"],
        _json({
            "context": {"r": 1, "n": 3, "d": 2}, "class": "4*x*y", "count": 4,
            "family_dimension": 1, "pairing": [1],
        }),
    ),
    (
        ["verify", "-r", "2", "-n", "5"],
        "conservation identity on G(2, 5) for piece degrees k + l <= 4\n"
        "k=1 l=1: ok\n"
        "k=1 l=2: ok\n"
        "k=1 l=3: ok\n"
        "k=2 l=1: ok\n"
        "k=2 l=2: ok\n"
        "k=3 l=1: ok\n"
        "6 of 6 cases ok\n",
    ),
    (
        ["verify", "-r", "2", "-n", "5", "--format", "json"],
        _json({
            "context": {"r": 2, "n": 5},
            "max_degree": 4,
            "cases": [
                {"k": k, "l": l, "ok": True}
                for k, l in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1))
            ],
            "all_ok": True,
        }),
    ),
    (
        ["degenerate", "-r", "1", "-n", "3", "--all", "-d", "3", "--format", "json"],
        _json({
            "context": _CUBIC_SURFACE,
            "cases": [
                {
                    "context": _CUBIC_SURFACE,
                    "pieces": [
                        _piece("X1^2", 1, 2,
                               ("12*x^2*y + 24*y^2", "-12*y^2", "12*x^2*y + 12*y^2"),
                               (36, -12, 24)),
                        _piece("X1", 1, 1,
                               ("6*x^2*y + 9*y^2", "-12*y^2", "6*x^2*y - 3*y^2"),
                               (15, -12, 3)),
                    ],
                    "ambient": _CUBIC_SURFACE_AMBIENT,
                    "conserved": True,
                },
                {
                    "context": _CUBIC_SURFACE,
                    "pieces": [
                        _piece("X2", 2, 1, ("12*x^2*y", "0", "12*x^2*y"), (12, 0, 12)),
                        _piece("X1", 1, 1,
                               ("6*x^2*y + 9*y^2", "0", "6*x^2*y + 9*y^2"),
                               (15, 0, 15)),
                    ],
                    "ambient": _CUBIC_SURFACE_AMBIENT,
                    "conserved": True,
                },
            ],
        }),
    ),
    (
        ["decompose", "double_line_split_whole", "--format", "json"],
        _json({
            "fixture": "double-line-split-whole",
            "mode": "divisor",
            "ring": "blowup_p2",
            "components": [
                {
                    "label": "2E", "main_class": "4*P", "adjunct_class": "0",
                    "total_class": "4*P", "main_degree": 4, "adjunct_degree": 0,
                    "total_degree": 4,
                },
                {
                    "label": "R", "main_class": "0", "adjunct_class": "0",
                    "total_class": "0", "main_degree": 0, "adjunct_degree": 0,
                    "total_degree": 0,
                },
            ],
            "ambient": {"class": "4*P", "degree": 4},
            "conserved": True,
            "undecomposed_ok": True,
            "coarse": None,
        }),
    ),
    (
        ["degenerate", "-r", "1", "-n", "4", "1x4+1x1"],
        "degeneration: X1^4 + X1  (degree 5 on G(1, 4))\n"
        "piece   main  adjunct  total\n"
        "X1^4   2,400      320  2,720\n"
        "X1     1,275   -1,120    155\n"
        "ambient total: 2,875\n"
        "conserved: yes\n",
    ),
    (
        ["degenerate", "-r", "1", "-n", "4", "1x4+1x1", "--format", "csv"],
        "case,label,k,e,main_degree,adjunct_degree,total_degree,"
        "main_class,adjunct_class,total_class\n"
        "X1^4 + X1,X1^4,1,4,2400,320,2720,480*x^4*y + 2160*x^2*y^2 - 720*y^3,"
        "-640*x^2*y^2 + 960*y^3,480*x^4*y + 1520*x^2*y^2 + 240*y^3\n"
        "X1^4 + X1,X1,1,1,1275,-1120,155,120*x^4*y + 810*x^2*y^2 + 225*y^3,"
        "-880*x^2*y^2 - 240*y^3,120*x^4*y - 70*x^2*y^2 - 15*y^3\n"
        "X1^4 + X1,ambient,,,,,2875,,,600*x^4*y + 1450*x^2*y^2 + 225*y^3\n",
    ),
    (
        # A positive-dimensional family: the cells hold classes, not degrees.
        ["degenerate", "-r", "1", "-n", "3", "1+1x1"],
        "degeneration: X1 + X1  (degree 2 on G(1, 3))\n"
        "piece   main  adjunct  total\n"
        "X1     2*x*y        0  2*x*y\n"
        "X1     2*x*y        0  2*x*y\n"
        "ambient total: 4*x*y\n"
        "conserved: yes\n",
    ),
    (
        ["decompose", "double-line-split-single", "--coarse"],
        "fixture: double-line-split-single (divisor mode, ring blowup_p2)\n"
        "component  main  adjunct  total\n"
        "E1            1        1      2\n"
        "E2            1        1      2\n"
        "ambient: 4\n"
        "classes:\n"
        "  E1: main P, adjunct P, total 2*P\n"
        "  E2: main P, adjunct P, total 2*P\n"
        "  ambient 4*P\n"
        "conserved: yes\n"
        "undecomposed check: ok\n"
        "coarse main term: h2 (degree 1)\n"
        "coarse residual degree: 3\n",
    ),
    (
        ["decompose", "double_line_symmetric", "--format", "csv"],
        "case,label,k,e,main_degree,adjunct_degree,total_degree,"
        "main_class,adjunct_class,total_class\n"
        "double-line-symmetric,E1,,,1,1,2,h2,h2,2*h2\n"
        "double-line-symmetric,E2,,,1,1,2,h2,h2,2*h2\n"
        "double-line-symmetric,ambient,,,,,4,,,4*h2\n",
    ),
]


@pytest.mark.parametrize("argv, text", FROZEN_OUTPUT, ids=lambda v: " ".join(v)[:48])
def test_rendered_output_is_frozen(capsys, argv, text) -> None:
    assert run(capsys, argv) == (0, text)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["-d", "5", "1x4+1x1", "--all"], "give either a piece list or --all, not both"),
        (["--all"], "--all needs --degree"),
        ([], "give a piece list like '1x4+1x1' or use --all --degree D"),
        (["-d", "5", "7x9+1"], "pieces have total degree 64, which contradicts --degree 5"),
    ],
)
def test_degenerate_usage_conflicts_are_one_error_line(capsys, argv, message) -> None:
    code = main(["degenerate", "-r", "1", "-n", "4", *argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


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


def test_selftest_fails_under_optimized_python() -> None:
    # ``python -O`` strips ``assert``; the selftest checks must still fail on
    # a wrong frozen value.
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src)] + [entry for entry in [os.environ.get("PYTHONPATH")] if entry]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    script = (
        "import sys\n"
        "from schubres import cli\n"
        "(pieces, ((main, adjunct, total), *rows)), *cases = cli.QUINTIC_CASES\n"
        "wrong = ((main + 1, adjunct, total + 1), *rows)\n"
        "cli.QUINTIC_CASES = ((pieces, wrong), *cases)\n"
        "sys.exit(cli.main(['--selftest']))\n"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 1, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-1] == "selftest: 1 of 6 checks FAILED"
    (failed,) = [line for line in lines if ": FAIL (" in line]
    assert failed.startswith("selftest: quintic threefold table: FAIL (pieces ")
    assert ", want " in failed


def test_source_has_no_assert_statements() -> None:
    # ``python -O`` strips ``assert``, so no check in the package may be one.
    src = Path(__file__).resolve().parents[1] / "src" / "schubres"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_commands_compute_and_only_main_writes() -> None:
    # Each ``cmd_*`` returns its status, payload, table and CSV cases, and
    # ``main`` alone picks the format and writes.  No command, nor any
    # function of ``cli`` it calls, may print, write a file or read
    # ``--format`` or ``--output``.
    tree = ast.parse(Path(cli.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    pending = [name for name in functions if name.startswith("cmd_")]
    assert len(pending) == 4
    seen, found = set(), []
    while pending:
        name = pending.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            where = f"{name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id == "print":
                    found.append(f"{where} print")
                if node.func.id in functions:
                    pending.append(node.func.id)
            if isinstance(node, ast.Attribute) and node.attr == "write_text":
                found.append(f"{where} write_text")
            if isinstance(node, ast.Attribute) and node.attr in ("format", "output"):
                found.append(f"{where} .{node.attr}")
            if isinstance(node, ast.Constant) and node.value in ("format", "output"):
                found.append(f"{where} {node.value!r}")
    assert found == []


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
