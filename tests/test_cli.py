import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
from math import gcd
from pathlib import Path

import pytest

from logmut import (
    BiPoly,
    Certificate,
    datum_from_obj,
    datum_to_obj,
    format_bipoly,
    generic_wall_assignment,
    is_zero_mutable,
    legal_mutations,
    mutate,
    named,
    tom_datum,
    verify_certificate,
)
from logmut.cli import main
from logmut.render import MAX_LATTICE_POINTS

FIXED_POINT = {
    "edges": [
        {"e": [1, 0], "nu": [1]},
        {"e": [0, 2], "nu": [2]},
        {"e": [-1, -2], "nu": [1]},
    ]
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- datum resolution and validate ---------------------------------------------


def test_validate_named_datum(capsys):
    code, out, err = run(capsys, "validate", "Tom")
    assert code == 0 and err == ""
    assert "valid log datum with 3 edges" in out
    assert "rank: rank two" in out and "total length: 6" in out


def test_validate_json_output(capsys):
    code, out, _ = run(capsys, "validate", "An(1)", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["rank"] == "rank two"
    assert doc["total_length"] == 4
    assert doc["edges"][1] == {"e": [0, 2], "nu": [1, 1]}
    assert isinstance(doc["canonical_class"], str)


def test_validate_from_file_and_stdin(capsys, tmp_path, monkeypatch):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(FIXED_POINT))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0 and "3 edges" in out

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(FIXED_POINT)))
    code, out, _ = run(capsys, "validate", "-")
    assert code == 0 and "3 edges" in out


def test_validate_rejects_invalid_datum(capsys, tmp_path):
    path = tmp_path / "open.json"
    path.write_text(json.dumps({"edges": [{"e": [1, 0], "nu": [1]}]}))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2 and "error:" in err


def test_validate_rejects_inexact_numbers(capsys, monkeypatch):
    doc = {"edges": [{"e": [1.7, 0], "nu": [1.9]}, {"e": [-1, 0], "nu": [True]}]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, err = run(capsys, "validate", "-")
    assert code == 2 and out == "" and "error:" in err


def test_validate_rejects_ill_shaped_documents(capsys, monkeypatch):
    for doc in ('{"edges": 5}', '{"edges": null}', '{"name": "Tom", "edges": 5}',
                '{"name": 5}', "[]", "5"):
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, out, err = run(capsys, "validate", "-")
        assert (code, out) == (2, "") and err.startswith("error: "), doc


def test_validate_rejects_unknown_name_and_bad_json(capsys, tmp_path):
    for name in ("Spike", "An(3)\n", "An(\u0663)"):
        code, _, err = run(capsys, "validate", name)
        assert code == 1 and "neither a file nor a named datum" in err
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 1


def test_deeply_nested_json_exits_1_at_every_entry_point(capsys, tmp_path, monkeypatch):
    """JSON nested deeper than the parser's recursion limit is a parse error
    (exit 1) wherever a document is read, not a RecursionError traceback."""
    deep = "[" * 100_000 + "]" * 100_000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    monkeypatch.setattr("sys.stdin", io.StringIO(deep))
    for argv in (
        ("validate", str(path)),
        ("validate", "-"),
        ("enumerate", "--edges", str(path)),
        ("enumerate", "--edges", deep),
        ("report", "Tom", "--walls", str(path)),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv[:2]
        assert err.startswith("error: ") and "Traceback" not in err, argv[:2]


def test_unknown_name_in_a_datum_document_prints_its_message_bare(capsys, tmp_path, monkeypatch):
    """The KeyError of an unknown name reaches stderr without repr quotes,
    from stdin and from a file; exit 1."""
    expected = "error: unknown datum name 'Bob'; expected Tom, Jerry, or An(n)\n"
    monkeypatch.setattr("sys.stdin", io.StringIO('{"name": "Bob"}'))
    assert run(capsys, "validate", "-") == (1, "", expected)
    path = tmp_path / "bob.json"
    path.write_text('{"name": "Bob"}')
    assert run(capsys, "validate", str(path)) == (1, "", expected)


def test_validate_caps_an(capsys):
    code, out, _ = run(capsys, "validate", "An(1000000)", "--json")
    assert code == 0 and json.loads(out)["total_length"] == 10**6 + 3
    for name in ("An(1000001)", "An(100000000000000000000)", f"An({'9' * 5000})"):
        code, out, err = run(capsys, "validate", name)
        assert (code, out, err) == (2, "", "error: An(n) takes n <= 1000000\n")
    code, out, _ = run(capsys, "validate", "An(0000000000003)", "--json")
    assert code == 0 and json.loads(out)["total_length"] == 6


def test_rankless_datum_label(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"edges": []}))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0 and "rank: none (fewer than 2 edges)" in out


# --- mutate ---------------------------------------------------------------------


def test_mutate_default_part(capsys):
    code, out, _ = run(capsys, "mutate", "Tom", "--edge", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["edges"] == [
        {"e": [1, 0], "nu": [1]},
        {"e": [2, 2], "nu": [1, 1]},
        {"e": [-3, -2], "nu": [1]},
    ]


def test_mutate_part_value_matches_part_index(capsys):
    _, by_index, _ = run(capsys, "mutate", "Tom", "--edge", "1", "--part", "2", "--json")
    _, by_value, _ = run(
        capsys, "mutate", "Tom", "--edge", "1", "--part-value", "1", "--json"
    )
    assert json.loads(by_index) == json.loads(by_value)


def test_mutate_trace_lines(capsys):
    code, out, _ = run(capsys, "mutate", "An(0)", "--edge", "2", "--trace")
    assert code == 0
    assert "# (2b) edge 2 removed" in out
    argv = ["mutate", "Tom", "--edge", "1", "--part-value", "2", "--trace"]
    _, text, _ = run(capsys, *argv)
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    lines = [line[2:] for line in text.splitlines() if line.startswith("# ")]
    assert json.loads(out)["trace"] == lines == [
        "(1) edge 2 sheared: (0, 2) -> (2, 2)",
        "(2a) edge 1 shrinks to (1, 0), partition loses one part 2",
    ]


def test_mutate_illegal_exits_3(capsys, tmp_path):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(FIXED_POINT))
    code, _, err = run(capsys, "mutate", str(path), "--edge", "2", "--part", "1")
    assert code == 3 and "error:" in err
    code, _, err = run(capsys, "mutate", "Tom", "--edge", "9")
    assert code == 3 and "out of range" in err
    code, _, err = run(capsys, "mutate", "Tom", "--edge", "1", "--part-value", "7")
    assert code == 3 and "no part of value 7" in err


def test_mutate_rank_one_exits_2_before_any_index_check(capsys, tmp_path):
    path = tmp_path / "rank_one.json"
    path.write_text('{"edges":[{"e":[2,0],"nu":[2]},{"e":[-2,0],"nu":[2]}]}')
    for extra in (["--edge", "9"], ["--edge", "1", "--part-value", "5"], ["--edge", "1"]):
        code, out, err = run(capsys, "mutate", str(path), *extra)
        assert code == 2 and out == "" and "rank-two" in err, extra


def test_mutate_integer_options_take_ascii_digits_only(capsys):
    for extra in (
        ["--edge", "\u0661"],
        ["--edge", "1", "--part", "1_0"],
        ["--edge", " 1"],
        ["--edge", "1", "--part-value", "2 "],
        ["--edge", "+1"],
    ):
        code, out, err = run(capsys, "mutate", "Tom", *extra)
        assert (code, out) == (1, ""), extra
        assert "invalid integer" in err, extra


# --- decide ---------------------------------------------------------------------


def test_decide_yes_with_certificate_file(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(
        capsys, "decide", "Tom", "--certificate", str(cert_path), "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "Yes"
    assert len(doc["certificate"]["steps"]) == 3
    stored = Certificate.from_obj(json.loads(cert_path.read_text()))
    assert verify_certificate(tom_datum(), stored)


def test_decide_no_exits_4(capsys, tmp_path):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(FIXED_POINT))
    code, out, _ = run(capsys, "decide", str(path))
    assert code == 4 and "No: not zero-mutable" in out


def test_decide_unknown_exits_5(capsys):
    code, out, _ = run(capsys, "decide", "An(3)", "--max-depth", "1")
    assert code == 5 and "Unknown: search limits reached" in out


def test_negative_limits_exit_2(capsys):
    for command in (["decide", "Tom"], ["enumerate", "--edges", "[[3,0],[0,2],[-3,-2]]"]):
        for flag, value in (("--max-states", "-5"), ("--max-depth", "-1")):
            code, out, err = run(capsys, *command, flag, value)
            assert (code, out) == (2, ""), (command, flag)
            assert err == f"error: {flag} must be non-negative, got {value}\n"
    code, out, _ = run(capsys, "decide", "An(0)", "--max-depth", "0", "--max-states", "0")
    assert code == 5 and out.startswith("Unknown: search limits reached")  # zero is a limit


def test_decide_integer_options_take_ascii_digits_only(capsys):
    for flag, value in (
        ("--max-depth", " \u0663"),
        ("--max-depth", "\u0663"),
        ("--max-states", "1_000"),
        ("--max-depth", "3\n"),
        ("--max-depth", "3.0"),
    ):
        code, out, err = run(capsys, "decide", "Jerry", flag, value, "--json")
        assert (code, out) == (1, ""), (flag, value)
        assert f"argument {flag}: invalid integer" in err, (flag, value)
    code, out, _ = run(capsys, "decide", "Jerry", "--max-depth", "3", "--json")
    assert code == 5 and json.loads(out)["depth"] == 3


TOM_VERDICT = (
    '{"verdict": "Yes", "explored": 15, "depth": 3, "certificate": '
    '{"steps": [{"edge": 1, "part": 2}, {"edge": 2, "part": 1}, {"edge": 2, "part": 1}], '
    '"terminal": {"edges": [{"e": [1, 0], "nu": [1]}, {"e": [-1, 0], "nu": [1]}]}}}\n'
)


def test_decide_json_output_is_pinned(capsys):
    assert run(capsys, "decide", "Tom", "--json") == (0, TOM_VERDICT, "")


def test_verdict_document_keys_in_order():
    verdicts = (
        is_zero_mutable(tom_datum()),
        is_zero_mutable(datum_from_obj(FIXED_POINT)),
        is_zero_mutable(tom_datum(), max_depth=0),
    )
    assert [v.kind for v in verdicts] == ["yes", "no", "unknown"]
    for v in verdicts:
        assert list(v.to_obj()) == ["verdict", "explored", "depth", "certificate"]
    assert [v.to_obj()["certificate"] is None for v in verdicts] == [False, True, True]


def test_certificate_file_is_the_verdict_documents_certificate(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "decide", "Jerry", "--certificate", str(cert_path), "--json")
    assert code == 0
    written = json.loads(cert_path.read_text())
    assert written == json.loads(out)["certificate"]
    assert written == is_zero_mutable(named("Jerry")).to_obj()["certificate"]


def test_decide_human_output_lists_steps(capsys):
    code, out, _ = run(capsys, "decide", "An(1)")
    assert code == 0
    assert "Yes: zero-mutable in 2 steps" in out
    assert "step 1: edge 2, part 1" in out
    assert "terminal:" in out


# --- enumerate ------------------------------------------------------------------


def test_enumerate_json(capsys):
    code, out, _ = run(
        capsys,
        "enumerate",
        "--edges",
        "[[3,0],[0,2],[-3,-2]]",
        "--max-depth",
        "6",
        "--max-states",
        "5000",
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["results"]) == 6
    by_partitions = {
        tuple(tuple(p) for p in r["partitions"]): r for r in doc["results"]
    }
    tom = by_partitions[((2, 1), (1, 1), (1,))]
    assert tom["verdict"] == "Yes" and len(tom["certificate"]["steps"]) == 3


def test_enumerate_echoes_edges_in_partition_order(capsys):
    """The partitions are listed in counterclockwise edge order, so the
    echoed edges are too, whatever the input order."""
    argv = ("enumerate", "--edges", "[[0,2],[3,0],[-3,-2]]", "--max-depth", "2")
    code, out, _ = run(capsys, *argv, "--json")
    doc = json.loads(out)
    assert code == 0 and doc["edges"] == [[3, 0], [0, 2], [-3, -2]]
    assert doc["results"][0]["partitions"] == [[3], [2], [1]]
    for result in doc["results"]:
        for (x, y), part in zip(doc["edges"], result["partitions"]):
            assert sum(part) == gcd(x, y)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.splitlines()[0] == (
        "6 partition assignments over edges [(3, 0), (0, 2), (-3, -2)]: 0 zero-mutable"
    )


def test_enumerate_from_file(capsys, tmp_path):
    path = tmp_path / "edges.json"
    path.write_text("[[1,0],[-1,0]]")
    code, out, _ = run(capsys, "enumerate", "--edges", str(path))
    assert code == 0 and "1 partition assignments" in out


def test_enumerate_rejects_open_polygon(capsys):
    code, _, err = run(capsys, "enumerate", "--edges", "[[1,0],[0,1]]")
    assert code == 2 and "error:" in err


def test_enumerate_rejects_inexact_numbers(capsys):
    for edges in ("[[1.0,0],[-1,0]]", "[[true,0],[-1,0]]", '[["1",0],[-1,0]]'):
        code, out, err = run(capsys, "enumerate", "--edges", edges)
        assert code == 2 and out == "" and "not a pair of integers" in err


def test_enumerate_rejects_ill_shaped_edge_lists(capsys):
    for edges in ("[[1,0],5]", "7", '{"a":1}', '"ab"', "null", "[[1,0],[-1,0,0]]"):
        code, out, err = run(capsys, "enumerate", "--edges", edges)
        assert (code, out) == (2, "") and err.startswith("error: "), edges
    code, _, err = run(capsys, "enumerate", "--edges", '{"a":1}')
    assert "is not a JSON array" in err


# --- documents read back --------------------------------------------------------

# Every datum document the CLI prints is a datum document: `decide -` reads it
# back and answers as it does for the datum it describes.
ROUND_TRIP_NAMES = ["Tom", "Jerry"] + [f"An({n})" for n in range(6)]


def decide_stdin(capsys, monkeypatch, text, *flags):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    return run(capsys, "decide", "-", *flags)


@pytest.mark.parametrize("name", ROUND_TRIP_NAMES)
def test_validate_json_reads_back_through_decide(capsys, monkeypatch, name):
    code, out, _ = run(capsys, "validate", name, "--json")
    assert code == 0
    for flags in ([], ["--json"]):
        assert decide_stdin(capsys, monkeypatch, out, *flags) == run(
            capsys, "decide", name, *flags
        ), flags


@pytest.mark.parametrize("name", ROUND_TRIP_NAMES)
def test_mutate_json_reads_back_through_decide(capsys, monkeypatch, tmp_path, name):
    S = named(name)
    for j, k in legal_mutations(S):
        direct = tmp_path / f"mutated_{j}_{k}.json"
        direct.write_text(json.dumps(datum_to_obj(mutate(S, j, k))))
        for trace in ([], ["--trace"]):
            argv = ["mutate", name, "--edge", str(j), "--part", str(k), *trace, "--json"]
            code, out, _ = run(capsys, *argv)
            assert code == 0
            for flags in ([], ["--json"]):
                assert decide_stdin(capsys, monkeypatch, out, *flags) == run(
                    capsys, "decide", str(direct), *flags
                ), (argv, flags)


@pytest.mark.parametrize(
    "printer, source",
    [
        (["validate", "Tom", "--json"], tom_datum()),
        (["mutate", "Jerry", "--edge", "1", "--part", "1", "--trace", "--json"],
         mutate(named("Jerry"), 1, 1)),
    ],
    ids=["validate", "mutate"],
)
def test_printed_datum_pipes_into_decide(capsys, tmp_path, printer, source):
    """The document travels through a real pipe between two processes."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    cli = [sys.executable, "-m", "logmut.cli"]
    first = subprocess.Popen([*cli, *printer], stdout=subprocess.PIPE, env=env)
    second = subprocess.run(
        [*cli, "decide", "-", "--json"], stdin=first.stdout, capture_output=True,
        text=True, env=env,
    )
    first.stdout.close()
    assert first.wait() == 0
    direct = tmp_path / "source.json"
    direct.write_text(json.dumps(datum_to_obj(source)))
    assert (second.returncode, second.stdout, second.stderr) == run(
        capsys, "decide", str(direct), "--json"
    )


# Jerry's edge vectors are Tom's.
@pytest.mark.parametrize("name", [n for n in ROUND_TRIP_NAMES if n != "Jerry"])
def test_enumerate_results_are_verdict_documents(capsys, name):
    """Each result is its partitions plus the verdict document of deciding
    that assignment's datum, and each Yes certificate verifies."""
    vectors = [list(edge.e) for edge in named(name).edges]
    limits = {"max_depth": 6, "max_states": 5000}
    code, out, _ = run(
        capsys, "enumerate", "--edges", json.dumps(vectors),
        "--max-depth", "6", "--max-states", "5000", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["edges"] == vectors
    for r in doc["results"]:
        p = r["partitions"]
        S = datum_from_obj({"edges": [{"e": e, "nu": nu} for e, nu in zip(vectors, p)]})
        assert r == {"partitions": p, **is_zero_mutable(S, **limits).to_obj()}
        if r["verdict"] == "Yes":
            assert verify_certificate(S, Certificate.from_obj(r["certificate"]))
    assert any(r["verdict"] == "Yes" for r in doc["results"])


# --- render ---------------------------------------------------------------------


def test_render_to_stdout_and_file(capsys, tmp_path):
    code, out, _ = run(capsys, "render", "Tom", "--svg", "-")
    assert code == 0 and out.startswith("<?xml")
    path = tmp_path / "tom.svg"
    code, out, _ = run(capsys, "render", "Tom", "--svg", str(path), "--labels")
    assert code == 0 and "wrote" in out
    assert "<text" in path.read_text()


def test_render_rejects_bad_scale(capsys):
    code, _, err = run(capsys, "render", "Tom", "--svg", "-", "--scale", "0")
    assert code == 1 and "scale" in err


def _triangle_file(path, width: int, height: int) -> str:
    """A triangle whose padded bounding box holds (width + 3) * (height + 3)
    lattice points."""
    edges = [((width, 0), width), ((0, height), height), ((-width, -height), gcd(width, height))]
    path.write_text(json.dumps({"edges": [{"e": e, "nu": [n]} for e, n in edges]}))
    return str(path)


def test_render_caps_the_lattice_points(capsys, tmp_path):
    at_cap = _triangle_file(tmp_path / "cap.json", 247, 397)  # 250 * 400 points
    code, out, _ = run(capsys, "render", at_cap, "--svg", "-", "--lattice-points")
    assert code == 0 and out.count("<circle") == MAX_LATTICE_POINTS + 3  # + vertices
    over = _triangle_file(tmp_path / "over.json", 8, 9088)  # 11 * 9091 points
    code, out, err = run(capsys, "render", over, "--svg", "-", "--lattice-points")
    assert code == 1 and out == ""
    assert "100001 lattice points" in err and "at most 100000" in err
    code, out, _ = run(capsys, "render", over, "--svg", "-")  # no grid, no cap
    assert code == 0 and out.count("<circle") == 3


# --- report ---------------------------------------------------------------------


def test_report_fan_components_kinks(capsys):
    code, out, _ = run(capsys, "report", "Tom", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["fan"]["joint"] == [0, 0, 1]
    assert len(doc["fan"]["maximal_cones"]) == 3
    assert doc["kinks"] == [3, 2, 1]
    labels = [c["label"] for c in doc["components"]]
    assert labels == ["smooth", "1/3(1,1,0)", "1/2(1,1,0)"]
    assert "wall_checks" not in doc


def test_report_with_walls_file(capsys, tmp_path):
    W = generic_wall_assignment(tom_datum(), seed=7)
    path = tmp_path / "walls.json"
    path.write_text(json.dumps(W.to_obj()))
    code, out, _ = run(capsys, "report", "Tom", "--walls", str(path), "--json")
    assert code == 0
    checks = json.loads(out)["wall_checks"]
    assert checks["joint_compatible"] is True
    assert checks["subordinate"]["ok"] is True
    assert checks["generic"]["ok"] is True


def test_report_with_synthesized_walls(capsys):
    code, out, _ = run(capsys, "report", "An(2)", "--gen-walls", "3")
    assert code == 0
    assert "synthesized wall functions (seed 3):" in out
    assert "joint compatible: yes" in out
    assert "subordinate: yes" in out
    assert "generic: yes" in out


def test_report_flags_failing_walls(capsys, tmp_path):
    path = tmp_path / "walls.json"
    path.write_text(json.dumps({"walls": [["u"], ["u^3 + 2*x"], ["u"]]}))
    code, out, _ = run(capsys, "report", "An(2)", "--walls", str(path), "--json")
    assert code == 0
    checks = json.loads(out)["wall_checks"]
    assert checks["joint_compatible"] is True
    assert checks["subordinate"]["ok"] is False
    assert checks["generic"] is None


def test_report_shape_mismatch_exits_2(capsys, tmp_path):
    path = tmp_path / "walls.json"
    for doc in (
        {"walls": [["u"], ["u"]]},
        {"walls": 5},
        {"nothing": []},
        {"walls": [["u"], [7], ["u"]]},
        {"walls": [[[[0, 1, "1"]]], [[[1.9, True, "1"], [0, 1, "1"]]], ["u"]]},
        {"walls": [["u^2 + x", "u"], ["u", [[0, 1, 1.0]]], ["u"]]},
    ):
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "report", "Tom", "--walls", str(path))
        assert (code, out) == (2, "") and err.startswith("error: "), doc


def test_report_negative_wall_degree_exits_2(capsys, tmp_path):
    path = tmp_path / "walls.json"
    path.write_text(json.dumps({"walls": [[[[0, -2, "1"]], "u"], ["u", "u"], ["u"]]}))
    code, out, err = run(capsys, "report", "Tom", "--walls", str(path))
    assert (code, out) == (2, "") and "negative degree" in err


# Byte-for-byte report output; wall checks run on polynomial rings, and
# these pin the text they print, resultants with rational coefficients and
# a zero resultant included.
TOM_REPORT = """\
datum (3 edges, counterclockwise):
  1: e=(3, 0) nu=(2, 1)
  2: e=(0, 2) nu=(1, 1)
  3: e=(-3, -2) nu=(1,)
fan presentation in L + Z (joint ray (0, 0, 1)):
  cone 1: generated by (1, 0, 0), (0, 1, 0), (0, 0, 1)
  cone 2: generated by (0, 1, 0), (-3, -2, 0), (0, 0, 1)
  cone 3: generated by (-3, -2, 0), (1, 0, 0), (0, 0, 1)
  walls: <(1, 0, 0), (0, 0, 1)>, <(0, 1, 0), (0, 0, 1)>, <(-3, -2, 0), (0, 0, 1)>
boundary components:
  1: index 1, smooth
  2: index 3, 1/3(1,1,0)
  3: index 2, 1/2(1,1,0)
kinks (one per wall): (3, 2, 1)
"""
TOM_JSON = (
    '{"fan": {"maximal_cones": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [-3, -2, 0], '
    '[0, 0, 1]], [[-3, -2, 0], [1, 0, 0], [0, 0, 1]]], "walls": [[[1, 0, 0], [0, 0, 1]], '
    '[[0, 1, 0], [0, 0, 1]], [[-3, -2, 0], [0, 0, 1]]], "joint": [0, 0, 1]}, "components": '
    '[{"index": 1, "label": "smooth"}, {"index": 3, "label": "1/3(1,1,0)"}, {"index": 2, '
    '"label": "1/2(1,1,0)"}], "kinks": [3, 2, 1], '
)
NOT_SUBORDINATE = {"walls": [["u^2 - x^2", "u + 2*x + u^2"], ["u + x"], ["u"]]}
NOT_GENERIC = {
    "walls": [
        ["u^2 + 1/2*x", "u - 3/4*x"],
        ["u + x + u^2*x + 2*u*x^2 + x^3", "u + x"],
        ["u - x"],
    ]
}


def test_report_gen_walls_output_is_pinned(capsys):
    code, out, err = run(capsys, "report", "Tom", "--gen-walls", "7")
    assert (code, err) == (0, "")
    assert out == TOM_REPORT + """\
synthesized wall functions (seed 7):
  f[1,1] = u^2 - 6*u*x + x
  f[1,2] = u - 6*x
  f[2,1] = u + 2*x
  f[2,2] = u + 9*x
  f[3,1] = u - x
wall checks:
  joint compatible: yes
  subordinate: yes
  generic: yes
"""
    code, out, err = run(capsys, "report", "Tom", "--gen-walls", "7", "--json")
    assert (code, err) == (0, "")
    assert out == TOM_JSON + (
        '"walls_input": {"walls": [[[[0, 2, "1"], [1, 0, "1"], [1, 1, "-6"]], [[0, 1, "1"], '
        '[1, 0, "-6"]]], [[[0, 1, "1"], [1, 0, "2"]], [[0, 1, "1"], [1, 0, "9"]]], [[[0, 1, '
        '"1"], [1, 0, "-1"]]]]}, "wall_checks": {"joint_compatible": true, "subordinate": '
        '{"ok": true, "problems": []}, "generic": {"ok": true, "problems": []}}}\n'
    )


def test_report_walls_prints_res_u_of_the_factors_in_order(capsys, tmp_path):
    # Factor 1 has u-degree 1 and factor 2 u-degree 3, so Res_u(factor 1,
    # factor 2) = -Res_u(factor 2, factor 1) = g(-x) for g = factor 2.
    datum, walls = tmp_path / "datum.json", tmp_path / "walls.json"
    datum.write_text(json.dumps(
        {"edges": [{"e": [2, 0], "nu": [1, 1]}, {"e": [0, 1], "nu": [1]},
                   {"e": [-2, -1], "nu": [1]}]}
    ))
    walls.write_text(json.dumps({"walls": [["u + x", "u + u^3*x + 9*x"], ["u"], ["u"]]}))
    problem = ("wall 1: Res_u(factor 1, factor 2) = -x**4 + 8*x is not a nonzero "
               "constant times a power of x")
    code, out, err = run(capsys, "report", str(datum), "--walls", str(walls))
    assert (code, err) == (0, "")
    assert out.endswith(f"  generic: no\n    - {problem}\n")
    code, out, err = run(capsys, "report", str(datum), "--walls", str(walls), "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["wall_checks"]["generic"] == {"ok": False, "problems": [problem]}


def test_report_failing_walls_output_is_pinned(capsys, tmp_path):
    path = tmp_path / "walls.json"
    path.write_text(json.dumps(NOT_SUBORDINATE))
    code, out, err = run(capsys, "report", "Tom", "--walls", str(path))
    assert (code, err) == (0, "")
    assert out == TOM_REPORT + f"""\
wall functions from {path}:
  f[1,1] = u^2 - x^2
  f[1,2] = u^2 + u + 2*x
  f[2,1] = u + x
  f[3,1] = u
wall checks:
  joint compatible: no
  subordinate: no
    - wall 1 factor 1: zero curve is singular
    - wall 1 factor 2: restriction u^2 + u != u^1
    - wall 2: 1 factors for partition (1, 1) (2 parts expected)
  generic: skipped (requires a subordinate assignment)
"""
    code, out, err = run(capsys, "report", "Tom", "--walls", str(path), "--json")
    assert (code, err) == (0, "")
    assert out == TOM_JSON + (
        '"walls_input": {"walls": [[[[0, 2, "1"], [2, 0, "-1"]], [[0, 1, "1"], [0, 2, "1"], '
        '[1, 0, "2"]]], [[[0, 1, "1"], [1, 0, "1"]]], [[[0, 1, "1"]]]]}, "wall_checks": '
        '{"joint_compatible": false, "subordinate": {"ok": false, "problems": ["wall 1 factor '
        '1: zero curve is singular", "wall 1 factor 2: restriction u^2 + u != u^1", "wall 2: 1 '
        'factors for partition (1, 1) (2 parts expected)"]}, "generic": null}}\n'
    )

    path.write_text(json.dumps(NOT_GENERIC))
    code, out, err = run(capsys, "report", "Tom", "--walls", str(path))
    assert (code, err) == (0, "")
    assert out == TOM_REPORT + f"""\
wall functions from {path}:
  f[1,1] = u^2 + 1/2*x
  f[1,2] = u - 3/4*x
  f[2,1] = u^2*x + 2*u*x^2 + u + x^3 + x
  f[2,2] = u + x
  f[3,1] = u - x
wall checks:
  joint compatible: yes
  subordinate: yes
  generic: no
    - wall 1: Res_u(factor 1, factor 2) = 9*x**2/16 + x/2 is not a nonzero constant times a power of x
    - wall 2: Res_u(factor 1, factor 2) = 0 is not a nonzero constant times a power of x
"""
    code, out, err = run(capsys, "report", "Tom", "--walls", str(path), "--json")
    assert (code, err) == (0, "")
    assert out == TOM_JSON + (
        '"walls_input": {"walls": [[[[0, 2, "1"], [1, 0, "1/2"]], [[0, 1, "1"], [1, 0, '
        '"-3/4"]]], [[[0, 1, "1"], [1, 0, "1"], [1, 2, "1"], [2, 1, "2"], [3, 0, "1"]], '
        '[[0, 1, "1"], [1, 0, "1"]]], [[[0, 1, "1"], [1, 0, "-1"]]]]}, "wall_checks": '
        '{"joint_compatible": true, "subordinate": {"ok": true, "problems": []}, "generic": '
        '{"ok": false, "problems": ["wall 1: Res_u(factor 1, factor 2) = 9*x**2/16 + x/2 is '
        'not a nonzero constant times a power of x", "wall 2: Res_u(factor 1, factor 2) = 0 '
        'is not a nonzero constant times a power of x"]}}}\n'
    )


def test_report_synthesis_failure_exits_2(capsys, tmp_path):
    path = tmp_path / "datum.json"
    doc = {
        "edges": [
            {"e": [5, 0], "nu": [2, 1, 1, 1]},
            {"e": [0, 1], "nu": [1]},
            {"e": [-5, -1], "nu": [1]},
        ]
    }
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "report", str(path), "--gen-walls", "1")
    assert code == 2 and "no dominant-tower assignment exists" in err


def test_report_refuses_a_factor_over_the_groebner_degree_cap(capsys, tmp_path):
    """A product of two random factors of x-degree <= 3 and u-degree <= 4
    that restricts to u^4 has total degree 14; report --walls exits 2 at once
    instead of computing its Groebner basis.  So does u + x^N, smooth without
    a basis (df/du = 1), whose Res_u against u^2 + x grows with N."""
    datum = tmp_path / "datum.json"
    datum.write_text(json.dumps({"edges": [
        {"e": [4, 0], "nu": [4]}, {"e": [0, 1], "nu": [1]}, {"e": [-4, -1], "nu": [1]},
    ]}))
    walls = tmp_path / "walls.json"
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        f, g = (
            BiPoly.from_terms({(0, 2): 1, (3, 4): 1, **{
                (rng.randint(1, 3), rng.randint(0, 4)): rng.randint(-9, 9) for _ in range(6)
            }})
            for _ in range(2)
        )
        walls.write_text(json.dumps({"walls": [[format_bipoly(f * g)], ["u + x"], ["u - x"]]}))
        start = time.perf_counter()
        code, out, err = run(capsys, "report", str(datum), "--walls", str(walls))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, ""), err
        assert "total degree 14 is too large to check; the cap is 10" in err
    datum.write_text(json.dumps({"edges": [
        {"e": [3, 0], "nu": [2, 1]}, {"e": [0, 1], "nu": [1]}, {"e": [-3, -1], "nu": [1]},
    ]}))
    walls.write_text(json.dumps({"walls": [["u^2 + x", "u + x^300000"], ["u + x"], ["u - x"]]}))
    start = time.perf_counter()
    assert run(capsys, "report", str(datum), "--walls", str(walls)) == (
        2, "", "error: a wall factor of total degree 300000 is too large to check; the cap is 10\n")
    assert time.perf_counter() - start < 1.0


def test_report_gen_walls_refuses_a_tower_over_the_degree_cap(tmp_path):
    """A tower factor of value v has total degree v, and a synthesized
    assignment is capped like a document: (11, 1) and (24, 12, 6, 3, 2, 1)
    exit 2 with the cap message before any basis is computed.  The second
    ran for minutes without the cap, so `python -m logmut.cli` runs in a
    subprocess with a timeout."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = tmp_path / "datum.json"
    for nu, degree in (([11, 1], 11), ([24, 12, 6, 3, 2, 1], 24)):
        n = sum(nu)
        path.write_text(json.dumps({"edges": [
            {"e": [n, 0], "nu": nu}, {"e": [0, 1], "nu": [1]}, {"e": [-n, -1], "nu": [1]},
        ]}))
        proc = subprocess.run(
            [sys.executable, "-m", "logmut.cli", "report", str(path), "--gen-walls", "1"],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", (
            f"error: a wall factor of total degree {degree} is too large to check; "
            "the cap is 10\n")), nu


# --- argument handling ----------------------------------------------------------


def test_help_and_missing_command():
    assert main(["--help"]) == 0
    assert main([]) == 1
    assert main(["mutate", "Tom"]) == 1  # --edge is required


@pytest.mark.skipif(shutil.which("logmut") is None, reason="console script not on PATH")
def test_console_script_round_trip(tmp_path):
    proc = subprocess.run(
        ["logmut", "decide", "An(0)", "--json"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "Yes"


def test_console_script_target_runs_from_source():
    """The [project.scripts] entry, called as the generated script calls it
    (sys.exit(main())), on the checkout's source."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["logmut"]
    assert target == "logmut.cli:main"
    module, func = target.split(":")
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; from {module} import {func}; sys.exit({func}())",
         "decide", "An(0)", "--json"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "Yes"


RANK_ONE_NO = {"edges": [{"e": [2, 0], "nu": [2]}, {"e": [-2, 0], "nu": [1, 1]}]}


@pytest.mark.parametrize(
    "argv, stdin, code",
    [
        (["decide", "An(0)", "--json"], None, 0),
        (["validate", "Nobody"], None, 1),
        (["decide", "An(1000001)"], None, 2),
        (["mutate", "Tom", "--edge", "1", "--part", "5"], None, 3),
        (["decide", "-"], json.dumps(RANK_ONE_NO), 4),
        (["decide", "Jerry", "--max-depth", "1"], None, 5),
    ],
)
def test_module_entry_point_exit_codes(argv, stdin, code):
    """`python -m logmut.cli` on the checkout's source, one run per exit code."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "logmut.cli", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert json.loads(proc.stdout)["verdict"] == "Yes"
