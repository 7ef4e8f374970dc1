"""End-to-end runs of the command line entry points."""

from __future__ import annotations

import json

import pytest

from gadgets import (
    disjoint_union,
    master_ladder,
    one_face_k33,
    toroidal_k7,
    with_isolated_vertex,
)
from tlabel.cli import main
from tlabel.families import generate
from tlabel.graphs import PlaneGraph
from tlabel.io import parse_graph, parse_labeling, serialize_graph
from tlabel.labeling import ColorInterval, validate
from tlabel.reduction import ExtensionError, IrreducibleError

P3_TEXT = "p tlabel 3 2\ne 0 1\ne 1 2\n"
K2_TEXT = "p tlabel 2 1\ne 0 1\n"


def _json_out(capsys) -> dict:
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    return payload


def test_gen_label_verify_pipeline(tmp_path, capsys):
    graph = tmp_path / "wheel.gr"
    labeling = tmp_path / "wheel.lab"

    assert main(["gen", "--family", "wheel", "--n", "9",
                 "-o", str(graph)]) == 0
    assert main(["label", str(graph), "-o", str(labeling),
                 "--report", "-"]) == 0
    report = _json_out(capsys)
    assert report["bound"] == 12
    assert report["max_color"] <= 14
    assert report["slack_ok"] is True
    assert report["elements"] == 10 + 18

    assert main(["verify", str(graph), str(labeling)]) == 0
    verdict = _json_out(capsys)
    assert verdict["complete"] is True
    assert verdict["valid"] is True
    assert verdict["violations"] == []

    g = parse_graph(graph.read_text())
    phi = parse_labeling(labeling.read_text(), g)
    assert validate(g, phi, ColorInterval(k=14, d=2)) == []


def test_verify_flags_bad_labeling(tmp_path, capsys):
    graph = tmp_path / "p3.gr"
    graph.write_text(P3_TEXT)
    bad = tmp_path / "bad.lab"
    bad.write_text(
        "v 0 0\nv 1 0\nv 2 4\ne 0 1 7\ne 1 2 9\n"
    )
    assert main(["verify", str(graph), str(bad)]) == 1
    verdict = _json_out(capsys)
    assert verdict["valid"] is False
    assert verdict["violations"]


def test_verify_respects_span_argument(tmp_path, capsys):
    graph = tmp_path / "p3.gr"
    graph.write_text(P3_TEXT)
    lab = tmp_path / "ok.lab"
    lab.write_text("v 0 0\nv 1 14\nv 2 0\ne 0 1 7\ne 1 2 9\n")
    assert main(["verify", str(graph), str(lab)]) == 0
    capsys.readouterr()
    assert main(["verify", str(graph), str(lab), "--span", "8"]) == 1
    verdict = _json_out(capsys)
    assert verdict["span"] == 8
    assert verdict["valid"] is False


@pytest.mark.parametrize("missing", ["v 2 0\n", "e 1 2 9\n"])
def test_verify_flags_a_labeling_missing_one_element(tmp_path, capsys,
                                                     missing):
    # every color present is legal, so only the missing vertex or edge
    # makes the verdict negative
    graph = tmp_path / "p3.gr"
    graph.write_text(P3_TEXT)
    lab = tmp_path / "partial.lab"
    lab.write_text("v 0 0\nv 1 14\nv 2 0\ne 0 1 7\ne 1 2 9\n"
                   .replace(missing, ""))
    assert main(["verify", str(graph), str(lab), "--span", "14"]) == 1
    verdict = _json_out(capsys)
    assert verdict["complete"] is False
    assert verdict["valid"] is True


def test_verify_defaults_the_span_to_at_least_0(tmp_path, capsys):
    # the largest color used is negative here, so the span is 0 and the
    # color is out of range: a clean negative verdict, not bad input
    graph = tmp_path / "k1.gr"
    graph.write_text("p tlabel 1 0\n")
    lab = tmp_path / "neg.lab"
    lab.write_text("v 0 -3\n")
    assert main(["verify", str(graph), str(lab)]) == 1
    verdict = _json_out(capsys)
    assert verdict["span"] == 0 and verdict["complete"] is True
    assert [v["rule"] for v in verdict["violations"]] == ["color-out-of-range"]


def test_exact_solves_and_writes_witness(tmp_path, capsys):
    graph = tmp_path / "k2.gr"
    graph.write_text(K2_TEXT)
    witness = tmp_path / "k2.lab"
    assert main(["exact", str(graph), "--witness", str(witness)]) == 0
    payload = _json_out(capsys)
    assert payload["status"] == "solved"
    assert payload["value"] == 3
    capsys.readouterr()
    assert main(["verify", str(graph), str(witness)]) == 0


def test_exact_budget_exhaustion_is_unknown(tmp_path, capsys):
    graph = tmp_path / "wheel.gr"
    assert main(["gen", "--family", "wheel", "--n", "8",
                 "-o", str(graph)]) == 0
    assert main(["exact", str(graph), "--budget", "1"]) == 1
    payload = _json_out(capsys)
    assert payload["status"] == "unknown"
    assert payload["value"] is None


def test_exact_rejects_negative_budget(tmp_path, capsys):
    graph = tmp_path / "wheel.gr"
    assert main(["gen", "--family", "wheel", "--n", "6",
                 "-o", str(graph)]) == 0
    capsys.readouterr()
    assert main(["exact", str(graph), "--budget", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "budget" in err
    assert "Traceback" not in err


def test_audit_reports_reducible(tmp_path, capsys):
    graph = tmp_path / "wheel.gr"
    assert main(["gen", "--family", "wheel", "--n", "10",
                 "-o", str(graph)]) == 0
    assert main(["audit", str(graph)]) == 0
    payload = _json_out(capsys)
    assert payload["status"] == "reducible"
    assert payload["initial_total"] == "-8"
    assert payload["violations"]


def test_audit_of_a_long_master_ladder_needs_no_recursion(tmp_path, capsys):
    graph = tmp_path / "ladder.gr"
    graph.write_text(serialize_graph(master_ladder(1200)))
    assert main(["audit", str(graph)]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["status"] == "reducible"
    assert "Traceback" not in err


def test_label_needs_rotations(tmp_path, capsys):
    graph = tmp_path / "p3.gr"
    graph.write_text(P3_TEXT)
    assert main(["label", str(graph)]) == 2
    assert "error:" in capsys.readouterr().err


def test_label_rejects_small_bound(tmp_path, capsys):
    graph = tmp_path / "wheel.gr"
    assert main(["gen", "--family", "wheel", "--n", "14",
                 "-o", str(graph)]) == 0
    assert main(["label", str(graph), "--bound", "12"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("error", [
    lambda g: ExtensionError("no legal color"),
    lambda g: IrreducibleError(g, g.max_degree),
], ids=["extension", "irreducible"])
def test_label_reports_a_failed_labeling(tmp_path, capsys, monkeypatch,
                                         error):
    def fail(g, bound):
        raise error(g)

    monkeypatch.setattr("tlabel.cli.label_planar", fail)
    graph = tmp_path / "wheel.gr"
    assert main(["gen", "--family", "wheel", "--n", "6",
                 "-o", str(graph)]) == 0
    assert main(["label", str(graph)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("labeling failed: ")
    assert "Traceback" not in err


def _k7_beside_a_vertex():
    return with_isolated_vertex(toroidal_k7())


def _k33_beside_a_vertex():
    return with_isolated_vertex(one_face_k33())


@pytest.mark.parametrize("make, command", [
    (toroidal_k7, ["label", "--bound", "12"]),
    (toroidal_k7, ["audit"]),
    (one_face_k33, ["label", "--bound", "12"]),
    (one_face_k33, ["audit"]),
    (_k7_beside_a_vertex, ["label", "--bound", "12"]),
    (_k7_beside_a_vertex, ["audit"]),
    (_k33_beside_a_vertex, ["label", "--bound", "12"]),
], ids=["label-k7", "audit-k7", "label-k33", "audit-k33", "label-k7+k1",
        "audit-k7+k1", "label-k33+k1"])
def test_nonplane_rotation_system_is_bad_input(tmp_path, capsys, make,
                                               command):
    graph = tmp_path / "g.gr"
    graph.write_text(serialize_graph(make()))
    assert main([command[0], str(graph), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not planar" in err
    assert "Traceback" not in err


# each case runs the command with G and L replaced by a graph and a
# labeling file holding the given texts; the one error line holds the words
@pytest.mark.parametrize("argv, graph, labeling, words", [
    (["exact", "G"], "p tlabel 2 1\ne 0 1 2\n", "", "edge line must be"),
    (["exact", "G"], "p tlabel 2 1\ne 0 1\nr\n", "", "needs a vertex"),
    (["exact", "G"], "p tlabel 2 1\ne 0 1\nr 0 1\nr 0 1\nr 1 0\n", "",
     "duplicate rotation for 0"),
    (["exact", "G"], "p tlabel 2 1\ne 0 -1\n", "", "non-negative"),
    (["exact", "G"], "p tlabel 3 1\ne 0 5\n", "", "2 distinct labels"),
    (["exact", "G"], "p tlabel 2 1\ne 0 x\n", "", "invalid literal"),
    (["exact", "G"], "p tlabel 2 1\ne 0 1\nr 0 1 1\nr 1 0\n", "",
     "error: rotation at 0 repeats a neighbor"),
    (["exact", "G"], "p tlabel 3 1\ne 0 1\nr 0 1 2\nr 1 0\n", "",
     "error: rotation at 0 lists non-edges [2]"),
    (["exact", "G"], "p tlabel 3 2\ne 0 1\ne 0 2\nr 0 1\nr 1 0\nr 2 0\n",
     "", "error: rotation at 0 misses neighbors [2]"),
    (["exact", "G"], "p tlabel 2 2\ne 0 1\ne 1 0\n", "",
     "error: duplicate edge (0, 1)"),
    (["exact", "G"], "p tlabel 2 2\ne 0 1\ne 1 0\nr 0 1\nr 1 0\n", "",
     "error: duplicate edge (0, 1)"),
    (["exact", "G"], "p tlabel 1 1\ne 0 0\n", "", "error: self-loop (0, 0)"),
    (["exact", "G"], "p tlabel 1 1\ne 0 0\nr 0 0\n", "",
     "error: self-loop (0, 0)"),
    (["verify", "G", "L"], P3_TEXT, "v 0\n", "vertex line must be"),
    (["verify", "G", "L"], P3_TEXT, "e 0 1\n", "edge line must be"),
    (["verify", "G", "L"], P3_TEXT, "e 0 1 5\ne 0 1 6\n", "labeled twice"),
    (["verify", "G", "L"], P3_TEXT, "e 0 1 5\ne 1 0 6\n", "labeled twice"),
    (["verify", "G", "L"], P3_TEXT, "x 0 1\n", "unknown record"),
    (["gen", "--family", "cycle", "--n", "2"], "", "", "n >= 3"),
    (["gen", "--family", "star", "--n", "0"], "", "", "n >= 1"),
    (["gen", "--family", "stacked_triangulation", "--n", "2"], "", "",
     "n >= 3"),
    (["verify", "G", "L", "--span", "-1"], P3_TEXT, "v 0 0\n",
     "k must be non-negative"),
    (["exact", "G", "--gap", "0"], P3_TEXT, "", "d must be at least 1"),
], ids=[
    "edge-arity", "rotation-without-vertex", "duplicate-rotation",
    "negative-label", "header-vertex-count", "non-integer",
    "rotation-repeats", "rotation-non-edge", "rotation-misses",
    "duplicate-edge", "duplicate-edge-with-rotations", "self-loop",
    "self-loop-with-rotations", "vertex-arity", "labeling-edge-arity",
    "edge-labeled-twice", "edge-labeled-twice-reversed", "unknown-record",
    "gen-cycle-n", "gen-star-n", "gen-stacked-n", "verify-negative-span",
    "exact-gap-0",
])
def test_malformed_input_exits_2(tmp_path, capsys, argv, graph, labeling,
                                 words):
    files = {"G": tmp_path / "g.gr", "L": tmp_path / "l.lab"}
    files["G"].write_text(graph)
    files["L"].write_text(labeling)
    assert main([str(files.get(a, a)) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert words in err
    assert "Traceback" not in err


def test_an_isolated_vertex_may_omit_its_rotation_line(tmp_path, capsys):
    graph = tmp_path / "g.gr"
    graph.write_text("p tlabel 3 1\ne 0 1\nr 0 1\nr 1 0\n")
    assert main(["label", str(graph), "--report", "-"]) == 0
    assert '"slack_ok": true' in capsys.readouterr().out


def test_usage_errors(tmp_path, capsys):
    assert main(["gen", "--family", "wheel", "--n", "2",
                 "-o", str(tmp_path / "x.gr")]) == 2
    capsys.readouterr()
    assert main(["label", str(tmp_path / "missing.gr")]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["gen", "--family", "nonesuch", "--n", "5"])
    capsys.readouterr()


def test_bench_reports_per_file(tmp_path, capsys):
    a = tmp_path / "a.gr"
    b = tmp_path / "b.gr"
    assert main(["gen", "--family", "wheel", "--n", "7", "-o", str(a)]) == 0
    assert main(["gen", "--family", "cycle", "--n", "9", "-o", str(b)]) == 0
    assert main(["bench", str(a), str(b)]) == 0
    payload = _json_out(capsys)
    assert payload["failures"] == 0
    assert len(payload["results"]) == 2
    assert all(r["ok"] and r["slack_ok"] for r in payload["results"])

    assert main(["bench", str(a), str(tmp_path / "gone.gr")]) == 1
    payload = _json_out(capsys)
    assert payload["failures"] == 1


def test_bench_rejects_a_low_bound_before_reading(tmp_path, capsys):
    # a bound below 12 is bad usage, as for label, even with a missing file
    graph = tmp_path / "w.gr"
    assert main(["gen", "--family", "wheel", "--n", "7", "-o", str(graph)]) == 0
    capsys.readouterr()
    assert main(["bench", str(graph), str(tmp_path / "gone.gr"),
                 "--bound", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert main(["label", str(graph), "--bound", "5"]) == 2


def test_label_disconnected_plane_graph(tmp_path, capsys):
    parts = (generate("wheel", 13), generate("star", 3),
             PlaneGraph({0: set()}, {0: ()}))
    graph = tmp_path / "parts.gr"
    labeling = tmp_path / "parts.lab"
    graph.write_text(serialize_graph(disjoint_union(*parts)))

    assert main(["label", str(graph), "-o", str(labeling),
                 "--report", "-"]) == 0
    report = _json_out(capsys)
    assert report["slack_ok"] is True

    g = parse_graph(graph.read_text())
    assert len(g.components()) == 3
    phi = parse_labeling(labeling.read_text(), g)
    assert phi.is_total(g)
    assert validate(g, phi, ColorInterval(k=15, d=2)) == []


def test_exact_on_a_long_path_needs_no_recursion(tmp_path, capsys):
    n = 701
    graph = tmp_path / "path.gr"
    graph.write_text("p tlabel %d %d\n" % (n, n - 1)
                     + "".join("e %d %d\n" % (i, i + 1) for i in range(n - 1)))
    assert main(["exact", str(graph), "--budget", "100000"]) == 0
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["value"] == 4
    assert sum(payload["level_nodes"]) == payload["nodes"]
    assert "Traceback" not in err


def test_exact_reports_nodes_per_level(tmp_path, capsys):
    graph = tmp_path / "k6.gr"
    graph.write_text("p tlabel 6 15\n" + "".join(
        "e %d %d\n" % (u, v) for u in range(6) for v in range(u + 1, 6)))
    assert main(["exact", str(graph), "--budget", "10"]) == 1
    payload = _json_out(capsys)
    assert payload["level_nodes"] == [11] and payload["nodes"] == 11

    c5 = tmp_path / "c5.gr"
    assert main(["gen", "--family", "cycle", "--n", "5", "-o", str(c5)]) == 0
    assert main(["exact", str(c5), "--gap", "1"]) == 0
    payload = _json_out(capsys)
    assert payload["value"] == 3
    assert len(payload["level_nodes"]) == 2
    assert sum(payload["level_nodes"]) == payload["nodes"]
