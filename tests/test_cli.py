import hashlib
import json

import numpy as np
import pytest

from modinv import cli, core, dot, nimrep


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_show_json_round_trips(capsys):
    code, out, _ = run(capsys, "show", "--family", "su3", "--level", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    md = core.modular_data_from_json(doc)
    assert md.size == 10
    assert abs(md.global_index - 36.0) < 1e-9


def test_show_text_contains_checks(capsys):
    code, out, _ = run(capsys, "show", "--family", "ising")
    assert code == 0
    assert "modular checks: ok" in out
    assert "sigma" in out


def test_catalog_level16(capsys):
    code, out, _ = run(capsys, "catalog", "--level", "16")
    assert code == 0
    names = [line.split(":")[0] for line in out.strip().splitlines()]
    assert names == ["A17", "D10", "E7"]


def test_catalog_json_permutation_flags(capsys):
    code, out, _ = run(capsys, "catalog", "--level", "10", "--json")
    assert code == 0
    doc = json.loads(out)
    flags = {e["name"]: e["permutation"] for e in doc["invariants"]}
    assert flags == {"A11": True, "D7": True, "E6": False}


def test_invariants_ising_exactly_identity(capsys):
    code, out, _ = run(capsys, "invariants", "--family", "ising", "--json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["invariants"]) == 1
    assert doc["invariants"][0]["Z"] == np.eye(3, dtype=int).tolist()


def test_invariants_group_rejected(capsys):
    code, out, err = run(capsys, "invariants", "--family", "group", "--level", "4")
    assert code == 1
    assert "degenerate" in err


def test_show_group_reports_failed_checks(capsys):
    code, out, _ = run(capsys, "show", "--family", "group", "--level", "3")
    assert code == 0
    assert "degenerate=True" in out
    assert "FAIL" in out


def test_group_without_level_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["show", "--family", "group"])
    assert exc.value.code == 2


def test_invariants_budget_incomplete(capsys):
    code, out, err = run(capsys, "invariants", "--family", "su2", "--level", "6",
                         "--budget", "2")
    assert code == 1
    assert "incomplete" in err


def test_chiral_table_contains_e8_row(capsys):
    code, out, _ = run(capsys, "chiral-table", "--max-level", "28", "--csv")
    assert code == 0
    assert "E8,28,32,8,8,2,E8" in out.splitlines()


def test_chiral_table_json_dossiers(capsys):
    code, out, _ = run(capsys, "chiral-table", "--max-level", "10", "--json")
    assert code == 0
    doc = json.loads(out)
    by_name = {(d["name"], d["level"]): d for d in doc["rows"]}
    e6 = by_name[("E6", 10)]
    assert e6["counts"] == {"mm": 12, "mn": 6, "chiral": 6, "ambi": 3}
    assert np.array_equal(np.array(e6["bPlus"]).T @ np.array(e6["bMinus"]),
                          np.array(e6["Z"]))


def test_nimrep_command(capsys):
    code, out, _ = run(capsys, "nimrep", "--graph", "E7")
    assert code == 0
    assert "matched=True" in out


def test_nimrep_csv(capsys):
    code, out, _ = run(capsys, "nimrep", "--graph", "A5", "--csv")
    assert code == 0
    header, *rows = out.strip().splitlines()
    assert header == "graph,nu,eigenvalue,multiplicity,matched_spin"
    assert all(row.startswith("A5,") for row in rows)


def test_nimrep_invariant_file(tmp_path, capsys):
    from modinv import search
    Z = search.su2_invariant_matrix("D", 10)
    path = tmp_path / "z.json"
    path.write_text(json.dumps({"Z": Z.Z.tolist()}))
    code, out, _ = run(capsys, "nimrep", "--graph", "D7", "--invariant", str(path))
    assert code == 0
    assert "matched=True" in out


def test_graph_algebra_command(capsys):
    code, out, _ = run(capsys, "graph-algebra", "--graph", "E7")
    assert code == 0
    assert "negative" in out
    code, out, _ = run(capsys, "graph-algebra", "--graph", "E6", "--json")
    doc = json.loads(out)
    assert doc["positive"] is True and doc["associative"] is True


def test_gram_command(capsys):
    code, out, _ = run(capsys, "gram", "--level", "16", "--theta", "id+l8+l16")
    assert code == 0
    assert "7 sectors" in out and "E7" in out


def test_gram_bad_theta_usage_error(capsys):
    code, _, err = run(capsys, "gram", "--level", "4", "--theta", "id+x9")
    assert code == 2
    assert "x9" in err


def test_missing_level_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["show", "--family", "su2"])
    assert exc.value.code == 2


def test_unknown_flag_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["catalog", "--levle", "4"])
    assert exc.value.code == 2


def test_emit_graph_dodd_structure(tmp_path, capsys):
    out_path = tmp_path / "d5.dot"
    code, out, _ = run(capsys, "emit-graph", "--case", "D5", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    # 7 vertices, solid path edges, dashed edges from the level-5 fusion matrix
    assert text.count("doublecircle") == 7
    solid = [l for l in text.splitlines() if "--" in l and "dashed" not in l]
    dashed = [l for l in text.splitlines() if "dashed" in l]
    assert len(solid) == 6
    assert len(dashed) == 6


def test_emit_graph_e7_dynkin(tmp_path, capsys):
    out_path = tmp_path / "e7.dot"
    code, _, _ = run(capsys, "emit-graph", "--case", "E7", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.count(" -- ") == 6
    assert "dashed" not in text


def test_emit_graph_outdir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MODINV_OUTDIR", str(tmp_path))
    code, _, _ = run(capsys, "emit-graph", "--case", "trivial", "--out", "t.dot")
    assert code == 0
    assert (tmp_path / "t.dot").exists()


def test_dodd_dotted_graph_isomorphic_to_path():
    doc = dot.dodd_fusion_document(6)
    k = 6
    A = np.zeros((k + 1, k + 1), dtype=int)
    for a, b, mult in doc.dotted_edges:
        A[a, b] = A[b, a] = mult
    assert nimrep.graphs_isomorphic(A, nimrep.ade_graph("A7").adjacency)
    # the mirror relabeling maps dotted edges onto the solid path exactly
    from modinv import search
    pi = search.permutation_criterion(
        core.su2_fusion_closed_form(k), search.su2_invariant_matrix("D", k)).permutation
    P = np.zeros((k + 1, k + 1), dtype=int)
    for mu, target in enumerate(pi):
        P[target, mu] = 1
    assert np.array_equal(P @ A @ P.T, nimrep.ade_graph("A7").adjacency)


@pytest.mark.parametrize("argv", [
    ("catalog", "--level", "16"),
    ("chiral-table", "--max-level", "12", "--csv"),
    ("show", "--family", "su3", "--level", "5", "--json"),
    ("invariants", "--family", "su2", "--level", "8", "--json"),
    ("graph-algebra", "--graph", "D6", "--csv"),
])
def test_determinism(capsys, argv):
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


# sha256 of stdout, recorded at the commit before the SU(2) cases were
# derived from one branching table
GOLDEN_STDOUT = {
    ("catalog", "--level", "10", "--json"):
        "63c9607a01a54bf241daf9dc3c11fc09cfc229ef62f7d633dda271b56f1ac4df",
    ("catalog", "--level", "16", "--json"):
        "26a18d382927fc96ac2495fbe0f9a03a8990a8fffc2ce73a3db46eb728b80847",
    ("catalog", "--level", "28", "--json"):
        "05c830cc7968c93178b05f0659daa0f6c8e56c7407a7edef4c0264f48bf22894",
    ("chiral-table", "--max-level", "28", "--csv"):
        "034688eec7400a6423095d86469afab021d455b28a49e4fb67e18a8f4830f6b3",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_STDOUT))
def test_golden_stdout(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[argv]


@pytest.mark.parametrize("argv", [
    ("catalog", "--level", "65"),
    ("catalog", "--level", "0"),
    ("show", "--family", "su2", "--level", "0"),
    ("invariants", "--family", "su2", "--level", "65"),
    ("gram", "--level", "0", "--theta", "id"),
    ("fusion", "--family", "su3", "--level", "0"),
    ("chiral-table", "--max-level", "33"),
    ("nimrep", "--graph", "F4"),
    ("graph-algebra", "--graph", "Q5"),
    ("emit-graph", "--case", "F4", "--out", "unused.dot"),
])
def test_out_of_range_input_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("error: ")


def test_document_validation():
    bad = dot.GraphDocument(
        vertices=(dot.GraphVertex(0, "x"),),
        solid_edges=((0, 1, 1),), dotted_edges=())
    with pytest.raises(ValueError):
        dot.emit_dot(bad)
