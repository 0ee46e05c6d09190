import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import modinv
from modinv import cli, core, dot, nimrep, search


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
    assert run(capsys, "show", "--family", "group") == \
        (2, "", "error: --level is required for family group\n")


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
    Z = search.su2_invariant_matrix("D_odd", 10)
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


@pytest.mark.parametrize("level, theta, head", [
    (40, "id+l2", "41 sectors, G1 graph A41"),
    (46, "id+l46", "25 sectors, G1 graph D25"),
    (64, "id+l2", "65 sectors, G1 graph A65"),
])
def test_gram_deep_factorizations(capsys, level, theta, head):
    # the search is deeper here than Python's default recursion limit
    code, out, _ = run(capsys, "gram", "--level", str(level), "--theta", theta)
    assert code == 0
    assert out.splitlines()[0] == f"level {level} theta {theta}: {head}"


def test_gram_bad_theta_usage_error(capsys):
    code, _, err = run(capsys, "gram", "--level", "4", "--theta", "id+x9")
    assert code == 2
    assert "x9" in err


# argv -> (exit code, stderr) of failures raised below the CLI; main tells
# them apart only as a UsageError (2) or any other error (1)
ERROR_TRIGGERS = {
    ("nimrep", "--graph", "X9"): (2, "error: unknown diagram name 'X9'\n"),
    ("fusion", "--family", "group", "--level", "3"): (
        1, "error: S is degenerate (unitarity residual 6.67e-01); the Verlinde formula "
           "and the commutant search need a unitary S\n"),
    ("gram", "--level", "4", "--theta", "id+l1"): (
        1, "error: no non-negative integer factorization found\n"),
}


@pytest.mark.parametrize("argv", sorted(ERROR_TRIGGERS))
def test_error_triggers_exit_code_and_stderr(capsys, argv):
    code, err = ERROR_TRIGGERS[argv]
    assert run(capsys, *argv) == (code, "", err)


def test_missing_level_usage_error(capsys):
    assert run(capsys, "show", "--family", "su2") == \
        (2, "", "error: --level is required for family su2\n")


@pytest.mark.parametrize("command, family", [("fusion", "su3"), ("invariants", "su4")])
def test_missing_level_usage_error_in_fusion_and_invariants(capsys, command, family):
    assert run(capsys, command, "--family", family) == \
        (2, "", f"error: --level is required for family {family}\n")


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


# sha256 of the DOT file, recorded before the diagrams were built by one
# spine-and-tail rule (A33, A49 and D21, the benchmark's fixed diagrams,
# before the queue search of nimrep._depths); the D_odd D5 and D21 draw their
# fusion graph, the rest their Dynkin diagram with the bipartition shading
GOLDEN_DOT = {
    "A33": "46153125726d8e815410725312bdb8a7a173c49a53755bc32e9e01ee18fd8f36",
    "A49": "8ac9fcac9436c8e2644b3c0a69e4fe6426eb1f04fb0c1069804d948e9cd43fc8",
    "D13": "dd05fbbddfb20982e215e5fb6d6052981e7f70a9d41ec6196d11c9553241aefd",
    "D15": "5144d7e549445bfcf099240dde3543e78ddc54117076dbd1c0c8cbf023dd6328",
    "D21": "0cd6f2a8efa1ed98b71ce6213c23017c180d65e8902cdfd3aad3eea1ae77e0e0",
    "D33": "4a06c9124ed83dc6b868af474c80820959b5886e8a5b01d2d2d6df6fb70f38c3",
    "D5": "d761719bdb8481c64fbdb7fe231d65d112cd37dcad4286134f29e640ff169a99",
    "D8": "11168901cae944b921980a07d6b2fba4d85b75046062b687edc4b52b611cf599",
    "E6": "785aa3f55259966f564bcf5167fccabd3c3da7dad7bba0f63ed80128b2507938",
    "E7": "f33fe87001aac62e3b9dd9773d81030696279d373026c799f2db7e65d6b8c444",
    "E8": "599826e0cd127c58ffd13c75ed81603670464d0abca33a23986af6eaa4d1d70b",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_DOT))
def test_emit_graph_golden_dot(tmp_path, capsys, case):
    out_path = tmp_path / f"{case}.dot"
    code, _, _ = run(capsys, "emit-graph", "--case", case, "--out", str(out_path))
    assert code == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == GOLDEN_DOT[case]


def _reference_dot(case):
    """DOT text through the document model that emit_dot replaced: a vertex
    list with parity and ambichiral flags, and sorted (a, b, multiplicity)
    edge tuples of each style."""
    def edges(A):
        return [(a, b, int(A[a, b])) for a, b in np.argwhere(np.triu(A)).tolist()]

    if case == "trivial":
        vertices, solid, dotted = [(0, "id", True, True)], [], []
    else:
        graph = nimrep.ade_graph(case)
        if graph.case == "D_odd":
            k = graph.level
            branching = search.su2_branching("D_odd", k)
            ring = core.verlinde_fusion(core.su2_modular_data(k))
            vertices = [(j, "id" if j == 0 else f"{name}+", j % 2 == 0, True)
                        for j, name in enumerate(branching.labels)]
            solid, dotted = edges(ring.N[1]), edges(ring.N[k - 1])
        else:
            depth = nimrep._depths(graph.adjacency)
            vertices = [(i, str(i), depth[i] % 2 == 0, False)
                        for i in range(graph.num_vertices)]
            solid, dotted = edges(graph.adjacency), []
    lines = ["graph fusion {", "  node [shape=circle];"]
    for i, label, even, ambichiral in sorted(vertices):
        attrs = [f'label="{label}"']
        if ambichiral:
            attrs.append("shape=doublecircle")
        if even:
            attrs.append('style=filled fillcolor="gray92"')
        lines.append(f"  v{i} [{' '.join(attrs)}];")
    for a, b, mult in sorted(solid):
        extra = f' [label="{mult}"]' if mult > 1 else ""
        lines.append(f"  v{a} -- v{b}{extra};")
    for a, b, mult in sorted(dotted):
        extra = f' label="{mult}"' if mult > 1 else ""
        lines.append(f"  v{a} -- v{b} [style=dashed{extra}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


ALL_DIAGRAMS = ([f"A{n}" for n in range(2, 66)] + [f"D{n}" for n in range(4, 35)]
                + ["E6", "E7", "E8"])


@pytest.mark.parametrize("case", ["trivial"] + ALL_DIAGRAMS)
def test_emit_dot_equals_the_document_model(case):
    assert dot.emit_dot(case) == _reference_dot(case)


def test_emit_graph_outdir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MODINV_OUTDIR", str(tmp_path))
    code, _, _ = run(capsys, "emit-graph", "--case", "trivial", "--out", "t.dot")
    assert code == 0
    assert (tmp_path / "t.dot").exists()


def test_dodd_dotted_graph_isomorphic_to_path():
    k = 6  # D5
    A = np.zeros((k + 1, k + 1), dtype=int)
    dashed = re.findall(r'v(\d+) -- v(\d+) \[style=dashed(?: label="(\d+)")?\];',
                        dot.emit_dot("D5"))
    for a, b, mult in dashed:
        A[int(a), int(b)] = A[int(b), int(a)] = int(mult or 1)
    assert nimrep.identify_ade(A) == "A7"
    # the mirror relabeling maps dotted edges onto the solid path exactly
    pi = search.permutation_criterion(
        core.su2_modular_data(k), search.su2_invariant_matrix("D_odd", k))
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
    # recorded before Gamma01 and the chiral rows were derived from b+
    ("chiral-table", "--max-level", "32"):
        "2278fb002f359861eb71172d46f5313f1119b3faba60ebd01581396000dd6891",
    ("chiral-table", "--max-level", "32", "--json"):
        "b5dbe568c2453e10777391b1cc07248dfcfe1c66a139f39a5c41c039522d7398",
    ("invariants", "--family", "su3", "--level", "5", "--json"):
        "4046e1235d2411cad29c7c77d46fe2d91fe85c0d8a9dd44cd88a50a453c5683e",
    ("invariants", "--family", "su3", "--level", "7", "--json"):
        "50ef76a28078244eadedc5fedf53cd77e7e4c6c5157fd9c768f979b2a0579657",
    ("invariants", "--family", "su4", "--level", "4", "--json"):
        "057200004a43f7ee4c1510fb4b22cc448039c4addfe38f320a2695b2803f9ba4",
    # recorded before the representation check moved to float64 products
    ("nimrep", "--graph", "A49", "--csv"):
        "e87375756dde83ff790b242997ba64a7a90ff598330267f38c814b63a21955df",
    ("graph-algebra", "--graph", "A49", "--json"):
        "f3977ccc7fbca28f595276c4826a1282fe8bee522b346a761b410e6e4df8200b",
    ("fusion", "--family", "su3", "--level", "7", "--json"):
        "f6b554a5824e822c2572f52b59ab4394d7e49b545c612818a351a89024570a84",
    ("gram", "--level", "38", "--theta", "id+l38"):
        "020b915d8c38eaec80f591650855fc5902fac0a7b5a0c0e377d087057a18060c",
    # recorded before fused adjacencies were checked by truncation and the
    # A-D-E diagrams named by their arm lengths
    ("gram", "--level", "16", "--theta", "id+l8+l16"):
        "64542ea4e3d5123d2c6848683e85c69a59c8fb7aef58131ec6029e9045a9c413",
    ("gram", "--level", "10", "--theta", "id+l6"):
        "d9f13923257e9ba1c9ac3f8375d56f0636d790dd2513600f2c51eb3bc483025f",
    ("gram", "--level", "28", "--theta", "id+l10+l18+l28"):
        "6119d0a22e7f89a9fd66e2e029f0460be2ae70d9e8acadead2cfd2366f644336",
    ("gram", "--level", "26", "--theta", "id+l2"):
        "dd6903e50e11c15343f856e10f4b8e0f68f165e9cc64da1a2e0fa5f0bc23ca63",
    ("nimrep", "--graph", "E7"):
        "32988703597cfd6ccfe49aa87109273600b8b88b55738230eeb26b0c88038d12",
    # recorded before the spectra were matched in one stacked eigvalsh and
    # the Gram search branched only on rows that can be positive
    ("nimrep", "--graph", "D12", "--csv"):
        "4b0f585f4d6fe514237e9d59550d9ad0b9e522561c77fb89e7e5cb6e95642830",
    ("nimrep", "--graph", "E8", "--csv"):
        "ada72b08785823ac5fa2ce1d11a8fe9365232c09e4cd6bb6e2192e8fa6ca373d",
    ("nimrep", "--graph", "D21"):
        "53f7834864e02cec5a984d950067910ebe25e1826340d962d80b25e7cebbf1b9",
    ("graph-algebra", "--graph", "E6", "--csv"):
        "05e990ad99553c5e93cb7fadcb1ba4d1321107f20973e3183cfe46df955d3fe9",
    ("graph-algebra", "--graph", "D12", "--csv"):
        "91fbabd5574555cd84ee3e2e312d7e03d90c6451ba6daa3efd9cf7abe75f44f1",
    ("gram", "--level", "46", "--theta", "id+l46"):
        "0cc330c4c203e62a42f0690ebb6217a11bec509d6af8402565199f5e59e9b4e9",
    ("gram", "--level", "42", "--theta", "id+l42"):
        "79a4c5c21be565de98f89c54aeb8b3d7a123c95ace15db857dac42bb23203fd9",
    # recorded before the gauge columns were read from the integer exponents
    # and the nimrep spectra kept as arrays: the real D_even rotation (D10),
    # the D_odd fork-tip base (D7), both exceptional negative/positive cases
    ("graph-algebra", "--graph", "D10", "--csv"):
        "73e81c37a30cb7c453dbfd91c603ac8efefccb16e9463f8d3dca703cc8d7b383",
    ("graph-algebra", "--graph", "D7", "--csv"):
        "503224868a617d9c3ed17357ffe3c4266e2871fd8cb206e8b277d5a345bc5684",
    ("graph-algebra", "--graph", "E7", "--csv"):
        "4891523b29eb9b40ebf1f378855a4f09aa85142a2c0ace3b95872340f15c02a1",
    ("graph-algebra", "--graph", "E8", "--csv"):
        "3b3487ca28ce2344978051803fc3622efdbf163806c35402c405cd2b69ea97be",
    ("graph-algebra", "--graph", "D7", "--json"):
        "407bd8cce5ddaf23f5c024520196144bb82db0f74e51ddd321f519ea921efc0b",
    ("graph-algebra", "--graph", "D12", "--json"):
        "29393e399d2f3feb8a3fb3fe88e197798b58e931105c707a67dce6288768bd29",
    ("nimrep", "--graph", "A33", "--csv"):
        "a28e267298a3acedd300f9081d13559b0e85b124a51f7d710cec1e0f01842fef",
    ("nimrep", "--graph", "D10", "--csv"):
        "c7a7c3edde1441c226ab8012e76a0d3df987aea23594816676b622d69cd1ee2d",
    # recorded before the permutation flags were read from Verlinde rows:
    # the two-generator ring (SU(4)_2), Ising, SU(2) with its D_odd, a large
    # SU(3) level, and catalogs with a D_odd (k = 26) and a D_even (k = 44)
    ("invariants", "--family", "su4", "--level", "2", "--json"):
        "51181630a04747a328408dac92d3ac6388d172ef4b4919c7a24273da47e34940",
    ("invariants", "--family", "ising", "--json"):
        "a98e5e269a68d4eb9b1df6b949d6dcad9eb144b70853ebc201760a6a0773eabb",
    ("invariants", "--family", "su2", "--level", "6", "--json"):
        "61651e7a954950de95d179a1532d5481b733a332bb951b22b233dff1964d3087",
    ("invariants", "--family", "su3", "--level", "12", "--json"):
        "9320bf39327cde976692a198e318196ef525c5cd79747c7698dad1b7f5eaf86f",
    ("catalog", "--level", "26", "--json"):
        "35867c2e956996ac0381a18156107df8f19dbbe26b103f8d87024ce46a178e73",
    ("catalog", "--level", "44", "--json"):
        "6520d2318adb2b188b8127a101e73b39b82a71aa31e37e6bad87453a58a89d43",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_STDOUT))
def test_golden_stdout(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[argv]


def test_su3_level7_budget_10000_matches_unbudgeted_stdout(capsys):
    code, out, err = run(capsys, "invariants", "--family", "su3", "--level", "7",
                         "--budget", "10000", "--json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        GOLDEN_STDOUT[("invariants", "--family", "su3", "--level", "7", "--json")]


def _refuse_everywhere(monkeypatch, names, message):
    """Make each named function raise ``message`` in every modinv module that
    binds it; return the raising function."""
    def refuse(*args):
        raise AssertionError(message)

    for name in names:
        for module in list(sys.modules.values()):
            if module.__name__.startswith("modinv") and hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    return refuse


def _refuse_fusion_tensor(monkeypatch):
    """Make each function that builds a fusion tensor, and FusionRing.validate, raise."""
    refuse = _refuse_everywhere(monkeypatch, ("verlinde_fusion", "su2_fusion_closed_form"),
                                "fusion tensor built")
    monkeypatch.setattr(core.FusionRing, "validate", refuse)


@pytest.mark.parametrize("argv", [
    ("invariants", "--family", "su3", "--level", "7", "--json"),
    ("invariants", "--family", "su4", "--level", "4", "--json"),
    ("invariants", "--family", "ising", "--json"),
    ("catalog", "--level", "10", "--json"),
])
def test_invariants_and_catalog_build_no_fusion_tensor(capsys, monkeypatch, argv):
    """Only ``fusion`` builds the whole ring: with each function that builds a
    fusion tensor made to raise, in every module that binds it, the
    permutation flags come from Verlinde rows and stdout is unchanged."""
    _refuse_fusion_tensor(monkeypatch)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[argv]


@pytest.mark.parametrize("argv", [
    ("nimrep", "--graph", "A49", "--csv"),
    ("graph-algebra", "--graph", "A49", "--json"),
    ("chiral-table", "--max-level", "32", "--json"),
    ("emit-graph", "--case", "A33"),
    ("emit-graph", "--case", "D8"),
    ("emit-graph", "--case", "E7"),
])
def test_diagram_commands_build_no_fusion_tensor(tmp_path, capsys, monkeypatch, argv):
    """Of the diagram commands only ``gram`` (the closed form) and the D_odd
    drawing of ``emit-graph`` (the validated Verlinde ring) build a fusion
    tensor: with each builder and FusionRing.validate made to raise, stdout
    and every other drawing are unchanged."""
    _refuse_fusion_tensor(monkeypatch)
    if argv[0] == "emit-graph":
        out_path = tmp_path / "graph.dot"
        code, _, _ = run(capsys, *argv, "--out", str(out_path))
        digest, golden = hashlib.sha256(out_path.read_bytes()).hexdigest(), GOLDEN_DOT[argv[-1]]
    else:
        code, out, _ = run(capsys, *argv)
        digest, golden = hashlib.sha256(out.encode()).hexdigest(), GOLDEN_STDOUT[argv]
    assert code == 0
    assert digest == golden


@pytest.mark.parametrize("argv", [
    ("invariants", "--family", "su3", "--level", "5", "--json"),
    ("invariants", "--family", "su3", "--level", "7", "--json"),
    ("invariants", "--family", "su3", "--level", "12", "--json"),
    ("invariants", "--family", "su4", "--level", "2", "--json"),
    ("invariants", "--family", "su4", "--level", "4", "--json"),
    ("invariants", "--family", "su2", "--level", "6", "--json"),
    ("catalog", "--level", "26", "--json"),
])
def test_sun_permutation_verdicts_need_no_generator_search(capsys, monkeypatch, argv):
    """SU(n) data takes the fundamental weights as generators by the Pieri
    rule: with the generator search made to raise in every module that binds
    it, the permutation flags (the D_odd one at SU(2)_26 among them) and
    stdout are unchanged."""
    _refuse_everywhere(monkeypatch, ("generating_labels", "_krylov_full_rank"),
                       "generator search run")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[argv]


@pytest.mark.parametrize("argv", [
    ("catalog", "--level", "65"),
    ("catalog", "--level", "0"),
    ("show", "--family", "su2", "--level", "0"),
    ("invariants", "--family", "su2", "--level", "65"),
    ("gram", "--level", "0", "--theta", "id"),
    ("gram", "--level", "10", "--theta", "l2"),
    ("fusion", "--family", "su3", "--level", "0"),
    ("chiral-table", "--max-level", "33"),
    ("chiral-table", "--max-level", "0"),
    ("chiral-table", "--max-level", "-1"),
    ("nimrep", "--graph", "F4"),
    ("graph-algebra", "--graph", "Q5"),
    ("emit-graph", "--case", "F4", "--out", "unused.dot"),
    ("invariants", "--family", "su2", "--level", "4", "--budget", "0"),
    ("invariants", "--family", "su2", "--level", "4", "--budget", "-5"),
    ("catalog", "--level", "4", "--budget", "0"),
    ("catalog", "--level", "4", "--budget", "-5"),
    ("nimrep", "--graph", "A3", "--invariant", "{tmp}/missing.json"),
    ("nimrep", "--graph", "A3", "--invariant", "{tmp}/no_z.json"),
    ("nimrep", "--graph", "A3", "--invariant", "{tmp}/list.json"),
    ("nimrep", "--graph", "A3", "--invariant", "{tmp}/invalid.json"),
    ("nimrep", "--graph", "A3", "--invariant", "{tmp}/ragged.json"),
    ("nimrep", "--graph", "A3", "--invariant", "{tmp}/not_square.json"),
    ("nimrep", "--graph", "A3", "--invariant", "{tmp}/fractional.json"),
    ("nimrep", "--graph", "A3", "--invariant", "{tmp}/wrong_size.json"),
    ("nimrep", "--graph", "A3", "--invariant", "{tmp}/negative.json"),
    ("emit-graph", "--case", "A3", "--out", "{tmp}/missing/dir/x.dot"),
    ("show", "--family", "group", "--level", str(core.SUN_LABEL_MAX + 1)),
    ("invariants", "--family", "group", "--level", str(core.SUN_LABEL_MAX + 1)),
    ("gram", "--level", "10", "--theta", "id+l\u00b2"),
    ("nimrep", "--graph", "A\u00b2"),
])
def test_out_of_range_input_is_usage_error(capsys, tmp_path, argv):
    files = {
        "no_z.json": '{"W": [[1]]}',
        "list.json": "[[1, 0, 0], [0, 1, 0], [0, 0, 1]]",
        "invalid.json": '{"Z": [[1, 0, 0],',
        "ragged.json": '{"Z": [[1, 0, 0], [0, 1], [0, 0, 1]]}',
        "not_square.json": '{"Z": [[1, 0, 0], [0, 1, 0]]}',
        "fractional.json": '{"Z": [[1, 0, 0], [0, 0.5, 0], [0, 0, 1]]}',
        "wrong_size.json": '{"Z": [[1, 0], [0, 1]]}',
        "negative.json": '{"Z": [[1, 0, 0], [0, -1, 0], [0, 0, 1]]}',
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (("gram", "--level", "10", "--theta", "id+l\u00b2"), "bad theta token 'l\u00b2'"),
    (("nimrep", "--graph", "A\u00b2"), "unknown diagram name 'A\u00b2'"),
], ids=["gram", "nimrep"])
def test_a_superscript_digit_is_no_number(capsys, argv, message):
    # str.isdigit accepts the superscript two, which int() refuses
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (("gram", "--level", "-1", "--theta", "id"), "su2 level out of range: -1"),
    (("gram", "--level", "0", "--theta", "id+l1"), "su2 level out of range: 0"),
], ids=["negative", "zero"])
def test_gram_checks_the_level_before_the_theta(capsys, argv, message):
    # each theta is valid at some level; the level is what is out of range
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, k", [
    (("graph-algebra", "--graph", "A66", "--json"), 65),
    (("graph-algebra", "--graph", "D40", "--json"), 76),
    (("graph-algebra", "--graph", "D200", "--json"), 396),
    (("graph-algebra", "--graph", "A1", "--json"), 0),
    (("emit-graph", "--case", "A66", "--out", "{tmp}/a66.dot"), 65),
    (("nimrep", "--graph", "A66"), 65),
    (("nimrep", "--graph", "A1"), 0),
])
def test_diagram_level_outside_the_limit_is_usage_error(capsys, tmp_path, argv, k):
    # refused before the diagram is built: D200 alone would take a 200^3 complex tensor
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (2, "", f"error: su2 level out of range: {k}\n")
    assert peak < 10 ** 6
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("n, k", [(3, 27), (3, 1000), (4, 120), (4, 1000)])
def test_large_sun_refused_before_enumerating_labels(capsys, monkeypatch, n, k):
    def enumerate_labels(n, k):
        raise AssertionError("labels enumerated before the label bound was checked")
    monkeypatch.setattr(core, "_sun_partitions", enumerate_labels)
    code, out, err = run(capsys, "show", "--family", f"su{n}", "--level", str(k))
    assert code == 2
    assert out == "" and err.startswith("error: ")


COMMAND_NAMES = ["show", "fusion", "invariants", "catalog", "nimrep", "graph-algebra",
                 "chiral-table", "gram", "emit-graph"]

# (exit code, sha256 of stdout + "\0" + stderr) at 80 columns, recorded while
# every call still built the parser of every command
GOLDEN_USAGE = {
    (): (2, "2113a7ff4a0dde0f1651c0f8c173008f65c8890712f5db752f6e93c8d13d4779"),
    ("-h",): (0, "000db83b0f2ef3c0b850b646d69d35d8d4fe304be128fb8ad55098f77d4beceb"),
    ("bogus",): (2, "d6b756ada5b10495034116c658a6550a8ed4859882b26612741c5b80cad4c368"),
    ("catalog",): (2, "71ca6a8103b85d86167bb9e0187027104d44448d12e99e352c6702ae3ecbf82b"),
    ("catalog", "--levle", "4"):
        (2, "71ca6a8103b85d86167bb9e0187027104d44448d12e99e352c6702ae3ecbf82b"),
    ("show", "--family", "su2", "--level", "x"):
        (2, "50a47e43d9599fc3c9b5475dad4818a0481609339e5f0a0417dda79c59ae8f17"),
    ("invariants", "--family", "su9", "--level", "2"):
        (2, "3b5277ccd50e2eb01fb0b6d9b41e546d26f177b9d62912fe4c631d2794dab126"),
    # the top-level parser reports this one, with the top-level usage
    ("show", "--family", "ising", "extra"):
        (2, "b1598383229b32cd4117518bf4143c4b4c9045117428426dd5229b813c9da14a"),
    ("show", "-h"): (0, "74de79d515bafddb396a604ca3ad1113a1f6df43793b7be4633e17b40e3d9e55"),
    ("fusion", "-h"): (0, "9b65ad01df6639ea39a7a266fe97ce9d29e64184c57ebeaf86c573879c8c18dc"),
    ("invariants", "-h"): (0, "1af7eb7b0db2b837e13c3829d3c9ab3eeeb5377a744cc9c707d53f9f4b81fec4"),
    ("catalog", "-h"): (0, "4c55efec8aa698421a6c809b2b82bb68f8720cd853946c9076d5753a48766bea"),
    ("nimrep", "-h"): (0, "ef87d8bfc6054e2c5b4066deda7eb13eb24478a78c5fbcba81fb791994ef27fa"),
    ("graph-algebra", "-h"):
        (0, "088848f43f4cdf8e650b4c9c21e1eb2cee72c20c2032ff01039755ca444bb901"),
    ("chiral-table", "-h"):
        (0, "fad3ce0da342c08ddb8e94d2051364001fc3d11c937cea11f8284c2088155896"),
    ("gram", "-h"): (0, "ea3965b51aa5a226f0c21103112d41bef5a10a2e3ffb512324577a52b80da5b7"),
    ("emit-graph", "-h"): (0, "04953a1c43918e4aee426614c2b56f1c80c250a3ef454c82496bd3db25647d6b"),
}


@pytest.mark.parametrize("argv", list(GOLDEN_USAGE), ids=" ".join)
def test_golden_usage(capsys, monkeypatch, argv):
    # argparse wraps help and usage to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    digest = hashlib.sha256((captured.out + "\0" + captured.err).encode()).hexdigest()
    assert (code, digest) == GOLDEN_USAGE[argv]


def _subparsers(parser):
    [action] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_full_parser_registers_every_command():
    assert list(_subparsers(cli.build_parser())) == COMMAND_NAMES


@pytest.mark.parametrize("name", COMMAND_NAMES)
def test_named_parser_registers_only_its_command(monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    one = _subparsers(cli.build_parser(name))
    assert list(one) == [name]
    assert one[name].format_help() == _subparsers(cli.build_parser())[name].format_help()


def test_console_script_reads_sys_argv(capsys, monkeypatch):
    argv = ["catalog", "--level", "4", "--json"]
    expected = run(capsys, *argv)
    monkeypatch.setattr(sys, "argv", ["modinv", *argv])
    code = cli.main()
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == expected
    assert expected[0] == 0 and expected[1]


@pytest.mark.parametrize("argv", [
    ("graph-algebra", "--graph", "A33", "--csv"),
    ("show", "--family", "su3", "--level", "12", "--json"),
    ("fusion", "--family", "su3", "--level", "12", "--json"),
], ids=lambda argv: argv[0])
def test_a_closed_pipe_ends_the_command_without_a_traceback(argv):
    # each output is far beyond a pipe's buffer, so the command is still
    # writing when the reader closes its end after 10 bytes
    src = os.path.dirname(os.path.dirname(modinv.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-m", "modinv.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (cli.EXIT_VERIFY, b"")
