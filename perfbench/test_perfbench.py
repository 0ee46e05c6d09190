"""Tests of the benchmark itself: each check rejects a corrupted answer, and
the tracer spans every call into the wrapped layers.

    python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import cases  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from modinv import cli  # noqa: E402
from reference import CheckError, References, check_case  # noqa: E402

REFS = References()


def invoke(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    assert rc == 0
    return out.getvalue()


def rejects(argv, text, read_file=None):
    with pytest.raises(CheckError):
        check_case(argv, text, REFS, read_file=read_file)


def json_case(*argv):
    return argv, json.loads(invoke(*argv))


def dump(doc):
    return json.dumps(doc)


def test_reference_sun_determinant_matches_su2_sine_form():
    for k in (1, 4, 9):
        a, b = reference.sun_reference(2, k), reference.su2_reference(k)
        assert np.max(np.abs(a.S - b.S)) < 1e-12
        assert a.weights == b.weights


def test_reference_tables():
    assert reference.ciz_names(16) == {"A17", "D10", "E7"}
    assert reference.ciz_names(2) == {"A3"}
    assert reference.exponent_multiplicities("D5", 6) == [1, 0, 1, 1, 1, 0, 1]
    assert len(reference.sun_partitions(3, 4)) == 15
    assert len(reference.sun_partitions(4, 5)) == 56


@pytest.mark.parametrize("argv", [
    ("catalog", "--level", "16", "--json"),
    ("catalog", "--level", "28", "--json"),
    ("invariants", "--family", "su3", "--level", "3", "--json"),
    ("invariants", "--family", "su4", "--level", "2", "--json"),
    ("invariants", "--family", "ising", "--json"),
    ("chiral-table", "--max-level", "12", "--json"),
    ("nimrep", "--graph", "D6", "--csv"),
    ("nimrep", "--graph", "E7", "--csv"),
    ("graph-algebra", "--graph", "D7", "--json"),
    ("gram", "--level", "16", "--theta", "id+l8+l16"),
    ("gram", "--level", "10", "--theta", "id+l10"),
    ("gram", "--level", "9", "--theta", "id+l2"),
])
def test_genuine_outputs_pass(argv):
    check_case(argv, invoke(*argv), REFS)


@pytest.mark.parametrize("graph", ["A6", "D6", "D7", "E6"])
def test_emitted_dot_passes_and_dropped_edge_fails(graph, tmp_path, monkeypatch):
    monkeypatch.setenv("MODINV_OUTDIR", str(tmp_path))
    argv = ("emit-graph", "--case", graph, "--out", f"{graph}.dot")
    out = invoke(*argv)
    text = (tmp_path / f"{graph}.dot").read_text()
    check_case(argv, out, REFS, read_file=lambda p: text)
    edge = next(line for line in text.splitlines() if " -- " in line)
    rejects(argv, out, read_file=lambda p: text.replace(edge + "\n", ""))


def test_catalog_rejects_changed_entry_dropped_invariant_and_flags():
    argv, doc = json_case("catalog", "--level", "16", "--json")
    bad = json.loads(dump(doc))
    bad["invariants"][0]["Z"][0][1] += 1
    rejects(argv, dump(bad))
    bad = json.loads(dump(doc))
    del bad["invariants"][-1]
    rejects(argv, dump(bad))
    bad = json.loads(dump(doc))
    bad["invariants"][0]["permutation"] = not bad["invariants"][0]["permutation"]
    rejects(argv, dump(bad))
    bad = json.loads(dump(doc))
    bad["invariants"][1]["sumsq"] += 1
    rejects(argv, dump(bad))
    bad = json.loads(dump(doc))
    bad["invariants"][0]["name"], bad["invariants"][1]["name"] = (
        bad["invariants"][1]["name"], bad["invariants"][0]["name"])
    rejects(argv, dump(bad))


def test_catalog_rejects_entry_that_breaks_only_s_commutation():
    argv, doc = json_case("catalog", "--level", "10", "--json")
    bad = json.loads(dump(doc))
    Z = bad["invariants"][0]["Z"]
    Z[1][1] += 1  # keeps T-commutation (diagonal) and positivity
    bad["invariants"][0]["diag"][1] += 1
    bad["invariants"][0]["sumsq"] = sum(v * v for row in Z for v in row)
    rejects(argv, dump(bad))


def test_invariants_reject_changed_entry_dropped_invariant_and_incomplete():
    # at SU(3)_5 every invariant is 1, C or has its transpose or CZ partner
    argv, doc = json_case("invariants", "--family", "su3", "--level", "5", "--json")
    bad = json.loads(dump(doc))
    bad["invariants"][-1]["Z"][0][0] = 2
    rejects(argv, dump(bad))
    for i in range(len(doc["invariants"])):
        bad = json.loads(dump(doc))
        del bad["invariants"][i]
        rejects(argv, dump(bad))
    bad = json.loads(dump(doc))
    bad["complete"] = False
    rejects(argv, dump(bad))


def test_chiral_table_rejects_wrong_counts_branching_and_indices():
    argv, doc = json_case("chiral-table", "--max-level", "16", "--json")
    for mutate in (
        lambda d: d["rows"][-1]["counts"].__setitem__("mm", d["rows"][-1]["counts"]["mm"] + 1),
        lambda d: d["rows"][-1]["bMinus"][0].__setitem__(0, 2),
        lambda d: d["rows"][-1].__setitem__("wPlus", d["rows"][-1]["wPlus"] * 1.001),
        lambda d: d["rows"].pop(),
    ):
        bad = json.loads(dump(doc))
        mutate(bad)
        rejects(argv, dump(bad))


def test_graph_algebra_rejects_flipped_positivity():
    for graph in ("D6", "E7"):
        argv, doc = json_case("graph-algebra", "--graph", graph, "--json")
        bad = dict(doc, positive=not doc["positive"])
        rejects(argv, dump(bad))


def test_nimrep_rejects_wrong_multiplicity_and_eigenvalue():
    argv = ("nimrep", "--graph", "E6", "--csv")
    text = invoke(*argv)
    lines = text.splitlines()
    g, nu, value, m, spin = lines[5].split(",")
    rejects(argv, "\n".join(lines[:5] + [f"{g},{nu},{value},{int(m) + 1},{spin}"] + lines[6:]))
    rejects(argv, "\n".join(lines[:5] + [f"{g},{nu},{float(value) + 1e-6},{m},{spin}"]
                            + lines[6:]))


def test_gram_rejects_wrong_graph():
    argv = ("gram", "--level", "16", "--theta", "id+l8+l16")
    text = invoke(*argv)
    rejects(argv, text.replace("E7", "D10"))
    lines = text.splitlines()
    lines[1] = lines[1].replace("1", "2", 1)
    rejects(argv, "\n".join(lines))


def test_case_lists_have_seed_independent_length_and_known_failure():
    for name, make in cases.WORKLOADS.items():
        lengths = {len(make(seed)) for seed in range(20)}
        assert len(lengths) == 1, name
        assert make(3) == make(3)
    failing = [c for c in cases.sun_frontier(5) if c in cases.KNOWN_FAULTS]
    assert len(failing) == 1
    # the level-28 catalog is the median case of every su2 round
    for seed in range(20):
        levels = {int(c[2]) for c in cases.su2_classification(seed) if c[0] == "catalog"}
        assert sorted(levels)[5] == 28 and len(levels) == 10


def _profile_counts(argvs, codes):
    """Calls of the original functions' code objects, counted by the interpreter."""
    counts = Counter()

    def prof(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    sys.setprofile(prof)
    try:
        for argv in argvs:
            invoke(*argv)
    finally:
        sys.setprofile(None)
    return counts


TRACE_CASES = [
    ("catalog", "--level", "10", "--json"),
    ("invariants", "--family", "su3", "--level", "3", "--json"),
    ("chiral-table", "--max-level", "6", "--json"),
    ("nimrep", "--graph", "E6", "--csv"),
    ("graph-algebra", "--graph", "D6", "--json"),
    ("gram", "--level", "10", "--theta", "id+l10"),
]


def test_tracer_spans_every_call_and_accounts_for_the_sweep(tmp_path, monkeypatch):
    monkeypatch.setenv("MODINV_OUTDIR", str(tmp_path))
    argvs = TRACE_CASES + [("emit-graph", "--case", "D7", "--out", "d7.dot")]
    codes = {}
    for name, (module, paths, _, _) in spans.LAYERS.items():
        for path in paths:
            obj = sys.modules[f"modinv.{module}"]
            for part in path.split("."):
                obj = getattr(obj, part)
            codes[obj.__code__] = name
    want = _profile_counts(argvs, codes)

    tracer = spans.Tracer()
    tracer.install()
    try:
        for i, argv in enumerate(argvs):
            tracer.case = i
            invoke(*argv)
    finally:
        tracer.uninstall()
    assert cli.main.__name__ == "main" and not hasattr(cli.main, "__wrapped__")

    got = Counter(span[0] for span in tracer.spans)
    assert got == want
    assert set(want) == set(spans.LAYERS)
    for name, start, end, parent, case in tracer.spans:
        assert end >= start
        if name == "cli":
            assert parent is None
        else:
            assert tracer.spans[parent][4] == case
            assert tracer.spans[parent][1] <= start and end <= tracer.spans[parent][2]
    roots = sum(end - start for name, start, end, _, _ in tracer.spans if name == "cli")
    self_total = sum(s for s, _ in tracer.self_times().values())
    assert self_total == pytest.approx(roots, rel=1e-9)


def test_end_to_end_metrics_take_each_cases_median_round_at_reference_speed():
    a, b = ["catalog", "--level", "4"], ["catalog", "--level", "10"]
    ref = run.REFERENCE_KERNEL_S
    rounds = [[{"argv": a, "seconds": 2.0, "kernel_s": ref},
               {"argv": b, "seconds": 1.0, "kernel_s": ref}],
              [{"argv": a, "seconds": 1.5, "kernel_s": ref},
               {"argv": b, "seconds": 6.0, "kernel_s": 2 * ref}],  # a phase twice as slow
              [{"argv": a, "seconds": 1.75, "kernel_s": ref},
               {"argv": b, "seconds": 2.5, "kernel_s": 2 * ref}]]
    metrics = run.end_to_end_metrics(rounds, [0.3, 0.1, 0.2])
    assert metrics["sweep_s"][0] == pytest.approx(3.0)
    assert metrics["case_p50_s"][0] == pytest.approx(1.5)
    assert metrics["setup_s"][0] == 0.2


def test_metric_names_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tracer = spans.Tracer()
    records = [{"argv": ["catalog"], "seconds": 1.0, "kernel_s": 0.01, "stdout_bytes": 10}]
    per_layer = run.layer_metrics(tracer, records, records)
    end_to_end = run.end_to_end_metrics([records], [0.2])
    for declared, produced in ((bench["per_layer"], per_layer), (bench["end_to_end"], end_to_end)):
        assert {m["name"]: m["unit"] for m in declared} == {
            name: unit for name, (_, unit) in produced.items()}
    assert [w["name"] for w in bench["workloads"]] == list(cases.WORKLOADS)
