"""The CLI writes its documents a piece at a time: the bytes equal the
whole-document encoding, a failing check leaves stdout empty, and the
memory beyond the data a command needs stays a fraction of its output."""

import hashlib
import importlib.util
import itertools
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from modinv import chiral, cli, core, graph_algebra, nimrep, search

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _benchmark_cases():
    spec = importlib.util.spec_from_file_location("perfbench_cases", PERFBENCH / "cases.py")
    cases = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cases)
    return cases


def _encode(doc) -> str:
    """The reference encoding: the whole document in one json.dumps."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _cell(x) -> str:
    """The reference cell rule: a float to 12 significant digits, anything else by str."""
    return f"{float(x):.12g}" if isinstance(x, float) else str(x)


def _csv(header, rows) -> str:
    lines = [",".join(map(_cell, row)) for row in rows]
    return "\n".join([header] + lines) + "\n"


def _whole_triples(N):
    nonzero = N != 0
    return np.column_stack([np.argwhere(nonzero), N[nonzero]]).tolist()


def _whole_csv_rows(fusion):
    val = fusion.Nhat.real
    flag = np.where(val < -core.ROUND_TOL, 2,
                    np.where(np.abs(val - fusion.rounded) < core.ROUND_TOL, 0, 1))
    abc = np.indices(val.shape).reshape(3, -1).tolist()
    return list(zip(itertools.repeat(fusion.graph), *abc, val.ravel().tolist(),
                    fusion.rounded.ravel().tolist(),
                    graph_algebra.CSV_FLAGS[flag.ravel()].tolist()))


def reference_stdout(argv) -> str:
    """Stdout of a document command, each document built whole and encoded once."""
    args = cli.build_parser(argv[0]).parse_args(argv)
    if args.command == "fusion":
        md = cli._load_family(args)
        triples = _whole_triples(core.verlinde_fusion(md).N)
        if args.json:
            return _encode({"family": md.family, "level": md.level,
                            "labels": list(md.labels), "N": triples})
        return "".join(f"  {md.labels[a]} . {md.labels[b]} -> {md.labels[c]}"
                       f"{'' if m == 1 else f' x{m}'}\n" for a, b, c, m in triples)
    if args.command == "show":
        return _encode(core.modular_data_to_json(cli._load_family(args)))
    if args.command == "graph-algebra":
        fusion = graph_algebra.graph_structure_constants(
            graph_algebra.eigen_gauge(search.ade_graph(args.graph)))
        if args.csv:
            return _csv("graph,a,b,c,value,rounded,flag", _whole_csv_rows(fusion))
        return _encode({"graph": fusion.graph, "positive": fusion.positive,
                        "worst_negative": float(core.sig12(fusion.worst_negative)),
                        "integrality_gap": float(core.sig12(fusion.integrality_gap)),
                        "associative": fusion.associative() if fusion.positive else None})
    if args.command == "nimrep":
        graph = search.ade_graph(args.graph)
        report = nimrep.spectrum_vs_diagonal(nimrep.fused_adjacencies(graph), graph.Z)
        return _csv("graph,nu,eigenvalue,multiplicity,matched_spin",
                    nimrep.spectrum_csv_rows(report))
    if args.command == "chiral-table":
        return _encode({"rows": [chiral.dossier(r) for r in chiral.chiral_table(args.max_level)]})
    if args.command == "catalog":
        md = core.su2_modular_data(args.level)
        return _encode({"family": "su2", "level": args.level, "invariants": [
            cli._invariant_record(graph.name, graph.Z, md)
            for graph in search.su2_ade_catalog(md, budget=args.budget)]})
    assert args.command == "invariants", argv
    md = cli._load_family(args)
    found = search.enumerate_invariants(md, budget=args.budget)
    names = ({diag: graph.name for diag, graph in search.su2_diagram_table(md.level).items()}
             if md.family == "su2" else {})
    return _encode({"family": md.family, "level": md.level, "complete": found.complete,
                    "invariants": [cli._invariant_record(names.get(Z.diagonal), Z, md)
                                   for Z in found]})


def _benchmark_documents():
    """Every distinct argv of seed 1 of each workload, and each warm-up, that
    prints a JSON or CSV document."""
    cases = _benchmark_cases()
    argvs = [case for workload in cases.WORKLOADS.values() for case in workload(1)]
    argvs += cases.WARMUP.values()
    return sorted({a for a in argvs if "--json" in a or "--csv" in a})


STREAMED = [
    ("fusion", "--family", "su3", "--level", "12", "--json"),
    ("fusion", "--family", "su3", "--level", "12"),
    ("fusion", "--family", "su4", "--level", "5", "--json"),
    ("fusion", "--family", "su4", "--level", "5"),
    ("show", "--family", "su3", "--level", "9", "--json"),
    ("graph-algebra", "--graph", "A33", "--csv"),
    ("graph-algebra", "--graph", "D10", "--csv"),
    ("graph-algebra", "--graph", "E7", "--csv"),
]


def run(capsys, argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _assert_same_document(got, want):
    """Equal lengths and SHA-256 digests, or a failure naming the first
    differing line.  A bare == on documents of megabytes sends pytest's
    difflib explanation into minutes of work when they differ."""
    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    if len(got) == len(want) and digest(got) == digest(want):
        return
    pairs = itertools.zip_longest(got.splitlines(True), want.splitlines(True))
    i, (a, b) = next((i, p) for i, p in enumerate(pairs) if p[0] != p[1])
    pytest.fail(f"documents differ first at line index {i}:\n got: {a!r}\nwant: {b!r}",
                pytrace=False)


def test_document_comparison_names_the_first_differing_line():
    _assert_same_document("a\nb\n", "a\nb\n")
    for got, want, line in [("a\nb\nc\n", "a\nB\nc\n", "line index 1:\n got: 'b\\n'"),
                            ("a\nb", "a\nb\n", "line index 1:\n got: 'b'"),
                            ("a\n", "a\nb\n", "line index 1:\n got: None")]:
        with pytest.raises(pytest.fail.Exception) as info:
            _assert_same_document(got, want)
        assert line in str(info.value)


@pytest.mark.parametrize("argv", STREAMED + _benchmark_documents(), ids=" ".join)
def test_streamed_output_equals_the_whole_document(capsys, argv):
    code, out, _ = run(capsys, argv)
    assert code == 0
    _assert_same_document(out, reference_stdout(argv))


def test_json_writer_pieces(capsys):
    """Members are sorted as json.dumps sorts them; an iterator member is
    written from its pieces, empty pieces and an empty iterator included."""
    cli._print_json({"family": "x", "N": iter([[], [[0, 1]], [], [[2, 3], [4, 5]]]),
                     "empty": iter(()), "only_empty": iter([[], []]), "level": None})
    assert capsys.readouterr().out == _encode(
        {"family": "x", "N": [[0, 1], [2, 3], [4, 5]], "empty": [], "only_empty": [],
         "level": None})


CSV_FLOATS = [-0.0, 0.0, 1e-13, 1e12, 123456789012345.0, math.inf, -math.inf, 0.1 + 0.2]


def test_csv_writer_formats_each_cell_by_the_reference_rule(monkeypatch, capsys):
    """One row format per table writes the bytes of the per-cell rule, over
    chunk boundaries, for float, numpy.float64, large int, str and bool cells."""
    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 3)
    rows = [("g", 10 ** 12 + i, x, np.float64(x) / 3, i % 2 == 0)
            for i, x in enumerate(CSV_FLOATS)]
    cli._print_csv("s,n,x,y,even", iter(rows))
    assert capsys.readouterr().out == _csv("s,n,x,y,even", rows)
    cli._print_csv("s,n,x,y,even", [])
    assert capsys.readouterr().out == _csv("s,n,x,y,even", [])
    assert [core.sig12(x) for x in CSV_FLOATS] == list(map(_cell, CSV_FLOATS))


def _raise_on_last_call(monkeypatch, capsys, owner, name, argv):
    """Run argv once to count the calls of owner.name, then make its last
    call raise."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    assert run(capsys, argv)[0] == 0
    last = len(calls)

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == last:
            raise AssertionError("forced failure in the last record")
        return original(*args, **kwargs)

    calls.clear()
    monkeypatch.setattr(owner, name, failing)


# the check each command runs once per record, the last call on its last record
LAST_RECORD_CHECK = {"fusion": (core, "_round_counts"),
                     "chiral-table": (chiral, "chiral_indices"),
                     "catalog": (search, "permutation_criterion"),
                     "invariants": (search, "permutation_criterion")}


@pytest.mark.parametrize("argv", [
    ("fusion", "--family", "su3", "--level", "6", "--json"),
    ("fusion", "--family", "su3", "--level", "6"),
    ("chiral-table", "--max-level", "10", "--json"),
    ("chiral-table", "--max-level", "10", "--csv"),
    ("catalog", "--level", "16", "--json"),
    ("invariants", "--family", "su3", "--level", "5", "--json"),
], ids=" ".join)
def test_a_failure_in_the_last_record_prints_nothing(monkeypatch, capsys, argv):
    _raise_on_last_call(monkeypatch, capsys, *LAST_RECORD_CHECK[argv[0]], argv)
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == "error: forced failure in the last record\n"


def test_a_bad_last_structure_constant_prints_no_csv(monkeypatch, capsys):
    """An entry near 1/2 in the last a-slice raises before any row is written."""
    original = graph_algebra.verlinde_sum

    def spoiled(U, base):
        N = original(U, base)
        N[-1, -1, -1] += 0.5
        return N

    monkeypatch.setattr(graph_algebra, "verlinde_sum", spoiled)
    code, out, err = run(capsys, ("graph-algebra", "--graph", "A33", "--csv"))
    assert (code, out) == (1, "")
    assert "neither integral nor negative" in err


class _Sink:
    """A stdout that keeps only the number of characters written."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)

    def flush(self):
        pass


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("argv, build", [
    (("fusion", "--family", "su3", "--level", "12", "--json"),
     lambda: core.verlinde_fusion(core.sun_modular_data(3, 12))),
    (("graph-algebra", "--graph", "A33", "--csv"),
     lambda: graph_algebra.graph_structure_constants(
         graph_algebra.eigen_gauge(search.ade_graph("A33")))),
])
def test_writing_adds_less_than_half_the_output_to_the_peak(monkeypatch, argv, build):
    """The traced peak of the command is at most that of building its data
    (the fusion tensor with its validation, the graph structure constants)
    plus half its output.  Building the whole document first costs several
    times its output: the rows as Python lists, then the encoder's string
    per number.  At SU(3)_12 the tensor build peaks at 8.4 MB and the JSON
    is 1.0 MB; at A33 the build peaks at 0.9 MB and the CSV is 1.1 MB."""
    build_peak = _traced_peak(build)
    sink = _Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    command_peak = _traced_peak(lambda: cli.main(list(argv)))
    assert sink.size > 0
    assert command_peak <= build_peak + sink.size / 2, (command_peak, build_peak, sink.size)
