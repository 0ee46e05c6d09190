"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage error.  A handler
returns 0 or 1 for its result and raises on an error; main alone maps the
error to its code, 2 for a UsageError and 1 otherwise.  All numeric
output is printed with 12 significant digits and JSON/CSV output is
byte-stable across runs.

A handler builds and checks every record before it writes its first byte,
so a command that fails writes nothing on stdout.  Only the formatting is
streamed: the documents are written a piece at a time, so the memory they
take beyond the data the command needs is about one piece.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from collections.abc import Iterator

import numpy as np

from . import core, search, nimrep, graph_algebra, chiral, dot

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2


CSV_CHUNK_ROWS = 256  # CSV rows formatted and written by one write


def _print_csv(header: str, rows) -> None:
    """Print a CSV table, a float cell as core.sig12 and every other cell by str.

    Each row is written by one % operation: the row format puts
    core.NUMBER_FORMAT (sig12's format) in each float column and %s in every
    other column.  The columns are read off the first row, so every row has
    the cell types of the first, as each table of the package does: a column
    comes from one typed array or field.  ``rows`` may be any iterable of
    tuples; it is formatted and written CSV_CHUNK_ROWS rows at a time.
    """
    write = sys.stdout.write
    write(header)
    rows = iter(rows)
    first = next(rows, None)
    if first is not None:
        fmt = "\n" + ",".join(core.NUMBER_FORMAT if isinstance(x, float) else "%s" for x in first)
        rows = itertools.chain([first], rows)
        while chunk := list(itertools.islice(rows, CSV_CHUNK_ROWS)):
            write("".join(map(fmt.__mod__, chunk)))
    write("\n")


def _print_json(doc: dict) -> None:
    """Print core.dumps_deterministic(doc), one piece of a list at a time.

    A member whose value is an iterator stands for a list: it yields the
    list's elements in pieces, each a list of consecutive elements, and each
    piece is encoded by dumps_deterministic and written before the next one
    is built.  A piece holds as many elements as one record of its producer,
    such as the fusion triples of one label, so encoding stays one C call
    per record.  Every other member is encoded whole.
    """
    write = sys.stdout.write
    write("{")
    for i, key in enumerate(sorted(doc)):
        write(("," if i else "") + core.dumps_deterministic(key) + ":")
        value = doc[key]
        if not isinstance(value, Iterator):
            write(core.dumps_deterministic(value))
            continue
        write("[")
        sep = ""
        for piece in value:
            if piece:
                # "[e1,...,en]" without its brackets is the piece's share of the list
                write(sep + core.dumps_deterministic(piece)[1:-1])
                sep = ","
        write("]")
    write("}\n")


def _one_per_piece(records) -> Iterator[list]:
    """The pieces of a list whose records are written one at a time."""
    return ([record] for record in records)


# --family name -> modular data at a level; every family but ising needs one.
# The lambdas look the builders up in core at call time, so a wrapper put in
# core's namespace after import, such as a profiler's span, is the one called.
FAMILIES = {
    "su2": lambda k: core.su2_modular_data(k),
    "su3": lambda k: core.sun_modular_data(3, k),
    "su4": lambda k: core.sun_modular_data(4, k),
    "ising": lambda k: core.ising_modular_data(),
    "group": lambda k: core.cyclic_group_modular_data(k),
}


def _load_family(args) -> core.ModularData:
    if args.level is None and args.family != "ising":
        raise core.UsageError(f"--level is required for family {args.family}")
    return FAMILIES[args.family](args.level)


def cmd_show(args) -> int:
    md = _load_family(args)
    if args.json:
        _print_json(core.modular_data_to_json(md, rows=_one_per_piece))
        return EXIT_OK
    checks = core.check_modular(md)
    print(f"family={md.family} level={md.level} labels={md.size}")
    print(f"w={core.sig12(md.global_index)} c={core.sig12(md.central_charge)} "
          f"degenerate={md.degenerate}")
    for i, lab in enumerate(md.labels):
        tw = md.twists[i]
        print(f"  {lab}: d={core.sig12(md.dims[i])} "
              f"twist=({core.sig12(tw.real)},{core.sig12(tw.imag)})")
    print("modular checks:", checks.summary())
    return EXIT_OK if (checks.passed or md.degenerate) else EXIT_VERIFY


def _fusion_triples(N: np.ndarray) -> Iterator[list]:
    """[a, b, c, N[a, b, c]] for every nonzero entry in row-major order, one
    list per label a."""
    for a, Na in enumerate(N):
        nonzero = Na != 0
        bc = np.argwhere(nonzero)
        yield np.column_stack([np.full(len(bc), a), bc, Na[nonzero]]).tolist()


def cmd_fusion(args) -> int:
    md = _load_family(args)
    ring = core.verlinde_fusion(md)
    if args.json:
        _print_json({"family": md.family, "level": md.level, "labels": list(md.labels),
                     "N": _fusion_triples(ring.N)})
        return EXIT_OK
    labels = md.labels
    for piece in _fusion_triples(ring.N):
        sys.stdout.write("".join(f"  {labels[a]} . {labels[b]} -> {labels[c]}"
                                 f"{'' if m == 1 else f' x{m}'}\n" for a, b, c, m in piece))
    return EXIT_OK


def _invariant_record(name, Z: search.MassMatrix, md: core.ModularData) -> dict:
    """The JSON record of one invariant, as ``invariants`` and ``catalog`` print it."""
    return {"name": name, "Z": Z.Z.tolist(), "diag": list(Z.diagonal),
            "sumsq": Z.sum_of_squares,
            "permutation": search.permutation_criterion(md, Z) is not None}


def cmd_invariants(args) -> int:
    md = _load_family(args)
    found = search.enumerate_invariants(md, budget=args.budget)
    # enumerate_invariants has verified every result a posteriori
    names = ({diag: name for diag, (name, _) in search.su2_diagram_table(md.level).items()}
             if md.family == "su2" else {})
    entries = [_invariant_record(names.get(Z.diagonal), Z, md) for Z in found]
    status = EXIT_OK if found.complete else EXIT_VERIFY
    if not found.complete:
        print("warning: search incomplete (node budget exhausted)", file=sys.stderr)
    if args.json:
        _print_json({"family": md.family, "level": md.level, "complete": found.complete,
                     "invariants": entries})
        return status
    print(f"{len(found)} invariant(s) at {md.family} level {md.level} "
          f"(complete={found.complete})")
    for e in entries:
        print(f"  diag={e['diag']} sumsq={e['sumsq']} permutation={e['permutation']}")
    return status


def cmd_catalog(args) -> int:
    md = core.su2_modular_data(args.level)
    named = search.su2_ade_catalog(md, budget=args.budget)
    if args.json:
        _print_json({"family": "su2", "level": args.level,
                     "invariants": [_invariant_record(ni.name, ni.Z, md) for ni in named]})
        return EXIT_OK
    for ni in named:
        print(f"{ni.name}: diag={list(ni.Z.diagonal)} sumsq={ni.Z.sum_of_squares}")
    return EXIT_OK


def _load_invariant(path: str, k: int) -> search.MassMatrix:
    """The level-k mass matrix in a JSON file {"Z": [[...], ...]}; a bad file is a UsageError."""
    try:
        with open(path) as fh:
            Z = np.array(json.load(fh)["Z"])
    except (OSError, ValueError) as exc:
        raise core.UsageError(f"cannot read {path}: {exc}") from None
    except (KeyError, TypeError):
        raise core.UsageError(f'{path}: no "Z" matrix') from None
    if Z.shape != (k + 1, k + 1) or Z.dtype.kind != "i":
        raise core.UsageError(f"{path}: Z must be a {k + 1} x {k + 1} integer matrix")
    try:
        return search.MassMatrix(Z)
    except ValueError as exc:
        raise core.UsageError(f"{path}: {exc}") from None


def cmd_nimrep(args) -> int:
    graph = nimrep.ade_graph(args.graph)
    k = graph.level
    family = nimrep.fused_adjacencies(graph)
    if args.invariant:
        Z = _load_invariant(args.invariant, k)
    else:
        Z = search.su2_invariant_matrix(graph.case, k)
    report = nimrep.spectrum_vs_diagonal(family, Z)
    if args.csv:
        _print_csv("graph,nu,eigenvalue,multiplicity,matched_spin",
                   nimrep.spectrum_csv_rows(report))
    else:
        print(f"{args.graph}: level {k}, vertices {graph.num_vertices}, "
              f"matched={report.matched} worst_gap={core.sig12(report.worst_gap)}")
        for nu, (ok, gap) in enumerate(zip(report.matched_by_nu.tolist(), report.gaps.tolist())):
            print(f"  nu={nu} matched={ok} gap={core.sig12(gap)}")
    return EXIT_OK if report.matched else EXIT_VERIFY


def cmd_graph_algebra(args) -> int:
    gauge = graph_algebra.eigen_gauge(nimrep.ade_graph(args.graph))
    fusion = graph_algebra.graph_structure_constants(gauge)
    if args.csv:
        _print_csv("graph,a,b,c,value,rounded,flag", graph_algebra.csv_rows(fusion))
        return EXIT_OK
    associative = fusion.associative() if fusion.positive else None
    if args.json:
        _print_json({"graph": fusion.graph, "positive": fusion.positive,
                     "worst_negative": float(core.sig12(fusion.worst_negative)),
                     "integrality_gap": float(core.sig12(fusion.integrality_gap)),
                     "associative": associative})
        return EXIT_OK
    verdict = "positive fusion rules" if fusion.positive else "negative entries"
    print(f"{fusion.graph}: {verdict}; worst entry {core.sig12(fusion.worst_negative)}; "
          f"base vertex {gauge.base}")
    if fusion.positive:
        print(f"  associative: {associative}")
    return EXIT_OK


def cmd_chiral_table(args) -> int:
    rows = chiral.chiral_table(args.max_level)
    if args.json:
        _print_json({"rows": _one_per_piece(map(chiral.dossier, rows))})
        return EXIT_OK
    if args.csv:
        _print_csv("name,level,mm,mn,chiral,ambi,gamma01", chiral.table_csv_rows(rows))
        return EXIT_OK
    print(f"{'name':>6} {'k':>3} {'#MM':>4} {'#MN':>4} {'#chi':>4} {'#amb':>4}  gamma01")
    for r in rows:
        c = r.counts
        print(f"{r.name:>6} {r.level:>3} {c.mm:>4} {c.mn:>4} "
              f"{c.chiral:>4} {c.ambi:>4}  {r.gamma01}")
    return EXIT_OK


def _parse_theta(spec: str, k: int) -> np.ndarray:
    spins = []
    for token in spec.split("+"):
        token = token.strip()
        if token == "id":
            spins.append(0)
        elif token.startswith("l") and token[1:].isdecimal():
            spins.append(int(token[1:]))
        else:
            raise core.UsageError(f"bad theta token {token!r}")
    if 0 not in spins:
        raise core.UsageError(f"theta {spec!r} is missing id")
    if any(j > k for j in spins):
        raise core.UsageError("theta spin beyond level")
    return chiral.theta_vector(k, spins)


def cmd_gram(args) -> int:
    ring = core.su2_fusion_closed_form(args.level)
    theta = _parse_theta(args.theta, args.level)
    dec = chiral.decompose_gram(chiral.gram_matrix(ring, theta), ring)
    print(f"level {args.level} theta {args.theta}: {dec.num_sectors} sectors, "
          f"G1 graph {dec.graph_name or 'unrecognized'}")
    for row in dec.G1.tolist():
        print("  " + " ".join(str(x) for x in row))
    return EXIT_OK


def cmd_emit_graph(args) -> int:
    text = dot.emit_dot(args.case)
    out = args.out
    outdir = os.environ.get("MODINV_OUTDIR")
    if outdir and not os.path.isabs(out):
        out = os.path.join(outdir, out)
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise core.UsageError(f"cannot write {out}: {exc}") from None
    print(f"wrote {out}")
    return EXIT_OK


def _arg(*flags, **kwargs) -> tuple:
    return flags, kwargs


_JSON = _arg("--json", action="store_true")
_CSV = _arg("--csv", action="store_true")
_BUDGET = _arg("--budget", type=int, default=search.DEFAULT_NODE_BUDGET)
_FAMILY_OPTS = (_arg("--family", required=True, choices=list(FAMILIES)),
                _arg("--level", type=int, default=None), _JSON)

# name -> (help, handler, arguments), in the order the top-level help lists them
COMMANDS = {
    "show": ("print modular data for a family", cmd_show, _FAMILY_OPTS),
    "fusion": ("print Verlinde fusion rules", cmd_fusion, _FAMILY_OPTS),
    "invariants": ("enumerate modular invariants", cmd_invariants, _FAMILY_OPTS + (_BUDGET,)),
    "catalog": ("named SU(2) invariants at a level", cmd_catalog,
                (_arg("--level", type=int, required=True), _BUDGET, _JSON)),
    "nimrep": ("fused adjacencies and spectrum check", cmd_nimrep, (
        _arg("--graph", required=True),
        _arg("--invariant", default=None, metavar="FILE",
             help="JSON file with a Z matrix (default: the matching named invariant)"),
        _CSV)),
    "graph-algebra": ("structure constants of a diagram", cmd_graph_algebra,
                      (_arg("--graph", required=True), _CSV, _JSON)),
    "chiral-table": ("classification summary table", cmd_chiral_table, (
        _arg("--max-level", type=int, required=True), _CSV,
        _arg("--json", action="store_true",
             help="emit the per-case dossiers (Z, branching, indices)"))),
    "gram": ("decompose a sector Gram matrix", cmd_gram, (
        _arg("--level", type=int, required=True),
        _arg("--theta", required=True, metavar="SPEC",
             help="multiplicity vector like id+l8+l16"))),
    "emit-graph": ("write a DOT fusion graph", cmd_emit_graph,
                   (_arg("--case", required=True), _arg("--out", required=True))),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser with the subparser of `command` only, or with all of them
    when `command` names none (no argv, a leading option, an unknown name)."""
    parser = argparse.ArgumentParser(prog="modinv",
                                     description=__doc__.splitlines()[0])
    if command in COMMANDS:
        # the top-level usage that an "unrecognized arguments" error prints
        # still lists every command
        names, metavar = [command], "{%s}" % ",".join(COMMANDS)
    else:
        names, metavar = list(COMMANDS), None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, func, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader is gone; stdout goes to devnull so the flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_VERIFY
    except core.UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
