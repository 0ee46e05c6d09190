"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage error.  All numeric
output is printed with 12 significant digits and JSON/CSV output is
byte-stable across runs.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import core, search, nimrep, graph_algebra, chiral, dot

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _load_family(family: str, level: int) -> core.ModularData:
    if family == "su2":
        return core.su2_modular_data(level)
    if family == "su3":
        return core.sun_modular_data(3, level)
    if family == "su4":
        return core.sun_modular_data(4, level)
    if family == "ising":
        return core.ising_modular_data()
    if family == "group":
        return core.cyclic_group_modular_data(level)
    raise ValueError(f"unknown family {family!r}")


def _require_level(args) -> int:
    if args.family in ("su2", "su3", "su4", "group") and args.level is None:
        print(f"error: --level is required for family {args.family}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return args.level if args.level is not None else 0


def cmd_show(args) -> int:
    level = _require_level(args)
    md = _load_family(args.family, level)
    if args.json:
        print(core.dumps_deterministic(core.modular_data_to_json(md)))
        return EXIT_OK
    print(f"family={md.family} level={md.level} labels={md.size}")
    print(f"w={_fmt(md.global_index)} c={_fmt(md.central_charge)} "
          f"degenerate={md.degenerate}")
    for lab in md.labels:
        tw = md.twists[lab.index]
        print(f"  {lab.display}: d={_fmt(md.dims[lab.index])} "
              f"twist=({_fmt(tw.real)},{_fmt(tw.imag)})")
    checks = core.check_modular(md)
    print("modular checks:", checks.summary())
    return EXIT_OK if (checks.passed or md.degenerate) else EXIT_VERIFY


def cmd_fusion(args) -> int:
    level = _require_level(args)
    md = _load_family(args.family, level)
    try:
        ring = core.verlinde_fusion(md)
    except core.DegenerateDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    triples = [(a, b, c, int(ring.N[a, b, c]))
               for a in range(ring.size) for b in range(ring.size)
               for c in range(ring.size) if ring.N[a, b, c]]
    if args.json:
        doc = {"family": md.family, "level": md.level,
               "labels": [l.display for l in md.labels],
               "N": [[a, b, c, m] for a, b, c, m in triples]}
        print(core.dumps_deterministic(doc))
        return EXIT_OK
    for a, b, c, m in triples:
        names = [md.labels[i].display for i in (a, b, c)]
        mult = "" if m == 1 else f" x{m}"
        print(f"  {names[0]} . {names[1]} -> {names[2]}{mult}")
    return EXIT_OK


def cmd_invariants(args) -> int:
    level = _require_level(args)
    md = _load_family(args.family, level)
    try:
        found = search.enumerate_invariants(md, budget=args.budget)
    except core.DegenerateDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    ring = core.verlinde_fusion(md)
    entries = []
    status = EXIT_OK
    for Z in found:
        verdict = search.permutation_criterion(ring, Z)
        report = search.verify_invariant(md, Z)
        if not report.ok:
            status = EXIT_VERIFY
        entries.append({
            "name": search.name_su2_invariant(md.level, Z) if md.family == "su2" else None,
            "Z": Z.Z.tolist(),
            "diag": list(Z.diagonal),
            "sumsq": Z.sum_of_squares,
            "permutation": verdict.is_permutation,
        })
    if not found.complete:
        print("warning: search incomplete (node budget exhausted)", file=sys.stderr)
        status = EXIT_VERIFY
    if args.json:
        doc = {"family": md.family, "level": md.level, "complete": found.complete,
               "invariants": entries}
        print(core.dumps_deterministic(doc))
        return status
    print(f"{len(found)} invariant(s) at {md.family} level {md.level} "
          f"(complete={found.complete})")
    for e in entries:
        print(f"  diag={e['diag']} sumsq={e['sumsq']} permutation={e['permutation']}")
    return status


def cmd_catalog(args) -> int:
    named = search.su2_ade_catalog(args.level, budget=args.budget)
    ring = core.su2_fusion_closed_form(args.level)
    if args.json:
        doc = {"family": "su2", "level": args.level,
               "invariants": [{"name": ni.name, "Z": ni.Z.Z.tolist(),
                               "diag": list(ni.Z.diagonal),
                               "sumsq": ni.Z.sum_of_squares,
                               "permutation": search.permutation_criterion(
                                   ring, ni.Z).is_permutation}
                              for ni in named]}
        print(core.dumps_deterministic(doc))
        return EXIT_OK
    for ni in named:
        print(f"{ni.name}: diag={list(ni.Z.diagonal)} sumsq={ni.Z.sum_of_squares}")
    return EXIT_OK


def cmd_nimrep(args) -> int:
    graph = nimrep.ade_graph(args.graph)
    k = graph.level
    family = nimrep.fused_adjacencies(graph)
    md = core.su2_modular_data(k)
    if args.invariant:
        import json as _json
        with open(args.invariant) as fh:
            Z = search.MassMatrix(np.array(_json.load(fh)["Z"], dtype=int))
    else:
        Z = search.su2_invariant_matrix(search.case_of_invariant(args.graph, k), k)
    report = nimrep.spectrum_vs_diagonal(family, md, Z)
    if args.csv:
        print("graph,nu,eigenvalue,multiplicity,matched_spin")
        for row in nimrep.spectrum_csv_rows(family, md, Z):
            print(f"{row[0]},{row[1]},{_fmt(row[2])},{row[3]},{row[4]}")
    else:
        print(f"{args.graph}: level {k}, vertices {graph.num_vertices}, "
              f"matched={report.matched} worst_gap={_fmt(report.worst_gap)}")
        for entry in report.entries:
            print(f"  nu={entry.nu} matched={entry.matched} gap={_fmt(entry.worst_gap)}")
    return EXIT_OK if report.matched else EXIT_VERIFY


def cmd_graph_algebra(args) -> int:
    gauge = graph_algebra.eigen_gauge(nimrep.ade_graph(args.graph))
    fusion = graph_algebra.graph_structure_constants(gauge)
    if args.csv:
        print("graph,a,b,c,value,rounded,flag")
        for row in graph_algebra.csv_rows(fusion):
            print(f"{row[0]},{row[1]},{row[2]},{row[3]},{_fmt(row[4])},{row[5]},{row[6]}")
        return EXIT_OK
    if args.json:
        doc = {"graph": fusion.graph, "positive": fusion.positive,
               "worst_negative": float(_fmt(fusion.worst_negative)),
               "integrality_gap": float(_fmt(fusion.integrality_gap)),
               "associative": fusion.associative() if fusion.positive else None}
        print(core.dumps_deterministic(doc))
        return EXIT_OK
    verdict = "positive fusion rules" if fusion.positive else "negative entries"
    print(f"{fusion.graph}: {verdict}; worst entry {_fmt(fusion.worst_negative)}; "
          f"base vertex {gauge.base}")
    if fusion.positive:
        print(f"  associative: {fusion.associative()}")
    return EXIT_OK


def cmd_chiral_table(args) -> int:
    rows = chiral.chiral_table(args.max_level)
    if args.json:
        dossiers = []
        for r in rows:
            md = core.su2_modular_data(r.level)
            case = chiral.case_of_invariant(r.name, r.level)
            dossiers.append(chiral.dossier(r.name, r.level,
                                           search.su2_invariant_matrix(case, r.level),
                                           chiral.branching_data(case, r.level), md))
        print(core.dumps_deterministic({"rows": dossiers}))
        return EXIT_OK
    if args.csv:
        print("name,level,mm,mn,chiral,ambi,gamma01")
        for r in chiral.table_csv_rows(rows):
            print(",".join(str(x) for x in r))
        return EXIT_OK
    print(f"{'name':>6} {'k':>3} {'#MM':>4} {'#MN':>4} {'#chi':>4} {'#amb':>4}  gamma01")
    for r in rows:
        print(f"{r.name:>6} {r.level:>3} {r.mm:>4} {r.mn:>4} "
              f"{r.chiral:>4} {r.ambi:>4}  {r.gamma01}")
    return EXIT_OK


def _parse_theta(spec: str, k: int) -> np.ndarray:
    spins = []
    for token in spec.split("+"):
        token = token.strip()
        if token == "id":
            spins.append(0)
        elif token.startswith("l") and token[1:].isdigit():
            spins.append(int(token[1:]))
        else:
            raise core.UsageError(f"bad theta token {token!r}")
    if any(j > k for j in spins):
        raise core.UsageError("theta spin beyond level")
    return chiral.theta_vector(k, spins)


def cmd_gram(args) -> int:
    theta = _parse_theta(args.theta, args.level)
    ring = core.su2_fusion_closed_form(args.level)
    M = chiral.gram_matrix(ring, theta)
    try:
        dec = chiral.decompose_gram(M, ring)
    except chiral.GramDecompositionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    print(f"level {args.level} theta {args.theta}: {dec.num_sectors} sectors, "
          f"G1 graph {dec.graph_name or 'unrecognized'}")
    for row in dec.G1.tolist():
        print("  " + " ".join(str(x) for x in row))
    return EXIT_OK


def _case_document(name: str) -> dot.GraphDocument:
    if name == "trivial":
        return dot.trivial_document()
    graph = nimrep.ade_graph(name)
    if name.startswith("D") and graph.num_vertices % 2 == 1:
        return dot.dodd_fusion_document(graph.level)
    return dot.ade_document(graph)


def cmd_emit_graph(args) -> int:
    text = dot.emit_dot(_case_document(args.case))
    out = args.out
    outdir = os.environ.get("MODINV_OUTDIR")
    if outdir and not os.path.isabs(out):
        out = os.path.join(outdir, out)
    with open(out, "w") as fh:
        fh.write(text)
    print(f"wrote {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="modinv",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def family_opts(p, budget=False):
        p.add_argument("--family", required=True,
                       choices=["su2", "su3", "su4", "ising", "group"])
        p.add_argument("--level", type=int, default=None)
        p.add_argument("--json", action="store_true")
        if budget:
            p.add_argument("--budget", type=int, default=search.DEFAULT_NODE_BUDGET)

    p = sub.add_parser("show", help="print modular data for a family")
    family_opts(p)
    p.set_defaults(func=cmd_show)

    p = sub.add_parser("fusion", help="print Verlinde fusion rules")
    family_opts(p)
    p.set_defaults(func=cmd_fusion)

    p = sub.add_parser("invariants", help="enumerate modular invariants")
    family_opts(p, budget=True)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("catalog", help="named SU(2) invariants at a level")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--budget", type=int, default=search.DEFAULT_NODE_BUDGET)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("nimrep", help="fused adjacencies and spectrum check")
    p.add_argument("--graph", required=True)
    p.add_argument("--invariant", default=None, metavar="FILE",
                   help="JSON file with a Z matrix (default: the matching named invariant)")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_nimrep)

    p = sub.add_parser("graph-algebra", help="structure constants of a diagram")
    p.add_argument("--graph", required=True)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_graph_algebra)

    p = sub.add_parser("chiral-table", help="classification summary table")
    p.add_argument("--max-level", type=int, required=True)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--json", action="store_true",
                   help="emit the per-case dossiers (Z, branching, indices)")
    p.set_defaults(func=cmd_chiral_table)

    p = sub.add_parser("gram", help="decompose a sector Gram matrix")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--theta", required=True, metavar="SPEC",
                   help="multiplicity vector like id+l8+l16")
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("emit-graph", help="write a DOT fusion graph")
    p.add_argument("--case", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_emit_graph)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except core.UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
