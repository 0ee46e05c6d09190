"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from modinv import chiral, core, graph_algebra, nimrep, search
from test_chiral import chiral_pf_residual, full_system_dodd_per_pair
from test_search import su3_named_invariants


def _report(num, elapsed, limit, text):
    print(f"ACCEPTANCE {num:2d} PASS ({elapsed:6.2f}s < {limit}s): {text}")


def test_criterion_01_verlinde_equals_closed_form():
    t0 = time.perf_counter()
    for k in range(1, 33):
        md = core.su2_modular_data(k)
        ring = core.su2_fusion_closed_form(k)
        ratio = md.S / md.S[:, [0]]
        raw = np.einsum("ra,rb,rc->abc", ratio, md.S, md.S.conj())
        assert np.max(np.abs(raw - np.round(raw.real))) < 1e-6
        assert np.array_equal(core.verlinde_fusion(md).N, ring.N)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(1, elapsed, 5, "Verlinde fusion equals the closed form for k <= 32")


def test_criterion_02_modular_relations():
    t0 = time.perf_counter()
    cases = [core.su2_modular_data(k) for k in range(1, 33)]
    cases += [core.sun_modular_data(3, 3), core.sun_modular_data(3, 5),
              core.ising_modular_data()]
    for md in cases:
        checks = core.check_modular(md)
        assert checks.passed, f"{md.family}_{md.level}: {checks.summary()}"
        assert max(checks.st_cubed, checks.s_squared_conjugation,
                   checks.unitary) < 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0
    _report(2, elapsed, 2, "modular relations hold for SU(2) k<=32, SU(3)_{3,5}, Ising")


EXPECTED_SETS = {4: {"A5", "D4"}, 10: {"A11", "D7", "E6"},
                 16: {"A17", "D10", "E7"}, 28: {"A29", "D16", "E8"}}


def test_criterion_03_ade_enumeration():
    t0 = time.perf_counter()
    for k, expected in EXPECTED_SETS.items():
        named = search.su2_ade_catalog(core.su2_modular_data(k))
        assert {graph.name for graph in named} == expected
        assert len(named) == len(expected)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(3, elapsed, 60, "exact invariant sets at k = 4, 10, 16, 28")


def test_criterion_04_ising_triviality():
    t0 = time.perf_counter()
    found = search.enumerate_invariants(core.ising_modular_data())
    assert found.complete and len(found) == 1
    assert np.array_equal(found[0].Z, np.eye(3, dtype=int))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(4, elapsed, 1, "the Ising model admits only the identity invariant")


def test_criterion_05_spectra_match_diagonals():
    t0 = time.perf_counter()
    for k, names in EXPECTED_SETS.items():
        md = core.su2_modular_data(k)
        for graph in search.su2_ade_catalog(md):
            family = nimrep.fused_adjacencies(graph)
            report = nimrep.spectrum_vs_diagonal(family, graph.Z)
            assert report.matched, f"{graph.name}: worst gap {report.worst_gap}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(5, elapsed, 10, "nimrep spectra match invariant diagonals, all graphs/nu")


def test_criterion_06_graph_algebra_dichotomy():
    t0 = time.perf_counter()
    fusions = {name: graph_algebra.graph_structure_constants(
        graph_algebra.eigen_gauge(search.ade_graph(name)))
        for name in ("A9", "D6", "D8", "E6", "E8", "D5", "D7", "E7")}
    for name in ("A9", "D6", "D8", "E6", "E8"):
        assert fusions[name].positive and fusions[name].associative()
    for name in ("D5", "D7", "E7"):
        assert fusions[name].worst_negative < -1e-3
    assert np.array_equal(fusions["A9"].rounded, core.su2_fusion_closed_form(8).N)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(6, elapsed, 5, "positivity dichotomy incl. A-series = Verlinde")


def _expected_table_rows():
    rows = {}
    for k in range(1, 29):
        L = k + 1
        rows[(f"A{L}", k)] = (L, L, L, L, f"A{L}")
    for ell in range(2, 9):
        k = 4 * ell - 4
        if k <= 28:
            rows[(f"D{2*ell}", k)] = (4 * ell, 2 * ell, 2 * ell, ell + 1, f"D{2*ell}")
    for ell in range(2, 8):
        k = 4 * ell - 2
        if k <= 28:
            rows[(f"D{2*ell+1}", k)] = (4 * ell - 1, 2 * ell + 1, 4 * ell - 1,
                                        4 * ell - 1, f"A{4*ell-1}")
    rows[("E6", 10)] = (12, 6, 6, 3, "E6")
    rows[("E7", 16)] = (17, 7, 10, 6, "D10")
    rows[("E8", 28)] = (32, 8, 8, 2, "E8")
    return rows


def test_criterion_07_table_reproduction():
    t0 = time.perf_counter()
    rows = chiral.chiral_table(28)
    got = {(r.graph.name, r.graph.level): (r.counts.mm, r.counts.mn, r.counts.chiral,
                                           r.counts.ambi, r.gamma01) for r in rows}
    assert got == _expected_table_rows()
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(7, elapsed, 10, f"all {len(rows)} classification rows, counts and graphs")


def test_criterion_08_gram_decompositions():
    t0 = time.perf_counter()
    for ell in range(2, 8):
        k = 4 * ell - 2
        ring = core.su2_fusion_closed_form(k)
        _, G1 = chiral.decompose_gram(np.bincount([0, k], minlength=k + 1), ring.N)
        assert nimrep.identify_ade(G1) == f"D{2*ell+1}"
    ring16 = core.su2_fusion_closed_form(16)
    _, G1 = chiral.decompose_gram(np.bincount([0, 8, 16], minlength=17), ring16.N)
    assert nimrep.identify_ade(G1) == "E7"
    for k in range(2, 17):
        ring = core.su2_fusion_closed_form(k)
        _, G1 = chiral.decompose_gram(np.bincount([0, 2], minlength=k + 1), ring.N)
        assert nimrep.identify_ade(G1) == f"A{k+1}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(8, elapsed, 5, "Gram factorizations give D_odd, E7 and creased A graphs")


def test_criterion_09_branching_factorizations():
    t0 = time.perf_counter()
    for k in range(1, 31):
        cases = ["A"]
        if k % 4 == 0:
            cases.append("D_even")
        if k % 4 == 2 and k > 2:  # D3 is A3
            cases.append("D_odd")
        if k == 10:
            cases.append("E6")
        if k == 16:
            cases.append("E7")
        if k == 28:
            cases.append("E8")
        expected_rows = _expected_table_rows()
        # the catalog's Z of each case equals the enumerated invariant
        md = core.su2_modular_data(k)
        catalog = {graph.case: graph for graph in search.su2_ade_catalog(md)}
        assert sorted(catalog) == sorted(cases), k
        for case in cases:
            b = search.su2_branching(case, k)
            Z = catalog[case].Z
            assert np.array_equal(Z.Z, b.product()), f"{case} at k={k}"
            counts = chiral.sector_counts(Z, b)
            table_name = {"A": f"A{k+1}", "D_even": f"D{k//2+2}",
                          "D_odd": f"D{k//2+2}"}.get(case, case)
            if (table_name, k) in expected_rows:
                assert (counts.mm, counts.mn, counts.chiral, counts.ambi) == \
                    expected_rows[(table_name, k)][:4], f"{case} at k={k}"
    md = core.su2_modular_data(16)
    idx = chiral.chiral_indices(md, search.ade_graph("E7").Z)
    assert abs(idx.w_plus - idx.w / 2) < 1e-9
    assert abs(idx.w_zero - idx.w / 4) < 1e-9
    for k in (3, 12, 25):
        mdk = core.su2_modular_data(k)
        idd = chiral.chiral_indices(mdk, search.ade_graph(f"A{k + 1}").Z)
        assert abs(idd.w_plus - idd.w) < 1e-9 and abs(idd.w_zero - idd.w) < 1e-9
    for case, levels in (("D_odd", range(6, 31, 4)), ("D_even", range(4, 29, 4)),
                         ("E7", [16])):
        for k in levels:
            assert chiral_pf_residual(case, k) < 1e-8
    elapsed = time.perf_counter() - t0
    _report(9, elapsed, 30, "branching factorizations, indices and PF identity")


def test_criterion_10_su3_checks():
    t0 = time.perf_counter()
    (k3, Z3, _), (k5, Z5, _) = su3_named_invariants()
    md3 = core.sun_modular_data(3, k3)
    md5 = core.sun_modular_data(3, k5)
    assert search.verify_invariant(md3, Z3).ok
    assert search.verify_invariant(md5, Z5).ok
    assert Z3.sum_of_squares == 18
    assert Z5.sum_of_squares == 24
    assert abs(md3.global_index - 36.0) < 1e-9
    idx = chiral.chiral_indices(md3, Z3)
    assert abs(idx.w_plus - 12.0) < 1e-9
    assert abs(2 * idx.w_plus - idx.w_zero - 20.0) < 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0
    _report(10, elapsed, 2, "printed SU(3) invariants verify; w = 36, w+ = 12")


def test_criterion_11_degenerate_rejection():
    t0 = time.perf_counter()
    md = core.cyclic_group_modular_data(3)
    assert md.degenerate
    assert np.linalg.matrix_rank(md.S) == 1
    with pytest.raises(ValueError, match="degenerate"):
        search.enumerate_invariants(md)
    elapsed = time.perf_counter() - t0
    _report(11, elapsed, 1, "group-dual S flagged degenerate and rejected")


def test_criterion_12_dodd_full_system_spectra():
    t0 = time.perf_counter()
    for k in (6, 10, 14):
        report = full_system_dodd_per_pair(k)
        assert report.matched, f"k={k}: worst gap {report.worst_gap}"
        assert report.pairs_checked == (k + 1) ** 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(12, elapsed, 10, "full-system spectra with multiplicities Z^2, k = 6, 10, 14")
