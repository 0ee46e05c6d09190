import dataclasses

import numpy as np
import pytest

from modinv import core, nimrep, search

ALL_GRAPHS = ["A3", "A5", "A9", "A17", "D4", "D5", "D6", "D7", "D8",
              "D10", "D16", "E6", "E7", "E8"]


def test_e7_graph_data():
    g = nimrep.ade_graph("E7")
    assert g.num_vertices == 7
    assert sorted(g.exponents) == [0, 4, 6, 8, 10, 12, 16]
    assert g.coxeter == 18


def test_a5_adjacency_is_spin_one_fusion_matrix():
    g = nimrep.ade_graph("A5")
    ring = core.su2_fusion_closed_form(4)
    assert np.array_equal(g.adjacency, ring.N[1])


def test_represents_rejects_changed_fused_adjacency():
    family = nimrep.fused_adjacencies(nimrep.ade_graph("D6"))
    N = core.su2_fusion_closed_form(family.level).N
    G = np.array(family.G)
    assert core.represents(N, G)
    G[2, 0, 0] += 1
    assert not core.represents(N, G)


def test_d5_exponents():
    assert sorted(nimrep.ade_graph("D5").exponents) == [0, 2, 3, 4, 6]


def test_d4_doubled_exponent():
    exps = nimrep.ade_graph("D4").exponents
    assert sorted(exps) == [0, 2, 2, 4]


def test_unknown_graph_name():
    for bad in ("F4", "D3", "E9", "Q5", "A"):
        with pytest.raises(nimrep.NimRepError):
            nimrep.ade_graph(bad)


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_spectrum_matches_exponents(name):
    g = nimrep.ade_graph(name)
    eig = np.sort(np.linalg.eigvalsh(g.adjacency.astype(float)))
    want = np.sort([2 * np.cos(np.pi * (m + 1) / g.coxeter) for m in g.exponents])
    assert np.max(np.abs(eig - want)) < 1e-9


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_fused_adjacencies_properties(name):
    fam = nimrep.fused_adjacencies(nimrep.ade_graph(name))
    assert np.array_equal(fam.G[0], np.eye(fam.graph.num_vertices, dtype=int))
    assert np.array_equal(fam.G[1], fam.graph.adjacency)
    for G in fam.G:
        assert G.min() >= 0
        assert np.array_equal(G, G.T)
    # mutual commutation (shared eigenbasis)
    for G in fam.G[2:]:
        assert np.array_equal(fam.G[1] @ G, G @ fam.G[1])


def test_a_family_is_regular_representation():
    k = 8
    fam = nimrep.fused_adjacencies(nimrep.ade_graph("A9"))
    ring = core.su2_fusion_closed_form(k)
    for j in range(k + 1):
        assert np.array_equal(fam.G[j], ring.N[j])


def test_e7_top_matrix_is_involution_fixing_fork():
    fam = nimrep.fused_adjacencies(nimrep.ade_graph("E7"))
    G16 = fam.G[16]
    assert np.array_equal(np.sort(G16.sum(axis=0)), np.ones(7, dtype=int))
    assert np.array_equal(G16 @ G16, fam.G[0])  # nimrep identity: N[16,16,0] = 1
    assert G16[6, 6] == 1  # short-tail vertex is fixed


def test_wrong_graph_level_pairing_raises():
    g = nimrep.ade_graph("D5")
    bad = dataclasses.replace(g, coxeter=12)
    with pytest.raises(nimrep.NimRepError):
        nimrep.fused_adjacencies(bad)


@pytest.mark.parametrize("name,case", [
    ("A3", "A"), ("D5", "D_odd"), ("E6", "E6"), ("E7", "E7"),
])
def test_spectrum_vs_diagonal(name, case):
    g = nimrep.ade_graph(name)
    k = g.level
    fam = nimrep.fused_adjacencies(g)
    md = core.su2_modular_data(k)
    Z = search.su2_invariant_matrix(case, k)
    report = nimrep.spectrum_vs_diagonal(fam, md, Z)
    assert report.matched
    assert report.worst_gap < 1e-7


def test_spectrum_wrong_invariant_detected():
    g = nimrep.ade_graph("D7")
    fam = nimrep.fused_adjacencies(g)
    md = core.su2_modular_data(10)
    report = nimrep.spectrum_vs_diagonal(fam, md, search.su2_invariant_matrix("A", 10))
    assert not report.matched


def test_a3_level2_spectrum_values():
    fam = nimrep.fused_adjacencies(nimrep.ade_graph("A3"))
    eig = np.sort(np.linalg.eigvalsh(fam.G[1].astype(float)))
    assert np.max(np.abs(eig - np.array([-np.sqrt(2), 0, np.sqrt(2)]))) < 1e-12


def test_csv_rows_cover_all_exponents():
    g = nimrep.ade_graph("E6")
    fam = nimrep.fused_adjacencies(g)
    md = core.su2_modular_data(10)
    report = nimrep.spectrum_vs_diagonal(fam, md, search.su2_invariant_matrix("E6", 10))
    rows = nimrep.spectrum_csv_rows(report, md)
    by_nu = {}
    for graph, nu, _, mult, spin in rows:
        assert graph == "E6"
        by_nu.setdefault(nu, 0)
        by_nu[nu] += mult
    assert all(total == 6 for total in by_nu.values())


def test_spectra_for_all_catalog_pairs_up_to_level30():
    for k in range(1, 31):
        md = core.su2_modular_data(k)
        for ni in search.su2_ade_catalog(k):
            fam = nimrep.fused_adjacencies(nimrep.ade_graph(ni.name))
            assert nimrep.spectrum_vs_diagonal(fam, md, ni.Z).matched, (k, ni.name)


def test_graphs_isomorphic_basics():
    a = nimrep.ade_graph("D5").adjacency
    perm = [3, 1, 0, 2, 4]
    P = np.zeros((5, 5), dtype=int)
    for i, j in enumerate(perm):
        P[i, j] = 1
    assert nimrep.graphs_isomorphic(a, P @ a @ P.T)
    assert not nimrep.graphs_isomorphic(a, nimrep.ade_graph("A5").adjacency)


@pytest.mark.parametrize("name", ["A7", "D6", "E8", "D15", "A17"])
def test_identify_ade(name):
    assert nimrep.identify_ade(nimrep.ade_graph(name).adjacency) == name


def test_identify_rejects_cycle():
    cycle = np.zeros((5, 5), dtype=int)
    for i in range(5):
        cycle[i, (i + 1) % 5] = cycle[(i + 1) % 5, i] = 1
    assert nimrep.identify_ade(cycle) is None
