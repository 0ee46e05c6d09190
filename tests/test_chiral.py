import numpy as np
import pytest

from modinv import chiral, core, nimrep, search


def test_gram_matrix_e7_theta():
    k = 16
    ring = core.su2_fusion_closed_form(k)
    M = chiral.gram_matrix(ring, chiral.theta_vector(k, [0, 8, 16]))
    for j in range(k + 1):
        for jp in range(k + 1):
            want = int(j == jp) + int(ring.N[8, j, jp]) + int(j == k - jp)
            assert M[j, jp] == want


def test_gram_matrix_identity_theta():
    ring = core.su2_fusion_closed_form(5)
    M = chiral.gram_matrix(ring, chiral.theta_vector(5, [0]))
    assert np.array_equal(M, np.eye(6, dtype=int))


def test_gram_matrix_dodd_theta():
    ring = core.su2_fusion_closed_form(6)
    M = chiral.gram_matrix(ring, chiral.theta_vector(6, [0, 6]))
    for j in range(7):
        for jp in range(7):
            assert M[j, jp] == int(j == jp) + int(j == 6 - jp)


def test_gram_matrix_requires_identity():
    ring = core.su2_fusion_closed_form(4)
    with pytest.raises(ValueError):
        chiral.gram_matrix(ring, chiral.theta_vector(4, [4]))


def test_decompose_gram_e7():
    ring = core.su2_fusion_closed_form(16)
    M = chiral.gram_matrix(ring, chiral.theta_vector(16, [0, 8, 16]))
    dec = chiral.decompose_gram(M, ring)
    assert dec.num_sectors == 7
    assert dec.graph_name == "E7"
    assert np.array_equal(dec.F.T @ dec.F, M)


@pytest.mark.parametrize("ell", [2, 3, 4])
def test_decompose_gram_dodd(ell):
    k = 4 * ell - 2
    ring = core.su2_fusion_closed_form(k)
    dec = chiral.decompose_gram(chiral.gram_matrix(ring, chiral.theta_vector(k, [0, k])), ring)
    assert dec.num_sectors == 2 * ell + 1
    assert dec.graph_name == f"D{2 * ell + 1}"


@pytest.mark.parametrize("k", [3, 8, 13, 16])
def test_decompose_gram_two_sided_ideal(k):
    # theta = spin0 + spin2 reproduces the spin chain graph with a crease
    ring = core.su2_fusion_closed_form(k)
    dec = chiral.decompose_gram(chiral.gram_matrix(ring, chiral.theta_vector(k, [0, 2])), ring)
    assert dec.num_sectors == k + 1
    assert dec.graph_name == f"A{k + 1}"


def test_decompose_gram_rejects_negative_entries():
    ring = core.su2_fusion_closed_form(2)
    M = chiral.gram_matrix(ring, chiral.theta_vector(2, [0]))
    M[0, 1] = M[1, 0] = -1
    with pytest.raises(chiral.GramDecompositionError, match="non-negative"):
        chiral.decompose_gram(M, ring)


def test_decompose_gram_budget(monkeypatch):
    monkeypatch.setattr(chiral, "GRAM_NODE_BUDGET", 5)
    ring = core.su2_fusion_closed_form(16)
    M = chiral.gram_matrix(ring, chiral.theta_vector(16, [0, 8, 16]))
    with pytest.raises(chiral.GramDecompositionError, match="within 5 nodes"):
        chiral.decompose_gram(M, ring)


CASES_AT = [("A", 7), ("D_even", 8), ("D_odd", 10), ("E6", 10), ("E7", 16), ("E8", 28)]


@pytest.mark.parametrize("case,k", CASES_AT)
def test_branching_factorizes(case, k):
    b = search.su2_branching(case, k)
    Z = search.su2_invariant_matrix(case, k)
    assert chiral.verify_factorization(Z, b)


def test_branching_type_flags():
    assert search.su2_branching("A", 5).type_one
    assert search.su2_branching("D_even", 8).type_one
    assert search.su2_branching("E6", 10).type_one
    assert not search.su2_branching("D_odd", 6).type_one
    assert not search.su2_branching("E7", 16).type_one


def test_branching_wrong_level():
    with pytest.raises(search.BranchingError):
        search.su2_branching("D_even", 6)
    with pytest.raises(search.BranchingError):
        search.su2_branching("E7", 10)


def test_e7_cross_terms_from_single_rows():
    b = search.su2_branching("E7", 16)
    Z = b.product()
    # Z[2, 8] receives its unit from the a2+ row alone
    contrib = [b.b_plus[t, 2] * b.b_minus[t, 8] for t in range(6)]
    assert Z[2, 8] == 1 and contrib == [0, 1, 0, 0, 0, 0]
    # Z[8, 8] from the delta row alone
    contrib = [b.b_plus[t, 8] * b.b_minus[t, 8] for t in range(6)]
    assert Z[8, 8] == 1 and contrib == [0, 0, 0, 0, 1, 0]


def test_e6_row_supports():
    b = search.su2_branching("E6", 10)
    supports = [tuple(np.nonzero(row)[0]) for row in b.b_plus]
    assert supports == [(0, 6), (3, 7), (4, 10)]


def test_dodd_branching_is_permutation_pattern():
    b = search.su2_branching("D_odd", 6)
    assert np.array_equal(b.b_plus, np.eye(7, dtype=int))
    Z = search.su2_invariant_matrix("D_odd", 6)
    assert np.array_equal(b.b_minus, Z.Z)


def test_chiral_indices_e7():
    md = core.su2_modular_data(16)
    Z = search.su2_invariant_matrix("E7", 16)
    idx = chiral.chiral_indices(md, Z)
    assert abs(idx.w_plus - idx.w / 2) < 1e-9
    assert abs(idx.w_zero - idx.w_plus / 2) < 1e-9


def test_chiral_indices_diagonal():
    md = core.su2_modular_data(9)
    idx = chiral.chiral_indices(md, search.su2_invariant_matrix("A", 9))
    assert abs(idx.w_plus - idx.w) < 1e-9
    assert abs(idx.w_zero - idx.w) < 1e-9


def test_chiral_indices_su3_orbifold():
    (k3, Z3, _), _ = search.su3_named_invariants()
    md = core.sun_modular_data(3, k3)
    idx = chiral.chiral_indices(md, Z3)
    assert abs(idx.w - 36.0) < 1e-9
    assert abs(idx.w_plus - 12.0) < 1e-9
    assert abs(2 * idx.w_plus - idx.w_zero - 20.0) < 1e-9


def test_sector_counts_e7():
    Z = search.su2_invariant_matrix("E7", 16)
    counts = chiral.sector_counts(Z, search.su2_branching("E7", 16))
    assert (counts.mm, counts.mn, counts.chiral, counts.ambi) == (17, 7, 10, 6)


@pytest.mark.parametrize("ell", [2, 3, 4])
def test_sector_counts_deven(ell):
    k = 4 * ell - 4
    counts = chiral.sector_counts(search.su2_invariant_matrix("D_even", k),
                                  search.su2_branching("D_even", k))
    assert (counts.mm, counts.mn, counts.chiral, counts.ambi) == \
        (4 * ell, 2 * ell, 2 * ell, ell + 1)


@pytest.mark.parametrize("k", [1, 4, 9])
def test_sector_counts_diagonal(k):
    counts = chiral.sector_counts(search.su2_invariant_matrix("A", k),
                                  search.su2_branching("A", k))
    L = k + 1
    assert (counts.mm, counts.mn, counts.chiral, counts.ambi) == (L, L, L, L)


def test_branching_squares_match_chiral_graph_exponents():
    # sum_t b+[t, l]^2 counts the eigenvalue chi_l in the chiral fusion
    # graph, so every fused adjacency of Gamma01 must have the characters
    # chi_l(nu) with exactly those multiplicities
    for r in chiral.chiral_table(28):
        md = core.su2_modular_data(r.level)
        family = nimrep.fused_adjacencies(nimrep.ade_graph(r.gamma01))
        squares = search.MassMatrix(np.diag((r.branching.b_plus ** 2).sum(axis=0)))
        assert nimrep.spectrum_vs_diagonal(family, md, squares).matched, (r.name, r.level)


def _reference_gamma01(case, name, k):
    # the hand-written rule that Gamma01 is now derived from b+ against
    if case == "D_odd":
        return f"A{k + 1}"
    if case == "E7":
        return "D10"
    return name


def _reference_chiral_system(case, k):
    # the hand-written chiral systems: for D_odd every induced sector stays
    # irreducible; for D_even and E7 the sectors merge in mirror pairs and
    # the middle one splits in two halves
    d = core.su2_modular_data(k).dims
    if case == "D_odd":
        return np.eye(k + 1, dtype=int), d.copy()
    half = k // 2
    rows, dims = [], []
    for i in range(half):
        sup = np.zeros(k + 1, dtype=int)
        sup[i] += 1
        sup[k - i] += 1
        rows.append(sup)
        dims.append(d[i])
    for _ in range(2):
        sup = np.zeros(k + 1, dtype=int)
        sup[half] = 1
        rows.append(sup)
        dims.append(d[half] / 2.0)
    return np.array(rows, dtype=int), np.array(dims)


def test_gamma01_matches_hand_written_rule():
    for k in range(1, core.SU2_LEVEL_MAX + 1):
        for name, case in search.su2_diagrams(k):
            b = search.su2_branching(case, k)
            assert chiral.gamma01_name(k, b) == _reference_gamma01(case, name, k), (name, k)
            # b- describes the other chiral system, with the same multiplicities
            assert np.array_equal((b.b_minus ** 2).sum(axis=0), (b.b_plus ** 2).sum(axis=0))


@pytest.mark.parametrize("case,k", [("D_odd", k) for k in range(6, core.SU2_LEVEL_MAX + 1, 4)]
                         + [("D_even", k) for k in range(4, core.SU2_LEVEL_MAX + 1, 4)]
                         + [("E7", 16)])
def test_chiral_system_matches_hand_written(case, k):
    B, dims = chiral.chiral_system(case, k)
    B_ref, dims_ref = _reference_chiral_system(case, k)
    assert np.array_equal(B, B_ref)
    assert np.max(np.abs(dims - dims_ref)) < 1e-10


def test_count_monotonicity_and_permutation_collapse():
    # mm >= chiral >= ambi always; permutation invariants flatten to L
    for r in chiral.chiral_table(20):
        c = r.counts
        assert c.mm >= c.chiral >= c.ambi
        if r.name.startswith("A") or (r.name.startswith("D") and r.level % 4 == 2):
            assert c.mm == c.chiral == c.ambi == r.level + 1


def test_chiral_table_selected_rows():
    rows = {(r.name, r.level): r for r in chiral.chiral_table(16)}
    e6 = rows[("E6", 10)]
    assert (e6.counts, e6.gamma01) == (chiral.SectorCounts(mm=12, mn=6, chiral=6, ambi=3), "E6")
    d7 = rows[("D7", 10)]
    assert (d7.counts, d7.gamma01) == (chiral.SectorCounts(mm=11, mn=7, chiral=11, ambi=11), "A11")
    e7 = rows[("E7", 16)]
    assert (e7.counts, e7.gamma01) == (chiral.SectorCounts(mm=17, mn=7, chiral=10, ambi=6), "D10")


def test_full_system_dodd_k6():
    report = chiral.full_system_dodd(6)
    assert report.matched
    assert report.pairs_checked == 49
    assert report.worst_gap < 1e-7


def test_full_system_dodd_identity_pair():
    # nu = rho = 0 gives the identity matrix: dimension counts sum Z^2
    k = 6
    Z = search.su2_invariant_matrix("D_odd", k)
    assert Z.sum_of_squares == k + 1


def test_full_system_rejects_wrong_level():
    with pytest.raises(ValueError):
        chiral.full_system_dodd(8)


@pytest.mark.parametrize("case,k", [("D_odd", 6), ("D_odd", 10), ("D_even", 4),
                                    ("D_even", 8), ("D_even", 16), ("E7", 16),
                                    ("A", 1), ("A", 12), ("E6", 10), ("E8", 28)])
def test_chiral_pf_identity(case, k):
    assert chiral.chiral_pf_residual(case, k) < 1e-8


def test_e7_vacuum_coupling_counts():
    # <a1+ a1-, a1+ a1-> = Z00 + Z02 + Z20 + Z22 and <theta, theta> = sum t^2
    Z = search.su2_invariant_matrix("E7", 16).Z
    assert Z[0, 0] + Z[0, 2] + Z[2, 0] + Z[2, 2] == 1
    t = chiral.theta_vector(16, [0, 8, 16])
    assert int(t @ t) == 3


def test_dossier_structure():
    row = next(r for r in chiral.chiral_table(16) if r.name == "E7")
    doc = chiral.dossier(row)
    assert doc["counts"] == {"mm": 17, "mn": 7, "chiral": 10, "ambi": 6}
    assert doc["wPlus"] == pytest.approx(doc["w"] / 2)
    assert np.array_equal(np.array(doc["bPlus"]).T @ np.array(doc["bMinus"]),
                          np.array(doc["Z"]))
