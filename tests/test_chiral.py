import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from modinv import chiral, core, nimrep, search
from test_search import su2_invariant, su3_named_invariants


def _theta(k, spins):
    """theta over the spins 0..k, one copy of each spin listed."""
    return np.bincount(spins, minlength=k + 1)


def _gram(ring, spins):
    """M = sum of N_nu over the spins of theta."""
    return ring.N[list(spins)].sum(axis=0)


def test_gram_matrix_e7_theta():
    k = 16
    ring = core.su2_fusion_closed_form(k)
    F, _ = chiral.decompose_gram(_theta(k, [0, 8, 16]), ring.N)
    M = F.T @ F
    for j in range(k + 1):
        for jp in range(k + 1):
            want = int(j == jp) + int(ring.N[8, j, jp]) + int(j == k - jp)
            assert M[j, jp] == want


def test_gram_matrix_identity_theta():
    ring = core.su2_fusion_closed_form(5)
    F, _ = chiral.decompose_gram(_theta(5, [0]), ring.N)
    assert np.array_equal(F.T @ F, np.eye(6, dtype=int))


def test_gram_matrix_dodd_theta():
    ring = core.su2_fusion_closed_form(6)
    F, _ = chiral.decompose_gram(_theta(6, [0, 6]), ring.N)
    M = F.T @ F
    for j in range(7):
        for jp in range(7):
            assert M[j, jp] == int(j == jp) + int(j == 6 - jp)


def test_decompose_gram_e7():
    ring = core.su2_fusion_closed_form(16)
    F, G1 = chiral.decompose_gram(_theta(16, [0, 8, 16]), ring.N)
    assert len(F) == 7
    assert nimrep.identify_ade(G1) == "E7"
    assert np.array_equal(F.T @ F, _gram(ring, [0, 8, 16]))


@pytest.mark.parametrize("ell", [2, 3, 4])
def test_decompose_gram_dodd(ell):
    k = 4 * ell - 2
    ring = core.su2_fusion_closed_form(k)
    F, G1 = chiral.decompose_gram(_theta(k, [0, k]), ring.N)
    assert len(F) == 2 * ell + 1
    assert nimrep.identify_ade(G1) == f"D{2 * ell + 1}"


@pytest.mark.parametrize("k", [3, 8, 13, 16])
def test_decompose_gram_two_sided_ideal(k):
    # theta = spin0 + spin2 reproduces the spin chain graph with a crease
    ring = core.su2_fusion_closed_form(k)
    F, G1 = chiral.decompose_gram(_theta(k, [0, 2]), ring.N)
    assert len(F) == k + 1
    assert nimrep.identify_ade(G1) == f"A{k + 1}"


# (level, theta spins) -> (rows, rank, distinct rows) of F; where the rank
# is below the rows, y^t F = 0 for some y != 0 and F does not determine G1
GRAM_RANKS = {
    (5, (0, 2)): (6, 6, 6),
    (6, (0, 2)): (7, 6, 7),
    (10, (0, 10)): (7, 6, 6),
    (16, (0, 8, 16)): (7, 7, 7),
    (22, (0, 2)): (23, 22, 23),
}


@pytest.mark.parametrize("k,spins", sorted(GRAM_RANKS))
def test_gram_factor_rank(k, spins):
    ring = core.su2_fusion_closed_form(k)
    F, _ = chiral.decompose_gram(_theta(k, spins), ring.N)
    assert (len(F), np.linalg.matrix_rank(F), len(np.unique(F, axis=0))) == GRAM_RANKS[k, spins]


def test_decompose_gram_rejects_negative_entries():
    # theta = id - l1 gives M[0, 1] = -N[1, 0, 1] = -1
    ring = core.su2_fusion_closed_form(2)
    with pytest.raises(ValueError, match="non-negative"):
        chiral.decompose_gram(np.array([1, -1, 0]), ring.N)


def test_decompose_gram_budget(monkeypatch):
    monkeypatch.setattr(chiral, "GRAM_NODE_BUDGET", 5)
    ring = core.su2_fusion_closed_form(16)
    with pytest.raises(ValueError, match="within 5 nodes"):
        chiral.decompose_gram(_theta(16, [0, 8, 16]), ring.N)


def _all_rows_gram_search(M):
    """The Gram search that tries every existing row on every column, with
    no budget: the reference for ``chiral.factor_gram``.  Returns (F, nodes,
    forced), F None if no factorization exists, where forced counts the
    nodes spent on a row that the row rule forces to 0 (some
    F[i, mu] > M[col, mu], or M[col, col] = 0)."""
    L = M.shape[0]
    nodes = forced = 0
    solution = None

    def column(col, rows):
        nonlocal solution
        if col == L:
            solution = rows
            return
        entry = [0] * len(rows)
        yield assign(col, rows, entry, 0, int(M[col, col]), [int(M[col, mu]) for mu in range(col)])

    def assign(col, rows, entry, i, rem, dotrem):
        nonlocal nodes, forced
        nodes += 1
        if i == len(rows):
            if not any(dotrem):
                yield spawn(col, rows, entry, rem, math.isqrt(rem), [])
            return
        row = rows[i]
        if M[col, col] == 0 or any(r > M[col, mu] for mu, r in enumerate(row)):
            forced += 1
        vmax = min([math.isqrt(rem)] + [d // r for d, r in zip(dotrem, row) if r])
        for v in range(vmax + 1):
            entry[i] = v
            yield assign(col, rows, entry, i + 1, rem - v * v,
                         [d - v * r for d, r in zip(dotrem, row)])
        entry[i] = 0

    def spawn(col, rows, entry, rem, cap, mults):
        if rem == 0:
            shaped = [row + [e] for row, e in zip(rows, entry)]
            yield column(col + 1, shaped + [[0] * col + [m] for m in mults])
            return
        for m in range(min(cap, math.isqrt(rem)), 0, -1):
            yield spawn(col, rows, entry, rem - m * m, m, mults + [m])

    stack = [column(0, [])]
    while stack and solution is None:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
        else:
            stack.append(step)
    F = None if solution is None else np.array(solution, dtype=int).reshape(-1, L)
    return F, nodes, forced


def _reference_g1(F, ring):
    N1 = ring.N[1]
    sol, *_ = np.linalg.lstsq(F.T.astype(float), (F @ N1).T.astype(float), rcond=None)
    return np.round(sol.T).astype(int)


def _assert_same_search(M):
    """factor_gram returns the reference's F, or fails where it fails, after
    exactly the reference's nodes less those on forced rows: it finishes
    within that budget and runs out of one node less."""
    want, nodes, forced = _all_rows_gram_search(M)
    exact = nodes - forced
    with mock.patch.object(chiral, "GRAM_NODE_BUDGET", exact):
        if want is None:
            with pytest.raises(ValueError, match="no non-negative integer"):
                chiral.factor_gram(M)
        else:
            F, got = chiral.factor_gram(M)
            assert F.dtype == want.dtype and np.array_equal(F, want)
            assert got == exact
    with mock.patch.object(chiral, "GRAM_NODE_BUDGET", exact - 1):
        with pytest.raises(ValueError, match=f"within {exact - 1} nodes"):
            chiral.factor_gram(M)
    return want, nodes, exact


# id+l{k} gives G1 = D_{k/2+2} at k = 2 mod 4, id+l2 gives A_{k+1}; together
# with id+l8+l16 at k = 16 they hold every gram case the benchmark draws
GRAM_CASES = ([(k, [0, k]) for k in range(2, 47)] + [(k, [0, 2]) for k in range(2, 41)]
              + [(16, [0, 8, 16]), (28, [0, 10, 18, 28]), (10, [0, 6])])


@pytest.mark.parametrize("k,spins", GRAM_CASES)
def test_gram_search_equals_the_all_rows_search(k, spins):
    ring = core.su2_fusion_closed_form(k)
    F, _, _ = _assert_same_search(_gram(ring, spins))
    got_F, G1 = chiral.decompose_gram(_theta(k, spins), ring.N)
    assert np.array_equal(got_F, F)
    assert np.array_equal(G1, _reference_g1(F, ring))


def test_gram_search_nodes_on_the_dodd_series():
    # the row rule leaves about a tenth of the nodes on id+l38 (G1 = D21)
    ring = core.su2_fusion_closed_form(38)
    _, nodes, got = _assert_same_search(_gram(ring, [0, 38]))
    assert (nodes, got) == (856, 77)


@pytest.mark.parametrize("M", [[[1, 1], [1, 0]], [[2, 1, 1], [1, 1, 0], [1, 0, 0]],
                               [[1, 1], [1, 1]], [[0, 0], [0, 0]]])
def test_gram_search_on_zero_norm_columns(M):
    # a column with M[col, col] = 0 forces every row, even where
    # F[i, mu] <= M[col, mu]; the first two have no factorization
    _assert_same_search(np.array(M))


@st.composite
def _gram_of_random_factor(draw):
    """M = F^t F for a 0/1/2 matrix F of at most 4 x 5 with sum F^2 <= 16, or
    the same with one off-diagonal pair changed, which often leaves no
    factor.  The bound keeps the all-rows search small."""
    F = draw(hnp.arrays(np.int64, (draw(st.integers(1, 4)), draw(st.integers(1, 5))),
                        elements=st.integers(0, 2)))
    M = F.T @ F
    assume(np.trace(M) <= 16)
    if draw(st.booleans()) and len(M) > 1:
        a, b = draw(st.permutations(range(len(M))))[:2]
        M[a, b] = M[b, a] = max(0, M[a, b] + draw(st.sampled_from([-1, 1])))
    return M


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_gram_of_random_factor())
def test_gram_search_equals_the_all_rows_search_on_random_gram_matrices(M):
    _assert_same_search(M)


CASES_AT = [("A", 7), ("D_even", 8), ("D_odd", 10), ("E6", 10), ("E7", 16), ("E8", 28)]


@pytest.mark.parametrize("case,k", CASES_AT)
def test_branching_factorizes(case, k):
    # su2_ade_catalog has checked the diagram's Z = b+^t b- against the enumerated invariant
    graph = next(g for g in search.su2_ade_catalog(core.su2_modular_data(k)) if g.case == case)
    b = search.su2_branching(case, k)
    assert np.array_equal(graph.Z.Z, b.b_plus.T @ b.b_minus)


def test_branching_type_flags():
    # type I is b+ = b-
    for case, k, type_one in [("A", 5, True), ("D_even", 8, True), ("E6", 10, True),
                              ("D_odd", 6, False), ("E7", 16, False)]:
        b = search.su2_branching(case, k)
        assert np.array_equal(b.b_plus, b.b_minus) is type_one


def test_branching_wrong_level():
    with pytest.raises(ValueError, match="D_even requires level 0 mod 4"):
        search.su2_branching("D_even", 6)
    with pytest.raises(ValueError, match="E7 requires level 16"):
        search.su2_branching("E7", 10)
    with pytest.raises(ValueError, match="D_odd requires level 2 mod 4"):
        search.su2_branching("D_odd", 8)


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
    Z = su2_invariant("D_odd", 6)
    assert np.array_equal(b.b_minus, Z.Z)


def test_chiral_indices_e7():
    md = core.su2_modular_data(16)
    Z = su2_invariant("E7", 16)
    idx = chiral.chiral_indices(md, Z)
    assert abs(idx.w_plus - idx.w / 2) < 1e-9
    assert abs(idx.w_zero - idx.w_plus / 2) < 1e-9


def test_chiral_indices_diagonal():
    md = core.su2_modular_data(9)
    idx = chiral.chiral_indices(md, su2_invariant("A", 9))
    assert abs(idx.w_plus - idx.w) < 1e-9
    assert abs(idx.w_zero - idx.w) < 1e-9


def test_chiral_indices_refuse_a_broken_vacuum_row():
    # sum_l d_l Z[l, 0] = 1 + d_2 = 3 against sum_l Z[0, l] d_l = 1
    Z = np.eye(5, dtype=int)
    Z[2, 0] = 1
    with pytest.raises(AssertionError, match="vacuum row"):
        chiral.chiral_indices(core.su2_modular_data(4), search.MassMatrix(Z))


def test_chiral_indices_su3_orbifold():
    (k3, Z3, _), _ = su3_named_invariants()
    md = core.sun_modular_data(3, k3)
    idx = chiral.chiral_indices(md, Z3)
    assert abs(idx.w - 36.0) < 1e-9
    assert abs(idx.w_plus - 12.0) < 1e-9
    assert abs(2 * idx.w_plus - idx.w_zero - 20.0) < 1e-9


def test_sector_counts_e7():
    Z = su2_invariant("E7", 16)
    counts = chiral.sector_counts(Z, search.su2_branching("E7", 16))
    assert (counts.mm, counts.mn, counts.chiral, counts.ambi) == (17, 7, 10, 6)


@pytest.mark.parametrize("ell", [2, 3, 4])
def test_sector_counts_deven(ell):
    k = 4 * ell - 4
    counts = chiral.sector_counts(su2_invariant("D_even", k),
                                  search.su2_branching("D_even", k))
    assert (counts.mm, counts.mn, counts.chiral, counts.ambi) == \
        (4 * ell, 2 * ell, 2 * ell, ell + 1)


@pytest.mark.parametrize("k", [1, 4, 9])
def test_sector_counts_diagonal(k):
    counts = chiral.sector_counts(su2_invariant("A", k),
                                  search.su2_branching("A", k))
    L = k + 1
    assert (counts.mm, counts.mn, counts.chiral, counts.ambi) == (L, L, L, L)


def test_branching_squares_match_chiral_graph_exponents():
    # sum_t b+[t, l]^2 counts the eigenvalue chi_l in the chiral fusion
    # graph, so every fused adjacency of Gamma01 must have the characters
    # chi_l(nu) with exactly those multiplicities
    for r in chiral.chiral_table(28):
        family = nimrep.fused_adjacencies(search.ade_graph(r.gamma01))
        squares = search.MassMatrix(np.diag((r.branching.b_plus ** 2).sum(axis=0)))
        assert nimrep.spectrum_vs_diagonal(family, squares).matched, (r.name, r.level)


def _reference_gamma01(case, name, k):
    # the hand-written rule that Gamma01 is now derived from b+ against
    if case == "D_odd":
        return f"A{k + 1}"
    if case == "E7":
        return "D10"
    return name


def _diagram_names(k):
    """Each level-k diagonal mapped to the name of its diagram."""
    return {diag: graph.name for diag, graph in search.su2_diagram_table(k).items()}


def chiral_system(case, k):
    """(B, dims_chiral) for the full chiral system of an SU(2)_k case, derived
    from Gamma01.

    B[beta, l] counts the appearances of chiral sector beta in the induced
    morphism alpha_l; dims_chiral are the sector dimensions.  Theorem used:
    alpha-induction is a representation of the SU(2)_k fusion rules on the
    chiral system whose generator alpha_1 has the fusion graph Gamma01
    (``chiral.gamma01_name``), with the identity sector at vertex 0.  So
    alpha_l acts as the fused adjacency G_l of Gamma01, B[beta, l] =
    G_l[0, beta], and the dimensions are the positive eigenvector of
    alpha_1, the Perron-Frobenius vector of Gamma01 normalised to 1 at
    vertex 0.
    """
    graph = search.ade_graph(chiral.gamma01_name(search.su2_branching(case, k),
                                                 _diagram_names(k)))
    B = np.array([G[0] for G in nimrep.fused_adjacencies(graph).G]).T
    _, vecs = np.linalg.eigh(graph.adjacency.astype(float))
    pf = vecs[:, -1]  # the largest eigenvalue of a connected graph is simple
    return B, pf / pf[0]


def chiral_pf_residual(case, k):
    """Residual of sum_l d_l B[beta, l] = (w / w+) d_beta over the chiral system."""
    md = core.su2_modular_data(k)
    idx = chiral.chiral_indices(md, su2_invariant(case, k))
    B, dims_chiral = chiral_system(case, k)
    return np.abs(B @ md.dims - (idx.w / idx.w_plus) * dims_chiral).max()


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
        diagrams = _diagram_names(k)
        for name, case in search.su2_diagrams(k):
            b = search.su2_branching(case, k)
            assert chiral.gamma01_name(b, diagrams) == _reference_gamma01(case, name, k), (name, k)
            # b- describes the other chiral system, with the same multiplicities
            assert np.array_equal((b.b_minus ** 2).sum(axis=0), (b.b_plus ** 2).sum(axis=0))


@pytest.mark.parametrize("case,k", [("D_odd", k) for k in range(6, core.SU2_LEVEL_MAX + 1, 4)]
                         + [("D_even", k) for k in range(4, core.SU2_LEVEL_MAX + 1, 4)]
                         + [("E7", 16)])
def test_chiral_system_matches_hand_written(case, k):
    B, dims = chiral_system(case, k)
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
    report = full_system_dodd_per_pair(6)
    assert report.matched
    assert report.pairs_checked == 49
    assert report.worst_gap < 1e-7


def test_full_system_dodd_identity_pair():
    # nu = rho = 0 gives the identity matrix: dimension counts sum Z^2
    k = 6
    Z = su2_invariant("D_odd", k)
    assert Z.sum_of_squares == k + 1


@dataclasses.dataclass(frozen=True)
class FullSystemReport:
    pairs_checked: int
    matched: bool
    worst_gap: float


def full_system_dodd_per_pair(k):
    """The full system at level k = 2 mod 4: the spin fusion ring with the two
    chiralities acting as N_nu and N_{pi(rho)}.  The simultaneous fusion
    matrix N_nu N_{pi(rho)} must have eigenvalue chi_l(nu) chi_m(rho) with
    multiplicity Z[l, m]^2; one eigvalsh per (nu, rho) against its expected
    list."""
    Z = su2_invariant("D_odd", k)
    md = core.su2_modular_data(k)
    ring = core.su2_fusion_closed_form(k)
    pi = [int(np.argmax(Z.Z[:, mu])) for mu in range(k + 1)]
    chars = (md.S / md.S[:, [0]]).real.tolist()
    mults = [(lam, mu, int(Z.Z[lam, mu]) ** 2) for lam in range(k + 1) for mu in range(k + 1)]
    worst = 0.0
    for nu in range(k + 1):
        for rho in range(k + 1):
            eig = np.linalg.eigvalsh((ring.N[nu] @ ring.N[pi[rho]]).astype(float))
            expected = sorted(chars[lam][nu] * chars[mu][rho]
                              for lam, mu, m in mults for _ in range(m))
            worst = max([worst] + [abs(a - b) for a, b in zip(sorted(eig.tolist()), expected)])
    return FullSystemReport(pairs_checked=(k + 1) ** 2, matched=worst <= core.SPECTRUM_TOL,
                            worst_gap=worst)


@pytest.mark.parametrize("k", range(6, 63, 4))
def test_full_system_dodd_equals_the_per_pair_check(k):
    # every eigenvalue of every pair equals its expected character product
    report = full_system_dodd_per_pair(k)
    assert (report.matched, report.pairs_checked) == (True, (k + 1) ** 2), report.worst_gap


@pytest.mark.parametrize("case,k", [("D_odd", 6), ("D_odd", 10), ("D_even", 4),
                                    ("D_even", 8), ("D_even", 16), ("E7", 16),
                                    ("A", 1), ("A", 12), ("E6", 10), ("E8", 28)])
def test_chiral_pf_identity(case, k):
    assert chiral_pf_residual(case, k) < 1e-8


def test_e7_vacuum_coupling_counts():
    # <a1+ a1-, a1+ a1-> = Z00 + Z02 + Z20 + Z22 and <theta, theta> = sum t^2
    Z = su2_invariant("E7", 16).Z
    assert Z[0, 0] + Z[0, 2] + Z[2, 0] + Z[2, 2] == 1
    t = _theta(16, [0, 8, 16])
    assert int(t @ t) == 3


def test_dossier_structure():
    row = next(r for r in chiral.chiral_table(16) if r.name == "E7")
    doc = chiral.dossier(row)
    assert doc["counts"] == {"mm": 17, "mn": 7, "chiral": 10, "ambi": 6}
    assert doc["wPlus"] == pytest.approx(doc["w"] / 2)
    assert np.array_equal(np.array(doc["bPlus"]).T @ np.array(doc["bMinus"]),
                          np.array(doc["Z"]))
