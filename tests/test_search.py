import numpy as np
import pytest

from modinv import core, search


def test_commutant_su2_level4():
    md = core.su2_modular_data(4)
    basis = search.commutant_basis(md)
    assert basis.dim >= 2
    for X in basis.matrices():
        assert np.max(np.abs(md.S @ X - X @ md.S)) < 1e-8
        assert np.max(np.abs(md.T @ X - X @ md.T)) < 1e-8


def test_commutant_contains_identity():
    md = core.su2_modular_data(6)
    basis = search.commutant_basis(md)
    mats = basis.matrices().reshape(basis.dim, -1)
    coeffs, residual, *_ = np.linalg.lstsq(mats.T, np.eye(7).reshape(-1), rcond=None)
    recon = coeffs @ mats
    assert np.max(np.abs(recon - np.eye(7).reshape(-1))) < 1e-8


def test_commutant_rejects_degenerate():
    with pytest.raises(core.DegenerateDataError):
        search.commutant_basis(core.cyclic_group_modular_data(3))


def test_enumerate_su2_level4():
    found = search.enumerate_invariants(core.su2_modular_data(4))
    assert found.complete
    diags = sorted(Z.diagonal for Z in found)
    assert diags == [(1, 0, 2, 0, 1), (1, 1, 1, 1, 1)]


def test_enumerate_ising_trivial():
    found = search.enumerate_invariants(core.ising_modular_data())
    assert found.complete
    assert len(found) == 1
    assert np.array_equal(found[0].Z, np.eye(3, dtype=int))


def test_enumerate_budget_flag():
    found = search.enumerate_invariants(core.su2_modular_data(10), budget=2)
    assert not found.complete


def test_mass_matrix_guards():
    with pytest.raises(ValueError):
        search.MassMatrix(np.zeros((3, 3), dtype=int))
    with pytest.raises(ValueError):
        search.MassMatrix(np.eye(3) * 1.0)


@pytest.mark.parametrize("k", [4, 6, 10])
def test_verify_enumerated(k):
    md = core.su2_modular_data(k)
    for Z in search.enumerate_invariants(md):
        report = search.verify_invariant(md, Z)
        assert report.ok
        assert report.commutes_s < 1e-8
        assert report.vacuum_row_residual < 1e-9


def test_permutation_dodd_level10():
    ring = core.su2_fusion_closed_form(10)
    Z = search.su2_invariant_matrix("D", 10)
    verdict = search.permutation_criterion(ring, Z)
    assert verdict.is_permutation
    assert verdict.is_fusion_automorphism
    pi = verdict.permutation
    for j in range(11):
        assert pi[j] == (j if j % 2 == 0 else 10 - j)


def test_permutation_e7_fails_all_three():
    ring = core.su2_fusion_closed_form(16)
    Z = search.su2_invariant_matrix("E7", 16)
    assert Z.Z[0, 16] == 1 and Z.Z[16, 0] == 1
    verdict = search.permutation_criterion(ring, Z)
    assert not verdict.is_permutation
    assert not verdict.zero_row_trivial
    assert not verdict.zero_column_trivial


def test_permutation_identity():
    ring = core.su2_fusion_closed_form(5)
    verdict = search.permutation_criterion(ring, search.su2_invariant_matrix("A", 5))
    assert verdict.is_permutation
    assert verdict.permutation == tuple(range(6))


@pytest.mark.parametrize("k", [4, 6, 8, 10, 12])
def test_tri_equivalence_on_enumerated(k):
    ring = core.su2_fusion_closed_form(k)
    for Z in search.enumerate_invariants(core.su2_modular_data(k)):
        search.permutation_criterion(ring, Z)  # raises on inconsistency


def test_catalog_level3_only_diagonal():
    named = search.su2_ade_catalog(3)
    assert [ni.name for ni in named] == ["A4"]


def test_catalog_level10():
    assert [ni.name for ni in search.su2_ade_catalog(10)] == ["A11", "D7", "E6"]


def test_catalog_level2_names_a3():
    assert [ni.name for ni in search.su2_ade_catalog(2)] == ["A3"]


def test_catalog_level16_no_naming_ambiguity():
    # D10 and E7 share the level but not the diagonal
    named = {ni.name: ni.Z for ni in search.su2_ade_catalog(16)}
    assert set(named) == {"A17", "D10", "E7"}
    assert named["D10"].diagonal != named["E7"].diagonal


def test_closed_form_invariants_match_enumeration():
    # the branching table is the only source of the closed forms; the
    # unpruned enumeration checks it, E6, E7 and E8 included
    for k in range(1, 29):
        enumerated = {Z.key() for Z in search.enumerate_invariants(core.su2_modular_data(k))}
        closed = {search.su2_invariant_matrix(case, k).key()
                  for _, case in search.su2_diagrams(k)}
        assert closed == enumerated, k


def test_deven_closed_form_block_structure():
    Z = search.su2_invariant_matrix("D", 12).Z
    assert Z[6, 6] == 2
    assert Z[4, 8] == 1 and Z[8, 4] == 1 and Z[4, 4] == 1
    assert Z[2, 2] == 1 and Z[2, 10] == 1
    assert Z[1, 1] == 0


def test_e7_closed_form_entries():
    Z = search.su2_invariant_matrix("E7", 16).Z
    assert Z[8, 8] == 1
    assert Z[2, 8] == 1 and Z[8, 2] == 1 and Z[14, 8] == 1
    assert Z[0, 16] == 1
    assert int((Z ** 2).sum()) == 17


def test_entry_bound_holds_a_posteriori():
    md = core.su2_modular_data(16)
    bound = np.outer(md.dims, md.dims)
    for Z in search.enumerate_invariants(md):
        assert np.max(Z.Z - bound) < 1e-6


def test_trace_identities_under_dodd_relabeling():
    k = 6
    ring = core.su2_fusion_closed_form(k)
    pi = search.permutation_criterion(
        ring, search.su2_invariant_matrix("D", k)).permutation
    P = np.zeros((k + 1, k + 1), dtype=int)
    for mu, target in enumerate(pi):
        P[target, mu] = 1
    for Z in search.enumerate_invariants(core.su2_modular_data(k)):
        relabeled = P @ Z.Z @ P.T
        assert relabeled.trace() == Z.Z.trace()
        assert (relabeled ** 2).sum() == Z.sum_of_squares


def test_full_range_tri_equivalence_and_entry_bound():
    # every enumerated invariant up to the level cap satisfies the
    # permutation tri-equivalence and the d_a d_b entry bound
    for k in range(1, 33):
        md = core.su2_modular_data(k)
        ring = core.su2_fusion_closed_form(k)
        bound = np.outer(md.dims, md.dims)
        for Z in search.enumerate_invariants(md):
            search.permutation_criterion(ring, Z)
            assert np.max(Z.Z - bound) < 1e-6


def test_su3_named_invariants_data():
    (k3, Z3, name3), (k5, Z5, name5) = search.su3_named_invariants()
    assert (k3, name3) == (3, "D(6)")
    assert (k5, name5) == (5, "E(8)")
    md3 = core.sun_modular_data(3, 3)
    a21 = core.sun_label_index(md3, (2, 1))
    assert Z3.Z[a21, a21] == 3
    assert set(np.unique(Z3.Z)) == {0, 1, 3}
    assert set(np.unique(Z5.Z)) == {0, 1}
    md5 = core.sun_modular_data(3, 5)
    i00 = core.sun_label_index(md5, (0, 0))
    i42 = core.sun_label_index(md5, (4, 2))
    assert Z5.Z[i00, i00] == 1 and Z5.Z[i00, i42] == 1


@pytest.mark.parametrize("slot", [0, 1])
def test_su3_invariants_verify_and_enumerate(slot):
    k, Z, _ = search.su3_named_invariants()[slot]
    md = core.sun_modular_data(3, k)
    assert search.verify_invariant(md, Z).ok
    found = search.enumerate_invariants(md)
    assert found.complete
    assert any(F == Z for F in found)
