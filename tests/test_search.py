import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modinv import core, search
from test_core import dual_permutation, fundamental_labels


def su2_invariant(case, k):
    """The closed-form SU(2)_k invariant Z = b+^t b- of a branching case."""
    return search.MassMatrix(search.su2_branching(case, k).product())


def test_commutant_su2_level4():
    md = core.su2_modular_data(4)
    basis = search.commutant_basis(md)
    assert basis.dim >= 2
    assert basis.E.dtype == np.int64 and basis.E.shape == (basis.dim, 5, 5)
    for X in basis.E / basis.denominator:
        assert np.max(np.abs(md.S @ X - X @ md.S)) < 1e-8
        assert np.max(np.abs(md.T @ X - X @ md.T)) < 1e-8


def _svd_nullspace(md):
    # reference: the real 2L^2 x m matrix A of X -> SX - XS on the T-support
    # unit matrices, and its nullspace from a thin SVD cut at 1e-8 relative
    # to the largest singular value
    L = md.size
    I, J = search._t_support(md)
    m = len(I)
    S = md.S
    cols = np.arange(m)
    line = np.arange(L)[:, None]
    A = np.zeros((L * L, m), dtype=complex)
    A[line * L + J, cols] += S[:, I]
    A[I * L + line, cols] -= S[J, :].T
    A = np.vstack([A.real, A.imag])
    _, sv, vt = np.linalg.svd(A, full_matrices=False)
    rank = int(np.sum(sv > 1e-8 * max(1.0, sv[0])))
    return A, I, J, vt[rank:]


def _commutant_basis_by_svd(md, columns=None):
    # reference: the SVD nullspace, the row-by-row echelon loop and the
    # Fraction reconstruction of every entry, over the given row-major flat
    # columns (default: the T support), with E scattered into place
    _, I, J, null = _svd_nullspace(md)
    L = md.size
    support = I * L + J
    columns = support if columns is None else columns
    B = np.zeros((len(null), L * L))
    B[:, support] = null
    B = B[:, columns]
    dim = len(B)
    pivots = []
    r = 0
    for col in range(len(columns)):
        if r >= dim:
            break
        piv = int(np.argmax(np.abs(B[r:, col]))) + r
        if abs(B[piv, col]) < core.PIVOT_TOL:
            continue
        B[[r, piv]] = B[[piv, r]]
        B[r] /= B[r, col]
        for rr in range(dim):
            if rr != r:
                B[rr] -= B[rr, col] * B[r]
        pivots.append(int(columns[col]))
        r += 1
    rats = [Fraction(x).limit_denominator(core.MAX_DENOMINATOR) for x in B.ravel().tolist()]
    D = math.lcm(*(f.denominator for f in rats))
    E = np.zeros((dim, L * L), dtype=np.int64)
    E[:, columns] = np.array([f.numerator * (D // f.denominator) for f in rats],
                             dtype=np.int64).reshape(dim, len(columns))
    return E.reshape(dim, L, L), D, tuple(pivots)


def _commutant_basis_on_all_columns(md):
    # reference: the echelon form and the rational reconstruction run over all
    # L^2 columns, with the T support entered by one scatter before them
    return _commutant_basis_by_svd(md, np.arange(md.size ** 2))


def _in_integer_span(basis, Z) -> bool:
    # D Z == sum_i Z.flat[pivots[i]] E_i, in exact integer arithmetic
    coords = np.asarray(Z, dtype=np.int64).reshape(-1)[list(basis.pivots)]
    return np.array_equal(np.tensordot(coords, basis.E, 1), basis.denominator * Z)


def test_commutant_contains_identity():
    md = core.su2_modular_data(6)
    basis = search.commutant_basis(md)
    assert _in_integer_span(basis, np.eye(7, dtype=np.int64))


def _modular_data(family, k):
    if family == "ising":
        return core.ising_modular_data()
    if family == "su2":
        return core.su2_modular_data(k)
    return core.sun_modular_data(int(family[2:]), k)


@pytest.mark.parametrize("family,k", [("su2", k) for k in (*range(1, 17), 24, 32)]
                         + [("su3", k) for k in range(1, 6)]
                         + [("su4", k) for k in range(1, 4)] + [("ising", 0)])
def test_support_columns_give_the_full_echelon_basis(family, k):
    md = _modular_data(family, k)
    basis = search.commutant_basis(md)
    E, D, pivots = _commutant_basis_on_all_columns(md)
    assert np.array_equal(basis.E, E)
    assert (basis.denominator, basis.pivots) == (D, pivots)


# SU(2) k <= SU2_LEVEL_MAX, SU(3) k <= 12, SU(4) k <= 6 and Ising: 83 cases
FIXED_SPACE_CASES = ([("su2", k) for k in range(1, core.SU2_LEVEL_MAX + 1)]
                     + [("su3", k) for k in range(1, 13)]
                     + [("su4", k) for k in range(1, 7)] + [("ising", 0)])


@pytest.mark.parametrize("family,k", FIXED_SPACE_CASES)
def test_eigenspace_basis_equals_svd_reference(family, k):
    md = _modular_data(family, k)
    basis = search.commutant_basis(md)
    E, D, pivots = _commutant_basis_by_svd(md)
    assert np.array_equal(basis.E, E)
    assert (basis.denominator, basis.pivots) == (D, pivots)


@pytest.mark.parametrize("family,k", FIXED_SPACE_CASES)
def test_fixed_space_margin(family, k):
    # the commutant eigenvalues sit far inside FIXED_SPACE_TOL, the rest far outside
    md = _modular_data(family, k)
    I, J = search._t_support(md)
    gap = 1.0 - np.linalg.eigh(search._fixed_space_matrix(md, I, J))[0]
    dim = search.commutant_basis(md).dim
    assert np.max(np.abs(gap[len(gap) - dim:])) <= 1e-13
    assert gap[:len(gap) - dim].min(initial=1.0) >= 0.5


def test_fixed_space_tol_comment_figures():
    # the figures of the FIXED_SPACE_TOL comment on SU(2) k <= 64, SU(3) k <= 12, SU(4) k <= 8
    cases = ([("su2", k) for k in range(1, core.SU2_LEVEL_MAX + 1)]
             + [("su3", k) for k in range(1, 13)] + [("su4", k) for k in range(1, 9)])
    for family, k in cases:
        md = _modular_data(family, k)
        M = search._fixed_space_matrix(md, *search._t_support(md))
        for lam in (np.linalg.eigh(M)[0], np.linalg.eigvalsh(M)):
            gap = 1.0 - lam
            fixed = gap <= core.FIXED_SPACE_TOL
            assert gap[fixed].max() <= 4.4e-15, (family, k)
            assert gap[~fixed].min(initial=1.0) >= 0.5527, (family, k)


@pytest.mark.parametrize("family,k", [("su2", k) for k in range(1, 17)]
                         + [("su3", k) for k in range(1, 6)]
                         + [("su4", k) for k in range(1, 4)] + [("ising", 0)])
def test_gram_of_the_commutation_map_is_two_i_minus_m(family, k):
    md = _modular_data(family, k)
    A, I, J, _ = _svd_nullspace(md)
    M = search._fixed_space_matrix(md, I, J)
    assert np.max(np.abs(A.T @ A - 2 * (np.eye(len(I)) - M))) < 1e-12


def test_rationalize_rounds_near_integers_and_keeps_small_fractions():
    x = np.array([[3 + 4e-7, 3 - 4e-7, -2 + 4e-7, 4e-7], [-4e-7, 7.0, 1 / 3 + 1e-12, -0.5]])
    N, D = search._rationalize(x)
    assert D == 6
    assert N.tolist() == [[18, 18, -12, 0], [0, 42, 2, -3]]
    N, D = search._rationalize(x[:, :2])
    assert (N.tolist(), D) == ([[3, 3], [0, 7]], 1)
    # 6e-7 off an integer, 3 + 1/10^6 is closer than 3
    N, D = search._rationalize(np.array([3 + 6e-7]))
    assert (N.tolist(), D) == ([3000001], 10 ** 6)


# integers, integers within 4e-7, and fractions with small denominators,
# exact or within 1e-12, so that one common denominator stays small
_SMALL_RATIONALS = st.one_of(
    st.integers(-10 ** 6, 10 ** 6).map(float),
    st.builds(lambda n, e: n + e, st.integers(-1000, 1000), st.floats(-4e-7, 4e-7)),
    st.builds(lambda f, e: float(f) + e,
              st.fractions(-100, 100, max_denominator=12), st.floats(-1e-12, 1e-12)))


@settings(derandomize=True, max_examples=300)
@given(st.lists(_SMALL_RATIONALS, min_size=1, max_size=12),
       st.one_of(st.floats(-1e3, 1e3), st.builds(lambda n, e: n + e, st.integers(-1000, 1000),
                                                 st.floats(-2e-6, 2e-6))))
def test_rationalize_agrees_with_limit_denominator(xs, y):
    N, D = search._rationalize(np.array(xs))
    for n, x in zip(N.tolist(), xs):
        assert Fraction(n, D) == Fraction(x).limit_denominator(core.MAX_DENOMINATOR)
    # any float alone: its closest fraction is within 1/MAX_DENOMINATOR by Dirichlet
    N, D = search._rationalize(np.array([y]))
    assert Fraction(int(N[0]), D) == Fraction(y).limit_denominator(core.MAX_DENOMINATOR)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.sampled_from([(2, k) for k in range(1, 45)] + [(3, k) for k in range(1, 10)]
                       + [(4, k) for k in range(1, 6)]))
def test_json_round_trip_keeps_the_commutant_basis(nk):
    # imported data carries 12 significant digits; FIXED_SPACE_TOL is sized for it
    n, k = nk
    md = core.su2_modular_data(k) if n == 2 else core.sun_modular_data(n, k)
    back = core.modular_data_from_json(core.modular_data_to_json(md))
    assert core.check_modular(back).passed
    a, b = search.commutant_basis(md), search.commutant_basis(back)
    assert np.array_equal(a.E, b.E)
    assert (a.denominator, a.pivots) == (b.denominator, b.pivots)


@pytest.mark.parametrize("family,k", [("su2", k) for k in range(1, 29)]
                         + [("su3", k) for k in range(1, 6)]
                         + [("su4", k) for k in range(1, 4)] + [("ising", 0)])
def test_integer_basis_is_exact_echelon(family, k):
    md = _modular_data(family, k)
    basis = search.commutant_basis(md)
    D = basis.denominator
    at_pivots = basis.E.reshape(basis.dim, -1)[:, list(basis.pivots)]
    assert np.array_equal(at_pivots, D * np.eye(basis.dim, dtype=np.int64))
    found = [Z.Z for Z in search.enumerate_invariants(md)]
    assert found
    closed = [su2_invariant(case, k).Z
              for _, case in search.su2_diagrams(k)] if family == "su2" else []
    for Z in found + closed:
        assert _in_integer_span(basis, Z)


def _enumerate_with_basis(monkeypatch, md, change):
    real = search.commutant_basis
    monkeypatch.setattr(search, "commutant_basis", lambda md: change(real(md)))
    return search.enumerate_invariants(md)


@pytest.mark.parametrize("family,k", [("su2", 16), ("su3", 5)])
def test_enumeration_divides_by_the_common_denominator(monkeypatch, family, k):
    # the built-in families have denominator 1 (SU(2) k <= 64, SU(3) k <= 26,
    # SU(4) k <= 11, Ising), so scale the basis to reach the division here;
    # test_product_data_has_a_common_denominator_of_two runs it on real data
    md = _modular_data(family, k)
    expected = search.enumerate_invariants(md)
    found = _enumerate_with_basis(monkeypatch, md, lambda b: search.CommutantBasis(
        E=3 * b.E, denominator=3 * b.denominator, pivots=b.pivots))
    assert search.commutant_basis(md).denominator == 3
    assert [Z.key() for Z in found] == [Z.key() for Z in expected]
    assert (found.nodes, found.complete) == (expected.nodes, expected.complete)


def _product(a, b):
    """The modular data of the product theory: S, T and the rest by np.kron."""
    return core.ModularData(
        family=f"{a.family}x{b.family}", level=0,
        labels=tuple(f"{x},{y}" for x in a.labels for y in b.labels),
        S=np.kron(a.S, b.S), T=np.kron(a.T, b.T), twists=np.kron(a.twists, b.twists),
        dims=np.kron(a.dims, b.dims), global_index=a.global_index * b.global_index,
        central_charge=(a.central_charge + b.central_charge) % 8)


def test_product_data_has_a_common_denominator_of_two():
    """SU(2)_4 x SU(2)_4, data a library user can build, has a commutant
    basis with denominator 2: the Fraction path of _rationalize and the
    division by D in the search serve genuine input."""
    md = _product(core.su2_modular_data(4), core.su2_modular_data(4))
    basis = search.commutant_basis(md)
    assert (basis.dim, basis.denominator) == (9, 2)
    found = search.enumerate_invariants(md)
    assert found.complete and len(found) == 13
    assert all(search.verify_invariant(md, Z).ok for Z in found)
    A5, D4 = (su2_invariant(case, 4).Z for case in ("A", "D_even"))
    for a, b in itertools.product((A5, D4), repeat=2):
        assert search.MassMatrix(np.kron(a, b)) in found
    back = search.commutant_basis(core.modular_data_from_json(core.modular_data_to_json(md)))
    assert np.array_equal(back.E, basis.E)
    assert (back.denominator, back.pivots) == (basis.denominator, basis.pivots)


@pytest.mark.parametrize("family,k", [("su2", 16), ("su3", 5)])
def test_enumeration_rejects_leaves_off_the_lattice(monkeypatch, family, k):
    # halve the basis element of the widest pivot: its coordinate becomes
    # twice the Z entry, so every odd coordinate gives a leaf that the
    # denominator does not divide, and the invariants stay the same
    md = _modular_data(family, k)
    expected = search.enumerate_invariants(md)
    basis = search.commutant_basis(md)
    bound = np.floor(np.outer(md.dims, md.dims).reshape(-1) + 1e-6)
    i = max(range(basis.dim), key=lambda i: bound[basis.pivots[i]])
    p = basis.pivots[i]
    assert max(2 * Z.Z.flat[p] for Z in expected) <= bound[p]

    def halve(b):
        E = 2 * b.E
        E[i] = b.E[i]
        return search.CommutantBasis(E=E, denominator=2 * b.denominator, pivots=b.pivots)

    found = _enumerate_with_basis(monkeypatch, md, halve)
    assert [Z.key() for Z in found] == [Z.key() for Z in expected]
    assert (found.nodes, found.complete) == (expected.nodes, expected.complete)


def test_commutant_rejects_degenerate():
    # one unitarity verdict, formed once, refuses the commutant and the
    # Verlinde ring with one message
    md = core.cyclic_group_modular_data(3)
    with pytest.raises(ValueError, match="S is degenerate") as commutant:
        search.commutant_basis(md)
    assert "unitarity_residual" in vars(md)
    with pytest.raises(ValueError, match="S is degenerate") as verlinde:
        core.verlinde_fusion(md)
    assert str(verlinde.value) == str(commutant.value)


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
    # the search stops at the first node past the budget
    assert found.nodes == 3


def test_mass_matrix_guards():
    with pytest.raises(ValueError):
        search.MassMatrix(np.zeros((3, 3), dtype=int))
    with pytest.raises(ValueError):
        search.MassMatrix(np.eye(3) * 1.0)


def test_mass_matrix_from_nested_list():
    Z = search.MassMatrix([[1, 0], [0, 1]])
    assert isinstance(Z.Z, np.ndarray) and not Z.Z.flags.writeable
    assert Z == search.MassMatrix(np.eye(2, dtype=int))
    for bad in ([[1.0, 0.0], [0.0, 1.0]], [[1, 0], [0, -1]], [[0, 1], [1, 0]], [[1, 0]]):
        with pytest.raises(ValueError):
            search.MassMatrix(bad)


def test_verify_invariant_t_half():
    # labels 0 and 1 of SU(2)_4 have different T phases, so Z[0, 1] = 1
    # breaks [T, Z] = 0 by |t_0 - t_1|
    md = core.su2_modular_data(4)
    Z = np.eye(md.size, dtype=int)
    Z[0, 1] = 1
    report = search.verify_invariant(md, search.MassMatrix(Z))
    t = np.diag(md.T)
    assert report.commutes_t > core.COMMUTE_TOL
    assert report.commutes_t == pytest.approx(abs(t[0] - t[1]))
    assert not report.ok


def test_commutator_equals_gemm_form_on_enumerated_invariants():
    cases = [core.su2_modular_data(k) for k in range(1, core.SU2_LEVEL_MAX + 1)]
    cases += [core.sun_modular_data(3, k) for k in range(1, 10)]
    for md in cases:
        for Z in search.enumerate_invariants(md):
            X = Z.Z
            got = search._commutator_residuals(md, X)
            want = (np.max(np.abs(md.S @ X - X @ md.S)), np.max(np.abs(md.T @ X - X @ md.T)))
            assert np.allclose(got, want, rtol=0, atol=1e-12), (md.family, md.level)


@pytest.mark.parametrize("k", [4, 6, 10])
def test_verify_enumerated(k):
    md = core.su2_modular_data(k)
    for Z in search.enumerate_invariants(md):
        report = search.verify_invariant(md, Z)
        assert report.ok
        assert report.commutes_s < 1e-8
        assert report.vacuum_row_residual < 1e-9


def _enumerated_result_sets():
    """(md, results) of every search at SU(2) k <= 64, SU(3) k <= 9, SU(4)
    k <= 5 and Ising."""
    mds = [core.su2_modular_data(k) for k in range(1, core.SU2_LEVEL_MAX + 1)]
    mds += [core.sun_modular_data(3, k) for k in range(1, 10)]
    mds += [core.sun_modular_data(4, k) for k in range(1, 6)]
    mds.append(core.ising_modular_data())
    for md in mds:
        yield md, list(search.enumerate_invariants(md))


def test_stacked_verification_is_the_and_of_the_single_ones():
    for md, found in _enumerated_result_sets():
        single = [search.verify_invariant(md, Z) for Z in found]
        stacked = search.verify_invariant(md, *found)
        assert stacked.ok == all(r.ok for r in single) is True, (md.family, md.level)
        for field in ("commutes_s", "commutes_t", "vacuum_row_residual"):
            assert getattr(stacked, field) == pytest.approx(
                max(getattr(r, field) for r in single), rel=0, abs=1e-12)
        # one entry off the T-support raised in the last member breaks [T, Z] = 0
        I, J = np.nonzero(np.abs(np.diag(md.T)[:, None] - np.diag(md.T)[None, :]) > 1e-6)
        Z = found[-1].Z.copy()
        Z[I[0], J[0]] += 1
        assert not search.verify_invariant(md, *found[:-1], search.MassMatrix(Z)).ok


def test_stacked_verification_checks_every_shape():
    md = core.su2_modular_data(4)
    Z = su2_invariant("A", 4)
    with pytest.raises(ValueError, match="shape mismatch"):
        search.verify_invariant(md, Z, su2_invariant("A", 3))


def test_permutation_dodd_level10():
    md = core.su2_modular_data(10)
    Z = su2_invariant("D_odd", 10)
    pi = search.permutation_criterion(md, Z)
    assert pi is not None
    for j in range(11):
        assert pi[j] == (j if j % 2 == 0 else 10 - j)


def test_permutation_e7_fails_all_three():
    md = core.su2_modular_data(16)
    Z = su2_invariant("E7", 16)
    assert Z.Z[0, 16] == 1 and Z.Z[16, 0] == 1
    # the zero row and column are not trivial, and permutation_criterion
    # raises unless the third condition fails with them
    assert search.permutation_criterion(md, Z) is None


def test_permutation_identity():
    md = core.su2_modular_data(5)
    assert search.permutation_criterion(md, su2_invariant("A", 5)) == tuple(range(6))
    # N[id, id, id] = N always holds, so no fusion row is built
    assert "verlinde_row" not in vars(md) and "fundamental_rows" not in vars(md)


@pytest.mark.parametrize("k", [4, 6, 8, 10, 12])
def test_tri_equivalence_on_enumerated(k):
    md = core.su2_modular_data(k)
    for Z in search.enumerate_invariants(md):
        search.permutation_criterion(md, Z)  # raises on inconsistency


def _automorphism_by_full_copy(N, pi):
    # one full L^3 copy of N: the reference for both the blockwise and the row test
    p = np.array(pi)
    return bool(np.array_equal(N[np.ix_(p, p, p)], N))


def _automorphism_blockwise(N, pi):
    # N[p, p, p] == N in eight blocks of labels, the tensor test that
    # permutation_criterion ran before it read Verlinde rows
    L = len(N)
    p = np.array(pi)
    step = -(-L // 8)
    return all(np.array_equal(N[p[s:s + step]][:, p][:, :, p], N[s:s + step])
               for s in range(0, L, step))


def _reference_permutation_criterion(ring, Z):
    """permutation_criterion on the whole fusion tensor, as it was before it
    read Verlinde rows: the reference for the row verdicts."""
    M = Z.Z
    L = Z.size
    e0 = np.zeros(L, dtype=int)
    e0[0] = 1
    c1 = bool(np.array_equal(M[0, :], e0))
    c2 = bool(np.array_equal(M[:, 0], e0))
    perm = None
    c3 = False
    if np.array_equal(np.sort(M.sum(axis=0)), np.ones(L)) and \
       np.array_equal(np.sort(M.sum(axis=1)), np.ones(L)):
        perm = tuple(np.argmax(M, axis=0).tolist())
        c3 = _automorphism_blockwise(ring.N, perm)
    assert c1 == c2 == c3
    return perm if c3 else None


def _modular_data_and_rings():
    """(md, ring) for SU(2) k <= 64 (the closed forms), SU(3) k <= 9, SU(4)
    k <= 5 and Ising (the validated Verlinde rings)."""
    for k in range(1, core.SU2_LEVEL_MAX + 1):
        yield core.su2_modular_data(k), core.su2_fusion_closed_form(k)
    mds = [core.sun_modular_data(3, k) for k in range(1, 10)]
    mds += [core.sun_modular_data(4, k) for k in range(1, 6)]
    mds.append(core.ising_modular_data())
    for md in mds:
        yield md, core.verlinde_fusion(md)


def _rings_and_invariants():
    """(md, ring, Z): the SU(2) closed-form invariants (which the enumeration
    checks up to level 28) and the enumerated SU(3), SU(4) and Ising ones."""
    for md, ring in _modular_data_and_rings():
        if md.family == "su2":
            found = [su2_invariant(case, md.level)
                     for _, case in search.su2_diagrams(md.level)]
        else:
            found = search.enumerate_invariants(md)
        for Z in found:
            yield md, ring, Z


# 64 A and 15 D_odd (k = 6, 10, .., 62) of SU(2); 26 of SU(3) k <= 9,
# 14 of SU(4) k <= 5 and 1 of Ising
PERMUTATION_INVARIANTS = 64 + 15 + 26 + 14 + 1


def test_blockwise_automorphism_equals_the_full_copy_on_every_permutation_invariant():
    """The row verdict of every invariant, permutation or not, equals the
    blockwise tensor reference, and that reference equals the full copy."""
    checked = 0
    for md, ring, Z in _rings_and_invariants():
        pi = search.permutation_criterion(md, Z)
        assert pi == _reference_permutation_criterion(ring, Z)
        if pi is not None:
            assert _automorphism_by_full_copy(ring.N, pi) is True
            checked += 1
    assert checked == PERMUTATION_INVARIANTS


def test_generating_labels_through_rows_equal_the_tensor_ones():
    """SU(n) data takes its fundamental weights as generators, Ising the
    generating labels of its tensor; every generator row is the tensor's."""
    for md, ring in _modular_data_and_rings():
        if md.family == "ising":
            want = core.generating_labels(ring.N.__getitem__, ring.size)
        else:
            want = fundamental_labels(md)
        assert md.fusion_generators == want, (md.family, md.level)
        for g in want:
            assert np.array_equal(md.verlinde_row(g), ring.N[g])


def _conjugation_invariant(md):
    L = md.size
    Z = np.zeros((L, L), dtype=int)
    Z[list(dual_permutation(md)), np.arange(L)] = 1
    return search.MassMatrix(Z)


def _relabelled_tensors(N):
    """N relabelled by each transposition of two non-unit labels: each is
    again a commutative, associative ring with unit 0."""
    L = len(N)
    for a in range(1, L):
        for b in range(a + 1, L):
            q = np.arange(L)
            q[[a, b]] = q[[b, a]]
            yield N[q][:, q][:, :, q]


def test_altered_rings_fail_the_automorphism_as_the_full_copy_does():
    """The conjugation invariant of SU(3)_4 on altered fusion tensors, through
    the row-level check.  On every relabelled ring the verdict is the full
    copy's.  One entry raised anywhere in the row of a generator or of its
    image gives the full copy's verdict too, False unless perm fixes the
    entry, and permutation_criterion reports the disagreement."""
    md = core.sun_modular_data(3, 4)
    ring = core.verlinde_fusion(md)
    Z = _conjugation_invariant(md)
    pi = search.permutation_criterion(md, Z)
    outcomes = []
    for N in _relabelled_tensors(ring.N):
        row = N.__getitem__
        got = search.fusion_automorphism(row, core.generating_labels(row, len(N)), pi)
        outcomes.append(_automorphism_by_full_copy(N, pi))
        assert got is outcomes[-1]
    assert True in outcomes and False in outcomes

    gens = md.fusion_generators
    L = ring.size
    caught = 0
    for a in sorted({*gens, *(pi[g] for g in gens)}):
        for b in range(L):
            for c in range(L):
                raised = ring.N.copy()
                raised[a, b, c] += 1
                got = search.fusion_automorphism(raised.__getitem__, gens, pi)
                assert got is _automorphism_by_full_copy(raised, pi), (a, b, c)
                caught += not got
    assert caught > len(gens) * L * L // 2
    # the raised row in place of md's rows: the three conditions disagree
    raised = ring.N.copy()
    raised[gens[0], 0, 1] += 1
    altered = dataclasses.replace(md)
    vars(altered)["verlinde_row"] = raised.__getitem__
    with pytest.raises(AssertionError, match="row=True column=True matrix=False"):
        search.permutation_criterion(altered, Z)


def test_permutation_criterion_peak_memory():
    # SU(3)_15 (L = 136) with its conjugation invariant, rows built from a
    # fresh md: a few L x L arrays; the fusion tensor alone is 8 L^3 bytes
    md = core.sun_modular_data(3, 15)
    L = md.size
    Z = _conjugation_invariant(md)
    tracemalloc.start()
    try:
        pi = search.permutation_criterion(md, Z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pi is not None and pi != tuple(range(L))
    assert peak < 128 * L ** 2


def _catalog_names(k):
    return [graph.name for graph in search.su2_ade_catalog(core.su2_modular_data(k))]


def test_catalog_level3_only_diagonal():
    assert _catalog_names(3) == ["A4"]


def test_catalog_level10():
    assert _catalog_names(10) == ["A11", "D7", "E6"]


def test_catalog_level2_names_a3():
    assert _catalog_names(2) == ["A3"]


def test_catalog_level16_no_naming_ambiguity():
    # D10 and E7 share the level but not the diagonal
    named = {g.name: g.Z for g in search.su2_ade_catalog(core.su2_modular_data(16))}
    assert set(named) == {"A17", "D10", "E7"}
    assert named["D10"].diagonal != named["E7"].diagonal


def test_catalog_refuses_an_invariant_other_than_its_diagrams(monkeypatch):
    # A5's diagonal with one more entry off it: named A5, but not b+^t b- of A5
    Z = np.eye(5, dtype=int)
    Z[0, 2] = 1
    monkeypatch.setattr(search, "enumerate_invariants",
                        lambda md, budget: search.InvariantList([search.MassMatrix(Z)]))
    with pytest.raises(ValueError, match="A5 at level 4: factorization failed"):
        search.su2_ade_catalog(core.su2_modular_data(4))


def test_closed_form_invariants_match_enumeration():
    # the branching table is the only source of the closed forms; the
    # unpruned enumeration checks it, E6, E7 and E8 included
    for k in range(1, 29):
        enumerated = {Z.key() for Z in search.enumerate_invariants(core.su2_modular_data(k))}
        closed = {su2_invariant(case, k).key()
                  for _, case in search.su2_diagrams(k)}
        assert closed == enumerated, k


def test_branching_product_equals_the_integer_product():
    # product() is a float64 BLAS product; numpy's integer matmul is the reference
    for k in range(1, core.SU2_LEVEL_MAX + 1):
        for _, case in search.su2_diagrams(k):
            b = search.su2_branching(case, k)
            Z = b.product()
            assert Z.dtype.kind == "i" and np.array_equal(Z, b.b_plus.T @ b.b_minus), (case, k)


def test_deven_closed_form_block_structure():
    Z = su2_invariant("D_even", 12).Z
    assert Z[6, 6] == 2
    assert Z[4, 8] == 1 and Z[8, 4] == 1 and Z[4, 4] == 1
    assert Z[2, 2] == 1 and Z[2, 10] == 1
    assert Z[1, 1] == 0


def test_e7_closed_form_entries():
    Z = su2_invariant("E7", 16).Z
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
    pi = search.permutation_criterion(
        core.su2_modular_data(k), su2_invariant("D_odd", k))
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
        bound = np.outer(md.dims, md.dims)
        for Z in search.enumerate_invariants(md):
            search.permutation_criterion(md, Z)
            assert np.max(Z.Z - bound) < 1e-6


# The two printed SU(3) conformal-inclusion invariants, as block data over
# the partition labels (m, n): the reference the search must reproduce.
SU3_D6_BLOCKS = [[(0, 0), (3, 0), (3, 3)]]  # and the entry 3 on (2, 1)
SU3_E8_BLOCKS = [
    [(0, 0), (4, 2)], [(2, 0), (5, 3)], [(2, 2), (5, 2)],
    [(3, 0), (3, 3)], [(3, 1), (5, 5)], [(3, 2), (5, 0)],
]


def sun_label_index(md, part):
    """Index of the partition label ``part`` (e.g. (3, 0)) in SU(n) data."""
    return md.labels.index("(" + ",".join(map(str, part)) + ")")


def _block_invariant(md, blocks):
    """Z with Z[a, b] = 1 for every pair of labels a, b in one block."""
    Z = np.zeros((md.size, md.size), dtype=int)
    for block in blocks:
        idx = [sun_label_index(md, p) for p in block]
        Z[np.ix_(idx, idx)] = 1
    return Z


def su3_named_invariants():
    """(level, Z, name) of the orbifold invariant at level 3 and the
    exceptional one at level 5; the level 3 matrix carries the entry 3 on the
    self-conjugate label (2, 1)."""
    md3 = core.sun_modular_data(3, 3)
    Z3 = _block_invariant(md3, SU3_D6_BLOCKS)
    a21 = sun_label_index(md3, (2, 1))
    Z3[a21, a21] = 3
    Z5 = _block_invariant(core.sun_modular_data(3, 5), SU3_E8_BLOCKS)
    return [(3, search.MassMatrix(Z3), "D(6)"), (5, search.MassMatrix(Z5), "E(8)")]


def test_su3_named_invariants_data():
    (k3, Z3, name3), (k5, Z5, name5) = su3_named_invariants()
    assert (k3, name3) == (3, "D(6)")
    assert (k5, name5) == (5, "E(8)")
    md3 = core.sun_modular_data(3, 3)
    a21 = sun_label_index(md3, (2, 1))
    assert Z3.Z[a21, a21] == 3
    assert set(np.unique(Z3.Z)) == {0, 1, 3}
    assert set(np.unique(Z5.Z)) == {0, 1}
    md5 = core.sun_modular_data(3, 5)
    i00 = sun_label_index(md5, (0, 0))
    i42 = sun_label_index(md5, (4, 2))
    assert Z5.Z[i00, i00] == 1 and Z5.Z[i00, i42] == 1


@pytest.mark.parametrize("slot", [0, 1])
def test_su3_invariants_verify_and_enumerate(slot):
    k, Z, _ = su3_named_invariants()[slot]
    md = core.sun_modular_data(3, k)
    assert search.verify_invariant(md, Z).ok
    found = search.enumerate_invariants(md)
    assert found.complete
    assert any(F == Z for F in found)


def _enumerate_unpruned(md):
    # reference: the search before the non-negativity prune, which walks the
    # whole product of pivot ranges and tests Z >= 0 only at the leaves
    basis = search.commutant_basis(md)
    L = md.size
    dim = basis.dim
    bound = np.outer(md.dims, md.dims).reshape(-1)
    order = sorted(range(dim), key=lambda i: (bound[basis.pivots[i]], basis.pivots[i]))
    E = basis.E.reshape(dim, L * L)
    D = basis.denominator
    results = []
    nodes = 0
    complete = True
    coeffs = np.zeros(dim, dtype=np.int64)

    def leaf():
        Z = coeffs @ E
        if Z[0] != D or Z.min() < 0 or (Z % D).any():
            return
        results.append(search.MassMatrix((Z // D).reshape(L, L)))

    def dfs(idx):
        nonlocal nodes, complete
        if not complete:
            return
        if idx == dim:
            leaf()
            return
        i = order[idx]
        p = basis.pivots[i]
        hi = int(math.floor(bound[p] + core.ROUND_TOL))
        lo = 0
        if p == 0:
            lo = hi = 1
        for c in range(lo, hi + 1):
            nodes += 1
            if nodes > search.DEFAULT_NODE_BUDGET:
                complete = False
                return
            coeffs[i] = c
            dfs(idx + 1)
        coeffs[i] = 0

    dfs(0)
    uniq = sorted({Z.key(): Z for Z in results}.values(), key=search.MassMatrix.key)
    return search.InvariantList(uniq, complete=complete, nodes=nodes)


# node ceilings of the pruned search; the unpruned one needs 17,107, 53,451
# and 13,204 nodes here, so a prune that is quietly switched off fails
PRUNED_NODE_CEILING = {("su3", 5): 150, ("su3", 7): 200, ("su4", 4): 200}


@pytest.mark.parametrize("family,k", [("su2", k) for k in range(1, 29)]
                         + [("su3", k) for k in range(1, 8)]
                         + [("su4", k) for k in range(1, 5)] + [("ising", 0)])
def test_pruned_search_matches_unpruned(family, k):
    md = _modular_data(family, k)
    expected = _enumerate_unpruned(md)
    found = search.enumerate_invariants(md)
    assert expected.complete
    assert [Z.key() for Z in found] == [Z.key() for Z in expected]
    assert found.complete == expected.complete
    assert found.nodes <= expected.nodes
    assert found.nodes <= PRUNED_NODE_CEILING.get((family, k), expected.nodes)


def test_su3_level7_completes_within_the_former_failing_budget():
    md = core.sun_modular_data(3, 7)
    found = search.enumerate_invariants(md, budget=10000)
    assert found.complete
    assert [Z.key() for Z in found] == [Z.key() for Z in search.enumerate_invariants(md)]


def _charge_conjugation(md):
    C = np.rint((md.S @ md.S).real).astype(np.int64)
    assert np.allclose(md.S @ md.S, C, atol=1e-9)
    return C


@pytest.mark.parametrize("n,k", [(3, 8), (3, 9), (4, 5)])
def test_frontier_levels_complete_with_closed_result_sets(n, k):
    # structural checks only: the identity and C = S^2 are invariants, and
    # the set is closed under Z -> Z^t and Z -> C Z
    md = core.sun_modular_data(n, k)
    found = search.enumerate_invariants(md)
    assert found.complete
    for Z in found:
        assert search.verify_invariant(md, Z).ok
    keys = {Z.key() for Z in found}
    C = _charge_conjugation(md)
    assert search.MassMatrix(np.eye(md.size, dtype=np.int64)).key() in keys
    assert search.MassMatrix(C).key() in keys
    for Z in found:
        assert search.MassMatrix(Z.Z.T.copy()).key() in keys
        assert search.MassMatrix(C @ Z.Z).key() in keys
