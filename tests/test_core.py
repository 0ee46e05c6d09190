import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from modinv import core, nimrep


def test_su2_k2_spin_one_dimension():
    # independent oracle: ratio of sines from the S-matrix first column
    md = core.su2_modular_data(2)
    expected = math.sin(2 * math.pi / 4) / math.sin(math.pi / 4)
    assert abs(expected - math.sqrt(2)) < 1e-15
    assert abs(md.dims[1] - math.sqrt(2)) < 1e-12


def test_su2_k16_spin8_twist():
    # h_8 = 80/72 = 10/9 at level 16
    md = core.su2_modular_data(16)
    want = np.exp(2j * np.pi * 10 / 9)
    assert abs(md.twists[8] - want) < 1e-12
    t_entry = np.exp(-1j * np.pi * md.central_charge / 12) * want
    assert abs(md.T[8, 8] - t_entry) < 1e-12


@pytest.mark.parametrize("k", [1, 2, 7, 16, 33, 64])
def test_su2_first_column_positivity(k):
    md = core.su2_modular_data(k)
    col = md.S[:, 0].real
    assert abs(md.S[0, 0] - math.sqrt(2.0 / (k + 2)) * math.sin(math.pi / (k + 2))) < 1e-14
    assert col[0] > 0
    assert col.min() >= col[0] - 1e-12


@pytest.mark.parametrize("k", [0, 65, -3])
def test_su2_level_bounds(k):
    with pytest.raises(ValueError):
        core.su2_modular_data(k)
    with pytest.raises(ValueError):
        core.su2_fusion_closed_form(k)


def test_su2_closed_form_examples():
    ring = core.su2_fusion_closed_form(16)
    assert ring.N[8, 8, 0] == 1
    assert ring.N[8, 8, 16] == 1
    ring4 = core.su2_fusion_closed_form(4)
    assert [c for c in range(5) if ring4.N[1, 1, c]] == [0, 2]
    # identity fusion at any level
    assert np.array_equal(ring4.N[0], np.eye(5, dtype=int))


def _closed_form_by_loop(k):
    # reference: the angular-momentum coupling window, one triple at a time
    L = k + 1
    N = np.zeros((L, L, L), dtype=int)
    for a in range(L):
        for b in range(L):
            for c in range(abs(a - b), min(a + b, 2 * k - a - b) + 1, 2):
                N[a, b, c] = 1
    return N


def test_su2_closed_form_matches_loop_at_every_level():
    for k in range(1, core.SU2_LEVEL_MAX + 1):
        assert np.array_equal(core.su2_fusion_closed_form(k).N, _closed_form_by_loop(k)), k


def _associative_by_einsum(N):
    # reference: the full L^4 tensors of (N_l N_m)_{nt} both ways round
    lhs = np.einsum("lms,snt->lmnt", N, N)
    rhs = np.einsum("mns,lst->lmnt", N, N)
    return bool(np.array_equal(lhs, rhs))


@settings(derandomize=True, max_examples=300)
@given(st.integers(1, 5).flatmap(
    lambda L: hnp.arrays(np.int64, (L, L, L), elements=st.integers(0, 2))))
def test_represents_agrees_with_einsum_associativity(N):
    assert core.represents(N, N) == _associative_by_einsum(N)


def _represents_int64(N, G):
    # reference: the int64 check one label a at a time, all b at once
    N = np.asarray(N, dtype=np.int64)
    G = np.asarray(G, dtype=np.int64)
    flat = G.reshape(len(G), -1)
    return all(np.array_equal(G @ G[a], (N[a] @ flat).reshape(G.shape))
               for a in range(len(G)))


def _changed(T):
    T = np.array(T)
    T[-1, 0, -1] += 1
    return T


@pytest.mark.parametrize("n,k", [(2, k) for k in range(1, 41)]
                         + [(3, k) for k in range(1, 6)] + [(4, k) for k in range(1, 4)])
def test_represents_matches_int64_loop_on_rings(n, k):
    if n == 2:
        N = core.su2_fusion_closed_form(k).N
    else:
        N = core.verlinde_fusion(core.sun_modular_data(n, k)).N
    assert core.represents(N, N) is _represents_int64(N, N) is True
    assert core.represents(N, _changed(N)) is _represents_int64(N, _changed(N)) is False


@pytest.mark.parametrize("name", [f"A{n}" for n in range(2, 50)]
                         + [f"D{n}" for n in range(4, 27)] + ["E6", "E7", "E8"])
def test_represents_matches_int64_loop_on_fused_families(name):
    family = nimrep.fused_adjacencies(nimrep.ade_graph(name))
    N = core.su2_fusion_closed_form(family.level).N
    G = np.array(family.G)
    assert core.represents(N, G) is _represents_int64(N, G) is True
    G[-1, 0, -1] += 1
    assert core.represents(N, G) is _represents_int64(N, G) is False


def _a49():
    family = nimrep.fused_adjacencies(nimrep.ade_graph("A49"))
    return core.su2_fusion_closed_form(family.level).N, np.array(family.G)


def test_represents_rejects_changed_a49_entry():
    N, G = _a49()
    G[2, 10, 11] += 1
    assert not core.represents(N, G)


def test_represents_peak_memory_on_a49():
    # the float64 copy of G is 8 L V^2 bytes; the eight blocks of b add under a third
    N, G = _a49()
    L, V = G.shape[:2]
    tracemalloc.start()
    try:
        assert core.represents(N, G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * L * V ** 2


def _represents_by_einsum(N, G):
    # reference: (G_b G_a)_{ik} and sum_c N_abc (G_c)_{ik} as full L^2 V^2 tensors
    lhs = np.einsum("bij,ajk->abik", G, G)
    rhs = np.einsum("abc,cik->abik", N, G)
    return bool(np.array_equal(lhs, rhs))


@settings(derandomize=True, max_examples=200)
@given(st.tuples(st.integers(1, 4), st.integers(1, 6)).flatmap(
    lambda lv: st.tuples(hnp.arrays(np.int64, (lv[0],) * 3, elements=st.integers(0, 2)),
                         hnp.arrays(np.int64, (lv[0], lv[1], lv[1]), elements=st.integers(0, 1)))))
def test_represents_agrees_with_einsum_on_other_dimensions(NG):
    N, G = NG
    assert core.represents(N, G) == _represents_by_einsum(N, G)


@pytest.mark.parametrize("k", [3, 8])
def test_represents_accepts_sums_of_regular_representations(k):
    # G_a = N_a (+) N_a (+) N_a is a representation on V = 3L labels
    N = core.su2_fusion_closed_form(k).N
    L = len(N)
    G = np.zeros((L, 3 * L, 3 * L), dtype=np.int64)
    for i in range(3):
        G[:, i * L:(i + 1) * L, i * L:(i + 1) * L] = N
    assert core.represents(N, G) and _represents_by_einsum(N, G)
    assert not core.represents(N, _changed(G))


def test_represents_is_exact_near_the_bound():
    # a 1 x 1 representation with G_1 = x, x^2 = x G_1 near 2^50: float32 or
    # a lossy float64 sum would miss a change of one in the product
    x = 2 ** 25 + 1
    N = np.zeros((2, 2, 2), dtype=np.int64)
    N[0] = N[:, 0] = np.eye(2, dtype=np.int64)
    N[1, 1, 1] = x
    G = np.array([[[1]], [[x]]], dtype=np.int64)
    assert core.represents(N, G)
    N[1, 1, 0] = 1
    assert not core.represents(N, G)


@pytest.mark.parametrize("g, n", [(2 ** 27, 1), (1, 2 ** 52)])
def test_represents_refuses_beyond_the_exact_float_range(g, n):
    # V max|G|^2 = 2^54 on the left side, or L max|N| max|G| = 2^53 on the right
    N = np.zeros((2, 2, 2), dtype=np.int64)
    N[0] = N[:, 0] = np.eye(2, dtype=np.int64)
    N[1, 1, 1] = n
    G = np.array([[[1]], [[g]]], dtype=np.int64)
    with pytest.raises(ValueError, match="exact float64 range"):
        core.represents(N, G)


def _commutative_with_unit(T):
    # the upper triangle a <= b of T mirrored, with label 0 made the unit
    L = len(T)
    a, b = np.triu_indices(L)
    N = np.zeros_like(T)
    N[a, b] = N[b, a] = T[a, b]
    N[0] = N[:, 0] = np.eye(L, dtype=T.dtype)
    return N


@settings(derandomize=True, max_examples=300)
@given(st.integers(1, 5).flatmap(
    lambda L: hnp.arrays(np.int64, (L, L, L), elements=st.integers(0, 2))))
def test_generator_verdict_agrees_with_einsum_associativity(T):
    N = _commutative_with_unit(T)
    assert core.represents(N, N, core.generating_labels(N)) == _associative_by_einsum(N)


def test_generating_labels_are_every_label_outside_the_lemma():
    N = core.su2_fusion_closed_form(4).N
    assert core.generating_labels(N) == (1,)
    assert core.generating_labels(N, unit=1) == tuple(range(5))  # N[1] is no unit
    M = np.array(N)
    M[1, 2, 3] += 1  # no longer commutative
    assert core.generating_labels(M) == tuple(range(5))


def _ring_tensor(family, k):
    if family == "su2":
        return core.su2_fusion_closed_form(k).N
    if family in ("su3", "su4"):
        return core.verlinde_fusion(core.sun_modular_data(int(family[2]), k)).N
    if family == "ising":
        return core.ising_fusion_ring().N
    return core.cyclic_group_fusion_ring(k).N


@pytest.mark.parametrize("family,k", [("su2", k) for k in range(1, core.SU2_LEVEL_MAX + 1)]
                         + [("su3", k) for k in range(1, 13)] + [("su4", k) for k in range(1, 7)]
                         + [("ising", 0)] + [("group", n) for n in range(2, 9)])
def test_generator_verdict_equals_full_verdict_on_rings(family, k):
    N = _ring_tensor(family, k)
    L = len(N)
    assert core.represents(N, N, core.generating_labels(N)) is core.represents(N, N) is True
    # a symmetric one-entry change keeps the unit and commutativity; every
    # commutative two-label ring with unit is associative, no larger one here
    M = np.array(N)
    M[1, L - 1, 1] += 1
    M[L - 1, 1, 1] = M[1, L - 1, 1]
    gens = core.generating_labels(M)
    assert len(gens) < L
    assert core.represents(M, M, gens) is core.represents(M, M) is (L == 2)


@pytest.mark.parametrize("name", [f"A{n}" for n in range(2, 50)]
                         + [f"D{n}" for n in range(4, 27)] + ["E6", "E7", "E8"])
def test_generator_check_rejects_fused_families_changed_off_the_generators(name):
    family = nimrep.fused_adjacencies(nimrep.ade_graph(name))
    N = core.su2_fusion_closed_form(family.level).N
    gens = core.generating_labels(N)
    assert gens == (1,)
    # label 0 too, though the lemma assumes G_0 = I: at a = 1, b = 0 the
    # check reads G_0 G_1 = G_1, and G_1 (a connected graph) has no zero row
    for c in set(range(len(N))) - set(gens):
        G = np.array(family.G)
        G[c, 0, -1] += 1
        assert not core.represents(N, G, gens), c


def test_validate_rejects_non_associative_ring():
    # unit, commutative, self-dual, but (1 x 1) x 2 = 2 while 1 x (1 x 2) = 0
    N = np.zeros((3, 3, 3), dtype=int)
    N[0] = N[:, 0] = np.eye(3, dtype=int)
    N[1, 1, 0] = N[2, 2, 0] = 1
    ring = core.FusionRing(labels=tuple(core.Label(i, str(i)) for i in range(3)),
                           N=N, dual=np.arange(3))
    with pytest.raises(ValueError, match="not associative"):
        ring.validate()


def test_validate_peak_memory_is_cubic():
    ring = core.su2_fusion_closed_form(44)
    L = ring.size
    tracemalloc.start()
    try:
        ring.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * L ** 3


@pytest.mark.parametrize("k", range(1, core.SU2_LEVEL_MAX + 1))
def test_verlinde_equals_closed_form(k):
    # the closed form is not validated on construction; this equality at
    # every level is what makes it a ring
    N = core.verlinde_sum(core.su2_modular_data(k).S.T, 0)
    Nr = np.round(N.real)
    assert np.max(np.abs(N - Nr)) < core.ROUND_TOL
    assert np.array_equal(Nr.astype(int), core.su2_fusion_closed_form(k).N)


def _verlinde_cases():
    yield from (core.sun_modular_data(3, k) for k in range(1, 13))
    yield from (core.sun_modular_data(4, k) for k in range(1, 7))
    yield core.ising_modular_data()


def test_blockwise_verlinde_equals_rounded_einsum():
    for md in _verlinde_cases():
        want = np.round(core.verlinde_sum(md.S.T, 0).real).astype(np.int64)
        assert np.array_equal(core.verlinde_fusion(md).N, want), (md.family, md.level)


def test_verlinde_rejects_non_integral_unitary_s():
    # S of SU(2)_6 conjugated by a small rotation of labels 1 and 2 stays
    # symmetric and unitary, but its Verlinde sum is no longer integral
    md = core.su2_modular_data(6)
    R = np.eye(md.size)
    c, s = math.cos(0.1), math.sin(0.1)
    R[1:3, 1:3] = [[c, -s], [s, c]]
    rotated = dataclasses.replace(md, S=R @ md.S @ R.T)
    assert not rotated.degenerate
    with pytest.raises(core.RoundingError, match="not integral"):
        core.verlinde_fusion(rotated)


def test_verlinde_fusion_peak_memory_at_su3_12():
    # the int64 tensor (8 L^3 bytes), the float64 copy validate checks
    # (8 L^3) and one complex block; one complex L^3 tensor alone is 16 L^3
    md = core.sun_modular_data(3, 12)
    L = md.size
    tracemalloc.start()
    try:
        core.verlinde_fusion(md)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * L ** 3


@pytest.mark.parametrize("k", [1, 2, 5, 10, 16])
def test_su2_ring_axioms(k):
    core.su2_fusion_closed_form(k).validate()


@pytest.mark.parametrize("k", range(1, 17))
def test_su2_simple_current_symmetry(k):
    # mirror symmetry j -> k - j of dimensions and fusion coefficients
    md = core.su2_modular_data(k)
    ring = core.su2_fusion_closed_form(k)
    for j in range(k + 1):
        assert abs(md.dims[j] - md.dims[k - j]) < 1e-12
    L = k + 1
    for a in range(L):
        for b in range(L):
            for c in range(L):
                assert ring.N[a, b, c] == ring.N[k - a, k - b, c]


def test_sun_su3_level3_global_index():
    md = core.sun_modular_data(3, 3)
    assert md.size == 10
    assert abs(md.global_index - 36.0) < 1e-9
    assert abs(md.central_charge - 4.0) < 1e-12


@pytest.mark.parametrize("k", [1, 2, 5, 9])
def test_sun_rank_two_matches_su2(k):
    a = core.sun_modular_data(2, k)
    b = core.su2_modular_data(k)
    assert np.max(np.abs(a.S - b.S)) < 1e-12
    assert np.max(np.abs(a.twists - b.twists)) < 1e-12


def test_sun_label_count_is_the_multiset_count():
    # the label bound is checked on C(k+n-1, n-1) before the labels exist
    for n in (2, 3, 4):
        for k in range(1, 13):
            assert len(core._sun_partitions(n, k)) == math.comb(k + n - 1, n - 1)
    assert core.sun_modular_data(3, 26).size == 378 <= core.SUN_LABEL_MAX
    with pytest.raises(core.UsageError, match="406 labels"):
        core.sun_modular_data(3, 27)


def test_sun_rejects_bad_rank():
    with pytest.raises(ValueError):
        core.sun_modular_data(5, 2)


def test_sun_central_charge_mod8():
    # c = k (n^2 - 1) / (k + n) reduced mod 8
    md = core.sun_modular_data(3, 5)
    assert abs(md.central_charge - 5.0) < 1e-10
    md4 = core.sun_modular_data(4, 1)
    assert abs(md4.central_charge - 3.0) < 1e-10


def test_ising_closed_form():
    md = core.ising_modular_data()
    assert abs(md.global_index - 4.0) < 1e-12
    assert abs(md.dims[2] - math.sqrt(2)) < 1e-12
    assert abs(md.S[2, 2]) < 1e-12
    # central charge by direct complex arithmetic
    total = 1 - 1 + 2 * np.exp(1j * np.pi / 8)
    assert abs(4 * np.angle(total) / np.pi - 0.5) < 1e-12
    assert abs(md.central_charge - 0.5) < 1e-12


def test_ising_from_twists_matches_closed_form():
    md = core.ising_modular_data()
    ring = core.ising_fusion_ring()
    built = core.modular_data_from_twists(ring, md.twists, md.dims)
    assert np.max(np.abs(built.S - md.S)) < 1e-9
    assert np.max(np.abs(built.T - md.T)) < 1e-9


def test_ising_verlinde_fusion():
    ring = core.verlinde_fusion(core.ising_modular_data())
    sigma = 2
    assert [c for c in range(3) if ring.N[sigma, sigma, c]] == [0, 1]
    assert ring.N[1, sigma, sigma] == 1
    assert ring.N[1, 1, 0] == 1


def test_perron_dims_match_s_matrix_dims():
    k = 6
    ring = core.su2_fusion_closed_form(k)
    md = core.su2_modular_data(k)
    assert np.max(np.abs(ring.perron_dims() - md.dims)) < 1e-9
    assert np.max(np.abs(core.cyclic_group_fusion_ring(4).perron_dims() - 1.0)) < 1e-12


def test_from_twists_rejects_bad_dims():
    ring = core.ising_fusion_ring()
    md = core.ising_modular_data()
    with pytest.raises(ValueError, match="dimension function"):
        core.modular_data_from_twists(ring, md.twists, [1.0, 1.0, 1.0])


def test_from_twists_reproduces_su2_s_matrix():
    k = 7
    md = core.su2_modular_data(k)
    ring = core.su2_fusion_closed_form(k)
    built = core.modular_data_from_twists(ring, md.twists, md.dims)
    assert np.max(np.abs(built.S - md.S)) < 1e-9
    assert not built.degenerate


def test_trivial_ring_from_twists():
    ring = core.cyclic_group_fusion_ring(2)
    one = core.FusionRing(labels=ring.labels[:1],
                          N=np.ones((1, 1, 1), dtype=int),
                          dual=np.zeros(1, dtype=int))
    built = core.modular_data_from_twists(one, [1.0], [1.0])
    assert built.S[0, 0] == 1
    assert built.global_index == 1.0
    assert built.central_charge == 0.0


def test_group_dual_rank_one_degenerate():
    md = core.cyclic_group_modular_data(4)
    assert md.degenerate
    assert np.max(np.abs(md.S - 0.25)) < 1e-15
    assert np.linalg.matrix_rank(md.S) == 1
    checks = core.check_modular(md)
    assert checks.unitary > 1e-9
    assert not checks.passed


def test_group_dual_from_twists_degenerate_rank_one():
    # trivial twists collapse the monodromy matrix to d d^t; the normalized
    # S is rank one whichever scale convention is used
    n = 5
    ring = core.cyclic_group_fusion_ring(n)
    built = core.modular_data_from_twists(ring, np.ones(n), np.ones(n))
    assert built.degenerate
    assert np.linalg.matrix_rank(built.S) == 1
    assert np.max(np.abs(built.S * np.sqrt(n) - np.outer(np.ones(n), np.ones(n)))) < 1e-12


@pytest.mark.parametrize("k", [1, 4, 10, 16])
def test_check_modular_su2(k):
    checks = core.check_modular(core.su2_modular_data(k))
    assert checks.passed
    assert max(checks.symmetric, checks.unitary, checks.st_cubed,
               checks.s_squared_conjugation, checks.s_fourth) < 1e-10
    assert checks.dual == tuple(range(k + 1))


@pytest.mark.parametrize("make", [
    lambda: core.su2_modular_data(9),
    lambda: core.sun_modular_data(3, 3),
    lambda: core.sun_modular_data(3, 5),
    lambda: core.sun_modular_data(4, 2),
    core.ising_modular_data,
])
def test_verlinde_rings_satisfy_all_axioms(make):
    md = make()
    ring = core.verlinde_fusion(md)
    ring.validate()
    assert ring.is_dimension_function(md.dims)


def test_check_modular_su3_conjugation():
    md = core.sun_modular_data(3, 2)
    checks = core.check_modular(md)
    assert checks.passed
    # conjugation swaps (m, 0) with (m, m)
    displays = [lab.display for lab in md.labels]
    i10, i11 = displays.index("(1,0)"), displays.index("(1,1)")
    assert checks.dual[i10] == i11


def test_check_modular_ising():
    assert core.check_modular(core.ising_modular_data()).passed


def test_verlinde_rejects_degenerate():
    with pytest.raises(core.DegenerateDataError):
        core.verlinde_fusion(core.cyclic_group_modular_data(3))


def test_degeneracy_threshold_consistency():
    for md in (core.su2_modular_data(6), core.ising_modular_data(),
               core.cyclic_group_modular_data(3)):
        assert md.degenerate == (core.check_modular(md).unitary >= 1e-9)


def test_json_round_trip():
    md = core.sun_modular_data(3, 3)
    doc = core.modular_data_to_json(md)
    back = core.modular_data_from_json(doc)
    assert np.max(np.abs(back.S - md.S)) < 1e-11
    assert core.modular_data_to_json(back) == doc
    assert [l.display for l in back.labels] == [l.display for l in md.labels]


def test_json_import_validates():
    doc = core.modular_data_to_json(core.su2_modular_data(2))
    doc["dims"][1] = 3.0
    with pytest.raises(ValueError):
        core.modular_data_from_json(doc)
