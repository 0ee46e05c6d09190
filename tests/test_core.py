import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from modinv import core, graph_algebra, nimrep, search


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


def _unital_and_commutative(N):
    return (np.array_equal(N[0], np.eye(len(N), dtype=N.dtype))
            and np.array_equal(N, N.transpose(1, 0, 2)))


@settings(derandomize=True, max_examples=300)
@given(st.integers(1, 5).flatmap(
    lambda L: hnp.arrays(np.int64, (L, L, L), elements=st.integers(0, 2))))
def test_represents_agrees_with_einsum_associativity(N):
    # N represents itself (G = N) iff it is associative; outside the
    # theorem's hypotheses associative refuses
    if _unital_and_commutative(N):
        assert core.associative(N) == _associative_by_einsum(N)
    else:
        with pytest.raises(ValueError):
            core.associative(N)


def _represents_int64(N, G):
    # reference: the int64 check of G_b G_a == sum_c N[a, b, c] G_c, one
    # label a at a time, all b at once
    N = np.asarray(N, dtype=np.int64)
    G = np.asarray(G, dtype=np.int64)
    flat = G.reshape(len(G), -1)
    return all(np.array_equal(G @ G[a], (N[a] @ flat).reshape(G.shape))
               for a in range(len(G)))


def _represents_float64(N, G, labels=None):
    # reference: the same check as float64 BLAS products, exact while every
    # partial sum, at most max(V max|G|^2, L max|N| max|G|), is below 2^53;
    # one label a at a time (default: every label)
    L, V = len(G), G.shape[-1]
    g, n = int(np.abs(G).max()), int(np.abs(N).max())
    assert max(V * g * g, L * n * g) < core.FLOAT_EXACT_MAX
    G = np.asarray(G, dtype=np.float64)
    flat = G.reshape(L, -1)
    return all(np.array_equal(G @ G[a], (N[a] @ flat).reshape(G.shape))
               for a in (range(L) if labels is None else labels))


def _changed(T):
    T = np.array(T)
    T[-1, 0, -1] += 1
    return T


def _changed_symmetric(N, p, q, r):
    # one more e_r in e_p e_q = e_q e_p: the unit and commutativity stay
    M = np.array(N)
    M[p, q, r] += 1
    M[q, p, r] = M[p, q, r]
    return M


@pytest.mark.parametrize("n,k", [(2, k) for k in range(1, 41)]
                         + [(3, k) for k in range(1, 6)] + [(4, k) for k in range(1, 4)])
def test_represents_matches_int64_loop_on_rings(n, k):
    # G = N: associative against the full int64 identity on every label
    if n == 2:
        N = core.su2_fusion_closed_form(k).N
    else:
        N = core.verlinde_fusion(core.sun_modular_data(n, k)).N
    assert core.associative(N) is _represents_int64(N, N) is True
    M = _changed_symmetric(N, 1, len(N) - 1, 1)
    assert core.associative(M) is _represents_int64(M, M) is (len(N) == 2)


@pytest.mark.parametrize("name", [f"A{n}" for n in range(2, 50)]
                         + [f"D{n}" for n in range(4, 27)] + ["E6", "E7", "E8"])
def test_represents_matches_int64_loop_on_fused_families(name):
    """fused_adjacencies' truncation verdict against the full int64 nimrep
    identity on every label: it accepts the diagram, and it rejects the
    diagram with one edge doubled, whose recursion then breaks the identity."""
    graph = search.ade_graph(name)
    N = core.su2_fusion_closed_form(graph.level).N
    G = np.array(nimrep.fused_adjacencies(graph).G)
    assert _represents_int64(N, G)
    A = graph.adjacency.copy()
    A[0, 1] = A[1, 0] = 2
    G = [np.eye(len(A), dtype=np.int64), A]
    for _ in range(graph.level - 1):
        G.append(A @ G[-1] - G[-2])
    assert not _represents_int64(N, np.array(G))
    with pytest.raises(ValueError, match="nimrep identity fails"):
        nimrep.fused_adjacencies(dataclasses.replace(graph, adjacency=A))


def test_represents_is_exact_near_the_bound():
    # e1 e2 = x e1 and e2^2 = x e2 with x = 2^25 + 1, an associative ring;
    # adding e0 to e2^2 moves commutator entries of size x^2 + 1 near 2^50
    # by one, which float32 or a lossy float64 sum would miss
    x = 2 ** 25 + 1
    N = np.zeros((3, 3, 3), dtype=np.int64)
    N[0] = N[:, 0] = np.eye(3, dtype=np.int64)
    N[1, 2, 1] = N[2, 1, 1] = N[2, 2, 2] = x
    assert core.associative(N) and _associative_by_einsum(N)
    N[2, 2, 0] = 1
    assert not core.associative(N) and not _associative_by_einsum(N)


def _cyclic_group_ring(n):
    # Z_n: group multiplication, conjugate = inverse
    g = np.arange(n)
    N = np.zeros((n, n, n), dtype=int)
    N[g[:, None], g, (g[:, None] + g) % n] = 1
    ring = core.FusionRing(N=N)
    ring.validate()
    return ring


def _ising_fusion_ring():
    """The three-sector Ising ring: eta^2 = id, eta.sigma = sigma, sigma^2 = id + eta."""
    N = np.zeros((3, 3, 3), dtype=int)
    N[0] = np.eye(3, dtype=int)
    N[1, 1, 0] = N[1, 0, 1] = N[0, 1, 1] = 1
    N[1, 2, 2] = N[2, 1, 2] = N[2, 2, 1] = 1
    N[2, 0, 2] = N[0, 2, 2] = N[2, 2, 0] = 1
    ring = core.FusionRing(N=N)
    ring.validate()
    return ring


@pytest.mark.parametrize("L", [2, 5])
def test_associative_refuses_beyond_the_exact_float_range(L):
    # partial sums reach L max|N|^2: the largest n with L n^2 < 2^53 is
    # checked, n + 1 is refused
    n = math.isqrt((core.FLOAT_EXACT_MAX - 1) // L)
    N = _cyclic_group_ring(L).N.astype(np.int64)
    M = np.array(N)
    M[1, 1] *= n  # e1 e1 = n e2: only the two-label ring stays associative
    assert core.associative(M) is (L == 2)
    M = np.array(N)
    M[1, 1] *= n + 1
    with pytest.raises(ValueError, match="exact float64 range"):
        core.associative(M)


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
    assert core.associative(N) == _associative_by_einsum(N)


def _relabelled(N, unit):
    # the same ring with its unit moved from label 0 to label `unit`
    perm = np.roll(np.arange(len(N)), unit)
    inv = np.argsort(perm)
    return N[np.ix_(inv, inv, inv)]


def test_associative_refuses_tensors_outside_the_lemma():
    N = core.su2_fusion_closed_form(4).N
    assert core.associative(N)
    with pytest.raises(ValueError, match="label 0 is not a unit"):
        core.associative(_relabelled(N, 1))
    with pytest.raises(ValueError, match="not commutative"):
        core.associative(_changed(N))


def _ring_tensor(family, k):
    if family == "su2":
        return core.su2_fusion_closed_form(k).N
    if family in ("su3", "su4"):
        return core.verlinde_fusion(core.sun_modular_data(int(family[2]), k)).N
    if family == "ising":
        return _ising_fusion_ring().N
    return _cyclic_group_ring(k).N


@pytest.mark.parametrize("family,k", [("su2", k) for k in range(1, core.SU2_LEVEL_MAX + 1)]
                         + [("su3", k) for k in range(1, 13)] + [("su4", k) for k in range(1, 7)]
                         + [("ising", 0)] + [("group", n) for n in range(2, 9)])
def test_generator_verdict_equals_full_verdict_on_rings(family, k):
    N = _ring_tensor(family, k)
    L = len(N)
    assert len(core.generating_labels(N.__getitem__, L)) < L
    assert core.associative(N) is _represents_float64(N, N) is True
    # every commutative two-label ring with unit is associative, no larger one here
    M = _changed_symmetric(N, 1, L - 1, 1)
    assert len(core.generating_labels(M.__getitem__, L)) < L
    assert core.associative(M) is _represents_float64(M, M) is (L == 2)


def _greedy_generating_labels(N):
    """The greedy loop alone, without the one-generator Krylov shortcut: the
    reference for ``core.generating_labels``."""
    L = len(N)
    p = core.GENERATOR_PRIME
    if L * p * max(p, int(N.max()), -int(N.min())) >= 2 ** 63:
        return tuple(range(L))
    N = N.astype(np.int64)
    eye = np.eye(L, dtype=np.int64)
    rows = np.empty((L, L), dtype=np.int64)
    pivots = []

    def extend(cands):
        start = len(pivots)
        cands = (cands - cands[:, pivots] @ rows[:start]) % p
        while len(cands := cands[cands.any(axis=1)]):
            j = int(np.flatnonzero(cands[0])[0])
            v = cands[0] * pow(int(cands[0, j]), -1, p) % p
            r = len(pivots)
            rows[:r] = (rows[:r] - np.outer(rows[:r, j], v)) % p
            rows[r] = v
            pivots.append(j)
            cands = (cands[1:] - np.outer(cands[1:, j], v)) % p
        return rows[start:len(pivots)]

    gens = []
    extend(eye[[0]])
    for a in range(L):
        if len(pivots) == L:
            break
        new = extend(eye[[a]])
        if not len(new):
            continue
        gens.append(a)
        todo = np.vstack([rows[:len(pivots) - 1] @ N[a]] + [new @ N[g] for g in gens]) % p
        while len(new := extend(todo)):
            todo = np.vstack([new @ N[g] for g in gens]) % p
    return tuple(gens)


@pytest.mark.parametrize("family,k", [("su2", k) for k in range(1, core.SU2_LEVEL_MAX + 1)]
                         + [("su3", k) for k in range(1, 10)] + [("su4", k) for k in range(1, 6)]
                         + [("ising", 0)] + [("group", n) for n in range(2, 13)])
def test_generating_labels_equal_the_greedy_loop_on_rings(family, k):
    N = _ring_tensor(family, k)
    assert core.generating_labels(N.__getitem__, len(N)) == _greedy_generating_labels(N)


def test_generating_labels_equal_the_greedy_loop_on_graph_algebras():
    names = ([f"A{n}" for n in range(2, 50)] + [f"D{n}" for n in range(4, 27, 2)]
             + ["E6", "E8"])
    single = 0
    for name in names:
        fusion = graph_algebra.graph_structure_constants(
            graph_algebra.eigen_gauge(search.ade_graph(name)))
        N = fusion.rounded
        got = core.generating_labels(N.__getitem__, len(N))
        assert got == _greedy_generating_labels(N), name
        single += len(got) == 1
    # the shortcut decides the A and E cases; D_even needs a second label
    assert single == len(names) - len(range(4, 27, 2))


@settings(derandomize=True, max_examples=300)
@given(st.integers(1, 6).flatmap(
    lambda L: hnp.arrays(np.int64, (L, L, L), elements=st.integers(0, 2))))
def test_generating_labels_equal_the_greedy_loop_on_random_tensors(T):
    N = _commutative_with_unit(T)
    assert core.generating_labels(N.__getitem__, len(N)) == _greedy_generating_labels(N)


def test_generating_labels_guard_only_the_rows_they_read():
    """A row is read as its residues modulo p, whatever the size of its
    entries: the generators are those of the residue tensor, and only their
    rows are read."""
    reads = []

    def rows_of(N):
        def row(a):
            reads.append(a)
            return N[a]
        return row

    p = core.GENERATOR_PRIME
    rng = np.random.default_rng(0)
    rings = [core.su2_fusion_closed_form(4).N, _ising_fusion_ring().N] + [
        _commutative_with_unit(rng.integers(0, 3, (5, 5, 5))) for _ in range(8)]
    for N in rings:
        L = len(N)
        gens = _greedy_generating_labels(N)
        # the unit's row, which no generator needs, and every entry of the generator rows
        for a, b, c in [(0, L - 1, L - 1)] + list(itertools.product(gens, range(L), range(L))):
            for huge in (p << 35, -(p << 34), 2 ** 63 // (L * p) + 1, 2 ** 62 + 1):
                M = N.astype(np.int64)
                M[a, b, c] += huge
                reads.clear()
                got = core.generating_labels(rows_of(M), L)
                assert got == _greedy_generating_labels(M % p), (a, b, c, huge)
                assert sorted(reads) == list(got)
                if huge % p == 0 or a == 0:
                    assert got == gens


@pytest.mark.parametrize("name", [f"A{n}" for n in range(2, 50)]
                         + [f"D{n}" for n in range(4, 27)] + ["E6", "E7", "E8"])
def test_generator_check_rejects_fused_families_changed_off_the_generators(name):
    """The ring of each fused family's level, changed at a label c off its
    one generator (e_c e_c gains e_0), is rejected by associative, which
    commutes N_1 only; the family no longer represents the changed ring."""
    family = nimrep.fused_adjacencies(search.ade_graph(name))
    N = core.su2_fusion_closed_form(family.level).N
    G = np.array(family.G)
    assert core.generating_labels(N.__getitem__, len(N)) == (1,)
    assert _represents_float64(N, G)
    for c in range(2, len(N)):
        M = _changed_symmetric(N, c, c, 0)
        assert not core.associative(M), c
        assert not _represents_float64(M, G, [c]), c


def test_validate_rejects_non_associative_ring():
    # unit, commutative, self-dual, but (1 x 1) x 2 = 2 while 1 x (1 x 2) = 0
    N = np.zeros((3, 3, 3), dtype=int)
    N[0] = N[:, 0] = np.eye(3, dtype=int)
    N[1, 1, 0] = N[2, 2, 0] = 1
    ring = core.FusionRing(N=N)
    with pytest.raises(ValueError, match="not associative"):
        ring.validate()


@pytest.mark.parametrize("vacuum", [
    [[1, 0, 0], [0, 1, 1], [0, 1, 0]],  # label 1 has two conjugates
    [[1, 0, 0], [0, 0, 0], [0, 0, 1]],  # label 1 has none
])
def test_validate_rejects_bad_vacuum_couplings(vacuum):
    # label 0 is the unit and the vacuum couplings are symmetric, so N passes
    # the unit and commutativity checks and only the duality check fails
    N = np.zeros((3, 3, 3), dtype=int)
    N[0] = N[:, 0] = np.eye(3, dtype=int)
    N[:, :, 0] = vacuum
    ring = core.FusionRing(N=N)
    with pytest.raises(ValueError, match="duality map inconsistent with vacuum couplings"):
        ring.validate()


def _peak_bytes(f, *args):
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_validate_peak_memory_is_cubic():
    ring = core.su2_fusion_closed_form(44)
    assert _peak_bytes(ring.validate) < 32 * ring.size ** 3


def test_validate_holds_no_cubic_temporary():
    # the checks run one label at a time, so beside the tensor they hold a
    # few L x L arrays (0.44 L^3 bytes at L = 91), not even one L^3 bool array
    ring = core.verlinde_fusion(core.sun_modular_data(3, 12))
    assert _peak_bytes(ring.validate) < ring.size ** 3


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


def test_verlinde_fusion_equals_rounded_einsum():
    for md in _verlinde_cases():
        want = np.round(core.verlinde_sum(md.S.T, 0).real).astype(np.int64)
        assert np.array_equal(core.verlinde_fusion(md).N, want), (md.family, md.level)


def _row_cases():
    yield from (core.su2_modular_data(k) for k in range(1, core.SU2_LEVEL_MAX + 1))
    yield from (core.sun_modular_data(3, k) for k in range(1, 10))
    yield from (core.sun_modular_data(4, k) for k in range(1, 6))
    yield core.ising_modular_data()


def test_verlinde_fusion_rows_are_verlinde_rows():
    # the whole ring and the single rows come from one row formula
    for md in _row_cases():
        N = core.verlinde_fusion(md).N
        for a in range(md.size):
            assert np.array_equal(N[a], md.verlinde_row(a)), (md.family, md.level, a)


# every SU(n) level within the label bounds: SU(2) k <= 64, SU(3) k <= 26, SU(4) k <= 11
PIERI_LEVELS = ([(2, k) for k in range(1, core.SU2_LEVEL_MAX + 1)]
                + [(3, k) for k in range(1, 27)] + [(4, k) for k in range(1, 12)])


def _su_modular_data(n, k):
    return core.su2_modular_data(k) if n == 2 else core.sun_modular_data(n, k)


def fundamental_labels(md):
    """The labels of Lambda_j, the column of j boxes, j = 1..n-1, read from the
    label strings: "1" of SU(2), "(1,...,1,0,...,0)" of SU(n)."""
    if md.family == "su2":
        return (md.labels.index("1"),)
    n = int(md.family[2])
    return tuple(md.labels.index("(" + ",".join("1" * j + "0" * (n - 1 - j)) + ")")
                 for j in range(1, n))


@pytest.mark.parametrize("n, k", PIERI_LEVELS)
def test_pieri_rows_are_bitwise_the_verlinde_rows(n, k):
    md = _su_modular_data(n, k)
    rows = md.fundamental_rows
    assert md.fusion_generators == tuple(rows) == fundamental_labels(md)
    U = md.S.T
    for g, row in rows.items():
        assert row.dtype == np.int64 and not row.flags.writeable
        assert np.array_equal(row, core._verlinde_row(U, g)), g
        assert md.verlinde_row(g) is row


@pytest.mark.parametrize("n, k", PIERI_LEVELS)
def test_fundamentals_span_the_verlinde_ring(n, k):
    """The elimination of generating_labels, on the ring relabelled so that the
    fundamentals come first after the unit, returns fundamentals only, and it
    can read no other row: their right-nested products span the ring modulo
    GENERATOR_PRIME, hence over Q."""
    md = _su_modular_data(n, k)
    gens = md.fusion_generators
    L = md.size
    q = np.array([0, *gens, *sorted(set(range(1, L)) - set(gens))])

    def row(a):
        if not 1 <= a <= len(gens):
            raise AssertionError(f"row of the non-fundamental label {md.labels[q[a]]} read")
        return md.verlinde_row(q[a])[np.ix_(q, q)]

    assert set(core.generating_labels(row, L)) <= set(range(1, len(gens) + 1))


def _conjugate_weyl_sums(md):
    """(l, W_l) for every l coprime to n kappa, ascending: the Weyl sum
    W_l[a, b] = sum over permutations w of sgn(w) zeta^(l n <w xi_a, xi_b>),
    zeta = exp(-2 pi i / (n kappa)), built from the integer exponents
    n <w x_a, x_b> - (sum x_a)(sum x_b), x = a + rho, and a table of the
    powers of zeta."""
    parts = md.partitions
    L, n = len(parts), parts.shape[1] + 1
    N = n * (md.level + n)
    x = np.zeros((L, n), dtype=np.int64)
    x[:, :-1] = parts
    x += np.arange(n - 1, -1, -1)
    total = x.sum(axis=1)
    terms = [((-1) ** sum(w[i] > w[j] for i, j in itertools.combinations(range(n), 2)),
              n * x[:, list(w)] @ x.T - np.outer(total, total))
             for w in itertools.permutations(range(n))]
    powers = np.exp(-2j * np.pi * np.arange(N) / N)
    for ell in range(1, N):
        if math.gcd(ell, N) == 1:
            yield ell, sum(sign * powers[ell * E % N] for sign, E in terms)


@pytest.mark.parametrize("n, k", PIERI_LEVELS)
def test_galois_action_conjugates_the_weyl_sum(n, k):
    # sigma_l is a bijection and eps_l W[sigma_l] is the Weyl sum with its
    # exponent times l, for every l coprime to n kappa; S = c W
    md = _su_modular_data(n, k)
    sigma, eps = md.galois
    assert not sigma.flags.writeable and not eps.flags.writeable
    assert md.galois is md.galois
    sums = _conjugate_weyl_sums(md)
    ell, W = next(sums)
    assert ell == 1 and np.array_equal(sigma[0], np.arange(md.size)) and (eps[0] == 1).all()
    assert np.max(np.abs(md.S - md.S[0, 0] / W[0, 0] * W)) < 1e-12
    count = 1
    for (ell, W_ell), s, e in zip(sums, sigma[1:], eps[1:]):
        assert np.array_equal(np.sort(s), np.arange(md.size)), ell
        assert np.array_equal(np.abs(e), np.ones(md.size)), ell
        assert np.max(np.abs(e[:, None] * W[s] - W_ell)) < 1e-10, ell
        count += 1
    assert count == len(sigma) == len(eps)


def test_json_round_trip_of_sun_data_takes_the_generic_generators():
    """Imported SU(3)_4 data carries no partitions, so its generators come from
    generating_labels whatever its family says; every invariant of SU(3)_4
    gets the verdict of the built data."""
    md = core.sun_modular_data(3, 4)
    doc = json.loads(core.dumps_deterministic(core.modular_data_to_json(md)))
    imported = core.modular_data_from_json(doc)
    assert imported.family == "su3" and imported.partitions is None
    assert imported.fundamental_rows == {}
    assert imported.fusion_generators == core.generating_labels(imported.verlinde_row, md.size)
    assert imported.fusion_generators != md.fusion_generators == (1, 2)
    found = search.enumerate_invariants(md)
    verdicts = [search.permutation_criterion(md, Z) for Z in found]
    assert sum(pi not in (None, tuple(range(md.size))) for pi in verdicts) >= 1
    assert [search.permutation_criterion(imported, Z) for Z in found] == verdicts


@pytest.mark.parametrize("make", [lambda: core.su2_modular_data(10),
                                  lambda: core.sun_modular_data(3, 4),
                                  core.ising_modular_data])
def test_arrays_shared_across_calls_are_read_only(make):
    # the modular data, its cached Verlinde rows, the fusion tensor and the
    # fused adjacencies are kept and handed out again, so none can be written
    md = make()
    shared = [md.S, md.T, md.twists, md.dims, md.verlinde_row(1),
              core.verlinde_fusion(md).N, core.su2_fusion_closed_form(4).N,
              nimrep.fused_adjacencies(search.ade_graph("D6")).G,
              *md.fundamental_rows.values()]
    shared += [] if md.partitions is None else [md.partitions]
    for arr in shared:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = arr.flat[0]


def test_verlinde_rejects_non_integral_unitary_s():
    # S of SU(2)_6 conjugated by a small rotation of labels 1 and 2 stays
    # symmetric and unitary, but its Verlinde sum is no longer integral
    md = core.su2_modular_data(6)
    R = np.eye(md.size)
    c, s = math.cos(0.1), math.sin(0.1)
    R[1:3, 1:3] = [[c, -s], [s, c]]
    rotated = dataclasses.replace(md, S=R @ md.S @ R.T)
    assert not rotated.degenerate
    with pytest.raises(ValueError, match="not integral"):
        core.verlinde_fusion(rotated)


def test_verlinde_fusion_peak_memory_at_su3_12():
    # one complex L^3 tensor alone is 16 L^3 bytes
    md = core.sun_modular_data(3, 12)
    assert _peak_bytes(core.verlinde_fusion, md) < 24 * md.size ** 3


def test_verlinde_fusion_keeps_no_float_copy_at_su3_12():
    # the int64 tensor (8 L^3 bytes), one complex block of labels and the
    # blocks validate converts; no float64 copy of the whole tensor (8 L^3)
    md = core.sun_modular_data(3, 12)
    assert _peak_bytes(core.verlinde_fusion, md) < 16 * md.size ** 3


def test_validate_peak_memory_at_su3_12():
    # the commutativity mask (L^3 bytes), then one float64 block of an
    # eighth of the labels and its two products, each about L^3 bytes
    ring = core.verlinde_fusion(core.sun_modular_data(3, 12))
    assert _peak_bytes(ring.validate) < 5 * ring.size ** 3


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


@pytest.mark.parametrize("k", range(1, core.SU2_LEVEL_MAX + 1))
def test_sun_rank_two_matches_su2(k):
    # the sine formula of su2_modular_data against the Weyl sum at n = 2,
    # which sun_modular_data refuses: SU(2) has the one builder.  The global
    # index grows like k^3, so it is compared relative to its size
    md = core.su2_modular_data(k)
    S, T, twists, dims, w, c, _ = _reference_sun_modular_data(2, k)
    for got, want in ((md.S, S), (md.T, T), (md.twists, twists), (md.dims, dims),
                      (md.global_index / w, 1.0), (md.central_charge, c)):
        assert np.max(np.abs(got - want)) < 1e-12
    with pytest.raises(core.UsageError, match=r"unsupported rank: SU\(2\)"):
        core.sun_modular_data(2, k)


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


def _is_dimension_function(ring, dims):
    # d_l d_m = sum_n N[l, m, n] d_n for every pair of labels
    d = np.asarray(dims, dtype=float)
    prod = np.einsum("lmn,n->lm", ring.N, d)
    return bool(np.max(np.abs(np.outer(d, d) - prod)) < core.ASSERT_TOL * max(1.0, d.max() ** 2))


def _modular_data_from_twists(ring, labels, twists, dims):
    """S = w^{-1/2} Y and T from a fusion ring, its label names, twists and dimensions, with
    Y[a, b] = sum_c (omega_a omega_b / omega_c) N[a, b, c] d_c: an independent
    construction of the modular data, flagged degenerate when S fails
    unitarity."""
    twists = np.asarray(twists, dtype=complex)
    dims = np.asarray(dims, dtype=float)
    if np.max(np.abs(np.abs(twists) - 1.0)) > core.ASSERT_TOL:
        raise ValueError("twists must be unimodular")
    if not _is_dimension_function(ring, dims):
        raise ValueError("dims is not a dimension function of the ring")
    Y = np.einsum("a,b,c,abc->ab", twists, twists, dims / twists, ring.N.astype(float))
    w = float(dims @ dims)
    c = core._central_charge_from_twists(twists, dims)
    return core.ModularData(family="custom", level=0, labels=labels, S=Y / math.sqrt(w),
                            T=np.diag(np.exp(-1j * np.pi * c / 12.0) * twists),
                            twists=twists, dims=dims, global_index=w, central_charge=c)


def test_ising_from_twists_matches_closed_form():
    md = core.ising_modular_data()
    ring = _ising_fusion_ring()
    built = _modular_data_from_twists(ring, md.labels, md.twists, md.dims)
    assert np.max(np.abs(built.S - md.S)) < 1e-9
    assert np.max(np.abs(built.T - md.T)) < 1e-9


def test_ising_verlinde_fusion():
    ring = core.verlinde_fusion(core.ising_modular_data())
    sigma = 2
    assert [c for c in range(3) if ring.N[sigma, sigma, c]] == [0, 1]
    assert ring.N[1, sigma, sigma] == 1
    assert ring.N[1, 1, 0] == 1


def _perron_dims(ring):
    # the Perron-Frobenius dimension of a label is the spectral radius of N_a
    return np.abs(np.linalg.eigvals(ring.N.astype(float))).max(axis=1)


def test_perron_dims_match_s_matrix_dims():
    k = 6
    ring = core.su2_fusion_closed_form(k)
    md = core.su2_modular_data(k)
    assert np.max(np.abs(_perron_dims(ring) - md.dims)) < 1e-9
    assert np.max(np.abs(_perron_dims(_cyclic_group_ring(4)) - 1.0)) < 1e-12


def test_from_twists_rejects_bad_dims():
    ring = _ising_fusion_ring()
    md = core.ising_modular_data()
    with pytest.raises(ValueError, match="dimension function"):
        _modular_data_from_twists(ring, md.labels, md.twists, [1.0, 1.0, 1.0])


def test_from_twists_reproduces_su2_s_matrix():
    k = 7
    md = core.su2_modular_data(k)
    ring = core.su2_fusion_closed_form(k)
    built = _modular_data_from_twists(ring, md.labels, md.twists, md.dims)
    assert np.max(np.abs(built.S - md.S)) < 1e-9
    assert not built.degenerate


def test_trivial_ring_from_twists():
    one = core.FusionRing(N=np.ones((1, 1, 1), dtype=int))
    built = _modular_data_from_twists(one, ("g0",), [1.0], [1.0])
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
    ring = _cyclic_group_ring(n)
    labels = tuple(f"g{i}" for i in range(n))
    built = _modular_data_from_twists(ring, labels, np.ones(n), np.ones(n))
    assert built.degenerate
    assert np.linalg.matrix_rank(built.S) == 1
    assert np.max(np.abs(built.S * np.sqrt(n) - np.outer(np.ones(n), np.ones(n)))) < 1e-12


def dual_permutation(md):
    """The charge conjugation a -> argmax_b |S^2[a, b]|, the permutation
    check_modular reads off from S^2."""
    return tuple(np.abs(md.S @ md.S).argmax(axis=1).tolist())


@pytest.mark.parametrize("k", [1, 4, 10, 16])
def test_check_modular_su2(k):
    md = core.su2_modular_data(k)
    checks = core.check_modular(md)
    assert checks.passed
    assert max(checks.symmetric, checks.unitary, checks.st_cubed,
               checks.s_squared_conjugation, checks.s_fourth) < 1e-10
    assert dual_permutation(md) == tuple(range(k + 1))


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
    assert _is_dimension_function(ring, md.dims)


def test_check_modular_su3_conjugation():
    md = core.sun_modular_data(3, 2)
    checks = core.check_modular(md)
    assert checks.passed
    # conjugation swaps (m, 0) with (m, m)
    i10, i11 = md.labels.index("(1,0)"), md.labels.index("(1,1)")
    assert dual_permutation(md)[i10] == i11


def test_check_modular_ising():
    assert core.check_modular(core.ising_modular_data()).passed


def _perm_parity(p):
    seen = [False] * len(p)
    sgn = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        j, cyc = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            cyc += 1
        if cyc % 2 == 0:
            sgn = -sgn
    return sgn


def _traceless(vec):
    return vec - vec.mean()


def _reference_sun_modular_data(n, k):
    # the per-label builder: one traceless weight per label, signs from a cycle walk
    parts = core._sun_partitions(n, k)
    L, kappa = len(parts), k + n
    xi = np.array([_traceless(np.array(list(a) + [0], dtype=float)
                              + np.arange(n - 1, -1, -1)) for a in parts])
    perms = list(itertools.permutations(range(n)))
    sgns = np.array([_perm_parity(p) for p in perms], dtype=float)
    pref = (1j) ** (n * (n - 1) // 2) / (math.sqrt(n) * kappa ** ((n - 1) / 2))
    S = np.zeros((L, L), dtype=complex)
    for p, sg in zip(perms, sgns):
        phase = np.exp(-2j * np.pi * (xi[:, list(p)] @ xi.T) / kappa)
        S += sg * phase
    S *= pref
    S = (S + S.T) / 2.0
    weight = np.array([_traceless(np.array(list(a) + [0], dtype=float)) for a in parts])
    rho = _traceless(np.arange(n - 1, -1, -1).astype(float))
    h = (np.einsum("ij,ij->i", weight, weight) + 2.0 * weight @ rho) / (2.0 * kappa)
    twists = np.exp(2j * np.pi * h)
    dims = (S[:, 0] / S[0, 0]).real
    labels = tuple("(" + ",".join(map(str, a)) + ")" for a in parts)
    c = core._central_charge_from_twists(twists, dims)
    T = np.diag(np.exp(-1j * np.pi * c / 12.0) * twists)
    return S, T, twists, dims, float(dims @ dims), c, labels


def _assert_checks_match_reference(md):
    # the per-label reading of the duality map and the conjugation matrix
    L = md.size
    S2 = md.S @ md.S
    dual = tuple(int(np.argmax(np.abs(S2[a]))) for a in range(L))
    C = np.zeros((L, L))
    for a, b in enumerate(dual):
        C[a, b] = 1.0
    checks = core.check_modular(md)
    want = dataclasses.replace(checks, s_squared_conjugation=float(np.max(np.abs(S2 - C))))
    assert dual_permutation(md) == dual
    assert checks.summary() == want.summary()
    assert checks == want


@pytest.mark.parametrize("n", [3, 4])
def test_sun_modular_data_is_bitwise_the_per_label_builder(n):
    # every level within SUN_LABEL_MAX: SU(3) k <= 26, SU(4) k <= 11
    for k in itertools.takewhile(
            lambda k: math.comb(k + n - 1, n - 1) <= core.SUN_LABEL_MAX, itertools.count(1)):
        md = core.sun_modular_data(n, k)
        S, T, twists, dims, w, c, labels = _reference_sun_modular_data(n, k)
        for got, want in ((md.S, S), (md.T, T), (md.twists, twists), (md.dims, dims)):
            assert np.array_equal(got, want), (n, k)
        assert (md.global_index, md.central_charge, md.labels) == (w, c, labels), (n, k)
        _assert_checks_match_reference(md)


@pytest.mark.parametrize("md", [
    *(core.su2_modular_data(k) for k in range(1, core.SU2_LEVEL_MAX + 1)),
    core.ising_modular_data(),
    *(core.cyclic_group_modular_data(n) for n in range(2, 13)),
], ids=lambda md: f"{md.family}{md.level}")
def test_check_modular_matches_the_per_label_loops(md):
    _assert_checks_match_reference(md)


def test_verlinde_rejects_degenerate():
    for build in (core.verlinde_fusion, lambda md: md.verlinde_row):
        with pytest.raises(ValueError, match="unitarity residual"):
            build(core.cyclic_group_modular_data(3))


def test_unitarity_residual_is_formed_once():
    md = core.su2_modular_data(6)
    assert "unitarity_residual" not in vars(md)
    assert not md.degenerate
    assert vars(md)["unitarity_residual"] == md.unitarity_residual < 1e-9


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
    assert back.labels == md.labels


def test_json_import_validates():
    doc = core.modular_data_to_json(core.su2_modular_data(2))
    doc["dims"][1] = 3.0
    with pytest.raises(ValueError):
        core.modular_data_from_json(doc)


def _group_dual_json(n):
    """The JSON document of the Z_n group dual, written without its builder."""
    entry = {"re": float(core.sig12(1.0 / n)), "im": 0.0}
    return {"family": "group", "level": n, "labels": [f"g{i}" for i in range(n)],
            "S": [[entry] * n for _ in range(n)], "T_phases": [{"re": 1.0, "im": 0.0}] * n,
            "dims": [1.0] * n, "w": float(n), "c": 0.0}


def test_json_import_keeps_the_label_bound():
    n = core.SUN_LABEL_MAX
    doc = _group_dual_json(n)
    assert doc == core.modular_data_to_json(core.cyclic_group_modular_data(n))
    assert core.modular_data_from_json(doc).size == n
    with pytest.raises(core.UsageError) as exc:
        core.modular_data_from_json(_group_dual_json(n + 1))
    assert str(exc.value) == "imported data has 401 labels, beyond 400"


@pytest.mark.parametrize("cut", [
    lambda doc: doc.update(labels=doc["labels"][:3]),
    lambda doc: doc.update(T_phases=doc["T_phases"][:3]),
    lambda doc: doc.update(dims=doc["dims"][:3]),
    lambda doc: doc.update(S=doc["S"][:3]),
    lambda doc: doc["S"][2].pop(),
], ids=["labels", "T_phases", "dims", "S_rows", "S_row_2"])
def test_json_import_rejects_mismatched_sizes(cut):
    doc = core.modular_data_to_json(core.su2_modular_data(4))
    cut(doc)
    with pytest.raises(ValueError, match="do not all have"):
        core.modular_data_from_json(doc)
