import dataclasses

import numpy as np
import pytest

from modinv import core, graph_algebra, nimrep, search

POSITIVE = ["A2", "A9", "D4", "D6", "D8", "E6", "E8"]
NEGATIVE = ["D5", "D7", "E7"]


def test_a_series_gauge_is_s_matrix():
    k = 4
    gauge = graph_algebra.eigen_gauge(search.ade_graph("A5"))
    S = core.su2_modular_data(k).S.real
    assert gauge.graph.exponents == tuple(range(5))
    assert np.max(np.abs(gauge.psi.real - S)) < 1e-10
    assert np.max(np.abs(gauge.psi.imag)) < 1e-12


def test_d4_has_doubled_middle_exponent():
    gauge = graph_algebra.eigen_gauge(search.ade_graph("D4"))
    assert gauge.graph.exponents == (0, 2, 2, 4)
    # the doubled columns are complex conjugates of each other
    c1, c2 = gauge.psi[:, 1], gauge.psi[:, 2]
    assert np.max(np.abs(c1 - c2.conj())) < 1e-12


def test_e7_gauge_no_multiplicity():
    gauge = graph_algebra.eigen_gauge(search.ade_graph("E7"))
    assert len(set(gauge.graph.exponents)) == 7
    gauge.validate()


def test_dodd_base_vertex_is_fork():
    gauge = graph_algebra.eigen_gauge(search.ade_graph("D5"))
    assert gauge.base == 4
    assert np.min(np.abs(gauge.psi[gauge.base])) > 1e-9


def test_dodd_spine_end_is_refused_as_base():
    # the exponent h/2 - 1 eigenvector of D_odd vanishes on the spine, so
    # vertex 0, the base of every other case, cannot be the base there
    graph = dataclasses.replace(search.ade_graph("D7"), case="D_even")
    with pytest.raises(ValueError, match="base vertex unusable"):
        graph_algebra.eigen_gauge(graph)


@pytest.mark.parametrize("name", POSITIVE + NEGATIVE)
def test_gauge_unitary_and_positive_base_row(name):
    gauge = graph_algebra.eigen_gauge(search.ade_graph(name))
    V = gauge.graph.num_vertices
    assert np.max(np.abs(gauge.psi.conj().T @ gauge.psi - np.eye(V))) < 1e-9
    row = gauge.psi[gauge.base]
    assert row.real.min() > 0
    assert np.max(np.abs(row.imag)) < 1e-9


def test_a_series_equals_verlinde():
    for name, k in (("A5", 4), ("A9", 8)):
        fusion = graph_algebra.graph_structure_constants(
            graph_algebra.eigen_gauge(search.ade_graph(name)))
        assert fusion.positive
        assert np.array_equal(fusion.rounded, core.su2_fusion_closed_form(k).N)


@pytest.mark.parametrize("name", POSITIVE)
def test_associative_on_generators_equals_full_check(name):
    fusion = graph_algebra.graph_structure_constants(
        graph_algebra.eigen_gauge(search.ade_graph(name)))
    R = fusion.rounded
    V = len(R)
    assert len(core.generating_labels(R.__getitem__, V)) < V
    assert fusion.associative() is _represents_int64(R) is True
    # a symmetric change off the unit vertex 0; two-vertex unital rings stay associative
    M = np.array(R)
    M[1, V - 1, 1] += 1
    M[V - 1, 1, 1] = M[1, V - 1, 1]
    changed = dataclasses.replace(fusion, rounded=M)
    assert changed.associative() is _represents_int64(M) is (V == 2)


def _represents_int64(N):
    # reference: the int64 check of N_b N_a == sum_c N[a, b, c] N_c for every a, all b at once
    flat = N.reshape(len(N), -1)
    return all(np.array_equal(N @ N[a], (N[a] @ flat).reshape(N.shape)) for a in range(len(N)))


def _unit_residual(gauge, fusion):
    # Nhat[base] is the identity matrix: the base vertex is the unit
    V = len(fusion.Nhat)
    return np.abs(fusion.Nhat[gauge.base] - np.eye(V)).max()


def _gauge_and_fusion(name):
    gauge = graph_algebra.eigen_gauge(search.ade_graph(name))
    return gauge, graph_algebra.graph_structure_constants(gauge)


@pytest.mark.parametrize("name", POSITIVE)
def test_positive_cases(name):
    gauge, fusion = _gauge_and_fusion(name)
    assert fusion.positive
    assert fusion.integrality_gap < 1e-6
    assert fusion.associative()
    assert _unit_residual(gauge, fusion) < 1e-9


@pytest.mark.parametrize("name", NEGATIVE)
def test_negative_cases(name):
    gauge, fusion = _gauge_and_fusion(name)
    assert not fusion.positive
    assert fusion.worst_negative < -1e-3
    # the base vertex still acts as the unit even in the negative cases
    assert _unit_residual(gauge, fusion) < 1e-9


def test_every_positive_algebra_has_its_unit_at_vertex_0():
    """GraphFusion.associative takes vertex 0 as the unit.  Over every
    diagram of SU(2) k <= SU2_LEVEL_MAX the algebra is positive exactly for
    A, D_even, E6 and E8, and each of those has base vertex 0; D_odd, the
    one case with another base, is never positive."""
    cases = []
    for k in range(1, core.SU2_LEVEL_MAX + 1):
        for name, case in search.su2_diagrams(k):
            gauge, fusion = _gauge_and_fusion(name)
            assert fusion.positive is (case in ("A", "D_even", "E6", "E8")), name
            assert gauge.base == 0 or not fusion.positive, name
            cases.append(case)
    assert len(cases) == 98 and "D_odd" in cases and "E7" in cases


@pytest.mark.parametrize("name", ["A7", "D6", "E6", "E8"])
def test_gauge_diagonalizes_fused_family(name):
    # psi^dagger G_a psi is diagonal for every fused adjacency G_a
    g = search.ade_graph(name)
    psi = graph_algebra.eigen_gauge(g).psi
    D = psi.conj().T @ nimrep.fused_adjacencies(g).G @ psi
    off = D - D * np.eye(len(psi))
    assert np.abs(off).max() < 1e-8


@pytest.mark.parametrize("name", ["A5", "D6", "E6", "E7"])
def test_sign_gauge_invariance(name):
    # flipping signs of multiplicity-one columns leaves the tensor unchanged
    rng = np.random.default_rng(7)
    gauge = graph_algebra.eigen_gauge(search.ade_graph(name))
    base_fusion = graph_algebra.graph_structure_constants(gauge)
    exps = list(gauge.graph.exponents)
    signs = np.array([rng.choice([-1.0, 1.0]) if exps.count(m) == 1 else 1.0
                      for m in exps])
    flipped = graph_algebra.EigenGauge(
        graph=gauge.graph, psi=gauge.psi * signs[None, :], base=gauge.base)
    # the flipped frame is still an eigenbasis; compare tensors directly
    psi = flipped.psi
    ratio = psi / psi[flipped.base, :][None, :]
    N = np.einsum("am,bm,cm->abc", ratio, psi, psi.conj())
    assert np.max(np.abs(N - base_fusion.Nhat)) < 1e-9


def _psi_by_grouping(graph):
    """The gauge found by grouping the sorted float eigenvalues within
    ASSERT_TOL and sorting the columns by exponent: the reference for
    ``eigen_gauge``, which reads the multiplicities from the exponents."""
    A = graph.adjacency.astype(float)
    V = graph.num_vertices
    base = graph_algebra._base_vertex(graph)
    evals, vecs = np.linalg.eigh(A)
    order = np.argsort(evals)
    exps_sorted = sorted(graph.exponents, reverse=True)
    cols = []
    i = 0
    while i < V:
        block = [order[i]]
        j = i + 1
        while j < V and abs(evals[order[j]] - evals[order[i]]) < core.ASSERT_TOL:
            block.append(order[j])
            j += 1
        ms = exps_sorted[i:j]
        if len(block) == 1:
            v = vecs[:, block[0]].astype(complex)
            assert abs(v[base].real) >= core.ASSERT_TOL
            cols.append((ms[0], -v if v[base].real < 0 else v))
        else:
            assert len(block) == 2 and graph.case == "D_even"
            cols.extend(zip(ms, graph_algebra._deven_degenerate_pair(graph, vecs[:, block])))
        i = j
    cols.sort(key=lambda t: t[0])
    psi = np.zeros((V, V), dtype=complex)
    for col, (_, v) in enumerate(cols):
        psi[:, col] = v
    return psi


def test_gauge_equals_the_grouping_reference_on_every_diagram():
    seen = 0
    for k in range(1, core.SU2_LEVEL_MAX + 1):
        for name, _ in search.su2_diagrams(k):
            graph = search.ade_graph(name)
            assert graph_algebra.eigen_gauge(graph).psi.tobytes() == \
                _psi_by_grouping(graph).tobytes(), name
            seen += 1
    assert seen == 98


def test_csv_rows_shape():
    fusion = graph_algebra.graph_structure_constants(
        graph_algebra.eigen_gauge(search.ade_graph("A3")))
    rows = list(graph_algebra.csv_rows(fusion))
    assert len(rows) == 27
    assert all(row[6] in ("ok", "neg", "frac") for row in rows)


def _csv_rows_by_loop(fusion):
    # one structure constant at a time: the reference for csv_rows
    V = fusion.rounded.shape[0]
    rows = []
    for a in range(V):
        for b in range(V):
            for c in range(V):
                val = float(fusion.Nhat[a, b, c].real)
                rnd = int(fusion.rounded[a, b, c])
                flag = ("neg" if val < -core.ROUND_TOL
                        else ("ok" if abs(val - rnd) < core.ROUND_TOL else "frac"))
                rows.append((fusion.graph, a, b, c, val, rnd, flag))
    return rows


@pytest.mark.parametrize("name", ["A2", "A11", "D4", "D5", "D7", "D12", "E6", "E7", "E8"])
def test_csv_rows_equal_the_loop(name):
    fusion = graph_algebra.graph_structure_constants(
        graph_algebra.eigen_gauge(search.ade_graph(name)))
    rows = list(graph_algebra.csv_rows(fusion))
    want = _csv_rows_by_loop(fusion)
    assert rows == want
    assert [tuple(map(type, r)) for r in rows] == [tuple(map(type, r)) for r in want]
    assert {r[6] for r in rows} == ({"ok", "neg"} if name in ("D5", "D7", "E7") else {"ok"})


def _validate_by_columns(gauge):
    """The column loop: the reference for ``EigenGauge.validate``."""
    V = gauge.graph.num_vertices
    if np.max(np.abs(gauge.psi.conj().T @ gauge.psi - np.eye(V))) > core.ASSERT_TOL:
        raise ValueError("psi is not unitary")
    h = gauge.graph.coxeter
    A = gauge.graph.adjacency.astype(float)
    for col, m in enumerate(gauge.graph.exponents):
        v = gauge.psi[:, col]
        lam = 2.0 * np.cos(np.pi * (m + 1) / h)
        if np.max(np.abs(A @ v - lam * v)) > core.ASSERT_TOL:
            raise ValueError(f"column {col} is not an eigenvector for exponent {m}")
        if not (gauge.psi[gauge.base, col].real > core.ASSERT_TOL
                and abs(gauge.psi[gauge.base, col].imag) < core.ASSERT_TOL):
            raise ValueError(f"psi[base, {col}] not positive; base vertex unusable")


def _gauge_verdict(validate, gauge):
    try:
        validate(gauge)
    except ValueError as exc:
        return str(exc)
    return None


def _perturbed_columns(psi, col):
    """psi with column col changed: rotated by 1e-6 against a neighbour
    (unitary, off the eigenspace), swapped with it, negated, turned by a
    phase, and moved off unitarity."""
    other = 1 if col == 0 else col - 1
    pair = [col, other]
    rot, swap, neg, phase, off = (psi.copy() for _ in range(5))
    c, s = np.cos(1e-6), np.sin(1e-6)
    rot[:, pair] = psi[:, pair] @ np.array([[c, -s], [s, c]])
    swap[:, pair] = psi[:, pair[::-1]]
    neg[:, col] *= -1
    phase[:, col] *= np.exp(1e-3j)
    off[0, col] += 1e-3
    return rot, swap, neg, phase, off


def test_validate_equals_the_column_loop_on_every_diagram():
    seen, verdicts = 0, set()
    for k in range(1, core.SU2_LEVEL_MAX + 1):
        for name, _ in search.su2_diagrams(k):
            gauge = graph_algebra.eigen_gauge(search.ade_graph(name))
            last = gauge.graph.num_vertices - 1
            for psi in (gauge.psi, *_perturbed_columns(gauge.psi, 0),
                        *_perturbed_columns(gauge.psi, last)):
                changed = dataclasses.replace(gauge, psi=psi)
                got = _gauge_verdict(graph_algebra.EigenGauge.validate, changed)
                assert got == _gauge_verdict(_validate_by_columns, changed), name
                verdicts.add(got and got.split()[0])
            seen += 1
    assert seen == 98
    assert verdicts == {None, "psi", "column", "psi[base,"}
