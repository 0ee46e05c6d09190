import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from modinv import cli, core, nimrep, search
from test_search import su2_invariant

ALL_GRAPHS = ["A3", "A5", "A9", "A17", "D4", "D5", "D6", "D7", "D8",
              "D10", "D16", "E6", "E7", "E8"]
# the 98 diagrams of levels 1..SU2_LEVEL_MAX, the whole domain of ade_graph
EVERY_DIAGRAM = [name for k in range(1, core.SU2_LEVEL_MAX + 1)
                 for name, _ in search.su2_diagrams(k)]


def test_e7_graph_data():
    g = search.ade_graph("E7")
    assert g.num_vertices == 7
    assert sorted(g.exponents) == [0, 4, 6, 8, 10, 12, 16]
    assert g.coxeter == 18


def test_a5_adjacency_is_spin_one_fusion_matrix():
    g = search.ade_graph("A5")
    ring = core.su2_fusion_closed_form(4)
    assert np.array_equal(g.adjacency, ring.N[1])


def test_d5_exponents():
    assert sorted(search.ade_graph("D5").exponents) == [0, 2, 3, 4, 6]


def test_d4_doubled_exponent():
    exps = search.ade_graph("D4").exponents
    assert sorted(exps) == [0, 2, 2, 4]


def test_unknown_graph_name():
    for bad in ("F4", "D3", "E9", "Q5", "A"):
        with pytest.raises(core.UsageError, match=f"unknown diagram name '{bad}'"):
            search.ade_graph(bad)


@pytest.mark.parametrize("name", EVERY_DIAGRAM)
def test_spectrum_matches_exponents(name):
    """ade_graph does not check its result, so this is the check: the whole
    spectrum, and with it the norm 2 cos(pi / h), of every diagram."""
    g = search.ade_graph(name)
    assert g.adjacency.dtype.kind == "i" and np.array_equal(g.adjacency, g.adjacency.T)
    eig = np.sort(np.linalg.eigvalsh(g.adjacency.astype(float)))
    want = np.sort([2 * np.cos(np.pi * (m + 1) / g.coxeter) for m in g.exponents])
    assert np.max(np.abs(eig - want)) < 1e-9


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_fused_adjacencies_properties(name):
    fam = nimrep.fused_adjacencies(search.ade_graph(name))
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
    fam = nimrep.fused_adjacencies(search.ade_graph("A9"))
    ring = core.su2_fusion_closed_form(k)
    for j in range(k + 1):
        assert np.array_equal(fam.G[j], ring.N[j])


def test_e7_top_matrix_is_involution_fixing_fork():
    fam = nimrep.fused_adjacencies(search.ade_graph("E7"))
    G16 = fam.G[16]
    assert np.array_equal(np.sort(G16.sum(axis=0)), np.ones(7, dtype=int))
    assert np.array_equal(G16 @ G16, fam.G[0])  # nimrep identity: N[16,16,0] = 1
    assert G16[6, 6] == 1  # short-tail vertex is fixed


def test_wrong_graph_level_pairing_raises():
    g = search.ade_graph("D5")
    bad = dataclasses.replace(g, coxeter=12)
    with pytest.raises(ValueError, match="D5: negative entry in fused adjacency"):
        nimrep.fused_adjacencies(bad)


def test_out_of_range_level_is_refused_before_allocating():
    # a level of 10^5 - 2 would stack 10^5 matrices and run the recursion first
    bad = dataclasses.replace(search.ade_graph("A5"), coxeter=10 ** 5)
    tracemalloc.start()
    try:
        with pytest.raises(core.UsageError, match="su2 level out of range: 99998"):
            nimrep.fused_adjacencies(bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6


@pytest.mark.parametrize("name,case", [
    ("A3", "A"), ("D5", "D_odd"), ("E6", "E6"), ("E7", "E7"),
])
def test_spectrum_vs_diagonal(name, case):
    g = search.ade_graph(name)
    k = g.level
    fam = nimrep.fused_adjacencies(g)
    Z = su2_invariant(case, k)
    report = nimrep.spectrum_vs_diagonal(fam, Z)
    assert report.matched
    assert report.worst_gap < 1e-7


def test_spectrum_wrong_invariant_detected():
    g = search.ade_graph("D7")
    fam = nimrep.fused_adjacencies(g)
    report = nimrep.spectrum_vs_diagonal(fam, su2_invariant("A", 10))
    assert not report.matched


def test_a3_level2_spectrum_values():
    fam = nimrep.fused_adjacencies(search.ade_graph("A3"))
    eig = np.sort(np.linalg.eigvalsh(fam.G[1].astype(float)))
    assert np.max(np.abs(eig - np.array([-np.sqrt(2), 0, np.sqrt(2)]))) < 1e-12


def test_csv_rows_cover_all_exponents():
    g = search.ade_graph("E6")
    fam = nimrep.fused_adjacencies(g)
    report = nimrep.spectrum_vs_diagonal(fam, su2_invariant("E6", 10))
    rows = nimrep.spectrum_csv_rows(report)
    by_nu = {}
    for graph, nu, _, mult, spin in rows:
        assert graph == "E6"
        by_nu.setdefault(nu, 0)
        by_nu[nu] += mult
    assert all(total == 6 for total in by_nu.values())


def _spectrum_per_label(family, md, Z):
    """One eigvalsh and one expected list per label: the reference for
    ``nimrep.spectrum_vs_diagonal``, as (eig, expected or None, gaps)."""
    eigs, expecteds = [], []
    for nu in range(family.level + 1):
        eigs.append(sorted(np.linalg.eigvalsh(family.G[nu].astype(float)).tolist()))
        expected = []
        for lam in range(family.level + 1):
            expected.extend([float((md.S[lam, nu] / md.S[lam, 0]).real)] * Z.diagonal[lam])
        expecteds.append(sorted(expected))
    if len(expecteds[0]) != len(eigs[0]):
        return np.array(eigs), None, [float("inf")] * len(eigs)
    gaps = [max(abs(a - b) for a, b in zip(e, x)) for e, x in zip(eigs, expecteds)]
    return np.array(eigs), np.array(expecteds), gaps


def _assert_report_is_the_per_label_check(report, family, md, Z):
    eig, expected, gaps = _spectrum_per_label(family, md, Z)
    assert report.graph == family.graph.name
    assert report.chars.tobytes() == nimrep.character_table(md).tobytes()
    assert report.eig.tobytes() == eig.tobytes()
    if expected is None:
        assert report.expected is None
    else:
        assert report.expected.tobytes() == expected.tobytes()
    assert report.gaps.tolist() == gaps
    assert report.matched_by_nu.tolist() == [g < core.SPECTRUM_TOL for g in gaps]


def _spectrum_csv_rows_by_dict(report, md):
    """Rows grouped in a dict keyed by the expected value rounded to 9
    decimals, then sorted: the reference for ``nimrep.spectrum_csv_rows``."""
    rows = []
    for nu, (eig, expected) in enumerate(zip(report.eig.tolist(), report.expected.tolist())):
        chars = nimrep.character_table(md)[:, nu].tolist()
        spin = {round(x, 9): lam for lam, x in enumerate(chars)}
        seen = {}
        for val, exp in zip(eig, expected):
            seen.setdefault(round(exp, 9), []).append(val)
        for key, vals in sorted(seen.items()):
            rows.append((report.graph, nu, vals[0], len(vals), spin[key]))
    return rows


def _every_diagram():
    for k in range(1, core.SU2_LEVEL_MAX + 1):
        for name, case in search.su2_diagrams(k):
            yield name, case, k


def test_spectrum_equals_the_per_label_check_on_every_diagram():
    seen = 0
    for name, case, k in _every_diagram():
        family = nimrep.fused_adjacencies(search.ade_graph(name))
        md = core.su2_modular_data(k)
        Z = su2_invariant(case, k)
        report = nimrep.spectrum_vs_diagonal(family, Z)
        _assert_report_is_the_per_label_check(report, family, md, Z)
        rows = nimrep.spectrum_csv_rows(report)
        want = _spectrum_csv_rows_by_dict(report, md)
        assert rows == want
        assert [tuple(map(type, r)) for r in rows] == [tuple(map(type, r)) for r in want]
        seen += 1
    assert seen == 98


def test_spectrum_size_mismatch_equals_the_per_label_check():
    family = nimrep.fused_adjacencies(search.ade_graph("D7"))
    md = core.su2_modular_data(10)
    Z = su2_invariant("A", 10)
    report = nimrep.spectrum_vs_diagonal(family, Z)
    _assert_report_is_the_per_label_check(report, family, md, Z)
    assert report.expected is None
    assert report.gaps.tolist() == [float("inf")] * (family.level + 1)
    assert nimrep.spectrum_csv_rows(report) == []


def test_tolerance_classes_are_the_rounded_classes_on_the_whole_domain():
    """At every level k <= SU2_LEVEL_MAX and every nu, the labels grouped by
    round(chi_l(nu), 9) are the classes of sorted characters chained within
    SPECTRUM_TOL, by a wide margin on both sides."""
    spread, gap = 0.0, float("inf")
    for k in range(1, core.SU2_LEVEL_MAX + 1):
        table = nimrep.character_table(core.su2_modular_data(k))
        for nu in range(k + 1):
            chars = table[:, nu].tolist()
            order = sorted(range(k + 1), key=chars.__getitem__)
            by_round, by_tol = {}, []
            for lam in order:
                by_round.setdefault(round(chars[lam], 9), []).append(lam)
                if by_tol and chars[lam] - chars[by_tol[-1][-1]] <= core.SPECTRUM_TOL:
                    by_tol[-1].append(lam)
                else:
                    by_tol.append([lam])
            assert sorted(by_round.values()) == sorted(by_tol), (k, nu)
            values = [sorted(chars[lam] for lam in cls) for cls in by_tol]
            spread = max([spread] + [v[-1] - v[0] for v in values])
            gap = min([gap] + [b[0] - a[-1] for a, b in zip(values, values[1:])])
    assert spread < core.SPECTRUM_TOL / 100
    assert gap > 10 * core.SPECTRUM_TOL


def test_oversized_diagonal_is_refused_before_the_multiset_is_built(capsys, tmp_path):
    # the expected multiset of diag(1, 1, 10^12) would take 24 TB
    Z = search.MassMatrix(np.diag([1, 1, 10 ** 12]))
    family = nimrep.fused_adjacencies(search.ade_graph("A3"))
    path = tmp_path / "z.json"
    path.write_text(json.dumps({"Z": Z.Z.tolist()}))
    tracemalloc.start()
    try:
        report = nimrep.spectrum_vs_diagonal(family, Z)
        code = cli.main(["nimrep", "--graph", "A3", "--invariant", str(path), "--csv"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.expected is None
    assert report.gaps.tolist() == [float("inf")] * 3
    assert nimrep.spectrum_csv_rows(report) == []
    assert (code, capsys.readouterr().out) == (1, "graph,nu,eigenvalue,multiplicity,matched_spin\n")
    assert peak < 5 * 10 ** 6


def test_fused_adjacencies_are_one_read_only_array():
    G = nimrep.fused_adjacencies(search.ade_graph("E6")).G
    assert G.shape == (11, 6, 6) and G.dtype.kind == "i"
    with pytest.raises(ValueError):
        G[0, 0, 0] = 2


def test_stacked_eigvalsh_and_character_table_are_bitwise_per_label():
    """The batched eigvalsh and the vectorised character table give the very
    floats of one eigvalsh per matrix and one complex division per entry."""
    for name, _, k in _every_diagram():
        G = nimrep.fused_adjacencies(search.ade_graph(name)).G
        stacked = np.linalg.eigvalsh(np.array(G, dtype=float))
        for nu, Gnu in enumerate(G):
            assert stacked[nu].tobytes() == np.linalg.eigvalsh(Gnu.astype(float)).tobytes()
    for k in range(1, core.SU2_LEVEL_MAX + 1):
        md = core.su2_modular_data(k)
        table = nimrep.character_table(md)
        per_entry = [[float((md.S[lam, nu] / md.S[lam, 0]).real) for nu in range(k + 1)]
                     for lam in range(k + 1)]
        assert table.tobytes() == np.array(per_entry).tobytes()


def test_fused_adjacencies_refuse_beyond_the_exact_float_range():
    # one vertex with a loop of weight 2^30: G_2 = 2^60 - 1 needs 60 bits
    g = search.AdeGraph(name="X1", case="A", adjacency=np.array([[2 ** 30]]), coxeter=4,
                        branching=search.su2_branching("A", 2))
    with pytest.raises(ValueError, match="beyond the exact float64 range"):
        nimrep.fused_adjacencies(g)
    # 2^17 keeps V max|G_1| max|G_j| = 2^17 (2^34 - 1) below 2^53: exact, and
    # the identity G_3 = 0 fails
    g = dataclasses.replace(g, adjacency=np.array([[2 ** 17]]))
    with pytest.raises(ValueError, match="nimrep identity fails"):
        nimrep.fused_adjacencies(g)


def test_spectra_for_all_catalog_pairs_up_to_level30():
    for k in range(1, 31):
        md = core.su2_modular_data(k)
        for graph in search.su2_ade_catalog(md):
            fam = nimrep.fused_adjacencies(graph)
            assert nimrep.spectrum_vs_diagonal(fam, graph.Z).matched, (k, graph.name)


def _isomorphic_by_backtracking(A, B):
    """Backtracking isomorphism test, the reference for ``identify_ade``.

    It orders A's vertices by degree and compares A[u, w] with B only for
    vertices w placed before u, so it reads one triangle of A.  It is
    exponential on relabelled paths, so it runs on small graphs here.
    """
    n = A.shape[0]
    if B.shape[0] != n:
        return False
    degA_vec = A.sum(axis=0)
    degB_vec = B.sum(axis=0)
    if sorted(degA_vec.tolist()) != sorted(degB_vec.tolist()):
        return False
    ordering = sorted(range(n), key=lambda v: -degA_vec[v])
    mapping = [-1] * n
    used = [False] * n

    def extend(idx):
        if idx == n:
            return True
        u = ordering[idx]
        for v in range(n):
            if used[v] or degA_vec[u] != degB_vec[v]:
                continue
            if all(A[u, w] == B[v, mapping[w]] for w in ordering[:idx]):
                mapping[u] = v
                used[v] = True
                if extend(idx + 1):
                    return True
                used[v] = False
                mapping[u] = -1
        return False

    return extend(0)


def _identify_by_isomorphism(A):
    """The diagram among A_n, D_n, E_n (n = size of A) isomorphic to A, if any."""
    A = np.asarray(A)
    n = A.shape[0]
    for name in (f"A{n}", f"D{n}", f"E{n}"):
        try:
            search.ade_graph(name)
        except core.UsageError as exc:
            if str(exc).startswith("unknown diagram name"):
                continue
            # a known name, its level outside 1..SU2_LEVEL_MAX
        if _isomorphic_by_backtracking(A, _diagram_adjacency(name)):
            return name
    return None


def _diagram_adjacency(name):
    """ade_graph's spine-and-tail rule without its level range: A_n is a path
    on n vertices, D_n and E_n a path on n - 1 vertices with a tail vertex at
    spine vertex n - 3 or n - 4."""
    n = int(name[1:])
    A = np.zeros((n, n), dtype=int)
    spine = n if name[0] == "A" else n - 1
    for v in range(spine - 1):
        A[v, v + 1] = A[v + 1, v] = 1
    if name[0] != "A":
        tail_at = n - 3 if name[0] == "D" else n - 4
        A[tail_at, n - 1] = A[n - 1, tail_at] = 1
    return A


def test_diagram_adjacency_is_ade_graphs_rule():
    for k in range(1, core.SU2_LEVEL_MAX + 1):
        for name, _ in search.su2_diagrams(k):
            assert np.array_equal(_diagram_adjacency(name), search.ade_graph(name).adjacency)


def _relabelled(A, perm):
    return A[np.ix_(perm, perm)]


def test_identify_ade_relabelled():
    a = search.ade_graph("D5").adjacency
    b = _relabelled(a, [3, 1, 0, 2, 4])
    assert not np.array_equal(a, b)
    assert nimrep.identify_ade(b) == "D5"
    assert nimrep.identify_ade(_relabelled(search.ade_graph("A5").adjacency,
                                           [2, 4, 0, 1, 3])) == "A5"


@pytest.mark.parametrize("name", ["A7", "D6", "E8", "D15", "A17"])
def test_identify_ade(name):
    assert nimrep.identify_ade(search.ade_graph(name).adjacency) == name


def test_identify_rejects_cycle():
    cycle = np.zeros((5, 5), dtype=int)
    for i in range(5):
        cycle[i, (i + 1) % 5] = cycle[(i + 1) % 5, i] = 1
    assert nimrep.identify_ade(cycle) is None


def test_identify_rejects_asymmetric_matrix():
    # the backtracking test read only one triangle and named this "A3"
    assert nimrep.identify_ade(np.array([[0, 1, 1], [1, 0, 0], [0, 1, 0]])) is None


@pytest.mark.parametrize("A", [np.zeros((0, 0), dtype=int), np.array([[1]]),
                               np.array([[0, 2], [2, 0]]), np.array([[1, 1], [1, 0]]),
                               np.zeros((2, 2), dtype=int)],
                         ids=["empty", "loop", "double-edge", "edge-and-loop", "two-points"])
def test_identify_rejects_loops_multi_edges_and_forests(A):
    assert nimrep.identify_ade(A) is None


def _star(arms):
    """A tree: one centre (vertex 0) with a path of each given length hanging off it."""
    n = 1 + sum(arms)
    A = np.zeros((n, n), dtype=int)
    v = 1
    for arm in arms:
        prev = 0
        for _ in range(arm):
            A[prev, v] = A[v, prev] = 1
            prev, v = v, v + 1
    return A


@pytest.mark.parametrize("arms, name", [
    ((1, 1, 1), "D4"), ((1, 1, 9), "D12"), ((2, 2, 1), "E6"), ((3, 1, 2), "E7"),
    ((1, 4, 2), "E8"), ((2, 2, 2), None), ((1, 3, 3), None), ((1, 2, 5), None),
    ((1, 1, 1, 1), None), ((2, 3, 3), None)])
def test_identify_ade_by_arm_lengths(arms, name):
    # the star trees past E8 are the affine E diagrams and their relatives
    A = _star(arms)
    assert nimrep.identify_ade(A) == name == _identify_by_isomorphism(A)


def test_identify_ade_rejects_two_forks():
    # the affine D6 diagram: the path 2-3-4 with two leaves at each end
    A = np.zeros((7, 7), dtype=int)
    for u, v in [(0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6)]:
        A[u, v] = A[v, u] = 1
    assert nimrep.identify_ade(A) is None is _identify_by_isomorphism(A)


def test_identify_ade_on_every_relabelled_diagram():
    """Every diagram up to 65 vertices under three random relabellings.

    The diagrams come from the spine-and-tail rule itself, because
    ade_graph refuses D35 and beyond (levels above SU2_LEVEL_MAX).

    The backtracking reference is an isomorphism test on symmetric input,
    so its name for a relabelled diagram is its name for the diagram; it
    is called on the relabelled matrix itself up to 10 vertices, where it
    stays fast, and on the diagram above that.
    """
    rng = np.random.default_rng(11)
    for name in ([f"A{n}" for n in range(1, 66)] + [f"D{n}" for n in range(4, 66)]
                 + ["E6", "E7", "E8"]):
        A = _diagram_adjacency(name)
        ref = _identify_by_isomorphism(A)
        assert ref == name
        for _ in range(3):
            B = _relabelled(A, rng.permutation(len(A)))
            if len(A) <= 10:
                ref = _identify_by_isomorphism(B)
            assert nimrep.identify_ade(B) == ref, name


@st.composite
def _symmetric_graphs(draw):
    """Symmetric 0/1 matrices on at most 8 vertices: a random tree, then
    random extra edges and loops, so trees, cycles and forests all occur."""
    n = draw(st.integers(1, 8))
    A = np.zeros((n, n), dtype=int)
    if draw(st.booleans()):
        for v in range(1, n):
            u = draw(st.integers(0, v - 1))
            A[u, v] = A[v, u] = 1
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=4)):
        A[u, v] = A[v, u] = 1 - A[u, v]
    return A


@settings(derandomize=True, max_examples=500, deadline=None)
@given(_symmetric_graphs())
def test_identify_ade_agrees_with_backtracking(A):
    assert nimrep.identify_ade(A) == _identify_by_isomorphism(A)


def _depths_by_level(A, root=0):
    """One breadth-first level per numpy step: the reference for ``nimrep._depths``."""
    depth = np.full(len(A), -1)
    depth[root] = 0
    frontier = depth == 0
    while frontier.any():
        frontier = (A[frontier] != 0).any(axis=0) & (depth < 0)
        depth[frontier] = depth.max() + 1
    return depth


def _assert_same_depths(A, root):
    got, want = nimrep._depths(A, root), _depths_by_level(A, root)
    assert got.dtype == want.dtype and np.array_equal(got, want), (A, root)


def test_depths_equal_the_level_by_level_search_on_every_diagram():
    for name, _, _ in _every_diagram():
        A = search.ade_graph(name).adjacency
        for root in range(len(A)):
            _assert_same_depths(A, root)


@st.composite
def _directed_graphs(draw):
    """Sparse integer matrices on at most 8 vertices, asymmetric and often
    disconnected, with loops and negative entries, and a root."""
    n = draw(st.integers(1, 8))
    A = draw(hnp.arrays(np.int64, (n, n), elements=st.sampled_from((0, 0, 0, 0, 1, 2, -1))))
    return A, draw(st.integers(0, n - 1))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(_directed_graphs())
def test_depths_equal_the_level_by_level_search_on_directed_graphs(graph):
    _assert_same_depths(*graph)


def _verdict_by_generator_check(graph):
    """What fused_adjacencies decided before the truncation rule: negative
    entries on G_2..G_k, then the level range, then the nimrep identity on
    the generator label 1 against the closed-form fusion tensor."""
    k = graph.coxeter - 2
    G = [np.eye(graph.num_vertices, dtype=int), graph.adjacency]
    for _ in range(2, k + 1):
        G.append(G[1] @ G[-1] - G[-2])
        if G[-1].min() < 0:
            return ValueError, f"{graph.name}: negative entry in fused adjacency"
    try:
        N = core.su2_fusion_closed_form(k).N
    except core.UsageError as exc:
        return core.UsageError, str(exc)
    if _represents_int64(N, np.array(G), core.generating_labels(N.__getitem__, len(N))):
        return "ok", tuple(G)
    return ValueError, f"{graph.name}: nimrep identity fails"


def _represents_int64(N, G, labels):
    # the int64 check of G_b G_a == sum_c N[a, b, c] G_c for a in labels, all b at once
    flat = G.reshape(len(G), -1)
    return all(np.array_equal(G @ G[a], (N[a] @ flat).reshape(G.shape)) for a in labels)


def _verdict(graph):
    try:
        return "ok", nimrep.fused_adjacencies(graph).G
    except core.UsageError as exc:
        return core.UsageError, str(exc)
    except ValueError as exc:
        return ValueError, str(exc)


def test_truncation_verdict_agrees_with_generator_check():
    """Every diagram of levels 1..64, with its own Coxeter number and shifted
    by -1, +1 and +2 while the level stays at most 64."""
    checked = {"ok": 0, ValueError: 0, core.UsageError: 0}
    for k in range(1, core.SU2_LEVEL_MAX + 1):
        for name, _ in search.su2_diagrams(k):
            g = search.ade_graph(name)
            for shift in (0, -1, 1, 2):
                if k + shift > core.SU2_LEVEL_MAX:
                    continue
                graph = dataclasses.replace(g, coxeter=g.coxeter + shift)
                kind, got = _verdict(graph)
                want_kind, want = _verdict_by_generator_check(graph)
                assert kind is want_kind, (name, shift)
                if kind == "ok":
                    assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
                else:
                    assert got == want, (name, shift)
                checked[kind] += 1
    assert checked["ok"] == 98 and checked[core.UsageError] == 1
