"""Fused adjacency families of the A-D-E graphs of ``search``, eigenvalue/diagonal
matching and the naming of a tree as an A-D-E diagram."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FLOAT_EXACT_MAX, SPECTRUM_TOL, ModularData, su2_level, su2_modular_data
from . import search


def _depths(A: np.ndarray, root: int = 0) -> np.ndarray:
    """Breadth-first distance of every vertex from ``root``; -1 where unreached.

    An edge runs from i to j where A[i, j] != 0.
    """
    rows, cols = np.nonzero(A)  # row-major, so each vertex's neighbours are one slice
    start = np.searchsorted(rows, np.arange(len(A) + 1)).tolist()
    cols = cols.tolist()
    depth = [-1] * len(A)
    depth[root] = 0
    queue = [root]
    for i in queue:
        for j in cols[start[i]:start[i + 1]]:
            if depth[j] < 0:
                depth[j] = depth[i] + 1
                queue.append(j)
    return np.array(depth)


@dataclass(frozen=True)
class NimRepFamily:
    """Matrices G_0 .. G_k representing the SU(2)_k fusion ring on graph vertices,
    stacked in one read-only int array of shape (k + 1, V, V)."""

    graph: search.AdeGraph
    G: np.ndarray

    def __post_init__(self):
        self.G.setflags(write=False)

    @property
    def level(self) -> int:
        return len(self.G) - 1


def fused_adjacencies(graph: search.AdeGraph) -> NimRepFamily:
    """Fused adjacency matrices by the three-term recursion G_{j+1} = G_1 G_j - G_{j-1}.

    The recursion is run one step past the level k = h - 2 and G_{k+1} must
    vanish.  That is the nimrep identity G_b G_a = sum_c N[a, b, c] G_c of the
    SU(2)_k fusion ring on every label: the ring is Z[x] / (U_{k+1}(x)) with
    e_j = U_j(x) for the polynomials U_{j+1} = x U_j - U_{j-1}, U_0 = 1,
    U_1 = x, and G_j = U_j(G_1), so e_j -> G_j is a ring map iff
    U_{k+1}(G_1) = G_{k+1} = 0.
    A level k outside 1..SU2_LEVEL_MAX is refused before anything is
    allocated.  A negative entry in G_2 .. G_k signals a wrong graph/level
    pairing and raises.

    The recursion runs in float64 BLAS products and is converted to int
    once.  Every partial sum of G_1 G_j is an integer of magnitude at most
    V max|G_1| max|G_j|, which float64 holds exactly below FLOAT_EXACT_MAX,
    in any summation order.  The bound is checked on the computed
    G_0 .. G_k: they are exact up to the first inexact step, and that step
    either breaks the bound itself or leaves an entry of magnitude at least
    FLOAT_EXACT_MAX.  So when the check passes, G_0 .. G_k are exact and
    G_{k+1} is zero exactly when its computed value is; beyond the bound
    ValueError is raised.
    """
    k = su2_level(graph.coxeter - 2)
    V = graph.num_vertices
    G = np.empty((k + 2, V, V))
    G[0] = np.eye(V)
    G[1] = graph.adjacency
    for j in range(1, k + 1):
        np.matmul(G[1], G[j], out=G[j + 1])
        G[j + 1] -= G[j - 1]
    if not V * np.abs(G[1]).max() * np.abs(G[:k + 1]).max(initial=0) < FLOAT_EXACT_MAX:
        raise ValueError(f"{graph.name}: fused adjacencies beyond the exact float64 range")
    if (G[2:k + 1] < 0).any():
        raise ValueError(f"{graph.name}: negative entry in fused adjacency")
    if G[k + 1].any():
        raise ValueError(f"{graph.name}: nimrep identity fails")
    return NimRepFamily(graph=graph, G=G[:k + 1].astype(int))


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Row nu of ``eig`` is the ascending spectrum of G_nu and row nu of
    ``expected`` its sorted expected multiset, None if the sizes differ.
    gaps[nu] is the largest distance between the two paired in order, inf
    if the sizes differ, and G_nu is matched iff gaps[nu] < SPECTRUM_TOL.
    ``chars`` is the character table of the family's SU(2)_k data."""

    graph: str
    gaps: np.ndarray
    eig: np.ndarray
    expected: np.ndarray | None
    chars: np.ndarray

    @property
    def matched_by_nu(self) -> np.ndarray:
        return self.gaps < SPECTRUM_TOL

    @property
    def matched(self) -> bool:
        return bool(self.matched_by_nu.all())

    @property
    def worst_gap(self) -> float:
        return float(self.gaps.max())


def character_table(md: ModularData) -> np.ndarray:
    """chi[l, nu] = S[l, nu] / S[l, 0], the real part."""
    return (md.S / md.S[:, [0]]).real


def spectrum_vs_diagonal(family: NimRepFamily, Z: search.MassMatrix) -> SpectrumReport:
    """Check that eigenvalues of every G_nu are the characters chi_l(nu), each
    with multiplicity Z[l, l].

    chi_l(nu) = S[l, nu] / S[l, 0], with S that of SU(2)_k at the family's
    level k.  The two sorted multisets are paired in order; each pair must
    agree within SPECTRUM_TOL.  The spectra come from one eigvalsh over the
    stacked family.  The size sum_l Z[l, l] of each expected multiset is
    compared with the vertex count first, in Python integers, and only
    when they agree is the character table repeated row l Z[l, l] times.
    """
    if Z.size != family.level + 1:
        raise ValueError("level mismatch between family and Z")
    chars = character_table(su2_modular_data(family.level))
    eig = np.linalg.eigvalsh(family.G.astype(float))
    if sum(Z.diagonal) != family.graph.num_vertices:
        return SpectrumReport(graph=family.graph.name, gaps=np.full(len(eig), np.inf),
                              eig=eig, expected=None, chars=chars)
    expected = np.sort(np.repeat(chars, Z.diagonal, axis=0).T, axis=1, kind="stable")
    return SpectrumReport(graph=family.graph.name, gaps=np.abs(eig - expected).max(axis=1),
                          eig=eig, expected=expected, chars=chars)


def spectrum_csv_rows(report: SpectrumReport):
    """Rows (graph, nu, eigenvalue, multiplicity, matched spin) of a spectrum report.

    Each run of sorted expected values, consecutive ones within SPECTRUM_TOL
    of each other, is one row: its first eigenvalue, and as spin the last
    label whose character lies within SPECTRUM_TOL of the run.  The expected
    values of nu are characters chi_l(nu), and over the whole domain, every
    level k <= SU2_LEVEL_MAX and every nu, equal characters differ by at
    most 6e-13 and distinct ones by at least 4.5e-6 (a test checks each
    table).  So each run is one class of equal characters, and these
    classes are those of round(chi_l(nu), 9) too.
    """
    if report.expected is None:
        return []
    x = report.expected
    nus, starts = np.nonzero(np.diff(x, axis=1, prepend=-np.inf) > SPECTRUM_TOL)
    counts = np.diff(nus * x.shape[1] + starts, append=x.size)
    near = np.abs(report.chars.T[nus] - x[nus, starts, None]) <= SPECTRUM_TOL
    spins = near.shape[1] - 1 - near[:, ::-1].argmax(axis=1)
    return list(zip([report.graph] * len(nus), nus.tolist(), report.eig[nus, starts].tolist(),
                    counts.tolist(), spins.tolist()))


def identify_ade(A: np.ndarray) -> str | None:
    """Name of the A-D-E diagram isomorphic to the given adjacency, if any.

    The inverse of ``search.ade_graph``'s rule.  A symmetric 0/1 matrix with zero
    diagonal that is a tree (connected, n - 1 edges) is A_n if it is a path.
    Otherwise it needs exactly three leaves, i.e. one vertex of degree 3, and
    is named by its arm lengths (the leaves' distances from that vertex):
    (1, 1, r) is D_{r+3}, and (1, 2, r) for r = 2, 3, 4 is E_{r+4}.
    """
    A = np.asarray(A)
    n = len(A)
    # entries summing to 2(n - 1) with a loop leave fewer than n - 1 edges,
    # too few to connect n vertices, so a tree has zero diagonal
    if (not np.array_equal(A, A.T) or not np.isin(A, (0, 1)).all()
            or A.sum() != 2 * (n - 1)):
        return None
    deg = A.sum(axis=0)
    # one traversal from the fork (if any) gives connectivity and the arm lengths
    depth = _depths(A, int(deg.argmax()))
    if depth.min() < 0:
        return None
    if deg.max() <= 2:
        return f"A{n}"
    if (deg == 1).sum() != 3:
        return None
    a, b, c = sorted(depth[deg == 1])
    if (a, b) == (1, 1):
        return f"D{c + 3}"
    if (a, b) == (1, 2) and c <= 4:
        return f"E{c + 4}"
    return None
