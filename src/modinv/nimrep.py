"""A-D-E graphs, fused adjacency families and eigenvalue/diagonal matching.

Canonical vertex order: the linear spine first with the distinguished end
vertex at index 0, fork or tail vertices last.  For D diagrams the two fork
tips are the last two indices; for E diagrams the short tail is last.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (ASSERT_TOL, ROUND_TOL, SPECTRUM_TOL, ModularData, UsageError,
                   generating_labels, represents, su2_fusion_closed_form)
from .search import MassMatrix, ade_exponent_multiset, diagram_case


class NimRepError(ValueError):
    pass


class UnknownDiagramError(NimRepError, UsageError):
    """A name outside A_n (n >= 1), D_n (n >= 4) and E6, E7, E8."""


@dataclass(frozen=True)
class AdeGraph:
    """An A-D-E Dynkin diagram with its Coxeter number and exponents.

    Exponents use spin labelling: value m stands for the adjacency eigenvalue
    2 cos(pi (m+1) / h), i.e. m is one less than the Coxeter exponent.
    ``case`` is the SU(2) branching case of the diagram (``search.diagram_case``).
    """

    name: str
    case: str
    adjacency: np.ndarray
    coxeter: int
    exponents: tuple[int, ...]

    @property
    def num_vertices(self) -> int:
        return self.adjacency.shape[0]

    @property
    def level(self) -> int:
        return self.coxeter - 2

    def validate(self) -> None:
        A = self.adjacency
        if not np.array_equal(A, A.T) or A.dtype.kind not in "iu":
            raise NimRepError("adjacency must be a symmetric integer matrix")
        norm = np.linalg.eigvalsh(A.astype(float)).max()
        if abs(norm - 2.0 * np.cos(np.pi / self.coxeter)) > ASSERT_TOL:
            raise NimRepError(f"{self.name}: |A| != 2 cos(pi/{self.coxeter})")
        if not _connected(A):
            raise NimRepError(f"{self.name}: not connected")
        if _bipartition(A) is None:
            raise NimRepError(f"{self.name}: not bipartite")


def ade_graph(name: str) -> AdeGraph:
    """Build the named diagram ("A7", "D5", "E6", ...) in canonical vertex order."""
    try:
        case, k = diagram_case(name)
    except ValueError as exc:
        raise UnknownDiagramError(str(exc)) from None
    kind, num = name[0], int(name[1:])
    if kind == "A":
        A = _path(num)
    elif kind == "D":
        A = _path(num - 2)
        A = _grow(A, num)
        A[num - 3, num - 2] = A[num - 2, num - 3] = 1
        A[num - 3, num - 1] = A[num - 1, num - 3] = 1
    else:
        spine = num - 1
        A = _grow(_path(spine), num)
        tail_at = {6: 2, 7: 3, 8: 4}[num]
        A[tail_at, num - 1] = A[num - 1, tail_at] = 1
    g = AdeGraph(name=name, case=case, adjacency=A, coxeter=k + 2,
                 exponents=ade_exponent_multiset(name))
    g.validate()
    return g


def _path(n: int) -> np.ndarray:
    A = np.zeros((n, n), dtype=int)
    for i in range(n - 1):
        A[i, i + 1] = A[i + 1, i] = 1
    return A


def _grow(A: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros((n, n), dtype=int)
    out[: A.shape[0], : A.shape[1]] = A
    return out


def _connected(A: np.ndarray) -> bool:
    n = A.shape[0]
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for u in np.nonzero(A[v])[0]:
            if int(u) not in seen:
                seen.add(int(u))
                frontier.append(int(u))
    return len(seen) == n


def _bipartition(A: np.ndarray):
    n = A.shape[0]
    color = [-1] * n
    color[0] = 0
    stack = [0]
    while stack:
        v = stack.pop()
        for u in np.nonzero(A[v])[0]:
            u = int(u)
            if color[u] == -1:
                color[u] = 1 - color[v]
                stack.append(u)
            elif color[u] == color[v]:
                return None
    return color


@dataclass(frozen=True)
class NimRepFamily:
    """Matrices G_0 .. G_k representing the SU(2)_k fusion ring on graph vertices."""

    graph: AdeGraph
    G: tuple[np.ndarray, ...]

    @property
    def level(self) -> int:
        return len(self.G) - 1


def fused_adjacencies(graph: AdeGraph) -> NimRepFamily:
    """Fused adjacency matrices by the three-term recursion G_{j+1} = G_1 G_j - G_{j-1}.

    The representation identity G_a G_b = sum_c N[a,b,c] G_c is verified
    exactly against the SU(2) fusion tensor at level h - 2 on its generators
    (``core.generating_labels``, label 1 at every level).  By the generator
    lemma that decides the identity for every label: the closed-form ring is
    commutative and associative (a test pins it to the Verlinde ring at
    every level) and G_0 = I by construction.  A negative entry anywhere
    signals a wrong graph/level pairing and raises.
    """
    k = graph.coxeter - 2
    V = graph.num_vertices
    G = [np.eye(V, dtype=int), graph.adjacency.copy()]
    for _ in range(2, k + 1):
        nxt = G[1] @ G[-1] - G[-2]
        if nxt.min() < 0:
            raise NimRepError(f"{graph.name}: negative entry in fused adjacency")
        G.append(nxt)
    N = su2_fusion_closed_form(k).N
    if not represents(N, np.array(G), generating_labels(N)):
        raise NimRepError(f"{graph.name}: nimrep identity fails")
    return NimRepFamily(graph=graph, G=tuple(G))


def _match_multisets(values, expected):
    """Pair two real multisets in sorted order: (pairs, (worst gap, summed gap)).

    pairs[i] = (value, matched expected); pairs is None if the sizes differ.
    """
    if len(values) != len(expected):
        return None, (float("inf"), float("inf"))
    pairs = list(zip(sorted(values), sorted(expected)))
    gaps = [abs(a - b) for a, b in pairs]
    return pairs, (max(gaps, default=0.0), sum(gaps))


@dataclass(frozen=True)
class SpectrumEntry:
    nu: int
    matched: bool
    worst_gap: float
    pairs: tuple


@dataclass(frozen=True)
class SpectrumReport:
    graph: str
    entries: tuple[SpectrumEntry, ...]

    @property
    def matched(self) -> bool:
        return all(e.matched for e in self.entries)

    @property
    def worst_gap(self) -> float:
        return max(e.worst_gap for e in self.entries)


def spectrum_vs_diagonal(family: NimRepFamily, md: ModularData, Z: MassMatrix,
                         tol: float = SPECTRUM_TOL) -> SpectrumReport:
    """Check that eigenvalues of every G_nu are the characters chi_l(nu), each
    with multiplicity Z[l, l].

    chi_l(nu) = S[l, nu] / S[l, 0].  The two sorted multisets are paired in
    order; each pair must agree within ``tol``, the summed gaps within ROUND_TOL V.
    """
    k = family.level
    if md.size != k + 1 or Z.size != k + 1:
        raise ValueError("level mismatch between family, modular data and Z")
    V = family.graph.num_vertices
    entries = []
    diag = Z.diagonal
    for nu in range(k + 1):
        eig = np.linalg.eigvalsh(family.G[nu].astype(float))
        expected = []
        for lam in range(k + 1):
            expected.extend([float((md.S[lam, nu] / md.S[lam, 0]).real)] * diag[lam])
        pairs, (worst, gap) = _match_multisets(eig.tolist(), expected)
        ok = pairs is not None and worst < tol and gap < ROUND_TOL * V
        entries.append(SpectrumEntry(nu=nu, matched=bool(ok), worst_gap=float(worst),
                                     pairs=tuple(pairs or ())))
    return SpectrumReport(graph=family.graph.name, entries=tuple(entries))


def spectrum_csv_rows(report: SpectrumReport, md: ModularData):
    """Rows (graph, nu, eigenvalue, multiplicity, matched spin) of a spectrum report."""
    rows = []
    for entry in report.entries:
        # group matched pairs by expected character value
        seen = {}
        for val, exp in entry.pairs:
            seen.setdefault(round(exp, 9), []).append(val)
        chars = {round(float((md.S[lam, entry.nu] / md.S[lam, 0]).real), 9): lam
                 for lam in range(md.size)}
        for expval, vals in sorted(seen.items()):
            rows.append((report.graph, entry.nu, vals[0], len(vals),
                         chars.get(expval, -1)))
    return rows


# ---------------------------------------------------------------------------
# Graph isomorphism on small graphs (backtracking with degree pruning)

def graphs_isomorphic(A: np.ndarray, B: np.ndarray) -> bool:
    """Backtracking isomorphism test for small undirected multiplicity graphs."""
    A = np.asarray(A)
    B = np.asarray(B)
    n = A.shape[0]
    if B.shape[0] != n:
        return False
    degA = sorted(A.sum(axis=0).tolist())
    degB = sorted(B.sum(axis=0).tolist())
    if degA != degB:
        return False
    ordering = sorted(range(n), key=lambda v: -A.sum(axis=0)[v])
    mapping = [-1] * n
    used = [False] * n
    degB_vec = B.sum(axis=0)
    degA_vec = A.sum(axis=0)

    def extend(idx):
        if idx == n:
            return True
        u = ordering[idx]
        for v in range(n):
            if used[v] or degA_vec[u] != degB_vec[v]:
                continue
            ok = True
            for w in ordering[:idx]:
                if A[u, w] != B[v, mapping[w]]:
                    ok = False
                    break
            if ok:
                mapping[u] = v
                used[v] = True
                if extend(idx + 1):
                    return True
                used[v] = False
                mapping[u] = -1
        return False

    return extend(0)


def identify_ade(A: np.ndarray) -> str | None:
    """Name of the A-D-E diagram isomorphic to the given adjacency, if any."""
    A = np.asarray(A)
    n = A.shape[0]
    for name in (f"A{n}", f"D{n}", f"E{n}"):
        try:
            g = ade_graph(name)
        except UnknownDiagramError:
            continue
        if graphs_isomorphic(A, g.adjacency):
            return name
    return None
