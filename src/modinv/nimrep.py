"""A-D-E graphs, fused adjacency families and eigenvalue/diagonal matching.

Canonical vertex order: the linear spine first with the distinguished end
vertex at index 0, fork or tail vertices last.  For D diagrams the two fork
tips are the last two indices; for E diagrams the short tail is last.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ASSERT_TOL, SPECTRUM_TOL, ModularData, UsageError, su2_level
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
        depth = _depths(A)
        if depth.min() < 0:
            raise NimRepError(f"{self.name}: not connected")
        parity = depth % 2
        if A[parity[:, None] == parity].any():
            raise NimRepError(f"{self.name}: not bipartite")


def ade_graph(name: str) -> AdeGraph:
    """Build the named diagram ("A7", "D5", "E6", ...) in canonical vertex order.

    A_n is a path on n vertices.  D_n and E_n are a path on n - 1 vertices
    with one tail vertex attached at spine vertex n - 3 (D_n) or n - 4 (E_n).
    """
    try:
        case, k = diagram_case(name)
    except UsageError:
        raise
    except ValueError as exc:
        raise UnknownDiagramError(str(exc)) from None
    kind, num = name[0], int(name[1:])
    spine = np.arange(num if kind == "A" else num - 1)
    A = np.zeros((num, num), dtype=int)
    A[spine[:-1], spine[1:]] = A[spine[1:], spine[:-1]] = 1
    if kind != "A":
        tail_at = num - 3 if kind == "D" else num - 4
        A[tail_at, num - 1] = A[num - 1, tail_at] = 1
    g = AdeGraph(name=name, case=case, adjacency=A, coxeter=k + 2,
                 exponents=ade_exponent_multiset(name))
    g.validate()
    return g


def _depths(A: np.ndarray, root: int = 0) -> np.ndarray:
    """Breadth-first distance of every vertex from ``root``; -1 where unreached."""
    depth = np.full(len(A), -1)
    depth[root] = 0
    frontier = depth == 0
    while frontier.any():
        frontier = (A[frontier] != 0).any(axis=0) & (depth < 0)
        depth[frontier] = depth.max() + 1
    return depth


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

    The recursion is run one step past the level k = h - 2 and G_{k+1} must
    vanish.  That is the nimrep identity G_b G_a = sum_c N[a, b, c] G_c of the
    SU(2)_k fusion ring on every label: the ring is Z[x] / (U_{k+1}(x)) with
    e_j = U_j(x) for the polynomials U_{j+1} = x U_j - U_{j-1}, U_0 = 1,
    U_1 = x, and G_j = U_j(G_1), so e_j -> G_j is a ring map iff
    U_{k+1}(G_1) = G_{k+1} = 0.
    A negative entry in G_2 .. G_k signals a wrong graph/level pairing and
    raises.
    """
    k = graph.coxeter - 2
    V = graph.num_vertices
    G = [np.eye(V, dtype=int), graph.adjacency.copy()]
    for _ in range(2, k + 1):
        nxt = G[1] @ G[-1] - G[-2]
        if nxt.min() < 0:
            raise NimRepError(f"{graph.name}: negative entry in fused adjacency")
        G.append(nxt)
    su2_level(k)
    if (G[1] @ G[k] - G[k - 1]).any():
        raise NimRepError(f"{graph.name}: nimrep identity fails")
    return NimRepFamily(graph=graph, G=tuple(G))


def _match_multisets(values, expected):
    """Pair two real multisets in sorted order: (pairs, worst gap).

    pairs[i] = (value, matched expected); pairs is None, and the gap
    infinite, if the sizes differ.
    """
    if len(values) != len(expected):
        return None, float("inf")
    pairs = list(zip(sorted(values), sorted(expected)))
    return pairs, max((abs(a - b) for a, b in pairs), default=0.0)


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


def spectrum_vs_diagonal(family: NimRepFamily, md: ModularData, Z: MassMatrix) -> SpectrumReport:
    """Check that eigenvalues of every G_nu are the characters chi_l(nu), each
    with multiplicity Z[l, l].

    chi_l(nu) = S[l, nu] / S[l, 0].  The two sorted multisets are paired in
    order; each pair must agree within SPECTRUM_TOL.
    """
    k = family.level
    if md.size != k + 1 or Z.size != k + 1:
        raise ValueError("level mismatch between family, modular data and Z")
    entries = []
    diag = Z.diagonal
    for nu in range(k + 1):
        eig = np.linalg.eigvalsh(family.G[nu].astype(float))
        expected = []
        for lam in range(k + 1):
            expected.extend([float((md.S[lam, nu] / md.S[lam, 0]).real)] * diag[lam])
        pairs, worst = _match_multisets(eig.tolist(), expected)
        entries.append(SpectrumEntry(nu=nu, matched=worst < SPECTRUM_TOL, worst_gap=float(worst),
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


def identify_ade(A: np.ndarray) -> str | None:
    """Name of the A-D-E diagram isomorphic to the given adjacency, if any.

    The inverse of ``ade_graph``'s rule.  A symmetric 0/1 matrix with zero
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
            or A.sum() != 2 * (n - 1) or _depths(A).min() < 0):
        return None
    deg = A.sum(axis=0)
    if deg.max() <= 2:
        return f"A{n}"
    if (deg == 1).sum() != 3:
        return None
    a, b, c = sorted(_depths(A, int(deg.argmax()))[deg == 1])
    if (a, b) == (1, 1):
        return f"D{c + 3}"
    if (a, b) == (1, 2) and c <= 4:
        return f"E{c + 4}"
    return None
