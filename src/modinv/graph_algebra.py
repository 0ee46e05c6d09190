"""Gauge-fixed eigenvector matrices of G_1 and graph fusion structure constants.

The candidate structure constants are

    Nhat[a, b, c] = sum_m psi[a, m] / psi[base, m] * psi[b, m] * conj(psi[c, m]),

a Verlinde-type evaluation over a unitary eigenvector matrix psi of the
adjacency matrix.  They come out as non-negative integers exactly for the
A, D_even, E6 and E8 diagrams and acquire negative entries for D_odd and E7.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ASSERT_TOL, ROUND_TOL
from .nimrep import AdeGraph, NimRepFamily, ade_graph

NEG_TOL = -1e-6


class GaugeError(ValueError):
    pass


@dataclass(frozen=True)
class EigenGauge:
    """Unitary eigenvector matrix of G_1 with columns indexed by exponents.

    ``base`` is the distinguished vertex whose psi row divides the structure
    constant formula; psi[base, m] > 0 for every column m.
    """

    graph: AdeGraph
    psi: np.ndarray
    exponent_of: tuple[int, ...]
    base: int

    def validate(self) -> None:
        V = self.graph.num_vertices
        if np.max(np.abs(self.psi.conj().T @ self.psi - np.eye(V))) > ASSERT_TOL:
            raise GaugeError("psi is not unitary")
        h = self.graph.coxeter
        A = self.graph.adjacency.astype(float)
        for col, m in enumerate(self.exponent_of):
            v = self.psi[:, col]
            lam = 2.0 * np.cos(np.pi * (m + 1) / h)
            if np.max(np.abs(A @ v - lam * v)) > 1e-8:
                raise GaugeError(f"column {col} is not an eigenvector for exponent {m}")
            if not (self.psi[self.base, col].real > 0
                    and abs(self.psi[self.base, col].imag) < ASSERT_TOL):
                raise GaugeError(f"psi[base, {col}] not positive")


def _base_vertex(graph: AdeGraph) -> int:
    # D_odd: the exponent (h/2 - 1) eigenvector vanishes on the whole spine,
    # so the distinguished vertex must be a fork tip there; everywhere else
    # the canonical end vertex 0 works.
    if graph.kind == "D" and graph.num_vertices % 2 == 1:
        return graph.num_vertices - 1
    return 0


def eigen_gauge(graph: AdeGraph) -> EigenGauge:
    """Diagonalize the adjacency with all gauge freedom fixed.

    Multiplicity-one columns are fixed by the sign of the base-vertex entry.
    The only degenerate case is the doubled middle exponent of D_even; there
    the two columns are built from the fork-swap symmetric and antisymmetric
    eigenvectors as (vsym +/- e^{i theta} vanti)/sqrt(2), with theta = pi/2
    (a conjugate pair of columns) for D_{2l} with l even and theta = 0 for l
    odd.  This is the rotation under which the structure constants come out
    integral.
    """
    A = graph.adjacency.astype(float)
    V = graph.num_vertices
    h = graph.coxeter
    base = _base_vertex(graph)
    evals, vecs = np.linalg.eigh(A)
    order = np.argsort(evals)
    exps_sorted = sorted(graph.exponents, reverse=True)  # eigenvalue increases as m falls
    psi = np.zeros((V, V), dtype=complex)
    exponent_of = [0] * V

    cols = []
    i = 0
    while i < V:
        block = [order[i]]
        j = i + 1
        while j < V and abs(evals[order[j]] - evals[order[i]]) < 1e-8:
            block.append(order[j])
            j += 1
        ms = exps_sorted[i:j]
        if len(block) == 1:
            v = vecs[:, block[0]].astype(complex)
            entry = v[base].real
            if abs(entry) < 1e-9:
                raise GaugeError(
                    f"{graph.name}: psi[{base}, m={ms[0]}] vanishes; base vertex unusable")
            if entry < 0:
                v = -v
            cols.append((ms[0], v))
        elif len(block) == 2 and graph.kind == "D":
            cols.extend(zip(ms, _deven_degenerate_pair(graph, vecs[:, block])))
        else:
            raise GaugeError(f"{graph.name}: unexpected eigenvalue multiplicity {len(block)}")
        i = j

    cols.sort(key=lambda t: t[0])
    for col, (m, v) in enumerate(cols):
        psi[:, col] = v
        exponent_of[col] = m
    gauge = EigenGauge(graph=graph, psi=psi, exponent_of=tuple(exponent_of), base=base)
    gauge.validate()
    return gauge


def _deven_degenerate_pair(graph: AdeGraph, B: np.ndarray):
    """The gauge of the doubled D_even eigenspace (columns of B: orthonormal basis)."""
    V = graph.num_vertices
    swap = np.arange(V)
    swap[-1], swap[-2] = swap[-2], swap[-1]
    Sw = B.T @ B[swap, :]
    w, u = np.linalg.eigh((Sw + Sw.T) / 2.0)
    vanti = B @ u[:, int(np.argmin(w))]
    vsym = B @ u[:, int(np.argmax(w))]
    if vsym[0] < 0:
        vsym = -vsym
    if vanti[-2] < 0:
        vanti = -vanti
    ell = V // 2
    phase = 1j if ell % 2 == 0 else 1.0
    c1 = (vsym + phase * vanti) / np.sqrt(2.0)
    c2 = (vsym - phase * vanti) / np.sqrt(2.0)
    return c1, c2


@dataclass(frozen=True)
class GraphFusion:
    """Structure constants from the gauge, with their integrality classification."""

    graph: str
    base: int                 # distinguished vertex acting as the unit
    Nhat: np.ndarray          # complex values as computed
    rounded: np.ndarray       # nearest integers
    positive: bool            # all entries within ROUND_TOL of non-negative integers
    worst_negative: float
    integrality_gap: float

    def associative(self) -> bool:
        T = self.rounded
        lhs = np.einsum("abs,sct->abct", T, T)
        rhs = np.einsum("bcs,ast->abct", T, T)
        return bool(np.array_equal(lhs, rhs))

    def unit_residual(self) -> float:
        V = self.rounded.shape[0]
        return float(np.max(np.abs(self.Nhat[self.base] - np.eye(V))))


def graph_structure_constants(gauge: EigenGauge) -> GraphFusion:
    """Evaluate the Verlinde-type sum over the gauge columns and classify it.

    Entries must be near-integers (positive case) or carry a clear negative
    value; anything else (e.g. an entry near 1/2) means the gauge is wrong
    and raises.
    """
    psi = gauge.psi
    ratio = psi / psi[gauge.base, :][None, :]
    N = np.einsum("am,bm,cm->abc", ratio, psi, psi.conj())
    real = N.real
    if np.max(np.abs(N.imag)) > ROUND_TOL:
        raise GaugeError(f"{gauge.graph.name}: complex structure constants "
                         f"(imag {np.max(np.abs(N.imag)):.2e})")
    rounded = np.round(real)
    gap = float(np.max(np.abs(real - rounded)))
    worst_neg = float(real.min())
    if gap > ROUND_TOL and worst_neg > NEG_TOL:
        raise GaugeError(f"{gauge.graph.name}: entries neither integral nor negative; "
                         f"worst residual {gap:.3g}")
    positive = bool(gap <= ROUND_TOL and rounded.min() >= 0)
    return GraphFusion(
        graph=gauge.graph.name,
        base=gauge.base,
        Nhat=N,
        rounded=rounded.astype(int),
        positive=positive,
        worst_negative=worst_neg,
        integrality_gap=gap,
    )


@dataclass(frozen=True)
class PositivityVerdict:
    graph: str
    positive: bool
    worst_negative: float
    associative: bool | None  # exact check of the rounded tensor, positive cases only
    integrality_gap: float


def positivity_report(names) -> list[PositivityVerdict]:
    """Per-graph verdicts of the positivity dichotomy."""
    out = []
    for name in names:
        fusion = graph_structure_constants(eigen_gauge(ade_graph(name)))
        out.append(PositivityVerdict(
            graph=name,
            positive=fusion.positive,
            worst_negative=fusion.worst_negative,
            associative=fusion.associative() if fusion.positive else None,
            integrality_gap=fusion.integrality_gap,
        ))
    return out


def diagonalization_residual(gauge: EigenGauge, family: NimRepFamily) -> float:
    """Max off-diagonal magnitude of psi^dagger G_a psi over the fused family."""
    worst = 0.0
    for G in family.G:
        D = gauge.psi.conj().T @ G @ gauge.psi
        off = D - np.diag(np.diag(D))
        worst = max(worst, float(np.max(np.abs(off))))
    return worst


def csv_rows(fusion: GraphFusion):
    """Rows (graph, a, b, c, value, rounded, flag) for every structure constant."""
    V = fusion.rounded.shape[0]
    rows = []
    for a in range(V):
        for b in range(V):
            for c in range(V):
                val = float(fusion.Nhat[a, b, c].real)
                rnd = int(fusion.rounded[a, b, c])
                flag = "neg" if val < NEG_TOL else ("ok" if abs(val - rnd) < ROUND_TOL else "frac")
                rows.append((fusion.graph, a, b, c, val, rnd, flag))
    return rows
