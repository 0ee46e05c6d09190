"""Gauge-fixed eigenvector matrices of G_1 and graph fusion structure constants.

The candidate structure constants are

    Nhat[a, b, c] = sum_m psi[a, m] / psi[base, m] * psi[b, m] * conj(psi[c, m]),

a Verlinde-type evaluation over a unitary eigenvector matrix psi of the
adjacency matrix.  They come out as non-negative integers exactly for the
A, D_even, E6 and E8 diagrams and acquire negative entries for D_odd and E7.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import ASSERT_TOL, ROUND_TOL, associative, verlinde_sum
from .search import AdeGraph


@dataclass(frozen=True, eq=False)
class EigenGauge:
    """Unitary eigenvector matrix of G_1, column i for exponent graph.exponents[i].

    ``base`` is the distinguished vertex whose psi row divides the structure
    constant formula; psi[base, m] > ASSERT_TOL for every column m.
    """

    graph: AdeGraph
    psi: np.ndarray
    base: int

    def validate(self) -> None:
        """Unitarity, then for each column in turn its eigenvector residual
        and its positive base entry; the first failure raises ValueError."""
        psi, m = self.psi, np.array(self.graph.exponents)
        if np.max(np.abs(psi.conj().T @ psi - np.eye(self.graph.num_vertices))) > ASSERT_TOL:
            raise ValueError("psi is not unitary")
        lam = 2.0 * np.cos(np.pi * (m + 1) / self.graph.coxeter)
        A = self.graph.adjacency.astype(float)
        not_eigen = np.max(np.abs(A @ psi - psi * lam), axis=0) > ASSERT_TOL
        b = psi[self.base]
        bad = not_eigen | ~((b.real > ASSERT_TOL) & (np.abs(b.imag) < ASSERT_TOL))
        if bad.any():
            col = int(np.argmax(bad))
            if not_eigen[col]:
                raise ValueError(f"column {col} is not an eigenvector for exponent {m[col]}")
            raise ValueError(f"psi[base, {col}] not positive; base vertex unusable")


def _base_vertex(graph: AdeGraph) -> int:
    # D_odd: the exponent (h/2 - 1) eigenvector vanishes on the whole spine,
    # so the distinguished vertex must be a fork tip there; everywhere else
    # the canonical end vertex 0 works.
    if graph.case == "D_odd":
        return graph.num_vertices - 1
    return 0


def eigen_gauge(graph: AdeGraph) -> EigenGauge:
    """Diagonalize the adjacency with all gauge freedom fixed.

    Column i of psi is for the exponent ``graph.exponents[i]``.  The
    exponents ascend and the eigenvalue 2 cos(pi (m+1) / h) falls as m
    rises, so the columns are those of ``eigh`` reversed, each signed
    positive at the base vertex.  An exponent repeats only in D_even, whose
    doubled middle exponent fills two columns built from the fork-swap
    symmetric and antisymmetric eigenvectors as (vsym +/- e^{i theta}
    vanti)/sqrt(2), with theta = pi/2 (a conjugate pair of columns) for
    D_{2l} with l even and theta = 0 for l odd.  This is the rotation under
    which the structure constants come out integral.
    """
    base = _base_vertex(graph)
    vecs = np.linalg.eigh(graph.adjacency.astype(float))[1][:, ::-1]
    psi = vecs.astype(complex)
    flip = psi[base].real < 0
    psi[:, flip] = -psi[:, flip]
    for col in np.flatnonzero(np.diff(graph.exponents) == 0):
        psi[:, col], psi[:, col + 1] = _deven_degenerate_pair(graph, vecs[:, col:col + 2])
    gauge = EigenGauge(graph=graph, psi=psi, base=base)
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


@dataclass(frozen=True, eq=False)
class GraphFusion:
    """Structure constants from the gauge, with their integrality classification."""

    graph: str
    Nhat: np.ndarray          # complex values as computed
    rounded: np.ndarray       # nearest integers
    positive: bool            # all entries within ROUND_TOL of non-negative integers
    worst_negative: float
    integrality_gap: float

    def associative(self) -> bool:
        """Exact associativity, with vertex 0, the base of every positive case, as unit."""
        return associative(self.rounded)


def graph_structure_constants(gauge: EigenGauge) -> GraphFusion:
    """Evaluate the Verlinde-type sum over the gauge columns and classify it.

    Entries must be near-integers (positive case) or carry a clear negative
    value; anything else (e.g. an entry near 1/2) means the gauge is wrong
    and raises.  The sum is ``core.verlinde_sum``'s einsum, not the one
    GEMM per row N_a that builds the Verlinde ring: ``graph-algebra --json``
    prints the integrality gap, and another summation order changes its
    bytes.
    """
    N = verlinde_sum(gauge.psi, gauge.base)
    real, imag = N.real, N.imag
    worst_imag = float(max(imag.max(), -imag.min()))
    if worst_imag > ROUND_TOL:
        raise ValueError(f"{gauge.graph.name}: complex structure constants "
                         f"(imag {worst_imag:.2e})")
    # rounded and its gap one a-slice at a time, so that beside N only the
    # int tensor and one float slice are alive; a max is the same in any order
    rounded = np.empty(real.shape, dtype=int)
    gap = 0.0
    for a, slice_a in enumerate(real):
        r = np.round(slice_a)
        rounded[a] = r
        r -= slice_a
        gap = max(gap, float(np.abs(r, out=r).max()))
    worst_neg = float(real.min())
    if gap > ROUND_TOL and worst_neg > -ROUND_TOL:
        raise ValueError(f"{gauge.graph.name}: entries neither integral nor negative; "
                         f"worst residual {gap:.3g}")
    positive = bool(gap <= ROUND_TOL and rounded.min() >= 0)
    return GraphFusion(
        graph=gauge.graph.name,
        Nhat=N,
        rounded=rounded,
        positive=positive,
        worst_negative=worst_neg,
        integrality_gap=gap,
    )


CSV_FLAGS = np.array(["ok", "frac", "neg"], dtype=object)


def csv_rows(fusion: GraphFusion):
    """Rows (graph, a, b, c, value, rounded, flag) for every structure constant,
    in row-major order, built one a-slice at a time."""
    V = len(fusion.rounded)
    b, c = np.indices((V, V)).reshape(2, -1).tolist()
    graph = itertools.repeat(fusion.graph)
    for a in range(V):
        val, rnd = fusion.Nhat[a].real, fusion.rounded[a]
        flag = np.where(val < -ROUND_TOL, 2, np.where(np.abs(val - rnd) < ROUND_TOL, 0, 1))
        yield from zip(graph, itertools.repeat(a, V * V), b, c, val.ravel().tolist(),
                       rnd.ravel().tolist(), CSV_FLAGS[flag.ravel()].tolist())
