"""Chiral branching data, global indices, sector counts and Gram decompositions.

A modular invariant Z factorizes through the ambichiral sector set as
Z = b+^t b- with non-negative integer branching matrices b+, b-.  For the
block-diagonal (type I) SU(2) cases b+ = b-; the permutation invariants at
levels 2 mod 4 and the level-16 exceptional case are genuinely twisted.
The branching pairs come from the table in ``search``, which derives every
closed-form SU(2) invariant from them; ``search.su2_ade_catalog`` checks
each pair against the enumerated Z.  The chiral branching coefficients are the
dimensions of the irreducible representations of the chiral fusion rule
algebra, so b+ fixes the chiral fusion graph Gamma01 (the diagram with
exponent diagonal sum_t b+[t, l]^2).  The module also factorizes
M = F^t F Gram matrices of sector systems by integer backtracking and
reproduces the summary table of the SU(2) classification.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .core import (
    ASSERT_TOL,
    CHIRAL_TABLE_LEVEL_MAX,
    VACUUM_ROW_TOL,
    ModularData,
    UsageError,
    sig12,
    su2_modular_data,
)
from .search import BranchingData, MassMatrix, su2_ade_catalog

GRAM_NODE_BUDGET = 10 ** 6


# ---------------------------------------------------------------------------
# Gram matrices of sector systems and their integer factorization

def factor_gram(M: np.ndarray) -> tuple[np.ndarray, int]:
    """A non-negative integer F with F^t F = M by column-wise peeling, and
    the number of search nodes it took.

    Columns are processed in label order; each column chooses entries on the
    sectors discovered so far consistent with all earlier inner products, and
    the leftover diagonal weight spawns new sector rows (multiplicities
    enumerated as decreasing square decompositions).  The search gives up
    after GRAM_NODE_BUDGET nodes.

    Row rule.  While column col is filled, a row i with F[i, mu] > M[col, mu]
    for some earlier column mu can only take 0, and so can every row when
    M[col, col] = 0.  Proof: F >= 0, so every remaining inner product
    M[col, mu] - sum_i F[i, col] F[i, mu] and the remaining norm
    M[col, col] - sum_i F[i, col]^2 only fall as entries are set, and each
    must stay >= 0; a positive entry on such a row makes one of them
    negative at once.  So the search branches only on the other rows and
    sets the forced ones to 0 without a node.  It visits the same
    non-forced assignments in the same order as a search over every row
    and returns the same first F.  A node is one entry tried on a row that
    can be positive, or the check that closes a column.
    """
    M = np.asarray(M)
    L = M.shape[0]
    if not np.array_equal(M, M.T):
        raise ValueError("Gram matrix must be symmetric")
    if M.min() < 0:
        raise ValueError("Gram matrix of a non-negative F must be non-negative")
    M = M.astype(np.int64)
    rows_of = M.tolist()
    F = np.zeros((L, L), dtype=np.int64)  # F[:r] holds the sectors found; grown as needed
    nodes = 0
    solution = None

    # Each search step is a generator that yields the steps below it.  An
    # explicit stack of suspended generators replaces recursion, so the
    # depth (one step per entry of F) is not bounded by the recursion limit.
    def column(col, r):
        nonlocal solution
        if col == L:
            solution = F[:r].copy()
            return
        rem = rows_of[col][col]
        cands = []  # each row that can be positive, with its nonzero earlier entries
        if rem:
            free = np.flatnonzero((F[:r, :col] <= M[col, :col]).all(axis=1))
            cands = [(i, [(mu, f) for mu, f in enumerate(row) if f])
                     for i, row in zip(free.tolist(), F[free, :col].tolist())]
        yield assign(col, r, cands, 0, rem, rows_of[col][:col])

    def assign(col, r, cands, j, rem, dotrem):
        # entry of the column on candidate j, keeping inner products >= 0
        nonlocal nodes
        nodes += 1
        if nodes > GRAM_NODE_BUDGET:
            raise ValueError(f"no factorization within {GRAM_NODE_BUDGET} nodes")
        if j == len(cands):
            if not any(dotrem):
                yield spawn(col, r, rem, math.isqrt(rem), [])
            return
        # the row is non-negative, so each remaining inner product falls as v
        # grows; vmax is the largest v that keeps all of them >= 0
        i, support = cands[j]
        vmax = min([math.isqrt(rem)] + [dotrem[mu] // f for mu, f in support])
        yield assign(col, r, cands, j + 1, rem, dotrem)
        for v in range(1, vmax + 1):
            F[i, col] = v
            left = dotrem.copy()
            for mu, f in support:
                left[mu] -= v * f
            yield assign(col, r, cands, j + 1, rem - v * v, left)
        F[i, col] = 0

    def spawn(col, r, rem, cap, mults):
        # leftover norm splits into squares of new-sector multiplicities
        nonlocal F
        if rem == 0:
            end = r + len(mults)
            if end > len(F):
                F = np.vstack([F, np.zeros((end, L), dtype=np.int64)])
            F[r:end] = 0
            F[r:end, col] = mults
            yield column(col + 1, end)
            return
        for m in range(min(cap, math.isqrt(rem)), 0, -1):
            yield spawn(col, r, rem - m * m, m, mults + [m])

    stack = [column(0, 0)]
    while stack and solution is None:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
        else:
            stack.append(step)
    if solution is None:
        raise ValueError("no non-negative integer factorization found")
    return solution, nodes


def decompose_gram(theta: np.ndarray, N: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sector Gram matrix M[l, m] = sum_nu theta[nu] N[nu, l, m], its
    factorization M = F^t F and the G1 that F induces, as (F, G1).

    ``theta`` is the multiplicity vector of the generating sector over the
    labels of the fusion tensor N.  F is the first factorization of
    ``factor_gram``, whose docstring states and proves the row rule that its
    search branches by.  G1 is lstsq's minimum-norm solution of
    G1 F = F N_1, rounded, and must solve it exactly; fractional or negative
    G1 signals an inconsistent theta.  F determines G1 only when its rows
    are independent: where y^t F = 0 for some y != 0, G1 + x y^t solves the
    equation too, for every column x.  Such F are common (rank r - 1 of r
    rows for id+l10 at level 10 and for id+l2 at levels 6 and 22), and the
    G1 returned is then one solution among many, not the induced graph.
    """
    M = np.einsum("n,nlm->lm", theta, N)
    F, _ = factor_gram(M)
    if not np.array_equal(F.T @ F, M):
        raise ValueError("factorization check failed")
    sol, *_ = np.linalg.lstsq(F.T.astype(float), (F @ N[1]).T.astype(float), rcond=None)
    G1 = sol.T
    G1r = np.round(G1)
    if np.max(np.abs(G1 - G1r)) > ASSERT_TOL or G1r.min() < 0:
        raise ValueError("induced G1 is not a non-negative integer matrix")
    G1i = G1r.astype(int)
    if not np.array_equal(G1i @ F, F @ N[1]):
        raise ValueError("G1 F = F N_1 fails exactly")
    return F, G1i


# ---------------------------------------------------------------------------
# The chiral fusion graph

def gamma01_name(b: BranchingData, diagrams: dict) -> str:
    """Gamma01, the fusion graph of the chiral generator, named from b+.

    The chiral branching coefficients b+[t, l] are the dimensions of the
    irreducible representations of the chiral fusion rule algebra, so
    chi_l appears sum_t b+[t, l]^2 times in the spectrum of the chiral
    system: Gamma01 is the level-k diagram with that exponent diagonal,
    where b+ has a column per spin 0..k.  ``diagrams`` maps each diagonal
    of the level to the name of its diagram.
    """
    squares = tuple((b.b_plus ** 2).sum(axis=0).tolist())
    if squares not in diagrams:
        raise ValueError(f"level {len(squares) - 1}: chiral multiplicities {squares} "
                         "match no diagram")
    return diagrams[squares]


# ---------------------------------------------------------------------------
# Global indices and sector counts

@dataclass(frozen=True)
class ChiralIndices:
    w: float
    w_plus: float
    w_zero: float


def chiral_indices(md: ModularData, Z: MassMatrix) -> ChiralIndices:
    """w, the common chiral index w+ = w / sum_l d_l Z[l,0], and w0 = w+^2 / w."""
    # the vacuum-row identity as verify_invariant checks it
    residual = abs((Z.Z[:, 0] - Z.Z[0, :]) @ md.dims)
    if not residual < VACUUM_ROW_TOL:
        raise AssertionError(f"vacuum row/column sums disagree by {residual}")
    w = md.global_index
    w_plus = w / float(md.dims @ Z.Z[:, 0])
    return ChiralIndices(w=w, w_plus=w_plus, w_zero=w_plus ** 2 / w)


@dataclass(frozen=True)
class SectorCounts:
    mm: int       # full system size, sum Z^2
    mn: int       # sector count under one-sided multiplication, sum of diag Z
    chiral: int   # either chiral system size, sum (b+)^2
    ambi: int     # ambichiral size, rows of b


def sector_counts(Z: MassMatrix, b: BranchingData) -> SectorCounts:
    plus = int((b.b_plus.astype(np.int64) ** 2).sum())
    minus = int((b.b_minus.astype(np.int64) ** 2).sum())
    if plus != minus:
        raise ValueError(f"chiral counts disagree: {plus} vs {minus}")
    return SectorCounts(
        mm=Z.sum_of_squares,
        mn=int(sum(Z.diagonal)),
        chiral=plus,
        ambi=b.num_ambichiral,
    )


# ---------------------------------------------------------------------------
# The classification summary table

@dataclass(frozen=True)
class ChiralRow:
    name: str
    level: int
    counts: SectorCounts
    gamma01: str  # fusion graph of the chiral generators
    Z: MassMatrix
    branching: BranchingData
    indices: ChiralIndices


def chiral_table(kmax: int) -> list[ChiralRow]:
    """One row per (level, invariant) for all levels up to kmax.

    Every row is built from the enumerated invariant and its branching data;
    counts, chiral indices and Gamma01 are recomputed, never copied from a
    table.  The modular data is built once per level.
    """
    if not 1 <= kmax <= CHIRAL_TABLE_LEVEL_MAX:
        raise UsageError(f"kmax outside 1..{CHIRAL_TABLE_LEVEL_MAX}: {kmax}")
    rows = []
    for k in range(1, kmax + 1):
        md = su2_modular_data(k)
        catalog = su2_ade_catalog(md)
        # the catalog holds every level-k diagram, so Gamma01 is named from it
        diagrams = {graph.Z.diagonal: graph.name for graph in catalog}
        for graph in catalog:
            b = graph.branching
            rows.append(ChiralRow(
                name=graph.name,
                level=k,
                counts=sector_counts(graph.Z, b),
                gamma01=gamma01_name(b, diagrams),
                Z=graph.Z,
                branching=b,
                indices=chiral_indices(md, graph.Z),
            ))
    return rows


# ---------------------------------------------------------------------------
# Serialization helpers

def dossier(row: ChiralRow) -> dict:
    idx = row.indices
    return {
        "name": row.name,
        "level": row.level,
        "Z": row.Z.Z.tolist(),
        "bPlus": row.branching.b_plus.tolist(),
        "bMinus": row.branching.b_minus.tolist(),
        "w": float(sig12(idx.w)),
        "wPlus": float(sig12(idx.w_plus)),
        "w0": float(sig12(idx.w_zero)),
        "counts": {"mm": row.counts.mm, "mn": row.counts.mn, "chiral": row.counts.chiral,
                   "ambi": row.counts.ambi},
    }


def table_csv_rows(rows):
    return [(r.name, r.level, *astuple(r.counts), r.gamma01) for r in rows]
