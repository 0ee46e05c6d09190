"""Chiral branching data, global indices, sector counts and Gram decompositions.

A modular invariant Z factorizes through the ambichiral sector set as
Z = b+^t b- with non-negative integer branching matrices b+, b-.  For the
block-diagonal (type I) SU(2) cases b+ = b-; the permutation invariants at
levels 2 mod 4 and the level-16 exceptional case are genuinely twisted.
The branching pairs come from the table in ``search``, which derives every
closed-form SU(2) invariant from them; ``chiral_table`` checks each pair
against the enumerated Z.  The module also factorizes M = F^t F Gram
matrices of sector systems by integer backtracking and reproduces the
summary table of the SU(2) classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ASSERT_TOL,
    CHIRAL_TABLE_LEVEL_MAX,
    SPECTRUM_TOL,
    FusionRing,
    ModularData,
    UsageError,
    su2_fusion_closed_form,
    su2_modular_data,
)
from .search import (
    SU2_E_LEVELS,
    BranchingError,
    MassMatrix,
    case_of_invariant,
    su2_ade_catalog,
    su2_branching,
    su2_invariant_matrix,
)
from .nimrep import identify_ade

GRAM_NODE_BUDGET = 10 ** 6


class GramDecompositionError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Gram matrices of sector systems and their integer factorization

def gram_matrix(ring: FusionRing, theta) -> np.ndarray:
    """Sector Gram matrix M[l, m] = sum_nu theta_nu N[nu, l, m].

    ``theta`` is the multiplicity vector of the generating sector; it must
    contain the identity (theta[0] >= 1).
    """
    t = np.asarray(theta, dtype=int)
    if t.shape != (ring.size,):
        raise ValueError("theta length must match the label set")
    if t[0] < 1:
        raise ValueError("theta must contain the identity sector")
    if t.min() < 0:
        raise ValueError("theta multiplicities must be non-negative")
    return np.einsum("n,nlm->lm", t, ring.N)


@dataclass(frozen=True)
class SectorDecomposition:
    """Integer F with F^t F = M (rows: irreducible sectors) and the induced G1."""

    F: np.ndarray
    G1: np.ndarray

    @property
    def num_sectors(self) -> int:
        return self.F.shape[0]

    @property
    def graph_name(self) -> str | None:
        return identify_ade(self.G1)


def decompose_gram(M: np.ndarray, ring: FusionRing,
                   budget: int = GRAM_NODE_BUDGET) -> SectorDecomposition:
    """Find non-negative integer F with F^t F = M by column-wise peeling.

    Columns are processed in label order; each column chooses entries on the
    sectors discovered so far consistent with all earlier inner products, and
    the leftover diagonal weight spawns new sector rows (multiplicities
    enumerated as decreasing square decompositions).  G1 solves G1 F = F N_1
    exactly; fractional or negative G1 signals an inconsistent theta.
    """
    M = np.asarray(M)
    L = M.shape[0]
    if not np.array_equal(M, M.T):
        raise GramDecompositionError("Gram matrix must be symmetric")
    if M.min() < 0:
        raise GramDecompositionError("Gram matrix of a non-negative F must be non-negative")
    nodes = 0
    solution = None

    # Each search step is a generator that yields the steps below it.  An
    # explicit stack of suspended generators replaces recursion, so the
    # depth (one step per entry of F) is not bounded by the recursion limit.
    def column(col, rows):
        nonlocal solution
        if col == L:
            solution = rows
            return
        entry = [0] * len(rows)
        yield assign(col, rows, entry, 0, int(M[col, col]), [int(M[col, mu]) for mu in range(col)])

    def assign(col, rows, entry, i, rem, dotrem):
        # entry i of the column on existing row i, keeping inner products >= 0
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise GramDecompositionError(f"no factorization within {budget} nodes")
        if i == len(rows):
            if not any(dotrem):
                yield spawn(col, rows, entry, rem, math.isqrt(rem), [])
            return
        # the row is non-negative, so each remaining inner product falls as v
        # grows; vmax is the largest v that keeps all of them >= 0
        row = rows[i]
        vmax = min([math.isqrt(rem)] + [d // r for d, r in zip(dotrem, row) if r])
        for v in range(vmax + 1):
            entry[i] = v
            yield assign(col, rows, entry, i + 1, rem - v * v, [d - v * r for d, r in zip(dotrem, row)])
        entry[i] = 0

    def spawn(col, rows, entry, rem, cap, mults):
        # leftover norm splits into squares of new-sector multiplicities
        if rem == 0:
            shaped = [row + [e] for row, e in zip(rows, entry)]
            yield column(col + 1, shaped + [[0] * col + [m] for m in mults])
            return
        for m in range(min(cap, math.isqrt(rem)), 0, -1):
            yield spawn(col, rows, entry, rem - m * m, m, mults + [m])

    stack = [column(0, [])]
    while stack and solution is None:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
        else:
            stack.append(step)
    if solution is None:
        raise GramDecompositionError("no non-negative integer factorization found")
    F = np.array(solution, dtype=int)  # every row has one entry per column
    if not np.array_equal(F.T @ F, M):
        raise GramDecompositionError("factorization check failed")
    N1 = ring.N[1]
    sol, *_ = np.linalg.lstsq(F.T.astype(float), (F @ N1).T.astype(float), rcond=None)
    G1 = sol.T
    G1r = np.round(G1)
    if np.max(np.abs(G1 - G1r)) > ASSERT_TOL or G1r.min() < 0:
        raise GramDecompositionError("induced G1 is not a non-negative integer matrix")
    G1i = G1r.astype(int)
    if not np.array_equal(G1i @ F, F @ N1):
        raise GramDecompositionError("G1 F = F N_1 fails exactly")
    return SectorDecomposition(F=F, G1=G1i)


def theta_vector(k: int, spins) -> np.ndarray:
    """Multiplicity vector over SU(2)_k spins from a list like [0, 8, 16]."""
    t = np.zeros(k + 1, dtype=int)
    for j in spins:
        if not 0 <= j <= k:
            raise ValueError(f"spin {j} outside level {k}")
        t[j] += 1
    return t


# ---------------------------------------------------------------------------
# Branching matrices for the six SU(2) families

@dataclass(frozen=True)
class BranchingData:
    """Ambichiral labels with the two branching matrices (rows: ambichiral)."""

    case: str
    level: int
    ambi_labels: tuple[str, ...]
    b_plus: np.ndarray
    b_minus: np.ndarray

    @property
    def num_ambichiral(self) -> int:
        return len(self.ambi_labels)

    @property
    def type_one(self) -> bool:
        return bool(np.array_equal(self.b_plus, self.b_minus))

    def product(self) -> np.ndarray:
        return self.b_plus.T @ self.b_minus


def branching_data(case: str, k: int) -> BranchingData:
    """Branching matrices b+ and b- for a named SU(2)_k invariant.

    case is one of A, D_even, D_odd, E6, E7, E8; see ``search.su2_branching``.
    """
    return BranchingData(case, k, *su2_branching(case, k))


@dataclass(frozen=True)
class FactorizationReport:
    forward_exact: bool   # b+^t b- = Z
    backward_exact: bool  # b-^t b+ = Z^t

    @property
    def ok(self) -> bool:
        return self.forward_exact and self.backward_exact


def verify_factorization(Z: MassMatrix, b: BranchingData) -> FactorizationReport:
    """Exact integer check of Z = b+^t b- and its transpose."""
    if b.b_plus.shape[1] != Z.size:
        raise ValueError("branching width does not match Z")
    return FactorizationReport(
        forward_exact=bool(np.array_equal(b.product(), Z.Z)),
        backward_exact=bool(np.array_equal(b.b_minus.T @ b.b_plus, Z.Z.T)),
    )


# ---------------------------------------------------------------------------
# Global indices and sector counts

@dataclass(frozen=True)
class ChiralIndices:
    w: float
    w_plus: float
    w_zero: float


def chiral_indices(md: ModularData, Z: MassMatrix) -> ChiralIndices:
    """w, the common chiral index w+ = w / sum_l d_l Z[l,0], and w0 = w+^2 / w."""
    d = md.dims
    col = float(d @ Z.Z[:, 0])
    row = float(Z.Z[0, :] @ d)
    if abs(col - row) > ASSERT_TOL * max(1.0, col):
        raise AssertionError(f"vacuum row/column sums disagree: {col} vs {row}")
    w = md.global_index
    w_plus = w / col
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
        raise BranchingError(f"chiral counts disagree: {plus} vs {minus}")
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
    mm: int
    mn: int
    chiral: int
    ambi: int
    gamma01: str  # fusion graph of the chiral generators


def _gamma01_name(case: str, name: str, k: int) -> str:
    if case == "D_odd":
        return f"A{k + 1}"
    if case == "E7":
        return "D10"
    return name  # chiral locality: the N-M graph and the chiral graph agree


def chiral_table(kmax: int) -> list[ChiralRow]:
    """One row per (level, invariant) for all levels up to kmax.

    Every row is built from the enumerated invariant and its branching data;
    counts are recomputed, never copied from a table.
    """
    if not 1 <= kmax <= CHIRAL_TABLE_LEVEL_MAX:
        raise UsageError(f"kmax outside 1..{CHIRAL_TABLE_LEVEL_MAX}: {kmax}")
    rows = []
    for k in range(1, kmax + 1):
        for named in su2_ade_catalog(k):
            case = case_of_invariant(named.name, k)
            b = branching_data(case, k)
            rep = verify_factorization(named.Z, b)
            if not rep.ok:
                raise BranchingError(f"{named.name} at level {k}: factorization failed")
            counts = sector_counts(named.Z, b)
            rows.append(ChiralRow(
                name=named.name,
                level=k,
                mm=counts.mm,
                mn=counts.mn,
                chiral=counts.chiral,
                ambi=counts.ambi,
                gamma01=_gamma01_name(case, named.name, k),
            ))
    return rows


# ---------------------------------------------------------------------------
# Chiral system data for the Perron-Frobenius identity

def chiral_system(case: str, k: int):
    """(B, dims_chiral) for the full chiral system of the case.

    B[beta, l] counts the appearances of chiral sector beta in the l-th
    induced morphism; dims_chiral are the sector dimensions.  For D_odd all
    induced sectors stay irreducible (B = identity); for D_even and E7 the
    sectors merge in mirror pairs and the middle one splits in two halves.
    """
    d = su2_modular_data(k).dims
    if case == "D_odd":
        return np.eye(k + 1, dtype=int), d.copy()
    if case in ("D_even", "E7"):
        if case == "E7" and k != SU2_E_LEVELS["E7"]:
            raise BranchingError(f"E7 requires level {SU2_E_LEVELS['E7']}")
        if case == "D_even" and k % 4 != 0:
            raise BranchingError("D_even requires level 0 mod 4")
        half = k // 2
        rows = []
        dims = []
        for i in range(half):
            sup = np.zeros(k + 1, dtype=int)
            sup[i] += 1
            sup[k - i] += 1
            rows.append(sup)
            dims.append(d[i])
        for _ in range(2):
            sup = np.zeros(k + 1, dtype=int)
            sup[half] = 1
            rows.append(sup)
            dims.append(d[half] / 2.0)
        return np.array(rows, dtype=int), np.array(dims)
    raise BranchingError(f"no chiral system data for case {case!r}")


def chiral_pf_residual(case: str, k: int) -> float:
    """Residual of sum_l d_l B[beta, l] = (w / w+) d_beta over the chiral system."""
    md = su2_modular_data(k)
    Z = su2_invariant_matrix(case, k)
    idx = chiral_indices(md, Z)
    B, dims_chiral = chiral_system(case, k)
    lhs = B @ md.dims
    rhs = (idx.w / idx.w_plus) * dims_chiral
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# Full-system spectra for the permutation invariants at levels 2 mod 4

@dataclass(frozen=True)
class FullSystemReport:
    level: int
    pairs_checked: int
    matched: bool
    worst_gap: float


def full_system_dodd(k: int) -> FullSystemReport:
    """Model the full system at level k = 2 mod 4 and check its spectra.

    The full system is the spin fusion ring with the two chiralities acting
    as N_nu and N_{pi(rho)}; the simultaneous fusion matrix
    Gamma[nu, rho] = N_nu N_{pi(rho)} must have eigenvalue
    chi_l(nu) chi_m(rho) with multiplicity Z[l, m]^2 for every pair.
    """
    if k % 4 != 2:
        raise ValueError("full system model applies at levels 2 mod 4")
    md = su2_modular_data(k)
    ring = su2_fusion_closed_form(k)
    Z = su2_invariant_matrix("D", k)
    pi = [int(np.argmax(Z.Z[:, mu])) for mu in range(k + 1)]
    chars = (md.S / md.S[:, [0]]).real  # chars[l, nu] = chi_l(nu)
    worst = 0.0
    pairs = 0
    ok = True
    for nu in range(k + 1):
        for rho in range(k + 1):
            gamma = ring.N[nu] @ ring.N[pi[rho]]
            eig = np.sort(np.linalg.eigvalsh(gamma.astype(float)))
            expected = []
            for lam in range(k + 1):
                for mu in range(k + 1):
                    mult = int(Z.Z[lam, mu]) ** 2
                    expected.extend([chars[lam, nu] * chars[mu, rho]] * mult)
            expected = np.sort(np.array(expected))
            pairs += 1
            if expected.shape != eig.shape:
                ok = False
                continue
            gap = float(np.max(np.abs(eig - expected)))
            worst = max(worst, gap)
            if gap > SPECTRUM_TOL:
                ok = False
    return FullSystemReport(level=k, pairs_checked=pairs, matched=ok, worst_gap=worst)


# ---------------------------------------------------------------------------
# Serialization helpers

def dossier(name: str, k: int, Z: MassMatrix, b: BranchingData,
            md: ModularData) -> dict:
    idx = chiral_indices(md, Z)
    counts = sector_counts(Z, b)
    return {
        "name": name,
        "level": k,
        "Z": Z.Z.tolist(),
        "bPlus": b.b_plus.tolist(),
        "bMinus": b.b_minus.tolist(),
        "w": float(f"{idx.w:.12g}"),
        "wPlus": float(f"{idx.w_plus:.12g}"),
        "w0": float(f"{idx.w_zero:.12g}"),
        "counts": {"mm": counts.mm, "mn": counts.mn,
                   "chiral": counts.chiral, "ambi": counts.ambi},
    }


def table_csv_rows(rows):
    return [(r.name, r.level, r.mm, r.mn, r.chiral, r.ambi, r.gamma01) for r in rows]
