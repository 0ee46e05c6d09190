"""Exact commutant search for non-negative integer modular invariants.

A mass matrix is an integer matrix Z >= 0 with Z[0,0] = 1 commuting with S
and T.  The commutant of {S, T} is computed as a rational matrix space in
reduced echelon form; lattice points inside it are enumerated by a bounded
depth-first search over the echelon coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    ASSERT_TOL,
    ROUND_TOL,
    DegenerateDataError,
    FusionRing,
    ModularData,
    sun_modular_data,
    sun_label_index,
)

COMMUTE_TOL = 1e-8
SVD_TOL = 1e-8
MAX_DENOMINATOR = 10 ** 6
DEFAULT_NODE_BUDGET = 10 ** 8


class RationalReconstructionError(ValueError):
    """A float in the echelon basis has no small-denominator rational nearby."""


class UnmatchedDiagonalError(ValueError):
    """An enumerated invariant's diagonal matches no A-D-E exponent multiset."""


class CriterionInconsistencyError(AssertionError):
    """The three equivalent permutation-invariant conditions disagreed."""


@dataclass(frozen=True)
class MassMatrix:
    """A modular invariant candidate: non-negative integer matrix with Z[0,0]=1."""

    Z: np.ndarray

    def __post_init__(self):
        Z = np.asarray(self.Z)
        if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
            raise ValueError("Z must be square")
        if Z.dtype.kind not in "iu":
            raise ValueError("Z must be an integer matrix")
        if Z.min() < 0 or Z[0, 0] != 1:
            raise ValueError("Z must be non-negative with Z[0,0] = 1")
        self.Z.setflags(write=False)

    @property
    def size(self) -> int:
        return self.Z.shape[0]

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(int(x) for x in np.diag(self.Z))

    @property
    def sum_of_squares(self) -> int:
        return int((self.Z.astype(np.int64) ** 2).sum())

    def key(self) -> tuple:
        return tuple(int(x) for x in self.Z.reshape(-1))

    def __eq__(self, other):
        return isinstance(other, MassMatrix) and np.array_equal(self.Z, other.Z)

    def __hash__(self):
        return hash(self.key())


@dataclass(frozen=True)
class CommutantBasis:
    """Echelon basis of the real solution space of [S,X] = [T,X] = 0.

    ``exact`` holds the rational matrices; ``approx`` their float images.
    Pivot positions are row-major indices into the flattened matrix; the
    basis is in reduced echelon form, so any commutant element X satisfies
    X.flat[pivots[i]] = coefficient_i.
    """

    exact: tuple       # tuple of tuples of Fraction, each of length L*L
    approx: np.ndarray  # dim x L x L float
    pivots: tuple[int, ...]
    size: int

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def matrices(self) -> np.ndarray:
        return self.approx


def _t_support(md: ModularData, tol: float = 1e-12):
    """Positions (i, j) allowed by [T, X] = 0, i.e. with equal T phases."""
    t = np.diag(md.T)
    L = md.size
    return [(i, j) for i in range(L) for j in range(L) if abs(t[i] - t[j]) < tol]


def commutant_basis(md: ModularData) -> CommutantBasis:
    """Solve [S,X] = [T,X] = 0 over the reals and return a rational echelon basis.

    T is diagonal, so X vanishes outside pairs with equal T phases; on that
    support the S commutation is solved by an SVD nullspace (threshold 1e-8),
    followed by reduced row echelon form over row-major pivots and rational
    reconstruction with denominators <= 10^6.
    """
    if md.degenerate:
        raise DegenerateDataError(
            f"braiding is degenerate (unitarity residual {md.unitarity_residual:.2e}); "
            "modular invariant search requires a non-degenerate S")
    L = md.size
    support = _t_support(md)
    m = len(support)
    # rows: entries of SX - XS as X ranges over the support basis
    A = np.zeros((L * L, m), dtype=complex)
    S = md.S
    for c, (i, j) in enumerate(support):
        A[np.arange(L) * L + j, c] += S[:, i]
        A[i * L + np.arange(L), c] -= S[j, :]
    Areal = np.vstack([A.real, A.imag])
    _, sv, vt = np.linalg.svd(Areal, full_matrices=True)
    rank = int(np.sum(sv > SVD_TOL * max(1.0, sv[0] if sv.size else 0.0)))
    null = vt[rank:]
    dim = null.shape[0]
    if dim == 0:
        raise ValueError("empty commutant (no identity found); S/T data inconsistent")

    # reduced row echelon over floats, pivots in row-major position order
    B = np.zeros((dim, L * L))
    for r in range(dim):
        for c, p in enumerate(support):
            B[r, p[0] * L + p[1]] = null[r, c]
    pivots = []
    r = 0
    for col in range(L * L):
        if r >= dim:
            break
        piv = int(np.argmax(np.abs(B[r:, col]))) + r
        if abs(B[piv, col]) < 1e-7:
            continue
        B[[r, piv]] = B[[piv, r]]
        B[r] /= B[r, col]
        for rr in range(dim):
            if rr != r:
                B[rr] -= B[rr, col] * B[r]
        pivots.append(col)
        r += 1

    exact_rows = []
    for row in B:
        rats = []
        for x in row:
            f = Fraction(float(x)).limit_denominator(MAX_DENOMINATOR)
            if abs(float(f) - float(x)) > 1e-6:
                raise RationalReconstructionError(
                    f"no rational with denominator <= {MAX_DENOMINATOR} near {float(x)!r}")
            rats.append(f)
        exact_rows.append(tuple(rats))
    approx = np.array([[float(f) for f in row] for row in exact_rows]).reshape(dim, L, L)
    for X in approx:
        if max(np.max(np.abs(S @ X - X @ S)), np.max(np.abs(md.T @ X - X @ md.T))) > COMMUTE_TOL:
            raise RationalReconstructionError("rationalized basis element fails to commute")
    return CommutantBasis(exact=tuple(exact_rows), approx=approx,
                          pivots=tuple(pivots), size=L)


class InvariantList(list):
    """List of MassMatrix results carrying enumeration bookkeeping."""

    def __init__(self, items=(), complete=True, nodes=0):
        super().__init__(items)
        self.complete = complete
        self.nodes = nodes


def enumerate_invariants(md: ModularData, budget: int = DEFAULT_NODE_BUDGET) -> InvariantList:
    """All mass matrices in the commutant: integer entries >= 0, Z[0,0] = 1.

    Enumeration runs over integer coordinates of the echelon basis, most
    constrained pivot first; each pivot coordinate equals the Z entry at the
    pivot position, bounded by d_a * d_b there.  The bound is a consequence of
    commutation with S evaluated against the Perron-Frobenius row; it is used
    for pruning and re-verified a posteriori on every result.  Exceeding the
    node budget yields a truthfully flagged incomplete result.
    """
    basis = commutant_basis(md)
    L = md.size
    dim = basis.dim
    d = md.dims
    bound = np.outer(d, d).reshape(-1)
    # most-constrained pivot first, ties by row-major position
    order = sorted(range(dim), key=lambda i: (bound[basis.pivots[i]], basis.pivots[i]))
    mats = basis.approx.reshape(dim, L * L)
    results = []
    nodes = 0
    complete = True
    coeffs = np.zeros(dim)

    def leaf():
        Z = coeffs @ mats
        Zr = np.round(Z)
        if np.max(np.abs(Z - Zr)) >= ROUND_TOL:
            return
        if Zr.min() < 0:
            return
        Zi = Zr.astype(int).reshape(L, L)
        if Zi[0, 0] != 1:
            return
        results.append(MassMatrix(Zi))

    def dfs(idx):
        nonlocal nodes, complete
        if not complete:
            return
        if idx == dim:
            leaf()
            return
        i = order[idx]
        p = basis.pivots[i]
        hi = int(math.floor(bound[p] + ROUND_TOL))
        lo = 0
        if p == 0:
            # vacuum normalization pins the (0,0) pivot; the entry bound
            # there is exactly 1, so this is also the fallback root bound
            lo = hi = 1
        for c in range(lo, hi + 1):
            nodes += 1
            if nodes > budget:
                complete = False
                return
            coeffs[i] = c
            dfs(idx + 1)
        coeffs[i] = 0.0

    dfs(0)
    uniq = sorted({Z.key(): Z for Z in results}.values(), key=MassMatrix.key)
    out = InvariantList(uniq, complete=complete, nodes=nodes)
    for Z in out:
        if not verify_invariant(md, Z).ok:
            raise AssertionError("enumerated matrix fails invariant verification")
        if np.max(Z.Z - np.outer(d, d)) > ROUND_TOL:
            raise AssertionError("entry bound violated a posteriori; search unsound")
    return out


@dataclass(frozen=True)
class InvariantReport:
    commutes_s: float
    commutes_t: float
    non_negative: bool
    vacuum_normalized: bool
    vacuum_row_residual: float  # | sum d Z[:,0] - sum Z[0,:] d |

    tol: float = COMMUTE_TOL

    @property
    def ok(self) -> bool:
        return (self.non_negative and self.vacuum_normalized
                and max(self.commutes_s, self.commutes_t) < self.tol
                and self.vacuum_row_residual < ASSERT_TOL * 100)


def verify_invariant(md: ModularData, Z: MassMatrix) -> InvariantReport:
    """Commutation residuals, positivity, normalization and the vacuum-row identity."""
    M = Z.Z
    if M.shape[0] != md.size:
        raise ValueError("shape mismatch between Z and modular data")
    d = md.dims
    return InvariantReport(
        commutes_s=float(np.max(np.abs(md.S @ M - M @ md.S))),
        commutes_t=float(np.max(np.abs(md.T @ M - M @ md.T))),
        non_negative=bool(M.min() >= 0),
        vacuum_normalized=bool(M[0, 0] == 1),
        vacuum_row_residual=float(abs(d @ M[:, 0] - M[0, :] @ d)),
    )


@dataclass(frozen=True)
class PermutationVerdict:
    zero_row_trivial: bool   # Z[0, :] = delta
    zero_column_trivial: bool  # Z[:, 0] = delta
    is_permutation: bool
    permutation: tuple[int, ...] | None
    is_fusion_automorphism: bool | None


def permutation_criterion(ring: FusionRing, Z: MassMatrix) -> PermutationVerdict:
    """Classify Z by the three equivalent permutation-invariant conditions.

    The conditions (trivial zero row, trivial zero column, Z a permutation
    induced by a fusion automorphism fixing 0) must hold or fail together;
    disagreement signals an implementation bug and raises.
    """
    M = Z.Z
    L = Z.size
    e0 = np.zeros(L, dtype=int)
    e0[0] = 1
    c1 = bool(np.array_equal(M[0, :], e0))
    c2 = bool(np.array_equal(M[:, 0], e0))
    perm = None
    is_auto = None
    c3 = False
    if np.array_equal(np.sort(M.sum(axis=0)), np.ones(L, dtype=M.dtype)) and \
       np.array_equal(np.sort(M.sum(axis=1)), np.ones(L, dtype=M.dtype)):
        # Z[l, m] = delta(l, pi(m))
        pi = tuple(int(np.argmax(M[:, mu])) for mu in range(L))
        c3 = pi[0] == 0
        if c3:
            perm = pi
            p = np.array(pi)
            is_auto = bool(np.array_equal(ring.N[np.ix_(p, p, p)], ring.N))
            c3 = is_auto
    if not (c1 == c2 == c3):
        raise CriterionInconsistencyError(
            f"permutation conditions disagree: row={c1} column={c2} matrix={c3}")
    return PermutationVerdict(
        zero_row_trivial=c1,
        zero_column_trivial=c2,
        is_permutation=c3,
        permutation=perm,
        is_fusion_automorphism=is_auto,
    )


# ---------------------------------------------------------------------------
# The SU(2) classification as branching pairs, and the A-D-E naming of results

class BranchingError(ValueError):
    """An unknown branching case, or one asked for at a level where it does not exist."""


SU2_E_LEVELS = {"E6": 10, "E7": 16, "E8": 28}

# Ambichiral rows (label, b+ support, b- support) of the exceptional cases;
# a row without a b- support has b- = b+ there.
SU2_E_ROWS = {
    "E6": (("id", (0, 6)), ("a3", (3, 7)), ("a4", (4, 10))),
    "E7": (("id", (0, 16)), ("a2+", (2, 14), (8,)), ("a4+", (4, 12)), ("a6+", (6, 10)),
           ("delta", (8,)), ("a2-", (8,), (2, 14))),
    "E8": (("id", (0, 10, 18, 28)), ("tau", (6, 12, 16, 22))),
}


def su2_branching(case: str, k: int) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Ambichiral labels and branching matrices (b+, b-) of an SU(2)_k case.

    case is one of A, D_even, D_odd, E6, E7, E8; rows are ambichiral
    sectors, columns spins, and the invariant is Z = b+^t b-.  Type I cases
    have one row per block of Z with b+ = b- (the middle spin-k/2 block of
    D_even splits into two rows); D_odd is the permutation case b+ = 1,
    b- = pi; E7 mixes an honest ambichiral sextet.
    """
    L = k + 1
    if case == "A":
        return tuple(f"a{j}" for j in range(L)), np.eye(L, dtype=int), np.eye(L, dtype=int)
    if case == "D_odd":
        if k % 4 != 2:
            raise BranchingError("D_odd requires level 2 mod 4")
        # the even spins and the middle odd spin k/2 stay, the rest mirror to k - j
        pi = [j if j % 2 == 0 or 2 * j == k else k - j for j in range(L)]
        return tuple(f"a{j}" for j in range(L)), np.eye(L, dtype=int), np.eye(L, dtype=int)[pi]
    if case == "D_even":
        if k % 4 != 0:
            raise BranchingError("D_even requires level 0 mod 4")
        half = k // 2
        rows = tuple((f"a{j}", (j, k - j)) for j in range(0, half, 2)) + \
            (("delta", (half,)), ("delta'", (half,)))
    elif case in SU2_E_ROWS:
        if k != SU2_E_LEVELS[case]:
            raise BranchingError(f"{case} requires level {SU2_E_LEVELS[case]}")
        rows = SU2_E_ROWS[case]
    else:
        raise BranchingError(f"unknown case {case!r}")
    b = np.zeros((2, len(rows), L), dtype=int)
    for t, row in enumerate(rows):
        b[0, t, list(row[1])] = 1
        b[1, t, list(row[-1])] = 1
    return tuple(row[0] for row in rows), b[0], b[1]


def su2_diagrams(k: int) -> list[tuple[str, str]]:
    """(diagram name, branching case) of every SU(2)_k invariant, in A-D-E order."""
    out = [(f"A{k + 1}", "A")]
    if k % 2 == 0 and k >= 4:  # the D series starts at D4 (D3 is A3)
        out.append((f"D{k // 2 + 2}", "D_even" if k % 4 == 0 else "D_odd"))
    return out + [(name, name) for name, level in SU2_E_LEVELS.items() if level == k]


def diagram_case(name: str) -> tuple[str, int]:
    """(branching case, level k) of an A-D-E diagram; its Coxeter number is k + 2."""
    num = int(name[1:]) if name[1:].isdigit() else 0
    k = SU2_E_LEVELS.get(name, {"A": num - 1, "D": 2 * num - 4}.get(name[:1], -1))
    cases = dict(su2_diagrams(k)) if k >= 0 else {}
    if name not in cases:
        raise ValueError(f"unknown diagram name {name!r}")
    return cases[name], k


def case_of_invariant(name: str, k: int) -> str:
    """Map a catalog name (A17, D10, E7, ...) at level k to its branching case."""
    cases = dict(su2_diagrams(k))
    if name not in cases:
        raise BranchingError(f"no invariant {name!r} at level {k}")
    return cases[name]


def _diagonal(case: str, k: int) -> np.ndarray:
    # diag(b+^t b-)[j] = sum_t b+[t, j] b-[t, j], without the L x L product
    _, b_plus, b_minus = su2_branching(case, k)
    return (b_plus * b_minus).sum(axis=0)


def su2_invariant_matrix(case: str, k: int) -> MassMatrix:
    """The SU(2)_k mass matrix Z = b+^t b- of a branching case.

    "D" picks D_even at levels 0 mod 4 and D_odd at levels 2 mod 4; the E
    cases live at their exceptional levels SU2_E_LEVELS.
    """
    if case == "D":
        if k % 2:
            raise BranchingError("D invariants exist at even levels only")
        case = "D_even" if k % 4 == 0 else "D_odd"
    _, b_plus, b_minus = su2_branching(case, k)
    return MassMatrix(b_plus.T @ b_minus)


def ade_exponent_multiset(name: str) -> tuple[int, ...]:
    """Exponents (spin labels, with multiplicity) of the named A-D-E diagram.

    They are the diagonal of the diagram's invariant: spin j appears
    Z[j, j] times.
    """
    diag = _diagonal(*diagram_case(name))
    return tuple(j for j, m in enumerate(diag.tolist()) for _ in range(m))


@dataclass(frozen=True)
class NamedInvariant:
    name: str
    Z: MassMatrix


def name_su2_invariant(k: int, Z: MassMatrix) -> str | None:
    """Diagram name whose exponent multiset matches the invariant's diagonal."""
    for name, case in su2_diagrams(k):
        if tuple(_diagonal(case, k).tolist()) == Z.diagonal:
            return name
    return None


def su2_ade_catalog(k: int, budget: int = DEFAULT_NODE_BUDGET) -> list[NamedInvariant]:
    """Enumerate SU(2)_k invariants and name each by its diagonal exponent multiset.

    The diagonal of an invariant is the eigenvalue-multiplicity vector of the
    A-D-E diagram with Coxeter number k + 2; an unmatched diagonal raises.
    """
    from .core import su2_modular_data

    md = su2_modular_data(k)
    found = enumerate_invariants(md, budget=budget)
    if not found.complete:
        raise RuntimeError(f"enumeration exceeded node budget at level {k}")
    out = []
    for Z in found:
        name = name_su2_invariant(k, Z)
        if name is None:
            raise UnmatchedDiagonalError(
                f"level {k}: diagonal {Z.diagonal} matches no A-D-E diagram with h={k + 2}")
        out.append(NamedInvariant(name=name, Z=Z))
    out.sort(key=lambda ni: ("ADE".index(ni.name[0]), ni.name))
    return out


# ---------------------------------------------------------------------------
# The two printed SU(3) conformal-inclusion invariants

SU3_D6_BLOCKS = ([[(0, 0), (3, 0), (3, 3)]], [(2, 1)])
SU3_E8_BLOCKS = [
    [(0, 0), (4, 2)], [(2, 0), (5, 3)], [(2, 2), (5, 2)],
    [(3, 0), (3, 3)], [(3, 1), (5, 5)], [(3, 2), (5, 0)],
]


def su3_named_invariants() -> list[tuple[int, MassMatrix, str]]:
    """The orbifold invariant at level 3 and the exceptional one at level 5.

    Both are stored as block data over the partition labels (m, n); the level
    3 matrix carries the entry 3 on the self-conjugate label (2, 1).
    """
    md3 = sun_modular_data(3, 3)
    L3 = md3.size
    Z3 = np.zeros((L3, L3), dtype=int)
    for block in SU3_D6_BLOCKS[0]:
        idx = [sun_label_index(md3, p) for p in block]
        for a in idx:
            for b in idx:
                Z3[a, b] = 1
    a21 = sun_label_index(md3, (2, 1))
    Z3[a21, a21] = 3

    md5 = sun_modular_data(3, 5)
    L5 = md5.size
    Z5 = np.zeros((L5, L5), dtype=int)
    for block in SU3_E8_BLOCKS:
        idx = [sun_label_index(md5, p) for p in block]
        for a in idx:
            for b in idx:
                Z5[a, b] = 1
    return [(3, MassMatrix(Z3), "D(6)"), (5, MassMatrix(Z5), "E(8)")]
