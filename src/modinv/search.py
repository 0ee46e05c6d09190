"""Exact commutant search for non-negative integer modular invariants.

A mass matrix is an integer matrix Z >= 0 with Z[0,0] = 1 commuting with S
and T.  The search runs in the commutant of {S, T} intersected with the span
of W, the Galois orbit columns of commutant_basis, which holds every mass
matrix by the Galois theorem of core.galois_action (W = I on data without
partitions).  That space is the eigenvalue-1 eigenspace of one small real
symmetric matrix W^t M W, where 2 (I - M) is the Gram matrix of the
commutation map on the T-support; it is lifted by W, brought to reduced
echelon form, rationalized entry by entry (rint where the nearest integer is
provably the closest small fraction) and stored as integer matrices over one
common denominator; lattice points inside it are enumerated by a bounded
depth-first search over the echelon coordinates that skips every subtree
whose largest possible leaf has a negative entry, with an exact integer test
at every leaf.

The module also holds the SU(2) classification as a table of branching
pairs (b+, b-), one per A-D-E case, and the A-D-E diagrams: each
``AdeGraph`` carries its pair, and its invariant Z = b+^t b- and its
exponents are read off that pair.  ``su2_ade_catalog`` returns the diagram
of each enumerated invariant after checking Z = b+^t b- exactly.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .core import (COMMUTE_TOL, FIXED_SPACE_TOL, MAX_DENOMINATOR, PHASE_TOL, PIVOT_TOL,
                   ROUND_TOL, VACUUM_ROW_TOL, ModularData, UsageError, _require_unitary,
                   su2_level)

DEFAULT_NODE_BUDGET = 10 ** 8


@dataclass(frozen=True)
class MassMatrix:
    """A modular invariant candidate: non-negative integer matrix with Z[0,0]=1."""

    Z: np.ndarray

    def __post_init__(self):
        Z = np.asarray(self.Z)
        object.__setattr__(self, "Z", Z)  # a nested list is checked and kept as its array
        if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
            raise ValueError("Z must be square")
        if Z.dtype.kind not in "iu":
            raise ValueError("Z must be an integer matrix")
        if Z.min() < 0 or Z[0, 0] != 1:
            raise ValueError("Z must be non-negative with Z[0,0] = 1")
        Z.setflags(write=False)

    @property
    def size(self) -> int:
        return self.Z.shape[0]

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(np.diag(self.Z).tolist())

    @property
    def sum_of_squares(self) -> int:
        return int((self.Z.astype(np.int64) ** 2).sum())

    def key(self) -> tuple:
        return tuple(self.Z.ravel().tolist())

    def __eq__(self, other):
        return isinstance(other, MassMatrix) and np.array_equal(self.Z, other.Z)

    def __hash__(self):
        return hash(self.key())


@dataclass(frozen=True, eq=False)
class CommutantBasis:
    """Integer echelon basis of the real solutions X of [S,X] = [T,X] = 0 in
    the span of W, the Galois orbit columns of _orbit_columns.

    On SU(n)_k data that is the part of the commutant that vanishes at the
    parity zeros and is constant on each Galois orbit of the kept
    positions; it holds every invariant Z >= 0 (the theorem of
    _orbit_columns).  On data without partitions W = I, and it is the whole
    commutant.

    The i-th basis matrix is E[i] / denominator, one common denominator for
    all.  Pivot positions are row-major indices into the flattened matrix;
    the basis is in reduced echelon form, E[i].flat[pivots[j]] = denominator
    * delta_ij, so an element X of the space is sum_i X.flat[pivots[i]] E[i] /
    denominator.
    """

    E: np.ndarray  # dim x L x L int64
    denominator: int
    pivots: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.pivots)


def _commutator_residuals(md: ModularData, X: np.ndarray) -> tuple[float, float]:
    """max |SX - XS| and max |TX - XT|; T is diagonal, so TX - XT = (t_i - t_j) X_ij.

    X is one L x L matrix or a stack of them; the maxima run over the stack.
    """
    t = np.diag(md.T)
    return (float(np.max(np.abs(md.S @ X - X @ md.S))),
            float(np.max(np.abs((t[:, None] - t[None, :]) * X))))


def _t_support(md: ModularData) -> tuple[np.ndarray, np.ndarray]:
    """Row-major positions (i, j) allowed by [T, X] = 0, i.e. with equal T phases."""
    t = np.diag(md.T)
    return np.nonzero(np.abs(t[:, None] - t[None, :]) < PHASE_TOL)


def _orbit_columns(md: ModularData) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(I, J, W): the kept positions (I[p], J[p]) in row-major order and
    the m x q matrix W whose column o is the indicator of the o-th Galois
    orbit of the kept positions over the square root of its size, the
    orbits in the order of their first position.

    On SU(n)_k data the kept positions are _t_support minus the parity
    zeros, the (i, j) with eps_l(i) != eps_l(j) for some l, and the orbit of
    (i, j) is {(sigma_l i, sigma_l j)} over all l.  The sigma_l form a
    group, so the least row-major index of an orbit names it; the kept
    positions are a union of orbits, so it is a kept position.

    Theorem: every Z >= 0 that commutes with S and T lies in the span of
    W.  By core.galois_action, Z[sigma_l i, sigma_l j] = eps_l(i) eps_l(j)
    Z[i, j] for every l.  Both entries are >= 0, so Z vanishes where
    eps_l(i) != eps_l(j) (Gannon's parity rule), and at a kept position
    eps_l(i) eps_l(j) = 1, so Z is constant on each orbit.  Data without
    partitions keeps _t_support, each position its own orbit: W = I.
    """
    I, J = _t_support(md)
    if md.galois is None:
        return I, J, np.eye(len(I))
    sigma, eps = md.galois
    keep = (eps[:, I] == eps[:, J]).all(axis=0)
    I, J = I[keep], J[keep]
    first = (sigma[:, I] * md.size + sigma[:, J]).min(axis=0)
    orbit = np.searchsorted(first[first == I * md.size + J], first)
    size = np.bincount(orbit)
    W = np.zeros((len(I), len(size)))
    W[np.arange(len(I)), orbit] = 1.0 / np.sqrt(size[orbit])
    return I, J, W


def _fixed_space_matrix(md: ModularData, I: np.ndarray, J: np.ndarray) -> np.ndarray:
    """The m x m matrix M whose eigenvalue-1 eigenspace is the commutant on the positions (I, J).

    Let A be the real stacked 2L^2 x m matrix of X -> SX - XS on the unit
    matrices at the positions (I, J), and K = Re(S[I,I] o conj S[J,J])
    with o the entrywise product.  For a unitary S, A^t A = 2 (I - M) with
    M = (K + K^t) / 2, so A v = 0 iff M v = v; a symmetric S has M = K.
    """
    K = (md.S[np.ix_(I, I)] * md.S[np.ix_(J, J)].conj()).real
    return (K + K.T) / 2


def _rationalize(x: np.ndarray) -> tuple[np.ndarray, int]:
    """Integers N and one denominator D, N / D the closest fraction to each entry of x.

    Closest among the fractions with denominator <= MAX_DENOMINATOR.  An
    entry within 1/(2 MAX_DENOMINATOR) of the integer n has n as that
    fraction: any other p/q with q <= MAX_DENOMINATOR lies at least 1/q >=
    1/MAX_DENOMINATOR from n, so farther from the entry.  Only the other
    entries go through Fraction.limit_denominator, which returns that
    fraction; each must lie within ROUND_TOL of the entry.
    """
    n = np.rint(x)
    # x - n is exact (Sterbenz), and rounding the product is monotone, so this
    # tests |x - n| < 1/(2 MAX_DENOMINATOR) exactly
    far = np.flatnonzero(np.abs(x - n) * (2 * MAX_DENOMINATOR) >= 1)
    rats = []
    for v in x.flat[far].tolist():
        f = Fraction(v).limit_denominator(MAX_DENOMINATOR)
        if abs(float(f) - v) > ROUND_TOL:
            raise ValueError(
                f"no rational with denominator <= {MAX_DENOMINATOR} near {v!r}")
        rats.append(f)
    D = math.lcm(1, *(f.denominator for f in rats))
    if D * (np.abs(x).max(initial=0.0) + 1) >= 2 ** 63:
        raise ValueError("rational basis too large for int64 numerators")
    N = n.astype(np.int64) * D
    N.flat[far] = [f.numerator * (D // f.denominator) for f in rats]
    return N, D


def commutant_basis(md: ModularData) -> CommutantBasis:
    """An integer echelon basis of the real solutions of [S,X] = [T,X] = 0
    in the span of W, the Galois orbit columns of _orbit_columns.

    That space is the commutant intersected with the span of W: on SU(n)_k
    data the commutant elements that vanish at the parity zeros and are
    constant on each Galois orbit, which include every invariant Z >= 0
    (the theorem of _orbit_columns); on other data, W = I, the whole
    commutant.  With M of _fixed_space_matrix on the m kept positions, A W
    y = 0 iff W^t M W y = y, since W has orthonormal columns and A^t A =
    2 (I - M); so the space is the eigenvalue-1 eigenspace of the real
    symmetric q x q matrix W^t M W, taken at 1 - lambda <= FIXED_SPACE_TOL
    and lifted by W.  It is brought to reduced row echelon form over the
    kept columns in row-major order, rationalized with denominators <=
    MAX_DENOMINATOR by _rationalize and scaled by their common denominator.
    The reduced echelon form of a subspace is unique, so the result does
    not depend on the eigenbasis eigh returns.
    """
    _require_unitary(md)
    L = md.size
    I, J, W = _orbit_columns(md)
    m = len(I)
    lam, vecs = np.linalg.eigh(W.T @ _fixed_space_matrix(md, I, J) @ W)
    # eigenvalues ascend, so the fixed space is spanned by the last dim vectors
    dim = int(np.count_nonzero(1.0 - lam <= FIXED_SPACE_TOL))
    if dim == 0:
        raise ValueError("empty commutant (no identity found); S/T data inconsistent")

    # reduced row echelon over floats on the kept columns, which are in
    # row-major order; every entry off them is exactly zero
    B = (W @ vecs[:, len(lam) - dim:]).T.copy()
    pivots = []
    r = 0
    for col in range(m):
        if r >= dim:
            break
        piv = int(np.argmax(np.abs(B[r:, col]))) + r
        if abs(B[piv, col]) < PIVOT_TOL:
            continue
        B[[r, piv]] = B[[piv, r]]
        B[r] /= B[r, col]
        f = B[:, col].copy()
        f[r] = 0.0
        B -= np.outer(f, B[r])
        pivots.append(int(I[col] * L + J[col]))
        r += 1

    N, D = _rationalize(B)
    E = np.zeros((dim, L, L), dtype=np.int64)
    E[:, I, J] = N
    if max(_commutator_residuals(md, E / D)) > COMMUTE_TOL:
        raise ValueError("rationalized basis element fails to commute")
    return CommutantBasis(E=E, denominator=D, pivots=tuple(pivots))


class InvariantList(list):
    """List of MassMatrix results carrying enumeration bookkeeping."""

    def __init__(self, items=(), complete=True, nodes=0):
        super().__init__(items)
        self.complete = complete
        self.nodes = nodes


def enumerate_invariants(md: ModularData, budget: int = DEFAULT_NODE_BUDGET) -> InvariantList:
    """All mass matrices of md: integer entries >= 0, Z[0,0] = 1, commuting with S and T.

    Completeness.  Every mass matrix lies in the space that commutant_basis
    spans, the commutant intersected with the span of the Galois orbit
    columns W, by the theorem of _orbit_columns: it vanishes at the parity
    zeros and is constant on each Galois orbit (W = I, the whole commutant,
    on data without partitions).  So the lattice points of that basis,
    enumerated below, are all of them.

    Enumeration runs over integer coordinates of the echelon basis, most
    constrained pivot first; each pivot coordinate equals the Z entry at the
    pivot position, so it lies in [lb_j, ub_j] with lb_j = 0 and ub_j = d_a
    * d_b there (lb_j = ub_j = 1 at the vacuum pivot (0,0)).  The upper bound
    is a consequence of commutation with S evaluated against the
    Perron-Frobenius row; it is re-verified a posteriori on every result.

    Pruning theorem.  Let P = sum of c_j E_j over the coordinates fixed above
    a node and U[idx] = sum over j >= idx of max(lb_j E_j, ub_j E_j), taken
    entrywise over the search order.  Every leaf below the child c at depth
    idx has D Z = P + c E_idx + sum_{j > idx} c_j E_j with c_j in [lb_j,
    ub_j], and c_j E_j[p] <= max(lb_j E_j[p], ub_j E_j[p]), so D Z[p] <=
    P[p] + c E_idx[p] + U[idx + 1][p].  An invariant has D Z >= 0, so the
    child is skipped when any entry of that bound is negative: no invariant
    lies below it.  Every child tried counts as one node, pruned or not;
    exceeding the node budget yields a truthfully flagged incomplete result,
    and a budget below 1 is a UsageError.
    """
    if budget < 1:
        raise UsageError(f"node budget must be positive: {budget}")
    basis = commutant_basis(md)
    L = md.size
    dim = basis.dim
    d = md.dims
    bound = np.outer(d, d).reshape(-1)
    # most-constrained pivot first, ties by row-major position
    order = sorted(range(dim), key=lambda i: (bound[basis.pivots[i]], basis.pivots[i]))
    pivots = [basis.pivots[i] for i in order]
    E = basis.E.reshape(dim, L * L)[order]
    D = basis.denominator
    # a leaf sums dim terms c_i E_i with 0 <= c_i <= bound; int64 must hold
    # them exactly, and so every partial sum and every suffix bound U
    if dim * (int(bound.max()) + 1) * int(np.abs(E).max()) >= 2 ** 63:
        raise ValueError("integer echelon basis too large for an int64 search")
    # vacuum normalization pins the (0,0) pivot; the entry bound there is
    # exactly 1, so this is also the fallback root bound
    hi = [1 if p == 0 else int(math.floor(bound[p] + ROUND_TOL)) for p in pivots]
    lo = [1 if p == 0 else 0 for p in pivots]
    U = np.zeros((dim + 1, L * L), dtype=np.int64)
    for idx in range(dim - 1, -1, -1):
        U[idx] = U[idx + 1] + np.maximum(lo[idx] * E[idx], hi[idx] * E[idx])
    results = []
    nodes = 0
    complete = True

    def dfs(idx, P):
        # P = sum of c_j E_j over the coordinates fixed so far
        nonlocal nodes, complete
        if idx == dim:
            # Z is an integer matrix iff D divides every entry
            if P[0] == D and P.min() >= 0 and not (P % D).any():
                results.append(MassMatrix((P // D).reshape(L, L)))
            return
        for c in range(lo[idx], hi[idx] + 1):
            nodes += 1
            if nodes > budget:
                complete = False
                return
            child = P + c * E[idx]
            if (child + U[idx + 1]).min() < 0:
                continue
            dfs(idx + 1, child)
            if not complete:
                return

    dfs(0, np.zeros(L * L, dtype=np.int64))
    # no duplicates: in reduced echelon form Z[pivot_j] = c_j, so two leaves,
    # which differ in some coordinate c_j, differ in Z; the sort by key makes
    # the order byte-stable
    out = InvariantList(sorted(results, key=MassMatrix.key), complete=complete, nodes=nodes)
    if out:
        if not verify_invariant(md, *out).ok:
            raise AssertionError("enumerated matrix fails invariant verification")
        if np.max(np.stack([Z.Z for Z in out]) - np.outer(d, d)) > ROUND_TOL:
            raise AssertionError("entry bound violated a posteriori; search unsound")
    return out


@dataclass(frozen=True)
class InvariantReport:
    commutes_s: float
    commutes_t: float
    vacuum_row_residual: float  # | sum d Z[:,0] - sum Z[0,:] d |

    @property
    def ok(self) -> bool:
        return (max(self.commutes_s, self.commutes_t) < COMMUTE_TOL
                and self.vacuum_row_residual < VACUUM_ROW_TOL)


def verify_invariant(md: ModularData, *Zs: MassMatrix) -> InvariantReport:
    """Commutation residuals and the vacuum-row identity, each the maximum
    over the mass matrices Zs, which are checked as one stack.

    Positivity and Z[0, 0] = 1 are not checked here: MassMatrix refuses any
    Z without them, and its array is read-only.
    """
    for Z in Zs:
        if Z.size != md.size:
            raise ValueError("shape mismatch between Z and modular data")
    M = np.stack([Z.Z for Z in Zs])
    # sum_l d_l (Z[l, 0] - Z[0, l]): the exact integer difference, then one product
    vacuum = np.abs((M[:, :, 0] - M[:, 0, :]) @ md.dims).max()
    return InvariantReport(*_commutator_residuals(md, M), vacuum_row_residual=float(vacuum))


def fusion_automorphism(row: Callable[[int], np.ndarray], generators, perm) -> bool:
    """Whether perm, a permutation of the labels with perm[0] = 0, is a fusion
    automorphism, N[perm a, perm b, perm c] = N[a, b, c], of the ring whose
    matrix N_a[b, c] = N[a, b, c] is row(a) and whose right-nested products of
    ``generators`` span it: the fundamental weights of SU(n)_k, whose rows
    are the Pieri rule (core.pieri_rows), or core.generating_labels of any
    other ring.

    Theorem (the generator lemma of core.associative).  Let the ring be
    commutative and associative with unit e_0, and let P be the matrix of
    perm, P[perm b, b] = 1.  perm is an automorphism iff N_{perm g} = P N_g
    P^t for every generator g.  Write phi(e_a) = e_{perm a} and L_x for
    multiplication by x, whose matrix at x = e_a is N_a.  The condition at a
    reads phi L_{e_a} phi^-1 = L_{phi e_a}, and the set of x that satisfy
    phi L_x phi^-1 = L_{phi x} is a subspace that holds e_0 (phi e_0 = e_0)
    and is closed under products: for x, y in it, phi(xy) = phi L_x y =
    L_{phi x} phi y = phi(x) phi(y), so phi L_{xy} phi^-1 = phi L_x phi^-1
    phi L_y phi^-1 = L_{phi x} L_{phi y} = L_{phi(xy)}, using L_{xy} = L_x L_y
    (associativity and commutativity).  It therefore holds every right-nested
    product of the generators, hence the whole ring.  A Verlinde ring is
    commutative and associative because one unitary S diagonalises every
    N_a, so this decides its automorphisms from the rows of the generators
    and of their images alone.
    """
    p = np.asarray(perm)
    return all(np.array_equal(row(p[g])[np.ix_(p, p)], row(g)) for g in generators)


def permutation_criterion(md: ModularData, Z: MassMatrix) -> tuple[int, ...] | None:
    """The permutation pi of Z[l, m] = delta(l, pi(m)) if Z is a permutation
    invariant, None otherwise.

    Three conditions decide it, and they must hold or fail together: a
    trivial zero row, a trivial zero column, and Z a permutation induced by
    an automorphism of the Verlinde ring of md fixing 0.  All three are
    evaluated; a disagreement signals an implementation bug and raises
    AssertionError.  The identity fixes every N[a, b, c], so it
    needs no fusion row; any other permutation is checked by
    fusion_automorphism on md.fusion_generators and md's rows of the
    generators and their images, which md builds once and keeps.  For SU(n)
    data the generators are the fundamental weights with their Pieri rows,
    and an image that is no fundamental weight has the Verlinde row, so the
    verdict compares two independent formulas.
    """
    M = Z.Z
    L = Z.size
    if L != md.size:
        raise ValueError("shape mismatch between Z and modular data")
    e0 = np.zeros(L, dtype=int)
    e0[0] = 1
    c1 = bool(np.array_equal(M[0, :], e0))
    c2 = bool(np.array_equal(M[:, 0], e0))
    perm = None
    if np.array_equal(np.sort(M.sum(axis=0)), np.ones(L, dtype=M.dtype)) and \
       np.array_equal(np.sort(M.sum(axis=1)), np.ones(L, dtype=M.dtype)):
        # Z[l, m] = delta(l, pi(m)), and pi(0) = 0 since Z[0, 0] = 1
        perm = tuple(np.argmax(M, axis=0).tolist())
        if perm != tuple(range(L)) and not fusion_automorphism(
                md.verlinde_row, md.fusion_generators, perm):
            perm = None
    c3 = perm is not None
    if not (c1 == c2 == c3):
        raise AssertionError(
            f"permutation conditions disagree: row={c1} column={c2} matrix={c3}")
    return perm


# ---------------------------------------------------------------------------
# The SU(2) classification as branching pairs, and the A-D-E naming of results

SU2_E_LEVELS = {"E6": 10, "E7": 16, "E8": 28}

# Ambichiral rows (label, b+ support, b- support) of the exceptional cases;
# a row without a b- support has b- = b+ there.
SU2_E_ROWS = {
    "E6": (("id", (0, 6)), ("a3", (3, 7)), ("a4", (4, 10))),
    "E7": (("id", (0, 16)), ("a2+", (2, 14), (8,)), ("a4+", (4, 12)), ("a6+", (6, 10)),
           ("delta", (8,)), ("a2-", (8,), (2, 14))),
    "E8": (("id", (0, 10, 18, 28)), ("tau", (6, 12, 16, 22))),
}


@dataclass(frozen=True, eq=False)
class BranchingData:
    """Ambichiral labels with the two branching matrices (rows: ambichiral)."""

    labels: tuple[str, ...]
    b_plus: np.ndarray
    b_minus: np.ndarray

    def product(self) -> np.ndarray:
        """b+^t b- by a float64 BLAS product: its entries are 0/1, so every partial
        sum is an integer of at most len(labels), held exactly."""
        return (self.b_plus.T.astype(float) @ self.b_minus).astype(int)

    @property
    def diagonal(self) -> tuple[int, ...]:
        """diag(b+^t b-), without the L x L product: spin j is an exponent of the
        case's diagram this many times."""
        return tuple((self.b_plus * self.b_minus).sum(axis=0).tolist())


def su2_branching(case: str, k: int) -> BranchingData:
    """Ambichiral labels and branching matrices (b+, b-) of an SU(2)_k case.

    case is one of A, D_even, D_odd, E6, E7, E8, each a tuple of ambichiral
    rows (label, b+ support[, b- support]), b- = b+ on a row without a b-
    support; columns are spins, and the invariant is Z = b+^t b-.  Type I
    cases have one row per block of Z with b+ = b- (the middle spin-k/2 block
    of D_even splits into two rows); D_odd is the permutation case b+ = 1,
    b- = pi; E7 mixes an honest ambichiral sextet.
    """
    L = k + 1
    if case == "A":
        rows = tuple((f"a{j}", (j,)) for j in range(L))
    elif case == "D_odd":
        if k % 4 != 2:
            raise ValueError("D_odd requires level 2 mod 4")
        # the even spins and the middle odd spin k/2 stay, the rest mirror to k - j
        rows = tuple((f"a{j}", (j,), (j if j % 2 == 0 or 2 * j == k else k - j,))
                     for j in range(L))
    elif case == "D_even":
        if k % 4 != 0:
            raise ValueError("D_even requires level 0 mod 4")
        half = k // 2
        rows = tuple((f"a{j}", (j, k - j)) for j in range(0, half, 2)) + \
            (("delta", (half,)), ("delta'", (half,)))
    elif case in SU2_E_ROWS:
        if k != SU2_E_LEVELS[case]:
            raise ValueError(f"{case} requires level {SU2_E_LEVELS[case]}")
        rows = SU2_E_ROWS[case]
    else:
        raise ValueError(f"unknown case {case!r}")
    b = np.zeros((2, len(rows), L), dtype=int)
    for side, support in enumerate((1, -1)):  # b+ from the first support, b- from the last
        b[side].flat[[t * L + j for t, row in enumerate(rows) for j in row[support]]] = 1
    return BranchingData(tuple(row[0] for row in rows), b[0], b[1])


def su2_diagrams(k: int) -> list[tuple[str, str]]:
    """(diagram name, branching case) of every SU(2)_k invariant, in A-D-E order."""
    out = [(f"A{k + 1}", "A")]
    if k % 2 == 0 and k >= 4:  # the D series starts at D4 (D3 is A3)
        out.append((f"D{k // 2 + 2}", "D_even" if k % 4 == 0 else "D_odd"))
    return out + [(name, name) for name, level in SU2_E_LEVELS.items() if level == k]


@dataclass(frozen=True, eq=False)
class AdeGraph:
    """An A-D-E Dynkin diagram with its Coxeter number and SU(2) branching pair.

    ``case`` is the SU(2) branching case of the diagram (``su2_diagrams``)
    and ``branching`` its pair (b+, b-) at level k = coxeter - 2.  The
    diagram's invariant Z = b+^t b- and its exponents are read off the pair.
    Exponents use spin labelling: value m stands for the adjacency eigenvalue
    2 cos(pi (m+1) / h), i.e. m is one less than the Coxeter exponent.
    Canonical vertex order: the spine first, its distinguished end vertex
    at index 0, and the fork or tail vertices last (the two fork tips of a
    D diagram, the short tail of an E diagram).
    """

    name: str
    case: str
    adjacency: np.ndarray
    coxeter: int
    branching: BranchingData

    @property
    def num_vertices(self) -> int:
        return self.adjacency.shape[0]

    @property
    def level(self) -> int:
        return self.coxeter - 2

    @cached_property
    def Z(self) -> MassMatrix:
        """The diagram's SU(2)_k invariant b+^t b-."""
        return MassMatrix(self.branching.product())

    @cached_property
    def exponents(self) -> tuple[int, ...]:
        """Spin j repeated Z[j, j] times, in ascending order."""
        return tuple(j for j, m in enumerate(self.branching.diagonal) for _ in range(m))


def ade_graph(name: str) -> AdeGraph:
    """Build the named diagram ("A7", "D5", "E6", ...) in canonical vertex order.

    A_n is a path on n vertices.  D_n and E_n are a path on n - 1 vertices
    with one tail vertex attached at spine vertex n - 3 (D_n) or n - 4 (E_n).
    The Coxeter number of the diagram is k + 2, and its branching case is the
    one ``su2_diagrams(k)`` lists under its name.  An unknown name, or a
    known one whose level is outside 1..SU2_LEVEL_MAX, raises UsageError.
    The result is not re-checked on each call: tests check that every diagram
    within SU2_LEVEL_MAX is a tree whose spectrum is its exponents.
    """
    kind, num = name[:1], int(name[1:]) if name[1:].isdecimal() else 0
    k = SU2_E_LEVELS.get(name, {"A": num - 1, "D": 2 * num - 4}.get(kind, -1))
    case = dict(su2_diagrams(k)).get(name) if k >= 0 else None
    if case is None:
        raise UsageError(f"unknown diagram name {name!r}")
    k = su2_level(k)
    spine = np.arange(num if kind == "A" else num - 1)
    A = np.zeros((num, num), dtype=int)
    A[spine[:-1], spine[1:]] = A[spine[1:], spine[:-1]] = 1
    if kind != "A":
        tail_at = num - 3 if kind == "D" else num - 4
        A[tail_at, num - 1] = A[num - 1, tail_at] = 1
    return AdeGraph(name=name, case=case, adjacency=A, coxeter=k + 2,
                    branching=su2_branching(case, k))


def su2_diagram_table(k: int) -> dict[tuple[int, ...], AdeGraph]:
    """Every SU(2)_k diagram by its exponent diagonal (spin j an exponent
    diag[j] times), in A-D-E order."""
    return {g.branching.diagonal: g for g in map(ade_graph, dict(su2_diagrams(k)))}


def su2_ade_catalog(md: ModularData, budget: int = DEFAULT_NODE_BUDGET) -> list[AdeGraph]:
    """The A-D-E diagram of each invariant of SU(2)_k data md, named by its diagonal.

    The diagonal of an invariant is the eigenvalue-multiplicity vector of the
    A-D-E diagram with Coxeter number k + 2; an unmatched diagonal raises,
    and so does an invariant other than its diagram's Z = b+^t b-, an exact
    integer check of the factorization.  The diagrams come in the A-D-E order
    of su2_diagram_table.
    """
    k = md.level
    found = enumerate_invariants(md, budget=budget)
    if not found.complete:
        raise RuntimeError(f"enumeration exceeded node budget at level {k}")
    table = su2_diagram_table(k)
    matched = set()
    for Z in found:
        graph = table.get(Z.diagonal)
        if graph is None:
            raise ValueError(
                f"level {k}: diagonal {Z.diagonal} matches no A-D-E diagram with h={k + 2}")
        if graph.Z != Z:
            raise ValueError(f"{graph.name} at level {k}: factorization failed")
        matched.add(graph)
    return [graph for graph in table.values() if graph in matched]
