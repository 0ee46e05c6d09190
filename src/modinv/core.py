"""Modular data (S, T, twists, quantum dimensions) and fusion rings.

Families provided: SU(2)_k and SU(n)_k Kac-Peterson data, the chiral Ising
model, and cyclic-group duals as degenerate witnesses.  All fusion
coefficients are stored as exact integers; S and T live in complex double
precision.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations, combinations_with_replacement, permutations, product

import numpy as np

# Every tolerance of the package, each with the reason for its size.
ROUND_TOL = 1e-6  # a float rounded to an integer or a small rational may be this far off
ASSERT_TOL = 1e-9  # numerical identities of S, T, dimensions and eigenvectors hold to this
VACUUM_ROW_TOL = 100 * ASSERT_TOL  # the vacuum-row identity sums L products of dimensions
PHASE_TOL = 1e-12  # two T phases this close are equal; distinct phases are far apart
FIXED_SPACE_TOL = 1e-9  # commutant directions have 1 - eigenvalue <= 4.4e-15, the next >= 0.5527
# (1 - 1/sqrt 5), by eigh and by eigvalsh over SU(2) k <= 64, SU(3) k <= 26 and SU(4) k <= 11
PIVOT_TOL = 1e-7  # an echelon pivot candidate below this is zero in exact arithmetic
COMMUTE_TOL = 1e-8  # a commutant element commutes with S and T to this
EIGEN_TOL = 1e-8  # eigenvector residual
SPECTRUM_TOL = 1e-7  # a computed eigenvalue matches its character value to this, and equal
# SU(2) characters (k <= SU2_LEVEL_MAX) differ by <= 6.0e-13, distinct ones by >= 4.56e-6
MAX_DENOMINATOR = 10 ** 6  # largest denominator tried in rational reconstruction
FLOAT_EXACT_MAX = 2 ** 53  # float64 sums of integers are exact while every partial sum is below this

SU2_LEVEL_MAX = 64
SUN_LABEL_MAX = 400
CHIRAL_TABLE_LEVEL_MAX = 32


class UsageError(ValueError):
    """An argument outside the declared limits or names (CLI exit code 2)."""


@dataclass(frozen=True)
class FusionRing:
    """The non-negative integer fusion tensor of a ring with labels 0 .. L-1.

    ``N[a, b, c]`` is the multiplicity of label c in the product a x b.  The
    conjugate of a is the one label b with N[a, b, 0] = 1.
    """

    N: np.ndarray

    def __post_init__(self):
        self.N.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.N)

    def validate(self) -> None:
        """Assert the ring axioms exactly on the integer tensor.

        ``associative`` checks the unit and commutativity before it checks
        associativity on the generators.  Every row of N[:, :, 0] summing to
        1 gives each label exactly one conjugate, since the entries are
        non-negative integers; commutativity makes the pairing symmetric.
        """
        L = self.size
        if self.N.shape != (L, L, L):
            raise ValueError("fusion tensor shape mismatch")
        if self.N.dtype.kind not in "iu" or self.N.min() < 0:
            raise ValueError("fusion coefficients must be non-negative integers")
        dual_ok = bool((self.N[:, :, 0].sum(axis=1) == 1).all())
        assoc = associative(self.N)  # raises on no unit or no commutativity, checked first
        if not dual_ok:
            raise ValueError("duality map inconsistent with vacuum couplings")
        if not assoc:
            raise ValueError("fusion tensor not associative")



def associative(N: np.ndarray, unit: int = 0) -> bool:
    """Whether the commutative fusion tensor N with unit ``unit`` is associative.

    Theorem.  Let N be commutative, N[p, q, r] = N[q, p, r], and write N_x
    for the matrix N[x].  For a label a, the identities (e_a e_b) e_i =
    e_a (e_b e_i) over all labels b, i read, at e_j, sum_c N[a, b, c]
    N[c, i, j] = sum_y N[b, i, y] N[a, y, j].  By commutativity the left
    side is (N_a N_i)[b, j] and the right side (N_i N_a)[b, j], so they
    hold iff N_a commutes with every N_x.  By the generator lemma (see
    :func:`generating_labels`) N is associative iff every label that
    function returns does.

    N[unit] = I and commutativity are checked exactly first; a tensor that
    fails either raises ValueError, since the theorem needs both.
    Commutativity is N_a = N[:, a] for each label a in turn.  The products
    are float64 BLAS products N_x N_a and N_a N_x, one label x at a time,
    and only N_a and N_x are converted, so beside N the check holds a few
    L x L arrays and no L^3 one.  Every partial sum is an integer of
    magnitude at most L max|N|^2.  Below FLOAT_EXACT_MAX float64 holds each
    of them exactly, in any summation order, so the comparison is an exact
    integer test; integer inputs beyond that bound raise ValueError.
    """
    N = np.asarray(N)
    L = len(N)
    if not np.array_equal(N[unit], np.eye(L, dtype=int)):
        raise ValueError(f"label {unit} is not a unit")
    if not all(np.array_equal(N[a], N[:, a]) for a in range(L)):
        raise ValueError("fusion tensor not commutative")
    n = max(int(N.max()), -int(N.min()))
    if L * n * n >= FLOAT_EXACT_MAX:
        raise ValueError("associativity check beyond the exact float64 range")
    for a in generating_labels(N.__getitem__, L, unit):
        Na = N[a].astype(np.float64)
        for Nx in N:
            Nx = Nx.astype(np.float64)
            if not np.array_equal(Nx @ Na, Na @ Nx):
                return False
    return True


GENERATOR_PRIME = 2 ** 27 - 39  # the largest prime below 2^27: L p^2 < 2^63 for L < 512


def generating_labels(row: Callable[[int], np.ndarray], L: int,
                      unit: int = 0) -> tuple[int, ...]:
    """Labels whose right-nested products g_1 (g_2 (... (g_n e_unit))) span the ring.

    The ring has L labels, and row(a) is the matrix N_a[b, c] = N[a, b, c]
    of its label a; only the rows of the returned labels are read.

    Generator lemma.  Let R be a commutative algebra with unit 1 = e_unit and
    products e_a e_b = sum_c N[a, b, c] e_c.  The set A = {a : (a y) x =
    a (y x) for all x, y} is a subspace, contains 1, and is closed under
    products: for a, b in A, ((ab) y) x = (a (by)) x = a ((by) x) =
    a (b (yx)) = (ab)(yx).  A subalgebra that holds every returned label
    holds every right-nested product of them, so if those span R, A = R and
    N is associative.  ``associative`` tests a in A for each returned label.

    The span is computed in int64 modulo the prime p = GENERATOR_PRIME.  The
    products have integer coordinates, and rank L modulo p means an L x L
    minor nonzero modulo p, hence nonzero over Z: the products span Q^L.
    Labels are taken greedily in index order, each one whose basis vector
    is not yet in the span.  The first is the first label a that is not the
    unit, and the span it closes with e_unit is that of the rows
    e_unit N_a^j, j < L.  When those have rank L modulo p, the greedy loop
    returns (a,), so ``_krylov_full_rank`` decides that case first with
    one elimination.  N must have the unit and be commutative, which
    ``associative`` checks first.  Each row read is kept as its int64
    residues modulo p; reduction modulo p commutes with the products, so
    the ranks are those of the integer rows.  A sum of L products of
    residues is below L p^2, and where that could overflow int64 every
    label is returned, so the check is the full one.
    """
    p = GENERATOR_PRIME
    if L * p * p >= 2 ** 63:
        return tuple(range(L))

    @cache
    def read(a: int) -> np.ndarray:  # row a, read once, as int64 residues mod p
        return (np.asarray(row(a)) % p).astype(np.int64)

    first = int(unit == 0)
    if L > 1 and _krylov_full_rank(read(first), unit):
        return (first,)
    eye = np.eye(L, dtype=np.int64)
    rows = np.empty((L, L), dtype=np.int64)  # rows[:len(pivots)]: reduced echelon basis mod p
    pivots: list[int] = []

    def extend(cands):
        # reduce the candidates by the basis, add what is left; return the new rows
        start = len(pivots)
        cands = (cands - cands[:, pivots] @ rows[:start]) % p
        while len(cands := cands[cands.any(axis=1)]):
            j = int(np.flatnonzero(cands[0])[0])
            v = cands[0] * pow(int(cands[0, j]), -1, p) % p
            r = len(pivots)
            rows[:r] = (rows[:r] - np.outer(rows[:r, j], v)) % p
            rows[r] = v
            pivots.append(j)
            cands = (cands[1:] - np.outer(cands[1:, j], v)) % p
        return rows[start:len(pivots)]

    gens: list[int] = []
    extend(eye[[unit]])
    for a in range(L):
        if len(pivots) == L:
            break
        new = extend(eye[[a]])
        if not len(new):
            continue
        gens.append(a)
        gen_rows = [read(g) for g in gens]
        # close the span under every generator: old rows times a, new rows times all
        todo = np.vstack([rows[:len(pivots) - 1] @ gen_rows[-1]]
                         + [new @ Na for Na in gen_rows]) % p
        while len(new := extend(todo)):
            todo = np.vstack([new @ Na for Na in gen_rows]) % p
    return tuple(gens)


def _krylov_full_rank(A: np.ndarray, unit: int) -> bool:
    """Whether the rows e_unit A^j, j < len(A), have full rank modulo p =
    GENERATOR_PRIME, for int64 A with entries in [0, p) and len(A) p^2 < 2^63."""
    p = GENERATOR_PRIME
    L = len(A)
    K = np.zeros((L, L), dtype=np.int64)
    K[0, unit] = 1
    for j in range(1, L):
        K[j] = K[j - 1] @ A % p
    for c in range(L):
        nonzero = K[c:, c].nonzero()[0]
        if not len(nonzero):
            return False
        if nonzero[0]:
            i = c + int(nonzero[0])
            K[[c, i]] = K[[i, c]]
        below = K[c + 1:, c:]
        below -= np.outer(below[:, 0] * pow(int(K[c, c]), -1, p) % p, K[c, c:])
        below %= p
    return True


def verlinde_sum(U: np.ndarray, base: int) -> np.ndarray:
    """X[a,b,c] = sum_m U[a,m] / U[base,m] * U[b,m] * conj(U[c,m]); Verlinde's at U = S^t.

    One einsum over the full L^3 complex tensor, for
    graph_structure_constants, whose integrality gap ``graph-algebra
    --json`` prints to the bytes this summation order gives.  The Verlinde
    ring itself is read through _verlinde_row, one GEMM per row N_a.
    """
    return np.einsum("am,bm,cm->abc", U / U[base], U, U.conj())


@dataclass(frozen=True)
class ModularData:
    """S and T matrices with twists, quantum dimensions and global index.

    ``central_charge`` is the mod-8 representative in [0, 8); only
    exp(-i pi c / 12) enters T.  ``degenerate`` is True when S fails
    unitarity, in which case S does not generate a modular representation.
    ``partitions`` holds the integer rows (a_1 >= ... >= a_{n-1} >= 0) of
    the labels of SU(n)_k data, in label order, and is None for every
    other source: Ising, group duals and JSON imports.
    """

    family: str
    level: int
    labels: tuple[str, ...]
    S: np.ndarray
    T: np.ndarray
    twists: np.ndarray
    dims: np.ndarray
    global_index: float
    central_charge: float
    partitions: np.ndarray | None = None

    def __post_init__(self):
        for arr in (self.S, self.T, self.twists, self.dims, self.partitions):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def unitarity_residual(self) -> float:
        """max |S S^H - 1|, formed once per ModularData."""
        return float(np.max(np.abs(self.S @ self.S.conj().T - np.eye(self.size))))

    @property
    def degenerate(self) -> bool:
        return self.unitarity_residual >= ASSERT_TOL

    @cached_property
    def verlinde_row(self) -> Callable[[int], np.ndarray]:
        """a -> N_a, the read-only int64 matrix N_a[b, c] = N[a, b, c] of the Verlinde ring.

        The fundamental weights of SU(n)_k data take their rows from
        fundamental_rows, by the Pieri rule; every other row is
        _verlinde_row, formed on the first call for a and kept.  No L^3 array
        is formed.  S must be unitary, which is checked here, once per
        ModularData.
        """
        _require_unitary(self)
        U = self.S.T
        rows = dict(self.fundamental_rows)

        def row(a: int) -> np.ndarray:
            a = int(a)
            if a not in rows:
                rows[a] = _verlinde_row(U, a)
                rows[a].setflags(write=False)
            return rows[a]

        return row

    @cached_property
    def fusion_generators(self) -> tuple[int, ...]:
        """Labels whose right-nested products span the Verlinde ring.

        SU(n)_k data, which carries ``partitions``, has the fundamental
        weights Lambda_1, ..., Lambda_{n-1} by theorem (see pieri_rows), and
        verlinde_row serves their Pieri rows.  Every other ModularData
        (Ising, group duals, JSON imports, whatever their ``family``) takes
        generating_labels on its Verlinde rows.
        """
        if self.partitions is not None:
            return tuple(self.fundamental_rows)
        return generating_labels(self.verlinde_row, self.size)

    @cached_property
    def fundamental_rows(self) -> dict[int, np.ndarray]:
        """pieri_rows of SU(n)_k data, built once per ModularData; empty without partitions."""
        return {} if self.partitions is None else pieri_rows(self.partitions, self.level)


def _central_charge_from_twists(twists, dims) -> float:
    """Mod-8 central charge, 4*arg(sum omega d^2)/pi mapped into [0, 8)."""
    total = np.sum(np.asarray(twists) * np.asarray(dims) ** 2)
    return float((4.0 * np.angle(total) / np.pi) % 8.0)


def su2_level(k: int) -> int:
    """k, if it is an SU(2) level in 1..SU2_LEVEL_MAX; otherwise a UsageError."""
    if not 1 <= k <= SU2_LEVEL_MAX:
        raise UsageError(f"su2 level out of range: {k}")
    return k


def su2_modular_data(k: int) -> ModularData:
    """Kac-Peterson S and T for SU(2) at level k (labels are spins 0..k).

    The label j is the partition (j,), kept as ModularData.partitions.
    """
    su2_level(k)
    j = np.arange(k + 1)
    S = np.sqrt(2.0 / (k + 2)) * np.sin(np.pi * np.outer(j + 1, j + 1) / (k + 2))
    T = np.diag(np.exp(1j * np.pi * (j + 1) ** 2 / (2 * k + 4) - 1j * np.pi / 4))
    twists = np.exp(2j * np.pi * j * (j + 2) / (4 * k + 8))
    dims = S[:, 0] / S[0, 0]
    labels = tuple(map(str, range(k + 1)))
    return ModularData(
        family="su2",
        level=k,
        labels=labels,
        S=S.astype(complex),
        T=T,
        twists=twists,
        dims=dims,
        global_index=float(dims @ dims),
        central_charge=_central_charge_from_twists(twists, dims),
        partitions=j[:, None],
    )


def su2_fusion_closed_form(k: int) -> FusionRing:
    """SU(2)_k fusion rules from the truncated angular-momentum coupling window.

    The window equals the rounded Verlinde sum of su2_modular_data at every
    level up to SU2_LEVEL_MAX (a test checks each), and the Verlinde formula
    diagonalises every N_a by the one unitary S, so the ring axioms hold and
    are not re-validated on every call.  N[a, b, c] = 1 iff |a - b| <= c <=
    min(a + b, 2k - a - b) and c has the parity of a + b; the bounds and the
    parity are L x L arrays compared against c by broadcasting, so the only
    L^3 arrays are the boolean masks and N itself.
    """
    L = su2_level(k) + 1
    a, b = np.ogrid[:L, :L]
    lo, hi = abs(a - b)[..., None], np.minimum(a + b, 2 * k - a - b)[..., None]
    parity = ((a + b) % 2)[..., None]
    c = np.arange(L)
    return FusionRing(N=((lo <= c) & (c <= hi) & (c % 2 == parity)).astype(int))


def _sun_partitions(n: int, k: int) -> np.ndarray:
    """Weakly decreasing int rows (a_1 >= ... >= a_{n-1} >= 0) with a_1 <= k, sorted."""
    return np.array(sorted(tuple(reversed(c))
                           for c in combinations_with_replacement(range(k + 1), n - 1)))


def pieri_rows(parts: np.ndarray, k: int) -> dict[int, np.ndarray]:
    """label of Lambda_j -> N_{Lambda_j}, j = 1..n-1, of SU(n)_k by the Pieri rule.

    parts holds the L integer rows (a_1 >= ... >= a_{n-1} >= 0), a_1 <= k,
    of the labels in lexicographic order, as ModularData.partitions does;
    a_n = 0.  Each row returned is a read-only int64 L x L matrix
    N_{Lambda_j}[b, c] = N[Lambda_j, b, c].

    Theorem (Pieri rule for minuscule weights; Goodman-Wenzl, Adv. Math. 82
    (1990), Kac, Infinite-dimensional Lie algebras, ch. 13).  The
    fundamental weight Lambda_j, the column of j boxes, is minuscule, so
    N[Lambda_j, b, c] = 1 iff the partition c arises from b by adding one
    box to each of j distinct rows, the result is a partition mu, and
    mu_1 - mu_n <= k; c is mu with its full columns (mu_n of them)
    removed.  Otherwise it is 0.  The fundamentals generate the
    representation ring of SU(n), and the Verlinde ring is a quotient of
    it, so their right-nested products span the Verlinde ring.

    Every 0/1 box vector with 1..n-1 ones is added to every label at once;
    a label's index is found by searchsorted on mixed-radix codes in base
    k + 1, which ascend with the lexicographic order.  No float enters.
    """
    L, n = len(parts), parts.shape[1] + 1
    lam = np.zeros((L, n), dtype=np.int64)
    lam[:, :-1] = parts
    boxes = np.array([b for b in product((0, 1), repeat=n) if 0 < sum(b) < n])
    mu = lam + boxes[:, None, :]
    ok = (np.diff(mu, axis=2) <= 0).all(axis=2) & (mu[:, :, 0] - mu[:, :, -1] <= k)
    s, b = np.nonzero(ok)
    radix = (k + 1) ** np.arange(n - 2, -1, -1)
    codes = parts @ radix
    c = np.searchsorted(codes, (mu[s, b, :-1] - mu[s, b, -1:]) @ radix)
    N = np.zeros((n - 1, L, L), dtype=np.int64)
    N[boxes.sum(axis=1)[s] - 1, b, c] = 1
    N.setflags(write=False)
    # Lambda_j is the partition (1^j, 0^(n-1-j))
    fundamentals = np.searchsorted(codes, np.tri(n - 1, dtype=np.int64) @ radix)
    return dict(zip(fundamentals.tolist(), N))


def sun_modular_data(n: int, k: int) -> ModularData:
    """Kac-Peterson data for SU(n)_k via the Weyl alternating sum.

    Labels are partition pairs/tuples (a_1 >= ... >= a_{n-1} >= 0), a_1 <= k,
    sorted lexicographically so the vacuum (0,...,0) has index 0.  The SU(3)
    display convention "(m,n)" corresponds to Dynkin labels (m-n, n).  For
    n = 2 this agrees entrywise with :func:`su2_modular_data`.

    The weights a (a_n = 0) and a + rho = a + (n-1, ..., 0) are two L x n
    arrays, each made traceless by one row-mean subtraction; rho is the
    vacuum row of the second.  The Weyl sign of a permutation is its
    inversion parity.  The integer label rows are kept as
    ModularData.partitions, from which pieri_rows reads the fusion rows of
    the fundamental weights.
    """
    if n not in (2, 3, 4):
        raise UsageError(f"unsupported rank: SU({n})")
    if k < 1:
        raise UsageError(f"level must be positive: {k}")
    # the labels are the (n-1)-element multisets of {0, ..., k}
    L = math.comb(k + n - 1, n - 1)
    if L > SUN_LABEL_MAX:
        raise UsageError(f"SU({n})_{k} has {L} labels, beyond the desk bound")
    parts = _sun_partitions(n, k)
    kappa = k + n
    a = np.zeros((L, n))
    a[:, :-1] = parts
    # weights and shifted weights in traceless orthogonal coordinates
    weight, xi = (x - x.mean(axis=1, keepdims=True) for x in (a, a + np.arange(n - 1, -1, -1)))
    rho = xi[0]
    pref = (1j) ** (n * (n - 1) // 2) / (math.sqrt(n) * kappa ** ((n - 1) / 2))
    # S_{ab} = pref * sum_w sgn(w) exp(-2 pi i <w(xi_a), xi_b> / kappa)
    S = np.zeros((L, L), dtype=complex)
    for p in permutations(range(n)):
        sg = (-1) ** sum(p[i] > p[j] for i, j in combinations(range(n), 2))
        S += sg * np.exp(-2j * np.pi * (xi[:, list(p)] @ xi.T) / kappa)
    S *= pref
    S = (S + S.T) / 2.0
    h = (np.einsum("ij,ij->i", weight, weight) + 2.0 * weight @ rho) / (2.0 * kappa)
    twists = np.exp(2j * np.pi * h)
    dims = (S[:, 0] / S[0, 0]).real
    labels = tuple("(" + ",".join(map(str, part)) + ")" for part in parts.tolist())
    c = _central_charge_from_twists(twists, dims)
    return ModularData(
        family=f"su{n}",
        level=k,
        labels=labels,
        S=S,
        T=np.diag(np.exp(-1j * np.pi * c / 12.0) * twists),
        twists=twists,
        dims=dims,
        global_index=float(dims @ dims),
        central_charge=c,
        partitions=parts,
    )


def ising_modular_data() -> ModularData:
    """Closed-form Ising modular data: h_eta = 1/2, h_sigma = 1/16, c = 1/2."""
    r2 = math.sqrt(2.0)
    S = 0.5 * np.array(
        [[1, 1, r2], [1, 1, -r2], [r2, -r2, 0]], dtype=complex)
    twists = np.array([1.0, -1.0, np.exp(1j * np.pi / 8)])
    dims = np.array([1.0, 1.0, r2])
    c = 0.5
    T = np.diag(np.exp(-1j * np.pi * c / 12.0) * twists)
    return ModularData(
        family="ising",
        level=0,
        labels=("id", "eta", "sigma"),
        S=S,
        T=T,
        twists=twists,
        dims=dims,
        global_index=4.0,
        central_charge=c,
    )


def cyclic_group_modular_data(n: int) -> ModularData:
    """Degenerate data of a Z_n group dual: all twists 1, S = d d^t / #G (rank one)."""
    if n < 2:
        raise UsageError("group order must be at least 2")
    if n > SUN_LABEL_MAX:
        raise UsageError(f"group order {n} exceeds {SUN_LABEL_MAX} labels")
    dims = np.ones(n)
    S = np.full((n, n), 1.0 / n, dtype=complex)
    twists = np.ones(n, dtype=complex)
    return ModularData(
        family="group",
        level=n,
        labels=tuple(f"g{i}" for i in range(n)),
        S=S,
        T=np.eye(n, dtype=complex),
        twists=twists,
        dims=dims,
        global_index=float(n),
        central_charge=0.0,
    )


def _require_unitary(md: ModularData) -> None:
    """ValueError unless S is unitary, as Verlinde and the commutant need."""
    if md.degenerate:
        raise ValueError(
            f"S is degenerate (unitarity residual {md.unitarity_residual:.2e}); "
            "the Verlinde formula and the commutant search need a unitary S")


def _round_counts(X: np.ndarray) -> np.ndarray:
    """The complex Verlinde sums X as int64 counts; X is overwritten.

    The one rounding rule of the Verlinde coefficients: ValueError unless
    every entry lies within ROUND_TOL of its nearest integer and none of
    those integers is negative.  The squared modulus of the residual is
    compared with ROUND_TOL^2, so no square root is taken per entry.
    """
    re = X.real
    R = np.rint(re)
    re -= R
    worst = float((re * re + X.imag ** 2).max())
    if worst > ROUND_TOL ** 2:
        raise ValueError(
            f"Verlinde coefficients not integral (residual {math.sqrt(worst):.2e})")
    if R.min() < 0:
        raise ValueError("Verlinde formula produced a negative coefficient")
    return R.astype(np.int64)


def _verlinde_row(U: np.ndarray, a: int) -> np.ndarray:
    """N_a[b, c] = N[a, b, c] of the Verlinde ring, U = S^t of a unitary S.

    The one Verlinde formula of the ring: N_a = U diag(U[a] / U[0]) U^H,
    one L x L complex GEMM, rounded by _round_counts.
    """
    return _round_counts((U * (U[a] / U[0])) @ U.conj().T)


def verlinde_fusion(md: ModularData) -> FusionRing:
    """Fusion tensor N[a,b,c] = sum_r S[r,a] S[r,b] S*[r,c] / S[r,0], rounded.

    The one function that builds the whole validated ring, for ``fusion``
    and the D_odd fusion graph; ``invariants`` and ``catalog`` read the few
    rows they need from ModularData.verlinde_row.  S must be unitary.  N[a] is filled
    with _verlinde_row for each label a in turn, and validation checks one
    label at a time (see associative), so the peak is the int64 tensor plus
    a few L x L arrays: one complex row while N is filled, the check's
    float64 products after.
    """
    _require_unitary(md)
    U, L = md.S.T, md.size
    N = np.empty((L, L, L), dtype=np.int64)
    for a in range(L):
        N[a] = _verlinde_row(U, a)
    ring = FusionRing(N=N)
    ring.validate()
    return ring


@dataclass(frozen=True)
class ModularChecks:
    """Residuals for the defining relations of the modular pair (S, T)."""

    symmetric: float
    unitary: float
    st_cubed: float          # ||(ST)^3 - S^2||
    s_squared_conjugation: float  # ||S^2 - C|| for the nearest permutation C
    s_fourth: float          # ||S^4 - 1||
    first_row_positive: bool

    @property
    def passed(self) -> bool:
        return (self.first_row_positive
                and max(self.symmetric, self.unitary, self.st_cubed,
                        self.s_squared_conjugation, self.s_fourth) < ASSERT_TOL)

    def summary(self) -> str:
        flag = "ok" if self.passed else "FAIL"
        return (f"{flag}: sym={self.symmetric:.2e} uni={self.unitary:.2e} "
                f"(ST)^3={self.st_cubed:.2e} S^2=C {self.s_squared_conjugation:.2e} "
                f"S^4={self.s_fourth:.2e} row0>0={self.first_row_positive}")


def check_modular(md: ModularData) -> ModularChecks:
    """Verify S symmetric/unitary, (ST)^3 = S^2 = conjugation, S^4 = 1.

    Failures are reported in the result, never raised.
    """
    S, T = md.S, md.T
    L = md.size
    S2 = S @ S
    dual = np.abs(S2).argmax(axis=1)
    C = np.eye(L)[dual]
    ST = S @ T
    row0 = S[0].real
    return ModularChecks(
        symmetric=float(np.max(np.abs(S - S.T))),
        unitary=md.unitarity_residual,
        st_cubed=float(np.max(np.abs(ST @ ST @ ST - S2))),
        s_squared_conjugation=float(np.max(np.abs(S2 - C))),
        s_fourth=float(np.max(np.abs(S2 @ S2 - np.eye(L)))),
        first_row_positive=bool(row0.min() > 0 and abs(S[0, 0].imag) < ASSERT_TOL),
    )


# ---------------------------------------------------------------------------
# JSON export / import

NUMBER_FORMAT = "%.12g"  # 12 significant digits: the one number format of text, CSV and JSON output


def sig12(x: float) -> str:
    """x to 12 significant digits, NUMBER_FORMAT."""
    return NUMBER_FORMAT % float(x)


def _complex_entry(z) -> dict:
    return {"re": float(sig12(z.real)), "im": float(sig12(z.imag))}


def modular_data_to_json(md: ModularData, rows=list) -> dict:
    """The JSON document of md.  Its "S" is ``rows`` applied to a generator
    of the rows of S: a list by default, and for ``show --json`` the pieces
    in which the CLI writes S one row at a time."""
    return {
        "family": md.family,
        "level": md.level,
        "labels": list(md.labels),
        "S": rows([_complex_entry(z) for z in row] for row in md.S),
        "T_phases": [_complex_entry(md.T[i, i]) for i in range(md.size)],
        "dims": [float(sig12(d)) for d in md.dims],
        "w": float(sig12(md.global_index)),
        "c": float(sig12(md.central_charge)),
    }


def modular_data_from_json(doc: dict) -> ModularData:
    """Rebuild ModularData from its JSON document and re-validate invariants.

    The one library entry point that no command calls, kept because it is
    the inverse of ``modular_data_to_json``: it reads modular data from
    outside the program, so it refuses a document whose parts disagree
    instead of trusting it, and one with more than SUN_LABEL_MAX labels,
    the bound every builder keeps, before it builds any array.
    """
    L = len(doc["labels"])
    if L > SUN_LABEL_MAX:
        raise UsageError(f"imported data has {L} labels, beyond {SUN_LABEL_MAX}")
    sizes = [len(doc["S"]), *map(len, doc["S"]), len(doc["T_phases"]), len(doc["dims"])]
    if any(n != L for n in sizes):
        raise ValueError(f"imported S, T_phases and dims do not all have {L} entries")
    S = np.array([[e["re"] + 1j * e["im"] for e in row] for row in doc["S"]])
    tphases = np.array([e["re"] + 1j * e["im"] for e in doc["T_phases"]])
    dims = np.array([float(d) for d in doc["dims"]])
    c = float(doc["c"])
    w = float(doc["w"])
    twists = tphases * np.exp(1j * np.pi * c / 12.0)
    md = ModularData(
        family=doc["family"],
        level=int(doc["level"]),
        labels=tuple(doc["labels"]),
        S=S,
        T=np.diag(tphases),
        twists=twists,
        dims=dims,
        global_index=w,
        central_charge=c,
    )
    _validate_modular_data(md)
    return md


def _validate_modular_data(md: ModularData) -> None:
    if np.max(np.abs(md.S - md.S.T)) > ASSERT_TOL:
        raise ValueError("imported S is not symmetric")
    if md.S[0, 0].real <= 0 or np.min(md.S[:, 0].real) < md.S[0, 0].real - ASSERT_TOL:
        raise ValueError("imported S violates S[l,0] >= S[0,0] > 0")
    if np.max(np.abs(md.dims - (md.S[:, 0] / md.S[0, 0]).real)) > ROUND_TOL:
        raise ValueError("imported dims disagree with S[:,0]/S[0,0]")
    if abs(md.global_index - float(md.dims @ md.dims)) > ROUND_TOL * md.global_index:
        raise ValueError("imported global index disagrees with sum d^2")
    if np.max(np.abs(np.abs(md.twists) - 1.0)) > ASSERT_TOL:
        raise ValueError("imported twists are not unimodular")


def dumps_deterministic(value) -> str:
    """Byte-stable JSON of any JSON value: sorted keys, no spaces.

    Floats are rounded to 12 significant digits by sig12 before they get
    here.  The CLI encodes its documents with it piece by piece: a whole
    document is the concatenation of the encodings of its keys, its scalar
    members and the pieces of its lists, so it never holds more than one
    piece encoded.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"))
