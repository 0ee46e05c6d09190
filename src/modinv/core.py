"""Modular data (S, T, twists, quantum dimensions) and fusion rings.

Families provided: SU(2)_k and SU(n)_k Kac-Peterson data, the chiral Ising
model, and cyclic-group duals as degenerate witnesses.  All fusion
coefficients are stored as exact integers; S and T live in complex double
precision.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

# Rounding a float to a fusion coefficient tolerates this much residual;
# numerical identities are asserted at the tighter tolerance.
ROUND_TOL = 1e-6
ASSERT_TOL = 1e-9

SU2_LEVEL_MAX = 64
SUN_LABEL_MAX = 400
CHIRAL_TABLE_LEVEL_MAX = 32


class UsageError(ValueError):
    """An argument outside the declared limits or names (CLI exit code 2)."""


class DegenerateDataError(ValueError):
    """Raised when an operation requires a non-degenerate (unitary) S matrix."""


class RoundingError(ValueError):
    """Raised when a value expected to be a non-negative integer is not."""


@dataclass(frozen=True)
class Label:
    """A sector label: contiguous index with 0 reserved for the vacuum."""

    index: int
    display: str

    def __str__(self):
        return self.display


@dataclass(frozen=True)
class FusionRing:
    """Label set with duality map and non-negative integer fusion tensor.

    ``N[a, b, c]`` is the multiplicity of label c in the product a x b and
    ``dual[a]`` the index of the conjugate label.
    """

    labels: tuple[Label, ...]
    N: np.ndarray
    dual: np.ndarray

    def __post_init__(self):
        self.N.setflags(write=False)
        self.dual.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.labels)

    def fusion_matrix(self, a: int) -> np.ndarray:
        return self.N[a]

    def validate(self) -> None:
        """Assert the ring axioms exactly on the integer tensor."""
        L = self.size
        if self.N.shape != (L, L, L):
            raise ValueError("fusion tensor shape mismatch")
        if self.N.dtype.kind not in "iu" or self.N.min() < 0:
            raise ValueError("fusion coefficients must be non-negative integers")
        if not np.array_equal(self.N[0], np.eye(L, dtype=int)):
            raise ValueError("label 0 is not a unit")
        if not np.array_equal(self.N, self.N.transpose(1, 0, 2)):
            raise ValueError("fusion tensor not commutative")
        conj = np.zeros((L, L), dtype=int)
        conj[np.arange(L), self.dual] = 1
        if not np.array_equal(self.N[:, :, 0], conj):
            raise ValueError("duality map inconsistent with vacuum couplings")
        lhs = np.einsum("lms,snt->lmnt", self.N, self.N)
        rhs = np.einsum("mns,lst->lmnt", self.N, self.N)
        if not np.array_equal(lhs, rhs):
            raise ValueError("fusion tensor not associative")

    def perron_dims(self) -> np.ndarray:
        """Perron-Frobenius dimension of every label (largest eigenvalue of N_a)."""
        return np.array([np.linalg.eigvalsh((self.N[a] + self.N[a].T) / 2.0).max()
                         if np.array_equal(self.N[a], self.N[a].T)
                         else max(abs(np.linalg.eigvals(self.N[a])))
                         for a in range(self.size)])

    def is_dimension_function(self, dims, tol=ASSERT_TOL) -> bool:
        d = np.asarray(dims, dtype=float)
        prod = np.einsum("lmn,n->lm", self.N, d)
        return bool(np.max(np.abs(np.outer(d, d) - prod)) < tol * max(1.0, d.max() ** 2))


@dataclass(frozen=True)
class ModularData:
    """S and T matrices with twists, quantum dimensions and global index.

    ``central_charge`` is the mod-8 representative in [0, 8); only
    exp(-i pi c / 12) enters T.  ``degenerate`` is True when S fails
    unitarity, in which case S does not generate a modular representation.
    """

    family: str
    level: int
    labels: tuple[Label, ...]
    S: np.ndarray
    T: np.ndarray
    twists: np.ndarray
    dims: np.ndarray
    global_index: float
    central_charge: float

    def __post_init__(self):
        for arr in (self.S, self.T, self.twists, self.dims):
            arr.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def unitarity_residual(self) -> float:
        L = self.size
        return float(np.max(np.abs(self.S @ self.S.conj().T - np.eye(L))))

    @property
    def degenerate(self) -> bool:
        return self.unitarity_residual >= ASSERT_TOL


def _central_charge_from_twists(twists, dims) -> float:
    """Mod-8 central charge, 4*arg(sum omega d^2)/pi mapped into [0, 8)."""
    total = np.sum(np.asarray(twists) * np.asarray(dims) ** 2)
    return float((4.0 * np.angle(total) / np.pi) % 8.0)


def su2_modular_data(k: int) -> ModularData:
    """Kac-Peterson S and T for SU(2) at level k (labels are spins 0..k)."""
    if not 1 <= k <= SU2_LEVEL_MAX:
        raise UsageError(f"su2 level out of range: {k}")
    j = np.arange(k + 1)
    S = np.sqrt(2.0 / (k + 2)) * np.sin(np.pi * np.outer(j + 1, j + 1) / (k + 2))
    T = np.diag(np.exp(1j * np.pi * (j + 1) ** 2 / (2 * k + 4) - 1j * np.pi / 4))
    twists = np.exp(2j * np.pi * j * (j + 2) / (4 * k + 8))
    dims = S[:, 0] / S[0, 0]
    labels = tuple(Label(int(i), str(int(i))) for i in j)
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
    )


def su2_fusion_closed_form(k: int) -> FusionRing:
    """SU(2)_k fusion rules from the truncated angular-momentum coupling window."""
    if not 1 <= k <= SU2_LEVEL_MAX:
        raise UsageError(f"su2 level out of range: {k}")
    L = k + 1
    N = np.zeros((L, L, L), dtype=int)
    for a in range(L):
        for b in range(L):
            for c in range(abs(a - b), min(a + b, 2 * k - a - b) + 1, 2):
                N[a, b, c] = 1
    labels = tuple(Label(i, str(i)) for i in range(L))
    ring = FusionRing(labels=labels, N=N, dual=np.arange(L))
    ring.validate()
    return ring


def _sun_partitions(n: int, k: int) -> list[tuple[int, ...]]:
    """Weakly decreasing tuples (a_1 >= ... >= a_{n-1} >= 0) with a_1 <= k."""

    def rec(prefix, depth):
        if depth == n - 1:
            yield tuple(prefix)
            return
        hi = prefix[-1] if prefix else k
        for v in range(hi + 1):
            yield from rec(prefix + [v], depth + 1)

    return sorted(rec([], 0))


def _perm_parity(p) -> int:
    seen = [False] * len(p)
    sgn = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        j, cyc = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            cyc += 1
        if cyc % 2 == 0:
            sgn = -sgn
    return sgn


def _traceless(vec: np.ndarray) -> np.ndarray:
    return vec - vec.mean()


def sun_modular_data(n: int, k: int) -> ModularData:
    """Kac-Peterson data for SU(n)_k via the Weyl alternating sum.

    Labels are partition pairs/tuples (a_1 >= ... >= a_{n-1} >= 0), a_1 <= k,
    sorted lexicographically so the vacuum (0,...,0) has index 0.  The SU(3)
    display convention "(m,n)" corresponds to Dynkin labels (m-n, n).  For
    n = 2 this agrees entrywise with :func:`su2_modular_data`.
    """
    if n not in (2, 3, 4):
        raise UsageError(f"unsupported rank: SU({n})")
    if k < 1:
        raise UsageError(f"level must be positive: {k}")
    parts = _sun_partitions(n, k)
    L = len(parts)
    if L > SUN_LABEL_MAX:
        raise UsageError(f"SU({n})_{k} has {L} labels, beyond the desk bound")
    kappa = k + n
    # shifted weights in traceless orthogonal coordinates
    xi = np.array([_traceless(np.array(list(a) + [0], dtype=float)
                              + np.arange(n - 1, -1, -1)) for a in parts])
    perms = list(permutations(range(n)))
    sgns = np.array([_perm_parity(p) for p in perms], dtype=float)
    pref = (1j) ** (n * (n - 1) // 2) / (math.sqrt(n) * kappa ** ((n - 1) / 2))
    # S_{ab} = pref * sum_w sgn(w) exp(-2 pi i <w(xi_a), xi_b> / kappa)
    S = np.zeros((L, L), dtype=complex)
    for p, sg in zip(perms, sgns):
        phase = np.exp(-2j * np.pi * (xi[:, list(p)] @ xi.T) / kappa)
        S += sg * phase
    S *= pref
    S = (S + S.T) / 2.0

    weight = np.array([_traceless(np.array(list(a) + [0], dtype=float)) for a in parts])
    rho = _traceless(np.arange(n - 1, -1, -1).astype(float))
    h = (np.einsum("ij,ij->i", weight, weight) + 2.0 * weight @ rho) / (2.0 * kappa)
    twists = np.exp(2j * np.pi * h)
    dims = (S[:, 0] / S[0, 0]).real
    labels = tuple(Label(i, "(" + ",".join(map(str, a)) + ")") for i, a in enumerate(parts))
    return ModularData(
        family=f"su{n}",
        level=k,
        labels=labels,
        S=S,
        T=np.diag(np.exp(-1j * np.pi * _central_charge_from_twists(twists, dims) / 12.0) * twists),
        twists=twists,
        dims=dims,
        global_index=float(dims @ dims),
        central_charge=_central_charge_from_twists(twists, dims),
    )


def sun_label_index(md: ModularData, part) -> int:
    """Index of the partition label ``part`` (e.g. (3, 0)) in SU(n) data."""
    disp = "(" + ",".join(map(str, part)) + ")"
    for lab in md.labels:
        if lab.display == disp:
            return lab.index
    raise KeyError(f"label {disp} not in {md.family}_{md.level}")


ISING_LABELS = ("id", "eta", "sigma")


def ising_fusion_ring() -> FusionRing:
    """The three-sector Ising ring: eta^2 = id, eta.sigma = sigma, sigma^2 = id + eta."""
    N = np.zeros((3, 3, 3), dtype=int)
    N[0] = np.eye(3, dtype=int)
    N[1, 1, 0] = N[1, 0, 1] = N[0, 1, 1] = 1
    N[1, 2, 2] = N[2, 1, 2] = N[2, 2, 1] = 1
    N[2, 0, 2] = N[0, 2, 2] = N[2, 2, 0] = 1
    labels = tuple(Label(i, s) for i, s in enumerate(ISING_LABELS))
    ring = FusionRing(labels=labels, N=N, dual=np.arange(3))
    ring.validate()
    return ring


def ising_modular_data() -> ModularData:
    """Closed-form Ising modular data: h_eta = 1/2, h_sigma = 1/16, c = 1/2."""
    r2 = math.sqrt(2.0)
    S = 0.5 * np.array(
        [[1, 1, r2], [1, 1, -r2], [r2, -r2, 0]], dtype=complex)
    twists = np.array([1.0, -1.0, np.exp(1j * np.pi / 8)])
    dims = np.array([1.0, 1.0, r2])
    c = 0.5
    T = np.diag(np.exp(-1j * np.pi * c / 12.0) * twists)
    labels = tuple(Label(i, s) for i, s in enumerate(ISING_LABELS))
    return ModularData(
        family="ising",
        level=0,
        labels=labels,
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
    dims = np.ones(n)
    S = np.full((n, n), 1.0 / n, dtype=complex)
    twists = np.ones(n, dtype=complex)
    labels = tuple(Label(i, f"g{i}") for i in range(n))
    return ModularData(
        family="group",
        level=n,
        labels=labels,
        S=S,
        T=np.eye(n, dtype=complex),
        twists=twists,
        dims=dims,
        global_index=float(n),
        central_charge=0.0,
    )


def cyclic_group_fusion_ring(n: int) -> FusionRing:
    """Fusion ring of Z_n: group multiplication, dual = inverse."""
    N = np.zeros((n, n, n), dtype=int)
    for a in range(n):
        for b in range(n):
            N[a, b, (a + b) % n] = 1
    labels = tuple(Label(i, f"g{i}") for i in range(n))
    ring = FusionRing(labels=labels, N=N, dual=np.array([(-a) % n for a in range(n)]))
    ring.validate()
    return ring


def modular_data_from_twists(ring: FusionRing, twists, dims,
                             family: str = "custom", level: int = 0) -> ModularData:
    """Build S = w^{-1/2} Y and T from a fusion ring, its twists and dimensions.

    Y[a, b] = sum_c (omega_a omega_b / omega_c) N[a, b, c] d_c.  The result is
    flagged degenerate (via :attr:`ModularData.degenerate`) when S fails
    unitarity; no modular representation exists in that case.
    """
    twists = np.asarray(twists, dtype=complex)
    dims = np.asarray(dims, dtype=float)
    if np.max(np.abs(np.abs(twists) - 1.0)) > ASSERT_TOL:
        raise ValueError("twists must be unimodular")
    if not ring.is_dimension_function(dims):
        raise ValueError("dims is not a dimension function of the ring")
    Y = np.einsum("a,b,c,abc->ab", twists, twists, dims / twists, ring.N.astype(float))
    w = float(dims @ dims)
    S = Y / math.sqrt(w)
    c = _central_charge_from_twists(twists, dims)
    T = np.diag(np.exp(-1j * np.pi * c / 12.0) * twists)
    return ModularData(
        family=family,
        level=level,
        labels=ring.labels,
        S=S,
        T=T,
        twists=twists,
        dims=dims,
        global_index=w,
        central_charge=c,
    )


def verlinde_fusion(md: ModularData) -> FusionRing:
    """Fusion tensor N[a,b,c] = sum_r S[r,a] S[r,b] S*[r,c] / S[r,0], rounded.

    Requires non-degenerate S; every pre-rounding value must sit within
    ROUND_TOL of a non-negative integer.
    """
    if md.degenerate:
        raise DegenerateDataError(
            f"S is degenerate (unitarity residual {md.unitarity_residual:.2e}); "
            "the Verlinde formula needs a unitary S")
    ratio = md.S / md.S[:, [0]]
    N = np.einsum("ra,rb,rc->abc", ratio, md.S, md.S.conj())
    Nr = np.round(N.real)
    residual = float(np.max(np.abs(N - Nr)))
    if residual > ROUND_TOL:
        raise RoundingError(f"Verlinde coefficients not integral (residual {residual:.2e})")
    if Nr.min() < 0:
        raise RoundingError("Verlinde formula produced a negative coefficient")
    Nint = Nr.astype(int)
    dual = np.array([int(np.argmax(Nint[a, :, 0])) for a in range(md.size)])
    ring = FusionRing(labels=md.labels, N=Nint, dual=dual)
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
    dual: tuple[int, ...]    # permutation read off from S^2

    tol: float = ASSERT_TOL

    @property
    def passed(self) -> bool:
        return (self.first_row_positive
                and max(self.symmetric, self.unitary, self.st_cubed,
                        self.s_squared_conjugation, self.s_fourth) < self.tol)

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
    dual = tuple(int(np.argmax(np.abs(S2[a]))) for a in range(L))
    C = np.zeros((L, L))
    for a, b in enumerate(dual):
        C[a, b] = 1.0
    ST = S @ T
    row0 = S[0].real
    return ModularChecks(
        symmetric=float(np.max(np.abs(S - S.T))),
        unitary=md.unitarity_residual,
        st_cubed=float(np.max(np.abs(ST @ ST @ ST - S2))),
        s_squared_conjugation=float(np.max(np.abs(S2 - C))),
        s_fourth=float(np.max(np.abs(S2 @ S2 - np.eye(L)))),
        first_row_positive=bool(row0.min() > 0 and abs(S[0, 0].imag) < ASSERT_TOL),
        dual=dual,
    )


# ---------------------------------------------------------------------------
# JSON export / import

def _sig12(x: float) -> float:
    return float(f"{float(x):.12g}")


def _complex_entry(z) -> dict:
    return {"re": _sig12(z.real), "im": _sig12(z.imag)}


def modular_data_to_json(md: ModularData) -> dict:
    return {
        "family": md.family,
        "level": md.level,
        "labels": [lab.display for lab in md.labels],
        "S": [[_complex_entry(z) for z in row] for row in md.S],
        "T_phases": [_complex_entry(md.T[i, i]) for i in range(md.size)],
        "dims": [_sig12(d) for d in md.dims],
        "w": _sig12(md.global_index),
        "c": _sig12(md.central_charge),
    }


def modular_data_from_json(doc: dict) -> ModularData:
    """Rebuild ModularData from its JSON document and re-validate invariants."""
    labels = tuple(Label(i, s) for i, s in enumerate(doc["labels"]))
    S = np.array([[e["re"] + 1j * e["im"] for e in row] for row in doc["S"]])
    tphases = np.array([e["re"] + 1j * e["im"] for e in doc["T_phases"]])
    dims = np.array([float(d) for d in doc["dims"]])
    c = float(doc["c"])
    w = float(doc["w"])
    twists = tphases * np.exp(1j * np.pi * c / 12.0)
    md = ModularData(
        family=doc["family"],
        level=int(doc["level"]),
        labels=labels,
        S=S,
        T=np.diag(tphases),
        twists=twists,
        dims=dims,
        global_index=w,
        central_charge=c,
    )
    _validate_modular_data(md)
    return md


def _validate_modular_data(md: ModularData, tol: float = 1e-9) -> None:
    if np.max(np.abs(md.S - md.S.T)) > tol:
        raise ValueError("imported S is not symmetric")
    if md.S[0, 0].real <= 0 or np.min(md.S[:, 0].real) < md.S[0, 0].real - tol:
        raise ValueError("imported S violates S[l,0] >= S[0,0] > 0")
    if np.max(np.abs(md.dims - (md.S[:, 0] / md.S[0, 0]).real)) > ROUND_TOL:
        raise ValueError("imported dims disagree with S[:,0]/S[0,0]")
    if abs(md.global_index - float(md.dims @ md.dims)) > ROUND_TOL * md.global_index:
        raise ValueError("imported global index disagrees with sum d^2")
    if np.max(np.abs(np.abs(md.twists) - 1.0)) > tol:
        raise ValueError("imported twists are not unimodular")


def dumps_deterministic(doc: dict) -> str:
    """Byte-stable JSON used by the CLI (sorted keys, 12 significant digits)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
