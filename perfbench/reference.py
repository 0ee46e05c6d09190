"""Reference data and output checks, computed apart from modinv.

Modular data is built here from first principles: the closed sine form of
the SU(2)_k S matrix, the Weyl alternating sum written as a determinant for
SU(3)_k and SU(4)_k, and the chiral Ising data.  Conformal weights are kept
as exact fractions, so commutation with T is an exact test.  The A-D-E
exponents are tabulated here.  Nothing in this module imports modinv.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

# Every float in modinv's output carries 12 significant digits.
PRINTED_REL_TOL = 1e-9
COMMUTE_TOL = 1e-7


class CheckError(AssertionError):
    """An output of the program disagrees with the reference."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def close(a: float, b: float, tol: float = PRINTED_REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# A-D-E diagrams: Coxeter number and exponents in spin labelling (m stands
# for the adjacency eigenvalue 2 cos(pi (m + 1) / h)).

E_EXPONENTS = {
    "E6": (12, (0, 3, 4, 6, 7, 10)),
    "E7": (18, (0, 4, 6, 8, 10, 12, 16)),
    "E8": (30, (0, 6, 10, 12, 16, 18, 22, 28)),
}


def ade_exponents(name: str) -> tuple[int, tuple[int, ...]]:
    """(Coxeter number, spin exponents with multiplicity) of an A-D-E diagram."""
    if name in E_EXPONENTS:
        return E_EXPONENTS[name]
    kind, n = name[0], int(name[1:])
    if kind == "A":
        return n + 1, tuple(range(n))
    if kind == "D":
        return 2 * n - 2, tuple(sorted(list(range(0, 2 * n - 3, 2)) + [n - 2]))
    raise ValueError(f"not an A-D-E diagram: {name}")


def ade_spectrum(name: str) -> np.ndarray:
    h, exps = ade_exponents(name)
    return np.sort(2.0 * np.cos(np.pi * (np.array(exps) + 1) / h))


def exponent_multiplicities(name: str, k: int) -> list[int]:
    _, exps = ade_exponents(name)
    return [exps.count(j) for j in range(k + 1)]


def ciz_names(k: int) -> set[str]:
    """Cappelli-Itzykson-Zuber: the SU(2)_k invariants named by their diagrams."""
    names = {f"A{k + 1}"}
    if k % 2 == 0 and k >= 4:
        names.add(f"D{k // 2 + 2}")
    names |= {e for e, (h, _) in E_EXPONENTS.items() if h == k + 2}
    return names


def graph_algebra_positive(name: str) -> bool:
    """A, D_even, E6 and E8 carry positive integral graph algebras."""
    if name[0] == "D":
        return int(name[1:]) % 2 == 0
    return name != "E7"


# ---------------------------------------------------------------------------
# Modular data

class ModularRef:
    """S matrix (vacuum first, S[0, 0] > 0) and exact conformal weights mod 1."""

    def __init__(self, S: np.ndarray, weights: list[Fraction]):
        L = S.shape[0]
        require(np.max(np.abs(S @ S.conj().T - np.eye(L))) < 1e-10,
                "reference S is not unitary")
        C = S @ S
        self.C = np.rint(C.real).astype(int)
        require(np.max(np.abs(C - self.C)) < 1e-10 and is_permutation(self.C),
                "reference S^2 is not a permutation")
        self.S = S
        self.weights = [w % 1 for w in weights]
        self.dims = (S[:, 0] / S[0, 0]).real
        self.characters = (S / S[:, [0]]).real  # chi_l(nu) = S[l, nu] / S[l, 0]

    @property
    def size(self) -> int:
        return self.S.shape[0]


def su2_reference(k: int) -> ModularRef:
    n = k + 2
    j = np.arange(1, k + 2)
    S = math.sqrt(2.0 / n) * np.sin(np.pi * np.outer(j, j) / n)
    return ModularRef(S.astype(complex), [Fraction(l * (l + 2), 4 * n) for l in range(k + 1)])


def sun_partitions(n: int, k: int) -> list[tuple[int, ...]]:
    """Labels a_1 >= ... >= a_{n-1} >= 0 with a_1 <= k in lexicographic order."""
    return sorted(tuple(sorted(c, reverse=True))
                  for c in combinations_with_replacement(range(k + 1), n - 1))


def sun_reference(n: int, k: int) -> ModularRef:
    """Kac-Peterson S as det[exp(-2 pi i x_a,i x_b,j / kappa)], x = traceless lambda + rho."""
    kappa = k + n
    parts = sun_partitions(n, k)
    x = np.array([list(p) + [0] for p in parts], dtype=float) + np.arange(n - 1, -1, -1)
    x -= x.mean(axis=1, keepdims=True)
    phases = np.exp(-2j * np.pi * x[:, None, :, None] * x[None, :, None, :] / kappa)
    M = np.linalg.det(phases)
    # fix the global phase by S[0, 0] > 0 and the scale by unitarity of row 0
    M *= np.conj(M[0, 0]) / abs(M[0, 0]) / np.linalg.norm(M[0])
    weights = []
    for p in parts:
        a = list(p) + [0]
        total = sum(a)
        num = (n * sum(v * v for v in a) - total * total
               + n * sum(v * (n + 1 - 2 * i) for i, v in enumerate(a, start=1)))
        weights.append(Fraction(num, 2 * kappa * n))
    return ModularRef(M, weights)


def ising_reference() -> ModularRef:
    r = math.sqrt(2.0)
    S = 0.5 * np.array([[1, 1, r], [1, 1, -r], [r, -r, 0]], dtype=complex)
    return ModularRef(S, [Fraction(0), Fraction(1, 2), Fraction(1, 16)])


class References:
    """Memo of reference modular data, keyed by family and level."""

    def __init__(self):
        self._cache = {}

    def get(self, family: str, level: int = 0) -> ModularRef:
        key = (family, level)
        if key not in self._cache:
            if family == "su2":
                self._cache[key] = su2_reference(level)
            elif family in ("su3", "su4"):
                self._cache[key] = sun_reference(int(family[2]), level)
            elif family == "ising":
                self._cache[key] = ising_reference()
            else:
                raise ValueError(f"no reference for family {family}")
        return self._cache[key]


# ---------------------------------------------------------------------------
# Checks on mass matrices

def is_permutation(Z: np.ndarray) -> bool:
    return bool(((Z == 0) | (Z == 1)).all() and (Z.sum(axis=0) == 1).all()
                and (Z.sum(axis=1) == 1).all())


def check_mass_matrix(entries, ref: ModularRef) -> np.ndarray:
    """Z is a non-negative integer matrix, Z[0,0] = 1, commuting with S and T."""
    Z = np.array(entries)
    L = ref.size
    require(Z.shape == (L, L), f"Z has shape {Z.shape}, expected {(L, L)}")
    require(Z.dtype.kind == "i" and Z.min() >= 0, "Z is not a non-negative integer matrix")
    require(Z[0, 0] == 1, "Z[0,0] != 1")
    for a, b in zip(*np.nonzero(Z)):
        require(ref.weights[a] == ref.weights[b],
                f"Z[{a},{b}] != 0 joins labels of different T eigenvalue")
    residual = np.max(np.abs(ref.S @ Z - Z @ ref.S))
    require(residual < COMMUTE_TOL, f"Z does not commute with S (residual {residual:.2e})")
    return Z


def check_entry(entry: dict, ref: ModularRef) -> np.ndarray:
    Z = check_mass_matrix(entry["Z"], ref)
    require(entry["diag"] == [int(v) for v in np.diag(Z)], "diag is not the diagonal of Z")
    require(entry["sumsq"] == int((Z.astype(np.int64) ** 2).sum()), "sumsq != sum Z^2")
    require(entry["permutation"] is is_permutation(Z), "permutation flag is wrong")
    return Z


def check_catalog(doc: dict, k: int, refs: References) -> None:
    require(doc["family"] == "su2" and doc["level"] == k, "catalog answers another level")
    ref = refs.get("su2", k)
    names = [e["name"] for e in doc["invariants"]]
    require(sorted(names) == sorted(ciz_names(k)),
            f"level {k}: names {names} differ from {sorted(ciz_names(k))}")
    for e in doc["invariants"]:
        check_entry(e, ref)
        require(e["diag"] == exponent_multiplicities(e["name"], k),
                f"{e['name']}: diagonal is not its exponent multiplicities")


def check_invariants(doc: dict, family: str, level: int, refs: References) -> None:
    require(doc["family"] == family, "invariants answer another family")
    require(doc["complete"] is True, "search reported incomplete")
    ref = refs.get(family, level)
    found = {}
    for e in doc["invariants"]:
        Z = check_entry(e, ref)
        found[Z.tobytes()] = Z
    L = ref.size
    require(np.eye(L, dtype=int).tobytes() in found, "identity invariant missing")
    require(ref.C.tobytes() in found, "conjugation invariant C = S^2 missing")
    for Z in found.values():
        require(np.ascontiguousarray(Z.T).tobytes() in found, "set not closed under transpose")
        require((ref.C @ Z).tobytes() in found, "set not closed under Z -> CZ")


def check_chiral_table(doc: dict, max_level: int, refs: References) -> None:
    seen = sorted((r["level"], r["name"]) for r in doc["rows"])
    want = sorted((k, name) for k in range(1, max_level + 1) for name in ciz_names(k))
    require(seen == want, "chiral-table rows differ from the A-D-E list")
    for r in doc["rows"]:
        k = r["level"]
        ref = refs.get("su2", k)
        Z = check_mass_matrix(r["Z"], ref)
        bp, bm = np.array(r["bPlus"]), np.array(r["bMinus"])
        require(np.array_equal(bp.T @ bm, Z), f"{r['name']}: Z != b+^t b-")
        counts = r["counts"]
        require(counts["mm"] == int((Z ** 2).sum()), f"{r['name']}: #MM != sum Z^2")
        require(counts["mn"] == int(np.trace(Z)), f"{r['name']}: #MN != tr Z")
        require(counts["chiral"] == int((bp ** 2).sum()) == int((bm ** 2).sum()),
                f"{r['name']}: #chi != sum b+^2 = sum b-^2")
        require(counts["ambi"] == bp.shape[0], f"{r['name']}: #amb != rows of b+")
        d = ref.dims
        w = float(d @ d)
        w_plus = w / float(d @ Z[:, 0])
        require(close(r["w"], w) and close(r["wPlus"], w_plus)
                and close(r["w0"], w_plus ** 2 / w), f"{r['name']}: global indices wrong")


# ---------------------------------------------------------------------------
# Checks on graph outputs

def check_nimrep_csv(text: str, graph: str, refs: References) -> None:
    lines = text.splitlines()
    require(lines[0] == "graph,nu,eigenvalue,multiplicity,matched_spin", "bad CSV header")
    h, _ = ade_exponents(graph)
    k = h - 2
    chars = refs.get("su2", k).characters
    mult = exponent_multiplicities(graph, k)
    rows = {}
    for line in lines[1:]:
        g, nu, value, m, spin = line.split(",")
        require(g == graph, "CSV row for another graph")
        rows.setdefault(int(nu), []).append((float(value), int(m), int(spin)))
    require(sorted(rows) == list(range(k + 1)), "CSV does not cover nu = 0..k")
    for nu, got in rows.items():
        groups = []  # (character value, total multiplicity) per distinct value
        for lam in np.argsort(chars[:, nu], kind="stable"):
            if mult[lam]:
                if groups and close(groups[-1][0], chars[lam, nu]):
                    groups[-1][1] += mult[lam]
                else:
                    groups.append([chars[lam, nu], mult[lam]])
        got.sort()
        require(len(got) == len(groups),
                f"nu={nu}: {len(got)} eigenvalues, expected {len(groups)}")
        for (value, m, spin), (want, want_m) in zip(got, groups):
            require(close(value, want) and m == want_m,
                    f"nu={nu}: eigenvalue {value} x{m}, expected {want} x{want_m}")
            require(0 <= spin <= k and close(chars[spin, nu], value),
                    f"nu={nu}: matched spin {spin} has another character")


def check_graph_algebra(doc: dict, graph: str) -> None:
    require(doc["graph"] == graph, "graph-algebra answers another graph")
    positive = graph_algebra_positive(graph)
    require(doc["positive"] is positive, f"{graph}: positive should be {positive}")
    if positive:
        require(doc["associative"] is True, f"{graph}: not reported associative")
    else:
        require(doc["associative"] is None and doc["worst_negative"] < 0,
                f"{graph}: negative case misreported")


def _dot_adjacencies(text: str):
    vertices, solid, dashed = [], [], []
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[0].startswith("v") and parts[1].startswith("["):
            vertices.append(int(parts[0][1:]))
        elif len(parts) >= 3 and parts[1] == "--":
            a, b = int(parts[0][1:]), int(parts[2].rstrip(";")[1:])
            m = int(line.split('label="')[1].split('"')[0]) if 'label="' in line else 1
            (dashed if "dashed" in line else solid).append((a, b, m))
    n = len(vertices)
    require(sorted(vertices) == list(range(n)), "DOT vertex ids are not 0..n-1")
    mats = []
    for edges in (solid, dashed):
        A = np.zeros((n, n), dtype=int)
        for a, b, m in edges:
            A[a, b] = A[b, a] = m
        mats.append(A)
    return mats


def check_dot(text: str, graph: str, refs: References) -> None:
    """The drawn graph has the diagram's spectrum; D_odd draws its fusion graph."""
    solid, dashed = _dot_adjacencies(text)
    h, exps = ade_exponents(graph)
    if graph[0] == "D" and int(graph[1:]) % 2 == 1:
        # simultaneous graph of N_1 (solid) and N_{k-1} (dashed) on k + 1 sectors
        k = h - 2
        chars = refs.get("su2", k).characters
        require(solid.shape[0] == k + 1, f"{graph}: fusion graph has {solid.shape[0]} vertices")
        want = [ade_spectrum(f"A{k + 1}"), np.sort(chars[:, k - 1])]
        got = [np.linalg.eigvalsh(solid.astype(float)), np.linalg.eigvalsh(dashed.astype(float))]
    else:
        require(not dashed.any(), f"{graph}: unexpected dashed edges")
        require(solid.shape[0] == len(exps), f"{graph}: DOT has {solid.shape[0]} vertices")
        want = [ade_spectrum(graph)]
        got = [np.linalg.eigvalsh(solid.astype(float))]
    for g, w in zip(got, want):
        require(np.max(np.abs(g - w)) < 1e-9, f"{graph}: DOT graph has the wrong spectrum")


def gram_expectation(k: int, theta: str) -> str:
    """Criterion 8: the diagram G1 must be for a generating vector."""
    if theta == "id+l2":
        return f"A{k + 1}"
    if theta == "id+l8+l16" and k == 16:
        return "E7"
    if theta == f"id+l{k}" and k % 4 == 2:
        return f"D{(k + 2) // 2 + 1}"
    raise ValueError(f"no expectation for theta {theta} at level {k}")


def check_gram(text: str, k: int, theta: str) -> None:
    name = gram_expectation(k, theta)
    lines = text.splitlines()
    h, exps = ade_exponents(name)
    require(lines[0] == f"level {k} theta {theta}: {len(exps)} sectors, G1 graph {name}",
            f"gram summary {lines[0]!r} is not {len(exps)} sectors of {name}")
    G1 = np.array([[int(v) for v in line.split()] for line in lines[1:]])
    require(G1.shape == (len(exps), len(exps)) and G1.min() >= 0, "G1 has the wrong shape")
    eig = np.sort(np.linalg.eigvals(G1.astype(float)).real)
    require(abs(eig[-1] - 2.0 * math.cos(math.pi / (k + 2))) < 1e-9,
            "largest eigenvalue of G1 is not 2 cos(pi / (k + 2))")
    require(np.max(np.abs(eig - ade_spectrum(name))) < 1e-7, f"G1 spectrum is not that of {name}")


# ---------------------------------------------------------------------------

def _opt(argv, flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def check_case(argv, stdout: str, refs: References, read_file=None) -> None:
    """Check one successful CLI invocation's stdout; raise CheckError if wrong.

    ``read_file(path)`` returns the text of a file the command wrote.
    """
    command = argv[0]
    if command == "catalog":
        check_catalog(json.loads(stdout), int(_opt(argv, "--level")), refs)
    elif command == "invariants":
        family = _opt(argv, "--family")
        check_invariants(json.loads(stdout), family, int(_opt(argv, "--level", 0)), refs)
    elif command == "chiral-table":
        check_chiral_table(json.loads(stdout), int(_opt(argv, "--max-level")), refs)
    elif command == "nimrep":
        check_nimrep_csv(stdout, _opt(argv, "--graph"), refs)
    elif command == "graph-algebra":
        check_graph_algebra(json.loads(stdout), _opt(argv, "--graph"))
    elif command == "emit-graph":
        require(stdout.startswith("wrote ") and stdout.endswith(".dot\n"), "no file written")
        check_dot(read_file(stdout[len("wrote "):-1]), _opt(argv, "--case"), refs)
    elif command == "gram":
        check_gram(stdout, int(_opt(argv, "--level")), _opt(argv, "--theta"))
    else:
        raise ValueError(f"no check for command {command}")
