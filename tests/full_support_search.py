"""The commutant search on the whole T-support: a fixed reference for the
differential tests of modinv.search.

full_support_basis solves [S, X] = [T, X] = 0 on every position the float
T phases allow, with no parity zero dropped and no Galois orbit merged, so
it spans the whole commutant; full_support_invariants runs the pruned
depth-first search of enumerate_invariants over it.  Both are copies of the
search as it stood before the Galois orbit columns, kept apart from the
program so that a later change to it is checked against this one.
"""

import math

import numpy as np

from modinv import core, search


def full_support_basis(md):
    """(E, D, pivots): the integer reduced echelon basis E / D of the commutant
    on the positions with equal T phases, pivots in row-major order."""
    L = md.size
    t = np.diag(md.T)
    I, J = np.nonzero(np.abs(t[:, None] - t[None, :]) < core.PHASE_TOL)
    K = (md.S[np.ix_(I, I)] * md.S[np.ix_(J, J)].conj()).real
    lam, vecs = np.linalg.eigh((K + K.T) / 2)
    dim = int(np.count_nonzero(1.0 - lam <= core.FIXED_SPACE_TOL))
    B = vecs[:, len(I) - dim:].T.copy()
    pivots = []
    for col in range(len(I)):
        r = len(pivots)
        if r == dim:
            break
        piv = int(np.argmax(np.abs(B[r:, col]))) + r
        if abs(B[piv, col]) < core.PIVOT_TOL:
            continue
        B[[r, piv]] = B[[piv, r]]
        B[r] /= B[r, col]
        f = B[:, col].copy()
        f[r] = 0.0
        B -= np.outer(f, B[r])
        pivots.append(int(I[col] * L + J[col]))
    N, D = search._rationalize(B)
    E = np.zeros((dim, L, L), dtype=np.int64)
    E[:, I, J] = N
    return E, D, pivots


def full_support_invariants(md, budget=search.DEFAULT_NODE_BUDGET):
    """The invariants in the span of full_support_basis, sorted by key, with
    complete and nodes as enumerate_invariants counts them: pivots most
    constrained first, and a child skipped when its largest possible leaf
    has a negative entry."""
    E, D, pivots = full_support_basis(md)
    L, dim = md.size, len(pivots)
    bound = np.outer(md.dims, md.dims).reshape(-1)
    order = sorted(range(dim), key=lambda i: (bound[pivots[i]], pivots[i]))
    E = E.reshape(dim, L * L)[order]
    lo = [1 if pivots[i] == 0 else 0 for i in order]
    hi = [1 if pivots[i] == 0 else int(math.floor(bound[pivots[i]] + core.ROUND_TOL))
          for i in order]
    U = np.zeros((dim + 1, L * L), dtype=np.int64)
    for idx in range(dim - 1, -1, -1):
        U[idx] = U[idx + 1] + np.maximum(lo[idx] * E[idx], hi[idx] * E[idx])
    results = []
    nodes = 0

    def dfs(idx, P):
        # False once the budget is spent
        nonlocal nodes
        if idx == dim:
            if P[0] == D and P.min() >= 0 and not (P % D).any():
                results.append(search.MassMatrix((P // D).reshape(L, L)))
            return True
        for c in range(lo[idx], hi[idx] + 1):
            nodes += 1
            if nodes > budget:
                return False
            child = P + c * E[idx]
            if (child + U[idx + 1]).min() >= 0 and not dfs(idx + 1, child):
                return False
        return True

    complete = dfs(0, np.zeros(L * L, dtype=np.int64))
    return search.InvariantList(sorted(results, key=search.MassMatrix.key),
                                complete=complete, nodes=nodes)
