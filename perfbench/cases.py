"""Seeded case lists of the three benchmark workloads.

A case is the argv of one ``modinv`` CLI invocation.  The seed only picks
levels or diagrams inside narrow fixed strata and orders cases, so the amount
of work in a round varies little from seed to seed, and the number of cases
never varies.  A round takes at most about 5 s of CPU time on a 2-core
machine, so a run of 40 s repeats every case several times and the runner
can take each case's median sample.  The cheap su2_classification catalogs,
the median case among them, run QUICK_REPEATS times a round for more
samples; each case still counts once.
"""

from __future__ import annotations

import random

# Levels every su2_classification round runs: the exceptional levels of the
# E6, E7 and E8 invariants, three levels above 28, and level 44, the largest
# catalog that keeps the round near 5 s (level 64, the declared limit, takes
# about 9 s alone).  The catalogs above 28 carry most of the round's time, so
# they are fixed, and the sweep does not move with the seed.
SU2_FIXED_LEVELS = (4, 10, 16, 28, 33, 37, 40, 44)
# One more level is drawn from each stratum.  Five cases lie below level 28
# and five above it (counting the chiral table), so the median case of a
# round is always the level-28 catalog.
SU2_STRATA = (range(1, 22), range(22, 27))
CHIRAL_TABLE_MAX_LEVEL = 32
# Catalogs up to this level take at most about 0.2 s and are repeated.
SU2_QUICK_MAX_LEVEL = 28
QUICK_REPEATS = 3

# SU(3)_7 at this node budget is the one case that fails on every seed: the
# search needs about 53k nodes there, because it tests integrality only at
# its leaves.
SU3_FAILING_LEVEL = 7
SU3_FAILING_BUDGET = 10000
KNOWN_FAULTS = {
    ("invariants", "--family", "su3", "--level", str(SU3_FAILING_LEVEL),
     "--budget", str(SU3_FAILING_BUDGET), "--json"):
        "search.enumerate_invariants tests integrality and positivity only at "
        "the leaves, so its node count is the product of all pivot ranges",
}
SU3_MAX_LEVEL = 7
SU4_MAX_LEVEL = 4

# Every round runs A33, A49 (level 48), D21 and the three E diagrams, the
# diagrams that carry most of its time; one more A and one more D diagram is
# drawn from each stratum of vertex counts.  Each D stratum holds one parity
# (D_odd graphs draw their fusion graph), so every draw costs about the same.
# No drawn case costs within a few ms of the median case, the id+l8+l16
# gram: exactly 21 of the 43 cases are cheaper on every seed, so the median
# case does not move with the seed.
ADE_FIXED_GRAPHS = ("A33", "A49", "D21", "E6", "E7", "E8")
ADE_A_STRATA = ((5, 6), (21, 22))
ADE_D_STRATA = ((10, 12), (13, 15))
# Gram generating vectors id+l{k} at k = 4l - 2 (G1 = D_{2l+1}) for these l,
# id+l8+l16 at k = 16 (G1 = E7), and id+l2 (G1 = A_{k+1}) at one level per
# stratum.  Both series stop below the levels where decompose_gram exceeds
# the interpreter's recursion limit.
GRAM_DODD_ELLS = tuple(range(2, 11))
GRAM_A_STRATA = ((5, 6), (21, 22), (25, 26))


def _draw(rng: random.Random, strata, skip=()) -> list[int]:
    """One value from each stratum, a sequence of candidates."""
    return [rng.choice([v for v in stratum if v not in skip]) for stratum in strata]


def _passes(rng: random.Random, quick, slow) -> list[tuple[str, ...]]:
    """QUICK_REPEATS passes over the quick cases in seeded order, with the slow
    cases spread between the passes."""
    cases = []
    for i in range(QUICK_REPEATS):
        cases += rng.sample(quick, len(quick))
        cases += slow[i::QUICK_REPEATS]
    return cases


def su2_classification(seed: int) -> list[tuple[str, ...]]:
    rng = random.Random(seed)
    levels = SU2_FIXED_LEVELS + tuple(_draw(rng, SU2_STRATA, SU2_FIXED_LEVELS))
    quick = [("catalog", "--level", str(k), "--json")
             for k in levels if k <= SU2_QUICK_MAX_LEVEL]
    slow = [("catalog", "--level", str(k), "--json")
            for k in levels if k > SU2_QUICK_MAX_LEVEL]
    slow.append(("chiral-table", "--max-level", str(CHIRAL_TABLE_MAX_LEVEL), "--json"))
    rng.shuffle(slow)
    return _passes(rng, quick, slow)


def sun_frontier(seed: int) -> list[tuple[str, ...]]:
    cases = [("invariants", "--family", "su3", "--level", str(k), "--json")
             for k in range(1, SU3_MAX_LEVEL + 1)]
    cases += [("invariants", "--family", "su4", "--level", str(k), "--json")
              for k in range(1, SU4_MAX_LEVEL + 1)]
    cases.append(("invariants", "--family", "ising", "--json"))
    cases += list(KNOWN_FAULTS)
    random.Random(seed).shuffle(cases)
    return cases


def ade_graphs(seed: int) -> list[tuple[str, ...]]:
    rng = random.Random(seed)
    graphs = list(ADE_FIXED_GRAPHS)
    graphs += [f"A{n}" for n in _draw(rng, ADE_A_STRATA)]
    graphs += [f"D{n}" for n in _draw(rng, ADE_D_STRATA)]
    cases = []
    for g in graphs:
        cases.append(("nimrep", "--graph", g, "--csv"))
        cases.append(("graph-algebra", "--graph", g, "--json"))
        cases.append(("emit-graph", "--case", g, "--out", f"{g}.dot"))
    for ell in GRAM_DODD_ELLS:
        k = 4 * ell - 2
        cases.append(("gram", "--level", str(k), "--theta", f"id+l{k}"))
    cases.append(("gram", "--level", "16", "--theta", "id+l8+l16"))
    for k in _draw(rng, GRAM_A_STRATA):
        cases.append(("gram", "--level", str(k), "--theta", "id+l2"))
    rng.shuffle(cases)
    return cases


WORKLOADS = {
    "su2_classification": su2_classification,
    "sun_frontier": sun_frontier,
    "ade_graphs": ade_graphs,
}

# One small untimed case per workload, run before timing starts.
WARMUP = {
    "su2_classification": ("catalog", "--level", "6", "--json"),
    "sun_frontier": ("invariants", "--family", "su3", "--level", "2", "--json"),
    "ade_graphs": ("nimrep", "--graph", "D5", "--csv"),
}
