"""DOT emission of fusion graphs, including two-edge-set simultaneous graphs.

Solid edges draw the fusion action of the first chiral generator and dashed
("dotted") edges the second; ambichiral vertices get a double circle and
even vertices a filled style, mirroring the usual figure conventions.
"""

from __future__ import annotations

import numpy as np

from .core import su2_modular_data, verlinde_fusion
from .nimrep import _depths
from .search import ade_graph


def emit_dot(case: str) -> str:
    """Deterministic DOT text of "trivial" (the one ambichiral vacuum) or a diagram.

    A Dynkin diagram is drawn plain: solid edges only, parity flags from its
    bipartition.  A D_odd diagram at level k = 2 mod 4 is drawn as the
    simultaneous fusion graph of the two chiral generators: the k+1 induced
    sectors, all ambichiral for these permutation invariants, with solid edges
    the N_1 adjacency (a path) and dotted edges the N_{k-1} adjacency, both read
    from the validated Verlinde ring that ``fusion`` prints.
    """
    if case == "trivial":
        none = np.zeros((1, 1), dtype=int)
        return _emit(["id"], [True], True, none, none)
    graph = ade_graph(case)
    A = graph.adjacency
    if graph.case != "D_odd":
        labels = [str(i) for i in range(len(A))]
        return _emit(labels, (_depths(A) % 2 == 0).tolist(), False, A, np.zeros_like(A))
    k = graph.level
    names = graph.branching.labels
    N = verlinde_fusion(su2_modular_data(k)).N
    labels = ["id"] + [f"{name}+" for name in names[1:]]
    return _emit(labels, [j % 2 == 0 for j in range(k + 1)], True, N[1], N[k - 1])


def _emit(labels, even, ambichiral: bool, solid: np.ndarray, dotted: np.ndarray) -> str:
    """Vertex v<i> per label, then the upper-triangle edges of solid and of dotted
    in row-major order; a multiplicity above 1 becomes an edge label."""
    shape = " shape=doublecircle" if ambichiral else ""
    fill = ' style=filled fillcolor="gray92"'
    lines = ["graph fusion {", "  node [shape=circle];"]
    lines += [f'  v{i} [label="{label}"{shape}{fill if e else ""}];'
              for i, (label, e) in enumerate(zip(labels, even))]
    for A, style in ((solid, []), (dotted, ["style=dashed"])):
        upper = np.triu(A)
        for a, b in np.argwhere(upper).tolist():
            mult = int(upper[a, b])
            attrs = style + ([f'label="{mult}"'] if mult > 1 else [])
            lines.append(f"  v{a} -- v{b}" + (f" [{' '.join(attrs)}]" if attrs else "") + ";")
    lines.append("}")
    return "\n".join(lines) + "\n"
