"""DOT emission of fusion graphs, including two-edge-set simultaneous graphs.

Solid edges draw the fusion action of the first chiral generator and dashed
("dotted") edges the second; ambichiral vertices get a double circle and
even vertices a filled style, mirroring the usual figure conventions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import su2_modular_data, verlinde_fusion
from .nimrep import AdeGraph, _depths
from .search import su2_branching


@dataclass(frozen=True)
class GraphVertex:
    id: int
    label: str
    even: bool = False
    ambichiral: bool = False


@dataclass(frozen=True)
class GraphDocument:
    vertices: tuple[GraphVertex, ...]
    solid_edges: tuple[tuple[int, int, int], ...]   # (a, b, multiplicity)
    dotted_edges: tuple[tuple[int, int, int], ...]

    def validate(self) -> None:
        ids = {v.id for v in self.vertices}
        for a, b, mult in self.solid_edges + self.dotted_edges:
            if a not in ids or b not in ids:
                raise ValueError(f"edge ({a},{b}) references an undeclared vertex")
            if mult <= 0:
                raise ValueError("edge multiplicities must be positive")


def _edges_from_adjacency(A: np.ndarray):
    return tuple((a, b, int(A[a, b])) for a, b in np.argwhere(np.triu(A)).tolist())


def ade_document(graph: AdeGraph) -> GraphDocument:
    """The plain Dynkin diagram, solid edges only, parity flags from bipartition."""
    depth = _depths(graph.adjacency)
    vertices = tuple(
        GraphVertex(id=i, label=str(i), even=(depth[i] % 2 == 0))
        for i in range(graph.num_vertices))
    return GraphDocument(vertices=vertices,
                         solid_edges=_edges_from_adjacency(graph.adjacency),
                         dotted_edges=())


def dodd_fusion_document(k: int) -> GraphDocument:
    """Simultaneous fusion graph of the two chiral generators at level k = 2 mod 4.

    Vertices are the k+1 induced sectors; solid edges are the N_1 adjacency
    (a path) and dotted edges the N_{k-1} adjacency, both read from the
    validated Verlinde ring that ``fusion`` prints.  All vertices are
    ambichiral for these permutation invariants.
    """
    branching = su2_branching("D_odd", k)  # raises BranchingError off levels 2 mod 4
    ring = verlinde_fusion(su2_modular_data(k))
    vertices = tuple(
        GraphVertex(id=j, label="id" if j == 0 else f"{name}+",
                    even=(j % 2 == 0), ambichiral=True)
        for j, name in enumerate(branching.labels))
    return GraphDocument(
        vertices=vertices,
        solid_edges=_edges_from_adjacency(ring.N[1]),
        dotted_edges=_edges_from_adjacency(ring.N[k - 1]),
    )


def trivial_document() -> GraphDocument:
    return GraphDocument(vertices=(GraphVertex(0, "id", even=True, ambichiral=True),),
                         solid_edges=(), dotted_edges=())


def emit_dot(doc: GraphDocument) -> str:
    """Deterministic DOT text: stable ids, label attributes, solid/dashed styles."""
    doc.validate()
    lines = ["graph fusion {", "  node [shape=circle];"]
    for v in sorted(doc.vertices, key=lambda v: v.id):
        attrs = [f'label="{v.label}"']
        if v.ambichiral:
            attrs.append("shape=doublecircle")
        if v.even:
            attrs.append('style=filled fillcolor="gray92"')
        lines.append(f"  v{v.id} [{' '.join(attrs)}];")
    for a, b, mult in sorted(doc.solid_edges):
        extra = f' [label="{mult}"]' if mult > 1 else ""
        lines.append(f"  v{a} -- v{b}{extra};")
    for a, b, mult in sorted(doc.dotted_edges):
        extra = f' label="{mult}"' if mult > 1 else ""
        lines.append(f"  v{a} -- v{b} [style=dashed{extra}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
