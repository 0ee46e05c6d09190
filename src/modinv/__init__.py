"""Modular data, modular-invariant search, nimreps and chiral sector arithmetic.

The package is organized around exact integer data (fusion tensors, mass
matrices, branching coefficients) produced from double-precision modular
S/T matrices by tolerance-checked rounding.
"""

from .core import (
    FusionRing,
    ModularData,
    su2_modular_data,
    su2_fusion_closed_form,
    sun_modular_data,
    ising_modular_data,
    cyclic_group_modular_data,
    verlinde_fusion,
    check_modular,
    modular_data_to_json,
    modular_data_from_json,
)
from .search import (
    BranchingData,
    MassMatrix,
    CommutantBasis,
    commutant_basis,
    enumerate_invariants,
    verify_invariant,
    permutation_criterion,
    su2_ade_catalog,
    su2_branching,
    AdeGraph,
    ade_graph,
)
from .nimrep import (
    NimRepFamily,
    fused_adjacencies,
    spectrum_vs_diagonal,
    identify_ade,
)
from .graph_algebra import (
    EigenGauge,
    GraphFusion,
    eigen_gauge,
    graph_structure_constants,
)
from .chiral import (
    decompose_gram,
    chiral_indices,
    sector_counts,
    chiral_table,
)
from .dot import emit_dot

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
