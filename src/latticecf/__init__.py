"""Exact continued fractions, lattice cones and singularity combinatorics.

The package is organized around the two continued-fraction calculi
(:mod:`latticecf.cf`), the hull polygons of plane lattice cones and the
duality between supplementary cones (:mod:`latticecf.lattice`), the zigzag
diagram tying the two together (:mod:`latticecf.zigzag`), weighted dual
graphs of resolutions (:mod:`latticecf.graphs`), and the derived
invariants of cyclic quotient singularities, lens spaces, cusp cycles and
monomial plane curves (:mod:`latticecf.singularities`).

All arithmetic is exact; values are immutable and every operation is a
pure function, safe for unrestricted concurrent use.
"""

from .cf import (
    CFExpansion,
    PeriodicCF,
    Staircase,
    canonical_e,
    continuant,
    e_to_hj,
    e_to_hj_periodic,
    eval_terms,
    evaluate,
    expand_e,
    expand_hj,
    hj_blocks,
    hj_to_e,
    involute,
    involute_e,
    involute_hj,
    reverse_hj,
    staircase,
    staircase_dual,
)
from .errors import (
    CycleTooShort,
    DegenerateCone,
    Disconnected,
    DivisionByZero,
    DomainError,
    InternalError,
    InvalidCycle,
    InvalidSequence,
    LatticeCFError,
    NotContractible,
    RegularCone,
    UnknownVertex,
    ZeroVector,
)
from .graphs import (
    Cycle,
    Vertex,
    WeightedDualGraph,
    chain,
    cycle_graph,
    euler_normalized,
    from_json,
    fundamental_cycle,
    intersection_matrix,
    is_contractible,
    is_contractible_minors,
    leading_principal_minors,
    to_dot,
    to_json,
    valency,
)
from .lattice import (
    ConeNF,
    ConePolygon,
    DualityReport,
    Mat2,
    cone_normal_form,
    dual_cone,
    duality_map,
    hull_oracle,
    integral_length,
    klein_quotients,
    polygon,
    primitive,
    supplementary,
)
from .singularities import (
    CurveResolution,
    CuspCycle,
    HJType,
    LensSpace,
    blowup_count,
    blowup_oracle,
    blowup_types,
    cusp_dual,
    cusp_monodromy,
    cusp_trace_formula,
    embdim,
    embdim_oracle,
    hj_resolution,
    lens_oriented_equal,
    lens_reverse,
    lens_reversed_equal,
    resolve_monomial,
)
from .zigzag import (
    ZigzagDiagram,
    build as build_zigzag,
    read as read_zigzag,
    render as render_zigzag,
)

__version__ = "0.1.0"
