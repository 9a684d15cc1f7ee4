"""Residual matching spectra, k-edge-colorable subgraphs, and SAT-to-graph
hardness artifacts.

The result records are `typing.NamedTuple`s, so import compiles no dataclass
methods.  Each is a tuple, equal to a plain tuple of its items, with `_replace`,
`_asdict` and `_fields`; `MatchingCensus.count` shadows `tuple.count`.  A
`Matching` is a frozenset of edges (u, v), u < v.  `Graph` and `ToleranceFunction`
stay frozen dataclasses; each docstring says why."""

from .colorable import ColorableResult, nu2_bipartite
from .graph import (
    Bipartition,
    DuplicateEdgeWarning,
    Graph,
    GraphFormatError,
    bipartition,
    build_graph,
    degree_profile,
    emit_graph_file,
    is_connected,
    normalize_edge,
    parse_graph_file,
)
from .matching import (
    Matching,
    matching_from_pairs,
    max_matching,
    nu,
)
from .reduction import (
    Assignment,
    Certificate,
    CnfInstance,
    DimacsError,
    ReductionArtifact,
    StructuralDecodeError,
    additive_threshold,
    all_assignments,
    build_artifact,
    calibration,
    decode_matching,
    encode_assignment,
    parse_dimacs,
    sat_count,
    verify_artifact,
)
from .spectrum import (
    ApproxTrialReport,
    BoundsReport,
    Problem1Result,
    SpectrumReport,
    ToleranceFunction,
    TruncatedSpectrumError,
    approx_trial,
    check_bounds,
    decide_problem1,
    parse_tolerance,
    spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxTrialReport",
    "Assignment",
    "Bipartition",
    "BoundsReport",
    "Certificate",
    "CnfInstance",
    "ColorableResult",
    "DimacsError",
    "DuplicateEdgeWarning",
    "Graph",
    "GraphFormatError",
    "Matching",
    "Problem1Result",
    "ReductionArtifact",
    "SpectrumReport",
    "StructuralDecodeError",
    "ToleranceFunction",
    "TruncatedSpectrumError",
    "additive_threshold",
    "all_assignments",
    "approx_trial",
    "bipartition",
    "build_artifact",
    "build_graph",
    "calibration",
    "check_bounds",
    "decide_problem1",
    "decode_matching",
    "degree_profile",
    "emit_graph_file",
    "encode_assignment",
    "is_connected",
    "matching_from_pairs",
    "max_matching",
    "normalize_edge",
    "nu",
    "nu2_bipartite",
    "parse_dimacs",
    "parse_graph_file",
    "parse_tolerance",
    "sat_count",
    "spectrum",
    "verify_artifact",
]
