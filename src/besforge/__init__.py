"""Constructive toolkit for sparse hyperedge configurations in dense linear
3-partite 3-graphs: pair-graph construction, dense 2-degenerate subgraph
search, configuration unpacking with proof-level audits, the assembly loop,
high-girth degenerate growth, and exhaustive small-instance oracles."""

from .auxgraph import AuxEdge, AuxGraph, build_aux, simple_subgraph
from .core import (
    Configuration,
    LinearityVerdict,
    ReduceOrWin,
    TripartiteLinearSystem,
    TripleSystem,
    pair_map,
    reduce_or_win,
    to_triple_system,
    validate_linear,
    verify_configuration,
)
from .degsearch import (
    CandidateF,
    DegeneracyOrdering,
    SearchResult,
    degeneracy_ordering,
    find_dense_2deg,
)
from .driver import (
    DriverParams,
    DriverReport,
    FrameReport,
    find_be_s_configuration,
    paper_constant_d,
)
from .errors import (
    AuditError,
    BesforgeError,
    DegenerateInputError,
    ExhaustionError,
    FormatError,
    GrowthError,
    GuardExceededError,
    IntegrityError,
    LinearityError,
    ParameterError,
)
from .generators import group_system, random_linear
from .girth import (
    GrowthCertificate,
    find_growth_t,
    girth_of,
    grow_girth_graph,
    verify_certificate,
)
from .graphs import Graph, within_distance
from .oracle import OracleResult, exists_config, min_span, span_lower_bound
from .unpack import (
    LemmaBoundsReport,
    StepRecord,
    UnpackTrace,
    check_lemma_bounds,
    unpack,
)

__version__ = "0.1.0"
