"""Gap-constrained total labelings of graphs.

A (d,1)-total labeling colors vertices and edges with integers so that
adjacent vertices differ, adjacent edges differ, and every vertex sits at
least d away from the colors of its incident edges.  The package builds
such labelings constructively on plane graphs within a guaranteed span,
finds optimal spans exactly on small graphs, verifies labelings, and
audits graphs against the structural inventory behind the span guarantee.
"""

from .graphs import (
    DisconnectedError,
    EmbeddingError,
    Graph,
    GraphError,
    PlaneGraph,
    edge_key,
    trace_faces,
)
from .families import (
    FAMILIES,
    cycle,
    generate,
    random_planar,
    stacked_triangulation,
    star,
    wheel,
)
from .labeling import (
    EDGE_ADJACENCY,
    INCIDENCE_GAP,
    RANGE,
    VERTEX_ADJACENCY,
    ColorInterval,
    PartialLabeling,
    Violation,
    available_edge,
    available_vertex,
    validate,
    working_interval,
)
from .io import (
    FormatError,
    parse_graph,
    parse_labeling,
    serialize_graph,
    serialize_labeling,
)
from .exact import (
    BudgetExceeded,
    SolveResult,
    bounds,
    chromatic_number,
    edge_chromatic_number,
    find_labeling,
    lambda_exact,
    span_lower_bound,
)
from .listcolor import (
    ListColorError,
    ListSizeError,
    bipartition,
    check_list_sizes,
    list_edge_color,
)
from .reduction import (
    ALTERNATOR,
    DEG4_LOW_NEIGHBOR,
    FACE_566,
    FACE_567,
    KIND_ORDER,
    LIGHT_EDGE,
    SPARSE_EDGE,
    TWIN_LOW_NEIGHBOR,
    TWO_DEG2,
    ExtensionError,
    ExtensionTrace,
    IrreducibleError,
    ReducibleConfig,
    ReductionRecord,
    TraceStep,
    config_holds,
    find_configuration,
    label_planar,
    reduce_config,
)
from .discharge import (
    AuditError,
    AuditReport,
    ChargeLedger,
    MasterOutcome,
    StructureViolation,
    apply_rules,
    assign_masters,
    audit,
    classify_faces,
    initial_charges,
    scan_structure,
)

__version__ = "0.1.0"
