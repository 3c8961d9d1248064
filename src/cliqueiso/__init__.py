"""Exact and constructive k-clique isolation.

A set D of vertices isolates the k-cliques of a graph G when G - N[D] has no
k-clique.  This package computes the minimum size of such a set exactly (by
branch and bound, with a brute-force subset oracle as a second route), builds
sets of size at most floor(n/(k+1)) constructively for every connected graph
other than the two excluded shapes, generates the tight extremal family along
with random and exhaustive corpora, and exposes the lot through a CLI speaking
a plain edge-list format.
"""

from .cliques import find_k_clique, has_k_clique
from .construct import (
    BoundResult,
    BranchTag,
    ComponentResult,
    ExceptionalGraphError,
    TraceStep,
    bounded_isolating_set,
    bounded_sets_per_component,
)
from .edgelist import (
    EdgeListError,
    format_edge_list,
    parse_edge_list,
    read_graph,
    write_graph,
)
from .generators import (
    EnumerationCapError,
    ExtremalParams,
    build_complete,
    build_cycle,
    build_extremal,
    build_path,
    enumerate_connected,
    gen_random_connected,
    graph_from_edge_bits,
    pair_order,
)
from .graph import (
    ExceptionKind,
    Graph,
    Subgraph,
    VertexSet,
    classify_exception,
    closed_neighborhood,
    components,
    delete,
    induced,
    is_connected,
)
from .isolation import (
    DEFAULT_ORACLE_CAP,
    IsolationCertificate,
    OracleCapError,
    SolveReport,
    greedy_upper_bound,
    iota_oracle,
    iota_solve,
    verify_isolating,
)

__version__ = "0.1.0"

__all__ = [
    "BoundResult",
    "BranchTag",
    "ComponentResult",
    "DEFAULT_ORACLE_CAP",
    "EdgeListError",
    "EnumerationCapError",
    "ExceptionKind",
    "ExceptionalGraphError",
    "ExtremalParams",
    "Graph",
    "IsolationCertificate",
    "OracleCapError",
    "SolveReport",
    "Subgraph",
    "TraceStep",
    "VertexSet",
    "bounded_isolating_set",
    "bounded_sets_per_component",
    "build_complete",
    "build_cycle",
    "build_extremal",
    "build_path",
    "classify_exception",
    "closed_neighborhood",
    "components",
    "delete",
    "enumerate_connected",
    "find_k_clique",
    "format_edge_list",
    "gen_random_connected",
    "graph_from_edge_bits",
    "greedy_upper_bound",
    "has_k_clique",
    "induced",
    "iota_oracle",
    "iota_solve",
    "is_connected",
    "pair_order",
    "parse_edge_list",
    "read_graph",
    "verify_isolating",
    "write_graph",
]
