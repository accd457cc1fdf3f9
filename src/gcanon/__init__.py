"""Graph canonization, isomorph-free enumeration, graph6 I/O, a small
all-solutions SAT solver, and Ramsey coloring search pipelines."""

from .canon import (
    CanonicalResult,
    canonical_form,
    canonize,
    isomorphic,
    refine_equitable,
)
from .generate import all_nonisomorphic, dedup_canonical, extend_and_reduce
from .graph import (
    ADJ_LIST,
    ADJ_MATRIX,
    EDGE_LIST,
    GRAPH6_ATOM,
    Graph,
    GraphError,
    OrderedPartition,
    Permutation,
    apply_permutation,
    extensions,
    graph_convert,
)
from .graph6 import decode_graph6, encode_graph6
from .ramsey import (
    EdgeVarMap,
    RamseyInstance,
    encode_ramsey,
    gen_ramsey_cg,
    gen_ramsey_gt,
    is_ramsey,
)

__all__ = [
    "ADJ_LIST", "ADJ_MATRIX", "EDGE_LIST", "GRAPH6_ATOM",
    "CanonicalResult", "EdgeVarMap", "Graph", "GraphError",
    "OrderedPartition", "Permutation", "RamseyInstance",
    "all_nonisomorphic", "apply_permutation", "canonical_form", "canonize",
    "decode_graph6", "dedup_canonical", "encode_graph6", "encode_ramsey",
    "extend_and_reduce", "extensions", "gen_ramsey_cg", "gen_ramsey_gt",
    "graph_convert", "is_ramsey", "isomorphic", "refine_equitable",
]

__version__ = "0.1.0"
