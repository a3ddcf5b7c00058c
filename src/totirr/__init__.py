"""Total irregularity of graphs and digraphs: exact values, incremental
deltas under edits, closed forms for standard families, and differential
audits of the prediction formulas against a brute-force oracle.

The root re-exports the names the README uses; everything else is imported
from its submodule (`totirr.audit`, `totirr.predictors`, ...)."""

from .fileio import FormatError, graph_to_text, parse_graph_text, read_graph_file, write_graph_file
from .graphs import DegreeMultiset, Digraph, EditError, EditOp, Graph, GraphError, apply_edit, cut_side
from .irregularity import exact_delta_for_edit, irr_fast, irr_graph, irr_naive
from .partitions import joint_partition, transform_counts
from .rng import SplitMix64
from .transforms import arc_transformation, branch_transformation, edge_joint, edge_transformation

__all__ = [
    "DegreeMultiset",
    "Digraph",
    "EditError",
    "EditOp",
    "FormatError",
    "Graph",
    "GraphError",
    "SplitMix64",
    "apply_edit",
    "arc_transformation",
    "branch_transformation",
    "cut_side",
    "edge_joint",
    "edge_transformation",
    "exact_delta_for_edit",
    "graph_to_text",
    "irr_fast",
    "irr_graph",
    "irr_naive",
    "joint_partition",
    "parse_graph_text",
    "read_graph_file",
    "transform_counts",
    "write_graph_file",
]
