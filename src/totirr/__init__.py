"""Total irregularity of graphs and digraphs: exact values, incremental
deltas under edits, closed forms for standard families, and differential
audits of the prediction formulas against a brute-force oracle.

The root re-exports the names the README uses; everything else is imported
from its submodule (`totirr.audit`, `totirr.predictors`, ...). A re-exported
name loads its submodule on first use (PEP 562), so a command imports only
the modules it runs."""

from importlib import import_module

_HOMES = {
    name: module
    for module, names in (
        ("fileio", "FormatError graph_to_text parse_graph_text read_graph_file write_graph_file"),
        ("graphs", "DegreeMultiset Digraph EditError EditOp Graph GraphError apply_edit cut_side"),
        ("irregularity", "exact_delta_for_edit irr_fast irr_graph irr_naive"),
        ("partitions", "joint_partition transform_counts"),
        ("rng", "SplitMix64"),
        ("transforms", "branch_transformation edge_joint edge_transformation"),
    )
    for name in names.split()
}

__all__ = sorted(_HOMES)


def __getattr__(name: str) -> object:
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
