"""Whole-graph operations that the prediction formulas talk about.

These wrap the low-level edit machinery with the structural preconditions of
each named operation, and return new values. One function, _retarget, picks
the checks for every move of one end of an edge or an arc. Ids are stable: an
edge joint keeps graph 1's ids and offsets graph 2's by graph 1's order; every
other operation preserves ids outright.
"""

from __future__ import annotations

from .graphs import AnyGraph, EditError, EditOp, Graph, GraphError, _branch_component, _check_vertex, _union
from .graphs import apply_edit, cut_side


def edge_joint(g1: Graph, g2: Graph, u: int, v: int) -> Graph:
    """Disjoint union of g1 and g2 plus the bridging edge u--v.

    u is a g1 id and v a g2 id; in the result v becomes v + g1.vertex_count.
    It is graphs._union(g1, g2) with one add-edge edit: the bridge is never a loop or a parallel edge.
    """
    _check_vertex(g1, u)
    _check_vertex(g2, v)
    return apply_edit(_union(g1, g2), EditOp.add_edge(u, g1.vertex_count + v))


def edge_transformation(g: Graph, u1: int, v1: int, u_i: int) -> Graph:
    """Replace cut edge {u1, v1} by {u_i, v1}.

    u_i must lie on u1's side of the cut and differ from u1. The replacement
    edge cannot previously exist, because the cut edge was the only bridge
    between the two sides.
    """
    _check_vertex(g, u1, v1)
    if not g.has_edge(u1, v1):
        raise GraphError(f"edge ({u1}, {v1}) not present")
    master = cut_side(g, v1, u1)
    if master is None:
        raise GraphError(f"edge ({u1}, {v1}) is not a cut edge")
    _check_vertex(g, u_i)
    if u_i not in master:
        raise GraphError(f"target {u_i} is not on the side of {u1}")
    return apply_edit(g, EditOp.retarget_edge(u1, v1, u_i))


def _retarget(g: AnyGraph, op: EditOp) -> AnyGraph:
    """g after op, which moves one end of an edge or an arc. A simple graph's edge goes through
    edge_transformation, which checks the cut edge and the target's side; a multigraph has no cut
    edge to check, and an arc move has no check beyond apply_edit's."""
    if isinstance(g, Graph) and not g.multigraph:
        return edge_transformation(g, *op.endpoints, op.target)
    return apply_edit(g, op)


def branch_transformation(g: Graph, u: int, v: int, branch_root: int) -> Graph:
    """Detach the hanging tree rooted at branch_root from u; reattach at v.

    Preconditions: deg(u) >= 3, the edge {u, branch_root} is a bridge whose
    branch side is a tree, and v is a pendant vertex outside that tree. The
    move itself is the retarget of that edge's u end onto v.
    """
    if g.degree(u) < 3:
        raise GraphError(f"attachment vertex {u} has degree {g.degree(u)}, needs >= 3")
    if g.degree(v) != 1:
        raise GraphError(f"destination {v} has degree {g.degree(v)}, needs a pendant")
    if v in _branch_component(g, u, branch_root):
        raise EditError(f"destination {v} lies inside the moved branch")
    return apply_edit(g, EditOp.retarget_edge(u, branch_root, v))
