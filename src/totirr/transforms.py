"""Whole-graph operations that the prediction formulas talk about.

These wrap the low-level edit machinery with the structural preconditions of
each named operation, and return new values. Ids are stable: an edge joint
keeps graph 1's ids and offsets graph 2's by graph 1's order; every other
operation preserves ids outright.
"""

from __future__ import annotations

from .graphs import Digraph, EditError, EditOp, Graph, GraphError, apply_edit, cut_side
from .graphs import _branch_component, _check_vertex


def edge_joint(g1: Graph, g2: Graph, u: int, v: int) -> Graph:
    """Disjoint union of g1 and g2 plus the bridging edge u--v.

    u is a g1 id and v a g2 id; in the result v becomes v + g1.vertex_count.
    One constructor call builds it: the bridge is never a loop or a parallel edge.
    """
    _check_vertex(g1, u)
    _check_vertex(g2, v)
    offset = g1.vertex_count
    edges = g1.edges + tuple((a + offset, b + offset) for a, b in g2.edges) + ((u, offset + v),)
    parallel, loops = g1.allow_parallel or g2.allow_parallel, g1.allow_loops or g2.allow_loops
    return Graph(offset + g2.vertex_count, edges, parallel, loops)


def edge_transformation(g: Graph, u1: int, v1: int, u_i: int) -> Graph:
    """Replace cut edge {u1, v1} by {u_i, v1}.

    u_i must lie on u1's side of the cut and differ from u1. The replacement
    edge cannot previously exist, because the cut edge was the only bridge
    between the two sides.
    """
    if not g.has_edge(u1, v1):
        raise GraphError(f"edge ({u1}, {v1}) not present")
    master = cut_side(g, v1, u1)
    if master is None:
        raise GraphError(f"edge ({u1}, {v1}) is not a cut edge")
    _check_vertex(g, u_i)
    if u_i not in master:
        raise GraphError(f"target {u_i} is not on the side of {u1}")
    return apply_edit(g, EditOp.retarget_edge(u1, v1, u_i))


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


def arc_transformation(d: Digraph, arc: tuple[int, int], target: int, end: str) -> Digraph:
    """Move one end of an arc to a new vertex.

    end "head": (tail, head) becomes (tail, target), so only in-degrees move.
    end "tail": (tail, head) becomes (target, head), so only out-degrees move.
    The target must differ from both current endpoints and the resulting arc
    must be fresh.
    """
    tail, head = arc
    if end == "head":
        return apply_edit(d, EditOp.retarget_head(tail, head, target))
    if end == "tail":
        return apply_edit(d, EditOp.retarget_tail(tail, head, target))
    raise GraphError(f"end {end!r} must be 'head' or 'tail'")
