"""Vertex partition counts consumed by the prediction formulas.

Every count here is a pure function of degree multisets plus the degrees of
the marked vertices; no adjacency is consulted. The graph-level entry points
only validate structure (cut edge, component membership) and then delegate
to the multiset kernels, so an audit can also drive the kernels directly on
multigraphs where no cut edge exists.

Degrees of marked vertices are always read in the whole graph, with the edge
about to be moved still present.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .graphs import (
    DegreeMultiset,
    Digraph,
    Graph,
    GraphError,
    cut_side,
    degree_multiset,
)


class Relation(Enum):
    """Target degree versus source degree minus one."""

    EQUAL = "equal"
    ABOVE = "above"
    BELOW = "below"


@dataclass(frozen=True)
class JointPartitionCounts:
    """Class sizes for joining two disjoint graphs with one new edge u1--v1.

    a / b     vertices of graph 1 other than u1 with degree <= / > deg(u1)
    a* / b*   vertices of graph 2 with degree <= / > deg(u1)
    c / d     vertices of graph 2 other than v1 with degree <= / > deg(v1)
    c* / d*   vertices of graph 1 with degree <= / > deg(v1)
    r, s, n   order of graph 1, of graph 2, and r + s
    """

    a: int
    b: int
    a_star: int
    b_star: int
    c: int
    d: int
    c_star: int
    d_star: int
    r: int
    s: int
    n: int

    def __post_init__(self):
        if self.a + self.b != self.r - 1:
            raise GraphError("joint counts violate a + b = r - 1")
        if self.c + self.d != self.s - 1:
            raise GraphError("joint counts violate c + d = s - 1")
        if self.a_star + self.b_star != self.s:
            raise GraphError("joint counts violate a* + b* = s")
        if self.c_star + self.d_star != self.r:
            raise GraphError("joint counts violate c* + d* = r")
        if self.n != self.r + self.s:
            raise GraphError("joint counts violate n = r + s")


def joint_partition(
    g1_dm: DegreeMultiset,
    g2_dm: DegreeMultiset,
    deg_u1: int,
    deg_v1: int,
) -> JointPartitionCounts:
    """Count the eight degree classes for an edge joint at (u1 in 1, v1 in 2)."""
    if g1_dm.count_eq(deg_u1) == 0:
        raise GraphError(f"graph 1 has no vertex of degree {deg_u1}")
    if g2_dm.count_eq(deg_v1) == 0:
        raise GraphError(f"graph 2 has no vertex of degree {deg_v1}")
    return JointPartitionCounts(
        a=g1_dm.count_le(deg_u1) - 1,
        b=g1_dm.count_gt(deg_u1),
        a_star=g2_dm.count_le(deg_u1),
        b_star=g2_dm.count_gt(deg_u1),
        c=g2_dm.count_le(deg_v1) - 1,
        d=g2_dm.count_gt(deg_v1),
        c_star=g1_dm.count_le(deg_v1),
        d_star=g1_dm.count_gt(deg_v1),
        r=g1_dm.vertex_count,
        s=g2_dm.vertex_count,
        n=g1_dm.vertex_count + g2_dm.vertex_count,
    )


@dataclass(frozen=True)
class TransformPartitionCounts:
    """Class sizes for moving one edge end off a source vertex onto a target.

    With theta = deg(source) - 1:
      h   vertices of degree theta, plus the source itself
      s   vertices of degree > theta, source excluded
      t   vertices of degree < theta
    The s and t classes are split again at deg(target), target counted on the
    <= side of its own class:
      m / l     members of the s class with degree <= / > deg(target)
      m1 / l1   members of the t class with degree <= / > deg(target)
    relation compares deg(target) against theta.
    """

    h: int
    s: int
    t: int
    m: int
    l: int
    m1: int
    l1: int
    relation: Relation

    def __post_init__(self):
        if self.m + self.l != self.s:
            raise GraphError("transform counts violate m + l = s")
        if self.m1 + self.l1 != self.t:
            raise GraphError("transform counts violate m1 + l1 = t")
        if min(self.h, self.s, self.t) < 0:
            raise GraphError("transform counts must be nonnegative")


def transform_counts(
    dm: DegreeMultiset,
    source_degree: int,
    target_degree: int,
) -> TransformPartitionCounts:
    """Multiset kernel shared by the undirected and directed partitions.

    The source vertex must exist in dm; its degree places it in the h class
    by convention and it is excluded from the > theta class. The target also
    must exist and is counted reflexively inside its own <= split.
    """
    if dm.count_eq(source_degree) == 0:
        raise GraphError(f"no vertex of degree {source_degree} in the multiset")
    if dm.count_eq(target_degree) == 0:
        raise GraphError(f"no vertex of degree {target_degree} in the multiset")
    theta = source_degree - 1
    h = dm.count_eq(theta) + 1
    s = dm.count_gt(theta) - 1
    t = dm.count_lt(theta)

    if target_degree > theta:
        relation = Relation.ABOVE
    elif target_degree == theta:
        relation = Relation.EQUAL
    else:
        relation = Relation.BELOW

    if target_degree > theta:
        m = dm.count_le(target_degree) - dm.count_le(theta)
        if source_degree <= target_degree:
            m -= 1  # the source sits in this band but is not an s member
    else:
        m = 0
    l = s - m

    m1 = dm.count_le(min(theta - 1, target_degree))
    l1 = t - m1

    return TransformPartitionCounts(h=h, s=s, t=t, m=m, l=l, m1=m1, l1=l1, relation=relation)


def transform_partition(g: Graph, u1: int, v1: int, u_i: int) -> TransformPartitionCounts:
    """Counts for retargeting the u1 end of cut edge {u1, v1} onto u_i.

    u_i must lie in the component of u1 once the cut edge is removed, and
    must differ from u1. Degrees are taken in g with the cut edge present.
    """
    for v in (u1, v1, u_i):
        g._check_vertex(v)
    if u_i == u1:
        raise GraphError("target coincides with the moved end")
    if not g.has_edge(u1, v1):
        raise GraphError(f"edge ({u1}, {v1}) not present")
    master = cut_side(g, v1, u1)
    if master is None:
        raise GraphError(f"edge ({u1}, {v1}) is not a cut edge")
    if u_i not in master:
        raise GraphError(f"target {u_i} is not in the component of {u1}")
    counts = transform_counts(degree_multiset(g), g.degree(u1), g.degree(u_i))
    if counts.h + counts.s + counts.t != g.vertex_count:
        raise GraphError("transform counts do not cover the vertex set")  # pragma: no cover
    return counts


def arc_partition(d: Digraph, v1: int, v_i: int, mode: str) -> TransformPartitionCounts:
    """Counts for an arc end moving off v1 onto v_i, in the given degree mode.

    mode "in" classifies in-degrees (v1 about to lose an arc head), "out"
    classifies out-degrees (v1 about to lose an arc tail).
    """
    if mode not in ("in", "out"):
        raise GraphError(f"mode {mode!r} must be 'in' or 'out'")
    d._check_vertex(v1)
    d._check_vertex(v_i)
    if v_i == v1:
        raise GraphError("target coincides with the marked vertex")
    degs = d.in_degrees if mode == "in" else d.out_degrees
    return transform_counts(degree_multiset(d, mode), degs[v1], degs[v_i])
