"""Vertex partition counts consumed by the prediction formulas.

Every count here is a pure function of degree multisets plus the degrees of
the marked vertices, read in the whole graph before the edge moves; no
adjacency is consulted. Each operation's structural precondition (cut edge,
side membership, a fresh target) is checked once, by `transforms` and the edit
it applies, so one kernel serves simple graphs, multigraphs and both digraph
modes. The count records carry no validator: their identities hold by
construction, and the property tests test_joint_invariants and
test_transform_counts_invariants (tests/test_partitions.py) prove them.
"""

from __future__ import annotations

from enum import Enum

from .graphs import DegreeMultiset, GraphError, _Record


class Relation(Enum):
    """Target degree versus source degree minus one."""

    EQUAL = "equal"
    ABOVE = "above"
    BELOW = "below"


class JointPartitionCounts(_Record):
    """Class sizes for joining two disjoint graphs with one new edge u1--v1.

    a / b     vertices of graph 1 other than u1 with degree <= / > deg(u1)
    a* / b*   vertices of graph 2 with degree <= / > deg(u1)
    c / d     vertices of graph 2 other than v1 with degree <= / > deg(v1)
    c* / d*   vertices of graph 1 with degree <= / > deg(v1)
    r, s, n   order of graph 1, of graph 2, and r + s
    """

    def __init__(self, a: int, b: int, a_star: int, b_star: int, c: int, d: int, c_star: int, d_star: int,
                 r: int, s: int, n: int):
        self.__dict__.update(a=a, b=b, a_star=a_star, b_star=b_star, c=c, d=d, c_star=c_star, d_star=d_star,
                             r=r, s=s, n=n)


def joint_partition(g1_dm: DegreeMultiset, g2_dm: DegreeMultiset, deg_u1: int, deg_v1: int) -> JointPartitionCounts:
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


class TransformPartitionCounts(_Record):
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

    def __init__(self, h: int, s: int, t: int, m: int, l: int, m1: int, l1: int, relation: Relation):
        self.__dict__.update(h=h, s=s, t=t, m=m, l=l, m1=m1, l1=l1, relation=relation)


def transform_counts(dm: DegreeMultiset, source_degree: int, target_degree: int) -> TransformPartitionCounts:
    """Counts for an edge or arc end moving off a vertex of source_degree.

    dm is the undirected, in- or out-degree multiset the move changes. The
    source vertex must exist in dm; its degree places it in the h class
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
        m = dm.count_le(target_degree) - dm.count_le(theta)
        if source_degree <= target_degree:
            m -= 1  # the source sits in this band but is not an s member
    else:
        relation = Relation.EQUAL if target_degree == theta else Relation.BELOW
        m = 0  # no s member has degree <= target_degree <= theta
    l = s - m

    m1 = dm.count_le(min(theta - 1, target_degree))
    l1 = t - m1

    return TransformPartitionCounts(h=h, s=s, t=t, m=m, l=l, m1=m1, l1=l1, relation=relation)
