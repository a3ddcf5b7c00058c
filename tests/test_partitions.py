import pytest
from hypothesis import given
from hypothesis import strategies as st

from totirr import DegreeMultiset, Digraph, Graph, GraphError, joint_partition, transform_counts
from totirr.graphs import degree_multiset
from totirr.partitions import Relation

from strategies import multisets


def dm(*degrees):
    return DegreeMultiset.from_degrees(degrees)


# --- joint partition --------------------------------------------------------


def test_joint_two_triangles():
    p = joint_partition(dm(2, 2, 2), dm(2, 2, 2), 2, 2)
    assert (p.a, p.b, p.a_star, p.b_star) == (2, 0, 3, 0)
    assert (p.c, p.d, p.c_star, p.d_star) == (2, 0, 3, 0)
    assert (p.r, p.s, p.n) == (3, 3, 6)


def test_joint_complete_vs_triangle():
    p = joint_partition(dm(3, 3, 3, 3), dm(2, 2, 2), 3, 2)
    assert (p.a, p.b) == (3, 0)
    assert (p.a_star, p.b_star) == (3, 0)
    assert (p.c, p.d) == (2, 0)
    assert (p.c_star, p.d_star) == (0, 4)


def test_joint_single_vertices():
    p = joint_partition(dm(0), dm(0), 0, 0)
    assert (p.a, p.b, p.a_star, p.b_star) == (0, 0, 1, 0)
    assert (p.c, p.d, p.c_star, p.d_star) == (0, 0, 1, 0)
    assert (p.r, p.s, p.n) == (1, 1, 2)


def test_joint_requires_present_degrees():
    with pytest.raises(GraphError):
        joint_partition(dm(1, 1), dm(2, 2), 3, 2)
    with pytest.raises(GraphError):
        joint_partition(dm(1, 1), dm(2, 2), 1, 0)


@given(multisets(max_size=25), multisets(max_size=25), st.data())
def test_joint_invariants(m1, m2, data):
    deg_u = data.draw(st.sampled_from([d for d, _ in m1.entries]))
    deg_v = data.draw(st.sampled_from([d for d, _ in m2.entries]))
    p = joint_partition(m1, m2, deg_u, deg_v)
    assert p.a + p.b == p.r - 1
    assert p.c + p.d == p.s - 1
    assert p.a_star + p.b_star == p.s
    assert p.c_star + p.d_star == p.r
    assert p.n == p.r + p.s
    assert min(p.a, p.b, p.a_star, p.b_star, p.c, p.d, p.c_star, p.d_star) >= 0


# --- transform partition ----------------------------------------------------


def edge_counts(g, moved, target):
    return transform_counts(degree_multiset(g), g.degree(moved), g.degree(target))


def arc_counts(d, marked, target, mode):
    degrees = d.in_degrees if mode == "in" else d.out_degrees
    return transform_counts(degree_multiset(d, mode), degrees[marked], degrees[target])


def test_transform_path_witness():
    g = Graph(4, ((0, 1), (1, 2), (2, 3)))  # v1=0, u1=1, chain beyond
    p = edge_counts(g, 1, 2)
    assert (p.h, p.s, p.t) == (3, 1, 0)
    assert p.relation is Relation.ABOVE
    assert (p.m, p.l) == (1, 0)


def test_transform_star_witness():
    g = Graph(4, ((0, 1), (0, 2), (0, 3)))  # u1=0 center, v1=1 pendant
    p = edge_counts(g, 0, 2)
    assert (p.h, p.s, p.t) == (1, 0, 3)
    assert p.relation is Relation.BELOW
    assert (p.m1, p.l1) == (3, 0)


def test_transform_bridged_triangles_witness():
    g = Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3)))
    p = edge_counts(g, 0, 1)
    assert p.relation is Relation.EQUAL


@given(multisets(max_size=30), st.data())
def test_transform_counts_invariants(m, data):
    values = [d for d, _ in m.entries]
    source = data.draw(st.sampled_from(values))
    target = data.draw(st.sampled_from(values))
    p = transform_counts(m, source, target)
    assert p.h + p.s + p.t == m.vertex_count
    assert p.m + p.l == p.s
    assert p.m1 + p.l1 == p.t
    assert min(p.h, p.s, p.t, p.m, p.l, p.m1, p.l1) >= 0
    theta = source - 1
    if target > theta:
        assert p.relation is Relation.ABOVE
    elif target == theta:
        assert p.relation is Relation.EQUAL
    else:
        assert p.relation is Relation.BELOW


# --- arc partition ----------------------------------------------------------


def test_arc_partition_chain_in_mode():
    chain = Digraph(4, ((0, 1), (1, 2), (2, 3)))
    p = arc_counts(chain, 1, 3, "in")
    assert p.h == 2


def test_arc_partition_tournament_out_mode():
    t5 = Digraph(5, tuple((i, (i + 1) % 5) for i in range(5)) + tuple((i, (i + 2) % 5) for i in range(5)))
    p = arc_counts(t5, 0, 3, "out")
    assert p.t == 0


def test_arc_partition_ring_in_mode():
    ring = Digraph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
    p = arc_counts(ring, 1, 3, "in")
    assert (p.h, p.s, p.t) == (1, 3, 0)

