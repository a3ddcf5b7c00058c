import pytest
from hypothesis import given
from hypothesis import strategies as st

from totirr import (
    DegreeMultiset,
    Digraph,
    EditError,
    EditOp,
    Graph,
    GraphError,
    apply_edit,
    arc_transformation,
    branch_transformation,
    edge_joint,
    edge_transformation,
    exact_delta_for_edit,
    irr_graph,
    irr_naive,
)
from totirr.graphs import degree_multiset
from totirr.irregularity import IrrPair, irr_digraph

from strategies import connected_components, graphs


def test_edge_joint_shifts_ids():
    g1 = Graph(2, ((0, 1),))
    g2 = Graph(3, ((0, 2),))
    j = edge_joint(g1, g2, 1, 1)
    assert j.vertex_count == 5
    assert j.edges == ((0, 1), (1, 3), (2, 4))


def test_edge_joint_k1_k1_gives_k2():
    k1 = Graph(1, ())
    assert edge_joint(k1, k1, 0, 0) == Graph(2, ((0, 1),))


def test_edge_joint_triangles():
    c3 = Graph(3, ((0, 1), (1, 2), (0, 2)))
    j = edge_joint(c3, c3, 0, 0)
    assert j.vertex_count == 6
    assert j.edge_count == 7
    assert degree_multiset(j).entries == ((2, 4), (3, 2))
    assert irr_graph(j) == 8


def test_edge_joint_complete_with_triangle():
    k4 = Graph(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4)))
    c3 = Graph(3, ((0, 1), (1, 2), (0, 2)))
    j = edge_joint(k4, c3, 0, 0)
    assert degree_multiset(j).entries == ((2, 2), (3, 4), (4, 1))
    assert irr_graph(j) == 16


def test_edge_joint_validation():
    k1 = Graph(1, ())
    with pytest.raises(GraphError):
        edge_joint(k1, k1, 0, 1)
    with pytest.raises(GraphError):
        edge_joint(k1, k1, 1, 0)


@given(graphs(max_n=7), graphs(max_n=7), st.data())
def test_edge_joint_symmetry(g1, g2, data):
    u = data.draw(st.integers(0, g1.vertex_count - 1))
    v = data.draw(st.integers(0, g2.vertex_count - 1))
    left = edge_joint(g1, g2, u, v)
    right = edge_joint(g2, g1, v, u)
    assert degree_multiset(left) == degree_multiset(right)
    assert irr_graph(left) == irr_graph(right)


def test_matched_degree_joints_have_equal_irr():
    # joining at degree-matched cross pairs leaves the multiset unchanged
    g1 = Graph(4, ((0, 1), (1, 2), (2, 3)))
    g2 = Graph(3, ((0, 1), (1, 2)))
    # deg_g1(0)=1 = deg_g2(2); deg_g1(1)=2 = deg_g2(1)
    a = edge_joint(g1, g2, 0, 1)
    b = edge_joint(g1, g2, 1, 2)
    assert degree_multiset(a) == degree_multiset(b)
    assert irr_graph(a) == irr_graph(b)


def test_edge_transformation_path_to_star():
    g = Graph(4, ((0, 1), (1, 2), (2, 3)))
    out = edge_transformation(g, 1, 0, 2)
    assert degree_multiset(out).entries == ((1, 3), (3, 1))
    assert irr_graph(g) == 4
    assert irr_graph(out) == 6


def test_edge_transformation_star_to_path():
    g = Graph(4, ((0, 1), (0, 2), (0, 3)))
    out = edge_transformation(g, 0, 1, 2)
    assert degree_multiset(out).entries == ((1, 2), (2, 2))
    assert irr_graph(out) == 4


def test_edge_transformation_bridged_triangles():
    g = Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3)))
    out = edge_transformation(g, 0, 3, 1)
    assert degree_multiset(out) == degree_multiset(g)
    assert irr_graph(out) == irr_graph(g) == 8


def test_edge_transformation_preserves_edges_and_connectivity():
    g = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4)))
    out = edge_transformation(g, 2, 1, 3)
    assert out.edge_count == g.edge_count
    assert len(connected_components(out)) == 1


def test_edge_transformation_validation():
    tri = Graph(3, ((0, 1), (1, 2), (0, 2)))
    with pytest.raises(GraphError):
        edge_transformation(tri, 0, 1, 2)  # not a cut edge
    chain = Graph(4, ((0, 1), (1, 2), (2, 3)))
    with pytest.raises(GraphError):
        edge_transformation(chain, 1, 2, 3)  # target on the slave side
    with pytest.raises(GraphError):
        edge_transformation(chain, 1, 0, 1)  # target equals moved end
    for target in (-1, 4):  # range-checked before the side test, so the message names the vertex
        with pytest.raises(GraphError, match=f"^vertex {target} outside range 0..3$"):
            edge_transformation(chain, 1, 0, target)


def test_branch_transformation_spider():
    g = Graph(4, ((0, 1), (0, 2), (0, 3)))
    out = branch_transformation(g, 0, 2, 3)
    assert out.edges == ((0, 1), (0, 2), (2, 3))
    assert out.degrees == (2, 1, 2, 1)
    assert irr_graph(g) == 6
    assert irr_graph(out) == 4


def test_branch_transformation_double_star():
    g = Graph(6, ((0, 1), (0, 2), (0, 3), (0, 4), (4, 5)))
    out = branch_transformation(g, 0, 5, 1)
    assert out.vertex_count == g.vertex_count
    assert out.edge_count == g.edge_count
    assert irr_graph(out) < irr_graph(g)


def test_branch_transformation_moves_whole_subtree():
    # branch {3, 4, 5} rooted at 3 hangs off vertex 0
    g = Graph(7, ((0, 1), (0, 2), (0, 3), (3, 4), (3, 5), (1, 6)))
    out = branch_transformation(g, 0, 6, 3)
    assert out.edges == ((0, 1), (0, 2), (1, 6), (3, 4), (3, 5), (3, 6))
    assert irr_graph(out) < irr_graph(g)


def test_branch_transformation_validation():
    chain = Graph(4, ((0, 1), (1, 2), (2, 3)))
    with pytest.raises(GraphError):
        branch_transformation(chain, 1, 3, 2)  # attachment degree below 3
    star = Graph(4, ((0, 1), (0, 2), (0, 3)))
    with pytest.raises(GraphError):
        branch_transformation(star, 0, 0, 3)  # destination not pendant
    g = Graph(5, ((0, 1), (0, 2), (0, 3), (3, 4)))
    with pytest.raises(EditError, match="lies inside the moved branch"):
        branch_transformation(g, 0, 4, 3)
    # each attachment below has degree >= 3 and each destination is a pendant,
    # so the bridge and tree checks are what reject the move
    tri = Graph(4, ((0, 1), (1, 2), (0, 2), (0, 3)))
    with pytest.raises(EditError, match="is not a bridge"):
        branch_transformation(tri, 0, 3, 1)  # {0, 1} lies on a cycle
    doubled = Graph(4, ((0, 1), (0, 1), (0, 2), (0, 3)), allow_parallel=True)
    with pytest.raises(EditError, match="is not a bridge"):
        branch_transformation(doubled, 0, 2, 1)  # one of two parallel copies
    withcycle = Graph(7, ((0, 1), (1, 2), (2, 3), (3, 4), (2, 4), (0, 5), (0, 6)))
    with pytest.raises(EditError, match="is not a tree"):
        branch_transformation(withcycle, 0, 5, 1)  # the branch at 1 holds a cycle
    loopy = Graph(5, ((0, 1), (1, 1), (1, 2), (0, 3), (0, 4)), allow_loops=True)
    with pytest.raises(EditError, match="is not a tree"):
        branch_transformation(loopy, 0, 3, 1)  # the branch at 1 holds a loop


@st.composite
def trees_and_graphs(draw, max_n=9):
    """A random simple graph or, as often, a random tree, which has many valid branch moves."""
    if draw(st.booleans()):
        return draw(graphs(max_n=max_n))
    n = draw(st.integers(1, max_n))
    return Graph(n, tuple((draw(st.integers(0, v - 1)), v) for v in range(1, n)))


@given(trees_and_graphs())
def test_branch_transformation_delta_matches_recompute(g):
    before = irr_naive(degree_multiset(g))
    for u in range(g.vertex_count):
        for root in g._adjacency[u]:
            for v in range(g.vertex_count):
                try:
                    child = branch_transformation(g, u, v, root)
                except GraphError:
                    continue
                # the child equals the validated value of edges the test splices itself
                edges = list(g.edges)
                edges.remove((min(u, root), max(u, root)))
                edges.append((min(v, root), max(v, root)))
                assert child == Graph(g.vertex_count, tuple(edges), g.allow_parallel, g.allow_loops)
                after = irr_naive(degree_multiset(child))
                assert exact_delta_for_edit(g, EditOp.retarget_edge(u, root, v)) == after - before


def test_reverse_arc_round_trip():
    ring = Digraph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
    once = apply_edit(ring, EditOp.reverse_arc(0, 1))
    assert once.arc_count == 4
    assert irr_digraph(once) == IrrPair(6, 6)
    assert apply_edit(once, EditOp.reverse_arc(1, 0)) == ring
    with pytest.raises(GraphError):
        apply_edit(ring, EditOp.reverse_arc(1, 0))


def test_reverse_arc_on_chain():
    chain = Digraph(5, ((0, 1), (1, 2), (2, 3), (3, 4)))
    assert irr_digraph(apply_edit(chain, EditOp.reverse_arc(0, 1))).irr_in == 4
    assert irr_digraph(apply_edit(chain, EditOp.reverse_arc(1, 2))).irr_in == 10


def test_arc_transformation_head():
    chain = Digraph(3, ((0, 1), (1, 2)))
    out = arc_transformation(chain, (1, 2), 0, "head")
    assert out.arcs == ((0, 1), (1, 0))
    assert degree_multiset(out, "in").entries == ((0, 1), (1, 2))
    # head moves leave out-degrees alone
    assert degree_multiset(out, "out") == degree_multiset(chain, "out")


def test_arc_transformation_tail():
    chain = Digraph(3, ((0, 1), (1, 2)))
    out = arc_transformation(chain, (0, 1), 2, "tail")
    assert out.arcs == ((1, 2), (2, 1))
    assert degree_multiset(out, "in") == degree_multiset(chain, "in")


def test_arc_transformation_validation():
    d = Digraph(3, ((0, 1), (0, 2)))
    with pytest.raises(GraphError):
        arc_transformation(d, (0, 1), 2, "head")  # (0, 2) already present
    with pytest.raises(GraphError):
        arc_transformation(d, (0, 1), 0, "head")  # self-arc
    with pytest.raises(GraphError):
        arc_transformation(d, (0, 1), 2, "sideways")
    with pytest.raises(GraphError):
        arc_transformation(d, (1, 2), 0, "head")  # arc absent
    with pytest.raises(GraphError):
        arc_transformation(d, (0, 1), 9, "head")  # target out of range
