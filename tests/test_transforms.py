import pytest
from hypothesis import given
from hypothesis import strategies as st

from totirr import (
    Digraph,
    EditError,
    EditOp,
    Graph,
    GraphError,
    apply_edit,
    branch_transformation,
    edge_joint,
    edge_transformation,
    exact_delta_for_edit,
    irr_graph,
    irr_naive,
)
from totirr.graphs import _union, degree_multiset
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


def test_edge_joint_is_a_multigraph_when_either_side_is():
    multi = Graph(2, ((0, 0), (0, 1), (0, 1)), multigraph=True)
    k2 = Graph(2, ((0, 1),))
    for j, want in [(edge_joint(multi, k2, 1, 0), ((0, 0), (0, 1), (0, 1), (1, 2), (2, 3))),
                    (edge_joint(k2, multi, 1, 0), ((0, 1), (1, 2), (2, 2), (2, 3), (2, 3)))]:
        assert (j.multigraph, j.edges) == (True, want)
    assert not edge_joint(k2, k2, 1, 0).multigraph


def test_edge_joint_validation():
    k1 = Graph(1, ())
    with pytest.raises(GraphError):
        edge_joint(k1, k1, 0, 1)
    with pytest.raises(GraphError):
        edge_joint(k1, k1, 1, 0)


@st.composite
def joint_sides(draw):
    """A graph of order 1..6, edgeless about one time in four, and a multigraph with loops one time in three."""
    n = draw(st.integers(1, 6))
    multigraph = draw(st.integers(0, 2)) == 0
    pool = [(i, j) for i in range(n) for j in range(i if multigraph else i + 1, n)]
    if not pool or draw(st.integers(0, 3)) == 0:
        return Graph(n, (), multigraph)
    edges = draw(st.lists(st.sampled_from(pool), unique=not multigraph, max_size=2 * len(pool)))
    return Graph(n, tuple(edges), multigraph)


@given(joint_sides(), joint_sides(), st.data())
def test_edge_joint_equals_the_validated_union_plus_one_edge(g1, g2, data):
    n1, n2 = g1.vertex_count, g2.vertex_count
    shifted = tuple((a + n1, b + n1) for a, b in g2.edges)
    multigraph = g1.multigraph or g2.multigraph
    union_ref = Graph(n1 + n2, g1.edges + shifted, multigraph=multigraph)
    u = data.draw(st.sampled_from((0, n1 - 1, data.draw(st.integers(0, n1 - 1)))))
    v = data.draw(st.sampled_from((0, n2 - 1, data.draw(st.integers(0, n2 - 1)))))
    joined = edge_joint(g1, g2, u, v)
    want = Graph(n1 + n2, g1.edges + shifted + ((u, n1 + v),), multigraph=multigraph)
    assert joined == want and type(joined.edges) is tuple
    assert joined.degrees == want.degrees and degree_multiset(joined) == degree_multiset(want)
    # a union takes its sides' degrees side by side, counted when they were built, whether or not a
    # side's multiset was read, and starts with an empty multiset dict of its own, counted into on first read
    plain = _union(g1, g2)
    assert "degrees" in vars(plain) and plain == union_ref and plain.degrees == union_ref.degrees
    degree_multiset(g1), degree_multiset(g2)
    counted = _union(g1, g2)
    assert "degrees" in vars(counted) and vars(counted)["_multisets"] == {} and counted == union_ref
    assert all(vars(counted)["_multisets"] is not vars(side)["_multisets"] for side in (g1, g2, plain))
    assert counted.degrees == union_ref.degrees and degree_multiset(counted) == degree_multiset(union_ref)


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
    doubled = Graph(4, ((0, 1), (0, 1), (0, 2), (0, 3)), multigraph=True)
    with pytest.raises(EditError, match="is not a bridge"):
        branch_transformation(doubled, 0, 2, 1)  # one of two parallel copies
    withcycle = Graph(7, ((0, 1), (1, 2), (2, 3), (3, 4), (2, 4), (0, 5), (0, 6)))
    with pytest.raises(EditError, match="is not a tree"):
        branch_transformation(withcycle, 0, 5, 1)  # the branch at 1 holds a cycle
    loopy = Graph(5, ((0, 1), (1, 1), (1, 2), (0, 3), (0, 4)), multigraph=True)
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
                assert child == Graph(g.vertex_count, tuple(edges), g.multigraph)
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


def test_arc_retarget_head():
    chain = Digraph(3, ((0, 1), (1, 2)))
    out = apply_edit(chain, EditOp.retarget_head(1, 2, 0))
    assert out.arcs == ((0, 1), (1, 0))
    assert degree_multiset(out, "in").entries == ((0, 1), (1, 2))
    # head moves leave out-degrees alone
    assert degree_multiset(out, "out") == degree_multiset(chain, "out")


def test_arc_retarget_tail():
    chain = Digraph(3, ((0, 1), (1, 2)))
    out = apply_edit(chain, EditOp.retarget_tail(0, 1, 2))
    assert out.arcs == ((1, 2), (2, 1))
    assert degree_multiset(out, "in") == degree_multiset(chain, "in")


@pytest.mark.parametrize(
    "retarget, kept, taken", [(EditOp.retarget_head, 0, "0, 2"), (EditOp.retarget_tail, 1, "2, 1")], ids=["head", "tail"]
)
def test_arc_retarget_refusals(retarget, kept, taken):
    # the arcs (0, 2) and (2, 1) are present, so 0->1 moved onto 2 at either end collides
    d = Digraph(3, ((0, 1), (0, 2), (2, 1)))
    cases = [
        ((0, 1, 2), EditError, rf"^arc \({taken}\) already present$"),
        ((0, 1, kept), EditError, f"^self-arc at vertex {kept} not allowed$"),
        ((1, 2, 0), EditError, r"^arc \(1, 2\) not present$"),
        ((0, 1, 9), GraphError, "^vertex 9 outside range 0..2$"),
    ]
    for ends, error, message in cases:
        with pytest.raises(error, match=message):
            apply_edit(d, retarget(*ends))
