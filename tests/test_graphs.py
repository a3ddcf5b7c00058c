import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from totirr import DegreeMultiset, Digraph, EditError, EditOp, Graph, GraphError, apply_edit, branch_transformation, cut_side
from totirr.graphs import EditKind, _branch_component, degree_multiset

from strategies import checked_arcs, checked_edges, connected_components, digraphs, graphs


# --- construction -----------------------------------------------------------


def test_edges_are_canonicalized():
    g = Graph(4, ((3, 2), (1, 0), (2, 0)))
    assert g.edges == ((0, 1), (0, 2), (2, 3))


def test_vertex_range_checked():
    with pytest.raises(GraphError):
        Graph(3, ((0, 3),))
    with pytest.raises(GraphError):
        Graph(3, ((-1, 0),))
    with pytest.raises(GraphError):
        Graph(-1, ())


def test_loops_and_parallels_rejected_by_default():
    with pytest.raises(GraphError):
        Graph(3, ((1, 1),))
    with pytest.raises(GraphError):
        Graph(3, ((0, 1), (1, 0)))


def test_loops_and_parallels_allowed_when_flagged():
    g = Graph(3, ((1, 1), (0, 1), (1, 0)), allow_parallel=True, allow_loops=True)
    assert g.edge_count == 3
    # a loop contributes 2 to its endpoint
    assert g.degrees == (2, 4, 0)
    assert g.edges == ((0, 1), (0, 1), (1, 1))


def test_digraph_rejects_self_arcs_and_duplicates():
    with pytest.raises(GraphError):
        Digraph(3, ((1, 1),))
    with pytest.raises(GraphError):
        Digraph(3, ((0, 1), (0, 1)))
    # antiparallel pairs are fine
    d = Digraph(3, ((0, 1), (1, 0)))
    assert d.arc_count == 2


@st.composite
def planted_faults(draw):
    """(n, edge list) with faults planted at random places: an id below 0 or
    past n - 1, a loop, a repeated pair or a triple, in either orientation."""
    n = draw(st.integers(0, 6))
    pool = [(a, b) for a in range(n) for b in range(n) if a != b]
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=8)) if pool else []
    for fault in draw(st.lists(st.sampled_from(["negative", "past", "loop", "repeat", "triple"]), max_size=3)):
        v = draw(st.integers(0, max(n - 1, 0)))
        edge = {
            "negative": (-draw(st.integers(1, 2)), v),
            "past": (v, n + draw(st.integers(0, 2))),
            "loop": (v, v),
            "repeat": draw(st.sampled_from(edges)) if edges else (v, v),
            "triple": (v, v, v),
        }[fault]
        if draw(st.booleans()):
            edge = edge[::-1]
        edges.insert(draw(st.integers(0, len(edges))), edge)
    return n, edges


def _outcome(build):
    try:
        return build()
    except ValueError as exc:
        return type(exc), str(exc)


@given(planted_faults())
@example((3, [(0, 1, 2)]))
@example((3, [(0, 1), (0, 1, 2)]))
@example((2, [(0, 1), (1, 0), (1, 1), (-1, 0), (0, 2)]))
def test_constructor_checks_match_the_per_edge_reference(case):
    n, edges = case
    for parallel in (False, True):
        for loops in (False, True):
            got = _outcome(lambda: Graph(n, tuple(edges), parallel, loops).edges)
            assert got == _outcome(lambda: checked_edges(n, edges, parallel, loops))
    assert _outcome(lambda: Digraph(n, tuple(edges)).arcs) == _outcome(lambda: checked_arcs(n, edges))


def test_degrees_small_cases():
    path4 = Graph(4, ((0, 1), (1, 2), (2, 3)))
    assert path4.degrees == (1, 2, 2, 1)
    star3 = Graph(4, ((0, 1), (0, 2), (0, 3)))
    assert star3.degrees == (3, 1, 1, 1)


def test_digraph_degrees():
    d = Digraph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
    assert d.in_degrees == (1, 1, 1, 1)
    assert d.out_degrees == (1, 1, 1, 1)
    d2 = Digraph(3, ((0, 1), (0, 2)))
    assert d2.out_degrees == (2, 0, 0)
    assert d2.in_degrees == (0, 1, 1)


def test_degree_multiset_modes():
    d = Digraph(3, ((0, 1), (0, 2)))
    assert degree_multiset(d, "in").entries == ((0, 1), (1, 2))
    assert degree_multiset(d, "out").entries == ((0, 2), (2, 1))
    with pytest.raises(GraphError):
        degree_multiset(d, "undirected")
    g = Graph(2, ((0, 1),))
    with pytest.raises(GraphError):
        degree_multiset(g, "in")
    with pytest.raises(GraphError):
        degree_multiset(g, "sideways")


# --- DegreeMultiset ---------------------------------------------------------


def test_multiset_counts():
    dm = DegreeMultiset.from_degrees([1, 3, 3, 5, 0])
    assert dm.vertex_count == 5
    assert dm.entries == ((0, 1), (1, 1), (3, 2), (5, 1))
    assert dm.count_le(3) == 4
    assert dm.count_lt(3) == 2
    assert dm.count_eq(3) == 2
    assert dm.count_gt(3) == 1
    assert dm.count_le(-1) == 0


def test_multiset_replace_and_merge():
    merged = DegreeMultiset.from_degrees([1, 2, 2] + [2, 5])
    assert merged.entries == ((1, 1), (2, 3), (5, 1))
    assert merged.vertex_count == 5


def test_multiset_regular():
    assert DegreeMultiset.from_degrees([2, 2, 2]).is_regular()
    assert DegreeMultiset.from_degrees([]).is_regular()
    assert not DegreeMultiset.from_degrees([1, 2]).is_regular()


# --- structure queries ------------------------------------------------------


def test_connected_components():
    g = Graph(6, ((0, 1), (1, 2), (4, 5)))
    assert connected_components(g) == [[0, 1, 2], [3], [4, 5]]
    assert len(connected_components(Graph(3, ((0, 1), (1, 2))))) == 1
    assert len(connected_components(Graph(1, ()))) == 1


def test_cut_edge_detection():
    # two triangles joined by a bridge
    g = Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3)))
    assert cut_side(g, 0, 3) is not None
    assert cut_side(g, 3, 0) is not None
    assert cut_side(g, 0, 1) is None
    loopy = Graph(2, ((0, 0), (0, 1)), allow_loops=True)
    assert cut_side(loopy, 0, 0) is None
    assert cut_side(loopy, 0, 1) is not None


@st.composite
def multigraphs(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=2 * n + 2))
    return Graph(n, tuple(edges), allow_parallel=True, allow_loops=True)


def _side_by_components(g, a, b):
    """Reference cut side: drop one copy of {a, b}, sweep every component."""
    comp = next(c for c in connected_components(apply_edit(g, EditOp.remove_edge(a, b))) if b in c)
    return None if a in comp else comp


@settings(max_examples=300)
@given(multigraphs())
def test_cut_side_matches_component_sweep(g):
    for x, y in set(g.edges):
        for a, b in ((x, y), (y, x)):
            want = _side_by_components(g, a, b)
            assert cut_side(g, a, b) == want
            is_tree = want is not None and sum(
                1 for p, q in apply_edit(g, EditOp.remove_edge(a, b)).edges if p in want and q in want
            ) == len(want) - 1
            if is_tree:
                assert _branch_component(g, a, b) == want
            else:
                with pytest.raises(EditError):
                    _branch_component(g, a, b)


def test_cut_side_fixed_cases():
    g = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4)))
    assert cut_side(g, 1, 2) == [2, 3, 4]
    assert cut_side(g, 2, 1) == [0, 1]
    assert cut_side(Graph(3, ((0, 1), (1, 2), (0, 2))), 0, 1) is None
    with pytest.raises(GraphError):
        cut_side(g, 0, 4)


# --- edits ------------------------------------------------------------------


def test_add_and_remove_edge():
    g = Graph(3, ((0, 1),))
    g2 = apply_edit(g, EditOp.add_edge(1, 2))
    assert g2.edges == ((0, 1), (1, 2))
    g3 = apply_edit(g2, EditOp.remove_edge(0, 1))
    assert g3.edges == ((1, 2),)
    with pytest.raises(EditError):
        apply_edit(g, EditOp.add_edge(0, 1))  # parallel
    with pytest.raises(EditError):
        apply_edit(g, EditOp.add_edge(2, 2))  # loop
    with pytest.raises(EditError):
        apply_edit(g, EditOp.remove_edge(1, 2))  # absent


def test_retarget_edge():
    g = Graph(4, ((0, 1), (1, 2), (2, 3)))
    # move the 2-end of edge (1, 2) onto 3
    g2 = apply_edit(g, EditOp.retarget_edge(2, 1, 3))
    assert g2.edges == ((0, 1), (1, 3), (2, 3))
    assert g2.degrees == (1, 2, 1, 2)
    # moving the 1-end onto 3 would duplicate (2, 3)
    with pytest.raises(EditError):
        apply_edit(g, EditOp.retarget_edge(1, 2, 3))


def test_retarget_edge_multigraph():
    g = Graph(4, ((0, 1), (1, 2), (2, 3)), allow_parallel=True)
    g2 = apply_edit(g, EditOp.retarget_edge(1, 2, 3))
    assert g2.edges == ((0, 1), (2, 3), (2, 3))
    assert g2.degrees == (1, 1, 2, 2)


def test_retarget_edge_validation():
    g = Graph(4, ((0, 1), (2, 3)))
    with pytest.raises(EditError):
        apply_edit(g, EditOp.retarget_edge(0, 1, 0))  # target equals moved end
    with pytest.raises(EditError):
        apply_edit(g, EditOp.retarget_edge(0, 1, 1))  # loop without flag
    with pytest.raises(EditError):
        apply_edit(g, EditOp.retarget_edge(0, 2, 1))  # edge absent


def test_move_branch():
    # star with three leaves: move leaf 3 from center onto leaf 2; a branch
    # move is the retarget of the bridge's attachment end
    g = Graph(4, ((0, 1), (0, 2), (0, 3)))
    g2 = apply_edit(g, EditOp.retarget_edge(0, 3, 2))
    assert g2.edges == ((0, 1), (0, 2), (2, 3))
    assert g2.degrees == (2, 1, 2, 1)
    assert branch_transformation(g, 0, 2, 3) == g2


def test_move_branch_validation():
    # branch_transformation checks the branch; the edit layer checks only
    # local facts, so it accepts the same retarget where that leaves a valid graph
    tri = Graph(4, ((0, 1), (1, 2), (0, 2), (0, 3)))
    with pytest.raises(EditError, match="is not a bridge"):
        branch_transformation(tri, 0, 3, 1)  # (0, 1) lies on a cycle
    assert apply_edit(tri, EditOp.retarget_edge(0, 1, 3)).edges == ((0, 2), (0, 3), (1, 2), (1, 3))
    chain = Graph(5, ((0, 1), (1, 2), (2, 3), (1, 4)))
    with pytest.raises(EditError, match="lies inside the moved branch"):
        branch_transformation(chain, 1, 3, 2)  # destination lies inside the branch hanging from 1
    withcycle = Graph(7, ((0, 1), (1, 2), (2, 3), (3, 4), (2, 4), (0, 5), (0, 6)))
    with pytest.raises(EditError, match="is not a tree"):
        branch_transformation(withcycle, 0, 5, 1)  # branch at 1 contains a cycle
    assert apply_edit(withcycle, EditOp.retarget_edge(0, 1, 5)).degrees == (2, 2, 3, 2, 2, 2, 1)


def test_reverse_arc():
    d = Digraph(3, ((0, 1), (1, 2)))
    d2 = apply_edit(d, EditOp.reverse_arc(0, 1))
    assert d2.arcs == ((1, 0), (1, 2))
    with pytest.raises(EditError):
        apply_edit(d, EditOp.reverse_arc(1, 0))  # absent
    anti = Digraph(2, ((0, 1), (1, 0)))
    with pytest.raises(EditError):
        apply_edit(anti, EditOp.reverse_arc(0, 1))  # reversal already present


def test_retarget_arc_ends():
    d = Digraph(3, ((0, 1), (1, 2)))
    d2 = apply_edit(d, EditOp.retarget_head(1, 2, 0))
    assert d2.arcs == ((0, 1), (1, 0))
    d3 = apply_edit(d, EditOp.retarget_tail(0, 1, 2))
    assert d3.arcs == ((1, 2), (2, 1))
    with pytest.raises(EditError):
        apply_edit(d, EditOp.retarget_head(0, 1, 1))  # target equals head
    with pytest.raises(EditError):
        apply_edit(d, EditOp.retarget_head(0, 1, 0))  # self-arc


def test_retarget_head_duplicate_rejected():
    d = Digraph(3, ((0, 1), (0, 2)))
    with pytest.raises(EditError):
        apply_edit(d, EditOp.retarget_head(0, 1, 2))  # (0,2) already present


def test_edits_do_not_rerun_the_validating_constructor(monkeypatch):
    simple = Graph(5, ((0, 1), (0, 2), (0, 3), (3, 4)))
    multi = Graph(5, ((0, 1), (0, 1), (0, 2), (0, 3), (2, 2), (3, 4)), allow_parallel=True, allow_loops=True)
    d = Digraph(4, ((0, 1), (1, 0), (1, 2), (2, 3)))

    def refuse(self):
        raise AssertionError("an edit re-ran the validating constructor")

    monkeypatch.setattr(Graph, "__post_init__", refuse)
    monkeypatch.setattr(Digraph, "__post_init__", refuse)
    cases = [
        (simple, EditOp.add_edge(2, 1), ((0, 1), (0, 2), (0, 3), (1, 2), (3, 4))),
        (simple, EditOp.remove_edge(3, 0), ((0, 1), (0, 2), (3, 4))),
        (simple, EditOp.retarget_edge(2, 0, 4), ((0, 1), (0, 3), (0, 4), (3, 4))),
        (simple, EditOp.retarget_edge(0, 3, 1), ((0, 1), (0, 2), (1, 3), (3, 4))),
        (multi, EditOp.add_edge(1, 0), ((0, 1), (0, 1), (0, 1), (0, 2), (0, 3), (2, 2), (3, 4))),
        (multi, EditOp.add_edge(4, 4), ((0, 1), (0, 1), (0, 2), (0, 3), (2, 2), (3, 4), (4, 4))),
        (multi, EditOp.remove_edge(0, 1), ((0, 1), (0, 2), (0, 3), (2, 2), (3, 4))),
        (multi, EditOp.retarget_edge(0, 2, 2), ((0, 1), (0, 1), (0, 3), (2, 2), (2, 2), (3, 4))),
        (multi, EditOp.retarget_edge(0, 3, 1), ((0, 1), (0, 1), (0, 2), (1, 3), (2, 2), (3, 4))),
        (d, EditOp.reverse_arc(1, 2), ((0, 1), (1, 0), (2, 1), (2, 3))),
        (d, EditOp.retarget_tail(2, 3, 0), ((0, 1), (0, 3), (1, 0), (1, 2))),
        (d, EditOp.retarget_head(1, 0, 3), ((0, 1), (1, 2), (1, 3), (2, 3))),
    ]
    for parent, op, want in cases:
        child = apply_edit(parent, op)
        assert type(child) is type(parent) and child.vertex_count == parent.vertex_count
        if isinstance(parent, Graph):
            assert child.edges == want
            assert (child.allow_parallel, child.allow_loops) == (parent.allow_parallel, parent.allow_loops)
        else:
            assert child.arcs == want


def test_edit_kind_wire_values():
    assert EditKind.ADD_EDGE.value == "add-edge"
    assert EditKind.REVERSE_ARC.value == "reverse-arc"


def test_describe_is_comma_free():
    ops = [
        EditOp.add_edge(0, 1),
        EditOp.retarget_edge(1, 2, 3),
        EditOp.reverse_arc(4, 5),
    ]
    for op in ops:
        assert "," not in op.describe()


# --- inverses and degree-change bookkeeping ---------------------------------


def test_inverse_round_trip_small():
    g = Graph(4, ((0, 1), (1, 2), (2, 3)))
    for op, inverse in (
        (EditOp.add_edge(0, 2), EditOp.remove_edge(0, 2)),
        (EditOp.remove_edge(1, 2), EditOp.add_edge(1, 2)),
        (EditOp.retarget_edge(1, 0, 3), EditOp.retarget_edge(3, 0, 1)),
    ):
        edited = apply_edit(g, op)
        assert apply_edit(edited, inverse) == g


def test_inverse_round_trip_digraph():
    d = Digraph(3, ((0, 1), (1, 2)))
    for op, inverse in (
        (EditOp.reverse_arc(0, 1), EditOp.reverse_arc(1, 0)),
        (EditOp.retarget_head(1, 2, 0), EditOp.retarget_head(1, 0, 2)),
        (EditOp.retarget_tail(0, 1, 2), EditOp.retarget_tail(2, 1, 0)),
    ):
        edited = apply_edit(d, op)
        assert apply_edit(edited, inverse) == d


@given(graphs(min_n=2, max_n=9), st.data())
def test_inverse_restores_random_graphs(g, data):
    choices = []
    pool = [(i, j) for i in range(g.vertex_count) for j in range(i + 1, g.vertex_count)]
    absent = [e for e in pool if not g.has_edge(*e)]
    if absent:
        choices.append(("add", absent))
    if g.edges:
        choices.append(("remove", list(set(g.edges))))
    if not choices:
        return
    kind, options = data.draw(st.sampled_from(choices))
    a, b = data.draw(st.sampled_from(options))
    add, remove = EditOp.add_edge(a, b), EditOp.remove_edge(a, b)
    op, inverse = (add, remove) if kind == "add" else (remove, add)
    assert apply_edit(apply_edit(g, op), inverse) == g

