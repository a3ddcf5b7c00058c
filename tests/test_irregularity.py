import time
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from totirr import (
    DegreeMultiset,
    Digraph,
    EditOp,
    Graph,
    GraphError,
    apply_edit,
    exact_delta_for_edit,
    irr_fast,
    irr_graph,
    irr_naive,
)
from totirr import graphs as graphs_module
from totirr.graphs import EditKind, degree_multiset
from totirr.irregularity import IrrPair, irr_digraph

from strategies import degree_lists, digraphs, graphs, multisets, pairwise_irr


def dm(*degrees):
    return DegreeMultiset.from_degrees(degrees)


# --- fixed values -----------------------------------------------------------


def test_regular_multiset_is_zero():
    assert irr_naive(dm(2, 2, 2, 2, 2)) == 0
    assert irr_fast(dm(2, 2, 2, 2, 2)) == 0


def test_small_star_and_path():
    # K_{1,4}: 4 pairs at distance 3
    assert irr_naive(dm(4, 1, 1, 1, 1)) == 12
    # P_4 degrees 1,2,2,1
    assert irr_naive(dm(1, 2, 2, 1)) == 4
    assert irr_fast(dm(1, 2, 2, 1)) == 4


def test_staircase_multiset():
    # degrees 0..3: pairwise distances sum to 10
    assert irr_fast(dm(0, 1, 2, 3)) == 10


def test_singleton_and_empty():
    assert irr_naive(dm(7)) == 0
    assert irr_naive(DegreeMultiset.from_degrees([])) == 0
    assert irr_fast(DegreeMultiset.from_degrees([])) == 0


def test_irr_graph_and_digraph():
    assert irr_graph(Graph(4, ((0, 1), (1, 2), (2, 3)))) == 4
    ring = Digraph(6, tuple((i, (i + 1) % 6) for i in range(6)))
    assert irr_digraph(ring) == IrrPair(0, 0)
    chain = Digraph(5, ((0, 1), (1, 2), (2, 3), (3, 4)))
    assert irr_digraph(chain) == IrrPair(4, 4)


def test_edit_delta_fixed_cases():
    star = Graph(4, ((0, 1), (0, 2), (0, 3)))
    assert exact_delta_for_edit(star, EditOp.add_edge(1, 2)) == 0
    two_triangles = Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    assert exact_delta_for_edit(two_triangles, EditOp.add_edge(0, 3)) == 8
    ring = Digraph(5, tuple((i, (i + 1) % 5) for i in range(5)))
    assert exact_delta_for_edit(ring, EditOp.reverse_arc(0, 1)) == (8, 8)

    # each case: parent, op, and the child the test spells out itself
    star = Graph(4, ((0, 1), (0, 2), (0, 3)), allow_loops=True)
    hooked = Graph(3, ((0, 1), (1, 1), (1, 2)), allow_loops=True)
    path3 = Graph(3, ((0, 1), (1, 2)), allow_loops=True)
    path5 = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4)))
    chain = Digraph(4, ((0, 1), (2, 0), (3, 2)))
    cases = [
        # a loop takes vertex 1 from degree 1 to 3, past the absent degree 2
        (star, EditOp.add_edge(1, 1), Graph(4, star.edges + ((1, 1),), allow_loops=True)),
        (hooked, EditOp.remove_edge(1, 1), path3),
        # vertex 1 loses the moved end and gains both ends of the loop
        (path3, EditOp.retarget_edge(0, 1, 1), Graph(3, ((1, 1), (1, 2)), allow_loops=True)),
        # both ends start at degree 1
        (path5, EditOp.add_edge(0, 4), Graph(5, path5.edges + ((0, 4),))),
        # tail 0 and head 1 both have in-degree 1
        (chain, EditOp.reverse_arc(0, 1), Digraph(4, ((1, 0), (2, 0), (3, 2)))),
    ]
    for parent, op, child in cases:
        assert apply_edit(parent, op) == child
        if isinstance(parent, Digraph):
            want = tuple(
                irr_naive(degree_multiset(child, m)) - irr_naive(degree_multiset(parent, m)) for m in ("in", "out")
            )
        else:
            want = irr_naive(degree_multiset(child)) - irr_naive(degree_multiset(parent))
        assert exact_delta_for_edit(parent, op) == want


def test_exact_delta_rejects_what_apply_edit_rejects():
    g = Graph(5, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4)))
    d = Digraph(4, ((0, 1), (1, 2), (2, 3), (3, 1)))
    cases = [
        (d, EditOp.add_edge(0, 2)),  # graph kind on a digraph
        (g, EditOp.reverse_arc(0, 1)),  # digraph kind on a graph
        (g, EditOp.remove_edge(0, 4)),  # absent edge
        (d, EditOp.reverse_arc(1, 0)),  # absent arc
        (g, EditOp.add_edge(4, 4)),  # loop without allow_loops
        (g, EditOp.retarget_edge(3, 2, 2)),  # retarget onto a loop without allow_loops
        (g, EditOp.add_edge(0, 1)),  # parallel edge
        (d, EditOp.retarget_head(0, 1, 0)),  # self-arc
        (d, EditOp.retarget_tail(0, 1, 3)),  # duplicate arc (3, 1)
        (d, EditOp.reverse_arc(0, 9)),  # vertex out of range
        (g, EditOp.add_edge(0, 9)),  # vertex out of range
        ("not a graph", EditOp.add_edge(0, 1)),
    ]
    for value, op in cases:
        with pytest.raises(GraphError) as applied:
            apply_edit(value, op)
        with pytest.raises(GraphError) as priced:
            exact_delta_for_edit(value, op)
        assert type(priced.value) is type(applied.value)
        assert str(priced.value) == str(applied.value)


def test_exact_delta_builds_no_multiset_beyond_the_parents(monkeypatch):
    g = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (1, 1)), allow_parallel=True, allow_loops=True)
    d = Digraph(4, ((0, 1), (1, 2), (2, 3)))
    cases = [
        (g, EditOp.add_edge(0, 4)),
        (g, EditOp.remove_edge(1, 1)),
        (g, EditOp.retarget_edge(0, 1, 1)),
        (g, EditOp.retarget_edge(2, 3, 0)),
        (d, EditOp.reverse_arc(1, 2)),
        (d, EditOp.retarget_tail(1, 2, 0)),
        (d, EditOp.retarget_head(1, 2, 3)),
    ]
    for value, modes in ((g, ("undirected",)), (d, ("in", "out"))):
        for mode in modes:
            degree_multiset(value, mode)
    built = []
    post_init = DegreeMultiset.__post_init__

    def counting(self):
        built.append(self.entries)
        post_init(self)

    monkeypatch.setattr(DegreeMultiset, "__post_init__", counting)
    for value, op in cases:
        exact_delta_for_edit(value, op)
    assert built == []


def test_no_edit_kind_sweeps_a_component(monkeypatch):
    # every kind checks only local facts: vertex range, presence, loops, parallels, self-arcs
    def refuse(*args):
        raise AssertionError("an edit swept a component")

    monkeypatch.setattr(graphs_module, "cut_side", refuse)
    monkeypatch.setattr(graphs_module, "_branch_component", refuse)
    g = Graph(4, ((0, 1), (0, 2), (0, 3)))
    d = Digraph(3, ((0, 1), (1, 2)))
    ops = {
        EditKind.ADD_EDGE: (g, EditOp.add_edge(1, 2)),
        EditKind.REMOVE_EDGE: (g, EditOp.remove_edge(0, 1)),
        EditKind.RETARGET_EDGE_END: (g, EditOp.retarget_edge(0, 3, 2)),
        EditKind.REVERSE_ARC: (d, EditOp.reverse_arc(0, 1)),
        EditKind.RETARGET_ARC_TAIL: (d, EditOp.retarget_tail(0, 1, 2)),
        EditKind.RETARGET_ARC_HEAD: (d, EditOp.retarget_head(1, 2, 0)),
    }
    assert set(ops) == set(EditKind)
    for kind, (value, op) in ops.items():
        assert op.kind is kind
        apply_edit(value, op)
        exact_delta_for_edit(value, op)


# --- properties -------------------------------------------------------------


@given(multisets())
def test_fast_equals_naive(m):
    assert irr_fast(m) == irr_naive(m)


@given(degree_lists(max_size=40, max_degree=200))
def test_multiset_order_independent(degs):
    assert irr_fast(DegreeMultiset.from_degrees(degs)) == irr_fast(
        DegreeMultiset.from_degrees(list(reversed(degs)))
    )


@given(multisets(max_size=30))
def test_zero_iff_regular(m):
    assert (irr_fast(m) == 0) == m.is_regular()


@given(degree_lists(max_size=25), degree_lists(max_size=25))
def test_union_identity(d1, d2):
    m1, m2 = DegreeMultiset.from_degrees(d1), DegreeMultiset.from_degrees(d2)
    cross = sum(abs(x - y) for x in d1 for y in d2)
    assert irr_naive(DegreeMultiset.from_degrees(d1 + d2)) == irr_naive(m1) + irr_naive(m2) + cross


# small pools repeat degrees often, so most draws have classes of several vertices
@given(st.lists(st.one_of(st.integers(0, 5), st.integers(10**9 - 2, 10**9 + 2)), max_size=40))
@example([])
@example([7])
@example([3, 3, 3, 3])
@example([0, 0, 0])
@example([0, 10**9, 0, 10**9 + 1, 10**9])
def test_oracle_equals_vertex_pair_definition(degs):
    assert irr_naive(DegreeMultiset.from_degrees(degs)) == pairwise_irr(degs)


def test_oracle_cost_follows_degree_classes_not_vertex_pairs():
    # 20,000 vertices in 3 degree classes: 3 class pairs instead of about 2e8 vertex pairs
    m = DegreeMultiset.from_entries(((1, 5000), (2, 10000), (5, 5000)))
    start = time.perf_counter()
    value = irr_naive(m)
    elapsed = time.perf_counter() - start
    assert value == 5000 * 10000 * 1 + 5000 * 5000 * 4 + 10000 * 5000 * 3
    assert elapsed < 1.0


def _all_valid_graph_edits(g):
    n = g.vertex_count
    ops = []
    present = set(g.edges)
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) in present:
                ops.append(EditOp.remove_edge(i, j))
            else:
                ops.append(EditOp.add_edge(i, j))
    for a, b in present:
        for t in range(n):
            for moved, kept in ((a, b), (b, a)):
                if t in (moved, kept):
                    continue
                lo, hi = (t, kept) if t < kept else (kept, t)
                if (lo, hi) not in present:
                    ops.append(EditOp.retarget_edge(moved, kept, t))
    return ops


@given(graphs(min_n=2, max_n=8), st.data())
@settings(max_examples=200)
def test_edit_delta_matches_recompute(g, data):
    ops = _all_valid_graph_edits(g)
    if not ops:
        return
    op = data.draw(st.sampled_from(ops))
    before = irr_naive(degree_multiset(g))
    after = irr_naive(degree_multiset(apply_edit(g, op)))
    assert exact_delta_for_edit(g, op) == after - before


@given(digraphs(min_n=2, max_n=8), st.data())
@settings(max_examples=200)
def test_digraph_edit_delta_matches_recompute(d, data):
    ops = [EditOp.reverse_arc(*a) for a in d.arcs]
    for tail, head in d.arcs:
        for t in range(d.vertex_count):
            if t not in (tail, head) and not d.has_arc(tail, t):
                ops.append(EditOp.retarget_head(tail, head, t))
            if t not in (tail, head) and not d.has_arc(t, head):
                ops.append(EditOp.retarget_tail(tail, head, t))
    if not ops:
        return
    op = data.draw(st.sampled_from(ops))
    before = irr_digraph(d)
    edited = apply_edit(d, op)
    after = irr_digraph(edited)
    assert exact_delta_for_edit(d, op) == (
        after.irr_in - before.irr_in,
        after.irr_out - before.irr_out,
    )


@given(digraphs(max_n=9))
def test_reverse_all_swaps_pair(d):
    pair = irr_digraph(d)
    reversed_d = Digraph(d.vertex_count, tuple((h, t) for t, h in d.arcs))
    assert irr_digraph(reversed_d) == IrrPair(pair.irr_out, pair.irr_in)


WALK_STEPS = 32


def _norm(a, b):
    return (a, b) if a <= b else (b, a)


def _graph_moves(n, counts, parallel, loops):
    """Every valid (op, removed, added) on the multigraph whose edge counts are counts."""
    def free(e):
        return (e[0] != e[1] or loops) and (parallel or not counts[e])

    moves = []
    for a in range(n):
        for b in range(a, n):
            if counts[(a, b)]:
                moves.append((EditOp.remove_edge(a, b), [(a, b)], []))
            if free((a, b)):
                moves.append((EditOp.add_edge(a, b), [], [(a, b)]))
    for a, b in sorted(counts):
        for moved, kept in ((a, b), (b, a)) if a != b else ((a, a),):
            for t in range(n):
                if t != moved and free(_norm(t, kept)):
                    moves.append((EditOp.retarget_edge(moved, kept, t), [(a, b)], [_norm(t, kept)]))
    return moves


def _digraph_moves(n, arcs):
    """Every valid (op, removed, added) on the digraph whose arc set is arcs."""
    moves = []
    for t, h in sorted(arcs):
        if (h, t) not in arcs:
            moves.append((EditOp.reverse_arc(t, h), [(t, h)], [(h, t)]))
        for x in range(n):
            if x not in (t, h) and (x, h) not in arcs:
                moves.append((EditOp.retarget_tail(t, h, x), [(t, h)], [(x, h)]))
            if x not in (t, h) and (t, x) not in arcs:
                moves.append((EditOp.retarget_head(t, h, x), [(t, h)], [(t, x)]))
    return moves


@st.composite
def walk_starts(draw, kind):
    """(value, its edge Counter) for a simple graph, a multigraph or a digraph."""
    n = draw(st.integers(3, 8))
    if kind == "digraph":
        # one antiparallel pair always, and never every arc, so some edit stays valid
        pool = [(i, j) for i in range(n) for j in range(n) if i != j]
        arcs = {(0, 1), (1, 0)} | set(draw(st.lists(st.sampled_from(pool), max_size=len(pool) // 2)))
        return Digraph(n, tuple(arcs)), Counter(arcs)
    parallel, loops = (False, False)
    if kind == "multigraph":
        parallel, loops = draw(st.sampled_from([(True, False), (False, True), (True, True)]))
    pool = [(i, j) for i in range(n) for j in range(i if loops else i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pool), unique=not parallel, max_size=2 * n))
    return Graph(n, tuple(edges), parallel, loops), Counter(edges)


@pytest.mark.parametrize("kind", ["simple", "multigraph", "digraph"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_long_edit_walk_matches_own_bookkeeping(kind, data):
    # the test keeps its own edge Counter and counts degrees from it, so the
    # oracle sees nothing the engine computed
    value, counts = data.draw(walk_starts(kind))
    n = value.vertex_count
    directed = kind == "digraph"
    # flags come from the start value, so a child that loses them cannot compare equal
    parallel, loops = (False, False) if directed else (value.allow_parallel, value.allow_loops)

    def own_irr():
        if directed:
            din, dout = [0] * n, [0] * n
            for (t, h), c in counts.items():
                dout[t] += c
                din[h] += c
            return (irr_naive(DegreeMultiset.from_degrees(din)), irr_naive(DegreeMultiset.from_degrees(dout)))
        deg = [0] * n
        for (a, b), c in counts.items():
            deg[a] += c
            deg[b] += c
        return irr_naive(DegreeMultiset.from_degrees(deg))

    running = own_irr()
    for _ in range(WALK_STEPS):
        if directed:
            moves = _digraph_moves(n, counts)
        else:
            moves = _graph_moves(n, counts, parallel, loops)
        op, removed, added = data.draw(st.sampled_from(moves))
        delta = exact_delta_for_edit(value, op)
        value = apply_edit(value, op)
        counts.subtract(removed)
        counts.update(added)
        counts = +counts
        if directed:
            running = (running[0] + delta[0], running[1] + delta[1])
            assert value == Digraph(n, tuple(counts.elements()))
            assert all(value.has_arc(t, h) == (counts[(t, h)] > 0) for t in range(n) for h in range(n))
        else:
            running += delta
            assert value == Graph(n, tuple(counts.elements()), parallel, loops)
            assert all(value.has_edge(a, b) == (counts[_norm(a, b)] > 0) for a in range(n) for b in range(n))
        assert running == own_irr()


def test_wide_values_do_not_overflow():
    # degrees around 10^9 across 2000 vertices: python ints, no wraparound
    m = DegreeMultiset.from_entries(((10**9, 1000), (10**9 + 7, 1000)))
    assert irr_fast(m) == 1000 * 1000 * 7
    assert irr_naive(m) == 1000 * 1000 * 7
