import time
from collections import Counter
from functools import cached_property
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from totirr import (
    DegreeMultiset,
    Digraph,
    EditError,
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
from totirr.audit import _recounted
from totirr.fileio import parse_graph_text
from totirr.graphs import EditKind, degree_multiset
from totirr.irregularity import IrrPair, irr_digraph

from strategies import degree_lists, digraphs, graphs, multisets, off_by_one_carry, pairwise_irr


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
    star = Graph(4, ((0, 1), (0, 2), (0, 3)), multigraph=True)
    hooked = Graph(3, ((0, 1), (1, 1), (1, 2)), multigraph=True)
    path3 = Graph(3, ((0, 1), (1, 2)), multigraph=True)
    path5 = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4)))
    chain = Digraph(4, ((0, 1), (2, 0), (3, 2)))
    cases = [
        # a loop takes vertex 1 from degree 1 to 3, past the absent degree 2
        (star, EditOp.add_edge(1, 1), Graph(4, star.edges + ((1, 1),), multigraph=True)),
        (hooked, EditOp.remove_edge(1, 1), path3),
        # vertex 1 loses the moved end and gains both ends of the loop
        (path3, EditOp.retarget_edge(0, 1, 1), Graph(3, ((1, 1), (1, 2)), multigraph=True)),
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
    # one case per clause of the edit rule, per kind where the clause applies, in the rule's order
    g = Graph(5, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4)))
    multi = Graph(3, ((0, 1), (0, 1)), multigraph=True)
    d = Digraph(4, ((0, 1), (1, 2), (2, 1), (2, 3), (3, 1)))
    cases = [
        # the value's type is supported and the kind fits it
        ("not a graph", EditOp.add_edge(0, 1), EditError, "unsupported value str"),
        (d, EditOp.add_edge(0, 2), EditError, "add-edge does not apply to a digraph"),
        (d, EditOp.remove_edge(0, 1), EditError, "remove-edge does not apply to a digraph"),
        (d, EditOp.retarget_edge(0, 1, 2), EditError, "retarget-edge-end does not apply to a digraph"),
        (g, EditOp.reverse_arc(0, 1), EditError, "reverse-arc does not apply to an undirected graph"),
        (g, EditOp.retarget_tail(0, 1, 2), EditError, "retarget-arc-tail does not apply to an undirected graph"),
        (g, EditOp.retarget_head(0, 1, 2), EditError, "retarget-arc-head does not apply to an undirected graph"),
        # a and b are in range
        (g, EditOp.add_edge(0, 9), GraphError, "vertex 9 outside range 0..4"),
        (g, EditOp.remove_edge(-1, 0), GraphError, "vertex -1 outside range 0..4"),
        (g, EditOp.retarget_edge(5, 0, 1), GraphError, "vertex 5 outside range 0..4"),
        (d, EditOp.reverse_arc(0, 9), GraphError, "vertex 9 outside range 0..3"),
        (d, EditOp.retarget_tail(4, 1, 2), GraphError, "vertex 4 outside range 0..3"),
        (d, EditOp.retarget_head(0, -1, 2), GraphError, "vertex -1 outside range 0..3"),
        # the removed entry is present, checked before a retarget's target
        (g, EditOp.remove_edge(0, 4), EditError, "edge (0, 4) not present"),
        (g, EditOp.retarget_edge(4, 0, 9), EditError, "edge (4, 0) not present"),
        (d, EditOp.reverse_arc(1, 0), EditError, "arc (1, 0) not present"),
        (d, EditOp.retarget_tail(1, 0, 9), EditError, "arc (1, 0) not present"),
        (d, EditOp.retarget_head(3, 2, 0), EditError, "arc (3, 2) not present"),
        # a retarget has a target, in range
        (g, EditOp(EditKind.RETARGET_EDGE_END, (0, 1)), EditError, "retarget-edge-end needs a target"),
        (d, EditOp(EditKind.RETARGET_ARC_TAIL, (0, 1)), EditError, "retarget-arc-tail needs a target"),
        (d, EditOp(EditKind.RETARGET_ARC_HEAD, (0, 1)), EditError, "retarget-arc-head needs a target"),
        (g, EditOp.retarget_edge(0, 1, 5), GraphError, "vertex 5 outside range 0..4"),
        (d, EditOp.retarget_tail(0, 1, -1), GraphError, "vertex -1 outside range 0..3"),
        (d, EditOp.retarget_head(0, 1, 4), GraphError, "vertex 4 outside range 0..3"),
        # the added entry differs from the removed one, also where parallel edges are allowed
        (g, EditOp.retarget_edge(3, 4, 3), EditError, "new end 3 equals the end it replaces"),
        (multi, EditOp.retarget_edge(0, 1, 0), EditError, "new end 0 equals the end it replaces"),
        (d, EditOp.retarget_tail(0, 1, 0), EditError, "new end 0 equals the end it replaces"),
        (d, EditOp.retarget_head(0, 1, 1), EditError, "new end 1 equals the end it replaces"),
        # it is a loop only in a multigraph, and a digraph never is one
        (g, EditOp.add_edge(4, 4), EditError, "loop at vertex 4 requires multigraph=True"),
        (g, EditOp.retarget_edge(3, 2, 2), EditError, "loop at vertex 2 requires multigraph=True"),
        (d, EditOp.retarget_tail(0, 1, 1), EditError, "self-arc at vertex 1 not allowed"),
        (d, EditOp.retarget_head(0, 1, 0), EditError, "self-arc at vertex 0 not allowed"),
        # it is new unless the value is a multigraph, and a digraph never is one
        (g, EditOp.add_edge(1, 0), EditError, "edge (1, 0) already present"),
        (g, EditOp.retarget_edge(4, 3, 2), EditError, "edge (2, 3) already present"),
        (d, EditOp.reverse_arc(1, 2), EditError, "arc (2, 1) already present"),
        (d, EditOp.retarget_tail(0, 1, 3), EditError, "arc (3, 1) already present"),
        (d, EditOp.retarget_head(2, 1, 3), EditError, "arc (2, 3) already present"),
    ]
    assert {op.kind for _, op, _, _ in cases} == set(EditKind)
    for value, op, error, message in cases:
        with pytest.raises(GraphError) as applied:
            apply_edit(value, op)
        with pytest.raises(GraphError) as priced:
            exact_delta_for_edit(value, op)
        assert (type(applied.value), str(applied.value)) == (error, message), (value, op)
        assert (type(priced.value), str(priced.value)) == (error, message), (value, op)


def _recomputed(value, child):
    if isinstance(value, Graph):
        return irr_graph(child) - irr_graph(value)
    return tuple(after - before for after, before in zip(irr_digraph(child), irr_digraph(value)))


def test_a_remembered_plan_serves_only_its_own_value_and_op():
    g = Graph(5, ((0, 1), (1, 2), (2, 3)))
    d = Digraph(4, ((0, 1), (1, 2), (2, 3)))
    for value, op1, op2 in (
        (g, EditOp.add_edge(0, 4), EditOp.remove_edge(0, 1)),
        (d, EditOp.reverse_arc(0, 1), EditOp.retarget_head(1, 2, 3)),
    ):
        exact_delta_for_edit(value, op1)
        child = apply_edit(value, op2)
        # the child starts without its parent's plan: the entry op2 removes is gone from it
        with pytest.raises(EditError, match="not present"):
            exact_delta_for_edit(child, op2)
        assert exact_delta_for_edit(value, op2) == _recomputed(value, child)
        assert exact_delta_for_edit(value, op1) == _recomputed(value, apply_edit(value, op1))
    # a rejected op raises the same error on every call, after an accepted plan too
    accepted, rejected = EditOp.add_edge(0, 4), EditOp.add_edge(1, 0)
    want = exact_delta_for_edit(g, accepted)
    for call in (exact_delta_for_edit, apply_edit, exact_delta_for_edit):
        with pytest.raises(EditError, match=r"edge \(1, 0\) already present"):
            call(g, rejected)
    assert exact_delta_for_edit(g, accepted) == want == _recomputed(g, apply_edit(g, accepted))


def test_pricing_and_applying_an_edit_store_nothing_on_the_value():
    cases = (
        (Graph(5, ((0, 1), (1, 2), (2, 3))), EditOp.add_edge(0, 4)),
        (Digraph(4, ((0, 1), (1, 2), (2, 3))), EditOp.retarget_head(1, 2, 3)),
        (parse_graph_text("U 4\n0 1\n1 2\n"), EditOp.retarget_edge(0, 1, 3)),
    )
    for g, op in cases:
        cls = type(g)
        lazy = {name for k in cls.__mro__ for name, attr in vars(k).items() if isinstance(attr, cached_property)}
        multisets = vars(g)["_multisets"]  # a field from birth, filled by the first read of each mode
        exact_delta_for_edit(g, op)
        apply_edit(g, op)
        degrees = {name for name, _ in cls._MODES.values()}
        assert set(vars(g)) <= {*cls._FIELDS, *degrees, "_flat", "_multisets", *lazy}, (g, op)
        assert vars(g)["_multisets"] is multisets


def test_exact_delta_builds_no_multiset_beyond_the_parents(monkeypatch):
    g = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (1, 1)), multigraph=True)
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


def test_an_edit_shares_with_its_parent_every_mode_it_does_not_move():
    g = Graph(5, ((0, 1), (1, 2), (2, 3)))
    d = Digraph(4, ((0, 1), (1, 2), (2, 3)))
    # kind -> (value, op, the modes whose degrees and multiset the child shares with the value)
    cases = {
        EditKind.ADD_EDGE: (g, EditOp.add_edge(0, 4), ()),
        EditKind.REMOVE_EDGE: (g, EditOp.remove_edge(1, 2), ()),
        EditKind.RETARGET_EDGE_END: (g, EditOp.retarget_edge(0, 1, 4), ()),
        EditKind.REVERSE_ARC: (d, EditOp.reverse_arc(1, 2), ()),
        EditKind.RETARGET_ARC_TAIL: (d, EditOp.retarget_tail(1, 2, 0), ("in",)),
        EditKind.RETARGET_ARC_HEAD: (d, EditOp.retarget_head(1, 2, 0), ("out",)),
    }
    assert set(cases) == set(EditKind)
    for kind, (value, op, shared) in cases.items():
        exact_delta_for_edit(value, op)  # pricing builds every mode's multiset
        fields, multisets = dict(vars(value)), dict(value.__dict__["_multisets"])
        child = apply_edit(value, op)
        assert vars(child)["_multisets"].keys() == set(shared), kind
        for mode, (name, _) in type(value)._MODES.items():
            held = mode in shared
            assert (getattr(child, name) is getattr(value, name)) == held, (kind, mode)
            assert (vars(child)["_multisets"].get(mode) is degree_multiset(value, mode)) == held
            assert degree_multiset(child, mode) == _recounted(child, mode), (kind, mode)
        assert vars(value).keys() == fields.keys() and all(vars(value)[k] is v for k, v in fields.items()), kind
        assert value._multisets.keys() == multisets.keys()
        assert all(value._multisets[mode] is m for mode, m in multisets.items()), kind
        assert child._multisets is not value._multisets


def test_pricing_the_child_of_an_arc_end_move_counts_only_the_moved_mode(monkeypatch):
    d = Digraph(4, ((0, 1), (1, 2), (2, 3)))
    cases = ((EditOp.retarget_tail(1, 2, 0), "out"), (EditOp.retarget_head(1, 2, 0), "in"))
    for op, _ in cases:
        exact_delta_for_edit(d, op)
    built = []
    post_init = DegreeMultiset.__post_init__

    def counting(self):
        built.append(self.entries)
        post_init(self)

    monkeypatch.setattr(DegreeMultiset, "__post_init__", counting)
    for op, moved in cases:
        child = apply_edit(d, op)
        exact_delta_for_edit(child, EditOp.reverse_arc(2, 3))
        assert built == [degree_multiset(child, moved).entries], op
        built.clear()


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
            if t not in (tail, head) and (tail, t) not in d.arcs:
                ops.append(EditOp.retarget_head(tail, head, t))
            if t not in (tail, head) and (t, head) not in d.arcs:
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


def _graph_moves(n, counts, multigraph):
    """Every valid (op, removed, added) on the graph whose edge counts are counts."""
    def free(e):
        return multigraph or e[0] != e[1] and not counts[e]

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
    multigraph = kind == "multigraph"
    pool = [(i, j) for i in range(n) for j in range(i if multigraph else i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pool), unique=not multigraph, max_size=2 * n))
    return Graph(n, tuple(edges), multigraph), Counter(edges)


def _walk(kind, data):
    # the test keeps its own edge Counter and counts degrees from it, so the
    # oracle sees nothing the engine computed
    value, counts = data.draw(walk_starts(kind))
    n = value.vertex_count
    directed = kind == "digraph"
    # the flag comes from the start value, so a child that loses it cannot compare equal
    multigraph = value.multigraph

    def own_degrees():
        """(degrees,) of a graph or (in-degrees, out-degrees) of a digraph, from counts alone."""
        if directed:
            din, dout = [0] * n, [0] * n
            for (t, h), c in counts.items():
                dout[t] += c
                din[h] += c
            return tuple(din), tuple(dout)
        deg = [0] * n
        for (a, b), c in counts.items():
            deg[a] += c
            deg[b] += c  # a loop counts twice
        return (tuple(deg),)

    def own_irr():
        irrs = tuple(irr_naive(DegreeMultiset.from_degrees(d)) for d in own_degrees())
        return irrs if directed else irrs[0]

    running = own_irr()
    for _ in range(WALK_STEPS):
        if directed:
            moves = _digraph_moves(n, counts)
        else:
            moves = _graph_moves(n, counts, multigraph)
        op, removed, added = data.draw(st.sampled_from(moves))
        # pricing counts the parent's degrees, so every child after the first carries them
        delta = exact_delta_for_edit(value, op)
        value = apply_edit(value, op)
        counts.subtract(removed)
        counts.update(added)
        counts = +counts
        carried = (value.in_degrees, value.out_degrees) if directed else (value.degrees,)
        assert carried == own_degrees(), "carried degrees differ from a recount"
        if directed:
            running = (running[0] + delta[0], running[1] + delta[1])
            assert value == Digraph(n, tuple(counts.elements()))
            assert all(((t, h) in value.arcs) == (counts[(t, h)] > 0) for t in range(n) for h in range(n))
        else:
            running += delta
            assert value == Graph(n, tuple(counts.elements()), multigraph)
            assert all(value.has_edge(a, b) == (counts[_norm(a, b)] > 0) for a in range(n) for b in range(n))
        assert running == own_irr()


@pytest.mark.parametrize("kind", ["simple", "multigraph", "digraph"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_long_edit_walk_matches_own_bookkeeping(kind, data):
    _walk(kind, data)


@pytest.mark.parametrize("kind", ["simple", "multigraph", "digraph"])
@given(data=st.data())
@settings(max_examples=10, deadline=None, database=None)
def test_long_edit_walk_catches_a_carry_off_by_one(kind, data):
    # a carry that adds 1 at one touched vertex must fail the walk's degree check
    with mock.patch.object(graphs_module, "_carried", off_by_one_carry(graphs_module._carried, [])):
        with pytest.raises(AssertionError, match="carried degrees differ"):
            _walk(kind, data)


@given(data=st.data())
@settings(max_examples=10, deadline=None, database=None)
def test_long_edit_walk_catches_a_share_of_a_moved_mode(data):
    # a share rule that holds for every mode hands a child its parent's degrees, and multisets, that the edit moved
    with mock.patch.object(graphs_module, "_unmoved", lambda removed, added, ends: True):
        with pytest.raises(AssertionError, match="carried degrees differ"):
            _walk("digraph", data)


@pytest.mark.parametrize("kind", ["graph", "digraph"])
def test_editing_a_child_leaves_its_parent_as_it_was(kind):
    if kind == "graph":
        make = lambda: Graph(5, ((0, 1), (1, 2), (2, 2), (2, 3)), multigraph=True)
        first, second = EditOp.retarget_edge(2, 1, 4), EditOp.add_edge(4, 4)

        def seen(g):
            return g.degrees, degree_multiset(g), irr_graph(g), irr_naive(degree_multiset(g))

        held = {"degrees"}

    else:
        make = lambda: Digraph(5, ((0, 1), (1, 0), (1, 2), (3, 2)))
        first, second = EditOp.retarget_head(1, 2, 4), EditOp.reverse_arc(1, 4)

        def seen(d):
            return d.in_degrees, d.out_degrees, degree_multiset(d, "in"), degree_multiset(d, "out"), irr_digraph(d)

        held = {"in_degrees", "out_degrees"}

    # every value counts its degrees when it is built, so every child carries them
    assert held <= make().__dict__.keys()
    parent = make()
    before = seen(parent)
    child = apply_edit(parent, first)
    assert held <= child.__dict__.keys()
    child_before = seen(child)
    exact_delta_for_edit(child, second)
    grandchild = apply_edit(child, second)
    seen(grandchild)
    assert seen(parent) == before
    assert seen(child) == child_before
    assert child_before != before


def test_wide_values_do_not_overflow():
    # degrees around 10^9 across 2000 vertices: python ints, no wraparound
    m = DegreeMultiset.from_entries(((10**9, 1000), (10**9 + 7, 1000)))
    assert irr_fast(m) == 1000 * 1000 * 7
    assert irr_naive(m) == 1000 * 1000 * 7
