import pytest

from totirr import Digraph, EditOp, Graph, GraphError, SplitMix64, apply_edit, cut_side, generators, graphs
from totirr.audit import run_closed_form_suite
from totirr.generators import (
    P_TABLE,
    complete,
    complete_bipartite,
    cycle,
    empty_graph,
    matching,
    orient_by_labeling,
    orient_left_right,
    path,
    random_connected,
    random_connected_with_cut_edge,
    random_digraph,
    random_graph,
    random_tree,
    star,
)
from totirr.graphs import degree_multiset
from totirr.irregularity import irr_digraph

import strategies
from strategies import connected_components


# --- fixed families ---------------------------------------------------------


def test_path_shape():
    g = path(4)
    assert g.edges == ((0, 1), (1, 2), (2, 3))
    assert path(1) == Graph(1, ())
    with pytest.raises(GraphError):
        path(0)


def test_cycle_shape():
    g = cycle(4)
    assert g.degrees == (2, 2, 2, 2)
    assert g.edge_count == 4
    with pytest.raises(GraphError):
        cycle(2)


def test_complete_shape():
    g = complete(5)
    assert g.edge_count == 10
    assert set(g.degrees) == {4}
    assert complete(1) == Graph(1, ())


def test_star_shape():
    g = star(3)
    assert g.vertex_count == 4
    assert g.degrees == (3, 1, 1, 1)
    assert star(0) == Graph(1, ())
    with pytest.raises(GraphError):
        star(-1)


def test_complete_bipartite_shape():
    g = complete_bipartite(2, 3)
    assert g.vertex_count == 5
    assert g.degrees == (3, 3, 2, 2, 2)
    assert g.edge_count == 6


def test_empty_and_matching():
    assert empty_graph(4).edges == ()
    m = matching(3)
    assert m.vertex_count == 6
    assert set(m.degrees) == {1}


# --- orientations -----------------------------------------------------------


def test_orient_by_labeling_directs_lower_to_higher():
    g = cycle(4)
    d = orient_by_labeling(g, (0, 1, 2, 3))
    assert all(a < b for a, b in [(u, v) for u, v in d.arcs])
    # relabeled: arcs follow the labels, not the ids
    d2 = orient_by_labeling(g, (3, 2, 1, 0))
    assert all((b, a) in d2.arcs for a, b in d.arcs)


def test_orient_by_labeling_validation():
    with pytest.raises(GraphError):
        orient_by_labeling(cycle(3), (0, 1))
    with pytest.raises(GraphError):
        orient_by_labeling(cycle(3), (0, 0, 1))
    with pytest.raises(GraphError):
        orient_by_labeling(cycle(3), (0, 1, 7))


def test_orient_left_right():
    d = orient_left_right(2, 3)
    assert d.arc_count == 6
    assert all(a < 2 <= b for a, b in d.arcs)
    assert irr_digraph(d).irr_in == 12


# --- seeded generators ------------------------------------------------------


def test_random_graph_deterministic():
    assert random_graph(12, 1, 99) == random_graph(12, 1, 99)
    assert random_graph(12, 1, 99) != random_graph(12, 1, 100)


def test_random_graph_density_ordering():
    sparse = random_graph(30, 0, 7)
    dense = random_graph(30, 2, 7)
    assert sparse.edge_count < dense.edge_count
    assert P_TABLE == (0.2, 0.5, 0.8)


def test_random_graph_p_index_validation():
    with pytest.raises(GraphError):
        random_graph(5, 3, 0)
    with pytest.raises(GraphError):
        random_graph(5, -1, 0)


def test_random_digraph_basic():
    d = random_digraph(10, 1, 5)
    assert isinstance(d, Digraph)
    assert random_digraph(10, 1, 5) == d
    assert all(a != b for a, b in d.arcs)


def test_random_tree_is_tree():
    for seed in range(10):
        t = random_tree(9, seed)
        assert t.edge_count == 8
        assert len(connected_components(t)) == 1
    assert random_tree(1, 0) == Graph(1, ())


def test_random_connected_is_connected():
    for seed in range(10):
        g = random_connected(11, 1, seed)
        assert len(connected_components(g)) == 1
    with pytest.raises(GraphError):
        random_connected(0, 1, 0)


def test_random_connected_with_cut_edge():
    for seed in range(20):
        g, (u1, v1) = random_connected_with_cut_edge(12, seed)
        assert len(connected_components(g)) == 1
        assert g.has_edge(u1, v1)
        assert cut_side(g, u1, v1) is not None
        # the master side keeps at least 2 vertices
        cut = apply_edit(g, EditOp.remove_edge(u1, v1))
        master = next(c for c in connected_components(cut) if u1 in c)
        assert len(master) >= 2


# 46 vertices put the unordered pairs, 33 the ordered ones, just past the 1,024-lane block.
@pytest.mark.parametrize("n", [1, 2, 3, 33, 40, 46])
def test_random_generators_match_the_listed_pairs_reference(n, monkeypatch):
    for seed in (0, 7, 0xC0FFEE):
        for p_index in range(len(P_TABLE)):
            assert random_graph(n, p_index, seed) == strategies.random_graph(n, p_index, seed)
            assert random_digraph(n, p_index, seed) == strategies.random_digraph(n, p_index, seed)
            assert random_connected(n, p_index, seed) == strategies.random_connected(n, p_index, seed)
    if n >= 3:
        want = {seed: random_connected_with_cut_edge(n, seed) for seed in range(5)}
        reference = lambda size, p_index, rng: strategies.random_connected(size, p_index, rng).edges
        monkeypatch.setattr(generators, "_connected_edges", reference)
        assert {seed: random_connected_with_cut_edge(n, seed) for seed in range(5)} == want


def test_edge_draws_skip_the_single_and_listed_draws(monkeypatch):
    calls = {"below": 0, "_belows": 0}

    def counted(name):
        method = getattr(SplitMix64, name)

        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(SplitMix64, name, counted(name))
    random_graph(40, 1, 3)
    random_digraph(40, 1, 3)
    assert calls == {"below": 0, "_belows": 0}
    random_connected(40, 1, 3)
    assert calls == {"below": 0, "_belows": 1}


def test_every_family_hands_the_constructor_no_tuple(monkeypatch):
    # The constructor collects any iterable of pairs in a list itself, so a tuple built first is one more copy.
    handed = []
    real = graphs._Value.__post_init__

    def recording(self):
        handed.append(type(self.__dict__[self._PAIRS]))
        real(self)

    monkeypatch.setattr(graphs._Value, "__post_init__", recording)
    builds = {
        "path": lambda: path(5),
        "cycle": lambda: cycle(5),
        "complete": lambda: complete(5),
        "star": lambda: star(4),
        "complete_bipartite": lambda: complete_bipartite(2, 3),
        "matching": lambda: matching(3),
        "orient_by_labeling": lambda: orient_by_labeling(path(5), tuple(range(5))),
        "orient_left_right": lambda: orient_left_right(2, 3),
        "random_graph": lambda: random_graph(9, 1, 3),
        "random_digraph": lambda: random_digraph(9, 1, 3),
        "random_tree": lambda: random_tree(9, 3),
        "random_connected": lambda: random_connected(9, 1, 3),
        "random_connected_with_cut_edge": lambda: random_connected_with_cut_edge(9, 3),
        "the closed-forms suite": lambda: run_closed_form_suite(6),  # its ring orientations too
    }
    for name, build in builds.items():
        handed.clear()
        build()
        assert handed and tuple not in handed, (name, handed)


def test_generator_accepts_stream_or_int():
    stream = SplitMix64(123)
    a = random_graph(8, 1, stream)
    b = random_graph(8, 1, SplitMix64(123))
    assert a == b
    assert a == random_graph(8, 1, 123)


def test_family_degree_multisets():
    assert degree_multiset(path(5)).entries == ((1, 2), (2, 3))
    assert degree_multiset(star(4)).entries == ((1, 4), (4, 1))
    assert degree_multiset(complete_bipartite(3, 3)).entries == ((3, 6),)
