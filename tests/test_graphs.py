import importlib
import pkgutil
import random
import re
from bisect import insort
from collections import Counter
from functools import cached_property
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import totirr
from totirr import (
    DegreeMultiset,
    Digraph,
    EditError,
    EditOp,
    Graph,
    GraphError,
    apply_edit,
    branch_transformation,
    cut_side,
    edge_joint,
    exact_delta_for_edit,
    parse_graph_text,
)
from totirr.audit import AuditReport, AuditRow, FormulaStat, PredictionOutcome
from totirr.graphs import _PASS_DEGREES, EditKind, _branch_component, _union, degree_multiset
from totirr.irregularity import irr_fast, irr_naive
from totirr.partitions import JointPartitionCounts, Relation, TransformPartitionCounts

from strategies import adjacency, checked_arcs, checked_edges, connected_components, counted_degrees, graphs


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
    g = Graph(3, ((1, 1), (0, 1), (1, 0)), multigraph=True)
    assert g.edge_count == 3
    # a loop contributes 2 to its endpoint
    assert g.degrees == (2, 4, 0)
    assert g.edges == ((0, 1), (0, 1), (1, 1))
    # one flag allows both; a digraph's is a class constant, not a field
    assert Graph._FIELDS == ("vertex_count", "edges", "multigraph")
    assert Digraph._FIELDS == ("vertex_count", "arcs")
    assert Graph(vertex_count=3, edges=((1, 0),), multigraph=True) == Graph(3, ((0, 1),), True)
    assert Digraph(vertex_count=3, arcs=((1, 0),)) == Digraph(3, ((1, 0),))
    with pytest.raises(TypeError):
        Graph(3, (), allow_loops=True)  # a flag that multigraph replaced


def test_digraph_rejects_self_arcs_and_duplicates():
    with pytest.raises(GraphError):
        Digraph(3, ((1, 1),))
    with pytest.raises(GraphError):
        Digraph(3, ((0, 1), (0, 1)))
    # antiparallel pairs are fine
    d = Digraph(3, ((0, 1), (1, 0)))
    assert d.arc_count == 2


def test_values_compare_and_hash_by_type_and_pairs():
    assert Graph(3, ((0, 1),)) != Digraph(3, ((0, 1),))
    for first, second in [
        (Graph(3, ((2, 1), (0, 1))), Graph(3, ((0, 1), (1, 2)))),
        (Digraph(3, ((2, 1), (0, 1))), Digraph(3, ((0, 1), (2, 1)))),
    ]:
        assert first == second and hash(first) == hash(second)
    outcome = PredictionOutcome("Prop27Equal", 10, False, True)
    outcome_repr = "PredictionOutcome(formula_id='Prop27Equal', predicted=10, agrees=False, is_delta=True)"
    row = AuditRow(3, 7, "add-edge(0 1)", 8, 10, 2, (outcome,))
    row_repr = (
        "AuditRow(instance_id=3, seed=7, operation='add-edge(0 1)', irr_before=8, irr_after_oracle=10,"
        f" engine_delta=2, predictions=({outcome_repr},))"
    )
    joint = dict(a=0, b=1, a_star=1, b_star=1, c=1, d=0, c_star=2, d_star=0, r=2, s=2, n=4)
    transform = dict(h=1, s=1, t=1, m=1, l=0, m1=1, l1=0, relation=Relation.ABOVE)
    # (value, its repr byte for byte, its field tuple)
    cases = [
        (
            Graph(3, ((1, 2), (0, 1))),
            "Graph(vertex_count=3, edges=((0, 1), (1, 2)), multigraph=False)",
            (3, ((0, 1), (1, 2)), False),
        ),
        (
            Graph(2, ((1, 1),), multigraph=True),
            "Graph(vertex_count=2, edges=((1, 1),), multigraph=True)",
            (2, ((1, 1),), True),
        ),
        (Digraph(3, ((2, 1), (0, 1))), "Digraph(vertex_count=3, arcs=((0, 1), (2, 1)))", (3, ((0, 1), (2, 1)))),
        (DegreeMultiset.from_degrees((1, 2, 1)), "DegreeMultiset(entries=((1, 2), (2, 1)))", (((1, 2), (2, 1)),)),
        (
            EditOp.add_edge(0, 1),
            "EditOp(kind=<EditKind.ADD_EDGE: 'add-edge'>, endpoints=(0, 1), target=None)",
            (EditKind.ADD_EDGE, (0, 1), None),
        ),
        (
            EditOp.retarget_head(0, 1, 2),
            "EditOp(kind=<EditKind.RETARGET_ARC_HEAD: 'retarget-arc-head'>, endpoints=(0, 1), target=2)",
            (EditKind.RETARGET_ARC_HEAD, (0, 1), 2),
        ),
        (
            JointPartitionCounts(**joint),
            "JointPartitionCounts(a=0, b=1, a_star=1, b_star=1, c=1, d=0, c_star=2, d_star=0, r=2, s=2, n=4)",
            tuple(joint.values()),
        ),
        (
            TransformPartitionCounts(**transform),
            "TransformPartitionCounts(h=1, s=1, t=1, m=1, l=0, m1=1, l1=0, relation=<Relation.ABOVE: 'above'>)",
            tuple(transform.values()),
        ),
        (outcome, outcome_repr, ("Prop27Equal", 10, False, True)),
        (row, row_repr, (3, 7, "add-edge(0 1)", 8, 10, 2, (outcome,))),
        (
            FormulaStat("Prop27Equal", 1, 3),
            "FormulaStat(formula_id='Prop27Equal', agree=1, total=3)",
            ("Prop27Equal", 1, 3),
        ),
        (
            AuditReport("edge-joint", 7, 1, (("k", "v"),), (row,)),
            f"AuditReport(suite='edge-joint', seed=7, instance_count=1, config=(('k', 'v'),), rows=({row_repr},))",
            ("edge-joint", 7, 1, (("k", "v"),), (row,)),
        ),
    ]
    for value, text, fields in cases:
        assert repr(value) == text
        assert hash(value) == hash(fields)
        twin = type(value)(*fields)
        assert twin == value and twin is not value and hash(twin) == hash(value)
        assert value.__eq__(fields) is NotImplemented and value != fields
    with pytest.raises(GraphError, match="strictly increasing"):
        DegreeMultiset(((2, 1), (1, 1)))
    with pytest.raises(GraphError, match="must be positive"):
        DegreeMultiset(((1, 0),))
    with pytest.raises(AttributeError, match="cannot assign to field 'arcs'"):
        Digraph(2, ((0, 1),)).arcs = ()
    with pytest.raises(AttributeError, match="cannot delete field 'edges'"):
        del Graph(2, ((0, 1),)).edges


def _plant(draw, n, edges, in_order=False):
    """edges with 0-3 faults planted: an id below 0 or past n - 1, a loop, a repeated pair, a triple or an
    id that is not an integer.

    Each fault is drawn in either orientation. It goes at a random place, or, when in_order
    and a draw says so, at its sorted place, where the adjacency order test cannot see it.
    """
    for fault in draw(st.lists(st.sampled_from(["negative", "past", "loop", "repeat", "triple", "float"]), max_size=3)):
        v = draw(st.integers(0, max(n - 1, 0)))
        edge = {
            "negative": (-draw(st.integers(1, 2)), v),
            "past": (v, n + draw(st.integers(0, 2))),
            "loop": (v, v),
            "repeat": draw(st.sampled_from(edges)) if edges else (v, v),
            "triple": (v, v, v),
            "float": (v + 0.5, v),  # never equal to an int pair, whose place in a sort would tie with it
        }[fault]
        if draw(st.booleans()):
            edge = edge[::-1]
        if in_order and draw(st.booleans()):
            insort(edges, edge)
        else:
            edges.insert(draw(st.integers(0, len(edges))), edge)
    return n, edges


def _pairs(draw, n):
    pool = [(a, b) for a in range(n) for b in range(n) if a != b]
    return draw(st.lists(st.sampled_from(pool), unique=True, max_size=8)) if pool else []


@st.composite
def planted_faults(draw):
    """(n, edge list) with faults planted at random places (_plant)."""
    n = draw(st.integers(0, 6))
    return _plant(draw, n, _pairs(draw, n))


@st.composite
def canonical_faults(draw):
    """(n, edge list) that is canonical half the time before its faults are planted (_plant).

    A canonical list is sorted (low, high) edges, which every value takes as it is, or sorted
    arcs, which a Digraph takes as they are; both skip the constructor's sort.
    """
    n = draw(st.integers(0, 6))
    edges = _pairs(draw, n)
    canonical = draw(st.booleans())
    if canonical:
        edges = sorted({(min(e), max(e)) for e in edges} if draw(st.booleans()) else edges)
    return _plant(draw, n, edges, in_order=canonical)


def _outcome(build):
    try:
        return build()
    except ValueError as exc:
        return type(exc), str(exc)


def _stored(value):
    """The pairs a value stores and its degrees: (degrees,) of a Graph, (in-degrees, out-degrees) of a Digraph."""
    if isinstance(value, Graph):
        return value.edges, (value.degrees,)
    return value.arcs, (value.in_degrees, value.out_degrees)


def _kinds(n, pairs):
    """For each class and flag: its builder from given pairs, and the reference's stored pairs with their degrees."""

    def counted(stored, directed=False):
        return stored, counted_degrees(n, stored, directed)

    return [
        (lambda ps: Graph(n, ps), lambda: counted(checked_edges(n, pairs))),
        (lambda ps: Graph(n, ps, multigraph=True), lambda: counted(checked_edges(n, pairs, True))),
        (lambda ps: Digraph(n, ps), lambda: counted(checked_arcs(n, pairs), True)),
    ]


@given(planted_faults())
@example((3, [(0, 1, 2)]))
@example((3, [(0, 1), (0, 1, 2)]))
@example((2, [(0, 1), (1, 0), (1, 1), (-1, 0), (0, 2)]))
@example((3, [(-1, 0), (0, 1)]))  # a negative first id in canonical order
@example((3, [(0, 1), (3, 0)]))  # an id equal to n
@example((3, [(0.0, 1.5)]))  # a non-integer id
@example((3, [(1.0, 1.0)]))  # a whole float loop: a loop to a simple graph, a non-integer to a multigraph
@example((3, [(0, 1), (1, 2), (2,)]))  # a wrong-length pair after a canonical run
def test_constructor_checks_match_the_per_edge_reference(case):
    n, edges = case
    for build, reference in _kinds(n, edges):
        want = _outcome(reference)
        assert _outcome(lambda: _stored(build(tuple(edges)))) == want
        if all(len(e) == 2 for e in edges):  # the reader's hand-off: a zip of the ends
            assert _outcome(lambda: _stored(build(zip(*zip(*edges))))) == want


def _built(build):
    """The value build makes, with its stored pairs, degrees, hash and repr; or its error's class and message."""
    try:
        value = build()
    except ValueError as exc:
        return type(exc), str(exc)
    return value, *_stored(value), hash(value), repr(value)


@given(canonical_faults())
@example((3, [(0, 1), (1, 2), (2, 2)]))
@example((3, [(0, 1), (0, 1)]))
@example((3, [(0, 1), (1, 3)]))
@example((3, [(0, 1), (1, 2, 0)]))
@example((3, [(-1, 0), (0, 1)]))  # a negative first id in canonical order
@example((3, [(0, 1), (1, -1)]))  # a negative head after a canonical run
@example((3, [(0, 1), (2, 3)]))  # an id equal to n
@example((3, [(0, 1), (1.5, 2)]))  # a non-integer id
@example((3, [(0, 1), (1, 2), (2,)]))  # a wrong-length pair after a canonical run
@example((3, [(0, None)]))  # ends that order against no int: no sort, and no range test, can take them
@example((3, [("a", 1)]))
@example((3, [(0, 1), (1, "2")]))
@example((3, [(0, [1])]))
@example((3, [(1, 2), (0, 5), (None, 1)]))  # an id past n before an end no sort can order
@example((3, [(5, None)]))  # the range test stops at an id past n before it compares the other end
def test_the_one_pass_path_matches_the_sorting_path(case):
    n, pairs = case
    for build, reference in _kinds(n, pairs):
        got = _built(lambda: build(pairs))
        # reversed, a canonical list of two or more pairs takes the sorting path; lists and
        # a zip of the ends (the reader's hand-off) must store the same tuples of tuples
        assert _built(lambda: build(pairs[::-1])) == got
        assert _built(lambda: build([list(p) for p in pairs])) == got
        if all(len(p) == 2 for p in pairs):
            assert _built(lambda: build(zip(*zip(*pairs)))) == got
        want = _outcome(reference)
        assert (got[1:3] if isinstance(got[0], (Graph, Digraph)) else got) == want


def test_lazy_fields_are_computed_once_per_value_and_stay_frozen(monkeypatch):
    lazy = {
        Graph: {"_adjacency", "edges"},
        Digraph: {"arcs"},
    }
    # functools.cached_property backs exactly these fields, and no class of the package is a descriptor of its own
    modules = [importlib.import_module(f"totirr.{info.name}") for info in pkgutil.iter_modules(totirr.__path__)]
    classes = [c for m in modules for c in vars(m).values() if isinstance(c, type) and c.__module__ == m.__name__]
    fields = {(cls, name): attr for cls in classes for name, attr in vars(cls).items()
              if isinstance(attr, cached_property)}
    assert fields.keys() == {(cls, name) for cls, names in lazy.items() for name in names}
    assert [cls for cls in classes if "__get__" in vars(cls)] == []
    computed = []
    for (_, name), field in fields.items():
        monkeypatch.setattr(field, "func", lambda obj, _f=field.func, _n=name: computed.append(_n) or _f(obj))
    values = [  # read from text, as only those values build their pairs on first read
        parse_graph_text("U 3\n0 1\n1 2\n"),
        parse_graph_text("U 3\n0 1\n1 2\n"),
        parse_graph_text("D 3\n0 1\n2 1\n"),
    ]
    for value in values:
        names = lazy[type(value)]
        for _ in range(3):
            for name in names:
                getattr(value, name)
        assert sorted(computed) == sorted(names), type(value).__name__
        computed.clear()
        for name in names:
            with pytest.raises(AttributeError, match="cannot assign to field"):
                setattr(value, name, None)
    with pytest.raises(AttributeError, match="cannot assign to field"):
        values[0].edges = ()
    assert Graph(3, ((0, 1),)).edges == ((0, 1),) and Digraph(3, ((1, 0),)).arcs == ((1, 0),)
    assert computed == []  # a value built from pairs holds them from birth


def test_multisets_and_values_hold_their_fields_from_birth():
    multisets = [
        DegreeMultiset(()),
        DegreeMultiset(((1, 2), (3, 1))),
        DegreeMultiset.from_entries([(3, 1), (1, 2)]),
        DegreeMultiset.from_degrees((1, 2, 1, 20)),  # the bytes.count kernel, with a degree past its passes
        DegreeMultiset.from_degrees((300, 1, 1)),  # a degree past 255: the Counter path
    ]
    d = Digraph(4, ((0, 1), (1, 2), (2, 3)))
    multisets += [degree_multiset(d, "in"), degree_multiset(d, "out")]
    held = [dict(vars(dm)) for dm in multisets]
    for dm, fields in zip(multisets, held):
        assert fields["vertex_count"] == sum(m for _, m in dm.entries)
        assert fields["_values"] == tuple(v for v, _ in dm.entries)
        assert fields["_prefix"] == tuple(accumulate((m for _, m in dm.entries), initial=0))
        for x in range(-1, 302):
            dm.count_le(x), dm.count_lt(x), dm.count_eq(x), dm.count_gt(x)
        irr_fast(dm), irr_naive(dm)
    tail = EditOp.retarget_tail(1, 2, 0)
    exact_delta_for_edit(d, tail)  # pricing reads both of d's multisets
    child = apply_edit(d, tail)  # which shares its in-degree multiset with d
    assert degree_multiset(child, "in") is multisets[-2]
    exact_delta_for_edit(child, EditOp.reverse_arc(0, 2))
    for dm, fields in zip(multisets, held):
        assert vars(dm).keys() == fields.keys() and all(vars(dm)[k] is v for k, v in fields.items())
    # every value holds a multiset dict of its own from birth: validated, read, a union or an edit's child
    g = Graph(3, ((0, 1), (1, 2)))
    values = [g, d, parse_graph_text("U 3\n0 1\n"), parse_graph_text("D 3\n1 0\n"), _union(g, g)]
    values += [apply_edit(g, EditOp.add_edge(0, 2)), apply_edit(d, EditOp.reverse_arc(2, 3)), child]
    assert all(vars(value)["_multisets"] == {} for value in values[2:-1])
    assert len({id(vars(value)["_multisets"]) for value in values}) == len(values)


@pytest.mark.parametrize("bad", [2.0, "1", None])
def test_a_vertex_id_that_is_not_an_int_is_refused(bad):
    g = Graph(3, ((0, 1), (1, 2)))
    calls = [
        lambda: apply_edit(g, EditOp.add_edge(0, bad)),
        lambda: exact_delta_for_edit(g, EditOp.add_edge(0, bad)),
        lambda: g.degree(bad),
        lambda: edge_joint(g, g, 0, bad),
        lambda: cut_side(g, 1, bad),
        lambda: g.has_edge(1, bad),  # 2.0 == 2 would find the edge (1, 2)
    ]
    for call in calls:
        with pytest.raises(GraphError, match=f"^vertex {re.escape(repr(bad))} is not an integer$"):
            call()
    # a bool is an int, as the constructor takes it; an int out of range is no edge's end
    assert g.degree(True) == 2 and cut_side(g, True, 2) == [2] and g.has_edge(True, 2) and not g.has_edge(0, 7)


@pytest.mark.parametrize(("build", "items", "named"), [
    (Graph, [5], "edge 5"),
    (Graph, [(0, 1), None], "edge None"),
    (lambda n, items: Graph(n, items, multigraph=True), [(1, 1), 5], "edge 5"),
    (Digraph, [(0, 1), 5], "arc 5"),
], ids=["graph", "graph-after-a-pair", "multigraph", "digraph"])
def test_an_item_that_is_not_a_pair_is_refused_by_name(build, items, named):
    with pytest.raises(GraphError, match=f"^{named} is not a pair$"):
        build(3, items)


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


def test_every_value_holds_its_mode_degrees_as_plain_fields():
    g, d = Graph(4, ((0, 1), (1, 2))), Digraph(3, ((0, 1), (2, 1)))
    values = [
        g,
        parse_graph_text("U 4\n0 1\n1 2\n"),
        apply_edit(g, EditOp.add_edge(2, 3)),
        _union(g, Graph(2, ((0, 1),))),
        edge_joint(g, g, 3, 0),
        d,
        parse_graph_text("D 3\n0 1\n2 1\n"),
        apply_edit(d, EditOp.reverse_arc(0, 1)),
    ]
    for value in values:
        directed = isinstance(value, Digraph)
        names = ("in_degrees", "out_degrees") if directed else ("degrees",)
        assert tuple(name for name, _ in value._MODES.values()) == names
        assert not any(hasattr(type(value), name) for name in names)  # no class attribute stands between
        held = tuple(vars(value)[name] for name in names)
        assert all(type(degrees) is tuple for degrees in held)
        assert held == counted_degrees(value.vertex_count, getattr(value, value._PAIRS), directed)
        for name in names:
            with pytest.raises(AttributeError, match="cannot assign to field"):
                setattr(value, name, ())


def test_an_order_no_list_can_hold_is_refused_before_any_list_is_made():
    # sys.maxsize is 2**63 - 1 on 64-bit builds; no order between 10**5 and 2**63 is tried, as a list of that
    # many degrees takes 8 bytes per vertex
    for n in (2**63, 2**64, 10**20, 10**30):
        for build in (lambda: Graph(n, ((0, 1),)), lambda: Graph(n, (), True), lambda: Digraph(n, ((0, 1),))):
            with pytest.raises(GraphError, match="vertex_count must be at most"):
                build()


def test_degree_multiset_modes():
    d = Digraph(3, ((0, 1), (0, 2)))
    assert degree_multiset(d, "in").entries == ((0, 1), (1, 2))
    assert degree_multiset(d, "out").entries == ((0, 2), (2, 1))
    with pytest.raises(GraphError, match=r"^mode 'undirected' is invalid for a digraph; use 'in' or 'out'$"):
        degree_multiset(d, "undirected")
    g = Graph(2, ((0, 1),))
    with pytest.raises(GraphError, match=r"^mode 'in' is invalid for an undirected graph$"):
        degree_multiset(g, "in")
    with pytest.raises(GraphError, match=r"^mode 'sideways' is invalid for an undirected graph$"):
        degree_multiset(g, "sideways")
    with pytest.raises(GraphError, match=r"^mode \['in'\] is invalid for a digraph; use 'in' or 'out'$"):
        degree_multiset(d, ["in"])
    with pytest.raises(GraphError, match=r"^unsupported value tuple$"):
        degree_multiset(((0, 1),))


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


def _counted(degrees) -> tuple[tuple[int, int], ...]:
    """The multiset's entries by a plain Counter, the reference for from_degrees."""
    return tuple(sorted(Counter(degrees).items()))


_T = len(_PASS_DEGREES)  # degrees below _T are counted by bytes.count passes, the rest by a Counter
# each side of the pass cut-off and of a byte
_DEGREES = st.sampled_from([_T - 1, _T, 254, 255, 256]) | st.integers(0, 300)
_SHAPES = {"list": list, "tuple": tuple, "generator": lambda degrees: (d for d in degrees)}


@st.composite
def degree_sequences(draw):
    """0 to 3,000 degrees in 0..300: runs of a degree shuffled together, or single draws."""
    if draw(st.booleans()):
        return draw(st.lists(_DEGREES, max_size=40))
    runs = draw(st.lists(st.tuples(_DEGREES, st.integers(1, 600)), max_size=8))
    degrees = [d for d, length in runs for _ in range(length)][:3000]
    random.Random(draw(st.integers(0, 2**32))).shuffle(degrees)
    return degrees


@settings(max_examples=300, deadline=None)
@given(degree_sequences(), st.sampled_from(sorted(_SHAPES)))
@example([], "generator")
@example([_T - 1, _T, 255, 256], "generator")  # a generator whose last degree bytes() refuses
def test_from_degrees_counts_what_a_counter_counts(degrees, shape):
    entries = DegreeMultiset.from_degrees(_SHAPES[shape](degrees)).entries
    assert entries == _counted(degrees)
    assert all(type(d) is int and type(m) is int for d, m in entries)


_RNG = random.Random(7)


@pytest.mark.parametrize(
    "degrees",
    [
        [],
        [255],
        [255] * 100_000,
        [256],
        [1] * 100_000 + [255],  # 100,000 leaves and one hub whose degree fits a byte
        [_RNG.randrange(256) for _ in range(100_000)],  # uniform 0..255
        [0, 2**70, 1],  # bytes() refuses, so the Counter counts them all
    ],
    ids=["empty", "255", "255x100000", "256", "leaves-and-hub", "uniform-0-255", "huge"],
)
def test_from_degrees_counts_the_pinned_sequences(degrees):
    assert DegreeMultiset.from_degrees(degrees).entries == _counted(degrees)


def test_from_degrees_reads_a_generator_once_and_keeps_the_counter_errors():
    for degrees in ([3, 1, 1, 0], [3, 1, 300, 1]):  # fits a byte; bytes() refuses
        read = []
        entries = DegreeMultiset.from_degrees(read.append(d) or d for d in degrees).entries
        assert (entries, read) == (_counted(degrees), degrees)
    with pytest.raises(GraphError, match=r"^degree -1 must be nonnegative$"):
        DegreeMultiset.from_degrees([-1])
    with pytest.raises(GraphError, match=r"^degree -2 must be nonnegative$"):
        DegreeMultiset.from_degrees([1, 1, -2])
    # a degree or a multiplicity that is no integer is refused, however the entries were built; a bool is an int
    for build, given, entry in (
        (DegreeMultiset.from_degrees, [1.5, 1.5], r"\(1\.5, 2\)"),
        (DegreeMultiset.from_entries, [(1.5, 2)], r"\(1\.5, 2\)"),
        (DegreeMultiset.from_entries, [(2, 1.0)], r"\(2, 1\.0\)"),
    ):
        with pytest.raises(GraphError, match=rf"^entry {entry} must be a pair of integers$"):
            build(given)
    assert DegreeMultiset.from_entries([(True, 2), (2, True)]).entries == ((True, 2), (2, True))


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
    loopy = Graph(2, ((0, 0), (0, 1)), multigraph=True)
    assert cut_side(loopy, 0, 0) is None
    assert cut_side(loopy, 0, 1) is not None


@st.composite
def multigraphs(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=2 * n + 2))
    return Graph(n, tuple(edges), multigraph=True)


@settings(max_examples=300)
@given(multigraphs(), st.booleans())
def test_adjacency_matches_the_neighbour_sets(g, multigraph):
    # a simple graph's edges go straight to the neighbour lists; a multigraph's are deduplicated first
    if not multigraph:
        g = Graph(g.vertex_count, tuple({(a, b) for a, b in g.edges if a != b}))
    assert g._adjacency == adjacency(g)


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
    g = Graph(4, ((0, 1), (1, 2), (2, 3)), multigraph=True)
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
    multi = Graph(5, ((0, 1), (0, 1), (0, 2), (0, 3), (2, 2), (3, 4)), multigraph=True)
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
            assert child.multigraph == parent.multigraph
        else:
            assert child.arcs == want


GRAPH_KINDS = (EditKind.ADD_EDGE, EditKind.REMOVE_EDGE, EditKind.RETARGET_EDGE_END)


@st.composite
def edit_cases(draw):
    """A simple graph, a multigraph or a digraph, and any EditOp with operands in -1..n."""
    n = draw(st.integers(1, 5))
    vertex = st.integers(0, n - 1)
    if draw(st.booleans()):
        arcs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), unique=True, max_size=2 * n))
        value = Digraph(n, tuple(arcs))
        present, fitting = value.arcs, [k for k in EditKind if k not in GRAPH_KINDS]
    else:
        multigraph = draw(st.booleans())
        pairs = st.tuples(vertex, vertex).map(sorted).map(tuple).filter(lambda e: multigraph or e[0] != e[1])
        value = Graph(n, tuple(draw(st.lists(pairs, unique=not multigraph, max_size=2 * n))), multigraph)
        present, fitting = value.edges, GRAPH_KINDS
    # any kind, with those that fit the value drawn more often
    kind = draw(st.sampled_from(fitting) | st.sampled_from(EditKind))
    operand = vertex | st.integers(-1, n)
    ends = st.tuples(operand, operand)
    if present:
        # about half the draws start from an entry of the value, either way round, so many edits are valid
        ends |= st.sampled_from(present + tuple((y, x) for x, y in present))
    a, b = draw(ends)
    target = draw(operand) if kind.name.startswith("RETARGET") else None
    return value, EditOp(kind, (a, b), target)


def _reference_child(value, op):
    """The value op should give, or None where it must be rejected.

    Each kind's removed and added entry is spelled out here, and
    checked_edges / checked_arcs decide whether the spliced list is valid.
    """
    directed = isinstance(value, Digraph)
    n = value.vertex_count
    a, b, t = *op.endpoints, op.target
    removed, added = {
        EditKind.ADD_EDGE: (None, (a, b)),
        EditKind.REMOVE_EDGE: ((a, b), None),
        EditKind.RETARGET_EDGE_END: ((a, b), (t, b)),
        EditKind.REVERSE_ARC: ((a, b), (b, a)),
        EditKind.RETARGET_ARC_TAIL: ((a, b), (t, b)),
        EditKind.RETARGET_ARC_HEAD: ((a, b), (a, t)),
    }[op.kind]
    if (op.kind in GRAPH_KINDS) == directed or not all(0 <= x < n for x in (a, b, t) if x is not None):
        return None
    norm = (lambda e: e) if directed else (lambda e: tuple(sorted(e)))
    entries = list(value.arcs if directed else value.edges)
    if removed is not None:
        if norm(removed) not in entries or added is not None and norm(added) == norm(removed):
            return None
        entries.remove(norm(removed))
    spliced = entries + ([] if added is None else [added])
    try:
        if directed:
            return Digraph(n, checked_arcs(n, spliced))
        return Graph(n, checked_edges(n, spliced, value.multigraph), value.multigraph)
    except GraphError:
        return None


@given(edit_cases())
@settings(max_examples=400)
def test_edit_rule_matches_the_constructor_reference(case):
    value, op = case
    want = _reference_child(value, op)
    try:
        child = apply_edit(value, op)
    except GraphError as applied:
        assert want is None, (value, op)
        with pytest.raises(GraphError) as priced:
            exact_delta_for_edit(value, op)
        assert (type(priced.value), str(priced.value)) == (type(applied), str(applied))
    else:
        assert child == want, (value, op)
        exact_delta_for_edit(value, op)


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

