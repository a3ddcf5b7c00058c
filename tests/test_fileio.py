import random
import re
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from totirr import (
    Digraph,
    EditOp,
    FormatError,
    Graph,
    GraphError,
    apply_edit,
    exact_delta_for_edit,
    graph_to_text,
    parse_graph_text,
    read_graph_file,
    write_graph_file,
)

from totirr import fileio
from totirr.graphs import EditKind, degree_multiset
from totirr.generators import (
    complete,
    complete_bipartite,
    matching,
    orient_by_labeling,
    path,
    random_digraph,
    random_graph,
    random_tree,
    star,
)

from strategies import digraphs, graphs, read_lines


def test_parse_undirected():
    g = parse_graph_text("U 4\n0 1\n1 2\n2 3\n")
    assert isinstance(g, Graph)
    assert g.vertex_count == 4
    assert g.edges == ((0, 1), (1, 2), (2, 3))


def test_parse_directed():
    d = parse_graph_text("D 3\n0 1\n2 1\n")
    assert isinstance(d, Digraph)
    assert d.arcs == ((0, 1), (2, 1))


def test_comments_and_blank_lines_ignored():
    text = "# a graph\n\nU 3\n# middle\n0 1\n\n1 2\n# trailing\n"
    g = parse_graph_text(text)
    assert g.edges == ((0, 1), (1, 2))


def test_missing_final_newline_tolerated():
    g = parse_graph_text("U 2\n0 1")
    assert g.edges == ((0, 1),)


def test_parse_errors_report_line_numbers():
    with pytest.raises(FormatError, match="line 1"):
        parse_graph_text("X 3\n0 1\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_graph_text("U 3\n0 1 2\n")
    with pytest.raises(FormatError, match="line 3"):
        parse_graph_text("U 3\n0 1\nfoo bar\n")
    with pytest.raises(FormatError):
        parse_graph_text("")
    with pytest.raises(FormatError):
        parse_graph_text("U x\n")
    with pytest.raises(FormatError):
        parse_graph_text("0 1\nU 3\n")  # edge before header


def test_construction_errors_become_format_errors():
    with pytest.raises(FormatError):
        parse_graph_text("U 3\n0 3\n")  # vertex out of range
    with pytest.raises(FormatError, match="outside vertex range"):
        parse_graph_text("U 3\n-1 2\n")  # a negative id reaches the range check
    with pytest.raises(FormatError):
        parse_graph_text("U 3\n1 1\n")  # loop without flag
    with pytest.raises(FormatError):
        parse_graph_text("U 3\n0 1\n0 1\n")  # duplicate
    with pytest.raises(FormatError, match="nonnegative"):
        parse_graph_text("U -2\n")


@pytest.mark.parametrize(
    "text",
    [
        "U 3\n\u0660 1\n1_0 2\n",  # Arabic-Indic zero, underscore separator
        "U 3\n0 1_0\n",
        "U 3\n+1 2\n",
        "D 3\n0 \uff12\n",  # fullwidth two
        "U 3\n0\t 1\n",
        "U 3\n0\r 1\n",
        "U 3\n0 \x0b1\n",
        "U 3\n--1 2\n",
        "U 3\n- 2\n",
        "U 1_0\n",
        "U +3\n",
        "U \u0663\n",
    ],
)
def test_numbers_are_ascii_digits_only(text):
    with pytest.raises(FormatError, match="line"):
        parse_graph_text(text)


_HUGE = "9" * 5000  # past int()'s 4,300-digit limit, yet inside the grammar


@pytest.mark.parametrize(
    "text, lineno",
    [
        (f"U {_HUGE}\n", 1),
        (f"U 3\n0 {_HUGE}\n", 2),
        (f"U 3\n0 1\n# note\n{_HUGE} 2\n1 2\n", 4),
        ("U 3\n0 1\n+1 2\n0 1_0\n", 3),
        (f"U 3\n0 1\n\n1 2 0\n{_HUGE} 2\n", 4),
        ("U 3\n\u0660 1\n1_0 2\n", 2),
        ("U 3\n0 1\n1 2\n0 \x0b1\n", 4),
    ],
)
def test_bad_lines_are_named_exactly(text, lineno):
    with pytest.raises(FormatError, match=f"^line {lineno}: "):
        parse_graph_text(text)


_numerals = st.one_of(
    st.integers(-2, 12).map(str),
    st.sampled_from(["", "-", "1_0", "+1", "\u0660", "0x1", "1\t", "9" * 5000, "00", "007", "-0", "-007"]),
)
_lines = st.one_of(
    st.text(max_size=8),
    st.sampled_from([" ", "  ", "\t"]),
    st.tuples(st.sampled_from(["U", "D", "#", "X"]), _numerals).map(" ".join),
    st.tuples(_numerals, _numerals).map(" ".join),
    st.tuples(_numerals, st.sampled_from(["{} ", " {}"])).map(lambda pair: pair[1].format(pair[0])),
)


@given(st.one_of(st.text(), st.lists(_lines, max_size=12).map("\n".join)))
def test_arbitrary_text_fails_only_with_format_error(text):
    # ... and with the message of the line-by-line reference, or with its value
    try:
        want = read_lines(text)
    except FormatError as exc:
        with pytest.raises(FormatError) as got:
            parse_graph_text(text)
        assert str(got.value) == str(exc)
        return
    value = parse_graph_text(text)
    assert value == want
    assert parse_graph_text(graph_to_text(value)) == value


_SPELLINGS = {
    "canonical": lambda text: text,
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "comments and blank lines": lambda text: "# head\n\n" + text.replace("\n", "\n# note\n\n", 2),
    "padded lines": lambda text: "\n".join(f" \t{line}  " for line in text.split("\n")),
    "leading zeros": lambda text: re.sub("(?<![0-9])0(?![0-9])", "-0", re.sub("[1-9][0-9]*", r"00\g<0>", text)),
    "leading zeros and a comment": lambda text: "#\n" + re.sub("[0-9]+", r"0\g<0>", text),
}


@pytest.mark.parametrize("spelling", _SPELLINGS)
@pytest.mark.parametrize(
    "value", [Graph(6, ((0, 1), (0, 2), (2, 3), (3, 4), (1, 4))), Digraph(6, ((1, 0), (0, 2), (2, 3), (4, 3), (1, 4)))]
)
def test_every_spelling_of_an_edge_list_reads_the_same(value, spelling):
    # the raw check, the stripped check and the int() fallback each take some of these
    text = _SPELLINGS[spelling](graph_to_text(value))
    assert parse_graph_text(text) == value == read_lines(text)


@pytest.mark.parametrize("text", ["U 3\n0 1\n \n1 2\n", "U 3\n0 1\n1 2\n \n"])
def test_a_line_of_one_space_is_a_blank_line(text):
    # its skeleton is an edge line's, so the raw check admits it and json alone refuses it
    assert parse_graph_text(text) == Graph(3, ((0, 1), (1, 2))) == read_lines(text)


def test_admitted_text_that_json_refuses():
    with pytest.raises(FormatError, match="^line 2: expected '<a> <b>', got '0'$"):
        parse_graph_text("U 3\n0 \n1 2\n")
    assert parse_graph_text("U 3\n01 2\n") == Graph(3, ((1, 2),)) == read_lines("U 3\n01 2\n")
    with pytest.raises(FormatError, match="^line 2: endpoints must be integers, got '- 2'$"):
        parse_graph_text("U 3\n- 2\n")


class _CountingPattern:
    def __init__(self, pattern):
        self.pattern, self.calls = pattern, 0

    def search(self, *args):
        self.calls += 1
        return self.pattern.search(*args)


def test_canonical_text_runs_no_regex_over_its_lines(monkeypatch):
    tree = random_tree(2_000, 7)
    texts = [graph_to_text(tree), graph_to_text(orient_by_labeling(tree, range(2_000))), "U 3\n00 1\n1 02\n"]
    for text, calls in zip(texts, (0, 0, 1)):
        counting = _CountingPattern(fileio._NOT_AN_EDGE)
        monkeypatch.setattr(fileio, "_NOT_AN_EDGE", counting)
        assert parse_graph_text(text) == read_lines(text)
        assert counting.calls == calls


def test_canonical_pairs_are_stored_without_a_sort(monkeypatch):
    # counts calls of the constructor's one sort, not time
    sorts = []
    for cls in (Graph, Digraph):
        counted = staticmethod(lambda pairs, _sort=cls._sorted: sorts.append(1) or _sort(pairs))
        monkeypatch.setattr(cls, "_sorted", counted)
    tree = random_tree(2_000, 7)
    assert len(sorts) == 1  # random_tree's edges come in attachment order, not sorted
    labels = list(range(2_000))
    random.Random(7).shuffle(labels)
    for value in (tree, orient_by_labeling(tree, labels)):
        header, *lines = graph_to_text(value).splitlines(keepends=True)
        for edge_lines, count in ((lines, 0), (lines[::-1], 1)):
            sorts.clear()
            assert parse_graph_text(header + "".join(edge_lines)) == value
            assert len(sorts) == count, type(value).__name__
    sorts.clear()
    for family in (complete, path, star, matching):
        family(30)
    for family in (random_graph, random_digraph):
        family(30, 1, 7)
    complete_bipartite(12, 18)
    assert sorts == []  # every canonical family takes the one-pass path


def test_reader_peak_memory_is_bounded():
    tree = random_tree(20_001, 7)
    for value in (tree, orient_by_labeling(tree, range(20_001))):
        text = graph_to_text(value)
        tracemalloc.start()
        try:
            parse_graph_text(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 11 * len(text), type(value).__name__


@st.composite
def _read_cases(draw):
    """(text, its value class, n, the pairs it lists, an edit): a U or D text of order n whose lines are canonical,
    valid but shuffled, or as drawn, ends from -1 to n so that some fall out of range, loops and repeats included."""
    kind = draw(st.sampled_from("UD"))
    n = draw(st.integers(0, 7))
    pairs = draw(st.lists(st.tuples(st.integers(-1, n), st.integers(-1, n)), max_size=12))
    shape = draw(st.sampled_from(["canonical", "shuffled", "as drawn"]))
    if shape != "as drawn":
        valid = {(min(p), max(p)) if kind == "U" else p for p in pairs if 0 <= min(p) and max(p) < n and p[0] != p[1]}
        pairs = sorted(valid)
        if shape == "shuffled":
            pairs = draw(st.permutations(pairs))
    text = f"{kind} {n}\n" + "".join(f"{a} {b}\n" for a, b in pairs)
    ends = st.integers(0, max(n - 1, 0))
    edit_kind = draw(st.sampled_from([k for k in EditKind if ("arc" in k.value) == (kind == "D")]))
    op = EditOp(edit_kind, (draw(ends), draw(ends)), draw(ends))
    return text, Graph if kind == "U" else Digraph, n, pairs, op


# Each reads one thing of a value, given an edit to try on it.
_PROBES = {
    "==": lambda g, op: g,
    "hash": lambda g, op: hash(g),
    "repr": lambda g, op: repr(g),
    "degrees": lambda g, op: (g.degrees,) if isinstance(g, Graph) else (g.in_degrees, g.out_degrees),
    "degree multisets": lambda g, op: [degree_multiset(g, mode) for mode in g._MODES],
    "text": lambda g, op: graph_to_text(g),
    "edit": lambda g, op: (exact_delta_for_edit(g, op), apply_edit(g, op)),
}


def _seen(probe, value, op):
    try:
        return probe(value, op)
    except ValueError as exc:
        return type(exc), str(exc)


@given(_read_cases())
@example(("U 3\n0 1\n1 2\n", Graph, 3, [(0, 1), (1, 2)], EditOp.remove_edge(1, 2)))
@example(("D 3\n1 2\n0 1\n", Digraph, 3, [(1, 2), (0, 1)], EditOp.reverse_arc(0, 1)))
@example(("U 3\n0 1\n0 1\n1 1\n", Graph, 3, [(0, 1), (0, 1), (1, 1)], EditOp.add_edge(0, 2)))
@example(("D 2\n0 1\n-1 0\n", Digraph, 2, [(0, 1), (-1, 0)], EditOp.reverse_arc(0, 1)))
def test_a_read_value_equals_the_value_built_from_its_pairs(case):
    # before and after its pairs are first built, a read value shows what the constructor's value shows
    text, cls, n, pairs, op = case
    try:
        built = cls(n, tuple(pairs))
    except GraphError as exc:
        with pytest.raises(FormatError) as got:
            parse_graph_text(text)
        assert str(got.value) == str(exc)
        return
    for name, probe in _PROBES.items():
        fresh = parse_graph_text(text)
        assert (fresh._PAIRS in vars(fresh)) == (text != graph_to_text(built)), name  # canonical text: unbuilt
        assert _seen(probe, fresh, op) == _seen(probe, built, op), name
    touched = parse_graph_text(text)
    assert getattr(touched, touched._PAIRS) == getattr(built, built._PAIRS)
    for name, probe in _PROBES.items():
        assert _seen(probe, touched, op) == _seen(probe, built, op), name


def test_canonical_output():
    g = Graph(4, ((2, 3), (1, 0), (0, 2)))
    assert graph_to_text(g) == "U 4\n0 1\n0 2\n2 3\n"
    d = Digraph(3, ((2, 0), (0, 1)))
    assert graph_to_text(d) == "D 3\n0 1\n2 0\n"
    with pytest.raises(FormatError, match=r"^unsupported value str$"):
        graph_to_text("x")


def test_writer_refuses_a_multigraph():
    # the format holds simple values only: a loop or a parallel edge would not read back, nor would the flag
    for edges in (((0, 0), (0, 1), (0, 1)), ((0, 1),)):
        with pytest.raises(FormatError, match="multigraph"):
            graph_to_text(Graph(2, edges, multigraph=True))


def test_empty_graph_round_trip():
    g = Graph(5, ())
    assert graph_to_text(g) == "U 5\n"
    assert parse_graph_text(graph_to_text(g)) == g


@given(graphs())
def test_round_trip_undirected(g):
    assert parse_graph_text(graph_to_text(g)) == g


@given(digraphs())
def test_round_trip_directed(d):
    assert parse_graph_text(graph_to_text(d)) == d


def test_writer_never_turns_a_value_into_another_graph():
    # the constructor refuses an id that is not an integer, so no value holds one for the writer to print;
    # text that holds one is refused by the reader at its line
    with pytest.raises(GraphError, match=r"^edge \(0\.0, 1\.5\) has an end that is not an integer$"):
        Graph(3, ((0.0, 1.5),))
    with pytest.raises(FormatError, match="line 2"):
        parse_graph_text("U 3\n0.0 1.5\n")


def test_a_value_with_bool_numbers_round_trips_to_an_equal_value():
    # bools index a list, so the constructor takes them as the ids 0 and 1; the writer prints those
    for value, text in (
        (Graph(3, ((False, True),)), "U 3\n0 1\n"),
        (Digraph(2, ((True, False),)), "D 2\n1 0\n"),
        (Graph(True, ()), "U 1\n"),
    ):
        assert graph_to_text(value) == text
        assert parse_graph_text(text) == value


def test_file_round_trip_bytes(tmp_path):
    g = Graph(3, ((0, 1), (1, 2)))
    target = tmp_path / "g.txt"
    write_graph_file(target, g)
    raw = target.read_bytes()
    assert raw == b"U 3\n0 1\n1 2\n"  # LF only, trailing newline
    assert read_graph_file(target) == g
