import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from totirr import (
    Digraph,
    FormatError,
    Graph,
    graph_to_text,
    parse_graph_text,
    read_graph_file,
    write_graph_file,
)

from totirr.generators import random_tree

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
    st.sampled_from(["", "-", "1_0", "+1", "\u0660", "0x1", "1\t", "9" * 5000]),
)
_lines = st.one_of(
    st.text(max_size=8),
    st.tuples(st.sampled_from(["U", "D", "#", "X"]), _numerals).map(" ".join),
    st.tuples(_numerals, _numerals).map(" ".join),
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


def test_reader_peak_memory_is_bounded():
    text = graph_to_text(random_tree(20_001, 7))
    tracemalloc.start()
    try:
        parse_graph_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * len(text)


def test_canonical_output():
    g = Graph(4, ((2, 3), (1, 0), (0, 2)))
    assert graph_to_text(g) == "U 4\n0 1\n0 2\n2 3\n"
    d = Digraph(3, ((2, 0), (0, 1)))
    assert graph_to_text(d) == "D 3\n0 1\n2 0\n"


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


def test_file_round_trip_bytes(tmp_path):
    g = Graph(3, ((0, 1), (1, 2)))
    target = tmp_path / "g.txt"
    write_graph_file(target, g)
    raw = target.read_bytes()
    assert raw == b"U 3\n0 1\n1 2\n"  # LF only, trailing newline
    assert read_graph_file(target) == g
