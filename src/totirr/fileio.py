"""Plain-text edge-list format.

Layout, byte for byte:

    # optional comment lines anywhere
    U <vertex_count>          (or: D <vertex_count> for a digraph)
    <a> <b>
    ...

One edge or arc per line, two ids separated by a single space, LF line
endings, trailing newline. A number is an optional '-' followed by ASCII
digits: a stripped edge line matches `-?[0-9]+ -?[0-9]+`. Blank lines and
lines starting with '#' are ignored on input and never produced on output.
Serialization is canonical (edges sorted), so equal values produce
identical bytes. Reading checks all edge lines in one regex search and
converts all numbers in one pass; only a text that fails is walked line by
line, to name its first bad line.
"""

from __future__ import annotations

import os
import re
from typing import Union

from .graphs import AnyGraph, Digraph, Graph


class FormatError(ValueError):
    """Malformed edge-list text."""


# int() alone would also take '+', '_', whitespace and non-ASCII digits.
# _NOT_AN_EDGE matches at the newline before the first bad edge line; it keeps
# no backtracking state per line, and its leading literal lets search() skip.
_HEADER = re.compile("[UD] -?[0-9]+$", re.M)
_NOT_AN_EDGE = re.compile("\n(?!-?[0-9]+ -?[0-9]+$)", re.M)


def parse_graph_text(text: str) -> AnyGraph:
    lines = filter(None, map(str.strip, text.split("\n")))
    if "#" in text:
        lines = (line for line in lines if line[0] != "#")
    kept = "\n".join(lines)
    try:
        if not _HEADER.match(kept) or _NOT_AN_EDGE.search(kept):
            raise ValueError
        # The grammar left only ASCII; bytes tokens take less memory than str.
        kind, *tokens = kept.encode().split()
        n, *ends = map(int, tokens)  # refuses over 4,300 digits
        del tokens  # before the constructor builds its copies
        if n < 0:
            raise ValueError
    except ValueError:
        raise _first_fault(text) from None
    ends = iter(ends)
    try:
        return (Graph if kind == b"U" else Digraph)(n, list(zip(ends, ends)))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def _first_fault(text: str) -> FormatError:
    """The error naming the first bad line of text that parse_graph_text refused."""
    header = False
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(" ")
        if not header:
            if len(fields) != 2 or fields[0] not in ("U", "D"):
                return FormatError(f"line {lineno}: expected header 'U <n>' or 'D <n>', got {line!r}")
            if not _HEADER.match(line) or not _fits_int(fields[1]):
                return FormatError(f"line {lineno}: vertex count {fields[1]!r} is not an integer")
            if int(fields[1]) < 0:
                return FormatError(f"line {lineno}: vertex count must be nonnegative")
            header = True
        elif len(fields) != 2:
            return FormatError(f"line {lineno}: expected '<a> <b>', got {line!r}")
        elif _NOT_AN_EDGE.match("\n" + line) or not all(map(_fits_int, fields)):
            return FormatError(f"line {lineno}: endpoints must be integers, got {line!r}")
    return FormatError("missing header line")


def _fits_int(numeral: str) -> bool:
    try:
        int(numeral)  # refuses over 4,300 digits
    except ValueError:
        return False
    return True


def graph_to_text(g: AnyGraph) -> str:
    if isinstance(g, Graph):
        lines = [f"U {g.vertex_count}"]
        lines.extend(f"{a} {b}" for a, b in g.edges)
    elif isinstance(g, Digraph):
        lines = [f"D {g.vertex_count}"]
        lines.extend(f"{t} {h}" for t, h in g.arcs)
    else:
        raise FormatError(f"unsupported value {type(g).__name__}")
    return "\n".join(lines) + "\n"


def read_graph_file(path: Union[str, os.PathLike]) -> AnyGraph:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return parse_graph_text(fh.read())


def write_graph_file(path: Union[str, os.PathLike], g: AnyGraph) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(graph_to_text(g))
