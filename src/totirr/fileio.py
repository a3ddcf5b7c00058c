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
identical bytes.

Reading canonical text runs C-level passes only. The raw text, less one
trailing newline, is checked first by its skeleton: after one header match,
one translate deletes the digits and '-', and what is left must be one
newline and one space per edge line. json's scanner then converts the
numbers. Only when json refuses does one regex search run: it tells a
leading zero, which int() converts instead, from an empty token or a
misplaced '-'. Text that fails is stripped of padding, blank lines and
comments and checked again the same way. Text that fails both checks or the
conversion (a negative vertex count, a numeral over int()'s 4,300 digits)
is walked line by line, to name its first bad line.

The value's constructor takes json's list of numbers as it is (graphs._Flat)
and scans its pairs through one zip that builds none. The value builds its
pair tuple on first read, so `compute`, which reads degrees only, never
builds one.
"""

from __future__ import annotations

import json
import os
import re
from itertools import chain
from typing import Optional, Union

from .graphs import AnyGraph, Digraph, Graph, _Flat


class FormatError(ValueError):
    """Malformed edge-list text."""


# int() alone would also take '+', '_', whitespace and non-ASCII digits.
# _NOT_AN_EDGE matches at the newline before the first bad edge line; it keeps
# no backtracking state per line, and its leading literal lets search() skip.
_HEADER = re.compile("[UD] -?[0-9]+$", re.M)
_NOT_AN_EDGE = re.compile("\n(?!-?[0-9]+ -?[0-9]+$)", re.M)
# Deleting the numerals leaves the separator skeleton; the commas turn the numerals into one json array.
_SKELETON = str.maketrans("", "", "-0123456789")
_COMMAS = str.maketrans(" \n", ",,")
# The header letter of each value type, read by parse_graph_text and written by graph_to_text.
_KINDS = {"U": Graph, "D": Digraph}


def parse_graph_text(text: str) -> AnyGraph:
    try:
        kind, ends = _read(text)
    except ValueError:
        raise _first_fault(text) from None
    try:
        return _KINDS[kind](ends[0], _Flat(ends))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def _read(text: str) -> tuple[str, list[int]]:
    """The kind, then the vertex count and flat endpoint list of text; ValueError if a line is bad."""
    found = _numbers(text, len(text) - text.endswith("\n"))
    if found is None:
        lines = filter(None, map(str.strip, text.split("\n")))
        if "#" in text:
            lines = (line for line in lines if line[0] != "#")
        kept = "\n".join(lines)
        found = _numbers(kept, len(kept))
        if found is None:
            raise ValueError
    if found[1][0] < 0:  # a negative vertex count
        raise ValueError
    return found


def _numbers(text: str, end: int) -> Optional[tuple[str, list[int]]]:
    """The kind and numbers of text[:end] if it is one header line and then edge lines only, else None."""
    if not _HEADER.match(text, 0, end):
        return None
    body = text[2:end]  # the vertex count, then one newline, a, a space and b per edge line
    if body.translate(_SKELETON) != "\n " * body.count("\n"):
        return None
    try:
        return text[0], json.loads("[" + body.translate(_COMMAS) + "]")
    except ValueError:  # json refuses leading zeros, an empty token, a misplaced '-' and over 4,300 digits
        if _NOT_AN_EDGE.search(body):
            return None  # a line of one space passes the skeleton; stripped, it is a blank line
        return text[0], list(map(int, body.split()))


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
    kind = next((kind for kind, cls in _KINDS.items() if isinstance(g, cls)), None)
    if kind is None:
        raise FormatError(f"unsupported value {type(g).__name__}")
    if g.multigraph:
        raise FormatError("a multigraph has no edge-list text: the format holds simple values only")
    pairs = getattr(g, g._PAIRS)
    # d, not s: the constructor took every number as an integer, so a bool is written as the 0 or 1 it equals
    return f"{kind} {g.vertex_count:d}\n" + "%d %d\n" * len(pairs) % tuple(chain.from_iterable(pairs))


def read_graph_file(path: Union[str, os.PathLike]) -> AnyGraph:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return parse_graph_text(fh.read())


def write_graph_file(path: Union[str, os.PathLike], g: AnyGraph) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(graph_to_text(g))
