"""Plain-text edge-list format.

Layout, byte for byte:

    # optional comment lines anywhere
    U <vertex_count>          (or: D <vertex_count> for a digraph)
    <a> <b>
    ...

One edge or arc per line, two ids separated by a single space, LF line
endings, trailing newline. A number is an optional '-' followed by ASCII
digits. Blank lines and lines starting with '#' are ignored on input and
never produced on output. Serialization is canonical (edges sorted), so
equal values produce identical bytes.
"""

from __future__ import annotations

import os
from typing import Union

from .graphs import AnyGraph, Digraph, Graph


class FormatError(ValueError):
    """Malformed edge-list text."""


# int() alone also takes '+', '_', whitespace and non-ASCII digits. Text that
# holds none of them needs no check per number, because there int() accepts
# exactly an optional '-' then ASCII digits; in other text a line of numbers
# may hold only the characters of _EDGE_LINE, and int() rejects the rest.
_INT_EXTRAS = "+_\t\v\f\r"
_EDGE_LINE = "-0123456789 "


def parse_graph_text(text: str) -> AnyGraph:
    header = None
    pairs: list[tuple[int, int]] = []
    check = not text.isascii() or any(c in text for c in _INT_EXTRAS)
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(" ")
        if header is None:
            if len(fields) != 2 or fields[0] not in ("U", "D"):
                raise FormatError(f"line {lineno}: expected header 'U <n>' or 'D <n>', got {line!r}")
            try:
                if check and fields[1].strip(_EDGE_LINE):
                    raise ValueError
                n = int(fields[1])
            except ValueError:
                raise FormatError(f"line {lineno}: vertex count {fields[1]!r} is not an integer") from None
            if n < 0:
                raise FormatError(f"line {lineno}: vertex count must be nonnegative")
            header = (fields[0], n)
            continue
        if len(fields) != 2:
            raise FormatError(f"line {lineno}: expected '<a> <b>', got {line!r}")
        try:
            if check and line.strip(_EDGE_LINE):
                raise ValueError
            a, b = int(fields[0]), int(fields[1])
        except ValueError:
            raise FormatError(f"line {lineno}: endpoints must be integers, got {line!r}") from None
        pairs.append((a, b))
    if header is None:
        raise FormatError("missing header line")
    kind, n = header
    try:
        if kind == "U":
            return Graph(n, tuple(pairs))
        return Digraph(n, tuple(pairs))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


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
