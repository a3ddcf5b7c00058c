"""Shared hypothesis strategies for graph-shaped test data, and the references
the package is checked against: the component sweep behind the cut-edge
search, the vertex-pair loop behind the irr_naive oracle, the per-edge loops
behind the Graph and Digraph constructor checks, and the line-by-line reader
behind parse_graph_text."""

import re

from hypothesis import strategies as st

from totirr import DegreeMultiset, Digraph, FormatError, Graph, GraphError


@st.composite
def degree_lists(draw, max_size=60, max_degree=50):
    return draw(st.lists(st.integers(0, max_degree), min_size=1, max_size=max_size))


@st.composite
def multisets(draw, max_size=60, max_degree=50):
    return DegreeMultiset.from_degrees(draw(degree_lists(max_size, max_degree)))


@st.composite
def graphs(draw, min_n=1, max_n=10):
    n = draw(st.integers(min_n, max_n))
    pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if not pool:
        return Graph(n, ())
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    return Graph(n, tuple(edges))


@st.composite
def digraphs(draw, min_n=1, max_n=10):
    # orientation bit per chosen pair keeps the result free of antiparallel
    # arcs, so reversals are always legal
    n = draw(st.integers(min_n, max_n))
    pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if not pool:
        return Digraph(n, ())
    pairs = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    arcs = tuple((b, a) if flip else (a, b) for (a, b), flip in zip(pairs, flips))
    return Digraph(n, arcs)


def pairwise_irr(degrees):
    """Total irregularity straight from the definition: |d(u) - d(v)| over all n(n-1)/2 vertex pairs."""
    degs = list(degrees)
    total = 0
    for i in range(1, len(degs)):
        di = degs[i]
        for j in range(i):
            dj = degs[j]
            total += di - dj if di >= dj else dj - di
    return total


def connected_components(g):
    """Vertex lists of the components, each sorted, ordered by minimum id."""
    seen = [False] * g.vertex_count
    comps = []
    for start in range(g.vertex_count):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in g.neighbors(v):
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def checked_edges(n, edges, allow_parallel=False, allow_loops=False):
    """The sorted (low, high) edges Graph(n, edges, ...) stores, or its error, edge by edge."""
    if n < 0:
        raise GraphError("vertex_count must be nonnegative")
    norm = sorted((a, b) if a <= b else (b, a) for a, b in edges)
    prev = None
    for a, b in norm:
        if not (0 <= a < n and 0 <= b < n):
            raise GraphError(f"edge ({a}, {b}) outside vertex range 0..{n - 1}")
        if a == b and not allow_loops:
            raise GraphError(f"loop at vertex {a} requires allow_loops")
        if (a, b) == prev and not allow_parallel:
            raise GraphError(f"parallel edge ({a}, {b}) requires allow_parallel")
        prev = (a, b)
    return tuple(norm)


def checked_arcs(n, arcs):
    """The sorted arcs Digraph(n, arcs) stores, or its error, arc by arc."""
    if n < 0:
        raise GraphError("vertex_count must be nonnegative")
    norm = sorted(tuple(arc) for arc in arcs)
    prev = None
    for t, h in norm:
        if not (0 <= t < n and 0 <= h < n):
            raise GraphError(f"arc ({t}, {h}) outside vertex range 0..{n - 1}")
        if t == h:
            raise GraphError(f"self-arc at vertex {t} not allowed")
        if (t, h) == prev:
            raise GraphError(f"duplicate arc ({t}, {h}) not allowed")
        prev = (t, h)
    return tuple(norm)


def read_lines(text):
    """parse_graph_text one line at a time: the value, or the FormatError for the first bad line."""
    numeral = re.compile("-?[0-9]+")
    header = None
    pairs = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(" ")
        if header is None:
            if len(fields) != 2 or fields[0] not in ("U", "D"):
                raise FormatError(f"line {lineno}: expected header 'U <n>' or 'D <n>', got {line!r}")
            try:
                if not numeral.fullmatch(fields[1]):
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
            if not all(map(numeral.fullmatch, fields)):
                raise ValueError
            pairs.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise FormatError(f"line {lineno}: endpoints must be integers, got {line!r}") from None
    if header is None:
        raise FormatError("missing header line")
    kind, n = header
    try:
        return Graph(n, tuple(pairs)) if kind == "U" else Digraph(n, tuple(pairs))
    except ValueError as exc:
        raise FormatError(str(exc)) from None
