"""Shared hypothesis strategies for graph-shaped test data, and the references
the package is checked against: the component sweep behind the cut-edge
search, the vertex-pair loop behind the irr_naive oracle, the per-edge loops
behind the Graph and Digraph constructor checks and the per-vertex count
behind their degrees, the line-by-line reader
behind parse_graph_text, the per-neighbour branch probe behind lemma34's
candidate list, the per-vertex neighbour sets behind Graph._adjacency, and the
listed-pairs construction behind the random generators, and the json.dumps
call behind AuditReport.to_json. Also the wrong degree carry that the
oracle-independence tests install."""

import json
import re
from itertools import compress
from operator import index

from hypothesis import strategies as st

from totirr import DegreeMultiset, Digraph, EditError, FormatError, Graph, GraphError
from totirr.generators import _P_TENTHS, _stream
from totirr.graphs import _branch_component


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
            for w in g._adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def checked_edges(n, edges, multigraph=False):
    """The sorted (low, high) edges Graph(n, edges, ...) stores, or its error, edge by edge."""
    if n < 0:
        raise GraphError("vertex_count must be nonnegative")
    norm = _sorted("edge", edges, lambda pairs: sorted((a, b) if a <= b else (b, a) for a, b in pairs))
    prev = None
    for a, b in norm:
        if _outside("edge", a, b, n):
            raise GraphError(f"edge ({a}, {b}) outside " + (f"vertex range 0..{n - 1}" if n else "empty vertex range"))
        if a == b and not multigraph:
            raise GraphError(f"loop at vertex {a} requires multigraph=True")
        if (a, b) == prev and not multigraph:
            raise GraphError(f"parallel edge ({a}, {b}) requires multigraph=True")
        _integral("edge", a, b)
        prev = (a, b)
    return tuple(norm)


def checked_arcs(n, arcs):
    """The sorted arcs Digraph(n, arcs) stores, or its error, arc by arc."""
    if n < 0:
        raise GraphError("vertex_count must be nonnegative")
    norm = _sorted("arc", arcs, lambda pairs: sorted(tuple(arc) for arc in pairs))
    prev = None
    for t, h in norm:
        if _outside("arc", t, h, n):
            raise GraphError(f"arc ({t}, {h}) outside " + (f"vertex range 0..{n - 1}" if n else "empty vertex range"))
        if t == h:
            raise GraphError(f"self-arc at vertex {t} not allowed")
        if (t, h) == prev:
            raise GraphError(f"duplicate arc ({t}, {h}) not allowed")
        _integral("arc", t, h)
        prev = (t, h)
    return tuple(norm)


def _sorted(noun, pairs, sort):
    """sort(pairs); if no sort can take them (an end orders against no int), the not-an-integer error of the
    first pair, in the order given, with an end that is not an int."""
    try:
        return sort(pairs)
    except TypeError:
        for pair in pairs:
            if not all(isinstance(end, int) for end in pair):
                a, b = pair
                raise GraphError(f"{noun} ({a}, {b}) has an end that is not an integer") from None
        raise


def _outside(noun, a, b, n):
    """Whether an end of (a, b) is outside 0..n - 1, tested from a on; the not-an-integer error if the test meets
    an end that no int orders against."""
    try:
        return not (0 <= a < n and 0 <= b < n)
    except TypeError:
        raise GraphError(f"{noun} ({a}, {b}) has an end that is not an integer") from None


def _integral(noun, a, b):
    """Refuse a pair with an end that cannot index a list, as a vertex id must."""
    try:
        index(a), index(b)
    except TypeError:
        raise GraphError(f"{noun} ({a}, {b}) has an end that is not an integer") from None


def counted_degrees(n, pairs, directed=False):
    """(degrees,) of stored edges, a loop counting 2, or (in-degrees, out-degrees) of stored arcs, vertex by vertex."""
    if directed:
        return tuple(tuple(sum(pair[end] == v for pair in pairs) for v in range(n)) for end in (1, 0))
    return (tuple(sum(pair.count(v) for pair in pairs) for v in range(n)),)


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


def branch_candidates(g):
    """lemma34's (attachment, branch root, pendant destination) triples, one branch probe per neighbour."""
    out = []
    pendants = [v for v in range(g.vertex_count) if g.degrees[v] == 1]
    for u in range(g.vertex_count):
        if g.degrees[u] < 3:
            continue
        for root in g._adjacency[u]:
            try:
                members = set(_branch_component(g, u, root))
            except EditError:
                continue
            for v in pendants:
                if v not in members and v != u:
                    out.append((u, root, v))
    return out


def adjacency(g):
    """Each vertex's distinct neighbours, sorted, from one set per vertex."""
    nb = [set() for _ in range(g.vertex_count)]
    for a, b in g.edges:
        nb[a].add(b)
        nb[b].add(a)
    return tuple(tuple(sorted(s)) for s in nb)


def _kept(pairs, p_index, rng):
    """The listed pairs whose tenth-draw, one per pair in order, falls below the p_index tenths."""
    return tuple(compress(pairs, map(_P_TENTHS[p_index].__gt__, rng._belows([10] * len(pairs)))))


def random_graph(n, p_index, seed):
    return Graph(n, _kept([(i, j) for i in range(n) for j in range(i + 1, n)], p_index, _stream(seed)))


def random_digraph(n, p_index, seed):
    return Digraph(n, _kept([(i, j) for i in range(n) for j in range(n) if i != j], p_index, _stream(seed)))


def random_connected(n, p_index, seed):
    rng = _stream(seed)
    later = range(1, n)
    tree = set(zip(rng._belows(later), later))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in tree]
    return Graph(n, tuple(tree) + _kept(pairs, p_index, rng))


def off_by_one_carry(real, calls):
    """graphs._carried (passed as real) plus 1 at the first touched vertex; appends to calls on each use."""

    def carry(degrees, removed, added, ends):
        calls.append(ends)
        out = list(real(degrees, removed, added, ends))
        out[(removed + added)[0][ends[0]]] += 1
        return tuple(out)

    return carry


def report_json(report):
    """AuditReport.to_json by the standard library: the report object through json.dumps(indent=2, sort_keys=True)."""
    obj = {
        "suite": report.suite,
        "seed": report.seed,
        "instance_count": report.instance_count,
        "config": dict(report.config),
        "engine_ok": report.engine_ok,
        "formula_stats": [
            {"formula_id": s.formula_id, "agree": s.agree, "total": s.total, "pct": s.pct}
            for s in report.formula_stats
        ],
        "disagreements": [
            {**vars(row), "engine_ok": row.engine_ok, "predictions": [vars(p) for p in row.predictions]}
            for row in report.disagreements
        ],
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
