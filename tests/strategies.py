"""Shared hypothesis strategies for graph-shaped test data, and the references
the package is checked against: the component sweep behind the cut-edge
search, and the vertex-pair loop behind the irr_naive oracle."""

from hypothesis import strategies as st

from totirr import DegreeMultiset, Digraph, Graph


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
