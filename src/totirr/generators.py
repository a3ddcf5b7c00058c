"""Deterministic graph families and seeded random instance supply.

Random constructors accept either a raw integer seed or a SplitMix64 stream;
identical seeds give identical graphs on every platform. Edge probabilities
come from the fixed table (0.2, 0.5, 0.8), selected by index and realized as
exact tenth-draws so no float enters the sampling path. Each constructor
draws for all its candidate pairs (or tree vertices) in one packed-lane
call, the same values as one `below` per candidate; an edge draw comes back
as a 0/1 flag that picks its pair out of an itertools pair iterator. The
families build no tuple of pairs first: the value's constructor collects them.
"""

from __future__ import annotations

from itertools import combinations, compress, filterfalse, permutations
from typing import Iterator, Sequence, Union

from .graphs import Digraph, Graph, GraphError
from .rng import SplitMix64

P_TABLE = (0.2, 0.5, 0.8)
_P_TENTHS = (2, 5, 8)

SeedLike = Union[int, SplitMix64]


def _stream(seed: SeedLike) -> SplitMix64:
    return seed if isinstance(seed, SplitMix64) else SplitMix64(seed)


def path(n: int) -> Graph:
    if n < 1:
        raise GraphError("path needs at least 1 vertex")
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return Graph(n, ((i, (i + 1) % n) for i in range(n)))


def complete(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete graph needs at least 1 vertex")
    return Graph(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def star(leaves: int) -> Graph:
    """Center 0 joined to `leaves` pendant vertices."""
    if leaves < 0:
        raise GraphError("leaf count must be nonnegative")
    return Graph(leaves + 1, ((0, i) for i in range(1, leaves + 1)))


def complete_bipartite(m: int, n: int) -> Graph:
    """Left block 0..m-1, right block m..m+n-1, all cross edges."""
    if m < 1 or n < 1:
        raise GraphError("both sides need at least 1 vertex")
    return Graph(m + n, ((i, m + j) for i in range(m) for j in range(n)))


def empty_graph(n: int) -> Graph:
    if n < 0:
        raise GraphError("vertex count must be nonnegative")
    return Graph(n, ())


def matching(pairs: int) -> Graph:
    """`pairs` disjoint edges on 2 * pairs vertices; 1-regular."""
    if pairs < 1:
        raise GraphError("matching needs at least 1 pair")
    return Graph(2 * pairs, ((2 * i, 2 * i + 1) for i in range(pairs)))


def orient_by_labeling(g: Graph, labels: Sequence[int]) -> Digraph:
    """Orient every edge from the lower label to the higher.

    labels must be a permutation of 0..n-1, so the result is acyclic. The
    identity permutation on complete(n) yields the transitive orientation
    with in-degree sequence 0, 1, ..., n-1.
    """
    if g.multigraph:
        raise GraphError("orientation requires a simple graph")
    if sorted(labels) != list(range(g.vertex_count)):
        raise GraphError("labels must be a permutation of the vertex ids")
    return Digraph(g.vertex_count, ((a, b) if labels[a] < labels[b] else (b, a) for a, b in g.edges))


def orient_left_right(m: int, n: int) -> Digraph:
    """Complete bipartite digraph with every arc pointing left to right."""
    if m < 1 or n < 1:
        raise GraphError("both sides need at least 1 vertex")
    return Digraph(m + n, ((i, m + j) for i in range(m) for j in range(n)))


def random_graph(n: int, p_index: int, seed: SeedLike) -> Graph:
    """Independent edge draws over all pairs with probability P_TABLE[p_index]."""
    if n < 1:
        raise GraphError("random graph needs at least 1 vertex")
    tenths = _edge_tenths(p_index)
    return Graph(n, _kept(combinations(range(n), 2), n * (n - 1) // 2, tenths, _stream(seed)))


def random_digraph(n: int, p_index: int, seed: SeedLike) -> Digraph:
    """Independent draws over all ordered pairs; antiparallel arcs possible."""
    if n < 1:
        raise GraphError("random digraph needs at least 1 vertex")
    tenths = _edge_tenths(p_index)
    return Digraph(n, _kept(permutations(range(n), 2), n * (n - 1), tenths, _stream(seed)))


def random_tree(n: int, seed: SeedLike) -> Graph:
    """Random attachment tree: vertex v joins a uniform earlier vertex."""
    if n < 1:
        raise GraphError("tree needs at least 1 vertex")
    return Graph(n, _tree_edges(n, _stream(seed)))


def random_connected(n: int, p_index: int, seed: SeedLike) -> Graph:
    """Random attachment tree plus independent extra edges; no rejection."""
    if n < 1:
        raise GraphError("connected graph needs at least 1 vertex")
    return Graph(n, _connected_edges(n, p_index, _stream(seed)))


def random_connected_with_cut_edge(n: int, seed: SeedLike) -> tuple[Graph, tuple[int, int]]:
    """Two connected halves joined by one planted bridge.

    Returns (graph, (u1, v1)) where u1 lies in the first half and v1 in the
    second; the planted edge is a cut edge by construction. The first half
    holds at least 2 vertices, so it has a vertex besides u1 for an end of
    the bridge to move onto.
    """
    if n < 3:
        raise GraphError("need at least 3 vertices")
    rng = _stream(seed)
    n1 = 2 + rng.below(n - 2)
    n2 = n - n1
    p1 = rng.below(3)
    p2 = rng.below(3)
    left = _connected_edges(n1, p1, rng)
    right = [(a + n1, b + n1) for a, b in _connected_edges(n2, p2, rng)]
    u1 = rng.below(n1)
    v1 = n1 + rng.below(n2)
    return Graph(n, [*left, *right, (u1, v1)]), (u1, v1)


def _tree_edges(n: int, rng: SplitMix64) -> Iterator[tuple[int, int]]:
    """random_tree's edges, unchecked: the caller builds the one validated value."""
    later = range(1, n)
    return zip(rng._belows(later), later)


def _connected_edges(n: int, p_index: int, rng: SplitMix64) -> list[tuple[int, int]]:
    """random_connected's edges, unchecked, as _tree_edges."""
    tenths = _edge_tenths(p_index)
    later = range(1, n)
    tree = set(zip(rng._belows(later), later))
    pairs = filterfalse(tree.__contains__, combinations(range(n), 2))
    return [*tree, *_kept(pairs, n * (n - 1) // 2 - (n - 1), tenths, rng)]


def _kept(pairs: Iterator[tuple[int, int]], count: int, tenths: int, rng: SplitMix64) -> Iterator[tuple[int, int]]:
    """The count pairs whose tenth-draw, one per pair in order, falls below tenths; the draws run at once."""
    return compress(pairs, rng._tenth_flags(count, tenths))


def _edge_tenths(p_index: int) -> int:
    if not 0 <= p_index < len(_P_TENTHS):
        raise GraphError(f"p_index {p_index} outside 0..{len(_P_TENTHS) - 1}")
    return _P_TENTHS[p_index]
