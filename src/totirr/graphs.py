"""Graph and digraph values, degree multisets, and edit operations.

Vertices are dense 0-based integers. Graph and Digraph are immutable: every
edit produces a new value, which keeps oracle recomputation and incremental
bookkeeping from ever sharing mutable state. The public constructors sort
every edge and validate them in bulk passes, walking edge by edge only to
name the first bad one. apply_edit does not call them: it checks the edit
against the parent by local facts only (vertex range, presence, loop,
parallel edge or self-arc), splices the parent's sorted edge tuple and sets
the child's fields directly, so an edit neither re-checks the edges it leaves
alone nor sweeps a component. Membership tests bisect that sorted tuple, so a
value carries no hash index of its edges. A loop contributes 2 to the degree
of its vertex. Degree multisets are the sole input to every irregularity
computation, so they get a dedicated value type with counting helpers instead
of being passed around as raw lists; each value caches one multiset per
degree mode, always counted from its own edges. A digraph counts its in- and
out-degrees together, in one pass over its arcs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import starmap
from operator import eq, itemgetter
from typing import Iterable, Literal, Optional, Union


class GraphError(ValueError):
    """Invalid graph construction or query."""


class EditError(GraphError):
    """An edit operation that cannot be applied to the given value."""


DegreeMode = Literal["undirected", "in", "out"]


def _normalize(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


def _check_vertex(g: "AnyGraph", v: int) -> None:
    if not (0 <= v < g.vertex_count):
        raise GraphError(f"vertex {v} outside range 0..{g.vertex_count - 1}")


def _multiplicity(items: tuple[tuple[int, int], ...], item: tuple[int, int]) -> int:
    """Copies of item in the sorted tuple items."""
    return bisect_right(items, item) - bisect_left(items, item)


@dataclass(frozen=True)
class Graph:
    """Undirected labeled graph; multigraph features are opt-in via flags.

    Edges are stored as a canonically sorted tuple of (low, high) pairs, so
    equality is plain structural equality of the edge multiset.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...] = ()
    allow_parallel: bool = False
    allow_loops: bool = False

    def __post_init__(self):
        if self.vertex_count < 0:
            raise GraphError("vertex_count must be nonnegative")
        # Ordered pairs are kept as they are; unpacking rejects a non-pair.
        edges = sorted([e if a <= b else (b, a) for e in map(tuple, self.edges) for a, b in [e]])
        object.__setattr__(self, "edges", tuple(edges))
        # The loop runs only when the bulk passes find a bad edge, to name the first.
        if edges and (
            not 0 <= edges[0][0] <= max(map(itemgetter(1), edges)) < self.vertex_count
            or not self.allow_loops and any(starmap(eq, edges))
            or not self.allow_parallel and any(map(eq, edges, edges[1:]))
        ):
            prev = None
            for a, b in edges:
                if not (0 <= a < self.vertex_count and 0 <= b < self.vertex_count):
                    raise GraphError(f"edge ({a}, {b}) outside vertex range 0..{self.vertex_count - 1}")
                if a == b and not self.allow_loops:
                    raise GraphError(f"loop at vertex {a} requires allow_loops")
                if (a, b) == prev and not self.allow_parallel:
                    raise GraphError(f"parallel edge ({a}, {b}) requires allow_parallel")
                prev = (a, b)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.vertex_count
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1  # a == b adds 2: loops count twice
        return tuple(deg)

    def degree(self, v: int) -> int:
        _check_vertex(self, v)
        return self.degrees[v]

    @cached_property
    def _degree_multiset(self) -> "DegreeMultiset":
        return DegreeMultiset.from_degrees(self.degrees)

    def has_edge(self, a: int, b: int) -> bool:
        return _multiplicity(self.edges, _normalize(a, b)) > 0

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        nb: list[set[int]] = [set() for _ in range(self.vertex_count)]
        for a, b in self.edges:
            nb[a].add(b)
            nb[b].add(a)
        return tuple(tuple(sorted(s)) for s in nb)

    def neighbors(self, v: int) -> tuple[int, ...]:
        _check_vertex(self, v)
        return self._adjacency[v]


@dataclass(frozen=True)
class Digraph:
    """Simple directed graph: no duplicate arcs, no self-arcs.

    Antiparallel pairs (a,b) and (b,a) are legal; edits that would collapse
    them into a duplicate are rejected at apply time.
    """

    vertex_count: int
    arcs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.vertex_count < 0:
            raise GraphError("vertex_count must be nonnegative")
        arcs = sorted(map(tuple, self.arcs))
        object.__setattr__(self, "arcs", tuple(arcs))
        # As in Graph; the loop also fails to unpack a non-pair unless an earlier arc is bad.
        if arcs and (
            {*map(len, arcs)} != {2}
            or not 0 <= arcs[0][0] <= arcs[-1][0] < self.vertex_count
            or not 0 <= min(heads := list(map(itemgetter(1), arcs))) <= max(heads) < self.vertex_count
            or any(starmap(eq, arcs))
            or any(map(eq, arcs, arcs[1:]))
        ):
            prev = None
            for t, h in arcs:
                if not (0 <= t < self.vertex_count and 0 <= h < self.vertex_count):
                    raise GraphError(f"arc ({t}, {h}) outside vertex range 0..{self.vertex_count - 1}")
                if t == h:
                    raise GraphError(f"self-arc at vertex {t} not allowed")
                if (t, h) == prev:
                    raise GraphError(f"duplicate arc ({t}, {h}) not allowed")
                prev = (t, h)

    @property
    def arc_count(self) -> int:
        return len(self.arcs)

    @cached_property
    def _in_out_degrees(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        ins = [0] * self.vertex_count
        outs = [0] * self.vertex_count
        for t, h in self.arcs:
            outs[t] += 1
            ins[h] += 1
        return tuple(ins), tuple(outs)

    @property
    def in_degrees(self) -> tuple[int, ...]:
        return self._in_out_degrees[0]

    @property
    def out_degrees(self) -> tuple[int, ...]:
        return self._in_out_degrees[1]

    @cached_property
    def _in_multiset(self) -> "DegreeMultiset":
        return DegreeMultiset.from_degrees(self.in_degrees)

    @cached_property
    def _out_multiset(self) -> "DegreeMultiset":
        return DegreeMultiset.from_degrees(self.out_degrees)

    def has_arc(self, tail: int, head: int) -> bool:
        return _multiplicity(self.arcs, (tail, head)) > 0


AnyGraph = Union[Graph, Digraph]


@dataclass(frozen=True)
class DegreeMultiset:
    """Sorted (degree, multiplicity) entries; the input of every irr function."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prev = None
        for value, mult in self.entries:
            if mult <= 0:
                raise GraphError(f"multiplicity for degree {value} must be positive")
            if value < 0:
                raise GraphError(f"degree {value} must be nonnegative")
            if prev is not None and value <= prev:
                raise GraphError("entries must be strictly increasing by degree")
            prev = value

    @classmethod
    def from_degrees(cls, degrees: Iterable[int]) -> "DegreeMultiset":
        counts = Counter(degrees)
        return cls(tuple(sorted(counts.items())))

    @classmethod
    def from_entries(cls, entries: Iterable[tuple[int, int]]) -> "DegreeMultiset":
        return cls(tuple(sorted(entries)))

    @cached_property
    def vertex_count(self) -> int:
        return sum(m for _, m in self.entries)

    @cached_property
    def _values(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.entries)

    @cached_property
    def _prefix(self) -> tuple[int, ...]:
        # _prefix[i] = number of vertices with degree among the first i values
        acc = [0]
        for _, m in self.entries:
            acc.append(acc[-1] + m)
        return tuple(acc)

    def count_le(self, x: int) -> int:
        return self._prefix[bisect_right(self._values, x)]

    def count_lt(self, x: int) -> int:
        return self._prefix[bisect_left(self._values, x)]

    def count_eq(self, x: int) -> int:
        return self.count_le(x) - self.count_lt(x)

    def count_gt(self, x: int) -> int:
        return self.vertex_count - self.count_le(x)

    def is_regular(self) -> bool:
        return len(self.entries) <= 1


def degree_multiset(g: AnyGraph, mode: DegreeMode = "undirected") -> DegreeMultiset:
    """Degree multiset of a graph (mode "undirected") or digraph ("in"/"out")."""
    if isinstance(g, Graph):
        if mode != "undirected":
            raise GraphError(f"mode {mode!r} is invalid for an undirected graph")
        return g._degree_multiset
    if isinstance(g, Digraph):
        if mode == "in":
            return g._in_multiset
        if mode == "out":
            return g._out_multiset
        raise GraphError(f"mode {mode!r} is invalid for a digraph; use 'in' or 'out'")
    raise GraphError(f"unsupported value {type(g).__name__}")


class EditKind(Enum):
    ADD_EDGE = "add-edge"
    REMOVE_EDGE = "remove-edge"
    RETARGET_EDGE_END = "retarget-edge-end"
    REVERSE_ARC = "reverse-arc"
    RETARGET_ARC_TAIL = "retarget-arc-tail"
    RETARGET_ARC_HEAD = "retarget-arc-head"


_GRAPH_KINDS = {EditKind.ADD_EDGE, EditKind.REMOVE_EDGE, EditKind.RETARGET_EDGE_END}


@dataclass(frozen=True)
class EditOp:
    """One edit against a Graph or Digraph.

    Operand layout by kind:
      ADD_EDGE / REMOVE_EDGE    endpoints = the edge {a, b}
      RETARGET_EDGE_END         endpoints = (moved end, kept end), target = new end
      REVERSE_ARC               endpoints = (tail, head)
      RETARGET_ARC_TAIL         endpoints = (tail, head), target = new tail
      RETARGET_ARC_HEAD         endpoints = (tail, head), target = new head
    """

    kind: EditKind
    endpoints: tuple[int, int]
    target: Optional[int] = None

    @classmethod
    def add_edge(cls, a: int, b: int) -> "EditOp":
        return cls(EditKind.ADD_EDGE, (a, b))

    @classmethod
    def remove_edge(cls, a: int, b: int) -> "EditOp":
        return cls(EditKind.REMOVE_EDGE, (a, b))

    @classmethod
    def retarget_edge(cls, moved: int, kept: int, target: int) -> "EditOp":
        return cls(EditKind.RETARGET_EDGE_END, (moved, kept), target)

    @classmethod
    def reverse_arc(cls, tail: int, head: int) -> "EditOp":
        return cls(EditKind.REVERSE_ARC, (tail, head))

    @classmethod
    def retarget_tail(cls, tail: int, head: int, new_tail: int) -> "EditOp":
        return cls(EditKind.RETARGET_ARC_TAIL, (tail, head), new_tail)

    @classmethod
    def retarget_head(cls, tail: int, head: int, new_head: int) -> "EditOp":
        return cls(EditKind.RETARGET_ARC_HEAD, (tail, head), new_head)

    def describe(self) -> str:
        """Compact single-line descriptor; never contains a comma."""
        a, b = self.endpoints
        if self.target is None:
            return f"{self.kind.value}({a} {b})"
        return f"{self.kind.value}({a} {b} -> {self.target})"


def _branch_component(g: Graph, attachment: int, root: int) -> list[int]:
    """Vertices of the branch at `root` after cutting one copy of {attachment, root}.

    Raises EditError unless the cut edge is a bridge and the branch side is a
    tree. Loops and parallel edges on the branch side both fail the tree test:
    the side's degrees count the cut edge once and every internal edge twice.
    """
    side = cut_side(g, attachment, root)
    if side is None:
        raise EditError(f"edge ({attachment}, {root}) is not a bridge; branch is not hanging")
    if sum(g.degrees[v] for v in side) - 1 != 2 * (len(side) - 1):
        raise EditError(f"branch at {root} is not a tree")
    return side


def _graph_edit_plan(g: Graph, op: EditOp) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Validate op against g; return (edges removed, edges added), normalized."""
    if op.kind not in _GRAPH_KINDS:
        raise EditError(f"{op.kind.value} does not apply to an undirected graph")
    a, b = op.endpoints
    _check_vertex(g, a)
    _check_vertex(g, b)

    if op.kind is EditKind.ADD_EDGE:
        if a == b and not g.allow_loops:
            raise EditError(f"adding loop at {a} requires allow_loops")
        if not g.allow_parallel and g.has_edge(a, b):
            raise EditError(f"edge ({a}, {b}) already present")
        return [], [_normalize(a, b)]

    if op.kind is EditKind.REMOVE_EDGE:
        if not g.has_edge(a, b):
            raise EditError(f"edge ({a}, {b}) not present")
        return [_normalize(a, b)], []

    # RETARGET_EDGE_END
    moved, kept, target = a, b, op.target
    _check_vertex(g, target)
    if not g.has_edge(moved, kept):
        raise EditError(f"edge ({moved}, {kept}) not present")
    if target == moved:
        raise EditError("new endpoint equals the end being moved")
    if target == kept and not g.allow_loops:
        raise EditError(f"retarget would create loop at {kept}")
    if not g.allow_parallel and g.has_edge(target, kept):
        raise EditError(f"edge ({target}, {kept}) already present")
    return [_normalize(moved, kept)], [_normalize(target, kept)]


def _digraph_edit_plan(d: Digraph, op: EditOp) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Validate op against d; return (arcs removed, arcs added)."""
    if op.kind in _GRAPH_KINDS:
        raise EditError(f"{op.kind.value} does not apply to a digraph")
    tail, head = op.endpoints
    _check_vertex(d, tail)
    _check_vertex(d, head)
    if not d.has_arc(tail, head):
        raise EditError(f"arc ({tail}, {head}) not present")

    if op.kind is EditKind.REVERSE_ARC:
        if d.has_arc(head, tail):
            raise EditError(f"antiparallel arc ({head}, {tail}) already present")
        return [(tail, head)], [(head, tail)]

    target = op.target
    _check_vertex(d, target)
    if op.kind is EditKind.RETARGET_ARC_TAIL:
        if target == tail:
            raise EditError("new tail equals the current tail")
        if target == head:
            raise EditError(f"retarget would create self-arc at {head}")
        if d.has_arc(target, head):
            raise EditError(f"arc ({target}, {head}) already present")
        return [(tail, head)], [(target, head)]

    # RETARGET_ARC_HEAD
    if target == head:
        raise EditError("new head equals the current head")
    if target == tail:
        raise EditError(f"retarget would create self-arc at {tail}")
    if d.has_arc(tail, target):
        raise EditError(f"arc ({tail}, {target}) already present")
    return [(tail, head)], [(tail, target)]


def _splice(items: tuple, removed: list, added: list) -> tuple:
    """The sorted tuple items less one copy of each removed entry, plus each added one."""
    out = list(items)
    for x in removed:
        del out[bisect_left(out, x)]
    for x in added:
        insort(out, x)
    return tuple(out)


def _from_valid_fields(cls: type, **fields) -> AnyGraph:
    """A cls value holding fields, built without running cls's validation.

    Only for fields known to pass it: apply_edit's child keeps the validated
    parent's flags and vertex count, _splice keeps its tuple sorted and
    normalized, and the edit plan has checked every added entry.
    """
    value = object.__new__(cls)
    value.__dict__.update(fields)
    return value


def _edit_plan(g: AnyGraph, op: EditOp) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Validate op against g; return (entries removed, entries added) of g's edges or arcs."""
    if isinstance(g, Graph):
        return _graph_edit_plan(g, op)
    if isinstance(g, Digraph):
        return _digraph_edit_plan(g, op)
    raise EditError(f"unsupported value {type(g).__name__}")


def apply_edit(g: AnyGraph, op: EditOp) -> AnyGraph:
    """Return a new value with op applied; the input is never mutated.

    The edit plan checks op against g, and the child is built from g's
    spliced tuple without the constructor's pass over every edge. The
    child's degrees and degree multisets are counted lazily from its own
    edges, never carried over from g.
    """
    removed, added = _edit_plan(g, op)
    if isinstance(g, Graph):
        return _from_valid_fields(
            Graph,
            vertex_count=g.vertex_count,
            edges=_splice(g.edges, removed, added),
            allow_parallel=g.allow_parallel,
            allow_loops=g.allow_loops,
        )
    return _from_valid_fields(Digraph, vertex_count=g.vertex_count, arcs=_splice(g.arcs, removed, added))


def cut_side(g: Graph, a: int, b: int) -> Optional[list[int]]:
    """Sorted vertices on b's side once one copy of {a, b} is removed.

    None when that copy is not a bridge: a loop, one of several parallel
    copies, or an edge on a cycle. The search runs from b over g's adjacency,
    steps over the removed copy, and stops as soon as it reaches a, so it
    costs at most the size of b's side.
    """
    if not g.has_edge(a, b):
        raise GraphError(f"edge ({a}, {b}) not present")
    if a == b or _multiplicity(g.edges, _normalize(a, b)) > 1:
        return None
    adjacency = g._adjacency
    seen = {b}
    stack = [b]
    while stack:
        v = stack.pop()
        for w in adjacency[v]:
            if w in seen or (v == b and w == a):
                continue
            if w == a:
                return None
            seen.add(w)
            stack.append(w)
    return sorted(seen)
