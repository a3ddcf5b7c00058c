"""Graph and digraph values, degree multisets, and edit operations.

Vertices are dense 0-based integers. Graph and Digraph are immutable: every
edit produces a new value, which keeps oracle recomputation and incremental
bookkeeping from ever sharing mutable state. The public constructors sort
every edge and validate them in bulk passes, walking edge by edge only to
name the first bad one. apply_edit does not call them: every edit removes at
most one edge or arc and adds at most one, and one rule checks every kind
against the parent. The kind fits the value and its vertices are in range;
the removed entry is present; the added one differs from it, is a loop only
where loops are allowed and is new unless parallel edges are (a digraph
allows neither). The child splices the parent's sorted edge tuple and has
its fields set directly, so an edit neither re-checks the edges it leaves
alone nor sweeps a component. A value remembers the plan of the last edit
checked against it, so pricing an edit and then applying it plans once; a
child starts with no plan. Membership tests bisect that sorted tuple, so
a value carries no hash index of its edges. A loop contributes 2 to the degree
of its vertex. Degree multisets are the sole input to every irregularity
computation, so they get a dedicated value type with counting helpers instead
of being passed around as raw lists; each value caches one multiset per
degree mode, counted from its degrees. A value counts those from its own
edges, unless it is an edit's child whose parent had counted them: then it
takes the parent's with the touched entries patched. Lazy fields are cached
in the instance __dict__ without a lock. A digraph counts its in- and
out-degrees together, in one pass over its arcs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import Counter
from dataclasses import dataclass
from enum import Enum
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


class _cached:
    """functools.cached_property without the lock Python 3.11 takes on a miss: the first read fills __dict__."""

    def __init__(self, compute):
        self.compute, self.name, self.__doc__ = compute, compute.__name__, compute.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


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

    @_cached
    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.vertex_count
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1  # a == b adds 2: loops count twice
        return tuple(deg)

    def degree(self, v: int) -> int:
        _check_vertex(self, v)
        return self.degrees[v]

    @_cached
    def _degree_multiset(self) -> "DegreeMultiset":
        return DegreeMultiset.from_degrees(self.degrees)

    def has_edge(self, a: int, b: int) -> bool:
        return _multiplicity(self.edges, _normalize(a, b)) > 0

    @_cached
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        # Sorted (low, high) edges list each vertex's lower neighbours, its loop, then its higher ones.
        nb: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for a, b in dict.fromkeys(self.edges) if self.allow_parallel else self.edges:
            nb[a].append(b)
            if a != b:
                nb[b].append(a)
        return tuple(map(tuple, nb))

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

    @_cached
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

    @_cached
    def _in_multiset(self) -> "DegreeMultiset":
        return DegreeMultiset.from_degrees(self.in_degrees)

    @_cached
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

    @_cached
    def vertex_count(self) -> int:
        return sum(m for _, m in self.entries)

    @_cached
    def _values(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.entries)

    @_cached
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


def _hangs_a_tree(size: int, degree_sum: int) -> bool:
    """Whether a connected side of a cut edge is a tree joined to the rest by that edge alone.

    Its degrees count each inner edge (a loop too) twice and each leaving edge
    once. It has at least size - 1 inner edges and one leaving edge, so the sum
    is 2(size - 1) + 1 exactly when those are all: no cycle, loop or second way out.
    """
    return degree_sum - 1 == 2 * (size - 1)


def _branch_component(g: Graph, attachment: int, root: int) -> list[int]:
    """Vertices of the branch at `root` after cutting one copy of {attachment, root}.

    Raises EditError unless the cut edge is a bridge and the branch side is a
    tree (_hangs_a_tree), so loops and parallel edges on the side fail too.
    """
    side = cut_side(g, attachment, root)
    if side is None:
        raise EditError(f"edge ({attachment}, {root}) is not a bridge; branch is not hanging")
    if not _hangs_a_tree(len(side), sum(g.degrees[v] for v in side)):
        raise EditError(f"branch at {root} is not a tree")
    return side


def _splice(items: tuple, removed: tuple, added: tuple) -> tuple:
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


# kind -> (applies to a digraph?, positions in (a, b, target) of the entry it adds, or None)
_EDIT_RULES = {
    EditKind.ADD_EDGE: (False, (0, 1)),
    EditKind.REMOVE_EDGE: (False, None),
    EditKind.RETARGET_EDGE_END: (False, (2, 1)),
    EditKind.REVERSE_ARC: (True, (1, 0)),
    EditKind.RETARGET_ARC_TAIL: (True, (2, 1)),
    EditKind.RETARGET_ARC_HEAD: (True, (0, 2)),
}


def _remembered_plan(g: AnyGraph, op: EditOp) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """_edit_plan(g, op), kept on g for the last op g accepted, so pricing op and then applying it plans once.

    The plan is a pair of tuples, so no caller can change it; apply_edit's child starts without one.
    """
    if not isinstance(g, (Graph, Digraph)):
        raise EditError(f"unsupported value {type(g).__name__}")
    last = g.__dict__.get("_last_plan")
    if last is None or last[0] != op:
        last = g.__dict__["_last_plan"] = op, _edit_plan(g, op)
    return last[1]


def _edit_plan(g: AnyGraph, op: EditOp) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """Check op on a Graph or Digraph g by the rule apply_edit states.

    Returns (entries removed, entries added) as tuples, edges normalized.
    """
    directed, picks = _EDIT_RULES[op.kind]
    if isinstance(g, Digraph) != directed:
        raise EditError(f"{op.kind.value} does not apply to {'an undirected graph' if directed else 'a digraph'}")
    a, b = op.endpoints
    _check_vertex(g, a)
    _check_vertex(g, b)
    entries, noun = (g.arcs, "arc") if directed else (g.edges, "edge")
    removed = () if op.kind is EditKind.ADD_EDGE else ((a, b) if directed else _normalize(a, b),)
    if removed and not _multiplicity(entries, removed[0]):
        raise EditError(f"{noun} ({a}, {b}) not present")
    if picks is None:
        return removed, ()
    if 2 in picks:
        if op.target is None:
            raise EditError(f"{op.kind.value} needs a target")
        _check_vertex(g, op.target)
    ends = (a, b, op.target)
    x, y = ends[picks[0]], ends[picks[1]]
    added = (x, y) if directed else _normalize(x, y)
    if removed == (added,):
        raise EditError(f"new end {op.target} equals the end it replaces")
    if x == y and (directed or not g.allow_loops):
        raise EditError(f"self-arc at vertex {x} not allowed" if directed else f"loop at vertex {x} requires allow_loops")
    if (directed or not g.allow_parallel) and _multiplicity(entries, added):
        raise EditError(f"{noun} ({x}, {y}) already present")
    return removed, (added,)


def _carried(degrees: tuple[int, ...], removed: tuple, added: tuple, ends: tuple[int, ...]) -> tuple[int, ...]:
    """degrees less one at each end of a removed entry and plus one at each end of an added one.

    ends are the positions in an entry of the ends these degrees count: a loop moves its vertex by 2.
    """
    out = list(degrees)
    for step, entries in ((-1, removed), (1, added)):
        for entry in entries:
            for i in ends:
                out[entry[i]] += step
    return tuple(out)


def apply_edit(g: AnyGraph, op: EditOp) -> AnyGraph:
    """Return a new value with op applied; the input is never mutated.

    The rule, in order: g's type is supported and op's kind fits it; a and b
    are in range; every kind but ADD_EDGE removes the entry (a, b), which
    must be present; a retarget has a target, in range; the added entry differs
    from the removed one, is a loop only where g allows loops and is new
    unless g allows parallel edges (a digraph allows neither). The child is
    g's spliced tuple, never re-validated. If g has counted its degrees, the
    child takes them with the touched entries patched (_carried); otherwise it
    counts its own lazily. Either way it counts its degree multisets lazily.
    """
    removed, added = _remembered_plan(g, op)
    if isinstance(g, Graph):
        carry = {"degrees": _carried(g.degrees, removed, added, (0, 1))} if "degrees" in g.__dict__ else {}
        return _from_valid_fields(
            Graph,
            vertex_count=g.vertex_count,
            edges=_splice(g.edges, removed, added),
            allow_parallel=g.allow_parallel,
            allow_loops=g.allow_loops,
            **carry,
        )
    carry = {}
    if "_in_out_degrees" in g.__dict__:
        ins, outs = g._in_out_degrees
        carry["_in_out_degrees"] = _carried(ins, removed, added, (1,)), _carried(outs, removed, added, (0,))
    return _from_valid_fields(Digraph, vertex_count=g.vertex_count, arcs=_splice(g.arcs, removed, added), **carry)


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
