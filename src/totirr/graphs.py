"""Graph and digraph values, degree multisets, and edit operations.

Vertices are dense 0-based integers. Graph and Digraph are immutable: every
edit produces a new value, which keeps oracle recomputation and incremental
bookkeeping from ever sharing mutable state. Both are one core, _Value, with
one validating constructor and one degree multiset per mode, counted on first
read by bytes.count passes. A mode's degrees are a plain field, held from birth;
a class's mode table maps each mode to that field and to the ends of a pair
it counts: "undirected" both ends of an edge (degrees), "in" an arc's head
(in_degrees) and "out" its tail (out_degrees). The constructor counts them
in the loop that validates the pairs (_scan): each pair must be above the
one before it, its ends distinct (an edge's low end below its high end; a
multigraph's pairs may repeat and be loops), in range and integers. Pairs
that pass, as in every file the CLI writes, are stored as they are, in one
pass. At the first pair that does not, the pairs are normalised and sorted,
and a second scan counts them or names the first bad one. A value read from
text (a _Flat of the reader's numbers) is scanned without building a pair
and builds its pair tuple on first read; every other value holds its pairs
from birth. apply_edit does not validate: every edit removes at most one
pair and adds at most one, and one rule checks every kind against the parent
(_edit_plan). The child splices the parent's sorted tuple and is built by
_unchecked, from fields known valid, so an edit neither re-checks the pairs
it leaves alone nor sweeps a component. It takes its parent's degrees with
the touched entries patched, as a joint's union (_union) takes its two
sides'; only this module builds a value without its constructor. A mode the
edit does not move (an arc tail's move keeps the in-degrees, a head's the
out-degrees) is shared with the parent: the same degree tuple, and the
parent's multiset of it if the parent built one. Pricing an edit and applying
it each plan it afresh (a few bisects), and neither stores anything on the
value. Membership tests bisect the sorted tuple.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right, insort
from collections import Counter
from enum import Enum
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Literal, Optional, Union


class GraphError(ValueError):
    """Invalid graph construction or query."""


class EditError(GraphError):
    """An edit operation that cannot be applied to the given value."""


DegreeMode = Literal["undirected", "in", "out"]


def _normalize(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


def _range(n: int, name: str = "range") -> str:
    """How a message names the ids 0..n - 1: an empty range as empty, not as 0..-1."""
    return f"{name} 0..{n - 1}" if n else f"empty {name}"


_NOT_AN_INTEGER = "has an end that is not an integer"


def _integers(*vertices: int) -> tuple[int, ...]:
    """vertices, if each is an int (a bool too, as the constructor takes it); else a GraphError for the first."""
    for v in vertices:
        if not isinstance(v, int):
            raise GraphError(f"vertex {v!r} is not an integer")
    return vertices


def _check_vertex(g: "AnyGraph", *vertices: int) -> None:
    for v in _integers(*vertices):
        if not (0 <= v < g.vertex_count):
            raise GraphError(f"vertex {v} outside {_range(g.vertex_count)}")


def _multiplicity(items: tuple[tuple[int, int], ...], item: tuple[int, int]) -> int:
    """Copies of item in the sorted tuple items."""
    return bisect_right(items, item) - bisect_left(items, item)


class _Record:
    """An immutable value: equal to a value of its own class with equal fields, hashed as its field tuple.

    A subclass's fields are the parameters of its own __init__, in order (_FIELDS). That
    __init__ stores them straight into the instance __dict__, where cached_property fields
    land too, and calls __post_init__ last if the class validates. A field may be a
    cached_property (a read value's pairs), so fields are read by attribute. Setting or
    deleting any attribute raises AttributeError.
    """

    def __init_subclass__(cls):
        if "__init__" in vars(cls):
            code = cls.__init__.__code__
            cls._FIELDS = code.co_varnames[1 : code.co_argcount]
            cls._fields_of = attrgetter(*cls._FIELDS)  # one C call per side of ==

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields_of(self) == self._fields_of(other)

    def __hash__(self):
        return hash(tuple([getattr(self, name) for name in self._FIELDS]))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _Flat:
    """The reader's numbers [vertex count, a0, b0, a1, b1, ...] as a value's pairs: iterating zips their ends,
    and the zip reuses its result tuple while a scan unpacks each pair at once, so a scan builds no pair."""

    def __init__(self, numbers: list[int]):
        self.numbers = numbers

    def __iter__(self):
        ends = iter(self.numbers)
        next(ends)
        return zip(ends, ends)


class _Value(_Record):
    """The Graph/Digraph core; a subclass gives _PAIRS, _MODES, _key, messages, _sorted and _scan."""

    def __post_init__(self):
        n = self.vertex_count
        if n < 0:
            raise GraphError("vertex_count must be nonnegative")
        if n > sys.maxsize:  # no list of n degrees can exist
            raise GraphError(f"vertex_count must be at most {sys.maxsize}")
        fields = self.__dict__
        pairs = fields[self._PAIRS]
        if type(pairs) is not _Flat:
            # A list, as a growing tuple rejoins the youngest GC generation at each resize; zip yields tuples.
            pairs = [*pairs] if type(pairs) is zip else [*map(tuple, pairs)]
        try:  # each mode's degrees land in __dict__ once the whole scan is through
            fields.update(self._scan(pairs, n))
        except (ValueError, TypeError):  # a fault, or pairs out of order: the scan of the sorted pairs names the first
            try:
                pairs = self._sorted(pairs)
                fields.update(self._scan(pairs, n))
            except TypeError:  # an end that no int orders against, which neither a sort nor _fault's range test takes:
                # name the first pair with an end that is not an int, as sorted, or as given if no sort took them
                a, b = next(pair for pair in pairs if not all(isinstance(end, int) for end in pair))
                raise GraphError(f"{self._NOUN} ({a}, {b}) {_NOT_AN_INTEGER}") from None
        if type(pairs) is _Flat:
            fields["_flat"] = fields.pop(self._PAIRS)  # _pairs builds them on first read
        else:
            fields[self._PAIRS] = tuple(pairs)
        fields["_multisets"] = {}  # by mode; degree_multiset adds a mode's on its first read

    def _pairs(self) -> tuple[tuple[int, int], ...]:
        """The pairs of a value read from text, built from the reader's numbers on first read. The numbers are
        dropped only once the pairs are stored, so a concurrent first read finds one or the other."""
        fields = self.__dict__
        pairs = fields[self._PAIRS] = tuple([*fields["_flat"]])  # a list first, as in __post_init__
        fields.pop("_flat", None)
        return pairs

    def _fault(self, a, b, prev: tuple, n: int, otherwise: str) -> GraphError:
        """The error for the pair (a, b) at which a scan stopped, prev being the pair before it: an end out of
        range, else a loop, else a repeat where the class forbids them, else the caller's reason."""
        if not (0 <= a < n and 0 <= b < n):
            return GraphError(f"{self._NOUN} ({a}, {b}) outside {_range(n, 'vertex range')}")
        if a == b and not self.multigraph:
            return GraphError(self._LOOP.format(a))
        if (a, b) == prev and not self.multigraph:
            return GraphError(self._PARALLEL.format(a, b))
        return GraphError(f"{self._NOUN} ({a}, {b}) {otherwise}")


class Graph(_Value):
    """Undirected labeled graph; multigraph=True allows loops and parallel edges together.

    Edges are stored as a canonically sorted tuple of (low, high) pairs, so
    equality is plain structural equality of the edge multiset.
    """

    def __init__(self, vertex_count: int, edges: Iterable = (), multigraph: bool = False):
        self.__dict__.update(vertex_count=vertex_count, edges=edges, multigraph=multigraph)
        self.__post_init__()

    _PAIRS, _MODES, _key = "edges", {"undirected": ("degrees", (0, 1))}, staticmethod(_normalize)
    edges = cached_property(_Value._pairs)  # a value read from text only; any other holds its edges from birth
    _NOUN, _CALLED, _BAD_MODE = "edge", "an undirected graph", "mode {!r} is invalid for an undirected graph"
    _LOOP, _PARALLEL = "loop at vertex {} requires multigraph=True", "parallel edge ({}, {}) requires multigraph=True"

    # The edges as sorted (low, high) pairs; unpacking rejects a non-pair.
    _sorted = staticmethod(lambda edges: sorted([e if a <= b else (b, a) for e in edges for a, b in [e]]))

    def _scan(self, edges: Iterable, n: int) -> dict[str, tuple[int, ...]]:
        """{"degrees": degrees} of edges, a loop counting 2, if each is a (low, high) pair in range and above the one
        before it (a multigraph's: low at most high, and at or above); else raises at the first that is not."""
        deg = [0] * n
        multigraph = self.multigraph
        pa, pb = 0, -1  # the edge before the first: below it exactly when its low end is >= 0
        try:
            for a, b in edges:  # a ValueError for a non-pair
                if not (a < b and (pa < a or pa == a and pb < b)):
                    if not (multigraph and a <= b and (pa < a or pa == a and pb <= b)):
                        raise self._fault(a, b, (pa, pb), n, "is below the one before it")
                deg[a] += 1  # an IndexError for an end past n - 1; the order keeps every end >= 0
                deg[b] += 1
                pa, pb = a, b
        except (IndexError, TypeError):  # TypeError: an end that indexes no list
            raise self._fault(a, b, (pa, pb), n, _NOT_AN_INTEGER) from None
        return {"degrees": tuple(deg)}

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        _check_vertex(self, v)
        return self.degrees[v]

    def has_edge(self, a: int, b: int) -> bool:
        return _multiplicity(self.edges, _normalize(a, b)) > 0

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        # Sorted (low, high) edges list each vertex's lower neighbours, its loop, then its higher ones.
        nb: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for a, b in dict.fromkeys(self.edges) if self.multigraph else self.edges:
            nb[a].append(b)
            if a != b:
                nb[b].append(a)
        return tuple(map(tuple, nb))


class Digraph(_Value):
    """Simple directed graph: no duplicate arcs, no self-arcs.

    Antiparallel pairs (a,b) and (b,a) are legal; edits that would collapse
    them into a duplicate are rejected at apply time.
    """

    def __init__(self, vertex_count: int, arcs: Iterable = ()):
        self.__dict__.update(vertex_count=vertex_count, arcs=arcs)
        self.__post_init__()

    multigraph = False  # a class constant, not a field
    _PAIRS, _key = "arcs", staticmethod(lambda tail, head: (tail, head))
    _MODES = {"in": ("in_degrees", (1,)), "out": ("out_degrees", (0,))}
    arcs = cached_property(_Value._pairs)  # a value read from text only; any other holds its arcs from birth
    _NOUN, _CALLED, _BAD_MODE = "arc", "a digraph", "mode {!r} is invalid for a digraph; use 'in' or 'out'"
    _LOOP, _PARALLEL = "self-arc at vertex {} not allowed", "duplicate arc ({}, {}) not allowed"

    _sorted = staticmethod(sorted)  # an arc is stored as given

    def _scan(self, arcs: Iterable, n: int) -> dict[str, tuple[int, ...]]:
        """The in_degrees and out_degrees of arcs, if each is in range, no self-arc and above the one before it;
        else raises at the first that is not."""
        ins = [0] * n
        outs = [0] * n
        pt, ph = 0, -1  # the arc before the first: below it exactly when its tail is >= 0
        try:
            for t, h in arcs:  # a ValueError for a non-pair
                if not (0 <= h != t and (pt < t or pt == t and ph < h)):
                    raise self._fault(t, h, (pt, ph), n, "is below the one before it")
                outs[t] += 1  # an IndexError for an end past n - 1; the order keeps every tail >= 0
                ins[h] += 1
                pt, ph = t, h
        except (IndexError, TypeError):  # TypeError: an end that indexes no list
            raise self._fault(t, h, (pt, ph), n, _NOT_AN_INTEGER) from None
        return {"in_degrees": tuple(ins), "out_degrees": tuple(outs)}

    @property
    def arc_count(self) -> int:
        return len(self.arcs)


AnyGraph = Union[Graph, Digraph]


_PASS_DEGREES = bytes(range(16))  # the degrees from_degrees counts by one bytes.count pass each: 16 ran fastest


class DegreeMultiset(_Record):
    """Sorted (degree, multiplicity) entries; the input of every irr function."""

    def __init__(self, entries: tuple[tuple[int, int], ...]):
        self.__dict__["entries"] = entries
        self.__post_init__()

    def __post_init__(self):
        values, prefix = [], [0]
        for value, mult in self.entries:
            if not (isinstance(value, int) and isinstance(mult, int)):  # a bool is an int, as everywhere else
                raise GraphError(f"entry ({value!r}, {mult!r}) must be a pair of integers")
            if mult <= 0:
                raise GraphError(f"multiplicity for degree {value} must be positive")
            if value < 0:
                raise GraphError(f"degree {value} must be nonnegative")
            if values and value <= values[-1]:
                raise GraphError("entries must be strictly increasing by degree")
            values.append(value)
            prefix.append(prefix[-1] + mult)
        # _prefix[i] = number of vertices with degree among the first i values
        self.__dict__.update(vertex_count=prefix[-1], _values=tuple(values), _prefix=tuple(prefix))

    @classmethod
    def from_degrees(cls, degrees: Iterable[int]) -> "DegreeMultiset":
        """The multiset of degrees: bytes.count passes, then a Counter; 0.6x a Counter's time on 2,000 tree degrees."""
        degrees = tuple(degrees)  # a caller may pass a generator
        try:
            packed = bytes(degrees)
        except (TypeError, ValueError):  # a degree above 255, negative or no integer: Counter's entries and errors
            return cls(tuple(sorted(Counter(degrees).items())))
        entries, left = [], len(packed)
        for d in _PASS_DEGREES:
            if m := packed.count(d):
                entries.append((d, m))
                if not (left := left - m):  # every vertex is counted
                    return cls(tuple(entries))
        return cls(tuple(entries + sorted(Counter(packed.translate(None, _PASS_DEGREES)).items())))

    @classmethod
    def from_entries(cls, entries: Iterable[tuple[int, int]]) -> "DegreeMultiset":
        return cls(tuple(sorted(entries)))

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
    if not isinstance(g, _Value):
        raise GraphError(f"unsupported value {type(g).__name__}")
    try:
        name = g._MODES[mode][0]
    except (KeyError, TypeError):  # TypeError: a mode that cannot be a key
        raise GraphError(g._BAD_MODE.format(mode)) from None
    multisets = g._multisets
    if mode not in multisets:
        multisets[mode] = DegreeMultiset.from_degrees(getattr(g, name))
    return multisets[mode]


class EditKind(Enum):
    ADD_EDGE = "add-edge"
    REMOVE_EDGE = "remove-edge"
    RETARGET_EDGE_END = "retarget-edge-end"
    REVERSE_ARC = "reverse-arc"
    RETARGET_ARC_TAIL = "retarget-arc-tail"
    RETARGET_ARC_HEAD = "retarget-arc-head"


class EditOp(_Record):
    """One edit against a Graph or Digraph.

    Operand layout by kind:
      ADD_EDGE / REMOVE_EDGE    endpoints = the edge {a, b}
      RETARGET_EDGE_END         endpoints = (moved end, kept end), target = new end
      REVERSE_ARC               endpoints = (tail, head)
      RETARGET_ARC_TAIL         endpoints = (tail, head), target = new tail
      RETARGET_ARC_HEAD         endpoints = (tail, head), target = new head
    """

    def __init__(self, kind: EditKind, endpoints: tuple[int, int], target: Optional[int] = None):
        self.__dict__.update(kind=kind, endpoints=endpoints, target=target)

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


# kind -> (the type it applies to, positions in (a, b, target) of the entry it adds, or None)
_EDIT_RULES = {
    EditKind.ADD_EDGE: (Graph, (0, 1)),
    EditKind.REMOVE_EDGE: (Graph, None),
    EditKind.RETARGET_EDGE_END: (Graph, (2, 1)),
    EditKind.REVERSE_ARC: (Digraph, (1, 0)),
    EditKind.RETARGET_ARC_TAIL: (Digraph, (2, 1)),
    EditKind.RETARGET_ARC_HEAD: (Digraph, (0, 2)),
}


def _edit_plan(g: AnyGraph, op: EditOp) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """Check op on a Graph or Digraph g by the rule apply_edit states.

    Returns (entries removed, entries added) as tuples, edges normalized.
    """
    if not isinstance(g, _Value):
        raise EditError(f"unsupported value {type(g).__name__}")
    fits, picks = _EDIT_RULES[op.kind]
    if not isinstance(g, fits):
        raise EditError(f"{op.kind.value} does not apply to {g._CALLED}")
    a, b = op.endpoints
    _check_vertex(g, a, b)
    entries = getattr(g, g._PAIRS)
    removed = () if op.kind is EditKind.ADD_EDGE else (g._key(a, b),)
    if removed and not _multiplicity(entries, removed[0]):
        raise EditError(f"{g._NOUN} ({a}, {b}) not present")
    if picks is None:
        return removed, ()
    if 2 in picks:
        if op.target is None:
            raise EditError(f"{op.kind.value} needs a target")
        _check_vertex(g, op.target)
    ends = (a, b, op.target)
    x, y = ends[picks[0]], ends[picks[1]]
    added = g._key(x, y)
    if removed == (added,):
        raise EditError(f"new end {op.target} equals the end it replaces")
    if x == y and not g.multigraph:
        raise EditError(g._LOOP.format(x))
    if not g.multigraph and _multiplicity(entries, added):
        raise EditError(f"{g._NOUN} ({x}, {y}) already present")
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


def _unmoved(removed: tuple, added: tuple, ends: tuple[int, ...]) -> bool:
    """Whether a plan keeps a mode's every degree: it raises the very ends (positions as in _carried) it lowers."""
    return [e[i] for e in removed for i in ends] == [e[i] for e in added for i in ends]


def _unchecked(cls: type, fields: dict) -> AnyGraph:
    """A cls value whose __dict__ is fields, never re-validated: every field, each mode's degrees too, is valid."""
    value = object.__new__(cls)
    value.__dict__.update(fields)
    return value


def apply_edit(g: AnyGraph, op: EditOp) -> AnyGraph:
    """Return a new value with op applied; the input is never mutated.

    The rule, in order: g's type is supported and op's kind fits it; a and b
    are in range; every kind but ADD_EDGE removes the entry (a, b), which
    must be present; a retarget has a target, in range; the added entry differs
    from the removed one, and unless g is a multigraph it is no loop and is
    not present already (a digraph is never a multigraph). The child is
    g's spliced tuple, never re-validated. A mode the edit does not move
    (_unmoved: an arc tail's move keeps every in-degree, a head's every
    out-degree) is shared with g: the child holds g's degree tuple itself,
    and g's multiset of it if g built one. Every other mode's degrees are
    g's with the touched entries patched (_carried), its multiset counted
    lazily. g is never written and keeps no plan: exact_delta_for_edit
    checks op again (_edit_plan).
    """
    removed, added = _edit_plan(g, op)
    # g's fields are valid, _splice keeps the tuple sorted and the plan checked the added entry.
    fields = {name: getattr(g, name) for name in g._FIELDS}
    fields[g._PAIRS] = _splice(fields[g._PAIRS], removed, added)
    multisets = fields["_multisets"] = {}  # the child's own: a mode it counts later lands here, not in g's
    for mode, (name, ends) in g._MODES.items():
        if _unmoved(removed, added, ends):
            fields[name] = getattr(g, name)
            if mode in g._multisets:
                multisets[mode] = g._multisets[mode]
        else:
            fields[name] = _carried(getattr(g, name), removed, added, ends)
    return _unchecked(type(g), fields)


def _union(g1: Graph, g2: Graph) -> Graph:
    """g1 and g2 side by side, g2's ids offset by g1's order; unchecked, as those edges come sorted. It takes
    both sides' degrees and counts its own multiset."""
    n1 = g1.vertex_count
    edges = g1.edges + tuple([(a + n1, b + n1) for a, b in g2.edges])
    return _unchecked(Graph, dict(vertex_count=n1 + g2.vertex_count, edges=edges, degrees=g1.degrees + g2.degrees,
                                  multigraph=g1.multigraph or g2.multigraph, _multisets={}))


def cut_side(g: Graph, a: int, b: int) -> Optional[list[int]]:
    """Sorted vertices on b's side once one copy of {a, b} is removed.

    None when that copy is not a bridge: a loop, one of several parallel
    copies, or an edge on a cycle. The search runs from b over g's adjacency,
    steps over the removed copy, and stops as soon as it reaches a, so it
    costs at most the size of b's side.
    """
    copies = _multiplicity(g.edges, _normalize(*_integers(a, b)))
    if not copies:
        raise GraphError(f"edge ({a}, {b}) not present")
    if a == b or copies > 1:
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
