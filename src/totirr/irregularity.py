"""Total irregularity and the exact incremental delta engine.

The total irregularity of a degree multiset is the sum of |d(u) - d(v)| over
unordered vertex pairs. It is 0 exactly when all degrees coincide, and it
depends on nothing but the multiset, which is why every function here takes
a DegreeMultiset rather than a graph.

Two independent routes compute the same number:

  irr_naive   the definition, a literal pairwise double loop, O(n^2);
              slow on purpose, kept as the audit oracle
  irr_fast    prefix sums over the sorted entries, O(distinct);
              with degrees listed ascending d_1 <= ... <= d_n the pair sum
              collapses to sum_j (2j - n - 1) * d_j, evaluated per entry group

Values are exact Python ints. The magnitude is bounded by max_degree * n^2 / 2,
so anything up to n = 2**20 also fits 64-bit signed words for callers that
serialize the results.

Deltas: delta_for_degree_change prices a single +-1 degree step against the
rest of the multiset in O(log distinct); exact_delta_for_edit composes those
steps over the one or two vertices an edit touches, updating the multiset
between steps so simultaneous changes are priced exactly, not approximated.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence, Tuple, Union

from .graphs import (
    AnyGraph,
    DegreeMultiset,
    Digraph,
    EditOp,
    Graph,
    GraphError,
    degree_multiset,
    edit_degree_changes,
)


class IrrPair(NamedTuple):
    """In- and out-irregularity of a digraph."""

    irr_in: int
    irr_out: int


def irr_naive(dm: DegreeMultiset) -> int:
    """Definitional total irregularity: double loop over expanded degrees."""
    degs = dm.expand()
    total = 0
    for i in range(1, len(degs)):
        di = degs[i]
        for j in range(i):
            dj = degs[j]
            total += di - dj if di >= dj else dj - di
    return total


def irr_fast(dm: DegreeMultiset) -> int:
    """Prefix-sum total irregularity; equals irr_naive on every input."""
    n = dm.vertex_count
    total = 0
    seen = 0
    for value, mult in dm.entries:
        # vertices of this degree occupy sorted positions seen+1 .. seen+mult
        total += value * mult * (2 * seen + mult - n)
        seen += mult
    return total


def irr_graph(g: Graph) -> int:
    """Convenience: irr_fast of the graph's degree multiset."""
    return irr_fast(degree_multiset(g))


def irr_digraph(d: Digraph) -> IrrPair:
    """(in, out) total irregularity over the respective degree multisets."""
    return IrrPair(
        irr_fast(degree_multiset(d, "in")),
        irr_fast(degree_multiset(d, "out")),
    )


def delta_for_degree_change(dm: DegreeMultiset, old_degree: int, direction: int) -> int:
    """Exact irr change when one vertex of old_degree steps by direction (+1/-1).

    For +1 the pair terms against vertices at or below the old degree grow by
    one each and the terms against strictly higher vertices shrink by one;
    -1 is symmetric. Only the other vertices count, hence the -1 corrections.
    """
    if direction not in (1, -1):
        raise GraphError(f"direction must be +1 or -1, got {direction}")
    if dm.count_eq(old_degree) == 0:
        raise GraphError(f"no vertex of degree {old_degree} in the multiset")
    if direction == 1:
        return (dm.count_le(old_degree) - 1) - dm.count_ge(old_degree + 1)
    if old_degree == 0:
        raise GraphError("cannot decrement a vertex of degree 0")
    return (dm.count_ge(old_degree) - 1) - dm.count_le(old_degree - 1)


def _walk_changes(dm: DegreeMultiset, degrees: Sequence[int], changes: Mapping[int, int]) -> int:
    """Apply per-vertex net changes one unit step at a time; exact total delta."""
    total = 0
    cur = dm
    for v in sorted(changes):
        remaining = changes[v]
        step = 1 if remaining > 0 else -1
        d = degrees[v]
        for _ in range(abs(remaining)):
            total += delta_for_degree_change(cur, d, step)
            cur = cur.replace_one(d, d + step)
            d += step
    return total


def exact_delta_for_edit(g: AnyGraph, op: EditOp) -> Union[int, Tuple[int, int]]:
    """irr change caused by op, without recomputing irr from scratch.

    Returns an int for a Graph edit and an (in delta, out delta) pair for a
    Digraph edit. Validation is shared with apply_edit, so an op that cannot
    be applied raises the same error here.
    """
    changes = edit_degree_changes(g, op)
    if isinstance(g, Graph):
        return _walk_changes(degree_multiset(g), g.degrees, changes)
    din, dout = changes
    return (
        _walk_changes(degree_multiset(g, "in"), g.in_degrees, din),
        _walk_changes(degree_multiset(g, "out"), g.out_degrees, dout),
    )
