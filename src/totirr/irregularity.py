"""Total irregularity and the exact incremental delta engine.

The total irregularity of a degree multiset is the sum of |d(u) - d(v)| over
unordered vertex pairs. It is 0 exactly when all degrees coincide, and it
depends on nothing but the multiset, which is why every function here takes
a DegreeMultiset rather than a graph.

Two independent routes compute the same number:

  irr_naive   the definition by degree class: each of the m_a * m_b pairs
              between degrees v_a and v_b adds |v_a - v_b|; O(distinct^2),
              which is O(m) as m edges allow O(sqrt(m)) distinct degrees;
              the audit oracle, using no sorted positions or prefix sums
  irr_fast    prefix sums over the sorted entries, O(distinct);
              with degrees listed ascending d_1 <= ... <= d_n the pair sum
              collapses to sum_j (2j - n - 1) * d_j, evaluated per entry group

Values are exact Python ints. The magnitude is bounded by max_degree * n^2 / 2,
so anything up to n = 2**20 also fits 64-bit signed words for callers that
serialize the results.

Deltas: exact_delta_for_edit prices an edit from a fresh plan, the edges or
arcs it removes and adds, without building another multiset. It prices one
degree mode at a time (_mode_delta), so a caller that reads one mode prices
only that one. Each end of a removed entry steps down by one degree and each
end of an added entry steps up by one. With le(k) the number of vertices of
degree <= k, a +1 step from degree d changes irr by 2 le(d) - 1 - n and a -1
step by n - 1 - 2 le(d - 1), so each step costs one O(log distinct) lookup in
the parent's multiset plus the shifts earlier steps made to le, and steps
that share a vertex or a degree are priced exactly, not approximated.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, NamedTuple, Sequence, Tuple, Union

from .graphs import AnyGraph, DegreeMode, DegreeMultiset, Digraph, EditOp, Graph, _edit_plan, degree_multiset


class IrrPair(NamedTuple):
    """In- and out-irregularity of a digraph."""

    irr_in: int
    irr_out: int


def irr_naive(dm: DegreeMultiset) -> int:
    """Definitional total irregularity: m_i * m_j * |v_i - v_j| over each pair of degree classes, copying none."""
    total = 0
    for (vi, mi), (vj, mj) in combinations(dm.entries, 2):
        total += mi * mj * abs(vi - vj)
    return total


def irr_fast(dm: DegreeMultiset) -> int:
    """Prefix-sum total irregularity; equals irr_naive on every input."""
    n = dm.vertex_count
    total = 0
    for (value, mult), seen in zip(dm.entries, dm._prefix):
        # vertices of this degree occupy sorted positions seen+1 .. seen+mult
        total += value * mult * (2 * seen + mult - n)
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


def _price_steps(dm: DegreeMultiset, degrees: Sequence[int], lowered: Iterable[int], raised: Iterable[int]) -> int:
    """Exact irr change when each vertex in lowered steps down one degree, then each in raised up one.

    A step moves le(k) for one k only: a +1 step from d lowers le(d) by one
    and a -1 step from d raises le(d - 1) by one. shift holds those moves on
    top of dm.count_le, and current the degree each touched vertex has reached.
    """
    n = dm.vertex_count
    shift: dict[int, int] = {}
    current: dict[int, int] = {}
    total = 0
    for step, ends in ((-1, lowered), (1, raised)):
        for v in ends:
            d = current.get(v, degrees[v])
            k = d if step > 0 else d - 1
            le = dm.count_le(k) + shift.get(k, 0)
            total += 2 * le - 1 - n if step > 0 else n - 1 - 2 * le
            shift[k] = shift.get(k, 0) - step
            current[v] = d + step
    return total


def _mode_delta(g: AnyGraph, mode: DegreeMode, removed: tuple, added: tuple) -> int:
    """irr change in g's degree mode when an edit plan's removed entries go and its added ones come.

    The mode steps the ends it counts (both ends of an edge, an arc's head in
    the in-degrees, its tail in the out-degrees), priced against g's own multiset of that mode.
    """
    name, ends = g._MODES[mode]
    lowered, raised = [e[j] for e in removed for j in ends], [e[j] for e in added for j in ends]
    return _price_steps(degree_multiset(g, mode), getattr(g, name), lowered, raised)


def exact_delta_for_edit(g: AnyGraph, op: EditOp) -> Union[int, Tuple[int, int]]:
    """irr change caused by op, without recomputing irr from scratch.

    Returns an int for a Graph edit and an (in delta, out delta) pair for a
    Digraph edit, each mode priced by _mode_delta. The edit plan comes from
    the check apply_edit runs (_edit_plan), so an op that cannot be applied
    raises the same error here; g is left as it was.
    """
    removed, added = _edit_plan(g, op)
    deltas = [_mode_delta(g, mode, removed, added) for mode in g._MODES]
    return tuple(deltas) if len(deltas) > 1 else deltas[0]
