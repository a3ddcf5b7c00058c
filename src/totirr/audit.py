"""Differential audit: exact engine versus brute force versus the formulas.

Every suite generates instances deterministically from (seed, instance id) =
one splitmix child stream per instance, so a report is a pure function of its
arguments and regenerating it reproduces identical bytes. Each suite also
pins a fixed block of hand-checked witness instances at the front of the id
space before the random ones.

Three quantities meet in every row:

  oracle   irr recomputed from scratch on the edited value, whose degrees are
           counted from its own edges or arcs (_recounted), never taken from
           the ones apply_edit carries. Random suites use the definition
           summed by degree class (irr_naive); the closed-form suite uses the
           fast path, whose equivalence is covered elsewhere.
  engine   the incremental delta from exact_delta_for_edit. Engine versus
           oracle is the hard invariant: any mismatch marks the report as
           failed (engine_ok False), which the CLI maps to exit code 1.
  formula  predictions under their ids. A disagreeing formula is a finding,
           not a failure; the row lands in the disagreements list and the
           per-formula agreement stats.

Lemma34 rows carry no formula value; their predicted column holds the
pre-edit irregularity as a strict upper bound and agrees means the edit
strictly decreased it.

Report formats: CSV with one line per prediction per instance, and a JSON
object with the suite metadata, per-formula stats, and the disagreement rows.
The row builders (joint_row, and transform_row for every retarget of an edge
end, an arc head or an arc tail) also back the CLI's --report output, so the
agreement rule lives only in _outcome; each takes the edited value its caller
built through the operation's own checks.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter
from typing import Callable, Sequence

from .generators import (
    P_TABLE,
    _connected_edges,
    _tree_edges,
    complete,
    complete_bipartite,
    cycle,
    empty_graph,
    matching,
    orient_by_labeling,
    orient_left_right,
    path,
    random_connected_with_cut_edge,
    random_digraph,
    random_graph,
    star,
)
from .graphs import (
    AnyGraph,
    DegreeMode,
    DegreeMultiset,
    Digraph,
    EditKind,
    EditOp,
    Graph,
    _cached,
    _hangs_a_tree,
    apply_edit,
    cut_side,
    degree_multiset,
)
from .irregularity import exact_delta_for_edit, irr_digraph, irr_fast, irr_naive
from .partitions import joint_partition, transform_counts
from .predictors import (
    FormulaId,
    bipartite_closed_form,
    complete_closed_form,
    cycle_closed_form,
    path_closed_form,
    prop27,
    prop27_formula_id,
    thm21_final,
    thm21_interim,
    thm33_predict,
    transform_formula_id,
)
from .rng import SplitMix64
from .transforms import branch_transformation, edge_joint, edge_transformation

CSV_HEADER = "instance_id,seed,operation,irr_before,irr_after_oracle,engine_delta,formula_id,predicted,agrees"


@dataclass(frozen=True)
class PredictionOutcome:
    formula_id: str
    predicted: int
    agrees: bool
    is_delta: bool


@dataclass(frozen=True)
class AuditRow:
    instance_id: int
    seed: int
    operation: str
    irr_before: int
    irr_after_oracle: int
    engine_delta: int
    predictions: tuple[PredictionOutcome, ...]

    @property
    def engine_ok(self) -> bool:
        return self.engine_delta == self.irr_after_oracle - self.irr_before


@dataclass(frozen=True)
class FormulaStat:
    formula_id: str
    agree: int
    total: int

    @property
    def pct(self) -> float:
        return round(100.0 * self.agree / self.total, 4)


@dataclass(frozen=True)
class AuditReport:
    suite: str
    seed: int
    instance_count: int
    config: tuple[tuple[str, str], ...]
    rows: tuple[AuditRow, ...]

    @_cached
    def engine_ok(self) -> bool:
        return all(row.engine_ok for row in self.rows)

    @_cached
    def formula_stats(self) -> tuple[FormulaStat, ...]:
        agree: dict[str, int] = {}
        total: dict[str, int] = {}
        for row in self.rows:
            for p in row.predictions:
                total[p.formula_id] = total.get(p.formula_id, 0) + 1
                agree[p.formula_id] = agree.get(p.formula_id, 0) + (1 if p.agrees else 0)
        return tuple(
            FormulaStat(fid, agree[fid], total[fid]) for fid in sorted(total)
        )

    @property
    def disagreements(self) -> tuple[AuditRow, ...]:
        return tuple(row for row in self.rows if not row.engine_ok or not all(p.agrees for p in row.predictions))

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for row in self.rows:
            if "," in row.operation:
                raise ValueError(f"operation descriptor contains a comma: {row.operation!r}")
            prefix = (
                f"{row.instance_id},{row.seed},{row.operation},"
                f"{row.irr_before},{row.irr_after_oracle},{row.engine_delta}"
            )
            for p in row.predictions:
                flag = "true" if p.agrees else "false"
                lines.append(f"{prefix},{p.formula_id},{p.predicted},{flag}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        obj = {
            "suite": self.suite,
            "seed": self.seed,
            "instance_count": self.instance_count,
            "config": dict(self.config),
            "engine_ok": self.engine_ok,
            "formula_stats": [
                {"formula_id": s.formula_id, "agree": s.agree, "total": s.total, "pct": s.pct}
                for s in self.formula_stats
            ],
            "disagreements": [
                {**vars(row), "engine_ok": row.engine_ok, "predictions": [vars(p) for p in row.predictions]}
                for row in self.disagreements
            ],
        }
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _outcome(fid: FormulaId, predicted: int, irr_before: int, irr_after: int) -> PredictionOutcome:
    if fid is FormulaId.LEMMA34:
        agrees = irr_after < irr_before
    elif fid.is_delta:
        agrees = predicted == irr_after - irr_before
    else:
        agrees = predicted == irr_after
    return PredictionOutcome(fid.value, predicted, agrees, fid.is_delta)


def _mk_row(
    instance_id: int,
    seed: int,
    operation: str,
    irr_before: int,
    irr_after: int,
    engine_delta: int,
    preds: Sequence[tuple[FormulaId, int]],
) -> AuditRow:
    outcomes = tuple(_outcome(fid, val, irr_before, irr_after) for fid, val in preds)
    return AuditRow(instance_id, seed, operation, irr_before, irr_after, engine_delta, outcomes)


def _recounted(g: AnyGraph, mode: DegreeMode = "undirected") -> DegreeMultiset:
    """g's degree multiset in mode, counted afresh from g's own edges or arcs.

    An edited value's oracle irr reads this, never the degrees apply_edit
    carried from its parent, so the oracle shares no bookkeeping with the engine.
    """
    if isinstance(g, Graph):
        ends = chain.from_iterable(g.edges)  # a loop lists its vertex twice
    else:
        ends = map(itemgetter(*g._MODES[mode][1]), g.arcs)  # a digraph mode counts one end of each arc
    counted = Counter(ends)  # vertices on no edge or arc are missing: each has degree 0
    return DegreeMultiset.from_degrees([*counted.values(), *repeat(0, g.vertex_count - len(counted))])


def _measure(g: AnyGraph, op: EditOp, edited: AnyGraph, mode: DegreeMode = "undirected") -> tuple[int, int, int]:
    """(oracle irr before, oracle irr after, engine delta) of op in one degree mode.

    edited is g after op, built by the caller so that the operation's own
    structural checks run on every audited instance.
    """
    irr_before = irr_naive(degree_multiset(g, mode))
    irr_after = irr_naive(_recounted(edited, mode))
    engine = exact_delta_for_edit(g, op)
    if isinstance(engine, tuple):  # a digraph's (in, out) pair
        engine = engine[g._MODES[mode][0]]
    return irr_before, irr_after, engine


def _run_seeded(
    suite: str, count: int, seed: int, witnesses: Sequence, draw: Callable, edit: Callable, row: Callable
) -> AuditReport:
    """The loop shared by every seeded suite.

    Instance iid is witnesses[iid] while they last, then draw(iid, rng) on the
    iid-th child stream of seed; row(iid, child seed, instance, edit(*instance)) audits it.
    """
    if count < 1:
        raise ValueError(f"{suite} suite needs at least 1 instance, got {count}")
    root = SplitMix64(seed)
    rows = []
    for iid in range(count):
        rng = root.child(iid)
        instance = witnesses[iid] if iid < len(witnesses) else draw(iid, rng)
        rows.append(row(iid, rng.seed, instance, edit(*instance)))
    config = (("count", str(count)), ("seed", str(seed)))
    return AuditReport(suite, seed, count, config, tuple(rows))


# --- edge-joint suite -------------------------------------------------------


def _joint_witnesses() -> list[tuple[Graph, str, Graph, str, int, int]]:
    return [
        (cycle(3), "cycle(3)", cycle(3), "cycle(3)", 0, 0),
        (empty_graph(1), "empty(1)", empty_graph(1), "empty(1)", 0, 0),
        (complete(4), "complete(4)", cycle(3), "cycle(3)", 0, 0),
    ]


def _regular_component(rng: SplitMix64) -> tuple[Graph, str]:
    fam = rng.below(5)
    if fam == 0:
        k = 1 + rng.below(12)
        return empty_graph(k), f"empty({k})"
    if fam == 1:
        k = 1 + rng.below(10)
        return matching(k), f"matching({k})"
    if fam == 2:
        k = 3 + rng.below(20)
        return cycle(k), f"cycle({k})"
    if fam == 3:
        k = 1 + rng.below(8)
        return complete(k), f"complete({k})"
    k = 1 + rng.below(6)
    return complete_bipartite(k, k), f"biclique({k} {k})"


def _random_joint_instance(iid: int, rng: SplitMix64) -> tuple[Graph, str, Graph, str, int, int]:
    if rng.below(4) < 3:
        n1 = 1 + rng.below(40)
        p1 = rng.below(3)
        g1, d1 = random_graph(n1, p1, rng), f"er(n={n1} p={P_TABLE[p1]})"
        n2 = 1 + rng.below(40)
        p2 = rng.below(3)
        g2, d2 = random_graph(n2, p2, rng), f"er(n={n2} p={P_TABLE[p2]})"
    else:
        g1, d1 = _regular_component(rng)
        g2, d2 = _regular_component(rng)
    u = rng.below(g1.vertex_count)
    v = rng.below(g2.vertex_count)
    return g1, d1, g2, d2, u, v


def joint_row(iid: int, seed: int, instance: tuple[Graph, str, Graph, str, int, int], joined: Graph) -> AuditRow:
    """Score every joint formula on joined: g1 and g2 plus a fresh edge from u in g1 to v in g2."""
    g1, d1, g2, d2, u, v = instance
    op = EditOp.add_edge(u, g1.vertex_count + v)
    union = apply_edit(joined, EditOp.remove_edge(*op.endpoints))  # joined less the fresh edge
    before, after, engine = _measure(union, op, joined)
    dm1 = degree_multiset(g1)
    dm2 = degree_multiset(g2)
    deg_u = g1.degree(u)
    deg_v = g2.degree(v)
    counts = joint_partition(dm1, dm2, deg_u, deg_v)
    form_a, form_b = thm21_final(counts)
    preds = [
        (FormulaId.THM21_INTERIM, thm21_interim(counts)),
        (FormulaId.THM21_FINAL_A, form_a),
        (FormulaId.THM21_FINAL_B, form_b),
    ]
    if dm1.is_regular() and dm2.is_regular():
        if deg_u >= deg_v:
            value = prop27(g1.vertex_count, g2.vertex_count, deg_u, deg_v)
        else:
            value = prop27(g2.vertex_count, g1.vertex_count, deg_v, deg_u)
        preds.append((prop27_formula_id(deg_u, deg_v), value))
    operation = f"join left={d1} right={d2} u={u} v={v}"
    return _mk_row(iid, seed, operation, before, after, engine, preds)


def run_edge_joint_suite(count: int, seed: int) -> AuditReport:
    """Audit edge joints: random and regular pairs, witnesses pinned first."""
    edit = lambda g1, d1, g2, d2, u, v: edge_joint(g1, g2, u, v)
    return _run_seeded("edge-joint", count, seed, _joint_witnesses(), _random_joint_instance, edit, joint_row)


# --- edge- and arc-transform suites ----------------------------------------


# retarget kind -> (degree mode it changes, position in op.endpoints of the moved end, operation label)
_RETARGETS = {
    EditKind.RETARGET_EDGE_END: ("undirected", 0, "edge-transform graph={} cut=({} {}) target={}"),
    EditKind.RETARGET_ARC_HEAD: ("in", 1, "arc-transform graph={} arc=({} {}) end=head target={}"),
    EditKind.RETARGET_ARC_TAIL: ("out", 0, "arc-transform graph={} arc=({} {}) end=tail target={}"),
}


def _retargeted(g: AnyGraph, desc: str, op: EditOp) -> AnyGraph:
    """g after op. edge_transformation checks a simple graph's cut edge and target side on every instance;
    a multigraph has no cut edge to check, and an arc move has no check beyond apply_edit's."""
    if isinstance(g, Graph) and not g.allow_parallel:
        return edge_transformation(g, *op.endpoints, op.target)
    return apply_edit(g, op)


def transform_row(iid: int, seed: int, instance: tuple[AnyGraph, str, EditOp], edited: AnyGraph) -> AuditRow:
    """Score edited: g with one end of op's edge or arc on op.target, in the degree mode the move changes."""
    g, desc, op = instance
    mode, moved, label = _RETARGETS[op.kind]
    a, b = op.endpoints
    if g.allow_parallel:
        operation = f"edge-transform graph={desc} edge=({min(a, b)} {max(a, b)}) moved={a} target={op.target}"
    else:
        operation = label.format(desc, a, b, op.target)
    before, after, engine = _measure(g, op, edited, mode)
    degrees = g._degrees[g._MODES[mode][0]]
    counts = transform_counts(degree_multiset(g, mode), degrees[op.endpoints[moved]], degrees[op.target])
    preds = [(transform_formula_id(mode, counts.relation), thm33_predict(before, counts))]
    return _mk_row(iid, seed, operation, before, after, engine, preds)


def _edge_transform_witnesses() -> list[tuple[Graph, str, EditOp]]:
    triangle_bridge = Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3)))
    return [
        (path(4), "path(4)", EditOp.retarget_edge(1, 0, 2)),
        (star(3), "star(3)", EditOp.retarget_edge(0, 1, 2)),
        (triangle_bridge, "triangle-bridge", EditOp.retarget_edge(0, 3, 1)),
    ]


def _random_edge_transform_instance(iid: int, rng: SplitMix64) -> tuple[Graph, str, EditOp]:
    """Every fifth instance is a multigraph with loops; the rest plant a cut edge."""
    if iid % 5 == 4:
        n = 3 + rng.below(15)
        edge_count = n + rng.below(2 * n)
        ends = rng._belows([n] * (2 * edge_count))
        g = Graph(n, tuple(zip(ends[::2], ends[1::2])), allow_parallel=True, allow_loops=True)
        a, b = g.edges[rng.below(g.edge_count)]
        moved, kept = (a, b) if rng.below(2) == 0 else (b, a)
        others = [t for t in range(n) if t != moved]
        return g, f"multi(n={n} m={g.edge_count})", EditOp.retarget_edge(moved, kept, others[rng.below(len(others))])
    n = 4 + rng.below(37)
    g, (u1, v1) = random_connected_with_cut_edge(n, rng)
    others = [w for w in cut_side(g, v1, u1) if w != u1]
    return g, f"planted(n={n})", EditOp.retarget_edge(u1, v1, others[rng.below(len(others))])


def run_edge_transform_suite(count: int, seed: int) -> AuditReport:
    """Audit cut-edge retargets; every fifth random instance is a multigraph."""
    witnesses, draw = _edge_transform_witnesses(), _random_edge_transform_instance
    return _run_seeded("edge-transform", count, seed, witnesses, draw, _retargeted, transform_row)


def _arc_transform_witnesses() -> list[tuple[Digraph, str, EditOp]]:
    c4 = Digraph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
    tournament5 = Digraph(5, tuple((i, (i + 1) % 5) for i in range(5)) + tuple((i, (i + 2) % 5) for i in range(5)))
    p3 = Digraph(3, ((0, 1), (1, 2)))
    return [
        (c4, "cycle-orient(4)", EditOp.retarget_head(0, 1, 2)),
        (tournament5, "tournament(5)", EditOp.retarget_tail(0, 1, 2)),
        (p3, "path-orient(3)", EditOp.retarget_head(1, 2, 0)),
    ]


def _random_arc_instance(iid: int, rng: SplitMix64) -> tuple[Digraph, str, EditOp]:
    n = 3 + rng.below(38)
    p = rng.below(3)
    d = random_digraph(n, p, rng)
    if d.arc_count == 0:
        d = Digraph(n, ((0, 1),))
    desc = f"er(n={n} p={P_TABLE[p]})"
    kind = EditKind.RETARGET_ARC_HEAD if iid % 2 == 0 else EditKind.RETARGET_ARC_TAIL
    moved = _RETARGETS[kind][1]
    for _ in range(20):
        arc = d.arcs[rng.below(d.arc_count)]
        kept = arc[1 - moved]
        # t is a candidate when the arc with its moved end on t, (kept, t) or (t, kept), is fresh
        candidates = [t for t in range(n) if t not in arc and not (d.has_arc(kept, t) if moved else d.has_arc(t, kept))]
        if candidates:
            return d, desc, EditOp(kind, arc, candidates[rng.below(len(candidates))])
    # dense draws can exhaust retries; fall back to a path orientation
    d = orient_by_labeling(path(n), tuple(range(n)))
    return d, f"path-orient({n})", EditOp(kind, (0, 1), 2)


def run_arc_transform_suite(count: int, seed: int) -> AuditReport:
    """Audit arc retargets: head moves audit in-degrees, tail moves out."""
    witnesses, draw = _arc_transform_witnesses(), _random_arc_instance
    return _run_seeded("arc-transform", count, seed, witnesses, draw, _retargeted, transform_row)


# --- closed-form suite ------------------------------------------------------


# the bipartite block builds about (max_n**2 / 8)**2 arcs, so time grows as max_n**4 for max_n**2 rows
_CLOSED_FORMS_MAX_N = 96


def run_closed_form_suite(max_n: int) -> AuditReport:
    """Compare generated families against their closed forms, per mode.

    Family caps: complete, path, and cycle orientations go up to max_n
    vertices; bipartite sides go up to max_n // 2. Deterministic, no seed.
    """
    if not 1 <= max_n <= _CLOSED_FORMS_MAX_N:
        raise ValueError(f"closed-forms suite needs max_n in 1..{_CLOSED_FORMS_MAX_N}, got {max_n}")
    rows: list[AuditRow] = []

    def emit(operation, before_pair, after_pair, delta_pair, fid, want_pair):
        """Append the mode=in row, then the mode=out row, of one instance."""
        for i, mode in enumerate(("in", "out")):
            preds = [(fid, want_pair[i])]
            row = _mk_row(len(rows), 0, f"{operation} mode={mode}", before_pair[i], after_pair[i], delta_pair[i], preds)
            rows.append(row)

    for k in range(1, max_n + 1):
        got = irr_digraph(orient_by_labeling(complete(k), tuple(range(k))))
        want = complete_closed_form(k)
        emit(f"complete-orient n={k}", got, got, (0, 0), FormulaId.LEMMA48, (want, want))

    side_cap = max(1, max_n // 2)
    for m in range(1, side_cap + 1):
        for k in range(1, side_cap + 1):
            got = irr_digraph(orient_left_right(m, k))
            emit(f"bipartite-orient m={m} n={k}", got, got, (0, 0), FormulaId.PROP49, bipartite_closed_form(m, k))

    def reversals(family, base, fid, want_none, want_at):
        """The reverse=none row, then one row per reversed arc (pos - 1, pos mod n), pos = 1..arc count."""
        base_pair = irr_digraph(base)
        emit(f"{family} reverse=none", base_pair, base_pair, (0, 0), fid, want_none)
        for pos in range(1, base.arc_count + 1):
            op = EditOp.reverse_arc(pos - 1, pos % base.vertex_count)
            after = apply_edit(base, op)
            after_pair = [irr_fast(_recounted(after, mode)) for mode in ("in", "out")]
            emit(f"{family} reverse={pos}", base_pair, after_pair, exact_delta_for_edit(base, op), fid, want_at(pos))

    for k in range(2, max_n + 1):
        base = orient_by_labeling(path(k), tuple(range(k)))
        reversals(
            f"path-orient n={k}", base, FormulaId.PROP43, path_closed_form(k), lambda pos: path_closed_form(k, pos)
        )

    for k in range(3, max_n + 1):
        # a consistent ring orientation, not the lower-to-higher labeling one
        ring = Digraph(k, tuple((i, (i + 1) % k) for i in range(k)))
        want = cycle_closed_form(k, reverse=True)
        reversals(f"cycle-orient n={k}", ring, FormulaId.PROP44, cycle_closed_form(k), lambda pos: want)

    config = (("max_n", str(max_n)),)
    return AuditReport("closed-forms", 0, len(rows), config, tuple(rows))


# --- branch-move decrease suite ---------------------------------------------


def _lemma34_witnesses() -> list[tuple[Graph, str, int, int, int]]:
    spider = Graph(4, ((0, 1), (0, 2), (0, 3)))
    double_star = Graph(6, ((0, 1), (0, 2), (0, 3), (0, 4), (4, 5)))
    return [
        (spider, "spider(3)", 0, 3, 2),
        (double_star, "double-star", 0, 1, 5),
    ]


def _branch_candidates(g: Graph) -> list[tuple[int, int, int]]:
    """All valid (attachment, branch root, pendant destination) triples, in order.

    One depth-first pass records each vertex's entry index, parent and
    component root, then in reverse preorder its subtree's size and degree
    sum; a subtree's entries are consecutive. A bridge is a forest edge, so
    the side at root of {u, root} is root's subtree, or the rest of u's
    component when u is root's child. _branch_component's test,
    graphs._hangs_a_tree, on the side's counts also rejects a non-bridge
    forest edge or a parallel copy. A pendant is outside the side when its
    entry index is.
    """
    n, deg, adjacency = g.vertex_count, g.degrees, g._adjacency
    entry, parent, top, order = [-1] * (n + 1), [-1] * n, [0] * n, []
    for s in range(n):
        stack = [(s, -1)]
        while stack:
            v, p = stack.pop()
            if entry[v] < 0:
                entry[v], parent[v], top[v] = len(order), p, s
                order.append(v)
                stack.extend((w, v) for w in adjacency[v] if entry[w] < 0)
    size, dsum = [1] * n + [0], [*deg, 0]  # vertex n: an empty subtree
    for v in reversed(order):
        if parent[v] >= 0:
            size[parent[v]] += size[v]
            dsum[parent[v]] += dsum[v]
    pendants = [(v, entry[v]) for v in range(n) if deg[v] == 1]
    out = []
    for u in range(n):
        for root in adjacency[u] if deg[u] >= 3 else ():
            if parent[root] == u:  # the side is root's subtree, less vertex n's empty one
                keep, cut = root, n
            elif parent[u] == root:  # the side is u's component less u's subtree
                keep, cut = top[u], u
            else:
                continue
            if _hangs_a_tree(size[keep] - size[cut], dsum[keep] - dsum[cut]):
                lo, hi, cut_lo, cut_hi = entry[keep], entry[keep] + size[keep], entry[cut], entry[cut] + size[cut]
                out.extend((u, root, v) for v, e in pendants if v != u and (not lo <= e < hi or cut_lo <= e < cut_hi))
    return out


def _random_branch_instance(iid: int, rng: SplitMix64) -> tuple[Graph, str, int, int, int]:
    if rng.below(2) == 0:
        n0 = 2 + rng.below(25)
        base = _tree_edges(n0, rng)
        desc = f"tree(n={n0})"
    else:
        n0 = 3 + rng.below(20)
        p = rng.below(3)
        base = _connected_edges(n0, p, rng)
        desc = f"er-conn(n={n0} p={P_TABLE[p]})"
    anchor = rng.below(n0)
    # three planted pendants guarantee at least one valid move
    g = Graph(n0 + 3, base + ((anchor, n0), (anchor, n0 + 1), (anchor, n0 + 2)))
    candidates = _branch_candidates(g)
    u, root, v = candidates[rng.below(len(candidates))]
    return g, f"{desc}+3p", u, root, v


def _lemma34_row(iid: int, seed: int, instance: tuple[Graph, str, int, int, int], edited: Graph) -> AuditRow:
    """Score edited: g with the branch at root moved from u onto pendant v."""
    g, desc, u, root, v = instance
    before, after, engine = _measure(g, EditOp.retarget_edge(u, root, v), edited)
    operation = f"move-branch graph={desc} u={u} root={root} v={v}"
    return _mk_row(iid, seed, operation, before, after, engine, [(FormulaId.LEMMA34, before)])


def lemma34_suite(count: int, seed: int) -> AuditReport:
    """Check that every valid branch move strictly decreases irr."""
    # branch_transformation checks Lemma 3.4's hypotheses (deg(u) >= 3, v a
    # pendant outside the branch) on every instance, not only by construction
    edit = lambda g, desc, u, root, v: branch_transformation(g, u, v, root)
    return _run_seeded("lemma34", count, seed, _lemma34_witnesses(), _random_branch_instance, edit, _lemma34_row)
