"""Differential audit: exact engine versus brute force versus the formulas.

Every suite generates instances deterministically from (seed, instance id) =
one splitmix child stream per instance, so a report is a pure function of its
arguments and regenerating it reproduces identical bytes. Each suite also
pins a fixed block of hand-checked witness instances at the front of the id
space before the random ones.

Three quantities meet in every row:

  oracle   irr by the definition summed by degree class (irr_naive), in
           every suite. On an edited value it is recomputed from scratch, with
           degrees counted from its own edges or arcs (_recounted), never taken
           from the ones apply_edit carries.
  engine   the incremental delta of the row's degree mode, priced alone by
           the per-mode step that exact_delta_for_edit runs for each mode
           (irregularity._mode_delta). Engine versus oracle is the hard
           invariant: any mismatch marks the report as failed (engine_ok
           False), which the CLI maps to exit code 1.
  formula  predictions under their ids. A disagreeing formula is a finding,
           not a failure; the row lands in the disagreements list and the
           per-formula agreement stats.

Lemma34 rows carry no formula value; their predicted column holds the
pre-edit irregularity as a strict upper bound and agrees means the edit
strictly decreased it.

Report formats: CSV with one line per prediction per instance, and a JSON
object with the suite metadata, per-formula stats, and the disagreement rows,
byte for byte json.dumps(obj, indent=2, sort_keys=True) plus a newline but
written from templates, so no report runs json's pure-Python encoder.
The row builders (joint_row, and transform_row for every retarget of an edge
end, an arc head or an arc tail) also back the CLI's --report output, so the
agreement rule lives only in _outcome; each takes the edited value its caller
built through the operation's own checks, a retarget's through _retarget.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import chain, product
from json.encoder import encode_basestring_ascii
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
    _Record,
    _edit_plan,
    _hangs_a_tree,
    _union,
    apply_edit,
    cut_side,
    degree_multiset,
)
from .irregularity import _mode_delta, irr_naive
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
from .transforms import _retarget, branch_transformation, edge_joint

CSV_HEADER = "instance_id,seed,operation,irr_before,irr_after_oracle,engine_delta,formula_id,predicted,agrees"


def _json_object(keys: str, depth: int) -> str:
    """%-template of an object at depth as json.dumps(indent=2) lays it out: keys given sorted, one %s each."""
    pad = "  " * depth
    return f"\n{pad}{{" + ",".join(f'\n{pad}  "{key}": %s' for key in keys.split()) + f"\n{pad}}}"


def _json_items(items: list[str], depth: int, brackets: str = "[]") -> str:
    """A list (or object) closed at depth, of items that each lead with their own newline and indent."""
    return f"{brackets[0]}{','.join(items)}\n{'  ' * depth}{brackets[1]}" if items else brackets


# to_json's fixed layout, one template per object kind of the report
_REPORT_JSON = _json_object("config disagreements engine_ok formula_stats instance_count seed suite", 0)[1:] + "\n"
_STAT_JSON = _json_object("agree formula_id pct total", 2)
_ROW_JSON = _json_object("engine_delta engine_ok instance_id irr_after_oracle irr_before operation predictions seed", 2)
_PREDICTION_JSON = _json_object("agrees formula_id is_delta predicted", 4)


class PredictionOutcome(_Record):
    def __init__(self, formula_id: str, predicted: int, agrees: bool, is_delta: bool):
        self.__dict__.update(formula_id=formula_id, predicted=predicted, agrees=agrees, is_delta=is_delta)


class AuditRow(_Record):
    def __init__(self, instance_id: int, seed: int, operation: str, irr_before: int, irr_after_oracle: int,
                 engine_delta: int, predictions: tuple[PredictionOutcome, ...]):
        self.__dict__.update(instance_id=instance_id, seed=seed, operation=operation, irr_before=irr_before,
                             irr_after_oracle=irr_after_oracle, engine_delta=engine_delta, predictions=predictions)

    @property
    def engine_ok(self) -> bool:
        return self.engine_delta == self.irr_after_oracle - self.irr_before


class FormulaStat(_Record):
    def __init__(self, formula_id: str, agree: int, total: int):
        self.__dict__.update(formula_id=formula_id, agree=agree, total=total)

    @property
    def pct(self) -> float:
        return round(100.0 * self.agree / self.total, 4)


class AuditReport(_Record):
    def __init__(self, suite: str, seed: int, instance_count: int, config: tuple[tuple[str, str], ...],
                 rows: tuple[AuditRow, ...]):
        self.__dict__.update(suite=suite, seed=seed, instance_count=instance_count, config=config, rows=rows)

    @cached_property
    def _tally(self) -> tuple[tuple[FormulaStat, ...], tuple[AuditRow, ...], bool]:
        """(formula_stats, disagreements, engine_ok), from one pass over the rows."""
        outcomes, missed, engine_ok = [], [], True
        for row in self.rows:
            agreed = row.engine_ok
            engine_ok &= agreed
            for p in row.predictions:
                outcomes.append((p.formula_id, p.agrees))
                agreed = agreed and p.agrees
            if not agreed:
                missed.append(row)
        counts = Counter(outcomes)  # (formula id, agrees) -> predictions
        stats = [FormulaStat(fid, counts[fid, True], counts[fid, True] + counts[fid, False])
                 for fid in sorted({fid for fid, _ in counts})]
        return tuple(stats), tuple(missed), engine_ok

    formula_stats = property(lambda self: self._tally[0], doc="Agreement counts per formula, sorted by formula id.")
    disagreements = property(lambda self: self._tally[1], doc="The rows where the engine or a formula missed.")
    engine_ok = property(lambda self: self._tally[2], doc="Whether the engine's delta matched the oracle on every row.")

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
        """json.dumps(obj, indent=2, sort_keys=True) + "\\n" of the report object, from the templates."""
        enc, flag = encode_basestring_ascii, ("false", "true").__getitem__
        config = [f"\n    {enc(key)}: {enc(value)}" for key, value in sorted(dict(self.config).items())]
        stats = [_STAT_JSON % (s.agree, enc(s.formula_id), s.pct, s.total) for s in self.formula_stats]
        rows = []
        for r in self.disagreements:
            preds = [_PREDICTION_JSON % (flag(p.agrees), enc(p.formula_id), flag(p.is_delta), p.predicted)
                     for p in r.predictions]
            rows.append(_ROW_JSON % (r.engine_delta, flag(r.engine_ok), r.instance_id, r.irr_after_oracle,
                                     r.irr_before, enc(r.operation), _json_items(preds, 3), r.seed))
        return _REPORT_JSON % (_json_items(config, 1, "{}"), _json_items(rows, 1), flag(self.engine_ok),
                               _json_items(stats, 1), self.instance_count, self.seed, enc(self.suite))


def _outcome(fid: FormulaId, predicted: int, irr_before: int, irr_after: int) -> PredictionOutcome:
    if fid is FormulaId.LEMMA34:
        agrees = irr_after < irr_before
    elif fid.is_delta:
        agrees = predicted == irr_after - irr_before
    else:
        agrees = predicted == irr_after
    return PredictionOutcome(fid.value, predicted, agrees, fid.is_delta)


def _mk_row(instance_id: int, seed: int, operation: str, irr_before: int, irr_after: int, engine_delta: int,
            preds: Sequence[tuple[FormulaId, int]]) -> AuditRow:
    outcomes = tuple(_outcome(fid, val, irr_before, irr_after) for fid, val in preds)
    return AuditRow(instance_id, seed, operation, irr_before, irr_after, engine_delta, outcomes)


def _recounted(g: AnyGraph, mode: DegreeMode = "undirected") -> DegreeMultiset:
    """g's degree multiset in mode, counted afresh from g's own edges or arcs.

    An edited value's oracle irr reads this, never the degrees apply_edit carried, and it counts a mode's
    ends by its own rule, not the engine's mode table: the oracle shares no bookkeeping with the engine.
    """
    if isinstance(g, Graph):
        ends = chain.from_iterable(g.edges)  # a loop lists its vertex twice
    else:
        ends = map(itemgetter(1 if mode == "in" else 0), g.arcs)  # an arc's head is an in-end, its tail an out-end
    per_vertex = Counter(ends)
    classes = Counter(per_vertex.values())  # vertices per degree, among those on an edge or arc
    if g.vertex_count > len(per_vertex):
        classes[0] = g.vertex_count - len(per_vertex)  # the rest
    return DegreeMultiset.from_entries(classes.items())


def _measure(g: AnyGraph, op: EditOp, edited: AnyGraph, mode: DegreeMode = "undirected") -> tuple[int, int, int]:
    """(oracle irr before, oracle irr after, engine delta) of op in one degree mode, the only one priced.

    edited is g after op, built by the caller so that the operation's own
    structural checks run on every audited instance.
    """
    irr_before = irr_naive(degree_multiset(g, mode))
    irr_after = irr_naive(_recounted(edited, mode))
    return irr_before, irr_after, _mode_delta(g, mode, *_edit_plan(g, op))


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


def _random_component(rng: SplitMix64) -> tuple[Graph, str]:
    n = 1 + rng.below(40)
    p = rng.below(3)
    return random_graph(n, p, rng), f"er(n={n} p={P_TABLE[p]})"


def _random_joint_instance(iid: int, rng: SplitMix64) -> tuple[Graph, str, Graph, str, int, int]:
    side = _random_component if rng.below(4) < 3 else _regular_component
    g1, d1 = side(rng)
    g2, d2 = side(rng)
    u = rng.below(g1.vertex_count)
    v = rng.below(g2.vertex_count)
    return g1, d1, g2, d2, u, v


def joint_row(iid: int, seed: int, instance: tuple[Graph, str, Graph, str, int, int], joined: Graph) -> AuditRow:
    """Score every joint formula on joined: g1 and g2 plus a fresh edge from u in g1 to v in g2.

    The engine prices that edge on the union of g1 and g2, which takes their degrees
    (graphs._union) and counts its multiset from them.
    """
    g1, d1, g2, d2, u, v = instance
    dm1 = degree_multiset(g1)
    dm2 = degree_multiset(g2)
    before, after, engine = _measure(_union(g1, g2), EditOp.add_edge(u, g1.vertex_count + v), joined)
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
        # Prop 2.7 takes the side of the larger degree first; on equal degrees its value is symmetric
        (du, n), (dv, m) = sorted(((deg_u, g1.vertex_count), (deg_v, g2.vertex_count)), reverse=True)
        preds.append((prop27_formula_id(deg_u, deg_v), prop27(n, m, du, dv)))
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


def transform_row(iid: int, seed: int, instance: tuple[AnyGraph, str, EditOp], edited: AnyGraph) -> AuditRow:
    """Score edited: g with one end of op's edge or arc on op.target, in the degree mode the move changes."""
    g, desc, op = instance
    mode, moved, label = _RETARGETS[op.kind]
    a, b = op.endpoints
    if g.multigraph:
        operation = f"edge-transform graph={desc} edge=({min(a, b)} {max(a, b)}) moved={a} target={op.target}"
    else:
        operation = label.format(desc, a, b, op.target)
    before, after, engine = _measure(g, op, edited, mode)
    degrees = getattr(g, g._MODES[mode][0])
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
        g = Graph(n, zip(ends[::2], ends[1::2]), multigraph=True)
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
    witnesses, edit = _edge_transform_witnesses(), lambda g, desc, op: _retarget(g, op)
    return _run_seeded("edge-transform", count, seed, witnesses, _random_edge_transform_instance, edit, transform_row)


def _arc_transform_witnesses() -> list[tuple[Digraph, str, EditOp]]:
    c4 = Digraph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
    tournament5 = Digraph(5, [(i, (i + step) % 5) for step in (1, 2) for i in range(5)])
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
        taken = {other[moved] for other in d.arcs if other[1 - moved] == kept}
        candidates = [t for t in range(n) if t not in arc and t not in taken]
        if candidates:
            return d, desc, EditOp(kind, arc, candidates[rng.below(len(candidates))])
    # dense draws can exhaust retries; fall back to a path orientation
    d = orient_by_labeling(path(n), tuple(range(n)))
    return d, f"path-orient({n})", EditOp(kind, (0, 1), 2)


def run_arc_transform_suite(count: int, seed: int) -> AuditReport:
    """Audit arc retargets: head moves audit in-degrees, tail moves out."""
    witnesses, edit = _arc_transform_witnesses(), lambda g, desc, op: _retarget(g, op)
    return _run_seeded("arc-transform", count, seed, witnesses, _random_arc_instance, edit, transform_row)


# --- closed-form suite ------------------------------------------------------


# the bipartite block builds about (max_n**2 / 8)**2 arcs, so time grows as max_n**4 for max_n**2 rows
_CLOSED_FORMS_MAX_N = 96


def run_closed_form_suite(max_n: int) -> AuditReport:
    """Compare generated families against their closed forms, per mode.

    Family caps: complete, path, and cycle orientations go up to max_n
    vertices; bipartite sides go up to max(1, max_n // 2). Deterministic, no seed.
    """
    if not 1 <= max_n <= _CLOSED_FORMS_MAX_N:
        raise ValueError(f"closed-forms suite needs max_n in 1..{_CLOSED_FORMS_MAX_N}, got {max_n}")
    rows: list[AuditRow] = []

    def emit(operation, d, op, fid, want_pair):
        """Append the mode=in row, then the mode=out row, of d, or of op on d when op is not None."""
        edited = None if op is None else apply_edit(d, op)
        for mode, want in zip(("in", "out"), want_pair):
            if op is None:  # d's own irr is before and after, and the engine prices no edit
                before = after = irr_naive(degree_multiset(d, mode))
                engine = 0
            else:
                before, after, engine = _measure(d, op, edited, mode)
            rows.append(_mk_row(len(rows), 0, f"{operation} mode={mode}", before, after, engine, [(fid, want)]))

    for k in range(1, max_n + 1):
        d = orient_by_labeling(complete(k), tuple(range(k)))
        emit(f"complete-orient n={k}", d, None, FormulaId.LEMMA48, (complete_closed_form(k),) * 2)

    for m, k in product(range(1, max(1, max_n // 2) + 1), repeat=2):
        d = orient_left_right(m, k)
        emit(f"bipartite-orient m={m} n={k}", d, None, FormulaId.PROP49, bipartite_closed_form(m, k))

    def reversals(family, base, fid, want_none, want_at):
        """The reverse=none row, then one row per reversed arc (pos - 1, pos mod n), pos = 1..arc count."""
        emit(f"{family} reverse=none", base, None, fid, want_none)
        for pos in range(1, base.arc_count + 1):
            op = EditOp.reverse_arc(pos - 1, pos % base.vertex_count)
            emit(f"{family} reverse={pos}", base, op, fid, want_at(pos))

    for k in range(2, max_n + 1):
        base = orient_by_labeling(path(k), tuple(range(k)))
        reversals(
            f"path-orient n={k}", base, FormulaId.PROP43, path_closed_form(k), lambda pos: path_closed_form(k, pos)
        )

    for k in range(3, max_n + 1):
        # a consistent ring orientation, not the lower-to-higher labeling one
        ring = Digraph(k, ((i, (i + 1) % k) for i in range(k)))
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
    g = Graph(n0 + 3, [*base, (anchor, n0), (anchor, n0 + 1), (anchor, n0 + 2)])
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
