import hashlib
import json
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from totirr import (
    DegreeMultiset,
    Digraph,
    EditOp,
    Graph,
    GraphError,
    SplitMix64,
    audit,
    graphs,
    irregularity,
    transforms,
)
from totirr.audit import (
    CSV_HEADER,
    AuditReport,
    AuditRow,
    PredictionOutcome,
    _branch_candidates,
    lemma34_suite,
    run_arc_transform_suite,
    run_closed_form_suite,
    run_edge_joint_suite,
    run_edge_transform_suite,
)

from strategies import branch_candidates, report_json
from test_golden import GOLDEN

SEED = 0xC0FFEE


# --- pinned witness rows ----------------------------------------------------


def test_edge_joint_witness_rows():
    rep = run_edge_joint_suite(5, SEED)
    row0 = rep.rows[0]
    assert row0.irr_before == 0
    assert row0.irr_after_oracle == 8
    assert row0.engine_delta == 8
    by_id = {p.formula_id: p for p in row0.predictions}
    assert by_id["Prop27Equal"].predicted == 10
    assert not by_id["Prop27Equal"].agrees
    assert by_id["Thm21Interim"].predicted == 8
    assert by_id["Thm21Interim"].agrees

    row1 = rep.rows[1]
    assert row1.irr_after_oracle == 0
    by_id = {p.formula_id: p for p in row1.predictions}
    assert by_id["Prop27Equal"].predicted == 2
    assert not by_id["Prop27Equal"].agrees

    row2 = rep.rows[2]
    assert row2.irr_after_oracle == 16
    by_id = {p.formula_id: p for p in row2.predictions}
    assert by_id["Prop27Greater"].predicted == 18
    assert not by_id["Prop27Greater"].agrees
    assert by_id["Thm21FinalA"].agrees


def test_edge_transform_witness_rows():
    rep = run_edge_transform_suite(3, SEED)
    vals = [
        (r.irr_before, r.irr_after_oracle, r.predictions[0].formula_id, r.predictions[0].agrees)
        for r in rep.rows
    ]
    assert vals == [
        (4, 6, "Thm33Case2", True),
        (6, 4, "Thm33Case3", True),
        (8, 8, "Thm33Case1", True),
    ]


def test_arc_transform_witness_rows():
    rep = run_arc_transform_suite(3, SEED)
    assert [r.predictions[0].formula_id for r in rep.rows] == [
        "Prop47InCase2",
        "Prop47OutCase2",
        "Prop47InCase1",
    ]
    assert all(r.predictions[0].agrees for r in rep.rows)
    assert [r.irr_after_oracle for r in rep.rows] == [6, 8, 2]


def test_lemma34_witness_rows():
    rep = lemma34_suite(2, SEED)
    spider = rep.rows[0]
    assert (spider.irr_before, spider.irr_after_oracle) == (6, 4)
    assert spider.predictions[0].formula_id == "Lemma34"
    assert spider.predictions[0].agrees
    assert rep.rows[1].irr_after_oracle < rep.rows[1].irr_before


def test_suites_check_operation_preconditions(monkeypatch):
    # each edit below is valid for apply_edit; only the operation's own check rejects it
    def suite_on(witnesses_name, run, instance):
        monkeypatch.setattr(audit, witnesses_name, lambda: [instance])
        return run(1, SEED)

    triangle_tail = Graph(4, ((0, 1), (1, 2), (0, 2), (2, 3)))
    with pytest.raises(GraphError, match="not a cut edge"):
        instance = (triangle_tail, "triangle-tail", EditOp.retarget_edge(0, 1, 3))
        suite_on("_edge_transform_witnesses", run_edge_transform_suite, instance)
    chain = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4)))
    with pytest.raises(GraphError, match="needs >= 3"):
        suite_on("_lemma34_witnesses", lemma34_suite, (chain, "path(5)", 1, 0, 4))  # deg(u) = 2
    broom = Graph(5, ((0, 1), (0, 2), (0, 3), (3, 4)))
    with pytest.raises(GraphError, match="needs a pendant"):
        suite_on("_lemma34_witnesses", lemma34_suite, (broom, "broom", 0, 1, 3))  # deg(v) = 2
    # u = 3 is not a vertex of the left triangle, though 3 is a vertex of the union
    triangle = Graph(3, ((0, 1), (1, 2), (0, 2)))
    with pytest.raises(GraphError, match="vertex 3 outside range 0..2"):
        suite_on("_joint_witnesses", run_edge_joint_suite, (triangle, "cycle(3)", triangle, "cycle(3)", 3, 2))


# --- suite-level guarantees -------------------------------------------------


def test_engine_matches_oracle_on_every_suite():
    assert run_edge_joint_suite(60, SEED).engine_ok
    assert run_edge_transform_suite(60, SEED).engine_ok
    assert run_arc_transform_suite(60, SEED).engine_ok
    assert lemma34_suite(30, SEED).engine_ok
    assert run_closed_form_suite(12).engine_ok
    # every suite rejects a count below one instead of writing an empty report
    for bad in (0, -3):
        for run in (run_edge_joint_suite, run_edge_transform_suite, run_arc_transform_suite, lemma34_suite):
            with pytest.raises(ValueError):
                run(bad, SEED)
    # the closed-forms suite also refuses a vertex cap above 96
    for bad in (0, -3, 97):
        with pytest.raises(ValueError, match=f"^closed-forms suite needs max_n in 1..96, got {bad}$"):
            run_closed_form_suite(bad)


def test_closed_form_suite_full_agreement():
    rep = run_closed_form_suite(10)
    assert all(p.agrees for row in rep.rows for p in row.predictions)
    ids = {s.formula_id for s in rep.formula_stats}
    assert ids == {"Lemma48", "Prop43", "Prop44", "Prop49"}
    assert all(s.pct == 100.0 for s in rep.formula_stats)


def test_transform_suites_full_agreement():
    # the retarget predictors are exact under this class split
    rep = run_edge_transform_suite(120, SEED)
    assert all(p.agrees for row in rep.rows for p in row.predictions)
    rep = run_arc_transform_suite(120, SEED)
    assert all(p.agrees for row in rep.rows for p in row.predictions)


def test_joint_formula_agreement_structure():
    # interim agrees exactly when the two join endpoints share a degree;
    # the published closed forms agree exactly otherwise
    rep = run_edge_joint_suite(200, SEED)
    for row in rep.rows:
        by_id = {p.formula_id: p for p in row.predictions}
        interim = by_id["Thm21Interim"]
        final_a = by_id["Thm21FinalA"]
        final_b = by_id["Thm21FinalB"]
        assert final_a.agrees == final_b.agrees
        assert interim.agrees != final_a.agrees
        assert final_a.predicted == final_b.predicted


def test_lemma34_strict_decrease():
    rep = lemma34_suite(80, SEED)
    for row in rep.rows:
        assert row.irr_after_oracle < row.irr_before
        assert row.predictions[0].agrees


@st.composite
def branchy_graphs(draw):
    """Simple graphs, forests, or multigraphs with loops and parallel edges, on up to 12 vertices."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(("simple", "forest", "multi")))
    if kind == "forest":
        # vertex v joins an earlier vertex, or starts a new tree
        parents = [draw(st.integers(-1, v - 1)) for v in range(1, n)]
        return Graph(n, tuple((p, v) for v, p in enumerate(parents, start=1) if p >= 0))
    ends = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=3 * n))
    if kind == "simple":
        return Graph(n, tuple({(min(a, b), max(a, b)) for a, b in pairs if a != b}))
    return Graph(n, tuple(pairs), multigraph=True)


@settings(max_examples=400, deadline=None)
@given(branchy_graphs())
def test_branch_candidates_match_the_per_neighbour_probe(g):
    assert _branch_candidates(g) == branch_candidates(g)


def test_lemma34_sweeps_one_side_per_row(monkeypatch):
    # branch_transformation's own check is the only cut_side call; listing candidates sweeps nothing
    calls = []
    real = graphs.cut_side

    def counting(*args):
        calls.append(args)
        return real(*args)

    for module in (graphs, audit, transforms):
        monkeypatch.setattr(module, "cut_side", counting)
    rep = lemma34_suite(30, SEED)
    assert len(calls) == len(rep.rows) == 30


def _closed_form_plans(row):
    """A reversal instance plans its reversal three times, on its mode=in row: once to apply it and once to
    price each mode's row; other rows edit nothing."""
    op = row.operation
    return 3 * ("reverse=" in op and "reverse=none" not in op and op.endswith("mode=in"))


# a row's edit is planned once for each use, to apply it and to price it, as no value keeps a plan; a joint
# row applies the fresh edge on edge_joint's union and prices it on the union whose degrees it takes from its sides
@pytest.mark.parametrize(
    "suite, plans_per_row, total",
    [
        (lambda: run_edge_joint_suite(40, SEED), lambda row: 2, 80),
        (lambda: run_edge_transform_suite(40, SEED), lambda row: 2, 80),
        (lambda: run_arc_transform_suite(40, SEED), lambda row: 2, 80),
        (lambda: lemma34_suite(40, SEED), lambda row: 2, 80),
        (lambda: run_closed_form_suite(10), _closed_form_plans, 291),
    ],
    ids=["edge-joint", "edge-transform", "arc-transform", "lemma34", "closed-forms"],
)
def test_each_audited_edit_is_planned_once(monkeypatch, suite, plans_per_row, total):
    plans = []
    real = graphs._edit_plan

    def counting(g, op):
        plans.append(op)
        return real(g, op)

    # every module that binds the planner, so a call through an alias imported by name is counted too
    binders = [m for name, m in sys.modules.items() if name.startswith("totirr") and vars(m).get("_edit_plan") is real]
    assert {audit, graphs, irregularity} <= set(binders)
    for module in binders:
        monkeypatch.setattr(module, "_edit_plan", counting)
    report = suite()
    assert len(plans) == sum(map(plans_per_row, report.rows)) == total


def test_each_drawn_instance_is_validated_once(monkeypatch):
    built = []
    real = Graph.__post_init__

    def counting(self):
        built.append((self, type(self.edges)))  # what the draw handed over, before the constructor collects it
        real(self)

    monkeypatch.setattr(Graph, "__post_init__", counting)
    root = SplitMix64(SEED)
    for draw in (audit._random_edge_transform_instance, audit._random_branch_instance):
        for iid in range(3, 40):  # every fifth edge-transform instance is a multigraph
            built.clear()
            instance = draw(iid, root.child(iid))
            assert len(built) == 1 and built[0][0] is instance[0], (draw.__name__, iid)
            # the constructor collects the pairs in a list itself, so a tuple built first is one more copy
            assert built[0][1] is not tuple, (draw.__name__, iid)


def test_an_arc_row_prices_and_counts_only_its_own_mode(monkeypatch):
    calls = {"priced": 0, "multisets": 0}
    real_price, real_check = irregularity._price_steps, audit.DegreeMultiset.__post_init__

    def counting_price(*args):
        calls["priced"] += 1
        return real_price(*args)

    def counting_check(self):
        calls["multisets"] += 1
        real_check(self)

    monkeypatch.setattr(irregularity, "_price_steps", counting_price)
    monkeypatch.setattr(audit.DegreeMultiset, "__post_init__", counting_check)
    rep = run_arc_transform_suite(200, SEED)
    # one pricing per row; two multisets: the moved mode's before the edit and the oracle's recount after it
    assert calls == {"priced": 200, "multisets": 400} and rep.engine_ok


def test_a_joint_row_validates_nothing_and_counts_only_its_two_sides(monkeypatch):
    calls = {"validated": 0, "counted": 0}
    real_check, real_scan = Graph.__post_init__, Graph._scan

    def counting_check(self):
        calls["validated"] += 1
        real_check(self)

    def counting_scan(*args):
        calls["counted"] += 1
        return real_scan(*args)

    root = SplitMix64(SEED)
    instances = audit._joint_witnesses() + [audit._random_joint_instance(i, root.child(i)) for i in range(3, 40)]
    monkeypatch.setattr(Graph, "__post_init__", counting_check)
    monkeypatch.setattr(Graph, "_scan", counting_scan)
    for iid, instance in enumerate(instances):
        g1, _, g2, _, u, v = instance
        calls.update(validated=0, counted=0)
        row = audit.joint_row(iid, 0, instance, transforms.edge_joint(g1, g2, u, v))
        # the union takes g1's and g2's degrees, counted when they were built; the oracle recounts the joined
        # graph without the constructor's scan
        assert calls == {"validated": 0, "counted": 0} and row.engine_ok, iid


_ARCS = Digraph(5, ((0, 1), (0, 2), (3, 1), (1, 2)))  # 0 and 3 have no in-arc, 2 no out-arc, 4 neither


@pytest.mark.parametrize(
    "g, mode",
    [
        (Graph(0), "undirected"),
        (Graph(4), "undirected"),
        (Graph(6, ((0, 1), (1, 2), (1, 3))), "undirected"),  # 4 and 5 isolated
        (Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2))), "undirected"),  # none isolated
        (Graph(4, ((0, 0), (0, 1), (0, 1), (2, 2)), multigraph=True), "undirected"),  # loops count twice
        (_ARCS, "in"),
        (_ARCS, "out"),
    ],
)
def test_recounted_is_the_multiset_of_a_per_vertex_count(g, mode):
    degrees = [0] * g.vertex_count
    if isinstance(g, Graph):
        for a, b in g.edges:
            degrees[a] += 1
            degrees[b] += 1
    else:
        for tail, head in g.arcs:
            degrees[head if mode == "in" else tail] += 1
    assert audit._recounted(g, mode) == DegreeMultiset.from_degrees(degrees)


def test_the_oracle_catches_an_engine_whose_digraph_modes_are_swapped(monkeypatch):
    # the engine then prices out-degrees as "in" and in-degrees as "out"; the oracle counts heads for "in"
    # and tails for "out" by its own rule, so the swap must fail the engine-versus-oracle check
    assert run_arc_transform_suite(50, 7).engine_ok
    monkeypatch.setattr(Digraph, "_MODES", {"in": Digraph._MODES["out"], "out": Digraph._MODES["in"]})
    assert not run_arc_transform_suite(50, 7).engine_ok


def test_multigraph_rows_present_in_edge_transform():
    rep = run_edge_transform_suite(30, SEED)
    multis = [r for r in rep.rows if "multi(" in r.operation]
    assert len(multis) == 6  # ids 4, 9, 14, 19, 24, 29
    assert all(r.engine_ok for r in multis)


def test_instance_seeds_are_child_seeds():
    rep = run_edge_joint_suite(5, SEED)
    assert len({r.seed for r in rep.rows}) == 5
    again = run_edge_joint_suite(5, SEED)
    assert [r.seed for r in rep.rows] == [r.seed for r in again.rows]


# --- report serialization ---------------------------------------------------


def test_csv_shape():
    rep = run_edge_joint_suite(10, SEED)
    text = rep.to_csv()
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    expected = sum(len(r.predictions) for r in rep.rows)
    assert len(lines) == 1 + expected
    assert text.endswith("\n")
    for line in lines[1:]:
        assert len(line.split(",")) == 9


def test_csv_agrees_column_is_lowercase_bool():
    rep = run_edge_joint_suite(5, SEED)
    flags = {line.rsplit(",", 1)[1] for line in rep.to_csv().splitlines()[1:]}
    assert flags <= {"true", "false"}


def test_json_shape():
    rep = run_edge_joint_suite(20, SEED)
    obj = json.loads(rep.to_json())
    assert obj["suite"] == "edge-joint"
    assert obj["seed"] == SEED
    assert obj["instance_count"] == 20
    assert obj["engine_ok"] is True
    assert obj["config"] == {"count": "20", "seed": str(SEED)}
    stats = {s["formula_id"]: s for s in obj["formula_stats"]}
    assert stats["Thm21Interim"]["total"] == 20
    pct = stats["Thm21Interim"]["pct"]
    assert pct == round(100.0 * stats["Thm21Interim"]["agree"] / 20, 4)
    # only disagreeing rows are embedded
    for row in obj["disagreements"]:
        assert any(not p["agrees"] for p in row["predictions"]) or not row["engine_ok"]


def test_to_json_never_enters_the_pure_python_encoder(monkeypatch):
    # json.dumps with indent=2 builds its encoder with _make_iterencode; to_json must need none
    def refuse(*args, **kwargs):
        raise AssertionError("to_json entered json's pure-Python encoder")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    run, _, json_digest = GOLDEN["edge-joint"]
    assert hashlib.sha256(run().to_json().encode()).hexdigest() == json_digest


# quotes, backslashes, control characters, non-ASCII and lone surrogates, besides any code point
_SPECIAL = st.sampled_from('"\\\x00\n\x1f\x7f\u00e9\u2028\ud800\udfff')
_TEXT = st.text(st.characters(exclude_categories=()) | _SPECIAL, max_size=8)
_INTS = st.integers(-(2**63), 2**64 - 1)


@st.composite
def audit_reports(draw):
    """Reports with up to 4 rows, each engine-exact or not, with 0-4 predictions over a few formula ids."""
    fids = st.sampled_from(["A", "B", "C"]) | _TEXT
    predictions = st.lists(st.builds(PredictionOutcome, fids, _INTS, st.booleans(), st.booleans()), max_size=4)
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        before, after = draw(_INTS), draw(_INTS)
        engine = after - before if draw(st.booleans()) else draw(_INTS)
        rows.append(AuditRow(draw(_INTS), draw(_INTS), draw(_TEXT), before, after, engine, tuple(draw(predictions))))
    config = draw(st.lists(st.tuples(_TEXT, _TEXT), max_size=3))
    return AuditReport(draw(_TEXT), draw(_INTS), draw(_INTS), tuple(config), tuple(rows))


# formula A agrees 1 of 3 times (pct 33.3333), B 0 of 1 (0.0), C 1 of 1 (100.0)
_PCT_PREDICTIONS = (
    PredictionOutcome("A", 1, True, True),
    PredictionOutcome("A", 2, False, True),
    PredictionOutcome("A", 3, False, False),
    PredictionOutcome("B", 0, False, False),
    PredictionOutcome("C", -5, True, False),
)
_PCT_REPORT = AuditReport("s", -1, 1, (("k", "v"),), (AuditRow(0, 2**64 - 1, "op", 0, 1, 1, _PCT_PREDICTIONS),))


@settings(max_examples=100, deadline=None)
@given(audit_reports())
@example(AuditReport("", 0, 0, (), ()))
@example(_PCT_REPORT)
def test_to_json_equals_json_dumps_of_the_report_object(report):
    assert report.to_json() == report_json(report)


@settings(max_examples=100, deadline=None)
@given(audit_reports())
@example(AuditReport("", 0, 1, (), (AuditRow(0, 0, "op", 0, 1, 5, (PredictionOutcome("A", 1, True, False),)),)))
@example(_PCT_REPORT)
def test_the_one_pass_tally_keeps_the_definitions_of_stats_and_disagreements(report):
    # a disagreement is a row whose engine missed or one of whose formulas did, however many agree
    missed = tuple(row for row in report.rows if not row.engine_ok or not all(p.agrees for p in row.predictions))
    assert report.disagreements == missed
    assert report.engine_ok is all(row.engine_ok for row in report.rows)
    predictions = [p for row in report.rows for p in row.predictions]
    ids = [p.formula_id for p in predictions]
    agreeing = [p.formula_id for p in predictions if p.agrees]
    want = [(fid, agreeing.count(fid), ids.count(fid)) for fid in sorted(set(ids))]
    assert [(s.formula_id, s.agree, s.total) for s in report.formula_stats] == want


def test_the_pinned_report_has_each_pct_shape():
    assert [s.pct for s in _PCT_REPORT.formula_stats] == [33.3333, 0.0, 100.0]


def test_reports_are_reproducible():
    a = run_edge_joint_suite(40, SEED)
    b = run_edge_joint_suite(40, SEED)
    assert a.to_csv() == b.to_csv()
    assert a.to_json() == b.to_json()
    c = run_edge_joint_suite(40, SEED + 1)
    assert a.to_csv() != c.to_csv()


def test_formula_stats_are_sorted_and_consistent():
    rep = run_edge_joint_suite(50, SEED)
    ids = [s.formula_id for s in rep.formula_stats]
    assert ids == sorted(ids)
    for s in rep.formula_stats:
        assert 0 <= s.agree <= s.total
