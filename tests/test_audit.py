import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totirr import EditOp, Graph, GraphError, SplitMix64, audit, graphs, irr_naive, irregularity, transforms
from totirr.audit import (
    CSV_HEADER,
    _branch_candidates,
    lemma34_suite,
    run_arc_transform_suite,
    run_closed_form_suite,
    run_edge_joint_suite,
    run_edge_transform_suite,
)
from totirr.graphs import degree_multiset

from strategies import branch_candidates

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
    return Graph(n, tuple(pairs), allow_parallel=True, allow_loops=True)


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
    """A reversal instance writes its mode=in row, then its mode=out row, from one plan; other rows edit nothing."""
    op = row.operation
    return "reverse=" in op and "reverse=none" not in op and op.endswith("mode=in")


# a row's edit and its price share one plan; a joint row plans a removal on the joined
# graph, then the joint on the union
@pytest.mark.parametrize(
    "suite, plans_per_row",
    [
        (lambda: run_edge_joint_suite(40, SEED), lambda row: 2),
        (lambda: run_edge_transform_suite(40, SEED), lambda row: 1),
        (lambda: run_arc_transform_suite(40, SEED), lambda row: 1),
        (lambda: lemma34_suite(40, SEED), lambda row: 1),
        (lambda: run_closed_form_suite(10), _closed_form_plans),
    ],
    ids=["edge-joint", "edge-transform", "arc-transform", "lemma34", "closed-forms"],
)
def test_each_audited_edit_is_planned_once(monkeypatch, suite, plans_per_row):
    plans = []
    real = graphs._edit_plan

    def counting(g, op):
        plans.append(op)
        return real(g, op)

    for module in (graphs, irregularity):  # and any alias a caller imported by name
        monkeypatch.setattr(module, "_edit_plan", counting, raising=False)
    report = suite()
    assert len(plans) == sum(map(plans_per_row, report.rows)) > 0


def test_each_drawn_instance_is_validated_once(monkeypatch):
    built = []
    real = Graph.__post_init__

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(Graph, "__post_init__", counting)
    root = SplitMix64(SEED)
    for draw in (audit._random_edge_transform_instance, audit._random_branch_instance):
        for iid in range(3, 40):  # every fifth edge-transform instance is a multigraph
            built.clear()
            instance = draw(iid, root.child(iid))
            assert len(built) == 1 and built[0] is instance[0], (draw.__name__, iid)


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
