"""Delivery gate: one test per numbered guarantee of the package.

Run with -v to get a pass/fail line per criterion. Every comparison is exact
integer equality; the only tolerances anywhere are the wall-clock budgets,
measured with time.perf_counter around the work they cover.
"""

import time

from totirr import DegreeMultiset, SplitMix64, edge_joint, irr_fast, irr_graph, irr_naive
from totirr.audit import (
    lemma34_suite,
    run_arc_transform_suite,
    run_closed_form_suite,
    run_edge_joint_suite,
    run_edge_transform_suite,
)
from totirr.cli import main
from totirr.generators import cycle, empty_graph, random_graph
from totirr.graphs import degree_multiset
from totirr.predictors import bipartite_closed_form, complete_closed_form, cycle_closed_form, path_closed_form, prop27

SEED = 0xC0FFEE


def test_criterion_1_closed_form_catalogue_is_exact():
    start = time.perf_counter()
    report = run_closed_form_suite(64)
    # the same ranges, checked against the arithmetic forms directly
    for n in range(1, 65):
        assert complete_closed_form(n) == n * (n * n - 1) // 6
    for m in range(1, 33):
        for n in range(1, 33):
            assert bipartite_closed_form(m, n) == (m * m * n, m * n * n)
    for n in range(2, 65):
        assert path_closed_form(n) == (n - 1, n - 1)
        for pos in range(1, n):
            expected_in = n - 1 if pos == 1 else 3 * n - 5
            expected_out = n - 1 if pos == n - 1 else 3 * n - 5
            assert path_closed_form(n, pos) == (expected_in, expected_out)
    for n in range(3, 65):
        assert cycle_closed_form(n) == (0, 0)
        assert cycle_closed_form(n, reverse=True) == (2 * (n - 1), 2 * (n - 1))
    elapsed = time.perf_counter() - start

    assert report.engine_ok
    stats = {s.formula_id: s for s in report.formula_stats}
    # totals pin the coverage: 64 complete sizes, 32x32 bipartite shapes,
    # every path and cycle reversal position, each in both degree modes
    assert {fid: (s.agree, s.total) for fid, s in stats.items()} == {
        "Lemma48": (128, 128),
        "Prop49": (2048, 2048),
        "Prop43": (4158, 4158),
        "Prop44": (4278, 4278),
    }
    assert all(s.pct == 100.0 for s in stats.values())
    assert elapsed < 5.0
    print(f"criterion 1: {len(report.rows)} closed-form rows exact in {elapsed:.2f}s")


def test_criterion_2_engine_delta_equals_oracle_recomputation():
    start = time.perf_counter()
    reports = [
        run_edge_joint_suite(1000, SEED),
        run_edge_transform_suite(1000, SEED),
        run_arc_transform_suite(1000, SEED),
    ]
    elapsed = time.perf_counter() - start
    for report in reports:
        assert report.instance_count == 1000
        assert report.engine_ok
        for row in report.rows:
            assert row.engine_delta == row.irr_after_oracle - row.irr_before
    assert elapsed < 30.0
    print(f"criterion 2: 3000 engine deltas match the oracle in {elapsed:.2f}s")


def test_criterion_3_joint_audit_witnesses_and_percentages():
    report = run_edge_joint_suite(1000, SEED)

    # first witness: two triangles joined at a vertex pair of equal degree
    row = report.rows[0]
    assert row.irr_after_oracle == 8
    outcome = {o.formula_id: o for o in row.predictions}["Prop27Equal"]
    assert (outcome.predicted, outcome.agrees) == (10, False)
    # second witness: two isolated vertices joined into a single edge
    row = report.rows[1]
    assert row.irr_after_oracle == 0
    outcome = {o.formula_id: o for o in row.predictions}["Prop27Equal"]
    assert (outcome.predicted, outcome.agrees) == (2, False)

    # re-derive both witnesses from the definitional oracle in place
    tri = cycle(3)
    assert irr_graph(edge_joint(tri, tri, 0, 0)) == 8
    assert prop27(3, 3, 2, 2) == 10
    dot = empty_graph(1)
    assert irr_graph(edge_joint(dot, dot, 0, 0)) == 0
    assert prop27(1, 1, 0, 0) == 2

    # agreement percentages exist for every formula family
    transform_report = run_edge_transform_suite(1000, SEED)
    arc_report = run_arc_transform_suite(1000, SEED)
    seen: dict[str, float] = {}
    for rep in (report, transform_report, arc_report):
        for stat in rep.formula_stats:
            seen[stat.formula_id] = stat.pct
            print(f"criterion 3: {rep.suite} {stat.formula_id}={stat.pct}")
    assert set(seen) == {
        "Thm21Interim", "Thm21FinalA", "Thm21FinalB",
        "Prop27Equal", "Prop27Greater",
        "Thm33Case1", "Thm33Case2", "Thm33Case3",
        "Prop47InCase1", "Prop47InCase2", "Prop47InCase3",
        "Prop47OutCase1", "Prop47OutCase2", "Prop47OutCase3",
    }

    # regenerating from the same seed reproduces the report byte for byte
    again = run_edge_joint_suite(1000, SEED)
    assert again.to_csv() == report.to_csv()
    assert again.to_json() == report.to_json()


def test_criterion_4_cut_edge_move_desk_instances_agree():
    report = run_edge_transform_suite(3, SEED)
    expected = [
        (4, 6, "Thm33Case2"),
        (6, 4, "Thm33Case3"),
        (8, 8, "Thm33Case1"),
    ]
    for row, (before, after, formula_id) in zip(report.rows, expected, strict=True):
        assert row.irr_before == before
        assert row.irr_after_oracle == after
        (outcome,) = row.predictions
        assert outcome.formula_id == formula_id
        assert outcome.predicted == after
        assert outcome.agrees
    print("criterion 4: 4->6, 6->4 and 8->8 desk instances all agree")


def test_criterion_5_branch_moves_strictly_decrease():
    start = time.perf_counter()
    report = lemma34_suite(500, SEED)
    elapsed = time.perf_counter() - start
    assert report.instance_count == 500
    assert report.engine_ok
    for row in report.rows:
        assert row.irr_after_oracle < row.irr_before
        (outcome,) = row.predictions
        assert outcome.agrees
    assert elapsed < 10.0
    print(f"criterion 5: 500 branch moves, zero violations, {elapsed:.2f}s")


def _matched_pairs(g1, g2, rng):
    """Two distinct cross pairs (u, v) with deg_g1(u) == deg_g2(v), or None."""
    by_degree: dict[int, list[int]] = {}
    for v in range(g2.vertex_count):
        by_degree.setdefault(g2.degree(v), []).append(v)
    candidates = [
        (u, w)
        for u in range(g1.vertex_count)
        for w in by_degree.get(g1.degree(u), ())
    ]
    if len(candidates) < 2:
        return None
    first = candidates[rng.below(len(candidates))]
    rest = [pair for pair in candidates if pair != first]
    return first, rest[rng.below(len(rest))]


def test_criterion_6_matched_degree_joints_coincide():
    # joining at (u_i, v_l) or at (u_k, v_j) must give the same value whenever
    # deg(u_i) == deg(v_j) and deg(u_k) == deg(v_l)
    root = SplitMix64(SEED)
    built = 0
    attempts = 0
    while built < 200:
        assert attempts < 2000, "matched-pair sampling stalled"
        rng = root.child(attempts)
        attempts += 1
        g1 = random_graph(2 + rng.below(20), rng.below(3), rng.child(0))
        g2 = random_graph(2 + rng.below(20), rng.below(3), rng.child(1))
        pairs = _matched_pairs(g1, g2, rng)
        if pairs is None:
            continue
        (u_i, v_j), (u_k, v_l) = pairs
        left = edge_joint(g1, g2, u_i, v_l)
        right = edge_joint(g1, g2, u_k, v_j)
        assert degree_multiset(left) == degree_multiset(right)
        assert irr_graph(left) == irr_graph(right)
        built += 1
    print(f"criterion 6: {built} matched-degree joints equal ({attempts} draws)")


def test_criterion_7_fast_path_equivalence_and_speed():
    root = SplitMix64(SEED)
    for idx in range(500):
        rng = root.child(idx)
        # last 20 multisets stress the upper end of the size range
        n = 1 + rng.below(400) if idx < 480 else 1000 + rng.below(1001)
        dm = DegreeMultiset.from_degrees(rng.below(3 * n + 1) for _ in range(n))
        assert irr_fast(dm) == irr_naive(dm)

    big_n = 1_000_000
    big = DegreeMultiset.from_entries((d, 1) for d in range(big_n))
    start = time.perf_counter()
    value = irr_fast(big)
    elapsed = time.perf_counter() - start
    # distinct degrees 0..n-1 sum to n(n^2 - 1)/6 over all pairs
    assert value == big_n * (big_n * big_n - 1) // 6
    assert elapsed < 1.0
    print(f"criterion 7: 500 multisets exact, 1e6-vertex fast path {elapsed:.3f}s")


def test_criterion_8_repeated_audit_runs_are_byte_identical(tmp_path, capsys):
    for fmt in ("csv", "json"):
        first = tmp_path / f"first.{fmt}"
        second = tmp_path / f"second.{fmt}"
        outputs = []
        for target in (first, second):
            assert main([
                "audit", "--suite", "edge-joint",
                "--instances", "120", "--seed", "0xC0FFEE",
                "--format", fmt, "--out", str(target),
            ]) == 0
            outputs.append(capsys.readouterr().out)
        assert first.read_bytes() == second.read_bytes()
        assert outputs[0] == outputs[1]
        assert first.read_bytes() != b""
    print("criterion 8: audit reruns byte-identical for csv and json")
