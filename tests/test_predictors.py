from types import SimpleNamespace

from hypothesis import given
from hypothesis import strategies as st

from totirr import DegreeMultiset, Digraph, joint_partition
from totirr.irregularity import IrrPair, irr_digraph
from totirr.partitions import Relation, TransformPartitionCounts
from totirr.predictors import (
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


def dm(*degrees):
    return DegreeMultiset.from_degrees(degrees)


# --- joint formulas ---------------------------------------------------------


def test_interim_on_fixed_counts():
    p = joint_partition(dm(2, 2, 2), dm(2, 2, 2), 2, 2)
    assert thm21_interim(p) == 8
    q = joint_partition(dm(3, 3, 3, 3), dm(2, 2, 2), 3, 2)
    assert thm21_interim(q) == 2
    # formula at the origin, on counts that no joint_partition returns
    zero = SimpleNamespace(a=0, b=0, a_star=0, b_star=0, c=0, d=0, c_star=0, d_star=0, n=0)
    assert thm21_interim(zero) == -2


def test_final_on_fixed_counts():
    p = joint_partition(dm(2, 2, 2), dm(2, 2, 2), 2, 2)
    assert thm21_final(p) == (10, 10)
    q = joint_partition(dm(3, 3, 3, 3), dm(2, 2, 2), 3, 2)
    assert thm21_final(q) == (4, 4)
    zero = SimpleNamespace(a=0, b=0, a_star=0, b_star=0, c=0, d=0, c_star=0, d_star=0, n=0)
    assert thm21_final(zero) == (-2, 2)


def test_regular_joint_formula():
    assert prop27(3, 3, 2, 2) == 10
    assert prop27(4, 3, 3, 2) == 18
    assert prop27(1, 1, 0, 0) == 2


def test_regular_joint_formula_ids():
    assert prop27_formula_id(2, 2) is FormulaId.PROP27_EQUAL
    assert prop27_formula_id(3, 2) is FormulaId.PROP27_GREATER
    assert prop27_formula_id(2, 3) is FormulaId.PROP27_GREATER


# --- transform formulas -----------------------------------------------------


def _tcounts(relation, h=0, s=0, t=0, m=0, l=0, m1=0, l1=0):
    return TransformPartitionCounts(h=h, s=s, t=t, m=m, l=l, m1=m1, l1=l1, relation=relation)


def test_transform_prediction_cases():
    assert thm33_predict(8, _tcounts(Relation.EQUAL, h=1)) == 8
    assert thm33_predict(4, _tcounts(Relation.ABOVE, h=1, s=1, m=1)) == 6
    assert thm33_predict(6, _tcounts(Relation.BELOW, h=1, t=3, m1=3)) == 6 - 2 * 1
    assert thm33_predict(6, _tcounts(Relation.BELOW, h=1, t=3, m1=2, l1=1)) == 6 - 2 * (1 + 1)


def test_transform_formula_ids():
    assert transform_formula_id("undirected", Relation.EQUAL) is FormulaId.THM33_CASE1
    assert transform_formula_id("undirected", Relation.ABOVE) is FormulaId.THM33_CASE2
    assert transform_formula_id("undirected", Relation.BELOW) is FormulaId.THM33_CASE3


def test_arc_prediction_cases():
    # the directed cases reuse thm33_predict on in- or out-degree counts
    assert thm33_predict(5, _tcounts(Relation.EQUAL, h=1)) == 5
    assert thm33_predict(3, _tcounts(Relation.ABOVE, h=1, s=2, m=2)) == 7
    assert thm33_predict(9, _tcounts(Relation.BELOW, h=2, t=1, m1=0, l1=1)) == 3


def test_arc_formula_ids():
    # Prop 4.7 is the Thm 3.3 case split taken on in- or out-degrees
    assert transform_formula_id("in", Relation.EQUAL) is FormulaId.PROP47_IN_CASE1
    assert transform_formula_id("in", Relation.ABOVE) is FormulaId.PROP47_IN_CASE2
    assert transform_formula_id("in", Relation.BELOW) is FormulaId.PROP47_IN_CASE3
    assert transform_formula_id("out", Relation.EQUAL) is FormulaId.PROP47_OUT_CASE1
    assert transform_formula_id("out", Relation.ABOVE) is FormulaId.PROP47_OUT_CASE2
    assert transform_formula_id("out", Relation.BELOW) is FormulaId.PROP47_OUT_CASE3


# --- closed forms -----------------------------------------------------------


def test_path_closed_form_values():
    assert path_closed_form(5) == IrrPair(4, 4)
    assert path_closed_form(5, 3) == IrrPair(10, 10)
    assert path_closed_form(5, 1) == IrrPair(4, 10)
    assert path_closed_form(5, 4) == IrrPair(10, 4)
    assert path_closed_form(2) == IrrPair(1, 1)
    assert path_closed_form(2, 1) == IrrPair(1, 1)


def test_cycle_closed_form_values():
    assert cycle_closed_form(7) == IrrPair(0, 0)
    assert cycle_closed_form(7, reverse=True) == IrrPair(12, 12)
    assert cycle_closed_form(3, reverse=True) == IrrPair(4, 4)


def test_complete_closed_form_values():
    assert complete_closed_form(1) == 0
    assert complete_closed_form(4) == 10
    assert complete_closed_form(6) == 35


def test_bipartite_closed_form_values():
    assert bipartite_closed_form(2, 3) == IrrPair(12, 18)
    assert bipartite_closed_form(1, 5) == IrrPair(5, 25)
    assert bipartite_closed_form(1, 1) == IrrPair(1, 1)


@given(st.integers(1, 40))
def test_complete_closed_form_matches_construction(n):
    arcs = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    pair = irr_digraph(Digraph(n, arcs))
    want = complete_closed_form(n)
    assert pair == IrrPair(want, want)


@given(st.integers(1, 12), st.integers(1, 12))
def test_bipartite_closed_form_matches_construction(m, n):
    arcs = tuple((i, m + j) for i in range(m) for j in range(n))
    assert irr_digraph(Digraph(m + n, arcs)) == bipartite_closed_form(m, n)


@given(st.integers(2, 30), st.data())
def test_path_closed_form_matches_construction(n, data):
    arcs = [(i, i + 1) for i in range(n - 1)]
    pos = data.draw(st.one_of(st.none(), st.integers(1, n - 1)))
    if pos is not None:
        arcs[pos - 1] = (arcs[pos - 1][1], arcs[pos - 1][0])
    assert irr_digraph(Digraph(n, tuple(arcs))) == path_closed_form(n, pos)


@given(st.integers(3, 30), st.booleans(), st.data())
def test_cycle_closed_form_matches_construction(n, flip, data):
    arcs = [(i, (i + 1) % n) for i in range(n)]
    if flip:
        k = data.draw(st.integers(0, n - 1))
        arcs[k] = (arcs[k][1], arcs[k][0])
    assert irr_digraph(Digraph(n, tuple(arcs))) == cycle_closed_form(n, reverse=flip)


# --- formula id table -------------------------------------------------------


def test_formula_id_wire_values():
    assert FormulaId.THM21_INTERIM.value == "Thm21Interim"
    assert FormulaId.THM21_FINAL_A.value == "Thm21FinalA"
    assert FormulaId.THM21_FINAL_B.value == "Thm21FinalB"
    assert FormulaId.PROP27_EQUAL.value == "Prop27Equal"
    assert FormulaId.PROP27_GREATER.value == "Prop27Greater"
    assert FormulaId.THM33_CASE1.value == "Thm33Case1"
    assert FormulaId.PROP47_IN_CASE2.value == "Prop47InCase2"
    assert FormulaId.PROP47_OUT_CASE3.value == "Prop47OutCase3"
    assert FormulaId.PROP43.value == "Prop43"
    assert FormulaId.PROP44.value == "Prop44"
    assert FormulaId.LEMMA48.value == "Lemma48"
    assert FormulaId.PROP49.value == "Prop49"
    assert FormulaId.LEMMA34.value == "Lemma34"


def test_delta_flags():
    deltas = {fid for fid in FormulaId if fid.is_delta}
    assert deltas == {FormulaId.THM21_INTERIM, FormulaId.THM21_FINAL_A, FormulaId.THM21_FINAL_B}
