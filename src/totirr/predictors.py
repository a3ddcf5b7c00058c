"""Published prediction formulas, implemented literally and never trusted.

Each function transcribes one closed-form claim about how total irregularity
behaves under a graph operation; it takes the domain its one caller in `audit`
guarantees and checks no argument. Formula ids are the stable wire tokens that
audit reports and CLI output name every prediction by. Each prediction is a
delta or an absolute irr that the audit compares against the oracle, so
nothing here consults a graph. Counts in, numbers out.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Tuple

from .irregularity import IrrPair
from .partitions import JointPartitionCounts, Relation, TransformPartitionCounts


class FormulaId(str, Enum):
    THM21_INTERIM = "Thm21Interim"
    THM21_FINAL_A = "Thm21FinalA"
    THM21_FINAL_B = "Thm21FinalB"
    PROP27_EQUAL = "Prop27Equal"
    PROP27_GREATER = "Prop27Greater"
    THM33_CASE1 = "Thm33Case1"
    THM33_CASE2 = "Thm33Case2"
    THM33_CASE3 = "Thm33Case3"
    PROP47_IN_CASE1 = "Prop47InCase1"
    PROP47_IN_CASE2 = "Prop47InCase2"
    PROP47_IN_CASE3 = "Prop47InCase3"
    PROP47_OUT_CASE1 = "Prop47OutCase1"
    PROP47_OUT_CASE2 = "Prop47OutCase2"
    PROP47_OUT_CASE3 = "Prop47OutCase3"
    PROP43 = "Prop43"
    PROP44 = "Prop44"
    LEMMA48 = "Lemma48"
    PROP49 = "Prop49"
    LEMMA34 = "Lemma34"

    @property
    def is_delta(self) -> bool:
        """True for delta-valued formulas, False for absolute ones.

        Delta-valued formulas predict irr(after) - irr(before the new edge,
        i.e. of the disjoint union); absolute ones predict irr(after)
        outright. LEMMA34 is the odd one out: its "prediction" is the strict
        pre-edit upper bound.
        """
        return self in (FormulaId.THM21_INTERIM, FormulaId.THM21_FINAL_A, FormulaId.THM21_FINAL_B)


def thm21_interim(p: JointPartitionCounts) -> int:
    """Interim joint delta: signed class sums, one -2 adjustment."""
    return (p.a - p.b) + (p.a_star - p.b_star) + (p.c - p.d) + (p.c_star - p.d_star) - 2


def thm21_final(p: JointPartitionCounts) -> Tuple[int, int]:
    """Both final joint-delta forms (complement-substituted variants)."""
    form_a = 2 * p.n - 2 * (p.b + p.b_star + p.d + p.d_star) - 2
    form_b = 2 * (p.a + p.a_star + p.c + p.c_star) - 2 * p.n + 2
    return form_a, form_b


def prop27(n: int, m: int, deg_u: int, deg_v: int) -> int:
    """Absolute irr claimed for joining two regular graphs at u and v.

    n and deg_u belong to the side with the larger (or equal) degree.
    """
    if deg_u == deg_v:
        return 2 * (n + m) - 2
    return n * m * (deg_u - deg_v) + 2 * (n - 1)


def prop27_formula_id(deg_u: int, deg_v: int) -> FormulaId:
    return FormulaId.PROP27_EQUAL if deg_u == deg_v else FormulaId.PROP27_GREATER


def thm33_predict(base_irr: int, p: TransformPartitionCounts) -> int:
    """Absolute irr claimed after an edge or arc end moves, keyed on the relation.

    Prop 4.7's directed cases are this formula on in- or out-degree counts.
    """
    if p.relation is Relation.EQUAL:
        return base_irr
    if p.relation is Relation.ABOVE:
        return base_irr + 2 * p.m
    return base_irr - 2 * (p.h + p.l1)


# relation -> the case of Thm 3.3, and of Prop 4.7 in either mode, that it selects
_CASES = {Relation.EQUAL: 1, Relation.ABOVE: 2, Relation.BELOW: 3}


def transform_formula_id(mode: str, relation: Relation) -> FormulaId:
    """The case of Thm 3.3 (mode undirected) or of Prop 4.7 (in or out) that relation selects."""
    family = "Thm33" if mode == "undirected" else f"Prop47{mode.title()}"
    return FormulaId(f"{family}Case{_CASES[relation]}")


def path_closed_form(n: int, reversed_arc: Optional[int] = None) -> IrrPair:
    """(in, out) irr of a consistently oriented path, optionally one arc reversed.

    reversed_arc is the 1-based arc position (arc i joins vertices i-1 and i
    of the path); None means the unmodified orientation. Position 1 counts as
    the first arc and position n-1 as the last; for n = 2 the two closed forms
    coincide at n - 1.
    """
    if reversed_arc is None:
        return IrrPair(n - 1, n - 1)
    irr_in = n - 1 if reversed_arc == 1 else 3 * n - 5
    irr_out = n - 1 if reversed_arc == n - 1 else 3 * n - 5
    return IrrPair(irr_in, irr_out)


def cycle_closed_form(n: int, reverse: bool = False) -> IrrPair:
    """(in, out) irr of a consistently oriented cycle; any one arc reversed."""
    if not reverse:
        return IrrPair(0, 0)
    return IrrPair(2 * (n - 1), 2 * (n - 1))


def complete_closed_form(n: int) -> int:
    """Common in and out irr of the transitive complete orientation; 6 divides n(n^2 - 1) = (n - 1)n(n + 1)."""
    return n * (n * n - 1) // 6


def bipartite_closed_form(m: int, n: int) -> IrrPair:
    """(in, out) irr of the complete bipartite left-to-right orientation."""
    return IrrPair(m * m * n, m * n * n)
