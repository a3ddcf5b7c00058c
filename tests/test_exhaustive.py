"""Every move on every small labelled graph or digraph, not a sample.

The retargets run through transforms._retarget, the one path that the CLI and
both transform suites take, and are scored by audit.transform_row. The branch
moves compare audit._branch_candidates with the per-neighbour reference and
check Lemma 3.4 through branch_transformation, and, with its hypotheses
dropped, which of them the decrease needs. The extremal values of irr_t
over all graphs and all labelled trees, and its bound by Albertson's
irregularity, are found by brute force. The counts pin the enumeration, so a
move or a graph that is silently skipped fails too. Since irr_t is a function
of the degree sequence, its maximum is also found over every graphic sequence,
up to order 10, and its tree maximum over every tree degree sequence, up to
order 16. irr_in is a function of the in-degrees alone, so its maximum over
every tournament (Landau's score test, up to order 12) and over every
orientation of K_{m,n} (the Gale-Ryser test, up to 6 by 6) is found the same way.
"""

from collections import Counter
from itertools import accumulate, combinations, combinations_with_replacement, compress, product

from totirr import DegreeMultiset, Digraph, EditOp, Graph, apply_edit, branch_transformation, cut_side, irr_graph
from totirr.audit import _branch_candidates, transform_row
from totirr.generators import complete, orient_by_labeling, orient_left_right, star
from totirr.irregularity import irr_digraph, irr_fast
from totirr.predictors import bipartite_closed_form, complete_closed_form
from totirr.transforms import _retarget

from strategies import branch_candidates, connected_components


def every_graph(n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for keep in product((0, 1), repeat=len(pairs)):
        yield Graph(n, tuple(compress(pairs, keep)))


def every_digraph(n):
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for keep in product((0, 1), repeat=len(pairs)):
        yield Digraph(n, tuple(compress(pairs, keep)))


def bridge_moves(g):
    """Both orientations of every bridge, onto every other vertex on the moved end's side."""
    for a, b in g.edges:
        for moved, kept in ((a, b), (b, a)):
            side = cut_side(g, kept, moved)
            for target in side or ():
                if target != moved:
                    yield EditOp.retarget_edge(moved, kept, target)


def fresh_arc_moves(d):
    """Every head and tail retarget whose new arc is fresh."""
    for tail, head in d.arcs:
        for target in range(d.vertex_count):
            if target not in (tail, head):
                if (tail, target) not in d.arcs:
                    yield EditOp.retarget_head(tail, head, target)
                if (target, head) not in d.arcs:
                    yield EditOp.retarget_tail(tail, head, target)


def audited(values, moves):
    """The move count per value order, after asserting every move's row is exact and every formula agrees."""
    counts = {}
    for g in values:
        for op in moves(g):
            row = transform_row(0, 0, (g, "exhaustive", op), _retarget(g, op))
            assert row.engine_ok, row
            assert all(p.agrees for p in row.predictions), row
            counts[g.vertex_count] = counts.get(g.vertex_count, 0) + 1
    return counts


def test_every_bridge_retarget_up_to_order_5_agrees_with_thm33():
    values = (g for n in (3, 4, 5) for g in every_graph(n))
    counts = audited(values, bridge_moves)
    assert sum(counts.values()) == 3870
    assert counts[5] == 3720


def test_every_fresh_arc_retarget_at_order_4_agrees_with_prop47():
    assert audited(every_digraph(4), fresh_arc_moves) == {4: 49152}


def test_branch_candidates_match_the_reference_on_every_graph_of_order_6():
    total = 0
    for g in every_graph(6):
        candidates = _branch_candidates(g)
        assert candidates == branch_candidates(g), g
        total += len(candidates)
    assert total == 22920


def test_every_branch_move_of_order_5_lowers_irr_t():
    total = 0
    for g in every_graph(5):
        before = irr_graph(g)
        for u, root, v in _branch_candidates(g):
            assert irr_graph(branch_transformation(g, u, v, root)) < before, (g, u, root, v)
            total += 1
    assert total == 720


def test_every_branch_move_of_order_6_lowers_irr_t():
    total = 0
    # Lemma 3.4 without its hypotheses: every other bridge end u, onto every pendant v off root's side,
    # tallied by (deg u >= 3, the side is a tree) as [moves, moves that lower irr_t]
    ablated = {}
    for g in every_graph(6):
        before = irr_graph(g)
        for u, root, v in _branch_candidates(g):
            assert irr_graph(branch_transformation(g, u, v, root)) < before, (g, u, root, v)
            total += 1
        deg = g.degrees
        pendants = [v for v in range(6) if deg[v] == 1]
        for a, b in g.edges if pendants else ():
            for u, root in ((a, b), (b, a)):
                side = cut_side(g, u, root)
                if side is None:
                    break  # no bridge, seen from either end
                tree = sum(deg[w] for w in side) == 2 * len(side) - 1  # inner edges counted twice, the bridge once
                if deg[u] >= 3 and tree:
                    continue  # a valid move, checked above
                tally = ablated.setdefault((deg[u] >= 3, tree), [0, 0])
                for v in pendants:
                    if v != u and v not in side:
                        tally[0] += 1
                        tally[1] += irr_graph(apply_edit(g, EditOp.retarget_edge(u, root, v))) < before
    assert total == 22920
    # a cyclic side lowers irr_t too; an attachment of degree <= 2 never does, whatever its side
    assert ablated == {(True, False): [360, 360], (False, True): [22680, 0], (False, False): [3720, 0]}


def albertson_irr(g):
    """Albertson's irregularity: the sum over edges of |d(u) - d(v)|."""
    return sum(abs(g.degrees[a] - g.degrees[b]) for a, b in g.edges)


def test_max_irr_t_and_the_albertson_bound_on_every_graph_up_to_order_6():
    connected = {}
    for n in range(1, 7):
        top = 0
        for g in every_graph(n):
            irr_t = irr_graph(g)
            top = max(top, irr_t)
            if len(connected_components(g)) == 1:
                assert 4 * irr_t <= n * n * albertson_irr(g), g  # irr_t <= n^2 irr / 4 on a connected graph
                connected[n] = connected.get(n, 0) + 1
        # the largest irr_t of a graph of order n, and the values it takes for n = 1..6
        assert top == (2 * n**3 - 3 * n**2 - 2 * n + 3) // 12 == [0, 0, 2, 6, 14, 26][n - 1], n
    assert connected == {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}
    k2_and_k1 = Graph(3, ((0, 1),))  # disconnected: the bound fails
    assert 4 * irr_graph(k2_and_k1) == 8 > 3 * 3 * albertson_irr(k2_and_k1) == 0


def labelled_trees(n):
    """Every labelled tree of order n >= 2, once each, decoded from its Pruefer sequence."""
    for code in product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in code:
            degree[v] += 1
        edges = []
        for v in code:
            leaf = degree.index(1)  # the least leaf
            edges.append((leaf, v))
            degree[leaf] -= 1
            degree[v] -= 1
        edges.append(tuple(u for u in range(n) if degree[u] == 1))
        yield Graph(n, edges)


def test_the_star_has_the_largest_irr_t_of_every_tree_up_to_order_7():
    for n in range(2, 8):
        seen = set()
        top = 0
        for tree in labelled_trees(n):
            assert len(connected_components(tree)) == 1, tree
            seen.add(tree.edges)
            irr_t = irr_graph(tree)
            assert irr_t <= (n - 2) * albertson_irr(tree), tree  # a tree's own bound by Albertson's irr
            top = max(top, irr_t)
        assert len(seen) == n ** (n - 2)  # Cayley's formula: no tree is missed or repeated
        assert top == (n - 1) * (n - 2) == irr_graph(star(n - 1))


def graphic_sequences(n):
    """Every non-increasing degree sequence of a simple graph of order n, by the Erdos-Gallai test."""
    for ascending in combinations_with_replacement(range(n), n):
        seq = ascending[::-1]
        head = list(accumulate(seq))
        if head[-1] % 2 == 0 and all(
            head[k - 1] <= k * (k - 1) + sum(min(d, k) for d in seq[k:]) for k in range(1, n + 1)
        ):
            yield seq


def test_max_irr_t_over_every_graphic_sequence_up_to_order_10():
    counts = []
    tops = []
    for n in range(1, 11):
        scores = [irr_fast(DegreeMultiset.from_degrees(seq)) for seq in graphic_sequences(n)]
        counts.append(len(scores))
        tops.append(max(scores))
    # graphic sequences of order n, OEIS A004251: no sequence is missed or repeated
    assert counts == [1, 2, 4, 11, 31, 102, 342, 1213, 4361, 16016]
    # the labelled-graph maximum above, carried on to n = 7..10
    assert tops == [(2 * n**3 - 3 * n**2 - 2 * n + 3) // 12 for n in range(1, 11)]
    assert tops == [0, 0, 2, 6, 14, 26, 44, 68, 100, 140]


def partitions(total, largest):
    """Every partition of total into parts of at most largest, as a non-increasing tuple, once."""
    if total == 0:
        yield ()
        return
    for part in range(min(total, largest), 0, -1):
        for rest in partitions(total - part, part):
            yield (part, *rest)


def test_the_star_has_the_largest_irr_t_of_every_tree_degree_sequence_up_to_order_16():
    counts = []
    tops = []
    for n in range(2, 17):
        # n parts >= 1 summing to 2n - 2 are a tree's degrees, and each is n ones plus a partition of the n - 2 excess
        scores = [
            irr_fast(DegreeMultiset.from_degrees([1 + p for p in excess] + [1] * (n - len(excess))))
            for excess in partitions(n - 2, n - 2)
        ]
        counts.append(len(scores))
        tops.append(max(scores))
    # partitions of n - 2, OEIS A000041: no sequence is missed or repeated
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135]
    assert tops == [(n - 1) * (n - 2) for n in range(2, 17)]


def score_sequences(n):
    """Every non-decreasing score (out-degree) sequence of a tournament of order n, by Landau's test: the k
    smallest scores sum to at least C(k, 2), and all n to C(n, 2)."""
    total = n * (n - 1) // 2

    def extend(seq, s):
        k = len(seq)
        if k == n:  # the test at k = n and the cut below leave s == total
            yield tuple(seq)
            return
        for d in range(seq[-1] if seq else 0, n):
            if s + d * (n - k) > total:  # the rest, each at least d, would pass C(n, 2)
                break
            if s + d >= (k + 1) * k // 2:
                yield from extend([*seq, d], s + d)

    yield from extend([], 0)


def test_the_transitive_tournament_has_the_largest_irr_in_of_every_score_sequence_up_to_order_12():
    for n in range(1, 6):  # Landau's test against the scores of every tournament
        pairs = list(combinations(range(n), 2))
        seen = set()
        for bits in product((0, 1), repeat=len(pairs)):  # a pair's bit picks the end its arc leaves
            wins = Counter(pair[b] for pair, b in zip(pairs, bits))
            seen.add(tuple(sorted(wins[v] for v in range(n))))
        assert seen == set(score_sequences(n))
    counts = []
    tops = []
    for n in range(1, 13):
        # a vertex's in-degree is n - 1 less its score
        scores = [irr_fast(DegreeMultiset.from_degrees([n - 1 - s for s in seq])) for seq in score_sequences(n)]
        counts.append(len(scores))
        tops.append(max(scores))
    # score sequences of order n, OEIS A000571: no sequence is missed or repeated
    assert counts == [1, 1, 2, 4, 9, 22, 59, 167, 490, 1486, 4639, 14805]
    # Lemma 4.8's transitive orientation reaches the maximum
    assert tops == [complete_closed_form(n) for n in range(1, 13)]
    assert tops == [irr_digraph(orient_by_labeling(complete(n), range(n))).irr_in for n in range(1, 13)]


def bipartite_degrees(m, n):
    """(row sums, column sums) of every m x n 0-1 matrix, each non-increasing, by the Gale-Ryser test: the k
    largest row sums total at most the column sums capped at k. Row i is K_{m,n}'s left vertex i, and a 1 at
    (i, j) its arc to right vertex j: a row sum is an out-degree, a column sum an in-degree."""
    by_total = {}  # column sums by their total, each with its capped totals for k = 1..m
    for cols in combinations_with_replacement(range(m, -1, -1), n):
        capped = [sum(min(c, k) for c in cols) for k in range(1, m + 1)]
        by_total.setdefault(sum(cols), []).append((cols, capped))
    for rows in combinations_with_replacement(range(n, -1, -1), m):
        head = list(accumulate(rows))
        for cols, capped in by_total.get(head[-1], ()):
            if all(map(int.__le__, head, capped)):
                yield rows, cols


def test_the_largest_irr_in_of_every_orientation_of_k_m_n_up_to_6_by_6():
    for m, n in product(range(1, 4), repeat=2):  # Gale-Ryser against the sums of every matrix
        seen = set()
        for bits in product((0, 1), repeat=m * n):
            rows = [bits[i * n : (i + 1) * n] for i in range(m)]
            seen.add((tuple(sorted(map(sum, rows), reverse=True)), tuple(sorted(map(sum, zip(*rows)), reverse=True))))
        assert seen == set(bipartite_degrees(m, n))
    for m, n in product(range(1, 7), repeat=2):
        top = max(irr_fast(DegreeMultiset.from_degrees([n - r for r in rows] + list(cols)))
                  for rows, cols in bipartite_degrees(m, n))
        assert top == m * n * max(m, n)
        # Prop 4.9's left-to-right orientation gives m^2 n: the maximum only when the left side is not the smaller
        assert bipartite_closed_form(m, n).irr_in == irr_digraph(orient_left_right(m, n)).irr_in == m * m * n
        assert (m * m * n == top) == (m >= n)
