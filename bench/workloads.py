"""The benchmark's three workloads.

Each workload is a closed loop: one client in one thread issues the next
operation only after the previous one returned. A workload object does its
set-up in the constructor (that is what `setup_s` times) and then runs
identical rounds: `run_round(op)` replays the same operations on the same
inputs and returns a `Round`. `op(fn, *args)` runs one operation; the
traced mode passes a function that also opens the operation's root span.

`workers` is how many worker processes, each on its own input set, an
untraced run splits its time over (bench/worker.py). More input sets steady
a workload whose cost varies with the seed; more rounds per input set steady
the per-op latencies.

Correctness is checked by the benchmark itself, outside the timed region:
irregularity values are recomputed from the benchmark's own degree lists
with `irr_of`, never with `totirr`. The program under test only receives the
generated inputs (values, edit operations, files, seeds).

    edit-walk     one op = exact_delta_for_edit + apply_edit on a tree of a
                  few thousand vertices or on its oriented digraph
    audit-suites  one op = one audit row of the five suite runners
    cli-files     one op = one `totirr.cli.main(argv)` call on edge-list files
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import random
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter


def irr_of(degrees) -> int:
    """Total irregularity by the sorted-prefix formula; independent of totirr.

    With degrees ascending d_0 <= ... <= d_{n-1}, sum over pairs |d_i - d_j|
    equals sum_j (2j - n + 1) * d_j.
    """
    s = sorted(degrees)
    n = len(s)
    return sum((2 * j - n + 1) * d for j, d in enumerate(s))


@dataclass
class Round:
    ops: list  # (start, end) perf_counter times, one per op, in issue order
    segments: list  # (start, end) of the timed work; their durations sum to the round's wall time
    attempted: int
    failed: int
    digest: str  # hash of the round's outputs; identical rounds give identical digests

    def timed(self, clock) -> Timing:
        """The round's durations by `clock(start, end)`; see bench/speed.py."""
        return Timing([clock(a, b) for a, b in self.ops], sum(clock(a, b) for a, b in self.segments),
                      self.attempted, self.failed, self.digest)


@dataclass
class Timing:
    latencies: list  # seconds, one per op, in issue order
    wall: float  # seconds of timed work in the round
    attempted: int
    failed: int
    digest: str


def _report_exception(where: str) -> None:
    print(f"bench: unexpected exception in {where}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _degrees(n: int, pairs) -> list[int]:
    deg = [0] * n
    for a, b in pairs:
        deg[a] += 1
        deg[b] += 1
    return deg


def _in_out(n: int, arcs) -> tuple[list[int], list[int]]:
    din = [0] * n
    dout = [0] * n
    for t, h in arcs:
        dout[t] += 1
        din[h] += 1
    return din, dout


class _IndexedSet:
    """Set with O(1) uniform sampling and removal; the walk's own edge store."""

    def __init__(self, items):
        self.items = list(items)
        self.index = {x: i for i, x in enumerate(self.items)}

    def __contains__(self, x):
        return x in self.index

    def __len__(self):
        return len(self.items)

    def add(self, x):
        self.index[x] = len(self.items)
        self.items.append(x)

    def remove(self, x):
        i = self.index.pop(x)
        last = self.items.pop()
        if i < len(self.items):
            self.items[i] = last
            self.index[last] = i

    def sample(self, rng):
        return self.items[rng.randrange(len(self.items))]


# --- edit-walk --------------------------------------------------------------


class EditWalk:
    """Long walk of valid edits over a random tree and its oriented digraph.

    Why: this is the incremental edit path. Each op should cost what the edit
    touches, not O(n); today every edit rebuilds the degree multiset and
    re-sorts every edge. It calls no move-branch, oracle, file I/O or
    cut-edge check, so it is the bypass workload for those layers.
    """

    name = "edit-walk"
    workers = 6
    SIZES = {
        "full": {"n": 2000, "edits": 1000, "checkpoint": 100},
        "tiny": {"n": 40, "edits": 60, "checkpoint": 20},
    }

    def __init__(self, tot, seed: int, size: str, workdir: Path):
        cfg = self.SIZES[size]
        n = cfg["n"]
        rng = random.Random(seed)
        self.tot = tot
        EditOp = tot.graphs.EditOp
        self.g0 = tot.generators.random_tree(n, rng.getrandbits(64))
        labels = list(range(n))
        rng.shuffle(labels)
        self.d0 = tot.generators.orient_by_labeling(self.g0, labels)

        edges = _IndexedSet(tuple(sorted(e)) for e in self.g0.edges)
        adj = [set() for _ in range(n)]
        for a, b in edges.items:
            adj[a].add(b)
            adj[b].add(a)
        arcs = _IndexedSet(tuple(a) for a in self.d0.arcs)
        deg = _degrees(n, edges.items)
        din, dout = _in_out(n, arcs.items)
        self.start = (irr_of(deg), irr_of(din), irr_of(dout))

        def edge_move(a, b, add):
            for x, y in ((a, b), (b, a)):
                (adj[x].add if add else adj[x].discard)(y)
                deg[x] += 1 if add else -1
            (edges.add if add else edges.remove)((min(a, b), max(a, b)))

        def arc_move(t, h, add):
            (arcs.add if add else arcs.remove)((t, h))
            step = 1 if add else -1
            dout[t] += step
            din[h] += step

        self.ops = []  # (on the digraph?, EditOp)
        self.checkpoints = []  # (end index, expected (irr, irr_in, irr_out))
        for i in range(cfg["edits"]):
            kind = rng.randrange(3)
            if rng.randrange(2) == 0:
                if kind == 1 and len(edges) == 0:
                    kind = 0
                if kind == 0:
                    a, b = rng.randrange(n), rng.randrange(n)
                    while a == b or b in adj[a]:
                        a, b = rng.randrange(n), rng.randrange(n)
                    op = EditOp.add_edge(a, b)
                    edge_move(a, b, True)
                elif kind == 1:
                    a, b = edges.sample(rng)
                    op = EditOp.remove_edge(a, b)
                    edge_move(a, b, False)
                else:
                    moved, kept = self._retarget_edge(rng, n, edges, adj)
                    target = rng.randrange(n)
                    while target in (moved, kept) or target in adj[kept]:
                        target = rng.randrange(n)
                    op = EditOp.retarget_edge(moved, kept, target)
                    edge_move(moved, kept, False)
                    edge_move(target, kept, True)
                self.ops.append((False, op))
            else:
                t, h = arcs.sample(rng)
                if kind == 0:
                    while (h, t) in arcs:
                        t, h = arcs.sample(rng)
                    op = EditOp.reverse_arc(t, h)
                    arc_move(t, h, False)
                    arc_move(h, t, True)
                elif kind == 1:
                    x = rng.randrange(n)
                    while x in (t, h) or (x, h) in arcs:
                        x = rng.randrange(n)
                    op = EditOp.retarget_tail(t, h, x)
                    arc_move(t, h, False)
                    arc_move(x, h, True)
                else:
                    x = rng.randrange(n)
                    while x in (t, h) or (t, x) in arcs:
                        x = rng.randrange(n)
                    op = EditOp.retarget_head(t, h, x)
                    arc_move(t, h, False)
                    arc_move(t, x, True)
                self.ops.append((True, op))
            if (i + 1) % cfg["checkpoint"] == 0 or i + 1 == cfg["edits"]:
                self.checkpoints.append((i + 1, (irr_of(deg), irr_of(din), irr_of(dout))))
        self.final_edges = sorted(edges.items)
        self.final_arcs = sorted(arcs.items)

    @staticmethod
    def _retarget_edge(rng, n, edges, adj):
        while True:
            a, b = edges.sample(rng)
            moved, kept = (a, b) if rng.randrange(2) == 0 else (b, a)
            # kept needs a free partner besides moved and itself
            if len(adj[kept]) < n - 2:
                return moved, kept

    def run_round(self, op) -> Round:
        exact = self.tot.irregularity.exact_delta_for_edit
        apply_edit = self.tot.graphs.apply_edit

        def step(value, edit):
            return exact(value, edit), apply_edit(value, edit)

        g, d = self.g0, self.d0
        run = list(self.start)
        spans, segments = [], []
        failed = set()
        begin = 0
        for end, expected in self.checkpoints:
            seg_start = perf_counter()
            for i in range(begin, end):
                on_digraph, edit = self.ops[i]
                t0 = perf_counter()
                try:
                    delta, new = op(step, d if on_digraph else g, edit)
                except Exception:
                    spans.append((t0, perf_counter()))
                    failed.add(i)
                    _report_exception(f"edit {i} {edit.describe()}")
                    continue
                spans.append((t0, perf_counter()))
                if on_digraph:
                    d = new
                    run[1] += delta[0]
                    run[2] += delta[1]
                else:
                    g = new
                    run[0] += delta
            segments.append((seg_start, perf_counter()))
            if tuple(run) != expected:
                failed.update(range(begin, end))
            begin = end
        if sorted(g.edges) != self.final_edges or sorted(d.arcs) != self.final_arcs:
            failed.update(range(len(self.ops)))
        digest = hashlib.sha256(repr((run, g.edges, d.arcs)).encode()).hexdigest()
        return Round(spans, segments, len(self.ops), len(failed), digest)


# --- audit-suites -----------------------------------------------------------


class AuditSuites:
    """The five public suite runners, each report serialised to CSV and JSON.

    Why: many small graphs (n <= 43). The time goes to the irr_naive oracle,
    lemma34's component sweeps while probing branch candidates, generators
    and rng, partitions, predictors and serialisation. The edit engine's share
    is small, so an edit-engine change should leave this workload unchanged.

    One op is one audit row. Its latency is the time from the previous row
    (or the suite call's start) to the construction of its AuditRow; the time
    a suite spends after its last row and in to_csv/to_json counts in wall_s
    only.
    """

    name = "audit-suites"
    workers = 12
    SIZES = {
        "full": {"joint": 200, "edge": 200, "arc": 200, "lemma34": 125, "closed_max_n": 12},
        "tiny": {"joint": 6, "edge": 6, "arc": 6, "lemma34": 8, "closed_max_n": 5},
    }

    def __init__(self, tot, seed: int, size: str, workdir: Path):
        cfg = self.SIZES[size]
        rng = random.Random(seed)
        self.tot = tot
        self.calls = [
            ("run_edge_joint_suite", (cfg["joint"], rng.getrandbits(64))),
            ("run_edge_transform_suite", (cfg["edge"], rng.getrandbits(64))),
            ("run_arc_transform_suite", (cfg["arc"], rng.getrandbits(64))),
            ("lemma34_suite", (cfg["lemma34"], rng.getrandbits(64))),
            ("run_closed_form_suite", (cfg["closed_max_n"],)),
        ]
        # row boundaries: one timestamp per AuditRow constructed
        self.marks: list[float] = []
        marks = self.marks
        row_cls = tot.audit.AuditRow
        original = row_cls.__init__

        def init(row, *args, **kwargs):
            original(row, *args, **kwargs)
            marks.append(perf_counter())

        row_cls.__init__ = init

    @staticmethod
    def _suite(fn, args):
        report = fn(*args)
        return report, report.to_csv(), report.to_json()

    def run_round(self, op) -> Round:
        spans, segments = [], []
        attempted = failed = 0
        digest = hashlib.sha256()
        for fn_name, args in self.calls:
            fn = getattr(self.tot.audit, fn_name)
            first_mark = len(self.marks)
            t0 = perf_counter()
            try:
                report, csv, js = op(self._suite, fn, args)
            except Exception:
                segments.append((t0, perf_counter()))
                _report_exception(fn_name)
                attempted += 1
                failed += 1
                continue
            segments.append((t0, perf_counter()))
            marks = self.marks[first_mark:]
            if len(marks) != len(report.rows):
                raise RuntimeError(f"{fn_name}: {len(marks)} AuditRow constructions for {len(report.rows)} rows")
            prev = t0
            for m in marks:
                spans.append((prev, m))
                prev = m
            attempted += len(report.rows)
            failed += sum(not row.engine_ok for row in report.rows)
            digest.update(csv.encode())
            digest.update(js.encode())
        return Round(spans, segments, attempted, failed, digest.hexdigest())


# --- cli-files --------------------------------------------------------------


def _write_edge_list(path: Path, kind: str, n: int, pairs) -> None:
    """The edge-list format of totirr.fileio, written by the benchmark itself."""
    lines = [f"{kind} {n}"]
    lines.extend(f"{a} {b}" for a, b in sorted(pairs))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")


def _read_pairs(path: Path) -> list[tuple[int, int]]:
    rows = path.read_text(encoding="utf-8").split("\n")[1:]
    return sorted(tuple(int(x) for x in line.split(" ")) for line in rows if line)


def _fields(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        for item in line.split(" "):
            key, _, value = item.partition("=")
            out.setdefault(key, value)
    return out


class CliFiles:
    """`totirr.cli.main(argv)` in-process on edge-list files written at set-up.

    Why: the read path through fileio and Graph construction at large n, next
    to edit-walk's write path. It also holds the `transform` cliff: the
    command runs irr_naive even without --report. Inputs come only from the
    O(n) generators (random_tree, path, orient_by_labeling), never the dense
    random/complete ones.
    """

    name = "cli-files"
    workers = 5
    SIZES = {
        "full": {
            "compute": (1000, 3000, 10000, 30000, 100000),
            "transform": (1000, 1500, 2000),
            "joint": ((500, 500), (1000, 1000)),
        },
        "tiny": {"compute": (20, 50), "transform": (12,), "joint": ((6, 8),)},
    }

    def __init__(self, tot, seed: int, size: str, workdir: Path):
        cfg = self.SIZES[size]
        rng = random.Random(seed)
        self.tot = tot
        gen = tot.generators
        workdir.mkdir(parents=True, exist_ok=True)
        self.ops = []  # (argv, check(code, stdout) -> bool)
        counter = itertools.count()

        def new_file(kind, n, pairs):
            path = workdir / f"in-{next(counter)}.txt"
            _write_edge_list(path, kind, n, pairs)
            return path

        def out_file():
            return workdir / f"out-{next(counter)}.txt"

        for n in cfg["compute"]:
            tree = [tuple(e) for e in gen.random_tree(n, rng.getrandbits(64)).edges]
            labels = list(range(n))
            rng.shuffle(labels)
            arcs = [(a, b) if labels[a] < labels[b] else (b, a) for a, b in tree]
            din, dout = _in_out(n, arcs)
            want_arcs = f"irr_in={irr_of(din)} irr_out={irr_of(dout)}\n"
            arcs_file = new_file("D", n, arcs)
            self.ops.append((["compute", "--input", str(arcs_file)], self._exact(want_arcs)))
            for pairs in (tree, [tuple(e) for e in gen.path(n).edges]):
                want = f"irr_t={irr_of(_degrees(n, pairs))}\n"
                self.ops.append((["compute", "--input", str(new_file("U", n, pairs))], self._exact(want)))

        for n in cfg["transform"]:
            labels = list(range(n))
            rng.shuffle(labels)
            tree = [tuple(e) for e in gen.random_tree(n, rng.getrandbits(64)).edges]
            dig = [tuple(a) for a in gen.orient_by_labeling(gen.random_tree(n, rng.getrandbits(64)), labels).arcs]
            path_edges = [tuple(e) for e in gen.path(n).edges]
            for pairs in (path_edges, tree):
                a, b, target = self._cut_edge_move(rng, n, pairs)
                after = sorted([e for e in pairs if e != (min(a, b), max(a, b))] + [(min(target, b), max(target, b))])
                self._add_transform(new_file("U", n, pairs), out_file(), [a, b, target], None,
                                    _degrees(n, pairs), _degrees(n, after), after)
            arc_set = set(dig)
            for end in ("head", "tail"):
                t, h = dig[rng.randrange(len(dig))]
                while True:
                    x = rng.randrange(n)
                    new_arc = (t, x) if end == "head" else (x, h)
                    if x not in (t, h) and new_arc not in arc_set:
                        break
                after = sorted([arc for arc in dig if arc != (t, h)] + [new_arc])
                pick = 0 if end == "head" else 1
                self._add_transform(new_file("D", n, dig), out_file(), [t, h, x], end,
                                    _in_out(n, dig)[pick], _in_out(n, after)[pick], after)

        for n1, n2 in cfg["joint"]:
            left = [tuple(e) for e in gen.random_tree(n1, rng.getrandbits(64)).edges]
            right = [tuple(e) for e in gen.random_tree(n2, rng.getrandbits(64)).edges]
            u, v = rng.randrange(n1), rng.randrange(n2)
            union = left + [(a + n1, b + n1) for a, b in right]
            joined = sorted(union + [(min(u, v + n1), max(u, v + n1))])
            union_irr = irr_of(_degrees(n1 + n2, union))
            oracle = irr_of(_degrees(n1 + n2, joined))
            out = out_file()
            argv = ["joint", "--left", str(new_file("U", n1, left)), "--right", str(new_file("U", n2, right)),
                    "--u", str(u), "--v", str(v), "--report", "--out", str(out)]
            want = {"union_irr": str(union_irr), "oracle_irr": str(oracle), "engine_delta": str(oracle - union_irr)}
            self.ops.append((argv, self._report_check(want, out, joined)))

        rng.shuffle(self.ops)

    @staticmethod
    def _cut_edge_move(rng, n, pairs):
        """(moved end a, kept end b, target on a's side of the cut edge)."""
        adj = [[] for _ in range(n)]
        for x, y in pairs:
            adj[x].append(y)
            adj[y].append(x)
        while True:
            a, b = pairs[rng.randrange(len(pairs))]
            if rng.randrange(2):
                a, b = b, a
            side = {a}
            stack = [a]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in side and not (x == a and y == b):
                        side.add(y)
                        stack.append(y)
            if len(side) >= 2:
                others = sorted(side - {a})
                return a, b, others[rng.randrange(len(others))]

    def _add_transform(self, src, out, cut_target, end, before_degs, after_degs, after_pairs):
        a, b, target = cut_target
        argv = ["transform", "--input", str(src), "--cut", str(a), str(b), "--target", str(target),
                "--report", "--out", str(out)]
        if end is not None:
            argv += ["--end", end]
        before, after = irr_of(before_degs), irr_of(after_degs)
        want = {"irr_before": str(before), "oracle_irr": str(after), "engine_delta": str(after - before)}
        self.ops.append((argv, self._report_check(want, out, after_pairs)))

    @staticmethod
    def _exact(want):
        return lambda code, stdout: code == 0 and stdout == want

    @staticmethod
    def _report_check(want, out_path, out_pairs):
        def check(code, stdout):
            got = _fields(stdout)
            return (
                code == 0
                and all(got.get(k) == v for k, v in want.items())
                and _read_pairs(out_path) == out_pairs
            )

        return check

    def run_round(self, op) -> Round:
        main = self.tot.cli.main
        spans = []
        failed = 0
        digest = hashlib.sha256()
        for argv, check in self.ops:
            out, err = io.StringIO(), io.StringIO()
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = op(main, argv)
            except Exception:
                code = None
                _report_exception(" ".join(argv))
            spans.append((t0, perf_counter()))
            if code is None or not check(code, out.getvalue()):
                failed += 1
                print(f"bench: check failed for {' '.join(argv)}: exit {code} stdout {out.getvalue()!r} "
                      f"stderr {err.getvalue()!r}", file=sys.stderr)
            digest.update(out.getvalue().encode())
        return Round(spans, spans, len(self.ops), failed, digest.hexdigest())


WORKLOADS = {w.name: w for w in (EditWalk, AuditSuites, CliFiles)}
