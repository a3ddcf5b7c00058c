"""Span tracer for the benchmark's traced mode.

The tracer never edits the package source. It replaces attributes of the
imported `totirr` modules and classes with wrappers, and puts the originals
back on `uninstall`. Every wrapped call records one span

    (name, start, end, parent span index, run id)

in memory. The run id is the benchmark operation (an edit, a CLI command or
a suite call) the span belongs to. A layer's self time is its spans'
duration minus the duration of their direct child spans.

Layers are named `<module>.<function>`, and each metric is
`<layer>.<stat>`. Module groups (`partitions`, `predictors`, `transforms`,
`generators`) wrap every public function defined in that module under the
module's name, so a renamed or added function is still counted.
`rng.child` and `graphs.edit_rejected` are plain counters without spans:
they sit on paths too hot or too small to time without distorting the run.

The code is single-threaded: no layer has a queue, lock or retry, so there
is no wait time to record and no wait metric is reported.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from collections import defaultdict
from time import perf_counter

# (layer name, module, attribute path); a missing attribute is reported, not fatal
SPAN_LAYERS = (
    ("graphs.Graph.init", "graphs", "Graph.__init__"),
    ("graphs.Digraph.init", "graphs", "Digraph.__init__"),
    ("graphs.DegreeMultiset.init", "graphs", "DegreeMultiset.__init__"),
    ("graphs.apply_edit", "graphs", "apply_edit"),
    ("graphs.edit_degree_changes", "graphs", "edit_degree_changes"),
    ("graphs.degree_multiset", "graphs", "degree_multiset"),
    ("graphs.connected_components", "graphs", "Graph.connected_components"),
    ("graphs.is_cut_edge", "graphs", "is_cut_edge"),
    ("graphs.branch_component", "graphs", "_branch_component"),
    ("irregularity.exact_delta_for_edit", "irregularity", "exact_delta_for_edit"),
    ("irregularity.delta_for_degree_change", "irregularity", "delta_for_degree_change"),
    ("irregularity.irr_naive", "irregularity", "irr_naive"),
    ("irregularity.irr_fast", "irregularity", "irr_fast"),
    ("fileio.parse_graph_text", "fileio", "parse_graph_text"),
    ("fileio.graph_to_text", "fileio", "graph_to_text"),
    ("audit.run_edge_joint_suite", "audit", "run_edge_joint_suite"),
    ("audit.run_edge_transform_suite", "audit", "run_edge_transform_suite"),
    ("audit.run_arc_transform_suite", "audit", "run_arc_transform_suite"),
    ("audit.lemma34_suite", "audit", "lemma34_suite"),
    ("audit.run_closed_form_suite", "audit", "run_closed_form_suite"),
    ("audit.to_csv", "audit", "AuditReport.to_csv"),
    ("audit.to_json", "audit", "AuditReport.to_json"),
)

MODULE_GROUPS = ("partitions", "predictors", "transforms", "generators")

COUNTERS = (
    ("rng.child.calls", "rng", "SplitMix64.child"),
    ("graphs.edit_rejected", "graphs", "EditError.__init__"),
)


def _vertices(counts, args, result, raised):
    counts["graphs.connected_components.vertices"] += args[0].vertex_count


def _pairs(counts, args, result, raised):
    n = args[0].vertex_count
    counts["irregularity.irr_naive.pairs"] += n * (n - 1) // 2


def _branch_hits(counts, args, result, raised):
    if not raised:
        counts["graphs.branch_component.hits"] += 1


def _text_in(counts, args, result, raised):
    counts["fileio.parse_graph_text.bytes"] += len(args[0].encode())


def _text_out(counts, args, result, raised):
    if not raised:
        counts["fileio.graph_to_text.bytes"] += len(result.encode())


EXTRAS = {
    "graphs.connected_components": _vertices,
    "irregularity.irr_naive": _pairs,
    "graphs.branch_component": _branch_hits,
    "fileio.parse_graph_text": _text_in,
    "fileio.graph_to_text": _text_out,
}


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self.stack: list[int] = []
        self.run_id = -1
        self.counts: defaultdict = defaultdict(int)
        self.missing: list[str] = []
        self._patches: list = []

    # -- recording -------------------------------------------------------

    def call(self, name, fn, args, kwargs, extra=None):
        """Run fn inside a span called name."""
        spans, stack = self.spans, self.stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        result = None
        raised = True
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            raised = False
            return result
        finally:
            end = perf_counter()
            stack.pop()
            spans[idx] = (name, start, end, parent, self.run_id)
            if extra is not None:
                extra(self.counts, args, result, raised)

    def op(self, fn, *args):
        """Root span for one benchmark operation; starts a new run id."""
        self.run_id += 1
        return self.call("bench.op", fn, args, {})

    # -- patching --------------------------------------------------------

    def install(self):
        self.missing = []
        for name, module, path in SPAN_LAYERS:
            self._patch(module, path, lambda fn, name=name: self._span_wrapper(name, fn))
        for module in MODULE_GROUPS:
            mod = sys.modules[f"{self.package}.{module}"]
            for attr, fn in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                self._patch(module, attr, lambda fn, module=module: self._span_wrapper(module, fn))
        self._patch("cli", "main", self._cli_wrapper)
        for name, module, path in COUNTERS:
            self._patch(module, path, lambda fn, name=name: self._count_wrapper(name, fn))

    def uninstall(self):
        for owner, attr, original, had_own in reversed(self._patches):
            if isinstance(owner, type) and not had_own:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def _span_wrapper(self, name, fn):
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, extra)

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _cli_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(argv=None):
            command = argv[0] if argv else "none"
            return self.call(f"cli.{command}", fn, (argv,), {})

        return wrapper

    def _patch(self, module, path, make_wrapper):
        mod = sys.modules.get(f"{self.package}.{module}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.append(f"{module}.{path}")
            return
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            self._patches.append((owner, attr, original, attr in owner.__dict__))
            setattr(owner, attr, wrapper)
            return
        # rebind every module-level alias, so `from .graphs import f` callers see it too
        for name, other in list(sys.modules.items()):
            if other is None or not (name == self.package or name.startswith(self.package + ".")):
                continue
            for alias, value in list(vars(other).items()):
                if value is original:
                    self._patches.append((other, alias, original, True))
                    setattr(other, alias, wrapper)

    # -- aggregation -----------------------------------------------------

    def mark(self):
        """Phase boundary: the current span index and a copy of the counters."""
        return len(self.spans), dict(self.counts)

    def totals(self, begin, end):
        """calls, self_s and counters accumulated between two marks."""
        (lo, counts_lo), (hi, counts_hi) = begin, end
        calls: defaultdict = defaultdict(int)
        self_s: defaultdict = defaultdict(float)
        spans = self.spans
        for i in range(lo, hi):
            name, start, stop, parent, _ = spans[i]
            dur = stop - start
            calls[name] += 1
            self_s[name] += dur
            if parent >= 0:
                self_s[spans[parent][0]] -= dur
        counts = {k: v - counts_lo.get(k, 0) for k, v in counts_hi.items()}
        return calls, self_s, counts

    def write(self, path):
        """Write every recorded span as gzipped CSV: run,span,parent,name,start_s,end_s."""
        with gzip.open(path, "wt", encoding="utf-8", newline="", compresslevel=1) as fh:
            fh.write("run,span,parent,name,start_s,end_s\n")
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(f"{run},{i},{parent},{name},{start:.9f},{end:.9f}\n")
