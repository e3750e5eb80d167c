"""Span recorder for the traced benchmark run.

Tracing works by rebinding names: each traced function is replaced, in its
defining module and in every module that imported it (the package's own
modules and the benchmark's), by a wrapper that records a span or bumps a
counter.  Nothing inside ``src/`` changes; ``uninstall`` puts the original
objects back.

A span has a name, a start, an end, the index of its parent span and the id
of the op that caused it.  Aggregates are kept exactly for every span; the
span log itself keeps the first SPAN_CAP spans so that memory stays
bounded, and is written out when the run ends.  A layer's self time is its
span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, metric name); a shared metric name sums the functions
SPANS = (
    ("ordinal", "parse_ordinal", "ordinal.parse_ordinal"),
    ("ordinal", "format_ordinal", "ordinal.format_ordinal"),
    ("stability", "validate", "stability.validate"),
    ("stability", "lt_k", "stability.lt_k"),
    ("stability", "le_k", "stability.lt_k"),
    ("stability", "pred_set", "stability.pred_set"),
    ("stability", "is_k_lim2", "stability.is_k_lim2"),
    ("stability", "check_tree_properties", "stability.check_laws"),
    ("stability", "check_predecessor_laws", "stability.check_laws"),
    ("poset", "extend_with_top_exception", "poset.extend_with_top_exception"),
    ("poset", "extend_to_chain_limit", "poset.extend_to_chain_limit"),
    ("poset", "extends", "poset.extends"),
    ("poset", "chain_infimum", "poset.chain_infimum"),
    ("poset", "meet_dense", "poset.meet_dense"),
    ("simulate", "run_construction", "simulate.run_construction"),
    ("simulate", "check_requirements", "simulate.check_requirements"),
    ("simulate", "check_stable_pairs", "simulate.check_stable_pairs"),
    ("simulate", "minimality_report", "simulate.minimality_report"),
    ("cli", "main", "cli.main"),
)
# exact counts with no timer: these run too often, or too briefly, for a span
COUNTS = (
    ("stability", "is_k_limit", "stability.is_k_limit"),
    ("stability", "dom_f", "stability.dom_f"),
    ("poset", "canonical_extend", "poset.canonical_extend"),
)
METHOD_SPANS = (("IntervalSet", "intersect", "ordinal.IntervalSet.intersect"),)
METHOD_COUNTS = (
    ("Ordinal", "__lt__", "ordinal.Ordinal.cmp"),
    ("Ordinal", "__le__", "ordinal.Ordinal.cmp"),
    ("Ordinal", "__gt__", "ordinal.Ordinal.cmp"),
    ("Ordinal", "__ge__", "ordinal.Ordinal.cmp"),
    ("Ordinal", "__add__", "ordinal.Ordinal.add"),
)
# calls made directly by meet_dense to produce a candidate condition
MEET_ATTEMPTS = {"poset.canonical_extend", "poset.extend_with_top_exception",
                 "poset.extend_to_chain_limit"}
MEET = "poset.meet_dense"


SPAN_CAP = 50_000  # spans kept for the log; about 6 MB once written


class Tracer:
    """Records spans and counts while installed; one per traced run."""

    def __init__(self):
        self.op_id = -1
        self.stack: list[list] = []  # open spans: [name, child_ns, span_index]
        self.depth: Counter = Counter()  # open spans per name, for recursion
        self.calls: Counter = Counter()
        self.incl_ns: Counter = Counter()  # outermost span of each name only
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.cells: dict[str, list[int]] = {}  # counts bumped by _count_binary
        self.toplevel: defaultdict = defaultdict(list)  # durations of root spans
        self.spans: list = []
        self._restore: list = []

    # -- wrappers ----------------------------------------------------------------

    def _span(self, name: str, fn):
        stack, depth, clock = self.stack, self.depth, time.perf_counter_ns
        calls, incl_ns, self_ns, counts = self.calls, self.incl_ns, self.self_ns, self.counts
        spans = self.spans
        attempt = name in MEET_ATTEMPTS

        def wrapper(*args, **kwargs):
            if attempt and stack and stack[-1][0] == MEET:
                counts[MEET + ".attempts"] += 1
            parent = stack[-1][2] if stack else -1
            index = len(spans) if len(spans) < SPAN_CAP else -1
            if index >= 0:
                spans.append(None)
            frame = [name, 0, index]
            stack.append(frame)
            depth[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".raised"] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                depth[name] -= 1
                dur = t1 - t0
                calls[name] += 1
                self_ns[name] += dur - frame[1]
                if not depth[name]:
                    incl_ns[name] += dur
                if stack:
                    stack[-1][1] += dur
                else:
                    self.toplevel[name].append(dur)
                if index >= 0:
                    spans[index] = (name, t0, t1, parent, self.op_id)
            if name == MEET:
                counts[MEET + ".kept"] += len(result[1]) - 1
            return result

        return wrapper

    def _count(self, name: str, fn):
        stack, counts = self.stack, self.counts
        attempt = name in MEET_ATTEMPTS

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if attempt and stack and stack[-1][0] == MEET:
                counts[MEET + ".attempts"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_binary(self, name: str, fn):
        """Counter for the Ordinal operators, which run millions of times: a
        list cell and a fixed signature keep the wrapper cheap."""
        cell = self.cells.setdefault(name, [0])

        def wrapper(a, b):
            cell[0] += 1
            return fn(a, b)

        return wrapper

    # -- installation --------------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Rebind every traced name in the package and in ``extra_modules``."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "stabforce" or n.startswith("stabforce."))]
        modules += list(extra_modules)
        for table, wrap in ((SPANS, self._span), (COUNTS, self._count)):
            for mod, attr, name in table:
                orig = getattr(sys.modules["stabforce." + mod], attr)
                self._rebind(modules, orig, wrap(name, orig))
        ordinal = sys.modules["stabforce.ordinal"]
        for table, wrap in ((METHOD_SPANS, self._span), (METHOD_COUNTS, self._count_binary)):
            for cls, attr, name in table:
                owner = getattr(ordinal, cls)
                orig = owner.__dict__[attr]
                setattr(owner, attr, wrap(name, orig))
                self._restore.append((owner, attr, orig))

    def _rebind(self, modules, orig, wrapper) -> None:
        for m in modules:
            for key in [k for k, v in vars(m).items() if v is orig]:
                setattr(m, key, wrapper)
                self._restore.append((m, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    # -- results -------------------------------------------------------------------

    def reset(self) -> None:
        """Forget aggregates (the span log is kept)."""
        for c in (self.depth, self.calls, self.incl_ns, self.self_ns, self.counts):
            c.clear()
        for cell in self.cells.values():
            cell[0] = 0
        self.toplevel.clear()

    def per_op(self, ops: int) -> dict[str, float]:
        """Per-op layer metrics from the aggregates, keyed by metric name."""
        ops = max(ops, 1)
        out: dict[str, float] = {}
        for name in {n for _, _, n in SPANS + METHOD_SPANS}:
            out[name + ".calls"] = self.calls[name] / ops
            out[name + ".ms"] = self.incl_ns[name] / ops / 1e6
            out[name + ".self_ms"] = self.self_ns[name] / ops / 1e6
        for _, _, name in COUNTS:
            out[name + ".calls"] = self.counts[name] / ops
        for name, cell in self.cells.items():
            out[name + ".calls"] = cell[0] / ops
        out["poset.extend_with_top_exception.raised"] = \
            self.counts["poset.extend_with_top_exception.raised"] / ops
        attempts = self.counts[MEET + ".attempts"]
        out[MEET + ".useful_frac"] = self.counts[MEET + ".kept"] / attempts if attempts else 0.0
        return out

    def write_spans(self, path: str) -> None:
        """One JSON object per span: name, start/end in ns, parent index, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                if s is None:
                    continue
                name, t0, t1, parent, op = s
                fh.write(json.dumps({"i": i, "name": name, "start_ns": t0, "end_ns": t1,
                                     "parent": parent, "op": op}) + "\n")
