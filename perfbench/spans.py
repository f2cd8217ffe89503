"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: `instrument` replaces the
module attributes that callers look up (for example
`besforge.driver.build_aux`) with timing wrappers. No source file changes.
Each benchmark operation opens a root span named `bench.<kind>`; the wrapped
program calls inside it become its descendants and share its operation id.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter

import besforge
import besforge.auxgraph
import besforge.degsearch
import besforge.driver
import besforge.girth
import besforge.io

# per-layer metric -> span name whose self time it sums. Together these
# partition every traced operation: their sum equals the operations' wall time.
SELF_TIME = {
    "bench.self_s": "bench",
    "driver.self_s": "driver.find_be_s_configuration",
    "auxgraph.build_aux_s": "auxgraph.build_aux",
    "core.validate_linear_s": "core.validate_linear",
    "auxgraph.simple_subgraph_s": "auxgraph.simple_subgraph",
    "degsearch.ordering_s": "degsearch.degeneracy_ordering",
    "degsearch.search_s": "degsearch.find_dense_2deg",
    "unpack.unpack_s": "unpack.unpack",
    "core.verify_configuration_s": "core.verify_configuration",
    "oracle.min_span_s": "oracle.min_span",
    "girth.grow_girth_graph_s": "girth.grow_girth_graph",
    "girth.girth_of_s": "girth.girth_of",
    "girth.verify_certificate_s": "girth.verify_certificate",
    "generators.random_linear_s": "generators.random_linear",
    "generators.group_system_s": "generators.group_system",
    "io.dumps_system_s": "io.dumps_system",
    "io.loads_system_s": "io.loads_system",
}

# per-layer metric -> span name whose calls it counts
CALLS = {
    "auxgraph.build_aux_calls": "auxgraph.build_aux",
    "degsearch.calls": "degsearch.find_dense_2deg",
    "unpack.calls": "unpack.unpack",
    "oracle.calls": "oracle.min_span",
    "girth.grow_attempts": "girth.grow_girth_graph",
}

# per-layer metric -> counter filled by the wrappers' result hooks
COUNTERS = (
    "auxgraph.multi_edges",
    "degsearch.host_vertices",
    "degsearch.achieved_t_sum",
    "driver.frames",
    "driver.recurse_frames",
    "driver.base_frames",
    "unpack.steps",
    "graphs.within_distance_calls",
)


class Recorder:
    """Spans as [op, id, parent, name, start, end] rows, plus named counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.op = 0

    def open(self, name):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([self.op, sid, parent, name, perf_counter(), None])
        self.stack.append(sid)
        return sid

    def close(self, sid):
        self.spans[sid][5] = perf_counter()
        self.stack.pop()

    def begin_op(self, kind):
        if self.stack:
            raise RuntimeError("operation opened inside another operation")
        self.op += 1
        return self.open(f"bench.{kind}")

    def write(self, path, t0):
        with open(path, "w") as fh:
            for op, sid, parent, name, start, end in self.spans:
                row = {"op": op, "id": sid, "parent": parent, "name": name,
                       "start": start - t0, "end": end - t0}
                fh.write(json.dumps(row) + "\n")

    def layer_metrics(self):
        """Self time per layer, inclusive find time, call counts and counters."""
        child = [0.0] * len(self.spans)
        for _op, _sid, parent, _name, start, end in self.spans:
            if end is None:
                raise RuntimeError("a span was never closed")
            if parent is not None:
                child[parent] += end - start
        self_by_name = Counter()
        incl_by_name = Counter()
        calls = Counter()
        ops_total = 0.0
        for _op, sid, parent, name, start, end in self.spans:
            if (parent is None) != name.startswith("bench."):
                raise RuntimeError(f"span {name} is a root only if it is an operation")
            key = "bench" if parent is None else name
            self_by_name[key] += (end - start) - child[sid]
            incl_by_name[name] += end - start
            calls[name] += 1
            if parent is None:
                ops_total += end - start
        unknown = set(self_by_name) - set(SELF_TIME.values())
        if unknown:
            raise RuntimeError(f"spans without a layer metric: {sorted(unknown)}")
        out = {m: self_by_name[name] for m, name in SELF_TIME.items()}
        out["degsearch.find_dense_2deg_s"] = incl_by_name["degsearch.find_dense_2deg"]
        out.update({m: calls[name] for m, name in CALLS.items()})
        out.update({m: self.counts[m] for m in COUNTERS})
        out["girth.grow_failures"] = self.counts["girth.grow_girth_graph.raised"]
        n_find = calls["degsearch.find_dense_2deg"]
        out["degsearch.success_ratio"] = self.counts["degsearch.successes"] / n_find if n_find else 0.0
        return out, ops_total


def _count_aux(counts, args, aux):
    counts["auxgraph.multi_edges"] += aux.multi_edge_count


def _count_search(counts, args, result):
    counts["degsearch.host_vertices"] += args[0].n
    counts["degsearch.successes"] += result.success
    counts["degsearch.achieved_t_sum"] += result.achieved_t


def _count_unpack(counts, args, out):
    counts["unpack.steps"] += len(out[1].steps)


def _count_frames(counts, args, report):
    counts["driver.frames"] += len(report.frames)
    for frame in report.frames:
        if frame.branch in ("recurse", "base"):
            counts[f"driver.{frame.branch}_frames"] += 1


def instrument(rec):
    """Wrap the attributes each caller looks up; returns an undo callable."""
    saved = []

    def wrap(owner, attr, name, hook=None):
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = rec.open(name)
            try:
                out = fn(*args, **kwargs)
                if hook is not None:
                    hook(rec.counts, args, out)
            except Exception:
                rec.counts[f"{name}.raised"] += 1
                raise
            finally:
                rec.close(sid)
            return out

        saved.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def count(owner, attr, counter):
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            rec.counts[counter] += 1
            return fn(*args, **kwargs)

        saved.append((owner, attr, fn))
        setattr(owner, attr, counted)

    # entry points the benchmark itself calls
    bf = besforge
    wrap(bf, "find_be_s_configuration", "driver.find_be_s_configuration", _count_frames)
    wrap(bf, "min_span", "oracle.min_span")
    wrap(bf, "girth_of", "girth.girth_of")
    wrap(bf, "verify_certificate", "girth.verify_certificate")
    wrap(bf, "group_system", "generators.group_system")
    wrap(bf, "random_linear", "generators.random_linear")
    wrap(besforge.io, "dumps_system", "io.dumps_system")
    wrap(besforge.io, "loads_system", "io.loads_system")
    # calls made inside the program, wrapped where the caller looks them up
    drv = besforge.driver
    wrap(drv, "build_aux", "auxgraph.build_aux", _count_aux)
    wrap(drv, "simple_subgraph", "auxgraph.simple_subgraph")
    wrap(drv, "find_dense_2deg", "degsearch.find_dense_2deg", _count_search)
    wrap(drv, "unpack", "unpack.unpack", _count_unpack)
    wrap(drv, "verify_configuration", "core.verify_configuration")
    wrap(besforge.auxgraph, "validate_linear", "core.validate_linear")
    wrap(besforge.degsearch, "degeneracy_ordering", "degsearch.degeneracy_ordering")
    wrap(besforge.girth, "grow_girth_graph", "girth.grow_girth_graph")
    count(besforge.girth, "within_distance", "graphs.within_distance_calls")

    def undo():
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)

    return undo
