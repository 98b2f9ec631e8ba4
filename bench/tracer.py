"""Per-layer tracing by swapping wrappers into fdq's module attributes.

Callers inside fdq look their collaborators up as module globals at call
time (`fdq.miner.intersect`, `fdq.query.violating_rows`, ...), so a wrapper
stored under that name sees every call on the statement path without any
change to fdq itself. Each call becomes a span (name, start, end, parent).
Self time is a span's duration minus the time of its child spans,
including the wrappers' own bookkeeping around those children, so the
tracer's cost lands in `trace.overhead_frac` rather than in any layer.

Spans stay in memory and are written out when the iteration ends. Only
the first SPAN_KEEP spans of each layer are kept verbatim; the per-layer
totals always cover every call.
"""

from __future__ import annotations

import importlib
import json
import os
from collections import Counter
from time import perf_counter

SPAN_KEEP = 2000

# layer name -> (module, attribute) pairs where callers look the function up
LAYERS = {
    "cli.run_command": [("fdq.cli", "run_command")],
    "cli.render": [("fdq.cli", "render")],
    "relation.load_csv": [("fdq.cli", "load_csv")],
    "relation.eval_row_predicate": [
        ("fdq.query", "eval_row_predicate"),
        ("fdq.cli", "eval_row_predicate"),
    ],
    "relation.with_rows": [("fdq.relation", "Relation.with_rows")],
    "miner.mine_fds": [("fdq.miner", "mine_fds")],
    "partition.build_pli": [("fdq.miner", "build_pli")],
    "partition.intersect": [("fdq.miner", "intersect")],
    "partition.pli_of": [("fdq.partition", "pli_of")],
    "partition.violating_rows": [
        ("fdq.query", "violating_rows"),
        ("fdq.partition", "violating_rows"),
    ],
    "partition.error_measure": [("fdq.query", "error_measure")],
    "query.parse": [("fdq.cli", "parse_extended_select")],
    "query.execute": [("fdq.cli", "execute")],
    "query.eval_holds": [("fdq.query", "eval_holds")],
    "query.eval_not_holds": [("fdq.query", "eval_not_holds")],
    "query.eval_violates": [("fdq.query", "eval_violates")],
    "query.eval_dependent": [("fdq.query", "eval_dependent")],
    "query.value_distance": [("fdq.query", "value_distance")],
    "fdstore.parse_fdml": [("fdq.cli", "parse_fdml")],
    "fdstore.eval_fdml": [("fdq.cli", "eval_fdml")],
    "fdstore.diff_fdsets": [("fdq.cli", "diff_fdsets")],
    "fdstore.save_fdset": [("fdq.cli", "save_fdset")],
    "fdstore.import_fdset": [("fdq.cli", "import_fdset")],
    "setexpr.eval_subset_expr": [
        ("fdq.fdstore", "eval_subset_expr"),
        ("fdq.miner", "eval_subset_expr"),
    ],
}


class Tracer:
    """Spans and counters for one traced iteration."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.kept: Counter = Counter()
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()  # outermost spans of each name only
        self.counts: Counter = Counter()
        self.open_depth: Counter = Counter()
        self._stack = [[0, 0.0]]  # [span id, child seconds]; index 0 is the root
        self._next_id = 1
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, counter=None):
        stack = self._stack

        def traced(*args, **kwargs):
            enter = perf_counter()
            parent = stack[-1]
            frame = [self._next_id, 0.0]
            self._next_id += 1
            stack.append(frame)
            self.open_depth[name] += 1
            done = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                end = perf_counter()
                stack.pop()
                self.open_depth[name] -= 1
                self.calls[name] += 1
                self.self_s[name] += (end - start) - frame[1]
                if not self.open_depth[name]:
                    self.total_s[name] += end - start
                if self.kept[name] < SPAN_KEEP:
                    self.kept[name] += 1
                    self.spans.append((frame[0], parent[0], name, start, end))
                if done and counter is not None:
                    counter(self, args, kwargs, result)
                parent[1] += perf_counter() - enter
            return result

        return traced

    def install(self) -> None:
        """Swap a wrapper in for every layer attribute.

        A target that no longer exists raises LookupError before anything
        is swapped, so a rename in fdq stops the traced run instead of
        silently reading 0 for its layer; update LAYERS along with it.
        """
        found, missing = [], []
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, leaf, None)
                if original is None:
                    missing.append(f"{module_name}.{attr}")
                else:
                    found.append((layer, owner, leaf, original))
        if missing:
            raise LookupError(f"trace targets not found in fdq: {', '.join(missing)}")
        for layer, owner, leaf, original in found:
            self._undo.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(layer, original, COUNTERS.get(layer)))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._undo):
            setattr(owner, leaf, original)
        self._undo.clear()

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.s"] = self.total_s[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.calls"] = self.calls[layer]
        for name in COUNTS:
            out[name] = self.counts[name]
        fds = self.counts["miner.fds_emitted"]
        out["miner.products_per_fd"] = self.counts["miner.products"] / fds if fds else 0.0
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "start", "end"],
                    "spans": self.spans,
                    "metrics": self.metrics(),
                },
                fh,
            )


# Deterministic work counters, taken after a span has closed.
COUNTS = (
    "partition.intersect.rows_in",
    "miner.products",
    "partition.pli_of.rows_in",
    "miner.fds_emitted",
    "cli.render.bytes",
    "fdstore.save_fdset.bytes",
)


def _count_intersect(tracer, args, kwargs, result):
    tracer.counts["partition.intersect.rows_in"] += args[0].covered + args[1].covered
    if tracer.open_depth["miner.mine_fds"]:
        tracer.counts["miner.products"] += 1


def _count_pli_of(tracer, args, kwargs, result):
    scope = args[2] if len(args) > 2 else kwargs.get("scope")
    rows = args[0].row_count if scope is None else len(scope)
    tracer.counts["partition.pli_of.rows_in"] += rows


def _count_mine_fds(tracer, args, kwargs, result):
    tracer.counts["miner.fds_emitted"] += len(result.entries)


def _count_render(tracer, args, kwargs, result):
    tracer.counts["cli.render.bytes"] += len(result.encode("utf-8"))


def _count_save(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.counts["fdstore.save_fdset.bytes"] += os.path.getsize(path)


COUNTERS = {
    "partition.intersect": _count_intersect,
    "partition.pli_of": _count_pli_of,
    "miner.mine_fds": _count_mine_fds,
    "cli.render": _count_render,
    "fdstore.save_fdset": _count_save,
}
