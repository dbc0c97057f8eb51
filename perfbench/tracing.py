"""Span tracing for the traced run, recorded from outside the program.

`install()` replaces the names through which semverdiff's callers look up
each layer's entry points (module globals such as `semverdiff.impact.tokenize`
or `semverdiff.corpus.extract_surface`, and the package attributes the
benchmark's ops call) with wrappers that record a span. Nested calls thus get
the right parent, and a layer's self time is its spans' time minus the part
covered by their child spans. Spans live in flat arrays until the op ends.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import ops
import semverdiff as sv
from semverdiff import corpus, diff, impact, parser, surface

ROOT = "op"


class Tracer:
    """Spans (id, parent, name, start, end) plus optional counts per span."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("i")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[int, dict] = {}
        self.stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, nid: int) -> int:
        sid = len(self.start)
        self.parent.append(self.stack[-1])
        self.name.append(nid)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(self.clock())
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = self.clock()
        self.stack.pop()

    def wrap(self, fn, name: str, count=None):
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            sid = self.begin(nid)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.finish(sid)
                self.counts[sid] = {"error": 1}
                raise
            self.finish(sid)
            if count is not None:
                self.counts[sid] = count(args, out)
            return out

        return traced

    def summary(self, scale: float = 1.0) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds (times scale), and summed counts."""
        n = len(self.start)
        child = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for sid in range(n):
            row = out[self.names[self.name[sid]]]
            dur = self.end[sid] - self.start[sid]
            row["calls"] += 1
            row["total_s"] += dur * scale
            row["self_s"] += (dur - child[sid]) * scale
            for key, value in self.counts.get(sid, {}).items():
                row[key] += value
            if "error" in self.counts.get(sid, {}) and self.parent[sid] >= 0:
                row["error_under_" + self.names[self.name[self.parent[sid]]]] += 1
        return {name: dict(row) for name, row in out.items()}

    def spans(self) -> dict:
        """The raw spans as one JSON-ready document."""
        return {
            "names": self.names,
            "spans": [[sid, self.parent[sid], self.name[sid], self.start[sid], self.end[sid]]
                      for sid in range(len(self.start))],
            "counts": {str(sid): c for sid, c in self.counts.items()},
        }


def _text_bytes(args, out) -> dict:
    return {"bytes": len(args[0])}  # characters; the generated sources are ASCII


def _surface(args, out) -> dict:
    return {"objects": sum(len(p.objects) for p in out.packages.values()),
            "parse_failures": len(out.parse_failures)}


def _records(args, out) -> dict:
    return {"records": len(out), "breaking": sum(1 for r in out if r.breaking)}


def _usages(args, out) -> dict:
    return {"usages": len(out)}


def _held(args, out) -> dict:
    return {"held": len(out)}


def _entries(args, out) -> dict:
    return {"entries": len(out)}


def _analysis(args, out) -> dict:
    return {"invalid": sum(1 for e in out.entries if not e.is_valid)}


# (namespace, attribute, span name, counter): every place a caller looks up a
# layer's entry point on the paths the workloads run.
PATCHES = (
    (parser, "tokenize", "parser.tokenize", _text_bytes),
    (impact, "tokenize", "parser.tokenize", _text_bytes),
    (surface, "parse_go_file", "parser.parse", None),
    (sv, "extract_surface", "surface.extract", _surface),
    (corpus, "extract_surface", "surface.extract", _surface),
    (diff, "render_type_expr", "gotypes.render", None),
    (diff, "render_field", "gotypes.render", None),
    (diff, "render_method", "gotypes.render", None),
    (diff, "render_type_params", "gotypes.render", None),
    (diff, "normalized_params", "gotypes.render", None),
    (sv, "diff_surfaces", "diff.diff_surfaces", _records),
    (corpus, "diff_surfaces", "diff.diff_surfaces", _records),
    (sv, "records_to_text", "diff.render", None),
    (sv, "analyze_impact", "impact.analyze", None),
    (corpus, "analyze_impact", "impact.analyze", None),
    (impact, "scan_client", "impact.scan", None),
    (impact, "bind_imports", "impact.bind_imports", _text_bytes),
    (impact, "_match_file", "impact.match", _usages),
    (ops, "_module_path", "manifest.read", None),
    (sv, "parse_manifest", "manifest.parse", None),
    (corpus, "parse_manifest", "manifest.parse", None),
    (impact, "parse_manifest", "manifest.parse", None),
    (sv, "analyze_corpus", "corpus.analyze", _analysis),
    (corpus, "ingest_corpus", "corpus.ingest", _entries),
    (corpus, "validate_corpus", "corpus.validate", _held),
    (corpus, "build_graph", "corpus.graph", None),
    (corpus, "aggregate_upgrade_stats", "corpus.stats", None),
    (corpus, "condition_table", "corpus.stats", None),
    (corpus, "time_series", "corpus.stats", None),
    (sv, "write_reports", "corpus.write", None),
)


def install(tracer: Tracer) -> None:
    """Wrap every entry point in PATCHES; a name that no longer exists is an error."""
    for namespace, attr, span, count in PATCHES:
        if not hasattr(namespace, attr):
            raise AttributeError(f"{namespace.__name__}.{attr} is gone; update perfbench/tracing.py")
        setattr(namespace, attr, tracer.wrap(getattr(namespace, attr), span, count))
