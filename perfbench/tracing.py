"""Outside-in tracing: spans around each layer's public entry points.

:class:`Tracer` replaces the functions listed in :data:`ENTRY_POINTS`
with wrappers that record a span (name, start, end, parent) in memory;
:meth:`Tracer.dump` writes them as JSON lines when the run ends.
:func:`analyze` turns a span file into per-name call counts and times,
self time per layer and the share of the measured time the spans cover.

Nothing here changes what the program computes; the wrappers only read
the clock.  Spans carry the layer as the prefix of their name.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

#: (module, class or None, attribute, span name)
ENTRY_POINTS = [
    ("repro.store.graph", "Graph", "load_snapshot", "store.snapshot_load"),
    ("repro.store.durable", "DurableGraph", "add_all", "store.add_all"),
    ("repro.store.index", "TripleIndex", "flush", "store.flush"),
    ("repro.store.text_index", "TextIndex", "from_graph", "store.text_index_build"),
    ("repro.store.endpoint", "Endpoint", "refresh_text_index", "store.text_index_refresh"),
    ("repro.store.endpoint", "Endpoint", "select", "store.select"),
    ("repro.store.endpoint", "Endpoint", "ask", "store.ask"),
    ("repro.store.endpoint", "Endpoint", "ask_batch", "store.ask_batch"),
    ("repro.store.endpoint", "Endpoint", "resolve_keyword", "store.keyword"),
    ("repro.sparql.eval", "Evaluator", "select", "sparql.evaluate"),
    ("repro.sparql.eval", "Evaluator", "ask", "sparql.evaluate"),
    ("repro.sparql.parser", None, "parse_query", "sparql.parse"),
    ("repro.sparql.operators", None, "compile_where", "sparql.plan"),
    ("repro.sparql.aggregator", None, "compile_aggregate_ex", "sparql.plan"),
    ("repro.sparql.aggregator", "AggregatePlan", "execute", "sparql.aggregate"),
    ("repro.sparql.vectorized", None, "vec_rows", "sparql.batched"),
    ("repro.sparql.vectorized", None, "vec_solutions", "sparql.batched"),
    ("repro.sparql.vectorized", None, "vec_any", "sparql.batched"),
    ("repro.sparql.vectorized", None, "collect_batches", "sparql.batched"),
    ("repro.sparql.batch", None, "ask_bgp_batch", "sparql.batched"),
    ("repro.sparql.vectorized", None, "_per_row", "sparql.per_row"),
    ("repro.core.virtual_graph", "VirtualSchemaGraph", "bootstrap", "core.bootstrap"),
    ("repro.core.virtual_graph", "VirtualSchemaGraph", "refreshed", "core.vgraph_refresh"),
    ("repro.core.matching", None, "find_interpretations", "core.interpretations"),
    ("repro.core.reolap", None, "_validate_candidates", "core.validate"),
    ("repro.core.session", "ExplorationSession", "synthesize", "core.synthesize"),
    ("repro.core.session", "ExplorationSession", "choose", "core.choose"),
    ("repro.core.session", "ExplorationSession", "all_refinements", "core.refinements"),
    ("repro.core.session", "ExplorationSession", "apply", "core.apply"),
    ("repro.core.session", "ExplorationSession", "back", "core.back"),
    ("repro.core.refine.disaggregate", "Disaggregate", "propose", "core.propose.disaggregate"),
    ("repro.core.refine.rollup", "Rollup", "propose", "core.propose.rollup"),
    ("repro.core.refine.slice", "Slice", "propose", "core.propose.slice"),
    ("repro.core.refine.topk", "TopK", "propose", "core.propose.topk"),
    ("repro.core.refine.percentile", "Percentile", "propose", "core.propose.percentile"),
    ("repro.core.refine.similarity", "SimilaritySearch", "propose", "core.propose.similarity"),
    ("repro.serving.service", "_GuardedEndpoint", "select", "serving.select"),
    ("repro.serving.service", "_GuardedEndpoint", "query", "serving.query"),
    ("repro.serving.service", "_GuardedEndpoint", "ask_batch", "serving.ask_batch"),
    ("repro.serving.service", "QueryService", "open_session", "serving.open_session"),
    ("repro.server.sessions", None, "run_step", "server.step"),
    ("repro.server.app", "ReproServer", "_handle", "server.request"),
    ("repro.server.http", "HTTPServer", "_respond", "server.respond"),
]

#: The HTTP client's entry points, wrapped in the serve-tenants client:
#: its request time is the transport layer around the server's spans.
CLIENT_ENTRY_POINTS = [
    ("http.client", "HTTPConnection", "request", "http.send"),
    ("http.client", "HTTPConnection", "getresponse", "http.receive"),
    ("http.client", "HTTPResponse", "read", "http.read"),
]

#: Coroutine spans: recorded without parents on the server's event loop.
ASYNC_NAMES = ("server.request", "server.respond")


class Tracer:
    """Records spans from wrappers installed around the entry points."""

    def __init__(self) -> None:
        self.spans: dict[int, tuple] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._gc_start = 0.0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str):
        tracer = self
        clock = time.perf_counter

        if inspect.iscoroutinefunction(fn):
            async def traced_async(*args, **kwargs):
                # Coroutines interleave on one thread, so their spans have
                # no parent and are never parents.
                start = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer.spans[next(tracer._ids)] = (name, start, clock(), -1, None)
            return traced_async

        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(span)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                count = result if isinstance(result, int) and not isinstance(result, bool) else None
                tracer.spans[span] = (name, start, end, parent, count)
        return traced

    def install(self, entry_points=ENTRY_POINTS, collections: bool = True) -> None:
        """Replace every entry point, including names imported elsewhere.

        With ``collections`` the garbage collector's pauses are recorded
        as ``gc.gen<N>`` spans too.
        """
        for module_name, owner_name, attribute, name in entry_points:
            module = importlib.import_module(module_name)
            if owner_name is None:
                original = getattr(module, attribute)
                traced = self.wrap(original, name)
                for other in list(sys.modules.values()):
                    if getattr(other, "__name__", "").startswith("repro") and \
                            getattr(other, attribute, None) is original:
                        setattr(other, attribute, traced)
                continue
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attribute]
            if isinstance(raw, classmethod):
                setattr(owner, attribute, classmethod(self.wrap(raw.__func__, name)))
            else:
                setattr(owner, attribute, self.wrap(raw, name))
        if collections:
            gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.spans[next(self._ids)] = (
                f"gc.gen{info['generation']}", self._gc_start, time.perf_counter(), -1, None)

    def dump(self, path: str) -> None:
        """Stop recording collections and write the spans as JSON lines."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, span in sorted(self.spans.items()):
                handle.write(json.dumps([span_id, *span]) + "\n")


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one wrapper adds to a call, measured on a no-op."""
    def noop():
        return None
    traced = Tracer().wrap(noop, "calibration")
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(0.0, (time.perf_counter() - start - plain) / calls)


def load(path: str) -> dict[int, tuple]:
    spans = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            span_id, *span = json.loads(line)
            spans[span_id] = tuple(span)
    return spans


def analyze(spans: dict[int, tuple], window: tuple[float, float]) -> dict:
    """Per-name and per-layer totals inside and before a time window.

    A name's calls and time count only its outermost spans, so a select
    made by another select is not counted twice.  A span's self time is
    its duration minus its direct children's.
    """
    begin, end = window
    children_ms: dict[int, float] = defaultdict(float)
    for name, start, stop, parent, _count in spans.values():
        if parent >= 0:
            children_ms[parent] += (stop - start) * 1000.0

    def under(span_id: int, name: str) -> bool:
        """Is the span inside a span called ``name``?"""
        parent = spans[span_id][3]
        while parent >= 0 and parent in spans:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    def nested_in_same(span_id: int) -> bool:
        return under(span_id, spans[span_id][0])

    measured = defaultdict(lambda: [0, 0.0, 0])
    setup = defaultdict(lambda: [0, 0.0, 0])
    self_ms = defaultdict(float)
    root_ms = 0.0
    gc_pause_ms = 0.0
    gc_gen2 = 0
    setup_gc_ms = 0.0
    in_window = 0
    async_ms = 0.0
    for span_id, (name, start, stop, parent, count) in spans.items():
        duration = (stop - start) * 1000.0
        inside = begin <= start and stop <= end
        if name.startswith("gc."):
            if inside:
                gc_pause_ms += duration
                gc_gen2 += name == "gc.gen2"
            elif stop <= begin:
                setup_gc_ms += duration
            continue
        if inside:
            in_window += 1
            if name in ASYNC_NAMES:
                async_ms += duration
            else:
                self_ms[name.split(".", 1)[0]] += duration - children_ms[span_id]
                if parent < 0:
                    root_ms += duration
        if nested_in_same(span_id):
            continue
        if name == "store.text_index_build" and under(span_id, "store.text_index_refresh"):
            continue
        bucket = measured if inside else setup if stop <= begin else None
        if bucket is not None:
            entry = bucket[name]
            entry[0] += 1
            entry[1] += duration
            entry[2] += count or 0
    if async_ms:
        # The event loop's request spans enclose the worker threads' root
        # spans; what they do not enclose is HTTP framing and lane wait.
        self_ms["server"] += async_ms - root_ms
    bootstrap_queries = sum(
        1 for span_id, span in spans.items()
        if span[0] in ("store.select", "store.ask") and span[2] <= begin
        and under(span_id, "core.bootstrap") and not nested_in_same(span_id)
    )
    return {
        "measured": {k: v for k, v in measured.items()},
        "setup": {k: v for k, v in setup.items()},
        "self_ms": dict(self_ms),
        "root_ms": root_ms,
        "async_ms": async_ms,
        "spans": in_window,
        "gc_pause_ms": gc_pause_ms,
        "gc_gen2": gc_gen2,
        "setup_gc_ms": setup_gc_ms,
        "bootstrap_queries": bootstrap_queries,
    }
