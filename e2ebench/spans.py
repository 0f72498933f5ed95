"""Spans for traced runs, recorded from the benchmark's own files.

A traced run wraps each layer's public entry points before the
workload starts; the program itself is unchanged.  Class methods are
wrapped on the class.  A module-level function is replaced in every
loaded module that holds it by name, so calls made inside the program
are seen too.  The HTTP server launcher installs the same wrappers in
the server process.

A span is ``(id, name, start, end, parent, request, attrs)``: the
parent is the innermost open span of the same thread or asyncio task
(a :mod:`contextvars` variable), and ``request`` is the id of the
HTTP request being served, when there is one.  Spans stay in memory
and are written out when the run ends; :func:`layer_metrics` turns
them into the per-layer figures.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("span", default=None)
_REQUEST: contextvars.ContextVar = contextvars.ContextVar("request", default=None)

now = time.perf_counter


class Tracer:
    """An in-memory span list plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)

    def timed(self, name: str, fn: Callable, attrs: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span; ``attrs(result, args)`` adds fields."""
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = _CURRENT.get()
            token = _CURRENT.set(sid)
            start = now()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = now()
                _CURRENT.reset(token)
                extra = attrs(result, args) if attrs is not None else None
                spans.append((sid, name, start, end, parent, _REQUEST.get(), extra))

        return wrapper

    def timed_async(self, name: str, fn: Callable, attrs: Optional[Callable] = None,
                    request_id: Optional[Callable] = None) -> Callable:
        """A coroutine function wrapped in a span (its own task context)."""
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if request_id is not None:
                _REQUEST.set(request_id(args))
            sid = next(ids)
            parent = _CURRENT.get()
            token = _CURRENT.set(sid)
            before = attrs(None, args) if attrs is not None else None
            start = now()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = now()
                _CURRENT.reset(token)
                extra = attrs(before, args) if attrs is not None else None
                spans.append((sid, name, start, end, parent, _REQUEST.get(), extra))

        return wrapper

    def timed_enter(self, name: str, fn: Callable, skip: Callable) -> Callable:
        """A context-manager factory whose ``__enter__`` (the wait) is timed."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            return _TimedEnter(tracer, name, fn(obj, *args, **kwargs), skip(obj))

        return wrapper

    def timed_items(self, name: str, fn: Callable) -> Callable:
        """An iterator factory whose every ``next`` is one span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _TimedIterator(tracer, name, iter(fn(*args, **kwargs)))

        return wrapper

    def dispatch(self, fn: Callable) -> Callable:
        """Wrap ``QueryServer.run_blocking``: the engine call gets a
        ``server.dispatch_wait`` span (submit to start) and a
        ``server.engine`` span, both children of the submitting span."""
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        def wrapper(server, call, *args):
            submitted = now()
            parent = _CURRENT.get()
            request = _REQUEST.get()

            def engine_call():
                started = now()
                spans.append((next(ids), "server.dispatch_wait", submitted, started,
                              parent, request, None))
                sid = next(ids)
                tokens = (_CURRENT.set(sid), _REQUEST.set(request))
                try:
                    return call(*args)
                finally:
                    _CURRENT.reset(tokens[0])
                    _REQUEST.reset(tokens[1])
                    spans.append((sid, "server.engine", started, now(), parent, request, None))

            return fn(server, engine_call)

        return wrapper


class _TimedEnter:
    def __init__(self, tracer: Tracer, name: str, manager, skip: bool) -> None:
        self._tracer, self._name, self._manager, self._skip = tracer, name, manager, skip

    def __enter__(self):
        start = now()
        value = self._manager.__enter__()
        if not self._skip:
            self._tracer.spans.append((next(self._tracer._ids), self._name, start, now(),
                                       _CURRENT.get(), _REQUEST.get(), None))
        return value

    def __exit__(self, *exc):
        return self._manager.__exit__(*exc)


class _TimedIterator:
    def __init__(self, tracer: Tracer, name: str, inner) -> None:
        self._tracer, self._name, self._inner = tracer, name, inner

    def __iter__(self):
        return self

    def __next__(self):
        start = now()
        value = next(self._inner)  # StopIteration ends the stream unrecorded
        self._tracer.spans.append((next(self._tracer._ids), self._name, start, now(),
                                   _CURRENT.get(), _REQUEST.get(), None))
        return value


# ----------------------------------------------------------------- targets
def _rows_of(result, args):
    if isinstance(result, tuple) and result and hasattr(result[0], "shape"):
        return {"rows": int(result[0].shape[0])}  # generic_join_codes
    if isinstance(result, bool):
        return {"rows": int(result)}
    try:
        return {"rows": len(result)}
    except TypeError:
        return None


def _batch_rows(result, args):
    return {"rows": len(args[2])}


def _ingested(before, args):
    from repro.server.http import HttpError

    server, name = args[0], args[3]
    try:
        batcher = server.registry.get(name).batcher
    except HttpError:  # no such tenant: the handler answers 404 itself
        return {"seq": 0}
    seq = batcher.enqueued_seq if batcher is not None else 0
    if before is None:
        return {"seq": seq}
    return {"rows": seq - before["seq"]}


def _request_id(args):
    return args[1].headers.get("x-request-id")


# (module, attribute path, span name, kind, extra)
TARGETS = [
    ("repro.query.parser", "parse_query", "plan.parse", "func", None),
    ("repro.classify.classifier", "classify", "plan.classify", "func", None),
    ("repro.engine.planner", "plan_query", "plan.plan", "func", None),
    ("repro.engine.session", "Session.prepare", "engine.prepare", "method", None),
    ("repro.engine.prepared", "AnswerSet.count", "engine.read", "method", None),
    ("repro.engine.prepared", "AnswerSet.page", "engine.read", "method", None),
    ("repro.engine.prepared", "AnswerSet.aggregate", "engine.read", "method", None),
    ("repro.engine.prepared", "AnswerSet.first", "engine.read", "method", None),
    ("repro.db.database", "Database.from_dict", "db.from_dict", "method", None),
    ("repro.db.database", "Database.to_backend", "db.to_backend", "method", None),
    ("repro.db.relation", "Relation.add", "db.update", "method", None),
    ("repro.db.relation", "Relation.discard", "db.update", "method", None),
    ("repro.db.columnar", "ColumnarRelation.add", "db.update", "method", None),
    ("repro.db.columnar", "ColumnarRelation.discard", "db.update", "method", None),
    ("repro.db.sharded", "ShardedColumnarRelation.add", "db.update", "method", None),
    ("repro.db.sharded", "ShardedColumnarRelation.discard", "db.update", "method", None),
    ("repro.db.executor", "ShardExecutor.map", "db.shard_map", "method", None),
    ("repro.db.executor", "ParallelExecutor.map", "db.shard_map", "method", None),
    ("repro.engine.session", "Session.add_all", "db.apply", "method", _batch_rows),
    ("repro.engine.session", "Session.discard_all", "db.apply", "method", _batch_rows),
    ("repro.db.wal", "WalWriter.append", "wal.append", "method", None),
    ("repro.db.database", "attach", "wal.recover", "func", None),
    ("repro.joins.generic_join", "generic_join", "joins.generic_join", "func", _rows_of),
    ("repro.joins.generic_join", "generic_join_codes", "joins.generic_join", "func", _rows_of),
    ("repro.joins.generic_join", "generic_join_boolean", "joins.generic_join", "func", _rows_of),
    ("repro.joins.yannakakis", "yannakakis_boolean", "joins.yannakakis", "func", None),
    ("repro.joins.yannakakis", "yannakakis_full", "joins.yannakakis", "func", None),
    ("repro.joins.yannakakis", "yannakakis_project", "joins.yannakakis", "func", None),
    ("repro.counting.algorithms", "count_answers", "counting.count_answers", "func", None),
    ("repro.dynamic.acyclic_count", "AcyclicCountMaintainer.count", "dynamic.count", "method", None),
    ("repro.semiring.faq", "AggregateMaintainer.value", "semiring.maintainer_value", "method", None),
    ("repro.semiring.faq", "AggregateMaintainer._rebuild", "semiring.rebuild", "method", None),
    ("repro.semiring.faq", "aggregate_acyclic", "semiring.aggregate", "func", None),
    ("repro.semiring.faq", "aggregate_free_connex", "semiring.aggregate", "func", None),
    ("repro.semiring.faq", "aggregate_generic", "semiring.aggregate", "func", None),
    ("repro.direct_access.lex", "LexDirectAccess.__init__", "direct_access.build", "method", None),
    ("repro.direct_access.lex", "LexDirectAccess.access", "direct_access.access", "method", None),
    ("repro.direct_access.lex", "LexDirectAccess.refresh", "direct_access.refresh", "method", None),
    ("repro.enumeration.constant_delay", "ConstantDelayEnumerator.__init__", "enumeration.build", "method", None),
    ("repro.enumeration.constant_delay", "ConstantDelayEnumerator.__iter__", "enumeration.answer", "items", None),
    ("repro.util.locks", "ReadWriteLock.read", "locks.read_wait", "enter", None),
    ("repro.util.locks", "ReadWriteLock.write", "locks.write_wait", "enter", None),
]

SERVER_TARGETS = [
    ("repro.server.app", "QueryServer.run_blocking", "server.dispatch", "dispatch", None),
    ("repro.server.app", "QueryServer._dispatch", "server.request", "async", None),
    ("repro.server.app", "QueryServer._handle_updates", "server.ingest", "async", _ingested),
]


def install(tracer: Tracer, server: bool = False) -> None:
    """Wrap every target; ``server`` adds the HTTP server's entry points."""
    targets = TARGETS + (SERVER_TARGETS if server else [])
    for module_name, path, name, kind, extra in targets:
        module = importlib.import_module(module_name)
        if kind == "func":
            original = getattr(module, path)
            wrapped = tracer.timed(name, original, extra)
            for loaded in list(sys.modules.values()):
                namespace = getattr(loaded, "__dict__", None)
                if not namespace or not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(namespace.items()):
                    if value is original:
                        setattr(loaded, attr, wrapped)
            continue
        cls_name, attr = path.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.timed(name, raw.__func__, extra)))
        elif kind == "method":
            setattr(cls, attr, tracer.timed(name, raw, extra))
        elif kind == "enter":
            setattr(cls, attr, tracer.timed_enter(name, raw, lambda lock: lock._depth() > 0))
        elif kind == "items":
            setattr(cls, attr, tracer.timed_items(name, raw))
        elif kind == "dispatch":
            setattr(cls, attr, tracer.dispatch(raw))
        elif kind == "async":
            assert inspect.iscoroutinefunction(raw), path
            request_id = _request_id if attr == "_dispatch" else None
            setattr(cls, attr, tracer.timed_async(name, raw, extra, request_id))


# ----------------------------------------------------------------- metrics
#: Per-layer metrics: name -> unit.  Every traced run reports all of
#: them; a layer that a workload does not reach reads 0.
PER_LAYER = {
    "plan.parse_ms": "ms",
    "plan.classify_ms": "ms",
    "plan.plan_ms": "ms",
    "engine.prepare_ms": "ms",
    "engine.prepare_cache_hits": "count",
    "engine.read_self_ms": "ms",
    "db.from_dict_s": "s",
    "db.to_backend_s": "s",
    "db.mirrors": "count",
    "db.update_us": "us",
    "db.shard_map_calls": "count",
    "db.shard_map_ms": "ms",
    "db.apply_calls": "count",
    "db.rows_per_apply": "rows",
    "db.apply_ms": "ms",
    "wal.records": "count",
    "wal.bytes_per_row": "B/row",
    "wal.recover_s": "s",
    "joins.generic_join_ms": "ms",
    "joins.generic_join_calls": "count",
    "joins.generic_join_rows": "rows",
    "joins.yannakakis_ms": "ms",
    "joins.yannakakis_calls": "count",
    "counting.count_answers_ms": "ms",
    "counting.count_answers_calls": "count",
    "dynamic.count_ms": "ms",
    "dynamic.rebuilds": "count",
    "semiring.maintainer_value_ms": "ms",
    "semiring.maintainer_builds": "count",
    "semiring.aggregate_ms": "ms",
    "direct_access.build_ms": "ms",
    "direct_access.access_us": "us",
    "direct_access.refresh_ms": "ms",
    "enumeration.build_ms": "ms",
    "enumeration.answer_us": "us",
    "server.dispatch_wait_ms": "ms",
    "server.engine_ms": "ms",
    "server.overhead_ms": "ms",
    "server.ingest_rows_per_s": "rows/s",
    "locks.write_wait_ms": "ms",
    "locks.read_wait_ms": "ms",
}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: List[tuple], extra: Dict[str, float],
                  client_latency: Dict[str, float]) -> Dict[str, float]:
    """Per-layer figures from the spans of one traced run.

    ``extra`` holds figures measured outside the spans (WAL bytes per
    row); ``client_latency`` maps HTTP request ids to the latency the
    client saw.  Spans of different processes carry disjoint
    ``(process, id)`` keys, so the ids are first made unique.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append(s)
    named = defaultdict(list)
    for s in spans:
        named[s[1]].append(s)

    def dur(s):
        return s[3] - s[2]

    def ancestors(s):
        parent = s[4]
        while parent is not None and parent in by_id:
            s = by_id[parent]
            yield s
            parent = s[4]

    def outermost(name):
        return [s for s in named[name] if all(a[1] != name for a in ancestors(s))]

    def under(s, name):
        return any(a[1] == name for a in ancestors(s))

    def med(name, scale, only_outer=True):
        pool = outermost(name) if only_outer else named[name]
        return _median([dur(s) * scale for s in pool])

    def layer_self(s):
        total = dur(s)
        for child in children[s[0]]:
            total -= dur(child)
            if child[1] == s[1]:
                total += layer_self(child)
        return total

    m: Dict[str, float] = {}
    m["plan.parse_ms"] = med("plan.parse", 1e3)
    m["plan.classify_ms"] = med("plan.classify", 1e3)
    m["plan.plan_ms"] = med("plan.plan", 1e3)
    m["engine.prepare_ms"] = med("engine.prepare", 1e3)
    m["engine.prepare_cache_hits"] = sum(
        1 for s in named["engine.prepare"]
        if not any(c[1] == "plan.plan" for c in children[s[0]])
    )
    m["engine.read_self_ms"] = _median([layer_self(s) * 1e3 for s in outermost("engine.read")])
    m["db.from_dict_s"] = med("db.from_dict", 1.0)
    m["db.to_backend_s"] = med("db.to_backend", 1.0)
    m["db.mirrors"] = len(named["db.to_backend"])
    m["db.update_us"] = med("db.update", 1e6)
    m["db.shard_map_calls"] = len(outermost("db.shard_map"))
    m["db.shard_map_ms"] = med("db.shard_map", 1e3)
    applies = outermost("db.apply")
    m["db.apply_calls"] = len(applies)
    m["db.rows_per_apply"] = (
        sum(s[6]["rows"] for s in applies) / len(applies) if applies else 0.0
    )
    m["db.apply_ms"] = med("db.apply", 1e3)
    m["wal.records"] = len(named["wal.append"])
    m["wal.bytes_per_row"] = float(extra.get("wal.bytes_per_row", 0.0))
    m["wal.recover_s"] = med("wal.recover", 1.0)
    joins = outermost("joins.generic_join")
    m["joins.generic_join_ms"] = _median([dur(s) * 1e3 for s in joins])
    m["joins.generic_join_calls"] = len(joins)
    m["joins.generic_join_rows"] = sum((s[6] or {}).get("rows", 0) for s in joins)
    m["joins.yannakakis_ms"] = med("joins.yannakakis", 1e3)
    m["joins.yannakakis_calls"] = len(outermost("joins.yannakakis"))
    m["counting.count_answers_ms"] = med("counting.count_answers", 1e3)
    m["counting.count_answers_calls"] = len(outermost("counting.count_answers"))
    m["dynamic.count_ms"] = med("dynamic.count", 1e3)
    rebuilds = named["semiring.rebuild"]
    m["dynamic.rebuilds"] = sum(1 for s in rebuilds if under(s, "dynamic.count"))
    m["semiring.maintainer_value_ms"] = _median([
        dur(s) * 1e3 for s in outermost("semiring.maintainer_value")
        if not under(s, "dynamic.count")
    ])
    m["semiring.maintainer_builds"] = sum(
        1 for s in rebuilds if not under(s, "dynamic.count")
    )
    m["semiring.aggregate_ms"] = med("semiring.aggregate", 1e3)
    m["direct_access.build_ms"] = med("direct_access.build", 1e3)
    m["direct_access.access_us"] = med("direct_access.access", 1e6)
    m["direct_access.refresh_ms"] = med("direct_access.refresh", 1e3)
    m["enumeration.build_ms"] = med("enumeration.build", 1e3)
    m["enumeration.answer_us"] = med("enumeration.answer", 1e6, only_outer=False)
    m["server.dispatch_wait_ms"] = med("server.dispatch_wait", 1e3, only_outer=False)
    m["server.engine_ms"] = med("server.engine", 1e3, only_outer=False)
    engine_by_request: Dict[str, float] = defaultdict(float)
    for s in named["server.engine"]:
        if s[5] is not None:
            engine_by_request[s[5]] += dur(s)
    m["server.overhead_ms"] = _median([
        (latency - engine_by_request.get(rid, 0.0)) * 1e3
        for rid, latency in client_latency.items()
    ])
    ingests = [s for s in named["server.ingest"] if (s[6] or {}).get("rows")]
    ingest_time = sum(dur(s) for s in ingests)
    m["server.ingest_rows_per_s"] = (
        sum(s[6]["rows"] for s in ingests) / ingest_time if ingest_time else 0.0
    )
    m["locks.write_wait_ms"] = med("locks.write_wait", 1e3, only_outer=False)
    m["locks.read_wait_ms"] = med("locks.read_wait", 1e3, only_outer=False)
    assert set(m) == set(PER_LAYER), set(m) ^ set(PER_LAYER)
    return m


def renumber(spans: List[tuple], offset: int) -> List[tuple]:
    """Shift span and parent ids so spans of several processes merge."""
    return [
        (s[0] + offset, s[1], s[2], s[3], None if s[4] is None else s[4] + offset, s[5], s[6])
        for s in spans
    ]


def jsonable(spans: List[tuple]) -> List[list]:
    return [list(s) for s in spans]


def from_json(rows: List[list]) -> List[tuple]:
    return [tuple(r) for r in rows]
