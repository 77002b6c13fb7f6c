"""Spans and counts recorded around websift's public functions, from outside.

A ``Tracer`` swaps a timing wrapper in for a function under the name its
caller looks it up by (``websift.pipeline.extract_features``,
``websift.cli.extract_features``, ``FlowStore.put_blob`` ...) and puts
the original back on ``restore()``.  Each call becomes one span
``(span_id, parent_id, name, exchange_id, start, end)`` kept in memory.

The parent is the enclosing span on the same thread.  A thread's first
span takes the span that caused it on another thread: the agent's fetch
for the proxy's work, the proxy's ICAP call for the gateway's, the
gateway's ``serve_icap`` for the commit.  Spans of one proxied exchange
carry the proxy's exchange id.

``PROBES`` are the few wrappers the end-to-end metrics are read from
(fetch latency, the capture interval and the process CPU time spent in
it, label settling); ``LAYERS`` adds one wrapper per public function of
each module for the traced run.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter, process_time

import websift.agents
import websift.cli
import websift.contentprep
import websift.features.entropy
import websift.features.extract
import websift.features.jsparse
import websift.forest
import websift.pipeline
import websift.wire
from websift.flowstore import FlowStore

WORKER_STEPS = ("labels.submit_worker_step", "labels.fetch_worker_step")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.links: dict = {}
        self.marks: dict[str, float] = {}     # process CPU seconds at named points
        self.local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patched: list[tuple] = []

    # --- recording

    def add(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def _stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def in_span(self, names) -> bool:
        return any(name in names for _, name in self._stack())

    def _record(self, sid, parent, name, start, end) -> None:
        if parent is None:
            parent = getattr(self.local, "root_parent", None)
        self.spans.append((sid, parent, name, getattr(self.local, "xid", None),
                           start, end))

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1][0] if stack else None
        stack.append((sid, name))
        start = perf_counter()
        try:
            yield sid
        finally:
            end = perf_counter()
            stack.pop()
            self._record(sid, parent, name, start, end)

    def wrap(self, name: str, fn, enter=None, leave=None):
        """Wrapper timing each call of fn as span `name`.

        enter(tracer, sid, args, kwargs) runs before the clock starts and
        leave(tracer, args, kwargs, result) after it stops, on success.
        """
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            if enter is not None:
                enter(tracer, sid, args, kwargs)
            parent = stack[-1][0] if stack else None
            stack.append((sid, name))
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                if ok and leave is not None:
                    leave(tracer, args, kwargs, result)
                tracer._record(sid, parent, name, start, end)
        return traced

    def _wrap_generator(self, name: str, fn):
        """Each resumption of the generator is one span; calls are counted."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.add(name + ".calls")
            it = fn(*args, **kwargs)
            while True:
                with tracer.span(name):
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                yield item
        return traced

    # --- patching

    def patch(self, owner, attr: str, name: str, enter=None, leave=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, enter, leave))
        self._patched.append((owner, attr, original))

    def install(self, plan) -> "Tracer":
        for spec in plan:
            self.patch(spec.owner, spec.attr, spec.name, spec.enter, spec.leave)
        return self

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # --- reading

    def by_name(self, name: str) -> list[tuple]:
        return [s for s in self.spans if s[2] == name]

    def durations(self, name: str) -> list[float]:
        return [s[5] - s[4] for s in self.spans if s[2] == name]


@dataclass(frozen=True)
class Patch:
    owner: object
    attr: str
    name: str
    enter: object = None
    leave: object = None


# ---------------------------------------------------------------------------
# hooks: cross-thread links and counts taken at the wrapped boundaries

def _fetch_enter(t: Tracer, sid, args, kwargs) -> None:
    # proxy_request(proxy_addr, method, url, ...)
    t.marks.setdefault("capture_cpu_start", process_time())
    t.links[("fetch", args[1], args[2])] = sid


def _fetch_leave(t: Tracer, args, kwargs, result) -> None:
    if result[0] != 200:
        t.add("agents.non_200")
    t.local.xid = t.links.get(("xid", args[1], args[2]))


def _stop_leave(t: Tracer, args, kwargs, result) -> None:
    t.marks["capture_cpu_end"] = process_time()


def _agent_run_leave(t: Tracer, args, kwargs, result) -> None:
    t.add("agents.visit_errors", sum(len(v.errors) for v in result))


def _reqmod_enter(t: Tracer, sid, args, kwargs) -> None:
    request, xid = args[0], kwargs.get("exchange_id", "")
    t.local.xid = xid
    t.local.root_parent = t.links.get(("fetch", request.method, request.url))
    t.links[("xid", request.method, request.url)] = xid


def _transact_enter(t: Tracer, sid, args, kwargs) -> None:
    t.links[("transact", getattr(t.local, "xid", None))] = sid


def _encapsulate_enter(t: Tracer, sid, args, kwargs) -> None:
    t.add("wire.body_bytes", len(args[0].body))


def _parse_icap_leave(t: Tracer, args, kwargs, msg) -> None:
    xid = msg.header("X-Exchange-Id")
    t.local.xid = xid
    t.local.root_parent = t.links.get(("transact", xid))


def _serve_enter(t: Tracer, sid, args, kwargs) -> None:
    t.links[("serve", getattr(t.local, "xid", None))] = sid


def _respmod_leave(t: Tracer, args, kwargs, result) -> None:
    exchange, xid, _ = result
    # keyed by object identity; the entry holds the exchange until commit
    t.links[("emitted", id(exchange))] = (exchange, xid)


def _commit_enter(t: Tracer, sid, args, kwargs) -> None:
    entry = t.links.pop(("emitted", id(args[1].exchange)), None)
    xid = entry[1] if entry else None
    t.local.xid = xid
    t.local.root_parent = t.links.get(("serve", xid))


def _put_blob_enter(t: Tracer, sid, args, kwargs) -> None:
    store, data = args[0], args[1]
    if not store.has_blob(hashlib.sha1(data).hexdigest()):
        t.add("flowstore.put_blob.new")


def _query_enter(t: Tracer, sid, args, kwargs) -> None:
    scanned = args[0].record_count()
    t.add("flowstore.query.docs_scanned", scanned)
    if t.in_span(WORKER_STEPS):
        t.add("labels.docs_scanned", scanned)


def _cycles_leave(t: Tracer, args, kwargs, result) -> None:
    t.add("labels.cycles", result["cycles"])
    t.add("labels.tickets_fetched", result["fetched"])


def _extract_enter(t: Tracer, sid, args, kwargs) -> None:
    t.add("features.bytes", len(args[0]))


PROBES = (
    Patch(websift.agents, "proxy_request", "agents.proxy_request",
          _fetch_enter, _fetch_leave),
    Patch(websift.agents.Agent, "run", "agents.run", leave=_agent_run_leave),
    Patch(websift.pipeline.Pipeline, "stop_capture", "pipeline.stop_capture",
          leave=_stop_leave),
    Patch(websift.pipeline.Pipeline, "run_labels", "pipeline.run_labels"),
)

LAYERS = PROBES + (
    # wire
    Patch(websift.wire, "build_reqmod", "wire.build_reqmod", _reqmod_enter),
    Patch(websift.wire, "icap_transact", "wire.icap_transact", _transact_enter),
    Patch(websift.wire, "encapsulate", "wire.encapsulate", _encapsulate_enter),
    Patch(websift.wire, "parse_icap", "wire.parse_icap", leave=_parse_icap_leave),
    Patch(websift.wire, "serve_icap", "wire.serve_icap", _serve_enter),
    Patch(websift.wire, "exchange_from_respmod", "wire.exchange_from_respmod",
          leave=_respmod_leave),
    # contentprep
    Patch(websift.contentprep, "decode_body", "contentprep.decode_body"),
    # features
    Patch(websift.pipeline, "extract_features", "features.extract_features",
          _extract_enter),
    Patch(websift.cli, "extract_features", "features.extract_features",
          _extract_enter),
    Patch(websift.features.extract, "parse_html", "features.parse_html"),
    Patch(websift.features.extract, "parse_js", "features.parse_js"),
    Patch(websift.features.jsparse, "tokenize", "features.tokenize"),
    Patch(websift.features.extract, "shannon_entropy", "features.shannon_entropy"),
    Patch(websift.features.entropy, "shannon_entropy", "features.shannon_entropy"),
    # flowstore
    Patch(FlowStore, "__init__", "flowstore.open"),
    Patch(FlowStore, "records", "flowstore.records"),
    Patch(FlowStore, "put_blob", "flowstore.put_blob", _put_blob_enter),
    Patch(FlowStore, "put_record", "flowstore.put_record"),
    Patch(FlowStore, "flush", "flowstore.flush"),
    Patch(FlowStore, "update_record", "flowstore.update_record"),
    Patch(FlowStore, "query", "flowstore.query", _query_enter),
    # pipeline
    Patch(websift.pipeline, "commit_emitted", "pipeline.commit_emitted", _commit_enter),
    # labels
    Patch(websift.pipeline, "fast_verdict", "labels.fast_verdict"),
    Patch(websift.cli, "fast_verdict", "labels.fast_verdict"),
    Patch(websift.pipeline, "submit_worker_step", "labels.submit_worker_step"),
    Patch(websift.pipeline, "fetch_worker_step", "labels.fetch_worker_step"),
    Patch(websift.pipeline, "run_label_cycles", "labels.run_label_cycles",
          leave=_cycles_leave),
    Patch(websift.cli, "run_label_cycles", "labels.run_label_cycles",
          leave=_cycles_leave),
    # forest
    Patch(websift.forest, "train_forest", "forest.train_forest"),
    Patch(websift.forest, "best_split", "forest.best_split"),
    Patch(websift.forest, "save_model", "forest.save_model"),
    Patch(websift.forest, "predict", "forest.predict"),
    Patch(websift.forest, "load_model", "forest.load_model"),
    # agents
    Patch(websift.agents, "parse_html", "agents.parse_html"),
    # augment
    Patch(websift.pipeline, "augment_exchange", "augment.augment_exchange"),
    # cli
    Patch(websift.cli, "build_report", "cli.build_report"),
)
