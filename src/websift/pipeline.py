"""Capture pipeline: gateway emissions to stored, labeled, featured records.

A single worker thread owns all store writes (the committing owner).
The gateway and the fail-open proxy hand each emission to one callback,
`Pipeline.emit`, which decides its fast verdict and queues it, or counts
the emission as refused when that fails.  Each
emission becomes exactly one FlowRecord with blobs, decoded content,
features, fast labels, an optional scan ticket and augmentation.  Label
worker cycles run between capture phases so ticket mutations stay on
the same writer.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import asdict, dataclass, field
from urllib.parse import urlsplit

from . import contentprep
from .augment import GeoIpDb, WhoIsDb, augment_exchange
from .features import extract_features
from .flowstore import FlowRecord, FlowStore
from .labels import (
    FastVerdict,
    LabelSet,
    SignatureSet,
    SimulatedEngineSet,
    UrlBlacklist,
    fast_verdict,
    fetch_worker_step,
    submit_worker_step,
)
from .wire import EmittedExchange, IcapGateway, ProxyServer


@dataclass
class LabelSources:
    blacklist: UrlBlacklist | None = None
    signatures: SignatureSet | None = None
    engines: SimulatedEngineSet | None = None
    geoip: GeoIpDb | None = None
    whois: WhoIsDb | None = None


@dataclass
class RunSummary:
    records: int = 0
    blobs: int = 0
    tickets: dict[str, int] = field(default_factory=dict)
    refused: int = 0
    errors: int = 0
    agent_requests: int = 0

    def to_doc(self) -> dict:
        return asdict(self)


def _decoded_view(body: bytes, headers) -> tuple[bytes, dict[str, str]]:
    """(decoded bytes, the prep.* extras that say how they were decoded)."""
    if not body:  # nothing to decode, whatever codings a HEAD, 204 or 304 declares
        return body, {}
    try:
        decoded = contentprep.decode_body(body, headers)
    except contentprep.BodyDecodeError as exc:
        return body, {"prep.decode_error": str(exc)}
    prep = {}
    if decoded.applied_codings:
        prep["prep.codings"] = ",".join(decoded.applied_codings)
    if decoded.truncated:
        prep["prep.truncated"] = "true"
    if decoded.pending_codings:
        prep["prep.pending"] = ",".join(decoded.pending_codings)
    return decoded.data, prep


def store_body(store: FlowStore, body: bytes, headers,
               extra: dict) -> tuple[bytes, str | None, str | None]:
    """Store a body and its decoded form, and add the prep.* extras to `extra`.

    Returns (decoded bytes, body_sha1, decoded_sha1); an empty body
    stores no blob.  A body that does not decode is its own decoded form.
    """
    decoded, prep = _decoded_view(body, headers)
    extra.update(prep)
    if not body:
        return decoded, None, None
    body_sha1 = store.put_blob(body)
    decoded_sha1 = store.put_blob(decoded) if decoded != body else body_sha1
    return decoded, body_sha1, decoded_sha1


def commit_emitted(store: FlowStore, emitted: EmittedExchange,
                   sources: LabelSources) -> FlowRecord:
    """Turn one emission into one stored FlowRecord, labeled by its verdict, if any."""
    exchange = emitted.exchange
    extra = dict(emitted.markers)
    decoded, body_sha1, decoded_sha1 = store_body(
        store, exchange.body, exchange.response.headers, extra)

    if emitted.request_body:
        extra["wire.request_body_sha1"] = store.put_blob(emitted.request_body)

    labels = LabelSet()
    if emitted.verdict is not None:
        labels.apply_verdict(emitted.verdict)

    ctype = exchange.response.header("Content-Type") or ""
    features = extract_features(decoded, ctype)

    host = urlsplit(exchange.request.url).hostname or ""
    augment = augment_exchange(host, emitted.markers.get("wire.upstream_ip"),
                               sources.geoip, sources.whois)

    record = FlowRecord(
        exchange=exchange,
        body_sha1=body_sha1,
        decoded_sha1=decoded_sha1,
        labels=labels,
        augment=augment,
        features=features,
        extra=extra,
    )
    store.put_record(record)
    return record


def run_label_cycles(store: FlowStore, engines: SimulatedEngineSet,
                     max_cycles: int = 10000) -> dict[str, int]:
    """Alternate submit/fetch worker steps until the queues drain, at most max_cycles times."""
    if max_cycles < 0:
        raise ValueError(f"max_cycles must be >= 0, got {max_cycles}")
    submitted = fetched = cycles = 0
    while cycles < max_cycles:
        cycles += 1
        s = submit_worker_step(store, engines)
        f = fetch_worker_step(store, engines)
        submitted += s
        fetched += f
        if s == 0 and f == 0:
            break
    return {"submitted": submitted, "fetched": fetched, "cycles": cycles}


class Pipeline:
    """Gateway + proxy + committing worker around one FlowStore."""

    def __init__(self, store: FlowStore, sources: LabelSources | None = None,
                 mode: str = "collect", fail_policy: str = "closed",
                 gateway_port: int = 0, proxy_port: int = 0,
                 host: str = "127.0.0.1"):
        self.store = store
        self.sources = sources or LabelSources()
        self._queue: queue.Queue = queue.Queue()
        self.errors: list[str] = []
        self.refused: list[str] = []
        self.committed = 0
        self.gateway = IcapGateway(host=host, port=gateway_port, mode=mode, emit=self.emit)
        self.proxy = ProxyServer(
            host=host, port=proxy_port, gateway_addr=self.gateway.address,
            fail_policy=fail_policy, emit_fallback=self.emit)
        self._worker: threading.Thread | None = None

    @property
    def proxy_addr(self) -> tuple[str, int]:
        return self.proxy.address

    def emit(self, emitted: EmittedExchange) -> FastVerdict:
        """Gateway emit and proxy emit_fallback: set the fast verdict, queue, return it.

        A failure refuses the emission: it is counted in `refused` and re-raised.
        """
        exchange = emitted.exchange
        try:
            decoded, _ = _decoded_view(exchange.body, exchange.response.headers)
            emitted.verdict = fast_verdict(exchange.request.url, decoded,
                                           self.sources.blacklist, self.sources.signatures)
        except Exception as exc:
            self.refused.append(f"{type(exc).__name__}: {exc}")
            raise
        self._queue.put(emitted)
        return emitted.verdict

    def start(self) -> "Pipeline":
        self.gateway.start()
        self.proxy.start()
        self._worker = threading.Thread(target=self._drain, daemon=True)
        self._worker.start()
        return self

    def _drain(self) -> None:
        # runs until stop_capture queues None behind the last emission
        for emitted in iter(self._queue.get, None):
            try:
                commit_emitted(self.store, emitted, self.sources)
                self.committed += 1
            except Exception as exc:  # keep the owner alive; surface later
                self.errors.append(f"{type(exc).__name__}: {exc}")
            finally:
                self._queue.task_done()
        self._queue.task_done()

    def stop_capture(self) -> None:
        """Stop accepting traffic, then drain what already arrived."""
        self.proxy.stop()
        self.gateway.stop()
        # stopped servers emit no more, and their callbacks would hold this pipeline in a cycle
        self.gateway.emit = self.proxy.emit_fallback = None
        self._queue.join()
        self.store.flush()
        if self._worker is not None:
            self._queue.put(None)
            self._worker.join(timeout=10)
            self._worker = None

    def run_labels(self) -> dict[str, int]:
        if self.sources.engines is None:
            return {"submitted": 0, "fetched": 0, "cycles": 0}
        return run_label_cycles(self.store, self.sources.engines)

    def summary(self) -> RunSummary:
        return RunSummary(
            records=self.store.record_count(),
            blobs=self.store.blob_count(),
            tickets=self.store.ticket_counts(),
            refused=len(self.refused),
            errors=len(self.errors),
        )


def partition_seeds(urls: list[str], n_agents: int,
                    seed_cap: int | None = None) -> list[list[str]]:
    """Deterministic round-robin split: agent i takes urls[i::n]."""
    if n_agents < 1:
        raise ValueError(f"n_agents must be >= 1, got {n_agents}")
    if seed_cap is not None:
        if seed_cap < 0:
            raise ValueError(f"seed_cap must be >= 0, got {seed_cap}")
        urls = urls[:seed_cap]
    return [urls[i::n_agents] for i in range(n_agents)]


def run_crawl(store: FlowStore, sources: LabelSources, seed_urls: list[str],
              focus: str = "benign", n_agents: int = 2, budget: int = 10,
              seed_cap: int | None = None, mode: str = "collect",
              fail_policy: str = "closed",
              creds: dict[str, tuple[str, str]] | None = None) -> RunSummary:
    """Capture run: agents over seeds, then label cycles, then summary.

    Every agent's config is checked before the gateway and proxy start.
    """
    from .agents import Agent, AgentConfig

    slices = partition_seeds(seed_urls, n_agents, seed_cap)
    configs = [AgentConfig(agent_id=f"agent-{idx + 1:02d}", focus=focus,
                           interaction_budget=budget) for idx in range(len(slices))]
    pipeline = Pipeline(store, sources, mode=mode, fail_policy=fail_policy).start()
    results: list[list] = [[] for _ in slices]

    def drive(idx: int) -> None:
        results[idx] = Agent(configs[idx], pipeline.proxy_addr, creds).run(slices[idx])

    threads = [threading.Thread(target=drive, args=(idx,), daemon=True)
               for idx in range(len(slices))]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        pipeline.stop_capture()

    pipeline.run_labels()
    summary = pipeline.summary()
    summary.agent_requests = sum(v.requests_made for batch in results for v in batch)
    return summary
