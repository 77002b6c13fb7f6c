"""Per-layer metrics, read from the spans and counts of one traced unit.

``busy_s`` is the summed duration of a function's spans (children
included), ``self_s`` subtracts the time its child spans cover, and
``p50_ms`` is the median span.  The shares under ``pipeline.commit``
count only the spans directly inside ``commit_emitted``, so offline
reprocessing does not blur what the capture's commit thread spends.
"""

from __future__ import annotations

from collections import defaultdict

from . import stats
from .tracing import WORKER_STEPS, Tracer


def layer_metrics(names, tracer: Tracer, unit: dict, untraced_wall_s: float) -> dict[str, float]:
    """Each of `names` (BENCHMARK.json's per_layer) for one traced unit of work.

    A name is either computed below or is ``<span name>.<kind>`` with kind
    one of calls, busy_s, p50_ms, self_s.
    """
    spans = tracer.spans
    counts = tracer.counts
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)

    def calls(name):
        return counts.get(name + ".calls") or len(by_name[name])

    def busy(name):
        return sum(s[5] - s[4] for s in by_name[name])

    def p50_ms(name):
        durations = [s[5] - s[4] for s in by_name[name]]
        return stats.percentile(durations, 50) * 1000 if durations else 0.0

    selfs = stats.self_times(spans)

    def self_s(name):
        return sum(selfs[s[0]] for s in by_name[name])

    commit_ids = {s[0] for s in by_name["pipeline.commit_emitted"]}

    def in_commit(name):
        return sum(s[5] - s[4] for s in by_name[name] if s[1] in commit_ids)

    commit_busy = busy("pipeline.commit_emitted")
    fetches = calls("agents.proxy_request")
    records = unit["facts"]["records"]
    committed = calls("pipeline.commit_emitted")
    m = {
        "wire.icap_transact.calls": calls("wire.icap_transact"),
        "wire.icap_transact.per_fetch": stats.ratio(calls("wire.icap_transact"), fetches),
        "wire.icap_transact.p50_ms": p50_ms("wire.icap_transact"),
        "wire.body_bytes": counts["wire.body_bytes"],
        "contentprep.decode_body.per_record":
            stats.ratio(calls("contentprep.decode_body"), committed),
        "features.extract_features.mbps":
            stats.ratio(counts["features.bytes"] / 1e6, busy("features.extract_features")),
        "flowstore.put_blob.new_share":
            stats.ratio(counts["flowstore.put_blob.new"], calls("flowstore.put_blob")),
        "flowstore.query.docs_scanned": counts["flowstore.query.docs_scanned"],
        "flowstore.log_bytes": unit["facts"]["log_bytes"],
        "flowstore.versions_per_record": stats.ratio(unit["facts"]["log_lines"], records),
        "pipeline.commit.busy_share": stats.ratio(commit_busy, unit.get("capture_interval_s", 0)),
        "pipeline.commit.put_blob_share": stats.ratio(in_commit("flowstore.put_blob"), commit_busy),
        "pipeline.commit.extract_share":
            stats.ratio(in_commit("features.extract_features"), commit_busy),
        "pipeline.queue_wait_p50_ms": _queue_wait_p50_ms(by_name),
        "pipeline.drain_tail_s": busy("pipeline.stop_capture"),
        "labels.cycles": counts["labels.cycles"],
        "labels.docs_scanned_per_ticket":
            stats.ratio(counts["labels.docs_scanned"], counts["labels.tickets_fetched"]),
        "labels.worker_step_share":
            stats.ratio(sum(busy(n) for n in WORKER_STEPS), unit["settle_s"]),
        "trace.overhead_share": stats.ratio(unit["wall_s"] - untraced_wall_s, untraced_wall_s),
        "trace.spans": len(spans),
    }
    for name in names:
        if name in m:
            continue
        span_name, kind = name.rsplit(".", 1)
        m[name] = {"calls": calls, "busy_s": busy, "p50_ms": p50_ms,
                   "self_s": self_s}[kind](span_name)
    return {name: m[name] for name in names}


def _queue_wait_p50_ms(by_name) -> float:
    """End of the exchange's last serve_icap to the start of its commit.

    The gateway enqueues from inside serve_icap, so a commit can start
    before serve_icap returns; such waits count as zero.
    """
    served: dict[str, float] = {}
    for s in by_name["wire.serve_icap"]:
        if s[3]:
            served[s[3]] = max(served.get(s[3], 0.0), s[5])
    waits = [max(0.0, s[4] - served[s[3]]) * 1000
             for s in by_name["pipeline.commit_emitted"] if s[3] in served]
    return stats.percentile(waits, 50) if waits else 0.0
