"""Emission-to-record committing, label cycles, and full capture runs."""

import datetime as dt
import gc
import hashlib
import socket
import threading
import weakref

import pytest

from websift import labels as labels_module, pipeline as pipeline_module, wire
from websift.agents import proxy_request
from websift.augment import GeoIpDb, WhoIsDb
from websift.cli import main
from websift.flowstore import FlowRecord, FlowStore
from websift.labels import (
    ENGINE_COUNT,
    FastVerdict,
    LabelSet,
    ScanTicket,
    SignatureSet,
    SimulatedEngineSet,
    ThreatType,
    TicketStatus,
    UrlBlacklist,
    hash_expressions,
)
from websift.pipeline import (
    LabelSources,
    Pipeline,
    commit_emitted,
    partition_seeds,
    run_crawl,
    run_label_cycles,
)
from websift.synthweb import (
    SIGNATURE_NAME,
    SynthWebServer,
    engine_fixture_for,
    generate_site,
    render_page,
    signature_line,
)
from websift.wire import (
    WARNING_PAGE,
    EmittedExchange,
    HttpExchange,
    HttpRequest,
    HttpResponse,
)

import gzip as gzip_mod

from test_wire import answering_origin, proxy_fetch

MARKER = b"PIPE-SIG-MARKER-55aa"
SIG_TEXT = "Pipe.Sig:" + MARKER.hex()


def make_emitted(url="http://site.test/page", body=b"<html><body>x</body></html>",
                 resp_headers=None, markers=None, verdict=None, request_body=None):
    exchange = HttpExchange(
        request=HttpRequest("GET", url, [("Host", "site.test")]),
        response=HttpResponse(200, "OK",
                              resp_headers or [("Content-Type", "text/html")]),
        body=body,
        started_at=1_500_000_000_000,
        agent_id="agent-1",
    )
    return EmittedExchange(exchange, dict(markers or {}), verdict, request_body)


@pytest.fixture
def store(tmp_path):
    with FlowStore(tmp_path / "store") as st:
        yield st


def sig_sources(**kw):
    return LabelSources(signatures=SignatureSet.from_text(SIG_TEXT), **kw)


def judged(store, sources, emitted):
    """`emitted` with the fast verdict that the pipeline's emit callback sets in capture."""
    pipeline = Pipeline(store, sources)
    try:
        pipeline.emit(emitted)
    finally:  # the pipeline never started, so its queue is left undrained
        pipeline.proxy.stop()
        pipeline.gateway.stop()
    return emitted


# --- commit_emitted ---

def test_commit_plain_body(store):
    emitted = make_emitted(markers={"wire.upstream_ip": "198.18.0.1"})
    record = commit_emitted(store, emitted, LabelSources())
    assert store.record_count() == 1
    assert record.body_sha1 == hashlib.sha1(emitted.exchange.body).hexdigest()
    assert record.decoded_sha1 == record.body_sha1
    assert record.extra["wire.upstream_ip"] == "198.18.0.1"
    assert "prep.codings" not in record.extra
    assert record.features.as_dict()["ishtml"] == 1
    assert record.labels.blacklist is ThreatType.NONE
    assert record.labels.scan_ticket is None
    assert record.augment is None


def test_commit_decodes_before_featuring(store):
    page = b"<html><script>eval(x)</script>" + MARKER + b"</html>"
    emitted = make_emitted(
        body=gzip_mod.compress(page, mtime=0),
        resp_headers=[("Content-Type", "text/html"), ("Content-Encoding", "gzip")])
    record = commit_emitted(store, judged(store, sig_sources(), emitted), sig_sources())
    assert record.extra["prep.codings"] == "gzip"
    assert record.decoded_sha1 == hashlib.sha1(page).hexdigest()
    assert record.decoded_sha1 != record.body_sha1
    assert store.get_blob(record.decoded_sha1).data == page
    assert store.get_blob(record.body_sha1).data == emitted.exchange.body
    # features and signatures both see the decoded bytes
    assert record.features.as_dict()["Numeval"] == 1
    assert record.labels.signature_hits == ["Pipe.Sig"]
    assert record.labels.scan_ticket.status is TicketStatus.UNSCANNED


def test_commit_keeps_raw_when_decode_fails(store):
    emitted = make_emitted(
        body=b"\x1f\x8bgarbage-not-gzip",
        resp_headers=[("Content-Type", "text/html"), ("Content-Encoding", "gzip")])
    record = commit_emitted(store, emitted, LabelSources())
    assert "prep.decode_error" in record.extra
    assert record.decoded_sha1 == record.body_sha1
    assert store.blob_count() == 1


_HTML = [("Content-Type", "text/html")]
_GZIP = _HTML + [("Content-Encoding", "gzip")]
_ZIPPED = gzip_mod.compress(b"<html><script>eval(x)</script></html>", mtime=0)


@pytest.mark.parametrize("body,headers,prep", [
    (b"<html><p>plain</p></html>", _HTML, {}),
    (_ZIPPED, _GZIP, {"prep.codings": "gzip"}),
    # a record whose head still names the chunked coding the wire undid
    (_ZIPPED, _GZIP + [("Transfer-Encoding", "chunked")], {"prep.codings": "gzip"}),
    (b"\x1f\x8bgarbage-not-gzip", _GZIP, {"prep.decode_error": "gzip"}),
    (gzip_mod.compress(b"A" * (1 << 20), mtime=0), _GZIP,
     {"prep.codings": "gzip", "prep.truncated": "true"}),
    (b"", _GZIP, {}),
    (b"<html>" + MARKER + b"</html>", _HTML, {}),
    (b"\x0b\x02\x80<html>" + MARKER + b"</html>\x03", _HTML + [("Content-Encoding", "br")],
     {"prep.pending": "br"}),
    (b"\x0b\x02\x80" + _ZIPPED, _HTML + [("Content-Encoding", "gzip, br")],
     {"prep.pending": "br,gzip"}),
], ids=["identity", "gzip", "chunked-gzip", "bad-gzip", "bomb", "empty-gzip", "signature",
        "br", "gzip-br"])
def test_capture_and_offline_commands_store_the_same_record(tmp_path, body, headers, prep):
    sigs = tmp_path / "sigs.txt"
    sigs.write_text(SIG_TEXT + "\n", encoding="utf-8")
    emitted = make_emitted(body=body, resp_headers=headers)
    with FlowStore(tmp_path / "captured") as store:
        captured = commit_emitted(store, judged(store, sig_sources(), emitted),
                                  sig_sources()).to_doc()
    with FlowStore(tmp_path / "offline") as store:
        store.put_record(FlowRecord(exchange=emitted.exchange,
                                    body_sha1=store.put_blob(body) if body else None))
    offline = ["--store", str(tmp_path / "offline")]
    assert main(offline + ["extract"]) == 0
    assert main(offline + ["label", "--signatures", str(sigs)]) == 0
    with FlowStore(tmp_path / "offline", writable=False) as store:
        assert store.get_record(captured["record_id"]).to_doc() == captured
    error = captured["extra"].get("prep.decode_error")
    if error is not None:  # the message is zlib's; its prefix names the coding
        captured["extra"]["prep.decode_error"] = error.partition(":")[0]
    assert captured["extra"] == prep
    assert (captured["labels"]["scan_ticket"] is not None) == (MARKER in body)


def test_commit_empty_body(store):
    record = commit_emitted(store, make_emitted(body=b""), LabelSources())
    assert record.body_sha1 is None
    assert record.decoded_sha1 is None
    assert store.blob_count() == 0
    assert record.features.as_dict()["Filesize"] == 0


def test_commit_stores_a_page_whose_script_splits_a_string_1000_ways(store):
    # ~4 KB of `"a"+"a"+...`: deep enough to overflow a recursive walk of
    # the parse, which used to drop the record after its blob was written
    script = 'var s="a"' + '+"a"' * 999 + ";"
    emitted = make_emitted(body=b"<html><script>" + script.encode() + b"</script></html>")
    record = commit_emitted(store, emitted, LabelSources())
    assert store.record_count() == 1
    features = record.features.as_dict()
    assert features["NumStrings"] == 1000
    # VarDecl, declarator, `s`, 1000 strings and 999 `+`
    assert features["NumNodes"] == 2002
    assert features["parsingerror"] == 0


def test_commit_stores_request_body_blob(store):
    emitted = make_emitted(request_body=b"user=a&pass=b")
    record = commit_emitted(store, emitted, LabelSources())
    sha1 = record.extra["wire.request_body_sha1"]
    assert store.get_blob(sha1).data == b"user=a&pass=b"


def test_commit_reuses_gateway_verdict(store):
    # no sources at all: a recompute would come back empty
    verdict = FastVerdict(ThreatType.MALWARE, [])
    record = commit_emitted(store, make_emitted(verdict=verdict), LabelSources())
    assert record.labels.blacklist is ThreatType.MALWARE
    assert record.labels.scan_ticket is not None


def test_commit_scans_content_when_url_uncanonicalizable(store):
    emitted = make_emitted(url="http://site.test:70000/",
                           body=b"<html>" + MARKER + b"</html>")
    record = commit_emitted(store, judged(store, sig_sources(), emitted), sig_sources())
    assert record.labels.blacklist is ThreatType.NONE
    assert record.labels.signature_hits == ["Pipe.Sig"]


def test_commit_attaches_augmentation(store):
    geodb = GeoIpDb([(int.from_bytes(bytes([203, 0, 113, 0]), "big"),
                      int.from_bytes(bytes([203, 0, 113, 255]), "big"),
                      "US", "Example City")])
    whois = WhoIsDb({"site.test": (dt.date(2017, 1, 1), dt.date(2017, 3, 2))},
                    suffixes=frozenset(["test"]))
    emitted = make_emitted(markers={"wire.upstream_ip": "203.0.113.9"})
    record = commit_emitted(store, emitted, LabelSources(geoip=geodb, whois=whois))
    assert record.augment.country == "US"
    assert record.augment.city == "Example City"
    assert record.augment.registration_days == 60


# --- the fast verdict of the pipeline's emit callback ---

def test_verdict_fn_decodes_then_scans(store):
    page = b"<html>" + MARKER + b"</html>"
    emitted = make_emitted(
        body=gzip_mod.compress(page, mtime=0),
        resp_headers=[("Content-Type", "text/html"), ("Content-Encoding", "gzip")])
    verdict = judged(store, sig_sources(), emitted).verdict
    assert verdict.signature_hits == ["Pipe.Sig"]
    assert verdict.is_malware


def test_verdict_fn_consults_blacklist(store):
    db = UrlBlacklist()
    db.add_hash(ThreatType.MALWARE, hash_expressions("http://bad.test/mal")[0])
    sources = LabelSources(blacklist=db)
    assert judged(store, sources, make_emitted(url="http://bad.test/mal")).verdict.blacklist \
        is ThreatType.MALWARE
    assert judged(store, sources, make_emitted(url="http://ok.test/")).verdict.blacklist \
        is ThreatType.NONE


def test_verdict_fn_survives_bad_urls(store):
    emitted = make_emitted(url="http://site.test:70000/",
                           body=b"<p>" + MARKER + b"</p>")
    verdict = judged(store, sig_sources(), emitted).verdict
    assert verdict.blacklist is ThreatType.NONE
    assert verdict.signature_hits == ["Pipe.Sig"]


# --- label worker cycles ---

def seed_ticketed_records(store, bodies):
    for body in bodies:
        sha1 = store.put_blob(body)
        record = FlowRecord(
            exchange=make_emitted(body=body).exchange,
            body_sha1=sha1,
            decoded_sha1=sha1,
            labels=LabelSet(signature_hits=["Pipe.Sig"], scan_ticket=ScanTicket()),
        )
        store.put_record(record)


def test_run_label_cycles_drains_in_capacity_batches(store):
    bodies = [b"<html>detected %d</html>" % i for i in range(3)]
    bodies += [b"<html>noise %d</html>" % i for i in range(7)]
    fixture = {hashlib.sha256(b).hexdigest():
               [f"engine-{j:02d}" for j in range(1, 13)] for b in bodies[:3]}
    seed_ticketed_records(store, bodies)

    stats = run_label_cycles(store, SimulatedEngineSet(fixture))
    # capacity 4 per submit step: 4+4+2, then one empty closing cycle
    assert stats == {"submitted": 10, "fetched": 10, "cycles": 4}

    records = sorted(store.records(), key=lambda r: r.record_id)
    for record in records:
        ticket = record.labels.scan_ticket
        assert ticket.status is TicketStatus.SCAN_FINISHED
        assert len(ticket.report) == ENGINE_COUNT
    assert [r.labels.ground_truth for r in records[:3]] == [True, True, True]
    assert all(r.labels.ground_truth is False for r in records[3:])


def test_run_label_cycles_marks_oversize_bodies_as_error(store, monkeypatch):
    monkeypatch.setattr(labels_module, "ENGINE_SIZE_CAP", 10)
    seed_ticketed_records(store, [b"x" * 64])
    stats = run_label_cycles(store, SimulatedEngineSet())
    assert stats["submitted"] == 1
    record = next(iter(store.records()))
    assert record.labels.scan_ticket.status is TicketStatus.ERROR
    assert record.labels.ground_truth is None


def test_run_label_cycles_idle_store_is_one_cycle(store):
    assert run_label_cycles(store, SimulatedEngineSet()) == \
        {"submitted": 0, "fetched": 0, "cycles": 1}


def test_summary_tallies_tickets_from_the_status_index(store, monkeypatch):
    monkeypatch.setattr(labels_module, "ENGINE_SIZE_CAP", 10)
    seed_ticketed_records(store, [b"x" * 64, b"<p>a</p>", b"<p>b</p>"])
    run_label_cycles(store, SimulatedEngineSet())  # the body above the cap ends in error
    store.put_record(FlowRecord())  # no ticket
    built = []
    from_doc = FlowRecord.from_doc.__func__
    monkeypatch.setattr(FlowRecord, "from_doc", classmethod(
        lambda cls, doc: built.append(doc) or from_doc(cls, doc)))
    pipeline = Pipeline(store)
    try:
        summary = pipeline.summary()
    finally:
        pipeline.stop_capture()
    assert built == []
    # no unscanned or submitted ticket is left, so neither status is listed
    assert summary.tickets == {"error": 1, "scan_finished": 2}


def test_settle_builds_a_few_records_per_ticket_whatever_the_store_size(store, monkeypatch):
    tickets = 0
    for i in range(10_000):
        labels = LabelSet()
        if i % 50 == 0:
            labels = LabelSet(signature_hits=["Pipe.Sig"], scan_ticket=ScanTicket())
            tickets += 1
        store.put_record(FlowRecord(labels=labels))
    built = []
    from_doc = FlowRecord.from_doc.__func__

    def counting(cls, doc):
        built.append(doc["record_id"])
        return from_doc(cls, doc)

    monkeypatch.setattr(FlowRecord, "from_doc", classmethod(counting))
    stats = run_label_cycles(store, SimulatedEngineSet())
    assert stats == {"submitted": tickets, "fetched": tickets, "cycles": tickets // 4 + 1}
    # one query hit and one get_record in each of the two steps
    assert len(built) <= 4 * tickets + 4


# --- seed partitioning ---

def test_partition_seeds_round_robin():
    urls = [f"u{i}" for i in range(7)]
    assert partition_seeds(urls, 3) == [["u0", "u3", "u6"],
                                        ["u1", "u4"],
                                        ["u2", "u5"]]


def test_partition_seeds_cap_and_excess_agents():
    urls = [f"u{i}" for i in range(5)]
    assert partition_seeds(urls, 2, seed_cap=3) == [["u0", "u2"], ["u1"]]
    assert partition_seeds(["u0"], 3) == [["u0"], [], []]


# --- live pipeline ---

SITE = {
    "seed": 6,
    "pages": [
        {"path": "/benign", "kind": "benign"},
        {"path": "/mal", "kind": "malicious"},
        {"path": "/zipped", "kind": "benign", "gzip": True},
    ],
}


@pytest.fixture
def site():
    server = SynthWebServer(SITE).start()
    try:
        yield server
    finally:
        server.stop()


def pipeline_sources(doc):
    return LabelSources(
        signatures=SignatureSet.from_text(signature_line()),
        engines=SimulatedEngineSet(engine_fixture_for(doc)),
    )


def fetch_via(pipeline, url, agent="agent-1"):
    return proxy_request(pipeline.proxy_addr, "GET", url,
                         [("X-Websift-Agent", agent)])


def test_pipeline_capture_and_labeling(site, tmp_path):
    sources = pipeline_sources(SITE)
    with FlowStore(tmp_path / "store") as store:
        pipeline = Pipeline(store, sources).start()
        try:
            for path in ("/benign", "/mal", "/zipped"):
                status, _, _ = fetch_via(pipeline, site.base_url + path)
                assert status == 200
        finally:
            pipeline.stop_capture()

        assert pipeline.errors == []
        assert pipeline.committed == 3
        assert store.record_count() == 3

        by_path = {r.exchange.request.url.rsplit("/", 1)[-1]: r
                   for r in store.records()}
        mal = by_path["mal"]
        assert mal.labels.signature_hits == [SIGNATURE_NAME]
        assert mal.labels.scan_ticket.status is TicketStatus.UNSCANNED
        assert by_path["benign"].labels.scan_ticket is None
        zipped = by_path["zipped"]
        assert zipped.extra["prep.codings"] == "gzip"
        assert zipped.features.as_dict()["ishtml"] == 1
        for record in by_path.values():
            assert record.exchange.agent_id == "agent-1"
            assert record.extra["wire.upstream_ip"] == "127.0.0.1"
            assert record.features is not None

        summary = pipeline.summary()
        assert summary.records == 3
        assert summary.tickets == {"unscanned": 1}
        assert summary.refused == 0
        assert summary.errors == 0

        stats = pipeline.run_labels()
        assert stats["submitted"] == 1 and stats["fetched"] == 1
        mal = store.get_record(mal.record_id)
        assert mal.labels.scan_ticket.status is TicketStatus.SCAN_FINISHED
        assert mal.labels.ground_truth is True
        assert pipeline.summary().tickets == {"scan_finished": 1}


def test_pipeline_enforce_blocks_but_stores_original(site, tmp_path):
    sources = pipeline_sources(SITE)
    with FlowStore(tmp_path / "store") as store:
        pipeline = Pipeline(store, sources, mode="enforce").start()
        try:
            status, headers, body = fetch_via(pipeline, site.base_url + "/mal")
        finally:
            pipeline.stop_capture()

        assert status == 200
        assert body == WARNING_PAGE
        assert any(k.lower() == "x-websift-blocked" for k, _ in headers)

        record = next(iter(store.records()))
        original = render_page(site.pages["/mal"], site.seed)
        assert store.get_blob(record.body_sha1).data == original


def test_pipeline_records_fetch_errors(site, tmp_path, dead_port):
    with FlowStore(tmp_path / "store") as store:
        pipeline = Pipeline(store, LabelSources()).start()
        try:
            status, _, _ = fetch_via(pipeline, f"http://127.0.0.1:{dead_port}/x")
        finally:
            pipeline.stop_capture()
        assert status == 502
        record = next(iter(store.records()))
        assert "wire.fetch_error" in record.extra
        assert record.exchange.response.status == 502


def test_pipeline_stores_a_chunked_form_post_and_the_origin_reads_it(site, tmp_path):
    form = b"user=alice&pass=s3cret"
    head = (f"POST {site.base_url}/login HTTP/1.1\r\n"
            "Content-Type: application/x-www-form-urlencoded\r\n"
            "Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n")
    chunks = b"5\r\nuser=\r\n11\r\nalice&pass=s3cret\r\n0\r\n\r\n"
    with FlowStore(tmp_path / "store") as store:
        pipeline = Pipeline(store, LabelSources()).start()
        try:
            with socket.create_connection(pipeline.proxy_addr, timeout=10) as sock:
                sock.sendall(head.encode() + chunks)
                reply = b"".join(iter(lambda: sock.recv(4096), b""))
        finally:
            pipeline.stop_capture()
        assert reply.startswith(b"HTTP/1.1 200 ")
        assert site.ledger()[0]["form"] == {"user": "alice", "pass": "s3cret"}
        record = next(iter(store.records()))
        assert store.get_blob(record.extra["wire.request_body_sha1"]).data == form
        assert ("Content-Length", str(len(form))) in record.exchange.request.headers


def test_pipeline_relays_and_stores_an_origin_early_answer_to_a_large_post(tmp_path):
    # RFC 9112 §9.5: the origin answers after the head and hangs up on the rest of the body
    answer = b"HTTP/1.1 413 Payload Too Large\r\nContent-Length: 4\r\n\r\nbig!"
    with answering_origin(answer) as (host, port), FlowStore(tmp_path / "store") as store:
        pipeline = Pipeline(store, LabelSources()).start()
        try:
            status, _, body = proxy_fetch(pipeline.proxy_addr, f"http://{host}:{port}/up",
                                          method="POST", body=b"x" * (4 << 20))
        finally:
            pipeline.stop_capture()
        assert (status, body) == (413, b"big!")
        [record] = list(store.records())
        assert record.exchange.response.status == 413
        assert "wire.fetch_error" not in record.extra
        assert store.get_blob(record.body_sha1).data == b"big!"


def capture_answer(tmp_path, answer):
    """(status, headers, body, record) of one pipeline fetch from an origin that sends `answer`."""
    with answering_origin(answer) as (host, port), FlowStore(tmp_path / "store") as store:
        pipeline = Pipeline(store, LabelSources()).start()
        try:
            got = proxy_fetch(pipeline.proxy_addr, f"http://{host}:{port}/t")
        finally:
            pipeline.stop_capture()
        [record] = list(store.records())
    assert pipeline.errors == []
    return (*got, record)


@pytest.mark.parametrize("codings,body", [
    ("gzip", _ZIPPED),  # delimited by the close
    ("gzip, chunked", b"%x\r\n%s\r\n0\r\n\r\n" % (len(_ZIPPED), _ZIPPED)),
    ("chunked, gzip", gzip_mod.compress(b"5\r\nhello\r\n0\r\n\r\n", mtime=0)),
], ids=["gzip", "gzip-chunked", "chunked-gzip"])
def test_pipeline_answers_an_origin_transfer_coding_it_never_offered_with_502(
        tmp_path, codings, body):
    # the proxy drops the client's TE, so chunked alone is offered (RFC 9112 §7.4)
    answer = (b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n"
              b"Transfer-Encoding: %s\r\n\r\n%s" % (codings.encode(), body))
    status, _, text, record = capture_answer(tmp_path, answer)
    named = str(codings.split(", "))
    assert status == 502 and named.encode() in text
    assert record.exchange.response.status == 502
    assert named in record.extra["wire.fetch_error"]


def test_pipeline_drops_the_headers_an_origin_connection_names_but_stores_them(tmp_path):
    # RFC 9110 §7.6.1: named, or hop-by-hop by name; a named Content-Length still frames
    answer = (b"HTTP/1.1 200 OK\r\nConnection: X-Hop, Content-Length\r\nX-Hop: secret\r\n"
              b"Keep-Alive: timeout=5\r\nContent-Length: 2\r\n\r\nok")
    status, headers, body, record = capture_answer(tmp_path, answer)
    assert (status, body) == (200, b"ok")
    assert headers["content-length"] == "2"
    assert "x-hop" not in headers and "keep-alive" not in headers
    assert record.exchange.response.header("X-Hop") == "secret"
    assert record.exchange.response.header("Keep-Alive") == "timeout=5"


def test_pipeline_stores_a_foreign_respmod_by_its_content_coding_alone(tmp_path):
    # ICAP framing de-chunked the body, though the res-hdr still names chunked
    page = b"<html><body>foreign</body></html>"
    def respmod(coding, exchange_id):
        exchange = make_emitted(url="http://foreign.test/p", body=gzip_mod.compress(page, mtime=0),
                                resp_headers=_GZIP + [("Transfer-Encoding", coding)]).exchange
        return wire.encapsulate(exchange, exchange_id=exchange_id)

    with FlowStore(tmp_path / "store") as store:
        pipeline = Pipeline(store, LabelSources()).start()
        try:
            chunked = wire.icap_transact(pipeline.gateway.address, respmod("chunked", "f1"))
            gzipped = wire.icap_transact(pipeline.gateway.address, respmod("gzip", "f2"))
        finally:
            pipeline.stop_capture()
        [record] = list(store.records())
    assert (chunked.status, gzipped.status) == (204, 500)
    response = record.exchange.response
    assert response.header("Transfer-Encoding") is None
    assert response.header("Content-Length") == str(len(gzip_mod.compress(page, mtime=0)))
    assert record.extra["prep.codings"] == "gzip"
    assert record.features.as_dict()["ishtml"] == 1


def test_pipeline_fail_open_labels_an_uninspected_page_as_the_gateway_does(site, tmp_path):
    with FlowStore(tmp_path / "store") as store:
        pipeline = Pipeline(store, pipeline_sources(SITE), fail_policy="open").start()
        try:
            assert fetch_via(pipeline, site.base_url + "/mal")[0] == 200
            pipeline.gateway.stop()
            assert fetch_via(pipeline, site.base_url + "/mal")[0] == 200
        finally:
            pipeline.stop_capture()
        inspected, uninspected = sorted(store.records(),
                                        key=lambda r: "wire.uninspected" in r.extra)
    assert pipeline.errors == []
    assert "wire.uninspected" not in inspected.extra
    assert uninspected.extra["wire.uninspected"] == "true"
    assert uninspected.labels.signature_hits == [SIGNATURE_NAME]
    assert uninspected.labels.scan_ticket.status is TicketStatus.UNSCANNED
    assert uninspected.labels.to_doc() == inspected.labels.to_doc()


@pytest.mark.parametrize("gateway", ["up", "stopped"])
def test_pipeline_counts_a_refused_emission_once_and_stores_nothing(site, tmp_path, monkeypatch,
                                                                    gateway):
    # the gateway answers a refusal with 500, the fail-open proxy swallows it: either
    # way the client gets the page and the pipeline's emit callback counts it
    def refuse(*args):
        raise KeyError("blacklist unavailable")

    monkeypatch.setattr(pipeline_module, "fast_verdict", refuse)
    with FlowStore(tmp_path / "store") as store:
        pipeline = Pipeline(store, pipeline_sources(SITE),
                            fail_policy="closed" if gateway == "up" else "open").start()
        try:
            if gateway == "stopped":
                pipeline.gateway.stop()
            status, _, body = fetch_via(pipeline, site.base_url + "/benign")
        finally:
            pipeline.stop_capture()
        summary = pipeline.summary()
    assert (status, body) == (200, render_page(site.pages["/benign"], site.seed))
    assert (summary.records, summary.refused, summary.errors) == (0, 1, 0)
    assert pipeline.refused == ["KeyError: 'blacklist unavailable'"]


@pytest.mark.parametrize("fail_policy", ["closed", "open"])
@pytest.mark.parametrize("target", ["ftp://a.test/x", "http:///x"])
def test_pipeline_answers_a_target_no_exchange_can_hold_with_400(tmp_path, monkeypatch,
                                                                 fail_policy, target):
    # HttpExchange.validate refuses these URLs, so the proxy refuses them before any hop
    transacts = []
    real_transact = wire.icap_transact
    monkeypatch.setattr(wire, "icap_transact",
                        lambda *a, **kw: transacts.append(a) or real_transact(*a, **kw))
    with FlowStore(tmp_path / "store") as store:
        pipeline = Pipeline(store, LabelSources(), fail_policy=fail_policy).start()
        try:
            status, _, body = proxy_fetch(pipeline.proxy_addr, target)
        finally:
            pipeline.stop_capture()
        summary = pipeline.summary()
    assert status == 400 and b"bad request target" in body
    assert transacts == []
    assert (summary.records, summary.refused, summary.errors) == (0, 0, 0)


def test_run_crawl_records_match_origin_ledger(tmp_path):
    doc = generate_site(3, 1, seed=13)
    site = SynthWebServer(doc).start()
    try:
        seeds = [site.base_url + p["path"] for p in doc["pages"]]
        with FlowStore(tmp_path / "store") as store:
            summary = run_crawl(store, pipeline_sources(doc), seeds,
                                focus="malware", n_agents=2, budget=2)
            assert summary.errors == 0
            assert summary.refused == 0
            assert summary.records == store.record_count()
            # every proxied request became exactly one stored record
            assert summary.records == summary.agent_requests
            assert summary.records == site.request_count()
            assert summary.blobs == store.blob_count()
            assert summary.tickets.get("scan_finished", 0) >= 1
            doc_round = summary.to_doc()
            assert doc_round["records"] == summary.records
            assert doc_round["tickets"] == summary.tickets
    finally:
        site.stop()


def test_a_stopped_pipeline_is_freed_without_the_cycle_collector(store):
    # its servers hold its emit method until stop_capture: a cycle that would keep
    # every capture's pipeline alive until the collector ran
    gc.disable()
    try:
        pipeline = Pipeline(store).start()
        pipeline.stop_capture()
        freed = weakref.ref(pipeline)
        del pipeline
        assert freed() is None
    finally:
        gc.enable()


def _record_threads(monkeypatch, pipeline) -> tuple[set, set]:
    """Threads that ran a gateway message parse, and proxy request handlers."""
    gateway_threads, proxy_threads = set(), set()
    parse, handle = wire.parse_icap, pipeline.proxy._handle

    def traced_parse(raw):
        gateway_threads.add(threading.current_thread())
        return parse(raw)

    def traced_handle(rfile, wfile):
        proxy_threads.add(threading.current_thread())
        return handle(rfile, wfile)

    monkeypatch.setattr(wire, "parse_icap", traced_parse)
    monkeypatch.setattr(pipeline.proxy, "_handle", traced_handle)
    return gateway_threads, proxy_threads


def test_stop_capture_leaves_no_handler_thread_alive(site, tmp_path, monkeypatch):
    with FlowStore(tmp_path / "store") as store:
        pipeline = Pipeline(store, pipeline_sources(SITE))
        gateway_threads, proxy_threads = _record_threads(monkeypatch, pipeline)
        pipeline.start()
        try:
            for path in ("/benign", "/mal", "/zipped"):
                assert fetch_via(pipeline, site.base_url + path)[0] == 200
        finally:
            pipeline.stop_capture()
    assert gateway_threads and len(proxy_threads) == 3
    assert [t for t in gateway_threads | proxy_threads if t.is_alive()] == []


def test_crawl_opens_gateway_connections_per_agent_not_per_record(tmp_path, monkeypatch):
    # one gateway handler thread serves each ICAP connection for its lifetime
    doc = generate_site(1500, 0, seed=21)
    site = SynthWebServer(doc).start()
    real_pipeline = pipeline_module.Pipeline
    seen: dict = {}

    def recording_pipeline(*args, **kw):
        pipeline = real_pipeline(*args, **kw)
        seen["gateway"], _ = _record_threads(monkeypatch, pipeline)
        return pipeline

    monkeypatch.setattr(pipeline_module, "Pipeline", recording_pipeline)
    try:
        seeds = [site.base_url + p["path"] for p in doc["pages"]]
        with FlowStore(tmp_path / "store") as store:
            summary = run_crawl(store, LabelSources(), seeds, n_agents=2, budget=0)
    finally:
        site.stop()
    assert summary.records == 1500 and summary.errors == 0
    assert 1 <= len(seen["gateway"]) <= 2 * 2  # two agents
