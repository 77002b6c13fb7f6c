"""Label sources: canonicalization, blacklist, signatures, scan tickets."""

import hashlib
import json
import time

import pytest
from hypothesis import assume, given, strategies as st

from websift.fixtures import FixtureFormatError
from websift.flowstore import FlowRecord, FlowStore
from websift import labels as labels_module
from websift.labels import (
    ENGINE_COUNT,
    ENGINE_NAMES,
    GROUND_TRUTH_THRESHOLD,
    EngineError,
    EngineSizeError,
    FastVerdict,
    LabelSet,
    ScanTicket,
    Signature,
    SignatureSet,
    SimulatedEngineSet,
    ThreatType,
    TicketStateError,
    TicketStatus,
    UrlBlacklist,
    UrlError,
    blacklist_lookup,
    canonicalize_url,
    fast_verdict,
    fetch_worker_step,
    ground_truth,
    hash_expressions,
    schedule_multiengine,
    submit_worker_step,
    url_expressions,
)


# --- URL canonicalization ---

@pytest.mark.parametrize("url,canon", [
    ("HTTP://Ex.COM:80/a/../b#f", "http://ex.com/b"),
    ("http://host.com/", "http://host.com/"),
    ("http://host.com", "http://host.com/"),
    ("https://host.com:443/x", "https://host.com/x"),
    ("http://host.com:8080/", "http://host.com:8080/"),
    ("http://host/%25%32%35", "http://host/%25"),
    ("http://%77%77%77.HOST.com./", "http://www.host.com/"),
    ("http://host..com/", "http://host.com/"),
    ("http://host.com//a//b", "http://host.com/a/b"),
    ("http://host.com/a/./b/../c", "http://host.com/a/c"),
    ("http://host.com/a/", "http://host.com/a/"),
    ("http://host.com/a/..", "http://host.com/"),
    ("http://evil.com/foo#bar#baz", "http://evil.com/foo"),
    ("http://host.com/a b", "http://host.com/a%20b"),
    ("http://host.com/p?q=%31", "http://host.com/p?q=1"),
    ("http://host.com/p?", "http://host.com/p"),
    ("  http://host.com/a\tb\r\n", "http://host.com/ab"),
])
def test_canonicalize_url(url, canon):
    assert canonicalize_url(url) == canon


def test_canonicalize_escapes_non_ascii_as_uppercase_utf8():
    assert canonicalize_url("http://h.test/café") == "http://h.test/caf%C3%A9"


@pytest.mark.parametrize("bad", [
    "notaurl",
    "ftp://host/file",
    "http:///nopath-host",
    "http://host:99999/",
    "http://host:abc/",
    "http://.../",
    "//host/relative",
])
def test_canonicalize_rejects_non_http_urls(bad):
    with pytest.raises(UrlError):
        canonicalize_url(bad)


@given(st.from_regex(r"[a-z]{1,5}(\.[a-z]{1,4}){1,2}", fullmatch=True),
       st.lists(st.text(alphabet="abzAZ09 .%~", min_size=0, max_size=6),
                max_size=4),
       st.text(alphabet="abz=&019%", max_size=8))
def test_canonicalize_is_idempotent(host, segments, query):
    url = "http://" + host + "/" + "/".join(segments)
    if query:
        url += "?" + query
    try:
        once = canonicalize_url(url)
    except UrlError:
        return
    assert canonicalize_url(once) == once


# --- lookup expressions ---

def test_expressions_for_two_component_host():
    got = url_expressions("http://a.b.c/1/2.html?param=1")
    assert got == [
        "a.b.c/1/2.html?param=1",
        "a.b.c/1/2.html",
        "a.b.c/",
        "a.b.c/1/",
        "a.b.c/1/2.html/",
        "b.c/1/2.html?param=1",
        "b.c/1/2.html",
        "b.c/",
        "b.c/1/",
        "b.c/1/2.html/",
    ]


def test_expressions_host_suffixes_cap_at_five_hosts():
    got = url_expressions("http://a.b.c.d.e.f.g/1.html")
    hosts = []
    for e in got:
        h = e.split("/", 1)[0]
        if h not in hosts:
            hosts.append(h)
    assert hosts == ["a.b.c.d.e.f.g", "c.d.e.f.g", "d.e.f.g", "e.f.g", "f.g"]


def test_expressions_ip_hosts_are_never_split():
    got = url_expressions("http://192.168.0.1/x")
    assert all(e.startswith("192.168.0.1/") for e in got)


def test_expressions_path_prefixes_stop_after_three_segments():
    got = url_expressions("http://h.test/a/b/c/d/e.html")
    paths = [e[len("h.test"):] for e in got]
    assert paths == ["/a/b/c/d/e.html", "/", "/a/", "/a/b/", "/a/b/c/"]


def test_expressions_root_is_single():
    assert url_expressions("http://h.test/") == ["h.test/"]


def test_hash_expressions_are_sha256_of_expressions():
    exprs = url_expressions("http://h.test/p")
    assert hash_expressions("http://h.test/p") == [
        hashlib.sha256(e.encode()).digest() for e in exprs]


# --- blacklist ---

def test_seeded_url_is_found():
    db = UrlBlacklist()
    db.add_hash(ThreatType.MALWARE, hash_expressions("http://evil.test/bad")[0])
    assert blacklist_lookup("http://evil.test/bad", db) is ThreatType.MALWARE
    assert blacklist_lookup("http://benign.test/", db) is ThreatType.NONE
    assert len(db) == 1


def test_parent_domain_listing_catches_subdomain_urls():
    db = UrlBlacklist()
    db.add_hash(ThreatType.MALWARE,
                hashlib.sha256(b"evil.test/").digest())
    assert blacklist_lookup("http://sub.evil.test/deep/page?x=1",
                            db) is ThreatType.MALWARE


def test_path_prefix_listing():
    db = UrlBlacklist()
    db.add_hash(ThreatType.UNWANTED_SOFTWARE,
                hashlib.sha256(b"evil.test/mal/").digest())
    assert blacklist_lookup("http://evil.test/mal/x/y.html",
                            db) is ThreatType.UNWANTED_SOFTWARE
    assert blacklist_lookup("http://evil.test/ok/y.html",
                            db) is ThreatType.NONE


def test_priority_order_most_severe_category_wins():
    db = UrlBlacklist()
    db.add_hash(ThreatType.SOCIAL_ENGINEERING, hash_expressions("http://both.test/")[0])
    db.add_hash(ThreatType.MALWARE, hash_expressions("http://both.test/")[0])
    assert blacklist_lookup("http://both.test/", db) is ThreatType.MALWARE

    db2 = UrlBlacklist()
    db2.add_hash(ThreatType.SOCIAL_ENGINEERING, hash_expressions("http://x.test/")[0])
    db2.add_hash(ThreatType.UNWANTED_SOFTWARE, hash_expressions("http://x.test/")[0])
    assert blacklist_lookup("http://x.test/", db2) is ThreatType.UNWANTED_SOFTWARE


def test_prefix_collision_without_full_hash_is_not_a_hit():
    # craft a fake full hash sharing the victim's 4-byte prefix but
    # differing afterwards: the prefix matches, confirmation must fail
    victim_digest = hashlib.sha256(b"victim.test/").digest()
    fake = victim_digest[:4] + bytes(28)
    assert fake != victim_digest
    db = UrlBlacklist()
    db.add_hash(ThreatType.MALWARE, fake)
    assert blacklist_lookup("http://victim.test/", db) is ThreatType.NONE


def test_lookup_cost_does_not_grow_with_the_blacklist():
    # a lookup reads the held sets: copying both per URL made these 100 cost seconds
    db = UrlBlacklist()
    for i in range(200_000):
        db.add_hash(ThreatType.MALWARE, hashlib.sha256(b"%d" % i).digest())
    db.add_hash(ThreatType.MALWARE, hash_expressions("http://evil.test/bad")[0])
    start = time.process_time()
    verdicts = [blacklist_lookup(f"http://h{i}.test/p", db) for i in range(99)]
    verdicts.append(blacklist_lookup("http://evil.test/bad", db))
    elapsed = time.process_time() - start
    assert verdicts == [ThreatType.NONE] * 99 + [ThreatType.MALWARE]
    assert elapsed < 0.25


def test_add_hash_validation():
    db = UrlBlacklist()
    with pytest.raises(ValueError):
        db.add_hash(ThreatType.MALWARE, b"short")
    with pytest.raises(ValueError):
        db.add_hash(ThreatType.NONE, bytes(32))


def test_blacklist_file_loading(tmp_path):
    digest = hashlib.sha256(b"evil.test/").hexdigest()
    path = tmp_path / "bl.tsv"
    path.write_text(
        "# comment\n"
        "\n"
        f"MALWARE\t{digest}\n"
        f"SOCIAL_ENGINEERING\t{'ab' * 32}\n")
    db = UrlBlacklist.from_file(path)
    assert len(db) == 2
    assert blacklist_lookup("http://evil.test/x", db) is ThreatType.MALWARE


@pytest.mark.parametrize("line,lineno", [
    ("MALWARE no-tab-here", 2),
    ("NOT_A_CATEGORY\t" + "ab" * 32, 2),
    ("NONE\t" + "ab" * 32, 2),
    ("MALWARE\tzz" + "ab" * 31, 2),
    ("MALWARE\tabcd", 2),
])
def test_blacklist_file_errors_carry_line_numbers(tmp_path, line, lineno):
    path = tmp_path / "bl.tsv"
    path.write_text("# header\n" + line + "\n")
    with pytest.raises(FixtureFormatError) as exc:
        UrlBlacklist.from_file(path)
    assert exc.value.line == lineno


# --- signatures ---

def test_signature_basic_match():
    ss = SignatureSet.from_text("Test.Sig.A:414243\n")
    assert ss.scan(b"xx ABC yy") == ["Test.Sig.A"]
    assert ss.scan(b"xx AbC yy") == []


def test_wildcard_matches_exactly_one_byte():
    ss = SignatureSet.from_text("W:41??42\n")
    assert ss.scan(b"AxyB") == ["W"]       # two bytes under the two ?s
    assert ss.scan(b"AxB") == []           # one byte is not enough
    assert ss.scan(b"AxyzB") == []         # three bytes do not fit
    assert ss.scan(b"A\n\x00B") == ["W"]   # wildcards cover any byte value


def test_scan_reports_hits_in_load_order():
    ss = SignatureSet.from_text("B:4242\nA:4141\nC:4343\n")
    assert ss.scan(b"AA CC BB") == ["B", "A", "C"]
    assert ss.scan(b"CC") == ["C"]


def test_signature_at_buffer_boundaries():
    ss = SignatureSet.from_text("S:4142\n")
    assert ss.scan(b"AB") == ["S"]
    assert ss.scan(b"ABxx") == ["S"]
    assert ss.scan(b"xxAB") == ["S"]
    assert ss.scan(b"A") == []
    assert ss.scan(b"") == []


def test_signature_file_loading(tmp_path):
    path = tmp_path / "sigs.txt"
    path.write_text("# demo\nTest.Sig.A:41?43\n")
    ss = SignatureSet.from_file(path)
    assert len(ss) == 1
    assert ss.scan(b"AxC") == ["Test.Sig.A"]


@pytest.mark.parametrize("text,lineno", [
    ("noseparator", 1),
    (":4142", 1),
    ("Name:", 1),
    ("Name:????", 1),
    ("Name:4", 1),
    ("# ok\nName:41g2", 2),
])
def test_signature_format_errors(text, lineno):
    with pytest.raises(FixtureFormatError) as exc:
        SignatureSet.from_text(text)
    assert exc.value.line == lineno


def naive_match(data: bytes, tokens) -> bool:
    n = len(tokens)
    for i in range(len(data) - n + 1):
        if all(t is None or data[i + j] == t for j, t in enumerate(tokens)):
            return True
    return False


@given(st.binary(max_size=120),
       st.lists(st.one_of(st.none(), st.integers(0, 255)),
                min_size=1, max_size=6))
def test_scan_agrees_with_sliding_window_oracle(data, tokens):
    assume(any(t is not None for t in tokens))
    ss = SignatureSet([Signature("t", tuple(tokens))])
    assert (ss.scan(data) == ["t"]) == naive_match(data, tokens)


@given(st.binary(max_size=60), st.binary(min_size=1, max_size=8),
       st.binary(max_size=60))
def test_planted_literal_pattern_always_hits(prefix, needle, suffix):
    text = needle.hex()
    ss = SignatureSet.from_text(f"P:{text}\n")
    assert ss.scan(prefix + needle + suffix) == ["P"]


# --- scan tickets ---

def test_ticket_happy_path():
    t = ScanTicket()
    assert t.status is TicketStatus.UNSCANNED
    t.to_in_progress("sim-abc")
    assert t.status is TicketStatus.SCAN_IN_PROGRESS and t.scan_id == "sim-abc"
    t.to_finished(12, {"engine-01": "malicious"})
    assert t.status is TicketStatus.SCAN_FINISHED
    assert t.detections == 12
    assert t.report == {"engine-01": "malicious"}


def test_ticket_error_paths():
    t = ScanTicket()
    t.to_error()  # submit failure straight from unscanned
    assert t.status is TicketStatus.ERROR

    t2 = ScanTicket()
    t2.to_in_progress("x")
    t2.to_error()
    assert t2.status is TicketStatus.ERROR


def test_ticket_requeue_archives_report():
    t = ScanTicket()
    t.to_in_progress("a")
    t.to_finished(3, {"engine-01": "clean"})
    t.requeue()
    assert t.status is TicketStatus.UNSCANNED
    assert t.scan_id == "" and t.detections is None and t.report == {}
    assert t.archived == [{"engine-01": "clean"}]
    # a failed scan with no report archives nothing
    t.to_error()
    t.requeue()
    assert t.archived == [{"engine-01": "clean"}]


def test_ticket_guards():
    t = ScanTicket()
    with pytest.raises(TicketStateError):
        t.to_in_progress("")
    t.to_in_progress("sid")
    with pytest.raises(TicketStateError):
        t.to_finished(-1)
    with pytest.raises(TicketStateError):
        t.to_finished(t.engines_total + 1)
    assert t.status is TicketStatus.SCAN_IN_PROGRESS  # guard left state alone
    t.to_finished(t.engines_total)


# reference transition model: action -> set of states it is legal from
_LEGAL_FROM = {
    "in_progress": {TicketStatus.UNSCANNED},
    "finished": {TicketStatus.SCAN_IN_PROGRESS},
    "error": {TicketStatus.UNSCANNED, TicketStatus.SCAN_IN_PROGRESS},
    "requeue": {TicketStatus.SCAN_FINISHED, TicketStatus.ERROR},
}
_NEXT_STATE = {
    "in_progress": TicketStatus.SCAN_IN_PROGRESS,
    "finished": TicketStatus.SCAN_FINISHED,
    "error": TicketStatus.ERROR,
    "requeue": TicketStatus.UNSCANNED,
}


def _apply(ticket: ScanTicket, action: str) -> None:
    if action == "in_progress":
        ticket.to_in_progress("sid")
    elif action == "finished":
        ticket.to_finished(5)
    elif action == "error":
        ticket.to_error()
    else:
        ticket.requeue()


def all_histories(length):
    actions = list(_LEGAL_FROM)
    if length == 0:
        yield ()
        return
    for rest in all_histories(length - 1):
        for a in actions:
            yield rest + (a,)


@pytest.mark.parametrize("length", [1, 2, 3, 4])
def test_every_action_history_matches_the_transition_table(length):
    for history in all_histories(length):
        ticket = ScanTicket()
        state = TicketStatus.UNSCANNED
        for action in history:
            if state in _LEGAL_FROM[action]:
                _apply(ticket, action)
                state = _NEXT_STATE[action]
            else:
                with pytest.raises(TicketStateError):
                    _apply(ticket, action)
            assert ticket.status is state


def test_ticket_doc_round_trip():
    t = ScanTicket()
    t.to_in_progress("sid")
    t.to_finished(7, {"engine-02": "malicious"})
    t.requeue()
    t.to_in_progress("sid2")
    doc = t.to_doc()
    back = ScanTicket.from_doc(json.loads(json.dumps(doc)))
    assert back == t


# --- label sets, verdicts, ground truth ---

def test_labelset_requires_fast_source_for_ticket():
    with pytest.raises(ValueError):
        LabelSet(scan_ticket=ScanTicket()).validate()
    LabelSet(blacklist=ThreatType.MALWARE, scan_ticket=ScanTicket()).validate()
    LabelSet(signature_hits=["Sig"], scan_ticket=ScanTicket()).validate()
    with pytest.raises(ValueError):
        LabelSet(blacklist=ThreatType.SOCIAL_ENGINEERING,
                 scan_ticket=ScanTicket()).validate()


def test_labelset_doc_round_trip():
    ls = LabelSet(blacklist=ThreatType.MALWARE, signature_hits=["A"],
                  scan_ticket=ScanTicket(), ground_truth=None)
    assert LabelSet.from_doc(json.loads(json.dumps(ls.to_doc()))) == ls
    assert LabelSet.from_doc({}) == LabelSet()


def test_fast_verdict_and_is_malware():
    db = UrlBlacklist()
    db.add_hash(ThreatType.MALWARE, hash_expressions("http://evil.test/")[0])
    ss = SignatureSet.from_text("S:4142\n")
    v = fast_verdict("http://evil.test/", b"nothing", db, ss)
    assert v.blacklist is ThreatType.MALWARE and v.is_malware

    v2 = fast_verdict("http://clean.test/", b"xxAByy", db, ss)
    assert v2.blacklist is ThreatType.NONE
    assert v2.signature_hits == ["S"] and v2.is_malware

    v3 = fast_verdict("http://clean.test/", b"spotless", None, None)
    assert not v3.is_malware


def test_schedule_multiengine_rules():
    assert schedule_multiengine(FastVerdict(ThreatType.MALWARE, [])) is not None
    assert schedule_multiengine(FastVerdict(ThreatType.NONE, ["Sig"])) is not None
    # social engineering is not malware: no deep scan
    assert schedule_multiengine(
        FastVerdict(ThreatType.SOCIAL_ENGINEERING, [])) is None
    assert schedule_multiengine(FastVerdict(ThreatType.NONE, [])) is None
    ticket = schedule_multiengine(FastVerdict(ThreatType.MALWARE, []))
    assert ticket.status is TicketStatus.UNSCANNED
    assert ticket.engines_total == ENGINE_COUNT


def test_ground_truth_threshold():
    assert GROUND_TRUTH_THRESHOLD == 10
    assert ground_truth(None) is None
    t = ScanTicket()
    assert ground_truth(t) is None
    t.to_in_progress("x")
    assert ground_truth(t) is None
    t.to_finished(GROUND_TRUTH_THRESHOLD)
    assert ground_truth(t) is True
    t2 = ScanTicket()
    t2.to_in_progress("x")
    t2.to_finished(GROUND_TRUTH_THRESHOLD - 1)
    assert ground_truth(t2) is False
    t3 = ScanTicket()
    t3.to_error()
    assert ground_truth(t3) is None


# --- simulated engines ---

def test_engine_set_has_55_engines():
    assert ENGINE_COUNT == 55
    assert len(ENGINE_NAMES) == 55
    assert ENGINE_NAMES[0] == "engine-01" and ENGINE_NAMES[-1] == "engine-55"


def test_submit_is_deterministic_and_content_addressed():
    engines = SimulatedEngineSet()
    body = b"malware body"
    digest = hashlib.sha256(body).hexdigest()
    sid = engines.submit(body)
    assert sid == "sim-" + digest[:16]
    assert engines.submit(body) == sid


def test_fixture_verdicts_drive_detections():
    body = b"really bad page"
    digest = hashlib.sha256(body).hexdigest()
    names = list(ENGINE_NAMES[:12])
    engines = SimulatedEngineSet({digest: names})
    sid = engines.submit(body)
    detections, report = engines.fetch(sid)
    assert detections == 12
    assert set(report) == set(ENGINE_NAMES)
    assert all(report[n] == "malicious" for n in names)
    assert sum(1 for v in report.values() if v == "malicious") == 12


def test_unknown_digest_falls_back_below_threshold():
    body = b"never seen before"
    digest = hashlib.sha256(body).hexdigest()
    engines = SimulatedEngineSet()
    detections, report = engines.fetch(engines.submit(body))
    assert detections == int(digest[:4], 16) % 3
    assert detections < GROUND_TRUTH_THRESHOLD
    assert sum(1 for v in report.values() if v == "malicious") == detections


def test_engine_guards(monkeypatch):
    monkeypatch.setattr(labels_module, "ENGINE_SIZE_CAP", 16)
    engines = SimulatedEngineSet()
    with pytest.raises(EngineSizeError):
        engines.submit(b"x" * 17)
    with pytest.raises(EngineError):
        engines.fetch("sim-unknown")
    for fixture in ({"00" * 32: ["engine-99"]}, {"ab": 5}, [1]):
        with pytest.raises(ValueError):
            SimulatedEngineSet(fixture)


def test_engine_fixture_from_file(tmp_path):
    body = b"fixture body"
    digest = hashlib.sha256(body).hexdigest()
    path = tmp_path / "engines.json"
    path.write_text(json.dumps({digest: list(ENGINE_NAMES[:10])}))
    engines = SimulatedEngineSet.from_file(path)
    detections, _ = engines.fetch(engines.submit(body))
    assert detections == 10


# --- worker steps over a store ---

def seeded_scan_store(tmp_path, count, fixture=None):
    store = FlowStore(tmp_path / "scan")
    engines = SimulatedEngineSet(fixture or {})
    for i in range(count):
        body = b"malicious body %d" % i
        sha1 = store.put_blob(body)
        labels = LabelSet(signature_hits=["Sig"], scan_ticket=ScanTicket())
        store.put_record(FlowRecord(body_sha1=sha1, decoded_sha1=sha1,
                                    labels=labels))
    return store, engines


def ticket_states(store):
    return [r.labels.scan_ticket.status for r in store.records()]


def test_submit_step_respects_capacity(tmp_path):
    store, engines = seeded_scan_store(tmp_path, 6)
    with store:
        assert submit_worker_step(store, engines) == 4
        states = ticket_states(store)
        assert states.count(TicketStatus.SCAN_IN_PROGRESS) == 4
        assert states.count(TicketStatus.UNSCANNED) == 2
        # lowest record ids go first
        assert states[:4] == [TicketStatus.SCAN_IN_PROGRESS] * 4
        assert submit_worker_step(store, engines) == 2
        assert submit_worker_step(store, engines) == 0


def test_fetch_step_finishes_and_sets_ground_truth(tmp_path):
    body = b"malicious body 0"
    digest = hashlib.sha256(body).hexdigest()
    store, engines = seeded_scan_store(
        tmp_path, 2, fixture={digest: list(ENGINE_NAMES[:20])})
    with store:
        submit_worker_step(store, engines)
        assert fetch_worker_step(store, engines) == 2
        records = list(store.records())
        assert all(r.labels.scan_ticket.status is TicketStatus.SCAN_FINISHED
                   for r in records)
        assert records[0].labels.scan_ticket.detections == 20
        assert records[0].labels.ground_truth is True
        assert records[1].labels.ground_truth is False  # fallback noise < 10
        assert fetch_worker_step(store, engines) == 0


def test_oversize_body_moves_ticket_to_error(tmp_path, monkeypatch):
    monkeypatch.setattr(labels_module, "ENGINE_SIZE_CAP", 8)
    store = FlowStore(tmp_path / "scan")
    engines = SimulatedEngineSet()
    with store:
        sha1 = store.put_blob(b"way more than eight bytes")
        store.put_record(FlowRecord(
            body_sha1=sha1, decoded_sha1=sha1,
            labels=LabelSet(signature_hits=["Sig"], scan_ticket=ScanTicket())))
        assert submit_worker_step(store, engines) == 1
        record = store.get_record(1)
        assert record.labels.scan_ticket.status is TicketStatus.ERROR
        assert record.labels.ground_truth is None


def test_workers_prefer_decoded_body(tmp_path):
    store = FlowStore(tmp_path / "scan")
    raw = b"raw compressed bytes"
    decoded = b"decoded page body"
    fixture = {hashlib.sha256(decoded).hexdigest(): list(ENGINE_NAMES[:15])}
    engines = SimulatedEngineSet(fixture)
    with store:
        raw_sha = store.put_blob(raw)
        dec_sha = store.put_blob(decoded)
        store.put_record(FlowRecord(
            body_sha1=raw_sha, decoded_sha1=dec_sha,
            labels=LabelSet(signature_hits=["Sig"], scan_ticket=ScanTicket())))
        submit_worker_step(store, engines)
        fetch_worker_step(store, engines)
        record = store.get_record(1)
        assert record.labels.scan_ticket.detections == 15
        assert record.labels.ground_truth is True
