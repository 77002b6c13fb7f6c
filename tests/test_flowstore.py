"""Record/blob store: dedup, durability, locking, the status index."""

import hashlib
import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from test_golden_corpus import GOLDEN

from websift.features import FeatureVector, extract_features
from websift.flowstore import (
    BlobCorruptError,
    BlobNotFoundError,
    BlobTooLargeError,
    DanglingBlobError,
    FlowRecord,
    FlowStore,
    RecordNotFoundError,
    StoreError,
    StoreLockError,
)
from websift import flowstore, labels as labels_module
from websift.labels import (
    ENGINE_NAMES,
    LabelSet,
    ScanTicket,
    SimulatedEngineSet,
    ThreatType,
    TicketStatus,
    fetch_worker_step,
    submit_worker_step,
)
from websift.wire import HttpExchange, HttpRequest, HttpResponse

# a store written when every log line held a full record document
FULL_LINE_STORE = Path(__file__).resolve().parent / "data" / "full_line_store"


def make_exchange(url="http://site.test/", status=200, started_at=1_500_000_000_000):
    return HttpExchange(
        request=HttpRequest("GET", url, [("Host", "site.test")]),
        response=HttpResponse(status, "OK", [("Content-Type", "text/html")]),
        body=b"",
        started_at=started_at,
        agent_id="agent-0",
        seeder_tag="benign",
    )


# --- blobs ---

def test_put_blob_returns_sha1_and_dedups(tmp_path):
    with FlowStore(tmp_path / "s") as store:
        data = b"same bytes"
        first = store.put_blob(data)
        second = store.put_blob(data)
        assert first == second == hashlib.sha1(data).hexdigest()
        assert store.blob_count() == 1
        got = store.get_blob(first)
        assert got.data == data and got.size == len(data) and got.sha1 == first


def test_empty_blob_uses_the_known_digest(tmp_path):
    with FlowStore(tmp_path / "s") as store:
        assert store.put_blob(b"") == hashlib.sha1(b"").hexdigest()
        assert store.get_blob(hashlib.sha1(b"").hexdigest()).data == b""


def test_blob_lookup_failures(tmp_path):
    with FlowStore(tmp_path / "s") as store:
        with pytest.raises(BlobNotFoundError):
            store.get_blob("0" * 40)
        with pytest.raises(BlobNotFoundError):
            store.get_blob("not a digest")
        assert not store.has_blob("not a digest")
        assert not store.has_blob("0" * 40)


def test_blob_cap_enforced(tmp_path, monkeypatch):
    monkeypatch.setattr("websift.flowstore.BLOB_CAP", 8)
    with FlowStore(tmp_path / "s") as store:
        assert store.put_blob(b"x" * 8)
        with pytest.raises(BlobTooLargeError):
            store.put_blob(b"x" * 9)


def test_corrupted_blob_detected_on_read(tmp_path):
    with FlowStore(tmp_path / "s") as store:
        sha1 = store.put_blob(b"original")
        store.flush()
        pack = tmp_path / "s" / "blobs" / "pack"
        frame = bytearray(pack.read_bytes())
        assert frame[24:] == b"original"
        frame[-1] ^= 0x01
        pack.write_bytes(bytes(frame))
        with pytest.raises(BlobCorruptError):
            store.get_blob(sha1)


def test_unreferenced_blob_reads_back_from_the_live_writer(tmp_path):
    with FlowStore(tmp_path / "s") as store:
        sha1 = store.put_blob(b"not named by any record yet")
        assert store.has_blob(sha1)
        assert store.get_blob(sha1).data == b"not named by any record yet"
        assert store.blob_count() == 1


def test_pack_is_synced_before_the_line_that_names_a_new_blob(tmp_path, monkeypatch):
    calls = []

    class LogSpy:
        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            calls.append(("log write", json.loads(text).get("body_sha1")))
            return self.fh.write(text)

        def __getattr__(self, name):
            return getattr(self.fh, name)

    with FlowStore(tmp_path / "s") as store:
        store.put_record(FlowRecord())
        store._log_fh = LogSpy(store._log_fh)
        pack_fd = store._pack_fh.fileno()
        real_fsync = os.fsync

        def fsync(fd):
            calls.append(("pack fsync",) if fd == pack_fd else ("other fsync",))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        sha1 = store.put_blob(b"new body")
        store.put_record(FlowRecord(body_sha1=sha1))
        store.put_record(FlowRecord(body_sha1=sha1))  # nothing new to sync
        store._log_fh = store._log_fh.fh
    assert calls[:3] == [("pack fsync",), ("log write", sha1), ("log write", sha1)]


def test_pack_cut_inside_its_last_frame_is_skipped_and_cut_by_a_writer(tmp_path):
    root = tmp_path / "s"
    pack = root / "blobs" / "pack"
    with FlowStore(root) as store:
        for data in (b"first body", b"second body"):
            store.put_record(FlowRecord(body_sha1=store.put_blob(data)))
        store.flush()
        start = pack.stat().st_size
        store.put_blob(b"last frame, never referenced")  # a crash can tear only such a frame
    whole = pack.read_bytes()
    last = hashlib.sha1(b"last frame, never referenced").hexdigest()
    for cut in range(start + 1, len(whole)):
        pack.write_bytes(whole[:cut])
        with FlowStore(root, writable=False) as reader:
            assert [reader.get_blob(r.body_sha1).data for r in reader.records()] == \
                [b"first body", b"second body"]
            assert not reader.has_blob(last)
        assert pack.stat().st_size == cut
        with FlowStore(root) as store:
            assert pack.stat().st_size == start
            assert store.blob_count() == 2
    with FlowStore(root) as store:
        assert store.put_blob(b"last frame, never referenced") == last
    with FlowStore(root, writable=False) as reader:
        assert reader.get_blob(last).data == b"last frame, never referenced"
    assert pack.read_bytes() == whole


@pytest.mark.parametrize("length", [2 ** 32 - 1, 64 * 1024 * 1024 + 1, 10_000])
def test_damaged_middle_frame_losing_a_referenced_blob_fails_the_open(tmp_path, length):
    root = tmp_path / "s"
    with FlowStore(root) as store:
        for data in (b"first body", b"second body", b"third body"):
            store.put_record(FlowRecord(body_sha1=store.put_blob(data)))
    pack = root / "blobs" / "pack"
    damaged = bytearray(pack.read_bytes())
    second = 24 + len(b"first body")
    damaged[second + 20:second + 24] = length.to_bytes(4, "big")
    pack.write_bytes(bytes(damaged))
    for writable in (True, True, False):
        with pytest.raises(StoreError, match="record 2 body_sha1") as exc:
            FlowStore(root, writable=writable)
        assert not isinstance(exc.value, StoreLockError)
    assert pack.read_bytes() == damaged


def test_pack_that_lost_a_named_frame_fails_the_open_whatever_its_tail_holds(tmp_path):
    root = tmp_path / "s"
    with FlowStore(root) as store:
        for data in (b"first body", b"second body"):
            store.put_record(FlowRecord(body_sha1=store.put_blob(data)))
    pack = root / "blobs" / "pack"
    # the second frame is gone and a few garbage bytes end the pack, so the
    # tail does not hold the lost digest
    damaged = pack.read_bytes()[:24 + len(b"first body")] + b"\x00\x01\x02"
    pack.write_bytes(damaged)
    for writable in (False, True):
        with pytest.raises(StoreError, match="record 2 body_sha1") as exc:
            FlowStore(root, writable=writable)
        assert not isinstance(exc.value, StoreLockError)
    assert pack.read_bytes() == damaged


# --- records ---

def test_record_ids_are_assigned_sequentially(tmp_path):
    with FlowStore(tmp_path / "s") as store:
        ids = [store.put_record(FlowRecord()) for _ in range(3)]
        assert ids == [1, 2, 3]
        assert store.record_count() == 3
        assert [r.record_id for r in store.records()] == [1, 2, 3]


def test_preset_record_id_rejected(tmp_path):
    with FlowStore(tmp_path / "s") as store:
        with pytest.raises(ValueError):
            store.put_record(FlowRecord(record_id=7))


def test_body_sha1_must_reference_a_stored_blob(tmp_path):
    with FlowStore(tmp_path / "s") as store:
        with pytest.raises(DanglingBlobError):
            store.put_record(FlowRecord(body_sha1="ab" * 20))
        with pytest.raises(DanglingBlobError):
            store.put_record(FlowRecord(body_sha1="not-a-digest"))
        sha1 = store.put_blob(b"content")
        rid = store.put_record(FlowRecord(body_sha1=sha1))
        assert store.get_record(rid).body_sha1 == sha1


def test_extra_keys_must_be_namespaced(tmp_path):
    with FlowStore(tmp_path / "s") as store:
        with pytest.raises(ValueError):
            store.put_record(FlowRecord(extra={"status": 200}))
        rid = store.put_record(FlowRecord(extra={"wire.status": 200}))
        assert store.get_record(rid).extra == {"wire.status": 200}


def test_get_record_missing(tmp_path):
    with FlowStore(tmp_path / "s") as store:
        with pytest.raises(RecordNotFoundError):
            store.get_record(99)


def test_update_record_appends_new_version(tmp_path):
    root = tmp_path / "s"
    with FlowStore(root) as store:
        rid = store.put_record(FlowRecord(extra={"wire.status": 200}))
        store.update_record(rid, extra={"wire.status": 404})
        assert store.get_record(rid).extra["wire.status"] == 404
        with pytest.raises(ValueError):
            store.update_record(rid, bogus_field=5)
    # the log now holds two versions; replay keeps the latest
    lines = (root / "records.log").read_text().splitlines()
    assert len(lines) == 2
    with FlowStore(root) as store:
        assert store.record_count() == 1
        assert store.get_record(rid).extra["wire.status"] == 404


def test_handed_out_extra_does_not_share_nested_values_with_the_store(tmp_path):
    root = tmp_path / "s"
    with FlowStore(root) as store:
        store.put_record(FlowRecord(extra={"t.a": [1], "t.b": {"k": [2]}}))
        extra = store.get_record(1).extra
        extra["t.a"].append(2)
        extra["t.b"]["k"].append(3)
        assert store.get_record(1).extra == {"t.a": [1], "t.b": {"k": [2]}}
        assert next(store.records()).extra["t.a"] == [1]
        store.update_record(1, extra=extra)
    with FlowStore(root) as store:
        assert store.get_record(1).extra == {"t.a": [1, 2], "t.b": {"k": [2, 3]}}


def test_stored_extra_does_not_share_nested_values_with_the_caller(tmp_path):
    root = tmp_path / "s"
    with FlowStore(root) as store:
        record = FlowRecord(extra={"t.a": [1], "t.b": {"k": [2]}})
        store.put_record(record)
        record.extra["t.a"].append(9)
        record.extra["t.b"]["k"].append(9)
        assert store.get_record(1).extra == {"t.a": [1], "t.b": {"k": [2]}}
        lst = [3]
        store.update_record(1, extra={"t.a": lst})
        lst.append(9)
        assert store.get_record(1).extra == {"t.a": [3]}
    with FlowStore(root) as store:
        assert store.get_record(1).extra == {"t.a": [3]}


def test_reopen_preserves_records_and_id_sequence(tmp_path):
    root = tmp_path / "s"
    with FlowStore(root) as store:
        store.put_record(FlowRecord(extra={"t.a": 1}))
        store.put_record(FlowRecord(extra={"t.a": 2}))
    with FlowStore(root) as store:
        assert store.record_count() == 2
        rid = store.put_record(FlowRecord(extra={"t.a": 3}))
        assert rid == 3  # ids never reused across sessions


def test_store_writes_only_the_log_and_blobs(tmp_path):
    root = tmp_path / "s"
    with FlowStore(root) as store:
        store.put_record(FlowRecord(body_sha1=store.put_blob(b"x"), extra={"t.a": 1}))
    assert sorted(p.name for p in root.iterdir()) == ["blobs", "records.lock", "records.log"]


def test_legacy_index_directory_is_ignored(tmp_path):
    root = tmp_path / "s"
    with FlowStore(root) as store:
        store.put_record(FlowRecord(extra={"t.a": 1}))
    index = root / "index"
    index.mkdir(exist_ok=True)
    (index / "ids.log").write_text("1 0 99\n7 99 5\n", encoding="utf-8")
    (index / "meta.json").write_text('{"next_record_id": 40, "record_count": 9}\n',
                                     encoding="utf-8")
    with FlowStore(root) as store:
        assert store.record_count() == 1
        assert store.put_record(FlowRecord(extra={"t.a": 2})) == 2
    assert (index / "ids.log").read_text(encoding="utf-8") == "1 0 99\n7 99 5\n"


def test_torn_final_line_is_tolerated(tmp_path):
    root = tmp_path / "s"
    with FlowStore(root) as store:
        store.put_record(FlowRecord(extra={"t.a": 1}))
    with open(root / "records.log", "a", encoding="utf-8") as fh:
        fh.write('{"record_id": 2, "truncated')  # simulated crash mid-write
    with FlowStore(root) as store:
        assert store.record_count() == 1
        rid = store.put_record(FlowRecord())
        assert rid == 2
    # the torn text was cut, so the new record did not land on its line
    with FlowStore(root) as store:
        assert store.record_count() == 2
        assert store.get_record(2).to_doc() == FlowRecord(record_id=2).to_doc()


def test_readonly_open_tolerates_and_keeps_a_torn_final_line(tmp_path):
    root = tmp_path / "s"
    with FlowStore(root) as store:
        store.put_record(FlowRecord(extra={"t.a": 1}))
    log = root / "records.log"
    with open(log, "a", encoding="utf-8") as fh:
        fh.write('{"record_id": 1, "extra": {"t.a": 2}}')  # no newline: not yet complete
    before = log.read_bytes()
    with FlowStore(root, writable=False) as reader:
        assert reader.get_record(1).extra == {"t.a": 1}
    assert log.read_bytes() == before  # a writer may still be appending it


BAD_LINES = [
    pytest.param('{"record_id": 1, "ext', "does not decode", id="garbage"),
    pytest.param('[1, 2]', "not a JSON object", id="non-object"),
    pytest.param('{"record_id": 0, "extra": {}}', "bad record_id 0", id="id-zero"),
    pytest.param('{"record_id": "1", "extra": {}}', "bad record_id '1'", id="id-string"),
    pytest.param('{"extra": {}}', "bad record_id None", id="id-missing"),
    pytest.param('{"record_id": 9, "extra": {"t.a": 2}}', "no earlier line", id="orphan-partial"),
]


@pytest.mark.parametrize("bad_line, problem", BAD_LINES)
def test_bad_line_before_the_final_line_raises_with_its_number(tmp_path, bad_line, problem):
    root = tmp_path / "s"
    with FlowStore(root) as store:
        store.put_record(FlowRecord(extra={"t.a": 1}))
    log = root / "records.log"
    good = log.read_text(encoding="utf-8")
    log.write_text(good + bad_line + "\n" + good, encoding="utf-8")
    # the second writable open also fails on the log, so the first released the lock
    for writable in (True, True, False):
        with pytest.raises(StoreError, match=f"line 2: .*{problem}") as exc:
            FlowStore(root, writable=writable)
        assert not isinstance(exc.value, StoreLockError)
    assert log.read_text(encoding="utf-8") == good + bad_line + "\n" + good


@pytest.mark.parametrize("bad_line, problem", BAD_LINES)
def test_bad_final_line_is_skipped_and_cut_by_a_writer(tmp_path, bad_line, problem):
    root = tmp_path / "s"
    with FlowStore(root) as store:
        store.put_record(FlowRecord(extra={"t.a": 1}))
    log = root / "records.log"
    good = log.read_bytes()
    log.write_bytes(good + bad_line.encode("utf-8") + b"\n")
    with FlowStore(root, writable=False) as reader:
        assert reader.record_count() == 1
    with FlowStore(root) as store:
        assert log.read_bytes() == good
        assert store.put_record(FlowRecord(extra={"t.a": 2})) == 2
    with FlowStore(root) as store:
        assert [r.extra for r in store.records()] == [{"t.a": 1}, {"t.a": 2}]


# --- what an update writes ---

def test_noop_update_leaves_the_log_unchanged(tmp_path):
    root = tmp_path / "s"
    with FlowStore(root) as store:
        rid = store.put_record(FlowRecord(exchange=make_exchange(), extra={"t.a": 1}))
        store.flush()
        before = (root / "records.log").read_bytes()
        record = store.get_record(rid)
        got = store.update_record(rid, exchange=record.exchange, labels=LabelSet(),
                                  extra={"t.a": 1}, features=None)
        store.update_record(rid)
        assert got.to_doc() == record.to_doc()
    assert (root / "records.log").read_bytes() == before


def test_label_only_update_writes_only_record_id_and_labels(tmp_path):
    root = tmp_path / "s"
    labels = LabelSet(signature_hits=["sig.a"], scan_ticket=ScanTicket())
    with FlowStore(root) as store:
        rid = store.put_record(FlowRecord(exchange=make_exchange(), extra={"t.a": 1}))
        store.update_record(rid, labels=labels)
    lines = (root / "records.log").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert json.loads(lines[1]) == {"record_id": rid, "labels": labels.to_doc()}
    with FlowStore(root) as store:
        got = store.get_record(rid)
        assert got.labels.to_doc() == labels.to_doc()
        assert got.exchange.request.url == "http://site.test/"
        assert got.extra == {"t.a": 1}


@pytest.mark.parametrize("old, new", [(1, 1.0), (1, True), (1.0, True), (0.0, -0.0)])
def test_update_to_an_equal_value_with_other_json_is_written(tmp_path, old, new):
    # == holds for each pair, but their JSON differs and must survive a reopen
    root = tmp_path / "s"
    with FlowStore(root) as store:
        rid = store.put_record(FlowRecord(extra={"t.a": old}))
        store.update_record(rid, extra={"t.a": new})
    assert len((root / "records.log").read_bytes().splitlines()) == 2
    with FlowStore(root) as store:
        assert json.dumps(store.get_record(rid).extra["t.a"]) == json.dumps(new)


def test_log_of_full_lines_replays_and_exports_as_before(tmp_path):
    pinned = (FULL_LINE_STORE / "records.log").read_bytes()
    latest = {}
    for line in pinned.splitlines():
        doc = json.loads(line)
        latest[doc["record_id"]] = doc
    root = tmp_path / "s"
    root.mkdir()
    (root / "records.log").write_bytes(pinned)
    with FlowStore(root, writable=False, create=False) as store:
        assert [r.to_doc() for r in store.records()] == [latest[1], latest[2]]
    # a writer appends after the old lines and leaves them as they are
    with FlowStore(root) as store:
        assert store.put_blob(b"<html>x</html>") == latest[1]["body_sha1"]
        store.update_record(2, extra={"t.a": 1})
        store.update_record(1, extra={})
    log = (root / "records.log").read_bytes()
    assert log.startswith(pinned)
    assert json.loads(log[len(pinned):]) == {"record_id": 1, "extra": {}}


def _fresh(text: str) -> str:
    """An equal string that is a new object, as each decoded log line makes its own."""
    return "".join(list(text))


def _scanned_record(url: str) -> FlowRecord:
    """A record with a 55-engine report built from strings of its own."""
    report = {_fresh(name): _fresh("malicious" if i < 3 else "clean")
              for i, name in enumerate(ENGINE_NAMES)}
    ticket = ScanTicket()
    ticket.to_in_progress("scan-" + url)
    ticket.to_finished(3, report)
    return FlowRecord(exchange=make_exchange(url),
                      labels=LabelSet(signature_hits=["sig.a"], scan_ticket=ticket))


def _report_strings(store: FlowStore, rid: int) -> list[str]:
    doc = store._docs[rid]
    report = doc["labels"]["scan_ticket"]["report"]
    headers = doc["exchange"]["request"]["headers"] + doc["exchange"]["response"]["headers"]
    return [s for pair in report.items() for s in pair] + [s for pair in headers for s in pair]


def test_documents_share_one_copy_of_each_string(tmp_path):
    with FlowStore(tmp_path / "s") as store:
        store.put_record(_scanned_record("http://a.test/"))
        store.put_record(_scanned_record("http://b.test/"))
        first, second = _report_strings(store, 1), _report_strings(store, 2)
        assert first == second and len(first) == 2 * 55 + 4
        assert all(a is b for a, b in zip(first, second))
    with FlowStore(tmp_path / "s", writable=False) as reopened:
        first, second = _report_strings(reopened, 1), _report_strings(reopened, 2)
        assert all(a is b for a, b in zip(first, second))
        # records handed out hold the shared copies too
        one, two = (reopened.get_record(rid).labels.scan_ticket.report for rid in (1, 2))
        assert all(a is b for a, b in zip(one, two))
        assert all(one[k] is two[k] for k in one)


def test_records_from_one_agent_share_their_request_header_tuple(tmp_path):
    with FlowStore(tmp_path / "s") as store:
        store.put_record(FlowRecord(exchange=make_exchange("http://a.test/")))
        store.put_record(FlowRecord(exchange=make_exchange("http://b.test/")))
        with FlowStore(tmp_path / "s", writable=False) as reopened:
            for held in (store, reopened):
                first, second = (held._docs[rid]["exchange"]["request"]["headers"]
                                 for rid in (1, 2))
                assert first == (("Host", "site.test"),) and first is second
                # handed out as a list of the shared pairs, the caller's to change
                headers = held.get_record(1).exchange.request.headers
                assert headers == [("Host", "site.test")] and headers[0] is first[0]
                headers.append(("X-Added", "1"))
                assert held.get_record(1).exchange.request.headers == [("Host", "site.test")]


def test_handed_out_labels_are_copies(tmp_path):
    with FlowStore(tmp_path / "s") as store:
        store.put_record(_scanned_record("http://a.test/"))
        labels = store.get_record(1).labels
        labels.signature_hits.append("sig.b")
        labels.scan_ticket.report["extra-engine"] = "clean"
        labels.scan_ticket.archived.append({"k": "v"})
        again = store.get_record(1).labels
        assert again.signature_hits == ["sig.a"]
        assert "extra-engine" not in again.scan_ticket.report
        assert again.scan_ticket.archived == []


def test_numbers_in_stored_lists_keep_their_type(tmp_path):
    # 1, 1.0 and True are equal and hash alike, so no tuple holding one is shared
    root = tmp_path / "s"
    extra = {"t.a": [1], "t.b": [1.0], "t.c": [True], "t.d": [["x", 1]], "t.e": [["x", 1.0]]}
    with FlowStore(root) as store:
        for _ in range(2):
            store.put_record(FlowRecord(extra=extra))
    text = (root / "records.log").read_text()
    assert text.count('"t.a":[1],"t.b":[1.0],"t.c":[true],"t.d":[["x",1]],'
                      '"t.e":[["x",1.0]]') == 2
    with FlowStore(root, writable=False) as store:
        for record in store.records():
            assert record.extra == extra
            assert [type(v[0]) for v in record.extra.values()] == [int, float, bool, list, list]
            assert type(record.extra["t.e"][0][1]) is float


def test_update_with_what_the_store_holds_appends_nothing(tmp_path):
    root = tmp_path / "s"
    with FlowStore(root) as store:
        record = _scanned_record("http://a.test/")
        record.features = extract_features(b"<html><script>eval(1.5)</script></html>")
        record.extra = {"t.a": ["x", ["y", 2.0]], "t.b": {"k": [1]}}
        rid = store.put_record(record)
        store.flush()
        before = (root / "records.log").read_bytes()
        got = store.get_record(rid)
        store.update_record(rid, exchange=got.exchange, labels=got.labels,
                            features=got.features, extra=got.extra)
        store.update_record(rid, extra={"t.a": ["x", ["y", 2.0]], "t.b": {"k": [1]}})
    assert (root / "records.log").read_bytes() == before


def test_close_drops_the_documents_and_indexes(tmp_path):
    store = FlowStore(tmp_path / "s")
    store.put_blob(b"body")
    store.put_record(_scanned_record("http://a.test/"))
    store.close()
    assert (store.record_count(), store.blob_count()) == (0, 0)
    assert store.query("scan_finished") == [] and store._shared == {}
    with FlowStore(tmp_path / "s", writable=False) as reopened:
        assert (reopened.record_count(), reopened.blob_count()) == (1, 1)


def _write_and_reopen(root: Path) -> tuple[bytes, list]:
    with FlowStore(root) as store:
        for url in ("http://a.test/", "http://b.test/", "http://a.test/"):
            store.put_record(_scanned_record(url))
        record = store.get_record(2)
        record.labels.scan_ticket.requeue()
        store.update_record(2, labels=record.labels, extra={"t.note": ["clean", {"k": "v"}]})
        live = [r.to_doc() for r in store.records()]
    with FlowStore(root, writable=False) as reopened:
        assert [r.to_doc() for r in reopened.records()] == live
    return (root / "records.log").read_bytes(), live


def test_sharing_strings_changes_no_byte_written(tmp_path, monkeypatch):
    shared = _write_and_reopen(tmp_path / "shared" / "s")
    monkeypatch.setattr(flowstore, "_share_strings", lambda node, share: node)
    assert _write_and_reopen(tmp_path / "plain" / "s") == shared


def test_exchange_round_trips_through_store(tmp_path):
    with FlowStore(tmp_path / "s") as store:
        rid = store.put_record(FlowRecord(exchange=make_exchange()))
        got = store.get_record(rid).exchange
        assert got.request.url == "http://site.test/"
        assert got.response.status == 200
        assert got.started_at == 1_500_000_000_000
        assert got.body == b""  # bodies live in the blob store only


def test_invalid_exchange_rejected(tmp_path):
    with FlowStore(tmp_path / "s") as store:
        bad = make_exchange(url="not-absolute")
        with pytest.raises(ValueError):
            store.put_record(FlowRecord(exchange=bad))


# --- locking and access modes ---

def test_second_writer_is_locked_out(tmp_path):
    root = tmp_path / "s"
    with FlowStore(root):
        with pytest.raises(StoreLockError):
            FlowStore(root)


def test_reader_coexists_with_writer(tmp_path):
    root = tmp_path / "s"
    with FlowStore(root) as writer:
        writer.put_record(FlowRecord(extra={"t.a": 1}))
        writer.flush()
        reader = FlowStore(root, writable=False)
        assert reader.record_count() == 1
        with pytest.raises(StoreError):
            reader.put_blob(b"nope")
        with pytest.raises(StoreError):
            reader.put_record(FlowRecord())
        reader.close()


def test_readonly_open_of_missing_store_fails(tmp_path):
    with pytest.raises(StoreError):
        FlowStore(tmp_path / "absent", writable=False, create=False)


# --- the status index ---

def _ticketed(status=TicketStatus.UNSCANNED):
    return FlowRecord(labels=LabelSet(signature_hits=["sig.a"],
                                      scan_ticket=ScanTicket(status=status)))


def test_query_returns_ticket_status_matches_lowest_ids_first(tmp_path):
    with FlowStore(tmp_path / "s") as store:
        for record in (_ticketed(), FlowRecord(), _ticketed(TicketStatus.ERROR),
                       _ticketed(), _ticketed(), _ticketed()):
            store.put_record(record)
        # a record updated last still comes back in id order
        store.update_record(1, extra={"t.a": 1})
        assert [r.record_id for r in store.query("unscanned")] == [1, 4, 5, 6]
        assert [r.record_id for r in store.query("unscanned", 2)] == [1, 4]
        assert [r.record_id for r in store.query("error")] == [3]
        assert store.query("scan_finished") == []
        # moving a ticket, or dropping it, moves the record in the index
        labels = store.get_record(3).labels
        labels.scan_ticket.requeue()
        store.update_record(3, labels=labels)
        store.update_record(4, labels=LabelSet(signature_hits=["sig.a"]))
        assert [r.record_id for r in store.query("unscanned")] == [1, 3, 5, 6]
        assert store.query("error") == []


def test_loaded_feature_vectors_equal_freshly_validated_ones(tmp_path):
    vectors = [extract_features(body, ctype) for _, body, ctype, _ in GOLDEN]
    with FlowStore(tmp_path / "s") as store:
        for vector in vectors:
            record = _ticketed()
            record.features = vector
            store.put_record(record)
    with FlowStore(tmp_path / "s", writable=False) as store:
        loaded = [r.features for r in store.records()]
        queried = [r.features for r in store.query("unscanned")]
        single = [store.get_record(i + 1).features for i in range(len(vectors))]
    for got in (loaded, queried, single):
        assert got == vectors
        # type for type too: a float feature stays a float, a count an int
        assert [[type(v) for v in g.as_row()] for g in got] == \
            [[type(v) for v in w.as_row()] for w in vectors]
        assert [FeatureVector.from_doc(g.to_doc()) for g in got] == vectors


@given(st.binary(max_size=2048))
def test_blob_round_trip_property(tmp_path_factory, data):
    root = tmp_path_factory.mktemp("blobs")
    with FlowStore(root) as store:
        sha1 = store.put_blob(data)
        assert store.get_blob(sha1).data == data
        assert sha1 == hashlib.sha1(data).hexdigest()


# --- log replay matches the in-memory state ---

_VALUES = [1, 1.0, True, 0, False, 0.0, -0.0, "1", None, [1], {"k": 1}]
_LABELS = [LabelSet(), LabelSet(blacklist=ThreatType.MALWARE),
           LabelSet(signature_hits=["sig.a"]), LabelSet(ground_truth=False)]

_ops = st.lists(st.one_of(
    st.tuples(st.just("put"), st.sampled_from(_VALUES)),
    st.tuples(st.just("extra"), st.integers(0, 5), st.sampled_from(_VALUES)),
    st.tuples(st.just("labels"), st.integers(0, 5), st.sampled_from(range(len(_LABELS)))),
    st.tuples(st.just("body"), st.integers(0, 5), st.sampled_from([None, 0, 1])),
), max_size=25)


def _json(doc) -> str:
    return json.dumps(doc, sort_keys=True)


@settings(deadline=None)
@given(_ops)
def test_replay_matches_in_memory_state_property(tmp_path_factory, ops):
    root = tmp_path_factory.mktemp("replay")
    lines = 0
    with FlowStore(root) as store:
        blobs = [store.put_blob(b"a"), store.put_blob(b"b")]
        store.put_record(FlowRecord(extra={"t.a": 0}))
        lines += 1
        for op, *args in ops:
            if op == "put":
                store.put_record(FlowRecord(extra={"t.a": args[0]}))
                lines += 1
                continue
            rid = args[0] % store.record_count() + 1
            if op == "extra":
                fields = {"extra": {"t.a": args[1]}}
            elif op == "labels":
                fields = {"labels": LabelSet.from_doc(_LABELS[args[1]].to_doc())}
            else:
                fields = {"body_sha1": None if args[1] is None else blobs[args[1]]}
            wanted = store.get_record(rid)
            before = _json(wanted.to_doc())
            for name, value in fields.items():
                setattr(wanted, name, value)
            store.update_record(rid, **fields)
            after = _json(store.get_record(rid).to_doc())
            assert after == _json(wanted.to_doc())
            lines += after != before
        memory = {r.record_id: _json(r.to_doc()) for r in store.records()}
        next_id = store._next_id
    assert len((root / "records.log").read_bytes().splitlines()) == lines
    with FlowStore(root, writable=False) as reopened:
        assert {r.record_id: _json(r.to_doc()) for r in reopened.records()} == memory
        assert reopened._next_id == next_id


# --- the status index matches a scan of every record ---

_STATUSES = [s.value for s in TicketStatus]

_index_ops = st.lists(st.one_of(
    st.tuples(st.just("put"), st.booleans(), st.sampled_from([None, b"ok", b"too big"])),
    st.tuples(st.just("submit")),
    st.tuples(st.just("fetch")),
    st.tuples(st.just("requeue"), st.integers(0, 20)),
    st.tuples(st.just("drop"), st.integers(0, 20)),
    st.tuples(st.just("torn")),
), max_size=30)


def _check_index(store: FlowStore) -> None:
    for status in _STATUSES:
        scanned = [r.record_id for r in store.records()
                   if r.labels.scan_ticket and r.labels.scan_ticket.status.value == status]
        assert [r.record_id for r in store.query(status)] == scanned


@settings(deadline=None, max_examples=60)
@given(_index_ops)
def test_query_matches_a_scan_of_every_record_property(tmp_path_factory, ops):
    root = tmp_path_factory.mktemp("index")
    engines = SimulatedEngineSet()
    patch = pytest.MonkeyPatch()  # hypothesis runs this body once per example
    patch.setattr(labels_module, "ENGINE_SIZE_CAP", 2)
    store = FlowStore(root)
    try:
        for op, *args in ops:
            ids = sorted(store._docs)
            if op == "put":
                ticket, body = args
                sha1 = store.put_blob(body) if body is not None else None
                record = _ticketed() if ticket else FlowRecord()
                record.body_sha1 = sha1
                store.put_record(record)
            elif op == "submit":
                submit_worker_step(store, engines)
            elif op == "fetch":
                fetch_worker_step(store, engines)
            elif op in ("requeue", "drop") and ids:
                rid = ids[args[0] % len(ids)]
                labels = store.get_record(rid).labels
                ticket = labels.scan_ticket
                if op == "drop":
                    labels.scan_ticket = None
                elif ticket and ticket.status in (TicketStatus.SCAN_FINISHED,
                                                  TicketStatus.ERROR):
                    ticket.requeue()
                store.update_record(rid, labels=labels)
            elif op == "torn":
                store.close()
                with open(root / "records.log", "a", encoding="utf-8") as fh:
                    fh.write('{"record_id": 1, "labels": {"scan_ticket": ')
                store = FlowStore(root)
            _check_index(store)
    finally:
        store.close()
        patch.undo()
    with FlowStore(root, writable=False) as reopened:
        _check_index(reopened)
