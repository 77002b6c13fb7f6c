"""Record/blob store: dedup, durability, locking, query, export."""

import hashlib
import json

import pytest
from hypothesis import given, strategies as st

from websift.flowstore import (
    EMPTY_SHA1,
    BlobCorruptError,
    BlobNotFoundError,
    BlobTooLargeError,
    DanglingBlobError,
    FlowRecord,
    FlowStore,
    QueryError,
    RecordNotFoundError,
    StoreError,
    StoreLockError,
    format_timestamp_ms,
    parse_timestamp_ms,
)
from websift.wire import HttpExchange, HttpRequest, HttpResponse


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
        assert store.put_blob(b"") == EMPTY_SHA1
        assert store.get_blob(EMPTY_SHA1).data == b""


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
        path = store._blob_path(sha1)
        path.write_bytes(b"tampered")
        with pytest.raises(BlobCorruptError):
            store.get_blob(sha1)


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


# --- query ---

def seeded_store(tmp_path):
    store = FlowStore(tmp_path / "q")
    store.put_record(FlowRecord(
        exchange=make_exchange("http://alpha.test/a", 200),
        extra={"wire.status": 200, "wire.note": "clean run"}))
    store.put_record(FlowRecord(
        exchange=make_exchange("http://beta.test/b", 404),
        extra={"wire.status": 404}))
    store.put_record(FlowRecord(extra={"agent.depth": 3}))
    return store


def test_query_eq_on_dotted_extra_key(tmp_path):
    with seeded_store(tmp_path) as store:
        got = store.query([("extra.wire.status", "eq", 404)])
        assert [r.record_id for r in got] == [2]


def test_query_eq_on_nested_document_field(tmp_path):
    with seeded_store(tmp_path) as store:
        got = store.query([("exchange.response.status", "eq", 200)])
        assert [r.record_id for r in got] == [1]


def test_full_dotted_key_takes_precedence_over_nesting(tmp_path):
    with FlowStore(tmp_path / "s") as store:
        # extra legally holds a literal dotted key; the full key must win
        # over any structural descent with the same spelling
        store.put_record(FlowRecord(extra={"a.b": 1}))
        assert len(store.query([("extra.a.b", "eq", 1)])) == 1
        assert len(store.query([("extra.a.b", "eq", 2)])) == 0


def test_query_exists(tmp_path):
    with seeded_store(tmp_path) as store:
        got = store.query([("extra.wire.note", "exists", True)])
        assert [r.record_id for r in got] == [1]
        absent = store.query([("extra.wire.note", "exists", False)])
        assert [r.record_id for r in absent] == [2, 3]
        no_exchange = store.query([("exchange", "exists", False)])
        assert [r.record_id for r in no_exchange] == [3]


def test_query_range(tmp_path):
    with seeded_store(tmp_path) as store:
        got = store.query([("extra.wire.status", "range", (300, 500))])
        assert [r.record_id for r in got] == [2]
        open_low = store.query([("extra.wire.status", "range", (None, 250))])
        assert [r.record_id for r in open_low] == [1]
        open_high = store.query([("extra.wire.status", "range", (100, None))])
        assert [r.record_id for r in open_high] == [1, 2]


def test_query_range_excludes_bools(tmp_path):
    with FlowStore(tmp_path / "s") as store:
        store.put_record(FlowRecord(extra={"t.flag": True}))
        assert store.query([("extra.t.flag", "range", (0, 2))]) == []


def test_query_prefix(tmp_path):
    with seeded_store(tmp_path) as store:
        got = store.query([("exchange.request.url", "prefix", "http://alpha")])
        assert [r.record_id for r in got] == [1]


def test_query_conjunction(tmp_path):
    with seeded_store(tmp_path) as store:
        got = store.query([
            ("exchange", "exists", True),
            ("extra.wire.status", "range", (200, 404)),
            ("exchange.request.url", "prefix", "http://"),
        ])
        assert [r.record_id for r in got] == [1, 2]


@pytest.mark.parametrize("clauses", [
    [("extra.x", "between", 1)],            # unknown op
    [("1bad.path", "eq", 1)],               # malformed path
    [("extra x", "eq", 1)],                 # space in path
    [("extra.x", "range", 5)],              # range needs a pair
    [("extra.x", "eq")],                    # not a 3-tuple
])
def test_query_rejects_malformed_clauses(tmp_path, clauses):
    with FlowStore(tmp_path / "s") as store:
        with pytest.raises(QueryError):
            store.query(clauses)


# --- export / import ---

def test_export_import_round_trip(tmp_path):
    root = tmp_path / "src"
    out = tmp_path / "dump.jsonl"
    with FlowStore(root) as store:
        sha1 = store.put_blob(b"page body")
        store.put_record(FlowRecord(
            exchange=make_exchange(), body_sha1=sha1,
            extra={"wire.status": 200}))
        store.put_record(FlowRecord(extra={"t.a": 2}))
        originals = [r.to_doc() for r in store.records()]
        assert store.export_jsonl(out) == 2

    lines = out.read_text().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["schema"] == "flow-record/1"
    # timestamps render as ISO-8601 UTC in export files
    assert first["exchange"]["started_at"].endswith("Z")

    with FlowStore(tmp_path / "dst") as dst:
        assert dst.import_jsonl(out) == 2
        assert [r.to_doc() for r in dst.records()] == originals
        # ids are preserved, and the sequence continues past them
        assert dst.put_record(FlowRecord()) == 3


def test_export_respects_clauses(tmp_path):
    out = tmp_path / "dump.jsonl"
    with seeded_store(tmp_path) as store:
        assert store.export_jsonl(out, [("extra.wire.status", "eq", 404)]) == 1
    doc = json.loads(out.read_text().splitlines()[0])
    assert doc["record_id"] == 2


def test_import_rejects_bad_lines(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"record_id": 1, "labels": {}}\nnot json\n')
    with FlowStore(tmp_path / "s") as store:
        with pytest.raises(StoreError) as exc:
            store.import_jsonl(bad)
        assert "line 2" in str(exc.value)

    nonpositive = tmp_path / "bad2.jsonl"
    nonpositive.write_text('{"record_id": 0, "labels": {}}\n')
    with FlowStore(tmp_path / "s2") as store:
        with pytest.raises(StoreError):
            store.import_jsonl(nonpositive)


# --- timestamps ---

def test_timestamp_formatting():
    assert format_timestamp_ms(0) == "1970-01-01T00:00:00.000Z"
    assert format_timestamp_ms(1_500_000_000_123) == "2017-07-14T02:40:00.123Z"
    assert parse_timestamp_ms("2017-07-14T02:40:00.123Z") == 1_500_000_000_123
    assert parse_timestamp_ms("2017-07-14T02:40:00.123+00:00") == 1_500_000_000_123


@given(st.integers(min_value=0, max_value=4_102_444_800_000))
def test_timestamp_round_trip(ms):
    assert parse_timestamp_ms(format_timestamp_ms(ms)) == ms


@given(st.binary(max_size=2048))
def test_blob_round_trip_property(tmp_path_factory, data):
    root = tmp_path_factory.mktemp("blobs")
    with FlowStore(root) as store:
        sha1 = store.put_blob(data)
        assert store.get_blob(sha1).data == data
        assert sha1 == hashlib.sha1(data).hexdigest()
