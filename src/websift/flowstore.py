"""Embedded store for flow records plus content-addressed blob storage.

Layout under the store root:

    records.log     append-only JSONL; a record's first line holds the
                    full document, each later line only record_id and
                    the top-level fields that changed
    blobs/pack      append-only blob frames: 20-byte raw SHA-1, 4-byte
                    big-endian length, then the bytes
    records.lock    advisory writer lock

Replay rebuilds all in-memory state from records.log by merging each
line onto its record's current document ({**current, **line}); a full
line therefore replaces the document, so logs of full lines only replay
as they always did.  An update that changes nothing appends nothing.
Replay is strict: only the final line may be torn or unreadable, and a
writable open cuts such a line before appending.  Logs holding partial
lines cannot be read by versions that predate them.  records.log plus
blobs/pack is the store's one format and the data set's interchange
file.  An `index/` directory left by older versions is never read and
may be deleted.

Blobs are indexed in memory (raw digest -> frame offset) from the frame
headers, scanned after the log replay so that every frame a replayed
line names has been scanned.  put_blob only appends; every log line goes
through _append, which first flushes and fsyncs the pack if it holds
unsynced frames, so no line ever names a blob that is not durable.  A
pack tail that does not parse is skipped, and cut by a writable open,
by the same rule as a torn final log line; but if a replayed record names
a blob that the intact frames lack, the pack lost bytes and the open
raises StoreError, leaving the pack uncut.

In memory each record is one frozen JSON document, and documents repeat
the same values: engine names and verdicts, header names and values, an
agent's whole header list.  Every line _merge applies, replayed or
appended, is frozen first by _share_strings: lists become tuples, and
each dict key, string value and textual tuple (one holding only strings
or such tuples) is swapped for the store's own copy of an equal one, so
a store holds one copy of each across all its documents.  Tuples holding
numbers are never shared, since 1, 1.0 and True are equal.  The copies
live in a per-store table, not in sys.intern's, so they are freed when
the store closes: strings from the wire are hostile and interned ones
are immortal on recent CPython.  Records handed out get mutable copies
of the lists and dicts a caller may change.  Nothing written to disk
changes.

_merge also keeps the one index the store has, ticket status -> record
ids, moving a record whenever a line changes its scan ticket's status.
query(status) reads it, so it builds only the records it returns,
whatever the store's size.

One writer owns the store at a time (advisory file lock); readers open
with writable=False and skip the lock.  Bodies are deduplicated by
SHA-1 and referenced from records by digest, never inlined.  Records the
store hands out are built from its documents without checking each
feature value again: every write path validated them first.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path

from .augment import AugmentInfo
from .features import FeatureVector
from .labels import LabelSet
from .wire import HttpExchange

BLOB_CAP = 64 * 1024 * 1024

_FRAME = struct.Struct(">20sI")  # raw SHA-1 digest, byte length

_SHA1_RE = re.compile(r"^[0-9a-f]{40}$")
_EXTRA_KEY_RE = re.compile(r"^[a-z0-9_]+\.[A-Za-z0-9_.\-]+$")

_RECORD_FIELDS = frozenset({"exchange", "body_sha1", "decoded_sha1", "labels",
                           "augment", "features", "extra"})


class StoreError(RuntimeError):
    pass


class StoreLockError(StoreError):
    pass


class BlobNotFoundError(KeyError):
    pass


class BlobCorruptError(StoreError):
    pass


class BlobTooLargeError(ValueError):
    pass


class RecordNotFoundError(KeyError):
    pass


class DanglingBlobError(ValueError):
    pass


@dataclass
class ContentBlob:
    sha1: str
    size: int
    data: bytes


@dataclass
class FlowRecord:
    """One captured exchange with labels, augmentation and features.

    exchange.body is never persisted here; the bytes live in the blob
    store under body_sha1 (raw) and decoded_sha1 (after contentprep).
    extra is an open map for heterogeneous fields; keys must carry a
    source prefix such as "wire." or "report.".
    """

    record_id: int = 0
    exchange: HttpExchange | None = None
    body_sha1: str | None = None
    decoded_sha1: str | None = None
    labels: LabelSet = field(default_factory=LabelSet)
    augment: AugmentInfo | None = None
    features: FeatureVector | None = None
    extra: dict = field(default_factory=dict)

    def to_doc(self) -> dict:
        return {
            "record_id": self.record_id,
            "exchange": self.exchange.to_doc() if self.exchange else None,
            "body_sha1": self.body_sha1,
            "decoded_sha1": self.decoded_sha1,
            "labels": self.labels.to_doc(),
            "augment": self.augment.to_doc() if self.augment else None,
            "features": self.features.to_doc() if self.features else None,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "FlowRecord":
        """The record a to_doc() document holds; its features keep the stored tuple."""
        features = doc.get("features")
        return cls(
            record_id=doc["record_id"],
            exchange=HttpExchange.from_doc(doc["exchange"]) if doc.get("exchange") else None,
            body_sha1=doc.get("body_sha1"),
            decoded_sha1=doc.get("decoded_sha1"),
            labels=LabelSet.from_doc(doc.get("labels") or {}),
            augment=AugmentInfo.from_doc(doc["augment"]) if doc.get("augment") else None,
            features=FeatureVector.from_doc(features) if features else None,
            # nested values are thawed so a caller's edits never reach the store
            extra={key: _thaw(value) if type(value) in (dict, list, tuple) else value
                   for key, value in (doc.get("extra") or {}).items()},
        )


def _cut_torn_tail(fh, intact: int) -> None:
    """Truncate fh's file to its intact prefix so the next append starts clean."""
    fd = fh.fileno()
    if os.fstat(fd).st_size > intact:
        os.ftruncate(fd, intact)
        os.fsync(fd)


def _share_strings(node: dict, share) -> dict:
    """A frozen copy of the dict node, with its strings and textual tuples shared.

    `share` is a table's setdefault.  Each dict key and string s becomes
    share(s, s), the table's copy of it; each list or tuple becomes a
    tuple, and a textual one (its items all strings or textual tuples)
    becomes the table's copy too.  A tuple holding a number is never
    shared: 1, 1.0 and True are equal and hash alike, so sharing (1,)
    could hand out (1.0,) and change the bytes written.  Dicts are
    rebuilt, so the copy holds none of the caller's containers; any other
    value, a number above all, costs one type test and no call.
    """
    out = {}
    for key, value in node.items():
        kind = type(value)
        if kind is str:
            value = share(value, value)
        elif kind is dict:
            value = _share_strings(value, share)
        elif kind is list or kind is tuple:
            value = _share_items(value, share)[0]
        out[share(key, key)] = value
    return out


def _share_items(items, share) -> tuple[tuple, bool]:
    """(the frozen tuple of items, whether it is textual), as for _share_strings."""
    out = []
    textual = True
    for value in items:
        kind = type(value)
        if kind is str:
            value = share(value, value)
        elif kind is list or kind is tuple:
            value, nested = _share_items(value, share)
            textual = textual and nested
        else:
            if kind is dict:
                value = _share_strings(value, share)
            textual = False
        out.append(value)
    out = tuple(out)
    return (share(out, out) if textual else out), textual


def _thaw(value):
    """A mutable copy of a frozen value: tuples become lists, dicts are copied."""
    kind = type(value)
    if kind is tuple or kind is list:
        return [_thaw(item) for item in value]
    if kind is dict:
        return {key: _thaw(item) for key, item in value.items()}
    return value


def _ticket_status(doc: dict) -> str | None:
    """The status of the document's scan ticket; None when it has none."""
    labels = doc.get("labels")
    ticket = labels.get("scan_ticket") if type(labels) is dict else None
    status = ticket.get("status") if type(ticket) is dict else None
    return status if type(status) is str else None


def _dump_line(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _changed_fields(new: dict, current: dict) -> dict:
    """The fields of new whose JSON encoding differs from current's.

    == is the cheap first test, but it equates 1, 1.0 and True, so the
    fields it finds equal are confirmed by encoding; JSON values are
    self-delimiting, so equal encodings of the dicts of those fields mean
    equal encodings of each.
    """
    same = [name for name, value in new.items() if value == current.get(name)]
    if _dump_line({n: new[n] for n in same}) != _dump_line({n: current.get(n) for n in same}):
        same = [n for n in same if _dump_line(new[n]) == _dump_line(current.get(n))]
    return {name: value for name, value in new.items() if name not in same}


# ---------------------------------------------------------------------------
# the store

class FlowStore:
    def __init__(self, root, writable: bool = True, create: bool = True):
        self.root = Path(root)
        self.writable = writable
        if create:
            self.root.mkdir(parents=True, exist_ok=True)
        elif not self.root.is_dir():
            raise StoreError(f"store root {self.root} does not exist")

        self._lock_fh = None
        if writable:
            lock_path = self.root / "records.lock"
            self._lock_fh = open(lock_path, "a+")
            try:
                fcntl.flock(self._lock_fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                self._lock_fh.close()
                self._lock_fh = None
                raise StoreLockError(
                    f"another writer holds {lock_path}") from None

        self._docs: dict[int, dict] = {}
        self._shared: dict = {}  # one copy of each string and textual tuple the documents hold
        self._by_status: dict[str, set[int]] = {}  # ticket status -> record ids
        self._next_id = 1
        self._log_path = self.root / "records.log"
        self._log_fh = None
        self._blobs: dict[bytes, int] = {}
        self._pack_path = self.root / "blobs" / "pack"
        self._pack_fh = None
        self._pack_size = 0
        self._pack_unsynced = False
        try:
            intact = self._replay_log()
            self._open_pack()
        except StoreError:
            self.close()  # release the writer lock
            raise
        if writable:
            self._log_fh = open(self._log_path, "a", encoding="utf-8")
            _cut_torn_tail(self._log_fh, intact)

    def _replay_log(self) -> int:
        """Merge every line onto its record; return the intact prefix's byte length.

        Only the final line may be torn or unreadable: it is skipped, and
        a bad line anywhere before it raises StoreError.
        """
        if not self._log_path.exists():
            return 0
        intact = 0
        bad = None
        with open(self._log_path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                if bad is not None:
                    raise StoreError(f"{self._log_path} line {bad[0]}: {bad[1]}")
                problem = self._replay_line(raw)
                if problem is None:
                    intact += len(raw)
                else:
                    bad = (lineno, problem)
        return intact

    def _replay_line(self, raw: bytes) -> str | None:
        """Apply one log line; return what is wrong with it, or None once applied."""
        if not raw.endswith(b"\n"):
            return "torn line (no newline)"
        try:
            line = json.loads(raw)
        except ValueError:
            return "line does not decode"
        if not isinstance(line, dict):
            return "line is not a JSON object"
        rid = line.get("record_id")
        if type(rid) is not int or rid <= 0:
            return f"bad record_id {rid!r}"
        if rid not in self._docs and not _RECORD_FIELDS <= line.keys():
            return f"partial line for record {rid}, which has no earlier line"
        self._merge(self._freeze(line))
        self._next_id = max(self._next_id, rid + 1)
        return None

    def _freeze(self, doc: dict) -> dict:
        """doc frozen, with the store's shared copies of its strings and textual tuples."""
        return _share_strings(doc, self._shared.setdefault)

    def _merge(self, line: dict) -> None:
        """The one replay rule: a line's fields replace the record's.

        The line is one _freeze returned, and the record moves to its new
        ticket status in the status index.
        """
        rid = line["record_id"]
        old = self._docs.get(rid, {})
        doc = self._docs[rid] = {**old, **line}
        if "labels" in line:
            before, after = _ticket_status(old), _ticket_status(doc)
            if before != after:
                if before is not None:
                    self._by_status[before].discard(rid)
                if after is not None:
                    self._by_status.setdefault(after, set()).add(rid)

    def _open_pack(self) -> None:
        """Index the pack's intact frames; a writer then cuts the tail after them."""
        if self.writable:
            self._pack_path.parent.mkdir(exist_ok=True)
            self._pack_fh = open(self._pack_path, "a+b")
            # frames a writer that died left in the page cache are not yet durable
            self._pack_unsynced = True
        elif self._pack_path.exists():
            self._pack_fh = open(self._pack_path, "rb")
        else:
            return
        fd = self._pack_fh.fileno()
        size = os.fstat(fd).st_size
        offset = 0
        while size - offset >= _FRAME.size:
            digest, length = _FRAME.unpack(os.pread(fd, _FRAME.size, offset))
            end = offset + _FRAME.size + length
            if length > BLOB_CAP or end > size:
                break
            self._blobs[digest] = offset
            offset = end
        self._pack_size = offset
        if offset == size:
            return
        # A torn tail only ever holds frames that no line names yet: _append
        # syncs the pack before a line names a blob.  So a named blob outside
        # the intact frames means the pack lost bytes.
        for rid, doc in self._docs.items():
            for name in ("body_sha1", "decoded_sha1"):
                sha1 = doc.get(name)
                if sha1 is not None and not self.has_blob(sha1):
                    raise StoreError(f"{self._pack_path} is corrupt after byte {offset}: "
                                     f"record {rid} {name} {sha1} is in no intact frame")
        if self.writable:
            _cut_torn_tail(self._pack_fh, offset)

    def _sync_pack(self) -> None:
        if self._pack_unsynced:
            self._pack_fh.flush()
            os.fsync(self._pack_fh.fileno())
            self._pack_unsynced = False

    def close(self) -> None:
        """Release the lock and files, and drop the documents and indexes held in memory."""
        if self._log_fh is not None:
            self.flush()
            self._log_fh.close()
            self._log_fh = None
        if self._pack_fh is not None:
            self._pack_fh.close()
            self._pack_fh = None
        if self._lock_fh is not None:
            fcntl.flock(self._lock_fh.fileno(), fcntl.LOCK_UN)
            self._lock_fh.close()
            self._lock_fh = None
        self._docs = {}
        self._shared = {}
        self._by_status = {}
        self._blobs = {}

    def __enter__(self) -> "FlowStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def flush(self) -> None:
        """Make every blob and line written so far durable."""
        if self._log_fh is not None:
            self._sync_pack()
            self._log_fh.flush()
            os.fsync(self._log_fh.fileno())

    # --- blobs

    def put_blob(self, data: bytes) -> str:
        """Append data's frame to the pack unless it holds it; return the SHA-1.

        The frame is made durable by the next _append or flush, before
        any line can name it.
        """
        if not self.writable:
            raise StoreError("store opened read-only")
        if len(data) > BLOB_CAP:
            raise BlobTooLargeError(f"blob of {len(data)} bytes exceeds cap {BLOB_CAP}")
        digest = hashlib.sha1(data).digest()
        if digest not in self._blobs:
            self._pack_fh.write(_FRAME.pack(digest, len(data)))
            self._pack_fh.write(data)
            self._blobs[digest] = self._pack_size
            self._pack_size += _FRAME.size + len(data)
            self._pack_unsynced = True
        return digest.hex()

    def has_blob(self, sha1: str) -> bool:
        if not _SHA1_RE.match(sha1 or ""):
            return False
        return bytes.fromhex(sha1) in self._blobs

    def get_blob(self, sha1: str) -> ContentBlob:
        if not _SHA1_RE.match(sha1 or ""):
            raise BlobNotFoundError(sha1)
        offset = self._blobs.get(bytes.fromhex(sha1))
        if offset is None:
            raise BlobNotFoundError(sha1)
        data = self._read_frame(offset)
        actual = hashlib.sha1(data).hexdigest()
        if actual != sha1:
            raise BlobCorruptError(
                f"blob {sha1} reads back with digest {actual}")
        return ContentBlob(sha1=sha1, size=len(data), data=data)

    def content(self, record: FlowRecord) -> bytes:
        """What a record's body holds for scanning: decoded, else raw, else b""."""
        sha1 = record.decoded_sha1 or record.body_sha1
        return self.get_blob(sha1).data if sha1 else b""

    def _read_frame(self, offset: int) -> bytes:
        self._pack_fh.flush()  # a frame put but not yet synced may sit in the buffer
        fd = self._pack_fh.fileno()
        _, length = _FRAME.unpack(os.pread(fd, _FRAME.size, offset))
        if length > BLOB_CAP:
            raise BlobCorruptError(f"pack frame at byte {offset} claims {length} bytes")
        return os.pread(fd, length, offset + _FRAME.size)

    def blob_count(self) -> int:
        """Blobs in the pack."""
        return len(self._blobs)

    # --- records

    def _validate_record(self, record: FlowRecord) -> None:
        if record.exchange is not None:
            record.exchange.validate()
        for name in ("body_sha1", "decoded_sha1"):
            sha1 = getattr(record, name)
            if sha1 is not None:
                if not _SHA1_RE.match(sha1):
                    raise DanglingBlobError(f"{name} {sha1!r} is not a sha1 digest")
                if not self.has_blob(sha1):
                    raise DanglingBlobError(f"{name} {sha1} references no stored blob")
        record.labels.validate()
        if record.augment is not None:
            record.augment.validate()
        for key in record.extra:
            if not isinstance(key, str) or not _EXTRA_KEY_RE.match(key):
                raise ValueError(
                    f"extra key {key!r} must be namespaced like 'source.name'")

    def _append(self, record_id: int, fields: dict) -> None:
        """Write one log line and merge it onto the record's document; fields are frozen."""
        if self._log_fh is None:
            raise StoreError("store opened read-only")
        self._sync_pack()  # every blob a line may name is durable before it
        line = {**fields, "record_id": record_id}
        self._log_fh.write(_dump_line(line) + "\n")
        self._log_fh.flush()
        self._merge(line)

    def put_record(self, record: FlowRecord) -> int:
        if record.record_id not in (0, None):
            raise ValueError("record ids are assigned by the store")
        self._validate_record(record)
        record.record_id = self._next_id
        self._next_id += 1
        self._append(record.record_id, self._freeze(record.to_doc()))
        return record.record_id

    def update_record(self, record_id: int, **fields) -> FlowRecord:
        """Append the fields whose JSON changed; append nothing if none did."""
        record = self.get_record(record_id)
        for name, value in fields.items():
            if name not in _RECORD_FIELDS:
                raise ValueError(f"cannot update field {name!r}")
            setattr(record, name, value)
        self._validate_record(record)
        # frozen first: a tuple never equals the list it was made from
        changed = _changed_fields(self._freeze(record.to_doc()), self._docs[record_id])
        if changed:
            self._append(record_id, changed)
        return record

    def get_record(self, record_id: int) -> FlowRecord:
        doc = self._docs.get(record_id)
        if doc is None:
            raise RecordNotFoundError(record_id)
        return FlowRecord.from_doc(doc)

    def records(self):
        """Every record in id order, built one at a time as the caller steps.

        The ids are a snapshot taken at the first step, so the caller may
        update each record it is handed before it asks for the next.
        """
        for rid in sorted(self._docs):
            yield FlowRecord.from_doc(self._docs[rid])

    def record_count(self) -> int:
        return len(self._docs)

    def ticket_counts(self) -> dict[str, int]:
        """Records per scan-ticket status, from the status index; no empty status."""
        return {status: len(ids) for status, ids in self._by_status.items() if ids}

    # --- query

    def query(self, status: str, limit: int | None = None) -> list[FlowRecord]:
        """The records whose scan ticket has `status`, lowest ids first, at most `limit`.

        Only those records are built: the status index names them.
        """
        ids = sorted(self._by_status.get(status, ()))[:limit]
        return [FlowRecord.from_doc(self._docs[rid]) for rid in ids]
