"""Verdict sources: URL hash blacklist, byte signatures, multi-engine scans.

Three independent detectors contribute to a record's LabelSet:

* a URL blacklist of full SHA-256 expression hashes,
* a wildcard byte-signature scanner over decoded bodies,
* an asynchronous multi-engine aggregator driven by two worker steps
  (submit and fetch) against a deterministic in-process engine set.

Ground truth is derived only from finished multi-engine reports.
"""

from __future__ import annotations

import enum
import hashlib
import io
import json
import re
from collections.abc import Set
from dataclasses import dataclass, field
from urllib.parse import unquote, urlsplit

from .fixtures import FixtureFormatError, fixture_lines

GROUND_TRUTH_THRESHOLD = 10
SUBMIT_CAPACITY = 4
ENGINE_COUNT = 55
ENGINE_SIZE_CAP = 32 * 1024 * 1024

ENGINE_NAMES = tuple(f"engine-{i:02d}" for i in range(1, ENGINE_COUNT + 1))


class ThreatType(enum.Enum):
    MALWARE = "MALWARE"
    SOCIAL_ENGINEERING = "SOCIAL_ENGINEERING"
    UNWANTED_SOFTWARE = "UNWANTED_SOFTWARE"
    POTENTIALLY_HARMFUL_APPLICATIONS = "POTENTIALLY_HARMFUL_APPLICATIONS"
    THREATTYPE_UNSPECIFIED = "THREATTYPE_UNSPECIFIED"
    NONE = "NONE"


# most severe first; lookup returns the first confirmed category
BLACKLIST_PRIORITY = (
    ThreatType.MALWARE,
    ThreatType.UNWANTED_SOFTWARE,
    ThreatType.SOCIAL_ENGINEERING,
    ThreatType.POTENTIALLY_HARMFUL_APPLICATIONS,
    ThreatType.THREATTYPE_UNSPECIFIED,
)


class UrlError(ValueError):
    pass


class TicketStateError(RuntimeError):
    pass


class EngineError(RuntimeError):
    pass


class EngineSizeError(EngineError):
    pass


# ---------------------------------------------------------------------------
# URL canonicalization

_CTRL_STRIP = str.maketrans("", "", "\t\r\n")


def _remove_dot_segments(path: str) -> str:
    out: list[str] = []
    for seg in path.split("/"):
        if seg == ".":
            continue
        if seg == "..":
            if out:
                out.pop()
            continue
        out.append(seg)
    result = "/" + "/".join(s for s in out if s)
    if path.endswith(("/", "/.", "/..")) and not result.endswith("/"):
        result += "/"
    return result


def _unquote_repeated(text: str) -> str:
    for _ in range(10):
        decoded = unquote(text)
        if decoded == text:
            return text
        text = decoded
    return text


def _escape_minimal(text: str) -> str:
    out = []
    for byte in text.encode("utf-8", "surrogatepass"):
        if byte <= 0x20 or byte >= 0x7F or byte in (0x23, 0x25):  # space, ctrl, '#', '%'
            out.append(f"%{byte:02X}")
        else:
            out.append(chr(byte))
    return "".join(out)


def canonicalize_url(url: str) -> str:
    """Normalize an absolute URL for blacklist hashing.

    Lowercases scheme and host, removes default ports and the fragment,
    percent-decodes to a fixed point, resolves dot segments, collapses
    duplicate slashes, then re-escapes the minimal unsafe set.
    """
    url = url.strip().translate(_CTRL_STRIP)
    url = url.split("#", 1)[0]
    try:
        parts = urlsplit(url)
    except ValueError as exc:
        raise UrlError(f"unparsable URL {url!r}: {exc}") from None
    scheme = parts.scheme.lower()
    if scheme not in ("http", "https") or not parts.netloc:
        raise UrlError(f"not an absolute http(s) URL: {url!r}")

    host = _unquote_repeated(parts.hostname or "").lower()
    host = re.sub(r"\.{2,}", ".", host).strip(".")
    if not host:
        raise UrlError(f"empty host in {url!r}")
    try:
        port = parts.port
    except ValueError:
        raise UrlError(f"bad port in {url!r}") from None
    default = 80 if scheme == "http" else 443
    netloc = host if port in (None, default) else f"{host}:{port}"

    path = _unquote_repeated(parts.path) or "/"
    path = _remove_dot_segments(path)
    path = re.sub(r"/{2,}", "/", path)

    canon = f"{scheme}://{netloc}{_escape_minimal(path)}"
    if parts.query:
        canon += "?" + _escape_minimal(_unquote_repeated(parts.query))
    return canon


def url_expressions(url: str) -> list[str]:
    """Host-suffix x path-prefix expressions hashed for blacklist lookup.

    Hosts: the exact host plus up to four parent suffixes (never fewer
    than two components, IPs stay whole).  Paths: the full path with
    query, the full path alone, and up to four leading prefixes ending
    in a slash.  Mirrors the documented Safe Browsing expression set.
    """
    canon = canonicalize_url(url)
    parts = urlsplit(canon)
    host = parts.hostname or ""
    path = parts.path or "/"
    query = parts.query

    hosts = [host]
    if not re.fullmatch(r"[0-9.]+", host):
        components = host.split(".")
        for n in range(min(5, len(components) - 1), 1, -1):
            suffix = ".".join(components[-n:])
            if suffix not in hosts:
                hosts.append(suffix)

    paths = []
    if query:
        paths.append(f"{path}?{query}")
    paths.append(path)
    segments = [s for s in path.split("/") if s]
    prefix = "/"
    for seg in [None] + segments[:3]:
        if seg is not None:
            prefix += seg + "/"
        if prefix not in paths:
            paths.append(prefix)

    return [h + p for h in hosts for p in paths]


def hash_expressions(url: str) -> list[bytes]:
    return [hashlib.sha256(e.encode("utf-8")).digest() for e in url_expressions(url)]


# ---------------------------------------------------------------------------
# blacklist

class UrlBlacklist:
    """Category-keyed sets of full SHA-256 expression hashes.

    A lookup hits only on an exact match of one of the URL's expression
    hashes, so a hash that merely shares a prefix never labels a URL.
    """

    def __init__(self):
        self._full: dict[ThreatType, set[bytes]] = {t: set() for t in BLACKLIST_PRIORITY}

    def add_hash(self, category: ThreatType, digest: bytes) -> None:
        if category not in self._full:
            raise ValueError(f"cannot blacklist under {category}")
        if len(digest) != 32:
            raise ValueError("full hashes must be 32 bytes of SHA-256")
        self._full[category].add(digest)

    def full_hashes(self, category: ThreatType) -> Set[bytes]:
        """The held full-hash set itself, not a copy: a lookup reads it per URL."""
        return self._full[category]

    def __len__(self) -> int:
        return sum(len(s) for s in self._full.values())

    @classmethod
    def from_file(cls, path) -> "UrlBlacklist":
        db = cls()
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in fixture_lines(fh):
                if "\t" not in line:
                    raise FixtureFormatError("expected category<TAB>sha256-hex", lineno)
                cat_name, _, hexhash = line.partition("\t")
                try:
                    category = ThreatType(cat_name.strip())
                except ValueError:
                    raise FixtureFormatError(f"unknown category {cat_name!r}", lineno)
                if category is ThreatType.NONE:
                    raise FixtureFormatError("NONE is not a listable category", lineno)
                hexhash = hexhash.strip()
                if len(hexhash) != 64 or any(c not in "0123456789abcdefABCDEF" for c in hexhash):
                    raise FixtureFormatError(f"bad sha256 hex {hexhash!r}", lineno)
                db.add_hash(category, bytes.fromhex(hexhash))
        return db


def blacklist_lookup(url: str, db: UrlBlacklist) -> ThreatType:
    """Return the highest-priority listed category for a URL, else NONE."""
    digests = hash_expressions(url)
    for category in BLACKLIST_PRIORITY:
        if not db.full_hashes(category).isdisjoint(digests):
            return category
    return ThreatType.NONE


# ---------------------------------------------------------------------------
# signatures

_HEX_DIGITS = set("0123456789abcdefABCDEF")


@dataclass(frozen=True)
class Signature:
    name: str
    # one entry per byte; None is a single-byte wildcard
    tokens: tuple[int | None, ...]

    def regex(self) -> re.Pattern:
        parts = [b"." if t is None else re.escape(bytes([t])) for t in self.tokens]
        return re.compile(b"".join(parts), re.DOTALL)


def _parse_pattern(text: str, lineno: int) -> tuple[int | None, ...]:
    tokens: list[int | None] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "?":
            tokens.append(None)
            i += 1
            continue
        if ch in _HEX_DIGITS:
            if i + 1 >= len(text) or text[i + 1] not in _HEX_DIGITS:
                raise FixtureFormatError(f"dangling hex digit in {text!r}", lineno)
            tokens.append(int(text[i:i + 2], 16))
            i += 2
            continue
        raise FixtureFormatError(f"bad pattern character {ch!r} in {text!r}", lineno)
    if not tokens:
        raise FixtureFormatError("empty signature pattern", lineno)
    if all(t is None for t in tokens):
        raise FixtureFormatError("pattern must contain at least one literal byte", lineno)
    return tuple(tokens)


class SignatureSet:
    """Named byte patterns; each '?' matches exactly one arbitrary byte."""

    def __init__(self, signatures: list[Signature] | None = None):
        self.signatures = list(signatures or [])
        self._compiled = [(sig.name, sig.regex()) for sig in self.signatures]

    def __len__(self) -> int:
        return len(self.signatures)

    def scan(self, data: bytes) -> list[str]:
        """All matching signature names, in load order."""
        return [name for name, rx in self._compiled if rx.search(data) is not None]

    @classmethod
    def from_text(cls, text: str) -> "SignatureSet":
        sigs = []
        for lineno, line in fixture_lines(io.StringIO(text, newline=None)):
            if ":" not in line:
                raise FixtureFormatError("expected name:hexpattern", lineno)
            name, _, pattern = line.partition(":")
            name = name.strip()
            if not name:
                raise FixtureFormatError("empty signature name", lineno)
            sigs.append(Signature(name, _parse_pattern(pattern.strip(), lineno)))
        return cls(sigs)

    @classmethod
    def from_file(cls, path) -> "SignatureSet":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())


# ---------------------------------------------------------------------------
# scan tickets

class TicketStatus(enum.Enum):
    UNSCANNED = "unscanned"
    SCAN_IN_PROGRESS = "scan_in_progress"
    SCAN_FINISHED = "scan_finished"
    ERROR = "error"


_LEGAL_TRANSITIONS = {
    (TicketStatus.UNSCANNED, TicketStatus.SCAN_IN_PROGRESS),
    (TicketStatus.UNSCANNED, TicketStatus.ERROR),
    (TicketStatus.SCAN_IN_PROGRESS, TicketStatus.SCAN_FINISHED),
    (TicketStatus.SCAN_IN_PROGRESS, TicketStatus.ERROR),
}


@dataclass
class ScanTicket:
    """Lifecycle record for one multi-engine scan.

    Transitions are validated; an illegal attempt raises and leaves the
    ticket untouched.  A finished or failed ticket can be re-queued,
    which archives the old report and resets to unscanned.
    """

    status: TicketStatus = TicketStatus.UNSCANNED
    scan_id: str = ""
    detections: int | None = None
    engines_total: int = ENGINE_COUNT
    report: dict[str, str] = field(default_factory=dict)
    archived: list[dict[str, str]] = field(default_factory=list)

    def _check(self, new_status: TicketStatus) -> None:
        if (self.status, new_status) not in _LEGAL_TRANSITIONS:
            raise TicketStateError(
                f"illegal ticket transition {self.status.value} -> {new_status.value}")

    def to_in_progress(self, scan_id: str) -> None:
        self._check(TicketStatus.SCAN_IN_PROGRESS)
        if not scan_id:
            raise TicketStateError("scan_in_progress requires a scan id")
        self.status = TicketStatus.SCAN_IN_PROGRESS
        self.scan_id = scan_id

    def to_finished(self, detections: int, report: dict[str, str] | None = None) -> None:
        self._check(TicketStatus.SCAN_FINISHED)
        if not 0 <= detections <= self.engines_total:
            raise TicketStateError(
                f"detections {detections} outside 0..{self.engines_total}")
        self.status = TicketStatus.SCAN_FINISHED
        self.detections = detections
        self.report = dict(report or {})

    def to_error(self) -> None:
        self._check(TicketStatus.ERROR)
        self.status = TicketStatus.ERROR

    def requeue(self) -> None:
        if self.status not in (TicketStatus.SCAN_FINISHED, TicketStatus.ERROR):
            raise TicketStateError(
                f"cannot requeue a ticket in state {self.status.value}")
        if self.report:
            self.archived.append(dict(self.report))
        self.status = TicketStatus.UNSCANNED
        self.scan_id = ""
        self.detections = None
        self.report = {}

    def to_doc(self) -> dict:
        return {
            "status": self.status.value,
            "scan_id": self.scan_id,
            "detections": self.detections,
            "engines_total": self.engines_total,
            "report": dict(self.report),
            "archived": [dict(r) for r in self.archived],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "ScanTicket":
        return cls(
            status=TicketStatus(doc["status"]),
            scan_id=doc.get("scan_id", ""),
            detections=doc.get("detections"),
            engines_total=doc.get("engines_total", ENGINE_COUNT),
            report=dict(doc.get("report", {})),
            archived=[dict(r) for r in doc.get("archived", [])],
        )


# ---------------------------------------------------------------------------
# label set and fast verdicts

@dataclass
class FastVerdict:
    blacklist: ThreatType = ThreatType.NONE
    signature_hits: list[str] = field(default_factory=list)

    @property
    def is_malware(self) -> bool:
        return self.blacklist is ThreatType.MALWARE or bool(self.signature_hits)


@dataclass
class LabelSet:
    blacklist: ThreatType = ThreatType.NONE
    signature_hits: list[str] = field(default_factory=list)
    scan_ticket: ScanTicket | None = None
    ground_truth: bool | None = None

    def validate(self) -> None:
        if (self.scan_ticket is not None
                and not FastVerdict(self.blacklist, self.signature_hits).is_malware):
            raise ValueError(
                "scan ticket requires a fast-source detection "
                "(blacklist MALWARE or a signature hit)")

    def apply_verdict(self, verdict: FastVerdict) -> bool:
        """Take the verdict's blacklist and hits, ticket a new detection; True if applied.

        A ticketed record's scan decides it, so a clean verdict leaves it as it is.
        """
        if self.scan_ticket is not None and not verdict.is_malware:
            return False
        self.blacklist = verdict.blacklist
        self.signature_hits = list(verdict.signature_hits)
        if self.scan_ticket is None:
            self.scan_ticket = schedule_multiengine(verdict)
        return True

    def to_doc(self) -> dict:
        return {
            "blacklist": self.blacklist.value,
            "signature_hits": list(self.signature_hits),
            "scan_ticket": self.scan_ticket.to_doc() if self.scan_ticket else None,
            "ground_truth": self.ground_truth,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "LabelSet":
        ticket = doc.get("scan_ticket")
        return cls(
            blacklist=ThreatType(doc.get("blacklist", "NONE")),
            signature_hits=list(doc.get("signature_hits", [])),
            scan_ticket=ScanTicket.from_doc(ticket) if ticket else None,
            ground_truth=doc.get("ground_truth"),
        )


def fast_verdict(url: str, decoded: bytes, blacklist: UrlBlacklist | None,
                 sigdb: SignatureSet | None) -> FastVerdict:
    """Blacklist category and signature hits; a URL that cannot be
    canonicalized is listed under NONE, and its content is still scanned."""
    category = ThreatType.NONE
    if blacklist is not None:
        try:
            category = blacklist_lookup(url, blacklist)
        except UrlError:
            pass
    hits = sigdb.scan(decoded) if sigdb is not None else []
    return FastVerdict(category, hits)


def schedule_multiengine(verdict: FastVerdict) -> ScanTicket | None:
    """Ticket only what a fast source already flagged as malware."""
    if verdict.is_malware:
        return ScanTicket()
    return None


def ground_truth(ticket: ScanTicket | None) -> bool | None:
    """Finished scans decide; everything else stays undetermined."""
    if ticket is None or ticket.status is not TicketStatus.SCAN_FINISHED:
        return None
    return (ticket.detections or 0) >= GROUND_TRUTH_THRESHOLD


# ---------------------------------------------------------------------------
# simulated engine set

class SimulatedEngineSet:
    """Deterministic stand-in for a fleet of scan engines.

    Verdicts come from a fixture mapping body digests to detecting
    engine names; unknown digests fall back to a digest-derived count
    below the ground-truth threshold.  Submitting the same body twice
    yields the same scan id, which makes worker steps idempotent.
    """

    def __init__(self, fixture: dict[str, list[str]] | None = None):
        self._fixture: dict[str, list[str]] = {}
        if fixture is not None and not isinstance(fixture, dict):
            raise ValueError("engine fixture must map body digests to engine-name lists")
        for digest, names in (fixture or {}).items():
            if not isinstance(names, list) or any(n not in ENGINE_NAMES for n in names):
                raise ValueError(f"fixture entry {digest!r} must list known engine names, "
                                 f"not {names!r}")
            self._fixture[digest.lower()] = list(names)
        self._pending: dict[str, str] = {}

    @classmethod
    def from_file(cls, path) -> "SimulatedEngineSet":
        with open(path, "r", encoding="utf-8") as fh:
            return cls(json.load(fh))

    def submit(self, data: bytes) -> str:
        if len(data) > ENGINE_SIZE_CAP:
            raise EngineSizeError(
                f"body of {len(data)} bytes exceeds engine cap {ENGINE_SIZE_CAP}")
        digest = hashlib.sha256(data).hexdigest()
        scan_id = "sim-" + digest[:16]
        self._pending[scan_id] = digest
        return scan_id

    def fetch(self, scan_id: str) -> tuple[int, dict[str, str]]:
        digest = self._pending.get(scan_id)
        if digest is None:
            raise EngineError(f"unknown scan id {scan_id!r}")
        detecting = self._fixture.get(digest)
        if detecting is None:
            # synthetic low-signal noise, always under the ground-truth bar
            count = int(digest[:4], 16) % 3
            start = int(digest[:8], 16) % ENGINE_COUNT
            detecting = [ENGINE_NAMES[(start + i) % ENGINE_COUNT] for i in range(count)]
        report = {name: ("malicious" if name in detecting else "clean")
                  for name in ENGINE_NAMES}
        return len(detecting), report


# ---------------------------------------------------------------------------
# worker steps over a FlowStore

def submit_worker_step(store, engines: SimulatedEngineSet) -> int:
    """Move up to SUBMIT_CAPACITY unscanned tickets to scan_in_progress, lowest ids first."""
    records = store.query(TicketStatus.UNSCANNED.value, SUBMIT_CAPACITY)
    for record in records:
        labels = record.labels
        ticket = labels.scan_ticket
        try:
            ticket.to_in_progress(engines.submit(store.content(record)))
        except EngineError:
            ticket.to_error()
        store.update_record(record.record_id, labels=labels)
    return len(records)


def fetch_worker_step(store, engines: SimulatedEngineSet) -> int:
    """Finish in-progress tickets whose reports are ready."""
    records = store.query(TicketStatus.SCAN_IN_PROGRESS.value)
    for record in records:
        labels = record.labels
        ticket = labels.scan_ticket
        try:
            detections, report = engines.fetch(ticket.scan_id)
            ticket.to_finished(min(detections, ticket.engines_total), report)
        except EngineError:
            ticket.to_error()
        labels.ground_truth = ground_truth(ticket)
        store.update_record(record.record_id, labels=labels)
    return len(records)
