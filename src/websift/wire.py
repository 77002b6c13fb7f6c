"""ICAP gateway (RFC 3507 subset) and the HTTP/1.1 forward proxy feeding it.

The proxy accepts absolute-URI requests, submits the request to the
gateway via REQMOD, fetches the origin response, submits the pair via
RESPMOD, and relays the (possibly rewritten) response to the client.
The gateway builds one HttpExchange per RESPMOD and hands it to an
emission callback; in enforce mode the verdict it returns can replace the
response body with a warning page.  Everything runs on plain TCP sockets
so the two halves can also interoperate with foreign ICAP peers.

The two servers have one configuration, the one `pipeline.Pipeline`
builds: the proxy always inspects through a gateway and, failing open,
hands an exchange it could not inspect to its `emit_fallback`; the
gateway always emits.  A callback refuses an exchange by raising: the
gateway answers that with 500, the fail-open proxy relays the response
all the same, and counting refusals is the callback's business.  A
request target must be an absolute http or https URL naming a host, the
rule HttpExchange.validate applies too (`_absolute_url`); any other gets
400 before its body is read, inspected or fetched.

One connection server, `_ThreadedServer`, runs the gateway, the proxy
and the synthetic site (`synthweb.SynthWebServer`, which answers one
request per connection).  Both hops into the gateway are persistent.
Each server serves messages on a connection until a message says to
close, the peer closes, or the connection sits idle past the server's
timeout (ICAP_IDLE_TIMEOUT for the gateway, PROXY_TIMEOUT for the proxy,
SITE_TIMEOUT for the site); `stop()`, also before `start()`, ends the
reading side of every open connection, so idle ones close at once.  The
gateway answers a parse error with 400 and closes, since the framing can
no longer be trusted.  The proxy keeps a client connection open after an
HTTP/1.1 request without a `close` token (RFC 9112 §9.3) and closes it
after HTTP/1.0, `Connection: close`, any 400/405/413/501/502 error, or a
failed write.  One reader, `_read_request_body`, takes every request
body the proxy or the site serves, and refuses before any inspection or
fetch: 400 for a body cut short or badly chunked, or framed by both
Transfer-Encoding and Content-Length or by a last transfer coding other
than chunked, 501 for any other transfer coding (RFC 9112 §6.1, §6.3),
and 413 for a body above the server's cap, whose rest is left unread.  A
chunked body is passed on de-chunked, framed by its Content-Length.
Only a closing response carries `Connection: close`.  Every client
socket is a `_Connection`: clients keep idle ones in an IdleConnections
stack (the proxy its gateway connections, each agent its one proxy
connection), and each origin fetch opens one, with `Connection: close`.
A message on a reused connection that gets not one response byte back
(the peer timed it out meanwhile) was never served, so it is resent once
on a fresh connection; HTTP resends only GET and HEAD (RFC 9112 §9.3.1).

Every socket read goes through one reader: an io.BufferedReader over
`_DeadlineReader`, so lines, lengths and peeks are cut from the buffer
and only a refill reads the socket.  Each refill waits at most the
socket's timeout, and each message must arrive whole within
RESPONSE_DEADLINE_TIMEOUTS of them.  A server's deadline counts from the
wait for the message (each request a client sends the proxy, each ICAP
message sent to the gateway); a client's from the send (an origin's
response to the proxy, the gateway's answer to the proxy, the proxy's
answer to an agent).  An origin that misses the deadline gets the client
a 502 flagged `wire.fetch_error`, a client that misses it has its
connection closed.  An HTTP response to HEAD, and any 204 or 304, ends
at its head (RFC 9112 §6.3), whatever its framing headers say.  Interim
1xx heads before a final response are skipped, and a 101 is refused.
Transfer codings are this module's alone, so a stored body carries none:
the proxy drops the client's TE, so an origin's Transfer-Encoding other
than `chunked` alone gets a 502 (RFC 9112 §7.4), as one in a RESPMOD's
res-hdr gets a 500.  Hop-by-hop headers, and those a Connection header
names (RFC 9110 §7.6.1), are not sent on either way but are stored.

Framing is done once for both protocols, and every peer is treated as
hostile.  One writer builds every ICAP and HTTP head, one
(`_write_icap`) lays out every ICAP message's sections and Encapsulated
offsets, and one lenient reader parses every HTTP head.  An ICAP message
is read off a stream in one pass, straight into an IcapMessage or
IcapResponse, whose sections are one token -> bytes dict in Encapsulated
order: its head is parsed once (only CRLF ends a line), the sections its
Encapsulated header declares are read as they arrive and its body is
de-chunked as it is read.  Reading stops at the end of the message, so
bytes that follow it are read as the next message.  A framing fault a
reader finds, ICAP or HTTP, raises the one IcapParseError, which carries
its byte position.  One de-chunker (`_read_chunked`) undoes every
chunked body, ICAP or HTTP, and takes chunk sizes from the
strict `_chunk_size` (RFC 9112 `1*HEXDIG`).  Lengths are ASCII digits
only, and repeated Content-Length lines must agree.  Off a socket no
line may exceed MAX_LINE bytes, no head MAX_HEAD_SIZE, and body data is
read at most READ_PIECE bytes at a time, never in whatever size the
peer declares.  A peer that trickles a message to the gateway has its
connection closed, and a gateway that trickles its answer to the proxy
counts as unreachable.  An ICAP body above MAX_BODY_SIZE is refused; an
origin body above PROXY_MAX_BODY is cut there and flagged
`wire.truncated`.  A gateway keeps at most REQMOD_TABLE_SIZE REQMOD
bodies, MAX_BODY_SIZE bytes in all, waiting for their RESPMOD.
"""

from __future__ import annotations

import io
import socket
import socketserver
import threading
import time
import uuid
from dataclasses import dataclass, field
from urllib.parse import SplitResult, urlsplit

CRLF = b"\r\n"
ICAP_VERSION = "ICAP/1.0"
ICAP_HOST = "gateway"         # the host the proxy names in its ICAP request lines and Host
MAX_BODY_SIZE = 64 * 1024 * 1024  # largest ICAP body section a reader takes
MAX_LINE = 64 * 1024          # longest line read off a socket, line ending included
MAX_HEAD_SIZE = 256 * 1024    # longest start line plus header block read off a socket
READ_PIECE = 64 * 1024        # largest single read of body data off a socket
PROXY_MAX_BODY = MAX_BODY_SIZE  # largest request body the proxy takes, origin body it keeps
PROXY_TIMEOUT = 10.0          # seconds any one read or connect of the proxy may wait
REQMOD_TABLE_SIZE = 1024      # REQMOD bodies a gateway keeps for their RESPMOD
ICAP_IDLE_TIMEOUT = 30.0      # seconds a gateway connection may wait for its next message
ICAP_IDLE_CONNECTIONS = 8     # idle connections an IdleConnections stack keeps for reuse
RESPONSE_DEADLINE_TIMEOUTS = 6  # a message must arrive whole within this many read timeouts
SEEDER_TAGS = ("benign", "malware", "phishing")
AGENT_HEADER = "X-Websift-Agent"    # the agent id the proxy stores with an exchange
SEEDER_HEADER = "X-Websift-Seeder"  # its seeder tag, one of SEEDER_TAGS
VIA = "1.1 websift"           # the Via header the proxy adds to every origin request

_BODY_TOKENS = ("req-body", "res-body", "null-body", "opt-body")
_SECTION_TOKENS = ("req-hdr", "res-hdr") + _BODY_TOKENS

_HOP_BY_HOP = frozenset(
    ["connection", "proxy-connection", "keep-alive", "te", "trailer",
     "transfer-encoding", "upgrade", "proxy-authorization"]
)

WARNING_PAGE = (
    b"<html><head><title>Blocked</title></head><body>"
    b"<h1>Access blocked</h1>"
    b"<p>The requested content was classified as malicious and has been "
    b"withheld by the inspection gateway.</p></body></html>"
)


def _header(headers, name: str) -> str | None:
    """First value of header `name`, matched case-insensitively; None if absent."""
    low = name.lower()
    for k, v in headers:
        if k.lower() == low:
            return v
    return None


class _HeaderLookup:
    def header(self, name: str) -> str | None:
        return _header(self.headers, name)


def _absolute_url(url: str) -> SplitResult:
    """`url` split; ValueError unless it is an absolute http or https URL naming a host."""
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https") or not parts.netloc:
        raise ValueError(f"not an absolute http or https URL: {url!r}")
    return parts


# ---------------------------------------------------------------------------
# core exchange types

@dataclass
class HttpRequest(_HeaderLookup):
    method: str
    url: str
    headers: list[tuple[str, str]] = field(default_factory=list)

    def to_doc(self) -> dict:
        return {"method": self.method, "url": self.url,
                "headers": [[k, v] for k, v in self.headers]}

    @classmethod
    def from_doc(cls, doc: dict) -> "HttpRequest":
        return cls(doc["method"], doc["url"], [tuple(h) for h in doc["headers"]])


@dataclass
class HttpResponse(_HeaderLookup):
    status: int
    reason: str = ""
    headers: list[tuple[str, str]] = field(default_factory=list)

    def to_doc(self) -> dict:
        return {"status": self.status, "reason": self.reason,
                "headers": [[k, v] for k, v in self.headers]}

    @classmethod
    def from_doc(cls, doc: dict) -> "HttpResponse":
        return cls(doc["status"], doc.get("reason", ""),
                   [tuple(h) for h in doc["headers"]])


@dataclass
class HttpExchange:
    """One proxied request/response pair with capture metadata.

    `body` holds the entity bytes as delivered by the server (content
    codings intact, transfer framing removed); started_at is a UTC epoch
    timestamp in milliseconds.
    """

    request: HttpRequest
    response: HttpResponse
    body: bytes = b""
    started_at: int = 0
    agent_id: str = ""
    seeder_tag: str = "benign"

    def validate(self) -> None:
        _absolute_url(self.request.url)
        if self.seeder_tag not in SEEDER_TAGS:
            raise ValueError(f"unknown seeder tag {self.seeder_tag!r}")
        if self.started_at < 0:
            raise ValueError("started_at must be a non-negative epoch timestamp")

    def to_doc(self) -> dict:
        # body is stored out of band, referenced by digest
        return {
            "request": self.request.to_doc(),
            "response": self.response.to_doc(),
            "started_at": self.started_at,
            "agent_id": self.agent_id,
            "seeder_tag": self.seeder_tag,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "HttpExchange":
        return cls(
            request=HttpRequest.from_doc(doc["request"]),
            response=HttpResponse.from_doc(doc["response"]),
            body=b"",
            started_at=doc["started_at"],
            agent_id=doc.get("agent_id", ""),
            seeder_tag=doc.get("seeder_tag", "benign"),
        )


@dataclass
class EmittedExchange:
    """What the gateway hands to the pipeline for each proxied exchange."""

    exchange: HttpExchange
    markers: dict[str, str] = field(default_factory=dict)
    verdict: object | None = None  # FastVerdict, once the emit callback decided it
    request_body: bytes | None = None


# ---------------------------------------------------------------------------
# message model and its one parse error

class IcapParseError(ValueError):
    """Bad framing, ICAP or HTTP; `position` is the byte offset it was found at."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at byte {position})")
        self.position = position


@dataclass
class IcapMessage(_HeaderLookup):
    method: str
    uri: str
    version: str
    headers: list[tuple[str, str]]
    # token -> bytes in Encapsulated order; a *-body section holds the de-chunked payload
    sections: dict[str, bytes]


@dataclass
class IcapResponse(_HeaderLookup):
    status: int
    reason: str
    headers: list[tuple[str, str]] = field(default_factory=list)
    sections: dict[str, bytes] = field(default_factory=dict)  # as IcapMessage.sections

    def to_bytes(self) -> bytes:
        return _write_icap(f"{ICAP_VERSION} {self.status} {self.reason}", self.headers,
                           self.sections)


# ---------------------------------------------------------------------------
# framing shared by ICAP and HTTP

def _write_head(start_line: str, headers) -> bytes:
    """A start line, one `name: value` line per header and the blank line."""
    return "".join([start_line, "\r\n", *[f"{k}: {v}\r\n" for k, v in headers],
                    "\r\n"]).encode("latin-1")


def _write_icap(start_line: str, headers, sections) -> bytes:
    """An ICAP message: its head, Encapsulated header last, then its sections.

    `sections` maps tokens to bytes in order: header sections, then at
    most one *-body section other than null-body, whose bytes are
    chunked.  Without a body section the message ends at `null-body`.
    """
    offsets: list[str] = []
    parts: list[bytes] = []
    pos = 0
    for token, data in sections.items():
        offsets.append(f"{token}={pos}")
        if token in _BODY_TOKENS:
            data = _chunk_encode(data)
        parts.append(data)
        pos += len(data)
    if next(reversed(sections), None) not in _BODY_TOKENS:
        offsets.append(f"null-body={pos}")
    headers = [*headers, ("Encapsulated", ", ".join(offsets))]
    return _write_head(start_line, headers) + b"".join(parts)


def _split_head(head: bytes) -> tuple[bytes, list[tuple[str, str]]]:
    """(start line, headers) of an HTTP head, leniently.

    Lines may end in CRLF or a bare LF, blank lines are skipped and a line
    without a colon becomes a header with an empty value.
    """
    lines = head.split(b"\n")
    headers = []
    for line in lines[1:]:
        if line and line != b"\r":
            name, _, value = line.partition(b":")
            headers.append((name.decode("latin-1").strip(), value.decode("latin-1").strip()))
    return lines[0].rstrip(b"\r"), headers


def _connection_options(headers) -> set[str]:
    """The lowercased tokens of every Connection header (RFC 9110 §7.6.1)."""
    return {t.strip().lower() for k, v in headers if k.lower() == "connection"
            for t in v.split(",")}


def _hop_by_hop(headers) -> set[str]:
    """The fixed set and whatever Connection names, never the framing Content-Length."""
    return _HOP_BY_HOP | (_connection_options(headers) - {"content-length"})


def _says_close(headers) -> bool:
    """Whether a Connection header carries the `close` token (RFC 9112 §9.6)."""
    return "close" in _connection_options(headers)


def _digits(value: str) -> int | None:
    """`value` as a number when it is ASCII decimal digits only, else None.

    str.isdigit() alone is also true for "²", which int() then refuses.
    """
    return int(value) if value.isascii() and value.isdigit() else None


def _content_length(headers) -> int | None:
    """The declared Content-Length, None when absent; ValueError when bad.

    Repeated Content-Length lines must all declare one length (RFC 9112 §6.3).
    """
    lengths = set()
    for k, v in headers:
        if k.lower() == "content-length":
            length = _digits(v)
            if length is None:
                raise ValueError(f"bad Content-Length {v!r}")
            lengths.add(length)
    if len(lengths) > 1:
        raise ValueError(f"differing Content-Length values {sorted(lengths)}")
    return lengths.pop() if lengths else None


def _coding_list(headers, name: str) -> list[str]:
    """The coding tokens of every `name` header in a pair list, in order, parameters dropped."""
    low = name.lower()
    tokens = [part.split(";", 1)[0].strip().lower()
              for key, value in headers if key.lower() == low for part in value.split(",")]
    return [tok for tok in tokens if tok]


def _is_chunked(headers) -> bool:
    """Whether a response body is chunked; ValueError for any other transfer coding."""
    codings = _coding_list(headers, "Transfer-Encoding")
    if codings == ["chunked"]:
        return True
    if _header(headers, "Transfer-Encoding") is None:
        return False
    raise ValueError(f"transfer codings {codings} not offered; only chunked is read")


def _with_length(headers, length: int) -> list[tuple[str, str]]:
    """`headers` with their framing (Transfer-Encoding, Content-Length) replaced by `length`."""
    return [(k, v) for k, v in headers
            if k.lower() not in ("transfer-encoding", "content-length")
            ] + [("Content-Length", str(length))]


def _chunk_encode(data: bytes) -> bytes:
    if not data:
        return b"0" + CRLF + CRLF
    return (b"%x" % len(data)) + CRLF + data + CRLF + b"0" + CRLF + CRLF


_HEXDIGITS = frozenset(b"0123456789abcdefABCDEF")


def _chunk_size(line: bytes) -> int:
    """Size from a chunk-size line without its line ending.

    RFC 9112 §7.1: `1*HEXDIG`, then optionally BWS and `;` extensions,
    which are ignored.  Raises ValueError on anything else; `int(x, 16)`
    alone would also take "0x2", "+2", "2_0", " 2 " and "-0".
    """
    token, semi, _ = line.partition(b";")
    if semi:
        token = token.rstrip(b" \t")
    if not token or not _HEXDIGITS.issuperset(token):
        raise ValueError(f"bad chunk size {token!r}")
    return int(token, 16)


def _parse_encapsulated(value: str, position: int) -> list[tuple[str, int]]:
    entries: list[tuple[str, int]] = []
    for chunk in value.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, _, num = chunk.partition("=")
        name, offset = name.strip(), _digits(num.strip())
        if name not in _SECTION_TOKENS or offset is None:
            raise IcapParseError(f"bad Encapsulated entry {chunk!r}", position)
        entries.append((name, offset))
    if not entries:
        raise IcapParseError("empty Encapsulated header", position)
    if entries[0][1] != 0:
        raise IcapParseError("first encapsulated offset must be 0", position)
    offsets = [off for _, off in entries]
    if any(b <= a for a, b in zip(offsets, offsets[1:])):
        raise IcapParseError("encapsulated offsets not strictly increasing", position)
    body_tokens = [t for t, _ in entries if t in _BODY_TOKENS]
    if len(body_tokens) != 1 or entries[-1][0] not in _BODY_TOKENS:
        raise IcapParseError("exactly one body token must come last", position)
    if offsets[-1] > MAX_BODY_SIZE:
        raise IcapParseError(f"body offset {offsets[-1]} exceeds cap", position)
    return entries


def _read_icap(rfile, start_line):
    """Read one ICAP message in one pass: (start-line fields, headers, sections).

    `rfile` is a binary reader at the start of a message, and is left at
    the end of it: whatever follows is the next message.  The head is
    read under the MAX_LINE and MAX_HEAD_SIZE caps, and only CRLF ends its
    lines; `start_line` parses the first.  The sections Encapsulated
    declares are read as they come, a *-body section de-chunked, up to
    MAX_BODY_SIZE.  Error positions are byte offsets into the message.
    """
    head = _read_head(rfile)
    if head is None:
        raise IcapParseError("no ICAP message", 0)
    if not head.endswith(CRLF + CRLF):
        raise IcapParseError("ICAP head line not ended by CRLF", len(head))
    lines = head[:-4].split(CRLF)
    fields = start_line(lines[0])
    headers: list[tuple[str, str]] = []
    entries: list[tuple[str, int]] = []
    pos = len(lines[0]) + 2
    for line in lines[1:]:
        name, colon, value = line.partition(b":")
        if not colon:
            raise IcapParseError(f"malformed header line {line!r}", pos)
        headers.append((name.decode("latin-1").strip(), value.decode("latin-1").strip()))
        if not entries and name.lower() == b"encapsulated":
            if b"\n" in value:  # a reader that ends lines at LF would frame it otherwise
                raise IcapParseError("bare LF in Encapsulated header", pos)
            entries = _parse_encapsulated(headers[-1][1], pos)
        pos += len(line) + 2
    pos = len(head)
    # fields[0] is a request's method; a response's is its status
    if not entries and fields[0] in ("REQMOD", "RESPMOD"):
        raise IcapParseError(f"{fields[0]} requires an Encapsulated header", pos)
    sections: dict[str, bytes] = {}
    for (token, off), (_, next_off) in zip(entries, entries[1:]):
        data = sections[token] = _read_upto(rfile, next_off - off)
        pos += len(data)
        if len(data) < next_off - off:
            raise IcapParseError("connection closed inside payload", pos)
    body = entries[-1][0] if entries else None
    if body not in (None, "null-body"):
        sections[body], capped = _read_chunked(rfile, MAX_BODY_SIZE, pos)
        if capped:
            raise IcapParseError("chunked body exceeds cap", pos)
    return fields, headers, sections


def _request_line(line: bytes) -> tuple[str, str, str]:
    parts = line.split(b" ")
    if len(parts) != 3 or not parts[2].startswith(b"ICAP/") or not parts[0]:
        raise IcapParseError(f"malformed request line {line!r}", 0)
    return tuple(p.decode("latin-1") for p in parts)


def _status_line(line: bytes) -> tuple[int, str]:
    parts = line.split(b" ", 2)
    if len(parts) < 2 or not parts[0].startswith(b"ICAP/") or not parts[1].isdigit():
        raise IcapParseError(f"malformed status line {line!r}", 0)
    return int(parts[1]), parts[2].decode("latin-1") if len(parts) > 2 else ""


def parse_icap(rfile) -> IcapMessage:
    """Parse the next ICAP request off a binary reader."""
    (method, uri, version), headers, sections = _read_icap(rfile, _request_line)
    return IcapMessage(method, uri, version, headers, sections)


def parse_icap_response(rfile) -> IcapResponse:
    """Parse the next ICAP response off a binary reader."""
    (status, reason), headers, sections = _read_icap(rfile, _status_line)
    return IcapResponse(status, reason, headers, sections)


# ---------------------------------------------------------------------------
# encapsulation of exchanges

def _serialize_request_head(req: HttpRequest) -> bytes:
    return _write_head(f"{req.method} {req.url} HTTP/1.1", req.headers)


def _serialize_response_head(resp: HttpResponse) -> bytes:
    return _write_head(f"HTTP/1.1 {resp.status} {resp.reason or 'OK'}", resp.headers)


def _metadata_headers(exchange: HttpExchange, exchange_id: str,
                      markers: dict[str, str]) -> list[tuple[str, str]]:
    out = [
        ("X-Exchange-Id", exchange_id),
        ("X-Exchange-Started", str(exchange.started_at)),
        ("X-Exchange-Agent", exchange.agent_id),
        ("X-Exchange-Seeder", exchange.seeder_tag),
    ]
    for key in sorted(markers):
        out.append(("X-Exchange-Marker", f"{key}={markers[key]}"))
    return out


def encapsulate(exchange: HttpExchange, exchange_id: str = "",
                markers: dict[str, str] | None = None) -> bytes:
    """Build a RESPMOD request carrying the full exchange."""
    exchange.validate()
    sections = {"req-hdr": _serialize_request_head(exchange.request),
                "res-hdr": _serialize_response_head(exchange.response)}
    if exchange.body:
        sections["res-body"] = exchange.body
    headers = [("Host", ICAP_HOST), *_metadata_headers(exchange, exchange_id, markers or {})]
    return _write_icap(f"RESPMOD icap://{ICAP_HOST}/respmod {ICAP_VERSION}", headers, sections)


def build_reqmod(request: HttpRequest, body: bytes = b"", exchange_id: str = "") -> bytes:
    """Build a REQMOD request for the client-side half of an exchange."""
    sections = {"req-hdr": _serialize_request_head(request)}
    if body:
        sections["req-body"] = body
    return _write_icap(f"REQMOD icap://{ICAP_HOST}/reqmod {ICAP_VERSION}",
                       [("Host", ICAP_HOST), ("X-Exchange-Id", exchange_id)], sections)


def _parse_http_request_head(raw: bytes) -> tuple[HttpRequest, str]:
    """(request, protocol version from the request line)."""
    start, headers = _split_head(raw)
    parts = start.split(b" ")
    if len(parts) != 3:
        raise ValueError(f"malformed request line {start!r}")
    return (HttpRequest(parts[0].decode("latin-1"), parts[1].decode("latin-1"), headers),
            parts[2].decode("latin-1"))


def _parse_http_response_head(raw: bytes) -> HttpResponse:
    start, headers = _split_head(raw)
    parts = start.split(b" ", 2)
    if len(parts) < 2 or not parts[1].isdigit():  # bytes.isdigit() is ASCII-only
        raise ValueError(f"malformed status line {start!r}")
    return HttpResponse(int(parts[1]), parts[2].decode("latin-1") if len(parts) > 2 else "",
                        headers)


def exchange_from_respmod(msg: IcapMessage) -> tuple[HttpExchange, str, dict[str, str]]:
    """Rebuild (exchange, exchange_id, markers) from a parsed RESPMOD."""
    if "req-hdr" not in msg.sections or "res-hdr" not in msg.sections:
        raise ValueError("RESPMOD must carry req-hdr and res-hdr sections")
    request, _ = _parse_http_request_head(msg.sections["req-hdr"])
    response = _parse_http_response_head(msg.sections["res-hdr"])
    body = msg.sections.get("res-body", b"")
    # ICAP framing de-chunked the body; any other transfer coding is a ValueError
    if "res-body" in msg.sections and _is_chunked(response.headers):
        response.headers = _with_length(response.headers, len(body))
    agent = msg.header("X-Exchange-Agent") or ""
    seeder = msg.header("X-Exchange-Seeder") or "benign"
    markers: dict[str, str] = {}
    for k, v in msg.headers:
        if k.lower() == "x-exchange-marker" and "=" in v:
            key, _, val = v.partition("=")
            markers[key.strip()] = val.strip()
    exchange = HttpExchange(
        request=request,
        response=response,
        body=body,
        started_at=_digits(msg.header("X-Exchange-Started") or "") or 0,
        agent_id=agent,
        seeder_tag=seeder if seeder in SEEDER_TAGS else "benign",
    )
    return exchange, msg.header("X-Exchange-Id") or "", markers


# ---------------------------------------------------------------------------
# gateway service logic

def _rewrite_blocked(response: HttpResponse) -> HttpResponse:
    kept = [(k, v) for k, v in response.headers
            if k.lower() not in ("content-encoding", "content-type")]
    kept.append(("Content-Type", "text/html; charset=utf-8"))
    kept = _with_length(kept, len(WARNING_PAGE))
    return HttpResponse(response.status, response.reason,
                        kept + [("X-Websift-Blocked", "malware")])


def serve_icap(msg: IcapMessage, mode: str, emit, istag: str,
               reqmod_bodies: dict[str, bytes]) -> IcapResponse:
    """Dispatch one parsed ICAP message; returns the response to send.

    `emit` receives an EmittedExchange for every RESPMOD and returns its
    verdict or None; one that raises gets a 500.  A REQMOD body waits in
    `reqmod_bodies`, by exchange id, for its RESPMOD.  mode (IcapGateway
    checks it): "collect" never modifies; "enforce" replaces the body of
    responses whose verdict is malware.
    """
    base_headers = [("ISTag", istag)]

    if msg.method == "OPTIONS":
        return IcapResponse(200, "OK", [
            ("Methods", "RESPMOD, REQMOD"),
            ("ISTag", istag),
            ("Allow", "204"),
            ("Preview", "0"),
            ("Max-Connections", "64"),
        ])

    if msg.method == "REQMOD":
        body = msg.sections.get("req-body")
        exchange_id = msg.header("X-Exchange-Id")
        if body is not None and exchange_id:
            reqmod_bodies[exchange_id] = body
        return IcapResponse(204, "No modifications", base_headers)

    if msg.method == "RESPMOD":
        try:
            exchange, exchange_id, markers = exchange_from_respmod(msg)
        except ValueError:
            return IcapResponse(500, "Bad encapsulated HTTP", base_headers)
        # no body is ever kept under the empty id, so an exchange without one finds none
        emitted = EmittedExchange(exchange, markers, None, reqmod_bodies.pop(exchange_id, None))
        try:
            verdict = emit(emitted)
        except Exception:  # pipeline refusal: the emit callback counts it, the wire goes on
            return IcapResponse(500, "Pipeline refused exchange", base_headers)
        if mode == "enforce" and getattr(verdict, "is_malware", False):
            return IcapResponse(200, "OK", base_headers, {
                "res-hdr": _serialize_response_head(_rewrite_blocked(exchange.response)),
                "res-body": WARNING_PAGE,
            })
        return IcapResponse(204, "No modifications", base_headers)

    return IcapResponse(405, "Method not allowed", base_headers)


# ---------------------------------------------------------------------------
# socket framing helpers

class _DeadlineReader(io.RawIOBase):
    """A socket's raw reader, for io.BufferedReader, with one deadline per message.

    expect() starts a message: it must arrive whole within
    RESPONSE_DEADLINE_TIMEOUTS times the socket's timeout from then.  The
    reader is built armed.  Each readinto is one recv_into that waits at
    most what is left of the deadline, so a peer that trickles bytes cannot
    stretch a message past it; past it, a read raises TimeoutError.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self.expect()

    def readable(self) -> bool:
        return True

    def expect(self) -> None:
        self._timeout = self._sock.gettimeout()
        self._allowed = RESPONSE_DEADLINE_TIMEOUTS * self._timeout
        self._deadline = time.monotonic() + self._allowed

    def readinto(self, buf) -> int:
        """One recv_into `buf`: the bytes read, 0 at EOF.

        A wait that may not last a whole timeout runs with the socket's
        timeout lowered to what is left, and puts it back after, since the
        connection may carry further messages.
        """
        left = self._deadline - time.monotonic()
        lowered = 0 < left < self._timeout
        try:
            if left <= 0:
                raise TimeoutError
            if lowered:
                self._sock.settimeout(left)
            return self._sock.recv_into(buf)
        except TimeoutError:
            if time.monotonic() < self._deadline:
                raise  # one read waited its whole timeout
            raise TimeoutError(f"message not complete within {self._allowed:g} s") from None
        finally:
            if lowered:
                self._sock.settimeout(self._timeout)


def _read_line(rfile, pos: int) -> bytes:
    """One line of at most MAX_LINE bytes, b"" at EOF; IcapParseError if longer."""
    line = rfile.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise IcapParseError(f"line longer than {MAX_LINE} bytes", pos)
    return line


def _read_head(rfile) -> bytes | None:
    """Read a start line and its header block up to the blank line ending it.

    Lines may end in CRLF or LF.  Returns None on EOF before the first byte.
    """
    head = bytearray()
    while True:
        line = _read_line(rfile, len(head))
        if not line:
            if not head:
                return None
            raise IcapParseError("connection closed inside head", len(head))
        head += line
        if len(head) > MAX_HEAD_SIZE:
            raise IcapParseError(f"head longer than {MAX_HEAD_SIZE} bytes", len(head))
        if line in (CRLF, b"\n") and len(head) > len(line):  # a blank first line is no end
            return bytes(head)


def _read_upto(rfile, n: int) -> bytes:
    """`n` bytes, fewer only at EOF, read at most READ_PIECE bytes at a time."""
    pieces = []
    while n > 0:
        piece = rfile.read(min(READ_PIECE, n))
        if not piece:
            break
        pieces.append(piece)
        n -= len(piece)
    return b"".join(pieces)


def _read_chunked(rfile, cap: int, pos: int) -> tuple[bytes, bool]:
    """De-chunk a body as it is read: (data, capped).

    Reading stops once `cap` bytes of data are in hand and the body goes on:
    the rest is left unread and `capped` is True.  What that means is the
    caller's business.  Lines must end in CRLF.  The body starts at byte
    `pos` of its message, and error positions count from there.
    """
    out = bytearray()
    while True:
        line = _read_line(rfile, pos)
        if not line.endswith(CRLF):
            raise IcapParseError("chunk size line cut short", pos)
        try:
            size = _chunk_size(line[:-2])
        except ValueError as exc:
            raise IcapParseError(str(exc), pos) from None
        pos += len(line)
        if size == 0:
            while line != CRLF:  # trailers, up to the blank line
                line = _read_line(rfile, pos)
                if not line.endswith(CRLF):
                    raise IcapParseError("trailer line cut short", pos)
                pos += len(line)
            return bytes(out), False
        take = min(size, cap - len(out))
        data = _read_upto(rfile, take)
        out += data
        pos += len(data)
        if len(data) < take:
            raise IcapParseError("chunk data cut short", pos)
        if take < size:
            return bytes(out), True
        if rfile.read(2) != CRLF:
            raise IcapParseError("missing chunk data terminator", pos)
        pos += 2


class _Refusal(Exception):
    """A request a server answers with an error and closes on; args (status, reason, text)."""


def _read_request_body(rfile, request: HttpRequest, pos: int, cap: int) -> bytes:
    """Read the body of `request`, whose head ends at byte `pos` (RFC 9112 §6.1, §6.3).

    A chunked body is de-chunked, and the request's framing headers are
    replaced by its length.  Raises _Refusal: 400 for a bad, ambiguous or
    cut-short body, 501 for a transfer coding other than chunked alone,
    413 for a body above `cap`, whose rest is left unread.
    """
    try:
        length = _content_length(request.headers)
    except ValueError as exc:
        raise _Refusal(400, "Bad Request", str(exc)) from None
    if request.header("Transfer-Encoding") is None:
        if (length := length or 0) > cap:
            raise _Refusal(413, "Content Too Large", f"request body exceeds {cap} bytes")
        body = _read_upto(rfile, length)
        if len(body) < length:
            # the client ended its side early: no origin is sent a body shorter than declared
            raise _Refusal(400, "Bad Request",
                           f"request body cut short at {len(body)} of {length} bytes")
        return body
    codings = _coding_list(request.headers, "Transfer-Encoding")
    if length is not None or codings[-1:] != ["chunked"]:
        raise _Refusal(400, "Bad Request", "request body length is ambiguous")
    if len(codings) > 1:
        raise _Refusal(501, "Not Implemented", f"transfer codings {codings} not implemented")
    try:
        body, over = _read_chunked(rfile, cap, pos)
    except IcapParseError as exc:
        raise _Refusal(400, "Bad Request", str(exc)) from None
    if over:
        raise _Refusal(413, "Content Too Large", f"request body exceeds {cap} bytes")
    request.headers = _with_length(request.headers, len(body))
    return body


# ---------------------------------------------------------------------------
# connection server and gateway

class _ConnectionHandler(socketserver.BaseRequestHandler):
    """Serves messages on one connection until the server's serve_one says stop.

    Each message's deadline counts from the wait for it.
    """

    def handle(self):
        self.request.settimeout(self.server.conn_timeout)
        rfile = io.BufferedReader(_DeadlineReader(self.request))
        wfile = socketserver._SocketWriter(self.request)  # what StreamRequestHandler writes to
        try:
            while True:
                rfile.raw.expect()
                if not self.server.serve_one(rfile, wfile):
                    return
        except OSError:
            pass  # idle timeout, deadline, peer reset, or stop() shut the reading down


class _ThreadedServer(socketserver.ThreadingTCPServer):
    """One thread per connection, every read bounded by `timeout`.

    The one connection server: the gateway, the proxy and synthweb's site run on it.

    `serve_one(rfile, wfile)` answers one message on a connection and
    returns whether the connection stays open.  The server
    tracks its open connections and their handler threads so that stop()
    can end them: it shuts down their reading side, so a handler waiting
    for the next message sees end of file at once, while one that already
    holds its message still writes the answer; then it joins them for at
    most `timeout` in all.
    (Handler threads are daemons, which server_close() does not join.)
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, serve_one, timeout: float):
        self.serve_one = serve_one
        self.conn_timeout = timeout
        self._open: dict[socket.socket, threading.Thread] = {}
        self._open_lock = threading.Lock()
        self._stopping = False
        self._thread: threading.Thread | None = None
        super().__init__(address, _ConnectionHandler)

    def finish_request(self, request, client_address):
        """Serve one connection on its handler thread, tracked while it is open."""
        with self._open_lock:
            if self._stopping:
                return
            self._open[request] = threading.current_thread()
        try:
            super().finish_request(request, client_address)
        finally:
            with self._open_lock:
                del self._open[request]

    def start(self) -> None:
        self._thread = threading.Thread(target=self.serve_forever,
                                        kwargs={"poll_interval": 0.05}, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop accepting, end the reading of every open connection, join its handler.

        The joins share one deadline, `timeout` from now: a handler still
        busy then (say, on an origin that trickles its answer a byte at a
        time) is left behind as a daemon thread rather than hang stop().
        """
        if self._thread is not None:  # shutdown() waits for serve_forever to return
            self.shutdown()
            self._thread.join(timeout=5)
        with self._open_lock:
            self._stopping = True
            still_open = list(self._open.items())
        for sock, _ in still_open:
            try:
                sock.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        deadline = time.monotonic() + self.conn_timeout
        for _, handler in still_open:
            handler.join(max(0.0, deadline - time.monotonic()))
        self.server_close()


class _ReqmodBodies(dict):
    """REQMOD bodies waiting for their RESPMOD, by exchange id.

    A RESPMOD may never come (a fail-open proxy gives up on the gateway),
    so beyond REQMOD_TABLE_SIZE entries or MAX_BODY_SIZE bytes in all the
    oldest are dropped.
    """

    def __init__(self):
        super().__init__()
        self._lock = threading.Lock()

    def __setitem__(self, key: str, body: bytes) -> None:
        with self._lock:
            super().__setitem__(key, body)
            held = sum(map(len, self.values()))
            while len(self) > REQMOD_TABLE_SIZE or held > MAX_BODY_SIZE:
                held -= len(super().pop(next(iter(self))))

    def pop(self, key: str, default=None):
        with self._lock:
            return super().pop(key, default)


class IcapGateway:
    """TCP ICAP server wrapping serve_icap."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 mode: str = "collect", *, emit):
        if mode not in ("collect", "enforce"):
            raise ValueError(f"unknown gateway mode {mode!r}")
        self.mode = mode
        self.istag = f'"WS-{uuid.uuid4().hex[:12]}"'
        self.reqmod_bodies = _ReqmodBodies()
        self.emit = emit
        self._server = _ThreadedServer((host, port), self._serve_one, ICAP_IDLE_TIMEOUT)

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address[:2]

    def _serve_one(self, rfile, wfile) -> bool:
        """Answer one message; False when the connection should close."""
        if not rfile.peek(1):
            return False  # the peer closed the connection
        try:
            response = serve_icap(parse_icap(rfile), self.mode, self.emit, self.istag,
                                  self.reqmod_bodies)
        except IcapParseError:
            # the framing of whatever follows can no longer be trusted
            wfile.write(IcapResponse(400, "Bad request", [
                ("ISTag", self.istag), ("Connection", "close")]).to_bytes())
            return False
        wfile.write(response.to_bytes())
        return True

    def start(self) -> "IcapGateway":
        self._server.start()
        return self

    def stop(self) -> None:
        """Stop accepting, end every open connection, join its handler."""
        self._server.stop()


class IdleConnections:
    """Stack of idle, reusable client connections to one peer."""

    def __init__(self):
        self._stack: list[_Connection] = []
        self._lock = threading.Lock()
        self._closed = False

    def take(self) -> _Connection | None:
        with self._lock:
            return self._stack.pop() if self._stack else None

    def give(self, conn: _Connection) -> None:
        with self._lock:
            if not self._closed and len(self._stack) < ICAP_IDLE_CONNECTIONS:
                self._stack.append(conn)
                return
        conn.close()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            stack, self._stack = self._stack, []
        for conn in stack:
            conn.close()


class _Connection:
    """A client socket, the peer's IP and the deadline-bound buffered reader over the socket."""

    def __init__(self, addr: tuple[str, int], timeout: float):
        self.sock = socket.create_connection(addr, timeout=timeout)
        # read now: once the peer resets, getpeername() fails though its answer is still queued
        self.peer_ip = self.sock.getpeername()[0]
        self.rfile = io.BufferedReader(_DeadlineReader(self.sock))

    def send(self, raw: bytes, timeout: float) -> bool:
        """Send `raw`; True once the first response byte has arrived.

        A peer may answer and close before it has read all of `raw` (RFC
        9112 §9.5), so a reset while sending still looks for the answer
        queued to be read.  The response's deadline counts from the send.
        """
        self.sock.settimeout(timeout)
        try:
            self.sock.sendall(raw)
        except ConnectionError:  # reset or broken pipe: look for an early answer
            pass
        try:
            self.rfile.raw.expect()
            return bool(self.rfile.peek(1))
        except ConnectionError:  # nothing came back
            return False

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


def _transact(addr: tuple[str, int], raw: bytes, timeout: float,
              idle: IdleConnections | None, read, resend: bool = True):
    """Send one message and return what `read(conn)` makes of its response.

    `read` reads the response off the _Connection and returns (result,
    keep): whether it left the connection fit for another message.
    Without `idle` the message goes over a fresh connection that is
    closed afterwards.  With it, an idle connection is reused when there
    is one and handed back when `keep`.  A reused connection that returns
    not a single response byte was closed by the peer while idle, so
    nothing was served: when `resend` allows, the message is resent once
    on a fresh connection.  Failures on a fresh connection are never
    retried.
    """
    conn = idle.take() if idle is not None else None
    try:
        if conn is not None and not conn.send(raw, timeout):
            conn.close()
            conn = None
            if not resend:
                raise ConnectionError("peer closed the idle connection")
        if conn is None:
            conn = _Connection(addr, timeout)
            if not conn.send(raw, timeout):
                raise ConnectionError("peer closed without responding")
        result, keep = read(conn)
    except BaseException:
        if conn is not None:
            conn.close()
        raise
    if idle is not None and keep:
        idle.give(conn)
    else:
        conn.close()
    return result


def _read_icap_response(conn: _Connection) -> tuple[IcapResponse, bool]:
    response = parse_icap_response(conn.rfile)
    return response, not _says_close(response.headers)


def icap_transact(addr: tuple[str, int], raw: bytes, timeout: float = 10.0,
                  idle: IdleConnections | None = None) -> IcapResponse:
    """Send one ICAP message and read its response (see _transact).

    A gateway connection is kept unless the response says
    `Connection: close`.
    """
    return _transact(addr, raw, timeout, idle, _read_icap_response)


# ---------------------------------------------------------------------------
# forward proxy

class ProxyError(Exception):
    pass


def _read_response(rfile, cap: int, head_only: bool = False) -> tuple[HttpResponse, bytes, bool]:
    """Read an HTTP response off a socket file: (response, entity, truncated).

    Interim 1xx heads before the final response are skipped (RFC 9110
    §15.2), together at most MAX_HEAD_SIZE bytes; a 101 is refused, since
    no protocol switch is relayed.  A response to HEAD (`head_only`), a
    204 and a 304 end at the head (RFC 9112 §6.3).  Any other entity is
    framed by chunked coding, else Content-Length, else the end of the
    connection, and at most `cap` bytes of it are read; what lies beyond
    is left unread, so the connection cannot be reused.  A chunked entity
    comes back with its framing headers replaced by its Content-Length.
    Raises ValueError (IcapParseError is one) on bad framing, a 101,
    differing Content-Length lines and a transfer coding other than
    `chunked` alone.
    """
    skipped = 0  # bytes of interim heads before this one
    while True:
        head = _read_head(rfile)
        if head is None:
            raise IcapParseError("connection closed before the status line", skipped)
        response = _parse_http_response_head(head)
        if not 100 <= response.status < 200:
            break
        if response.status == 101:
            raise ValueError("101 Switching Protocols is not relayed")
        skipped += len(head)
        if skipped > MAX_HEAD_SIZE:
            raise IcapParseError(f"interim heads longer than {MAX_HEAD_SIZE} bytes", skipped)
    if head_only or response.status in (204, 304):
        entity, truncated = b"", False
    elif _is_chunked(response.headers):
        entity, truncated = _read_chunked(rfile, cap, skipped + len(head))
        response.headers = _with_length(response.headers, len(entity))
    elif (length := _content_length(response.headers)) is not None:
        entity, truncated = _read_upto(rfile, min(length, cap)), length > cap
    else:
        entity = _read_upto(rfile, cap + 1)
        entity, truncated = entity[:cap], len(entity) > cap
    return response, entity, truncated


def _fetch_upstream(request: HttpRequest, body: bytes, timeout: float,
                    cap: int) -> tuple[HttpResponse, bytes, bool, str]:
    """Fetch the origin response; returns (response, entity, truncated, peer ip)."""
    parts = urlsplit(request.url)
    if parts.scheme != "http":
        raise ProxyError(f"unsupported scheme {parts.scheme!r}")
    host = parts.hostname or ""
    port = parts.port or 80
    path = parts.path or "/"
    if parts.query:
        path += "?" + parts.query

    hop_by_hop = _hop_by_hop(request.headers)
    out_headers: list[tuple[str, str]] = []
    saw_host = False
    for k, v in request.headers:
        low = k.lower()
        if low in hop_by_hop:
            continue
        if low == "host":
            saw_host = True
        out_headers.append((k, v))
    if not saw_host:
        out_headers.insert(0, ("Host", parts.netloc))
    out_headers.append(("Via", VIA))
    out_headers.append(("Connection", "close"))

    def read(conn: _Connection):
        try:
            response, entity, truncated = _read_response(conn.rfile, cap,
                                                         request.method == "HEAD")
        except ValueError as exc:
            raise ProxyError(f"bad origin response: {exc}") from None
        return (response, entity, truncated, conn.peer_ip), False

    raw = _write_head(f"{request.method} {path} HTTP/1.1", out_headers) + body
    return _transact((host, port), raw, timeout, None, read)


def _client_response_bytes(response: HttpResponse, body: bytes, close: bool = True,
                           head_only: bool = False) -> bytes:
    """The bytes the proxy sends its client: the head with its framing redone, then body.

    Hop-by-hop headers are dropped, and Content-Length gives the length of
    `body`.  A response to HEAD (`head_only`) and a 304 send no body and
    keep the first Content-Length they carry, the length a GET would get;
    a 204 sends neither (RFC 9110 §8.6).
    """
    status = response.status
    keep_length = head_only or status == 304
    if keep_length or status == 204:
        body = b""
    hop_by_hop = _hop_by_hop(response.headers)
    headers = []
    wrote_cl = False
    for k, v in response.headers:
        if k.lower() in hop_by_hop:
            continue
        if k.lower() == "content-length":
            if wrote_cl or status == 204:
                continue
            if not keep_length:
                v = str(len(body))
            wrote_cl = True
        headers.append((k, v))
    if not wrote_cl and not keep_length and status != 204:
        headers.append(("Content-Length", str(len(body))))
    if close:
        headers.append(("Connection", "close"))
    return _serialize_response_head(HttpResponse(response.status, response.reason, headers)) + body


class ProxyServer:
    """HTTP/1.1 forward proxy (absolute-URI form, no CONNECT).

    Submits every exchange to the ICAP gateway over reused connections;
    `fail_policy` decides what happens when the gateway is unreachable:
    "closed" rejects with 502, "open" forwards uninspected and hands
    `emit_fallback` the exchange flagged as uninspected.  PROXY_TIMEOUT
    bounds every socket wait: the client's request (and the wait for its
    next one on a persistent connection), the origin fetch and each ICAP
    exchange.  Each of these messages must arrive whole within
    RESPONSE_DEADLINE_TIMEOUTS times PROXY_TIMEOUT: a client request
    counted from the wait for it, the origin's response and each ICAP
    response from the gateway counted from the send.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 gateway_addr: tuple[str, int], fail_policy: str, emit_fallback):
        if fail_policy not in ("open", "closed"):
            raise ValueError(f"unknown fail policy {fail_policy!r}")
        self.gateway_addr = gateway_addr
        self.fail_policy = fail_policy
        self.emit_fallback = emit_fallback
        self._icap_idle = IdleConnections()
        # _handle is looked up per request, so it can be replaced on the instance
        self._server = _ThreadedServer(
            (host, port), lambda rfile, wfile: self._handle(rfile, wfile), PROXY_TIMEOUT)

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address[:2]

    def start(self) -> "ProxyServer":
        self._server.start()
        return self

    def stop(self) -> None:
        self._server.stop()
        self._icap_idle.close()

    # --- request handling

    def _send_error(self, wfile, status: int, reason: str, text: str, *,
                    head_only: bool) -> bool:
        """Answer with an error and `Connection: close`; False, to close the connection.

        A response to HEAD (`head_only`) carries the length of `text` and no body.
        """
        body = text.encode("utf-8")
        resp = HttpResponse(status, reason, [("Content-Type", "text/plain; charset=utf-8"),
                                             ("Content-Length", str(len(body)))])
        try:
            wfile.write(_client_response_bytes(resp, body, head_only=head_only))
        except OSError:
            pass
        return False

    def _fetch(self, request: HttpRequest, body: bytes,
               markers: dict[str, str]) -> tuple[HttpResponse, bytes]:
        """The origin's (response, entity); a failed fetch is a 502 flagged `wire.fetch_error`."""
        try:
            response, entity, truncated, peer_ip = _fetch_upstream(
                request, body, PROXY_TIMEOUT, PROXY_MAX_BODY)
        except (OSError, ProxyError) as exc:
            text = f"upstream fetch failed: {exc}".encode("utf-8")
            markers["wire.fetch_error"] = str(exc) or type(exc).__name__
            return HttpResponse(502, "Bad Gateway",
                                [("Content-Type", "text/plain; charset=utf-8"),
                                 ("Content-Length", str(len(text)))]), text
        if peer_ip:
            markers["wire.upstream_ip"] = peer_ip
        if truncated:
            markers["wire.truncated"] = "true"
            response.headers = _with_length(response.headers, len(entity))
        return response, entity

    def _handle(self, rfile, wfile) -> bool:
        """Answer one client request; True when the connection stays open for the next.

        It stays open after an HTTP/1.1 request without a `close` token
        once the response went out.  Every error response closes it; those
        for the request target and framing (400, 501) and a body above
        PROXY_MAX_BODY (413) go out before any inspection or fetch.  A
        failed hop to the gateway follows `fail_policy`.
        """
        try:
            head = _read_head(rfile)
            if head is None:
                return False
            request, version = _parse_http_request_head(head)
        except ValueError as exc:  # IcapParseError is one
            return self._send_error(wfile, 400, "Bad Request", str(exc), head_only=False)
        head_only = request.method == "HEAD"
        if request.method == "CONNECT":
            return self._send_error(wfile, 405, "Method Not Allowed",
                                    "CONNECT tunneling is not supported", head_only=head_only)
        try:
            parts = _absolute_url(request.url)
            parts.port
            # getaddrinfo IDNA-encodes the host; an empty or 64+ char label fails there
            (parts.hostname or "").encode("idna")
        except ValueError as exc:  # not absolute, a port outside 0-65535, or such a host
            return self._send_error(wfile, 400, "Bad Request", f"bad request target: {exc}",
                                    head_only=head_only)
        try:
            request_body = _read_request_body(rfile, request, len(head), PROXY_MAX_BODY)
        except _Refusal as exc:
            return self._send_error(wfile, *exc.args, head_only=head_only)
        keep = version == "HTTP/1.1" and not _says_close(request.headers)

        started_at = int(time.time() * 1000)
        agent_id = request.header(AGENT_HEADER) or ""
        seeder = request.header(SEEDER_HEADER) or "benign"
        if seeder not in SEEDER_TAGS:
            seeder = "benign"
        exchange_id = uuid.uuid4().hex
        markers: dict[str, str] = {}
        # a hop to the gateway that fails leaves the exchange uninspected
        failed = False

        # client-side inspection
        try:
            icap_transact(self.gateway_addr,
                          build_reqmod(request, request_body, exchange_id=exchange_id),
                          PROXY_TIMEOUT, self._icap_idle)
        except (OSError, IcapParseError):  # ConnectionError is an OSError
            failed = True

        if not failed or self.fail_policy == "open":
            response, entity = self._fetch(request, request_body, markers)
            exchange = HttpExchange(request=request, response=response, body=entity,
                                    started_at=started_at, agent_id=agent_id,
                                    seeder_tag=seeder)
            client_response, client_body = response, entity
            # server-side inspection; a rewritten head that does not parse raises ValueError
            if not failed:
                try:
                    icap_resp = icap_transact(
                        self.gateway_addr,
                        encapsulate(exchange, exchange_id=exchange_id, markers=markers),
                        PROXY_TIMEOUT, self._icap_idle)
                    if icap_resp.status == 200 and "res-hdr" in icap_resp.sections:
                        client_response = _parse_http_response_head(icap_resp.sections["res-hdr"])
                        client_body = icap_resp.sections.get("res-body", b"")
                except (OSError, ValueError):  # IcapParseError is a ValueError
                    failed = True

        if failed:
            if self.fail_policy == "closed":
                return self._send_error(wfile, 502, "Bad Gateway",
                                        "inspection gateway unreachable (fail-closed)",
                                        head_only=head_only)
            markers["wire.uninspected"] = "true"
            try:
                self.emit_fallback(EmittedExchange(exchange, markers, None, request_body or None))
            except Exception:  # a refusal, counted by the callback; the client gets its answer
                pass

        try:
            wfile.write(_client_response_bytes(client_response, client_body, close=not keep,
                                               head_only=head_only))
        except OSError:
            return False
        return keep
