"""ICAP framing, gateway dispatch, and the forward proxy on live sockets."""

import contextlib
import io
import socket
import socketserver
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import capture_servers
from websift import wire
from websift.synthweb import SynthWebServer
from websift.wire import (
    HttpExchange,
    HttpRequest,
    HttpResponse,
    IcapGateway,
    IcapParseError,
    IcapResponse,
    ProxyServer,
    WARNING_PAGE,
    build_reqmod,
    encapsulate,
    exchange_from_respmod,
    icap_transact,
    parse_icap,
    parse_icap_response,
    serve_icap,
)

CRLF = b"\r\n"


def head_block(lines) -> bytes:
    return CRLF.join(lines) + CRLF + CRLF


def make_exchange(url="http://site.test/page", status=200, body=b"<html>x</html>",
                  seeder="benign", agent="agent-0"):
    return HttpExchange(
        request=HttpRequest("GET", url, [("Host", "site.test"), ("Accept", "*/*")]),
        response=HttpResponse(status, "OK", [("Content-Type", "text/html")]),
        body=body,
        started_at=1_500_000_000_000,
        agent_id=agent,
        seeder_tag=seeder,
    )


class _Verdict:
    def __init__(self, malware: bool):
        self.is_malware = malware


# --- parse_icap: well-formed messages ---

def test_parse_options_without_payload():
    raw = b"OPTIONS icap://g/respmod ICAP/1.0\r\nHost: g\r\n\r\n"
    msg = parse_icap(io.BytesIO(raw))
    assert msg.method == "OPTIONS"
    assert msg.uri == "icap://g/respmod"
    assert msg.version == "ICAP/1.0"
    assert msg.headers == [("Host", "g")]
    assert msg.sections == {}


# Hand-built RESPMOD whose header blocks are sized so the declared offsets
# land exactly at 0, 137, and 296; the len() assertions double as the
# byte-count audit of the fixture itself.
FIXTURE_REQ_HDR = head_block([
    b"GET http://fixture.test/samples/page.html HTTP/1.1",
    b"Host: fixture.test",
    b"User-Agent: probe/1.0",
    b"Accept: */*",
    b"Accept-Encoding: identity",
])
FIXTURE_RES_HDR = head_block([
    b"HTTP/1.1 200 OK",
    b"Content-Type: text/html; charset=utf-8",
    b"Content-Length: 25",
    b"Server: synthweb",
    b"Cache-Control: no-store",
    b"Date: Tue, 01 Aug 2017 00:00:00 GMT",
])
FIXTURE_BODY = b"fixture body of 25 bytes!"


def build_fixture_respmod() -> bytes:
    assert len(FIXTURE_REQ_HDR) == 137
    assert len(FIXTURE_RES_HDR) == 159
    assert len(FIXTURE_REQ_HDR) + len(FIXTURE_RES_HDR) == 296
    assert len(FIXTURE_BODY) == 25
    head = head_block([
        b"RESPMOD icap://gw.test/respmod ICAP/1.0",
        b"Host: gw.test",
        b"Encapsulated: req-hdr=0, res-hdr=137, res-body=296",
    ])
    chunked = b"19\r\n" + FIXTURE_BODY + b"\r\n0\r\n\r\n"
    return head + FIXTURE_REQ_HDR + FIXTURE_RES_HDR + chunked


def test_parse_respmod_fixture_exact_offsets():
    msg = parse_icap(io.BytesIO(build_fixture_respmod()))
    assert msg.method == "RESPMOD"
    assert list(msg.sections) == ["req-hdr", "res-hdr", "res-body"]
    assert msg.sections["req-hdr"] == FIXTURE_REQ_HDR
    assert msg.sections["res-hdr"] == FIXTURE_RES_HDR
    assert msg.sections["res-body"] == FIXTURE_BODY


def test_parse_respmod_fixture_rebuilds_exchange():
    msg = parse_icap(io.BytesIO(build_fixture_respmod()))
    exchange, exchange_id, markers = exchange_from_respmod(msg)
    assert exchange.request.method == "GET"
    assert exchange.request.url == "http://fixture.test/samples/page.html"
    assert exchange.request.header("User-Agent") == "probe/1.0"
    assert exchange.response.status == 200
    assert exchange.response.header("Server") == "synthweb"
    assert exchange.body == FIXTURE_BODY
    assert exchange_id == ""
    assert markers == {}


def test_parse_respmod_null_body():
    req_hdr = head_block([b"GET http://a.test/ HTTP/1.1", b"Host: a.test"])
    res_hdr = head_block([b"HTTP/1.1 204 No Content"])
    enc = b"Encapsulated: req-hdr=0, res-hdr=%d, null-body=%d" % (
        len(req_hdr), len(req_hdr) + len(res_hdr))
    raw = head_block([b"RESPMOD icap://g/respmod ICAP/1.0", enc]) + req_hdr + res_hdr
    msg = parse_icap(io.BytesIO(raw))
    assert list(msg.sections) == ["req-hdr", "res-hdr"]
    assert msg.sections["res-hdr"] == res_hdr


def test_parse_chunk_extensions_and_trailers_are_dropped():
    req_hdr = head_block([b"GET http://a.test/ HTTP/1.1"])
    body = b"5;ext=1\r\nhello\r\n0\r\nTrailer: x\r\n\r\n"
    raw = head_block([
        b"REQMOD icap://g/reqmod ICAP/1.0",
        b"Encapsulated: req-hdr=0, req-body=%d" % len(req_hdr),
    ]) + req_hdr + body
    msg = parse_icap(io.BytesIO(raw))
    assert msg.sections["req-body"] == b"hello"


# --- parse_icap: errors carry byte positions ---

def test_empty_input_is_truncated_at_zero():
    with pytest.raises(IcapParseError) as exc:
        parse_icap(io.BytesIO(b""))
    assert exc.value.position == 0


def test_unterminated_head_is_truncated_at_end():
    raw = b"OPTIONS icap://g/x ICAP/1.0\r\nHost: g\r\n"
    with pytest.raises(IcapParseError) as exc:
        parse_icap(io.BytesIO(raw))
    assert exc.value.position == len(raw)


@pytest.mark.parametrize("line", [
    b"BROKEN LINE",
    b"OPTIONS icap://g/x HTTP/1.1",
    b" icap://g/x ICAP/1.0",
    b"OPTIONS icap://g/x ICAP/1.0 extra",
])
def test_malformed_request_line_positions_at_zero(line):
    with pytest.raises(IcapParseError) as exc:
        parse_icap(io.BytesIO(line + b"\r\nHost: g\r\n\r\n"))
    assert exc.value.position == 0


def test_header_without_colon_positions_at_line_start():
    raw = b"OPTIONS icap://g/x ICAP/1.0\r\nHost: g\r\nBADHEADER\r\n\r\n"
    with pytest.raises(IcapParseError) as exc:
        parse_icap(io.BytesIO(raw))
    assert exc.value.position == raw.find(b"BADHEADER")


@pytest.mark.parametrize("method", [b"REQMOD", b"RESPMOD"])
def test_mod_methods_require_encapsulated(method):
    raw = method + b" icap://g/x ICAP/1.0\r\nHost: g\r\n\r\n"
    with pytest.raises(IcapParseError) as exc:
        parse_icap(io.BytesIO(raw))
    assert exc.value.position == len(raw)


@pytest.mark.parametrize("enc", [
    b"res-hdr=5, null-body=10",       # first offset not 0
    b"req-hdr=0, res-hdr=40, res-body=20",  # not increasing
    b"req-hdr=0, res-body=10, null-body=20",  # two body tokens
    b"res-body=0, req-hdr=10",        # body token not last
    b"req-hdr=0, res-bdy=10",         # unknown token
    b"req-hdr=zero, null-body=10",    # non-numeric offset
    b"req-hdr=0, null-body=\xb2",     # '²' passes str.isdigit(), not int()
    b"",                              # empty value
])
def test_bad_encapsulated_positions_at_header_line(enc):
    # requests and responses go through the one reader
    for start_line, parse in [(b"RESPMOD icap://g/respmod ICAP/1.0", parse_icap),
                              (b"ICAP/1.0 200 OK", parse_icap_response)]:
        raw = head_block([start_line, b"Host: g", b"Encapsulated: " + enc]) + b"x" * 64
        with pytest.raises(IcapParseError) as exc:
            parse(io.BytesIO(raw))
        assert exc.value.position == raw.find(b"Encapsulated:")


def test_payload_shorter_than_sections_is_truncated():
    raw = head_block([
        b"RESPMOD icap://g/respmod ICAP/1.0",
        b"Encapsulated: req-hdr=0, res-hdr=50, null-body=60",
    ]) + b"tiny"
    with pytest.raises(IcapParseError) as exc:
        parse_icap(io.BytesIO(raw))
    assert exc.value.position == len(raw)


def test_bad_chunk_size_positions_inside_payload():
    req_hdr = head_block([b"GET http://a.test/ HTTP/1.1"])
    raw = head_block([
        b"REQMOD icap://g/reqmod ICAP/1.0",
        b"Encapsulated: req-hdr=0, req-body=%d" % len(req_hdr),
    ]) + req_hdr + b"zz\r\nhello\r\n0\r\n\r\n"
    with pytest.raises(IcapParseError) as exc:
        parse_icap(io.BytesIO(raw))
    assert exc.value.position == raw.find(b"zz\r\n")


@pytest.mark.parametrize("tail", [
    b"5\r\nhel",                  # chunk data cut short
    b"5\r\nhello\r\n",            # missing terminating chunk
    b"5\r\nhelloXX0\r\n\r\n",     # bad data terminator
    b"5",                         # size line never completed
])
def test_truncated_chunked_bodies_raise(tail):
    req_hdr = head_block([b"GET http://a.test/ HTTP/1.1"])
    raw = head_block([
        b"REQMOD icap://g/reqmod ICAP/1.0",
        b"Encapsulated: req-hdr=0, req-body=%d" % len(req_hdr),
    ]) + req_hdr + tail
    with pytest.raises(IcapParseError) as exc:
        parse_icap(io.BytesIO(raw))
    assert exc.value.position >= raw.find(tail)


# Each strict refusal here was accepted by int(token, 16).
@pytest.mark.parametrize("size_line", [b"0x2", b"+2", b"2_0", b" 2 ", b"2 ", b"-0", b""])
def test_chunk_size_must_be_bare_hex(size_line):
    with pytest.raises(ValueError):
        wire._chunk_size(size_line)


@pytest.mark.parametrize("size_line,size", [
    (b"1a", 26), (b"0", 0), (b"A;name=value", 10), (b"2 \t;ext", 2), (b"00f;a;b", 15),
])
def test_chunk_size_takes_hex_and_extensions(size_line, size):
    assert wire._chunk_size(size_line) == size


REQMOD_HEAD = head_block([b"REQMOD icap://g/reqmod ICAP/1.0",
                          b"Encapsulated: req-hdr=0, req-body=31"])
REQ_HDR = head_block([b"GET http://a.test/ HTTP/1.1"])
CHUNKED_RESPONSE_HEAD = head_block([b"HTTP/1.1 200 OK", b"Transfer-Encoding: chunked"])


def _dechunk_both_ways(framed: bytes):
    """`framed` de-chunked by each caller of the one de-chunker: an ICAP
    message read off a stream and an origin response.  The data or, for
    any framing error, ValueError.  Each leaves what follows the final
    chunk unread."""
    assert len(REQ_HDR) == 31
    results = []
    readers = [
        lambda: parse_icap(io.BytesIO(REQMOD_HEAD + REQ_HDR + framed)).sections["req-body"],
        lambda: wire._read_response(io.BytesIO(CHUNKED_RESPONSE_HEAD + framed), 1 << 20)[1],
    ]
    for read in readers:
        try:
            results.append(read())
        except ValueError:  # IcapParseError is a ValueError
            results.append(ValueError)
    return results


@given(st.one_of(st.binary(max_size=4),
                 st.text("0123456789abcdefABCDEF+-_xX \t", max_size=4).map(str.encode)))
def test_chunk_size_accepts_exactly_hex_tokens(token):
    token = token.replace(b";", b"").replace(b"\r", b"").replace(b"\n", b"")
    is_hex = bool(token) and all(c in b"0123456789abcdefABCDEF" for c in token)
    try:
        size = wire._chunk_size(token)
    except ValueError:
        assert not is_hex
    else:
        assert is_hex and size == int(token, 16)
    # both streaming readers agree on the same framing
    data = b"d" * (int(token, 16) if is_hex else 1)
    framed = token + CRLF + data + CRLF + b"0" + CRLF + CRLF
    expected = data if is_hex else ValueError
    assert _dechunk_both_ways(framed) == [expected] * 2


# a message whose end is the end of its head, its null-body offset or its final chunk
MESSAGE_ENDS = {
    "options-head": b"OPTIONS icap://g/x ICAP/1.0\r\nHost: g\r\n\r\n",
    "null-body-offset": head_block([b"RESPMOD icap://g/respmod ICAP/1.0",
                                    b"Encapsulated: req-hdr=0, null-body=2"]) + b"ab",
    "final-chunk": REQMOD_HEAD + REQ_HDR + b"5\r\nhello\r\n0\r\n\r\n",
}


@pytest.mark.parametrize("case", list(MESSAGE_ENDS))
def test_reading_stops_at_the_end_of_a_message(case):
    # what follows is the next message, read (or refused) on its own
    source = io.BytesIO(MESSAGE_ENDS[case] + b"extra\r\n\r\n")
    parse_icap(source)
    assert source.read() == b"extra\r\n\r\n"


# --- ICAP responses ---

def test_parse_icap_response_with_sections():
    res_hdr = head_block([b"HTTP/1.1 200 OK", b"Content-Length: 2"])
    raw = head_block([
        b"ICAP/1.0 200 OK",
        b'ISTag: "t"',
        b"Encapsulated: res-hdr=0, res-body=%d" % len(res_hdr),
    ]) + res_hdr + b"2\r\nhi\r\n0\r\n\r\n"
    resp = parse_icap_response(io.BytesIO(raw))
    assert resp.status == 200
    assert resp.reason == "OK"
    assert resp.header("ISTag") == '"t"'
    assert resp.sections == {"res-hdr": res_hdr, "res-body": b"hi"}


def test_parse_icap_response_no_modifications():
    raw = b'ICAP/1.0 204 No modifications\r\nISTag: "t"\r\nEncapsulated: null-body=0\r\n\r\n'
    resp = parse_icap_response(io.BytesIO(raw))
    assert resp.status == 204
    assert resp.sections == {}


def test_parse_icap_response_rejects_bad_status_line():
    with pytest.raises(IcapParseError) as exc:
        parse_icap_response(io.BytesIO(b"HTTP/1.1 200 OK\r\n\r\n"))
    assert exc.value.position == 0


def test_icap_response_to_bytes_appends_null_body():
    resp = IcapResponse(204, "No modifications", [("ISTag", '"x"')])
    raw = resp.to_bytes()
    assert b"Encapsulated: null-body=0\r\n" in raw
    assert raw.endswith(b"\r\n\r\n")
    again = parse_icap_response(io.BytesIO(raw))
    assert again.status == 204
    assert again.header("ISTag") == '"x"'


def test_icap_response_to_bytes_offsets_and_chunking():
    res_hdr = head_block([b"HTTP/1.1 200 OK"])
    resp = IcapResponse(200, "OK", [("ISTag", '"x"')],
                        {"res-hdr": res_hdr, "res-body": b"payload"})
    raw = resp.to_bytes()
    assert b"Encapsulated: res-hdr=0, res-body=%d" % len(res_hdr) in raw
    again = parse_icap_response(io.BytesIO(raw))
    assert again.sections == {"res-hdr": res_hdr, "res-body": b"payload"}


_ICAP_HEADERS = st.lists(st.tuples(
    st.from_regex(r"[A-Za-z][A-Za-z0-9-]{0,15}", fullmatch=True).filter(
        lambda name: name.lower() != "encapsulated"),
    st.from_regex(r"([!-~]([ -~]{0,30}[!-~])?)?", fullmatch=True)), max_size=4)


@given(_ICAP_HEADERS,
       st.sampled_from([(), ("req-hdr",), ("res-hdr",), ("req-hdr", "res-hdr")]),
       st.lists(st.binary(min_size=1, max_size=200), min_size=2, max_size=2),
       st.sampled_from(["req-body", "res-body"]),
       st.none() | st.binary(max_size=300))
def test_icap_writer_round_trips_through_both_readers(headers, tokens, datas, body_token,
                                                      body):
    sections = dict(zip(tokens, datas))
    if body is not None:
        sections[body_token] = body
    declared = [*tokens, body_token if body is not None else "null-body"]

    msg = parse_icap(io.BytesIO(wire._write_icap("RESPMOD icap://gw/respmod ICAP/1.0",
                                                 headers, sections)))
    assert msg.headers[:-1] == headers and msg.headers[-1][0] == "Encapsulated"
    assert [entry.split("=")[0] for entry in msg.header("Encapsulated").split(", ")] == declared
    assert list(msg.sections.items()) == list(sections.items())

    response = parse_icap_response(io.BytesIO(wire._write_icap("ICAP/1.0 200 OK", headers,
                                                               sections)))
    assert response.headers[:-1] == headers
    assert list(response.sections.items()) == list(sections.items())


def test_chunk_encode_empty_is_bare_terminator():
    assert wire._chunk_encode(b"") == b"0\r\n\r\n"
    assert wire._chunk_encode(b"abc") == b"3\r\nabc\r\n0\r\n\r\n"


# --- encapsulate / exchange_from_respmod round trip ---

def test_encapsulate_declares_exact_offsets():
    exchange = make_exchange()
    raw = encapsulate(exchange, exchange_id="e1")
    req_hdr = wire._serialize_request_head(exchange.request)
    res_hdr = wire._serialize_response_head(exchange.response)
    expect = b"Encapsulated: req-hdr=0, res-hdr=%d, res-body=%d" % (
        len(req_hdr), len(req_hdr) + len(res_hdr))
    assert expect in raw
    msg = parse_icap(io.BytesIO(raw))
    assert msg.sections["req-hdr"] == req_hdr
    assert msg.sections["res-hdr"] == res_hdr
    assert msg.sections["res-body"] == exchange.body


def test_encapsulate_empty_body_uses_null_body():
    exchange = make_exchange(body=b"")
    raw = encapsulate(exchange)
    assert b"null-body=" in raw
    msg = parse_icap(io.BytesIO(raw))
    assert list(msg.sections) == ["req-hdr", "res-hdr"]
    rebuilt, _, _ = exchange_from_respmod(msg)
    assert rebuilt.body == b""


def test_encapsulate_metadata_headers_round_trip():
    exchange = make_exchange(seeder="malware", agent="agent-9")
    raw = encapsulate(exchange, exchange_id="xid-7",
                      markers={"b.key": "2", "a.key": "1"})
    # markers are emitted sorted by key
    assert raw.find(b"X-Exchange-Marker: a.key=1") < raw.find(b"X-Exchange-Marker: b.key=2")
    rebuilt, exchange_id, markers = exchange_from_respmod(parse_icap(io.BytesIO(raw)))
    assert exchange_id == "xid-7"
    assert markers == {"a.key": "1", "b.key": "2"}
    assert rebuilt.started_at == exchange.started_at
    assert rebuilt.agent_id == "agent-9"
    assert rebuilt.seeder_tag == "malware"


def test_exchange_round_trip_is_exact():
    exchange = make_exchange(url="http://h.test/a?q=1", status=404, body=b"\x00\xffbin")
    rebuilt, _, _ = exchange_from_respmod(parse_icap(io.BytesIO(encapsulate(exchange))))
    assert rebuilt == exchange


def test_exchange_from_respmod_requires_both_header_sections():
    msg = parse_icap(io.BytesIO(build_fixture_respmod()))
    del msg.sections["req-hdr"]
    with pytest.raises(ValueError):
        exchange_from_respmod(msg)


def test_encapsulate_validates_exchange():
    exchange = make_exchange(url="not-a-url")
    with pytest.raises(ValueError):
        encapsulate(exchange)


_token = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_",
    min_size=1, max_size=12)
_value = st.text(
    alphabet=st.characters(min_codepoint=0x21, max_codepoint=0x7E),
    max_size=16).map(str.strip)
_headers = st.lists(st.tuples(_token, _value), max_size=5)


@st.composite
def exchanges(draw):
    host = draw(_token)
    path = draw(st.text(alphabet="abcdefghij0123456789/._-?&=", max_size=20))
    return HttpExchange(
        request=HttpRequest(draw(st.sampled_from(["GET", "POST", "HEAD"])),
                            f"http://{host}/{path}", draw(_headers)),
        response=HttpResponse(draw(st.integers(100, 599)),
                              draw(_token), draw(_headers)),
        body=draw(st.binary(max_size=200)),
        started_at=draw(st.integers(0, 2 ** 50)),
        agent_id=draw(_token),
        seeder_tag=draw(st.sampled_from(wire.SEEDER_TAGS)),
    )


@given(exchange=exchanges(),
       exchange_id=_token,
       markers=st.dictionaries(_token, _token, max_size=3))
def test_encapsulate_parse_round_trip_property(exchange, exchange_id, markers):
    raw = encapsulate(exchange, exchange_id=exchange_id, markers=markers)
    rebuilt, got_id, got_markers = exchange_from_respmod(parse_icap(io.BytesIO(raw)))
    assert rebuilt == exchange
    assert got_id == exchange_id
    assert got_markers == markers


# --- REQMOD building ---

def test_build_reqmod_with_body():
    request = HttpRequest("POST", "http://a.test/submit", [("Host", "a.test")])
    raw = build_reqmod(request, b"user=1", exchange_id="e2")
    msg = parse_icap(io.BytesIO(raw))
    assert msg.method == "REQMOD"
    assert msg.header("X-Exchange-Id") == "e2"
    assert list(msg.sections) == ["req-hdr", "req-body"]
    assert msg.sections["req-body"] == b"user=1"


def test_build_reqmod_without_body():
    raw = build_reqmod(HttpRequest("GET", "http://a.test/", []))
    msg = parse_icap(io.BytesIO(raw))
    assert list(msg.sections) == ["req-hdr"]


# --- exchange model ---

def test_exchange_validate_rejects_bad_fields():
    with pytest.raises(ValueError):
        make_exchange(url="/relative/only").validate()
    with pytest.raises(ValueError):
        make_exchange(seeder="parked").validate()
    bad = make_exchange()
    bad.started_at = -5
    with pytest.raises(ValueError):
        bad.validate()


def test_exchange_doc_round_trip_drops_body():
    exchange = make_exchange(body=b"big payload")
    doc = exchange.to_doc()
    assert "body" not in doc
    again = HttpExchange.from_doc(doc)
    assert again.body == b""
    assert again.request == exchange.request
    assert again.response == exchange.response
    assert again.started_at == exchange.started_at
    assert again.seeder_tag == exchange.seeder_tag


# --- serve_icap dispatch ---

def test_serve_options_advertises_methods():
    msg = parse_icap(io.BytesIO(b"OPTIONS icap://g/respmod ICAP/1.0\r\nHost: g\r\n\r\n"))
    resp = serve_icap(msg, "collect", [].append, '"tag-1"', {})
    assert resp.status == 200
    assert resp.header("Methods") == "RESPMOD, REQMOD"
    assert resp.header("Preview") == "0"
    assert resp.header("ISTag") == '"tag-1"'


def test_serve_reqmod_stashes_body_by_exchange_id():
    stash: dict[str, bytes] = {}
    msg = parse_icap(io.BytesIO(build_reqmod(HttpRequest("POST", "http://a.test/f", []),
                                  b"field=1", exchange_id="x9")))
    resp = serve_icap(msg, "collect", [].append, '"t"', stash)
    assert resp.status == 204
    assert stash == {"x9": b"field=1"}


def test_serve_reqmod_without_body_stashes_nothing():
    stash: dict[str, bytes] = {}
    msg = parse_icap(io.BytesIO(build_reqmod(HttpRequest("GET", "http://a.test/", []),
                                  exchange_id="x9")))
    assert serve_icap(msg, "collect", [].append, '"t"', stash).status == 204
    assert stash == {}


def test_serve_respmod_collect_emits_once():
    emitted = []
    exchange = make_exchange()
    msg = parse_icap(io.BytesIO(encapsulate(exchange, exchange_id="e3")))
    resp = serve_icap(msg, "collect", emitted.append, '"t"', {})
    assert resp.status == 204
    assert resp.sections == {}
    assert len(emitted) == 1
    assert emitted[0].exchange == exchange
    assert emitted[0].verdict is None


def test_serve_respmod_attaches_stashed_request_body():
    emitted = []
    stash = {"e4": b"posted-bytes"}
    msg = parse_icap(io.BytesIO(encapsulate(make_exchange(), exchange_id="e4")))
    serve_icap(msg, "collect", emitted.append, '"t"', stash)
    assert emitted[0].request_body == b"posted-bytes"
    assert stash == {}


def test_serve_respmod_collect_never_rewrites():
    emitted = []
    msg = parse_icap(io.BytesIO(encapsulate(make_exchange(), exchange_id="e5")))
    resp = serve_icap(msg, "collect", lambda e: emitted.append(e) or _Verdict(True), '"t"', {})
    assert resp.status == 204
    assert len(emitted) == 1


def test_serve_respmod_enforce_rewrites_malicious():
    emitted = []
    exchange = make_exchange(body=b"<script>evil()</script>")
    msg = parse_icap(io.BytesIO(encapsulate(exchange, exchange_id="e6")))
    resp = serve_icap(msg, "enforce", lambda e: emitted.append(e) or _Verdict(True), '"t"', {})
    assert resp.status == 200
    assert resp.sections["res-body"] == WARNING_PAGE
    res_hdr = resp.sections["res-hdr"]
    assert b"X-Websift-Blocked: malware" in res_hdr
    assert b"Content-Type: text/html; charset=utf-8" in res_hdr
    assert b"Content-Length: %d" % len(WARNING_PAGE) in res_hdr
    # the exchange reaching the pipeline still carries the original body
    assert emitted[0].exchange.body == b"<script>evil()</script>"


def test_serve_respmod_enforce_passes_benign():
    msg = parse_icap(io.BytesIO(encapsulate(make_exchange(), exchange_id="e7")))
    resp = serve_icap(msg, "enforce", lambda e: _Verdict(False), '"t"', {})
    assert resp.status == 204


def test_serve_respmod_pipeline_refusal_returns_500():
    def bad_emit(emitted):  # a store gone offline, or a verdict that cannot be decided
        raise KeyError("blacklist unavailable")

    msg = parse_icap(io.BytesIO(encapsulate(make_exchange(), exchange_id="e8")))
    resp = serve_icap(msg, "enforce", bad_emit, '"t"', {})
    assert resp.status == 500
    assert "refused" in resp.reason.lower()


def test_serve_respmod_bad_http_sections_returns_500():
    msg = parse_icap(io.BytesIO(build_fixture_respmod()))
    del msg.sections["req-hdr"]
    assert serve_icap(msg, "collect", [].append, '"t"', {}).status == 500


def test_serve_unknown_method_returns_405():
    msg = parse_icap(io.BytesIO(b"PURGE icap://g/x ICAP/1.0\r\nHost: g\r\n\r\n"))
    assert serve_icap(msg, "collect", [].append, '"t"', {}).status == 405


# --- gateway over TCP ---

@contextlib.contextmanager
def running_gateway(**kw):
    """The gateway of a capture_servers set, which collects what it emits unless told otherwise."""
    with capture_servers(**kw) as servers:
        yield servers.gateway


def test_gateway_options_over_socket():
    with running_gateway() as gw:
        raw = b"OPTIONS icap://127.0.0.1/respmod ICAP/1.0\r\nHost: h\r\n\r\n"
        resp = icap_transact(gw.address, raw)
    assert resp.status == 200
    assert resp.header("Methods") == "RESPMOD, REQMOD"
    assert resp.header("ISTag") == gw.istag


def test_gateway_respmod_collect_over_socket():
    emitted = []
    with running_gateway(emit=emitted.append) as gw:
        exchange = make_exchange()
        resp = icap_transact(gw.address, encapsulate(exchange, exchange_id="s1"))
    assert resp.status == 204
    assert len(emitted) == 1
    assert emitted[0].exchange == exchange


def test_gateway_rejects_garbage_with_400():
    with running_gateway() as gw:
        resp = icap_transact(gw.address, b"NOT AN ICAP LINE\r\n\r\n")
    assert resp.status == 400


def test_gateway_enforce_over_socket():
    with running_gateway(mode="enforce", emit=lambda e: _Verdict(True)) as gw:
        resp = icap_transact(gw.address, encapsulate(make_exchange(), exchange_id="s3"))
    assert resp.status == 200
    assert resp.sections["res-body"] == WARNING_PAGE


def test_gateway_rejects_unknown_mode():
    with pytest.raises(ValueError):
        IcapGateway(mode="observe", emit=[].append)


def test_gateway_answers_non_ascii_offset_with_400():
    raw = head_block([b"RESPMOD icap://g/respmod ICAP/1.0",
                      b"Encapsulated: req-hdr=0, null-body=\xb2"])
    with running_gateway() as gw:
        resp = icap_transact(gw.address, raw)
    assert resp.status == 400


def test_wire_reader_refuses_body_offset_above_cap_before_reading():
    class Source(io.BytesIO):
        def read(self, n=-1):
            assert n <= wire.MAX_BODY_SIZE, f"asked to read {n} bytes"
            return super().read(n)

    raw = head_block([b"RESPMOD icap://g/respmod ICAP/1.0",
                      b"Encapsulated: req-hdr=0, null-body=%d" % (wire.MAX_BODY_SIZE + 1)])
    with pytest.raises(IcapParseError):
        parse_icap(Source(raw))


def test_wire_reader_refuses_chunks_above_cap_before_reading():
    req_hdr = head_block([b"GET http://a.test/ HTTP/1.1"])
    raw = head_block([b"REQMOD icap://g/reqmod ICAP/1.0",
                      b"Encapsulated: req-hdr=0, req-body=%d" % len(req_hdr)])
    raw += req_hdr + b"%x\r\n" % (wire.MAX_BODY_SIZE + 1)
    with pytest.raises(IcapParseError):
        parse_icap(io.BytesIO(raw))


# --- persistent ICAP connections ---

OPTIONS_RAW = b"OPTIONS icap://g/respmod ICAP/1.0\r\nHost: g\r\n\r\n"


def test_gateway_serves_several_exchanges_on_one_connection():
    emitted = []
    with running_gateway(emit=emitted.append) as gw:
        with socket.create_connection(gw.address, timeout=10) as sock:
            rfile = sock.makefile("rb")
            statuses = []
            for n in (1, 2):
                exchange = make_exchange(url=f"http://site.test/{n}")
                sock.sendall(build_reqmod(exchange.request, b"form=%d" % n,
                                          exchange_id=f"k{n}"))
                statuses.append(parse_icap_response(rfile).status)
                sock.sendall(encapsulate(exchange, exchange_id=f"k{n}"))
                statuses.append(parse_icap_response(rfile).status)
    assert statuses == [204, 204, 204, 204]
    assert [e.exchange.request.url for e in emitted] == [
        "http://site.test/1", "http://site.test/2"]
    assert [e.request_body for e in emitted] == [b"form=1", b"form=2"]


def test_gateway_closes_connection_after_parse_error():
    with running_gateway() as gw:
        with socket.create_connection(gw.address, timeout=10) as sock:
            sock.sendall(b"NOT AN ICAP LINE\r\n\r\n")
            rfile = sock.makefile("rb")
            resp = parse_icap_response(rfile)
            assert rfile.read() == b""
    assert resp.status == 400
    assert resp.header("Connection") == "close"

    # bytes sent after a whole message are the next message, and answered as one
    emitted = []
    with running_gateway(emit=emitted.append) as gw:
        with socket.create_connection(gw.address, timeout=10) as sock, \
                sock.makefile("rb") as rfile:
            sock.sendall(encapsulate(make_exchange(), exchange_id="j1") + b"extra\r\n\r\n")
            answered = parse_icap_response(rfile)
            refused = parse_icap_response(rfile)
            assert rfile.read() == b""
    assert answered.status == 204
    assert (refused.status, refused.header("Connection")) == (400, "close")
    assert [e.exchange.request.url for e in emitted] == ["http://site.test/page"]


def test_gateway_closes_idle_connections(monkeypatch):
    monkeypatch.setattr(wire, "ICAP_IDLE_TIMEOUT", 0.1)
    with running_gateway() as gw:
        with socket.create_connection(gw.address, timeout=10) as sock:
            assert sock.makefile("rb").read() == b""


def test_gateway_stop_closes_idle_client_connections():
    with running_gateway() as gw, socket.create_connection(gw.address, timeout=10) as sock:
        sock.sendall(OPTIONS_RAW)
        rfile = sock.makefile("rb")
        assert parse_icap_response(rfile).status == 200
        started = time.monotonic()
        gw.stop()  # the idle timeout is far longer than this wait
        assert time.monotonic() - started < 2
        assert rfile.read() == b""


class _CountingConnection(wire._Connection):
    opened = 0
    counted = None  # when set, only connections to this address are counted

    def __init__(self, addr, timeout):
        super().__init__(addr, timeout)
        if type(self).counted in (None, addr):
            type(self).opened += 1


def test_transact_resends_once_when_the_gateway_closed_an_idle_connection(monkeypatch):
    monkeypatch.setattr(wire, "_Connection", _CountingConnection)
    monkeypatch.setattr(_CountingConnection, "opened", 0)
    monkeypatch.setattr(wire, "ICAP_IDLE_TIMEOUT", 0.1)
    emitted = []
    idle = wire.IdleConnections()
    with running_gateway(emit=emitted.append) as gw:
        first = icap_transact(gw.address, encapsulate(make_exchange(), exchange_id="a"),
                              idle=idle)
        time.sleep(0.4)  # the gateway times the pooled connection out
        second = icap_transact(gw.address, encapsulate(make_exchange(), exchange_id="b"),
                               idle=idle)
        idle.close()
    assert first.status == second.status == 204
    assert _CountingConnection.opened == 2
    assert len(emitted) == 2


class _ClosingPeer(socketserver.ThreadingTCPServer):
    """ICAP peer that answers `answers` messages per connection, then hangs up."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, answers: int):
        self.answers = answers
        self.connections = 0
        super().__init__(("127.0.0.1", 0), _ClosingPeerHandler)


class _ClosingPeerHandler(socketserver.StreamRequestHandler):
    def handle(self):
        self.server.connections += 1
        for _ in range(self.server.answers):
            if not self.rfile.peek(1):
                return
            parse_icap(self.rfile)
            self.wfile.write(IcapResponse(204, "No modifications").to_bytes())


@contextlib.contextmanager
def closing_peer(answers):
    peer = _ClosingPeer(answers)
    thread = threading.Thread(target=peer.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield peer
    finally:
        peer.shutdown()
        peer.server_close()


def test_transact_never_retries_a_fresh_connection():
    with closing_peer(answers=0) as peer:
        with pytest.raises(ConnectionError):
            icap_transact(peer.server_address, OPTIONS_RAW, idle=wire.IdleConnections())
    assert peer.connections == 1


def test_transact_retries_a_stale_connection_exactly_once():
    idle = wire.IdleConnections()
    with closing_peer(answers=1) as peer:
        assert icap_transact(peer.server_address, OPTIONS_RAW, idle=idle).status == 204
        assert icap_transact(peer.server_address, OPTIONS_RAW, idle=idle).status == 204
        peer.answers = 0
        with pytest.raises(ConnectionError):
            icap_transact(peer.server_address, OPTIONS_RAW, idle=idle)
        idle.close()
    assert peer.connections == 3


# --- origin fixture for proxy tests ---

class _OriginServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True


class _OriginHandler(socketserver.StreamRequestHandler):
    def handle(self):
        line = self.rfile.readline()
        if not line:
            return
        method, path, _ = line.decode("latin-1").split(" ", 2)
        received = {}
        while True:
            raw = self.rfile.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").strip().partition(":")
            received[name.strip().lower()] = value.strip()
        body = b""
        if "content-length" in received:
            body = self.rfile.read(int(received["content-length"]))
        self.server.seen.append((method, path, received, body))
        if path == "/chunked":
            self.wfile.write(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                             b"6\r\nchunk1\r\n7\r\n chunk2\r\n0\r\n\r\n")
            return
        if path == "/hugechunk":  # declares 16 MiB, sends 4 KiB, hangs up
            self.wfile.write(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                             b"1000000\r\n" + b"x" * 4096)
            return
        if path == "/badlength":
            self.wfile.write(b"HTTP/1.1 200 OK\r\nContent-Length: \xb2\r\n\r\nxy")
            return
        if path == "/longline":
            self.wfile.write(b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 4096 + b"\r\n\r\n")
            return
        if path == "/echoheaders":
            payload = "\n".join(f"{k}={v}" for k, v in sorted(received.items())).encode()
        elif path == "/echobody":
            payload = body
        elif path == "/big":
            payload = b"x" * 4096
        else:
            payload = b"origin fixture body"
        self.wfile.write(b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n"
                         b"Content-Length: " + str(len(payload)).encode("ascii")
                         + b"\r\n\r\n" + payload)


@pytest.fixture
def origin():
    server = _OriginServer(("127.0.0.1", 0), _OriginHandler)
    server.seen = []
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


def origin_url(server, path="/hello"):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}{path}"


@contextlib.contextmanager
def running_proxy(**kw):
    """The proxy of a capture_servers set: it inspects through a gateway of its own."""
    with capture_servers(**kw) as servers:
        yield servers.proxy


def proxy_fetch(addr, url, method="GET", headers=(), body=b""):
    """Issue one absolute-URI request through the proxy; read to close."""
    lines = [f"{method} {url} HTTP/1.1"]
    lines += [f"{k}: {v}" for k, v in headers]
    if body:
        lines.append(f"Content-Length: {len(body)}")
    lines.append("Connection: close")  # an HTTP/1.1 connection stays open otherwise
    with socket.create_connection(addr, timeout=10) as sock:
        sock.sendall("\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + body)
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, rest = data.partition(b"\r\n\r\n")
    head_lines = head.split(b"\r\n")
    status = int(head_lines[0].split(b" ", 2)[1])
    received = {}
    for hline in head_lines[1:]:
        name, _, value = hline.decode("latin-1").partition(":")
        received[name.strip().lower()] = value.strip()
    return status, received, rest


# --- proxy: relaying the origin ---

def test_proxy_forwards_origin_body(origin):
    with running_proxy() as px:
        status, headers, body = proxy_fetch(px.address, origin_url(origin))
    assert status == 200
    assert body == b"origin fixture body"
    assert headers["content-length"] == str(len(body))
    assert headers["connection"] == "close"


def test_proxy_normalizes_chunked_to_content_length(origin):
    with running_proxy() as px:
        status, headers, body = proxy_fetch(px.address, origin_url(origin, "/chunked"))
    assert status == 200
    assert body == b"chunk1 chunk2"
    assert headers["content-length"] == "13"
    assert "transfer-encoding" not in headers


def test_proxy_adds_via_and_strips_hop_by_hop(origin):
    with running_proxy() as px:
        status, _, body = proxy_fetch(
            px.address, origin_url(origin, "/echoheaders"),
            headers=[("Host", "ignored.test"), ("X-Custom", "abc"),
                     ("Proxy-Connection", "keep-alive"), ("Keep-Alive", "timeout=5")])
    assert status == 200
    _, _, received, _ = origin.seen[0]
    assert received["via"] == "1.1 websift"
    assert received["x-custom"] == "abc"
    assert "proxy-connection" not in received
    assert "keep-alive" not in received
    assert b"via=1.1 websift" in body


def test_proxy_upstream_refused_yields_502(origin, dead_port):
    with running_proxy() as px:
        status, _, body = proxy_fetch(px.address, f"http://127.0.0.1:{dead_port}/x")
    assert status == 502
    assert b"upstream fetch failed" in body


def test_proxy_rejects_connect_and_relative_targets(origin):
    with running_proxy() as px:
        status, _, _ = proxy_fetch(px.address, "example.test:443", method="CONNECT")
        assert status == 405
        status, _, _ = proxy_fetch(px.address, "/no-scheme")
        assert status == 400


@pytest.mark.parametrize("target", [
    "http://[x/", "http://a.test:99999/", "http://a.test:-1/", "http://a.test:abc/",
    "ftp://a.test/x", "http:///x"])
def test_proxy_answers_a_target_urllib_rejects_with_400(origin, target):
    with running_proxy() as px:
        status, _, body = proxy_fetch(px.address, target)
        assert status == 400
        assert b"bad request target" in body
        # the proxy keeps serving
        status, _, _ = proxy_fetch(px.address, origin_url(origin))
        assert status == 200


def test_proxy_answers_a_host_idna_rejects_with_400(origin):
    # getaddrinfo would raise UnicodeError (a ValueError) on these hosts
    with running_proxy() as px:
        for target in ("http://a..b/", f"http://{'x' * 64}.test/"):
            status, _, body = proxy_fetch(px.address, target)
            assert status == 400
            assert b"bad request target" in body
        status, _, _ = proxy_fetch(px.address, origin_url(origin))
        assert status == 200


def test_proxy_truncates_oversized_bodies(origin, monkeypatch):
    monkeypatch.setattr(wire, "PROXY_MAX_BODY", 64)
    with running_proxy() as px:
        status, headers, body = proxy_fetch(px.address, origin_url(origin, "/big"))
    assert status == 200
    assert body == b"x" * 64
    assert headers["content-length"] == "64"


# --- proxy + gateway end to end ---

def test_proxy_gateway_records_exchange(origin):
    emitted = []
    with running_proxy(emit=emitted.append) as px:
        status, _, body = proxy_fetch(
            px.address, origin_url(origin),
            headers=[("X-Websift-Agent", "agent-7"), ("X-Websift-Seeder", "malware")])
    assert status == 200
    assert body == b"origin fixture body"
    assert len(emitted) == 1
    record = emitted[0]
    assert record.exchange.body == b"origin fixture body"
    assert record.exchange.agent_id == "agent-7"
    assert record.exchange.seeder_tag == "malware"
    assert record.exchange.response.status == 200
    assert record.markers["wire.upstream_ip"] == "127.0.0.1"
    assert record.exchange.started_at > 0


def test_proxy_gateway_unknown_seeder_coerced_to_benign(origin):
    emitted = []
    with running_proxy(emit=emitted.append) as px:
        proxy_fetch(px.address, origin_url(origin),
                    headers=[("X-Websift-Seeder", "parked")])
    assert emitted[0].exchange.seeder_tag == "benign"


def test_proxy_gateway_emits_fetch_errors(origin, dead_port):
    emitted = []
    with running_proxy(emit=emitted.append) as px:
        status, _, _ = proxy_fetch(px.address, f"http://127.0.0.1:{dead_port}/x")
    assert status == 502
    assert len(emitted) == 1
    assert emitted[0].exchange.response.status == 502
    assert "wire.fetch_error" in emitted[0].markers


def test_proxy_gateway_captures_request_body(origin):
    emitted = []
    with running_proxy(emit=emitted.append) as px:
        status, _, body = proxy_fetch(
            px.address, origin_url(origin, "/echobody"),
            method="POST", body=b"field=7&commit=yes")
    assert status == 200
    assert body == b"field=7&commit=yes"
    assert len(emitted) == 1
    assert emitted[0].request_body == b"field=7&commit=yes"
    _, _, _, origin_body = origin.seen[0]
    assert origin_body == b"field=7&commit=yes"


def test_proxy_gateway_flags_truncation(origin, monkeypatch):
    # the gateway's own ICAP body cap, MAX_BODY_SIZE, stays as it is
    monkeypatch.setattr(wire, "PROXY_MAX_BODY", 64)
    emitted = []
    with running_proxy(emit=emitted.append) as px:
        status, headers, body = proxy_fetch(px.address, origin_url(origin, "/big"))
    assert status == 200
    assert body == b"x" * 64
    assert headers["content-length"] == "64"
    assert emitted[0].markers["wire.truncated"] == "true"
    assert emitted[0].exchange.body == b"x" * 64


def test_proxy_fail_closed_when_gateway_down(origin, dead_port):
    dead = ("127.0.0.1", dead_port)
    with running_proxy(gateway_addr=dead, fail_policy="closed") as px:
        status, _, body = proxy_fetch(px.address, origin_url(origin))
    assert status == 502
    assert b"fail-closed" in body


def test_proxy_error_answers_head_without_a_body(origin, dead_port):
    # RFC 9110 §9.3.2: no content in a response to HEAD; the length a GET
    # would get stays
    dead = ("127.0.0.1", dead_port)
    with running_proxy(gateway_addr=dead, fail_policy="closed") as px:
        status, headers, body = proxy_fetch(px.address, origin_url(origin), method="HEAD")
        got = proxy_fetch(px.address, origin_url(origin))
    assert (status, body) == (502, b"")
    assert headers["content-length"] == str(len(got[2])) == "44"
    assert got[0] == 502


def test_proxy_fail_open_flags_uninspected(origin, dead_port):
    fallback = []
    dead = ("127.0.0.1", dead_port)
    with running_proxy(gateway_addr=dead, fail_policy="open",
                       emit_fallback=fallback.append) as px:
        status, _, body = proxy_fetch(px.address, origin_url(origin))
    assert status == 200
    assert body == b"origin fixture body"
    assert len(fallback) == 1
    assert fallback[0].markers["wire.uninspected"] == "true"
    assert fallback[0].exchange.body == b"origin fixture body"


def test_proxy_rejects_unknown_fail_policy(dead_port):
    with pytest.raises(ValueError):
        ProxyServer(gateway_addr=("127.0.0.1", dead_port), fail_policy="retry",
                    emit_fallback=[].append)


def test_proxy_gateway_enforce_rewrites_client_response(origin):
    emitted = []
    with running_proxy(mode="enforce", emit=lambda e: emitted.append(e) or _Verdict(True)) as px:
        status, headers, body = proxy_fetch(px.address, origin_url(origin))
    assert status == 200
    assert body == WARNING_PAGE
    assert headers["x-websift-blocked"] == "malware"
    # the stored exchange keeps the unmodified origin body
    assert len(emitted) == 1
    assert emitted[0].exchange.body == b"origin fixture body"


def test_proxy_gateway_enforce_leaves_benign_untouched(origin):
    with running_proxy(mode="enforce", emit=lambda e: _Verdict(False)) as px:
        status, _, body = proxy_fetch(px.address, origin_url(origin))
    assert status == 200
    assert body == b"origin fixture body"


def test_proxy_exchanges_share_one_gateway_connection(origin, monkeypatch):
    monkeypatch.setattr(wire, "_Connection", _CountingConnection)
    monkeypatch.setattr(_CountingConnection, "opened", 0)
    emitted = []
    with running_proxy(emit=emitted.append) as px:
        monkeypatch.setattr(_CountingConnection, "counted", px.gateway_addr)  # not origin fetches
        for _ in range(3):
            status, _, _ = proxy_fetch(px.address, origin_url(origin))
            assert status == 200
    assert len(emitted) == 3
    assert _CountingConnection.opened == 1


def test_proxy_reads_a_pooled_gateway_connection_under_a_fresh_deadline(origin, monkeypatch):
    monkeypatch.setattr(wire, "ICAP_IDLE_TIMEOUT", 3.0)  # the gateway keeps the idle connection
    monkeypatch.setattr(wire, "_Connection", _CountingConnection)
    monkeypatch.setattr(_CountingConnection, "opened", 0)
    monkeypatch.setattr(wire, "PROXY_TIMEOUT", 0.3)
    emitted = []
    with running_proxy(emit=emitted.append) as px:
        monkeypatch.setattr(_CountingConnection, "counted", px.gateway_addr)  # not origin fetches
        first, _, _ = proxy_fetch(px.address, origin_url(origin))
        time.sleep(2.0)  # idle past one 6 x 0.3 s deadline
        second, _, _ = proxy_fetch(px.address, origin_url(origin))
    assert (first, second) == (200, 200)
    assert len(emitted) == 2
    assert _CountingConnection.opened == 1


def test_proxy_drops_a_silent_client_after_its_timeout(monkeypatch):
    monkeypatch.setattr(wire, "PROXY_TIMEOUT", 0.2)
    with running_proxy() as px:
        with socket.create_connection(px.address, timeout=10) as sock:
            started = time.monotonic()
            assert sock.recv(1) == b""
            assert time.monotonic() - started < 5


# --- persistent client connections ---

def count_accepted(monkeypatch, server) -> list:
    """Connections `server` accepts from now on, by client address."""
    accepted = []
    accept = server._server.process_request

    def counting(request, client_address):
        accepted.append(client_address)
        accept(request, client_address)

    monkeypatch.setattr(server._server, "process_request", counting)
    return accepted


def record_handlers(monkeypatch, px) -> list:
    """Threads that run the proxy's request handler, one per connection."""
    threads = []
    handle = px._handle

    def traced(rfile, wfile):
        if threading.current_thread() not in threads:
            threads.append(threading.current_thread())
        return handle(rfile, wfile)

    monkeypatch.setattr(px, "_handle", traced)
    return threads


def read_reply(rfile) -> tuple[HttpResponse, bytes]:
    response, body, _ = wire._read_response(rfile, 1 << 20)
    return response, body


def closed_by_peer(rfile) -> bool:
    """True once the peer has closed: end of file, or a reset for bytes it left unread."""
    try:
        return rfile.read(1) == b""
    except ConnectionResetError:
        return True


def test_proxy_serves_several_requests_on_one_client_connection(origin, monkeypatch):
    emitted = []
    urls = [origin_url(origin, "/p0"), origin_url(origin, "/echobody"), origin_url(origin, "/p2")]
    with running_proxy(emit=emitted.append) as px:
        accepted = count_accepted(monkeypatch, px)
        with socket.create_connection(px.address, timeout=10) as sock, \
                sock.makefile("rb") as rfile:
            replies = []
            for method, url, body in zip(["GET", "POST", "GET"], urls, [b"", b"a=1", b""]):
                length = f"Content-Length: {len(body)}\r\n" if body else ""
                sock.sendall(f"{method} {url} HTTP/1.1\r\n{length}\r\n".encode() + body)
                replies.append(read_reply(rfile))
    assert [(r.status, r.header("Connection"), body) for r, body in replies] == [
        (200, None, b"origin fixture body"), (200, None, b"a=1"),
        (200, None, b"origin fixture body")]
    assert [e.exchange.request.url for e in emitted] == urls
    assert len(accepted) == 1


class _ReqmodOnlyHandler(socketserver.StreamRequestHandler):
    """ICAP peer that answers REQMOD and hangs up on any other message."""

    def handle(self):
        while self.rfile.peek(1) and parse_icap(self.rfile).method == "REQMOD":
            self.wfile.write(IcapResponse(204, "No modifications").to_bytes())


@contextlib.contextmanager
def reqmod_only_peer():
    peer = _ClosingPeer(0)
    peer.RequestHandlerClass = _ReqmodOnlyHandler
    thread = threading.Thread(target=peer.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield peer
    finally:
        peer.shutdown()
        peer.server_close()


# first request ({url} is the origin's, {dead} a refusing port), proxy settings (a
# "gateway" kind or a wire constant), status
CLOSING_REQUESTS = {
    "http-1.0": ("GET {url} HTTP/1.0\r\n\r\n", {}, 200),
    "connection-close": ("GET {url} HTTP/1.1\r\nConnection: close\r\n\r\n", {}, 200),
    "close-among-tokens": ("GET {url} HTTP/1.1\r\nConnection: keep-alive, Close\r\n\r\n",
                           {}, 200),
    # the smuggled request is read as a chunk-size line, which it is not
    "transfer-encoding": ("POST {url} HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                          {}, 400),
    # the body is not read, so the smuggled request sits in its unread rest
    "body-over-max-body": ("POST {url} HTTP/1.1\r\n"
                           "Content-Length: 200\r\n\r\n" + "x" * 16, {"PROXY_MAX_BODY": 16}, 413),
    "400-bad-request-line": ("NONSENSE\r\n\r\n", {}, 400),
    "400-bad-content-length": ("GET {url} HTTP/1.1\r\nContent-Length: 1x\r\n\r\n", {}, 400),
    "400-relative-target": ("GET /relative HTTP/1.1\r\n\r\n", {}, 400),
    "400-bad-target": ("GET http://a.test:99999/ HTTP/1.1\r\n\r\n", {}, 400),
    "405-connect": ("CONNECT a.test:443 HTTP/1.1\r\n\r\n", {}, 405),
    "502-reqmod-fails-closed": ("GET {url} HTTP/1.1\r\n\r\n", {"gateway": "dead"}, 502),
    "502-respmod-fails-closed": ("GET {url} HTTP/1.1\r\n\r\n", {"gateway": "reqmod-only"},
                                 502),
}


@pytest.mark.parametrize("case", list(CLOSING_REQUESTS))
def test_proxy_closes_after_a_request_it_must_not_keep_reading(origin, dead_port, monkeypatch,
                                                               case):
    first, settings, status = CLOSING_REQUESTS[case]
    settings = dict(settings)
    smuggled = f"GET {origin_url(origin, '/smuggled')} HTTP/1.1\r\n\r\n"
    with contextlib.ExitStack() as stack:
        gateway, gateway_addr = settings.pop("gateway", None), None
        if gateway == "dead":
            gateway_addr = ("127.0.0.1", dead_port)
        elif gateway == "reqmod-only":
            gateway_addr = stack.enter_context(reqmod_only_peer()).server_address
        for name, value in settings.items():
            monkeypatch.setattr(wire, name, value)
        px = stack.enter_context(running_proxy(gateway_addr=gateway_addr))
        sock = stack.enter_context(socket.create_connection(px.address, timeout=10))
        rfile = stack.enter_context(sock.makefile("rb"))
        first = first.format(url=origin_url(origin), dead=dead_port)
        sock.sendall((first + smuggled).encode("latin-1"))
        response, _ = read_reply(rfile)
        assert response.status == status
        assert response.header("Connection") == "close"
        assert closed_by_peer(rfile)
    assert "/smuggled" not in [path for _, path, _, _ in origin.seen]


def test_proxy_stop_ends_an_idle_persistent_client_at_once(origin, monkeypatch):
    with running_proxy() as px, socket.create_connection(px.address, timeout=10) as sock, \
            sock.makefile("rb") as rfile:
        handlers = record_handlers(monkeypatch, px)
        sock.sendall(f"GET {origin_url(origin)} HTTP/1.1\r\n\r\n".encode())
        assert read_reply(rfile)[0].status == 200
        started = time.monotonic()
        px.stop()  # its 10 s timeout would hold the client
        assert time.monotonic() - started < 1
        assert closed_by_peer(rfile)
    assert len(handlers) == 1 and not handlers[0].is_alive()


def test_proxy_stop_lets_a_request_in_progress_finish(monkeypatch):
    # an origin that answers only once stop() has begun
    release = threading.Event()
    with socket.create_server(("127.0.0.1", 0)) as slow_origin:
        def answer():
            conn, _ = slow_origin.accept()
            with conn:
                conn.recv(4096)
                release.wait(10)
                conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nlate")

        origin_thread = threading.Thread(target=answer)
        origin_thread.start()
        host, port = slow_origin.getsockname()
        with running_proxy() as px, socket.create_connection(px.address, timeout=10) as sock, \
                sock.makefile("rb") as rfile:
            sock.sendall(f"GET http://{host}:{port}/ HTTP/1.1\r\n\r\n".encode())
            time.sleep(0.2)  # the request is read and waits on the origin
            stopper = threading.Thread(target=px.stop)
            stopper.start()
            time.sleep(0.2)
            release.set()
            response, body = read_reply(rfile)
            stopper.join(timeout=10)
            origin_thread.join(timeout=10)
            assert (response.status, body) == (200, b"late")
            assert closed_by_peer(rfile)
    assert not stopper.is_alive() and not origin_thread.is_alive()


def test_proxy_stop_gives_up_on_an_origin_that_trickles_its_body(monkeypatch):
    # one body byte per 0.1 s never trips the proxy's 0.5 s per-read bound
    done = threading.Event()
    with socket.create_server(("127.0.0.1", 0)) as slow_origin, contextlib.ExitStack() as stack:
        def trickle():
            conn, _ = slow_origin.accept()
            with conn:
                conn.recv(4096)
                conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 100000\r\n\r\n")
                while not done.wait(0.1):
                    conn.sendall(b"x")

        origin_thread = threading.Thread(target=trickle)
        origin_thread.start()
        monkeypatch.setattr(wire, "PROXY_TIMEOUT", 0.5)
        px = stack.enter_context(running_proxy())
        handlers = record_handlers(monkeypatch, px)
        host, port = slow_origin.getsockname()
        stopper = threading.Thread(target=px.stop)
        try:
            with socket.create_connection(px.address, timeout=10) as sock:
                sock.sendall(f"GET http://{host}:{port}/ HTTP/1.1\r\n\r\n".encode())
                time.sleep(0.3)  # the handler is reading the trickle
                stopper.start()
                stopper.join(timeout=1.5)
                assert not stopper.is_alive()
                assert len(handlers) == 1 and handlers[0].is_alive()
        finally:
            done.set()
            origin_thread.join(timeout=10)
            if stopper.is_alive():
                stopper.join(timeout=10)
    # the handler left behind ends once the origin hangs up
    handlers[0].join(timeout=10)
    assert not origin_thread.is_alive() and not handlers[0].is_alive()


@pytest.mark.parametrize("server", [ProxyServer, IcapGateway])
def test_stop_before_start_closes_the_listening_socket(server, dead_port):
    callbacks = {ProxyServer: {"gateway_addr": ("127.0.0.1", dead_port), "fail_policy": "closed",
                               "emit_fallback": [].append},
                 IcapGateway: {"emit": [].append}}
    unstarted = server(host="127.0.0.1", port=0, **callbacks[server])
    stopper = threading.Thread(target=unstarted.stop, daemon=True)
    stopper.start()
    stopper.join(timeout=3)
    assert not stopper.is_alive()
    assert unstarted._server.socket.fileno() == -1


def test_proxy_answers_a_body_over_max_body_with_413_at_once(origin, monkeypatch):
    transacts = []
    real_transact = wire.icap_transact
    monkeypatch.setattr(wire, "icap_transact",
                        lambda *a, **kw: transacts.append(a) or real_transact(*a, **kw))
    monkeypatch.setattr(wire, "PROXY_MAX_BODY", 16)
    emitted = []
    with running_proxy(emit=emitted.append) as px, \
            socket.create_connection(px.address, timeout=10) as sock, \
            sock.makefile("rb") as rfile:
        started = time.monotonic()
        sock.sendall(f"POST {origin_url(origin, '/echobody')} HTTP/1.1\r\n"
                     "Content-Length: 200\r\n\r\n".encode() + b"x" * 16)
        response, body = read_reply(rfile)
        assert time.monotonic() - started < 2  # the proxy's timeout is 10 s
        assert (response.status, response.header("Connection")) == (413, "close")
        assert b"exceeds 16" in body
        assert closed_by_peer(rfile)
    assert origin.seen == [] and transacts == [] and emitted == []


def test_proxy_answers_a_request_body_cut_short_with_400_at_once(origin, monkeypatch):
    transacts = []
    real_transact = wire.icap_transact
    monkeypatch.setattr(wire, "icap_transact",
                        lambda *a, **kw: transacts.append(a) or real_transact(*a, **kw))
    emitted = []
    with running_proxy(emit=emitted.append) as px, \
            socket.create_connection(px.address, timeout=30) as sock, \
            sock.makefile("rb") as rfile:
        started = time.monotonic()
        sock.sendall(f"POST {origin_url(origin, '/echobody')} HTTP/1.1\r\n"
                     "Content-Length: 100\r\n\r\n".encode() + b"x" * 10)
        sock.shutdown(socket.SHUT_WR)
        response, body = read_reply(rfile)
        assert time.monotonic() - started < 2  # the proxy's timeout is 10 s
        assert (response.status, response.header("Connection")) == (400, "close")
        assert b"cut short at 10 of 100 bytes" in body
        assert closed_by_peer(rfile)
    assert origin.seen == [] and transacts == [] and emitted == []


# request framing headers and body, wire constants, status (RFC 9112 §6.1, §6.3)
UNREADABLE_BODIES = {
    "chunked-and-content-length": (
        "Transfer-Encoding: chunked\r\nContent-Length: 5\r\n", "5\r\nhello\r\n0\r\n\r\n",
        {}, 400),
    "chunked-not-last": ("Transfer-Encoding: chunked, gzip\r\n", "", {}, 400),
    "coding-without-chunked": ("Transfer-Encoding: gzip\r\n", "", {}, 400),
    "empty-coding": ("Transfer-Encoding: \r\n", "", {}, 400),
    "gzip-then-chunked": ("Transfer-Encoding: gzip, chunked\r\n", "0\r\n\r\n", {}, 501),
    "two-headers": ("Transfer-Encoding: gzip\r\nTransfer-Encoding: chunked\r\n",
                    "0\r\n\r\n", {}, 501),
    "bad-chunk-size": ("Transfer-Encoding: chunked\r\n", "0x5\r\nhello\r\n0\r\n\r\n",
                       {}, 400),
    "chunks-over-max-body": ("Transfer-Encoding: chunked\r\n",
                             "a\r\n0123456789\r\na\r\n0123456789\r\n0\r\n\r\n",
                             {"PROXY_MAX_BODY": 16}, 413),
}


@pytest.mark.parametrize("case", list(UNREADABLE_BODIES))
def test_proxy_refuses_a_request_body_it_cannot_read_before_any_inspection(
        origin, monkeypatch, case):
    framing, body, settings, status = UNREADABLE_BODIES[case]
    transacts = []
    real_transact = wire.icap_transact
    monkeypatch.setattr(wire, "icap_transact",
                        lambda *a, **kw: transacts.append(a) or real_transact(*a, **kw))
    for name, value in settings.items():
        monkeypatch.setattr(wire, name, value)
    emitted = []
    with running_proxy(emit=emitted.append) as px, \
            socket.create_connection(px.address, timeout=10) as sock, \
            sock.makefile("rb") as rfile:
        sock.sendall(f"POST {origin_url(origin, '/echobody')} HTTP/1.1\r\n{framing}\r\n"
                     f"{body}".encode())
        response, _ = read_reply(rfile)
        assert (response.status, response.header("Connection")) == (status, "close")
        assert closed_by_peer(rfile)
    assert origin.seen == [] and transacts == [] and emitted == []


def test_proxy_passes_a_chunked_request_body_on_with_its_length(origin):
    emitted = []
    with running_proxy(emit=emitted.append) as px, \
            socket.create_connection(px.address, timeout=10) as sock, \
            sock.makefile("rb") as rfile:
        sock.sendall(f"POST {origin_url(origin, '/echobody')} HTTP/1.1\r\n"
                     "Transfer-Encoding: chunked\r\n\r\n"
                     "5\r\nhello\r\n6;ext=1\r\n world\r\n0\r\nTrailer: x\r\n\r\n".encode())
        response, body = read_reply(rfile)
        assert (response.status, body) == (200, b"hello world")
        # the connection stays open for the next request
        sock.sendall(f"GET {origin_url(origin, '/p1')} HTTP/1.1\r\n\r\n".encode())
        assert read_reply(rfile)[0].status == 200
    request = emitted[0].exchange.request
    assert ("Content-Length", "11") in request.headers
    assert request.header("Transfer-Encoding") is None
    assert emitted[0].request_body == b"hello world"


# one table for both servers that read request bodies, the proxy and the synthetic
# site: framing headers, the body sent before the client ends its side, and the status
# each must answer with, both caps at 16 bytes (RFC 9112 §6.1, §6.3)
REQUEST_FRAMINGS = {
    "both-framing-headers": ("Transfer-Encoding: chunked\r\nContent-Length: 3\r\n",
                             "3\r\nabc\r\n0\r\n\r\n", 400),
    "gzip-then-chunked": ("Transfer-Encoding: gzip, chunked\r\n", "3\r\nabc\r\n0\r\n\r\n", 501),
    "gzip-alone": ("Transfer-Encoding: gzip\r\n", "abc", 400),
    "bad-chunk-size": ("Transfer-Encoding: chunked\r\n", "0x3\r\nabc\r\n0\r\n\r\n", 400),
    "bad-content-length": ("Content-Length: 3x\r\n", "abc", 400),
    "differing-content-lengths": ("Content-Length: 3\r\nContent-Length: 4\r\n", "abcd", 400),
    "body-cut-short": ("Content-Length: 12\r\n", "user=ab", 400),
    "length-over-cap": ("Content-Length: 200\r\n", "x" * 16, 413),
    "chunks-over-cap": ("Transfer-Encoding: chunked\r\n",
                        "a\r\n0123456789\r\na\r\n0123456789\r\n0\r\n\r\n", 413),
}


@contextlib.contextmanager
def running_site():
    site = SynthWebServer({"pages": [{"path": "/a"}]}).start()
    try:
        yield site
    finally:
        site.stop()


def post_status(addr, url: str, framing: str, body: bytes) -> int:
    """The status answering a POST of `body` to `url` at `addr`, sent before a half-close."""
    with socket.create_connection(addr, timeout=10) as sock, sock.makefile("rb") as rfile:
        sock.sendall(f"POST {url} HTTP/1.1\r\nHost: site.test\r\n{framing}\r\n".encode()
                     + body)
        sock.shutdown(socket.SHUT_WR)
        return read_reply(rfile)[0].status


@pytest.mark.parametrize("case", list(REQUEST_FRAMINGS))
def test_proxy_and_site_refuse_a_request_framing_alike(monkeypatch, case):
    framing, body, status = REQUEST_FRAMINGS[case]
    monkeypatch.setattr(wire, "PROXY_MAX_BODY", 16)
    monkeypatch.setattr(wire, "MAX_BODY_SIZE", 16)
    transacts = []
    real_transact = wire.icap_transact
    monkeypatch.setattr(wire, "icap_transact",
                        lambda *a, **kw: transacts.append(a) or real_transact(*a, **kw))
    with running_site() as site, running_proxy() as px:
        # the site is the proxy's origin too, so its ledger shows any origin request
        got = [post_status(server.address, site.base_url + "/a", framing, body.encode())
               for server in (px, site)]
        assert got == [status, status]
        assert site.ledger() == []
    assert transacts == []


def test_proxy_and_site_answer_any_request_framing_alike(monkeypatch):
    monkeypatch.setattr(wire, "PROXY_MAX_BODY", 16)
    monkeypatch.setattr(wire, "MAX_BODY_SIZE", 16)
    with running_site() as site, running_proxy() as px:
        url = site.base_url + "/a"

        @settings(max_examples=60, deadline=None)
        @given(st.lists(st.sampled_from([
                   "Transfer-Encoding: chunked", "Transfer-Encoding: gzip",
                   "Transfer-Encoding: gzip, chunked", "Transfer-Encoding: chunked, gzip",
                   "Transfer-Encoding: identity", "Transfer-Encoding: ", "Content-Length: 0",
                   "Content-Length: 5", "Content-Length: 20", "Content-Length: 5x"]),
                   max_size=3),
               st.sampled_from([b"abcde", b"5\r\nabcde\r\n0\r\n\r\n", b"x" * 20,
                                b"14\r\n" + b"x" * 20 + b"\r\n0\r\n\r\n"]),
               st.integers(min_value=0, max_value=30))
        def check(framing, body, cut):
            # a request both servers take goes on through the proxy to the site: 200 twice
            lines = "".join(line + "\r\n" for line in framing)
            assert (post_status(px.address, url, lines, body[:cut])
                    == post_status(site.address, url, lines, body[:cut]))

        check()


def test_proxy_answers_an_origin_that_closes_at_once_with_502():
    emitted = []
    with socket.create_server(("127.0.0.1", 0)) as origin_sock, \
            running_proxy(emit=emitted.append) as px:
        origin_sock.settimeout(10)
        hang_up = threading.Thread(target=lambda: origin_sock.accept()[0].close())
        hang_up.start()
        host, port = origin_sock.getsockname()
        status, _, _ = proxy_fetch(px.address, f"http://{host}:{port}/x")
        hang_up.join(timeout=10)
    assert not hang_up.is_alive()
    assert status == 502
    assert "wire.fetch_error" in emitted[0].markers


def test_proxy_relays_an_origin_that_answers_and_resets_with_its_address():
    # the origin leaves most of the request unread, so its close is a reset, which
    # ends the socket before the proxy reads the answer queued ahead of it
    emitted = []
    with socket.create_server(("127.0.0.1", 0)) as origin_sock, \
            running_proxy(emit=emitted.append) as px:
        origin_sock.settimeout(10)

        def answer_unread():
            conn, _ = origin_sock.accept()
            with conn:
                conn.recv(10)
                conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")

        origin = threading.Thread(target=answer_unread)
        origin.start()
        host, port = origin_sock.getsockname()
        status, _, body = proxy_fetch(px.address, f"http://{host}:{port}/x")
        origin.join(timeout=10)
    assert not origin.is_alive()
    assert (status, body) == (200, b"ok")
    assert emitted[0].markers["wire.upstream_ip"] == "127.0.0.1"


@contextlib.contextmanager
def trickling_peer(head: bytes, every: float = 0.1, seconds: float = 30.0):
    """A one-connection server that sends `head` whole, then one "x" per `every` s
    for at most `seconds`, then hangs up."""
    done = threading.Event()
    with socket.create_server(("127.0.0.1", 0)) as server:
        def trickle():
            try:
                conn, _ = server.accept()
                with conn:
                    conn.recv(4096)
                    conn.sendall(head)
                    stop = time.monotonic() + seconds
                    while not done.wait(every) and time.monotonic() < stop:
                        conn.sendall(b"x")
            except OSError:
                pass  # nobody connected within the timeout, or the reader gave up

        server.settimeout(10)
        thread = threading.Thread(target=trickle)
        thread.start()
        try:
            yield server.getsockname()
        finally:
            done.set()
            thread.join(timeout=10)


TRICKLES = {
    "body": b"HTTP/1.1 200 OK\r\nContent-Length: 100000\r\n\r\n",
    "chunk": b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n186a0\r\n",
    "head": b"HTTP/1.1 200 OK\r\nX-Slow: ",
}


@pytest.mark.parametrize("part", list(TRICKLES))
def test_proxy_gives_up_on_an_origin_that_trickles_past_the_deadline(part, monkeypatch):
    # one byte per 0.1 s never trips the 0.3 s per-read bound
    monkeypatch.setattr(wire, "PROXY_TIMEOUT", 0.3)
    emitted = []
    with trickling_peer(TRICKLES[part]) as (host, port), \
            running_proxy(emit=emitted.append) as px:
        started = time.monotonic()
        status, _, body = proxy_fetch(px.address, f"http://{host}:{port}/")
        took = time.monotonic() - started
    allowed = wire.RESPONSE_DEADLINE_TIMEOUTS * 0.3
    assert allowed - 0.1 < took < allowed + 1.5
    assert status == 502
    assert b"not complete within 1.8 s" in body
    assert "not complete within" in emitted[0].markers["wire.fetch_error"]


@pytest.mark.parametrize("method,status", [("HEAD", 200), ("GET", 204), ("GET", 304)])
def test_proxy_ends_a_bodiless_response_at_its_head(method, status, monkeypatch):
    # the origin declares a length it never sends and keeps the connection open
    head = b"HTTP/1.1 %d X\r\nContent-Length: 100\r\n\r\n" % status
    monkeypatch.setattr(wire, "PROXY_TIMEOUT", 0.5)
    with trickling_peer(head, every=30) as (host, port), running_proxy() as px:
        got, _, body = proxy_fetch(px.address, f"http://{host}:{port}/", method=method)
    assert (got, body) == (status, b"")


@pytest.mark.parametrize("inspected", [False, True])
@pytest.mark.parametrize("method,status,origin_length,relayed", [
    ("HEAD", 200, b"1234", "1234"), ("GET", 304, b"1234", "1234"),
    ("HEAD", 200, None, None), ("GET", 204, b"0", None), ("GET", 204, None, None)])
def test_proxy_relays_the_length_of_a_bodiless_response(method, status, origin_length,
                                                        relayed, inspected, dead_port,
                                                        monkeypatch):
    # RFC 9110 §8.6: a HEAD or 304 response keeps the length a GET would get,
    # and a 204 carries none; uninspected, the proxy fails open past a dead gateway
    monkeypatch.setattr(wire, "PROXY_TIMEOUT", 0.5)
    head = b"HTTP/1.1 %d X\r\n" % status
    if origin_length is not None:
        head += b"Content-Length: " + origin_length + b"\r\n"
    emitted = []
    proxy = {} if inspected else {"gateway_addr": ("127.0.0.1", dead_port), "fail_policy": "open"}
    with trickling_peer(head + b"\r\n", every=30) as (host, port), \
            running_proxy(emit=emitted.append, **proxy) as px:
        got, received, body = proxy_fetch(px.address, f"http://{host}:{port}/", method=method)
    assert (got, received.get("content-length"), body) == (status, relayed, b"")
    assert [e.markers.get("wire.uninspected") for e in emitted] == [None if inspected else "true"]


def test_client_response_bytes_of_a_head_response_keep_its_length():
    response = HttpResponse(200, "", [("Content-Length", "1234"), ("content-length", "9")])
    assert wire._client_response_bytes(response, b"", head_only=True) == (
        b"HTTP/1.1 200 OK\r\nContent-Length: 1234\r\nConnection: close\r\n\r\n")
    assert wire._client_response_bytes(HttpResponse(204, "No Content", []), b"") == (
        b"HTTP/1.1 204 No Content\r\nConnection: close\r\n\r\n")


def test_icap_client_gives_up_on_a_gateway_that_trickles_past_the_deadline():
    # one byte per 0.1 s never trips the 0.3 s per-read bound; without a
    # deadline the client waits until the peer hangs up after 4 s
    with trickling_peer(b"ICAP/1.0 204 No modifications\r\nX-Slow: ", seconds=4.0) as addr:
        started = time.monotonic()
        with pytest.raises(TimeoutError, match="not complete within 1.8 s"):
            icap_transact(addr, OPTIONS_RAW, timeout=0.3)
        took = time.monotonic() - started
    assert took < wire.RESPONSE_DEADLINE_TIMEOUTS * 0.3 + 1.0


def test_gateway_closes_a_peer_that_trickles_its_message_past_the_deadline(monkeypatch):
    # one byte per 0.1 s never trips the 0.3 s per-read bound
    monkeypatch.setattr(wire, "ICAP_IDLE_TIMEOUT", 0.3)
    done = threading.Event()

    def trickle(sock):
        try:
            sock.sendall(b"OPTIONS icap://g/x ICAP/1.0\r\nX-Slow: ")
            while not done.wait(0.1):
                sock.sendall(b"x")
        except OSError:
            pass  # the gateway closed the connection

    with running_gateway() as gw, socket.create_connection(gw.address, timeout=10) as sock:
        sender = threading.Thread(target=trickle, args=(sock,))
        sender.start()
        try:
            time.sleep(2.5)  # the deadline is 6 x 0.3 s from the wait for the message
            assert not gw._server._open
        finally:
            done.set()
            sender.join(timeout=10)
        assert not sender.is_alive()


def test_proxy_closes_a_client_that_trickles_its_request_past_the_deadline(monkeypatch):
    # one byte per 0.1 s never trips the 0.3 s per-read bound
    done = threading.Event()

    def trickle(sock):
        try:
            sock.sendall(b"GET http://a.test/")
            while not done.wait(0.1):
                sock.sendall(b"x")
        except OSError:
            pass  # the proxy closed the connection

    monkeypatch.setattr(wire, "PROXY_TIMEOUT", 0.3)
    with running_proxy() as px:
        handlers = record_handlers(monkeypatch, px)
        with socket.create_connection(px.address, timeout=10) as sock:
            sender = threading.Thread(target=trickle, args=(sock,))
            sender.start()
            try:
                time.sleep(2.5)  # the deadline is 6 x 0.3 s from the first read
                assert len(handlers) == 1
                assert not px._server._open and not handlers[0].is_alive()
            finally:
                done.set()
                sender.join(timeout=10)
            assert not sender.is_alive()


def test_gateway_gives_each_message_on_a_connection_a_deadline_of_its_own(monkeypatch):
    monkeypatch.setattr(wire, "ICAP_IDLE_TIMEOUT", 0.3)
    with running_gateway() as gw, socket.create_connection(gw.address, timeout=10) as sock, \
            sock.makefile("rb") as rfile:
        statuses = []
        for _ in range(8):
            time.sleep(0.25)  # 8 messages take 2 s, past one 6 x 0.3 s deadline
            sock.sendall(OPTIONS_RAW)
            statuses.append(parse_icap_response(rfile).status)
    assert statuses == [200] * 8


def test_proxy_gives_each_request_on_a_connection_a_deadline_of_its_own(origin, monkeypatch):
    monkeypatch.setattr(wire, "PROXY_TIMEOUT", 0.3)
    with running_proxy() as px, \
            socket.create_connection(px.address, timeout=10) as sock, \
            sock.makefile("rb") as rfile:
        statuses = []
        for _ in range(8):
            time.sleep(0.25)  # 8 requests take 2 s, past one 6 x 0.3 s deadline
            sock.sendall(f"GET {origin_url(origin)} HTTP/1.1\r\n\r\n".encode())
            statuses.append(read_reply(rfile)[0].status)
    assert statuses == [200] * 8


def test_deadline_reader_puts_back_the_timeout_it_lowered():
    left, right = socket.socketpair()
    with left, right:
        left.settimeout(0.3)
        reader = io.BufferedReader(wire._DeadlineReader(left))
        right.sendall(b"ab")
        time.sleep(1.6)  # 0.2 s of the 1.8 s deadline is left
        assert reader.read(2) == b"ab" and left.gettimeout() == 0.3
        with pytest.raises(TimeoutError):
            reader.read(1)
        assert left.gettimeout() == 0.3


def test_deadline_reader_reads_what_a_plain_reader_reads():
    raw = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nX-A: 1\r\n\r\n"
           + b"".join(b"%x\r\n%s\r\n" % (n, b"y" * n) for n in (1, 70000, 3)) + b"0\r\n\r\n")
    left, right = socket.socketpair()
    with left, right:
        sender = threading.Thread(target=lambda: [right.sendall(raw[i:i + 997])
                                                  for i in range(0, len(raw), 997)])
        sender.start()
        left.settimeout(5)
        with io.BufferedReader(wire._DeadlineReader(left)) as rfile:
            got = wire._read_response(rfile, 1 << 20)
        sender.join(timeout=10)
        assert not sender.is_alive()
    want = wire._read_response(io.BytesIO(raw), 1 << 20)
    assert (got[0].headers, got[1:]) == (want[0].headers, want[1:])
    assert len(got[1]) == 70004


# --- framing limits: bounded reads, strict lengths, a bounded REQMOD table ---

class _BoundedSource(io.BytesIO):
    """A socket file that fails any read larger than the framing limits allow."""

    def read(self, n=-1):
        assert 0 <= n <= wire.READ_PIECE, f"asked to read {n} bytes"
        return super().read(n)

    def readline(self, limit=-1):
        assert 0 <= limit <= wire.MAX_LINE + 1, f"asked for a {limit}-byte line"
        return super().readline(limit)

    def peek(self, n=1):
        return self.getvalue()[self.tell():]


MIB_LINE = b"a" * (1 << 20)


def test_icap_reader_refuses_a_line_without_crlf():
    with pytest.raises(IcapParseError):
        parse_icap(_BoundedSource(MIB_LINE))
    with pytest.raises(IcapParseError):
        parse_icap(_BoundedSource(b"OPTIONS icap://g/x ICAP/1.0\r\n" + MIB_LINE))


def test_gateway_answers_an_overlong_line_with_400():
    out = io.BytesIO()
    with running_gateway() as gw:
        assert gw._serve_one(_BoundedSource(MIB_LINE), out) is False
    resp = parse_icap_response(io.BytesIO(out.getvalue()))
    assert resp.status == 400
    assert resp.header("Connection") == "close"


def test_http_reader_refuses_a_line_without_crlf():
    with pytest.raises(IcapParseError):
        wire._read_response(_BoundedSource(b"HTTP/1.1 200 OK\r\nX: " + MIB_LINE), 1 << 20)


def test_heads_are_capped_in_total(monkeypatch):
    monkeypatch.setattr(wire, "MAX_HEAD_SIZE", 1000)
    head = b"HTTP/1.1 200 OK\r\n" + b"X-Fill: 0123456789\r\n" * 60 + b"\r\n"
    with pytest.raises(IcapParseError):
        wire._read_head(_BoundedSource(head))


def test_proxy_answers_an_overlong_request_line_with_400():
    out = io.BytesIO()
    with running_proxy() as px:
        px._handle(_BoundedSource(b"GET http://a.test/" + MIB_LINE), out)
    assert out.getvalue().startswith(b"HTTP/1.1 400 Bad Request\r\n")


def test_proxy_turns_an_overlong_origin_line_into_a_fetch_error(origin, monkeypatch):
    monkeypatch.setattr(wire, "MAX_LINE", 1024)
    emitted = []
    with running_proxy(emit=emitted.append) as px:
        status, _, _ = proxy_fetch(px.address, origin_url(origin, "/longline"))
    assert status == 502
    assert "line longer than 1024 bytes" in emitted[0].markers["wire.fetch_error"]


def test_origin_content_length_must_be_ascii_digits(origin):
    # "²".isdigit() is true, but int("²") raises
    emitted = []
    with running_proxy(emit=emitted.append) as px:
        status, _, body = proxy_fetch(px.address, origin_url(origin, "/badlength"))
    assert status == 502
    assert b"bad Content-Length" in body
    assert "bad Content-Length" in emitted[0].markers["wire.fetch_error"]


def test_client_content_length_must_be_ascii_digits(origin):
    with running_proxy() as px:
        status, _, body = proxy_fetch(px.address, origin_url(origin),
                                      headers=[("Content-Length", "\xb2")])
    assert status == 400
    assert b"bad Content-Length" in body
    assert origin.seen == []


def test_huge_origin_chunk_is_read_in_pieces_and_truncated():
    framed = b"1000000\r\n" + b"x" * (3 * wire.READ_PIECE)
    cap = 2 * wire.READ_PIECE + 5
    response, entity, truncated = wire._read_response(
        _BoundedSource(CHUNKED_RESPONSE_HEAD + framed), cap)
    assert entity == b"x" * cap
    assert truncated
    assert response.header("Content-Length") == str(cap)
    assert response.header("Transfer-Encoding") is None


def test_proxy_truncates_and_flags_a_huge_origin_chunk(origin, monkeypatch):
    monkeypatch.setattr(wire, "PROXY_MAX_BODY", 64)
    emitted = []
    with running_proxy(emit=emitted.append) as px:
        status, headers, body = proxy_fetch(px.address, origin_url(origin, "/hugechunk"))
    assert status == 200
    assert body == b"x" * 64
    assert headers["content-length"] == "64"
    assert emitted[0].markers["wire.truncated"] == "true"
    assert emitted[0].exchange.body == b"x" * 64


@contextlib.contextmanager
def answering_origin(answer: bytes, heads: list | None = None):
    """A one-connection origin that reads a request head, sends `answer` and hangs up.

    What it read before answering goes on `heads` when that is given.
    """
    with socket.create_server(("127.0.0.1", 0)) as server:
        def serve():
            try:
                conn, _ = server.accept()
            except OSError:
                return  # nobody connected within the timeout
            with conn:
                data = b""
                while b"\r\n\r\n" not in data and (piece := conn.recv(4096)):
                    data += piece
                if heads is not None:
                    heads.append(data)
                conn.sendall(answer)

        server.settimeout(10)
        thread = threading.Thread(target=serve)
        thread.start()
        try:
            yield server.getsockname()
        finally:
            thread.join(timeout=10)


FINAL_OK = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"


@pytest.mark.parametrize("method", ["GET", "HEAD"])
def test_proxy_skips_interim_origin_heads(method):
    # RFC 9110 §15.2: a 1xx is interim, the response that follows is the one relayed
    answer = (b"HTTP/1.1 100 Continue\r\n\r\n"
              b"HTTP/1.1 103 Early Hints\r\nLink: </s.css>\r\n\r\n" + FINAL_OK)
    emitted = []
    with answering_origin(answer) as (host, port), \
            running_proxy(emit=emitted.append) as px:
        status, headers, body = proxy_fetch(px.address, f"http://{host}:{port}/", method=method)
    assert (status, headers["content-length"]) == (200, "2")
    assert body == (b"ok" if method == "GET" else b"")
    exchange = emitted[0].exchange
    assert (exchange.response.status, exchange.response.headers) == (
        200, [("Content-Length", "2")])
    assert exchange.body == (b"ok" if method == "GET" else b"")
    assert "wire.fetch_error" not in emitted[0].markers


@pytest.mark.parametrize("answer,error", [
    (b"HTTP/1.1 101 Switching Protocols\r\nUpgrade: websocket\r\n\r\n" + FINAL_OK,
     "101 Switching Protocols is not relayed"),
    (b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nhello",
     "differing Content-Length values [2, 5]"),
], ids=["101", "differing-lengths"])
def test_proxy_refuses_a_switch_or_differing_origin_lengths(answer, error):
    emitted = []
    with answering_origin(answer) as (host, port), \
            running_proxy(emit=emitted.append) as px:
        status, _, body = proxy_fetch(px.address, f"http://{host}:{port}/")
    assert status == 502
    assert error.encode() in body
    assert error in emitted[0].markers["wire.fetch_error"]


def test_proxy_takes_repeated_origin_lengths_that_agree():
    with answering_origin(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\ncontent-length: 05\r\n"
                          b"\r\nhello") as (host, port), running_proxy() as px:
        status, headers, body = proxy_fetch(px.address, f"http://{host}:{port}/")
    assert (status, headers["content-length"], body) == (200, "5", b"hello")


def test_proxy_drops_the_headers_the_client_connection_header_names():
    # RFC 9110 §7.6.1: a field that Connection names is for the client's hop only
    heads, emitted = [], []
    sent = [("Connection", "X-Trace, Keep-Alive"), ("X-Trace", "1"), ("X-Kept", "2")]
    with answering_origin(FINAL_OK, heads) as (host, port), \
            running_proxy(emit=emitted.append) as px:
        status, _, body = proxy_fetch(px.address, f"http://{host}:{port}/", headers=sent)
    assert (status, body) == (200, b"ok")
    head = heads[0].lower()
    assert b"x-trace" not in head and b"keep-alive" not in head
    assert b"\r\nx-kept: 2\r\n" in head
    stored = emitted[0].exchange.request.headers
    assert all(h in stored for h in sent)


@pytest.mark.parametrize("framing, body", [
    ("Content-Length: 11\r\n", "hello world"),
    ("Transfer-Encoding: chunked\r\n", "5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n"),
], ids=["content-length", "chunked"])
def test_a_connection_header_cannot_drop_the_body_length_sent_to_the_origin(
        origin, framing, body):
    with running_proxy() as px, \
            socket.create_connection(px.address, timeout=10) as sock, \
            sock.makefile("rb") as rfile:
        sock.sendall(f"POST {origin_url(origin, '/echobody')} HTTP/1.1\r\n"
                     f"Connection: Content-Length, close\r\n{framing}\r\n{body}".encode())
        response, echoed = read_reply(rfile)
    assert (response.status, echoed) == (200, b"hello world")
    _, _, received, sent_on = origin.seen[0]
    assert (received.get("content-length"), sent_on) == ("11", b"hello world")


def test_interim_heads_count_against_the_head_cap(monkeypatch):
    monkeypatch.setattr(wire, "MAX_HEAD_SIZE", 100)
    interim = b"HTTP/1.1 100 Continue\r\n\r\n"  # 25 bytes
    response, entity, _ = wire._read_response(io.BytesIO(interim * 4 + FINAL_OK), 1024)
    assert (response.status, entity) == (200, b"ok")
    with pytest.raises(IcapParseError, match="interim heads longer than 100 bytes"):
        wire._read_response(io.BytesIO(interim * 5 + FINAL_OK), 1024)
    with pytest.raises(IcapParseError, match="closed before the status line"):
        wire._read_response(io.BytesIO(interim), 1024)


def test_proxy_answers_a_request_with_differing_lengths_with_400_at_once(origin, monkeypatch):
    transacts = []
    real_transact = wire.icap_transact
    monkeypatch.setattr(wire, "icap_transact",
                        lambda *a, **kw: transacts.append(a) or real_transact(*a, **kw))
    emitted = []
    with running_proxy(emit=emitted.append) as px:
        status, _, body = proxy_fetch(px.address, origin_url(origin, "/echobody"),
                                      headers=[("Content-Length", "2"), ("Content-Length", "5")],
                                      body=b"hello")
    assert status == 400
    assert b"differing Content-Length values [2, 5]" in body
    assert origin.seen == [] and transacts == [] and emitted == []


def test_agent_skips_interim_heads_and_refuses_differing_lengths():
    from websift.agents import proxy_request

    def send(addr):
        try:
            return proxy_request(addr, "POST", "http://site.test/f", [], b"abc")
        except ConnectionError as exc:
            return str(exc)

    _, result = _capture_one_request(b"HTTP/1.1 100 Continue\r\n\r\n" + FINAL_OK, send)
    assert result == (200, [("Content-Length", "2")], b"ok")
    _, result = _capture_one_request(
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nhello", send)
    assert result == "bad proxy response: differing Content-Length values [2, 5]"


@given(st.lists(st.binary(min_size=1, max_size=20), max_size=4),
       st.sampled_from([b"", b";ext=1", b" \t;a;b"]),
       st.sampled_from([b"", b"X-Trail: 1\r\n", b"A: 1\r\nB: 2\r\n"]),
       st.one_of(st.none(), st.integers(min_value=0, max_value=120)))
def test_dechunkers_agree_on_whole_and_cut_bodies(pieces, ext, trailers, cut):
    framed = b"".join(b"%x%s\r\n%s\r\n" % (len(p), ext, p) for p in pieces)
    framed += b"0\r\n" + trailers + b"\r\n"
    if cut is not None:
        framed = framed[:cut]
    results = _dechunk_both_ways(framed)
    assert results == [results[0]] * 2
    if cut is None:
        assert results[0] == b"".join(pieces)


FUZZ_SEEDS = [
    b"",
    OPTIONS_RAW,
    encapsulate(make_exchange(), exchange_id="f1"),
    build_reqmod(HttpRequest("POST", "http://a.test/f", []), b"form=1", exchange_id="f2"),
    b"GET http://a.test/ HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc",
]


def test_live_servers_answer_or_close_whatever_bytes_they_get(monkeypatch):
    monkeypatch.setattr(wire, "ICAP_IDLE_TIMEOUT", 0.5)

    def no_origin(*args):  # a request that parses is never fetched
        raise wire.ProxyError("no origin here")

    monkeypatch.setattr(wire, "_fetch_upstream", no_origin)
    monkeypatch.setattr(wire, "PROXY_TIMEOUT", 0.5)
    # the proxy inspects through a gateway of its own: its pooled connections
    # stay open there
    with running_gateway() as gw, running_proxy() as px:
        servers = {"gateway": gw, "proxy": px}

        @settings(max_examples=100, deadline=None)
        @given(st.sampled_from(list(servers)), st.sampled_from(FUZZ_SEEDS),
               st.integers(min_value=0, max_value=400), st.binary(max_size=40))
        def check(name, seed, cut, noise):
            server = servers[name]
            with socket.create_connection(server.address, timeout=5) as sock:
                try:
                    sock.sendall(seed[:cut] + noise)
                    sock.shutdown(socket.SHUT_WR)
                    while sock.recv(65536):  # an answer, if any, then the close
                        pass
                except ConnectionResetError:
                    pass  # closed with some of our bytes unread
            deadline = time.monotonic() + 2
            while server._server._open and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not server._server._open

        check()


def test_reqmod_table_drops_the_oldest_unmatched_body(monkeypatch):
    monkeypatch.setattr(wire, "REQMOD_TABLE_SIZE", 4)
    emitted = []
    with running_gateway(emit=emitted.append) as gw:
        idle = wire.IdleConnections()
        request = HttpRequest("POST", "http://site.test/f", [])
        for n in range(5):  # no RESPMOD follows, as after a fail-open RESPMOD failure
            icap_transact(gw.address, build_reqmod(request, b"form=%d" % n,
                                                   exchange_id=f"r{n}"), idle=idle)
        assert list(gw.reqmod_bodies) == ["r1", "r2", "r3", "r4"]
        icap_transact(gw.address, encapsulate(make_exchange(), exchange_id="r4"), idle=idle)
        idle.close()
    assert emitted[0].request_body == b"form=4"
    assert len(gw.reqmod_bodies) == 3


def test_reqmod_table_drops_the_oldest_bodies_beyond_max_body_size_in_all(monkeypatch):
    monkeypatch.setattr(wire, "MAX_BODY_SIZE", 10)
    table = wire._ReqmodBodies()
    for n in range(4):  # no RESPMOD follows any of them
        table[f"r{n}"] = b"%d" % n * 4
    assert list(table) == ["r2", "r3"]
    table["r3"] = b"x"  # a resent REQMOD replaces its body
    table["r4"] = b"y" * 5
    assert list(table) == ["r2", "r3", "r4"]
    assert table.pop("r2") == b"2222" and table.pop("r2") is None
    table["r5"] = b"z" * 4
    assert list(table) == ["r3", "r4", "r5"]


def test_reqmod_table_keeps_exactly_its_cap_under_contention(monkeypatch):
    # unlocked, threads evicting at once drop too much or see the dict change size
    monkeypatch.setattr(wire, "REQMOD_TABLE_SIZE", 16)
    table = wire._ReqmodBodies()
    errors = []

    def fill(tag):
        try:
            for n in range(20000):
                table[f"{tag}-{n}"] = b"x"
        except Exception as exc:  # surfaced below; a thread would swallow it
            errors.append(exc)

    threads = [threading.Thread(target=fill, args=(t,)) for t in range(8)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(table) == 16


# --- byte pins: what the framing writers put on the wire ---

PIN_EXCHANGE = HttpExchange(
    request=HttpRequest("POST", "http://site.test/form?q=1",
                        [("Host", "site.test"), ("Content-Length", "3")]),
    response=HttpResponse(200, "OK", [("Content-Type", "text/html"),
                                      ("Content-Encoding", "gzip")]),
    body=b"<html>x</html>", started_at=1_500_000_000_000, agent_id="agent-3",
    seeder_tag="malware")
PIN_EMPTY = HttpExchange(request=HttpRequest("GET", "http://a.test/", []),
                         response=HttpResponse(404, "", []), body=b"")


def test_icap_writers_are_byte_stable():
    assert encapsulate(PIN_EXCHANGE, exchange_id="x1",
                       markers={"wire.truncated": "true", "a": "b"}) == (
        b"RESPMOD icap://gateway/respmod ICAP/1.0\r\nHost: gateway\r\nX-Exchange-Id: x1\r\n"
        b"X-Exchange-Started: 1500000000000\r\nX-Exchange-Agent: agent-3\r\n"
        b"X-Exchange-Seeder: malware\r\nX-Exchange-Marker: a=b\r\n"
        b"X-Exchange-Marker: wire.truncated=true\r\n"
        b"Encapsulated: req-hdr=0, res-hdr=79, res-body=147\r\n\r\n"
        b"POST http://site.test/form?q=1 HTTP/1.1\r\nHost: site.test\r\n"
        b"Content-Length: 3\r\n\r\nHTTP/1.1 200 OK\r\nContent-Type: text/html\r\n"
        b"Content-Encoding: gzip\r\n\r\ne\r\n<html>x</html>\r\n0\r\n\r\n")
    assert encapsulate(PIN_EMPTY) == (
        b"RESPMOD icap://gateway/respmod ICAP/1.0\r\nHost: gateway\r\nX-Exchange-Id: \r\n"
        b"X-Exchange-Started: 0\r\nX-Exchange-Agent: \r\nX-Exchange-Seeder: benign\r\n"
        b"Encapsulated: req-hdr=0, res-hdr=31, null-body=50\r\n\r\n"
        b"GET http://a.test/ HTTP/1.1\r\n\r\nHTTP/1.1 404 OK\r\n\r\n")
    assert build_reqmod(PIN_EXCHANGE.request, b"a=1", exchange_id="x1") == (
        b"REQMOD icap://gateway/reqmod ICAP/1.0\r\nHost: gateway\r\nX-Exchange-Id: x1\r\n"
        b"Encapsulated: req-hdr=0, req-body=79\r\n\r\n"
        b"POST http://site.test/form?q=1 HTTP/1.1\r\nHost: site.test\r\n"
        b"Content-Length: 3\r\n\r\n3\r\na=1\r\n0\r\n\r\n")
    assert build_reqmod(PIN_EMPTY.request) == (
        b"REQMOD icap://gateway/reqmod ICAP/1.0\r\nHost: gateway\r\nX-Exchange-Id: \r\n"
        b"Encapsulated: req-hdr=0, null-body=31\r\n\r\nGET http://a.test/ HTTP/1.1\r\n\r\n")
    assert IcapResponse(204, "No modifications", [("ISTag", '"t"')]).to_bytes() == (
        b'ICAP/1.0 204 No modifications\r\nISTag: "t"\r\nEncapsulated: null-body=0\r\n\r\n')
    assert IcapResponse(200, "OK", [("ISTag", '"t"')],
                        {"res-hdr": b"HTTP/1.1 200 OK\r\n\r\n",
                         "res-body": b"page"}).to_bytes() == (
        b'ICAP/1.0 200 OK\r\nISTag: "t"\r\nEncapsulated: res-hdr=0, res-body=19\r\n\r\n'
        b"HTTP/1.1 200 OK\r\n\r\n4\r\npage\r\n0\r\n\r\n")


def test_client_response_bytes_are_byte_stable():
    response = HttpResponse(200, "", [
        ("Content-Length", "99"), ("Transfer-Encoding", "chunked"),
        ("Connection", "keep-alive"), ("X-A", "1"), ("content-length", "7")])
    assert wire._client_response_bytes(response, b"body") == (
        b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\nX-A: 1\r\nConnection: close\r\n\r\nbody")
    assert wire._client_response_bytes(HttpResponse(502, "Bad Gateway", []), b"") == (
        b"HTTP/1.1 502 Bad Gateway\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")


def _capture_one_request(answer: bytes, send):
    """Bytes a client sends to a one-shot server answering `answer`."""
    got = []
    with socket.create_server(("127.0.0.1", 0)) as server:
        def serve():
            conn, _ = server.accept()
            with conn:
                data = b""
                while not data.endswith(b"\r\n\r\nxy") and not data.endswith(b"\r\n\r\nabc"):
                    data += conn.recv(4096)
                got.append(data)
                conn.sendall(answer)

        thread = threading.Thread(target=serve)
        thread.start()
        result = send(server.getsockname())
        thread.join(timeout=10)
    return got[0], result


def test_agent_request_is_byte_stable():
    from websift.agents import proxy_request
    sent, result = _capture_one_request(
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
        lambda addr: proxy_request(addr, "POST", "http://site.test/f",
                                   [("User-Agent", "ua"), ("Accept", "*/*")], b"abc"))
    assert sent == (b"POST http://site.test/f HTTP/1.1\r\nUser-Agent: ua\r\nAccept: */*\r\n"
                    b"Content-Length: 3\r\nConnection: close\r\n\r\nabc")
    assert result == (200, [("Content-Length", "2")], b"ok")


def test_origin_request_is_byte_stable():
    def fetch(addr):
        request = HttpRequest("POST", f"http://{addr[0]}:{addr[1]}/p?q=1", [
            ("Proxy-Connection", "keep-alive"), ("X-Websift-Agent", "a1"),
            ("Content-Length", "2")])
        return wire._fetch_upstream(request, b"xy", 5, 1 << 20)

    sent, (response, entity, truncated, _) = _capture_one_request(
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nX-B: 2\r\n\r\n2\r\nhi\r\n0\r\n\r\n",
        fetch)
    host = sent.split(b"Host: ")[1].split(b"\r\n")[0]
    assert sent == (b"POST /p?q=1 HTTP/1.1\r\nHost: " + host + b"\r\nX-Websift-Agent: a1\r\n"
                    b"Content-Length: 2\r\nVia: 1.1 websift\r\nConnection: close\r\n\r\nxy")
    assert response.headers == [("X-B", "2"), ("Content-Length", "2")]
    assert (entity, truncated) == (b"hi", False)
