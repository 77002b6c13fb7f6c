"""Body normalization: dechunking, coding chains, bomb guards."""

import gzip
import zlib

import pytest
from hypothesis import given, strategies as st

from websift import contentprep
from websift.contentprep import (
    BOMB_RATIO,
    BodyDecodeError,
    DecodedBody,
    decode_body,
)


def raw_deflate(data: bytes) -> bytes:
    co = zlib.compressobj(9, zlib.DEFLATED, -zlib.MAX_WBITS)
    return co.compress(data) + co.flush()


def chunked(data: bytes, sizes) -> bytes:
    out = bytearray()
    i = 0
    for size in sizes:
        piece = data[i:i + size]
        if not piece:
            break
        out += b"%x\r\n" % len(piece) + piece + b"\r\n"
        i += len(piece)
    if i < len(data):
        out += b"%x\r\n" % len(data[i:]) + data[i:] + b"\r\n"
    out += b"0\r\n\r\n"
    return bytes(out)


BODY = b"<html><body>attack page with some text to compress</body></html>"


# --- plain passthrough ---

def test_no_codings_passthrough():
    got = decode_body(BODY, [("Content-Type", "text/html")])
    assert got.data == BODY
    assert got.applied_codings == []
    assert got.pending_codings == []
    assert not got.truncated


# --- single codings ---

def test_gzip_roundtrip():
    got = decode_body(gzip.compress(BODY), [("Content-Encoding", "gzip")])
    assert got.data == BODY
    assert got.applied_codings == ["gzip"]
    assert not got.truncated


def test_x_gzip_alias():
    got = decode_body(gzip.compress(BODY), [("Content-Encoding", "x-gzip")])
    assert got.data == BODY
    assert got.applied_codings == ["x-gzip"]


def test_deflate_zlib_wrapped():
    got = decode_body(zlib.compress(BODY), [("Content-Encoding", "deflate")])
    assert got.data == BODY
    assert got.applied_codings == ["deflate"]


def test_deflate_raw_stream():
    # some servers send bare deflate without the zlib wrapper
    got = decode_body(raw_deflate(BODY), [("Content-Encoding", "deflate")])
    assert got.data == BODY
    assert got.applied_codings == ["deflate"]


def test_identity_is_a_noop_but_recorded():
    got = decode_body(BODY, [("Content-Encoding", "identity")])
    assert got.data == BODY
    assert got.applied_codings == ["identity"]


# --- chained codings ---

def test_chain_decoded_outermost_first():
    # header order is application order; decode must reverse it
    inner = gzip.compress(BODY)
    outer = zlib.compress(inner)
    got = decode_body(outer, [("Content-Encoding", "gzip, deflate")])
    assert got.data == BODY
    assert got.applied_codings == ["deflate", "gzip"]


def test_multiple_content_encoding_headers_concatenate():
    inner = gzip.compress(BODY)
    outer = zlib.compress(inner)
    got = decode_body(outer, [("Content-Encoding", "gzip"),
                              ("Content-Encoding", "deflate")])
    assert got.data == BODY
    assert got.applied_codings == ["deflate", "gzip"]


def test_transfer_chunked_then_content_gzip():
    wire = chunked(gzip.compress(BODY), [7, 11, 13])
    got = decode_body(wire, [("Transfer-Encoding", "chunked"),
                             ("Content-Encoding", "gzip")])
    assert got.data == BODY
    assert got.applied_codings == ["chunked", "gzip"]


def test_transfer_gzip_then_chunked():
    wire = chunked(gzip.compress(BODY), [16])
    got = decode_body(wire, [("Transfer-Encoding", "gzip, chunked")])
    assert got.data == BODY
    assert got.applied_codings == ["chunked", "gzip"]


def test_chunked_not_last_is_left_pending():
    # "chunked, gzip" is malformed: chunked must come last, so it is not
    # stripped; the gzip layer is still undone
    wire = gzip.compress(BODY)
    got = decode_body(wire, [("Transfer-Encoding", "chunked, gzip")])
    assert got.applied_codings == ["gzip"]
    assert got.pending_codings == ["chunked"]
    assert got.data == BODY


# --- unknown codings ---

def test_unknown_outer_coding_stops_chain_immediately():
    got = decode_body(BODY, [("Content-Encoding", "gzip, br")])
    assert got.applied_codings == []
    assert got.pending_codings == ["br", "gzip"]
    assert got.data == BODY


def test_unknown_inner_coding_after_known_outer():
    # br applied first, gzip on top: gzip comes off, br stays pending
    wire = gzip.compress(BODY)
    got = decode_body(wire, [("Content-Encoding", "br, gzip")])
    assert got.applied_codings == ["gzip"]
    assert got.pending_codings == ["br"]
    assert got.data == BODY


# --- corruption ---

def test_corrupt_gzip_raises_with_coding_name():
    with pytest.raises(BodyDecodeError) as exc:
        decode_body(b"this is not gzip", [("Content-Encoding", "gzip")])
    assert exc.value.coding == "gzip"


def test_incomplete_gzip_stream_is_an_error():
    blob = gzip.compress(BODY)
    with pytest.raises(BodyDecodeError) as exc:
        decode_body(blob[:-5], [("Content-Encoding", "gzip")])
    assert exc.value.coding == "gzip"


def test_empty_body_with_declared_gzip_is_an_error():
    with pytest.raises(BodyDecodeError):
        decode_body(b"", [("Content-Encoding", "gzip")])


# --- bomb guards ---

def test_explicit_cap_truncates_and_flags(monkeypatch):
    monkeypatch.setattr(contentprep, "OUTPUT_CAP", 50)
    blob = gzip.compress(b"\x00" * 100_000)
    got = decode_body(blob, [("Content-Encoding", "gzip")])
    assert got.truncated
    assert len(got.data) == 50
    assert got.applied_codings == ["gzip"]
    assert got.pending_codings == []


def test_bomb_ratio_bounds_expansion():
    blob = gzip.compress(b"\x00" * 1_000_000)
    assert len(blob) * BOMB_RATIO < 1_000_000  # the guard must bind
    got = decode_body(blob, [("Content-Encoding", "gzip")])
    assert got.truncated
    assert len(got.data) == BOMB_RATIO * len(blob)


def test_truncation_leaves_rest_of_chain_pending(monkeypatch):
    monkeypatch.setattr(contentprep, "OUTPUT_CAP", 4096)
    inner = gzip.compress(b"\x00" * 100_000)
    outer = gzip.compress(inner)
    # cap is wide enough for the outer stage, binds on the inner one
    assert len(inner) < 4096
    got = decode_body(outer, [("Content-Encoding", "identity, gzip, gzip")])
    assert got.applied_codings == ["gzip", "gzip"]
    assert got.truncated
    assert got.pending_codings == ["identity"]
    assert len(got.data) == 4096


def test_truncation_at_first_stage_leaves_later_stages_pending(monkeypatch):
    monkeypatch.setattr(contentprep, "OUTPUT_CAP", 64)
    inner = gzip.compress(b"\x00" * 100_000)
    outer = gzip.compress(inner)
    got = decode_body(outer, [("Content-Encoding", "identity, gzip, gzip")])
    assert got.applied_codings == ["gzip"]
    assert got.truncated
    assert got.pending_codings == ["gzip", "identity"]
    assert len(got.data) == 64


def test_normal_pages_stay_under_the_ratio():
    got = decode_body(gzip.compress(BODY), [("Content-Encoding", "gzip")])
    assert not got.truncated
    assert got.data == BODY


# --- chunked framing, undone by the wire module's strict de-chunker ---

CHUNKED = [("Transfer-Encoding", "chunked")]


def dechunk(raw: bytes) -> bytes:
    return decode_body(raw, CHUNKED).data


def test_dechunk_basic():
    assert dechunk(b"4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n") == b"Wikipedia"


def test_dechunk_ignores_chunk_extensions():
    assert dechunk(b"4;name=val\r\nWiki\r\n0\r\n\r\n") == b"Wiki"


def test_dechunk_skips_trailers():
    assert dechunk(b"4\r\nWiki\r\n0\r\nX-Trail: 1\r\n\r\n") == b"Wiki"


@pytest.mark.parametrize("wire", [
    b"4",                                # no size line terminator
    b"zz\r\nWiki\r\n0\r\n\r\n",          # non-hex size
    b"a\r\nhi\r\n0\r\n\r\n",             # chunk shorter than declared
    b"4\r\nWikiXX0\r\n\r\n",             # missing chunk terminator
    b"0\r\n",                            # missing final CRLF
    # not 1*HEXDIG (RFC 9112 section 7.1)
    b"0x2\r\nab\r\n0\r\n\r\n",
    b"+2\r\nab\r\n0\r\n\r\n",
    b" 2 \r\nab\r\n0\r\n\r\n",
])
def test_dechunk_corruption_raises(wire):
    with pytest.raises(BodyDecodeError) as exc:
        dechunk(wire)
    assert exc.value.coding == "chunked"


# --- properties ---

CODINGS = st.lists(
    st.sampled_from(["gzip", "x-gzip", "deflate", "deflate-raw", "identity"]),
    min_size=0, max_size=3)


def apply_coding(data: bytes, coding: str) -> bytes:
    if coding in ("gzip", "x-gzip"):
        return gzip.compress(data)
    if coding == "deflate":
        return zlib.compress(data)
    if coding == "deflate-raw":
        return raw_deflate(data)
    return data


@given(st.binary(max_size=512), CODINGS)
def test_any_coding_chain_roundtrips(body, chain):
    wire = body
    tokens = []
    for coding in chain:
        wire = apply_coding(wire, coding)
        tokens.append("deflate" if coding == "deflate-raw" else coding)
    headers = [("Content-Encoding", ", ".join(tokens))] if tokens else []
    got = decode_body(wire, headers)
    assert got.data == body
    assert not got.truncated
    assert got.pending_codings == []
    assert got.applied_codings == list(reversed(tokens))


@given(st.binary(max_size=400),
       st.lists(st.integers(min_value=1, max_value=64), max_size=8))
def test_chunked_roundtrips(body, sizes):
    wire = chunked(body, sizes)
    got = decode_body(wire, CHUNKED)
    assert got.data == body
    assert got.applied_codings == ["chunked"]


@given(st.binary(min_size=1, max_size=300))
def test_chunked_gzip_roundtrip(body):
    wire = chunked(gzip.compress(body), [11, 7])
    got = decode_body(wire, [("Transfer-Encoding", "chunked"),
                             ("Content-Encoding", "gzip")])
    assert got.data == body


def test_decoded_body_defaults():
    d = DecodedBody(data=b"x")
    assert d.applied_codings == [] and d.pending_codings == []
    assert not d.truncated
