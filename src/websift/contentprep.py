"""Body normalization: undo transfer framing and (chained) content codings.

Stored bodies arrive as on-wire bytes; before scanning or feature
extraction the chunked transfer framing is removed first, by the same
strict de-chunker the wire uses (its one framing error, IcapParseError,
becomes a BodyDecodeError for "chunked"), then every content coding is
undone in reverse header order.  Guards against decompression bombs
(OUTPUT_CAP, BOMB_RATIO) cap the output instead of failing: oversized
results come back truncated and flagged, since a truncated body is still
worth scanning while an exception would lose the record.
"""

from __future__ import annotations

import io
import zlib
from dataclasses import dataclass, field

from .wire import IcapParseError, _coding_list, _read_chunked

# Absolute output cap and bomb ratio; a stream is cut off at
# min(OUTPUT_CAP, BOMB_RATIO * len(compressed input)).
OUTPUT_CAP = 64 * 1024 * 1024
BOMB_RATIO = 128

KNOWN_CODINGS = frozenset(["gzip", "x-gzip", "deflate", "identity"])


class BodyDecodeError(ValueError):
    """Corrupt stream while undoing one coding; carries the coding name."""

    def __init__(self, coding: str, message: str):
        super().__init__(f"{coding}: {message}")
        self.coding = coding


@dataclass
class DecodedBody:
    data: bytes
    applied_codings: list[str] = field(default_factory=list)
    truncated: bool = False
    # codings declared but not undone because an unknown coding was reached
    pending_codings: list[str] = field(default_factory=list)


def _inflate(data: bytes, coding: str, limit: int) -> tuple[bytes, bool]:
    """Undo one gzip/deflate coding, bounded by `limit` output bytes."""
    if coding in ("gzip", "x-gzip"):
        wbits = 16 + zlib.MAX_WBITS
    else:
        # deflate: sniff zlib wrapper (CMF/FLG checksum) vs raw stream
        if len(data) >= 2 and (data[0] & 0x0F) == 8 and ((data[0] << 8) | data[1]) % 31 == 0:
            wbits = zlib.MAX_WBITS
        else:
            wbits = -zlib.MAX_WBITS
    try:
        dec = zlib.decompressobj(wbits)
        out = dec.decompress(data, limit)
    except zlib.error as exc:
        raise BodyDecodeError(coding, str(exc)) from exc
    if dec.unconsumed_tail:
        # output hit the limit with input left over: the cap binds
        return out, True
    if not dec.eof:
        # zlib only raises on malformed data; a stream that simply stops
        # early must be reported explicitly
        raise BodyDecodeError(coding, "incomplete compressed stream")
    return out, False


def decode_body(raw: bytes, headers) -> DecodedBody:
    """Normalize an on-wire body according to its headers.

    Chunked transfer framing is removed first, then content codings are
    undone outermost first (reverse of header order).  Unknown codings
    stop the chain; whatever was not undone is reported in
    pending_codings.  Exceeding min(OUTPUT_CAP, BOMB_RATIO * input size)
    truncates and flags the result rather than raising.
    """
    transfer = _coding_list(headers, "Transfer-Encoding")
    content = _coding_list(headers, "Content-Encoding")

    data = raw
    applied: list[str] = []
    if transfer and transfer[-1] == "chunked":
        try:
            # de-chunked data is shorter than its framing, so this cap never binds
            data = _read_chunked(io.BytesIO(data), len(data), 0)[0]
        except IcapParseError as exc:
            raise BodyDecodeError("chunked", str(exc)) from None
        applied.append("chunked")
        transfer = transfer[:-1]

    # outermost-first decode order: remaining transfer codings (reversed),
    # then content codings (reversed)
    chain = list(reversed(transfer)) + list(reversed(content))
    truncated = False
    pending: list[str] = []
    for idx, coding in enumerate(chain):
        if coding not in KNOWN_CODINGS:
            pending = chain[idx:]
            break
        if coding == "identity":
            applied.append(coding)
            continue
        limit = min(OUTPUT_CAP, BOMB_RATIO * max(1, len(data)))
        data, truncated = _inflate(data, coding, limit)
        applied.append(coding)
        if truncated:
            pending = chain[idx + 1:]
            break

    return DecodedBody(
        data=data,
        applied_codings=applied,
        truncated=truncated,
        pending_codings=pending,
    )
