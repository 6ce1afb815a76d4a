"""Wire encodings for events.

Two encodings are provided:

* **JSON-lines** — human-inspectable; used by the logging baseline so its
  storage accounting reflects what a production log file would hold.
* **Compact binary** — a length-prefixed struct encoding used by the
  Scrub host→central transport; about 2–4x denser than JSON for typical
  payloads, matching the paper's concern with the bytes hosts must ship.

Both encodings round-trip :class:`~repro.core.events.event.Event`
losslessly for all supported field types.
"""

from __future__ import annotations

import json
import struct
from typing import Any

from .event import Event, _rebuild_event

__all__ = [
    "encode_json",
    "decode_json",
    "encode_binary",
    "encode_binary_into",
    "decode_binary",
    "encode_batch",
    "encode_batch_into",
    "decode_batch",
    "decode_event_frames",
    "scan_batch",
    "scan_batch_shards",
    "encode_value",
    "decode_value",
    "encoded_size_value",
    "encoded_size_event",
    "encoded_size_batch",
]

# -- JSON lines ---------------------------------------------------------------


def encode_json(event: Event) -> bytes:
    """Encode one event as a single JSON line (newline-terminated)."""
    record = {
        "type": event.event_type,
        "rid": event.request_id,
        "ts": event.timestamp,
        "host": event.host,
        "data": event.payload,
    }
    return (json.dumps(record, separators=(",", ":"), sort_keys=True) + "\n").encode()


def decode_json(line: bytes | str) -> Event:
    record = json.loads(line)
    return Event(
        record["type"],
        record["data"],
        record["rid"],
        record["ts"],
        record.get("host", ""),
    )


# -- compact binary -----------------------------------------------------------
#
# value encoding: 1 tag byte + body
#   N: null        B: bool (1 byte)     I: int64      D: float64
#   S: str (u32 len + utf8)             L: list (u32 count + values)
#   M: map  (u32 count + (str, value) pairs)

_TAG_NULL = b"N"
_TAG_BOOL = b"B"
_TAG_INT = b"I"
_TAG_FLOAT = b"D"
_TAG_STR = b"S"
_TAG_LIST = b"L"
_TAG_MAP = b"M"
# The readers dispatch on the tag byte's integer value.
_N, _B, _I, _D, _S, _L, _M = b"NBIDSLM"

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_HEADER = struct.Struct("<qdI")  # request_id, timestamp, payload field count


def _truncated(offset: int, need: int, have: int) -> ValueError:
    """The structured decode error for a torn buffer.

    Raised identically by the decoders and the frame scanner — the two
    walk the same byte layout with the same bounds checks, so a torn or
    corrupted tail fails at the same offset with the same message from
    either path (``tests/core/test_encoding.py`` pins this).
    """
    return ValueError(
        f"truncated event encoding at offset {offset}: "
        f"need {need} byte(s), have {have}"
    )


def _write_value(out: bytearray, value: Any) -> None:
    if value is None:
        out += _TAG_NULL
    elif isinstance(value, bool):
        out += _TAG_BOOL
        out.append(1 if value else 0)
    elif isinstance(value, int):
        out += _TAG_INT
        out += _I64.pack(value)
    elif isinstance(value, float):
        out += _TAG_FLOAT
        out += _F64.pack(value)
    elif isinstance(value, str):
        raw = value.encode()
        out += _TAG_STR
        out += _U32.pack(len(raw))
        out += raw
    elif isinstance(value, (list, tuple)):
        out += _TAG_LIST
        out += _U32.pack(len(value))
        for item in value:
            _write_value(out, item)
    elif isinstance(value, dict):
        out += _TAG_MAP
        out += _U32.pack(len(value))
        for key, item in value.items():
            _write_str(out, str(key))
            _write_value(out, item)
    else:
        raise TypeError(f"unencodable value of type {type(value).__name__}: {value!r}")


def _write_str(out: bytearray, text: str) -> None:
    raw = text.encode()
    out += _U32.pack(len(raw))
    out += raw


def _read_str(buf: bytes | memoryview, pos: int) -> tuple[str, int]:
    if pos + 4 > len(buf):
        raise _truncated(pos, 4, len(buf) - pos)
    (length,) = _U32.unpack_from(buf, pos)
    pos += 4
    if pos + length > len(buf):
        raise _truncated(pos, length, len(buf) - pos)
    return str(buf[pos : pos + length], "utf-8"), pos + length


def _skip_str(buf: bytes | memoryview, pos: int) -> int:
    """Advance past one encoded string without decoding it.

    Bounds checks (and their error messages) mirror :func:`_read_str`
    exactly, so the scanner and the decoder reject a torn buffer with
    the same structured error.
    """
    if pos + 4 > len(buf):
        raise _truncated(pos, 4, len(buf) - pos)
    (length,) = _U32.unpack_from(buf, pos)
    pos += 4
    if pos + length > len(buf):
        raise _truncated(pos, length, len(buf) - pos)
    return pos + length


def _read_value(buf: bytes | memoryview, pos: int) -> tuple[Any, int]:
    if pos >= len(buf):
        raise _truncated(pos, 1, 0)
    tag = buf[pos]
    pos += 1
    if tag == _N:
        return None, pos
    if tag == _B:
        if pos >= len(buf):
            raise _truncated(pos, 1, 0)
        return buf[pos] != 0, pos + 1
    if tag == _I:
        if pos + 8 > len(buf):
            raise _truncated(pos, 8, len(buf) - pos)
        (v,) = _I64.unpack_from(buf, pos)
        return v, pos + 8
    if tag == _D:
        if pos + 8 > len(buf):
            raise _truncated(pos, 8, len(buf) - pos)
        (v,) = _F64.unpack_from(buf, pos)
        return v, pos + 8
    if tag == _S:
        return _read_str(buf, pos)
    if tag == _L:
        if pos + 4 > len(buf):
            raise _truncated(pos, 4, len(buf) - pos)
        (count,) = _U32.unpack_from(buf, pos)
        pos += 4
        items = []
        for _ in range(count):
            item, pos = _read_value(buf, pos)
            items.append(item)
        return items, pos
    if tag == _M:
        if pos + 4 > len(buf):
            raise _truncated(pos, 4, len(buf) - pos)
        (count,) = _U32.unpack_from(buf, pos)
        pos += 4
        mapping: dict[str, Any] = {}
        for _ in range(count):
            key, pos = _read_str(buf, pos)
            mapping[key], pos = _read_value(buf, pos)
        return mapping, pos
    raise ValueError(f"corrupt event encoding: unknown tag {bytes([tag])!r} at offset {pos - 1}")


def _skip_value(buf: bytes | memoryview, pos: int) -> int:
    """Advance past one tagged value without materializing it.

    The frame scanner's building block: the structure (and every bounds
    check and error message) mirrors :func:`_read_value`, minus the
    allocations — no ints, floats, strings, lists or dicts are built.
    """
    if pos >= len(buf):
        raise _truncated(pos, 1, 0)
    tag = buf[pos]
    pos += 1
    if tag == _N:
        return pos
    if tag == _B:
        if pos >= len(buf):
            raise _truncated(pos, 1, 0)
        return pos + 1
    if tag == _I or tag == _D:
        if pos + 8 > len(buf):
            raise _truncated(pos, 8, len(buf) - pos)
        return pos + 8
    if tag == _S:
        return _skip_str(buf, pos)
    if tag == _L:
        if pos + 4 > len(buf):
            raise _truncated(pos, 4, len(buf) - pos)
        (count,) = _U32.unpack_from(buf, pos)
        pos += 4
        for _ in range(count):
            pos = _skip_value(buf, pos)
        return pos
    if tag == _M:
        if pos + 4 > len(buf):
            raise _truncated(pos, 4, len(buf) - pos)
        (count,) = _U32.unpack_from(buf, pos)
        pos += 4
        for _ in range(count):
            pos = _skip_str(buf, pos)
            pos = _skip_value(buf, pos)
        return pos
    raise ValueError(f"corrupt event encoding: unknown tag {bytes([tag])!r} at offset {pos - 1}")


def encode_value(value: Any) -> bytes:
    """Encode one plain value (None/bool/int/float/str/list/dict) standalone.

    The building block the live wire protocol uses for control-message
    payloads; shares the tagged encoding of event payload fields.
    """
    out = bytearray()
    _write_value(out, value)
    return bytes(out)


def decode_value(data: bytes | memoryview) -> Any:
    value, pos = _read_value(memoryview(data), 0)
    if pos != len(data):
        raise ValueError(f"trailing garbage after value at offset {pos}")
    return value


def encode_binary_into(out: bytearray, event: Event) -> None:
    """Append one event's compact binary framing to *out*.

    The zero-alloc building block of the flush path: a whole batch is
    written into one reusable buffer, with no per-event ``bytes``.
    """
    _write_str(out, event.event_type)
    _write_str(out, event.host)
    out += _HEADER.pack(event.request_id, event.timestamp, len(event.payload))
    for key, value in event.payload.items():
        _write_str(out, key)
        _write_value(out, value)


def encode_binary(event: Event) -> bytes:
    """Encode one event in the compact binary framing."""
    out = bytearray()
    encode_binary_into(out, event)
    return bytes(out)


def decode_binary(data: bytes | memoryview) -> Event:
    events, pos = _decode_events(bytes(data), 0, 1)
    if pos != len(data):
        raise ValueError(f"trailing garbage after event at offset {pos}")
    return events[0]


def _decode_events(data: bytes, pos: int, count: int) -> tuple[list[Event], int]:
    """Decode *count* consecutive events starting at *pos* — the one
    event decoder behind every decode entry point.

    Agents repeat the same strings in every flush, so the loop reuses
    the previous event's type and host while the next event's leading
    bytes match them, interns keys and string values per call, and
    inlines the int, float and string tags (others go through
    :func:`_read_value`).  Each payload dict is fresh, so events are
    built without ``Event.__init__``'s defensive copy.  A read past the
    end raises ``struct.error`` or ``IndexError`` (slices are
    length-checked, as they never raise); the scanner's checked walk
    over the torn event then raises the structured error at the same
    offset.
    """
    size = len(data)
    events: list[Event] = []
    append = events.append
    strings: dict[bytes, str] = {}
    prefix = b""
    event_type = host = ""
    u32 = _U32.unpack_from
    i64 = _I64.unpack_from
    f64 = _F64.unpack_from
    header = _HEADER.unpack_from
    header_size = _HEADER.size
    start = pos
    try:
        for _ in range(count):
            start = pos
            if prefix and data.startswith(prefix, pos):
                pos += len(prefix)
            else:
                event_type, pos = _read_str(data, pos)
                host, pos = _read_str(data, pos)
                prefix = data[start:pos]
            request_id, timestamp, nfields = header(data, pos)
            pos += header_size
            payload: dict[str, Any] = {}
            for _ in range(nfields):
                (n,) = u32(data, pos)
                pos += 4
                end = pos + n
                if end > size:
                    raise IndexError
                raw = data[pos:end]
                key = strings.get(raw)
                if key is None:
                    key = strings[raw] = raw.decode()
                tag = data[end]
                pos = end + 1
                if tag == _I:
                    payload[key] = i64(data, pos)[0]
                    pos += 8
                elif tag == _D:
                    payload[key] = f64(data, pos)[0]
                    pos += 8
                elif tag == _S:
                    (n,) = u32(data, pos)
                    pos += 4
                    end = pos + n
                    if end > size:
                        raise IndexError
                    raw = data[pos:end]
                    value = strings.get(raw)
                    if value is None:
                        value = strings[raw] = raw.decode()
                    payload[key] = value
                    pos = end
                else:
                    payload[key], pos = _read_value(data, end)
            append(_rebuild_event(event_type, payload, request_id, timestamp, host))
    except (struct.error, IndexError):
        pass
    else:
        return events, pos
    _scan_events(data, start, 1)  # raises the structured error
    raise ValueError(f"corrupt event encoding at offset {start}")


# -- arithmetic sizes ---------------------------------------------------------
#
# Exact mirrors of the writers above: ``encoded_size_x(v)`` equals
# ``len(encode_x(v))`` for every encodable value, without materializing
# bytes.  The ingest hot path charges wire bytes per batch; doing a full
# encode just to measure it dominated the per-batch overhead.


def encoded_size_value(value: Any) -> int:
    """Exactly ``len(encode_value(value))``, computed arithmetically."""
    if value is None:
        return 1
    if isinstance(value, bool):
        return 2
    if isinstance(value, (int, float)):
        return 9
    if isinstance(value, str):
        return 5 + _utf8_len(value)
    if isinstance(value, (list, tuple)):
        return 5 + sum(encoded_size_value(item) for item in value)
    if isinstance(value, dict):
        return 5 + sum(
            4 + _utf8_len(str(key)) + encoded_size_value(item)
            for key, item in value.items()
        )
    raise TypeError(f"unencodable value of type {type(value).__name__}: {value!r}")


def _utf8_len(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode())


def _str_size(text: str) -> int:
    return 4 + _utf8_len(text)


def encoded_size_event(event: Event) -> int:
    """Exactly ``len(encode_binary(event))``, computed arithmetically."""
    size = _str_size(event.event_type) + _str_size(event.host) + _HEADER.size
    for key, value in event.payload.items():
        size += _str_size(key) + encoded_size_value(value)
    return size


def encoded_size_batch(events: list[Event]) -> int:
    """Exactly ``len(encode_batch(events))``, computed arithmetically."""
    return 4 + sum(encoded_size_event(event) for event in events)


def encode_batch_into(out: bytearray, events: list[Event]) -> None:
    """Append a batch (u32 count prefix + concatenated events) to *out*."""
    out += _U32.pack(len(events))
    for event in events:
        encode_binary_into(out, event)


def encode_batch(events: list[Event]) -> bytes:
    """Encode a batch of events (u32 count prefix + concatenated events)."""
    out = bytearray()
    encode_batch_into(out, events)
    return bytes(out)


def decode_batch(data: bytes | memoryview) -> list[Event]:
    data = bytes(data)
    if len(data) < 4:
        raise _truncated(0, 4, len(data))
    (count,) = _U32.unpack_from(data, 0)
    events, pos = _decode_events(data, 4, count)
    if pos != len(data):
        raise ValueError(f"trailing garbage after batch at offset {pos}")
    return events


def decode_event_frames(data: bytes | memoryview, count: int) -> list[Event]:
    """Decode exactly *count* concatenated event frames (no count prefix).

    The shard-worker half of the zero-copy ingest path: the parent
    splices per-shard event frames out of a batch buffer with
    :func:`scan_batch_shards` and ships the raw bytes; the worker turns
    them back into :class:`Event` objects here.  Rejects leftover bytes
    — a mis-sliced shard must fail loudly, never drop events.
    """
    data = bytes(data)
    events, pos = _decode_events(data, 0, count)
    if pos != len(data):
        raise ValueError(f"trailing garbage after batch at offset {pos}")
    return events


# -- frame scanning ------------------------------------------------------------
#
# The zero-copy shard-ingest entry points (docs/SCALING.md §"Zero-copy
# shard ingest").  A scan walks a length-prefixed batch reading only each
# event's two leading strings (type skipped, host interned) and the fixed
# ``<qdI`` header — request id for sharding, timestamp for window
# segmentation — and records byte extents instead of building events.
# Per-shard ingest then ships slices of the original buffer; only the
# worker that owns a shard ever decodes its payloads.


def scan_batch(
    buf: bytes | memoryview, pos: int = 0
) -> tuple[list[tuple[int, float, str, int, int]], int]:
    """Index a length-prefixed batch without decoding its events.

    Returns ``(frames, end)`` where each frame is
    ``(request_id, timestamp, host, start, stop)`` — the header fields
    the central needs for sharding/windowing/coverage plus the event's
    byte extent ``buf[start:stop]`` — and *end* is the offset just past
    the batch (callers embedding a batch mid-buffer continue from it).

    Walks every byte the decoder would: a torn or corrupted buffer
    raises the same structured error at the same offset as
    :func:`decode_batch`; nothing is ever silently dropped or mis-sliced.
    """
    mv = buf if isinstance(buf, memoryview) else memoryview(buf)
    if pos + 4 > len(mv):
        raise _truncated(pos, 4, len(mv) - pos)
    (count,) = _U32.unpack_from(mv, pos)
    return _scan_events(mv, pos + 4, count)


def _scan_events(
    mv: bytes | memoryview, pos: int, count: int
) -> tuple[list[tuple[int, float, str, int, int]], int]:
    """Index *count* consecutive events from *pos*: :func:`scan_batch`
    after the count prefix, and the checked walk that gives
    :func:`_decode_events` its error for a torn event."""
    size = len(mv)
    frames: list[tuple[int, float, str, int, int]] = []
    # One host string decode per distinct byte pattern: a flush carries
    # one host's events, so this is almost always a single decode.
    hosts: dict[bytes, str] = {}
    header_size = _HEADER.size
    for _ in range(count):
        start = pos
        pos = _skip_str(mv, pos)  # event_type: never materialized here
        if pos + 4 > size:
            raise _truncated(pos, 4, size - pos)
        (hlen,) = _U32.unpack_from(mv, pos)
        pos += 4
        if pos + hlen > size:
            raise _truncated(pos, hlen, size - pos)
        hkey = bytes(mv[pos : pos + hlen])
        host = hosts.get(hkey)
        if host is None:
            host = hosts[hkey] = hkey.decode()
        pos += hlen
        if pos + header_size > size:
            raise _truncated(pos, header_size, size - pos)
        request_id, timestamp, nfields = _HEADER.unpack_from(mv, pos)
        pos += header_size
        for _ in range(nfields):
            pos = _skip_str(mv, pos)
            pos = _skip_value(mv, pos)
        frames.append((request_id, timestamp, host, start, pos))
    return frames, pos


def scan_batch_shards(buf: bytes | memoryview, n: int) -> list[list[memoryview]]:
    """Partition an encoded batch into per-shard event byte slices.

    Shard assignment is ``request_id % n`` — exactly the ShardPool's
    object-path partitioning — and each shard's slices keep the batch's
    arrival order, so decoding shard *i*'s slices yields precisely the
    events ``decode_batch`` would have routed there, in the same order
    (the partition-equivalence property tests pin this).  The slices are
    memoryviews over *buf*: nothing is copied until a shard's slices are
    joined for the worker pipe.
    """
    if n < 1:
        raise ValueError(f"need at least one shard, got {n}")
    mv = buf if isinstance(buf, memoryview) else memoryview(buf)
    frames, end = scan_batch(mv)
    if end != len(mv):
        raise ValueError(f"trailing garbage after batch at offset {end}")
    shards: list[list[memoryview]] = [[] for _ in range(n)]
    for request_id, _timestamp, _host, start, stop in frames:
        shards[request_id % n].append(mv[start:stop])
    return shards
