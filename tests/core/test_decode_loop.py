"""Differential tests for the batch decode loop.

Every decode entry point (`decode_batch`, `decode_full_batch`,
`decode_event_frames`, `EncodedBatch.to_event_batch`, `decode_binary`)
runs one loop that reuses the previous event's type and host while the
next event's leading bytes match, interns keys and string values per
batch, and dispatches on the integer tag byte.  These properties hold it
to the encoder: decoding what was encoded gives back every event, with
every value's *type* intact (``True == 1`` and ``0.0 == -0.0`` in
Python, so plain equality would hide a tag mix-up), and a torn frame
fails with the scanner's error at the same offset.
"""

from __future__ import annotations

import dataclasses
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agent.transport import (
    EventBatch,
    decode_full_batch,
    encode_full_batch,
    scan_full_batch,
)
from repro.core.events import Event
from repro.core.events.encoding import (
    decode_batch,
    decode_binary,
    decode_event_frames,
    encode_batch,
    encode_binary,
    scan_batch,
)

# Types and hosts whose encodings share leading bytes ("a"+"bc" vs
# "ab"+"c") or differ only past ASCII, so a stale prefix would show.
_TYPES = ["a", "ab", "bid", "bïd", "日志"]
_HOSTS = ["bc", "c", "h1", "h2", "hôte-1", "🛰"]
_TEXT = st.text(alphabet=st.sampled_from("az_-. éß日本🙂\x00"), max_size=12)

_scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=True, allow_infinity=True),
    _TEXT,
)
_value = st.recursive(
    _scalar,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_TEXT, children, max_size=3),
    ),
    max_leaves=10,
)
# "v" appears in most payloads with a value of any tag, so one key
# carries different tags across the events of one batch.
_payload = st.fixed_dictionaries(
    {},
    optional={
        "v": _value,
        "city": _TEXT,
        "n": st.integers(min_value=-(2**63), max_value=2**63 - 1),
        "x": st.floats(),
    },
).flatmap(
    lambda fixed: st.dictionaries(_TEXT, _value, max_size=3).map(
        lambda extra: {**extra, **fixed}
    )
)
_events = st.lists(
    st.builds(
        Event,
        st.sampled_from(_TYPES),
        _payload,
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        st.floats(allow_nan=False),
        st.sampled_from(_HOSTS),
    ),
    max_size=10,
)


def _typed(value):
    """A form that compares equal only when type and bits match."""
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    if isinstance(value, list):
        return ("list", [_typed(item) for item in value])
    if isinstance(value, dict):
        return ("map", [(key, _typed(item)) for key, item in value.items()])
    return (type(value).__name__, value)


def _typed_events(events):
    return [
        (e.event_type, e.host, e.request_id, _typed(e.timestamp), _typed(e.payload))
        for e in events
    ]


@settings(max_examples=200, deadline=None)
@given(events=_events)
def test_every_entry_point_round_trips_types_and_bits(events):
    expected = _typed_events(events)
    buf = encode_batch(events)
    assert _typed_events(decode_batch(buf)) == expected
    assert _typed_events(decode_batch(memoryview(buf))) == expected
    assert _typed_events(decode_event_frames(buf[4:], len(events))) == expected
    assert _typed_events(decode_binary(encode_binary(e)) for e in events) == expected

    batch = EventBatch(host="h1", query_id="q1", events=events, shed=2,
                       quarantined="impact-budget-exceeded: t")
    data = encode_full_batch(batch)
    meta = dataclasses.replace(batch, events=[])
    decoded = decode_full_batch(data)
    assert _typed_events(decoded.events) == expected
    assert dataclasses.replace(decoded, events=[]) == meta
    assert decoded.wire_size() == len(data) == batch.wire_size()
    rebuilt = scan_full_batch(data).to_event_batch()
    assert _typed_events(rebuilt.events) == expected
    assert dataclasses.replace(rebuilt, events=[]) == meta


@settings(max_examples=100, deadline=None)
@given(events=_events)
def test_decoded_events_are_independent(events):
    """Interning shares strings, never payload dicts or lists."""
    decoded = decode_batch(encode_batch(events))
    payloads = [e.payload for e in decoded]
    assert len({id(p) for p in payloads}) == len(payloads)
    for event in decoded:
        event.payload["mutated"] = True
    assert _typed_events(decode_batch(encode_batch(events))) == _typed_events(events)


def _error(fn, data) -> str:
    with pytest.raises(ValueError) as err:
        fn(data)
    return str(err.value)


@settings(max_examples=40, deadline=None)
@given(events=_events.filter(bool))
def test_every_truncation_fails_like_the_scanner(events):
    buf = encode_batch(events)
    for cut in range(len(buf)):
        torn = buf[:cut]
        assert _error(decode_batch, torn) == _error(scan_batch, torn)


@settings(max_examples=25, deadline=None)
@given(events=_events)
def test_every_full_frame_truncation_fails_like_the_scanner(events):
    data = encode_full_batch(
        EventBatch(host="h1", query_id="q1", events=events,
                   seen_counts={("bid", 3): 4}, dropped=1, shed=2,
                   quarantined="budget")
    )
    for cut in range(len(data)):
        torn = data[:cut]
        assert _error(decode_full_batch, torn) == _error(scan_full_batch, torn)


def test_prefix_reuse_rereads_when_type_or_host_changes():
    events = [
        Event(t, {"k": i}, i, float(i), h)
        for i, (t, h) in enumerate(
            [("a", "bc"), ("ab", "c"), ("ab", "c"), ("a", "bc"), ("a", "c"), ("ab", "bc")]
        )
    ]
    decoded = decode_batch(encode_batch(events))
    assert [(e.event_type, e.host) for e in decoded] == [
        (e.event_type, e.host) for e in events
    ]


def test_one_key_many_tags():
    values = [1, 1.0, True, None, "1", [1], {"1": 1}, -0.0, math.inf, 2**63 - 1]
    events = [Event("bid", {"v": v}, i, 0.0, "h") for i, v in enumerate(values)]
    decoded = decode_batch(encode_batch(events))
    assert [_typed(e.payload["v"]) for e in decoded] == [_typed(v) for v in values]
