"""Event instances.

An event is an n-tuple of user-defined fields plus the two system
fields Scrub annotates automatically: a unique request identifier and a
timestamp (paper Section 3.1).  We additionally stamp the emitting host
name, which ScrubCentral uses to attribute rows and the host-sampling
estimator uses to group readings by machine.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from .schema import HOST, REQUEST_ID, SYSTEM_FIELDS, TIMESTAMP, EventSchema

__all__ = ["Event"]


class Event:
    """A single emitted event.

    ``payload`` holds the user-defined fields; the system fields live in
    dedicated slots so the hot path never pays for dict lookups on them.
    Field access (:meth:`get`) resolves user fields, system fields, and
    dotted paths into nested object fields, returning ``None`` for absent
    values (SQL NULL semantics).
    """

    __slots__ = ("event_type", "payload", "request_id", "timestamp", "host")

    def __init__(
        self,
        event_type: str,
        payload: Mapping[str, Any],
        request_id: int,
        timestamp: float,
        host: str = "",
    ) -> None:
        self.event_type = event_type
        self.payload = dict(payload)
        self.request_id = request_id
        self.timestamp = timestamp
        self.host = host

    @classmethod
    def checked(
        cls,
        schema: EventSchema,
        payload: Mapping[str, Any],
        request_id: int,
        timestamp: float,
        host: str = "",
    ) -> "Event":
        """Build an event, validating the payload against *schema*."""
        return cls(schema.name, schema.coerce_payload(payload), request_id, timestamp, host)

    # -- field access -------------------------------------------------------

    def get(self, name: str) -> Any:
        """Resolve a field reference; returns None when absent (NULL)."""
        if name == REQUEST_ID:
            return self.request_id
        if name == TIMESTAMP:
            return self.timestamp
        if name == HOST:
            return self.host
        value = self.payload.get(name)
        if value is None and "." in name and name not in self.payload:
            value = self._get_path(name)
        return value

    def _get_path(self, dotted: str) -> Any:
        node: Any = self.payload
        for part in dotted.split("."):
            if not isinstance(node, Mapping):
                return None
            node = node.get(part)
            if node is None:
                return None
        return node

    def fields(self) -> Iterator[str]:
        """All present field names, system fields included."""
        yield from self.payload
        yield from SYSTEM_FIELDS

    # -- conversions ----------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Flatten to a plain dict (system fields included)."""
        out = dict(self.payload)
        out[REQUEST_ID] = self.request_id
        out[TIMESTAMP] = self.timestamp
        out[HOST] = self.host
        return out

    def project(self, keep: tuple[str, ...]) -> "Event":
        """Return a copy containing only the user fields in *keep*.

        System fields are always retained; they are the bounded metadata
        needed for equi-joins and windowing downstream.
        """
        payload = {k: self.payload[k] for k in keep if k in self.payload}
        return Event(self.event_type, payload, self.request_id, self.timestamp, self.host)

    def approx_size(self) -> int:
        """Approximate wire size in bytes (used for transport accounting)."""
        size = 24  # system fields: request id + timestamp + overhead
        size += len(self.host)
        size += len(self.event_type)
        for key, value in self.payload.items():
            size += len(key) + _value_size(value)
        return size

    def __repr__(self) -> str:
        return (
            f"Event({self.event_type!r}, req={self.request_id}, "
            f"t={self.timestamp:.3f}, {self.payload!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (
            self.event_type == other.event_type
            and self.request_id == other.request_id
            and self.timestamp == other.timestamp
            and self.host == other.host
            and self.payload == other.payload
        )

    def __hash__(self) -> int:  # pragma: no cover - events are not dict keys
        return hash((self.event_type, self.request_id, self.timestamp, self.host))

    def __reduce__(self):
        # Slotted classes with no __dict__ need explicit pickle support;
        # rebuilding via _rebuild_event skips __init__'s defensive payload
        # copy — the shard-pool boundary pickles every routed event.
        return (
            _rebuild_event,
            (self.event_type, self.payload, self.request_id, self.timestamp, self.host),
        )


def _rebuild_event(
    event_type: str,
    payload: dict[str, Any],
    request_id: int,
    timestamp: float,
    host: str,
) -> Event:
    """An event that owns *payload* as is, without ``__init__``'s copy:
    for unpickling and the wire decoder, which build fresh payloads."""
    event = Event.__new__(Event)
    event.event_type = event_type
    event.payload = payload
    event.request_id = request_id
    event.timestamp = timestamp
    event.host = host
    return event


def _value_size(value: Any) -> int:
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return len(value)
    if isinstance(value, (list, tuple)):
        return 4 + sum(_value_size(v) for v in value)
    if isinstance(value, Mapping):
        return 4 + sum(len(str(k)) + _value_size(v) for k, v in value.items())
    return 8
