"""Which public calls the traced run wraps.

Layers are named after the modules they live in.  Each ``instrument_*``
function patches one process's view of the program; names are patched
where their caller looks them up (``repro.live.server.decode_full_batch``
for scrubd's data channel, ``ScrubAgent.flush`` on the class so the
agent's generated entry binds the wrapper when it is built).
"""

from __future__ import annotations

import time
from time import perf_counter_ns
from typing import Any

from repro.core.agent.agent import ScrubAgent
from repro.core.agent.transport import EventBatch
from repro.core.central import aggregates
from repro.core.central.engine import CentralEngine
from repro.core.central.groupby import WindowGroups
from repro.core.central.join import JoinBuffer
from repro.core.central.pool import ShardPool
from repro.live import server as server_module
from repro.live import transport as transport_module
from repro.live.client import LiveAgent
from repro.live.protocol import MsgType
from repro.live.transport import SocketTransport

from .trace import SpanRecorder

__all__ = ["CentralCounters", "instrument_central", "instrument_host", "instrument_pool"]

_AGGREGATE_SPANS = (
    (aggregates.CountState, "core.central.aggregates.update_many"),
    (aggregates.SumState, "core.central.aggregates.update_many"),
    (aggregates.AvgState, "core.central.aggregates.update_many"),
    (aggregates.MinState, "core.central.aggregates.update_many"),
    (aggregates.MaxState, "core.central.aggregates.update_many"),
    (aggregates.CountDistinctState, "core.approx.hll"),
    (aggregates.TopKState, "core.approx.spacesaving"),
    (aggregates.QuantileState, "core.approx.quantile"),
)


def instrument_host(rec: SpanRecorder) -> None:
    """The generator's side: log, flush, batch sizing, transport."""
    rec.patch(LiveAgent, "log", "core.agent.log")
    rec.patch(SocketTransport, "send", "live.transport.send")
    rec.patch(SocketTransport, "drain", "live.transport.drain")
    rec.patch(transport_module, "encode_batch_frame_into", "live.transport.encode")
    rec.patch(ScrubAgent, "flush", "core.agent.flush")
    rec.patch(EventBatch, "wire_size", "core.agent.wire_size")


class CentralCounters:
    """Counts recorded beside the central spans (events per decode and
    ingest, frame read → engine call waits, window close lag)."""

    def __init__(self) -> None:
        self.decode_events = 0
        self.ingest_events = 0
        self.queue_wait_ns = 0
        self.window_lag_ms: list[float] = []
        self._decoded_at: dict[tuple, int] = {}

    def as_dict(self) -> dict[str, Any]:
        return {
            "decode_events": self.decode_events,
            "ingest_events": self.ingest_events,
            "queue_wait_ns": self.queue_wait_ns,
            "window_lag_ms": self.window_lag_ms,
        }


def _is_batch(frame) -> bool:
    return frame is not None and frame[0] == MsgType.BATCH


def instrument_central(rec: SpanRecorder, counters: CentralCounters) -> None:
    """scrubd's side: frame read, decode, ingest and everything below."""
    original_decode = server_module.decode_full_batch
    decoded_at = counters._decoded_at

    def decode(data):
        batch = original_decode(data)
        counters.decode_events += len(batch.events)
        decoded_at[(batch.host, batch.query_id, batch.sent_at)] = perf_counter_ns()
        return batch

    rec.patch(server_module, "decode_full_batch", "core.agent.transport.decode",
              replacement=decode)

    original_ingest = CentralEngine.ingest

    def ingest(self, batch):
        decoded = decoded_at.get((batch.host, batch.query_id, batch.sent_at))
        if decoded is not None:
            counters.queue_wait_ns += perf_counter_ns() - decoded
        counters.ingest_events += len(batch.events)
        return original_ingest(self, batch)

    rec.patch(CentralEngine, "ingest", "core.central.engine.ingest", replacement=ingest)

    original_advance = CentralEngine.advance

    def advance(self, now):
        emitted = original_advance(self, now)
        wall = time.time()
        for result in emitted or ():
            counters.window_lag_ms.append((wall - result.window_end) * 1e3)
        return emitted

    rec.patch(CentralEngine, "advance", "core.central.engine.advance", replacement=advance)

    # scrubd reads control frames with the same call; only data-channel
    # BATCH frames count as this layer's work.
    rec.patch(server_module, "read_frame", "live.protocol.read_frame", kind="coroutine",
              keep=_is_batch)
    rec.patch(CentralEngine, "results_so_far", "core.central.engine.results_so_far")
    rec.patch(EventBatch, "wire_size", "core.central.engine.wire_size")
    rec.patch(WindowGroups, "process_batch", "core.central.groupby.process_batch")
    for state, name in _AGGREGATE_SPANS:
        rec.patch(state, "update_many", name)
    rec.patch(JoinBuffer, "add", "core.central.join")
    rec.patch(JoinBuffer, "join", "core.central.join", kind="generator")


def instrument_pool(rec: SpanRecorder) -> None:
    """The pool parent's scan-and-ship and its merge at finish."""
    rec.patch(ShardPool, "ingest_frame", "core.central.pool.ingest_frame")
    rec.patch(ShardPool, "finish", "core.central.pool.finish")
