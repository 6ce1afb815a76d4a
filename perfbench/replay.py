"""In-process passes: the agent encode pass and the central replays.

``agent_pass`` logs a workload's events through a real ``ScrubAgent``
whose transport records batches, and encodes each batch into the wire
frame an agent ships — exactly what a scrubd data channel receives.
Each frame carries one query's batch.
``serial_pass`` and ``pool_pass`` feed those frames to a serial
``CentralEngine`` and to a ``ShardPool`` and finish every query.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from time import perf_counter, process_time_ns
from typing import Any, Optional

from repro.core.agent import ScrubAgent
from repro.core.agent.transport import RecordingTransport, encode_full_batch
from repro.core.central.engine import CentralEngine
from repro.core.central.pool import ShardPool
from repro.core.events import EventRegistry
from repro.core.query import parse_query, plan_query, validate_query
from repro.core.query.errors import ScrubExecutionError

from .procstat import tree_cpu_ns
from .workloads import BID_FIELDS, CLICK_FIELDS, EventStream, Workload, events_for

__all__ = ["CentralPass", "agent_pass", "plans_for", "pool_pass",
           "registry_for", "serial_pass"]

#: Host name the benchmark's single agent registers under.
HOST = "bench-host"
FLUSH_BATCH = 500


def registry_for(workload: Workload) -> EventRegistry:
    registry = EventRegistry()
    registry.define("bid", BID_FIELDS)
    if workload.click_every:
        registry.define("click", CLICK_FIELDS)
    return registry


def plans_for(workload: Workload, registry: EventRegistry, query_ids: list[str]) -> list:
    return [
        plan_query(validate_query(parse_query(q.text), registry), qid)
        for q, qid in zip(workload.queries, query_ids)
    ]


def agent_pass(
    workload: Workload,
    stream: EventStream,
    count: int,
    t0: float,
    plans: list,
    span: tuple[float, float],
    registry: EventRegistry,
) -> list[tuple[str, bytes, int]]:
    """Log the first *count* requests through an in-process agent;
    returns ``(query_id, wire frame, events it carries)`` per batch."""
    transport = RecordingTransport()
    agent = ScrubAgent(
        host=HOST,
        registry=registry,
        transport=transport,
        flush_batch_size=FLUSH_BATCH,
    )
    for plan in plans:
        for host_object in plan.host_objects:
            agent.install(host_object, span[0], span[1])
    log = agent.log
    for event_type, fields, rid, ts in events_for(workload, stream, count, t0):
        log(event_type, fields, request_id=rid, timestamp=ts)
    agent.flush(t0 + count / workload.rate)
    return [
        (batch.query_id, encode_full_batch(batch), len(batch.events))
        for batch in transport.batches
    ]


@dataclass
class CentralPass:
    results: dict[str, Any]
    wall_s: float
    cpu_ns: int
    events: int
    health: Optional[dict] = None
    worker_cpu_ns: int = 0
    #: query_id -> the error that kept the engine from finishing it.
    query_errors: dict[str, str] = field(default_factory=dict)


def _register(engine: CentralEngine, plans: list) -> None:
    for plan in plans:
        engine.register(
            plan.central_object,
            planned_hosts=1,
            targeted_hosts=1,
            targeted_names=(HOST,),
        )


def _drive(
    engine: CentralEngine, plans: list, frames: list[bytes], errors: dict[str, str]
) -> dict[str, Any]:
    """Ingest every frame and finish every query.  A query the engine
    fails to finish is named in *errors* with a ``None`` result."""
    for frame in frames:
        engine.ingest_frame(frame)
    results: dict[str, Any] = {}
    for plan in plans:
        try:
            results[plan.query_id] = engine.finish(plan.query_id)
        except ScrubExecutionError as exc:
            errors[plan.query_id] = str(exc)
            results[plan.query_id] = None
    return results


def serial_pass(plans: list, frames: list[bytes], events: int) -> CentralPass:
    engine = CentralEngine()
    _register(engine, plans)
    cpu0 = process_time_ns()
    t0 = perf_counter()
    errors: dict[str, str] = {}
    results = _drive(engine, plans, frames, errors)
    wall = perf_counter() - t0
    cpu = process_time_ns() - cpu0
    return CentralPass(results, wall, cpu, events, query_errors=errors)


def pool_pass(plans: list, frames: list[bytes], events: int) -> CentralPass:
    """Same frames through ``ShardPool(workers=nproc)``; CPU is the
    parent's plus every worker's over the ingest and finish."""
    pool = ShardPool(workers=os.cpu_count() or 1)
    try:
        _register(pool, plans)
        pids = [p.pid for p in multiprocessing.active_children()]
        workers0 = sum(tree_cpu_ns(pid) for pid in pids)
        cpu0 = process_time_ns()
        t0 = perf_counter()
        errors: dict[str, str] = {}
        results = _drive(pool, plans, frames, errors)
        wall = perf_counter() - t0
        parent = process_time_ns() - cpu0
        workers = sum(tree_cpu_ns(pid) for pid in pids) - workers0
        health = pool.pool_health()
    finally:
        pool.close()
    return CentralPass(results, wall, parent + workers, events, health, workers, errors)

