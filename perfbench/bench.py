"""Run one workload and report its metrics (see ``run.py`` for the CLI).

Every workload has two phases:

1. **Live.**  scrubd (default flags) in a subprocess, this process as
   the open-loop generator.  Set-up is repeated ``SETUP_REPEATS`` times
   from a fresh scrubd and the median reported; the last set-up is
   measured.  After the schedule ends the agent drains, per-query agent
   counters and scrubd STATS are read, and every query is finished.
2. **Replay.**  The same events go through an in-process agent into
   wire frames.  One serial ``CentralEngine`` pass over every frame must
   give the live results.  Then serial and ``ShardPool(workers=nproc)``
   passes alternate, for as long as the live phase ran, over the frames
   of the aggregate (non-join) queries; the pool's results must be
   bit-identical to the serial ones.  ``ShardPool`` cannot finish a join
   query (its workers hand ``JoinBuffer.join()``'s generator to
   ``WindowGroups.process_batch``, which takes its ``len()``), so join
   queries are replayed serially only.

With ``--trace 1`` the workload runs twice, untraced and then traced;
the traced run yields the per-layer metrics and the difference between
the two gives the tracing overhead of every end-to-end metric.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

from .check import QueryTally, conservation, count_column, normalized, signature
from .layers import instrument_host, instrument_pool
from .live import collect, run_live, setup_session
from .replay import (
    CentralPass,
    agent_pass,
    plans_for,
    pool_pass,
    registry_for,
    serial_pass,
)
from .trace import SpanRecorder, SpanTable, rollup
from .workloads import EventStream, Workload, expected_join_rows

#: Fresh-scrubd set-ups per live run; the median is ``setup_s``.
SETUP_REPEATS = 5
#: A generator that ran this far behind its schedule (p99), or below
#: this share of the offered rate, did not offer the load it claims; its
#: numbers are not valid.  Half scrubd's 2 s window grace: below it, a
#: late generator cannot turn events late at central.
MAX_LATENESS_P99_S = 1.0
MIN_ACHIEVED_SHARE = 0.97
#: The replay times serial/pool pairs over frames carrying this many of
#: the live run's shipped events, for as long as the live phase ran and
#: at least REPLAY_MIN_PAIRS times.
REPLAY_EVENTS = 10_000
REPLAY_MIN_PAIRS = 3
#: Each replay figure is the mean of this many best passes (see ``_best``).
BEST_PASSES = 3

E2E_UNITS = {
    "setup_s": "s",
    "log_ns_p50": "ns",
    "log_ns_p999": "ns",
    "host_cpu_ns_per_event": "ns",
    "central_cpu_ns_per_event": "ns",
    "events_per_s": "ev/s",
    "pool_events_per_s": "ev/s",
    "pool_cpu_ns_per_event": "ns",
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (*q* in [0, 1]); 0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, int(round(q * len(ordered) + 0.5)) - 1))
    return float(ordered[rank])


def say(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    e2e: dict[str, float]
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


# -- the replay phase -------------------------------------------------------------


def _replay_checks(serial: CentralPass, pool: CentralPass) -> list[str]:
    """Both passes must finish every query, with bit-identical results."""
    errors = [f"{qid}: serial engine failed: {e}" for qid, e in serial.query_errors.items()]
    errors += [f"{qid}: ShardPool failed: {e}" for qid, e in pool.query_errors.items()]
    return errors + [
        f"{qid}: ShardPool results differ from the serial engine"
        for qid, results in serial.results.items()
        if results is not None
        and pool.results[qid] is not None
        and signature(results) != signature(pool.results[qid])
    ]


def _report_passes(workload: Workload, serial: list[CentralPass], pool: list[CentralPass]) -> None:
    say(f"{workload.name}: serial ev/s by pass: " + " ".join(
        f"{p.events / p.wall_s:.0f}" for p in serial))
    say(f"{workload.name}: pool ev/s by pass: " + " ".join(
        f"{p.events / p.wall_s:.0f}" for p in pool))


def _live_check(replay: CentralPass, live_results: dict) -> list[str]:
    return [f"{qid}: serial engine failed: {e}" for qid, e in replay.query_errors.items()] + [
        f"{qid}: live results differ from the in-process replay"
        for qid, results in replay.results.items()
        if results is not None and normalized(results) != normalized(live_results[qid])
    ]


def _pool_layers(pool: CentralPass, rolled: dict) -> dict[str, tuple[float, str]]:
    health = pool.health or {}
    gaps = sum(
        len(w.coverage.shard_gaps)
        for results in pool.results.values()
        if results is not None
        for w in results.windows
        if w.coverage is not None
    )
    return {
        "core.central.pool.ingest_frame_s": (_self(rolled, "core.central.pool.ingest_frame"), "s"),
        "core.central.pool.finish_s": (_total(rolled, "core.central.pool.finish"), "s"),
        "core.central.pool.worker_cpu_s": (pool.worker_cpu_ns / 1e9, "s"),
        "core.central.pool.ring_spills": (health.get("ring_spills", 0), "count"),
        "core.central.pool.ring_bytes_in_place": (health.get("ring_bytes_in_place", 0), "B"),
        "core.central.pool.shard_gaps": (gaps, "count"),
    }


def _self(rolled: dict, name: str) -> float:
    return rolled.get(name, {}).get("self_s", 0.0)


def _total(rolled: dict, name: str) -> float:
    return rolled.get(name, {}).get("total_s", 0.0)


def _calls(rolled: dict, name: str) -> int:
    return int(rolled.get(name, {}).get("calls", 0))


def _central_layers(rolled: dict, counters: dict) -> dict[str, tuple[float, str]]:
    lags = counters.get("window_lag_ms", [])
    return {
        "live.protocol.read_frame.calls": (_calls(rolled, "live.protocol.read_frame"), "count"),
        "live.protocol.read_frame_s": (_total(rolled, "live.protocol.read_frame"), "s"),
        "core.agent.transport.decode_s": (_self(rolled, "core.agent.transport.decode"), "s"),
        "core.agent.transport.decode_events": (counters.get("decode_events", 0), "count"),
        "live.server.queue_wait_s": (counters.get("queue_wait_ns", 0) / 1e9, "s"),
        "core.central.engine.wire_size_s": (_self(rolled, "core.central.engine.wire_size"), "s"),
        "core.central.engine.ingest.calls": (_calls(rolled, "core.central.engine.ingest"), "count"),
        "core.central.engine.ingest.self_s": (_self(rolled, "core.central.engine.ingest"), "s"),
        "core.central.engine.ingest.events": (counters.get("ingest_events", 0), "count"),
        "core.central.groupby.process_batch_s": (
            _self(rolled, "core.central.groupby.process_batch"), "s"),
        "core.central.aggregates.update_many_s": (
            _self(rolled, "core.central.aggregates.update_many"), "s"),
        "core.central.join_s": (_self(rolled, "core.central.join"), "s"),
        "core.approx.hll_s": (_self(rolled, "core.approx.hll"), "s"),
        "core.approx.spacesaving_s": (_self(rolled, "core.approx.spacesaving"), "s"),
        "core.approx.quantile_s": (_self(rolled, "core.approx.quantile"), "s"),
        "core.central.engine.advance.calls": (_calls(rolled, "core.central.engine.advance"), "count"),
        "core.central.engine.advance_s": (_self(rolled, "core.central.engine.advance"), "s"),
        "core.central.engine.results_so_far_s": (
            _total(rolled, "core.central.engine.results_so_far"), "s"),
        "live.server.window_lag_ms_p50": (percentile(lags, 0.5), "ms"),
    }


def _host_layers(rolled: dict, stats: Any, log_ns) -> dict[str, tuple[float, str]]:
    checked = stats.events_checked
    return {
        "core.agent.log.calls": (_calls(rolled, "core.agent.log"), "count"),
        "core.agent.log.self_s": (_self(rolled, "core.agent.log"), "s"),
        "core.agent.log_ns_p99": (percentile(log_ns, 0.99), "ns"),
        "core.agent.match_ratio": (stats.events_matched / checked if checked else 0.0, "ratio"),
        "core.agent.flush.calls": (_calls(rolled, "core.agent.flush"), "count"),
        "core.agent.flush.self_s": (_self(rolled, "core.agent.flush"), "s"),
        "core.agent.wire_size_s": (_self(rolled, "core.agent.wire_size"), "s"),
        "core.agent.events_shipped": (stats.events_shipped, "count"),
        "core.agent.events_dropped": (stats.events_dropped, "count"),
        "core.agent.events_shed": (stats.events_shed, "count"),
        "live.transport.send_s": (_self(rolled, "live.transport.send"), "s"),
        "live.transport.encode_s": (_self(rolled, "live.transport.encode"), "s"),
        "live.transport.drain_s": (_total(rolled, "live.transport.drain"), "s"),
    }


def _shares(host: dict, central: dict) -> dict[str, tuple[float, str]]:
    """Share of each process's traced self time the acceptance claims
    are about: frame read + decode in scrubd, ``log()`` in the generator."""
    host_self = sum(entry["self_s"] for entry in host.values())
    central_self = sum(entry["self_s"] for entry in central.values())
    read_decode = _total(central, "live.protocol.read_frame") + _self(
        central, "core.agent.transport.decode"
    )
    return {
        "host.log_self_share": (
            _self(host, "core.agent.log") / host_self if host_self else 0.0, "ratio"),
        "central.read_decode_self_share": (
            read_decode / central_self if central_self else 0.0, "ratio"),
    }


def _replay(
    workload: Workload,
    stream: EventStream,
    requests: int,
    t0: float,
    query_ids: list[str],
    span: tuple[float, float],
    trace: bool,
    seconds: float,
) -> tuple[CentralPass, list[CentralPass], list[CentralPass], dict]:
    """An agent encode pass; one full serial pass over every frame for
    the outputs check; then serial and pool passes alternate over the
    aggregate queries' frames, taken from the start and cycling until
    they carry ``REPLAY_EVENTS`` events, until *seconds* have passed and
    at least ``REPLAY_MIN_PAIRS`` pairs ran.  When tracing, every pool
    pass is traced but only the first is rolled up, so per-layer totals
    do not depend on how many passes fit in the time."""
    registry = registry_for(workload)
    plans = plans_for(workload, registry, query_ids)
    shipped = agent_pass(workload, stream, requests, t0, plans, span, registry)
    full = serial_pass(plans, [frame for _, frame, _ in shipped], sum(n for *_, n in shipped))
    # ShardPool cannot finish a join query (see the module docstring).
    plans = [plan for spec, plan in zip(workload.queries, plans) if spec.kind != "join"]
    timed = {plan.query_id for plan in plans}
    frames, events = _timing_frames([(f, n) for qid, f, n in shipped if qid in timed])
    serial_passes: list[CentralPass] = []
    pool_passes: list[CentralPass] = []
    recorders: list[SpanRecorder] = []
    deadline = perf_counter() + seconds
    while True:
        serial_passes.append(serial_pass(plans, frames, events))
        rec = SpanRecorder()
        recorders.append(rec)
        if trace:
            instrument_pool(rec)
        try:
            pool_passes.append(pool_pass(plans, frames, events))
        finally:
            rec.unpatch()
        if perf_counter() >= deadline and len(serial_passes) >= REPLAY_MIN_PAIRS:
            break
    return full, serial_passes, pool_passes, rollup(recorders[0].table())


def _timing_frames(frames: list[tuple[bytes, int]]) -> tuple[list[bytes], int]:
    """Frames from the start, repeating the stream if it is shorter,
    until they carry at least ``REPLAY_EVENTS`` events: every timed pass
    does the same amount of central work whatever share of events
    shipped."""
    if not frames:
        raise RuntimeError("no aggregate query shipped an event to replay")
    out: list[bytes] = []
    count = 0
    while count < REPLAY_EVENTS:
        for frame, n in frames:
            out.append(frame)
            count += n
            if count >= REPLAY_EVENTS:
                break
    return out, count


def _best(values, higher: bool) -> float:
    """Mean of the ``BEST_PASSES`` best values.  A core on a shared
    machine runs tens of percent slower for seconds at a time, in CPU
    time as much as in wall time, so the slowdown is the core's, not
    preemption.  Nothing makes a pass faster than the code allows, so
    the least disturbed passes track the code, and a regression slows
    them all; averaging several keeps one pass from setting the figure."""
    return statistics.mean(sorted(values, reverse=higher)[:BEST_PASSES])


def _replay_metrics(serial: list[CentralPass], pool: list[CentralPass]) -> dict[str, float]:
    return {
        "events_per_s": _best((p.events / p.wall_s for p in serial), higher=True),
        "pool_events_per_s": _best((p.events / p.wall_s for p in pool), higher=True),
        "pool_cpu_ns_per_event": _best((p.cpu_ns / p.events for p in pool), higher=False),
    }


# -- one live run ---------------------------------------------------------------------


def _run_live_once(
    workload: Workload,
    stream: EventStream,
    seconds: float,
    root: Path,
    workdir: Path,
    trace: bool,
) -> Outcome:
    host_rec = SpanRecorder()
    if trace:
        instrument_host(host_rec)
    spans_path = workdir / "scrubd.spans" if trace else None
    setups = []
    spawn, submit, install = [], [], []
    try:
        for repeat in range(SETUP_REPEATS):
            session = setup_session(workload, root, workdir, spans_path)
            setups.append(session.setup_s)
            spawn.append(session.scrubd.spawn_s)
            submit.append(session.submit_s)
            install.append(session.install_s)
            if repeat + 1 < SETUP_REPEATS:
                session.close()
        try:
            live = run_live(session, workload, stream, seconds)
            query_stats, stats, live_results = collect(session)
            agent_stats = session.agent.agent.stats
            transport = session.agent.transport
            transport_counts = (transport.batches_sent, transport.bytes_sent,
                                transport.dropped_events)
        finally:
            session.close()
    finally:
        host_rec.unpatch()
    host_rolled = rollup(host_rec.table())

    full, serial, pool, pool_rolled = _replay(
        workload, stream, live.requests, live.t0, session.query_ids, session.span,
        trace, seconds,
    )

    # Outputs check: conservation per query, then the replays.
    tallies = []
    for spec, qid in zip(workload.queries, session.query_ids):
        results, qs = live_results[qid], query_stats[qid]
        tallies.append(QueryTally(
            query_id=qid,
            kind=spec.kind,
            attempted=qs.seen,
            delivered=int(count_column(results)),
            late=results.total_late_events,
            dropped=qs.dropped,
            shed=qs.shed,
            expected_rows=expected_join_rows(workload, live.requests) if spec.kind == "join"
            else 0,
        ))
    attempted, failed, errors = conservation(tallies, transport_counts[2])
    if not live.drained:
        errors.append("the agent never drained")
    for s, p in zip(serial, pool):
        errors += _replay_checks(s, p)
    if failed == 0:
        errors += _live_check(full, live_results)
    else:
        say(f"{workload.name}: {failed} pair(s) lost; live-vs-replay comparison skipped")

    # Generator honesty.
    achieved = live.requests / live.schedule_s
    lateness_p99 = percentile(live.lateness_ns, 0.99) / 1e9
    lateness_max = max(live.lateness_ns, default=0) / 1e9
    say(
        f"{workload.name}: offered {workload.rate:.0f} req/s, achieved {achieved:.0f} req/s, "
        f"lateness p99 {lateness_p99 * 1e3:.2f} ms, max {lateness_max * 1e3:.2f} ms"
    )
    if achieved < MIN_ACHIEVED_SHARE * workload.rate or lateness_p99 > MAX_LATENESS_P99_S:
        errors.append(
            f"generator fell behind: achieved {achieved:.0f}/{workload.rate:.0f} req/s, "
            f"lateness p99 {lateness_p99:.3f} s"
        )

    _report_passes(workload, serial, pool)
    e2e = {
        "setup_s": statistics.median(setups),
        "log_ns_p50": percentile(live.log_ns, 0.5),
        "log_ns_p999": percentile(live.log_ns, 0.999),
        "host_cpu_ns_per_event": live.host_cpu_ns / live.events,
        "central_cpu_ns_per_event": live.central_cpu_ns / live.events,
        **_replay_metrics(serial, pool),
    }
    outcome = Outcome(not errors, attempted, failed, e2e, errors=errors)
    if not trace:
        return outcome

    central_rolled: dict = {}
    counters: dict = {}
    if spans_path is not None and spans_path.exists():
        central_rolled = rollup(SpanTable.load(spans_path))
        counters = json.loads(spans_path.with_suffix(".json").read_text())
    layers = _host_layers(host_rolled, agent_stats, live.log_ns)
    layers.update({
        "live.transport.encode_bytes": (transport_counts[1], "B"),
        "live.transport.batches_sent": (transport_counts[0], "count"),
        "live.transport.dropped_events": (transport_counts[2], "count"),
        "live.transport.outbox_depth_max": (live.outbox_depth_max, "count"),
    })
    layers.update(_central_layers(central_rolled, counters))
    layers.update({
        "core.central.engine.events_late": (stats["engine"]["events_late"], "count"),
        "live.server.poll_ms_p50": (percentile(live.poll_ms, 0.5), "ms"),
        "live.server.spawn_s": (statistics.median(spawn), "s"),
        "live.server.submit_s": (statistics.median(submit), "s"),
        "core.agent.install_s": (statistics.median(install), "s"),
        "host.cpu_s": (live.host_cpu_ns / 1e9, "s"),
        "host.rss_mb": (live.host_rss_mb, "MB"),
        "central.cpu_s": (live.central_cpu_ns / 1e9, "s"),
        "central.rss_mb": (live.central_rss_mb, "MB"),
        "generator.offered_rate": (workload.rate, "req/s"),
        "generator.achieved_rate": (achieved, "req/s"),
        "generator.lateness_ms_p99": (lateness_p99 * 1e3, "ms"),
        "generator.lateness_ms_max": (lateness_max * 1e3, "ms"),
    })
    layers.update(_pool_layers(pool[0], pool_rolled))
    layers.update(_shares(host_rolled, central_rolled))
    outcome.layers = layers
    return outcome


# -- entry ---------------------------------------------------------------------------


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, root: Path) -> Outcome:
    workdir = root / ".perfbench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        stream = EventStream(seed, int(workload.rate * seconds) + 1)
        # The pre-generated inputs are the benchmark's, not the
        # application's: keep them out of the collector's full scans.
        gc.collect()
        gc.freeze()

        def once(traced: bool) -> Outcome:
            return _run_live_once(workload, stream, seconds, root, workdir, traced)

        plain = once(False)
        if not trace:
            return plain
        traced = once(True)
        for name, unit in E2E_UNITS.items():
            traced.layers[f"trace_overhead.{name}"] = (traced.e2e[name] - plain.e2e[name], unit)
        say("tracing overhead (traced - untraced): " + ", ".join(
            f"{name} {traced.e2e[name] - plain.e2e[name]:+.4g} {unit}"
            for name, unit in E2E_UNITS.items()))
        traced.errors = plain.errors + traced.errors
        traced.correct = plain.correct and traced.correct
        return traced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def environment() -> dict[str, Any]:
    return {"cpu_count": os.cpu_count(), "python": platform.python_version()}


def result_json(outcome: Outcome, trace: bool) -> str:
    if trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in sorted(outcome.layers.items())}
    else:
        metrics = {name: {"value": outcome.e2e[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    return json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    })
