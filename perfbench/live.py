"""The live phase: a real scrubd subprocess fed by this open-loop generator.

This process is the generator: one application thread drives one
``LiveAgent`` (its own data and control sockets) and one
``ControlClient``.  Event *i* is due at ``t0 + i / rate`` and carries
that timestamp; every ``log()`` call is timed on the application
thread, and how late the schedule ran is recorded per event.  While
nothing is due the generator waits without letting its core go idle;
that wait's CPU is subtracted from the host's.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns, process_time_ns, thread_time_ns
from typing import Any, Optional

from repro.core.query.errors import ScrubError
from repro.live.client import ControlClient, LiveAgent

from .procstat import rss_mb, tree_cpu_ns
from .replay import FLUSH_BATCH, HOST
from .workloads import BID_FIELDS, CLICK_FIELDS, EventStream, Workload, timestamp

__all__ = ["LiveRun", "Scrubd", "Session", "run_live", "setup_session", "stop_all"]

BANNER = re.compile(r"listening on 127\.0\.0\.1:(\d+)")
SPAWN_TIMEOUT = 60.0
INSTALL_TIMEOUT = 30.0

#: Every scrubd started and not yet waited for, so ``stop_all`` can end
#: those a signal or error left behind mid-set-up or mid-stop.
_RUNNING: set[subprocess.Popen] = set()


class Scrubd:
    """A scrubd subprocess with default flags on an ephemeral port.

    Its output goes to a file, so nothing has to keep draining a pipe
    while the benchmark measures.  With *spans* set, scrubd starts
    through the traced launcher, which writes its spans there on exit.
    """

    def __init__(self, root: Path, workdir: Path, spans: Optional[Path] = None) -> None:
        self.log_path = workdir / f"scrubd-{time.monotonic_ns()}.log"
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get(
            "PYTHONPATH"
        ) else src
        env["PYTHONUNBUFFERED"] = "1"
        if spans is None:
            argv = [sys.executable, "-m", "repro.live.server"]
        else:
            argv = [
                sys.executable,
                str(root / "perfbench" / "scrubd_traced.py"),
                "--spans",
                str(spans),
                "--",
            ]
        argv += ["--port", "0"]
        self._log = open(self.log_path, "w")
        started = perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=root, env=env, stdout=self._log, stderr=subprocess.STDOUT
        )
        _RUNNING.add(self.proc)
        self.pid = self.proc.pid
        self.port = self._await_banner()
        self.spawn_s = perf_counter() - started

    def _await_banner(self) -> int:
        deadline = time.monotonic() + SPAWN_TIMEOUT
        with open(self.log_path) as out:
            text = ""
            while time.monotonic() < deadline:
                text += out.read()
                match = BANNER.search(text)
                if match:
                    return int(match.group(1))
                if self.proc.poll() is not None:
                    break
                time.sleep(0.001)
        self.stop()
        raise RuntimeError(f"scrubd did not start:\n{text[-2000:]}")

    def cpu_ns(self) -> int:
        return tree_cpu_ns(self.pid)

    def rss_mb(self) -> float:
        return rss_mb(self.pid)

    def stop(self, control: Optional[ControlClient] = None) -> None:
        """SHUTDOWN over the control channel (or SIGTERM without one),
        escalating to SIGKILL; always waits until the process ended."""
        if control is not None:
            if self.proc.poll() is None:
                try:
                    control.shutdown()
                except (OSError, ConnectionError, ScrubError):
                    pass
            control.close()
        else:
            self.proc.terminate()
        _end(self.proc)
        self._log.close()


def _end(proc: subprocess.Popen) -> None:
    """Wait for *proc*, escalating to SIGTERM and then SIGKILL."""
    try:
        proc.wait(timeout=10.0)
    except subprocess.TimeoutExpired:
        proc.terminate()
        try:
            proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    _RUNNING.discard(proc)


def stop_all() -> None:
    """SIGTERM every scrubd still running and wait until each ended."""
    for proc in list(_RUNNING):
        if proc.poll() is None:
            proc.terminate()
        _end(proc)


@dataclass
class Session:
    """One set-up: scrubd, the registered agent, the installed queries."""

    scrubd: Scrubd
    agent: LiveAgent
    control: ControlClient
    query_ids: list[str]
    span: tuple[float, float]
    setup_s: float
    submit_s: float
    install_s: float

    def close(self) -> None:
        self.agent.close()
        self.scrubd.stop(self.control)


def setup_session(
    workload: Workload, root: Path, workdir: Path, spans: Optional[Path] = None
) -> Session:
    """Spawn scrubd, register the agent, submit every query and wait
    until the agent reports each one installed."""
    started = perf_counter()
    scrubd = Scrubd(root, workdir, spans)
    agent: Optional[LiveAgent] = None
    control = ControlClient(("127.0.0.1", scrubd.port))
    try:
        agent = LiveAgent(
            ("127.0.0.1", scrubd.port),
            HOST,
            flush_batch_size=FLUSH_BATCH,
        )
        agent.define_event("bid", BID_FIELDS)
        if workload.click_every:
            agent.define_event("click", CLICK_FIELDS)
        agent.start()
        submitted = perf_counter()
        handles = [control.submit(q.text) for q in workload.queries]
        submit_s = perf_counter() - submitted
        wanted = {h["query_id"] for h in handles}
        deadline = time.monotonic() + INSTALL_TIMEOUT
        while not wanted.issubset(agent.installed_query_ids):
            if time.monotonic() > deadline:
                raise RuntimeError(f"queries {sorted(wanted)} never installed")
            time.sleep(0.0005)
        done = perf_counter()
    except BaseException:
        if agent is not None:
            agent.close()
        scrubd.stop(control)
        raise
    span = (
        max(h["activates_at"] for h in handles),
        min(h["expires_at"] for h in handles),
    )
    return Session(
        scrubd,
        agent,
        control,
        [h["query_id"] for h in handles],
        span,
        setup_s=done - started,
        submit_s=submit_s,
        install_s=done - submitted,
    )


@dataclass
class LiveRun:
    t0: float                    # wall time event 0 was due (its timestamp)
    requests: int                # bid events logged (request ids 0..requests-1)
    events: int                  # log() calls
    log_ns: array
    lateness_ns: array
    schedule_s: float            # first log -> last log
    host_cpu_ns: int             # generator CPU, less the idle waits
    central_cpu_ns: int
    drained: bool
    poll_ms: list[float] = field(default_factory=list)
    outbox_depth_max: int = 0
    host_rss_mb: float = 0.0
    central_rss_mb: float = 0.0


def run_live(
    session: Session, workload: Workload, stream: EventStream, seconds: float
) -> LiveRun:
    """Send open loop for *seconds*, then drain."""
    agent = session.agent
    transport = agent.transport
    log = agent.log
    poll = session.control.poll
    first_query = session.query_ids[0]
    rate = workload.rate
    requests = min(stream.n, int(rate * seconds))
    log_ns = array("q")
    lateness_ns = array("q")
    record_log = log_ns.append
    record_late = lateness_ns.append
    poll_ms: list[float] = []
    poll_every = workload.poll_every
    outbox_max = 0
    ns_per_event = 1e9 / rate
    click_every = workload.click_every
    bid = stream.bid
    ad_id = stream.ad_id

    t0 = time.time() + 0.05
    start_ns = perf_counter_ns() + 50_000_000
    while perf_counter_ns() < start_ns:
        time.sleep(0.001)
    cpu0 = process_time_ns()
    central0 = session.scrubd.cpu_ns()
    next_poll = poll_every
    idle_cpu = 0
    i = 0
    while i < requests:
        now = perf_counter_ns()
        due_upto = min(requests, int((now - start_ns) / ns_per_event) + 1)
        if due_upto <= i:
            # Nothing due: wait without letting the core go idle (an idle
            # core makes the next call pay a cold start whose cost is set
            # by the machine's neighbours), yielding the GIL to the
            # agent's threads.  The wait's CPU is not host work.
            spin0 = thread_time_ns()
            due = start_ns + i * ns_per_event
            while perf_counter_ns() < due:
                time.sleep(0)
            idle_cpu += thread_time_ns() - spin0
            continue
        while i < due_upto:
            fields = bid(i)
            ts = timestamp(t0, i, rate)
            a = perf_counter_ns()
            log("bid", fields, request_id=i, timestamp=ts)
            b = perf_counter_ns()
            record_log(b - a)
            record_late(a - start_ns - int(i * ns_per_event))
            if click_every and i % click_every == 0:
                fields = {"ad_id": ad_id[i]}
                a = perf_counter_ns()
                log("click", fields, request_id=i, timestamp=ts)
                record_log(perf_counter_ns() - a)
            i += 1
        depth = transport.outbox_depth
        if depth > outbox_max:
            outbox_max = depth
        if poll_every and (now - start_ns) / 1e9 >= next_poll:
            next_poll += poll_every
            a = perf_counter_ns()
            poll(first_query)
            poll_ms.append((perf_counter_ns() - a) / 1e6)
    schedule_s = (perf_counter_ns() - start_ns) / 1e9
    drained = agent.drain(timeout=60.0)
    host_cpu = process_time_ns() - cpu0 - idle_cpu
    central_cpu = session.scrubd.cpu_ns() - central0
    return LiveRun(
        t0=t0,
        requests=requests,
        events=len(log_ns),
        log_ns=log_ns,
        lateness_ns=lateness_ns,
        schedule_s=schedule_s,
        host_cpu_ns=host_cpu,
        central_cpu_ns=central_cpu,
        drained=drained,
        poll_ms=poll_ms,
        outbox_depth_max=outbox_max,
        host_rss_mb=rss_mb(os.getpid()),
        central_rss_mb=session.scrubd.rss_mb(),
    )


def collect(session: Session) -> tuple[dict[str, Any], dict[str, Any], dict[str, Any]]:
    """Per-query agent stats and scrubd STATS (while queries still run),
    then FINISH every query.  Returns ``(query_stats, stats, results)``."""
    agent = session.agent.agent
    query_stats = {qid: agent.query_stats(qid) for qid in session.query_ids}
    stats = session.control.stats()
    results = {qid: session.control.finish(qid) for qid in session.query_ids}
    return query_stats, stats, results

