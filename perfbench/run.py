#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the repository root and prints, as the last line
of standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``).  Progress and diagnostics go
to standard error.  Exits non-zero, printing no result, when the
program's sources are missing or a run cannot complete.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def stop_helper_processes() -> None:
    """Stop every process this run started and wait for each to end.

    A signal or error can leave a scrubd or pool worker behind, and
    ``ShardPool``'s shared-memory rings start multiprocessing's resource
    tracker, which otherwise outlives this process until it notices the
    exit.  Pool workers hold the tracker's pipe open, so they go first.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    from perfbench.live import stop_all

    stop_all()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _unwind(*_: object) -> None:
    """A SIGTERM unwinds like an error, so scrubd and pool workers are
    still stopped and waited for; a second one does not cut that short."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    sys.exit(143)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Scrub end-to-end benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _unwind)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)

    from perfbench.bench import environment, result_json, run_workload, say
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    say(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} "
        f"trace {args.trace} {environment()}")
    try:
        outcome = run_workload(workload, args.seed, args.seconds, bool(args.trace), ROOT)
    finally:
        stop_helper_processes()
    for error in outcome.errors:
        say(f"CHECK FAILED: {error}")
    print(result_json(outcome, bool(args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
