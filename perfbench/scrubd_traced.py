"""Start scrubd with the benchmark's span recorder installed.

    python perfbench/scrubd_traced.py --spans OUT -- [scrubd flags...]

Wraps scrubd's public calls (see ``layers.instrument_central``), then
runs ``repro.live.server.main`` with the given flags.  Spans stay in
memory; when scrubd exits — after a SHUTDOWN request or on SIGTERM —
they are written to ``OUT`` and the side counters to ``OUT.json``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench.layers import CentralCounters, instrument_central  # noqa: E402
from perfbench.trace import SpanRecorder  # noqa: E402
from repro.live import server  # noqa: E402


def _terminate(signum, frame) -> None:
    del signum, frame
    raise SystemExit(0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("scrubd_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    scrubd_args = args.scrubd_args
    if scrubd_args and scrubd_args[0] == "--":
        scrubd_args = scrubd_args[1:]

    recorder = SpanRecorder()
    counters = CentralCounters()
    instrument_central(recorder, counters)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        return server.main(scrubd_args)
    finally:
        recorder.table().save(args.spans)
        args.spans.with_suffix(".json").write_text(json.dumps(counters.as_dict()))


if __name__ == "__main__":
    raise SystemExit(main())
