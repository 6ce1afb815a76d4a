"""Process CPU and memory from Linux ``/proc``.

CPU comes from each thread's ``schedstat`` (nanosecond run time), not
the 10 ms ``stat`` ticks, so a lightly loaded scrubd still reads
precisely.
"""

from __future__ import annotations

import os

__all__ = ["rss_mb", "tree_cpu_ns"]


def tree_cpu_ns(pid: int) -> int:
    """CPU time of every live thread of *pid*, in ns (0 once it exited)."""
    total = 0
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return 0
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as f:
                total += int(f.read().split()[0])
        except (OSError, ValueError, IndexError):
            continue  # the thread ended between listdir and open
    return total


def rss_mb(pid: int) -> float:
    """Resident set size of *pid* in MiB (0 once it exited)."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0
