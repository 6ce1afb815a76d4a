"""Workload definitions and the seeded event generator.

Every workload is a traffic mix over one ``bid`` event type (plus a
``click`` for one request in ten on ``heavy_central``) and a fixed set
of queries.  Inputs derive only from the seed: the same seed gives the
same field values, request ids and (relative) timestamps, so an
in-process replay can rebuild exactly what the live run logged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BID_FIELDS", "CLICK_FIELDS", "EventStream", "QuerySpec", "Workload", "WORKLOADS"]

BID_FIELDS = [
    ("exchange_id", "long"),
    ("city", "string"),
    ("bid_price", "double"),
    ("user_id", "long"),
    ("latency_ms", "double"),
]
CLICK_FIELDS = [("ad_id", "long")]

CITIES = ("paris", "tokyo", "lima", "oslo", "cairo", "perth", "quito", "seoul")
EXCHANGES = 12
USERS = 100_000
ZIPF_S = 1.1

#: Query spans outlast any run; the benchmark finishes queries itself.
SPAN = "duration 900s"


@dataclass(frozen=True)
class QuerySpec:
    text: str
    #: ``count``: its COUNT(*) column counts delivered events; ``join``:
    #: COUNT(*) counts joined rows (one per click).
    kind: str = "count"


@dataclass(frozen=True)
class Workload:
    name: str
    #: Offered ``bid`` rate in events/s (open loop).
    rate: float
    queries: tuple[QuerySpec, ...]
    click_every: int = 0
    #: Seconds between POLLs of the first query (0 = never).
    poll_every: float = 0.0


HEAVY_AGG = (
    "select bid.exchange_id, COUNT(*), SUM(bid.bid_price), "
    "COUNT_DISTINCT(bid.user_id), TOP(5, bid.city), QUANTILE(bid.latency_ms, 0.99) "
    f"from bid window 1s group by bid.exchange_id {SPAN};"
)
JOIN = (
    "select bid.exchange_id, COUNT(*) from bid, click window 1s "
    f"group by bid.exchange_id {SPAN};"
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ship_all",
            rate=40_000.0,
            queries=(
                QuerySpec(
                    "select bid.exchange_id, COUNT(*) from bid window 1s "
                    f"group by bid.exchange_id {SPAN};"
                ),
            ),
        ),
        Workload(
            name="heavy_central",
            rate=20_000.0,
            queries=(QuerySpec(HEAVY_AGG), QuerySpec(JOIN, kind="join")),
            click_every=10,
            poll_every=1.0,
        ),
    )
}


class EventStream:
    """Seeded columns for the first *n* bid events.

    Field values: ``exchange_id`` uniform over 12, ``city`` over 8
    strings, ``bid_price`` and ``latency_ms`` dyadic (so float sums are
    exact in any order), ``user_id`` Zipf-skewed over 100k ids.  Event
    *i* has request id *i* and is due at ``t0 + i / rate``.
    """

    def __init__(self, seed: int, n: int) -> None:
        rng = np.random.default_rng(seed)
        self.n = n
        self.exchange_id = rng.integers(0, EXCHANGES, n).tolist()
        self.city = [CITIES[c] for c in rng.integers(0, len(CITIES), n).tolist()]
        self.bid_price = (rng.integers(1, 4096, n) / 256.0).tolist()
        weights = 1.0 / np.arange(1, USERS + 1, dtype=np.float64) ** ZIPF_S
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        ranks = np.searchsorted(cdf, rng.random(n), side="right") + 1
        self.user_id = np.minimum(ranks, USERS).tolist()
        self.latency_ms = (rng.integers(16, 32_000, n) / 16.0).tolist()
        self.ad_id = rng.integers(0, 1000, n).tolist()

    def bid(self, i: int) -> dict:
        return {
            "exchange_id": self.exchange_id[i],
            "city": self.city[i],
            "bid_price": self.bid_price[i],
            "user_id": self.user_id[i],
            "latency_ms": self.latency_ms[i],
        }


def timestamp(t0: float, i: int, rate: float) -> float:
    """When event *i* is due (and the timestamp it carries)."""
    return t0 + i / rate


def events_for(workload: Workload, stream: EventStream, count: int, t0: float):
    """``(event_type, fields, request_id, timestamp)`` for the first
    *count* requests, in the order the generator logs them."""
    click_every = workload.click_every
    for i in range(count):
        ts = timestamp(t0, i, workload.rate)
        yield "bid", stream.bid(i), i, ts
        if click_every and i % click_every == 0:
            yield "click", {"ad_id": stream.ad_id[i]}, i, ts


def expected_join_rows(workload: Workload, count: int) -> int:
    """Joined rows a lossless run produces: one per click."""
    return (count + workload.click_every - 1) // workload.click_every

