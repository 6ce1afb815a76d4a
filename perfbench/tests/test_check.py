"""The outputs check rejects any unaccounted loss."""

from repro.core.agent.transport import EventBatch
from repro.core.central.engine import CentralEngine
from repro.core.events import Event, EventRegistry
from repro.core.query import parse_query, plan_query, validate_query

from perfbench.check import QueryTally, conservation, count_column

QUERY = "select bid.exchange_id, COUNT(*) from bid window 1s group by bid.exchange_id;"


def _results(events):
    registry = EventRegistry()
    registry.define("bid", [("exchange_id", "long")])
    plan = plan_query(validate_query(parse_query(QUERY), registry), "q1")
    engine = CentralEngine()
    engine.register(plan.central_object)
    engine.ingest(EventBatch(host="h", query_id="q1", events=events))
    return engine.finish("q1")


def _events(n):
    return [Event("bid", {"exchange_id": i % 3}, i, 100.0 + i / n, "h") for i in range(n)]


def _tally(results, attempted, **losses):
    return QueryTally(
        query_id="q1",
        kind="count",
        attempted=attempted,
        delivered=int(count_column(results)),
        late=losses.get("late", results.total_late_events),
        dropped=losses.get("dropped", 0),
        shed=losses.get("shed", 0),
    )


def test_exact_result_set_passes():
    events = _events(50)
    attempted, failed, errors = conservation([_tally(_results(events), 50)], 0)
    assert (attempted, failed, errors) == (50, 0, [])


def test_result_set_with_one_event_removed_is_rejected():
    events = _events(50)
    del events[17]
    _, _, errors = conservation([_tally(_results(events), 50)], 0)
    assert errors and "unaccounted" in errors[0]


def test_named_losses_balance_and_count_as_failures():
    events = _events(50)[:47]
    tally = _tally(_results(events), 50, dropped=1, shed=1, late=1)
    attempted, failed, errors = conservation([tally], 0)
    assert errors == [] and failed == 3 and attempted == 50


def test_transport_drops_reconcile_across_queries_only_exactly():
    events = _events(50)[:48]
    tally = _tally(_results(events), 50)
    assert conservation([tally], 2)[2] == []
    assert conservation([tally], 1)[2]
    assert conservation([tally], 3)[2]


def test_join_rows_must_match_when_nothing_was_lost():
    good = QueryTally("q2", "join", attempted=22, delivered=2, late=0, dropped=0, shed=0,
                      expected_rows=2)
    short = QueryTally("q2", "join", attempted=22, delivered=1, late=0, dropped=0, shed=0,
                       expected_rows=2)
    assert conservation([good], 0)[2] == []
    assert conservation([short], 0)[2]


def test_transport_drops_beyond_the_count_queries_fall_to_the_join():
    count = _tally(_results(_events(50)[:48]), 50)
    join = QueryTally("q2", "join", attempted=55, delivered=4, late=0, dropped=0, shed=0,
                      expected_rows=5)
    assert conservation([count, join], 3)[2] == []  # 2 bids + 1 join pair lost
    assert conservation([count, join], 1)[2]        # less than the count query lost
    assert conservation([count, join], 2)[2]        # a joined row lost with no join loss
