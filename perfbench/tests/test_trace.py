"""Span recorder and self-time roll-up."""

import asyncio

from perfbench.trace import NO_PARENT, SpanRecorder, SpanTable, rollup


def _add(table, name, start, end, parent=NO_PARENT):
    if name not in table.names:
        table.names.append(name)
    table.name.append(table.names.index(name))
    table.start.append(start)
    table.end.append(end)
    table.parent.append(parent)
    return len(table) - 1


def test_self_time_is_duration_minus_children_on_a_synthetic_tree():
    table = SpanTable([])
    root = _add(table, "root", 0, 100)
    a = _add(table, "child", 10, 40, root)
    _add(table, "grandchild", 15, 25, a)
    _add(table, "child", 50, 70, root)
    _add(table, "other-root", 200, 230)
    out = rollup(table)
    ns = 1e-9
    assert out["root"]["calls"] == 1
    assert abs(out["root"]["self_s"] - (100 - 30 - 20) * ns) < 1e-15
    assert out["child"]["calls"] == 2
    assert abs(out["child"]["self_s"] - ((30 - 10) + 20) * ns) < 1e-15
    assert abs(out["child"]["total_s"] - 50 * ns) < 1e-15
    assert abs(out["grandchild"]["self_s"] - 10 * ns) < 1e-15
    assert abs(out["other-root"]["self_s"] - 30 * ns) < 1e-15


def test_wrapped_calls_nest_and_self_times_add_up():
    rec = SpanRecorder()

    def inner():
        return sum(range(1000))

    traced_inner = rec.wrap("inner", inner)

    def outer():
        return traced_inner() + traced_inner()

    traced_outer = rec.wrap("outer", outer)
    for _ in range(3):
        traced_outer()
    table = rec.table()
    assert len(table) == 9
    names = [table.names[i] for i in table.name]
    parents = list(table.parent)
    for i, name in enumerate(names):
        if name == "outer":
            assert parents[i] == NO_PARENT
        else:
            assert names[parents[i]] == "outer"
    out = rollup(table)
    total_outer = out["outer"]["total_s"]
    assert abs(out["outer"]["self_s"] + out["inner"]["total_s"] - total_outer) < 1e-12


def test_busy_coroutine_span_excludes_suspension_and_never_parents():
    rec = SpanRecorder()

    async def slow():
        await asyncio.sleep(0.05)
        return 7

    traced_slow = rec.wrap_coroutine("slow", slow)
    traced_sync = rec.wrap("sync", lambda: 1)

    async def main():
        task = asyncio.ensure_future(traced_slow())
        await asyncio.sleep(0.01)
        traced_sync()  # runs while `slow` is suspended
        return await task

    assert asyncio.run(main()) == 7
    table = rec.table()
    names = [table.names[i] for i in table.name]
    slow_i, sync_i = names.index("slow"), names.index("sync")
    assert table.parent[sync_i] == NO_PARENT
    assert table.end[slow_i] - table.start[slow_i] < 40_000_000  # < 40 ms of 50 ms


def test_coroutine_spans_filtered_by_result():
    rec = SpanRecorder()

    async def echo(value):
        await asyncio.sleep(0)
        return value

    traced = rec.wrap_coroutine("echo", echo, keep=lambda v: v == "data")

    async def main():
        for value in ("control", "data", "data", None):
            await traced(value)

    asyncio.run(main())
    assert rollup(rec.table())["echo"]["calls"] == 2


def test_busy_generator_span_and_patch_round_trip():
    rec = SpanRecorder()

    class Source:
        def items(self):
            yield from range(5)

    rec.patch(Source, "items", "items", kind="generator")
    assert list(Source().items()) == [0, 1, 2, 3, 4]
    assert rollup(rec.table())["items"]["calls"] == 1
    rec.unpatch()
    assert Source.items.__name__ == "items"
    assert "traced" not in Source.items.__qualname__


def test_span_table_save_load_round_trip(tmp_path):
    table = SpanTable([])
    root = _add(table, "a", 1, 9)
    _add(table, "b", 2, 3, root)
    path = tmp_path / "spans"
    table.save(path)
    loaded = SpanTable.load(path)
    assert loaded.names == table.names
    assert list(loaded.start) == [1, 2] and list(loaded.parent) == [NO_PARENT, 0]
    assert rollup(loaded) == rollup(table)
