"""Unit tests for simulation synchronization primitives."""

import pytest

from repro.sim import Environment, Lock, Store, Resource
from repro.sim.engine import SimulationError


@pytest.fixture()
def env():
    return Environment()


class TestLock:
    def test_acquire_release_roundtrip(self, env):
        lock = Lock(env)
        log = []

        def proc():
            yield lock.acquire()
            log.append("held")
            lock.release()

        env.process(proc())
        env.run()
        assert log == ["held"]
        assert lock.acquire().triggered     # free again: held at once

    def test_mutual_exclusion_and_fifo_order(self, env):
        lock = Lock(env)
        log = []

        def proc(tag, hold):
            yield lock.acquire()
            log.append(("enter", tag, env.now))
            yield env.timeout(hold)
            log.append(("exit", tag, env.now))
            lock.release()

        env.process(proc("a", 10))
        env.process(proc("b", 10))
        env.process(proc("c", 10))
        env.run()
        assert log == [
            ("enter", "a", 0), ("exit", "a", 10),
            ("enter", "b", 10), ("exit", "b", 20),
            ("enter", "c", 20), ("exit", "c", 30),
        ]

    def test_release_unlocked_is_error(self, env):
        with pytest.raises(SimulationError):
            Lock(env).release()


class TestStore:
    def test_put_then_get(self, env):
        store = Store(env)
        got = []

        def producer():
            yield store.put("item")

        def consumer():
            item = yield store.get()
            got.append(item)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert got == ["item"]

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        got = []

        def consumer():
            item = yield store.get()
            got.append((env.now, item))

        def producer():
            yield env.timeout(50)
            yield store.put("late")

        env.process(consumer())
        env.process(producer())
        env.run()
        assert got == [(50, "late")]

    def test_fifo_item_order(self, env):
        store = Store(env)
        got = []

        def producer():
            for i in range(3):
                yield store.put(i)

        def consumer():
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert got == [0, 1, 2]

    def test_bounded_put_blocks_when_full(self, env):
        store = Store(env, capacity=1)
        log = []

        def producer():
            yield store.put("first")
            log.append(("put-first", env.now))
            yield store.put("second")
            log.append(("put-second", env.now))

        def consumer():
            yield env.timeout(100)
            item = yield store.get()
            log.append(("got", item, env.now))

        env.process(producer())
        env.process(consumer())
        env.run()
        assert log == [
            ("put-first", 0),
            ("got", "first", 100),
            ("put-second", 100),
        ]

    def test_try_put_respects_capacity(self, env):
        store = Store(env, capacity=1)
        assert store.try_put("a") is True
        assert store.try_put("b") is False
        first = store.get()
        assert first.triggered and first.value == "a"
        assert not store.get().triggered    # "b" was never stored

    def test_zero_capacity_rejected(self, env):
        with pytest.raises(ValueError):
            Store(env, capacity=0)


class TestResource:
    def test_fifo_queueing(self, env):
        disk = Resource(env, capacity=1)
        log = []

        def proc(tag, duration):
            yield disk.request()
            log.append((tag, env.now))
            yield env.timeout(duration)
            disk.release()

        env.process(proc("a", 30))
        env.process(proc("b", 30))
        env.process(proc("c", 30))
        env.run()
        assert log == [("a", 0), ("b", 30), ("c", 60)]

    def test_capacity_allows_parallelism(self, env):
        disk = Resource(env, capacity=2)
        log = []

        def proc(tag):
            yield disk.request()
            log.append((tag, env.now))
            yield env.timeout(10)
            disk.release()

        for tag in ("a", "b", "c"):
            env.process(proc(tag))
        env.run()
        assert log == [("a", 0), ("b", 0), ("c", 10)]

    def test_queue_depth_visible(self, env):
        disk = Resource(env, capacity=1)
        depths = []

        def holder():
            yield disk.request()
            yield env.timeout(100)
            disk.release()

        def contender():
            yield disk.request()
            disk.release()

        def observer():
            yield env.timeout(50)
            depths.append(disk.queued)

        env.process(holder())
        env.process(contender())
        env.process(contender())
        env.process(observer())
        env.run()
        assert depths == [2]

    def test_release_idle_is_error(self, env):
        with pytest.raises(SimulationError):
            Resource(env).release()
