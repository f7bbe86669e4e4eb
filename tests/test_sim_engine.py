"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Environment, Event, Interrupt
from repro.sim.engine import SimulationError


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0


def test_timeout_advances_clock():
    env = Environment()
    done = []

    def proc():
        yield env.timeout(100)
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [100]


def test_timeouts_fire_in_order():
    env = Environment()
    order = []

    def proc(delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(proc(300, "c"))
    env.process(proc(100, "a"))
    env.process(proc(200, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_creation_order():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(50)
        order.append(tag)

    for tag in ("x", "y", "z"):
        env.process(proc(tag))
    env.run()
    assert order == ["x", "y", "z"]


def test_run_until_timestamp_stops_clock():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(10)

    env.process(proc())
    env.run(until=95)
    assert env.now == 95


def test_run_until_event_returns_value():
    env = Environment()

    def proc():
        yield env.timeout(5)
        return "result"

    p = env.process(proc())
    assert env.run(until=p) == "result"


def test_process_exception_propagates_through_run():
    env = Environment()

    def proc():
        yield env.timeout(1)
        raise ValueError("boom")

    p = env.process(proc())
    with pytest.raises(ValueError, match="boom"):
        env.run(until=p)


def test_event_succeed_wakes_waiter_with_value():
    env = Environment()
    trigger = env.event()
    seen = []

    def waiter():
        value = yield trigger
        seen.append(value)

    def firer():
        yield env.timeout(42)
        trigger.succeed("payload")

    env.process(waiter())
    env.process(firer())
    env.run()
    assert seen == ["payload"]


def test_event_fail_raises_in_waiter():
    env = Environment()
    trigger = env.event()
    caught = []

    def waiter():
        try:
            yield trigger
        except RuntimeError as exc:
            caught.append(str(exc))

    def firer():
        yield env.timeout(1)
        trigger.fail(RuntimeError("bad"))

    env.process(waiter())
    env.process(firer())
    env.run()
    assert caught == ["bad"]


def test_double_trigger_rejected():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_waiting_on_processed_event_resumes_immediately():
    env = Environment()
    trigger = env.event()
    trigger.succeed("early")
    seen = []

    def late_waiter():
        yield env.timeout(10)
        value = yield trigger
        seen.append((env.now, value))

    env.process(late_waiter())
    env.run()
    assert seen == [(10, "early")]


def test_process_waits_on_another_process():
    env = Environment()
    log = []

    def child():
        yield env.timeout(30)
        return "child-done"

    def parent():
        result = yield env.process(child())
        log.append((env.now, result))

    env.process(parent())
    env.run()
    assert log == [(30, "child-done")]


def test_interrupt_raises_in_process():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(1_000_000)
        except Interrupt as exc:
            log.append((env.now, exc.cause))

    def killer(victim):
        yield env.timeout(5)
        victim.interrupt("stop")

    victim = env.process(sleeper())
    env.process(killer(victim))
    env.run()
    assert log == [(5, "stop")]


def test_interrupt_escaping_generator_finishes_process():
    env = Environment()

    def sleeper():
        yield env.timeout(1_000_000)

    victim = env.process(sleeper())

    def killer():
        yield env.timeout(3)
        victim.interrupt("shutdown")

    env.process(killer())
    env.run()
    assert victim.triggered
    assert victim.value == "shutdown"


def test_interrupt_before_first_run_is_clean():
    """Interrupting a process that never started must not leave a
    stale bootstrap event that resumes the dead process later."""
    env = Environment()
    log = []

    def never_runs():
        log.append("ran")
        yield env.timeout(1)

    def killer():
        victim = env.process(never_runs())
        victim.interrupt("early")       # same instant, before bootstrap
        yield env.timeout(10)
        return victim

    victim = env.run(until=env.process(killer()))
    assert victim.triggered
    assert victim.value == "early"
    assert log == []                    # body never executed


def test_interrupt_finished_process_is_error():
    env = Environment()

    def quick():
        yield env.timeout(1)

    p = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_any_of_fires_on_first():
    env = Environment()
    log = []

    def proc():
        t1 = env.timeout(10, "fast")
        t2 = env.timeout(20, "slow")
        result = yield env.any_of([t1, t2])
        log.append((env.now, t1 in result.events, t1.value))

    env.process(proc())
    env.run()
    assert log == [(10, True, "fast")]


def test_all_of_waits_for_all():
    env = Environment()
    log = []

    def proc():
        t1 = env.timeout(10, "a")
        t2 = env.timeout(20, "b")
        result = yield env.all_of([t1, t2])
        log.append((env.now, len(result.events)))

    env.process(proc())
    env.run()
    assert log == [(20, 2)]


def test_yield_non_event_is_error():
    """A process yields an event or an exact non-negative ``int``.

    Anything else fails the *process* (not the engine) with an error
    naming it; ``True`` in particular never sleeps 1 ns by accident.
    """
    for bad_value in ("42", 1.5, True, -1, None):
        env = Environment()

        def bad():
            yield 1
            yield bad_value

        p = env.process(bad())
        with pytest.raises((SimulationError, ValueError), match="'bad'"):
            env.run(until=p)
        assert env.now == 1


def test_bare_delay_sleeps_and_resumes_with_none():
    env = Environment()
    seen = []

    def proc():
        seen.append(((yield 40), env.now))
        seen.append(((yield 0), env.now))

    env.process(proc())
    env.run()
    assert seen == [(None, 40), (None, 40)]


def test_interrupting_a_bare_sleeper_resumes_it_once():
    """The stale queue entry fires nothing but is still one processed
    event — what an abandoned, callback-less ``Timeout`` counts as."""
    def scenario(sleep):
        env = Environment()
        log = []

        def sleeper():
            try:
                yield sleep(env, 1_000)
            except Interrupt as exc:
                log.append((env.now, exc.cause))
            yield sleep(env, 2_000)
            log.append((env.now, "slept"))

        def killer(victim):
            yield sleep(env, 5)
            victim.interrupt("stop")

        victim = env.process(sleeper())
        env.process(killer(victim))
        env.run()
        return log, env.now, env.events_processed

    bare = scenario(lambda env, delay: delay)
    timeout = scenario(lambda env, delay: env.timeout(delay))
    assert bare == timeout
    assert bare[0] == [(5, "stop"), (2_005, "slept")]


def test_run_until_stops_between_inline_sleeps_and_resumes():
    """A lone process resumes inline; cutting the run between two of
    its sleeps and resuming yields the uncut trace."""
    def trace(cuts):
        env = Environment()
        seen = []

        def proc():
            for _ in range(6):
                yield 10
                seen.append((env.now, env.events_processed))

        env.process(proc())
        for cut in cuts:
            env.run(until=cut)
            assert env.now == cut
        env.run()
        return seen, env.now, env.events_processed

    uncut = trace([])
    assert uncut[0][0] == (10, 2)         # bootstrap + one sleep
    assert trace([25]) == uncut
    assert trace([20, 20, 41]) == uncut   # a cut exactly on a wake-up


def test_sleepers_are_queue_entries():
    env = Environment()

    def proc(delay):
        yield delay

    def queue():
        """How many entries wait, and when the first is due."""
        return len(env._queue), min(entry[0] for entry in env._queue)

    env.process(proc(7))
    env.process(proc(3))
    assert queue() == (2, 0)              # two bootstraps
    env.run(until=0)
    assert queue() == (2, 3)              # two sleepers
    env.run()
    assert (env._queue, env.now) == ([], 7)


def test_equal_wakeups_fire_in_queueing_order():
    """A tie never resumes inline: it goes through the queue, where
    ``(priority, seq)`` decides — "b" asked for t=20 first."""
    env = Environment()
    order = []

    def proc(tag, first, second):
        yield first
        order.append((env.now, tag))
        yield second
        order.append((env.now, tag))

    env.process(proc("a", 10, 10))
    env.process(proc("b", 20, 0))
    env.run()
    assert order == [(10, "a"), (20, "b"), (20, "a"), (20, "b")]


def test_waiters_of_one_event_all_resume_before_any_moves_the_clock():
    env = Environment()
    gate = env.event()
    order = []

    def waiter(tag, nap):
        yield gate
        order.append((env.now, tag))
        yield nap
        order.append((env.now, tag))

    def opener():
        yield 5
        gate.succeed()

    env.process(waiter("a", 100))
    env.process(waiter("b", 1))
    env.process(opener())
    env.run()
    assert order == [(5, "a"), (5, "b"), (6, "b"), (105, "a")]


def test_run_until_event_leaves_its_waiters_next_sleep_queued():
    """Whatever a waiter of the awaited event does next belongs to the
    caller's next run: the clock stops where the event fired."""
    env = Environment()

    def child():
        yield 5
        return "done"

    def parent(child_proc):
        yield child_proc
        yield 1_000

    child_proc = env.process(child())
    env.process(parent(child_proc))
    assert env.run(until=child_proc) == "done"
    assert env.now == 5
    env.run()
    assert env.now == 1_005
