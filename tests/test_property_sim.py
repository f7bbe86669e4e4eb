"""Property-based tests: simulation engine and ring buffer invariants."""

from hypothesis import given, settings, strategies as st

from repro.ebpf import PerCPURingBuffer
from repro.sim import Environment, Interrupt, Lock, Resource, Store
from repro.sim.engine import SimulationError


class TestEngineProperties:
    @given(delays=st.lists(st.integers(min_value=0, max_value=10_000),
                           min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_processes_complete_in_delay_order(self, delays):
        env = Environment()
        completions = []

        def proc(index, delay):
            yield env.timeout(delay)
            completions.append((env.now, index))

        for index, delay in enumerate(delays):
            env.process(proc(index, delay))
        env.run()

        times = [t for t, _ in completions]
        assert times == sorted(times)
        # Ties resolve in creation order (determinism).
        expected = sorted(range(len(delays)), key=lambda i: (delays[i], i))
        assert [i for _, i in completions] == expected

    @given(delays=st.lists(st.integers(min_value=0, max_value=1000),
                           min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_clock_ends_at_max_delay(self, delays):
        env = Environment()
        for delay in delays:
            env.process(iter_timeout(env, delay))
        env.run()
        assert env.now == max(delays)

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_store_is_fifo_under_any_interleaving(self, data):
        env = Environment()
        store = Store(env)
        n = data.draw(st.integers(min_value=1, max_value=20))
        put_delays = data.draw(st.lists(
            st.integers(min_value=0, max_value=100), min_size=n, max_size=n))
        received = []

        def producer(item, delay):
            yield env.timeout(delay)
            yield store.put(item)

        def consumer():
            for _ in range(n):
                item = yield store.get()
                received.append(item)

        # Items are produced at arbitrary times but numbered by
        # production order; FIFO must deliver in that order.
        schedule = sorted(enumerate(put_delays), key=lambda pair: pair[1])
        for order, (_, delay) in enumerate(schedule):
            env.process(producer(order, delay))
        env.process(consumer())
        env.run()
        assert received == sorted(received)


def iter_timeout(env, delay):
    yield env.timeout(delay)


# --- bare delay == Timeout: the retired sleeping path is the oracle ----------
#
# A program is a list of per-process op lists; ``run_program`` interprets
# it twice, sleeping either by ``yield d`` or by ``yield env.timeout(d)``.
# Small delays make zero-length sleeps and equal wake-ups common.

_DELAYS = st.integers(min_value=0, max_value=12)


def _ops(n_procs):
    others = st.integers(min_value=0, max_value=n_procs - 1)
    return st.one_of(
        st.tuples(st.just("sleep"), _DELAYS),
        st.tuples(st.just("sleep"), _DELAYS),
        st.tuples(st.just("hold"), st.integers(0, 1), _DELAYS),
        st.tuples(st.just("lock"), _DELAYS),
        st.tuples(st.just("interrupt"), others),
        st.tuples(st.just("race"), _DELAYS, _DELAYS),
        st.tuples(st.just("join"), others),
    )


_PROGRAMS = st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.lists(st.lists(_ops(n), max_size=6),
                       min_size=n, max_size=n))
#: Driver script: run up to an instant, until a process has finished,
#: or fire a few single steps.
_DRIVER = st.lists(
    st.one_of(st.tuples(st.just("until"), st.integers(0, 60)),
              st.tuples(st.just("finish"), st.integers(0, 5)),
              st.tuples(st.just("steps"), st.integers(1, 4))),
    max_size=4)


def run_program(program, driver, bare):
    env = Environment()
    sleep = (lambda d: d) if bare else env.timeout
    resources = [Resource(env, capacity=1), Resource(env, capacity=2)]
    lock = Lock(env)
    procs = []
    trace = []

    def body(pid, ops):
        for step, op in enumerate(ops):
            kind = op[0]
            outcome = None
            try:
                if kind == "sleep":
                    outcome = yield sleep(op[1])
                elif kind == "hold":
                    resource = resources[op[1]]
                    yield resource.request()
                    try:
                        yield sleep(op[2])
                    finally:
                        resource.release()
                elif kind == "lock":
                    yield lock.acquire()
                    try:
                        yield sleep(op[1])
                    finally:
                        lock.release()
                elif kind == "interrupt":
                    victim = procs[op[1]]
                    if victim is not procs[pid] and victim.is_alive:
                        victim.interrupt((pid, step))
                        # Let it land before this process acts again
                        # (interrupts are urgent: it fires first).
                        yield sleep(0)
                elif kind == "race":
                    timer = env.timeout(op[1], "timer")
                    fired = yield env.any_of([timer, env.timeout(op[2])])
                    outcome = (len(fired), timer in fired)
                elif kind == "join" and op[1] != pid:
                    outcome = yield procs[op[1]]
            except Interrupt as exc:
                outcome = ("interrupted", exc.cause)
            trace.append((env.now, pid, step, kind, outcome))
        return (pid, env.now)

    for pid, ops in enumerate(program):
        procs.append(env.process(body(pid, ops)))
    marks = []
    for action, amount in driver:
        if action == "until":
            if amount >= env.now:
                env.run(until=amount)
        elif action == "finish":
            try:
                env.run(until=procs[amount % len(procs)])
            except SimulationError:
                pass                      # blocked for good: queue drained
        else:
            for _ in range(amount):
                if env.queue_depth:
                    env.step()
        marks.append((env.now, env.events_processed, len(trace)))
    env.run()
    values = [p.value if p.triggered else "blocked" for p in procs]
    return trace, marks, values, env.now, env.events_processed


class TestBareDelayEqualsTimeout:
    @given(program=_PROGRAMS, driver=_DRIVER)
    @settings(max_examples=300, deadline=None)
    def test_same_trace_values_and_event_count(self, program, driver):
        """``yield d`` is ``yield env.timeout(d)``: same ``(now, process,
        step)`` trace, same return values, same ``events_processed`` —
        under locks, resources, interrupts, ``any_of`` timers and runs
        cut at arbitrary instants, events or single steps and resumed."""
        assert (run_program(program, driver, bare=True)
                == run_program(program, driver, bare=False))


class TestRingBufferProperties:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_accounting_invariants(self, data):
        ncpus = data.draw(st.integers(min_value=1, max_value=4))
        capacity = data.draw(st.integers(min_value=64, max_value=2048))
        rb = PerCPURingBuffer(ncpus, capacity)
        offers = data.draw(st.lists(
            st.tuples(st.integers(min_value=0, max_value=ncpus - 1),
                      st.integers(min_value=1, max_value=512)),
            max_size=60))
        accepted = 0
        for cpu, size in offers:
            if rb.produce(cpu, (cpu, size), size):
                accepted += 1
        # Conservation: offered = produced + dropped.
        assert rb.stats.produced == accepted
        assert rb.stats.produced + rb.stats.dropped == len(offers)
        # Capacity never exceeded on any CPU.
        for cpu in range(ncpus):
            assert rb.fill_bytes(cpu) <= capacity
        # Everything accepted is eventually consumable, FIFO per CPU.
        drained = rb.consume_all()
        assert len(drained) == accepted
        assert rb.pending_records() == 0

    @given(sizes=st.lists(st.integers(min_value=1, max_value=100),
                          min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_fifo_and_old_records_never_lost(self, sizes):
        """Overflow drops the NEW record; accepted ones stay in order."""
        rb = PerCPURingBuffer(1, 256)
        accepted_ids = []
        for i, size in enumerate(sizes):
            if rb.produce(0, i, size):
                accepted_ids.append(i)
        assert rb.consume(0) == accepted_ids
        assert accepted_ids == sorted(accepted_ids)
