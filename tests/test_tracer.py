"""Integration tests for the DIO tracer pipeline."""

import pytest

from repro.backend import DocumentStore
from repro.kernel import (IORING_ENTER_GETEVENTS, Kernel, O_CREAT, O_RDONLY,
                          O_RDWR, O_WRONLY, SQE)
from repro.sim import Environment
from repro.tracer import DIOTracer, TracerConfig
from repro.tracer.events import SCALAR_ARGS, Event, estimate_record_size


def make_env(config=None):
    env = Environment()
    kernel = Kernel(env, ncpus=2)
    store = DocumentStore()
    tracer = DIOTracer(env, kernel, store, config)
    return env, kernel, store, tracer


def run_traced(env, tracer, workload):
    """Attach, run a workload generator, shut the tracer down."""
    tracer.attach()

    def main():
        yield from workload
        yield from tracer.shutdown()

    env.run(until=env.process(main()))


def simple_workload(env, kernel, task, path="/f", payload=b"hello"):
    fd = yield from kernel.syscall(task, "open", path=path,
                                   flags=O_CREAT | O_RDWR)
    yield from kernel.syscall(task, "write", fd=fd, data=payload)
    yield from kernel.syscall(task, "lseek", fd=fd, offset=0, whence=0)
    buf = bytearray(len(payload))
    yield from kernel.syscall(task, "read", fd=fd, buf=buf)
    yield from kernel.syscall(task, "close", fd=fd)


class TestEndToEnd:
    def test_events_reach_backend(self):
        env, kernel, store, tracer = make_env()
        task = kernel.spawn_process("app").threads[0]
        run_traced(env, tracer, simple_workload(env, kernel, task))
        hits = store.search("dio_trace", size=None)["hits"]["hits"]
        syscalls = [h["_source"]["syscall"] for h in hits]
        assert sorted(syscalls) == ["close", "lseek", "open", "read", "write"]

    def test_entry_exit_aggregated_into_one_event(self):
        env, kernel, store, tracer = make_env()
        task = kernel.spawn_process("app").threads[0]
        run_traced(env, tracer, simple_workload(env, kernel, task))
        for hit in store.search("dio_trace", size=None)["hits"]["hits"]:
            source = hit["_source"]
            assert source["time_exit"] > source["time"]
            assert source["duration_ns"] == (
                source["time_exit"] - source["time"])

    def test_process_fields_recorded(self):
        env, kernel, store, tracer = make_env()
        process = kernel.spawn_process("myapp")
        task = process.threads[0]
        run_traced(env, tracer, simple_workload(env, kernel, task))
        source = store.search("dio_trace")["hits"]["hits"][0]["_source"]
        assert source["proc_name"] == "myapp"
        assert source["pid"] == process.pid
        assert source["tid"] == task.tid
        assert source["session"] == "dio-session"

    def test_offsets_enriched_for_read_write(self):
        env, kernel, store, tracer = make_env()
        task = kernel.spawn_process("app").threads[0]
        run_traced(env, tracer,
                   simple_workload(env, kernel, task, payload=b"x" * 26))
        hits = store.search("dio_trace", size=None,
                            sort=["time"])["hits"]["hits"]
        by_syscall = {h["_source"]["syscall"]: h["_source"] for h in hits}
        assert by_syscall["write"]["offset"] == 0
        assert by_syscall["read"]["offset"] == 0
        assert by_syscall["write"]["ret"] == 26
        assert by_syscall["read"]["ret"] == 26

    def test_file_type_enriched(self):
        env, kernel, store, tracer = make_env()
        task = kernel.spawn_process("app").threads[0]
        run_traced(env, tracer, simple_workload(env, kernel, task))
        source = store.search(
            "dio_trace",
            query={"term": {"syscall": "write"}})["hits"]["hits"][0]["_source"]
        assert source["file_type"] == "regular"

    def test_write_buffer_serialized_as_size(self):
        env, kernel, store, tracer = make_env()
        task = kernel.spawn_process("app").threads[0]
        run_traced(env, tracer,
                   simple_workload(env, kernel, task, payload=b"q" * 100))
        source = store.search(
            "dio_trace",
            query={"term": {"syscall": "write"}})["hits"]["hits"][0]["_source"]
        assert source["args"]["data"] == 100

    def test_failed_syscalls_traced_with_negative_ret(self):
        env, kernel, store, tracer = make_env()
        task = kernel.spawn_process("app").threads[0]

        def workload():
            yield from kernel.syscall(task, "open", path="/missing",
                                      flags=O_RDONLY)

        run_traced(env, tracer, workload())
        source = store.search("dio_trace")["hits"]["hits"][0]["_source"]
        assert source["syscall"] == "open"
        assert source["ret"] < 0


class TestFileTags:
    def test_same_file_same_tag(self):
        env, kernel, store, tracer = make_env()
        task = kernel.spawn_process("app").threads[0]
        run_traced(env, tracer, simple_workload(env, kernel, task))
        hits = store.search("dio_trace", size=None)["hits"]["hits"]
        tags = {h["_source"].get("file_tag") for h in hits
                if h["_source"]["syscall"] != "lseek" or True}
        tags.discard(None)
        assert len(tags) == 1

    def test_recycled_inode_gets_fresh_tag(self):
        """The property the Fluent Bit diagnosis depends on."""
        env, kernel, store, tracer = make_env()
        task = kernel.spawn_process("app").threads[0]

        def workload():
            fd = yield from kernel.syscall(task, "open", path="/app.log",
                                           flags=O_CREAT | O_WRONLY)
            yield from kernel.syscall(task, "write", fd=fd, data=b"v1")
            yield from kernel.syscall(task, "close", fd=fd)
            yield from kernel.syscall(task, "unlink", path="/app.log")
            fd = yield from kernel.syscall(task, "open", path="/app.log",
                                           flags=O_CREAT | O_WRONLY)
            yield from kernel.syscall(task, "write", fd=fd, data=b"v2")
            yield from kernel.syscall(task, "close", fd=fd)

        run_traced(env, tracer, workload())
        hits = store.search("dio_trace", size=None,
                            sort=["time"])["hits"]["hits"]
        writes = [h["_source"] for h in hits
                  if h["_source"]["syscall"] == "write"]
        tag1, tag2 = writes[0]["file_tag"], writes[1]["file_tag"]
        assert tag1 != tag2
        # Same device and inode number, different first-access timestamp.
        dev1, ino1, ts1 = tag1.split()
        dev2, ino2, ts2 = tag2.split()
        assert (dev1, ino1) == (dev2, ino2)
        assert ts1 != ts2

    def test_unlink_carries_no_file_tag(self):
        """Path-only syscalls are not fd-handling (paper Fig. 2a)."""
        env, kernel, store, tracer = make_env()
        task = kernel.spawn_process("app").threads[0]

        def workload():
            yield from kernel.syscall(task, "creat", path="/f")
            yield from kernel.syscall(task, "unlink", path="/f")

        run_traced(env, tracer, workload())
        source = store.search(
            "dio_trace",
            query={"term": {"syscall": "unlink"}})["hits"]["hits"][0]["_source"]
        assert "file_tag" not in source


class TestCorrelation:
    def test_shutdown_resolves_file_paths(self):
        env, kernel, store, tracer = make_env()
        kernel.vfs.mkdir("/data")
        task = kernel.spawn_process("app").threads[0]
        run_traced(env, tracer,
                   simple_workload(env, kernel, task, path="/data/x.log"))
        source = store.search(
            "dio_trace",
            query={"term": {"syscall": "read"}})["hits"]["hits"][0]["_source"]
        assert source["file_path"] == "/data/x.log"
        assert tracer.correlation_report is not None
        assert tracer.correlation_report.unresolved_ratio == 0.0

    def test_correlation_disabled(self):
        config = TracerConfig(correlate_on_stop=False)
        env, kernel, store, tracer = make_env(config)
        task = kernel.spawn_process("app").threads[0]
        run_traced(env, tracer, simple_workload(env, kernel, task))
        assert tracer.correlation_report is None
        source = store.search(
            "dio_trace",
            query={"term": {"syscall": "read"}})["hits"]["hits"][0]["_source"]
        assert "file_path" not in source


class TestFiltering:
    def test_syscall_scope_limits_tracepoints(self):
        config = TracerConfig(syscalls=frozenset({"write"}))
        env, kernel, store, tracer = make_env(config)
        task = kernel.spawn_process("app").threads[0]
        run_traced(env, tracer, simple_workload(env, kernel, task))
        hits = store.search("dio_trace", size=None)["hits"]["hits"]
        assert {h["_source"]["syscall"] for h in hits} == {"write"}

    def test_pid_filter(self):
        env0 = Environment()
        kernel = Kernel(env0, ncpus=2)
        wanted = kernel.spawn_process("wanted")
        noise = kernel.spawn_process("noise")
        store = DocumentStore()
        config = TracerConfig(pids=frozenset({wanted.pid}))
        tracer = DIOTracer(env0, kernel, store, config)
        tracer.attach()

        def main():
            yield from simple_workload(env0, kernel, wanted.threads[0], "/a")
            yield from simple_workload(env0, kernel, noise.threads[0], "/b")
            yield from tracer.shutdown()

        env0.run(until=env0.process(main()))
        hits = store.search("dio_trace", size=None)["hits"]["hits"]
        assert {h["_source"]["pid"] for h in hits} == {wanted.pid}
        assert tracer.stats.filtered_out > 0

    def test_tid_filter(self):
        env = Environment()
        kernel = Kernel(env, ncpus=2)
        process = kernel.spawn_process("app")
        main_task = process.threads[0]
        side_task = kernel.spawn_thread(process, comm="app-side")
        store = DocumentStore()
        config = TracerConfig(tids=frozenset({side_task.tid}))
        tracer = DIOTracer(env, kernel, store, config)
        tracer.attach()

        def body():
            yield from simple_workload(env, kernel, main_task, "/a")
            yield from simple_workload(env, kernel, side_task, "/b")
            yield from tracer.shutdown()

        env.run(until=env.process(body()))
        hits = store.search("dio_trace", size=None)["hits"]["hits"]
        assert {h["_source"]["tid"] for h in hits} == {side_task.tid}

    def test_path_filter_tracks_fds(self):
        config = TracerConfig(paths=("/logs",))
        env, kernel, store, tracer = make_env(config)
        kernel.vfs.mkdir("/logs")
        kernel.vfs.mkdir("/other")
        task = kernel.spawn_process("app").threads[0]
        tracer.attach()

        def workload():
            yield from simple_workload(env, kernel, task, "/logs/app.log")
            yield from simple_workload(env, kernel, task, "/other/noise.log")

        def main():
            yield from workload()
            yield from tracer.shutdown()

        env.run(until=env.process(main()))
        hits = store.search("dio_trace", size=None)["hits"]["hits"]
        assert hits, "expected events under /logs"
        for hit in hits:
            source = hit["_source"]
            path = source.get("file_path") or source.get("args", {}).get("path")
            assert path == "/logs/app.log"

    def test_path_filter_exact_file(self):
        config = TracerConfig(paths=("/f",))
        env, kernel, store, tracer = make_env(config)
        task = kernel.spawn_process("app").threads[0]
        run_traced(env, tracer, simple_workload(env, kernel, task, "/f"))
        hits = store.search("dio_trace", size=None)["hits"]["hits"]
        assert len(hits) == 5


class TestDropsAndBatching:
    def test_tiny_ring_buffer_drops_events(self):
        config = TracerConfig(ring_capacity_bytes_per_cpu=400,
                              poll_interval_ns=50_000_000)
        env, kernel, store, tracer = make_env(config)
        task = kernel.spawn_process("app").threads[0]

        def workload():
            fd = yield from kernel.syscall(task, "open", path="/f",
                                           flags=O_CREAT | O_WRONLY)
            for _ in range(100):
                yield from kernel.syscall(task, "write", fd=fd, data=b"z")

        run_traced(env, tracer, workload())
        assert tracer.stats.dropped > 0
        assert 0 < tracer.stats.drop_ratio < 1
        # Shipped events are exactly the non-dropped ones.
        assert tracer.stats.shipped == tracer.stats.produced

    def test_batching_reduces_bulk_requests(self):
        config = TracerConfig(batch_size=64)
        env, kernel, store, tracer = make_env(config)
        task = kernel.spawn_process("app").threads[0]

        def workload():
            fd = yield from kernel.syscall(task, "open", path="/f",
                                           flags=O_CREAT | O_WRONLY)
            for _ in range(200):
                yield from kernel.syscall(task, "write", fd=fd, data=b"z")
            yield from kernel.syscall(task, "close", fd=fd)

        run_traced(env, tracer, workload())
        assert tracer.stats.shipped == 202
        assert tracer.stats.batches < 202 / 2

    def test_consumer_drains_after_stop(self):
        env, kernel, store, tracer = make_env()
        task = kernel.spawn_process("app").threads[0]
        run_traced(env, tracer, simple_workload(env, kernel, task))
        assert tracer.ring.pending_records() == 0

    def test_double_attach_rejected(self):
        env, kernel, store, tracer = make_env()
        tracer.attach()
        with pytest.raises(RuntimeError):
            tracer.attach()


class TestConfig:
    def test_unknown_syscall_rejected(self):
        with pytest.raises(ValueError):
            TracerConfig(syscalls=frozenset({"execve"}))

    def test_relative_path_filter_rejected(self):
        with pytest.raises(ValueError):
            TracerConfig(paths=("relative/path",))

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            TracerConfig(ring_capacity_bytes_per_cpu=0)
        with pytest.raises(ValueError):
            TracerConfig(batch_size=0)

    def test_from_toml(self):
        config = TracerConfig.from_toml("""
            [tracer]
            syscalls = ["open", "read", "write", "close"]
            pids = [42]
            paths = ["/tmp"]
            session_name = "run-1"

            [ring_buffer]
            capacity_mib_per_cpu = 8

            [backend]
            index = "my_trace"
            batch_size = 128
            correlate_on_stop = false
        """)
        assert config.enabled_syscalls == {"open", "read", "write", "close"}
        assert config.pids == {42}
        assert config.paths == ("/tmp",)
        assert config.session_name == "run-1"
        assert config.ring_capacity_bytes_per_cpu == 8 * 1024 * 1024
        assert config.index == "my_trace"
        assert config.batch_size == 128
        assert config.correlate_on_stop is False

    def test_from_toml_rejects_what_it_does_not_read(self):
        for text, named in [
            ("[backend]\nbatchsize = 4\n", "'batchsize' in [backend]"),
            ("[storge]\ndir = '/tmp/x'\n", "[storge]"),
            # Retired with the per-event consumer path: rejected by
            # name, not silently parsed to defaults.
            ("[backend]\ningest_mode = 'legacy'\n",
             "'ingest_mode' in [backend]"),
        ]:
            with pytest.raises(ValueError) as excinfo:
                TracerConfig.from_toml(text)
            assert named in str(excinfo.value)

    def test_default_enables_all_42(self):
        # The 42 classic syscalls of Table I plus the three io_uring
        # control syscalls.
        enabled = TracerConfig().enabled_syscalls
        assert len(enabled) == 45
        assert {"io_uring_setup", "io_uring_enter",
                "io_uring_register"} <= enabled

    def test_ring_mode_validation(self):
        assert TracerConfig().ring_mode == "classic"
        assert TracerConfig(ring_mode="ring-aware").ring_mode == "ring-aware"
        with pytest.raises(ValueError):
            TracerConfig(ring_mode="io_uring")

    def test_ring_mode_from_toml(self):
        config = TracerConfig.from_toml("""
            [tracer]
            ring_mode = "ring-aware"
        """)
        assert config.ring_mode == "ring-aware"


class TestEventModel:
    def test_json_roundtrip(self):
        event = Event(syscall="write", args={"fd": 3, "data": b"xyz"},
                      ret=3, pid=1, tid=2, proc_name="app",
                      time=100, time_exit=150, file_type="regular",
                      offset=0, file_tag="7 12 100", session="s")
        doc = event.to_doc()
        assert doc["args"]["data"] == 3
        rebuilt = Event.from_doc(doc)
        assert rebuilt.to_doc() == doc

    def test_sparse_fields_omitted(self):
        event = Event(syscall="unlink", args={"path": "/f"}, ret=0,
                      pid=1, tid=1, proc_name="app", time=1, time_exit=2)
        doc = event.to_doc()
        assert "file_tag" not in doc
        assert "offset" not in doc
        assert "file_type" not in doc

    def test_record_size_grows_with_path(self):
        small = estimate_record_size("open", {"path": "/a", "flags": 0})
        large = estimate_record_size("open", {"path": "/a" * 100, "flags": 0})
        assert large > small


class TestTracerStatsDict:
    def test_as_dict_covers_every_public_property(self):
        from repro.tracer.tracer import TracerStats

        expected = {name for name, attr in vars(TracerStats).items()
                    if isinstance(attr, property)
                    and not name.startswith("_")}
        env, kernel, store, tracer = make_env()
        assert set(tracer.stats.as_dict()) == expected

    def test_as_dict_values_match_properties(self):
        env, kernel, store, tracer = make_env()
        task = kernel.spawn_process("app").threads[0]
        tracer.attach()

        def workload():
            fd = yield from kernel.syscall(task, "open", path="/f",
                                           flags=O_CREAT | O_RDWR)
            for _ in range(10):
                yield from kernel.syscall(task, "write", fd=fd, data=b"x")
            yield from tracer.shutdown()

        env.run(until=env.process(workload()))
        snapshot = tracer.stats.as_dict()
        assert snapshot["shipped"] == tracer.stats.shipped == 11
        for name, value in snapshot.items():
            assert getattr(tracer.stats, name) == value


def spy_taken_args(tracer, monkeypatch):
    """Every ``args`` value the consumer takes off ``tracer``'s ring."""
    taken = []
    consume = tracer.ring.consume

    def spy(cpu, max_records=None):
        records = consume(cpu, max_records)
        taken.extend(value for record in records
                     for value in record["args"].values())
        return records

    monkeypatch.setattr(tracer.ring, "consume", spy)
    return taken


def only_source(store, syscall):
    hits = store.search("dio_trace", size=None,
                        query={"term": {"syscall": syscall}})["hits"]["hits"]
    assert len(hits) == 1
    return hits[0]["_source"]


class TestCaptureAtExit:
    """The exit program records a call's arguments as they were when it
    returned; the ring holds nothing of the application's."""

    def test_a_buffer_changed_after_the_call_keeps_its_length_at_exit(self):
        env, kernel, store, tracer = make_env()
        task = kernel.spawn_process("app").threads[0]

        def workload():
            fd = yield from kernel.syscall(task, "openat", path="/f",
                                           flags=O_CREAT | O_RDWR)
            buf = bytearray(b"abc")
            yield from kernel.syscall(task, "write", fd=fd, data=buf)
            buf.extend(b"defgh")

        run_traced(env, tracer, workload())
        source = only_source(store, "write")
        assert source["ret"] == 3
        assert source["args"]["data"] == 3

    def test_rocksdb_smoke_ring_holds_no_buffer(self, monkeypatch):
        """The e2e benchmark's smoke size (seed 2304, 200 ops a
        thread).  The byte count is exact: a buffer costs its record 8
        bytes whatever its length, before and after it is a size."""
        from repro.apps.rocksdb import DBBench, RocksDB
        from repro.experiments.rocksdb_case import (DATA_SYSCALL_SCOPE,
                                                    RocksDBScale,
                                                    build_kernel)

        scale = RocksDBScale(seed=2304)
        kernel = build_kernel(scale)
        env = kernel.env
        process = kernel.spawn_process("db_bench")
        db = RocksDB(kernel, process, scale.db_options())
        bench = DBBench(kernel, db, client_threads=scale.client_threads,
                        key_count=scale.key_count,
                        value_size=scale.value_size,
                        read_fraction=scale.read_fraction, seed=scale.seed)
        tracer = DIOTracer(env, kernel, DocumentStore(), TracerConfig(
            syscalls=DATA_SYSCALL_SCOPE, pids=frozenset({process.pid})))
        taken = spy_taken_args(tracer, monkeypatch)

        def main():
            yield from db.open(bench.client_tasks[0])
            yield from bench.load()
            tracer.attach()
            yield from bench.run_ops(200).wait()
            db.close()
            yield from tracer.shutdown()

        env.run(until=env.process(main()))
        assert taken and set(map(type, taken)) <= SCALAR_ARGS
        stats = tracer.ring.stats
        assert (stats.produced, stats.dropped, stats.bytes_produced) == (
            1_603, 0, 246_367)

    def test_ring_aware_write_ring_holds_no_buffer(self, monkeypatch):
        env, kernel, store, tracer = make_env(
            TracerConfig(ring_mode="ring-aware"))
        task = kernel.spawn_process("app").threads[0]
        taken = spy_taken_args(tracer, monkeypatch)

        def workload():
            fd = yield from kernel.syscall(task, "open", path="/f",
                                           flags=O_CREAT | O_WRONLY)
            ring_fd = yield from kernel.syscall(task, "io_uring_setup",
                                                entries=4)
            ring = kernel.uring_for_fd(task, ring_fd)
            assert ring.prepare(SQE.write(fd, b"u" * 4096, 0))
            yield from kernel.syscall(
                task, "io_uring_enter", fd=ring_fd, to_submit=1,
                min_complete=1, flags=IORING_ENTER_GETEVENTS)

        run_traced(env, tracer, workload())
        assert tracer.stats.uring_observed == 1
        assert only_source(store, "uring_write")["args"]["data"] == 4096
        assert taken and set(map(type, taken)) <= SCALAR_ARGS
        stats = tracer.ring.stats
        assert (stats.produced, stats.dropped, stats.bytes_produced) == (
            4, 0, 637)


class TestResolvedHandlers:
    """The kernel resolves a syscall's handlers once; attaching and
    detaching a program drops what it resolved."""

    def test_handlers_follow_attach_and_detach(self):
        env, kernel, store, tracer = make_env()
        task = kernel.spawn_process("app").threads[0]
        second_store = DocumentStore()
        second = DIOTracer(env, kernel, second_store)
        programs = (tracer._enter_prog, tracer._exit_prog)
        seen = {}

        def fstat(fd):
            return kernel.syscall(task, "fstat", fd=fd, statbuf={})

        def main():
            fd = yield from kernel.syscall(task, "openat", path="/f",
                                           flags=O_CREAT | O_RDWR)
            yield from fstat(fd)                  # resolved, untraced
            tracer.attach()
            yield from fstat(fd)
            yield from tracer.shutdown()
            seen["invocations"] = [p.invocations for p in programs]
            yield from fstat(fd)
            seen["after_stop"] = [p.invocations for p in programs]
            second.attach()
            yield from fstat(fd)
            yield from second.shutdown()

        env.run(until=env.process(main()))
        assert kernel.syscall_counts["fstat"] == 4
        assert store.count("dio_trace", {"term": {"syscall": "fstat"}}) == 1
        assert seen["invocations"] == [1, 1]
        assert seen["after_stop"] == seen["invocations"]
        assert second_store.count(
            "dio_trace", {"term": {"syscall": "fstat"}}) == 1
