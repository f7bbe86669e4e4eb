"""Tests for the RocksDB simulation and db_bench harness."""

import gc

import numpy as np
import pytest

from repro.apps.rocksdb import (DBBench, DBOptions, MemTable, RocksDB,
                                SSTable, ZipfianGenerator)
from repro.apps.rocksdb.db_bench import key_name, uniform_stream
from repro.experiments.rocksdb_case import RocksDBScale, build_kernel
from repro.kernel import O_RDONLY, Kernel
from repro.sim import Environment

MS = 1_000_000
SECOND = 1_000_000_000


def make_db(**option_overrides):
    env = Environment()
    kernel = Kernel(env, ncpus=4)
    process = kernel.spawn_process("db_bench")
    options = DBOptions(**option_overrides)
    db = RocksDB(kernel, process, options)
    return env, kernel, process, db


def run(env, gen):
    return env.run(until=env.process(gen))


class TestMemTable:
    def test_put_get(self):
        table = MemTable()
        table.put("k", b"v", 1)
        assert table.get("k") == (1, b"v")
        assert table.get("missing") is None

    def test_overwrite_updates_size(self):
        table = MemTable()
        table.put("k", b"aaaa", 1)
        size = table.approximate_bytes
        table.put("k", b"bb", 2)
        assert table.approximate_bytes == size - 2
        assert table.get("k") == (2, b"bb")

    def test_frozen_rejects_writes(self):
        table = MemTable()
        table.freeze()
        with pytest.raises(RuntimeError):
            table.put("k", b"v", 1)

    def test_sorted_entries(self):
        table = MemTable()
        for i, key in enumerate(("c", "a", "b")):
            table.put(key, b"v", i)
        assert [k for k, _, _ in table.sorted_entries()] == ["a", "b", "c"]


class TestSSTable:
    def make_table(self, n=100):
        entries = [(key_name(i), i, b"x" * 100) for i in range(n)]
        return SSTable("/t.sst", 1, 1, entries)

    def test_key_range(self):
        table = self.make_table()
        assert table.smallest == key_name(0)
        assert table.largest == key_name(99)

    def test_may_contain_exact(self):
        table = self.make_table()
        assert table.may_contain(key_name(7))
        assert not table.may_contain("nope")

    def test_overlaps(self):
        table = self.make_table()
        assert table.overlaps(key_name(90), key_name(200))
        assert not table.overlaps(key_name(100), key_name(200))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SSTable("/t.sst", 0, 1, [])

    def test_block_offsets_monotonic(self):
        table = self.make_table()
        offsets = [table.block_offset(key_name(i)) for i in range(100)]
        assert offsets == sorted(offsets)
        with pytest.raises(KeyError):
            table.block_offset("absent")

    def test_disk_roundtrip(self):
        env = Environment()
        kernel = Kernel(env)
        task = kernel.spawn_process("db").threads[0]
        table = self.make_table()

        def scenario():
            yield from table.write_to_disk(kernel, task, 32768)
            seq, value = yield from table.read_value(kernel, task, key_name(3))
            assert (seq, value) == (3, b"x" * 100)
            entries = yield from table.read_all(kernel, task, 65536)
            assert len(entries) == 100
            yield from table.close_and_delete(kernel, task)

        run(env, scenario())
        assert kernel.vfs.lookup("/t.sst") is None

    def test_file_size_matches_vfs(self):
        env = Environment()
        kernel = Kernel(env)
        task = kernel.spawn_process("db").threads[0]
        table = self.make_table()

        def scenario():
            yield from table.write_to_disk(kernel, task, 32768)

        run(env, scenario())
        assert kernel.vfs.resolve("/t.sst").size == table.file_size


class TestRocksDBBasics:
    def test_put_get_roundtrip(self):
        env, kernel, process, db = make_db()
        task = process.threads[0]

        def scenario():
            yield from db.open(task)
            yield from db.put(task, "alpha", b"1")
            yield from db.put(task, "beta", b"2")
            value = yield from db.get(task, "alpha")
            assert value == b"1"
            value = yield from db.get(task, "missing")
            assert value is None
            db.close()

        run(env, scenario())

    def test_memtable_flush_creates_l0_file(self):
        env, kernel, process, db = make_db(memtable_bytes=2048)
        task = process.threads[0]

        def scenario():
            yield from db.open(task)
            for i in range(40):
                yield from db.put(task, key_name(i), b"v" * 100)
            # Let the flush thread work.
            yield env.timeout(1 * SECOND)
            db.close()

        run(env, scenario())
        assert db.stats.flushes >= 1
        files = kernel.vfs.resolve("/rocksdb").children
        assert any(name.endswith(".sst") for name in files)

    def test_value_survives_flush(self):
        env, kernel, process, db = make_db(memtable_bytes=2048)
        task = process.threads[0]

        def scenario():
            yield from db.open(task)
            for i in range(50):
                yield from db.put(task, key_name(i), f"v{i}".encode())
            yield env.timeout(1 * SECOND)
            value = yield from db.get(task, key_name(3))
            assert value == b"v3"
            db.close()

        run(env, scenario())

    def test_latest_version_wins_across_levels(self):
        env, kernel, process, db = make_db(memtable_bytes=1024)
        task = process.threads[0]

        def scenario():
            yield from db.open(task)
            for round_no in range(5):
                for i in range(15):
                    yield from db.put(task, key_name(i),
                                      f"r{round_no}".encode())
                yield env.timeout(200 * MS)
            value = yield from db.get(task, key_name(7))
            assert value == b"r4"
            db.close()

        run(env, scenario())

    def test_compaction_triggered_by_l0_growth(self):
        env, kernel, process, db = make_db(
            memtable_bytes=1024, l0_compaction_trigger=2)
        task = process.threads[0]

        def scenario():
            yield from db.open(task)
            for i in range(200):
                yield from db.put(task, key_name(i), b"v" * 64)
            yield env.timeout(2 * SECOND)
            db.close()

        run(env, scenario())
        assert db.stats.compactions >= 1
        # Compacted data lives at L1+; L0 was (at least partly) drained.
        assert len(db.levels[1]) >= 1

    def test_compaction_preserves_all_data(self):
        env, kernel, process, db = make_db(
            memtable_bytes=1024, l0_compaction_trigger=2)
        task = process.threads[0]

        def scenario():
            yield from db.open(task)
            for i in range(120):
                yield from db.put(task, key_name(i), f"val{i}".encode())
            yield env.timeout(2 * SECOND)
            for i in (0, 59, 119):
                value = yield from db.get(task, key_name(i))
                assert value == f"val{i}".encode(), key_name(i)
            db.close()

        run(env, scenario())

    def test_unused_sst_files_deleted_after_compaction(self):
        env, kernel, process, db = make_db(
            memtable_bytes=1024, l0_compaction_trigger=2)
        task = process.threads[0]

        def scenario():
            yield from db.open(task)
            for i in range(200):
                yield from db.put(task, key_name(i), b"v" * 64)
            yield env.timeout(2 * SECOND)
            db.close()

        run(env, scenario())
        live = {t.path for level in db.levels for t in level}
        on_disk = {f"/rocksdb/{name}"
                   for name in kernel.vfs.resolve("/rocksdb").children
                   if name.endswith(".sst")}
        assert on_disk == live

    def test_activity_log_names_threads(self):
        env, kernel, process, db = make_db(
            memtable_bytes=1024, l0_compaction_trigger=2)
        task = process.threads[0]

        def scenario():
            yield from db.open(task)
            for i in range(200):
                yield from db.put(task, key_name(i), b"v" * 64)
            yield env.timeout(2 * SECOND)
            db.close()

        run(env, scenario())
        kinds = {a["kind"] for a in db.stats.activity}
        assert kinds == {"flush", "compaction"}
        flush_threads = {a["thread"] for a in db.stats.activity
                         if a["kind"] == "flush"}
        assert flush_threads == {"rocksdb:high0"}
        compaction_threads = {a["thread"] for a in db.stats.activity
                              if a["kind"] == "compaction"}
        assert compaction_threads <= {f"rocksdb:low{i}" for i in range(7)}

    def test_write_stall_when_l0_saturated(self):
        env, kernel, process, db = make_db(
            memtable_bytes=512, l0_compaction_trigger=2, l0_stop_trigger=3,
            max_immutable_memtables=1)
        task = process.threads[0]

        def scenario():
            yield from db.open(task)
            for i in range(600):
                yield from db.put(task, key_name(i % 100), b"v" * 64)
            db.close()

        run(env, scenario())
        assert db.stats.stall_events > 0
        assert db.stats.stall_ns > 0

    def test_put_before_open_rejected(self):
        env, kernel, process, db = make_db()
        task = process.threads[0]
        with pytest.raises(RuntimeError):
            next(db.put(task, "k", b"v"))

    def test_bulk_load_and_read(self):
        env, kernel, process, db = make_db()
        task = process.threads[0]

        def scenario():
            yield from db.open(task)
            items = [(key_name(i), b"L" * 64) for i in range(500)]
            yield from db.bulk_load(task, items)
            value = yield from db.get(task, key_name(123))
            assert value == b"L" * 64
            db.close()

        run(env, scenario())
        assert sum(len(level) for level in db.levels[1:]) > 0
        assert len(db.levels[0]) == 0


def draw(zipf, n):
    """``n`` items of ``zipf``, as an array."""
    return np.array([zipf.next() for _ in range(n)], dtype=np.int64)


class TestZipfian:
    def test_skewed_distribution(self):
        zipf = ZipfianGenerator(1000, seed=1)
        samples = draw(zipf, 20_000)
        counts = np.bincount(samples, minlength=1000)
        top_share = np.sort(counts)[::-1][:10].sum() / samples.size
        assert top_share > 0.25  # hot keys dominate

    def test_deterministic_given_seed(self):
        a = draw(ZipfianGenerator(100, seed=7), 50)
        b = draw(ZipfianGenerator(100, seed=7), 50)
        assert np.array_equal(a, b)

    def test_range(self):
        zipf = ZipfianGenerator(50, seed=3)
        samples = draw(zipf, 1000)
        assert samples.min() >= 0
        assert samples.max() < 50

    @staticmethod
    def scalar_reference(item_count, theta, seed, draws):
        """The generator as it was before it drew in blocks: one numpy
        scalar draw and one ``np.searchsorted`` per item."""
        rng = np.random.default_rng(seed)
        weights = 1.0 / np.power(np.arange(1, item_count + 1), theta)
        cumulative = np.cumsum(weights / weights.sum())
        permutation = np.random.default_rng(0xD10).permutation(item_count)
        items = []
        for _ in range(draws):
            rank = int(np.searchsorted(cumulative, rng.random()))
            items.append(int(permutation[min(rank, item_count - 1)]))
        return items

    @pytest.mark.parametrize("seed", [0, 42, 2304, 2311])
    def test_next_equals_scalar_formula(self, seed):
        zipf = ZipfianGenerator(50_000, seed=seed)
        got = [zipf.next() for _ in range(10_000)]
        assert all(type(item) is int for item in got)
        assert got == self.scalar_reference(50_000, 0.99, seed, 10_000)

    def test_uniform_stream_equals_scalar_draws(self):
        stream = uniform_stream(np.random.default_rng(5))
        scalar = np.random.default_rng(5)
        assert ([next(stream) for _ in range(2_500)]
                == [scalar.random() for _ in range(2_500)])

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(0)
        with pytest.raises(ValueError):
            ZipfianGenerator(10, theta=1.5)


class TestDBBench:
    def test_closed_loop_mixed_workload(self):
        env, kernel, process, db = make_db(memtable_bytes=4096)
        bench = DBBench(kernel, db, client_threads=4, key_count=500,
                        value_size=64, seed=11)

        def scenario():
            yield from db.open(bench.client_tasks[0])
            yield from bench.load()
            handle = bench.run(duration_ns=50 * MS)
            result = yield from handle.wait()
            db.close()
            return result

        result = run(env, scenario())
        assert result.op_count > 50
        ops = {op for _, _, op, _ in result.operations}
        assert ops == {"read", "update"}
        assert result.throughput_ops_per_sec > 0

    def test_client_threads_named_db_bench(self):
        env, kernel, process, db = make_db()
        bench = DBBench(kernel, db, client_threads=8)
        assert len(bench.client_tasks) == 8
        assert {t.comm for t in bench.client_tasks} == {"db_bench"}
        assert len({t.tid for t in bench.client_tasks}) == 8

    def test_latency_recorded_per_op(self):
        env, kernel, process, db = make_db()
        bench = DBBench(kernel, db, client_threads=2, key_count=100,
                        value_size=32, seed=5)

        def scenario():
            yield from db.open(bench.client_tasks[0])
            yield from bench.load()
            handle = bench.run(duration_ns=20 * MS)
            result = yield from handle.wait()
            db.close()
            return result

        result = run(env, scenario())
        lats = result.latencies()
        assert (lats > 0).all()
        assert result.latencies("read").size + result.latencies("update").size \
            == result.op_count

    def test_read_fraction_respected(self):
        env, kernel, process, db = make_db()
        bench = DBBench(kernel, db, client_threads=2, key_count=100,
                        value_size=32, read_fraction=1.0, seed=5)

        def scenario():
            yield from db.open(bench.client_tasks[0])
            yield from bench.load()
            handle = bench.run(duration_ns=10 * MS)
            result = yield from handle.wait()
            db.close()
            return result

        result = run(env, scenario())
        assert {op for _, _, op, _ in result.operations} == {"read"}


class TestZeroFiles:
    def test_live_tables_and_wal_hold_no_bytes(self):
        """RocksDB writes only zeros, so every live SST and WAL stays a
        length: the inode references no buffer, and ``fstat`` still
        reports every byte written to it."""
        scale = RocksDBScale(duration_ns=40 * MS, client_threads=2,
                             key_count=2_000, memtable_bytes=64 * 1024)
        kernel = build_kernel(scale)
        env = kernel.env
        process = kernel.spawn_process("db_bench")
        db = RocksDB(kernel, process, scale.db_options())
        bench = DBBench(kernel, db, client_threads=scale.client_threads,
                        key_count=scale.key_count,
                        value_size=scale.value_size, seed=scale.seed)
        written: dict = {}
        syscall = kernel.syscall

        def counting(task, name, /, **args):
            if name != "write":
                return (yield from syscall(task, name, **args))
            inode = task.fds.get(args["fd"]).inode
            ret = yield from syscall(task, name, **args)
            written[inode] = written.get(inode, 0) + ret
            return ret

        kernel.syscall = counting
        task = bench.client_tasks[0]

        def scenario():
            yield from db.open(task)
            yield from bench.load()
            handle = bench.run(duration_ns=scale.duration_ns)
            yield from handle.wait()
            sizes = {}
            for name in sorted(kernel.vfs.resolve(db.options.db_path)
                               .children):
                path = f"{db.options.db_path}/{name}"
                fd = yield from syscall(task, "open", path=path,
                                        flags=O_RDONLY)
                statbuf: dict = {}
                yield from syscall(task, "fstat", fd=fd, statbuf=statbuf)
                yield from syscall(task, "close", fd=fd)
                sizes[name] = (kernel.vfs.resolve(path), statbuf["st_size"])
            db.close()
            return sizes

        sizes = run(env, scenario())
        assert any(name.endswith(".sst") for name in sizes)
        assert any(".wal." in name for name in sizes)
        for name, (inode, st_size) in sizes.items():
            assert st_size == written[inode] > 0, name
            # The buffer is private to the inode, so the zero form is
            # read as memory: no bytearray hangs off it.
            assert not any(isinstance(ref, bytearray)
                           for ref in gc.get_referents(inode)), name
