"""Property-based tests: VFS semantics and LSM-store correctness."""

import gc

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant, rule)

from repro.apps.rocksdb import DBOptions, RocksDB
from repro.kernel import Kernel, O_CREAT, O_RDWR, O_TRUNC, SEEK_SET
from repro.kernel.errno import KernelError
from repro.kernel.vfs import VirtualFileSystem
from repro.sim import Environment

names = st.sampled_from([f"f{i}" for i in range(8)])


class VFSModel(RuleBasedStateMachine):
    """The VFS against a dict model under create/unlink/rename."""

    def __init__(self):
        super().__init__()
        self.vfs = VirtualFileSystem()
        self.model: dict[str, object] = {}

    @rule(name=names)
    def create(self, name):
        path = f"/{name}"
        if name in self.model:
            # Non-exclusive create returns the existing inode.
            inode = self.vfs.create(path)
            assert inode is self.model[name]
        else:
            self.model[name] = self.vfs.create(path)

    @rule(name=names)
    def unlink(self, name):
        path = f"/{name}"
        if name in self.model:
            self.vfs.unlink(path)
            del self.model[name]
        else:
            try:
                self.vfs.unlink(path)
                raise AssertionError("unlink of missing file succeeded")
            except KernelError:
                pass

    @rule(old=names, new=names)
    def rename(self, old, new):
        if old not in self.model:
            return
        inode = self.model[old]
        self.vfs.rename(f"/{old}", f"/{new}")
        del self.model[old]
        self.model[new] = inode

    @invariant()
    def lookups_match_model(self):
        for name in [f"f{i}" for i in range(8)]:
            found = self.vfs.lookup(f"/{name}")
            if name in self.model:
                assert found is self.model[name]
            else:
                assert found is None

    @invariant()
    def live_inode_numbers_unique(self):
        inos = [inode.ino for inode in self.model.values()]
        assert len(inos) == len(set(inos))


TestVFSModel = VFSModel.TestCase
TestVFSModel.settings = settings(max_examples=40, stateful_step_count=30,
                                 deadline=None)


#: Zero payloads drawn as often as arbitrary ones.
payloads = st.one_of(st.integers(min_value=0, max_value=300).map(bytes),
                     st.binary(max_size=300))
lengths = st.integers(min_value=0, max_value=700)
file_ops = st.one_of(
    st.tuples(st.just("write"), payloads),
    st.tuples(st.just("pwrite64"), lengths, payloads),
    st.tuples(st.sampled_from(["truncate", "ftruncate"]), lengths),
    st.tuples(st.just("reopen"), st.booleans()),
    st.tuples(st.just("lseek"), lengths),
    st.tuples(st.just("read"), st.integers(min_value=0, max_value=300)),
    st.tuples(st.just("pread64"), lengths,
              st.integers(min_value=0, max_value=300)),
)


class TestFileDataProperties:
    @given(chunks=st.lists(
        st.tuples(st.integers(min_value=0, max_value=2_000),
                  st.binary(min_size=1, max_size=200)),
        min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_write_read_matches_bytearray_model(self, chunks):
        """pwrite/pread through the syscall layer == a bytearray."""
        env = Environment()
        kernel = Kernel(env)
        task = kernel.spawn_process("app").threads[0]
        model = bytearray()

        def scenario():
            fd = yield from kernel.syscall(task, "open", path="/f",
                                           flags=O_CREAT | O_RDWR)
            for offset, payload in chunks:
                yield from kernel.syscall(task, "pwrite64", fd=fd,
                                          data=payload, offset=offset)
                if offset > len(model):
                    model.extend(b"\x00" * (offset - len(model)))
                model[offset:offset + len(payload)] = payload
            buf = bytearray(len(model) + 64)
            n = yield from kernel.syscall(task, "pread64", fd=fd, buf=buf,
                                          offset=0)
            assert n == len(model)
            assert bytes(buf[:n]) == bytes(model)

        env.run(until=env.process(scenario()))

    @given(ops=st.lists(file_ops, min_size=1, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_zero_form_matches_bytearray_model(self, ops):
        """Files written mostly with zeros read as a bytearray would,
        and one never given a non-zero byte holds no buffer."""
        env = Environment()
        kernel = Kernel(env)
        task = kernel.spawn_process("app").threads[0]
        model = bytearray()

        def put(offset, payload):
            if offset > len(model):
                model.extend(bytes(offset - len(model)))
            model[offset:offset + len(payload)] = payload

        def resize(length):
            del model[length:]
            model.extend(bytes(length - len(model)))

        def scenario():
            call = kernel.syscall
            fd = yield from call(task, "open", path="/f",
                                 flags=O_CREAT | O_RDWR)
            position = 0
            nonzero = False     # a non-zero byte since the last cut to 0
            for op, *args in ops:
                if op == "write":
                    payload, = args
                    n = yield from call(task, "write", fd=fd, data=payload)
                    put(position, payload)
                    position += n
                elif op == "pwrite64":
                    offset, payload = args
                    yield from call(task, "pwrite64", fd=fd, data=payload,
                                    offset=offset)
                    put(offset, payload)
                elif op in ("truncate", "ftruncate"):
                    length, = args
                    yield from (call(task, "truncate", path="/f",
                                     length=length) if op == "truncate"
                                else call(task, "ftruncate", fd=fd,
                                          length=length))
                    resize(length)
                elif op == "reopen":
                    trunc, = args
                    yield from call(task, "close", fd=fd)
                    fd = yield from call(
                        task, "open", path="/f",
                        flags=O_RDWR | (O_TRUNC if trunc else 0))
                    position = 0
                    if trunc:
                        resize(0)
                elif op == "lseek":
                    position = yield from call(task, "lseek", fd=fd,
                                               offset=args[0],
                                               whence=SEEK_SET)
                elif op == "read":
                    buf = bytearray(args[0])
                    n = yield from call(task, "read", fd=fd, buf=buf)
                    assert bytes(buf[:n]) == bytes(
                        model[position:position + args[0]])
                    position += n
                else:
                    offset, count = args
                    buf = bytearray(count)
                    n = yield from call(task, "pread64", fd=fd, buf=buf,
                                        offset=offset)
                    assert bytes(buf[:n]) == bytes(
                        model[offset:offset + count])
                if op in ("write", "pwrite64") and any(args[-1]):
                    nonzero = True
                elif not model:
                    nonzero = False
                inode = kernel.vfs.resolve("/f")
                assert inode.size == len(model)
                assert inode.contents() == bytes(model)
                if not nonzero:
                    # The buffer is private to the inode, so the zero
                    # form is read as memory: no bytearray hangs off it.
                    assert not any(isinstance(ref, bytearray)
                                   for ref in gc.get_referents(inode))

        env.run(until=env.process(scenario()))


class TestLSMProperties:
    @given(ops=st.lists(
        st.tuples(st.sampled_from(["put", "get"]),
                  st.integers(min_value=0, max_value=30),
                  st.integers(min_value=0, max_value=255)),
        min_size=1, max_size=80))
    @settings(max_examples=25, deadline=None)
    def test_db_matches_dict_model_across_flushes(self, ops):
        """RocksDB == dict, even while flushing and compacting."""
        env = Environment()
        kernel = Kernel(env)
        process = kernel.spawn_process("db")
        db = RocksDB(kernel, process, DBOptions(
            memtable_bytes=256, l0_compaction_trigger=2,
            sstable_bytes=512, compaction_threads=2))
        task = process.threads[0]
        model: dict[str, bytes] = {}

        def scenario():
            yield from db.open(task)
            for kind, key_index, value_byte in ops:
                key = f"key{key_index:04d}"
                if kind == "put":
                    value = bytes([value_byte]) * 8
                    yield from db.put(task, key, value)
                    model[key] = value
                else:
                    got = yield from db.get(task, key)
                    assert got == model.get(key), key
            # Drain background work, then verify every key again.
            yield env.timeout(2_000_000_000)
            for key, value in model.items():
                got = yield from db.get(task, key)
                assert got == value, key
            db.close()

        env.run(until=env.process(scenario()))
