"""A large import encodes its segments in forked workers, byte for byte.

``SegmentStorage.import_batch`` (what ``save_session`` calls) encodes
its chunks with one function, :func:`repro.backend.segments.
encode_segment`: ``map`` in this process, or an ordered ``pool.map`` of
forked workers when the import has at least ``FORK_MIN_ROWS`` rows and
the process may run on more than one CPU and has no other thread.  This process alone
publishes each file and updates the manifest.  The tests force the
pool by lowering the threshold and claiming two CPUs, and hold it to
the in-process encoder and to the row writer of
``tests/test_segment_writer.py``: the same files, the same errors, the
same crash leftovers; a dead worker is an error, not a hang; and an
import that should not fork does not.
"""

import copy
import os
import signal
import threading

import pytest

from repro.backend import (DocumentStore, SegmentStorage, SessionError,
                           save_session)
from repro.backend import segments
from repro.backend.lanes import DocBatch, time_ordered
from repro.backend.segments import MANIFEST_NAME, SegmentError
from repro.dst.campaign import run_seeds
from repro.tracer import RecordBatch
from tests.test_segment_writer import files_of, rows_save_session

INDEX = "dio_trace"
SESSION = "saved"
FLUSH = 7

#: The ways an import may encode: ``pool`` forces two forked workers,
#: ``affinity`` lowers only the threshold (two workers on a two-CPU
#: host, this process under ``taskset -c 0``), ``in-process`` keeps
#: the real threshold.
MODES = ("in-process", "pool", "affinity")


def _records(n: int) -> list[dict]:
    """Ring records with ``args`` of several shapes, sparse fields and
    out-of-order times."""
    shapes = [{"fd": 3}, {"path": "/a", "flags": ["O_RDWR"]}, {},
              {"fd": 4, "buf": b"\x00\xff"}, {"path": "/b"}]
    out = []
    for i in range(n):
        record = {"syscall": ("read", "write", "openat")[i % 3],
                  "args": shapes[i % len(shapes)], "ret": i % 5 - 1,
                  "pid": 10 + i % 2, "tid": 20 + i % 3, "comm": "app",
                  "enter_ns": (i * 37) % n, "exit_ns": n + i}
        if i % 4:
            record["offset"] = i * 512
        if i % 3 == 0:
            record["file_tag"] = f"7 {i % 2} 1"
        out.append(record)
    return out


def _docs(n: int) -> list[dict]:
    """Documents with an explicit ``None``, an int beyond int64, a lane
    of ``True``/``1``/``1.0`` (encoded row by row) and sparse keys."""
    out = []
    for i in range(n):
        doc = {"session": SESSION, "time": 1000 + i % 11,
               "syscall": "close", "weight": (True, 1, 1.0, False)[i % 4],
               "args": {"fd": i} if i % 2 else {"fd": i, "how": None}}
        if i % 5 == 0:
            doc["big"] = 1 << 70
        if i % 3 == 1:
            doc["file_path"] = None
        out.append(doc)
    return out


def _stores(docs: list[dict] = ()):
    """A store holding the session as lanes and as rows, and its twin
    holding every event as a document."""
    store, twin = DocumentStore(), DocumentStore()
    records = _records(40)
    for start in range(0, len(records), 16):
        chunk = records[start:start + 16]
        store.bulk_columnar(INDEX, RecordBatch.decode(chunk, SESSION))
        twin.bulk(INDEX, RecordBatch.decode(chunk, SESSION).to_docs())
    docs = list(docs) or _docs(30)
    store.bulk(INDEX, copy.deepcopy(docs[:10]))
    store.bulk_columnar(INDEX, DocBatch(copy.deepcopy(docs[10:])))
    twin.bulk(INDEX, copy.deepcopy(docs))
    return store, twin


@pytest.fixture
def pools(monkeypatch):
    """The worker counts of the encoder pools an import starts."""
    started = []
    pool = segments._pool

    def counted(workers, batch, chunks):
        started.append(workers)
        return pool(workers, batch, chunks)

    monkeypatch.setattr(segments, "_pool", counted)
    return started


def _mode(monkeypatch, mode: str) -> None:
    if mode != "in-process":
        monkeypatch.setattr(segments, "FORK_MIN_ROWS", 0)
    if mode == "pool":
        monkeypatch.setattr(segments, "_cpus", lambda: 2)


@pytest.mark.parametrize("mode", MODES)
def test_encoders_write_the_row_writers_bytes(tmp_path, monkeypatch, pools,
                                              mode):
    store, twin = _stores()
    rows_save_session(twin, SESSION, tmp_path / "rows", FLUSH)
    _mode(monkeypatch, mode)
    saved = save_session(store, SESSION, tmp_path / mode, index=INDEX,
                         flush_events=FLUSH)
    assert saved == twin.count(INDEX)
    written = files_of(tmp_path / mode)
    assert len(written) == 1 + -(-saved // FLUSH)
    assert written == files_of(tmp_path / "rows")
    forked = mode == "pool" or (mode == "affinity"
                                and len(os.sched_getaffinity(0)) > 1)
    assert pools == ([2] if forked else [])


def _failure(tmp_path, monkeypatch, mode: str):
    """Save a session one of whose segments holds an unstorable value."""
    docs = _docs(30)
    docs[24]["weight"] = {1, 2}
    store, _ = _stores(docs)
    _mode(monkeypatch, mode)
    root = tmp_path / mode / "store"
    with pytest.raises(SessionError) as caught:
        save_session(store, SESSION, root, index=INDEX, flush_events=FLUSH)
    return str(caught.value).replace(mode, "*"), caught.value.__cause__, \
        files_of(root)


def test_an_unstorable_value_fails_the_same_way_in_a_worker(tmp_path,
                                                            monkeypatch):
    here, here_cause, here_files = _failure(tmp_path, monkeypatch,
                                            "in-process")
    pooled, pooled_cause, pooled_files = _failure(tmp_path, monkeypatch,
                                                  "pool")
    assert pooled == here
    assert type(pooled_cause) is type(here_cause) is SegmentError
    assert str(pooled_cause) == str(here_cause)
    assert "not storable" in str(here_cause)
    # The segments before the failing one are published, none after.
    assert pooled_files == here_files
    published = sorted(set(here_files) - {MANIFEST_NAME})
    assert published == [f"seg-{seq:06d}.dseg"
                         for seq in range(1, len(published) + 1)]
    assert 0 < len(published) < 70 // FLUSH - 1


def _crash(tmp_path, monkeypatch, mode: str, at: int) -> dict:
    store, _ = _stores()
    _, batch = store.lanes(INDEX, {"term": {"session": SESSION}})
    _mode(monkeypatch, mode)
    root = tmp_path / f"{mode}-{at}"
    engine = SegmentStorage(root, flush_events=FLUSH)
    calls = []

    def hook(stage: str) -> None:
        calls.append(stage)
        if len(calls) == at:
            raise RuntimeError("injected")

    engine._crash_hook = hook
    with pytest.raises(RuntimeError, match="injected"):
        engine.import_batch(time_ordered(batch), session=SESSION)
    engine.close()
    left = {path.name: path.read_bytes() for path in root.iterdir()}
    assert calls == ["flush"] * at
    reopened = SegmentStorage(root, create=False)
    assert reopened.count() == (at - 1) * FLUSH
    reopened.close()
    return left


@pytest.mark.parametrize("at", [1, 3, 10])
def test_a_crash_at_a_flush_leaves_what_it_leaves_in_process(
        tmp_path, monkeypatch, at):
    here = _crash(tmp_path, monkeypatch, "in-process", at)
    pooled = _crash(tmp_path, monkeypatch, "pool", at)
    assert pooled == here
    # Segment ``at`` is on disk but not in the manifest: an orphan.
    assert f"seg-{at:06d}.dseg" in here
    assert MANIFEST_NAME in here or at == 1


def test_a_dead_worker_is_an_error_not_a_hang(tmp_path, monkeypatch):
    store, _ = _stores()
    _mode(monkeypatch, "pool")
    parent = os.getpid()
    encode = segments.encode_segment

    def dies_in_a_worker(batch):
        if os.getpid() != parent:
            os._exit(3)
        return encode(batch)

    monkeypatch.setattr(segments, "encode_segment", dies_in_a_worker)

    def hung(signum, frame):
        raise AssertionError("the import hangs on a dead worker")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(SessionError) as caught:
            save_session(store, SESSION, tmp_path / "store", index=INDEX,
                         flush_events=FLUSH)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert type(caught.value.__cause__) is SegmentError
    assert "died" in str(caught.value.__cause__)


@pytest.fixture
def no_fork(monkeypatch):
    """Any encoder pool is an error; counts the imports that ran."""
    def refuse(workers, batch, chunks):
        raise AssertionError("an import forked encoders")

    monkeypatch.setattr(segments, "_pool", refuse)
    imports = []
    encoded = segments._encoded

    def counted(batch, chunks):
        imports.append(len(batch))
        return encoded(batch, chunks)

    monkeypatch.setattr(segments, "_encoded", counted)
    return imports


def test_dst_imports_do_not_fork(no_fork):
    assert run_seeds(range(1, 5)).ok
    assert no_fork and max(no_fork) < segments.FORK_MIN_ROWS


def test_a_save_below_the_threshold_does_not_fork(tmp_path, no_fork):
    store, twin = _stores()
    save_session(store, SESSION, tmp_path / "store", index=INDEX,
                 flush_events=FLUSH)
    rows_save_session(twin, SESSION, tmp_path / "rows", FLUSH)
    assert no_fork == [twin.count(INDEX)]
    assert files_of(tmp_path / "store") == files_of(tmp_path / "rows")


def test_another_thread_does_not_fork(tmp_path, monkeypatch, no_fork):
    _mode(monkeypatch, "pool")
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait, args=(60,))
    waiter.start()
    try:
        store, _ = _stores()
        save_session(store, SESSION, tmp_path / "store", index=INDEX,
                     flush_events=FLUSH)
    finally:
        stop.set()
        waiter.join(60)
    assert not waiter.is_alive()
    assert len(no_fork) == 1


def test_one_cpu_does_not_fork(tmp_path, monkeypatch, no_fork):
    monkeypatch.setattr(segments, "FORK_MIN_ROWS", 0)
    monkeypatch.setattr(segments.os, "sched_getaffinity", lambda pid: {0})
    store, twin = _stores()
    save_session(store, SESSION, tmp_path / "store", index=INDEX,
                 flush_events=FLUSH)
    rows_save_session(twin, SESSION, tmp_path / "rows", FLUSH)
    assert no_fork == [twin.count(INDEX)]
    assert files_of(tmp_path / "store") == files_of(tmp_path / "rows")
