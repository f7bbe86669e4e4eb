"""Seeded inputs for the end-to-end benchmark.

One generator serves every workload that does not run the simulator:
raw ring records shaped like the ones the tracer's ``sys_exit``
program emits while RocksDB runs under ``db_bench`` (paper §III-C).
``--seed`` is the only source of randomness; the program under test
receives only what this module returns.

The trace has the structure the pipeline's layers depend on:

- one process, 8 ``db_bench`` client threads, one ``rocksdb:high0``
  flush thread and 7 ``rocksdb:low*`` compaction threads, so Fig. 4's
  ``date_histogram`` + ``terms`` has 9 thread names to split by;
- every fifth pair of 100 ms windows is a compaction burst (all seven
  ``rocksdb:low*`` threads busy, clients depressed) — the shape the
  contention analysis looks for;
- ``open`` events carry the path *and* the file tag, later accesses only
  the tag, so the file-path correlation has tags to resolve; SSTables
  that "existed before tracing started" are read but never opened, so a
  share of the tagged events stays unresolved, as in a real capture.
"""

from __future__ import annotations

import random

PID = 4242
CLIENT_TIDS = tuple(range(4242, 4250))
FLUSH_TID = 4250
COMPACTION_TIDS = tuple(range(4251, 4258))
CLIENT_COMM = "db_bench"
FLUSH_COMM = "rocksdb:high0"
DEVICE = 7340032

#: Mean virtual time between two records.  The 61,440 records of
#: ``live_tail_sharded`` then span 3.9 s: one 1 s shard window for each
#: of its four shards, and ~40 Fig. 4 windows of 100 ms.
MEAN_GAP_NS = 64_000
WINDOW_NS = 100_000_000
#: SSTables that predate the capture: read, never opened.
PREEXISTING_TABLES = 12

_WAL_PAYLOAD = b"\x2a" * 540
_BLOCK_PAYLOAD = b"\x2a" * 4096


def _tag(ino: int, first_ns: int) -> str:
    return f"{DEVICE} {ino} {first_ns}"


def make_records(seed: int, count: int) -> list[dict]:
    """``count`` raw ring records in timestamp order."""
    rng = random.Random(seed)
    rand, randrange = rng.random, rng.randrange

    # Open files: fd, inode, tag, path, next sequential offset.
    wal = {"fd": 3, "tag": _tag(4, 0), "offset": 0}
    tables = [{"fd": 6 + i, "tag": _tag(20 + i, 0),
               "path": f"/rocksdb/{i:06d}.sst", "offset": 0}
              for i in range(PREEXISTING_TABLES)]
    next_ino = 20 + PREEXISTING_TABLES
    jobs: dict[int, dict] = {}          # background tid -> open output
    records: list[dict] = []
    append = records.append
    clock = 1_000_000

    def emit(syscall, args, ret, tid, comm, tag, offset=None):
        record = {"syscall": syscall, "args": args, "ret": ret,
                  "pid": PID, "tid": tid, "comm": comm,
                  "enter_ns": clock,
                  "exit_ns": clock + 1_500 + randrange(3_000),
                  "file_type": "regular"}
        if offset is not None:
            record["offset"] = offset
        record["file_tag"] = tag
        append(record)

    def background(tid, comm):
        """One step of a flush/compaction job: open, write…, close."""
        nonlocal next_ino
        job = jobs.get(tid)
        if job is None:
            ino, next_ino = next_ino, next_ino + 1
            job = {"fd": 6 + ino, "tag": _tag(ino, clock),
                   "path": f"/rocksdb/{ino:06d}.sst", "offset": 0,
                   "left": 24 + randrange(40),
                   "source": tables[randrange(len(tables))]}
            jobs[tid] = job
            emit("open", {"path": job["path"], "flags": 577},
                 job["fd"], tid, comm, job["tag"])
        elif job["left"] == 0:
            del jobs[tid]
            tables.append(job)
            emit("close", {"fd": job["fd"]}, 0, tid, comm, job["tag"])
        else:
            job["left"] -= 1
            if comm != FLUSH_COMM and job["left"] % 2:
                source = job["source"]
                emit("read", {"fd": source["fd"], "buf": 4096}, 4096,
                     tid, comm, source["tag"], source["offset"])
                source["offset"] += 4096
            else:
                emit("write", {"fd": job["fd"], "data": _BLOCK_PAYLOAD},
                     4096, tid, comm, job["tag"], job["offset"])
                job["offset"] += 4096

    for _ in range(count):
        clock += 1 + randrange(2 * MEAN_GAP_NS)
        burst = (clock // WINDOW_NS) % 10 >= 8
        draw = rand()
        if draw < (0.30 if burst else 0.82):
            tid = CLIENT_TIDS[randrange(8)]
            if rand() < 0.5:
                table = tables[randrange(len(tables))]
                offset = 4096 * randrange(256)
                emit("pread64", {"fd": table["fd"], "buf": 4096,
                                 "offset": offset}, 4096,
                     tid, CLIENT_COMM, table["tag"], offset)
            else:
                emit("write", {"fd": wal["fd"], "data": _WAL_PAYLOAD},
                     540, tid, CLIENT_COMM, wal["tag"], wal["offset"])
                wal["offset"] += 540
        elif draw < (0.33 if burst else 0.86):
            background(FLUSH_TID, FLUSH_COMM)
        else:
            lane = randrange(7 if burst else 2)
            background(COMPACTION_TIDS[lane], f"rocksdb:low{lane}")
    return records


def record_to_doc(record: dict, session: str) -> dict:
    """The backend document one ring record becomes (paper §II-B).

    Written out here, field by field, so the checker compares stored
    events against the *input* rather than against the program's own
    decode.  Buffers are recorded as their sizes, never their contents.
    """
    args = {key: (len(value) if isinstance(value, bytes) else value)
            for key, value in record["args"].items()}
    doc = {
        "syscall": record["syscall"],
        "args": args,
        "ret": record["ret"],
        "pid": record["pid"],
        "tid": record["tid"],
        "proc_name": record["comm"],
        "time": record["enter_ns"],
        "time_exit": record["exit_ns"],
        "duration_ns": record["exit_ns"] - record["enter_ns"],
        "session": session,
        "file_type": record["file_type"],
    }
    if "offset" in record:
        doc["offset"] = record["offset"]
    doc["file_tag"] = record["file_tag"]
    return doc


def tag_paths(records: list[dict]) -> dict[str, str]:
    """``file_tag -> path`` as the ``open`` records spell it out."""
    return {record["file_tag"]: record["args"]["path"]
            for record in records if record["syscall"] == "open"}


def expected_docs(records: list[dict], session: str) -> list[dict]:
    """Stored events after ingest *and* file-path correlation."""
    paths = tag_paths(records)
    docs = []
    for record in records:
        doc = record_to_doc(record, session)
        path = paths.get(doc["file_tag"])
        if path is not None:
            doc["file_path"] = path
        docs.append(doc)
    return docs
