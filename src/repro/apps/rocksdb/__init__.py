"""An LSM-tree key-value store in the shape of RocksDB (§III-C).

Implements the pieces of RocksDB that the paper's contention diagnosis
depends on:

- a write path with WAL append + memtable, flushed to L0 SSTables by a
  dedicated high-priority thread (``rocksdb:high0``);
- a leveled compaction pipeline served by a pool of low-priority
  threads (``rocksdb:low0`` … ``rocksdb:low6``), with exclusive
  L0→L1 compactions;
- write stalls when immutable memtables pile up or L0 grows past its
  trigger — the mechanism that turns background I/O contention into
  client-visible tail-latency spikes (the SILK phenomenon);
- a read path through memtables and the level hierarchy, issuing
  ``pread64`` syscalls that share the block device with compactions.

:mod:`repro.apps.rocksdb.db_bench` is the closed-loop client harness
(8 threads, YCSB-A style 50/50 read/update on Zipfian keys) used for
Fig. 3, Fig. 4 and Table II.
"""

from repro.apps.rocksdb.options import DBOptions
from repro.apps.rocksdb.memtable import MemTable
from repro.apps.rocksdb.sstable import SSTable
from repro.apps.rocksdb.db import RocksDB
from repro.apps.rocksdb.db_bench import DBBench, BenchResult, ZipfianGenerator

__all__ = [
    "DBOptions",
    "MemTable",
    "SSTable",
    "RocksDB",
    "DBBench",
    "BenchResult",
    "ZipfianGenerator",
]
