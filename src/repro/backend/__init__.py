"""DIO's analysis backend: an Elasticsearch-like document store.

The paper persists trace events in Elasticsearch and implements its
file-path correlation algorithm with ES's query/update APIs.  This
package is an in-process substitute exposing the same operations:

- :mod:`repro.backend.store` — indices of JSON documents, bulk
  indexing, search, and a session's ``file_tag -> file_path`` table
  kept where ES would update by query.
- :mod:`repro.backend.query` — a dict-shaped query DSL (``bool``,
  ``term``, ``terms``, ``range``, ``exists``, ``wildcard``, ``prefix``,
  ``match_all``) compiled to predicates.
- :mod:`repro.backend.planner` — the query planner: resolves
  term/terms/range/prefix/exists constraints into ascending row
  numbers read off the columns, skipping predicate evaluation
  entirely when the plan is exact.
- :mod:`repro.backend.naive` — pre-planner reference implementations
  (full-scan search, correlation on documents) used as benchmark baselines
  and property-test oracles.
- :mod:`repro.backend.aggregations` — ``terms``, ``histogram``,
  ``date_histogram``, ``percentiles``, ``stats`` (and friends), with
  nested sub-aggregations (the dict-walking reference path).
- :mod:`repro.backend.columns` — typed per-field columns (dictionary
  codes + numeric arrays + lazy postings), the one per-field
  structure: what the planner reads, what a sorted search takes its
  keys from, and the aggregation kernels the store pushes ``aggs``
  requests down to, bypassing ``_source`` materialisation.
- :mod:`repro.backend.lanes` — documents held as per-field lanes: the
  ``LaneBatch`` protocol a decoded ring batch, a loaded session and
  the joins of them implement, from ``bulk_columnar`` through
  correlation to the segment writer.
- :mod:`repro.backend.correlation` — the paper's custom file-path
  correlation algorithm, translating file tags into accessed paths.
- :mod:`repro.backend.segments` + :mod:`repro.backend.wal` — the
  storage engine: immutable columnar segment files with zone maps and
  checksummed footers behind a write-ahead log, and the one
  ``len | crc32 | payload`` record-frame codec every append-only log
  in the repository uses (byte layout in docs/STORAGE.md).
- :mod:`repro.backend.persistence` — sessions on disk:
  ``save_session``/``load_session`` over the segment engine, and the
  JSON-lines ``export_session``/``import_session`` interchange format.
- :mod:`repro.backend.router` — the scatter-gather coordinator:
  deterministic shard routing, shard-by-shard fan-out, top-k heap
  merge for search and kernel-partial merge for aggregations (the
  ``shard_count`` axis; ``shard_count=1`` is the oracle).
- :mod:`repro.backend.tenancy` — tenant/session isolation on top of
  the router: per-tenant stores on disjoint shard sets with document
  quotas and ``dio_tenant_*`` telemetry.
"""

from repro.backend.lanes import LaneBatch
from repro.backend.store import (INDEXED_EVENT_FIELDS, DocumentStore, Index,
                                 StoreError)
from repro.backend.columns import Column, ColumnSet
from repro.backend.query import compile_query, QueryError
from repro.backend.planner import QueryPlan, plan_query
from repro.backend.naive import legacy_correlate, naive_aggregate, naive_scan
from repro.backend.aggregations import run_aggregations, AggregationError
from repro.backend.correlation import FilePathCorrelator, CorrelationReport
from repro.backend.persistence import (SessionError,
                                       export_session, import_session,
                                       list_sessions, load_session,
                                       recover_session, save_session)
from repro.backend.segments import (Segment, SegmentBatch, SegmentError,
                                    SegmentStorage)
from repro.backend.wal import WALError, WriteAheadLog
from repro.backend.router import (SHARD_KEYS, ShardedDocumentStore,
                                  create_store)
from repro.backend.tenancy import (TenantBackend, TenantQuotaExceeded,
                                   TenantStore)

__all__ = [
    "INDEXED_EVENT_FIELDS",
    "DocumentStore",
    "Index",
    "LaneBatch",
    "StoreError",
    "Column",
    "ColumnSet",
    "compile_query",
    "QueryError",
    "QueryPlan",
    "plan_query",
    "legacy_correlate",
    "naive_aggregate",
    "naive_scan",
    "run_aggregations",
    "AggregationError",
    "FilePathCorrelator",
    "CorrelationReport",
    "SessionError",
    "export_session",
    "import_session",
    "list_sessions",
    "load_session",
    "recover_session",
    "save_session",
    "Segment",
    "SegmentBatch",
    "SegmentError",
    "SegmentStorage",
    "WALError",
    "WriteAheadLog",
    "SHARD_KEYS",
    "ShardedDocumentStore",
    "create_store",
    "TenantBackend",
    "TenantQuotaExceeded",
    "TenantStore",
]
