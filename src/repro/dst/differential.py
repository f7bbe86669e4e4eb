"""Differential checks: fast paths vs. legacy/naive oracles.

Two layers of comparison, both running on every scenario:

1. **In-store battery** — a seeded battery of queries and aggregations
   is answered twice on the *same* store: once through the production
   path (planner + columnar kernels + agg cache) and once through the
   pre-optimisation oracles (:func:`repro.backend.naive.naive_scan`,
   :func:`~repro.backend.naive.naive_aggregate`).  Any divergence is a
   query-engine bug.

2. **Twin-run comparison** — the runner executes the whole pipeline a
   second time through a ``bulk``-only store facade with
   :func:`~repro.backend.naive.legacy_correlate` instead of the
   grouped-pass correlator.  The stores' final contents (documents,
   ids, resolved paths) and the correlation reports must be identical:
   the optimised pipeline may be faster, never different.
"""

from __future__ import annotations

import json
import random

from repro.backend.naive import naive_aggregate, naive_scan


def battery_specs(rng: random.Random, time_lo: int,
                  time_hi: int) -> list[dict]:
    """The seeded query/agg battery for one scenario.

    A fixed dashboard core (the shapes ``dio analyze``/``dio dashboard``
    issue) plus variations drawn from ``rng`` (the seed's ``battery``
    stream), so every seed probes a different corner of the query
    surface.
    """
    span = max(1, time_hi - time_lo)
    specs = [
        # The paper's Fig. 4 shape: syscall mix with latency stats.
        {"query": None,
         "aggs": {"by_syscall": {
             "terms": {"field": "syscall", "size": 50},
             "aggs": {"lat": {"stats": {"field": "duration_ns"}}}}}},
        # Per-file activity after correlation.
        {"query": {"exists": {"field": "file_path"}},
         "aggs": {"by_path": {
             "terms": {"field": "file_path", "size": 50},
             "aggs": {"bytes": {"sum": {"field": "ret"}}}}}},
        # Timeline histogram feeding the dashboard sparklines.
        {"query": None,
         "aggs": {"timeline": {
             "date_histogram": {"field": "time",
                                "interval": max(1, span // 8)},
             "aggs": {"procs": {"terms": {"field": "proc_name",
                                          "size": 20}}}}}},
        # Latency distribution.
        {"query": {"term": {"syscall": rng.choice(
            ("read", "write", "open", "close", "fsync"))}},
         "aggs": {"pct": {"percentiles": {
             "field": "duration_ns",
             "percents": [50, 90, 99]}}}},
    ]
    for _ in range(3):
        lo = time_lo + rng.randrange(span)
        hi = lo + rng.randrange(1, span + 1)
        spec = {"query": {"bool": {"must": [
            {"range": {"time": {"gte": lo, "lt": hi}}},
        ]}}}
        if rng.random() < 0.5:
            spec["query"]["bool"]["must"].append(
                {"exists": {"field": "file_tag"}})
        if rng.random() < 0.5:
            spec["query"]["bool"]["must"].append(
                {"range": {"ret": {"gte": 0}}})
        if rng.random() < 0.5:
            spec["aggs"] = {"off": {"histogram": {
                "field": "offset", "interval": rng.choice((512, 4096))}}}
        specs.append(spec)
    return specs


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def run_battery(store, index: str, rng: random.Random,
                time_lo: int, time_hi: int) -> tuple[list[str], list]:
    """Fast-vs-oracle battery on one store.

    Returns ``(failures, fast_results)`` — the fast results also feed
    the determinism digest.
    """
    failures: list[str] = []
    results: list = []
    # A sharded store has no single Index; its oracle_index() view
    # re-materialises one in global rank order for the naive oracles.
    target = (store.oracle_index(index) if hasattr(store, "oracle_index")
              else store.ensure_index(index))
    for i, spec in enumerate(battery_specs(rng, time_lo, time_hi)):
        query = spec.get("query")
        aggs = spec.get("aggs")

        fast_hits = store.scan(index, query)
        oracle_hits = naive_scan(target, query)
        fast_ids = sorted(doc_id for doc_id, _ in fast_hits)
        oracle_ids = sorted(doc_id for doc_id, _ in oracle_hits)
        if fast_ids != oracle_ids:
            failures.append(
                f"battery[{i}]: planner returned {len(fast_ids)} docs, "
                f"naive scan {len(oracle_ids)} "
                f"(query={_canonical(query)})")
        results.append({"query": i, "hits": fast_ids})

        if aggs:
            response = store.search(index, query=query, aggs=aggs, size=0)
            fast_aggs = response["aggregations"]
            oracle_aggs = naive_aggregate(target, query, aggs)
            if _canonical(fast_aggs) != _canonical(oracle_aggs):
                failures.append(
                    f"battery[{i}]: aggregation divergence "
                    f"(aggs={_canonical(aggs)})")
            results.append({"query": i, "aggs": fast_aggs})
    return failures, results


def compare_twin_runs(fast, oracle) -> list[str]:
    """Fast pipeline vs. legacy-oracle pipeline, same scenario."""
    failures: list[str] = []
    fast_docs, oracle_docs = fast.docs, oracle.docs
    if _canonical(fast_docs) != _canonical(oracle_docs):
        fast_by_id = dict(fast_docs)
        oracle_by_id = dict(oracle_docs)
        only_fast = sorted(set(fast_by_id) - set(oracle_by_id))
        only_oracle = sorted(set(oracle_by_id) - set(fast_by_id))
        if only_fast or only_oracle:
            failures.append(
                f"twin-run doc-id mismatch: {len(only_fast)} only in "
                f"fast run, {len(only_oracle)} only in oracle run")
        else:
            diverging = [doc_id for doc_id in fast_by_id
                         if _canonical(fast_by_id[doc_id])
                         != _canonical(oracle_by_id[doc_id])][:5]
            failures.append(
                f"twin-run content mismatch in docs {diverging}")
    fast_dict = fast.report.as_dict() if fast.report else None
    oracle_dict = oracle.report.as_dict() if oracle.report else None
    if fast_dict != oracle_dict:
        failures.append(
            f"twin-run correlation reports differ: fast={fast_dict} "
            f"oracle={oracle_dict}")
    return failures
