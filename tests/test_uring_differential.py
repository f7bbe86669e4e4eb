"""Differential classic-vs-io_uring battery (Hypothesis).

The same seeded log workload ported to classic syscalls and to
io_uring submission must have **identical logical I/O effects** —
file bytes, pagecache dirty state, byte accounting — while differing
exactly in the documented blind spot: per-op syscalls collapse into
doorbells, and only the ring-aware tracer mode recovers the per-op
events.  The ring-aware capture must also round-trip byte-identically
through persistence, queries, and aggregations.
"""

import hashlib

from hypothesis import given, settings, strategies as st

from repro.apps.uringlog import UringLogApp
from repro.backend import DocumentStore
from repro.backend.persistence import export_session, import_session
from repro.kernel import Kernel
from repro.sim import Environment
from repro.tracer import DIOTracer, TracerConfig

workload_shapes = st.tuples(
    st.integers(min_value=1, max_value=6),     # batches
    st.integers(min_value=1, max_value=6),     # batch_size
    st.sampled_from((32, 256, 1000)),          # record_size
    st.integers(min_value=1, max_value=4),     # fsync_every
    st.booleans(),                             # use_registered
)


def _run(mode, shape, ring_mode=None):
    """One app run; returns (kernel, app, store or None)."""
    batches, batch_size, record_size, fsync_every, use_registered = shape
    env = Environment()
    kernel = Kernel(env)
    app = UringLogApp(kernel, mode=mode, batches=batches,
                      batch_size=batch_size, record_size=record_size,
                      fsync_every=fsync_every,
                      use_registered=use_registered)
    store = None
    tracer = None
    if ring_mode is not None:
        store = DocumentStore()
        tracer = DIOTracer(env, kernel, store,
                           TracerConfig(session_name="uring-diff",
                                        ring_mode=ring_mode))
        tracer.attach()

    def main():
        yield env.process(app.run())
        if tracer is not None:
            yield from tracer.shutdown()

    env.run(until=env.process(main()))
    return kernel, app, store


def _state(kernel, app):
    """The logical-effect fingerprint both ports must agree on."""
    inode = kernel.vfs.resolve(app.path)
    data = bytes(inode.data)
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "size": len(data),
        "dirty_blocks": kernel._cache_for(inode).dirty_blocks(inode.ino),
        "wchar": app.process.io.wchar,
        "rchar": app.process.io.rchar,
        "records": app.records_confirmed,
        "fsyncs": app.fsyncs_confirmed,
    }


class TestPortEquivalence:
    @given(shape=workload_shapes)
    @settings(max_examples=25, deadline=None)
    def test_identical_logical_effects(self, shape):
        ck, capp, _ = _run("classic", shape)
        uk, uapp, _ = _run("uring", shape)
        assert _state(ck, capp) == _state(uk, uapp)
        assert not capp.errors and not uapp.errors

    @given(shape=workload_shapes)
    @settings(max_examples=15, deadline=None)
    def test_blind_spot_is_exactly_the_per_op_surface(self, shape):
        """Store-visible counts match modulo the documented blind spot.

        The classic port's per-op syscalls (pwrite64/fsync) appear in
        the ring port only as ``uring_*`` events — and only under the
        ring-aware tracer; the doorbell syscalls are all that remain
        visible to a classic tracer.
        """
        batches, batch_size, _, fsync_every, use_registered = shape
        _, capp, cstore = _run("classic", shape, ring_mode="classic")
        _, uapp, ustore = _run("uring", shape, ring_mode="ring-aware")

        def counts(store):
            response = store.search("dio_trace", size=0, aggs={
                "s": {"terms": {"field": "syscall", "size": 50}}})
            return {b["key"]: b["doc_count"]
                    for b in response["aggregations"]["s"]["buckets"]}

        classic = counts(cstore)
        ring = counts(ustore)
        # Per-op I/O translates one-to-one into uring_* events.
        assert ring.get("uring_write", 0) == classic.get("pwrite64", 0)
        assert ring.get("uring_fsync", 0) == classic.get("fsync", 0)
        # The ring port's classic-visible surface is the control plane.
        assert ring.get("io_uring_enter", 0) == batches
        assert ring.get("io_uring_setup", 0) == 1
        assert "pwrite64" not in ring and "fsync" not in ring
        # Both ports open and close the same log file.
        assert ring.get("openat") == classic.get("openat") == 1

    @given(shape=workload_shapes)
    @settings(max_examples=10, deadline=None)
    def test_classic_tracer_on_ring_port_sees_no_per_op_events(
            self, shape):
        _, app, store = _run("uring", shape, ring_mode="classic")
        hits = store.search("dio_trace", size=None)["hits"]["hits"]
        names = {hit["_source"]["syscall"] for hit in hits}
        assert not any(name.startswith("uring_") for name in names)
        assert "io_uring_enter" in names
        # The blind spot: the app confirmed every record, yet not one
        # write is visible as an event.
        assert app.records_confirmed == app.batches * app.batch_size


class TestRingAwareRoundTrip:
    @given(shape=workload_shapes)
    @settings(max_examples=10, deadline=None)
    def test_capture_roundtrips_through_persistence(self, shape,
                                                    tmp_path_factory):
        _, app, store = _run("uring", shape, ring_mode="ring-aware")
        docs = sorted(
            (source for _, source in store.scan("dio_trace",
                                                {"match_all": {}})),
            key=lambda s: (s["tid"], s["time"], s["syscall"]))
        tmp = tmp_path_factory.mktemp("uring-rt")
        path = tmp / "capture.jsonl"
        exported = export_session(store, "uring-diff", path,
                                  index="dio_trace")
        assert exported == len(docs)

        fresh = DocumentStore()
        import_session(fresh, path, index="dio_trace",
                       rename_to="uring-diff")
        redocs = sorted(
            (source for _, source in fresh.scan("dio_trace",
                                                {"match_all": {}})),
            key=lambda s: (s["tid"], s["time"], s["syscall"]))
        assert redocs == docs

        # Queries and aggregations agree before and after the trip.
        query = {"term": {"syscall": "uring_write"}}
        assert (fresh.count("dio_trace", query)
                == store.count("dio_trace", query)
                == app.records_confirmed)
        aggs = {"s": {"terms": {"field": "syscall", "size": 50}}}
        assert (fresh.search("dio_trace", size=0, aggs=aggs)
                ["aggregations"]
                == store.search("dio_trace", size=0, aggs=aggs)
                ["aggregations"])
