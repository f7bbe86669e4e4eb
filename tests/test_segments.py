"""Segment storage engine: WAL, segment files, engine lifecycle.

Covers the durability contract byte by byte (a segment torn at *any*
byte is rejected whole; what any cut or bit flip does to the WAL is
the shared record-log property in ``tests/test_record_logs.py``), the
maintenance paths (flush, compaction), zone-map pruning against the
query semantics, and the persistence facade over the engine.  The
adversarial round-trip against the JSON-lines oracle lives at the
bottom as a Hypothesis property.
"""

import json
import math
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import DocumentStore
from repro.backend.lanes import DocBatch
from repro.backend.persistence import (SessionError, export_session,
                                       import_session, load_session,
                                       save_session)
from repro.backend.planner import prune_constraints
from repro.backend.query import compile_query
from repro.backend.segments import (MANIFEST_NAME, WAL_NAME, Segment,
                                    SegmentError, SegmentStorage,
                                    sort_docs, write_batch)
from repro.backend.wal import (WAL_MAGIC, WriteAheadLog, encode_record,
                               recover_bytes)

DOCS = [
    {"time": 40, "syscall": "write", "ret": 8, "path": "/data/f0"},
    {"time": 10, "syscall": "open", "ret": 3, "path": "/data/f0"},
    {"time": 30, "syscall": "read", "ret": -9, "path": "/data/журнал"},
    {"time": 20, "syscall": "close", "ret": 0},
    {"time": 50, "syscall": "fsync", "ret": 0, "latency": 1.5},
]


def dumps(docs):
    return [json.dumps(d, sort_keys=True) for d in docs]


# ---------------------------------------------------------------------------
# Write-ahead log


class TestWAL:
    def test_round_trip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.bin")
        assert wal.open() == []
        wal.append("s1", DOCS[:2])
        wal.append("s1", DOCS[2:])
        wal.close()

        reopened = WriteAheadLog(tmp_path / "wal.bin")
        assert reopened.open() == [(1, "s1", DOCS[:2]), (2, "s1", DOCS[2:])]
        assert reopened.report["records_recovered"] == 2
        assert reopened.report["docs_recovered"] == len(DOCS)
        assert reopened.report["torn_bytes_dropped"] == 0
        reopened.close()

    def test_open_truncates_torn_tail_in_place(self, tmp_path):
        path = tmp_path / "wal.bin"
        wal = WriteAheadLog(path)
        wal.open()
        wal.append("s", DOCS[:1])
        wal.close()
        intact = path.read_bytes()
        path.write_bytes(intact + b"\x99\x01garbage")

        reopened = WriteAheadLog(path)
        assert reopened.open() == [(1, "s", DOCS[:1])]
        reopened.close()
        assert path.read_bytes() == intact

    def test_read_only_open_leaves_torn_tail_on_disk(self, tmp_path):
        path = tmp_path / "wal.bin"
        wal = WriteAheadLog(path)
        wal.open()
        wal.append("s", DOCS[:1])
        wal.close()
        damaged = path.read_bytes() + b"\x99\x01garbage"
        path.write_bytes(damaged)

        inspector = WriteAheadLog(path)
        assert inspector.open(read_only=True) == [(1, "s", DOCS[:1])]
        assert path.read_bytes() == damaged   # evidence untouched
        with pytest.raises(Exception):
            inspector.append("s", DOCS[1:2])
        inspector.close()

    def test_record_ids_survive_reset(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.bin")
        wal.open()
        assert wal.append("s", DOCS[:1])[0] == 1
        wal.reset()
        assert wal.append("s", DOCS[1:2])[0] == 2
        wal.ensure_next_id(10)
        assert wal.append("s", DOCS[2:3])[0] == 10
        wal.close()

    def test_reset_truncates_to_header(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.bin")
        wal.open()
        wal.append("s", DOCS)
        wal.reset()
        wal.close()
        assert (tmp_path / "wal.bin").read_bytes() == WAL_MAGIC

    def test_corrupt_crc_stops_recovery(self, tmp_path):
        good = encode_record("s", DOCS[:1])
        bad = bytearray(encode_record("s", DOCS[1:2]))
        bad[-1] ^= 0xFF
        entries, report = recover_bytes(WAL_MAGIC + good + bytes(bad))
        assert len(entries) == 1
        assert report["torn_bytes_dropped"] == len(bad)

    def test_foreign_file_is_restarted(self, tmp_path):
        path = tmp_path / "wal.bin"
        path.write_bytes(b"not a wal at all")
        wal = WriteAheadLog(path)
        assert wal.open() == []
        wal.close()
        assert path.read_bytes() == WAL_MAGIC


# ---------------------------------------------------------------------------
# Segment files


class TestSegmentFile:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "seg-000001.dseg"
        meta = write_batch(path, DocBatch(DOCS), session="s1", seq=1,
                             created_ns=123)
        assert meta["rows"] == len(DOCS)
        segment = Segment(path)
        assert segment.rows == len(DOCS)
        assert segment.session == "s1"
        assert segment.seq == 1
        assert segment.created_ns == 123
        assert dumps(segment.docs()) == dumps(sort_docs(DOCS))

    def test_order_and_key_order_match_sorted_input(self, tmp_path):
        path = tmp_path / "seg.dseg"
        write_batch(path, DocBatch(DOCS), session="s", seq=1)
        loaded = Segment(path).docs()
        expected = sort_docs(DOCS)
        assert [json.dumps(d) for d in loaded] == \
            [json.dumps(d) for d in expected]

    def test_absent_vs_explicit_none_survive(self, tmp_path):
        docs = [{"time": 1, "x": None}, {"time": 2}, {"time": 3, "x": 7}]
        path = tmp_path / "seg.dseg"
        write_batch(path, DocBatch(docs), session="s", seq=1)
        loaded = Segment(path).docs()
        assert loaded == docs
        assert "x" in loaded[0] and "x" not in loaded[1]

    def test_exotic_values_round_trip(self, tmp_path):
        docs = [{"time": 1, "v": 2 ** 80, "w": True},
                {"time": 2, "v": -(2 ** 80), "w": {"nested": [1, "é"]}},
                {"time": 3, "v": 0.5, "w": float("inf")},
                {"time": 4, "v": "строка", "w": None}]
        path = tmp_path / "seg.dseg"
        write_batch(path, DocBatch(docs), session="s", seq=1)
        assert dumps(Segment(path).docs()) == dumps(docs)

    def test_truncation_at_every_byte_is_rejected_whole(self, tmp_path):
        path = tmp_path / "seg.dseg"
        write_batch(path, DocBatch(DOCS), session="s", seq=1)
        blob = path.read_bytes()
        torn = tmp_path / "torn.dseg"
        for cut in range(len(blob)):
            torn.write_bytes(blob[:cut])
            with pytest.raises(SegmentError):
                Segment(torn)

    def test_flipped_block_byte_fails_verify(self, tmp_path):
        path = tmp_path / "seg.dseg"
        write_batch(path, DocBatch(DOCS), session="s", seq=1)
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0xFF                 # inside the first field block
        path.write_bytes(bytes(blob))
        segment = Segment(path)          # trailer+footer still intact
        assert not segment.verify()["ok"]

    def test_open_reads_no_block(self, tmp_path):
        # The open reads header, trailer and footer; a block's bytes
        # are read when lanes() or verify() asks, so a block rewritten
        # on disk after the open is the one read — and fails its CRC.
        path = tmp_path / "seg.dseg"
        write_batch(path, DocBatch(DOCS), session="s", seq=1)
        segment = Segment(path)
        assert segment.size_bytes == path.stat().st_size
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0xFF                 # inside the first field block
        path.write_bytes(bytes(blob))
        with pytest.raises(SegmentError, match="checksum mismatch"):
            segment.lanes()
        assert not segment.verify()["ok"]

    def test_zone_maps_cover_typed_fields(self, tmp_path):
        path = tmp_path / "seg.dseg"
        write_batch(path, DocBatch(DOCS), session="s", seq=1)
        zones = Segment(path).zones
        assert zones["time"][1:] == (10, 50)
        assert zones["ret"][1:] == (-9, 8)
        assert zones["syscall"][1:] == ("close", "write")

    def test_may_match_prunes_disjoint_ranges(self, tmp_path):
        path = tmp_path / "seg.dseg"
        write_batch(path, DocBatch(DOCS), session="s", seq=1)
        segment = Segment(path)
        assert segment.may_match(
            [("time", "range", {"gte": 10, "lte": 20})])
        assert not segment.may_match(
            [("time", "range", {"gt": 50})])
        assert not segment.may_match([("syscall", "eq", "zzz")])
        assert segment.may_match([("syscall", "eq", "open")])
        # The str zone on "path" excludes values above its max too.
        assert not segment.may_match([("path", "eq", "/zzz")])

    def test_may_match_keeps_unzoned_fields(self, tmp_path):
        # Mixed value classes leave the field without a zone map, so
        # pruning must conservatively keep the segment.
        docs = [{"time": 1, "mixed": 1}, {"time": 2, "mixed": "x"}]
        path = tmp_path / "seg.dseg"
        write_batch(path, DocBatch(docs), session="s", seq=1)
        segment = Segment(path)
        assert "mixed" not in segment.zones
        assert segment.may_match([("mixed", "eq", "anything")])

    def test_may_match_keeps_dotted_paths_into_nested_values(self, tmp_path):
        # get_field resolves "a.b" inside the root column's nested
        # dicts, which no zone map covers — the segment must survive
        # pruning so the per-row predicate can find the match.
        docs = [{"time": 1, "a": {"b": 5}}, {"time": 2, "a": {"b": 7}}]
        path = tmp_path / "seg.dseg"
        write_batch(path, DocBatch(docs), session="s", seq=1)
        segment = Segment(path)
        assert segment.may_match([("a.b", "eq", 5)])
        assert segment.may_match([("a.b", "range", {"gte": 6})])
        # No root column at all is still a proof of absence.
        assert not segment.may_match([("zz.yy", "eq", 5)])

    def test_may_match_missing_field_can_equal_none(self, tmp_path):
        # A row without the field resolves to None under get_field, so
        # an eq-None / in-[None] constraint cannot exclude the segment.
        path = tmp_path / "seg.dseg"
        write_batch(path, DocBatch([{"time": 1}]), session="s", seq=1)
        segment = Segment(path)
        assert segment.may_match([("missing", "eq", None)])
        assert segment.may_match([("missing", "in", [1, None])])
        assert not segment.may_match([("missing", "eq", 3)])
        assert not segment.may_match([("missing", "range", {"gte": 0})])


# ---------------------------------------------------------------------------
# The engine


def fill(engine, n=20, session="s"):
    docs = [{"time": i * 10, "syscall": "write", "ret": i} for i in range(n)]
    engine.import_batch(DocBatch(docs), session=session)
    return docs


class TestSegmentStorage:
    def test_append_is_wal_durable_before_flush(self, tmp_path):
        engine = SegmentStorage(tmp_path / "store", flush_events=100)
        engine.append(DOCS[:3], session="s")
        engine.close()                    # no flush: only the WAL has them

        reopened = SegmentStorage(tmp_path / "store", flush_events=100,
                                  create=False)
        assert reopened.open_report["wal_docs_recovered"] == 3
        assert dumps(reopened.all_docs()) == dumps(sort_docs(DOCS[:3]))
        reopened.close()

    def test_flush_seals_and_truncates_wal(self, tmp_path):
        engine = SegmentStorage(tmp_path / "store", flush_events=4)
        engine.append(DOCS, session="s")  # 5 docs >= 4: auto-flush
        assert engine.flushes_total == 1
        assert (tmp_path / "store" / WAL_NAME).read_bytes() == WAL_MAGIC
        assert engine.count() == len(DOCS)
        engine.close()

    def test_import_chunks_into_segments(self, tmp_path):
        engine = SegmentStorage(tmp_path / "store", flush_events=6)
        docs = fill(engine, 20)
        assert len(engine._segments) == math.ceil(20 / 6)
        assert dumps(engine.all_docs()) == dumps(sort_docs(docs))
        engine.close()

    def test_compaction_preserves_contents_and_order(self, tmp_path):
        engine = SegmentStorage(tmp_path / "store", flush_events=3)
        docs = fill(engine, 21)
        before = dumps(engine.all_docs())
        report = engine.compact(small_rows=100)
        assert report["segments_merged"] >= 2
        assert len(engine._segments) == 1
        assert dumps(engine.all_docs()) == before == dumps(sort_docs(docs))
        engine.close()

        reopened = SegmentStorage(tmp_path / "store", create=False)
        assert dumps(reopened.all_docs()) == before
        reopened.close()

    def test_compaction_needs_a_contiguous_small_run(self, tmp_path):
        engine = SegmentStorage(tmp_path / "store", flush_events=4)
        engine.import_batch(DocBatch([{"time": i} for i in range(4)]),
                            session="s")
        engine.import_batch(DocBatch([{"time": 100 + i} for i in range(8)]),
                            session="s")
        engine.import_batch(DocBatch([{"time": 200}]), session="s")
        # Segments hold 4, 4, 4, 1 rows: a lone small segment is not a
        # run, so nothing merges below a threshold of 2.
        assert engine.compact(small_rows=2)["segments_merged"] == 0
        engine.close()

    def test_compaction_writes_the_bytes_of_its_rows(self, tmp_path,
                                                     monkeypatch):
        # A merged run is its segments' lanes, joined, through the one
        # column writer — no document is built — and the file is the
        # one write_batch writes for the run's rows: rows without a
        # session, sparse and explicitly-None fields, two args shapes.
        docs = []
        for i in range(23):
            doc = {"time": 10 * i, "syscall": ("read", "write")[i % 2],
                   "args": ({"fd": i % 3} if i % 3
                            else {"path": f"/f{i}", "flags": i})}
            if i % 4 == 0:
                doc["offset"] = 512 * i
            doc["file_tag"] = None if i % 5 == 0 else f"tag-{i % 2}"
            docs.append(doc)
        engine = SegmentStorage(tmp_path / "store", flush_events=5)
        engine.import_batch(DocBatch(docs), session="s")
        assert len(engine.segments()) == 5
        monkeypatch.setattr(Segment, "docs", lambda self: pytest.fail(
            "compaction built documents"))
        assert engine.compact(small_rows=100)["segments_merged"] == 5
        merged, = engine.segments()
        engine.close()
        write_batch(tmp_path / "rows.dseg", DocBatch(docs), session="s",
                    seq=merged.seq, created_ns=merged.created_ns)
        assert merged.path.read_bytes() == \
            (tmp_path / "rows.dseg").read_bytes()
        assert "session" not in merged.schema

    def test_torn_segment_dropped_whole_on_open(self, tmp_path):
        engine = SegmentStorage(tmp_path / "store", flush_events=5)
        fill(engine, 15)                  # 3 segments of 5
        engine.close()
        victim = sorted((tmp_path / "store").glob("*.dseg"))[1]
        victim.write_bytes(victim.read_bytes()[:-7])

        reopened = SegmentStorage(tmp_path / "store", create=False)
        assert reopened.open_report["segments_dropped"] == 1
        assert reopened.count() == 10
        assert reopened.verify()["ok"]
        # The rewritten manifest no longer names the damaged file.
        manifest = json.loads(
            (tmp_path / "store" / MANIFEST_NAME).read_text())
        assert victim.name not in manifest["segments"]
        reopened.close()

    def test_orphan_segments_removed_on_open(self, tmp_path):
        engine = SegmentStorage(tmp_path / "store", flush_events=5)
        fill(engine, 5)
        engine.close()
        orphan = tmp_path / "store" / "seg-000099.dseg"
        write_batch(orphan, DocBatch(DOCS), session="ghost", seq=99)
        (tmp_path / "store" / "seg-000003.dseg.tmp").write_bytes(b"half")

        reopened = SegmentStorage(tmp_path / "store", create=False)
        assert reopened.open_report["orphans_removed"] == 2
        assert not orphan.exists()
        assert reopened.count() == 5
        reopened.close()

    def test_crash_between_segment_and_manifest_loses_nothing(
            self, tmp_path):
        engine = SegmentStorage(tmp_path / "store", flush_events=100)
        engine.append(DOCS, session="s")

        def boom(stage):
            raise RuntimeError("injected")

        engine._crash_hook = boom
        with pytest.raises(RuntimeError):
            engine.flush()
        engine.close()

        reopened = SegmentStorage(tmp_path / "store", create=False)
        assert reopened.open_report["orphans_removed"] == 1
        assert reopened.open_report["wal_docs_recovered"] == len(DOCS)
        assert dumps(reopened.all_docs()) == dumps(sort_docs(DOCS))
        reopened.close()

    def test_mid_compaction_crash_leaves_old_view(self, tmp_path):
        engine = SegmentStorage(tmp_path / "store", flush_events=3)
        docs = fill(engine, 12)

        def boom(stage):
            if stage == "compact":
                raise RuntimeError("injected")

        engine._crash_hook = boom
        with pytest.raises(RuntimeError):
            engine.compact(small_rows=100)
        engine.close()

        reopened = SegmentStorage(tmp_path / "store", create=False)
        assert dumps(reopened.all_docs()) == dumps(sort_docs(docs))
        reopened.compact(small_rows=100)
        assert dumps(reopened.all_docs()) == dumps(sort_docs(docs))
        reopened.close()

    def test_crash_after_manifest_before_wal_reset_no_duplicates(
            self, tmp_path):
        engine = SegmentStorage(tmp_path / "store", flush_events=100)
        engine.append(DOCS[:3], session="s")
        engine.append(DOCS[3:], session="s")

        def boom(stage):
            if stage == "flush-published":
                raise RuntimeError("injected")

        engine._crash_hook = boom
        with pytest.raises(RuntimeError):
            engine.flush()                 # manifest published, WAL intact
        engine.close()

        reopened = SegmentStorage(tmp_path / "store", create=False)
        assert reopened.open_report["wal_docs_skipped_sealed"] == len(DOCS)
        assert reopened.open_report["wal_docs_recovered"] == 0
        assert dumps(reopened.all_docs()) == dumps(sort_docs(DOCS))
        # New appends must not reuse sealed record ids.
        reopened.append(DOCS[:1], session="s")
        reopened.close()
        again = SegmentStorage(tmp_path / "store", create=False)
        assert again.count() == len(DOCS) + 1
        again.close()

    def test_damaged_segment_quarantined_not_unlinked(self, tmp_path):
        engine = SegmentStorage(tmp_path / "store", flush_events=5)
        fill(engine, 15)                  # 3 segments of 5
        engine.close()
        victim = sorted((tmp_path / "store").glob("*.dseg"))[1]
        blob = victim.read_bytes()
        victim.write_bytes(blob[:-7])

        reopened = SegmentStorage(tmp_path / "store", create=False)
        assert reopened.open_report["segments_dropped"] == 1
        entry = reopened.open_report["dropped"][0]
        assert entry["quarantined"] == victim.name + ".damaged"
        quarantined = victim.with_name(victim.name + ".damaged")
        assert quarantined.read_bytes() == blob[:-7]
        assert not victim.exists()
        reopened.close()

        # The quarantined file survives later opens (no orphan sweep).
        again = SegmentStorage(tmp_path / "store", create=False)
        assert quarantined.exists()
        assert again.open_report["orphans_removed"] == 0
        again.close()

    def test_read_only_open_changes_nothing_on_disk(self, tmp_path):
        engine = SegmentStorage(tmp_path / "store", flush_events=5)
        fill(engine, 15)
        engine.append(DOCS[:2], session="s")
        engine.close()
        root = tmp_path / "store"
        victim = sorted(root.glob("*.dseg"))[0]
        victim.write_bytes(victim.read_bytes()[:-7])
        (root / "seg-000099.dseg").write_bytes(b"orphan")
        wal = root / WAL_NAME
        wal.write_bytes(wal.read_bytes() + b"torn-tail")
        before = {p.name: p.read_bytes() for p in root.iterdir()}

        inspector = SegmentStorage(root, create=False, read_only=True)
        assert inspector.open_report["segments_dropped"] == 1
        assert "quarantined" not in inspector.open_report["dropped"][0]
        assert inspector.open_report["orphans_removed"] == 0
        assert inspector.open_report["wal_docs_recovered"] == 2
        assert inspector.count() == 12    # 2 surviving segments + buffer
        with pytest.raises(SegmentError):
            inspector.append(DOCS[:1], session="s")
        with pytest.raises(SegmentError):
            inspector.import_batch(DocBatch(DOCS), session="s")
        with pytest.raises(SegmentError):
            inspector.flush()
        with pytest.raises(SegmentError):
            inspector.compact()
        inspector.close()
        after = {p.name: p.read_bytes() for p in root.iterdir()}
        assert after == before            # not one byte moved

    def test_load_into_stamps_copies_not_cached_docs(self, tmp_path):
        engine = SegmentStorage(tmp_path / "store", flush_events=3)
        fill(engine, 4)                   # one sealed segment + a tail
        engine.append(DOCS[:1], session="s")
        store = DocumentStore()
        engine.load_into(store, rename_to="stamped")
        # The engine's own documents must be exactly what was stored —
        # no injected "session" field in segment caches or the buffer.
        assert all("session" not in d for d in engine.all_docs())
        loaded = [s for _, s in store.scan("dio_trace", {"match_all": {}})]
        assert all(d["session"] == "stamped" for d in loaded)
        engine.close()

    def test_scan_prunes_but_matches_predicate_scan(self, tmp_path):
        engine = SegmentStorage(tmp_path / "store", flush_events=4)
        fill(engine, 40)                  # 10 segments, times 0..390
        window = {"range": {"time": {"gte": 100, "lt": 140}}}
        result = engine.scan(window)
        predicate = compile_query(window)
        expected = [d for d in engine.all_docs() if predicate(d)]
        assert sorted(dumps(result)) == sorted(dumps(expected))
        assert engine.scan_pruned_total > 0
        engine.close()

    def test_load_into_matches_import_session(self, tmp_path):
        store = DocumentStore()
        for doc in sort_docs(DOCS):
            store.index_doc("dio_trace", dict(doc, session="orig"))

        seg_root = tmp_path / "segstore"
        save_session(store, "orig", seg_root, flush_events=2)
        jsonl = tmp_path / "orig.jsonl"
        export_session(store, "orig", jsonl)

        via_seg, via_jsonl = DocumentStore(), DocumentStore()
        assert load_session(via_seg, seg_root, rename_to="x") == "x"
        import_session(via_jsonl, jsonl, rename_to="x")
        a = [s for _, s in via_seg.scan("dio_trace", {"match_all": {}})]
        b = [s for _, s in via_jsonl.scan("dio_trace", {"match_all": {}})]
        assert dumps(a) == dumps(b)

    def test_storage_mode_autodetect(self, tmp_path):
        """``load_session`` tells a segment store from an export by
        what is on disk; ``save_session`` writes only the former."""
        store = DocumentStore()
        store.index_doc("dio_trace", {"time": 1, "session": "s"})
        seg_root = tmp_path / "segstore"
        save_session(store, "s", seg_root)          # segments by default
        assert (seg_root / MANIFEST_NAME).exists()
        jsonl = tmp_path / "s.jsonl"
        export_session(store, "s", jsonl)
        for saved in (seg_root, jsonl):
            loaded = DocumentStore()
            assert load_session(loaded, saved) == "s"
            assert loaded.count("dio_trace") == 1
        with pytest.raises(SessionError):
            # a directory, but no segment store
            load_session(DocumentStore(), tmp_path)
        # The layout argument survives for positional callers and
        # accepts exactly one value; the export has its own function.
        save_session(store, "s", tmp_path / "again", "dio_trace", "segments")
        with pytest.raises(SessionError, match="export_session"):
            save_session(store, "s", tmp_path / "s2.jsonl", "dio_trace",
                         "jsonl")
        assert not (tmp_path / "s2.jsonl").exists()

    def test_saving_twice_into_one_store_is_refused(self, tmp_path):
        store = DocumentStore()
        store.bulk("dio_trace", [{"time": i, "session": "a"}
                                 for i in range(10)])
        seg_root = tmp_path / "segstore"
        save_session(store, "a", seg_root, flush_events=4)
        before = {p.name: p.read_bytes() for p in seg_root.iterdir()}
        with pytest.raises(SessionError, match=str(seg_root)):
            save_session(store, "a", seg_root, flush_events=4)
        assert {p.name: p.read_bytes() for p in seg_root.iterdir()} == before
        loaded = DocumentStore()
        assert load_session(loaded, seg_root) == "a"
        assert loaded.count("dio_trace") == 10

    def test_saving_another_session_into_a_store_is_refused(self, tmp_path):
        store = DocumentStore()
        store.bulk("dio_trace", [{"time": i, "session": "a"}
                                 for i in range(10)])
        store.bulk("dio_trace", [{"time": i, "session": "b"}
                                 for i in range(5)])
        seg_root = tmp_path / "segstore"
        save_session(store, "a", seg_root)
        with pytest.raises(SessionError, match="already holds"):
            save_session(store, "b", seg_root)
        loaded = DocumentStore()
        assert load_session(loaded, seg_root) == "a"
        assert loaded.count("dio_trace") == 10
        save_session(store, "b", tmp_path / "b")
        assert load_session(loaded, tmp_path / "b") == "b"
        assert loaded.count("dio_trace", {"term": {"session": "b"}}) == 5

    def test_telemetry_gauges_track_state(self, tmp_path):
        from repro.telemetry.registry import MetricsRegistry
        registry = MetricsRegistry()
        engine = SegmentStorage(tmp_path / "store", flush_events=4)
        engine.bind_telemetry(registry)
        fill(engine, 8)
        engine.append(DOCS[:1], session="s")
        sample = {f.name: f for f in registry.collect()}
        assert "dio_segment_files" in sample
        assert "dio_segment_wal_pending_docs" in sample
        engine.close()


# ---------------------------------------------------------------------------
# Planner constraint extraction (what zone pruning consumes)


class TestPruneConstraints:
    def test_extracts_conjunctive_constraints(self):
        query = {"bool": {"must": [
            {"term": {"syscall": "read"}},
            {"range": {"time": {"gte": 5, "lt": 10}}},
        ], "filter": [{"terms": {"ret": [0, 1]}}]}}
        got = prune_constraints(query)
        assert ("syscall", "eq", "read") in got
        assert ("time", "range", {"gte": 5, "lt": 10}) in got
        assert ("ret", "in", [0, 1]) in got

    def test_disjunction_yields_nothing(self):
        assert prune_constraints(
            {"bool": {"should": [{"term": {"a": 1}}]}}) == []
        assert prune_constraints({"match_all": {}}) == []


# ---------------------------------------------------------------------------
# The tracer's local mirror


def test_tracer_persists_acknowledged_batches(tmp_path):
    from repro.kernel import O_CREAT, O_WRONLY, Kernel
    from repro.sim import Environment
    from repro.tracer import DIOTracer, TracerConfig

    env = Environment()
    kernel = Kernel(env, ncpus=1)
    store = DocumentStore()
    tracer = DIOTracer(env, kernel, store,
                       TracerConfig(session_name="persisted",
                                    storage_dir=str(tmp_path / "store")))
    task = kernel.spawn_process("app").threads[0]
    tracer.attach()

    def main():
        fd = yield from kernel.syscall(task, "open", path="/f",
                                       flags=O_CREAT | O_WRONLY)
        for _ in range(6):
            yield from kernel.syscall(task, "write", fd=fd, data=b"x" * 64)
        yield from kernel.syscall(task, "close", fd=fd)
        yield from tracer.shutdown()

    env.run(until=env.process(main()))
    shipped = store.count("dio_trace")
    assert shipped > 0

    engine = SegmentStorage(tmp_path / "store", create=False)
    assert engine.count() == shipped
    assert engine.session() == "persisted"
    engine.close()


def test_tracer_config_rejects_the_retired_storage_mode():
    """No second engine behind a knob: the field is gone, and asking
    for it fails by name."""
    from repro.tracer import TracerConfig

    with pytest.raises(TypeError, match="storage_mode"):
        TracerConfig(storage_dir="/tmp/x", storage_mode="jsonl")
    assert TracerConfig(storage_dir="/tmp/x").storage_dir == "/tmp/x"


# ---------------------------------------------------------------------------
# Adversarial round-trip vs. the JSON-lines oracle (Hypothesis)

scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.floats(allow_nan=False),
    st.text(max_size=12),
)
json_value = st.recursive(
    scalar,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)
adversarial_doc = st.dictionaries(
    st.sampled_from(["time", "syscall", "ret", "tid", "path", "étrange"]),
    json_value, max_size=6)
timed_doc = adversarial_doc.map(
    lambda d: dict(d, time=d.get("time")) if "time" in d else d)


class TestRoundTripOracle:
    @given(docs=st.lists(adversarial_doc, max_size=30),
           flush=st.integers(min_value=1, max_value=7))
    @settings(max_examples=60, deadline=None)
    def test_segments_match_jsonl_oracle(self, docs, flush, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("seg")
        engine = SegmentStorage(tmp / "store", flush_events=flush)
        engine.import_batch(DocBatch([dict(d) for d in docs]),
                            session="hyp")
        loaded = engine.all_docs()
        engine.close()
        # The oracle: JSON round trip (what a .jsonl export would keep)
        # then the export's stable time sort.
        oracle = sort_docs([json.loads(json.dumps(d)) for d in docs])
        assert dumps(loaded) == dumps(oracle)
