"""One tear/damage property for every ``len | crc32 | payload`` log.

The storage WAL, the spill image, the shard recovery image and the DST
store journal are the same frame codec (:mod:`repro.backend.wal`)
behind four magics, so what a cut or a flipped bit may do to them is
stated — and executed — once.  Each log is driven through its
production writer and reader; the frame boundaries the property judges
against come from the writer alone (an append-only log's image after
``i`` records is a prefix of its image after ``i + 1``), never from
the reader under test.

Log-specific behaviour keeps its own tests: spill ``seq``
de-duplication in ``test_crash_recovery.py``, WAL open/truncate/reset
in ``test_segments.py``, restore bookkeeping in ``test_router.py``.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.backend.router import SHARD_IMAGE_NAME, ShardedDocumentStore
from repro.backend.store import DocumentStore
from repro.backend.wal import WAL_MAGIC, encode_record, recover_bytes
from repro.dst.crash import CrashingStore
from repro.tracer.spill import SpillWAL

INDEX = "idx"
MATCH_ALL = {"match_all": {}}


def _copy(docs):
    return json.loads(json.dumps(docs))


class WALLog:
    """``wal.bin``: one single-document batch per record."""

    def image(self, docs, tmp):
        return WAL_MAGIC + b"".join(
            encode_record("s", [doc], i + 1) for i, doc in enumerate(docs))

    def recover(self, blob, tmp):
        entries, report = recover_bytes(blob)
        assert [rec_id for rec_id, _, _ in entries] == \
            list(range(1, len(entries) + 1))
        return [doc for _, _, batch in entries for doc in batch], report


class SpillLog:
    """``SpillWAL.to_bytes`` / ``recover``: one segment per document."""

    def image(self, docs, tmp):
        wal = SpillWAL()
        for at, doc in enumerate(docs):
            wal.append([doc], now_ns=at)
        return wal.to_bytes()

    def recover(self, blob, tmp):
        wal, report = SpillWAL.recover(blob)
        assert report["duplicates_dropped"] == 0
        assert [s.seq for s in wal._segments] == \
            list(range(len(wal._segments)))
        assert wal._next_seq == len(wal._segments)
        return [doc for s in wal._segments for doc in s.docs], report


class JournalLog:
    """``CrashingStore`` journal: one bulk per document."""

    def image(self, docs, tmp):
        crashing = CrashingStore(DocumentStore(), [])
        for doc in _copy(docs):
            crashing.bulk(INDEX, [doc])
        return crashing.journal_bytes()

    def recover(self, blob, tmp):
        rebuilt = CrashingStore(DocumentStore(), [])
        report = rebuilt._rebuild_from_wal(blob)
        if INDEX not in rebuilt.inner.index_names():
            return [], report
        return [s for _, s in rebuilt.inner.scan(INDEX, MATCH_ALL)], report


class ShardImageLog:
    """``save_shards`` / ``restore_shard`` on a one-shard router."""

    def image(self, docs, tmp):
        store = ShardedDocumentStore(shard_count=1)
        store.ensure_index(INDEX)
        store.bulk(INDEX, _copy(docs))
        root = tmp / "saved"
        store.save_shards(root)
        return (root / "shard-00" / SHARD_IMAGE_NAME).read_bytes()

    def recover(self, blob, tmp):
        root = tmp / "torn"
        (root / "shard-00").mkdir(parents=True, exist_ok=True)
        (root / "shard-00" / SHARD_IMAGE_NAME).write_bytes(blob)
        store = ShardedDocumentStore(shard_count=1)
        store.ensure_index(INDEX)
        restored = store.restore_shard(0, root)
        docs = store.scan(INDEX, MATCH_ALL)
        assert restored == len(docs)
        # Ids and ranks are the ones the writer assigned: 1.., 0..
        assert [doc_id for doc_id, _ in docs] == \
            [str(i + 1) for i in range(len(docs))]
        return [source for _, source in docs], store.shard_restore_report


LOGS = {"wal": WALLog(), "spill": SpillLog(), "journal": JournalLog(),
        "shard-image": ShardImageLog()}

scalar = st.one_of(st.none(), st.booleans(), st.text(max_size=8),
                   st.integers(min_value=-(2 ** 40), max_value=2 ** 40))
document = st.dictionaries(
    st.sampled_from(["time", "syscall", "pid", "path", "étrange"]),
    st.one_of(scalar, st.lists(scalar, max_size=2)), max_size=4)


@pytest.mark.parametrize("name", sorted(LOGS))
@given(docs=st.lists(document, max_size=5), data=st.data())
@settings(max_examples=40, deadline=None)
def test_recovery_is_exactly_the_intact_frame_prefix(name, docs, data,
                                                     tmp_path_factory):
    log = LOGS[name]
    tmp = tmp_path_factory.mktemp(name)
    image = log.image(docs, tmp)
    # ends[i]: where record i's frame ends; ends[0] is the bare magic.
    ends = [len(log.image(docs[:i], tmp)) for i in range(len(docs))]
    ends.append(len(image))
    assert image[:ends[0]] == log.image([], tmp)

    recovered, report = log.recover(image, tmp)
    assert recovered == docs
    assert report["header_ok"] and report["torn_bytes_dropped"] == 0

    # Any cut: exactly the records whose frames lie wholly inside it.
    cut = data.draw(st.integers(min_value=0, max_value=len(image)),
                    label="cut")
    recovered, report = log.recover(image[:cut], tmp)
    if cut < ends[0]:
        assert recovered == [] and not report["header_ok"]
        assert report["torn_bytes_dropped"] == cut
    else:
        complete = sum(1 for end in ends[1:] if end <= cut)
        assert recovered == docs[:complete]
        assert report["records_recovered"] == complete
        assert report["torn_bytes_dropped"] == cut - ends[complete]

    # One flipped bit inside frame k: exactly the frames before k.
    if docs:
        pos = data.draw(st.integers(min_value=ends[0],
                                    max_value=len(image) - 1), label="pos")
        bit = data.draw(st.integers(min_value=0, max_value=7), label="bit")
        damaged = (image[:pos] + bytes([image[pos] ^ (1 << bit)])
                   + image[pos + 1:])
        k = sum(1 for end in ends[1:] if end <= pos)
        recovered, report = log.recover(damaged, tmp)
        assert recovered == docs[:k]
        assert report["records_recovered"] == k
        assert report["torn_bytes_dropped"] == len(image) - ends[k]
