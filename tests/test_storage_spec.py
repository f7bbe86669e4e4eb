"""docs/STORAGE.md is executable: parse a real segment from the spec.

These tests read the offset tables out of the markdown document and
use *only what the document says* — offsets, sizes, ``struct`` format
strings, and magic values — to decode a segment file, a WAL, and an
image of every other record log that the implementation wrote.  If the
code changes the byte layout without updating the spec (or vice
versa), the parse here diverges and fails.
"""

import json
import pathlib
import re
import struct
import zlib

import pytest

from repro.backend.lanes import DocBatch
from repro.backend.segments import (READABLE_VERSIONS, SEGMENT_VERSION,
                                    Segment, SegmentError, SegmentStorage)

DOC = pathlib.Path(__file__).resolve().parents[1] / "docs" / "STORAGE.md"


def _section(heading: str) -> str:
    """The markdown body between ``heading`` and the next heading."""
    text = DOC.read_text(encoding="utf-8")
    pattern = rf"^#+ {re.escape(heading)}\n(.*?)(?=^#+ |\Z)"
    match = re.search(pattern, text, re.MULTILINE | re.DOTALL)
    assert match, f"STORAGE.md lost its '{heading}' section"
    return match.group(1)


def _offset_table(heading: str) -> list[dict]:
    """Rows of the first ``offset|size|type|field|value`` table."""
    rows = []
    for line in _section(heading).splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 5 or cells[0] in ("offset", ":---", "---"):
            continue
        if not re.fullmatch(r"-?\d+", cells[0]):
            continue
        rows.append({
            "offset": int(cells[0]),
            "size": None if not cells[1].isdigit() else int(cells[1]),
            "type": cells[2].strip("`"),
            "field": cells[3],
            "value": cells[4],
        })
    assert rows, f"no offset table under '{heading}'"
    return rows


def _unpack(rows: list[dict], blob: bytes, base: int = 0) -> dict:
    """Decode fixed-size fields exactly as the table describes them."""
    out = {}
    for row in rows:
        if row["size"] is None:
            continue                      # variable-length tail
        start = base + row["offset"]
        fmt = row["type"]
        (out[row["field"]],) = struct.unpack_from(fmt, blob, start)
        assert struct.calcsize(fmt) == row["size"], \
            f"{row['field']}: table size disagrees with its struct type"
    return out


def _literal(rows: list[dict], field: str) -> str:
    """The backticked literal in a row's value column."""
    for row in rows:
        if row["field"] == field:
            match = re.search(r"`([^`]+)`", row["value"])
            assert match, f"{field} row has no literal value"
            return match.group(1)
    raise AssertionError(f"no row for field {field}")


SPEC_DOCS = [
    {"time": 0, "syscall": "write", "ret": 0, "path": "/f0",
     "args": {"fd": 3, "buf": 512}, "duration_ns": 3, "time_exit": 3,
     "file_tag": "7 1 1", "file_path": "/f0"},
    {"time": 5, "syscall": "write", "ret": 1, "path": "/f1",
     "args": {"buf": None, "fd": 4, "iov": {"base": 1 << 70, "len": [8]}},
     "duration_ns": 1, "time_exit": 6, "file_tag": "7 2 1",
     "file_path": "/f1"},
    {"time": 10, "syscall": "write", "ret": 2, "path": "/f0", "args": {},
     "duration_ns": 2, "time_exit": 12},
    {"time": 15, "syscall": "write", "ret": 3, "path": "/f1",
     "args": {"fd": 5, "buf": 4096}, "duration_ns": 4, "time_exit": 19,
     "file_tag": "7 2 1", "file_path": "/f1"},
]


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("spec") / "store"
    engine = SegmentStorage(root, flush_events=4)
    engine.import_batch(DocBatch(SPEC_DOCS), session="spec-session")
    engine.append([{"time": 100, "syscall": "close", "ret": 0}],
                  session="spec-session")   # leaves one WAL record
    engine.close()
    return root


class TestSegmentFromSpec:
    def test_header_decodes_per_table(self, store_dir):
        rows = _offset_table("Segment header")
        blob = next(store_dir.glob("*.dseg")).read_bytes()
        header = _unpack(rows, blob)
        assert header["magic"] == _literal(rows, "magic").encode("ascii")
        assert header["version"] == int(_literal(rows, "version"))
        assert header["rows"] == 4

    def test_version_rule_per_table(self, store_dir, tmp_path):
        """Readers open exactly the versions the table says they
        accept; writers write the one it says they always write."""
        rule = {}
        for line in _section("Segment header").splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) == 4 and cells[0].isdigit():
                rule[int(cells[0])] = {"readers": cells[1],
                                       "writers": cells[2]}
        accepted = {v for v, row in rule.items() if row["readers"] == "accept"}
        written = [v for v, row in rule.items()
                   if row["writers"].startswith("always")]
        assert accepted == set(READABLE_VERSIONS)
        assert written == [SEGMENT_VERSION]
        rows = _offset_table("Segment header")
        source = next(store_dir.glob("*.dseg"))
        blob = source.read_bytes()
        assert _unpack(rows, blob)["version"] == SEGMENT_VERSION
        (at,) = [row["offset"] for row in rows if row["field"] == "version"]
        for version in range(0, max(accepted) + 3):
            path = tmp_path / f"v{version}.dseg"
            path.write_bytes(blob[:at] + struct.pack("<H", version)
                             + blob[at + 2:])
            if version in accepted:
                assert Segment(path).docs() == Segment(source).docs()
            else:
                with pytest.raises(SegmentError, match="unsupported version"):
                    Segment(path)

    def test_trailer_and_footer_checksum_per_table(self, store_dir):
        rows = _offset_table("Segment trailer")
        blob = next(store_dir.glob("*.dseg")).read_bytes()
        # Spec: offsets in this table are from the end of the file.
        trailer = _unpack(rows, blob, base=len(blob))
        assert trailer["magic"] == _literal(rows, "magic").encode("ascii")
        footer = blob[trailer["footer_offset"]:
                      trailer["footer_offset"] + trailer["footer_len"]]
        assert zlib.crc32(footer) == trailer["footer_crc32"]
        assert (trailer["footer_offset"] + trailer["footer_len"]
                + sum(r["size"] for r in rows)) == len(blob)

    def test_whole_segment_parses_from_the_prose(self, store_dir):
        """Walk footer -> blocks using only the spec's structures."""
        blob = next(store_dir.glob("*.dseg")).read_bytes()
        trailer = _unpack(_offset_table("Segment trailer"), blob,
                          base=len(blob))
        n_rows = _unpack(_offset_table("Segment header"), blob)["rows"]
        footer = blob[trailer["footer_offset"]:
                      trailer["footer_offset"] + trailer["footer_len"]]

        # Footer walk, shapes straight from the spec's footer section.
        (n_fields,) = struct.unpack_from("<I", footer, 0)
        pos = 4
        decoded = {}
        for _ in range(n_fields):
            (name_len,) = struct.unpack_from("<H", footer, pos)
            pos += 2
            name = footer[pos:pos + name_len].decode("utf-8")
            pos += name_len
            block_off, block_len, block_crc = struct.unpack_from(
                "<QQI", footer, pos)
            pos += 20
            zone_tag = footer[pos]
            pos += 1
            if zone_tag:
                for _bound in range(2):
                    (blen,) = struct.unpack_from("<I", footer, pos)
                    pos += 4 + blen
            block = blob[block_off:block_off + block_len]
            assert zlib.crc32(block) == block_crc
            decoded[name] = _block_per_spec(block, n_rows)
        # Kinds 6 and 7 read the fields the spec's table names.
        reads = _rebuilt_reads()
        for name, lane in decoded.items():
            if type(lane) is tuple:
                kind, payload = lane
                decoded[name] = _rebuilt_per_spec(
                    kind, payload, [decoded[field] for field in reads[kind]])

        # The spec-driven parse reproduces the documents the engine
        # itself reads back.
        assert decoded["time"] == [0, 5, 10, 15]
        assert decoded["ret"] == [0, 1, 2, 3]
        assert decoded["syscall"] == ["write"] * 4
        assert decoded["path"] == ["/f0", "/f1", "/f0", "/f1"]
        assert decoded["time_exit"] == [3, 6, 12, 19]
        assert decoded["file_path"] == ["/f0", "/f1", None, "/f1"]
        # ... through the kinds that store no row.
        kinds = {name: kind for name, (kind, _) in
                 Segment(next(store_dir.glob("*.dseg"))).kinds().items()}
        assert (kinds["syscall"], kinds["time_exit"], kinds["file_path"]) \
            == (5, 6, 7)
        # ``args`` is a kind-4 block: three shapes (one of them the
        # empty object), an explicit null, an object inside an object.
        assert decoded["args"] == [doc["args"] for doc in SPEC_DOCS]
        assert [list(args) for args in decoded["args"]] == [
            list(doc["args"]) for doc in SPEC_DOCS]

        # Footer tail: session + seq + created, as specified.
        (session_len,) = struct.unpack_from("<H", footer, pos)
        pos += 2
        assert footer[pos:pos + session_len] == b"spec-session"


def _field_types(heading: str) -> dict[str, str]:
    """``field -> struct type`` from a ``field|type|meaning`` table."""
    types = {}
    for line in _section(heading).splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and re.fullmatch(r"`<\w+`", cells[1]):
            types[cells[0]] = cells[1].strip("`")
    assert types, f"no field/type table under '{heading}'"
    return types


def _block_per_spec(block: bytes, n_rows: int) -> list:
    """One value per row of a field block, decoded as the spec's block
    head, payload and value-tag sections say — key lanes of a kind-4
    block by this same function."""
    head_rows = _offset_table("Block head")
    head = _unpack(head_rows, block)
    payload = block[sum(r["size"] for r in head_rows):]
    if head["flags"] & 1:
        payload = zlib.decompress(payload)
    assert len(payload) == head["raw_len"]
    if head["kind"] == 5:
        types = _field_types("Payload, kind 5 (constant)")
        (tag,) = struct.unpack_from(types["tag"], payload, 0)
        at = struct.calcsize(types["tag"])
        (length,) = struct.unpack_from(types["len"], payload, at)
        at += struct.calcsize(types["len"])
        assert at + length == len(payload) and tag != 5
        return [_decode_tag(tag, payload[at:])] * n_rows
    if head["kind"] in _rebuilt_reads():
        return head["kind"], payload      # read with the fields it reads
    if head["kind"] in (2, 3):
        present = list(payload[:n_rows])
        fmt = "q" if head["kind"] == 2 else "d"
        lane = struct.unpack(f"<{n_rows}{fmt}", payload[n_rows:])
        return [v if p else None for p, v in zip(present, lane)]
    if head["kind"] == 1:
        (n_table,) = struct.unpack_from("<I", payload, 0)
        tpos = 4
        table = []
        for _ in range(n_table):
            tag = payload[tpos]
            (vlen,) = struct.unpack_from("<I", payload, tpos + 1)
            raw = payload[tpos + 5:tpos + 5 + vlen]
            table.append(_decode_tag(tag, raw))
            tpos += 5 + vlen
        codes = struct.unpack(f"<{n_rows}i", payload[tpos:])
        return [table[c] if c >= 0 else None for c in codes]
    assert head["kind"] == 4, "a kind the spec's block-head table lacks"
    types = _field_types("Payload, kind 4 (struct)")
    pos = 0

    def read(field: str) -> int:
        nonlocal pos
        (value,) = struct.unpack_from(types[field], payload, pos)
        pos += struct.calcsize(types[field])
        return value

    shapes = []
    for _ in range(read("n_shapes")):
        names = []
        for _ in range(read("n_keys")):
            length = read("name_len")
            names.append(payload[pos:pos + length].decode("utf-8"))
            pos += length
        shapes.append(names)
    codes = [read("code") for _ in range(n_rows)]
    lanes = []
    for code, names in enumerate(shapes):
        lanes.append({})
        for name in names:
            length = read("block_len")
            # "Where this document says rows for that block, read rows
            # whose code is this shape."
            lanes[code][name] = _block_per_spec(payload[pos:pos + length],
                                                codes.count(code))
            pos += length
    assert pos == len(payload)
    seen = [0] * len(shapes)
    values = []
    for code in codes:
        if code < 0:
            values.append(None)
            continue
        values.append({name: lanes[code][name][seen[code]]
                       for name in shapes[code]})
        seen[code] += 1
    return values


def _rebuilt_reads() -> dict[int, list[str]]:
    """``kind -> the fields it reads``, from the spec's table."""
    reads = {}
    for line in _section(
            "Payload, kinds 6 and 7 (rebuilt from other fields)").splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].isdigit():
            reads[int(cells[0])] = re.findall(r"`(\w+)`", cells[1])
    assert sorted(reads) == [6, 7]
    return reads


def _rebuilt_per_spec(kind: int, payload: bytes, lanes: list) -> list:
    """A kind-6 or kind-7 field over the lanes it reads."""
    if kind == 6:
        assert payload == b""
        time, duration = lanes
        return [t + d for t, d in zip(time, duration)]
    types = _field_types("Payload, kinds 6 and 7 (rebuilt from other fields)")
    pos = 0

    def read(field: str) -> int:
        nonlocal pos
        (value,) = struct.unpack_from(types[field], payload, pos)
        pos += struct.calcsize(types[field])
        return value

    (tags,) = lanes
    keys = []
    for tag in tags:
        if tag is not None and tag not in keys:
            keys.append(tag)
    table = {}
    assert read("n_tags") == len(keys)
    for key in keys:
        if read("has"):
            tag = read("tag")
            length = read("len")
            table[key] = _decode_tag(tag, payload[pos:pos + length])
            pos += length
    assert pos == len(payload)
    return [table.get(tag) for tag in tags]


def _decode_tag(tag: int, raw: bytes):
    """Value decoding exactly as the spec's value-tags table reads."""
    assert tag in {r["tag"] for r in _value_tag_rows()}
    if tag == 0:
        return None
    if tag == 1:
        return raw.decode("utf-8")
    if tag == 2:
        return int(raw.decode("ascii"))
    if tag == 3:
        return struct.unpack("<d", raw)[0]
    if tag == 4:
        return raw != b"\x00"
    if tag == 5:
        return json.loads(raw.decode("utf-8"))
    raise AssertionError(f"tag {tag} is not in the spec")


def _value_tag_rows() -> list[dict]:
    rows = []
    for line in _section("Value tags").splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].isdigit():
            rows.append({"tag": int(cells[0]), "field": cells[1],
                         "value": cells[2]})
    assert [r["tag"] for r in rows] == [0, 1, 2, 3, 4, 5]
    return rows


def _log_magic(log: str) -> bytes:
    """The magic the spec's ``Log magics`` table gives for ``log``."""
    for line in _section("Log magics").splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if cells[0] == log:
            return cells[1].strip("`").encode("ascii")
    raise AssertionError(f"STORAGE.md names no magic for the {log}")


def _records_per_tables(blob: bytes, log: str) -> list:
    """Decode a record log using only the magic and frame tables."""
    magic = _log_magic(log)
    assert blob[:len(magic)] == magic
    frame_rows = _offset_table("Record frame")
    fixed = sum(r["size"] for r in frame_rows if r["size"])
    pos = len(magic)
    records = []
    while pos < len(blob):
        frame = _unpack(frame_rows, blob, base=pos)
        payload = blob[pos + fixed:pos + fixed + frame["length"]]
        assert len(payload) == frame["length"]
        assert zlib.crc32(payload) == frame["crc32"]
        records.append(json.loads(payload.decode("utf-8")))
        pos += fixed + frame["length"]
    return records


class TestWALFromSpec:
    def test_wal_parses_per_tables(self, store_dir):
        blob = (store_dir / "wal.bin").read_bytes()
        header_rows = _offset_table("WAL header")
        assert (_literal(header_rows, "magic").encode("ascii")
                == _log_magic("storage WAL"))
        assert _records_per_tables(blob, "storage WAL") == [
            ["spec-session",
             [{"time": 100, "syscall": "close", "ret": 0}], 1]]

    def test_manifest_matches_spec_shape(self, store_dir):
        manifest = json.loads(
            (store_dir / "MANIFEST.json").read_text(encoding="utf-8"))
        assert manifest["format"] == "dio-segments-v1"
        assert isinstance(manifest["next_seq"], int)
        # wal_sealed: highest WAL record id covered by sealed segments
        # (0 here: the only flushes came via import_batch, no WAL hop).
        assert manifest["wal_sealed"] == 0
        for name in manifest["segments"]:
            assert re.fullmatch(r"seg-\d{6}\.dseg", name)
            assert (store_dir / name).exists()


class TestOtherLogsFromSpec:
    """The spill image, shard image and store journal are the same
    frame behind their own magic; payload shapes per the spec."""

    DOCS = [{"time": 5, "syscall": "open", "pid": 7, "path": "/журнал"},
            {"time": 9, "syscall": "close", "pid": 7}]

    def test_spill_image_parses_per_tables(self):
        from repro.tracer.spill import SpillWAL
        wal = SpillWAL()
        wal.append(self.DOCS[:1], now_ns=11)
        wal.append(self.DOCS, now_ns=22, reason="breaker-open")
        assert _records_per_tables(wal.to_bytes(), "spill image") == [
            [0, 11, "retries-exhausted", self.DOCS[:1]],
            [1, 22, "breaker-open", self.DOCS]]

    def test_shard_image_parses_per_tables(self, tmp_path):
        from repro.backend.router import ShardedDocumentStore
        store = ShardedDocumentStore(shard_count=2, shard_key="pid")
        store.bulk("dio_trace", [dict(d) for d in self.DOCS])
        store.save_shards(tmp_path)
        images = [_records_per_tables(
            (tmp_path / f"shard-{i:02d}" / "router.bin").read_bytes(),
            "shard image") for i in range(2)]
        # pid 7 routes both documents to one shard; the other image is
        # the bare magic.
        assert sorted(images, key=len) == [[], [
            ["dio_trace", "1", 0, self.DOCS[0]],
            ["dio_trace", "2", 1, self.DOCS[1]]]]

    def test_store_journal_parses_per_tables(self):
        from repro.backend.store import DocumentStore
        from repro.dst.crash import CrashingStore
        crashing = CrashingStore(DocumentStore(), [])
        crashing.bulk("idx", [dict(d) for d in self.DOCS])
        crashing.bulk("idx", [{"k": "v"}])
        assert _records_per_tables(
            crashing.journal_bytes(), "store journal") == [
                ["idx", self.DOCS], ["idx", [{"k": "v"}]]]
