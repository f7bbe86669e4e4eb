"""Kernel-context enrichment (paper §II-B).

The tracer augments each syscall record with context only visible
inside the kernel:

- **file type** — regular file, directory, socket, pipe, device, ...;
- **file offset** — the position a data syscall accessed, *even for
  syscalls that do not take an offset argument* (``read``/``write``),
  read from the open file description;
- **file tag** — ``"<dev> <ino> <first-access-timestamp>"``, uniquely
  identifying the file version being accessed.  Keyed by inode
  *generation* so a recycled inode number gets a fresh tag — the
  property that makes the Fluent Bit diagnosis (§III-B) work.
"""

from __future__ import annotations

from typing import Optional

from repro.ebpf.maps import BPFHashMap
from repro.kernel.tracepoints import SyscallContext

#: Extra in-kernel CPU charged when the enrichment path runs (ns).
ENRICHMENT_COST_NS = 400


class Enricher:
    """Builds the enrichment triple for a completed syscall."""

    def __init__(self, first_access_entries: int = 65536):
        #: (dev, ino, generation) -> the file tag, formatted at the
        #: file's first access.
        self._first_access = BPFHashMap(max_entries=first_access_entries,
                                        lru=True, name="dio_first_access")

    def file_tag(self, ctx: SyscallContext) -> Optional[str]:
        """The file tag for fd-handling syscalls, else ``None``."""
        inode = ctx.inode
        if inode is None or not ctx.fd_based:
            return None
        key = (inode.dev, inode.ino, inode.generation)
        tag = self._first_access.lookup(key)
        if tag is None:
            tag = f"{inode.dev} {inode.ino} {ctx.enter_ns}"
            self._first_access.update(key, tag)
        return tag

    def enrich(self, ctx: SyscallContext,
               fields: Optional[dict] = None) -> dict:
        """Add the enrichment fields ``ctx`` has to ``fields``.

        ``fields`` defaults to a fresh dict, so ``enrich(ctx)`` is the
        sparse enrichment on its own; the tracer passes the record it
        is building and gets the fields appended in place.  Absent
        context adds nothing: a file type only when the syscall touched
        a file, an offset only when the kernel exposed one (0 is an
        offset), a tag only for fd-handling syscalls.
        """
        if fields is None:
            fields = {}
        inode = ctx.inode
        if inode is None:
            return fields
        fields["file_type"] = inode.file_type.value
        if ctx.offset is not None:
            fields["offset"] = ctx.offset
        tag = self.file_tag(ctx)
        if tag is not None:
            fields["file_tag"] = tag
        return fields
