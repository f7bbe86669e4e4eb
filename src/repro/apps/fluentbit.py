"""A simulation of Fluent Bit's tail input plugin (§III-B).

Fluent Bit tails log files and forwards new content.  To avoid
re-forwarding, it persists the number of bytes already processed in a
database keyed by **file name + inode number** (the real tool uses an
SQLite db).  Two versions are modelled:

- **v1.4.0** (:data:`FLUENTBIT_BUGGY`) — database entries are *not*
  deleted when the tailed file is removed.  When the filesystem
  recycles the inode number for a new file with the same name, the
  plugin resumes from the stale offset and silently loses data
  (issues #1875/#4895, the paper's Fig. 2a).
- **v2.0.5** (:data:`FLUENTBIT_FIXED`) — deletion of a tailed file
  removes its database entry, so the new file is read from offset 0
  (Fig. 2b).  The fixed version also runs its pipeline in a thread
  named ``flb-pipeline``, which is exactly how the two versions are
  told apart in DIO's visualizations.

The plugin detects file deletion promptly (inotify-style, via the
kernel's VFS watcher facility) and polls for new content on a fixed
interval, matching the event timings visible in the paper's figure.
"""

from __future__ import annotations

from typing import Optional

from repro.kernel import Kernel, O_RDONLY, SEEK_SET
from repro.kernel.errno import KernelError
from repro.kernel.process import KernelProcess, Task
from repro.sim import Interrupt

#: Version identifiers.
FLUENTBIT_BUGGY = "1.4.0"
FLUENTBIT_FIXED = "2.0.5"

#: Tail read chunk size (Fluent Bit's default buffer is 32 KiB).
CHUNK_SIZE = 32768


class OffsetDatabase:
    """The persisted file-position database, keyed by (name, inode)."""

    def __init__(self) -> None:
        self._entries: dict[tuple[str, int], int] = {}

    def get(self, name: str, ino: int) -> int:
        """Bytes already processed for this (name, inode), default 0."""
        return self._entries.get((name, ino), 0)

    def set(self, name: str, ino: int, offset: int) -> None:
        """Record the processed position."""
        self._entries[(name, ino)] = offset

    def delete_name(self, name: str) -> int:
        """Remove all entries for ``name``; returns how many."""
        stale = [key for key in self._entries if key[0] == name]
        for key in stale:
            del self._entries[key]
        return len(stale)

    def __len__(self) -> int:
        return len(self._entries)


class FluentBit:
    """The tail-input plugin as a simulation process."""

    def __init__(self, kernel: Kernel, watch_path: str,
                 version: str = FLUENTBIT_BUGGY,
                 poll_interval_ns: int = 5_000_000_000,
                 delete_handling_ns: int = 1_000_000,
                 process: Optional[KernelProcess] = None):
        """``process`` lets several tails share one fluent-bit process
        (the directory/glob mode); by default a fresh one is spawned."""
        if version not in (FLUENTBIT_BUGGY, FLUENTBIT_FIXED):
            raise ValueError(f"unknown Fluent Bit version {version!r}")
        self.kernel = kernel
        self.env = kernel.env
        self.watch_path = watch_path
        self.version = version
        self.poll_interval_ns = poll_interval_ns
        self.delete_handling_ns = delete_handling_ns

        shared = process is not None
        self.process = process or kernel.spawn_process("fluent-bit")
        if version == FLUENTBIT_FIXED:
            self.task: Task = kernel.spawn_thread(self.process,
                                                  comm="flb-pipeline")
        elif shared:
            self.task = kernel.spawn_thread(self.process, comm="fluent-bit")
        else:
            self.task = self.process.threads[0]

        self.db = OffsetDatabase()
        #: Log records successfully forwarded: (timestamp, bytes).
        self.delivered: list[tuple[int, bytes]] = []

        self._fd: Optional[int] = None
        self._ino: Optional[int] = None
        self._pos = 0
        self._deleted = False
        self._wakeup = None
        self._proc = None
        kernel.add_vfs_watcher(self._on_vfs_event)

    @property
    def delivered_bytes(self) -> int:
        """Total log payload bytes forwarded downstream."""
        return sum(len(chunk) for _, chunk in self.delivered)

    # ------------------------------------------------------------------
    # Lifecycle

    def start(self) -> None:
        """Launch the tail loop as a simulation process."""
        if self._proc is not None:
            raise RuntimeError("fluent-bit already started")
        self._proc = self.env.process(self._run())

    def stop(self) -> None:
        """Terminate the tail loop (idempotent)."""
        try:
            self.kernel.remove_vfs_watcher(self._on_vfs_event)
        except ValueError:
            pass  # already stopped
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("shutdown")

    # ------------------------------------------------------------------
    # Event handling

    def _on_vfs_event(self, op: str, path: str, inode) -> None:
        if op == "unlink" and path == self.watch_path:
            self._deleted = True
            if self._wakeup is not None and not self._wakeup.triggered:
                self._wakeup.succeed("deleted")

    def _run(self):
        env = self.env
        next_poll = env.now + self.poll_interval_ns
        while True:
            self._wakeup = env.event()
            delay = max(next_poll - env.now, 0)
            timer = env.timeout(delay)
            try:
                yield env.any_of([timer, self._wakeup])
            except Interrupt:
                break
            self._wakeup = None
            if self._deleted:
                self._deleted = False
                yield from self._handle_delete()
            if env.now >= next_poll:
                yield from self._poll_once()
                next_poll = env.now + self.poll_interval_ns

    def _handle_delete(self):
        """React to the tailed file being removed."""
        yield self.delete_handling_ns
        if self._fd is not None:
            yield from self.kernel.syscall(self.task, "close", fd=self._fd)
            self._fd = None
            self._ino = None
            self._pos = 0
        if self.version == FLUENTBIT_FIXED:
            # The fix: drop database entries for removed files so a
            # name/inode reuse starts from offset 0.
            self.db.delete_name(self.watch_path)

    def _poll_once(self):
        """Check the tailed file for new content and read it."""
        kernel, task = self.kernel, self.task
        statbuf: dict = {}
        ret = yield from kernel.syscall(task, "stat", path=self.watch_path,
                                        statbuf=statbuf)
        if ret < 0:
            return
        ino = statbuf["st_ino"]

        if self._fd is not None and ino != self._ino:
            # The file was replaced between polls (rotation).
            yield from kernel.syscall(task, "close", fd=self._fd)
            self._fd = None
            if self.version == FLUENTBIT_FIXED:
                self.db.delete_name(self.watch_path)

        just_opened = False
        if self._fd is None:
            fd = yield from kernel.syscall(task, "openat",
                                           path=self.watch_path,
                                           flags=O_RDONLY)
            if fd < 0:
                return
            self._fd = fd
            self._ino = ino
            just_opened = True
            # Resume from the persisted position for this name+inode.
            # With a stale database entry and a recycled inode this is
            # exactly where the v1.4.0 data loss happens.
            self._pos = self.db.get(self.watch_path, ino)
            if self._pos > 0:
                yield from kernel.syscall(task, "lseek", fd=fd,
                                          offset=self._pos, whence=SEEK_SET)

        if not just_opened and statbuf["st_size"] <= self._pos:
            return
        yield from self._read_new_content()

    def _read_new_content(self):
        """Read until EOF from the current position."""
        kernel, task = self.kernel, self.task
        while True:
            buf = bytearray(CHUNK_SIZE)
            n = yield from kernel.syscall(task, "read", fd=self._fd, buf=buf)
            if n <= 0:
                break
            payload = bytes(buf[:n])
            self._pos += n
            self.db.set(self.watch_path, self._ino, self._pos)
            self.delivered.append((self.env.now, payload))


class DirectoryTailer:
    """Tail every matching file in a directory (the plugin's glob mode).

    The production tail plugin watches path patterns like
    ``/var/log/*.log``; this class scans ``watch_dir`` on each refresh,
    spawning one :class:`FluentBit` tail per matching file.  All tails
    share one process (and, for the fixed version, one pipeline thread
    name) and one offset database semantics — each per-file tail keeps
    the version's bug/fix behaviour.
    """

    def __init__(self, kernel: Kernel, watch_dir: str,
                 suffix: str = ".log",
                 version: str = FLUENTBIT_BUGGY,
                 poll_interval_ns: int = 5_000_000_000):
        if version not in (FLUENTBIT_BUGGY, FLUENTBIT_FIXED):
            raise ValueError(f"unknown Fluent Bit version {version!r}")
        self.kernel = kernel
        self.env = kernel.env
        self.watch_dir = watch_dir.rstrip("/")
        self.suffix = suffix
        self.version = version
        self.poll_interval_ns = poll_interval_ns
        #: The shared fluent-bit process all per-file tails run in.
        self.process = kernel.spawn_process("fluent-bit")
        #: path -> the single-file tail handling it.
        self.tails: dict[str, FluentBit] = {}
        self._proc = None

    @property
    def delivered_bytes(self) -> int:
        """Total bytes forwarded across all tailed files."""
        return sum(tail.delivered_bytes for tail in self.tails.values())

    def delivered_for(self, path: str) -> int:
        """Bytes forwarded from one file."""
        tail = self.tails.get(path)
        return tail.delivered_bytes if tail else 0

    def start(self) -> None:
        """Launch the directory scanner."""
        if self._proc is not None:
            raise RuntimeError("directory tailer already started")
        self._proc = self.env.process(self._scan_loop())

    def stop(self) -> None:
        """Stop the scanner and every per-file tail."""
        for tail in self.tails.values():
            tail.stop()
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("shutdown")

    def _scan_loop(self):
        from repro.sim import Interrupt

        while True:
            try:
                yield self.poll_interval_ns
            except Interrupt:
                break
            self._discover_new_files()

    def _discover_new_files(self) -> None:
        try:
            names = self.kernel.vfs.listdir(self.watch_dir)
        except KernelError:
            return
        for name in names:
            if not name.endswith(self.suffix):
                continue
            path = f"{self.watch_dir}/{name}"
            if path in self.tails:
                continue
            tail = FluentBit(self.kernel, path, version=self.version,
                             poll_interval_ns=self.poll_interval_ns,
                             process=self.process)
            tail.start()
            self.tails[path] = tail
