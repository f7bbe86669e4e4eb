"""The ``app`` client program of the paper's §III-B.

Simulates the log-producing application that triggers Fluent Bit
issue #1875: it writes a log file, removes it, and later creates a new
file *with the same name* — which the filesystem gives the same inode
number.  The exact byte counts from the paper's Fig. 2 are the
defaults: 26 bytes in the first file, 16 in the second.
"""

from __future__ import annotations

from repro.kernel import Kernel, O_CREAT, O_TRUNC, O_WRONLY
from repro.kernel.process import Task

#: Fig. 2's first write: 26 bytes.
FIRST_PAYLOAD = b"2023-03-20 log line one...\n"[:26]
#: Fig. 2's second write: 16 bytes.
SECOND_PAYLOAD = b"new log line...\n"[:16]


class LogWriterApp:
    """Writes, deletes, and rewrites a log file on a schedule."""

    def __init__(self, kernel: Kernel, path: str = "/app.log",
                 write_delay_ns: int = 10_000_000_000,
                 unlink_delay_ns: int = 10_000_000_000):
        """``write_delay_ns`` separates phases (10 s in the paper)."""
        self.kernel = kernel
        self.env = kernel.env
        self.path = path
        self.write_delay_ns = write_delay_ns
        self.unlink_delay_ns = unlink_delay_ns
        self.process = kernel.spawn_process("app")
        self.task: Task = self.process.threads[0]

    def write_file(self, payload: bytes):
        """Process generator: create the file and write ``payload``."""
        kernel, task = self.kernel, self.task
        fd = yield from kernel.syscall(
            task, "openat", path=self.path,
            flags=O_CREAT | O_WRONLY | O_TRUNC)
        if fd < 0:
            raise RuntimeError(f"app could not create {self.path}: {fd}")
        yield from kernel.syscall(task, "write", fd=fd, data=payload)
        yield from kernel.syscall(task, "close", fd=fd)

    def remove_file(self):
        """Process generator: unlink the log file."""
        yield from self.kernel.syscall(self.task, "unlink", path=self.path)

    def run(self, first: bytes = FIRST_PAYLOAD,
            second: bytes = SECOND_PAYLOAD):
        """Process generator: the full Fig. 2 client scenario.

        write(26 B) → wait → unlink → wait → write(16 B).
        """
        yield from self.write_file(first)
        yield self.write_delay_ns
        yield from self.remove_file()
        yield self.unlink_delay_ns
        yield from self.write_file(second)
