"""A block device with latency, bandwidth, and a bounded queue.

The cost model is deliberately simple — per-request base latency plus a
per-byte transfer time, with a fixed number of in-flight slots — because
that is all the paper's contention phenomenon needs: when several
threads issue I/O concurrently, requests queue, per-request service time
inflates, and foreground operations see tail-latency spikes (§III-C).
"""

from __future__ import annotations

from repro.sim import Environment, Resource


class BlockDeviceStats:
    """Counters describing the traffic a device has served."""

    __slots__ = ("reads", "writes", "bytes_read", "bytes_written",
                 "busy_ns", "max_queue_depth")

    def __init__(self) -> None:
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.busy_ns = 0
        self.max_queue_depth = 0

    def as_dict(self) -> dict:
        """Counters as a plain dict for reports."""
        return {
            "reads": self.reads,
            "writes": self.writes,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "busy_ns": self.busy_ns,
            "max_queue_depth": self.max_queue_depth,
        }


class BlockDevice:
    """A shared storage device; the contention point of the simulation."""

    def __init__(self, env: Environment, name: str = "nvme0n1",
                 base_latency_ns: int = 20_000,
                 bandwidth_bytes_per_sec: int = 500_000_000,
                 queue_depth: int = 2,
                 max_request_bytes: int = 512 * 1024):
        """Create a device.

        ``queue_depth`` bounds concurrently serviced requests; further
        requests wait FIFO.  Requests larger than ``max_request_bytes``
        are split, so one huge compaction write cannot monopolise the
        device for its entire duration.
        """
        if base_latency_ns < 0 or bandwidth_bytes_per_sec <= 0:
            raise ValueError("invalid device parameters")
        self.env = env
        self.name = name
        self.base_latency_ns = base_latency_ns
        self.ns_per_byte = 1e9 / bandwidth_bytes_per_sec
        self.max_request_bytes = max_request_bytes
        self._slots = Resource(env, capacity=queue_depth)
        self.stats = BlockDeviceStats()

    @property
    def queue_depth(self) -> int:
        """Number of requests currently waiting for a device slot."""
        return self._slots.queued

    @property
    def in_flight(self) -> int:
        """Number of requests currently being serviced."""
        return self._slots.in_use

    def service_time_ns(self, nbytes: int) -> int:
        """Uncontended service time for a single request of ``nbytes``."""
        return self.base_latency_ns + int(nbytes * self.ns_per_byte)

    def read(self, nbytes: int):
        """Process generator: read ``nbytes`` from the device."""
        yield from self._transfer(nbytes, is_write=False)

    def write(self, nbytes: int):
        """Process generator: write ``nbytes`` to the device."""
        yield from self._transfer(nbytes, is_write=True)

    def _transfer(self, nbytes: int, is_write: bool):
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        remaining = max(nbytes, 1)
        while remaining > 0:
            chunk = min(remaining, self.max_request_bytes)
            remaining -= chunk
            self.stats.max_queue_depth = max(
                self.stats.max_queue_depth, self._slots.queued + 1)
            yield self._slots.request()
            duration = self.service_time_ns(chunk)
            try:
                yield duration
            finally:
                self._slots.release()
            self.stats.busy_ns += duration
        if is_write:
            self.stats.writes += 1
            self.stats.bytes_written += nbytes
        else:
            self.stats.reads += 1
            self.stats.bytes_read += nbytes
