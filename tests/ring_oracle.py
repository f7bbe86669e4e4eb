"""The per-record ring buffer, kept as an oracle.

:class:`repro.ebpf.ringbuf.PerCPURingBuffer` drains a contiguous run of
records per call; this is the record-at-a-time statement of the same
buffer — a deque of ``(size, record)`` pairs, popped, accounted and
appended one at a time — that ``tests/test_ring_policies.py`` compares
it against under every overflow policy.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.ebpf.ringbuf import SAMPLE_STRIDE, SAMPLE_WATERMARK


class OracleRing:
    """Per-CPU byte-bounded queues with the three overflow policies."""

    def __init__(self, ncpus: int, capacity: int, policy: str) -> None:
        self.capacity = capacity
        self.policy = policy
        self.queues: list[deque[tuple[int, Any]]] = [
            deque() for _ in range(ncpus)]
        self.used = [0] * ncpus
        self.sample_counter = 0
        self.produced = self.consumed = self.dropped = 0
        self.bytes_produced = 0

    def produce(self, cpu: int, record: Any, size: int) -> bool:
        queue = self.queues[cpu]
        if self.policy == "sample":
            if self.used[cpu] + size > self.capacity * SAMPLE_WATERMARK:
                self.sample_counter += 1
                if self.sample_counter % SAMPLE_STRIDE != 0:
                    self.dropped += 1
                    return False
        if self.used[cpu] + size > self.capacity:
            if self.policy == "overwrite-oldest":
                while queue and self.used[cpu] + size > self.capacity:
                    old_size, _ = queue.popleft()
                    self.used[cpu] -= old_size
                    self.dropped += 1
                if self.used[cpu] + size > self.capacity:
                    self.dropped += 1
                    return False
            else:
                self.dropped += 1
                return False
        queue.append((size, record))
        self.used[cpu] += size
        self.produced += 1
        self.bytes_produced += size
        return True

    def consume(self, cpu: int, max_records: Optional[int] = None) -> list:
        queue = self.queues[cpu]
        out = []
        while queue and (max_records is None or len(out) < max_records):
            size, record = queue.popleft()
            self.used[cpu] -= size
            out.append(record)
        self.consumed += len(out)
        return out
