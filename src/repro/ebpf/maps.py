"""BPF map types.

Real eBPF maps are fixed-size kernel data structures; programs must
handle insertion failure.  These simulated maps keep that property —
:class:`BPFHashMap` refuses inserts past ``max_entries`` (or evicts the
least recently used entry when created with ``lru=True``, mirroring
``BPF_MAP_TYPE_LRU_HASH``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Optional


class MapFullError(Exception):
    """Insert into a full non-LRU BPF map."""


class BPFHashMap:
    """A bounded hash map (``BPF_MAP_TYPE_HASH`` / ``LRU_HASH``)."""

    def __init__(self, max_entries: int = 10240, lru: bool = False,
                 name: str = ""):
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self.lru = lru
        self.name = name
        self._data: OrderedDict[Any, Any] = OrderedDict()
        self.evictions = 0
        self.failed_inserts = 0

    def lookup(self, key: Any) -> Optional[Any]:
        """Return the value for ``key`` or ``None``."""
        value = self._data.get(key)
        if value is not None and self.lru:
            self._data.move_to_end(key)
        return value

    def update(self, key: Any, value: Any) -> bool:
        """Insert or overwrite; returns ``False`` if rejected (full)."""
        if key in self._data:
            self._data[key] = value
            if self.lru:
                self._data.move_to_end(key)
            return True
        if len(self._data) >= self.max_entries:
            if not self.lru:
                self.failed_inserts += 1
                return False
            self._data.popitem(last=False)
            self.evictions += 1
        self._data[key] = value
        return True

    def delete(self, key: Any) -> bool:
        """Remove ``key``; returns ``False`` if absent."""
        return self._data.pop(key, None) is not None

    def pop(self, key: Any) -> Optional[Any]:
        """Remove and return the value for ``key`` (or ``None``)."""
        return self._data.pop(key, None)

    def items(self) -> Iterator[tuple[Any, Any]]:
        """Iterate over (key, value) pairs (a user-space map dump)."""
        return iter(list(self._data.items()))


class BPFArrayMap:
    """A fixed-length array map (``BPF_MAP_TYPE_ARRAY``)."""

    def __init__(self, max_entries: int, name: str = ""):
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self.name = name
        self._data: list[Any] = [None] * max_entries

    def lookup(self, index: int) -> Any:
        """Value at ``index``; raises ``IndexError`` out of range."""
        if not 0 <= index < self.max_entries:
            raise IndexError(f"index {index} out of range")
        return self._data[index]

    def update(self, index: int, value: Any) -> None:
        """Set the value at ``index``."""
        if not 0 <= index < self.max_entries:
            raise IndexError(f"index {index} out of range")
        self._data[index] = value


class PerCPUArray:
    """Per-CPU values (``BPF_MAP_TYPE_PERCPU_ARRAY``), one slot per CPU."""

    def __init__(self, ncpus: int, initial: Any = 0, name: str = ""):
        if ncpus <= 0:
            raise ValueError(f"ncpus must be positive, got {ncpus}")
        self.ncpus = ncpus
        self.name = name
        self._values: list[Any] = [initial for _ in range(ncpus)]

    def get(self, cpu: int) -> Any:
        """Value for ``cpu``."""
        return self._values[cpu]

    def set(self, cpu: int, value: Any) -> None:
        """Set the value for ``cpu``."""
        self._values[cpu] = value

    def add(self, cpu: int, delta: int) -> None:
        """Increment the (numeric) value for ``cpu``."""
        self._values[cpu] += delta

    def sum(self) -> Any:
        """Aggregate across CPUs (a user-space map read)."""
        return sum(self._values)
