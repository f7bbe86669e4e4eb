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
