"""A reader of the Prometheus text the exporter writes.

Enough of the exposition format to read back what
``repro.telemetry.export.to_prometheus`` emits, so the tests can check
that it and the JSON exporter serialise one registry state.
"""

from __future__ import annotations

import math
import re

_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')
_UNESCAPE = {r'\"': '"', r"\n": "\n", r"\\": "\\"}


def parse_prometheus(text: str) -> dict[str, dict[tuple, float]]:
    """Exposition text as ``{name: {sorted label items: value}}``."""
    out: dict[str, dict[tuple, float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        name, _, body = name_part.partition("{")
        labels = {key: re.sub(r"\\.", lambda m: _UNESCAPE[m.group()], raw)
                  for key, raw in _LABEL.findall(body)}
        value = {"+Inf": math.inf, "-Inf": -math.inf}.get(value_part)
        out.setdefault(name, {})[tuple(sorted(labels.items()))] = (
            float(value_part) if value is None else value)
    return out
