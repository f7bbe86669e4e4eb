"""Exporters: Prometheus text exposition and JSON.

Both render the *same* registry state — the JSON document and the
Prometheus text are two serializations of one snapshot (the tests read
the text back to check it).  Families render sorted by
name and children sorted by label values, so output is byte-identical
across runs of a deterministic pipeline.
"""

from __future__ import annotations

import json
import math
from typing import Any

from repro.telemetry.registry import Histogram, MetricsRegistry


def _format_value(value: float) -> str:
    """Render a sample value the way Prometheus does."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if value.is_integer():
            return str(int(value))
        return repr(value)
    return str(value)


def _escape_label(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _label_block(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{name}="{_escape_label(value)}"'
                     for name, value in labels.items())
    return "{" + inner + "}"


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render the registry in Prometheus text exposition format."""
    lines: list[str] = []
    for family in registry.collect():
        if family.help:
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for labels, child in family.samples():
            if isinstance(child, Histogram):
                cumulative = child.cumulative_counts()
                bounds = [*child.buckets, math.inf]
                for bound, count in zip(bounds, cumulative):
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = _format_value(float(bound))
                    lines.append(f"{family.name}_bucket"
                                 f"{_label_block(bucket_labels)} {count}")
                lines.append(f"{family.name}_sum{_label_block(labels)} "
                             f"{_format_value(child.sum)}")
                lines.append(f"{family.name}_count{_label_block(labels)} "
                             f"{child.count}")
            else:
                lines.append(f"{family.name}{_label_block(labels)} "
                             f"{_format_value(child.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def registry_as_dict(registry: MetricsRegistry) -> dict:
    """The registry snapshot as plain data (the JSON exporter's body)."""
    metrics = []
    for family in registry.collect():
        samples: list[dict[str, Any]] = []
        for labels, child in family.samples():
            if isinstance(child, Histogram):
                samples.append({
                    "labels": labels,
                    "buckets": [
                        {"le": ("+Inf" if math.isinf(bound) else bound),
                         "count": count}
                        for bound, count in zip([*child.buckets, math.inf],
                                                child.cumulative_counts())
                    ],
                    "sum": child.sum,
                    "count": child.count,
                })
            else:
                samples.append({"labels": labels, "value": child.value})
        metrics.append({
            "name": family.name,
            "type": family.kind,
            "help": family.help,
            "samples": samples,
        })
    return {"metrics": metrics}


def to_json(registry: MetricsRegistry, indent: int = 2) -> str:
    """Render the registry snapshot as a JSON document."""
    return json.dumps(registry_as_dict(registry), indent=indent,
                      sort_keys=False)
