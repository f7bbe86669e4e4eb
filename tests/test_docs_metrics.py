"""docs/METRICS.md is generated — fail when it drifts from the code.

The rot guard below also holds the registry to one rule: a metric
family exists only while something reads it.  A *reader* is a string
literal that names the family exactly, anywhere in ``src/`` or
``tests/`` (a health rule, the self-monitoring dashboard, a DST
invariant, the resilience report, a test), a CI step in ``.github/``
that names it, or an f-string listed in :data:`FSTRING_READERS`.  The
literal that registers the family is not a reader, and neither are
help text, section blurbs, docstrings or this file.
"""

import ast
import pathlib
import re

from repro.telemetry.reference import (build_reference_registry,
                                       metrics_reference_markdown)

ROOT = pathlib.Path(__file__).resolve().parents[1]
DOCS = ROOT / "docs" / "METRICS.md"

#: f-string readers, as (prefix, suffix) of the names they build: the
#: plan counters are read as ``f"dio_store_plan_{mode}_total "`` in
#: tests/test_cli.py.
FSTRING_READERS = (("dio_store_plan_", "_total"),)

#: Where a name read through ``registry.value``/``registry.get`` (or
#: listed for such a read) must be a registered family: ``value``
#: answers 0 for an unknown name, so a rule reading a deleted or
#: misspelt family would report a silent zero.
RULE_FILES = ("src/repro/telemetry/health.py",
              "src/repro/visualizer/dashboards.py",
              "src/repro/dst/invariants.py",
              "src/repro/experiments/resilience.py")

#: ``dio_``-prefixed literals in RULE_FILES that are not metric names.
NOT_METRICS = {"dio_trace"}

_METRIC_NAME = re.compile(r"(dio|dst)_[a-z0-9_]+")


def _python_files():
    for tree in ("src", "tests"):
        for path in sorted((ROOT / tree).rglob("*.py")):
            if path != pathlib.Path(__file__).resolve():
                yield path


def _string_nodes(path):
    return [node for node in ast.walk(ast.parse(path.read_text("utf-8")))
            if isinstance(node, (ast.Constant, ast.JoinedStr))]


def _literals(nodes):
    """Plain string literals that look like a metric name."""
    return [node.value for node in nodes
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and _METRIC_NAME.fullmatch(node.value)]


def _fstring_prefixes(nodes):
    """The constant head of every f-string."""
    return {node.values[0].value for node in nodes
            if isinstance(node, ast.JoinedStr) and node.values
            and isinstance(node.values[0], ast.Constant)}


def _registered():
    return {family.name for family in build_reference_registry().collect()}


class TestMetricsReference:
    def test_committed_document_matches_registry(self):
        """Adding, removing, or re-describing a metric must come with
        a regenerated docs/METRICS.md (see the file header)."""
        expected = metrics_reference_markdown(build_reference_registry())
        assert DOCS.read_text(encoding="utf-8") == expected

    def test_reference_registry_covers_core_subsystems(self):
        names = _registered()
        for required in (
            "dio_filter_accepted_total",
            "dio_ring_produced_total",
            "dio_consumer_bulk_attempts_total",
            "dio_shipper_events_total",
            "dio_breaker_state",
            "dio_spill_pending_records",
            "dio_faults_injected_total",
            "dio_store_documents_indexed_total",
            "dio_correlator_tags_resolved_total",
            "dio_health_retry_rate",
        ):
            assert required in names, f"{required} missing from reference run"

    def test_every_metric_has_help_text(self):
        for family in build_reference_registry().collect():
            assert family.help.strip(), f"{family.name} has no help text"

    def test_generation_is_deterministic(self):
        assert (metrics_reference_markdown(build_reference_registry())
                == metrics_reference_markdown(build_reference_registry()))


class TestTelemetryIsRead:
    def test_every_family_has_a_reader(self):
        """A family nobody reads is code to delete: its registration,
        its section entry and the attribute behind it."""
        named: dict[str, int] = {}
        prefixes: set[str] = set()
        for path in _python_files():
            nodes = _string_nodes(path)
            for literal in _literals(nodes):
                named[literal] = named.get(literal, 0) + 1
            prefixes |= _fstring_prefixes(nodes)
        ci = "\n".join(path.read_text("utf-8")
                       for path in sorted((ROOT / ".github").rglob("*.yml")))
        for prefix, _ in FSTRING_READERS:
            assert prefix in prefixes, f"no f-string reads {prefix}*"

        unread = []
        for name in sorted(_registered()):
            readers = named.get(name, 0) - 1      # minus its registration
            if re.search(rf"\b{name}\b", ci):
                readers += 1
            if any(name.startswith(prefix) and name.endswith(suffix)
                   for prefix, suffix in FSTRING_READERS):
                readers += 1
            if readers < 1:
                unread.append(name)
        assert unread == []

    def test_rules_read_only_registered_families(self):
        registered = _registered()
        for relative in RULE_FILES:
            names = set(_literals(_string_nodes(ROOT / relative)))
            unknown = names - registered - NOT_METRICS
            assert not unknown, f"{relative} reads unregistered {unknown}"
