"""Directly-Follows-Graph mining over syscall streams.

Sankaran et al. 2024 (PAPERS.md) show that a Directly-Follows-Graph —
nodes are operation types, edges count how often one directly follows
another in the same stream — is a cheap, robust fingerprint of an
application's I/O behaviour: phases (load, compact, flush, idle) show
up as distinct edge distributions, and regressions show up as drift
between the graphs of two runs.

This module mines DFGs from the events DIO stored at the backend:

- :func:`mine_dfgs` — one graph per process or per thread, with nodes
  either plain syscall names or ``syscall×file-class`` pairs and edges
  carrying transition counts plus inter-arrival latency statistics;
- :func:`segment_phases` — split one stream into behaviour phases by
  DFG drift between consecutive event windows;
- :func:`compare_session_dfgs` — drift score and top diverging edges
  between two sessions (``compare.session_fingerprint`` is the
  count-level oracle: a DFG's node totals must agree with it).

There is one transition loop, :meth:`DirectlyFollowsGraph.observe_batch`:
it bumps a node, finds the previous node of the event's chain (one
chain, or one per TID) and updates the edge between them.  A whole
session's graph (:func:`merged_dfg`), the tap's online miner
(:class:`~repro.analysis.streaming.StreamingDFGMiner`), the per-process
graphs and the phase windows are all that loop fed different batches.

Everything is deterministic: graphs iterate in sorted order and
``as_dict`` output is stable, so DFG output can sit inside the DST
byte-identical digest.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, NamedTuple, Optional

from repro.analysis.session import SessionEvents
from repro.backend.store import DocumentStore

#: Start-of-stream pseudo-node (the classic DFG source marker).
START = "^"

#: File-class buckets for ``node_mode="syscall_fileclass"`` nodes.
_FILE_CLASSES = (
    (".log", "log"), (".wal", "wal"), (".sst", "sst"), (".ldb", "sst"),
    (".db", "db"), (".jsonl", "log"), (".tmp", "tmp"),
)


def file_class(path: Optional[str]) -> str:
    """Coarse file-purpose class from a path (``other`` when unknown)."""
    if not path:
        return "none"
    lowered = path.lower()
    for suffix, cls in _FILE_CLASSES:
        if lowered.endswith(suffix):
            return cls
    if "wal" in lowered:
        return "wal"
    return "other"


class EdgeStats:
    """One DFG edge: transition count + inter-arrival latency stats."""

    __slots__ = ("count", "gap_total_ns", "gap_min_ns", "gap_max_ns")

    def __init__(self) -> None:
        self.count = 0
        self.gap_total_ns = 0
        self.gap_min_ns: Optional[int] = None
        self.gap_max_ns = 0

    @property
    def gap_mean_ns(self) -> float:
        return self.gap_total_ns / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "gap_mean_ns": round(self.gap_mean_ns, 1),
            "gap_min_ns": self.gap_min_ns or 0,
            "gap_max_ns": self.gap_max_ns,
        }


class DirectlyFollowsGraph:
    """A DFG over one stream of syscall events.

    Nodes are strings (syscall names, or ``syscall/file-class``); edges
    map ``(from, to)`` to :class:`EdgeStats`.  The graph is an *online*
    structure: feed events in stream order via :meth:`observe_batch`,
    read it at any point.  Memory is bounded by the node vocabulary
    squared, which for syscalls is small by construction.

    With ``per_thread`` every TID is its own transition chain —
    interleaving two threads' events into one chain would invent edges
    neither thread executed — and the chains share one set of edges;
    ``max_threads`` then bounds the chain table (oldest chain first,
    for a graph that rides the ingest path; a post-mortem graph leaves
    it unbounded).  Without it the whole stream is one chain.
    """

    __slots__ = ("name", "node_mode", "per_thread", "max_threads",
                 "edges", "node_counts", "events", "first_ns", "last_ns",
                 "_chains")

    def __init__(self, name: str = "", node_mode: str = "syscall",
                 per_thread: bool = False,
                 max_threads: Optional[int] = None) -> None:
        if node_mode not in ("syscall", "syscall_fileclass"):
            raise ValueError(f"unknown node mode {node_mode!r}")
        self.name = name
        self.node_mode = node_mode
        self.per_thread = per_thread
        self.max_threads = max_threads
        self.edges: dict[tuple[str, str], EdgeStats] = {}
        self.node_counts: dict[str, int] = {}
        self.events = 0
        self.first_ns: Optional[int] = None
        self.last_ns = 0
        #: chain key (TID, or None for the one chain) -> [node, time_ns]
        self._chains: OrderedDict = OrderedDict()

    # ------------------------------------------------------------------
    # Building

    def node_for(self, source: dict) -> str:
        syscall = source["syscall"]
        if self.node_mode == "syscall":
            return syscall
        cls = file_class(source.get("file_path")
                         or (source.get("args") or {}).get("path"))
        return f"{syscall}/{cls}"

    def observe(self, source: dict) -> str:
        """Feed one event (a backend document); returns its node."""
        return self.observe_batch((source,))[0]

    def observe_batch(self, docs: Iterable[dict]) -> list[str]:
        """Feed events in stream order; returns their nodes, in order.

        The one transition loop.  A chain's first event takes the
        ``^`` edge with gap 0 and the graph's window starts at the
        earliest such event; a gap that runs backwards (events of one
        chain out of time order) counts as 0.
        """
        plain_nodes = self.node_mode == "syscall"
        node_for = self.node_for
        node_counts = self.node_counts
        edges = self.edges
        chains = self._chains
        per_thread = self.per_thread
        max_threads = self.max_threads
        last_ns = self.last_ns
        nodes: list[str] = []
        seen = nodes.append
        for source in docs:
            node = source["syscall"] if plain_nodes else node_for(source)
            seen(node)
            time_ns = source.get("time", 0)
            try:                     # node vocabulary is tiny: ~always hits
                node_counts[node] += 1
            except KeyError:
                node_counts[node] = 1
            if time_ns > last_ns:
                last_ns = time_ns
            chain = source["tid"] if per_thread else None
            prev = chains.get(chain)
            if prev is None:
                if max_threads is not None and len(chains) >= max_threads:
                    chains.popitem(last=False)
                chains[chain] = [node, time_ns]
                if self.first_ns is None or time_ns < self.first_ns:
                    self.first_ns = time_ns
                edge = (START, node)
                gap = 0
            else:
                edge = (prev[0], node)
                gap = time_ns - prev[1]
                if gap < 0:
                    gap = 0
                prev[0] = node
                prev[1] = time_ns
            stats = edges.get(edge)
            if stats is None:
                stats = edges[edge] = EdgeStats()
            stats.count += 1
            stats.gap_total_ns += gap
            if stats.gap_min_ns is None or gap < stats.gap_min_ns:
                stats.gap_min_ns = gap
            if gap > stats.gap_max_ns:
                stats.gap_max_ns = gap
        self.events += len(nodes)
        self.last_ns = last_ns
        return nodes

    # ------------------------------------------------------------------
    # Reading

    @property
    def transitions(self) -> int:
        """Total observed transitions (including the start edge)."""
        return sum(stats.count for stats in self.edges.values())

    def edge_frequencies(self) -> dict[tuple[str, str], float]:
        """Edges as a probability distribution (sums to 1)."""
        total = self.transitions
        if not total:
            return {}
        return {edge: stats.count / total
                for edge, stats in self.edges.items()}

    def distance(self, other: "DirectlyFollowsGraph") -> float:
        """Total-variation distance between edge distributions, in [0, 1].

        0 means identical transition structure; 1 means disjoint.  This
        is the drift metric phase segmentation and cross-session
        comparison rank by.
        """
        mine, theirs = self.edge_frequencies(), other.edge_frequencies()
        keys = set(mine) | set(theirs)
        return sum(abs(mine.get(k, 0.0) - theirs.get(k, 0.0))
                   for k in keys) / 2.0

    def top_edges(self, n: int = 8) -> list[tuple[str, str, EdgeStats]]:
        """The ``n`` heaviest edges (by count, then lexicographic)."""
        ranked = sorted(self.edges.items(),
                        key=lambda item: (-item[1].count, item[0]))
        return [(src, dst, stats) for (src, dst), stats in ranked[:n]]

    def fingerprint(self) -> dict:
        """Stable summary used to compare runs (and hash reports)."""
        return {
            "name": self.name,
            "node_mode": self.node_mode,
            "events": self.events,
            "nodes": dict(sorted(self.node_counts.items())),
            "edges": {f"{src}->{dst}": stats.count
                      for (src, dst), stats in sorted(self.edges.items())},
        }

    def as_dict(self) -> dict:
        """Full serialization, deterministic key order."""
        out = self.fingerprint()
        out["edge_stats"] = {
            f"{src}->{dst}": stats.as_dict()
            for (src, dst), stats in sorted(self.edges.items())}
        out["window"] = {"start_ns": self.first_ns or 0,
                         "end_ns": self.last_ns}
        return out


# ----------------------------------------------------------------------
# Mining from the backend

def mine_dfgs(store: DocumentStore, index: str = "dio_trace",
              session: Optional[str] = None,
              per_thread: bool = False,
              node_mode: str = "syscall",
              view: Optional[SessionEvents] = None
              ) -> dict[str, DirectlyFollowsGraph]:
    """Mine one DFG per process (or per thread) from stored events.

    Keys are ``proc_name`` (or ``proc_name/tid``), sorted on return, so
    downstream rendering is deterministic.  ``view`` (here and below)
    is a caller's read of the same session, to share it.
    """
    groups: dict[str, list[dict]] = {}
    for _, source in (view or SessionEvents(store, index, session)).events:
        key = source["proc_name"]
        if per_thread:
            key = f"{key}/{source['tid']}"
        groups.setdefault(key, []).append(source)
    graphs = {}
    for key in sorted(groups):
        graphs[key] = DirectlyFollowsGraph(key, node_mode)
        graphs[key].observe_batch(groups[key])
    return graphs


# ----------------------------------------------------------------------
# Phase segmentation by DFG drift

class Phase(NamedTuple):
    """One behaviour phase of a stream."""

    start_ns: int
    end_ns: int
    events: int
    dfg: DirectlyFollowsGraph
    #: Drift (TV distance) from the previous phase; 0 for the first.
    drift: float

    def as_dict(self) -> dict:
        return {
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "events": self.events,
            "drift": round(self.drift, 4),
            "top_edges": [f"{src}->{dst}:{stats.count}"
                          for src, dst, stats in self.dfg.top_edges(5)],
        }


def segment_phases(events: Iterable[dict],
                   window_events: int = 64,
                   drift_threshold: float = 0.4,
                   node_mode: str = "syscall",
                   name: str = "") -> list[Phase]:
    """Split a time-ordered event stream into behaviour phases.

    The stream is chopped into fixed-size windows; a new phase starts
    whenever the TV distance between the running phase's DFG and the
    next window's DFG exceeds ``drift_threshold``.  A final partial
    window is folded into the current phase.
    """
    if window_events <= 1:
        raise ValueError(f"window_events must be > 1: {window_events}")
    phases: list[Phase] = []
    current: Optional[DirectlyFollowsGraph] = None
    prev_drift = 0.0
    window: list[dict] = []

    def close_current() -> None:
        nonlocal current
        if current is not None and current.events:
            phases.append(Phase(current.first_ns or 0, current.last_ns,
                                current.events, current, prev_drift))
        current = None

    def window_graph(batch: list[dict]) -> DirectlyFollowsGraph:
        graph = DirectlyFollowsGraph(name, node_mode)
        graph.observe_batch(batch)
        return graph

    for source in events:
        window.append(source)
        if len(window) < window_events:
            continue
        incoming = window_graph(window)
        if current is None:
            current = incoming
        else:
            drift = current.distance(incoming)
            if drift > drift_threshold:
                close_current()
                current = incoming
                prev_drift = drift
            else:
                current.observe_batch(window)
        window = []
    if window:
        if current is None:
            current = window_graph(window)
        else:
            incoming = window_graph(window)
            drift = current.distance(incoming)
            if len(window) >= window_events // 2 and drift > drift_threshold:
                close_current()
                current = incoming
                prev_drift = drift
            else:
                current.observe_batch(window)
    close_current()
    return phases


def mine_phases(store: DocumentStore, index: str = "dio_trace",
                session: Optional[str] = None,
                proc_name: Optional[str] = None,
                window_events: int = 64,
                drift_threshold: float = 0.4,
                node_mode: str = "syscall",
                view: Optional[SessionEvents] = None) -> list[Phase]:
    """Phase-segment one session's (optionally one process's) stream."""
    view = view or SessionEvents(store, index, session)
    stream = (source for _, source in view.events
              if proc_name is None or source["proc_name"] == proc_name)
    return segment_phases(stream, window_events, drift_threshold,
                          node_mode, name=proc_name or session or index)


# ----------------------------------------------------------------------
# Cross-session comparison

class DFGComparison(NamedTuple):
    """Outcome of comparing two sessions' merged DFGs."""

    session_a: str
    session_b: str
    distance: float
    #: Edges whose frequency moved the most, heaviest shift first.
    diverging_edges: list[tuple[str, float]]

    def as_dict(self) -> dict:
        return {
            "session_a": self.session_a,
            "session_b": self.session_b,
            "distance": round(self.distance, 4),
            "diverging_edges": [[edge, round(delta, 4)]
                                for edge, delta in self.diverging_edges],
        }


def merged_dfg(store: DocumentStore, index: str, session: Optional[str],
               node_mode: str = "syscall",
               view: Optional[SessionEvents] = None
               ) -> DirectlyFollowsGraph:
    """One whole-session DFG (streams interleaved by time, per thread).

    Transitions are tracked per thread — interleaving two threads'
    events into one chain would invent edges neither thread executed —
    and land in a single session graph.
    """
    graph = DirectlyFollowsGraph(session or index, node_mode,
                                 per_thread=True)
    graph.observe_batch(
        source for _, source
        in (view or SessionEvents(store, index, session)).events)
    return graph


def compare_session_dfgs(store: DocumentStore, session_a: str,
                         session_b: str, index: str = "dio_trace",
                         node_mode: str = "syscall",
                         top: int = 8) -> DFGComparison:
    """Drift between two sessions' DFGs with the top diverging edges."""
    graph_a = merged_dfg(store, index, session_a, node_mode)
    graph_b = merged_dfg(store, index, session_b, node_mode)
    freq_a, freq_b = graph_a.edge_frequencies(), graph_b.edge_frequencies()
    deltas = []
    for edge in set(freq_a) | set(freq_b):
        delta = freq_b.get(edge, 0.0) - freq_a.get(edge, 0.0)
        if delta:
            deltas.append((f"{edge[0]}->{edge[1]}", delta))
    deltas.sort(key=lambda item: (-abs(item[1]), item[0]))
    return DFGComparison(session_a, session_b,
                         graph_a.distance(graph_b), deltas[:top])
