"""Directly-Follows-Graph mining over syscall streams.

Sankaran et al. 2024 (PAPERS.md) show that a Directly-Follows-Graph —
nodes are operation types, edges count how often one directly follows
another in the same stream — is a cheap, robust fingerprint of an
application's I/O behaviour: phases (load, compact, flush, idle) show
up as distinct edge distributions, and regressions show up as drift
between the graphs of two runs.

This module mines DFGs from the events DIO stored at the backend:

- :func:`merged_dfg` — one graph per session, with syscall names as
  nodes and edges carrying transition counts plus inter-arrival
  latency statistics;
- :func:`segment_phases` — split one stream into behaviour phases by
  DFG drift between consecutive event windows;
- :func:`compare_session_dfgs` — drift score and top diverging edges
  between two sessions (``compare.session_fingerprint`` is the
  count-level oracle: a DFG's node totals must agree with it).

There is one transition loop, :meth:`DirectlyFollowsGraph.observe_lanes`,
over three lanes of a batch — the node per event (the ``syscall``
lane), the chain key (the ``tid`` lane, or none) and the ``time``
lane: it bumps a node, finds the previous node
of the event's chain and updates the edge between them.  A whole
session's graph (:func:`merged_dfg`), the tap's online miner
(:class:`~repro.analysis.streaming.StreamingDFGMiner`) and the phase
windows are all that loop fed different lanes;
a phase that takes in the next window merges that window's graph
(:meth:`DirectlyFollowsGraph.absorb`) instead of walking its events
again.  No document is built.

Everything is deterministic: graphs iterate in sorted order and
``fingerprint`` output is stable, so DFG output can sit inside the DST
byte-identical digest.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from itertools import repeat
from typing import NamedTuple, Optional, Sequence

from repro.analysis.session import SessionEvents, times_of
from repro.backend.lanes import LaneBatch
from repro.backend.store import DocumentStore

#: Start-of-stream pseudo-node (the classic DFG source marker).
START = "^"

class EdgeStats:
    """One DFG edge: transition count + inter-arrival latency stats."""

    __slots__ = ("count", "gap_total_ns", "gap_min_ns", "gap_max_ns")

    def __init__(self) -> None:
        self.count = 0
        self.gap_total_ns = 0
        self.gap_min_ns: Optional[int] = None
        self.gap_max_ns = 0


class DirectlyFollowsGraph:
    """A DFG over one stream of syscall events.

    Nodes are syscall names; edges map ``(from, to)`` to
    :class:`EdgeStats`.  The graph is an *online* structure: feed
    events in stream order via :meth:`observe_batch`, read it at any
    point.  Memory is bounded by the node vocabulary squared, which for
    syscalls is small by construction.

    With ``per_thread`` every TID is its own transition chain —
    interleaving two threads' events into one chain would invent edges
    neither thread executed — and the chains share one set of edges;
    ``max_threads`` then bounds the chain table (oldest chain first,
    for a graph that rides the ingest path; a post-mortem graph leaves
    it unbounded).  Without it the whole stream is one chain.
    """

    __slots__ = ("name", "per_thread", "max_threads",
                 "edges", "node_counts", "events", "first_ns", "last_ns",
                 "_chains", "_following")

    def __init__(self, name: str = "", per_thread: bool = False,
                 max_threads: Optional[int] = None) -> None:
        self.name = name
        self.per_thread = per_thread
        self.max_threads = max_threads
        self.edges: dict[tuple[str, str], EdgeStats] = {}
        self.node_counts: dict[str, int] = {}
        self.events = 0
        self.first_ns: Optional[int] = None
        self.last_ns = 0
        #: chain key (TID, or None for the one chain) -> [node, time_ns]
        self._chains: OrderedDict = OrderedDict()
        #: ``edges`` again, by source then target: a transition looks
        #: its edge up without building the key.
        self._following: dict[str, dict[str, EdgeStats]] = {}

    # ------------------------------------------------------------------
    # Building

    def observe_batch(self, batch: LaneBatch) -> list[str]:
        """Feed a batch of events in stream order; returns their nodes,
        in order (the batch's own ``syscall`` lane: never mutate it)."""
        nodes = batch.values_for("syscall")
        self.observe_lanes(
            nodes, batch.values_for("tid") if self.per_thread else None,
            times_of(batch))
        return nodes

    def observe_lanes(self, nodes: Sequence[str],
                      chains: Optional[Sequence], times: Sequence) -> None:
        """The one transition loop: one event per ``nodes[i]``, of the
        chain ``chains[i]`` (the one chain without ``chains``), at
        ``times[i]``.

        A chain's first event takes the ``^`` edge with gap 0 and the
        graph's window starts at the earliest such event; a gap that
        runs backwards (events of one chain out of time order) counts
        as 0.
        """
        if not nodes:
            return
        node_counts = self.node_counts
        for node, count in Counter(nodes).items():
            node_counts[node] = node_counts.get(node, 0) + count
        edges = self.edges
        following = self._following
        keys = self._chains
        max_threads = self.max_threads
        for node, chain, time_ns in zip(
                nodes, repeat(None) if chains is None else chains, times):
            prev = keys.get(chain)
            if prev is None:
                if max_threads is not None and len(keys) >= max_threads:
                    keys.popitem(last=False)
                keys[chain] = [node, time_ns]
                if self.first_ns is None or time_ns < self.first_ns:
                    self.first_ns = time_ns
                source = START
                gap = 0
            else:
                source = prev[0]
                gap = time_ns - prev[1]
                if gap < 0:
                    gap = 0
                prev[0] = node
                prev[1] = time_ns
            targets = following.get(source)
            if targets is None:
                targets = following[source] = {}
            stats = targets.get(node)
            if stats is None:
                stats = targets[node] = edges[source, node] = EdgeStats()
                stats.gap_min_ns = gap
            stats.count += 1
            stats.gap_total_ns += gap
            if gap < stats.gap_min_ns:
                stats.gap_min_ns = gap
            if gap > stats.gap_max_ns:
                stats.gap_max_ns = gap
        self.events += len(nodes)
        self.last_ns = max(self.last_ns, max(times))

    def absorb(self, later: "DirectlyFollowsGraph") -> None:
        """Continue this one-chain graph with ``later`` — a one-chain
        graph of the events that follow, used up by the call — as if
        its events had been fed here: ``later``'s opening ``^`` edge
        becomes the transition from this chain's last event, its other
        edges merge, and this chain ends where ``later``'s does.  Edges
        reach this graph in the order feeding the events would have
        added them."""
        (prev,) = self._chains.values()
        edges = self.edges
        for edge, stats in later.edges.items():
            if edge[0] == START:
                # The one transition of the ``^`` edge, re-timed.
                edge = (prev[0], edge[1])
                gap = max(later.first_ns - prev[1], 0)
                stats.gap_total_ns = stats.gap_min_ns = stats.gap_max_ns = gap
            into = edges.get(edge)
            if into is None:
                edges[edge] = stats
                self._following.setdefault(edge[0], {})[edge[1]] = stats
                continue
            into.count += stats.count
            into.gap_total_ns += stats.gap_total_ns
            if stats.gap_min_ns < into.gap_min_ns:
                into.gap_min_ns = stats.gap_min_ns
            if stats.gap_max_ns > into.gap_max_ns:
                into.gap_max_ns = stats.gap_max_ns
        node_counts = self.node_counts
        for node, count in later.node_counts.items():
            node_counts[node] = node_counts.get(node, 0) + count
        self.events += later.events
        self.last_ns = max(self.last_ns, later.last_ns)
        (self._chains[None],) = later._chains.values()

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
            "node_mode": "syscall",
            "events": self.events,
            "nodes": dict(sorted(self.node_counts.items())),
            "edges": {f"{src}->{dst}": stats.count
                      for (src, dst), stats in sorted(self.edges.items())},
        }

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


def segment_phases(batch: LaneBatch,
                   window_events: int = 64,
                   drift_threshold: float = 0.4,
                   name: str = "") -> list[Phase]:
    """Split a time-ordered batch of events into behaviour phases.

    The stream is chopped into fixed-size windows, one graph each; a
    new phase starts whenever the TV distance between the running
    phase's DFG and the next window's DFG exceeds ``drift_threshold``,
    and otherwise the phase absorbs the window's graph.  A final
    partial window under half the size is always absorbed.
    """
    if window_events <= 1:
        raise ValueError(f"window_events must be > 1: {window_events}")
    nodes = batch.values_for("syscall")
    times = times_of(batch)
    phases: list[Phase] = []
    current: Optional[DirectlyFollowsGraph] = None
    prev_drift = 0.0
    for lo in range(0, len(nodes), window_events):
        hi = min(lo + window_events, len(nodes))
        incoming = DirectlyFollowsGraph(name)
        incoming.observe_lanes(nodes[lo:hi], None, times[lo:hi])
        if current is None:
            current = incoming
            continue
        drift = current.distance(incoming)
        if drift > drift_threshold and hi - lo >= window_events // 2:
            phases.append(_phase(current, prev_drift))
            current, prev_drift = incoming, drift
        else:
            current.absorb(incoming)
    if current is not None:
        phases.append(_phase(current, prev_drift))
    return phases


def _phase(graph: DirectlyFollowsGraph, drift: float) -> Phase:
    return Phase(graph.first_ns or 0, graph.last_ns, graph.events, graph,
                 drift)


def mine_phases(store: DocumentStore, index: str = "dio_trace",
                session: Optional[str] = None,
                proc_name: Optional[str] = None,
                window_events: int = 64,
                drift_threshold: float = 0.4,
                view: Optional[SessionEvents] = None) -> list[Phase]:
    """Phase-segment one session's (optionally one process's) stream."""
    view = view or SessionEvents(store, index, session)
    batch = view.batch
    if proc_name is not None:
        batch = batch.take([row for row, name
                            in enumerate(view.values("proc_name"))
                            if name == proc_name])
    return segment_phases(batch, window_events, drift_threshold,
                          name=proc_name or session or index)


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
               view: Optional[SessionEvents] = None
               ) -> DirectlyFollowsGraph:
    """One whole-session DFG (streams interleaved by time, per thread).

    Transitions are tracked per thread — interleaving two threads'
    events into one chain would invent edges neither thread executed —
    and land in a single session graph.
    """
    graph = DirectlyFollowsGraph(session or index, per_thread=True)
    graph.observe_batch((view or SessionEvents(store, index, session)).batch)
    return graph


def compare_session_dfgs(store: DocumentStore, session_a: str,
                         session_b: str, index: str = "dio_trace",
                         top: int = 8) -> DFGComparison:
    """Drift between two sessions' DFGs with the top diverging edges."""
    graph_a = merged_dfg(store, index, session_a)
    graph_b = merged_dfg(store, index, session_b)
    freq_a, freq_b = graph_a.edge_frequencies(), graph_b.edge_frequencies()
    deltas = []
    for edge in set(freq_a) | set(freq_b):
        delta = freq_b.get(edge, 0.0) - freq_a.get(edge, 0.0)
        if delta:
            deltas.append((f"{edge[0]}->{edge[1]}", delta))
    deltas.sort(key=lambda item: (-abs(item[1]), item[0]))
    return DFGComparison(session_a, session_b,
                         graph_a.distance(graph_b), deltas[:top])
