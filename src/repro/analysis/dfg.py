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

There is one transition computation,
:meth:`DirectlyFollowsGraph.observe_lanes`, over three lanes of a batch
— the node per event (the ``syscall`` lane), the chain key (the ``tid``
lane, or none) and the ``time`` lane: array arithmetic that pairs each
event with the previous event of its chain and reduces the pairs per
edge.  A whole session's graph (:func:`merged_dfg`) and each phase's
graph are that computation fed different lanes; the phase
windows' drift is read off the same transition keys (node code pairs)
without building a graph per window.  No document is built.

Everything is deterministic: graphs iterate in sorted order and
``fingerprint`` output is stable, so DFG output can sit inside the DST
byte-identical digest.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, count
from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.analysis.session import (STEP_ROWS, SessionEvents, lane_codes,
                                    times_of)
from repro.backend.lanes import LaneBatch
from repro.backend.store import DocumentStore

#: Start-of-stream pseudo-node (the classic DFG source marker).
START = "^"


def tv_distance(counts: dict, total: int, other: dict,
                other_total: int) -> float:
    """Total-variation distance of two count distributions (sums
    ``total``, ``other_total``), exact in integers and rounded once."""
    if not total or not other_total:
        return 0.5 if total or other_total else 0.0
    gap = total * other_total          # the keys ``other`` lacks, below
    for key, number in other.items():
        mine = counts.get(key, 0) * other_total
        gap += abs(mine - number * total) - mine
    return gap / (2 * total * other_total)


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
    :class:`EdgeStats`.  Events are fed in stream order via
    :meth:`observe_lanes`, in one call or several (each continues the
    chains the last left).  Memory is bounded by the node vocabulary
    squared, which for syscalls is small by construction, plus one tail
    per chain.

    Fed the ``tid`` lane as chain keys, every TID is its own transition
    chain — interleaving two threads' events into one chain would
    invent edges neither thread executed — and the chains share one set
    of edges.  Without chain keys the whole stream is one chain.
    """

    __slots__ = ("name", "edges", "node_counts", "events", "first_ns",
                 "last_ns", "_chains")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.edges: dict[tuple[str, str], EdgeStats] = {}
        self.node_counts: dict[str, int] = {}
        self.events = 0
        self.first_ns: Optional[int] = None
        self.last_ns = 0
        #: chain key (TID, or None for the one chain) -> [node, time_ns]
        #: of the chain's last event
        self._chains: dict = {}

    # ------------------------------------------------------------------
    # Building

    def observe_lanes(self, nodes: Sequence[str],
                      chains: Optional[Sequence], times: Sequence,
                      codes: Optional[tuple] = None) -> None:
        """The one transition computation: one event per ``nodes[i]``,
        of the chain ``chains[i]`` (the one chain without ``chains``),
        at ``times[i]``; ``codes`` is ``lane_codes(nodes)``, if at hand.

        Each event's edge runs from the node before it in its chain, or
        from the tail an earlier call left.  A chain's first event takes
        the ``^`` edge with gap 0 and the graph's window starts at the
        earliest such event; a gap that runs backwards (events of one
        chain out of time order) counts as 0.  Counts and gap sums,
        minima and maxima are reductions per edge key, and new edges
        reach the graph in the order their first transitions came.
        Steps of :data:`STEP_ROWS` rows keep every temporary small.
        """
        n = len(nodes)
        if n > STEP_ROWS:
            for lo in range(0, n, STEP_ROWS):
                hi = lo + STEP_ROWS
                self.observe_lanes(
                    nodes[lo:hi], chains and chains[lo:hi], times[lo:hi],
                    codes and (codes[0], codes[1][lo:hi]))
            return
        if not n:
            return
        code, targets = codes or lane_codes(nodes)
        at = np.asarray(times)
        if at.dtype.kind != "i":         # beyond int64, or not ints
            at = np.array(times, object)
        for node, number in zip(code, np.bincount(
                targets, minlength=len(code)).tolist()):
            if number:
                self.node_counts[node] = self.node_counts.get(node, 0) + number
        names, order, heads = [None], None, np.zeros(1, np.intp)
        if chains is not None:
            # Each row keyed by its chain's first row: a stable sort
            # lays the chains out in order of appearance.
            first: dict = {}
            keys = np.fromiter(map(first.setdefault, chains, count()),
                               np.intp, n)
            order = np.argsort(keys, kind="stable")
            heads = np.flatnonzero(np.diff(keys[order], prepend=-1))
            names = list(first)
            targets, at = targets[order], at[order]
        tails = [self._chains.get(name) for name in names]
        vocab = list(dict.fromkeys(chain(
            code, (tail[0] for tail in tails if tail is not None))))
        width = len(vocab)                 # the code of ``^``
        sources = np.concatenate(([width], targets[:-1]))
        gaps = np.diff(at, prepend=at[:1])
        fresh = []
        for head, tail in zip(heads.tolist(), tails):
            if tail is None:
                fresh.append(head)
            else:
                sources[head] = vocab.index(tail[0])
                gaps[head] = at[head] - tail[1]
        sources[fresh] = width
        gaps[fresh] = 0
        if fresh:
            start = min(at[fresh].tolist())
            if self.first_ns is None or start < self.first_ns:
                self.first_ns = start
        edge = sources * width + targets
        del sources, targets, at
        # One reduction per edge over the events sorted by edge key.
        by_edge = np.argsort(edge, kind="stable")
        edge, gaps = edge[by_edge], np.maximum(gaps[by_edge], 0)
        starts = np.flatnonzero(np.diff(edge, prepend=-1))
        firsts = np.minimum.reduceat(
            by_edge if order is None else order[by_edge], starts)
        for _, key, number, total, low, high in sorted(zip(
                firsts.tolist(), edge[starts].tolist(),
                np.diff(starts, append=n).tolist(),
                np.add.reduceat(gaps, starts).tolist(),
                np.minimum.reduceat(gaps, starts).tolist(),
                np.maximum.reduceat(gaps, starts).tolist())):
            source, target = divmod(key, width)
            pair = (START if source == width else vocab[source],
                    vocab[target])
            stats = self.edges.get(pair)
            if stats is None:
                stats = self.edges[pair] = EdgeStats()
                stats.gap_min_ns = low
            stats.count += number
            stats.gap_total_ns += total
            stats.gap_min_ns = min(stats.gap_min_ns, low)
            stats.gap_max_ns = max(stats.gap_max_ns, high)
        ends = np.append(heads[1:], n) - 1
        for name, end in zip(names, (ends if order is None
                                     else order[ends]).tolist()):
            self._chains[name] = [nodes[end], times[end]]
        self.events += n
        self.last_ns = max(self.last_ns, max(times))

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
        def counts(graph):
            return {edge: stats.count for edge, stats in graph.edges.items()}
        return tv_distance(counts(self), self.transitions,
                           counts(other), other.transitions)

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
                   name: str = "",
                   codes: Optional[tuple] = None) -> list[Phase]:
    """Split a time-ordered batch of events into behaviour phases.

    The stream is chopped into fixed-size windows, each one chain of
    edges from ``^``; a new phase starts whenever the TV distance
    between the running phase's edge counts and the next window's
    exceeds ``drift_threshold``, and otherwise the phase continues into
    the window (its chain runs on, so the joining transition counts
    instead of the window's ``^`` edge).  A final partial window under
    half the size is always taken in.  A window's edge counts are a
    slice of its step's transition keys, so no window builds a graph;
    ``codes`` is ``lane_codes`` of the ``syscall`` lane, if at hand.
    """
    if window_events <= 1:
        raise ValueError(f"window_events must be > 1: {window_events}")
    nodes = batch.values_for("syscall")
    times = times_of(batch.values_for("time"))
    n, (code, lane) = len(nodes), codes or lane_codes(nodes)
    width = len(code)                  # the code of ``^``
    step = max(1, STEP_ROWS // window_events) * window_events
    bounds: list = []                  # (first row, drift) per phase
    phase: Counter = Counter()
    total = 0
    for base in range(0, n, step):
        # into[r - start - 1]: the edge key of the transition into row r
        start, top = max(base - 1, 0), min(base + step, n)
        into = (lane[start:top - 1] * width + lane[start + 1:top]).tolist()
        for lo in range(base, top, window_events):
            size = min(window_events, n - lo)
            edges = Counter(into[lo - start:lo - start + size - 1])
            edges[width * width + int(lane[lo])] = 1        # from ``^``
            drift = tv_distance(phase, total, edges, size) if bounds else 0.0
            if not bounds or (drift > drift_threshold
                              and size >= window_events // 2):
                bounds.append((lo, drift))
                phase, total = edges, size
            else:       # the window continues the phase's chain
                phase.update(into[lo - start - 1:lo - start + size - 1])
                total += size
    phases = []
    for (lo, drift), (hi, _) in zip(bounds, bounds[1:] + [(n, None)]):
        graph = DirectlyFollowsGraph(name)
        for at in range(lo, hi, STEP_ROWS):     # no phase-long copy
            end = min(at + STEP_ROWS, hi)
            graph.observe_lanes(nodes[at:end], None, times[at:end],
                                (code, lane[at:end]))
        phases.append(Phase(graph.first_ns or 0, graph.last_ns,
                            graph.events, graph, drift))
    return phases


def mine_phases(store: DocumentStore, index: str = "dio_trace",
                session: Optional[str] = None,
                window_events: int = 64,
                drift_threshold: float = 0.4,
                view: Optional[SessionEvents] = None) -> list[Phase]:
    """Phase-segment one session's stream."""
    view = view or SessionEvents(store, index, session)
    return segment_phases(view, window_events, drift_threshold,
                          session or index, view.codes("syscall"))


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
    view = view or SessionEvents(store, index, session)
    graph = DirectlyFollowsGraph(session or index)
    graph.observe_lanes(view.values("syscall"), view.values("tid"),
                        view.times, view.codes("syscall"))
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
