"""A directly-follows graph in full, as the DFG tests compare graphs,
and the per-event DFG bodies the array computation replaced.

A graph's ``fingerprint`` (what a report prints) holds its nodes and
edge counts; :func:`graph_as_dict` adds every edge's inter-arrival gap
statistics and the graph's time window, so two graphs that took
different paths to the same transitions compare equal only if every
field the transition computation maintains agrees.
"""

from collections import Counter
from itertools import repeat

from repro.analysis.dfg import START, DirectlyFollowsGraph, EdgeStats, Phase
from repro.analysis.session import times_of


def edge_as_dict(stats):
    """One edge in full: count and inter-arrival gap statistics."""
    return {
        "count": stats.count,
        "gap_mean_ns": round(stats.gap_total_ns / stats.count
                             if stats.count else 0.0, 1),
        "gap_min_ns": stats.gap_min_ns or 0,
        "gap_max_ns": stats.gap_max_ns,
    }


def graph_as_dict(graph):
    """A graph in full — its fingerprint, every edge's statistics and
    its time window — the form the DFG oracles compare graphs by."""
    out = graph.fingerprint()
    out["edge_stats"] = {f"{src}->{dst}": edge_as_dict(stats)
                         for (src, dst), stats in sorted(graph.edges.items())}
    out["window"] = {"start_ns": graph.first_ns or 0,
                     "end_ns": graph.last_ns}
    return out


def observe(graph, batch, per_thread=False):
    """Feed a batch of events to ``graph`` in stream order — one chain
    per TID with ``per_thread``, else one chain — and return their
    nodes, in order (the batch's own ``syscall`` lane)."""
    nodes = batch.values_for("syscall")
    graph.observe_lanes(
        nodes, batch.values_for("tid") if per_thread else None,
        times_of(batch.values_for("time")))
    return nodes


# ----------------------------------------------------------------------
# The per-event transition loop and the window-absorbing phases, as
# they were before both became array arithmetic.

class LoopGraph(DirectlyFollowsGraph):
    """``DirectlyFollowsGraph`` whose ``observe_lanes`` is the
    per-event loop it replaced: one chain lookup, one edge lookup and
    one gap update per event."""

    def __init__(self, name=""):
        super().__init__(name)
        self.following = {}

    def observe_lanes(self, nodes, chains, times, codes=None):
        if not nodes:
            return
        for node, count in Counter(nodes).items():
            self.node_counts[node] = self.node_counts.get(node, 0) + count
        keys = self._chains
        for node, chain, time_ns in zip(
                nodes, repeat(None) if chains is None else chains, times):
            prev = keys.get(chain)
            if prev is None:
                keys[chain] = [node, time_ns]
                if self.first_ns is None or time_ns < self.first_ns:
                    self.first_ns = time_ns
                source, gap = START, 0
            else:
                source = prev[0]
                gap = max(time_ns - prev[1], 0)
                prev[0], prev[1] = node, time_ns
            targets = self.following.setdefault(source, {})
            stats = targets.get(node)
            if stats is None:
                stats = targets[node] = self.edges[source, node] = EdgeStats()
                stats.gap_min_ns = gap
            stats.count += 1
            stats.gap_total_ns += gap
            stats.gap_min_ns = min(stats.gap_min_ns, gap)
            stats.gap_max_ns = max(stats.gap_max_ns, gap)
        self.events += len(nodes)
        self.last_ns = max(self.last_ns, max(times))

    def absorb(self, later):
        """Continue this one-chain graph with the one-chain graph of
        the events that follow, as if they had been fed here."""
        (prev,) = self._chains.values()
        for edge, stats in later.edges.items():
            if edge[0] == START:
                edge = (prev[0], edge[1])
                gap = max(later.first_ns - prev[1], 0)
                stats.gap_total_ns = stats.gap_min_ns = stats.gap_max_ns = gap
            into = self.edges.get(edge)
            if into is None:
                self.edges[edge] = stats
                self.following.setdefault(edge[0], {})[edge[1]] = stats
                continue
            into.count += stats.count
            into.gap_total_ns += stats.gap_total_ns
            into.gap_min_ns = min(into.gap_min_ns, stats.gap_min_ns)
            into.gap_max_ns = max(into.gap_max_ns, stats.gap_max_ns)
        for node, count in later.node_counts.items():
            self.node_counts[node] = self.node_counts.get(node, 0) + count
        self.events += later.events
        self.last_ns = max(self.last_ns, later.last_ns)
        (self._chains[None],) = later._chains.values()


def loop_segment_phases(batch, window_events=64, drift_threshold=0.4,
                        name=""):
    """``segment_phases`` as it was: one graph per window through the
    loop, a phase absorbing each window it does not split at."""
    nodes = batch.values_for("syscall")
    times = times_of(batch.values_for("time"))
    phases, current, prev_drift = [], None, 0.0
    for lo in range(0, len(nodes), window_events):
        hi = min(lo + window_events, len(nodes))
        incoming = LoopGraph(name)
        incoming.observe_lanes(nodes[lo:hi], None, times[lo:hi])
        if current is None:
            current = incoming
            continue
        drift = current.distance(incoming)
        if drift > drift_threshold and hi - lo >= window_events // 2:
            phases.append(Phase(current.first_ns or 0, current.last_ns,
                                current.events, current, prev_drift))
            current, prev_drift = incoming, drift
        else:
            current.absorb(incoming)
    if current is not None:
        phases.append(Phase(current.first_ns or 0, current.last_ns,
                            current.events, current, prev_drift))
    return phases
