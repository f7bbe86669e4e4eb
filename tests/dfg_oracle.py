"""A directly-follows graph in full, as the DFG tests compare graphs.

A graph's ``fingerprint`` (what a report prints) holds its nodes and
edge counts; :func:`graph_as_dict` adds every edge's inter-arrival gap
statistics and the graph's time window, so two graphs that took
different paths to the same transitions compare equal only if every
field the transition loop maintains agrees.
"""


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
