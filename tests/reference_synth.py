"""Reference searches and cross-reference, kept as test oracles.

``dijkstra`` and ``bfs_levels`` are the searches as they were before dead
ends went unqueued: every node reached is queued and later settled.
``cross_reference`` is ``run_experiment``'s tally as it was before it
took each origin's corrupt hosts and deepest decreases once: for every
(pair, origin) entry it looks both endpoints up under (origin, host) keys,
builds the confusion key as a string and reads the entry's origin from the
outcome.  Its truths come from one search per pair on the reference
searches.  The differential tests compare ``edgedist.synth`` against this
module result for result.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush

from edgedist.model import PairEstimate
from edgedist.synth import PairResult, Simulator, SimOptions, _deepest_decrease
from edgedist.transit import HOST, EstimateOptions, batch_estimate


def dijkstra(adj, source):
    """Latency-shortest distances and predecessors (the smallest of tied
    ones) from ``source``, queueing every node reached."""
    dist = {source: 0.0}
    pred = {source: None}
    heap = [(0.0, source)]
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        for v, lat in adj[u]:
            nd = d + lat
            old = dist.get(v)
            if old is None or nd < old:
                dist[v] = nd
                pred[v] = u
                heappush(heap, (nd, v))
            elif nd == old and u < pred[v]:
                pred[v] = u
    return dist, pred


def bfs_levels(adj, source):
    """Hop distance from ``source`` to every node reached, queueing every
    node reached."""
    levels = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        level = levels[u] + 1
        for v, _ in adj[u]:
            if v not in levels:
                levels[v] = level
                queue.append(v)
    return levels


def cross_reference(topology, origins, pairs, options=SimOptions(),
                    est_options=EstimateOptions()):
    """``run_experiment``'s results, confusion counts and false RTT accepts,
    tallied entry by entry."""
    sim = Simulator(topology, options)
    targets = sorted({h for pair in pairs for h in pair})
    traces_by_origin = {}
    looped = set()
    for origin in origins:
        rows = []
        for host in targets:
            trace, loop_injected = sim.trace(origin, host)
            rows.append(trace)
            if loop_injected:
                looped.add((origin, host))
        traces_by_origin[origin] = rows
    outcomes, _ = batch_estimate(dict(traces_by_origin), pairs, est_options)
    adj = topology.adjacency()
    node = (lambda h: h) if est_options.mode == HOST else topology.host_attachment.__getitem__

    results = []
    false_rtt_accepts = 0
    confusion = dict.fromkeys(
        ("clean_accept", "clean_reject", "corrupt_accept", "corrupt_reject"), 0)
    decrease_at = {
        (origin, tr.destination): _deepest_decrease(tr)
        for origin, rows in traces_by_origin.items()
        for tr in rows
    }
    corrupt = looped.union(key for key, deepest in decrease_at.items() if deepest > 0)
    for (a, b), outcome in zip(pairs, outcomes):
        true_hop = bfs_levels(adj, node(a))[node(b)]
        true_lat = dijkstra(adj, node(a))[0][node(b)]
        hop_bound = None if outcome.best_hop is None else outcome.best_hop.hop_bound
        rtt_bound = None if outcome.best_rtt is None else outcome.best_rtt.rtt_bound_ms
        sound = not (hop_bound is not None and hop_bound < true_hop
                     or rtt_bound is not None and rtt_bound < 2 * true_lat - 1e-9)
        results.append(PairResult(
            pair=outcome.pair,
            true_hops=true_hop,
            true_one_way_ms=true_lat,
            best_hop_bound=hop_bound,
            best_rtt_bound=rtt_bound,
            sound=sound,
            tight_hop=hop_bound is not None and hop_bound == true_hop,
            tight_rtt=rtt_bound is not None and abs(rtt_bound - 2 * true_lat) < 1e-9,
        ))
        first, second = outcome.pair
        for origin, est in zip(outcome.origins, outcome.entries):
            corrupted = (origin, a) in corrupt or (origin, b) in corrupt
            accepted = isinstance(est, PairEstimate)
            key = ("corrupt" if corrupted else "clean") + ("_accept" if accepted else "_reject")
            confusion[key] += 1
            if accepted and (
                decrease_at[origin, first] >= max(est.index_a, 1)
                or decrease_at[origin, second] >= max(est.index_b, 1)
            ):
                false_rtt_accepts += 1
    return results, confusion, false_rtt_accepts
