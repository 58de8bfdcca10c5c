"""Synthetic-topology harness with a ground-truth oracle.

Generates graphs with known shortest paths, simulates traceroute over them
(including blocked nodes, reverse-path asymmetry and loop injection), and
cross-checks transit estimates against the truth.

All generated latencies are multiples of 0.25 ms so that path sums are exact
in binary floating point; simulated cumulative RTTs carry no rounding noise
unless jitter is switched on.
"""

from __future__ import annotations

import math
import random
from collections import deque, namedtuple
from heapq import heappop, heappush
from pathlib import Path

from .jsonl import write_jsonl
from .model import TracePath, _Value
from .transit import (
    HOST,
    EstimateOptions,
    PairEstimate,
    batch_estimate,
)

RING_OF_STARS = "ring_of_stars"
RANDOM_GEOMETRIC = "random_geometric"
TWO_TIER = "two_tier"

_QUANTUM = 0.25
_HOST_LATENCY = 0.5  # ms each way between a host and the router it hangs from
# sums of quanta are exact below this: 2**53 quanta, 2**51 ms
_EXACT_MS = 2.0 ** 53 * _QUANTUM
# the largest value of a count parameter: at it, each model builds within
# seconds (hub-and-leaf models hold hubs x leaves routers, and
# random_geometric checks n**2 / 2 distances on each of its retries, about
# 6 s for 400 disconnected draws of n=400, scaled from 0.09 s for 100 draws
# of n=100 on CPython 3.11, 2-core Xeon)
MAX_COUNT_PARAM = 400

# the parameters each generator reads
_MODEL_PARAMS = {
    RING_OF_STARS: ("cores", "leaves"),
    RANDOM_GEOMETRIC: ("n", "radius", "latency_scale", "retries"),
    TWO_TIER: ("regions", "leaves", "peering"),
}
# the parameters that count something: a whole number, however it is written
_COUNT_PARAMS = ("cores", "leaves", "n", "regions", "retries")


class Topology(_Value, namedtuple("Topology", "nodes edges host_attachment seed")):
    """Symmetric weighted graph: every arc has a reverse arc of equal latency.

    ``edges`` holds both arcs of each link.  ``nodes`` covers routers and
    hosts; hosts are the probe targets and are listed in ``host_attachment``
    with their access router.  A plain value with no cache: ``adjacency()``
    builds the adjacency on each call, so a caller that searches the graph
    more than once builds it once and passes it to each search.
    """

    __slots__ = ()
    __hash__ = None  # it holds dicts

    def __new__(cls, nodes: tuple[str, ...], edges: dict[tuple[str, str], float],
                host_attachment: dict[str, str], seed: int = 0):
        for (u, v), lat in edges.items():
            if lat <= 0:
                raise ValueError(f"non-positive latency on arc {u}->{v}")
            if edges.get((v, u)) != lat:
                raise ValueError(f"arc {u}->{v} has no reverse arc of latency {lat!r}")
        return tuple.__new__(cls, (nodes, edges, host_attachment, seed))

    @property
    def hosts(self) -> list[str]:
        return sorted(self.host_attachment)

    @property
    def routers(self) -> list[str]:
        return [n for n in self.nodes if n not in self.host_attachment]

    def adjacency(self) -> dict[str, list[tuple[str, float]]]:
        """Each node's (neighbour, latency) arcs, in ``edges`` order."""
        adj = {n: [] for n in self.nodes}
        for (u, v), lat in self.edges.items():
            adj[u].append((v, lat))
        return adj


def dijkstra(
    adj: dict[str, list[tuple[str, float]]], source: str
) -> tuple[dict[str, float], dict[str, str | None]]:
    """Latency-shortest distances from ``source`` over the adjacency
    ``adj`` (as ``Topology.adjacency`` builds it) plus a deterministic
    predecessor tree (ties resolved toward the lexicographically smallest
    predecessor).

    A dead end, a node whose one arc leads back to the node that reached
    it (every host is one), is never queued: settling it would only find
    that arc longer than its tail's distance.  It still gets its distance
    and predecessor, and its place in both dicts, when that tail settles.
    """
    dist: dict[str, float] = {source: 0.0}
    pred: dict[str, str | None] = {source: None}
    heap: list[tuple[float, str]] = [(0.0, source)]
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue  # superseded by a shorter entry, already settled
        for v, lat in adj[u]:
            nd = d + lat
            old = dist.get(v)
            if old is None or nd < old:
                dist[v] = nd
                pred[v] = u
                # on a symmetric graph a node of one arc is reached only over it
                if len(adj[v]) > 1:
                    heappush(heap, (nd, v))
            elif nd == old and u < pred[v]:
                # latencies are positive, so v != source and pred[v] is a node
                pred[v] = u
    return dist, pred


def extract_path(pred: dict[str, str | None], target: str) -> list[str]:
    path = [target]
    while pred.get(path[-1]) is not None:
        path.append(pred[path[-1]])
    path.reverse()
    return path


def true_distance(topology: Topology, a: str, b: str) -> tuple[int, float]:
    """Hop count and one-way latency of the latency-shortest path a -> b."""
    if a == b:
        return 0, 0.0
    dist, pred = dijkstra(topology.adjacency(), a)
    if b not in dist:
        raise ValueError(f"{b} unreachable from {a}")
    return len(extract_path(pred, b)) - 1, dist[b]


def min_hop_distance(topology: Topology, a: str, b: str) -> int:
    """Unweighted shortest hop distance (BFS oracle)."""
    if a == b:
        return 0
    levels = _bfs_levels(topology.adjacency(), a)
    if b not in levels:
        raise ValueError(f"{b} unreachable from {a}")
    return levels[b]


def _bfs_levels(adj: dict[str, list[tuple[str, float]]], source: str) -> dict[str, int]:
    """Unweighted hop distance from ``source`` to every node reachable over
    the adjacency ``adj`` (as ``Topology.adjacency`` builds it).  A dead
    end (see ``dijkstra``) gets its level, in the same dict order, but is
    never queued."""
    levels = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        level = levels[u] + 1
        for v, _ in adj[u]:
            if v not in levels:
                levels[v] = level
                if len(adj[v]) > 1:
                    queue.append(v)
    return levels


def _fold(
    adj: dict[str, list[tuple[str, float]]], source: str
) -> tuple[str, int, float, dict[str, tuple[int, float]]]:
    """The branch node whose searches serve ``source``, the hops and latency
    from ``source`` to it, and the (hops, latency) from ``source`` of the
    nodes those searches would reach the wrong way round.

    A pendant node, one whose arcs lead to exactly one node that is not a
    dead end (see ``dijkstra``), reaches every node past that neighbour
    through it, one hop and the arc's latency further than the neighbour
    does.  The fold repeats from the neighbour, so a host folds to its
    leaf and then to its hub, and stops at a node that is not pendant or
    whose one such neighbour is already on the chain (two routers joined
    only to each other).  The chain's nodes and their dead ends, the
    source among them, are measured along the chain instead.
    """
    node, hops, latency = source, 0, 0.0
    local: dict[str, tuple[int, float]] = {}
    while True:
        local[node] = (hops, latency)
        onward = []
        for v, lat in adj[node]:
            if len(adj[v]) > 1:
                onward.append((v, lat))
            else:
                local.setdefault(v, (hops + 1, latency + lat))
        if len(onward) != 1 or onward[0][0] in local:
            return node, hops, latency, local
        (node, lat), = onward
        hops, latency = hops + 1, latency + lat


def _pair_truths(
    topology: Topology, node_pairs: list[tuple[str, str]]
) -> tuple[list[int], list[float]]:
    """min_hop_distance and true_distance's latency for every node pair.

    Builds the adjacency once, folds each distinct source to its branch
    node (``_fold``: a leaf router to its hub, a host to its leaf's hub),
    runs one BFS and one Dijkstra per distinct branch node and holds only
    the current branch's searches.  A pair's truth is the branch's to the
    target plus the fold's hops and latency, unless the fold measured the
    target itself.  That sum equals a search from the source bit for bit:
    latencies are multiples of 0.25 ms, and below ``_EXACT_MS`` their sums
    are exact in any order.  Neither search queues a dead end, so the
    hosts, a dead end each in every model, get their distances without
    ever being settled.
    """
    adj = topology.adjacency()
    folds: dict[str, tuple[str, int, float, dict[str, tuple[int, float]]]] = {}
    by_branch: dict[str, list[int]] = {}
    for i, (a, _) in enumerate(node_pairs):
        if a not in folds:
            folds[a] = _fold(adj, a)
        by_branch.setdefault(folds[a][0], []).append(i)
    hops: list[int | None] = [None] * len(node_pairs)
    latencies = [0.0] * len(node_pairs)
    for branch, indices in by_branch.items():
        levels = _bfs_levels(adj, branch)
        dist, _ = dijkstra(adj, branch)
        for i in indices:
            a, b = node_pairs[i]
            _, hop, latency, local = folds[a]
            if b in local:
                hops[i], latencies[i] = local[b]
            elif b in levels:
                hops[i] = hop + levels[b]
                latencies[i] = latency + dist[b]
    for (a, b), h in zip(node_pairs, hops):
        if h is None:
            raise ValueError(f"{b} unreachable from {a}")
    return hops, latencies


# ---------------------------------------------------------------------------
# generators


def _quantize(value: float) -> float:
    return max(_QUANTUM, round(value / _QUANTUM) * _QUANTUM)


def _symmetric_edge(edges, u, v, latency):
    edges[(u, v)] = latency
    edges[(v, u)] = latency


def _attach_hosts(edges, attachment, leaf_nodes):
    for node in leaf_nodes:
        host = f"{node}.h"
        _symmetric_edge(edges, node, host, _HOST_LATENCY)
        attachment[host] = node


def generate_topology(model: str, params: dict | None = None, seed: int = 0) -> Topology:
    """Deterministic topology generation; latencies symmetric per arc pair.

    Models: ``random_geometric`` (unit-square placement, radius
    connectivity, distance latencies; a disconnected draw is retried
    internally) and two hub-and-leaf models, which ``_hub_and_leaf``
    builds: ``ring_of_stars`` (a ring of cores, a star of leaves on each)
    and ``two_tier`` (a ring of regional transits over leaf access
    routers, optional peering shortcuts).
    """
    params = dict(params or {})
    if model not in _MODEL_PARAMS:
        raise ValueError(f"unknown topology model {model!r}")
    for key, value in params.items():
        if key not in _MODEL_PARAMS[model]:
            raise ValueError(f"{model} has no parameter {key!r}")
        if key in _COUNT_PARAMS:
            if value != int(value):
                raise ValueError(f"{model} parameter {key}={value!r} is not a whole number")
            if value > MAX_COUNT_PARAM:
                raise ValueError(f"{model} parameter {key}={value!r} is above {MAX_COUNT_PARAM}")
    rng = random.Random(seed)
    if model == RANDOM_GEOMETRIC:
        n = int(params.get("n", 50))
        if n < 2:
            raise ValueError("random_geometric needs n >= 2")
        retries = int(params.get("retries", 50))
        if retries < 1:
            raise ValueError("random_geometric needs retries >= 1")
        radius = params.get("radius", (2.0 / n) ** 0.5 * 1.6)
        scale = params.get("latency_scale", 20.0)
        for key, value in (("radius", radius), ("latency_scale", scale)):
            if not value > 0:
                raise ValueError(f"random_geometric parameter {key}={value!r} is not above 0")
        for _ in range(retries):
            topo = _random_geometric(n, float(radius), float(scale), rng, seed)
            if topo is not None:
                return topo
        raise ValueError(
            f"random_geometric stayed disconnected after {retries} retries"
        )
    if model == RING_OF_STARS:
        hubs, leaves = int(params.get("cores", 4)), int(params.get("leaves", 3))
        if hubs < 1 or leaves < 1:
            raise ValueError("ring_of_stars needs cores >= 1 and leaves >= 1")
        return _hub_and_leaf(rng, seed, hubs, leaves, ("C", "L"), (4, 12), (2, 8))
    hubs, leaves = int(params.get("regions", 4)), int(params.get("leaves", 5))
    if hubs < 1 or leaves < 1:
        raise ValueError("two_tier needs regions >= 1 and leaves >= 1")
    peering = params.get("peering", 0)
    if peering not in (0, 1):
        raise ValueError(f"two_tier parameter peering={peering!r} is not 0 or 1")
    return _hub_and_leaf(rng, seed, hubs, leaves, ("T", "A"), (8, 24), (4, 12),
                         peering=bool(peering))


def _hub_and_leaf(rng, seed, hubs, leaves, prefixes, hub_steps, leaf_steps,
                  peering=False) -> Topology:
    """A ring of ``hubs`` hubs (a path when there are at most two), with
    ``leaves`` leaf routers under each hub and a host on each leaf.

    Hub i is ``<hub prefix>i`` and its leaf j ``<hub prefix>i<leaf prefix>j``.
    A ring arc's latency is ``hub_steps`` quanta and a hub-to-leaf arc's
    ``leaf_steps``, each drawn as ``rng.randint(lo, hi)``: the ring arcs
    first, then hub by hub its leaf arcs.  ``peering`` chains each hub's
    leaves with 0.5 ms arcs and links the first leaves of consecutive hubs
    (2 to 6 quanta, drawn after the later hub's leaf arcs).
    """
    hub_prefix, leaf_prefix = prefixes
    edges: dict[tuple[str, str], float] = {}
    hub_nodes = [f"{hub_prefix}{i}" for i in range(hubs)]
    ring = list(zip(hub_nodes, hub_nodes[1:]))
    if hubs > 2:
        ring.append((hub_nodes[-1], hub_nodes[0]))
    for u, v in ring:
        _symmetric_edge(edges, u, v, rng.randint(*hub_steps) * _QUANTUM)
    leaf_nodes = []
    for i, hub in enumerate(hub_nodes):
        hub_leaves = [f"{hub}{leaf_prefix}{j}" for j in range(leaves)]
        for leaf in hub_leaves:
            _symmetric_edge(edges, hub, leaf, rng.randint(*leaf_steps) * _QUANTUM)
        if peering:
            # local shortcuts between neighboring access routers
            for a, b in zip(hub_leaves, hub_leaves[1:]):
                _symmetric_edge(edges, a, b, _QUANTUM * 2)
            if i > 0:
                _symmetric_edge(edges, f"{hub_nodes[i - 1]}{leaf_prefix}0", hub_leaves[0],
                                rng.randint(2, 6) * _QUANTUM)
        leaf_nodes += hub_leaves
    attachment: dict[str, str] = {}
    _attach_hosts(edges, attachment, leaf_nodes)
    nodes = tuple(hub_nodes + leaf_nodes + sorted(attachment))
    return Topology(nodes=nodes, edges=edges, host_attachment=attachment, seed=seed)


def _random_geometric(n, radius, scale, rng, seed) -> Topology | None:
    names = [f"N{i:03d}" for i in range(n)]
    pos = {name: (rng.random(), rng.random()) for name in names}
    edges: dict[tuple[str, str], float] = {}
    for i, u in enumerate(names):
        for v in names[i + 1:]:
            dx = pos[u][0] - pos[v][0]
            dy = pos[u][1] - pos[v][1]
            d = (dx * dx + dy * dy) ** 0.5
            if d <= radius:
                # capped to stay finite, and refused below
                _symmetric_edge(edges, u, v, _quantize(min(d * scale, _EXACT_MS)))
    attachment: dict[str, str] = {}
    _attach_hosts(edges, attachment, names)
    # both arcs of every link: no path's round trip is longer
    if not sum(edges.values()) < _EXACT_MS:
        raise ValueError(f"random_geometric parameter latency_scale={scale!r} is too large: "
                         "a round trip over every link must stay below 2**51 ms, where sums "
                         "of 0.25 ms steps are exact")
    nodes = tuple(names + sorted(attachment))
    topo = Topology(nodes=nodes, edges=edges, host_attachment=attachment, seed=seed)
    # each router has a host of its own, so this is connected iff the routers are
    return topo if len(_bfs_levels(topo.adjacency(), names[0])) == len(nodes) else None


# ---------------------------------------------------------------------------
# traceroute simulation


class SimOptions(_Value, namedtuple("SimOptions", "block_probability asymmetry_probability "
                                    "asymmetry_delta_ms loop_probability rtt_jitter_ms seed")):
    __slots__ = ()

    def __new__(cls, block_probability: float = 0.0, asymmetry_probability: float = 0.0,
                asymmetry_delta_ms: float = 50.0, loop_probability: float = 0.0,
                rtt_jitter_ms: float = 0.0, seed: int = 0):
        self = tuple.__new__(cls, (block_probability, asymmetry_probability,
                                   asymmetry_delta_ms, loop_probability, rtt_jitter_ms, seed))
        for name in ("block_probability", "asymmetry_probability", "loop_probability"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        for name in ("asymmetry_delta_ms", "rtt_jitter_ms"):
            ms = getattr(self, name)
            if not 0 <= ms < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {ms}")
        # a hop's RTT may carry both on top of its path's round trip
        if asymmetry_delta_ms + rtt_jitter_ms == math.inf:
            raise ValueError(f"asymmetry_delta_ms + rtt_jitter_ms must be finite, "
                             f"got {asymmetry_delta_ms!r} + {rtt_jitter_ms!r}")
        return self


def _node_flag(seed: int, tag: str, node: str, probability: float) -> bool:
    if probability <= 0.0:
        return False
    return random.Random(f"{seed}:{tag}:{node}").random() < probability


class Simulator:
    """Traceroute simulator over one topology, one shortest-path tree per
    origin.

    Every route follows the origin's tree, and on a symmetric graph the way
    back is as long as the way out, so hop i's cumulative RTT is twice the
    tree latency of its node.  A node carrying the asymmetry delta adds it
    to its return leg, which can yield the decreasing cumulative RTTs real
    asymmetric routes show.  The random stream is split per node and per
    trace from the master seed, so results are schedule-independent.
    """

    def __init__(self, topology: Topology, options: SimOptions = SimOptions()):
        self.topology = topology
        self.options = options
        self._adjacency = topology.adjacency()
        self._trees: dict[str, tuple[dict, dict]] = {}
        routers = set(topology.routers)
        self.blocked = {
            n for n in routers
            if _node_flag(options.seed, "block", n, options.block_probability)
        }
        self.asymmetric = {
            n for n in routers
            if _node_flag(options.seed, "asym", n, options.asymmetry_probability)
        }

    def trace(self, origin: str, target_host: str) -> tuple[TracePath, bool]:
        """The simulated trace, and whether a loop was injected into it."""
        opts = self.options
        if origin not in self._trees:
            self._trees[origin] = dijkstra(self._adjacency, origin)
        dist, pred = self._trees[origin]
        if target_host not in dist:
            return TracePath(origin, target_host, (), (), reached=False), False
        route = extract_path(pred, target_host)
        rng = random.Random(f"{opts.seed}:trace:{origin}:{target_host}")
        addresses, rtts = [], []
        for node in route[1:]:
            if node in self.blocked and node != target_host:
                addresses.append(None)
                rtts.append(None)
                continue
            rtt = 2 * dist[node]
            if node in self.asymmetric:
                rtt += opts.asymmetry_delta_ms
            if opts.rtt_jitter_ms > 0:
                rtt = max(0.0, rtt + rng.uniform(-opts.rtt_jitter_ms, opts.rtt_jitter_ms))
                rtt = round(rtt, 6)
            addresses.append(node)
            rtts.append(rtt)
        loop_injected = False
        if opts.loop_probability > 0 and len(rtts) >= 3 and rng.random() < opts.loop_probability:
            responsive = [a for a in addresses[:-1] if a is not None]
            if responsive:
                dup = rng.choice(responsive)
                insert_rtt = max((r for r in rtts[:-1] if r is not None), default=0.0) + _QUANTUM
                final_rtt = rtts[-1]
                addresses.insert(-1, dup)
                rtts[-1:] = [insert_rtt, None if final_rtt is None else max(final_rtt, insert_rtt)]
                loop_injected = True
        trace = TracePath(origin, target_host, tuple(addresses), tuple(rtts), reached=True)
        return trace, loop_injected


# ---------------------------------------------------------------------------
# end-to-end experiment harness


class PairResult(_Value, namedtuple("PairResult", "pair true_hops true_one_way_ms best_hop_bound "
                                    "best_rtt_bound sound tight_hop tight_rtt")):
    """One pair's truth beside its best bounds (None when not accepted)."""

    __slots__ = ()
    __hash__ = None  # compared, never a key


class ExperimentReport(_Value, namedtuple(
        "ExperimentReport", "results stats traces_by_origin soundness_violations tight_hits "
        "confusion false_rtt_accepts")):
    """``traces_by_origin`` holds one trace per target host and origin, and
    ``confusion`` counts (origin, pair) entries by clean or corrupt trace
    and accept or reject."""

    __slots__ = ()
    __hash__ = None  # it holds lists and dicts

    def lines(self) -> list[str]:
        lines = [
            "pair_a\tpair_b\ttrue_hops\ttrue_one_way_ms\thop_bound\trtt_bound_ms\tsound\ttight_hop\ttight_rtt"
        ]
        for r in self.results:
            (a, b), hop, rtt = r.pair, r.best_hop_bound, r.best_rtt_bound
            lines.append(f"{a}\t{b}\t{r.true_hops}\t{r.true_one_way_ms!r}\t"
                         f"{'-' if hop is None else hop}\t{'-' if rtt is None else repr(rtt)}\t"
                         f"{'01'[r.sound]}\t{'01'[r.tight_hop]}\t{'01'[r.tight_rtt]}")
        lines.append("")
        lines.append(f"# pairs={self.stats.total_pairs} succeeded={self.stats.succeeded} "
                     f"success_ratio={self.stats.success_ratio:.4f}")
        lines.append(f"# soundness_violations={self.soundness_violations} "
                     f"tight_hits={self.tight_hits} false_rtt_accepts={self.false_rtt_accepts}")
        for key in sorted(self.confusion):
            lines.append(f"# confusion.{key}={self.confusion[key]}")
        for kind in sorted(self.stats.reject_counts):
            lines.append(f"# reject.{kind}={self.stats.reject_counts[kind]}")
        return lines


def _endpoint_node(topology: Topology, host: str, mode: str) -> str:
    if mode == HOST:
        return host
    return topology.host_attachment[host]


def run_experiment(
    topology: Topology,
    origins: list[str],
    pairs: list[tuple[str, str]],
    options: SimOptions = SimOptions(),
    est_options: EstimateOptions = EstimateOptions(),
) -> ExperimentReport:
    """Simulate traces from every origin to every pair endpoint, estimate the
    pairs, and cross-reference each outcome with oracle truth.

    Hop bounds do not undercut the truth, with or without blocking, loops
    and return-leg asymmetry (acceptance criterion 1 checks both): a loop
    back to the transit or through the access router is rejected, and a
    silent access router stays the endpoint.  RTT jitter can put an RTT
    bound below the truth, and ``soundness_violations`` counts that pair too.

    The truths come from ``_pair_truths``, one BFS and one Dijkstra per
    branch router (in the hub-and-leaf models, per hub) rather than per
    pair source; they are exact because every path sum is.

    The cross-reference marks each host's corrupt traces (a loop injected
    into, or a decreasing RTT in, the trace to it) in one bitmask, bit i
    for the i-th origin of the ``origins`` tuple that every outcome shares,
    and keeps each origin's deepest decreases.  A pair's corrupt entries
    are the set bits of its two hosts' masks, counted by ``int.bit_count``;
    its accepts come from the batch's reject totals.  An accept can be a
    false RTT accept only where a trace decreases, so only the corrupt
    entries are walked, and each accepted one is checked.
    """
    sim = Simulator(topology, options)
    targets = sorted({h for pair in pairs for h in pair})
    traces_by_origin: dict[str, list[TracePath]] = {}
    looped: dict[str, set[str]] = {}
    for origin in origins:
        rows = []
        looped[origin] = set()
        for host in targets:
            trace, loop_injected = sim.trace(origin, host)
            rows.append(trace)
            if loop_injected:
                looped[origin].add(host)
        traces_by_origin[origin] = rows

    # the report keeps the traces, which the batch would empty
    outcomes, stats = batch_estimate(dict(traces_by_origin), pairs, est_options)
    true_hops, true_lats = _pair_truths(
        topology,
        [
            (_endpoint_node(topology, a, est_options.mode),
             _endpoint_node(topology, b, est_options.mode))
            for a, b in pairs
        ],
    )

    # bit i of a host's mask: its trace from shared[i] is corrupt
    shared = outcomes[0].origins if outcomes else ()
    corrupt: dict[str, int] = {}
    deepest_by_origin = []
    for i, origin in enumerate(shared):
        deepest = {}
        for tr in traces_by_origin[origin]:
            depth = _deepest_decrease(tr)
            if depth:
                deepest[tr.destination] = depth
        bit = 1 << i
        for host in looped[origin].union(deepest):
            corrupt[host] = corrupt.get(host, 0) | bit
        deepest_by_origin.append(deepest)
    set_bits: dict[int, tuple[int, ...]] = {}

    results = []
    violations = 0
    tight_hits = 0
    false_rtt_accepts = 0
    corrupt_accepts = corrupt_entries = 0
    for outcome, true_hop, true_lat in zip(outcomes, true_hops, true_lats):
        best_hop, best_rtt = outcome.best_hop, outcome.best_rtt
        hop_bound = None if best_hop is None else best_hop.hop_bound
        rtt_bound = None if best_rtt is None else best_rtt.rtt_bound_ms
        sound = not (hop_bound is not None and hop_bound < true_hop
                     or rtt_bound is not None and rtt_bound < 2 * true_lat - 1e-9)
        if not sound:
            violations += 1
        tight_hop = hop_bound is not None and hop_bound == true_hop
        if tight_hop:
            tight_hits += 1
        tight_rtt = rtt_bound is not None and abs(rtt_bound - 2 * true_lat) < 1e-9
        pair = outcome.pair
        results.append(PairResult(pair, true_hop, true_lat, hop_bound, rtt_bound,
                                  sound, tight_hop, tight_rtt))
        # the transit's indices follow the outcome's canonical pair order
        first, second = pair
        mask = corrupt.get(first, 0) | corrupt.get(second, 0)
        if not mask:
            continue
        corrupt_entries += mask.bit_count()
        bits = set_bits.get(mask)
        if bits is None:
            bits = set_bits[mask] = tuple(i for i in range(len(shared)) if mask >> i & 1)
        entries = outcome.entries
        for i in bits:
            est = entries[i]
            if type(est) is PairEstimate:
                corrupt_accepts += 1
                deepest = deepest_by_origin[i]
                if (deepest.get(first, 0) >= max(est.index_a, 1)
                        or deepest.get(second, 0) >= max(est.index_b, 1)):
                    false_rtt_accepts += 1
    # every entry the batch did not tally as a reject is an accept
    total = len(shared) * len(outcomes)
    clean_accepts = total - sum(stats.reject_counts.values()) - corrupt_accepts
    clean_entries = total - corrupt_entries
    return ExperimentReport(
        results=results,
        stats=stats,
        traces_by_origin=traces_by_origin,
        soundness_violations=violations,
        tight_hits=tight_hits,
        confusion={
            "clean_accept": clean_accepts,
            "clean_reject": clean_entries - clean_accepts,
            "corrupt_accept": corrupt_accepts,
            "corrupt_reject": corrupt_entries - corrupt_accepts,
        },
        false_rtt_accepts=false_rtt_accepts,
    )


def _deepest_decrease(trace: TracePath) -> int:
    """Deepest position whose cumulative RTT exceeds that of the next
    RTT-bearing hop, 0 if there is none: the tail from transit position
    ``start`` decreases exactly when this is at least ``max(start, 1)``.

    An independent re-scan, not ``transit``'s validator, so accepted
    estimates can be cross-checked against it.
    """
    deepest = 0
    prev_pos = prev_rtt = None
    for pos, rtt in enumerate(trace.rtts, start=1):
        if rtt is None:
            continue
        if prev_rtt is not None and rtt < prev_rtt:
            deepest = prev_pos
        prev_pos, prev_rtt = pos, rtt
    return deepest


# ---------------------------------------------------------------------------
# persistence


def save_topology(topology: Topology, path: str | Path) -> None:
    write_jsonl(path, [
        {"type": "meta", "seed": topology.seed},
        *({"type": "node", "id": node} for node in topology.nodes),
        *({"type": "arc", "from": u, "to": v, "latency_ms": lat}
          for (u, v), lat in sorted(topology.edges.items())),
        *({"type": "attach", "host": host, "router": router}
          for host, router in sorted(topology.host_attachment.items())),
    ])

