"""Seeded synthetic campaign generator for the benchmark.

Stdlib only, and deliberately independent of ``edgedist``: for a given
workload and seed the inputs are byte-identical on every commit of the
program under test.  A campaign is a two-tier topology (a ring of regional
transit routers, each with a star of access routers, one host per access
router), a set of origin routers, and one classic traceroute text file per
origin covering every host.  Ground truth is the benchmark's own BFS and
Dijkstra over the same topology.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

QUANTUM = 0.25
HOST_LATENCY = 0.5
MAX_PERSIST_HOP = 128


@dataclass(frozen=True)
class Faults:
    """Fault shapes injected into the rendered traceroute text.

    Blocking is drawn once per router and asymmetry once per (origin,
    router), since it is a property of the reverse path back to the origin;
    the rest per trace, hop, probe or line, all from the campaign seed.
    """

    loops: float = 0.0  # per trace: an earlier hop repeats before the host
    asymmetry: float = 0.0  # per (origin, router): reverse leg inflated by delta_ms
    delta_ms: float = 0.0
    block: float = 0.0  # per router: never answers ("* * *")
    jitter_ms: float = 0.0  # per probe, uniform in [-jitter, +jitter]
    probe_loss: float = 0.0  # per probe: "*" in place of a reply
    multi_responder: float = 0.0  # per hop: a sibling answers one probe
    annotate: float = 0.0  # per trace: "!H" after the host's last probe
    garbage: float = 0.0  # per line: an unparseable line follows
    names: bool = True  # reverse-DNS names next to addresses


@dataclass
class Topology:
    nodes: list[str]
    edges: dict[tuple[str, str], float]  # symmetric: both arcs present
    attachment: dict[str, str]  # host -> access router
    address: dict[str, str] = field(default_factory=dict)

    def adjacency(self) -> dict[str, list[tuple[str, float]]]:
        adj: dict[str, list[tuple[str, float]]] = {n: [] for n in self.nodes}
        for (u, v), lat in sorted(self.edges.items()):
            adj[u].append((v, lat))
        return adj

    @property
    def hosts(self) -> list[str]:
        return sorted(self.attachment)

    @property
    def routers(self) -> list[str]:
        return [n for n in self.nodes if n not in self.attachment]

    def to_json(self) -> dict:
        return {
            "nodes": self.nodes,
            "arcs": [[u, v, lat] for (u, v), lat in sorted(self.edges.items())],
            "attachment": dict(sorted(self.attachment.items())),
            "address": dict(sorted(self.address.items())),
        }



def _link(edges, u, v, latency):
    edges[(u, v)] = latency
    edges[(v, u)] = latency


def two_tier(regions: int, leaves: int, rng: random.Random) -> Topology:
    """Ring of ``regions`` transit routers, ``leaves`` access routers per
    region and one host per access router; latencies are multiples of
    QUANTUM so path sums are exact."""
    edges: dict[tuple[str, str], float] = {}
    transits = [f"T{i}" for i in range(regions)]
    for i in range(1, regions):
        _link(edges, transits[i - 1], transits[i], rng.randint(8, 24) * QUANTUM)
    if regions > 2:
        _link(edges, transits[-1], transits[0], rng.randint(8, 24) * QUANTUM)
    access = []
    attachment = {}
    for i, transit in enumerate(transits):
        for j in range(leaves):
            leaf = f"T{i}A{j}"
            access.append(leaf)
            _link(edges, transit, leaf, rng.randint(4, 12) * QUANTUM)
            host = f"{leaf}.h"
            _link(edges, leaf, host, HOST_LATENCY)
            attachment[host] = leaf
    nodes = transits + access + sorted(attachment)
    address = {}
    for k, node in enumerate(transits + access, start=1):
        address[node] = f"10.{k >> 16}.{(k >> 8) & 255}.{k & 255}"
    for k, host in enumerate(sorted(attachment), start=1):
        address[host] = f"172.{16 + (k >> 16)}.{(k >> 8) & 255}.{k & 255}"
    return Topology(nodes=nodes, edges=edges, attachment=attachment, address=address)


def dijkstra(adj, source: str) -> tuple[dict[str, float], dict[str, str | None]]:
    """Latency-shortest distances and a predecessor tree whose ties go to
    the smallest predecessor name, so routes are deterministic."""
    dist = {source: 0.0}
    pred: dict[str, str | None] = {source: None}
    heap = [(0.0, source)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, lat in adj[u]:
            nd = d + lat
            if v not in dist or nd < dist[v] or (nd == dist[v] and u < pred[v]):
                dist[v] = nd
                pred[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, pred


def bfs_hops(adj, source: str) -> dict[str, int]:
    seen = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v, _ in adj[u]:
            if v not in seen:
                seen[v] = seen[u] + 1
                queue.append(v)
    return seen


class Truth:
    """True hop count (BFS) and one-way latency (Dijkstra) between routers.

    Edges are symmetric.  A router whose only neighbours besides hosts is a
    single router ``p`` (an access router) reaches every other router
    through ``p``, so queries are answered from one search per such anchor
    instead of one per router.
    """

    def __init__(self, topology: Topology):
        self.adj = topology.adjacency()
        self.anchor: dict[str, tuple[str, float]] = {}
        hosts = set(topology.attachment)
        for node in topology.routers:
            up = [(v, lat) for v, lat in self.adj[node] if v not in hosts]
            self.anchor[node] = up[0] if len(up) == 1 else (node, 0.0)
        self._hops: dict[str, dict[str, int]] = {}
        self._lat: dict[str, dict[str, float]] = {}

    def _reduce(self, a: str, b: str):
        (pa, wa), (pb, wb) = self.anchor[a], self.anchor[b]
        return pa, pb, (pa != a) + (pb != b), wa + wb

    def hops(self, a: str, b: str) -> int:
        if a == b:
            return 0
        pa, pb, extra, _ = self._reduce(a, b)
        if pa not in self._hops:
            self._hops[pa] = bfs_hops(self.adj, pa)
        return self._hops[pa][pb] + extra

    def latency(self, a: str, b: str) -> float:
        if a == b:
            return 0.0
        pa, pb, _, extra = self._reduce(a, b)
        if pa not in self._lat:
            self._lat[pa] = dijkstra(self.adj, pa)[0]
        return self._lat[pa][pb] + extra


def _route(pred, target) -> list[str]:
    path = [target]
    while pred[path[-1]] is not None:
        path.append(pred[path[-1]])
    path.reverse()
    return path


def _flag(seed: int, tag: str, node: str, p: float) -> bool:
    return p > 0 and random.Random(f"{seed}:{tag}:{node}").random() < p


GARBAGE = (
    "traceroute: warning: multiple interfaces found; using {a}",
    "%% corrupted record 0x{h}",
    "<<{h}>> truncated",
    "ERROR send failed: No buffer space available ({h})",
)


class TraceRenderer:
    """Renders one origin's traces to classic traceroute text."""

    def __init__(self, topology: Topology, faults: Faults, seed: int):
        self.topology = topology
        self.faults = faults
        self.seed = seed
        self.adj = topology.adjacency()
        routers = topology.routers
        self.blocked = {n for n in routers if _flag(seed, "block", n, faults.block)}

    def _label(self, node: str) -> str:
        addr = self.topology.address[node]
        if not self.faults.names:
            return addr
        return f"{node.lower().replace('.', '-')}.net.example ({addr})"

    def render(self, origin: str, out) -> None:
        """Write the traces from ``origin`` to every host."""
        dist, pred = dijkstra(self.adj, origin)
        f = self.faults
        asymmetric = {n for n in self.topology.routers
                      if _flag(self.seed, f"asym:{origin}", n, f.asymmetry)}
        for host in self.topology.hosts:
            rng = random.Random(f"{self.seed}:trace:{origin}:{host}")
            route = _route(pred, host)[1:]
            hops = []  # (node or None, rtt or None)
            for node in route:
                if node in self.blocked:
                    hops.append((None, None))
                    continue
                rtt = 2 * dist[node]
                if node in asymmetric:
                    rtt += f.delta_ms
                hops.append((node, rtt))
            if f.loops and len(hops) >= 3 and rng.random() < f.loops:
                earlier = [h for h in hops[:-1] if h[0] is not None]
                if earlier:
                    dup = rng.choice(earlier)[0]
                    last = max((r for _, r in hops[:-1] if r is not None), default=0.0)
                    node, rtt = hops[-1]
                    hops[-1:] = [(dup, last + QUANTUM), (node, max(rtt, last + QUANTUM))]
            addr = self.topology.address[host]
            out.write(f"traceroute to {host.lower()} ({addr}), 64 hops max, 60 byte packets\n")
            annotate = f.annotate and rng.random() < f.annotate
            for ttl, (node, rtt) in enumerate(hops, start=1):
                out.write(self._hop_line(ttl, node, rtt, rng,
                                         annotate and ttl == len(hops)))
                if f.garbage and rng.random() < f.garbage:
                    template = rng.choice(GARBAGE)
                    out.write(template.format(a=addr, h=f"{rng.getrandbits(32):08x}") + "\n")

    def _hop_line(self, ttl, node, rtt, rng, annotate) -> str:
        f = self.faults
        if node is None:
            return f"{ttl:2d}  * * *\n"
        probes = []
        for _ in range(3):
            if f.probe_loss and rng.random() < f.probe_loss:
                probes.append(None)
            elif f.jitter_ms:
                probes.append(round(max(0.0, rtt + rng.uniform(-f.jitter_ms, f.jitter_ms)), 3))
            else:
                probes.append(rtt)
        if all(p is None for p in probes):
            probes[0] = rtt
        parts = []
        current = None
        sibling = f.multi_responder and rng.random() < f.multi_responder
        for k, p in enumerate(probes):
            if p is None:
                parts.append("*")
                continue
            if sibling and k == 1:
                # a load-balanced sibling answers one probe, slower than the rest
                slow = max(q for q in probes if q is not None) + rng.randint(1, 8) * QUANTUM
                octet = rng.randint(1, 254)
                parts.append(f"lb-{octet}.net.example (10.255.{ttl}.{octet})  {slow:.3f} ms")
                current = None
                continue
            if current != node:
                parts.append(self._label(node))
                current = node
            parts.append(f"{p:.3f} ms")
        if annotate:
            parts.append("!H")
        return f"{ttl:2d}  " + "  ".join(parts) + "\n"


@dataclass(frozen=True)
class CampaignSpec:
    regions: int
    leaves: int
    origins: int
    faults: Faults


@dataclass
class Campaign:
    topology: Topology
    origins: list[str]
    raw_files: dict[str, Path]  # origin -> traceroute text
    persistence: Path
    truth_file: Path
    digest: str


def persistence_csv() -> str:
    """Forwarding-state persistence ratio for every hop value the bounds can take."""
    rows = ["hop,persist_ratio"]
    for hop in range(MAX_PERSIST_HOP + 1):
        rows.append(f"{hop},{max(0.0, 1.0 - hop / 32):.6f}")
    return "\n".join(rows) + "\n"


def generate(spec: CampaignSpec, seed: int, outdir: Path) -> Campaign:
    """Write the campaign for ``seed`` into ``outdir``; deterministic per seed."""
    outdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"campaign:{seed}")
    topology = two_tier(spec.regions, spec.leaves, rng)
    origins = sorted(rng.sample(topology.routers, spec.origins))
    renderer = TraceRenderer(topology, spec.faults, seed)
    raw_files = {}
    for origin in origins:
        path = outdir / f"raw_{origin}.txt"
        with open(path, "w", encoding="utf-8") as out:
            renderer.render(origin, out)
        raw_files[origin] = path
    persistence = outdir / "persist.csv"
    persistence.write_text(persistence_csv(), encoding="utf-8")
    truth_file = outdir / "topology.json"
    truth_file.write_text(
        json.dumps({"seed": seed, "origins": origins, **topology.to_json()},
                   separators=(",", ":")),
        encoding="utf-8",
    )
    digest = digest_files([*raw_files.values(), persistence, truth_file])
    return Campaign(topology, origins, raw_files, persistence, truth_file, digest)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).name.encode())
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()
