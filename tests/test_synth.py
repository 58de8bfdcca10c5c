import hashlib
import itertools
import random

import pytest

from edgedist.jsonl import read_jsonl
from edgedist.model import PairEstimate, RejectKind
from edgedist.transit import (
    ACCESS_ROUTER,
    HOST,
    EstimateOptions,
    PreparedTrace,
    batch_estimate,
    estimate_pair,
)
from edgedist.synth import (
    SimOptions,
    Simulator,
    Topology,
    dijkstra,
    extract_path,
    generate_topology,
    min_hop_distance,
    run_experiment,
    save_topology,
    true_distance,
)

from conftest import make_topology, trace


# --- generators ------------------------------------------------------------


def test_ring_of_stars_degenerate_is_path():
    topo = generate_topology("ring_of_stars", {"cores": 1, "leaves": 2}, seed=0)
    assert sorted(topo.routers) == ["C0", "C0L0", "C0L1"]
    hops, _ = true_distance(topo, "C0L0", "C0L1")
    assert hops == 2


def test_random_geometric_deterministic():
    a = generate_topology("random_geometric", {"n": 50}, seed=5)
    b = generate_topology("random_geometric", {"n": 50}, seed=5)
    assert a.edges == b.edges and a.nodes == b.nodes


def test_random_geometric_disconnected_raises():
    with pytest.raises(ValueError, match="disconnected"):
        generate_topology(
            "random_geometric", {"n": 40, "radius": 0.01, "retries": 3}, seed=1
        )


def test_two_tier_peering_shrinks_leaf_distances():
    params = {"regions": 4, "leaves": 5}
    plain = generate_topology("two_tier", params, seed=2)
    peered = generate_topology("two_tier", dict(params, peering=True), seed=2)

    def mean_leaf_distance(topo):
        leaves = [n for n in topo.routers if "A" in n]
        total = count = 0
        for a, b in itertools.combinations(leaves, 2):
            total += true_distance(topo, a, b)[1]
            count += 1
        return total / count

    assert mean_leaf_distance(peered) < mean_leaf_distance(plain)


def test_generated_topologies_are_symmetric():
    for model, params in (
        ("ring_of_stars", {"cores": 3, "leaves": 2}),
        ("random_geometric", {"n": 30}),
        ("two_tier", {"regions": 3, "leaves": 3}),
    ):
        edges = generate_topology(model, params, seed=4).edges
        assert all(edges.get((v, u)) == lat for (u, v), lat in edges.items())


def test_unknown_model():
    with pytest.raises(ValueError):
        generate_topology("mesh", {}, seed=0)


@pytest.mark.parametrize("model, params", [
    ("ring_of_stars", {"cores": 3, "leaves": 2}),
    ("random_geometric", {"n": 12, "radius": 0.6, "latency_scale": 10.0, "retries": 5}),
    ("two_tier", {"regions": 2, "leaves": 2, "peering": True}),
])
def test_every_parameter_a_model_reads_is_accepted(model, params):
    assert generate_topology(model, params, seed=1).hosts
    with pytest.raises(ValueError, match=f"^{model} has no parameter 'size'$"):
        generate_topology(model, {**params, "size": 3}, seed=1)


def test_count_parameters_must_be_whole_numbers():
    # a fractional count used to be truncated; a whole float is that count
    whole = generate_topology("two_tier", {"regions": 3.0, "leaves": 2e0}, seed=1)
    assert whole == generate_topology("two_tier", {"regions": 3, "leaves": 2}, seed=1)
    for model, key in (("ring_of_stars", "cores"), ("two_tier", "leaves"),
                       ("random_geometric", "n"), ("random_geometric", "retries")):
        with pytest.raises(ValueError, match=rf"^{model} parameter {key}=2.5 is not a whole number$"):
            generate_topology(model, {key: 2.5}, seed=1)


# sha256 over the saved topologies of leaves 1-20 and seeds 0-3, recorded
# before ring_of_stars and two_tier shared one builder: a change to a hub
# model's construction or to the order of its random draws shows here
SAVED_TOPOLOGY_SHA256 = {
    ("ring_of_stars", 1, False): "fc5b44a0f45f3192c2e397fef0c5819d704f3788a56a87c0a763b8973022b502",
    ("ring_of_stars", 2, False): "3120dd54e746a571e01dea4d17ca2043da4cb7071c6b2afbb89fd659e04c75e9",
    ("ring_of_stars", 3, False): "e7e9d4905b24dd829e28ad97f3ef5ac047bf0678bc1c24ac3b3c0fb412177665",
    ("ring_of_stars", 5, False): "cb3ebff46fc696c6a9bcc64ecbf098f435466d4c29facc84b828d8737f27e7ed",
    ("two_tier", 1, False): "7cf20834dd7c71666ed1fa5374b78e461dacbe43bf0b7bb929c0190eb6c66e9b",
    ("two_tier", 1, True): "c2751b2f53a3a14ee4cd59712c7037c51ff2fa2d6c497ccb6a787435ea2d95ce",
    ("two_tier", 2, False): "0d4b762194f930d5c2882be8bc259f9f0d4fd16191ea2bcedfedbf753c3079a4",
    ("two_tier", 2, True): "05e342757a8bcace1794d19c2bd369ec88d1d06e8587c874713f6d4fee65a853",
    ("two_tier", 3, False): "bbe3d500bc77b71d81f0ac96bf96e9a455009e32e9bed3f86140d23a8175df01",
    ("two_tier", 3, True): "17cca9aee26f9f5803f7c44276331549038ff9b94126fb432e7806e96d37ee51",
    ("two_tier", 12, False): "ed3ad0bfa6193a2083ff2b38d5902621343c1b913a77928341d940840b308b43",
    ("two_tier", 12, True): "01215c74734089f7c8c16a8fcd5f16df01b19a387ad9858ec0e4d77cb4630714",
}


@pytest.mark.parametrize("model, hubs, peering", sorted(SAVED_TOPOLOGY_SHA256))
def test_saved_hub_topology_bytes_are_pinned(tmp_path, model, hubs, peering):
    path = tmp_path / "topology.jsonl"
    digest = hashlib.sha256()
    for leaves, seed in itertools.product(range(1, 21), range(4)):
        if model == "ring_of_stars":
            params = {"cores": hubs, "leaves": leaves}
        else:
            params = {"regions": hubs, "leaves": leaves, "peering": peering}
        save_topology(generate_topology(model, params, seed), path)
        digest.update(path.read_bytes())
    assert digest.hexdigest() == SAVED_TOPOLOGY_SHA256[model, hubs, peering]


# --- shortest paths --------------------------------------------------------


def test_true_distance_identity():
    topo = make_topology([("A", "B", 1.0)], {})
    assert true_distance(topo, "A", "A") == (0, 0.0)


def test_true_distance_three_node_path():
    topo = make_topology([("A", "B", 1.0), ("B", "C", 1.0)], {})
    assert true_distance(topo, "A", "C") == (2, 2.0)


def test_true_distance_unreachable():
    topo = Topology(nodes=("A", "B"), edges={}, host_attachment={})
    with pytest.raises(ValueError):
        true_distance(topo, "A", "B")


def _bellman_ford(topo, source, reverse=False):
    """Distances from ``source``, or with ``reverse`` to it, each summed
    outward from ``source``."""
    dist = {n: float("inf") for n in topo.nodes}
    dist[source] = 0.0
    arcs = [((v, u) if reverse else (u, v), lat) for (u, v), lat in topo.edges.items()]
    for _ in range(len(topo.nodes) - 1):
        changed = False
        for (u, v), lat in arcs:
            if dist[u] + lat < dist[v]:
                dist[v] = dist[u] + lat
                changed = True
        if not changed:
            break
    return dist


def test_dijkstra_matches_bellman_ford():
    topo = generate_topology("random_geometric", {"n": 100}, seed=8)
    rng = random.Random(0)
    for source in rng.sample(topo.routers, 5):
        dist, _ = dijkstra(topo.adjacency(), source)
        oracle = _bellman_ford(topo, source)
        for node in topo.nodes:
            assert dist.get(node, float("inf")) == oracle[node]


def _post_pass_predecessors(topo, dist, source):
    """The predecessor rule dijkstra used to apply after its search: the
    smallest node u with dist[u] + arc(u, v) == dist[v]."""
    pred = {source: None}
    for v in dist:
        if v == source:
            continue
        # the graph is symmetric: v's neighbours are the tails of its in-arcs
        candidates = [
            u for u, _ in topo.adjacency()[v]
            if u in dist and dist[u] + topo.edges[(u, v)] == dist[v]
        ]
        pred[v] = min(candidates) if candidates else None
    return pred


def _random_symmetric_graph(seed):
    """Sparse symmetric graph, possibly disconnected, with latencies from
    three values so that many shortest paths tie."""
    rng = random.Random(seed)
    nodes = [f"n{i}" for i in range(rng.randint(2, 25))]
    edges = {}
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            if rng.random() < 0.2:
                edges[(u, v)] = edges[(v, u)] = rng.choice([0.25, 0.5, 0.75])
    return Topology(nodes=tuple(nodes), edges=edges, host_attachment={})


@pytest.mark.parametrize("name", [
    "ring_of_stars", "random_geometric", "two_tier", *(f"digraph{seed}" for seed in range(20)),
])
def test_dijkstra_predecessors_match_the_post_pass_rule(name):
    if name.startswith("digraph"):
        topo = _random_symmetric_graph(int(name[len("digraph"):]))
    else:
        params = {"ring_of_stars": {"cores": 5, "leaves": 4}, "random_geometric": {"n": 40},
                  "two_tier": {"regions": 4, "leaves": 5, "peering": True}}[name]
        topo = generate_topology(name, params, seed=3)
    for source in topo.nodes:
        dist, pred = dijkstra(topo.adjacency(), source)
        assert pred == _post_pass_predecessors(topo, dist, source)
        assert list(pred) == list(dist)


@pytest.mark.parametrize("edges", [
    {("A", "B"): 1.0},  # one way only
    {("A", "B"): 1.0, ("B", "A"): 1.5},  # another latency back
])
def test_topology_refuses_an_asymmetric_arc(edges):
    with pytest.raises(ValueError, match=r"^arc A->B has no reverse arc of latency 1\.0$"):
        Topology(nodes=("A", "B"), edges=edges, host_attachment={})


def test_min_hop_distance_bfs():
    topo = make_topology(
        [("A", "B", 10.0), ("B", "C", 10.0), ("A", "X", 1.0), ("X", "Y", 1.0),
         ("Y", "C", 1.0)],
        {},
    )
    # latency-shortest goes via X,Y (3 hops); hop-shortest via B (2 hops)
    assert true_distance(topo, "A", "C") == (3, 3.0)
    assert min_hop_distance(topo, "A", "C") == 2


# --- simulation ------------------------------------------------------------


def line_topology():
    return make_topology([("O", "A", 1.0)], {"B": ("A", 1.0)})


def test_simulated_line_trace():
    simulated, _ = Simulator(line_topology()).trace("O", "B")
    assert simulated == trace("O", "B", [("A", 2.0), ("B", 4.0)])


def test_blocked_node_is_unresponsive():
    topo = line_topology()
    simulated, _ = Simulator(topo, SimOptions(block_probability=1.0)).trace("O", "B")
    assert simulated == trace("O", "B", [(None, None), ("B", 4.0)])


def test_symmetric_destination_rtt_is_twice_one_way():
    topo = generate_topology("two_tier", {"regions": 3, "leaves": 4}, seed=6)
    sim = Simulator(topo)
    for host in topo.hosts[:6]:
        simulated, _ = sim.trace("T0", host)
        _, one_way = true_distance(topo, "T0", host)
        assert simulated.rtts[-1] == 2 * one_way


def _rtt_decreases(simulated, start=0):
    """Whether the cumulative RTT drops anywhere from position ``start`` on."""
    rtts = [rtt for rtt in simulated.rtts[max(start - 1, 0):] if rtt is not None]
    return any(b < a for a, b in zip(rtts, rtts[1:]))


def test_asymmetry_delta_causes_decreasing_rtt_and_rejection():
    topo = make_topology(
        [("O", "T", 1.0), ("T", "A1", 1.0), ("T", "B1", 1.0)],
        {"HA": ("A1", 1.0), "HB": ("B1", 1.0)},
    )
    clean = Simulator(topo)
    # force the delta onto every router: A1 and B1 both inflate, and their
    # cumulative RTT exceeds the destination's
    skewed = Simulator(
        topo,
        SimOptions(asymmetry_probability=1.0, asymmetry_delta_ms=50.0, seed=1),
    )
    opts = EstimateOptions(mode=HOST)
    ta, _ = skewed.trace("O", "HA")
    tb, _ = skewed.trace("O", "HB")
    assert _rtt_decreases(ta)
    reject = estimate_pair(PreparedTrace(ta, opts), PreparedTrace(tb, opts))
    assert reject.kind is RejectKind.ASYMMETRY_SUSPECTED
    ca, _ = clean.trace("O", "HA")
    cb, _ = clean.trace("O", "HB")
    assert not _rtt_decreases(ca)
    est = estimate_pair(PreparedTrace(ca, opts), PreparedTrace(cb, opts))
    assert isinstance(est, PairEstimate)


def test_simulation_deterministic_under_seed():
    topo = generate_topology("two_tier", {"regions": 4, "leaves": 4}, seed=9)
    opts = SimOptions(block_probability=0.2, asymmetry_probability=0.2,
                      asymmetry_delta_ms=40.0, loop_probability=0.1,
                      rtt_jitter_ms=0.5, seed=77)
    t1 = Simulator(topo, opts).trace("T1", topo.hosts[3])
    t2 = Simulator(topo, opts).trace("T1", topo.hosts[3])
    assert t1 == t2


def test_loop_injection_duplicates_an_address():
    topo = generate_topology("two_tier", {"regions": 4, "leaves": 4}, seed=10)
    sim = Simulator(topo, SimOptions(loop_probability=1.0, seed=3))
    found = False
    for host in topo.hosts:
        simulated, loop_injected = sim.trace("T2", host)
        if loop_injected:
            addrs = [addr for addr in simulated.addresses if addr is not None]
            assert len(addrs) != len(set(addrs))
            found = True
    assert found


def _forward_plus_return_hops(topo, sim, pred, back, host):
    """The (address, rtt) hops of a loop-free trace, with each RTT the
    forward latency summed along the origin's ``pred`` route, plus the
    latency ``back`` to the origin from a search over reversed arcs, plus
    the delta on asymmetric nodes: no symmetry assumed."""
    hops = []
    forward = 0.0
    route = extract_path(pred, host)
    for prev, node in zip(route, route[1:]):
        forward += topo.edges[(prev, node)]
        if node in sim.blocked and node != host:
            hops.append((None, None))
            continue
        rtt = forward + back[node]
        if node in sim.asymmetric:
            rtt += sim.options.asymmetry_delta_ms
        hops.append((node, rtt))
    return hops


@pytest.mark.parametrize("model, params", [
    ("ring_of_stars", {"cores": 4, "leaves": 3}),
    ("random_geometric", {"n": 30}),
    ("two_tier", {"regions": 3, "leaves": 4, "peering": True}),
])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_trace_rtts_match_forward_plus_return_legs(model, params, seed):
    topo = generate_topology(model, params, seed=seed)
    opts = SimOptions(block_probability=0.2, asymmetry_probability=0.5,
                      asymmetry_delta_ms=80.0, loop_probability=0.3, seed=seed)
    sim = Simulator(topo, opts)
    loops = blocked = asymmetric = 0
    for origin in topo.routers[:3]:
        _, pred = dijkstra(topo.adjacency(), origin)
        back = _bellman_ford(topo, origin, reverse=True)
        for host in topo.hosts:
            simulated, loop_injected = sim.trace(origin, host)
            expected = _forward_plus_return_hops(topo, sim, pred, back, host)
            blocked += sum(addr is None for addr, _ in expected)
            asymmetric += sum(addr in sim.asymmetric for addr, _ in expected)
            if loop_injected:
                # the injected hop sits just before the destination
                inserted = simulated.addresses[-2], simulated.rtts[-2]
                rtts = [rtt for _, rtt in expected[:-1] if rtt is not None]
                assert inserted[1] == max(rtts) + 0.25
                final_addr, final_rtt = expected[-1]
                expected[-1:] = [inserted, (final_addr, max(final_rtt, inserted[1]))]
                loops += 1
            assert simulated == trace(origin, host, expected)
    assert loops and blocked and asymmetric


# --- experiments -----------------------------------------------------------


def test_symmetric_experiment_has_no_soundness_violations():
    topo = generate_topology("two_tier", {"regions": 5, "leaves": 5}, seed=12)
    hosts = topo.hosts
    rng = random.Random(1)
    pairs = [tuple(rng.sample(hosts, 2)) for _ in range(20)]
    report = run_experiment(
        topo, ["T0", "T2", "T4"], pairs,
        est_options=EstimateOptions(allow_origin_fallback=True),
    )
    assert report.soundness_violations == 0
    assert report.stats.success_ratio == 1.0
    assert report.false_rtt_accepts == 0


def test_origin_on_shortest_path_gives_tight_bound():
    # O hangs off T which lies on the unique shortest path between the
    # access routers A1 and B1
    topo = make_topology(
        [("O", "T", 1.0), ("T", "A1", 2.0), ("T", "B1", 3.0)],
        {"HA": ("A1", 0.5), "HB": ("B1", 0.5)},
    )
    report = run_experiment(topo, ["O"], [("HA", "HB")])
    (result,) = report.results
    assert result.tight_hop and result.tight_rtt
    assert result.best_hop_bound == result.true_hops == 2
    assert result.best_rtt_bound == 2 * result.true_one_way_ms == 10.0


def test_experiment_report_deterministic():
    topo = generate_topology("random_geometric", {"n": 40}, seed=13)
    rng = random.Random(2)
    pairs = [tuple(rng.sample(topo.hosts, 2)) for _ in range(10)]
    opts = SimOptions(asymmetry_probability=0.3, asymmetry_delta_ms=80.0, seed=5)
    r1 = run_experiment(topo, topo.routers[:4], pairs, opts)
    r2 = run_experiment(topo, topo.routers[:4], pairs, opts)
    assert r1.lines() == r2.lines()


def test_topology_save_load_round_trip(tmp_path):
    topo = generate_topology("two_tier", {"regions": 3, "leaves": 3}, seed=14)
    path = tmp_path / "topo.jsonl"
    save_topology(topo, path)
    records = list(read_jsonl(path, lambda record: record, "topology record"))
    assert records[0] == {"type": "meta", "seed": topo.seed}
    assert tuple(r["id"] for r in records if r["type"] == "node") == topo.nodes
    assert {(r["from"], r["to"]): r["latency_ms"]
            for r in records if r["type"] == "arc"} == topo.edges
    assert {r["host"]: r["router"]
            for r in records if r["type"] == "attach"} == topo.host_attachment
    assert {r["type"] for r in records} == {"meta", "node", "arc", "attach"}
    assert ", " not in path.read_text()  # compact, like every .jsonl file


@pytest.mark.parametrize("model, params", [
    ("ring_of_stars", {"cores": 4, "leaves": 3}),
    ("random_geometric", {"n": 20}),
    ("two_tier", {"regions": 3, "leaves": 4, "peering": True}),
])
@pytest.mark.parametrize("mode", [HOST, ACCESS_ROUTER])
def test_experiment_truth_matches_per_pair_searches(model, params, mode):
    topo = generate_topology(model, params, seed=4)
    pairs = list(itertools.combinations(topo.hosts, 2))
    pairs += [(b, a) for a, b in pairs[::7]] + [(topo.hosts[0], topo.hosts[0])]
    report = run_experiment(topo, topo.routers[:2], pairs,
                            est_options=EstimateOptions(mode=mode))
    node = (lambda h: h) if mode == HOST else topo.host_attachment.__getitem__
    for (a, b), result in zip(pairs, report.results):
        assert result.true_hops == min_hop_distance(topo, node(a), node(b))
        assert result.true_one_way_ms == true_distance(topo, node(a), node(b))[1]


def test_experiment_unreachable_pair_is_an_error():
    # HC sits on a component of its own
    topo = make_topology(
        [("O", "A1", 1.0), ("A1", "B1", 1.0), ("C1", "C2", 1.0)],
        {"HA": ("A1", 0.5), "HB": ("B1", 0.5), "HC": ("C1", 0.5)},
    )
    with pytest.raises(ValueError, match="^HC unreachable from HA$"):
        run_experiment(topo, ["O"], [("HA", "HB"), ("HA", "HC")],
                       est_options=EstimateOptions(mode=HOST))


def test_experiment_report_carries_the_simulated_traces():
    topo = generate_topology("two_tier", {"regions": 3, "leaves": 3}, seed=8)
    opts = SimOptions(loop_probability=0.5, asymmetry_probability=0.3,
                      asymmetry_delta_ms=20.0, seed=2)
    pairs = [("T0A0.h", "T1A2.h"), ("T2A1.h", "T0A0.h")]
    report = run_experiment(topo, ["T0", "T2"], pairs, opts)
    sim = Simulator(topo, opts)
    assert report.traces_by_origin == {
        origin: [sim.trace(origin, h)[0] for h in ("T0A0.h", "T1A2.h", "T2A1.h")]
        for origin in ("T0", "T2")
    }


def _rescanned_cross_checks(report, pairs, sim, est_options):
    """The confusion matrix and false_rtt_accepts recomputed pair by pair,
    re-simulating each trace for its loop flag and re-scanning both
    accepted tails of every per-origin estimate."""
    traces = {
        (origin, t.destination): t
        for origin, rows in report.traces_by_origin.items() for t in rows
    }

    def tail_decreases(origin, endpoint, start):
        return _rtt_decreases(traces[origin, endpoint], start)

    confusion = dict.fromkeys(
        ("clean_accept", "clean_reject", "corrupt_accept", "corrupt_reject"), 0)
    false_rtt_accepts = 0
    outcomes, _ = batch_estimate(dict(report.traces_by_origin), pairs, est_options)
    for (a, b), outcome in zip(pairs, outcomes):
        first, second = outcome.pair
        for origin, est in zip(outcome.origins, outcome.entries):
            corrupt = any(sim.trace(origin, h)[1] or tail_decreases(origin, h, 0)
                          for h in (a, b))
            accepted = isinstance(est, PairEstimate)
            confusion[("corrupt" if corrupt else "clean")
                      + ("_accept" if accepted else "_reject")] += 1
            if accepted and (
                tail_decreases(origin, first, est.index_a)
                or tail_decreases(origin, second, est.index_b)
            ):
                false_rtt_accepts += 1
    return confusion, false_rtt_accepts


@pytest.mark.parametrize("model, params", [
    ("ring_of_stars", {"cores": 4, "leaves": 3}),
    ("random_geometric", {"n": 20}),
    ("two_tier", {"regions": 3, "leaves": 4, "peering": True}),
])
@pytest.mark.parametrize("fallback", [False, True])
def test_experiment_cross_checks_match_per_pair_rescan(model, params, fallback):
    topo = generate_topology(model, params, seed=6)
    opts = SimOptions(asymmetry_probability=0.5, asymmetry_delta_ms=0.8,
                      loop_probability=0.2, block_probability=0.1,
                      rtt_jitter_ms=0.5, seed=5)
    pairs = list(itertools.combinations(topo.hosts, 2))
    pairs += [(b, a) for a, b in pairs[::5]]
    est_options = EstimateOptions(allow_origin_fallback=fallback, eps_rtt=1.0)
    report = run_experiment(topo, topo.routers[:6], pairs, opts, est_options)
    confusion, false_rtt_accepts = _rescanned_cross_checks(
        report, pairs, Simulator(topo, opts), est_options)
    assert report.confusion == confusion
    assert report.false_rtt_accepts == false_rtt_accepts
    assert false_rtt_accepts > 0
