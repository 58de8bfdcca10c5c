"""Tests of the benchmark itself: input determinism, scoring and checks.

Run with ``python3 -m pytest bench``; the pipeline tests start the real
``edgedist`` CLI from ``src`` on a tiny campaign.
"""

import json
import math
from pathlib import Path

import checks
import gen
import run

ROOT = Path(__file__).resolve().parent.parent

TINY = run.Workload(
    why="test",
    spec=gen.CampaignSpec(
        regions=3, leaves=4, origins=3,
        faults=gen.Faults(loops=0.1, asymmetry=0.1, delta_ms=40.0, block=0.05,
                          jitter_ms=0.5, probe_loss=0.05, multi_responder=0.1,
                          annotate=0.2, garbage=0.05),
    ),
    ingest_exit=1,
)


def test_generator_is_deterministic_per_seed(tmp_path):
    spec = TINY.spec
    first = gen.generate(spec, 7, tmp_path / "a")
    again = gen.generate(spec, 7, tmp_path / "b")
    other = gen.generate(spec, 8, tmp_path / "c")
    assert first.digest == again.digest
    assert first.digest != other.digest
    for origin, path in first.raw_files.items():
        assert path.read_bytes() == again.raw_files[origin].read_bytes()


def test_generator_renders_the_dirty_shapes(tmp_path):
    campaign = gen.generate(TINY.spec, 3, tmp_path)
    text = "".join(p.read_text() for p in campaign.raw_files.values())
    assert text.count("traceroute to ") == len(campaign.origins) * len(campaign.topology.hosts)
    for shape in ("* * *", "!H", "lb-", "corrupted record", " ms  *"):
        assert shape in text, shape


def _loop_through_transit_record():
    """What the estimator derives from two traces of one origin,
    a: T0, T0A5, T0, host_a (a loop back through the transit) and
    b: T0, T0A6, host_b.  The deepest T0 of a is taken as the transit and,
    being the last responsive hop before host_a, also as a's access router:
    the hop bound is 1 where T0A5 - T0 - T0A6 is 2 hops."""
    estimate = {"hop_bound": 1, "rtt_bound_ms": 3.0,
                "transit": ["10.0.0.1", 3, 1], "origin_fallback": False}
    return {"pair": ["172.16.0.1", "172.16.0.2"], "per_origin": {"T1": estimate},
            "best_hop": estimate, "best_hop_origin": "T1",
            "best_rtt": estimate, "best_rtt_origin": "T1"}


def _star_topology():
    edges = {}
    for u, v, lat in (("T0", "T0A5", 1.0), ("T0", "T0A6", 1.0), ("T0", "T1", 3.0),
                      ("T0A5", "T0A5.h", 0.5), ("T0A6", "T0A6.h", 0.5)):
        edges[(u, v)] = edges[(v, u)] = lat
    return gen.Topology(
        nodes=["T0", "T1", "T0A5", "T0A6", "T0A5.h", "T0A6.h"], edges=edges,
        attachment={"T0A5.h": "T0A5", "T0A6.h": "T0A6"},
        address={"T0": "10.0.0.1", "T1": "10.0.0.2", "T0A5": "10.0.0.3",
                 "T0A6": "10.0.0.4", "T0A5.h": "172.16.0.1", "T0A6.h": "172.16.0.2"},
    )


def test_loop_through_transit_pair_counts_as_unsound(tmp_path):
    path = tmp_path / "outcomes.jsonl"
    path.write_text(json.dumps(_loop_through_transit_record()) + "\n")
    problems, quality, _ = checks.check_outcomes(path, _star_topology(), 1, 0.0)
    assert problems == []
    assert (quality.accepted, quality.unsound) == (1, 1)
    assert quality.unsound_ratio == 1.0


def test_sound_bound_is_not_counted(tmp_path):
    record = _loop_through_transit_record()
    for key in ("best_hop", "best_rtt"):
        record[key] = dict(record[key], hop_bound=2, rtt_bound_ms=4.0)
    record["per_origin"]["T1"] = record["best_hop"]
    path = tmp_path / "outcomes.jsonl"
    path.write_text(json.dumps(record) + "\n")
    _, quality, _ = checks.check_outcomes(path, _star_topology(), 1, 0.0)
    assert (quality.accepted, quality.unsound) == (1, 0)


def test_truth_matches_full_searches():
    topology = gen.two_tier(5, 4, __import__("random").Random(1))
    truth = gen.Truth(topology)
    adj = topology.adjacency()
    for a in topology.routers:
        lat, _ = gen.dijkstra(adj, a)
        hops = gen.bfs_hops(adj, a)
        for b in topology.routers:
            assert truth.hops(a, b) == hops[b]
            assert truth.latency(a, b) == lat[b]


def _tiny_pipeline(tmp_path, traced=False):
    campaign = gen.generate(TINY.spec, 5, tmp_path / "inputs")
    out = tmp_path / "out"
    out.mkdir()
    cmds = run.commands(TINY, 5, out, campaign)
    launcher = run.Launcher()
    sampler = run.RefSampler(tmp_path / "refloop.txt")
    try:
        p = run.run_pass(launcher, cmds, out, traced, [])
    finally:
        launcher.close()
        samples = sampler.close()
    run.assign_refs([p], samples)
    return campaign, out, p


def test_tampered_outcome_file_counts_in_failed_ratio(tmp_path):
    campaign, out, p = _tiny_pipeline(tmp_path)
    clean = run.Failures(attempted=len(p.ran))
    quality = run.check_pass(TINY, p, out, campaign, clean)
    assert clean.problems == {}, clean.problems
    assert quality.requested == 66 and quality.accepted > 0

    outcomes = out / "outcomes.jsonl"
    records = [json.loads(line) for line in outcomes.read_text().splitlines()]
    victim = next(r for r in records if r["best_hop"] is not None)
    victim["best_hop"]["hop_bound"] += 1  # no longer the minimum over origins
    outcomes.write_text("".join(json.dumps(r) + "\n" for r in records))
    tampered = run.Failures(attempted=len(p.ran))
    run.check_pass(TINY, p, out, campaign, tampered)
    pairs_index = [r.command.name for r in p.ran].index("pairs")
    assert list(tampered.problems) == [(0, pairs_index)]
    assert len(tampered.problems) / tampered.attempted > 0


def test_non_finite_bound_is_a_failure(tmp_path):
    record = _loop_through_transit_record()
    path = tmp_path / "outcomes.jsonl"
    path.write_text(json.dumps(record).replace("3.0", "NaN") + "\n")
    problems, _, _ = checks.check_outcomes(path, _star_topology(), 1, 0.0)
    assert problems and "non-finite" in problems[0]
    assert math.isnan(json.loads(path.read_text())["best_rtt"]["rtt_bound_ms"])


def test_traced_pass_reports_the_listed_per_layer_metrics(tmp_path):
    campaign, out, p = _tiny_pipeline(tmp_path, traced=True)
    failures = run.Failures(attempted=len(p.ran))
    run.check_pass(TINY, p, out, campaign, failures)
    assert failures.problems == {}
    assert all(r.spans is not None and r.ref_s > 0 for r in p.ran)
    layer = run.layer_metrics(p)
    assert layer["traced_wall_ref"][0] > 0
    assert layer["transit.estimate_pair.calls"][0] == 3 * 66
    assert layer["ingest.read_canonical.calls"][0] == 3
    assert layer["transit.read_outcomes.calls"][0] == 3  # dist once, handover twice

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: w.why for name, w in run.WORKLOADS.items()}
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    reported = set(run.per_layer_names())
    assert {m["name"] for m in bench["per_layer"]} == reported
    assert set(layer) <= reported
