"""Acceptance gate: one test per top-level correctness criterion.

Each test prints a single PASS/FAIL line so a plain ``pytest -v -s`` run (or
the captured output on failure) documents the verdict per criterion.
"""

import math
import random
import time

from edgedist import cli, synth
from edgedist.handover import (
    LossModel,
    PersistenceTable,
    argmin_anticipation,
    expected_loss_curve,
    multicast_persistence,
)
from edgedist.model import PairEstimate
from edgedist.stats import HOP_COUNT, RTT_MS, build_distribution, resample_stability
from edgedist.synth import SimOptions, Topology, generate_topology, run_experiment
from edgedist.transit import (
    ACCESS_ROUTER,
    HOST,
    EstimateOptions,
    PairOutcome,
    PreparedTrace,
    estimate_pair,
    min_over_origins,
)

from conftest import distribution_of


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num} ({name}): {status}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


FALLBACK = EstimateOptions(allow_origin_fallback=True)


# ---------------------------------------------------------------------------
# 1. soundness: minimal bounds never undercut the true distance


def _soundness_topologies():
    specs = []
    for i in range(10):
        specs.append(("random_geometric", {"n": 50 + 16 * i}, 1000 + i))
    for i, (regions, leaves) in enumerate(
        [(5, 9), (5, 12), (6, 10), (6, 13), (7, 11), (7, 14), (8, 12),
         (8, 15), (9, 13), (9, 15)]
    ):
        specs.append(("two_tier", {"regions": regions, "leaves": leaves}, 2000 + i))
    return specs


def test_criterion_1_soundness():
    start = time.monotonic()
    violations = 0
    checked = 0
    hop_undercuts = 0
    for model, params, seed in _soundness_topologies():
        topo = generate_topology(model, params, seed=seed)
        assert 50 <= len(topo.routers) <= 200
        rng = random.Random(seed)
        pairs = [tuple(rng.sample(topo.hosts, 2)) for _ in range(100)]
        origins = sorted(rng.sample(topo.routers, 10))
        report = run_experiment(topo, origins, pairs, est_options=FALLBACK)
        violations += report.soundness_violations
        checked += len(report.results)
        # blocked hops, loops and return-leg asymmetry (no jitter, whose RTT
        # noise no bound can absorb): no hop bound may undercut, either mode
        faults = SimOptions(block_probability=0.05, loop_probability=0.05,
                            asymmetry_probability=0.1, asymmetry_delta_ms=80.0, seed=seed)
        for mode in (HOST, ACCESS_ROUTER):
            report = run_experiment(topo, origins, pairs, faults,
                                    EstimateOptions(mode=mode, allow_origin_fallback=True))
            hop_undercuts += sum(r.best_hop_bound is not None and r.best_hop_bound < r.true_hops
                                 for r in report.results)
    elapsed = time.monotonic() - start
    _verdict(
        1, "soundness", violations == 0 and hop_undercuts == 0 and elapsed < 30.0,
        f"{checked} pairs over 20 topologies, {violations} violations; "
        f"{2 * checked} faulty pairs, {hop_undercuts} hop undercuts; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. tightness: an origin on the true shortest path recovers it exactly


def _pearl_chain(left, right, scale):
    """Origin O hangs off T; T is interior to the unique A-B shortest path."""
    edges = {}
    nodes = ["O", "T"]

    def link(u, v, lat):
        edges[(u, v)] = lat
        edges[(v, u)] = lat

    link("O", "T", scale)
    prev = "T"
    for i in range(1, left + 1):
        node = f"L{i}"
        nodes.append(node)
        link(prev, node, scale * (1 + i % 3))
        prev = node
    left_end = prev
    prev = "T"
    for i in range(1, right + 1):
        node = f"R{i}"
        nodes.append(node)
        link(prev, node, scale * (1 + (i + 1) % 3))
        prev = node
    right_end = prev
    attachment = {"HA": left_end, "HB": right_end}
    for host, router in attachment.items():
        link(router, host, 0.5)
        nodes.append(host)
    return Topology(nodes=tuple(nodes), edges=edges, host_attachment=attachment)


def test_criterion_2_tightness():
    cases = 0
    tight = 0
    for left in range(1, 6):
        for right in range(1, 6):
            for scale in (0.5, 1.0):
                topo = _pearl_chain(left, right, scale)
                report = run_experiment(topo, ["O"], [("HA", "HB")])
                (result,) = report.results
                cases += 1
                if (
                    result.tight_hop
                    and result.tight_rtt
                    and result.best_hop_bound == left + right
                ):
                    tight += 1
    _verdict(2, "tightness", cases >= 50 and tight == cases,
             f"{tight}/{cases} constructed cases exact")


# ---------------------------------------------------------------------------
# 3. monotonicity: adding origins never worsens the best bounds


def test_criterion_3_monotonicity():
    topo = generate_topology("two_tier", {"regions": 8, "leaves": 5}, seed=300)
    sim = synth.Simulator(topo)
    rng = random.Random(300)
    pairs = [tuple(rng.sample(topo.hosts, 2)) for _ in range(25)]
    origins = topo.routers[:40]
    trace_cache = {}

    def trace(origin, host):
        key = (origin, host)
        if key not in trace_cache:
            trace_cache[key] = PreparedTrace(sim.trace(origin, host)[0], FALLBACK)
        return trace_cache[key]

    steps = 0
    breaks = 0
    for a, b in pairs:
        entries = ()
        prev_hop = math.inf
        prev_rtt = math.inf
        for k, origin in enumerate(origins, 1):
            entries += (estimate_pair(trace(origin, a), trace(origin, b)),)
            outcome = min_over_origins((a, b), tuple(origins[:k]), entries)
            hop = math.inf if outcome.best_hop is None else outcome.best_hop.hop_bound
            rtt = math.inf if outcome.best_rtt is None else outcome.best_rtt.rtt_bound_ms
            if hop > prev_hop or rtt > prev_rtt:
                breaks += 1
            prev_hop, prev_rtt = hop, rtt
            steps += 1
    _verdict(3, "monotonicity", steps >= 1000 and breaks == 0,
             f"{steps} incremental origin additions, {breaks} bound increases")


# ---------------------------------------------------------------------------
# 4. rejection fidelity: no RTT-decreasing trace slips through, and a tuned
#    corpus lands inside the observed 45-65% success band


def test_criterion_4_rejection_fidelity():
    false_accepts = 0
    configs = 0
    for model, params in (
        ("random_geometric", {"n": 60}),
        ("two_tier", {"regions": 6, "leaves": 6}),
    ):
        for seed in (401, 402):
            topo = generate_topology(model, params, seed=seed)
            rng = random.Random(seed)
            pairs = [tuple(rng.sample(topo.hosts, 2)) for _ in range(60)]
            origins = sorted(rng.sample(topo.routers, 2))
            for rate in (0.2, 0.35, 0.5):
                options = SimOptions(
                    asymmetry_probability=rate, asymmetry_delta_ms=200.0,
                    loop_probability=0.2, seed=seed,
                )
                report = run_experiment(topo, origins, pairs, options, FALLBACK)
                false_accepts += report.false_rtt_accepts
                configs += 1

    # frozen configuration tuned to ~40% invalid per-origin trace pairs
    topo = generate_topology("random_geometric", {"n": 60}, seed=33)
    rng = random.Random(33)
    pairs = [tuple(rng.sample(topo.hosts, 2)) for _ in range(100)]
    origin = rng.choice(topo.routers)
    options = SimOptions(asymmetry_probability=0.06, asymmetry_delta_ms=200.0,
                         loop_probability=0.05, seed=33)
    report = run_experiment(topo, [origin], pairs, options, FALLBACK)
    corrupt = report.confusion["corrupt_accept"] + report.confusion["corrupt_reject"]
    invalid = corrupt / sum(report.confusion.values())
    ratio = report.stats.success_ratio
    ok = (
        false_accepts == 0
        and report.false_rtt_accepts == 0
        and 0.30 <= invalid <= 0.50
        and 0.45 <= ratio <= 0.65
    )
    _verdict(4, "rejection fidelity", ok,
             f"{configs} injection configs with {false_accepts} false accepts; "
             f"tuned corpus invalid={invalid:.2f} success_ratio={ratio:.2f}")


# ---------------------------------------------------------------------------
# 5. handover quantile law plus the two scenario shapes


def test_criterion_5_handover_quantile_law():
    step = 5.0
    grid = [step * i for i in range(41)]
    rng = random.Random(500)
    sandwich_ok = True
    for _ in range(50):
        rtts = [rng.uniform(10.0, 350.0) for _ in range(rng.randint(20, 300))]
        dist = distribution_of(rtts, RTT_MS)
        delays = sorted(0.5 * r for r in rtts)
        for beta in (0.05, 0.1, 0.2):
            curve = expected_loss_curve(dist, LossModel(beta=beta), grid)
            a_star = argmin_anticipation(curve).anticipation_ms

            def frac_above(t):
                return sum(1 for d in delays if d > t) / len(delays)

            if not (frac_above(a_star + step) <= beta + 1e-12
                    and frac_above(a_star - step) >= beta - 1e-12):
                sandwich_ok = False

    # localized scenario: dominant mass at 40-50 ms RTT, 8% heavy tail
    rng = random.Random(42)
    peaked = [rng.uniform(40.0, 50.0) for _ in range(92)]
    peaked += [rng.uniform(60.0, 240.0) for _ in range(8)]
    short_grid = [step * i for i in range(21)]
    curve = expected_loss_curve(
        distribution_of(peaked, RTT_MS), LossModel(beta=0.1), short_grid
    )
    peak_opt = argmin_anticipation(curve)
    peak_ok = not peak_opt.flat and abs(peak_opt.anticipation_ms - 25.0) <= 5.0

    # near-uniform scenario: no significant optimum exists
    rng = random.Random(7)
    uniformish = [rng.uniform(2.0, 6.0) for _ in range(90)]
    uniformish += [rng.uniform(210.0, 2010.0) for _ in range(10)]
    flat_opt = argmin_anticipation(
        expected_loss_curve(
            distribution_of(uniformish, RTT_MS), LossModel(beta=0.1),
            short_grid,
        )
    )
    _verdict(
        5, "handover quantile law",
        sandwich_ok and peak_ok and flat_opt.flat,
        f"sandwich on 150 curves; localized argmin={peak_opt.anticipation_ms:g} ms; "
        f"flat_flag={flat_opt.flat}",
    )


# ---------------------------------------------------------------------------
# 6. multicast persistence


def _hop_dist(samples):
    return distribution_of([float(s) for s in samples], HOP_COUNT, 1.0)


def test_criterion_6_multicast_persistence():
    rng = random.Random(600)

    # exact agreement with the direct per-sample sum
    oracle_ok = True
    full_table = PersistenceTable(
        entries={h: max(0.0, 1.0 - h / 160.0) for h in range(1, 81)}
    )
    for _ in range(20):
        hops = [rng.randint(1, 80) for _ in range(rng.randint(10, 500))]
        got = multicast_persistence(_hop_dist(hops), full_table)
        direct = sum(full_table.entries[h] for h in hops) / len(hops)
        if abs(got - direct) > 1e-12:
            oracle_ok = False

    # stochastic monotonicity under a non-increasing table
    mono_ok = True
    for _ in range(100):
        base = [rng.randint(1, 40) for _ in range(rng.randint(10, 100))]
        shifted = [b + rng.randint(0, 30) for b in base]
        if (multicast_persistence(_hop_dist(shifted), full_table)
                > multicast_persistence(_hop_dist(base), full_table) + 1e-12):
            mono_ok = False

    # calibrated contrast: the table that gives ~5% invalidation on a peaked
    # 8-hop distribution at least doubles it on a wide high-mean distribution
    peaked = [6, 7, 7, 8, 8, 8, 8, 9, 9, 10]  # mean 8
    wide = list(range(10, 27))  # mean 18
    inval_peaked = 1.0 - multicast_persistence(_hop_dist(peaked), full_table)
    inval_wide = 1.0 - multicast_persistence(_hop_dist(wide), full_table)
    contrast_ok = abs(inval_peaked - 0.05) < 0.01 and inval_wide >= 2 * inval_peaked

    _verdict(6, "multicast persistence", oracle_ok and mono_ok and contrast_ok,
             f"invalidation peaked={inval_peaked:.4f} wide={inval_wide:.4f}")


# ---------------------------------------------------------------------------
# 7. statistics: moment oracles, exact ccdf, subset stability


def _outcome(i, hop_bound):
    est = PairEstimate("O", "t", 1, 1, False, hop_bound, float(hop_bound))
    return PairOutcome(pair=(f"a{i}", f"b{i}"), origins=("O",), entries=(est,),
                       best_hop=est, best_rtt=est)


def test_criterion_7_statistics():
    rng = random.Random(700)
    values = [rng.uniform(0.0, 400.0) for _ in range(1500)]
    dist = distribution_of(values, RTT_MS)
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    moments_ok = (
        abs(dist.mean - mean) <= 1e-9 * abs(mean)
        and abs(dist.std - math.sqrt(var)) <= 1e-9 * dist.std
    )
    ccdf_ok = all(
        fraction == sum(1 for v in values if v > threshold) / len(values)
        for threshold, fraction in ((edge, dist.fraction_above(edge)) for edge, _ in dist.bins)
    )
    bounds = [rng.randint(4, 18) for _ in range(2000)]
    outcomes = [_outcome(i, b) for i, b in enumerate(bounds)]
    mean_dev, _ = resample_stability(build_distribution(outcomes, HOP_COUNT), 500, 20, seed=700)
    full_mean = sum(bounds) / len(bounds)
    stability_ok = mean_dev < 0.05 * full_mean
    _verdict(7, "statistics", moments_ok and ccdf_ok and stability_ok,
             f"max subset mean deviation {mean_dev:.4f} vs mean {full_mean:.4f}")


# ---------------------------------------------------------------------------
# 8. determinism: the seeded pipeline is byte-identical across runs


def _run_pipeline(base):
    base.mkdir()
    sim = base / "sim"
    assert cli.main(["--seed", "88", "--quiet", "simulate", "--model", "two_tier",
                     "--params", "regions=4,leaves=4", "--origins", "3",
                     "--pairs", "25", "--inject", "asymmetry=0.1,delta=80",
                     "--allow-origin-fallback", "-o", str(sim)]) == 0
    traces = sorted(str(p) for p in sim.glob("traces_*.jsonl"))
    outcomes = base / "outcomes.jsonl"
    assert cli.main(["--seed", "88", "--quiet", "pairs", "--traces", *traces,
                     "--pairs-file", str(sim / "pairs.csv"),
                     "--allow-origin-fallback", "-o", str(outcomes)]) == 0
    assert cli.main(["--seed", "88", "--quiet", "dist", "--outcomes",
                     str(outcomes), "-o", str(base / "dist")]) == 0
    assert cli.main(["--seed", "88", "--quiet", "handover", "--outcomes",
                     str(outcomes), "-o", str(base / "curve.tsv")]) == 0
    return {
        str(p.relative_to(base)): p.read_bytes()
        for p in sorted(base.rglob("*"))
        if p.is_file()
    }


def test_criterion_8_determinism(tmp_path):
    first = _run_pipeline(tmp_path / "run1")
    second = _run_pipeline(tmp_path / "run2")
    same = first == second
    _verdict(8, "determinism", same and len(first) >= 8,
             f"{len(first)} pipeline artifacts byte-compared")
