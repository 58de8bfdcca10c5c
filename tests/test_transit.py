import itertools
import json
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from edgedist.model import PairEstimate, RejectKind, RejectReason, TracePath, TransitPoint
from edgedist.transit import (
    ACCESS_ROUTER,
    HOST,
    EstimateOptions,
    PreparedTrace,
    batch_estimate,
    endpoint_of,
    estimate_pair,
    last_common_hop,
    min_over_origins,
    read_outcomes,
    validate_beyond_transit,
    write_outcomes,
)
from edgedist import synth

import reference_transit as reference
from conftest import make_topology, trace


# --- endpoint_of -----------------------------------------------------------


def test_endpoint_host_mode():
    t = trace("o", "H", [("r1", 1.0), ("r2", 2.0), ("H", 3.0)])
    assert endpoint_of(t, HOST) == 3


def test_endpoint_access_router():
    t = trace("o", "H", [("r1", 1.0), ("r2", 2.0), ("H", 3.0)])
    assert endpoint_of(t, ACCESS_ROUTER) == 2


def test_endpoint_degenerate_single_hop():
    t = trace("o", "H", [("H", 1.0)])
    assert endpoint_of(t, ACCESS_ROUTER) == 1


def test_endpoint_skips_unresponsive():
    t = trace("o", "H", [("r1", 1.0), (None, None), ("H", 3.0)])
    assert endpoint_of(t, ACCESS_ROUTER) == 1


def test_endpoint_unreached_rejected():
    t = trace("o", "H", [("r1", 1.0)], reached=False)
    with pytest.raises(ValueError):
        endpoint_of(t)


def test_endpoint_access_router_oracle_three_hops():
    # enumerate every placement of one unresponsive hop in reached 3-hop paths
    for star in range(1, 3):  # destination hop must stay responsive
        hops = [("r1", 1.0), ("r2", 2.0), ("H", 3.0)]
        hops[star - 1] = (None, None)
        t = trace("o", "H", hops)
        # oracle: scan backward from the hop before the destination
        expected = next(
            (pos for pos in (2, 1) if t.hop(pos).responsive), 3
        )
        assert endpoint_of(t, ACCESS_ROUTER) == expected


@pytest.mark.parametrize("eps", [float("nan"), -5.0, -1e-9, float("inf")])
def test_eps_rtt_must_be_finite_and_non_negative(eps):
    with pytest.raises(ValueError, match="eps_rtt must be finite and >= 0"):
        EstimateOptions(eps_rtt=eps)


def test_unknown_mode_is_rejected_up_front():
    # a misspelled mode used to read as "destination not reached" for every pair
    with pytest.raises(ValueError, match="unknown endpoint mode 'acess_router'"):
        EstimateOptions(mode="acess_router")


# --- last_common_hop -------------------------------------------------------


def _path(origin, dest, addresses, base=1.0):
    return trace(
        origin, dest, [(a, base * (i + 1)) for i, a in enumerate(addresses)]
    )


def test_common_prefix_transit():
    a = _path("o", "d", ["a", "b", "c", "d"])
    b = _path("o", "f", ["a", "b", "e", "f"])
    tp = last_common_hop(a, b)
    assert (tp.address, tp.index_a, tp.index_b) == ("b", 2, 2)


def test_no_common_hop_fallback():
    a = _path("o", "b", ["a", "b"])
    b = _path("o", "d", ["c", "d"])
    assert last_common_hop(a, b) == RejectReason(
        RejectKind.NO_TRANSIT, "no common responsive hop"
    )
    tp = last_common_hop(a, b, allow_origin_fallback=True)
    assert tp.is_origin_fallback and (tp.index_a, tp.index_b) == (0, 0)


def test_reconvergent_path_maximizes_index_sum():
    a = _path("o", "c", ["a", "b", "x", "c"])
    b = _path("o", "c2", ["a", "x", "c2"])
    tp = last_common_hop(a, b)
    assert (tp.address, tp.index_a, tp.index_b) == ("x", 3, 2)


def test_last_common_hop_brute_force_oracle():
    rng = random.Random(7)
    pool = [f"n{i}" for i in range(8)]
    for _ in range(200):
        addrs_a = rng.sample(pool, rng.randint(1, 6))
        addrs_b = rng.sample(pool, rng.randint(1, 6))
        a = _path("o", addrs_a[-1], addrs_a)
        b = _path("o", addrs_b[-1], addrs_b)
        got = last_common_hop(a, b)
        # oracle: enumerate all common responsive positions
        candidates = [
            (ia + ib, ia, addr)
            for ia, addr in enumerate(addrs_a, 1)
            for ib, other in enumerate(addrs_b, 1)
            if addr == other
        ]
        if not candidates:
            assert got == RejectReason(RejectKind.NO_TRANSIT, "no common responsive hop")
        else:
            best_sum = max(c[0] for c in candidates)
            top = [c for c in candidates if c[0] == best_sum]
            best_ia = max(c[1] for c in top)
            best_addr = min(c[2] for c in top if c[1] == best_ia)
            assert (got.address, got.index_a) == (best_addr, best_ia)


def test_unresponsive_hops_never_match():
    a = trace("o", "d", [(None, None), ("d", 2.0)])
    b = trace("o", "e", [(None, None), ("e", 2.0)])
    assert isinstance(last_common_hop(a, b), RejectReason)


def test_limit_beyond_the_trace_is_an_error():
    a = _path("o", "b", ["a", "b"])
    with pytest.raises(ValueError, match="position limit 3 outside a 2-hop trace"):
        last_common_hop(a, a, limit_a=3)


def test_differing_origins_is_an_error():
    a = _path("o1", "b", ["a", "b"])
    b = _path("o2", "b", ["a", "b"])
    with pytest.raises(ValueError):
        last_common_hop(a, b)
    with pytest.raises(ValueError, match="different origins"):
        estimate_pair(a, b)


# --- validate_beyond_transit ----------------------------------------------


def test_monotone_rtts_accepted():
    t = trace("o", "c", [("t", 5.0), ("b", 8.0), ("c", 12.0)])
    assert validate_beyond_transit(t, 1, 3) is None


def test_decreasing_rtt_rejected():
    t = trace("o", "c", [("t", 5.0), ("b", 8.0), ("c", 7.0)])
    reject = validate_beyond_transit(t, 1, 3)
    assert reject.kind is RejectKind.ASYMMETRY_SUSPECTED


def test_decrease_within_tolerance_accepted():
    t = trace("o", "c", [("t", 5.0), ("b", 8.0), ("c", 7.0)])
    assert validate_beyond_transit(t, 1, 3, eps_rtt=1.5) is None


def test_loop_beyond_transit_rejected():
    t = trace("o", "v2", [("t", 1.0), ("u", 2.0), ("v", 3.0), ("u", 4.0), ("v2", 5.0)])
    reject = validate_beyond_transit(t, 1, 5)
    assert reject.kind is RejectKind.LOOP_BEYOND_TRANSIT


def test_missing_rtt_at_transit():
    t = trace("o", "c", [("t", None), ("c", 2.0)])
    reject = validate_beyond_transit(t, 1, 2)
    assert reject.kind is RejectKind.MISSING_RTT_AT_TRANSIT


# --- estimate_pair ---------------------------------------------------------


def test_estimate_smallest_case():
    a = trace("o", "a", [("t", 2.0), ("a", 5.0)])
    b = trace("o", "b", [("t", 2.0), ("b", 6.0)])
    est = estimate_pair(a, b, EstimateOptions(mode=HOST))
    assert est.hop_bound == 2
    assert est.rtt_bound_ms == pytest.approx(7.0)
    assert (est.transit.index_a, est.transit.index_b) == (1, 1)


def test_estimate_identity_pair():
    a = trace("o", "a", [("t", 2.0), ("a", 5.0)])
    est = estimate_pair(a, a, EstimateOptions(mode=HOST))
    assert est.hop_bound == 0 and est.rtt_bound_ms == 0.0


def test_estimate_symmetry():
    a = trace("o", "a", [("t", 2.0), ("x", 3.0), ("a", 5.0)])
    b = trace("o", "b", [("t", 2.0), ("b", 6.0)])
    assert estimate_pair(a, b, EstimateOptions(mode=HOST)) == estimate_pair(
        b, a, EstimateOptions(mode=HOST)
    )


def test_estimate_origin_fallback_uses_zero_transit_rtt():
    a = trace("o", "a", [("u", 2.0), ("a", 5.0)])
    b = trace("o", "b", [("v", 2.0), ("b", 6.0)])
    est = estimate_pair(
        a, b, EstimateOptions(mode=HOST, allow_origin_fallback=True)
    )
    assert est.hop_bound == 4
    assert est.rtt_bound_ms == pytest.approx(11.0)


def test_estimate_rejects_decreasing_tail():
    a = trace("o", "a", [("t", 5.0), ("x", 4.0), ("a", 6.0)])
    b = trace("o", "b", [("t", 5.0), ("b", 6.0)])
    reject = estimate_pair(a, b, EstimateOptions(mode=HOST))
    assert reject.kind is RejectKind.ASYMMETRY_SUSPECTED


def test_segment_rejects_take_precedence_over_tail_rejects():
    # a's segment passes within eps but its tail RTT is negative; b's
    # segment repeats x beyond the transit, so b's loop reject wins
    a = trace("o", "a", [("t", 5.0), ("a", 4.5)])
    b = trace("o", "b", [("t", 1.0), ("x", 2.0), ("x", 3.0), ("b", 4.0)])
    options = EstimateOptions(mode=HOST, eps_rtt=1.0)
    reject = estimate_pair(a, b, options)
    assert reject == reference.estimate_pair(a, b, options)
    assert reject.kind is RejectKind.LOOP_BEYOND_TRANSIT
    assert reject.detail == "address x repeats at hop 3"
    # without b's loop, a's negative tail is the reject
    clean_b = trace("o", "b", [("t", 1.0), ("b", 4.0)])
    assert estimate_pair(a, clean_b, options) == RejectReason(
        RejectKind.ASYMMETRY_SUSPECTED, "negative rtt difference -0.5 on tail to a"
    )


def test_estimate_bounds_true_distance_on_synthetic_graph():
    # 12-router ring of stars; bounds from each origin stay >= the truth
    topo = synth.generate_topology("ring_of_stars", {"cores": 4, "leaves": 2}, seed=11)
    hosts = topo.hosts
    origins = ["C0", "C2", "C0L0"]
    for origin in origins:
        sim = synth.Simulator(topo)
        pairs = list(itertools.combinations(hosts[:5], 2))
        for a, b in pairs:
            ta, _ = sim.trace(origin, a)
            tb, _ = sim.trace(origin, b)
            est = estimate_pair(
                ta, tb, EstimateOptions(mode=HOST, allow_origin_fallback=True)
            )
            assert isinstance(est, PairEstimate)
            true_hops, true_lat = synth.true_distance(topo, a, b)
            assert est.hop_bound >= true_hops
            assert est.rtt_bound_ms >= 2 * true_lat - 1e-9


# --- min_over_origins / batch ---------------------------------------------


def _fake_estimate(origin, hop_bound, rtt_bound):
    from edgedist.model import TransitPoint

    return PairEstimate(
        endpoint_a="a", endpoint_b="b", origin_id=origin,
        transit=TransitPoint(address="t", index_a=1, index_b=1),
        hop_bound=hop_bound, rtt_bound_ms=rtt_bound,
    )


def test_min_over_origins_picks_minimum():
    per_origin = {
        "O1": _fake_estimate("O1", 14, 90.0),
        "O2": _fake_estimate("O2", 9, 120.0),
        "O3": _fake_estimate("O3", 11, 70.0),
    }
    outcome = min_over_origins(("a", "b"), per_origin)
    assert outcome.best_hop.origin_id == "O2"
    assert outcome.best_rtt.origin_id == "O3"


def test_min_over_origins_all_rejected():
    per_origin = {
        "O1": RejectReason(RejectKind.ASYMMETRY_SUSPECTED, ""),
        "O2": RejectReason(RejectKind.NO_TRANSIT, ""),
    }
    outcome = min_over_origins(("a", "b"), per_origin)
    assert outcome.best_hop is None and outcome.best_rtt is None
    assert not outcome.accepted


def test_min_over_origins_tie_break_deterministic():
    per_origin = {
        "O2": _fake_estimate("O2", 9, 70.0),
        "O1": _fake_estimate("O1", 9, 70.0),
    }
    outcome = min_over_origins(("a", "b"), per_origin)
    assert outcome.best_hop.origin_id == "O1"


def test_min_over_origins_empty_is_error():
    with pytest.raises(ValueError):
        min_over_origins(("a", "b"), {})


def test_min_over_origins_coupled_metrics():
    per_origin = {
        "O1": _fake_estimate("O1", 9, 120.0),
        "O2": _fake_estimate("O2", 11, 70.0),
    }
    outcome = min_over_origins(("a", "b"), per_origin, couple_metrics=True)
    assert outcome.best_rtt.origin_id == "O1"


_REJECT = RejectReason(RejectKind.NO_TRANSIT, "")


def _tied_estimate(hop_bound, rtt_bound):
    # one origin id for all, so two entries with equal bounds are equal
    # values and only their identity tells which origin won
    return PairEstimate(
        endpoint_a="a", endpoint_b="b", origin_id="o",
        transit=TransitPoint(address="t", index_a=1, index_b=1),
        hop_bound=hop_bound, rtt_bound_ms=rtt_bound,
    )


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from(["O1", "O2", "O3", "O4", "O5"]),
        st.one_of(
            st.just(_REJECT),
            st.builds(_tied_estimate, st.integers(0, 2), st.sampled_from([0.0, 1.5, 2.0])),
        ),
        min_size=1,
    ),
    st.booleans(),
)
@example({"O2": _REJECT, "O1": _REJECT}, False)
@example({"O3": _tied_estimate(4, 9.0)}, False)
@example({"O3": _tied_estimate(4, 9.0)}, True)
@example({"O2": _tied_estimate(1, 5.0), "O1": _tied_estimate(1, 7.0)}, False)
@example({"O2": _tied_estimate(2, 5.0), "O1": _tied_estimate(1, 5.0)}, False)
@example({"O3": _tied_estimate(1, 5.0), "O2": _tied_estimate(1, 5.0),
          "O1": _REJECT}, False)
@example({"O2": _tied_estimate(1, 9.0), "O1": _tied_estimate(2, 5.0)}, True)
def test_min_over_origins_matches_the_two_pass_reference(per_origin, couple):
    got = min_over_origins(("a", "b"), per_origin, couple)
    want = reference.min_over_origins(("a", "b"), per_origin, couple)
    assert got == want
    assert got.best_hop is want.best_hop and got.best_rtt is want.best_rtt


def _accepted_pair_traces(origin, i):
    a_dest, b_dest = f"A{i}", f"B{i}"
    shared = f"T{i}"
    return (
        trace(origin, a_dest, [(shared, 2.0), (a_dest, 5.0)]),
        trace(origin, b_dest, [(shared, 2.0), (b_dest, 6.0)]),
    )


def _rejected_pair_traces(origin, i):
    a_dest, b_dest = f"A{i}", f"B{i}"
    shared = f"T{i}"
    return (
        trace(origin, a_dest, [(shared, 5.0), ("m%d" % i, 4.0), (a_dest, 6.0)]),
        trace(origin, b_dest, [(shared, 5.0), (b_dest, 6.0)]),
    )


def test_batch_success_ratio_65_percent():
    traces = []
    pairs = []
    for i in range(20):
        maker = _accepted_pair_traces if i < 13 else _rejected_pair_traces
        ta, tb = maker("O1", i)
        traces.extend([ta, tb])
        pairs.append((ta.destination, tb.destination))
    outcomes, stats = batch_estimate({"O1": traces}, pairs, EstimateOptions(mode=HOST))
    assert stats.success_ratio == pytest.approx(0.65)
    assert stats.reject_counts["AsymmetrySuspected"] == 7


def test_batch_all_valid_shared_transit():
    traces = []
    pairs = []
    for i in range(5):
        ta, tb = _accepted_pair_traces("O1", i)
        traces.extend([ta, tb])
        pairs.append((ta.destination, tb.destination))
    _, stats = batch_estimate({"O1": traces}, pairs, EstimateOptions(mode=HOST))
    assert stats.success_ratio == 1.0


def test_batch_missing_trace_reports_no_trace():
    ta, tb = _accepted_pair_traces("O1", 0)
    outcomes, stats = batch_estimate(
        {"O1": [ta, tb]}, [("A0", "B0"), ("A0", "ghost")], EstimateOptions(mode=HOST)
    )
    ghost = outcomes[1]
    reject = ghost.per_origin["O1"]
    assert reject.kind is RejectKind.NO_TRANSIT and reject.detail == "no trace"
    assert stats.succeeded == 1


def test_batch_shares_one_transit_point_per_distinct_transit():
    # every pair of every origin meets at T, one hop deep in both traces
    dests = ["A", "B", "C", "D"]
    traces_by_origin = {
        origin: [trace(origin, d, [("T", 1.0), (d, 2.0)]) for d in dests]
        for origin in ("O1", "O2")
    }
    traces_by_origin["O3"] = [trace("O3", d, [(d, 2.0)]) for d in dests]
    pairs = list(itertools.combinations(dests, 2))
    outcomes, _ = batch_estimate(
        traces_by_origin, pairs, EstimateOptions(mode=HOST, allow_origin_fallback=True))
    transits = [est.transit for oc in outcomes for est in oc.per_origin.values()]
    assert len(transits) == 3 * len(pairs)
    assert {id(t) for t in transits} == {id(transits[0]), id(transits[2])}
    assert transits[0] == TransitPoint("T", 1, 1)
    assert transits[2].is_origin_fallback


def test_outcomes_round_trip(tmp_path):
    ta, tb = _accepted_pair_traces("O1", 0)
    tc, td = _rejected_pair_traces("O2", 0)
    outcomes, _ = batch_estimate(
        {"O1": [ta, tb], "O2": [tc, td]},
        [("A0", "B0")],
        EstimateOptions(mode=HOST),
    )
    path = tmp_path / "outcomes.jsonl"
    write_outcomes(outcomes, path)
    loaded = read_outcomes(path)
    assert loaded == outcomes


# --- prepared traces against the reference estimator -----------------------

OPTION_GRID = [
    EstimateOptions(mode=mode, allow_origin_fallback=fallback, eps_rtt=eps,
                    couple_metrics=couple)
    for mode in (HOST, ACCESS_ROUTER)
    for fallback in (False, True)
    for eps in (0.0, 0.75)
    for couple in (False, True)
]


@st.composite
def faulty_traces(draw):
    """Synthetic traces from one or two origins to a few hosts, with loops,
    asymmetry, blocking and jitter injected; some cut short (unreached)."""
    model, params = draw(st.sampled_from([
        (synth.RING_OF_STARS, {"cores": 4, "leaves": 2}),
        (synth.TWO_TIER, {"regions": 3, "leaves": 3, "peering": True}),
        (synth.RANDOM_GEOMETRIC, {"n": 12}),
    ]))
    topo = synth.generate_topology(model, params, seed=draw(st.integers(0, 30)))
    options = synth.SimOptions(
        block_probability=draw(st.sampled_from([0.0, 0.3])),
        asymmetry_probability=draw(st.sampled_from([0.0, 0.3, 0.6])),
        asymmetry_delta_ms=draw(st.sampled_from([0.5, 40.0])),
        loop_probability=draw(st.sampled_from([0.0, 0.5, 1.0])),
        rtt_jitter_ms=draw(st.sampled_from([0.0, 0.5])),
        seed=draw(st.integers(0, 1000)),
    )
    sim = synth.Simulator(topo, options)
    hosts = draw(st.lists(st.sampled_from(topo.hosts), min_size=2, max_size=5, unique=True))
    origins = draw(st.lists(st.sampled_from(topo.routers), min_size=1, max_size=2, unique=True))
    traces_by_origin = {}
    for origin in origins:
        rows = []
        for host in hosts:
            tr, _ = sim.trace(origin, host)
            if draw(st.integers(0, 5)) == 0:
                tr = TracePath(origin, host, tr.hops[:len(tr.hops) // 2], reached=False)
            rows.append(tr)
        traces_by_origin[origin] = rows
    return traces_by_origin, hosts


@settings(max_examples=60, deadline=None)
@given(faulty_traces())
def test_prepared_estimator_matches_reference(campaign):
    traces_by_origin, hosts = campaign
    pairs = list(itertools.permutations(hosts, 2)) + [(h, h) for h in hosts]
    by_origin = {
        origin: {t.destination: t for t in rows}
        for origin, rows in sorted(traces_by_origin.items())
    }
    # one prepared trace per (origin, mode), reused across the other options
    prepared = {
        (origin, mode, dest): PreparedTrace(t, mode)
        for origin, by_dest in by_origin.items() for dest, t in by_dest.items()
        for mode in (HOST, ACCESS_ROUTER)
    }
    for options in OPTION_GRID:
        for origin, by_dest in by_origin.items():
            for a, b in pairs:
                expected = reference.estimate_pair(by_dest[a], by_dest[b], options)
                assert estimate_pair(by_dest[a], by_dest[b], options) == expected
                assert estimate_pair(
                    prepared[origin, options.mode, a], prepared[origin, options.mode, b],
                    options,
                ) == expected
        outcomes, _ = batch_estimate(traces_by_origin, pairs, options)
        for (a, b), outcome in zip(pairs, outcomes):
            per_origin = {
                origin: reference.estimate_pair(by_dest[a], by_dest[b], options)
                for origin, by_dest in by_origin.items()
            }
            assert outcome == reference.min_over_origins(
                (min(a, b), max(a, b)), per_origin, options.couple_metrics
            )


@settings(max_examples=60, deadline=None)
@given(faulty_traces(), st.integers(0, 12), st.integers(0, 12), st.booleans())
def test_last_common_hop_matches_reference(campaign, cut_a, cut_b, fallback):
    traces_by_origin, hosts = campaign
    rows = next(iter(traces_by_origin.values()))
    for ta, tb in itertools.product(rows, repeat=2):
        limit_a, limit_b = min(cut_a, len(ta.hops)), min(cut_b, len(tb.hops))
        for limits in ((None, None), (limit_a, limit_b)):
            assert last_common_hop(ta, tb, fallback, *limits) == \
                reference.last_common_hop(ta, tb, fallback, *limits)


def test_prepared_trace_follows_a_change_of_eps_rtt():
    # x -> y drops 0.5 ms beyond both transits of a: rejected at eps 0,
    # accepted at eps 1, whichever tolerance a transit position saw first
    a = trace("o", "a", [("t", 2.0), ("u", 3.0), ("x", 5.0), ("y", 4.5), ("a", 6.0)])
    via_t = trace("o", "bt", [("t", 2.0), ("bt", 3.0)])
    via_u = trace("o", "bu", [("t", 2.0), ("u", 3.0), ("bu", 4.0)])
    prepared = {t: PreparedTrace(t, HOST) for t in (a, via_t, via_u)}
    for b, eps in ((via_t, 0.0), (via_u, 1.0), (via_t, 1.0), (via_u, 0.0)):
        options = EstimateOptions(mode=HOST, eps_rtt=eps)
        expected = reference.estimate_pair(a, b, options)
        assert isinstance(expected, PairEstimate) == (eps == 1.0)
        assert estimate_pair(prepared[a], prepared[b], options) == expected


def test_prepared_trace_for_another_mode_is_an_error():
    a = trace("o", "a", [("t", 2.0), ("a", 5.0)])
    b = trace("o", "b", [("t", 2.0), ("b", 6.0)])
    with pytest.raises(ValueError, match="another mode"):
        estimate_pair(PreparedTrace(a, HOST), PreparedTrace(b, HOST), EstimateOptions())


# --- the outcome reader against the reference reader -----------------------


def _split_and_rejected_outcomes():
    """A record whose best bounds come from different origins and one with
    no accepted origin."""
    split = min_over_origins(("a", "b"), {
        "O1": _fake_estimate("O1", 9, 120.0),
        "O2": _fake_estimate("O2", 11, 70.0),
        "O3": RejectReason(RejectKind.NO_TRANSIT, "no trace"),
    })
    rejected = min_over_origins(("a", "c"), {
        "O1": RejectReason(RejectKind.ASYMMETRY_SUSPECTED, "cumulative rtt drops"),
        "O2": RejectReason(RejectKind.NO_TRANSIT, "no trace"),
    })
    assert split.best_hop.origin_id != split.best_rtt.origin_id
    assert not rejected.accepted
    return [split, rejected]


@settings(max_examples=60, deadline=None)
@given(faulty_traces(), st.sampled_from(OPTION_GRID))
def test_read_outcomes_matches_reference(tmp_path_factory, campaign, options):
    traces_by_origin, hosts = campaign
    pairs = list(itertools.combinations(hosts, 2)) + [(hosts[0], hosts[0])]
    outcomes, _ = batch_estimate(traces_by_origin, pairs, options)
    outcomes += _split_and_rejected_outcomes()
    path = tmp_path_factory.mktemp("outcomes") / "outcomes.jsonl"
    write_outcomes(outcomes, path)
    loaded = read_outcomes(path)
    assert loaded == reference.read_outcomes(path) == outcomes
    # equal transit points and reject reasons are one object per file, and
    # each best bound is the per-origin entry of its origin
    shared = [
        getattr(est, "transit", est)
        for oc in loaded for est in oc.per_origin.values()
    ]
    assert len({id(x) for x in shared}) == len(set(shared))
    for oc in loaded:
        for best in (oc.best_hop, oc.best_rtt):
            assert best is None or best is oc.per_origin[best.origin_id]
    # and each origin name is one string object per file
    names = [origin for oc in loaded for origin in oc.per_origin] + [
        est.origin_id for oc in loaded for est in oc.per_origin.values()
        if isinstance(est, PairEstimate)
    ]
    assert len({id(name) for name in names}) == len(set(names))


def _valid_outcomes():
    ta, tb = _accepted_pair_traces("O1", 0)
    tc, td = _accepted_pair_traces("O2", 0)
    outcomes, _ = batch_estimate(
        {"O1": [ta, tb], "O2": [tc, td]},
        [("A0", "B0"), ("A0", "ghost")],
        EstimateOptions(mode=HOST),
    )
    return outcomes + _split_and_rejected_outcomes()


def _outcome_lines(tmp_path, outcomes):
    path = tmp_path / "valid.jsonl"
    write_outcomes(outcomes, path)
    return [json.loads(line) for line in path.read_text().splitlines()]


def _write_records(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def test_best_entry_unlike_its_origin_entry_is_read_as_written(tmp_path):
    records = _outcome_lines(tmp_path, _split_and_rejected_outcomes())
    records[0]["best_hop"] = dict(records[0]["best_hop"], rtt_bound_ms=150.0)
    path = _write_records(tmp_path / "edited.jsonl", records)
    loaded = read_outcomes(path)
    assert loaded == reference.read_outcomes(path)
    assert loaded[0].best_hop.rtt_bound_ms == 150.0
    assert loaded[0].per_origin["O1"].rtt_bound_ms == 120.0


def _drop(key):
    def edit(rec):
        del rec[key]
    return edit


def _set(key, value):
    def edit(rec):
        rec[key] = value
    return edit


def _set_entry(origin, **fields):
    def edit(rec):
        rec["per_origin"][origin] = dict(rec["per_origin"][origin], **fields)
    return edit


def _reject_best(key):
    def edit(rec):
        rec[key] = rec["per_origin"]["O3"]
        rec[key + "_origin"] = "O3"
    return edit


# each edit applies to the record with split best bounds (origins O1, O2
# accepted, O3 a NoTransit reject)
REFERENCE_REJECTS = {
    "not json": None,
    "missing best_hop_origin": _drop("best_hop_origin"),
    "missing per_origin": _drop("per_origin"),
    "unknown reject kind": _set_entry("O3", reject="Teleported"),
    "negative hop bound in the best entry only": lambda rec: rec.update(
        best_hop=dict(rec["best_hop"], hop_bound=-1)),
    "negative rtt bound": _set_entry("O2", rtt_bound_ms=-0.5),
    "transit of two items": _set_entry("O1", transit=["t", 1]),
    "fallback transit off the origin": _set_entry("O1", origin_fallback=True),
    "entry not an object": lambda rec: rec["per_origin"].update(O1=7),
    "NaN rtt bound": _set_entry("O2", rtt_bound_ms=float("nan")),
    "infinite rtt bound in the best entry only": lambda rec: rec.update(
        best_hop=dict(rec["best_hop"], rtt_bound_ms=float("inf"))),
}
# records the reference reader let through or crashed on (it now rejects
# the two hop bounds, since the PairEstimate it builds checks them)
REFERENCE_DEFECTS = {
    "pair of two numbers": _set("pair", [1, 2]),
    "pair with a list endpoint": _set("pair", [["x"], "b"]),
    "pair with a null endpoint": _set("pair", ["a", None]),
    "fractional hop bound": _set_entry("O1", hop_bound=2.5),
    "boolean hop bound": _set_entry("O2", hop_bound=True),
    "per_origin not an object": _set("per_origin", []),
    "best_hop a reject entry": _set("best_hop", {"reject": "NoTransit"}),
    "best_rtt the reject entry of its origin": _reject_best("best_rtt"),
    "pair of one endpoint": _set("pair", ["a"]),
    "pair of three endpoints": _set("pair", ["a", "b", "c"]),
    "unhashable transit address": _set_entry("O1", transit=[["t"], 1, 1]),
}


def _malformed_file(tmp_path, edit):
    records = _outcome_lines(tmp_path, _valid_outcomes())
    line = 3  # the record with split best bounds
    assert records[line - 1]["best_hop_origin"] == "O1"
    lines = [json.dumps(r) for r in records]
    if edit is None:
        lines[line - 1] = "{not json"
    else:
        edit(records[line - 1])
        lines[line - 1] = json.dumps(records[line - 1])
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(text + "\n" for text in lines))
    return path, line


@pytest.mark.parametrize("name", sorted(REFERENCE_REJECTS))
def test_malformed_outcome_rejected_like_the_reference(tmp_path, name):
    path, line = _malformed_file(tmp_path, REFERENCE_REJECTS[name])
    with pytest.raises(ValueError, match=f"bad outcome at line {line}:"):
        reference.read_outcomes(path)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: bad outcome at line {line}:"):
        read_outcomes(path)


@pytest.mark.parametrize("name", sorted(REFERENCE_DEFECTS))
def test_malformed_outcome_the_reference_missed_is_rejected(tmp_path, name):
    path, line = _malformed_file(tmp_path, REFERENCE_DEFECTS[name])
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: bad outcome at line {line}:"):
        read_outcomes(path)
