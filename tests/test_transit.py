import itertools
import json
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from edgedist.model import (
    PairEstimate,
    RejectKind,
    RejectReason,
    TraceError,
)
from edgedist.transit import (
    ACCESS_ROUTER,
    HOST,
    EstimateOptions,
    PairOutcome,
    PreparedTrace,
    batch_estimate,
    estimate_pair,
    min_over_origins,
    read_outcomes,
    write_outcomes,
)
from edgedist import synth, transit

import reference_transit as reference
from conftest import make_topology, trace

HOST_MODE = EstimateOptions(mode=HOST)


def _estimate(a, b, options=EstimateOptions()):
    return estimate_pair(PreparedTrace(a, options), PreparedTrace(b, options))


# --- the endpoint of a prepared trace ---------------------------------------


def _endpoint(t, mode=ACCESS_ROUTER):
    return PreparedTrace(t, EstimateOptions(mode=mode)).endpoint


def test_endpoint_host_mode():
    t = trace("o", "H", [("r1", 1.0), ("r2", 2.0), ("H", 3.0)])
    assert _endpoint(t, HOST) == 3


def test_endpoint_access_router():
    t = trace("o", "H", [("r1", 1.0), ("r2", 2.0), ("H", 3.0)])
    assert _endpoint(t, ACCESS_ROUTER) == 2


def test_endpoint_degenerate_single_hop():
    t = trace("o", "H", [("H", 1.0)])
    assert _endpoint(t, ACCESS_ROUTER) == 1


def test_endpoint_keeps_an_unresponsive_access_router():
    # the endpoint used to fall back to r1, one hop short of the router
    t = trace("o", "H", [("r1", 1.0), (None, None), ("H", 3.0)])
    assert _endpoint(t, ACCESS_ROUTER) == 2
    # the silent router takes the destination hop's RTT
    assert _tail(t, 1) == 2.0


def test_endpoint_unreached_rejected():
    t = trace("o", "H", [("r1", 1.0)], reached=False)
    reached = trace("o", "G", [("r1", 1.0), ("G", 2.0)])
    for mode in (HOST, ACCESS_ROUTER):
        assert _endpoint(t, mode) is None
        options = EstimateOptions(mode=mode)
        assert _estimate(t, reached, options) == _estimate(reached, t, options) == \
            RejectReason(RejectKind.UNREACHABLE_DESTINATION, "destination H not reached")


def test_endpoint_access_router_oracle_three_hops():
    # enumerate every placement of one unresponsive hop in reached 3-hop paths
    for star in range(1, 3):  # destination hop must stay responsive
        hops = [("r1", 1.0), ("r2", 2.0), ("H", 3.0)]
        hops[star - 1] = (None, None)
        t = trace("o", "H", hops)
        # oracle: the hop before the destination, answered or not, with the
        # destination's RTT when it is silent
        assert _endpoint(t, ACCESS_ROUTER) == 2
        assert _tail(t, 0) == (3.0 if star == 2 else 2.0)


@pytest.mark.parametrize("eps", [float("nan"), -5.0, -1e-9, float("inf")])
def test_eps_rtt_must_be_finite_and_non_negative(eps):
    with pytest.raises(ValueError, match="eps_rtt must be finite and >= 0"):
        EstimateOptions(eps_rtt=eps)


def test_unknown_mode_is_rejected_up_front():
    # a misspelled mode used to read as "destination not reached" for every pair
    with pytest.raises(ValueError, match="unknown endpoint mode 'acess_router'"):
        EstimateOptions(mode="acess_router")


# --- transit selection: the transit of an accepted host-mode estimate -------


def _path(origin, dest, addresses, base=1.0):
    return trace(
        origin, dest, [(a, base * (i + 1)) for i, a in enumerate(addresses)]
    )


def test_common_prefix_transit():
    a = _path("o", "d", ["a", "b", "c", "d"])
    b = _path("o", "f", ["a", "b", "e", "f"])
    tp = _estimate(a, b, HOST_MODE)
    assert (tp.address, tp.index_a, tp.index_b) == ("b", 2, 2)


def test_no_common_hop_fallback():
    a = _path("o", "b", ["a", "b"])
    b = _path("o", "d", ["c", "d"])
    assert _estimate(a, b, HOST_MODE) == RejectReason(
        RejectKind.NO_TRANSIT, "no common responsive hop"
    )
    tp = _estimate(a, b, EstimateOptions(mode=HOST, allow_origin_fallback=True))
    assert tp.is_origin_fallback and (tp.index_a, tp.index_b) == (0, 0)


def test_reconvergent_path_maximizes_index_sum():
    a = _path("o", "c", ["a", "b", "x", "c"])
    b = _path("o", "c2", ["a", "x", "c2"])
    tp = _estimate(a, b, HOST_MODE)
    assert (tp.address, tp.index_a, tp.index_b) == ("x", 3, 2)


def test_last_common_hop_brute_force_oracle():
    # distinct addresses per trace and rising RTTs: a pair is accepted
    # exactly when the traces share an address
    rng = random.Random(7)
    pool = [f"n{i}" for i in range(8)]
    for _ in range(200):
        addrs_a = rng.sample(pool, rng.randint(1, 6))
        addrs_b = rng.sample(pool, rng.randint(1, 6))
        a = _path("o", addrs_a[-1], addrs_a)
        b = _path("o", addrs_b[-1], addrs_b)
        got = _estimate(a, b, HOST_MODE)
        # the estimate orders the pair by destination
        if addrs_a[-1] > addrs_b[-1]:
            addrs_a, addrs_b = addrs_b, addrs_a
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
            assert (got.address, got.index_a, got.index_b) == \
                (best_addr, best_ia, best_sum - best_ia)


def test_unresponsive_hops_never_match():
    a = trace("o", "d", [(None, None), ("d", 2.0)])
    b = trace("o", "e", [(None, None), ("e", 2.0)])
    assert _estimate(a, b, HOST_MODE) == RejectReason(RejectKind.NO_TRANSIT, "no common responsive hop")


def test_differing_origins_is_an_error():
    a = _path("o1", "b", ["a", "b"])
    b = _path("o2", "b", ["a", "b"])
    with pytest.raises(ValueError, match="different origins"):
        _estimate(a, b)


# --- the checks on the segment beyond a transit -----------------------------


def _tail(t, transit_pos, **options):
    return PreparedTrace(t, EstimateOptions(**options)).tail(transit_pos)


def test_monotone_rtts_accepted():
    t = trace("o", "c", [("t", 5.0), ("b", 8.0), ("c", 12.0)])
    assert _tail(t, 1) == 3.0  # to the access router b
    assert _tail(t, 1, mode=HOST) == 7.0


def test_decreasing_rtt_rejected():
    t = trace("o", "c", [("t", 5.0), ("b", 8.0), ("c", 7.0)])
    reject = _tail(t, 1)
    assert reject == RejectReason(
        RejectKind.ASYMMETRY_SUSPECTED, "cumulative rtt drops 8.0 -> 7.0 at hop 3"
    )


def test_decrease_within_tolerance_accepted():
    t = trace("o", "c", [("t", 5.0), ("b", 8.0), ("c", 7.0)])
    assert _tail(t, 1, eps_rtt=1.5) == 3.0


def test_loop_beyond_transit_rejected():
    t = trace("o", "v2", [("t", 1.0), ("u", 2.0), ("v", 3.0), ("u", 4.0), ("v2", 5.0)])
    reject = _tail(t, 1)
    assert reject == RejectReason(RejectKind.LOOP_BEYOND_TRANSIT, "address u repeats at hop 4")


def test_loop_through_the_access_router_is_rejected():
    # the walk from the transit x sees r once; r is also hop 1, before x
    a = trace("o", "a", [("r", 1.0), ("x", 2.0), ("r", 3.0), ("a", 4.0)])
    b = trace("o", "b", [("q", 1.0), ("x", 2.0), ("s", 3.0), ("b", 4.0)])
    assert _estimate(a, b) == RejectReason(
        RejectKind.LOOP_BEYOND_TRANSIT, "access router r repeats at hop 3")
    # a host-mode endpoint is the host, so the rule does not apply
    assert _estimate(a, b, HOST_MODE).address == "x"


def test_missing_rtt_at_transit():
    t = trace("o", "c", [("t", None), ("c", 2.0)])
    reject = _tail(t, 1, mode=HOST)
    assert reject == RejectReason(RejectKind.MISSING_RTT_AT_TRANSIT, "no rtt at transit hop 1")


@pytest.mark.parametrize("mode", [HOST, ACCESS_ROUTER])
@pytest.mark.parametrize("transit_pos", [0, 1, 2])
def test_an_unreached_trace_has_no_tail(mode, transit_pos):
    # an unreached trace has no endpoint to measure a tail to
    t = trace("o", "c", [("t", 5.0), ("b", 8.0)], reached=False)
    with pytest.raises(ValueError, match="destination c not reached"):
        _tail(t, transit_pos, mode=mode)


# --- estimate_pair ---------------------------------------------------------


def test_estimate_smallest_case():
    a = trace("o", "a", [("t", 2.0), ("a", 5.0)])
    b = trace("o", "b", [("t", 2.0), ("b", 6.0)])
    est = _estimate(a, b, HOST_MODE)
    assert est.hop_bound == 2
    assert est.rtt_bound_ms == pytest.approx(7.0)
    assert (est.index_a, est.index_b) == (1, 1)


def test_estimate_identity_pair():
    a = PreparedTrace(trace("o", "a", [("t", 2.0), ("a", 5.0)]), HOST_MODE)
    est = estimate_pair(a, a)
    assert est.hop_bound == 0 and est.rtt_bound_ms == 0.0


def test_estimate_symmetry():
    a = trace("o", "a", [("t", 2.0), ("x", 3.0), ("a", 5.0)])
    b = trace("o", "b", [("t", 2.0), ("b", 6.0)])
    assert _estimate(a, b, HOST_MODE) == _estimate(b, a, HOST_MODE)


def test_estimate_origin_fallback_uses_zero_transit_rtt():
    a = trace("o", "a", [("u", 2.0), ("a", 5.0)])
    b = trace("o", "b", [("v", 2.0), ("b", 6.0)])
    est = _estimate(a, b, EstimateOptions(mode=HOST, allow_origin_fallback=True))
    assert est.hop_bound == 4
    assert est.rtt_bound_ms == pytest.approx(11.0)


def test_estimate_rejects_decreasing_tail():
    a = trace("o", "a", [("t", 5.0), ("x", 4.0), ("a", 6.0)])
    b = trace("o", "b", [("t", 5.0), ("b", 6.0)])
    reject = _estimate(a, b, HOST_MODE)
    assert reject.kind is RejectKind.ASYMMETRY_SUSPECTED


def test_segment_rejects_take_precedence_over_tail_rejects():
    # a's segment passes within eps but its tail RTT is negative; b's
    # segment repeats x beyond the transit, so b's loop reject wins
    a = trace("o", "a", [("t", 5.0), ("a", 4.5)])
    b = trace("o", "b", [("t", 1.0), ("x", 2.0), ("x", 3.0), ("b", 4.0)])
    options = EstimateOptions(mode=HOST, eps_rtt=1.0)
    reject = _estimate(a, b, options)
    assert reject == reference.estimate_pair(a, b, options)
    assert reject.kind is RejectKind.LOOP_BEYOND_TRANSIT
    assert reject.detail == "address x repeats at hop 3"
    # without b's loop, a's negative tail is the reject
    clean_b = trace("o", "b", [("t", 1.0), ("b", 4.0)])
    assert _estimate(a, clean_b, options) == RejectReason(
        RejectKind.ASYMMETRY_SUSPECTED, "negative rtt difference -0.5 on tail to a"
    )


# the RTTs at transit t and at the host
_TAILS = {"clean": (1.0, 4.0), "negative": (5.0, 4.5), "missing": (5.0, None)}


@pytest.mark.parametrize("tail_a, tail_b, detail", [
    ("negative", "negative", "negative rtt difference -0.5 on tail to a"),
    ("missing", "negative", "no rtt at endpoint hop 2 of a"),
    ("negative", "missing", "negative rtt difference -0.5 on tail to a"),
    ("clean", "negative", "negative rtt difference -0.5 on tail to b"),
    ("clean", "missing", "no rtt at endpoint hop 2 of b"),
])
def test_tail_rejects_go_to_the_first_endpoint_first(tail_a, tail_b, detail):
    # a's tail RTT is checked before b's, whichever order they are passed in
    a, b = (trace("o", d, [("t", _TAILS[tail][0]), (d, _TAILS[tail][1])])
            for d, tail in (("a", tail_a), ("b", tail_b)))
    options = EstimateOptions(mode=HOST, eps_rtt=1.0)
    for x, y in ((a, b), (b, a)):
        reject = _estimate(x, y, options)
        assert reject == reference.estimate_pair(x, y, options)
        assert reject.detail == detail


def test_an_rtt_bound_that_overflows_is_a_counted_reject():
    # each tail RTT is finite but their sum is not; it used to fail the
    # estimate's validation and abort pairs with exit 2
    a = trace("o", "a", [("t", 0.0), ("a", 1e308)])
    b = trace("o", "b", [("t", 0.0), ("b", 1.7e308)])
    reject = RejectReason(RejectKind.MISSING_RTT_AT_TRANSIT,
                          "rtt bound 1e+308 + 1.7e+308 overflows")
    assert _estimate(a, b, HOST_MODE) == reference.estimate_pair(a, b, HOST_MODE) == reject
    (outcome,), stats = batch_estimate({"o": [a, b]}, [("a", "b")], HOST_MODE)
    assert (outcome.origins, outcome.entries) == (("o",), (reject,)) and not outcome.accepted
    assert stats.reject_counts == {"MissingRttAtTransit": 1}


def test_estimate_bounds_true_distance_on_synthetic_graph():
    # 12-router ring of stars; bounds from each origin stay >= the truth
    topo = synth.generate_topology("ring_of_stars", {"cores": 4, "leaves": 2}, seed=11)
    hosts = topo.hosts
    origins = ["C0", "C2", "C0L0"]
    options = EstimateOptions(mode=HOST, allow_origin_fallback=True)
    for origin in origins:
        sim = synth.Simulator(topo)
        prepared = {host: PreparedTrace(sim.trace(origin, host)[0], options)
                    for host in hosts[:5]}
        for a, b in itertools.combinations(hosts[:5], 2):
            est = estimate_pair(prepared[a], prepared[b])
            assert isinstance(est, PairEstimate)
            true_hops, true_lat = synth.true_distance(topo, a, b)
            assert est.hop_bound >= true_hops
            assert est.rtt_bound_ms >= 2 * true_lat - 1e-9


# two access-router-mode cases whose bound used to undercut the true 2 hops
# (A1-T0-B1): they must be rejected or bound >= 2


def test_loop_just_before_the_host_does_not_undercut():
    # T0 is both the deepest common hop and a's access router; the scan
    # beyond the transit used to start past the repeat
    a = trace("o", "hA", [("T0", 1.0), ("A1", 2.0), ("T0", 3.0), ("hA", 4.0)])
    b = trace("o", "hB", [("T0", 1.0), ("B1", 2.0), ("hB", 3.0)])
    est = _estimate(a, b)
    assert isinstance(est, RejectReason) or est.hop_bound >= 2


def test_blocked_access_router_does_not_undercut():
    # a's access router A1 does not answer; its endpoint used to fall back to T0
    a = trace("o", "hA", [("T0", 1.0), (None, None), ("hA", 3.0)])
    b = trace("o", "hB", [("T0", 1.0), ("B1", 2.0), ("hB", 3.0)])
    est = _estimate(a, b)
    assert isinstance(est, RejectReason) or est.hop_bound >= 2


# --- min_over_origins / batch ---------------------------------------------


def _min_over(pair, per_origin, couple_metrics=False):
    """min_over_origins on the origins and entries of the dict per_origin."""
    return min_over_origins(pair, tuple(per_origin), tuple(per_origin.values()),
                            couple_metrics)


def _fake_estimate(origin, hop_bound, rtt_bound):
    return PairEstimate(origin, "t", 1, 1, False, hop_bound, rtt_bound)


def test_min_over_origins_picks_minimum():
    per_origin = {
        "O1": _fake_estimate("O1", 14, 90.0),
        "O2": _fake_estimate("O2", 9, 120.0),
        "O3": _fake_estimate("O3", 11, 70.0),
    }
    outcome = _min_over(("a", "b"), per_origin)
    assert outcome.best_hop.origin_id == "O2"
    assert outcome.best_rtt.origin_id == "O3"


def test_min_over_origins_all_rejected():
    per_origin = {
        "O1": RejectReason(RejectKind.ASYMMETRY_SUSPECTED, ""),
        "O2": RejectReason(RejectKind.NO_TRANSIT, ""),
    }
    outcome = _min_over(("a", "b"), per_origin)
    assert outcome.best_hop is None and outcome.best_rtt is None
    assert not outcome.accepted


def test_min_over_origins_tie_break_deterministic():
    per_origin = {
        "O2": _fake_estimate("O2", 9, 70.0),
        "O1": _fake_estimate("O1", 9, 70.0),
    }
    outcome = _min_over(("a", "b"), per_origin)
    assert outcome.best_hop.origin_id == "O1"


def test_min_over_origins_empty_is_error():
    with pytest.raises(ValueError, match="needs at least one origin entry"):
        min_over_origins(("a", "b"), (), ())


_REJECT_NO_TRANSIT = RejectReason(RejectKind.NO_TRANSIT)


@pytest.mark.parametrize("origins, entries", [
    (("O1", "O2"), (_REJECT_NO_TRANSIT,)),
    (("O1",), (_REJECT_NO_TRANSIT, _REJECT_NO_TRANSIT)),
    (["O1"], (_REJECT_NO_TRANSIT,)),
    (("O1",), [_REJECT_NO_TRANSIT]),
], ids=["fewer-entries", "fewer-origins", "origin-list", "entry-list"])
def test_min_over_origins_refuses_columns_that_do_not_align(origins, entries):
    # zip would drop the unmatched entries without a word
    with pytest.raises(ValueError, match="tuples of one length"):
        min_over_origins(("a", "b"), origins, entries)


@pytest.mark.parametrize("origins, entries, message", [
    (("O1", "O2"), (_REJECT_NO_TRANSIT,), "2 origins but 1 entries"),
    (("O1",), (_REJECT_NO_TRANSIT,) * 2, "1 origins but 2 entries"),
    (("O1", "O2", "O1"), (_REJECT_NO_TRANSIT,) * 3, "origin 'O1' is repeated"),
    (("O1", 5), (_REJECT_NO_TRANSIT,) * 2, "origin 5 is not a string"),
    (["O1"], (_REJECT_NO_TRANSIT,), "origins and entries must be tuples"),
    (("O1",), [_REJECT_NO_TRANSIT], "origins and entries must be tuples"),
], ids=["fewer-entries", "fewer-origins", "repeated-origin", "number-origin",
        "origin-list", "entry-list"])
def test_an_outcome_refuses_entries_unaligned_with_distinct_origins(origins, entries, message):
    # a repeated origin would be written as a repeated JSON key, which
    # reads back as one entry
    with pytest.raises(TraceError, match=f"^{re.escape(message)}$"):
        PairOutcome(("a", "b"), origins, entries)
    outcome = PairOutcome(("a", "b"), ("O1",), (_REJECT_NO_TRANSIT,))
    with pytest.raises(TraceError, match=f"^{re.escape(message)}$"):
        outcome._replace(origins=origins, entries=entries)


def test_min_over_origins_coupled_metrics():
    per_origin = {
        "O1": _fake_estimate("O1", 9, 120.0),
        "O2": _fake_estimate("O2", 11, 70.0),
    }
    outcome = _min_over(("a", "b"), per_origin, couple_metrics=True)
    assert outcome.best_rtt.origin_id == "O1"


_REJECT = RejectReason(RejectKind.NO_TRANSIT, "")


def _tied_estimate(hop_bound, rtt_bound):
    # one origin id for all, so two entries with equal bounds are equal
    # values and only their identity tells which origin won
    return PairEstimate("o", "t", 1, 1, False, hop_bound, rtt_bound)


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
    origins, entries = tuple(per_origin), tuple(per_origin.values())
    got = min_over_origins(("a", "b"), origins, entries, couple)
    want = reference.min_over_origins(("a", "b"), per_origin, couple)
    assert got == want
    # each kept, not copied
    assert got.origins is origins
    assert all(kept is entry for kept, entry in zip(got.entries, entries, strict=True))
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
    reject = reference.as_dict(ghost)["O1"]
    assert reject.kind is RejectKind.NO_TRANSIT and reject.detail == "no trace"
    assert stats.succeeded == 1


def _estimate_key(est):
    """What an estimate is shared by: equal keys encode alike, so 5 and
    5.0, or 0.0 and -0.0, are distinct."""
    return (*est[:-1], repr(est.rtt_bound_ms))


def _assert_one_object_per_distinct_estimate(outcomes):
    by_key = {}
    for oc in outcomes:
        for origin, est in zip(oc.origins, oc.entries):
            if isinstance(est, PairEstimate):
                assert est.origin_id == origin
                by_key.setdefault(_estimate_key(est), set()).add(id(est))
    _assert_bests_are_entries(outcomes)
    assert all(len(ids) == 1 for ids in by_key.values())
    return len(by_key)


def test_batch_shares_one_estimate_per_origin_and_bound():
    # every pair of every origin meets at T, one hop deep in both traces;
    # O3 sees no common hop and falls back to the origin
    dests = ["A", "B", "C", "D"]
    traces_by_origin = {
        origin: [trace(origin, d, [("T", 1.0), (d, 2.0)]) for d in dests]
        for origin in ("O1", "O2")
    }
    traces_by_origin["O3"] = [trace("O3", d, [(d, 2.0)]) for d in dests]
    pairs = list(itertools.combinations(dests, 2))
    outcomes, _ = batch_estimate(
        traces_by_origin, pairs, EstimateOptions(mode=HOST, allow_origin_fallback=True))
    # each origin gives every pair the same bound, so one estimate each
    assert _assert_one_object_per_distinct_estimate(outcomes) == 3
    assert reference.as_dict(outcomes[-1]) == {
        "O1": PairEstimate("O1", "T", 1, 1, False, 2, 2.0),
        "O2": PairEstimate("O2", "T", 1, 1, False, 2, 2.0),
        "O3": PairEstimate("O3", None, 0, 0, True, 2, 4.0),
    }


def _traced_batch_of_a_seeded_campaign():
    """A batch of every pair of a seeded 8-origin campaign, with the heap
    it holds at return and its peak, as ``tracemalloc`` counts them."""
    import gc
    import tracemalloc

    topo = synth.generate_topology(synth.TWO_TIER, {"regions": 6, "leaves": 10}, seed=3)
    sim = synth.Simulator(topo)
    traces_by_origin = {origin: [sim.trace(origin, host)[0] for host in topo.hosts]
                        for origin in topo.routers[:8]}
    pairs = list(itertools.combinations(topo.hosts, 2))
    gc.collect()
    tracemalloc.start()
    try:
        outcomes, stats = batch_estimate(traces_by_origin, pairs, HOST_MODE)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(outcomes) == 1770 and stats.succeeded == 1770
    return outcomes, kept, peak


def test_batch_outcomes_hold_one_flat_tuple_per_pair():
    """What a batch keeps per outcome: one tuple of its endpoints, origins,
    best bounds and entries, its list slot, and its share of the estimates
    and rejects."""
    outcomes, kept, _ = _traced_batch_of_a_seeded_campaign()
    assert all(oc.origins is outcomes[0].origins for oc in outcomes)
    per_pair = kept / len(outcomes)
    # measured 271 bytes (CPython 3.11); a tuple of entries and a pair
    # tuple beside each outcome made it 308, and a dict of entries per pair
    # 515
    assert per_pair < 285, per_pair


def test_batch_peak_is_about_what_its_outcomes_hold():
    # each row is popped from the columns as its outcome is built: measured
    # 7% above the heap held at return (CPython 3.11), and 27% with every
    # column alive until the last outcome existed
    _, kept, peak = _traced_batch_of_a_seeded_campaign()
    assert peak < 1.15 * kept, (peak, kept)


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


@pytest.mark.parametrize("fields, message", [
    ({"transit": [7, 1, 1]}, "address 7 is not a string"),
    ({"transit": ["", 1, 1]}, "address must be non-empty or None"),
    ({"transit": ["T", True, 1]}, "index_a True is not an int"),
    ({"transit": ["T", 1, 1.0]}, "index_b 1.0 is not an int"),
    ({"transit": ["T", 0, 1]}, "transit indices are 1-based"),
    ({"origin_fallback": 1}, "is_origin_fallback 1 is not a bool"),
    ({"transit": [None, 1, 0], "origin_fallback": True},
     "origin fallback transit must sit at (0, 0)"),
    ({"transit": [None, 1, 1]}, "non-fallback transit needs an address"),
    ({"hop_bound": -1}, "negative hop bound -1"),
    ({"hop_bound": 2.0}, "hop bound 2.0 is not an int"),
    ({"rtt_bound_ms": -1}, "rtt bound -1 is negative or not finite"),
    ({"rtt_bound_ms": "3"}, "rtt bound '3' is not a number"),
    # with two faults, the transit's is named before the bounds', the hop's
    # before the RTT's
    ({"transit": [7, 1, 1], "hop_bound": -1}, "address 7 is not a string"),
    ({"hop_bound": 2.0, "rtt_bound_ms": "3"}, "hop bound 2.0 is not an int"),
])
def test_read_outcomes_names_an_entry_fault(tmp_path, fields, message):
    ta = trace("O1", "X", [("T", 1.0), ("X", 3.0)])
    tb = trace("O1", "Y", [("T", 1.0), ("Y", 4.0)])
    outcomes, _ = batch_estimate({"O1": [ta, tb]}, [("X", "Y")], HOST_MODE)
    path = tmp_path / "o.jsonl"
    write_outcomes(outcomes, path)
    record = json.loads(path.read_text())
    record["per_origin"]["O1"].update(fields)
    path.write_text(f"{json.dumps(record, separators=(',', ':'))}\n")
    with pytest.raises(ValueError, match=f": bad outcome at line 1: {re.escape(message)}$"):
        read_outcomes(path)


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
                hops = list(zip(tr.addresses, tr.rtts))
                tr = trace(origin, host, hops[:len(hops) // 2], reached=False)
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
    for options in OPTION_GRID:
        # one prepared trace per (origin, destination), shared by its pairs
        for by_dest in by_origin.values():
            prepared = {dest: PreparedTrace(t, options) for dest, t in by_dest.items()}
            for a, b in pairs:
                assert estimate_pair(prepared[a], prepared[b]) == \
                    reference.estimate_pair(by_dest[a], by_dest[b], options)
        outcomes, _ = batch_estimate(dict(traces_by_origin), pairs, options)
        for (a, b), outcome in zip(pairs, outcomes):
            per_origin = {
                origin: reference.estimate_pair(by_dest[a], by_dest[b], options)
                for origin, by_dest in by_origin.items()
            }
            assert outcome == reference.min_over_origins(
                (min(a, b), max(a, b)), per_origin, options.couple_metrics
            )


def test_prepared_trace_follows_a_change_of_eps_rtt():
    # x -> y drops 0.5 ms beyond both transits of a: rejected at eps 0,
    # accepted at eps 1; each tolerance has its own prepared traces, whose
    # memo then serves a's two transit positions
    a = trace("o", "a", [("t", 2.0), ("u", 3.0), ("x", 5.0), ("y", 4.5), ("a", 6.0)])
    via_t = trace("o", "bt", [("t", 2.0), ("bt", 3.0)])
    via_u = trace("o", "bu", [("t", 2.0), ("u", 3.0), ("bu", 4.0)])
    for eps in (0.0, 1.0):
        options = EstimateOptions(mode=HOST, eps_rtt=eps)
        prepared = {t: PreparedTrace(t, options) for t in (a, via_t, via_u)}
        for b in (via_t, via_u, via_t):
            expected = reference.estimate_pair(a, b, options)
            assert isinstance(expected, PairEstimate) == (eps == 1.0)
            assert estimate_pair(prepared[a], prepared[b]) == expected


def test_traces_prepared_with_unequal_options_are_an_error():
    a = trace("o", "a", [("t", 2.0), ("a", 5.0)])
    b = trace("o", "b", [("t", 2.0), ("b", 6.0)])
    for other in (EstimateOptions(), EstimateOptions(mode=HOST, eps_rtt=1.0)):
        with pytest.raises(ValueError, match="unequal options"):
            estimate_pair(PreparedTrace(a, HOST_MODE), PreparedTrace(b, other))
    # equal options need not be one object
    equal = EstimateOptions(mode=HOST)
    assert equal is not HOST_MODE
    est = estimate_pair(PreparedTrace(a, HOST_MODE), PreparedTrace(b, equal))
    assert est == _estimate(a, b, HOST_MODE)


# --- the per-origin sweep against the pair-by-pair reference loop ----------


@st.composite
def sweep_campaigns(draw):
    """A faulty campaign with some traces dropped, so an endpoint may have
    no trace from some origins, and pairs that repeat, reverse or name a
    host no origin traced."""
    traces_by_origin, hosts = draw(faulty_traces())
    traces_by_origin = {
        origin: [t for t in rows if draw(st.integers(0, 4))]
        for origin, rows in traces_by_origin.items()
    }
    names = st.sampled_from([*hosts, "ghost"])
    pairs = draw(st.lists(st.tuples(names, names), max_size=12))
    pairs += [(b, a) for a, b in pairs[:2]] + pairs[:1]
    return traces_by_origin, pairs


@settings(max_examples=60, deadline=None)
@given(sweep_campaigns())
def test_sweep_matches_the_reference_loop(tmp_path_factory, campaign):
    traces_by_origin, pairs = campaign
    tmp = tmp_path_factory.mktemp("sweep")
    for options in OPTION_GRID:
        got, got_stats = batch_estimate(dict(traces_by_origin), pairs, options)
        want, want_stats = reference.batch_estimate(traces_by_origin, pairs, options)
        assert got == want
        # one origins tuple for the whole batch
        assert len({id(oc.origins) for oc in got}) == min(len(got), 1)
        assert got_stats == want_stats
        write_outcomes(got, tmp / "ours.jsonl")
        reference.write_outcomes(want, tmp / "reference.jsonl")
        assert (tmp / "ours.jsonl").read_bytes() == (tmp / "reference.jsonl").read_bytes()


@settings(max_examples=60, deadline=None)
@given(sweep_campaigns(), st.sampled_from(OPTION_GRID), st.data())
def test_the_batch_is_blind_to_how_its_pairs_come(campaign, options, data):
    # ROADMAP item 8's relations: swapping a pair's endpoints changes
    # nothing, and permuting the pair list permutes the outcomes; and the
    # pairs are read once, so a one-shot iterator gives what its list gives
    traces_by_origin, pairs = campaign
    want = batch_estimate(dict(traces_by_origin), pairs, options)
    assert batch_estimate(dict(traces_by_origin), iter(pairs), options) == want
    swapped = [(b, a) for a, b in pairs]
    assert batch_estimate(dict(traces_by_origin), swapped, options) == want
    order = data.draw(st.permutations(range(len(pairs))))
    outcomes, stats = batch_estimate(dict(traces_by_origin), [pairs[i] for i in order], options)
    assert (outcomes, stats) == ([want[0][i] for i in order], want[1])


def _three_hosts_from_two_origins():
    return {origin: [trace(origin, d, [("T", 1.0), (d, 2.0)]) for d in "abc"]
            for origin in ("O1", "O2")}


def test_the_batch_gives_each_outcome_its_pair_in_canonical_order():
    # an outcome holds its two endpoints, never the caller's pair object
    pairs = [("a", "b"), ("c", "a"), ("b", "c"), ["a", "c"], ("a", "ghost")]
    outcomes, _ = batch_estimate(_three_hosts_from_two_origins(), pairs, HOST_MODE)
    assert [oc.pair is pair for oc, pair in zip(outcomes, pairs)] == [False] * 5
    assert [oc.pair for oc in outcomes] == [
        ("a", "b"), ("a", "c"), ("b", "c"), ("a", "c"), ("a", "ghost")]
    assert all(type(oc.pair) is tuple for oc in outcomes)


@pytest.mark.parametrize("repeats", [1, 2, 1024])
def test_sweep_calls_the_estimator_once_per_entry(monkeypatch, repeats):
    # the pair list repeated: every repeat is estimated again, not looked up
    traces_by_origin = _three_hosts_from_two_origins()
    del traces_by_origin["O2"][1]  # b has no trace from O2
    pairs = [("a", "b"), ("c", "a"), ("b", "c"), ("a", "c"), ("a", "ghost")] * repeats
    estimated, minimized = [], []

    def counted_estimate(pa, pb, *tables):
        estimated.append((pa.trace.destination, pb.trace.destination, pa.trace.origin_id))
        return estimate_pair(pa, pb, *tables)

    def counted_min(pair, origins, entries, couple_metrics=False):
        minimized.append(pair)
        return min_over_origins(pair, origins, entries, couple_metrics)

    monkeypatch.setattr(transit, "estimate_pair", counted_estimate)
    monkeypatch.setattr(transit, "min_over_origins", counted_min)
    outcomes, _ = transit.batch_estimate(traces_by_origin, pairs, HOST_MODE)
    # origin by origin, each in pair order
    expected = ([(a, b, "O1") for a, b in pairs[:4]] * repeats
                + [("c", "a", "O2"), ("a", "c", "O2")] * repeats)
    assert estimated == expected
    assert minimized == [("a", "b"), ("a", "c"), ("b", "c"), ("a", "c"), ("a", "ghost")] * repeats
    assert [oc.pair for oc in outcomes] == minimized


@pytest.mark.parametrize("pairs, message", [
    ([("a", "c"), ("a", "b"), ("b", "c")], "traces from different origins: O1 vs O2"),
    ([("a", "c"), ("c", "b"), ("a", "b")], "traces from different origins: O2 vs O1"),
])
def test_a_misfiled_trace_fails_at_the_first_pair_that_uses_it(
        pairs, message):
    # O2's trace to b filed under O1: the first pair that pairs it with
    # another O1 trace raises, as when the batch went pair by pair
    traces_by_origin = _three_hosts_from_two_origins()
    traces_by_origin["O1"][1] = traces_by_origin["O2"][1]
    for batch in (batch_estimate, reference.batch_estimate):
        with pytest.raises(ValueError) as raised:
            batch(dict(traces_by_origin), pairs, HOST_MODE)
        assert str(raised.value) == message


def test_the_batch_prepares_one_origins_named_traces_at_a_time(monkeypatch):
    # three origins trace a, b and c, and no pair names c: while an origin's
    # entries are estimated, only its traces to a and b are prepared, and
    # none outlives the batch
    live, seen = [0], []

    class Counted(PreparedTrace):
        def __init__(self, *args):
            super().__init__(*args)
            live[0] += 1

        def __del__(self):
            live[0] -= 1

    def sampled(pa, pb, *tables):
        seen.append((pa.origin_id, live[0]))
        return estimate_pair(pa, pb, *tables)

    traces_by_origin = {origin: [trace(origin, d, [("T", 1.0), (d, 2.0)]) for d in "abc"]
                        for origin in ("O1", "O2", "O3")}
    monkeypatch.setattr(transit, "PreparedTrace", Counted)
    monkeypatch.setattr(transit, "estimate_pair", sampled)
    outcomes, _ = transit.batch_estimate(traces_by_origin, [("a", "b"), ("b", "a")], HOST_MODE)
    assert seen == [(origin, 2) for origin in ("O1", "O1", "O2", "O2", "O3", "O3")]
    assert live == [0]
    assert all(oc.accepted for oc in outcomes)


def test_the_batch_holds_only_named_traces_in_new_lists(monkeypatch):
    # no pair names c: from the first estimate on, every list the mapping
    # holds has only the traces to a and b, and the lists the caller passed
    # still hold c's
    traces_by_origin = {origin: [trace(origin, d, [("T", 1.0), (d, 2.0)]) for d in "cab"]
                        for origin in ("O1", "O2", "O3")}
    given = dict(traces_by_origin)
    copies = {origin: list(rows) for origin, rows in given.items()}
    held = []

    def sampled(pa, pb, *tables):
        held.append({origin: [t.destination for t in rows]
                     for origin, rows in traces_by_origin.items()})
        return estimate_pair(pa, pb, *tables)

    monkeypatch.setattr(transit, "estimate_pair", sampled)
    batch = transit.batch_estimate(traces_by_origin, [("a", "b")], HOST_MODE)
    assert held == [{"O2": ["a", "b"], "O3": ["a", "b"]}, {"O3": ["a", "b"]}, {}]
    assert given == copies
    assert batch == reference.batch_estimate(copies, [("a", "b")], HOST_MODE)


def test_the_batch_empties_its_mapping_origin_by_origin(monkeypatch):
    # each origin's list leaves the mapping before its entries are
    # estimated, so its traces can be freed once its column is built
    traces_by_origin = _three_hosts_from_two_origins()
    kept = dict(traces_by_origin)
    pairs = [("a", "b"), ("c", "a"), ("b", "ghost")]
    left = []

    def sampled(pa, pb, *tables):
        left.append((pa.origin_id, sorted(traces_by_origin)))
        return estimate_pair(pa, pb, *tables)

    monkeypatch.setattr(transit, "estimate_pair", sampled)
    outcomes, stats = transit.batch_estimate(traces_by_origin, pairs, HOST_MODE)
    assert traces_by_origin == {}
    assert left == [("O1", ["O2"]), ("O1", ["O2"]), ("O2", []), ("O2", [])]
    assert (outcomes, stats) == reference.batch_estimate(kept, pairs, HOST_MODE)


def test_a_batch_with_no_origin_refuses_its_pairs():
    for batch in (batch_estimate, reference.batch_estimate):
        with pytest.raises(ValueError, match="needs at least one origin entry"):
            batch({}, [("a", "b")])
        assert batch({}, [])[0] == []


# --- the outcome reader against the reference reader -----------------------


def _split_and_rejected_outcomes():
    """A record whose best bounds come from different origins and one with
    no accepted origin."""
    split = _min_over(("a", "b"), {
        "O1": _fake_estimate("O1", 9, 120.0),
        "O2": _fake_estimate("O2", 11, 70.0),
        "O3": RejectReason(RejectKind.NO_TRANSIT, "no trace"),
    })
    rejected = _min_over(("a", "c"), {
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
    # equal reject reasons are one object per file, and so is each distinct
    # estimate; each best bound is the per-origin entry of its origin
    rejects = [est for oc in loaded for est in oc.entries if type(est) is RejectReason]
    assert len({id(x) for x in rejects}) == len(set(rejects))
    _assert_one_object_per_distinct_estimate(loaded)
    # and each origin and endpoint name is one string object per file, and
    # each origin sequence one tuple
    names = [name for oc in loaded for name in (*oc.pair, *oc.origins)] + [
        est.origin_id for oc in loaded
        for est in (*oc.entries, oc.best_hop, oc.best_rtt)
        if isinstance(est, PairEstimate)
    ]
    assert len({id(name) for name in names}) == len(set(names))
    assert len({id(oc.origins) for oc in loaded}) == len({oc.origins for oc in loaded})


@settings(max_examples=40, deadline=None)
@given(faulty_traces(), st.sampled_from(OPTION_GRID))
def test_batch_and_read_share_one_estimate_per_distinct_bound(
        tmp_path_factory, campaign, options):
    traces_by_origin, hosts = campaign
    pairs = list(itertools.permutations(hosts, 2)) + [(h, h) for h in hosts]
    outcomes, _ = batch_estimate(traces_by_origin, pairs, options)
    distinct = _assert_one_object_per_distinct_estimate(outcomes)
    path = tmp_path_factory.mktemp("outcomes") / "outcomes.jsonl"
    write_outcomes(outcomes, path)
    loaded = read_outcomes(path)
    assert loaded == outcomes
    assert _assert_one_object_per_distinct_estimate(loaded) == distinct


@pytest.mark.parametrize("options, routes, texts", [
    # through a common transit x: int RTTs give 5 + 5, float RTTs 5.0 + 5.0
    (HOST_MODE, [([("x", 5)], 10), ([("x", 5.0)], 10.0)], ["10", "10.0"]),
    # no common hop, so the origin is the transit: -0.0 + -0.0 against 0.0 + 0.0
    (EstimateOptions(mode=HOST, allow_origin_fallback=True),
     [([], -0.0), ([], 0.0)], ["-0.0", "0.0"]),
], ids=["int-float", "negative-zero"])
def test_batch_keeps_equal_bounds_that_encode_differently_apart(
        tmp_path, options, routes, texts):
    """Within one origin, two pairs whose bounds are equal but encode
    differently get two estimates, each written as computed."""
    traces, pairs = [], []
    for i, (prefix, end_rtt) in enumerate(routes):
        pair = (f"d{i}a", f"d{i}b")
        traces += [trace("O1", d, prefix + [(d, end_rtt)]) for d in pair]
        pairs.append(pair)
    outcomes, _ = batch_estimate({"O1": traces}, pairs, options)
    first, second = (reference.as_dict(oc)["O1"] for oc in outcomes)
    assert first == second and first is not second
    assert [repr(oc.best_rtt.rtt_bound_ms) for oc in outcomes] == texts
    path = tmp_path / "o.jsonl"
    write_outcomes(outcomes, path)
    written = [json.loads(line) for line in path.read_text().splitlines()]
    assert [repr(rec["best_rtt"]["rtt_bound_ms"]) for rec in written] == texts
    assert [repr(rec["per_origin"]["O1"]["rtt_bound_ms"]) for rec in written] == texts


# --- the outcome writer against the reference writer -----------------------


def _written_like_the_reference(tmp_path, outcomes):
    ours, theirs = tmp_path / "ours.jsonl", tmp_path / "reference.jsonl"
    write_outcomes(outcomes, ours)
    reference.write_outcomes(outcomes, theirs)
    return ours.read_bytes() == theirs.read_bytes()


@settings(max_examples=60, deadline=None)
@given(faulty_traces(), st.sampled_from(OPTION_GRID))
def test_write_outcomes_matches_reference(tmp_path_factory, campaign, options):
    traces_by_origin, hosts = campaign
    pairs = list(itertools.combinations(hosts, 2)) + [(hosts[0], hosts[0])]
    outcomes, _ = batch_estimate(traces_by_origin, pairs, options)
    assert _written_like_the_reference(tmp_path_factory.mktemp("outcomes"), outcomes)


def _entries(*bounds):
    """Estimates from origins O1, O2, ... with the given (hop, rtt) bounds,
    on one transit."""
    return {
        f"O{i}": PairEstimate(f"O{i}", "t", 1, 1, False, hop, rtt)
        for i, (hop, rtt) in enumerate(bounds, start=1)
    }


def _with_best(per_origin, best_hop, best_rtt):
    return reference.as_outcome(("a", "b"), per_origin, best_hop, best_rtt)


def _best_not_its_entry_object():
    per_origin = _entries((9, 120.0), (11, 70.0))
    equal_copy = PairEstimate(*per_origin["O1"])
    other_rtt = per_origin["O2"]._replace(rtt_bound_ms=75.0)
    assert equal_copy == per_origin["O1"] and equal_copy is not per_origin["O1"]
    return [_with_best(per_origin, equal_copy, other_rtt)]


def _unsorted_origins():
    entries = _entries((9, 120.0), (11, 70.0), (4, 5.0))
    origins = ("O3", "O1", "O2")
    return [PairOutcome(("a", "b"), origins, tuple(entries[o] for o in origins),
                        entries["O3"], entries["O3"])]


def _escaped_names():
    names = ['q"uote', "back\\slash", "n\u00e9", "\u6771\u4eac", "tab\tnew\nline"]
    return [_min_over((a, b), {
        origin: PairEstimate(origin, names[4], 1, 1, False, 3, 1.5) for origin in names[:3]
    }) for a, b in itertools.combinations(names, 2)]


# equal values that encode differently must never share text
WRITER_CASES = {
    "int and float rtt bounds": lambda: [
        _min_over(("a", "b"), _entries((4, 5), (4, 5.0), (4, 5)))],
    "zero and negative zero rtt bounds": lambda: [
        _min_over(("a", "b"), _entries((4, 0.0), (4, -0.0), (4, 0)))],
    "best bound not its origin's entry object": _best_not_its_entry_object,
    "no best bounds beside accepted entries": lambda: [
        _with_best(_entries((4, 2.0)), None, None)],
    "only rejects": lambda: [_min_over(("a", "c"), {
        "O1": RejectReason(RejectKind.ASYMMETRY_SUSPECTED, "cumulative rtt drops"),
        "O2": RejectReason(RejectKind.NO_TRANSIT, "no trace"),
        "O3": RejectReason(RejectKind.NO_TRANSIT, "no trace"),
    })],
    "names that need escaping": _escaped_names,
    "origins out of sorted order": _unsorted_origins,
}


@pytest.mark.parametrize("name", sorted(WRITER_CASES))
def test_write_outcomes_matches_reference_on_hand_cases(tmp_path, name):
    outcomes = WRITER_CASES[name]()
    assert _written_like_the_reference(tmp_path, outcomes)
    # written twice, so every entry and name comes from the text cache
    assert _written_like_the_reference(tmp_path, outcomes + outcomes)


def test_write_outcomes_rejects_a_name_that_is_not_a_string(tmp_path):
    # the failed write used to leave the first record in place of the old file
    path = tmp_path / "keep.jsonl"
    path.write_bytes(b"old\n")
    ok = _min_over(("a", "b"), {"O1": _fake_estimate("O1", 4, 2.0)})
    # an outcome refuses a non-string origin, so an endpoint is the bad name
    bad_endpoint = _min_over((5, "b"), {"O1": RejectReason(RejectKind.NO_TRANSIT)})
    with pytest.raises(TypeError, match="name 5 is not a string"):
        write_outcomes([ok, bad_endpoint], path)
    assert path.read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.jsonl"]


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
    assert reference.as_dict(loaded[0])["O1"].rtt_bound_ms == 120.0


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
    "best_hop_origin null beside a best_hop": _set("best_hop_origin", None),
    "best_rtt_origin a number": _set("best_rtt_origin", 5),
    "best_rtt_origin beside a null best_rtt": _set("best_rtt", None),
    # 5 and 5.0 read back as one reason, which was written back as 5
    "reject detail an int": _set_entry("O3", detail=5),
    "reject detail a float": _set_entry("O3", detail=5.0),
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


def test_reject_detail_is_a_string_or_absent(tmp_path):
    path, line = _malformed_file(tmp_path, _set_entry("O3", detail=["x"]))
    with pytest.raises(ValueError, match=r"detail \['x'\] is not a string$"):
        read_outcomes(path)
    path, line = _malformed_file(tmp_path, lambda rec: rec["per_origin"]["O3"].pop("detail"))
    loaded = read_outcomes(path)[line - 1]
    assert reference.as_dict(loaded)["O3"] == RejectReason(RejectKind.NO_TRANSIT)


def test_reject_kind_is_a_string(tmp_path):
    path, line = _malformed_file(tmp_path, _set_entry("O3", reject=["NoTransit"]))
    with pytest.raises(ValueError, match=r"reject kind \['NoTransit'\] is not a string$"):
        read_outcomes(path)


def _record(pair, entry, origin="O1"):
    return {"pair": list(pair), "per_origin": {origin: entry},
            "best_hop": entry, "best_hop_origin": origin,
            "best_rtt": entry, "best_rtt_origin": origin}


_ENTRY = {"hop_bound": 1, "rtt_bound_ms": 1, "transit": ["T", 1, 1], "origin_fallback": False}


@pytest.mark.parametrize("fields, message", [
    ({"transit": ["T", True, 1.0], "origin_fallback": 0}, "is_origin_fallback 0 is not a bool"),
    ({"transit": ["T", True, 1]}, "index_a True is not an int"),
    ({"transit": ["T", 1, 1.0]}, "index_b 1.0 is not an int"),
    ({"hop_bound": True}, "hop bound True is not an int"),
    ({"hop_bound": 1.0}, "hop bound 1.0 is not an int"),
    ({"rtt_bound_ms": True}, "rtt bound True is not a number"),
])
def test_an_entry_equal_to_a_shared_one_is_still_validated(tmp_path, fields, message):
    # the second entry compares equal to the first, which the reader shares
    path = _write_records(tmp_path / "o.jsonl", [
        _record(("a", "b"), _ENTRY), _record(("a", "c"), dict(_ENTRY, **fields))])
    with pytest.raises(ValueError, match=f"bad outcome at line 2: {re.escape(message)}$"):
        read_outcomes(path)


@pytest.mark.parametrize("fields, message", [
    ({"origin_fallback": 0}, "is_origin_fallback 0 is not a bool"),
    ({"transit": [["T"], 1, 1]}, "address ['T'] is not a string"),
])
def test_a_mistyped_flag_or_address_alone_is_still_validated(tmp_path, fields, message):
    # 0 would match the shared entry's key by value, and a list is unhashable
    path = _write_records(tmp_path / "o.jsonl", [
        _record(("a", "b"), _ENTRY), _record(("a", "c"), dict(_ENTRY, **fields))])
    with pytest.raises(ValueError, match=f"bad outcome at line 2: {re.escape(message)}$"):
        read_outcomes(path)


def test_equal_bounds_that_encode_differently_round_trip(tmp_path):
    """Bounds equal in value but not in text, on different pairs and as a
    best bound beside its origin's entry, are read back as written."""
    forms = [5, 5.0, 0, 0.0, -0.0, 7, 7.0]
    records = [_record(("a", f"b{i}"), dict(_ENTRY, rtt_bound_ms=rtt))
               for i, rtt in enumerate(forms)]
    split = _record(("a", "c"), dict(_ENTRY, rtt_bound_ms=5))
    split["best_rtt"] = dict(_ENTRY, rtt_bound_ms=5.0)
    records.append(split)
    path = _write_records(tmp_path / "o.jsonl", records)
    text = path.read_text()
    assert '"rtt_bound_ms": -0.0,' in text and '"rtt_bound_ms": 5,' in text
    loaded = read_outcomes(path)
    assert [repr(oc.best_hop.rtt_bound_ms) for oc in loaded[:-1]] == list(map(repr, forms))
    assert repr(loaded[-1].best_rtt.rtt_bound_ms) == "5.0"
    again = tmp_path / "again.jsonl"
    write_outcomes(loaded, again)
    assert again.read_text() == "".join(
        json.dumps(r, separators=(",", ":")) + "\n" for r in records)
    assert read_outcomes(again) == loaded
    assert loaded[0].best_hop is reference.as_dict(loaded[-1])["O1"]


def _repeating_outcomes(n_hosts=40, n_origins=10):
    """Every pair of n_hosts from n_origins, drawn from a few distinct
    entries, as a dense campaign repeats them."""
    transits = [(f"t{i}", i + 1, i + 2, False) for i in range(3)]
    reject = RejectReason(RejectKind.LOOP_BEYOND_TRANSIT, "address x repeats at hop 4")
    outcomes = []
    for i, (a, b) in enumerate(itertools.combinations(
            [f"10.0.{h // 250}.{h % 250}" for h in range(n_hosts)], 2)):
        per_origin = {}
        for j in range(n_origins):
            origin = f"origin-{j}"
            k = (i + j) % 7
            per_origin[origin] = reject if k == 6 else PairEstimate(
                origin, *transits[k % 3], 2 + k % 4, [1.5, 2.25, 3.125][k % 3])
        outcomes.append(_min_over((a, b), per_origin))
    return outcomes


def test_read_outcomes_keeps_no_object_per_repeated_entry(tmp_path):
    import gc
    import tracemalloc

    outcomes = _repeating_outcomes()
    path = tmp_path / "o.jsonl"
    write_outcomes(outcomes, path)
    del outcomes
    gc.collect()
    tracemalloc.start()
    try:
        loaded = read_outcomes(path)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    per_pair = kept / len(loaded)
    # measured 246 bytes (CPython 3.11): one flat PairOutcome and its list
    # slot; a pair tuple and a tuple of entries beside each made it 341, a
    # dict of entries per pair 447, and a PairEstimate and a float per
    # (pair, origin) entry 1511
    assert per_pair < 265, per_pair


# --- hand-written v1 lines against the reference reader ---------------------

_NO_TRACE_OBJ = {"reject": "NoTransit", "detail": "no trace"}


def _v1_line(pair, members, best=None, sep=(",", ":")):
    """An outcome line whose per_origin holds ``members``, (key text, entry)
    pairs written in the order given, and whose best bounds are both the
    entry of the (origin, entry) pair ``best``.  The default separators
    give the writer's layout."""
    comma, colon = sep

    def text(value):
        return json.dumps(value, separators=sep)

    objs = comma.join(f"{key}{colon}{text(entry)}" for key, entry in members)
    fields = [("pair", text(list(pair))), ("per_origin", f"{{{objs}}}")]
    for name in ("best_hop", "best_rtt"):
        fields += [(name, text(best and best[1])), (f"{name}_origin", text(best and best[0]))]
    return "{" + comma.join(f'"{key}"{colon}{value}' for key, value in fields) + "}"


def _hand_written(tmp_path, lines, spaced, repeating=0):
    """read_outcomes of ``lines``, each written in the writer's layout or,
    when ``spaced``, with the default separators, after checking it against
    the reference reader, and checking that it decoded whole each spaced
    line, and in the writer's layout the first ``repeating`` lines, which
    repeat an origin."""
    sep = (", ", ": ") if spaced else (",", ":")
    path = tmp_path / ("spaced.jsonl" if spaced else "compact.jsonl")
    texts = [_v1_line(*line, sep=sep) + "\n" for line in lines]
    path.write_text("".join(texts))
    loaded, whole = _whole_line_decodes(path)
    assert loaded == reference.read_outcomes(path)
    assert whole == (texts if spaced else texts[:repeating])
    return loaded


@pytest.mark.parametrize("spaced", [False, True], ids=["per-entry", "whole-line"])
def test_hand_written_origin_keys_keep_the_file_order(tmp_path, spaced):
    (oc,) = _hand_written(tmp_path, [
        (("a", "b"), [('"O2"', _ENTRY), ('"O1"', _NO_TRACE_OBJ)], ("O2", _ENTRY))], spaced)
    assert oc.origins == ("O2", "O1")
    assert oc.entries[1] == RejectReason(RejectKind.NO_TRANSIT, "no trace")
    assert oc.best_hop is oc.entries[0]


@pytest.mark.parametrize("spaced", [False, True], ids=["per-entry", "whole-line"])
def test_a_repeated_origin_key_keeps_its_first_place_and_last_entry(tmp_path, spaced):
    later = dict(_ENTRY, hop_bound=4)
    first, second = _hand_written(tmp_path, [
        (("a", "b"), [('"O1"', _NO_TRACE_OBJ), ('"O2"', _ENTRY), ('"O1"', later)],
         ("O2", _ENTRY)),
        (("a", "c"), [('"O1"', _ENTRY), ('"O2"', _ENTRY)], ("O1", _ENTRY)),
    ], spaced, repeating=1)
    assert first.origins == ("O1", "O2") and first.origins is second.origins
    assert [est.hop_bound for est in first.entries] == [4, 1]
    # a valid outcome
    assert PairOutcome(first.pair, first.origins, first.entries, first.best_hop,
                       first.best_rtt) == first


def test_an_empty_per_origin_reads_as_no_origins(tmp_path):
    # never taken by the per-entry decode: its per_origin opens with no key
    for sep in ((",", ":"), (", ", ": ")):
        path = tmp_path / "o.jsonl"
        path.write_text(_v1_line(("a", "b"), [], sep=sep) + "\n")
        (oc,) = read_outcomes(path)
        assert [oc] == reference.read_outcomes(path)
        assert (oc.origins, oc.entries, oc.accepted) == ((), (), False)


def test_an_origin_key_that_is_not_a_string_is_refused_like_the_reference(tmp_path):
    for key in ("5", "null", '["O1"]'):
        path = tmp_path / "o.jsonl"
        path.write_text(_v1_line(("a", "b"), [('"O1"', _ENTRY)], ("O1", _ENTRY)) + "\n"
                        + _v1_line(("a", "c"), [(key, _ENTRY)], None) + "\n")
        with pytest.raises(ValueError, match="bad outcome at line 2:"):
            reference.read_outcomes(path)
        with pytest.raises(ValueError, match="bad outcome at line 2: Expecting property name"):
            read_outcomes(path)
    # a number in a string is an origin like any other
    (oc,) = _hand_written(tmp_path, [(("a", "b"), [('"5"', _ENTRY)], ("5", _ENTRY))], False)
    assert oc.origins == ("5",)


@pytest.mark.parametrize("spaced", [False, True], ids=["per-entry", "whole-line"])
def test_a_file_of_two_origin_sets_shares_one_tuple_per_set(tmp_path, spaced):
    two = [('"O1"', _ENTRY), ('"O2"', _NO_TRACE_OBJ)]
    three = [*two, ('"O3"', _ENTRY)]
    lines = [(("a", f"b{i}"), three if i % 3 else two, ("O1", _ENTRY)) for i in range(7)]
    lines.append((("a", "c"), three[::-1], ("O3", _ENTRY)))
    loaded = _hand_written(tmp_path, lines, spaced)
    sets = {}
    for oc in loaded:
        assert sets.setdefault(oc.origins, oc.origins) is oc.origins
    assert list(sets) == [("O1", "O2"), ("O1", "O2", "O3"), ("O3", "O2", "O1")]


# --- the reader's per-entry decode against the whole-line decode ------------

# text that ends or fakes a member or the tail, or that the writer escapes
_AWKWARD = ['},', '},"best_hop":', '}},"best_hop":', '"', "\\", "\\u0041", "\x01",
            "\u00e9", "\u2603", "\U0001f600", ":", "O1"]
_awkward_text = st.lists(st.sampled_from(_AWKWARD) | st.text(max_size=2), min_size=1,
                         max_size=3).map("".join).filter(bool)
# a string that ends in "}," is written with the member separator '},"' at
# its end, so it alone may send a line the writer wrote to the whole-line decode
_plain_text = _awkward_text.filter(lambda s: not s.endswith("},"))


@st.composite
def _outcomes_of(draw, text):
    """A few pairs over a few origins, each origin drawing its entry per pair
    from a small pool, so that entries repeat as in a campaign."""
    pools = {}
    for origin in draw(st.lists(text, min_size=1, max_size=3, unique=True)):
        pool = []
        for _ in range(draw(st.integers(1, 2))):
            if draw(st.booleans()):
                pool.append(RejectReason(draw(st.sampled_from(list(RejectKind))),
                                         draw(text | st.just(""))))
                continue
            if draw(st.booleans()):
                transit = (None, 0, 0, True)
            else:
                transit = (draw(text), draw(st.integers(1, 3)), draw(st.integers(1, 3)), False)
            pool.append(PairEstimate(origin, *transit, draw(st.integers(0, 3)),
                                     draw(st.sampled_from([0, 0.0, -0.0, 5, 5.0, 2.25]))))
        pools[origin] = pool
    return [
        _min_over((draw(text), draw(text)),
                  {origin: draw(st.sampled_from(pool)) for origin, pool in pools.items()},
                  draw(st.booleans()))
        for _ in range(draw(st.integers(1, 4)))
    ]


def _with_key(line, key, value):
    """The line with one more top-level member, written last."""
    return f"{line[:-1]},{json.dumps(key)}:{json.dumps(value)}}}"


def _shuffled(rec, rnd):
    per_origin = list(rec["per_origin"].items())
    rnd.shuffle(per_origin)
    items = [*rec.items()]
    rnd.shuffle(items)
    return json.dumps({k: dict(per_origin) if k == "per_origin" else v for k, v in items})


# other layouts of the writer's lines, each from (lines, records, random)
_LAYOUTS = {
    "default separators": lambda lines, recs, rnd: [json.dumps(r) for r in recs],
    "raw non-ascii": lambda lines, recs, rnd: [
        json.dumps(r, ensure_ascii=False, separators=(",", ":")) for r in recs],
    "shuffled keys": lambda lines, recs, rnd: [_shuffled(r, rnd) for r in recs],
    "extra top-level key": lambda lines, recs, rnd: [
        _with_key(line, "note", "x") for line in lines],
    "duplicated pair key": lambda lines, recs, rnd: [
        _with_key(line, "pair", ["dup", "\u00e9"]) for line in lines],
    "duplicated best_rtt_origin key": lambda lines, recs, rnd: [
        _with_key(line, "best_rtt_origin", r["best_rtt_origin"]) for line, r in zip(lines, recs)],
    "blank lines": lambda lines, recs, rnd: [x for line in lines for x in ("", line, "  ")],
}


def _as_written(oc):
    """The outcome as the writer writes it, its origins in sorted order."""
    entries = reference.as_dict(oc)
    return reference.as_outcome(oc.pair, {o: entries[o] for o in sorted(entries)},
                                oc.best_hop, oc.best_rtt)


def _unordered(oc):
    """An outcome's fields with its entries as a dict, equal whatever the
    order of its origins."""
    return oc.pair, reference.as_dict(oc), oc.best_hop, oc.best_rtt


def _assert_bests_are_entries(outcomes):
    for oc in outcomes:
        entries = reference.as_dict(oc)
        for best in (oc.best_hop, oc.best_rtt):
            assert best is None or best is entries[best.origin_id]


@settings(max_examples=150, deadline=None)
@given(_outcomes_of(_awkward_text), st.randoms(use_true_random=False))
def test_read_outcomes_in_any_layout_matches_reference(tmp_path_factory, outcomes, rnd):
    tmp = tmp_path_factory.mktemp("layouts")
    path = tmp / "writer.jsonl"
    write_outcomes(outcomes, path)
    loaded = read_outcomes(path)
    # drawn in any order, the origins are written and read back sorted
    assert loaded == reference.read_outcomes(path) == list(map(_as_written, outcomes))
    _assert_bests_are_entries(loaded)
    lines = path.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    texts = {name: "\n".join(layout(lines, records, rnd)) + "\n"
             for name, layout in _LAYOUTS.items()}
    texts["no final newline"] = "\n".join(lines)
    for name, text in texts.items():
        other = tmp / "other.jsonl"
        other.write_text(text, encoding="utf-8")
        got = read_outcomes(other)
        assert got == reference.read_outcomes(other), name
        _assert_bests_are_entries(got)
        if name == "duplicated pair key":
            assert {oc.pair for oc in got} == {("dup", "\u00e9")}
        elif name == "shuffled keys":  # each line's origin order is kept
            assert list(map(_unordered, got)) == list(map(_unordered, outcomes))
        else:
            assert got == loaded, name


def _read_or_error(path):
    try:
        return read_outcomes(path)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=200, deadline=None)
@given(_outcomes_of(_awkward_text), st.data())
def test_corrupted_line_reads_as_the_whole_line_decode_reads_it(tmp_path_factory, outcomes, data):
    path = tmp_path_factory.mktemp("corrupt") / "o.jsonl"
    write_outcomes(outcomes, path)
    text = path.read_text(encoding="utf-8")
    at = data.draw(st.integers(0, len(text) - 2))  # never the final newline
    edit = data.draw(st.sampled_from(["delete", "insert", "replace", "truncate"]))
    char = data.draw(st.sampled_from(list('{}[],:" \\01xe-.') + ["\u00e9", "\\u"]))
    text = {
        "delete": text[:at] + text[at + 1:],
        "insert": text[:at] + char + text[at:],
        "replace": text[:at] + char + text[at + 1:],
        "truncate": text[:at] + "\n" + text[text.index("\n", at) + 1:],
    }[edit]
    path.write_text(text, encoding="utf-8")
    got = _read_or_error(path)
    # a prefix that no line starts with sends every line to the whole-line decode
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transit, "_PAIR_HEAD", "\0")
        assert got == _read_or_error(path)


def test_every_one_character_edit_reads_as_the_whole_line_decode_reads_it(tmp_path):
    """Each line of a file is copied after it with one character deleted,
    replaced or inserted, at every position, so the copy's unedited members
    and tail are found in the tables the original filled."""
    path = tmp_path / "o.jsonl"
    write_outcomes(_split_and_rejected_outcomes(), path)
    lines = path.read_text().splitlines()
    edited = tmp_path / "edited.jsonl"
    for line in lines:
        for at in range(len(line)):
            for text in (line[:at] + line[at + 1:], line[:at] + "x" + line[at + 1:],
                         line[:at] + " " + line[at:], line[:at] + "," + line[at:]):
                edited.write_text(f"{line}\n{text}\n")
                got = _read_or_error(edited)
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(transit, "_PAIR_HEAD", "\0")
                    assert got == _read_or_error(edited), text


def test_a_member_split_inside_a_string_is_never_kept(tmp_path):
    """A string that ends in "}," puts the member separator inside it, so the
    line it is on splits wrongly.  The wrong piece must not be kept: a later
    line that is not JSON would otherwise be read from kept pieces."""
    est = PairEstimate("O2", "t", 1, 1, False, 1, 1.0)
    outcomes = [
        _min_over(("a", "b"), {"O1": RejectReason(RejectKind.NO_TRANSIT, "y"), "O2": est}),
        _min_over(("a", "c"), {"O1": RejectReason(RejectKind.NO_TRANSIT, "x},"), "O2": est}),
    ]
    path = tmp_path / "o.jsonl"
    write_outcomes(outcomes, path)
    lines = path.read_text().splitlines()
    assert read_outcomes(path) == outcomes
    # the second line without the brace that closes O1's entry
    bad = lines[1].replace('"x},"},"O2":', '"x},"O2":')
    assert bad != lines[1]
    path.write_text("\n".join([*lines, bad]) + "\n")
    with pytest.raises(ValueError, match=r"bad outcome at line 3: Expecting ',' delimiter"):
        read_outcomes(path)


# per_origin members as written, "key":value, that a writer's line may hold:
# entries, details and keys that fake the member separator or a member's
# end, nested objects followed by ,"key", keys that escape to one origin,
# and values that are not objects
_MEMBER_TEXTS = [
    '"O1":{"hop_bound":1,"rtt_bound_ms":1,"transit":["T",1,1],"origin_fallback":false}',
    '"O2":{"hop_bound":2,"rtt_bound_ms":2.5,"transit":[null,0,0],"origin_fallback":true}',
    '"O2":{"reject":"NoTransit","detail":"x},"}',
    '"O3":{"reject":"NoTransit","detail":"},\\"O1\\":{\\"reject\\":\\"NoTransit\\"}},"}',
    '"O1":{"x":{"reject":"NoTransit"},"reject":"NoTransit"}',
    '"O3":{"reject":"NoTransit","x":{"y":{}},"detail":"z"}',
    '"O1":{"reject":"NoTransit","x":{"y":1} ,"detail":"w"}',
    '"O2":{"reject":"NoTransit"} ,"O3":{"reject":"AsymmetrySuspected"}',
    '"O2":{"reject":"NoTransit"},"O2":{"reject":"LoopBeyondTransit"}',
    '"O\\u0031":{"reject":"MissingRttAtTransit","detail":""}',
    '"},":{"reject":"NoTransit"}',
    '"O1":5', '"O2":"reject"', '"O3":["reject"]', '"O1":null', '"O2":{}',
    '"O3":{"reject":"NoTransit","detail":7}',
]
_ENTRY_TEXT = json.dumps(_ENTRY, separators=(",", ":"))
_TAIL_TEXTS = [
    '"best_hop":null,"best_hop_origin":null,"best_rtt":null,"best_rtt_origin":null',
    f'"best_hop":{_ENTRY_TEXT},"best_hop_origin":"O1","best_rtt":{_ENTRY_TEXT},'
    '"best_rtt_origin":"O1"',
    '"best_hop":{"reject":"NoTransit"},"best_hop_origin":"O2","best_rtt":null,'
    '"best_rtt_origin":null',
    '"best_hop":null,"best_hop_origin":null,"best_rtt":null,"best_rtt_origin":null,"x":{}',
]


@st.composite
def _writer_layout_lines(draw):
    """Lines in the writer's layout from a pool of member and tail texts,
    some of them malformed by an edit that keeps their members whole."""
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        members = draw(st.lists(st.sampled_from(_MEMBER_TEXTS), min_size=1, max_size=4))
        pair = json.dumps(draw(st.sampled_from([["a", "b"], ["a", "c"], ["},", "a"]])),
                          separators=(",", ":"))
        line = (f'{{"pair":{pair},"per_origin":{{{",".join(members)}}},'
                f'{draw(st.sampled_from(_TAIL_TEXTS))}}}')
        line = draw(st.sampled_from([
            line, line, line[:-1], line + "}", line.replace('"best_rtt":', '"best_rtt":,', 1),
            line.replace(':null', ':nul', 1), line.replace('"pair":["a"', '"pair":[5', 1),
        ]))
        lines.append(line)
    return lines


def _origin_sharing(outcomes):
    """Each outcome's index of the first outcome whose origins tuple it
    holds: equal where two reads share their tuples alike."""
    if isinstance(outcomes, str):
        return outcomes
    first = {}
    return [first.setdefault(id(oc.origins), i) for i, oc in enumerate(outcomes)]


@settings(max_examples=300, deadline=None)
@given(_writer_layout_lines())
# O1's member is first decoded in a line whose tail sends it whole, then
# found again; O2's in a line that repeats it
@example([f'{{"pair":["a","b"],"per_origin":{{{_MEMBER_TEXTS[0]}}},{_TAIL_TEXTS[3]}}}',
          f'{{"pair":["a","c"],"per_origin":{{{_MEMBER_TEXTS[0]}}},{_TAIL_TEXTS[1]}}}',
          f'{{"pair":["a","b"],"per_origin":{{{_MEMBER_TEXTS[1]},{_MEMBER_TEXTS[1]}}},'
          f'{_TAIL_TEXTS[0]}}}',
          f'{{"pair":["a","c"],"per_origin":{{{_MEMBER_TEXTS[1]}}},{_TAIL_TEXTS[0]}}}'])
def test_member_decode_matches_the_whole_line_decode(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("members") / "o.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    got = _read_or_error(path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transit, "_PAIR_HEAD", "\0")
        whole = _read_or_error(path)
    assert got == whole
    assert repr(got) == repr(whole)
    assert _origin_sharing(got) == _origin_sharing(whole)
    # each line alone, so that every line is read, the malformed ones too
    for line in lines:
        path.write_text(line + "\n", encoding="utf-8")
        got = _read_or_error(path)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(transit, "_PAIR_HEAD", "\0")
            assert got == _read_or_error(path), line


def _whole_line_decodes(path):
    """read_outcomes(path), and the lines of the file it decoded whole."""
    lines = set(path.read_text(encoding="utf-8").splitlines(keepends=True))
    whole = []

    def counting(text):
        if text in lines:
            whole.append(text)
        return json.loads(text)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transit, "decode", counting)
        return read_outcomes(path), whole


@settings(max_examples=60, deadline=None)
@given(faulty_traces(), st.sampled_from(OPTION_GRID), _outcomes_of(_plain_text))
def test_every_line_the_writer_writes_takes_the_per_entry_decode(
        tmp_path_factory, campaign, options, awkward):
    traces_by_origin, hosts = campaign
    pairs = list(itertools.combinations(hosts, 2)) + [(hosts[0], hosts[0])]
    outcomes, _ = batch_estimate(traces_by_origin, pairs, options)
    outcomes += _split_and_rejected_outcomes() + _repeating_outcomes(4, 3) + awkward
    path = tmp_path_factory.mktemp("outcomes") / "outcomes.jsonl"
    write_outcomes(outcomes, path)
    loaded, whole = _whole_line_decodes(path)
    assert whole == []
    assert loaded == list(map(_as_written, outcomes))
    # and the count sees a line that is not in the writer's layout
    path.write_text(path.read_text().replace('{"pair":', '{ "pair":', 1))
    assert len(_whole_line_decodes(path)[1]) == 1
