import pytest

from edgedist.model import (
    HopRecord,
    PairEstimate,
    TraceError,
    TracePath,
    TransitPoint,
)

from conftest import trace


def test_hop_requires_address_with_rtt():
    with pytest.raises(TraceError):
        HopRecord(ttl=1, address=None, rtt_ms=3.0)


def test_hop_allows_address_without_rtt():
    hop = HopRecord(ttl=1, address="10.0.0.1")
    assert hop.responsive and hop.rtt_ms is None


def test_hop_rejects_bad_ttl_and_rtt():
    with pytest.raises(TraceError):
        HopRecord(ttl=0, address="10.0.0.1", rtt_ms=1.0)
    for rtt in (-1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(TraceError):
            HopRecord(ttl=1, address="10.0.0.1", rtt_ms=rtt)


def test_hop_name_is_no_part_of_identity():
    named = HopRecord(ttl=1, address="a", rtt_ms=1.0, name="x")
    assert named == HopRecord(ttl=1, address="a", rtt_ms=1.0, name="y")
    assert named == HopRecord(ttl=1, address="a", rtt_ms=1.0)
    assert hash(named) == hash(HopRecord(ttl=1, address="a", rtt_ms=1.0))
    assert named != HopRecord(ttl=1, address="a", rtt_ms=2.0, name="x")


def test_trace_rejects_ttl_gap():
    hops = (
        HopRecord(ttl=1, address="a", rtt_ms=1.0),
        HopRecord(ttl=3, address="b", rtt_ms=2.0),
    )
    with pytest.raises(TraceError, match="gap"):
        TracePath(origin_id="o", destination="b", hops=hops, reached=True)


def test_trace_rejects_out_of_order_hops():
    hops = (
        HopRecord(ttl=2, address="a", rtt_ms=1.0),
        HopRecord(ttl=1, address="b", rtt_ms=2.0),
    )
    with pytest.raises(TraceError):
        TracePath(origin_id="o", destination="b", hops=hops, reached=True)


def test_reached_trace_must_end_at_destination():
    with pytest.raises(TraceError):
        trace("o", "x", [("a", 1.0), ("b", 2.0)])


def test_unresponsive_hops_are_retained():
    t = trace("o", "b", [("a", 1.0), (None, None), ("b", 3.0)])
    assert len(t) == 3
    assert not t.hop(2).responsive


def test_transit_point_fallback_indices():
    TransitPoint(address=None, index_a=0, index_b=0, is_origin_fallback=True)
    with pytest.raises(TraceError):
        TransitPoint(address=None, index_a=1, index_b=0, is_origin_fallback=True)
    with pytest.raises(TraceError):
        TransitPoint(address=None, index_a=1, index_b=1)


def test_pair_estimate_rejects_negative_bounds():
    transit = TransitPoint(address="t", index_a=1, index_b=1)
    with pytest.raises(TraceError):
        PairEstimate(
            endpoint_a="a", endpoint_b="b", origin_id="o",
            transit=transit, hop_bound=-1, rtt_bound_ms=0.0,
        )
    for rtt in (-0.5, float("nan"), float("inf")):
        with pytest.raises(TraceError):
            PairEstimate(
                endpoint_a="a", endpoint_b="b", origin_id="o",
                transit=transit, hop_bound=0, rtt_bound_ms=rtt,
            )
