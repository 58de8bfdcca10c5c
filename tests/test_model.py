import copy
import pickle

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
    assert len(t.hops) == 3
    assert not t.hops[1].responsive


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


TRANSIT = TransitPoint("t", 1, 2)
FALLBACK = TransitPoint(None, 0, 0, is_origin_fallback=True)
ESTIMATE = PairEstimate("a", "b", "o", TRANSIT, 3, 4.5)


class _OtherTuple(tuple):
    pass


@pytest.mark.parametrize("value, field", [
    (TRANSIT, "index_a"), (FALLBACK, "is_origin_fallback"), (ESTIMATE, "hop_bound"),
])
def test_values_are_read_only(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        value.note = "x"


@pytest.mark.parametrize("value", [TRANSIT, FALLBACK, ESTIMATE])
def test_value_equality_is_type_strict(value):
    same = type(value)(*value)
    assert same is not value
    assert value == same and not value != same and hash(value) == hash(same)
    plain = tuple(value)
    assert value != plain and not value == plain
    assert plain != value and not plain == value
    # a foreign tuple subclass on the left compares by its own (tuple) rules
    assert value != _OtherTuple(value) and not value == _OtherTuple(value)
    other_type = ESTIMATE if value is not ESTIMATE else TRANSIT
    assert value != other_type and not value == other_type
    assert other_type != value and not other_type == value
    with pytest.raises(TypeError):
        value < same


def test_values_compare_by_every_field():
    assert TRANSIT != TransitPoint("t", 1, 3)
    assert ESTIMATE != PairEstimate("a", "b", "o", TRANSIT, 3, 4.0)
    assert ESTIMATE != PairEstimate("a", "b", "o", TransitPoint("u", 1, 2), 3, 4.5)
    assert ESTIMATE == PairEstimate(endpoint_a="a", endpoint_b="b", origin_id="o",
                                    transit=TransitPoint("t", 1, 2),
                                    hop_bound=3, rtt_bound_ms=4.5)


def test_value_repr_is_the_dataclass_text():
    assert repr(TRANSIT) == (
        "TransitPoint(address='t', index_a=1, index_b=2, is_origin_fallback=False)")
    assert repr(FALLBACK) == (
        "TransitPoint(address=None, index_a=0, index_b=0, is_origin_fallback=True)")
    assert repr(ESTIMATE) == (
        "PairEstimate(endpoint_a='a', endpoint_b='b', origin_id='o', "
        "transit=TransitPoint(address='t', index_a=1, index_b=2, is_origin_fallback=False), "
        "hop_bound=3, rtt_bound_ms=4.5)")


@pytest.mark.parametrize("value", [TRANSIT, FALLBACK, ESTIMATE])
def test_values_survive_pickle_and_copy(value):
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert twin == value and type(twin) is type(value)


def test_replacing_a_field_is_validated():
    assert ESTIMATE._replace(hop_bound=4).hop_bound == 4
    with pytest.raises(TraceError):
        ESTIMATE._replace(hop_bound=-1)
    with pytest.raises(TraceError):
        TRANSIT._replace(index_a=0)


@pytest.mark.parametrize("hop_bound", [2.5, 3.0, True, False, None, "3"])
def test_pair_estimate_hop_bound_must_be_an_int(hop_bound):
    with pytest.raises(TraceError, match="hop bound"):
        PairEstimate("a", "b", "o", TRANSIT, hop_bound, 4.5)
