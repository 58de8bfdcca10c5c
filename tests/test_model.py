import copy
import pickle
import re
from collections import Counter

import pytest

from edgedist.handover import AnticipationOptimum, LossModel, LossTable, PersistenceTable
from edgedist.ingest import ParseReport, trace_from_record
from edgedist.model import (
    PairEstimate,
    RejectKind,
    RejectReason,
    TraceError,
    TracePath,
)
from edgedist.stats import EdgeDistribution
from edgedist.synth import ExperimentReport, PairResult, SimOptions, Topology
from edgedist.transit import BatchStats, EstimateOptions, PairOutcome

from conftest import trace


def test_hop_requires_address_with_rtt():
    with pytest.raises(TraceError, match="^hop 2: rtt without address$"):
        trace("o", "b", [("a", 1.0), (None, 3.0)], reached=False)


def test_hop_allows_address_without_rtt():
    t = trace("o", "b", [("10.0.0.1", None)], reached=False)
    assert t.addresses == ("10.0.0.1",) and t.rtts == (None,)


def _decoded(ttl, address, rtt):
    """The unreached trace decoded from a canonical record whose second
    hop array is [ttl, address, rtt]."""
    record = {"origin_id": "o", "destination": "b", "reached": False,
              "hops": [[1, "10.0.0.1", 0.5], [ttl, address, rtt]]}
    return trace_from_record(record, {})


def test_hop_rejects_bad_ttl_and_rtt():
    with pytest.raises(TraceError, match="^ttl gap at position 2: expected ttl 2, got 0$"):
        _decoded(0, "10.0.0.2", 1.0)
    for rtt in (-1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(TraceError, match="^hop 2: rtt .* is negative or not finite$"):
            trace("o", "b", [("a", 1.0), ("10.0.0.2", rtt)], reached=False)


def test_trace_rejects_ttl_gap():
    record = {"origin_id": "o", "destination": "b", "reached": True,
              "hops": [[1, "a", 1.0], [3, "b", 2.0]]}
    with pytest.raises(TraceError, match="^ttl gap at position 2: expected ttl 2, got 3$"):
        trace_from_record(record, {})


def test_trace_rejects_out_of_order_hops():
    record = {"origin_id": "o", "destination": "b", "reached": True,
              "hops": [[2, "a", 1.0], [1, "b", 2.0]]}
    with pytest.raises(TraceError, match="^ttl gap at position 1: expected ttl 1, got 2$"):
        trace_from_record(record, {})


@pytest.mark.parametrize("columns, message", [
    ([("a",), ()], "1 addresses but 0 rtts"),
    ([(), (1.0,)], "0 addresses but 1 rtts"),
    ([["a"], (1.0,)], "addresses is a list, not a tuple"),
    ([("a",), "x"], "rtts is a str, not a tuple"),
])
def test_trace_columns_are_tuples_of_one_length(columns, message):
    with pytest.raises(TraceError, match=f"^{re.escape(message)}$"):
        TracePath("o", "b", *columns, False)


def test_reached_trace_must_end_at_destination():
    with pytest.raises(TraceError):
        trace("o", "x", [("a", 1.0), ("b", 2.0)])


def test_unresponsive_hops_are_retained():
    t = trace("o", "b", [("a", 1.0), (None, None), ("b", 3.0)])
    assert t.addresses == ("a", None, "b") and t.rtts == (1.0, None, 3.0)


def test_transit_point_fallback_indices():
    PairEstimate("o", address=None, index_a=0, index_b=0, is_origin_fallback=True,
                 hop_bound=2, rtt_bound_ms=1.0)
    with pytest.raises(TraceError):
        PairEstimate("o", None, 1, 0, True, 2, 1.0)
    with pytest.raises(TraceError):
        PairEstimate("o", None, 1, 1, False, 2, 1.0)


@pytest.mark.parametrize("args, message", [
    (("x", True, 1.5, False), "index_a True is not an int"),
    (("x", 1.0, 1, False), "index_a 1.0 is not an int"),
    (("x", 1, 1.5, False), "index_b 1.5 is not an int"),
    (("x", 1, "2", False), "index_b '2' is not an int"),
    ((5, 1, 1, False), "address 5 is not a string"),
    ((b"x", 1, 1, False), "address b'x' is not a string"),
    (("", 1, 1, False), "address must be non-empty or None"),
    (("x", 1, 1, 0), "is_origin_fallback 0 is not a bool"),
    ((None, 0, 0, 1), "is_origin_fallback 1 is not a bool"),
    ((None, False, 0, True), "index_a False is not an int"),
    ((None, 0, 0.0, True), "index_b 0.0 is not an int"),
])
def test_transit_point_fields_must_have_their_types(args, message):
    # the transit's fields of an estimate: address, indices and fallback flag
    with pytest.raises(TraceError, match=f"^{re.escape(message)}$"):
        PairEstimate("o", *args, 2, 1.0)


def test_pair_estimate_rejects_negative_bounds():
    transit = {"address": "t", "index_a": 1, "index_b": 1, "is_origin_fallback": False}
    with pytest.raises(TraceError):
        PairEstimate(origin_id="o", **transit, hop_bound=-1, rtt_bound_ms=0.0)
    for rtt in (-0.5, float("nan"), float("inf")):
        with pytest.raises(TraceError):
            PairEstimate(origin_id="o", **transit, hop_bound=0, rtt_bound_ms=rtt)


@pytest.mark.parametrize("rtt", [True, False, "4.5", None, [4.5]])
def test_pair_estimate_rtt_bound_must_be_a_number(rtt):
    with pytest.raises(TraceError, match=f"^rtt bound {re.escape(repr(rtt))} is not a number$"):
        PairEstimate("o", "t", 1, 1, False, 3, rtt)


@pytest.mark.parametrize("args, message", [
    ((5, "t", 1, 1, False), "origin_id 5 is not a string"),
    ((None, "t", 1, 1, False), "origin_id None is not a string"),
    ((b"o", "t", 1, 1, False), "origin_id b'o' is not a string"),
    # the transit's fields are checked first
    ((5, "t", 0, 1, False), "transit indices are 1-based"),
    ((None, None, 0, 0, 1), "is_origin_fallback 1 is not a bool"),
])
def test_pair_estimate_fields_must_have_their_types(args, message):
    with pytest.raises(TraceError, match=f"^{re.escape(message)}$"):
        PairEstimate(*args, 2, 1.0)


def test_pair_estimate_rtt_bound_may_be_an_int():
    assert PairEstimate("o", "t", 1, 1, False, 3, 0).rtt_bound_ms == 0


@pytest.mark.parametrize("kind, detail, message", [
    ("NoTransit", "", "reject kind 'NoTransit' is not a RejectKind"),
    (None, "", "reject kind None is not a RejectKind"),
    (RejectKind.NO_TRANSIT, 5, "detail 5 is not a string"),
    (RejectKind.NO_TRANSIT, None, "detail None is not a string"),
])
def test_reject_reason_fields_must_have_their_types(kind, detail, message):
    with pytest.raises(TraceError, match=f"^{re.escape(message)}$"):
        RejectReason(kind, detail)


def test_reject_hashes_run_no_python_code():
    # the hash of every reject entry is taken per (pair, origin): the
    # tuple's C hash over the kind's identity hash, no Enum.__hash__
    assert RejectReason.__hash__ is tuple.__hash__
    assert RejectKind.__hash__ is object.__hash__
    assert hash(REJECT) == hash(RejectReason(RejectKind.NO_TRANSIT, "no trace"))
    assert {REJECT: 1}[RejectReason(RejectKind.NO_TRANSIT, "no trace")] == 1


ESTIMATE = PairEstimate("o", "t", 1, 2, False, 3, 4.5)
FALLBACK = PairEstimate("o", None, 0, 0, True, 5, 7.0)
# an int RTT bound, as an outcome file that writes 4 reads back
INT_RTT = PairEstimate("p", "t", 1, 2, False, 3, 4)
# an unreached trace with a silent hop and a timestamp, and an empty one
PARTIAL = TracePath("o", "x", ("10.0.0.1", None), (1.5, None), False, 1700000000.25)
EMPTY = trace("o", "x", [], reached=False)
REJECT = RejectReason(RejectKind.NO_TRANSIT, "no trace")
# one of each value class of the other modules, built on the same tuple base
TRACE = trace("o", "b", [("b", 1.0)])
TABLE = LossTable((0.0, 10.0), (0.0, 5.0), ((0.0, 1.0), (2.0, 3.0)))
MODEL = LossModel(0.2, TABLE)
OPTIMUM = AnticipationOptimum(25.0, 3.5, False)
PERSISTENCE = PersistenceTable({1: 1.0, 2: 0.5})
REPORT = ParseReport(2, 1, ["unrecognized line: 'x'"])
DIST = EdgeDistribution("hop_count", 1.0, ((2.0, 1), (3.0, 1)), 2, 2.5, 0.5, ((2.0, 1), (3.0, 1)))
SIM = SimOptions(block_probability=0.1, seed=3)
RESULT = PairResult(("a", "b"), 2, 1.5, 2, 3.0, True, True, False)
BATCH = BatchStats(1, 1, Counter({"NoTransit": 2}))
EXPERIMENT = ExperimentReport([RESULT], BATCH, {"o": [TRACE]}, 0, 1, {"clean_accept": 1}, 0)
OPTIONS = EstimateOptions(mode="host", eps_rtt=1.0)
OUTCOME = PairOutcome(("a", "b"), ("o",), (ESTIMATE,), ESTIMATE)
TOPOLOGY = Topology(("A", "A.h"), {("A", "A.h"): 0.5, ("A.h", "A"): 0.5}, {"A.h": "A"}, 3)
MORE_VALUES = [TRACE, TABLE, MODEL, OPTIMUM, PERSISTENCE, REPORT, DIST, SIM, RESULT, BATCH,
               EXPERIMENT, OPTIONS, OUTCOME, TOPOLOGY]
# these hold a list or dict, or are results and reports: never a key
UNHASHABLE = (PersistenceTable, ParseReport, PairResult, BatchStats, ExperimentReport,
              PairOutcome, Topology)


class _OtherTuple(tuple):
    pass


@pytest.mark.parametrize("value, field", [
    (INT_RTT, "index_a"), (FALLBACK, "is_origin_fallback"), (ESTIMATE, "hop_bound"),
    (PARTIAL, "rtts"), (EMPTY, "timestamp"), (REJECT, "detail"),
    (TRACE, "addresses"), (TABLE, "values"), (MODEL, "beta"), (OPTIMUM, "flat"),
    (PERSISTENCE, "entries"), (REPORT, "warnings"), (DIST, "values"), (SIM, "seed"),
    (RESULT, "sound"), (BATCH, "succeeded"), (EXPERIMENT, "stats"), (OPTIONS, "mode"),
    (OUTCOME, "best_hop"), (TOPOLOGY, "edges"),
])
def test_values_are_read_only(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        value.note = "x"


@pytest.mark.parametrize("value", [INT_RTT, FALLBACK, ESTIMATE, PARTIAL, EMPTY, REJECT,
                                   *MORE_VALUES])
def test_value_equality_is_type_strict(value):
    same = type(value)._make(value)
    assert same is not value
    assert value == same and not value != same
    if isinstance(value, UNHASHABLE):
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(same)
    plain = tuple(value)
    assert value != plain and not value == plain
    assert plain != value and not plain == value
    # a foreign tuple subclass on the left compares by its own (tuple) rules
    assert value != _OtherTuple(value) and not value == _OtherTuple(value)
    other_type = ESTIMATE if type(value) is not PairEstimate else REJECT
    assert value != other_type and not value == other_type
    assert other_type != value and not other_type == value
    with pytest.raises(TypeError):
        value < same


def test_values_compare_by_every_field():
    assert PARTIAL != PARTIAL._replace(rtts=(1.25, None))
    assert PARTIAL != PARTIAL._replace(addresses=("10.0.0.2", None))
    assert PARTIAL != PARTIAL._replace(timestamp=None)
    assert PARTIAL == TracePath(origin_id="o", destination="x", addresses=("10.0.0.1", None),
                                rtts=(1.5, None), reached=False, timestamp=1700000000.25)
    assert EMPTY != PARTIAL and EMPTY == trace("o", "x", [], reached=False)
    for field, other in (("origin_id", "p"), ("address", "u"), ("index_a", 2),
                         ("index_b", 3), ("hop_bound", 4), ("rtt_bound_ms", 4.0)):
        assert ESTIMATE != ESTIMATE._replace(**{field: other})
    assert ESTIMATE != FALLBACK
    assert ESTIMATE == PairEstimate(origin_id="o", address="t", index_a=1, index_b=2,
                                    is_origin_fallback=False, hop_bound=3, rtt_bound_ms=4.5)
    assert REJECT != RejectReason(RejectKind.NO_TRANSIT)
    assert REJECT != RejectReason(RejectKind.LOOP_BEYOND_TRANSIT, "no trace")
    assert RejectReason(RejectKind.NO_TRANSIT) == RejectReason(kind=RejectKind.NO_TRANSIT,
                                                               detail="")


def test_value_repr_is_the_dataclass_text():
    assert repr(ESTIMATE) == (
        "PairEstimate(origin_id='o', address='t', index_a=1, index_b=2, "
        "is_origin_fallback=False, hop_bound=3, rtt_bound_ms=4.5)")
    assert repr(FALLBACK) == (
        "PairEstimate(origin_id='o', address=None, index_a=0, index_b=0, "
        "is_origin_fallback=True, hop_bound=5, rtt_bound_ms=7.0)")
    assert repr(REJECT) == (
        "RejectReason(kind=<RejectKind.NO_TRANSIT: 'NoTransit'>, detail='no trace')")
    assert repr(PARTIAL) == (
        "TracePath(origin_id='o', destination='x', addresses=('10.0.0.1', None), "
        "rtts=(1.5, None), reached=False, timestamp=1700000000.25)")
    assert repr(TRACE) == (
        "TracePath(origin_id='o', destination='b', addresses=('b',), rtts=(1.0,), "
        "reached=True, timestamp=None)")
    table = ("LossTable(delay_axis=(0.0, 10.0), anticipation_axis=(0.0, 5.0), "
             "values=((0.0, 1.0), (2.0, 3.0)))")
    assert repr(TABLE) == table
    assert repr(MODEL) == f"LossModel(beta=0.2, table={table})"
    assert repr(LossModel()) == "LossModel(beta=0.1, table=None)"
    assert repr(OPTIMUM) == (
        "AnticipationOptimum(anticipation_ms=25.0, expected_loss_ms=3.5, flat=False)")
    assert repr(PERSISTENCE) == "PersistenceTable(entries={1: 1.0, 2: 0.5})"
    assert repr(REPORT) == (
        "ParseReport(parsed=2, skipped_lines=1, warnings=[\"unrecognized line: 'x'\"])")
    assert repr(ParseReport()) == "ParseReport(parsed=0, skipped_lines=0, warnings=[])"
    assert repr(DIST) == (
        "EdgeDistribution(metric='hop_count', bin_width=1.0, bins=((2.0, 1), (3.0, 1)), "
        "n=2, mean=2.5, std=0.5, values=((2.0, 1), (3.0, 1)), excluded=0)")
    assert repr(SIM) == (
        "SimOptions(block_probability=0.1, asymmetry_probability=0.0, asymmetry_delta_ms=50.0, "
        "loop_probability=0.0, rtt_jitter_ms=0.0, seed=3)")
    result = ("PairResult(pair=('a', 'b'), true_hops=2, true_one_way_ms=1.5, best_hop_bound=2, "
              "best_rtt_bound=3.0, sound=True, tight_hop=True, tight_rtt=False)")
    assert repr(RESULT) == result
    batch = "BatchStats(total_pairs=1, succeeded=1, reject_counts=Counter({'NoTransit': 2}))"
    assert repr(BATCH) == batch
    assert repr(BatchStats(0, 0)) == (
        "BatchStats(total_pairs=0, succeeded=0, reject_counts=Counter())")
    assert repr(EXPERIMENT) == (
        f"ExperimentReport(results=[{result}], stats={batch}, "
        f"traces_by_origin={{'o': [{TRACE!r}]}}, soundness_violations=0, tight_hits=1, "
        "confusion={'clean_accept': 1}, false_rtt_accepts=0)")
    assert repr(OPTIONS) == (
        "EstimateOptions(mode='host', allow_origin_fallback=False, eps_rtt=1.0, "
        "couple_metrics=False)")
    assert repr(OUTCOME) == (
        f"PairOutcome(pair=('a', 'b'), origins=('o',), entries=({ESTIMATE!r},), "
        f"best_hop={ESTIMATE!r}, best_rtt=None)")
    assert repr(TOPOLOGY) == (
        "Topology(nodes=('A', 'A.h'), edges={('A', 'A.h'): 0.5, ('A.h', 'A'): 0.5}, "
        "host_attachment={'A.h': 'A'}, seed=3)")


def test_value_defaults_are_fresh_per_value():
    # a shared default list or Counter would gather every value's entries
    assert ParseReport().warnings == [] and ParseReport().warnings is not ParseReport().warnings
    assert BatchStats(0, 0).reject_counts is not BatchStats(0, 0).reject_counts
    assert EdgeDistribution("rtt_ms", 5.0, (), 0, 0.0, 0.0, ()).excluded == 0
    assert OUTCOME._replace(best_hop=None) == PairOutcome(("a", "b"), ("o",), (ESTIMATE,))


@pytest.mark.parametrize("value", [INT_RTT, FALLBACK, ESTIMATE, PARTIAL, EMPTY, REJECT,
                                   *MORE_VALUES])
def test_values_survive_pickle_and_copy(value):
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert twin == value and type(twin) is type(value)


def test_replacing_a_field_is_validated():
    assert ESTIMATE._replace(hop_bound=4).hop_bound == 4
    with pytest.raises(TraceError):
        ESTIMATE._replace(hop_bound=-1)
    with pytest.raises(TraceError):
        ESTIMATE._replace(index_a=0)
    with pytest.raises(TraceError, match="index_a 1.0 is not an int"):
        ESTIMATE._replace(index_a=1.0)
    assert REJECT._replace(detail="x").detail == "x"
    with pytest.raises(TraceError, match="detail 5 is not a string"):
        REJECT._replace(detail=5)
    assert PARTIAL._replace(rtts=(None, None)).rtts == (None, None)
    with pytest.raises(TraceError, match="rtt without address"):
        PARTIAL._replace(addresses=(None, None))
    with pytest.raises(TraceError, match="1 addresses but 2 rtts"):
        PARTIAL._replace(addresses=("10.0.0.1",))
    assert TRACE._replace(reached=False).reached is False
    with pytest.raises(TraceError, match="reached 'yes' is not a bool"):
        TRACE._replace(reached="yes")
    with pytest.raises(TraceError, match="addresses is a list, not a tuple"):
        TRACE._replace(addresses=[*TRACE.addresses])
    with pytest.raises(ValueError, match="table shape does not match its axes"):
        TABLE._replace(values=((0.0, 1.0),))
    with pytest.raises(ValueError, match="beta must be finite and >= 0, got -1"):
        MODEL._replace(beta=-1)
    with pytest.raises(ValueError, match=re.escape("persist ratio 2 at hop 1 outside [0, 1]")):
        PERSISTENCE._replace(entries={1: 2})
    with pytest.raises(ValueError, match=re.escape("loop_probability must be in [0, 1], got 2")):
        SIM._replace(loop_probability=2)
    with pytest.raises(ValueError, match="unknown endpoint mode 'hots'"):
        OPTIONS._replace(mode="hots")
    assert OPTIONS._replace(eps_rtt=0.0) == EstimateOptions(mode="host")


@pytest.mark.parametrize("hop_bound", [2.5, 3.0, True, False, None, "3"])
def test_pair_estimate_hop_bound_must_be_an_int(hop_bound):
    with pytest.raises(TraceError, match="hop bound"):
        PairEstimate("o", "t", 1, 2, False, hop_bound, 4.5)


@pytest.mark.parametrize("ttl, address, rtt, message", [
    (True, "a", 1.0, "ttl True is not an int"),
    (2.0, "a", 1.0, "ttl 2.0 is not an int"),
    ("2", None, None, "ttl '2' is not an int"),
    (2, ["x"], 1.0, "address ['x'] is not a string"),
    (2, b"a", None, "address b'a' is not a string"),
    (2, "", None, "address must be non-empty or None"),
    (2, "a", True, "hop 2: rtt True is not a number"),
    (2, "a", "1.0", "hop 2: rtt '1.0' is not a number"),
])
def test_hop_fields_must_have_their_types(ttl, address, rtt, message):
    # the ttl is checked where a hop array is decoded, the address and rtt
    # by the trace
    with pytest.raises(TraceError, match=f"^{re.escape(message)}$"):
        _decoded(ttl, address, rtt)


def test_hop_rtt_may_be_an_int():
    t = trace("o", "b", [("a", 0), ("b", 3)])
    assert t.rtts == (0, 3) and type(t.rtts[0]) is int


@pytest.mark.parametrize("field, value, message", [
    ("reached", 1, "reached 1 is not a bool"),
    ("reached", None, "reached None is not a bool"),
    ("origin_id", 5, "origin_id 5 is not a string"),
    ("destination", ("b",), "destination ('b',) is not a string"),
    ("timestamp", True, "timestamp True is not a finite number"),
    ("timestamp", float("inf"), "timestamp inf is not a finite number"),
])
def test_trace_fields_must_have_their_types(field, value, message):
    fields = {"origin_id": "o", "destination": "b", "addresses": (), "rtts": (), "reached": False,
              field: value}
    with pytest.raises(TraceError, match=f"^{re.escape(message)}$"):
        TracePath(**fields)
