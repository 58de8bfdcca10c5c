import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgedist.ingest import (
    parse_traceroute_text,
    read_canonical,
    write_canonical,
)
from edgedist.model import HopRecord, TracePath

from conftest import trace

SAMPLE = textwrap.dedent(
    """\
    traceroute to 192.0.2.9 (192.0.2.9), 30 hops max, 60 byte packets
     1  r1 (192.0.2.1)  1.5 ms  1.2 ms  1.9 ms
     2  192.0.2.9 (192.0.2.9)  3.0 ms * 2.8 ms
    """
)


def test_parse_minimum_of_probes():
    traces, report = parse_traceroute_text(SAMPLE, "berlin-1")
    assert report.parsed == 1 and report.skipped_lines == 0
    (t,) = traces
    assert t.reached and t.destination == "192.0.2.9"
    assert [(h.ttl, h.address, h.rtt_ms) for h in t.hops] == [
        (1, "192.0.2.1", 1.2),
        (2, "192.0.2.9", 2.8),
    ]


def test_parse_unresponsive_hop():
    text = (
        "traceroute to 192.0.2.9 (192.0.2.9), 30 hops max\n"
        " 1  192.0.2.1  1.0 ms\n"
        " 2  * * *\n"
        " 3  192.0.2.9 (192.0.2.9)  4.0 ms\n"
    )
    (t,), _ = parse_traceroute_text(text, "o")
    assert t.hops[1] == HopRecord(ttl=2)
    assert t.reached


def test_parse_corrupted_hop_line_is_skipped_not_fatal():
    # header + 6 hop lines, one of them corrupted: 6 hops, 1 skipped line
    text = (
        "traceroute to 10.0.0.9 (10.0.0.9), 30 hops max\n"
        " 1  10.0.0.1  1.0 ms\n"
        " 2  10.0.0.2  2.0 ms\n"
        " 3  10.0.0.3  garbled #@! line\n"
        " 4  10.0.0.4  4.0 ms\n"
        " 5  10.0.0.5  5.0 ms\n"
        " 6  10.0.0.9 (10.0.0.9)  6.0 ms\n"
    )
    traces, report = parse_traceroute_text(text, "o")
    assert len(traces) == 1
    assert len(traces[0].hops) == 6
    assert not traces[0].hops[2].responsive
    assert report.skipped_lines == 1
    assert traces[0].reached


@pytest.mark.parametrize("probes", [
    "nan ms  1.0 ms", "1.0 ms  nan ms", "inf ms", "1.0 ms  2.0 ms  inf ms", "1e999 ms",
])
def test_parse_non_finite_rtt_is_a_bad_hop_line(probes):
    text = (
        "traceroute to 10.0.0.9 (10.0.0.9), 30 hops max\n"
        " 1  10.0.0.1  1.0 ms\n"
        f" 2  r2 (10.0.0.2)  {probes}\n"
        " 3  10.0.0.9  3.0 ms\n"
    )
    (t,), report = parse_traceroute_text(text, "o")
    assert t.hops[1] == HopRecord(ttl=2)
    assert t.reached
    assert report.skipped_lines == 1
    (warning,) = report.warnings
    assert "non-finite rtt" in warning


def test_parse_named_responders_give_the_min_rtt_address():
    # the earliest of the fastest responders wins; names are dropped
    text = (
        "traceroute to 192.0.2.9 (192.0.2.9), 30 hops max\n"
        " 1  r1 (192.0.2.1)  2.0 ms  r2 (192.0.2.2)  1.5 ms  r3 (192.0.2.3)  1.5 ms\n"
        " 2  192.0.2.9  3.0 ms\n"
    )
    (t,), _ = parse_traceroute_text(text, "o")
    assert t.hops[0] == HopRecord(ttl=1, address="192.0.2.2", rtt_ms=1.5)


def test_parse_multiple_blocks():
    traces, report = parse_traceroute_text(SAMPLE + SAMPLE.replace("192.0.2.9", "192.0.2.7"), "o")
    assert report.parsed == 2
    assert {t.destination for t in traces} == {"192.0.2.9", "192.0.2.7"}


def test_canonical_round_trip(tmp_path):
    traces = [
        trace("o1", "b", [("a", 1.0), (None, None), ("b", 3.5)]),
        trace("o1", "c", [("c", 0.5)]),
        TracePath(origin_id="o2", destination="x", hops=(), reached=False),
    ]
    path = tmp_path / "traces.jsonl"
    write_canonical(traces, path)
    assert read_canonical(path) == traces


def test_canonical_determinism(tmp_path):
    traces = [trace("o", "b", [("a", 1.0), ("b", 2.0)])]
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_canonical(traces, p1)
    write_canonical(traces, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_canonical_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    write_canonical([], path)
    assert path.read_bytes() == b""
    assert read_canonical(path) == []


def test_canonical_ttl_gap_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = '{"origin_id":"o","destination":"b","timestamp":null,"reached":true,"hops":[[1,"b",1.0]]}\n'
    bad = '{"origin_id":"o","destination":"b","timestamp":null,"reached":true,"hops":[[1,"a",1.0],[3,"b",2.0]]}\n'
    path.write_text(good + bad)
    with pytest.raises(ValueError, match="line 2"):
        read_canonical(path)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_canonical_non_finite_rtt_names_line(tmp_path, token):
    path = tmp_path / "bad.jsonl"
    good = '{"origin_id":"o","destination":"b","timestamp":null,"reached":true,"hops":[[1,"b",1.0]]}\n'
    bad = good.replace("1.0", token)
    path.write_text(good + bad)
    with pytest.raises(ValueError, match=r": bad trace at line 2: .*not finite"):
        read_canonical(path)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.builds(
            lambda dest, n, rtts: trace(
                "gen",
                dest,
                [(f"h{i}", round(r, 3)) for i, r in enumerate(rtts[:n])] + [(dest, 99.0)],
            ),
            dest=st.text(alphabet="abcdef0123456789.", min_size=1, max_size=12),
            n=st.integers(min_value=0, max_value=6),
            rtts=st.lists(st.floats(min_value=0, max_value=500), min_size=6, max_size=6),
        ),
        max_size=20,
    )
)
def test_round_trip_property(tmp_path_factory, traces):
    path = tmp_path_factory.mktemp("rt") / "t.jsonl"
    write_canonical(traces, path)
    assert read_canonical(path) == traces
