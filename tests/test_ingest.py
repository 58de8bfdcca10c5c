import json
import re
import textwrap

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgedist import ingest, synth
from edgedist.ingest import (
    parse_traceroute_text,
    read_canonical,
    write_canonical,
)

import reference_ingest
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
    assert traces == [trace("berlin-1", "192.0.2.9", [("192.0.2.1", 1.2), ("192.0.2.9", 2.8)])]


def test_parse_unresponsive_hop():
    text = (
        "traceroute to 192.0.2.9 (192.0.2.9), 30 hops max\n"
        " 1  192.0.2.1  1.0 ms\n"
        " 2  * * *\n"
        " 3  192.0.2.9 (192.0.2.9)  4.0 ms\n"
    )
    traces, _ = parse_traceroute_text(text, "o")
    assert traces == [
        trace("o", "192.0.2.9", [("192.0.2.1", 1.0), (None, None), ("192.0.2.9", 4.0)])]


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
    assert traces == [trace("o", "10.0.0.9", [
        ("10.0.0.1", 1.0), ("10.0.0.2", 2.0), (None, None), ("10.0.0.4", 4.0),
        ("10.0.0.5", 5.0), ("10.0.0.9", 6.0)])]
    assert report.skipped_lines == 1


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
    traces, report = parse_traceroute_text(text, "o")
    assert traces == [trace("o", "10.0.0.9", [("10.0.0.1", 1.0), (None, None), ("10.0.0.9", 3.0)])]
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
    traces, _ = parse_traceroute_text(text, "o")
    assert traces == [trace("o", "192.0.2.9", [("192.0.2.2", 1.5), ("192.0.2.9", 3.0)])]


def test_parse_multiple_blocks():
    traces, report = parse_traceroute_text(SAMPLE + SAMPLE.replace("192.0.2.9", "192.0.2.7"), "o")
    assert report.parsed == 2
    assert {t.destination for t in traces} == {"192.0.2.9", "192.0.2.7"}


def test_parse_ipv6_traceroute():
    text = (
        "traceroute6 to dst.example (2001:db8::2), 30 hops max, 80 byte packets\n"
        " 1  2001:db8::1  1.0 ms  0.9 ms\n"
        " 2  dst.example (2001:db8::2)  2.0 ms\n"
    )
    traces, report = parse_traceroute_text(text, "o")
    assert report == ingest.ParseReport(parsed=1)
    assert traces == [trace("o", "2001:db8::2", [("2001:db8::1", 0.9), ("2001:db8::2", 2.0)])]


def test_parse_ipv6_addresses_are_kept_compressed():
    # however each is written, the header and the last hop name one address
    text = (
        "traceroute6 to 2001:DB8:0:0::2\n"
        " 1  r1 (2001:0db8::0001)  1.0 ms  2001:db8::0:1  0.5 ms\n"
        " 2  2001:db8:0:0:0:0:0:2  2.0 ms\n"
        "traceroute6 to x (2001:db8::0:9)\n"
        " 1  2001:db8::9  1.0 ms\n"
    )
    traces, report = parse_traceroute_text(text, "o")
    assert report.skipped_lines == 0
    assert [(t.destination, t.reached) for t in traces] == [
        ("2001:db8::2", True), ("2001:db8::9", True)]
    assert traces[0].addresses == ("2001:db8::1", "2001:db8::2")


@pytest.mark.parametrize("body, warning", [
    ("2001:db8::zz  1.0 ms", "unrecognized token '2001:db8::zz'"),
    ("r1 (2001:db8:::1)  1.0 ms", "bad address '(2001:db8:::1)'"),
    ("1.0 ms  2001:db8::1", "rtt before any address"),
])
def test_parse_bad_ipv6_is_a_bad_hop_line(body, warning):
    traces, report = parse_traceroute_text(f"traceroute6 to 2001:db8::9\n 1  {body}\n", "o")
    assert traces == [trace("o", "2001:db8::9", [(None, None)], reached=False)]
    assert report.warnings == [f"bad hop line ({warning}): {'1  ' + body!r}"]


@pytest.mark.parametrize("good, bad", [
    ("199.1.1.1", "999.1.1.1"),
    ("10.0.0.9", "010.0.0.9"),
    ("10.0.0.255", "10.0.0.256"),
    ("0.0.0.0", "00.0.0.0"),
    ("255.255.255.255", "256.255.255.255"),
    ("10.0.0.1", "\u0661\u0660.0.0.1"),  # Arabic-Indic digits, which \d matches
])
def test_parse_ipv4_octets_are_0_to_255_without_leading_zeros(good, bad):
    # each bad token used to be kept as an address, as written
    text = (f"traceroute to dst.example\n 1  {good}  1.0 ms\n 2  {bad}  2.0 ms\n"
            f" 3  r ({bad})  3.0 ms\n")
    traces, report = parse_traceroute_text(text, "o")
    assert traces == [trace("o", "dst.example", [(good, 1.0), (None, None), (None, None)],
                            reached=False)]
    assert report.skipped_lines == 2
    assert report.warnings == [
        f"bad hop line (unrecognized token {bad!r}): {f'2  {bad}  2.0 ms'!r}",
        f"bad hop line (bad address {f'({bad})'!r}): {f'3  r ({bad})  3.0 ms'!r}",
    ]


@pytest.mark.parametrize("line, warning", [
    (" \u0661  10.0.0.1  1.0 ms", "unrecognized line: '\u0661  10.0.0.1  1.0 ms'"),
    (" \uff11  10.0.0.1  1.0 ms", "unrecognized line: '\uff11  10.0.0.1  1.0 ms'"),
    (" 1\u0661  10.0.0.1  1.0 ms", "unrecognized line: '1\u0661  10.0.0.1  1.0 ms'"),
    (" 1  10.0.0.1  \u0661.\u0660 ms",
     "bad hop line (bad rtt '\u0661.\u0660'): '1  10.0.0.1  \u0661.\u0660 ms'"),
    (" 1  10.0.0.1  \uff11.5 ms", "bad hop line (bad rtt '\uff11.5'): '1  10.0.0.1  \uff11.5 ms'"),
    (" 1  10.0.0.1  1_0 ms", "bad hop line (bad rtt '1_0'): '1  10.0.0.1  1_0 ms'"),
])
def test_parse_numbers_are_ascii_digits_without_underscores(line, warning):
    # int() and float() read other scripts' digits, and float() reads 1_0
    # as 10.0; each of these used to ingest as TTL 1 with a 1.0 or 10.0 RTT
    text = f"traceroute to 10.0.0.9\n{line}\n 2  10.0.0.9  3.0 ms\n"
    traces, report = parse_traceroute_text(text, "o")
    assert traces == [trace("o", "10.0.0.9", [(None, None), ("10.0.0.9", 3.0)])]
    assert report.warnings == [warning] and report.skipped_lines == 1


@pytest.mark.parametrize("ttl", ["0", "255", "256", "1000", "9" * 5000],
                         ids=["0", "255", "256", "1000", "5000-digits"])
def test_parse_ttl_outside_1_to_255_is_a_bad_hop_line(ttl):
    # IP TTL and IPv6 hop limit are 8-bit fields.  A larger TTL used to pad
    # the trace with silent hops up to it, with no warning, and one of
    # thousands of digits made int() raise out of the whole parse
    line = f" {ttl}  10.0.0.9  3.0 ms"
    text = f"traceroute to 10.0.0.9\n 1  10.0.0.1  1.0 ms\n{line}\n"
    traces, report = parse_traceroute_text(text, "o")
    if ttl == "255":
        silent = [(None, None)] * 253
        assert traces == [trace("o", "10.0.0.9", [("10.0.0.1", 1.0), *silent, ("10.0.0.9", 3.0)])]
        assert report.warnings == []
    else:
        assert traces == [trace("o", "10.0.0.9", [("10.0.0.1", 1.0)], reached=False)]
        assert report.warnings == [f"bad hop line (ttl outside 1..255): {line.strip()!r}"]
        assert report.skipped_lines == 1


def test_canonical_round_trip(tmp_path):
    traces = [
        trace("o1", "b", [("a", 1.0), (None, None), ("b", 3.5)]),
        trace("o1", "c", [("c", 0.5)]),
        trace("o2", "x", [], reached=False),
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


GOOD_RECORD = ('{"origin_id":"o","destination":"10.0.0.9","timestamp":null,"reached":true,'
               '"hops":[[1,"10.0.0.1",1.0],[2,"10.0.0.9",2.0]]}')


# a bool or float ttl, a bool rtt, a non-string address and a non-bool
# reached were read back as they were, and a list address crashed `pairs`
@pytest.mark.parametrize("good, bad, message", [
    ('[1,"10.0.0.1",1.0]', '[true,"10.0.0.1",1.0]', "ttl True is not an int"),
    ('[2,"10.0.0.9",2.0]', '[2.0,"10.0.0.9",2.0]', "ttl 2.0 is not an int"),
    ('[2,"10.0.0.9",2.0]', '[2,"10.0.0.9",true]', "hop 2: rtt True is not a number"),
    ('[2,"10.0.0.9",2.0]', '[2,"10.0.0.9","2.0"]', "hop 2: rtt '2.0' is not a number"),
    ('[1,"10.0.0.1",1.0]', '[1,["x"],1.0]', "address ['x'] is not a string"),
    ('[1,"10.0.0.1",1.0]', '[1,7,1.0]', "address 7 is not a string"),
    ('"reached":true', '"reached":"yes"', "reached 'yes' is not a bool"),
    ('"reached":true', '"reached":1', "reached 1 is not a bool"),
    ('"origin_id":"o"', '"origin_id":["o"]', "origin_id ['o'] is not a string"),
    ('"destination":"10.0.0.9"', '"destination":{"d":1}', "destination {'d': 1} is not a string"),
    ('"timestamp":null', '"timestamp":"yes"', "timestamp 'yes' is not a finite number"),
    ('"timestamp":null', '"timestamp":NaN', "timestamp nan is not a finite number"),
], ids=["bool-ttl", "float-ttl", "bool-rtt", "string-rtt", "list-address", "int-address",
        "string-reached", "int-reached", "list-origin", "object-destination", "string-timestamp",
        "nan-timestamp"])
def test_canonical_wrong_typed_field_names_line(tmp_path, good, bad, message):
    path = tmp_path / "bad.jsonl"
    assert GOOD_RECORD.count(good) == 1
    path.write_text(GOOD_RECORD + "\n" + GOOD_RECORD.replace(good, bad) + "\n")
    with pytest.raises(ValueError, match=f": bad trace at line 2: {re.escape(message)}$"):
        read_canonical(path)


# every check on a hop, each naming the file and the line of the record
@pytest.mark.parametrize("good, bad", [
    ('[1,"10.0.0.1",1.0]', '[true,"10.0.0.1",1.0]'),
    ('[2,"10.0.0.9",2.0]', '[2.0,"10.0.0.9",2.0]'),
    ('[2,"10.0.0.9",2.0]', '["2","10.0.0.9",2.0]'),
    ('[2,"10.0.0.9",2.0]', '[3,"10.0.0.9",2.0]'),
    ('[2,"10.0.0.9",2.0]', '[1,"10.0.0.9",2.0]'),
    ('[1,"10.0.0.1",1.0]', '[1,"10.0.0.1"]'),
    ('[1,"10.0.0.1",1.0]', '[1,"10.0.0.1",1.0,0]'),
    ('[1,"10.0.0.1",1.0]', '[1,null,1.0]'),
    ('[1,"10.0.0.1",1.0]', '[1,"",1.0]'),
    ('[1,"10.0.0.1",1.0]', '[1,7,1.0]'),
    ('[1,"10.0.0.1",1.0]', '[1,"10.0.0.1",-1.0]'),
    ('[1,"10.0.0.1",1.0]', '[1,"10.0.0.1",Infinity]'),
    ('[1,"10.0.0.1",1.0]', '[1,"10.0.0.1",NaN]'),
    ('[2,"10.0.0.9",2.0]', '[2,"10.0.0.8",2.0]'),
], ids=["bool-ttl", "float-ttl", "string-ttl", "ttl-gap", "repeated-ttl", "2-element-hop",
        "4-element-hop", "rtt-without-address", "empty-address", "int-address", "negative-rtt",
        "infinite-rtt", "nan-rtt", "reached-elsewhere"])
def test_canonical_bad_hop_names_file_and_line(tmp_path, good, bad):
    path = tmp_path / "bad.jsonl"
    assert GOOD_RECORD.count(good) == 1
    path.write_text(GOOD_RECORD + "\n" + GOOD_RECORD.replace(good, bad) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: bad trace at line 2: "):
        read_canonical(path)


def test_canonical_int_rtt_round_trips_byte_for_byte(tmp_path):
    path, out = tmp_path / "traces.jsonl", tmp_path / "out.jsonl"
    path.write_text(GOOD_RECORD.replace('[1,"10.0.0.1",1.0],[2,"10.0.0.9",2.0]',
                                        '[1,null,null],[2,"10.0.0.9",5]') + "\n")
    (loaded,) = read_canonical(path)
    write_canonical([loaded], out)
    assert out.read_bytes() == path.read_bytes()


def test_read_canonical_holds_under_80_bytes_per_hop(tmp_path):
    """A read campaign keeps per hop its two column slots and its RTT
    float, plus its share of each trace's value and column headers and of
    the address strings, which a file's traces share."""
    import gc
    import tracemalloc

    topo = synth.generate_topology(synth.RANDOM_GEOMETRIC, {"n": 400}, seed=5)
    sim = synth.Simulator(topo, synth.SimOptions(block_probability=0.1, rtt_jitter_ms=0.5,
                                                 seed=5))
    path = tmp_path / "traces.jsonl"
    write_canonical([sim.trace(origin, host)[0]
                     for origin in topo.routers[:4] for host in topo.hosts], path)
    hops = sum(len(json.loads(line)["hops"]) for line in path.read_text().splitlines())
    gc.collect()
    tracemalloc.start()
    try:
        loaded = read_canonical(path)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(loaded) == 1600 and hops > 9 * len(loaded)
    per_hop = kept / hops
    # measured 62 bytes (CPython 3.11); a tuple per hop made it 121
    assert per_hop < 80, per_hop


def test_canonical_hop_must_have_three_fields(tmp_path):
    for hop in ('[1,"10.0.0.1"]', '[1,"10.0.0.1",1.0,0]'):
        path = tmp_path / "bad.jsonl"
        path.write_text(GOOD_RECORD + "\n" + GOOD_RECORD.replace('[1,"10.0.0.1",1.0]', hop) + "\n")
        with pytest.raises(ValueError, match=": bad trace at line 2: "):
            read_canonical(path)


def test_canonical_timestamp_is_kept(tmp_path):
    path = tmp_path / "traces.jsonl"
    lines = [GOOD_RECORD.replace('"timestamp":null', f'"timestamp":{value}')
             for value in ("null", "1700000000", "1700000000.25")]
    path.write_text("".join(line + "\n" for line in lines))
    assert [t.timestamp for t in read_canonical(path)] == [None, 1700000000, 1700000000.25]
    out = tmp_path / "out.jsonl"
    write_canonical(read_canonical(path), out)
    assert out.read_bytes() == path.read_bytes()


def test_canonical_read_shares_address_strings(tmp_path):
    path = tmp_path / "traces.jsonl"
    path.write_text(GOOD_RECORD + "\n" + GOOD_RECORD + "\n")
    first, second = read_canonical(path)
    assert first == second
    for address_a, address_b in zip(first.addresses, second.addresses):
        assert address_a is address_b
    assert first.origin_id is second.origin_id
    assert first.destination is second.destination is second.addresses[-1]


def test_canonical_read_shares_equal_float_rtts_and_keeps_ints_and_zeros(tmp_path):
    # sharing by value would merge 5 with 5.0 and 0.0 with -0.0, which
    # encode differently
    path, out = tmp_path / "traces.jsonl", tmp_path / "out.jsonl"
    path.write_text(
        '{"origin_id":"o","destination":"d","timestamp":null,"reached":true,"hops":'
        '[[1,"a",0.0],[2,"b",-0.0],[3,"c",5],[4,"e",5.0],[5,"f",7.25],[6,"d",7.25]]}\n'
        '{"origin_id":"o","destination":"g","timestamp":null,"reached":true,"hops":'
        '[[1,"a",5.0],[2,"g",7.25]]}\n')
    first, second = read_canonical(path)
    assert [repr(rtt) for rtt in first.rtts] == ["0.0", "-0.0", "5", "5.0", "7.25", "7.25"]
    assert first.rtts[4] is first.rtts[5] is second.rtts[1]
    assert first.rtts[3] is second.rtts[0]
    write_canonical([first, second], out)
    assert out.read_bytes() == path.read_bytes()


def _parse_hop_outcome(parse, ttl, body):
    try:
        return parse(ttl, body)
    except ValueError as exc:
        return type(exc), str(exc)


# every token kind of a hop line, valid or not; few distinct RTTs, so that
# equal minima from different responders are common
HOP_TOKENS = st.one_of(
    st.sampled_from([
        "192.0.2.1", "10.0.0.2", "r1 (192.0.2.3)", "r2.example (10.0.0.2)", "(bad)",
        "r3 (bad)", "r4 (10.0.0)", "*", "!H", "!N", "nan ms", "inf ms", "-1 ms", "ms",
        "garbage", "#@!", "0.0.0.0", "255.255.255.255", "999.1.1.1", "010.0.0.2",
        "r5 (10.0.0.256)", "2001:db8::1", "r6 (2001:DB8:0::2)", "2001:db8::zz",
    ]),
    st.sampled_from(["0", "-0", "1", "1.0", "1.5", "2.25", "1e1", "1_0", "\u0661.\u0660",
                     "\uff11"]).map(lambda v: f"{v} ms"),
)


@settings(max_examples=400, deadline=None)
@given(ttl=st.integers(min_value=1, max_value=40),
       body=st.lists(HOP_TOKENS, max_size=10).map("  ".join))
@example(ttl=3, body="r1 (192.0.2.1)  1.5 ms  r2 (192.0.2.2)  1.5 ms  1.0 ms")
@example(ttl=3, body="192.0.2.1  2 ms  192.0.2.2  2.0 ms")
@example(ttl=1, body="192.0.2.1  1.0 ms  -1 ms  garbage")
def test_parse_hop_matches_reference(ttl, body):
    share = {}.setdefault
    assert (_parse_hop_outcome(lambda ttl, body: ingest._parse_hop(ttl, body, share), ttl, body)
            == _parse_hop_outcome(reference_ingest.parse_hop, ttl, body))


def test_parse_text_matches_reference():
    # TTL gaps, repeated and out-of-order lines, bad hop lines, lines before
    # any header and garbage between blocks
    text = textwrap.dedent(
        """\
         1  10.0.0.1  1.0 ms
        traceroute to 10.0.0.9 (10.0.0.9), 30 hops max
         1  r1 (10.0.0.1)  1.0 ms  r1b (10.0.0.11)  0.5 ms  0.5 ms
         3  10.0.0.3  3.0 ms  *  2.5 ms !H
         3  10.0.0.4  3.1 ms
         2  10.0.0.2  2.0 ms
         5  10.0.0.5  -1 ms
         6  10.0.0.6  nan ms
        not a hop line
         7  10.0.0.9 (10.0.0.9)  7.0 ms  ms
         8  10.0.0.9  8.0 ms  8.0 ms

        traceroute to host.example (10.0.1.9), 30 hops max
         2  * * *
         4  10.0.1.4  4.0 ms  10.0.1.5  3.0 ms
         4  10.0.1.9  5.0 ms
         5  10.0.1.9  5.0 ms
        traceroute to 10.0.2.9
         1  (10.0.2.1)  1 ms
         2  10.0.2.9  2 ms
        """
    )
    new = parse_traceroute_text(text, "o")
    assert new == reference_ingest.parse_traceroute_text(text, "o")
    traces, report = new
    assert len(traces) == 3 and report.skipped_lines == 9
    # equal addresses and destinations are one string object per call
    strings = [t.destination for t in traces] + [
        address for t in traces for address in t.addresses if address is not None]
    assert len({id(s) for s in strings}) == len(set(strings)) < len(strings)
    assert traces[0].destination is traces[0].addresses[-1]


def _parsed(parse, text):
    """What ``parse`` gives for ``text``, with each RTT's repr, which tells
    -0.0 from 0.0."""
    traces, report = parse(text, "o")
    return traces, [[repr(rtt) for rtt in t.rtts] for t in traces], report


def mostly(common, odd):
    """One of ``common`` five times in six, else one of ``odd``."""
    return st.integers(0, 5).flatmap(lambda i: st.sampled_from(odd if i == 5 else common))


# each part of a hop line: the common shape's values, then the near misses
# on which the token reader and the whole-line match must also agree
TTL_STEPS = mostly(["next"], ["gap", "repeat", "leading-zero", "255", "256", "400-digits"])
ADDRESSES = mostly(
    ["10.0.0.1", "10.0.0.9", "192.0.2.33", "0.0.0.0", "255.255.255.255"],
    ["010.0.0.1", "10.0.0.256", "999.1.1.1", "10.0.0", "1.2.3.4.5", "10..0.1", "2001:db8::1",
     "2001:DB8:0::9", "2001:db8::zz", "\u0661\u0660.0.0.1"])
NAMES = mostly(["r1.example", "t0a0-h.net.example", "10.0.0.7"],
               ["_x", "msx", "*x", "ms", "*", "!H", "((x))", "(10.0.0.5)", "r\u0661"])
PROBES = mostly(
    [f"{rtt} ms" for rtt in ("1.5", "13.457", "2", "0.0", "0", "2.0", "123456789.25")],
    [f"1{'0' * 400} ms", f"1{'0' * 400}.5 ms", "1234567890 ms", "00.5 ms", "\u0661.5 ms",
     "\uff11 ms", "1_0 ms", "1. ms", ".5 ms", "-1 ms", "-0 ms", "1e3 ms", "nan ms", "inf ms",
     "*", "!H", "ms", "10.0.0.2"])
# in-line spacing, with separators that text.splitlines() also splits at
SEPARATORS = mostly(["  "], [" ", "   ", "\t", " \t ", "\xa0", "\x0c", "\r"])
LEADS = mostly([" "], ["", "  ", "\t", "\xa0"])
TAILS = mostly([""], [" ", "  !H", " !N", "  *", "  10.0.0.3  4.0 ms"])
LINE_ENDS = mostly(["\n"], ["\r\n", "\r", "\x0c", "\x1c", "\u2028"])
HEADERS = st.sampled_from([
    "traceroute to 10.0.0.9 (10.0.0.9), 30 hops max, 60 byte packets",
    "traceroute to host.example (10.0.0.1)", "traceroute to 10.0.0.1",
    "traceroute6 to 2001:db8::9", "traceroute to x (bad)",
])
OTHER_LINES = st.sampled_from(["", "   ", "not a hop line", " 3", "* * *",
                               "\u0661  10.0.0.1  1.0 ms"])


@st.composite
def traceroute_texts(draw):
    """Mostly blocks of common hop lines, each part of a line sometimes a
    near miss: a TTL gap, a repeated TTL, a leading zero, 255 then 256, 400
    digits, a hop line before any header, a bad address or name, an odd
    RTT or probe, odd spacing or line ends."""
    lines = [draw(HEADERS)] if draw(mostly([True], [False])) else []
    in_block, hops = bool(lines), 0  # the parser's state, to pick the next TTL
    for kind in draw(st.lists(mostly(["hop"], ["header", "other"]), max_size=25)):
        if kind == "header":
            lines.append(draw(HEADERS))
            in_block, hops = True, 0
            continue
        if kind == "other":
            lines.append(draw(OTHER_LINES))
            continue
        step = draw(TTL_STEPS)
        ttl = {"next": str(hops + 1), "gap": str(hops + 3), "repeat": str(hops),
               "leading-zero": f"0{hops + 1}", "255": "255", "256": "256",
               "400-digits": "9" * 400}[step]
        if in_block and len(ttl) <= 3 and hops < int(ttl) <= ingest.MAX_TTL:
            hops = int(ttl)
        address = draw(ADDRESSES)
        responder = f"{draw(NAMES)} ({address})" if draw(st.booleans()) else address
        probes = [draw(PROBES) for _ in range(draw(mostly([3], [0, 1, 2, 4])))]
        sep = draw(SEPARATORS)
        lines.append(draw(LEADS) + ttl + sep + sep.join([responder, *probes]) + draw(TAILS))
    return "".join(line + draw(LINE_ENDS) for line in lines)


@settings(max_examples=500, deadline=None)
@given(text=traceroute_texts())
@example(text="traceroute to 10.0.0.9\n 1  10.0.0.1  1.0 ms  2.0 ms  3.0 ms\n"
              " 3  r (10.0.0.9)  3.0 ms  3.5 ms  2.5 ms\n")
@example(text=f"traceroute to 10.0.0.9\n 1  10.0.0.1  1{'0' * 400} ms  2.0 ms  3.0 ms\n")
@example(text="traceroute to 10.0.0.9\n 255  10.0.0.1  1.0 ms  2.0 ms  3.0 ms\n"
              " 256  10.0.0.9  1.0 ms  2.0 ms  3.0 ms\n")
@example(text="traceroute to 10.0.0.9\n 1  ms (10.0.0.1)  1.0 ms  2.0 ms  3.0 ms\n")
def test_parse_text_matches_reference_on_generated_text(text):
    assert _parsed(parse_traceroute_text, text) == _parsed(reference_ingest.parse_traceroute_text,
                                                           text)


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
