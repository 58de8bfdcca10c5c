import ast
import gc
import hashlib
import itertools
import json
import os
import random
import re
import resource
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import edgedist
from edgedist import cli, ingest, synth, transit
from edgedist.cli import main, pair_at
from edgedist.model import PairEstimate

from conftest import trace

TRACEROUTE_TEXT = """\
traceroute to hostb.example (10.0.0.2), 30 hops max, 60 byte packets
 1  r1.example (10.1.0.1)  1.3 ms  1.1 ms
 2  10.0.0.2  2.5 ms  2.2 ms
"""


def write_traces(path, traces):
    ingest.write_canonical(traces, path)
    return str(path)


def origin_traces(tmp_path):
    """One origin, two destinations behind a shared transit hop."""
    return write_traces(
        tmp_path / "traces.jsonl",
        [
            trace("O1", "X", [("T", 1.0), ("X", 3.0)]),
            trace("O1", "Y", [("T", 1.0), ("Y", 4.0)]),
        ],
    )


def test_ingest_text_to_canonical(tmp_path, capsys):
    src = tmp_path / "raw.txt"
    src.write_text(TRACEROUTE_TEXT)
    out = tmp_path / "traces.jsonl"
    assert main(["ingest", str(src), "-o", str(out)]) == 0
    (record,) = [json.loads(line) for line in out.read_text().splitlines()]
    assert record["destination"] == "10.0.0.2"
    assert record["reached"] is True
    assert record["hops"] == [[1, "10.1.0.1", 1.1], [2, "10.0.0.2", 2.2]]


def test_ingest_corrupted_line_is_partial_exit(tmp_path, capsys):
    src = tmp_path / "raw.txt"
    src.write_text(TRACEROUTE_TEXT + "garbage that is no hop line\n")
    out = tmp_path / "traces.jsonl"
    assert main(["ingest", str(src), "-o", str(out)]) == 1
    assert out.exists()  # partial output is still written
    assert "warning" in capsys.readouterr().err


def test_ingest_non_ascii_digits_are_warnings(tmp_path, capsys):
    # the TTL and the RTT were read as 1 and 1.0, exit 0
    src = tmp_path / "raw.txt"
    src.write_text("traceroute to 10.0.0.9\n \u0661  10.0.0.1  1.0 ms\n"
                   " 2  10.0.0.9  \u0661.\u0660 ms\n", encoding="utf-8")
    out = tmp_path / "traces.jsonl"
    assert main(["ingest", str(src), "-o", str(out)]) == 1
    (record,) = [json.loads(line) for line in out.read_text().splitlines()]
    assert record["hops"] == [[1, None, None], [2, None, None]]
    assert capsys.readouterr().err.count("warning: ") == 2


def test_ingest_byte_order_mark_is_no_data(tmp_path):
    # the mark used to hide the first trace's header, dropping it with 3 warnings
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(TRACEROUTE_TEXT, encoding="utf-8")
    marked.write_text("\ufeff" + TRACEROUTE_TEXT, encoding="utf-8")
    outputs = []
    for src in (plain, marked):
        out = tmp_path / f"{src.stem}.jsonl"
        assert main(["--quiet", "ingest", str(src), "-o", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[1] == outputs[0]


def test_ingest_byte_identical_reruns(tmp_path):
    src = tmp_path / "raw.txt"
    src.write_text(TRACEROUTE_TEXT)
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["--quiet", "ingest", str(src), "-o", str(out1)]) == 0
    assert main(["--quiet", "ingest", str(src), "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_pairs_all_combinations(tmp_path, capsys):
    traces = origin_traces(tmp_path)
    out = tmp_path / "outcomes.jsonl"
    assert main(["pairs", "--traces", traces, "--mode", "host",
                 "-o", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "success_ratio=1.00" in captured
    (record,) = [json.loads(line) for line in out.read_text().splitlines()]
    assert record["pair"] == ["X", "Y"]
    best = record["best_hop"]
    assert best["hop_bound"] == 2
    assert best["rtt_bound_ms"] == 5.0


def test_pairs_nothing_accepted_is_partial(tmp_path, capsys):
    traces = write_traces(
        tmp_path / "traces.jsonl",
        [
            trace("O1", "X", [("A", 1.0), ("X", 3.0)]),
            trace("O1", "Y", [(None, None), ("Y", 4.0)]),
        ],
    )
    out = tmp_path / "outcomes.jsonl"
    assert main(["pairs", "--traces", traces, "--mode", "host",
                 "-o", str(out)]) == 1
    assert "no pair obtained a valid estimate" in capsys.readouterr().err
    assert out.exists()


def test_pairs_counts_an_rtt_bound_that_overflows(tmp_path, capsys):
    # it used to exit 2 with "rtt bound inf is negative or not finite"
    traces = write_traces(tmp_path / "traces.jsonl", [
        trace("O1", "X", [("T", 0.0), ("X", 1e308)]),
        trace("O1", "Y", [("T", 0.0), ("Y", 1.7e308)]),
    ])
    out = tmp_path / "outcomes.jsonl"
    assert main(["pairs", "--traces", traces, "--mode", "host", "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert "reject MissingRttAtTransit: 1 (100.0%)" in captured.out
    assert captured.err == "error: no pair obtained a valid estimate\n"
    (record,) = [json.loads(line) for line in out.read_text().splitlines()]
    assert record["per_origin"]["O1"]["reject"] == "MissingRttAtTransit"


@pytest.mark.parametrize("command", ["dist", "handover"])
def test_rtt_bounds_too_large_for_a_std_are_fatal(tmp_path, capsys, command):
    # they used to end in an OverflowError traceback, exit 1
    traces = write_traces(tmp_path / "traces.jsonl", [
        trace("O1", dest, [("T", 0.0), (dest, rtt)])
        for dest, rtt in (("X", 1e200), ("Y", 1e200), ("Z", 3e200))
    ])
    outcomes = tmp_path / "outcomes.jsonl"
    assert main(["--quiet", "pairs", "--traces", traces, "--mode", "host",
                 "-o", str(outcomes)]) == 0
    out = tmp_path / "result"
    assert main([command, "--outcomes", str(outcomes), "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: rtt_ms values overflow the mean or std\n"
    assert not list(tmp_path.glob("result*"))


def test_pairs_missing_input_is_fatal(tmp_path, capsys):
    out = tmp_path / "outcomes.jsonl"
    assert main(["pairs", "--traces", str(tmp_path / "nope.jsonl"),
                 "-o", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["pairs", "--traces", "empty.jsonl"], "no traces in input"),
    (["handover"], "need --outcomes or --dist-tsv for the RTT distribution"),
    (["ingest", "raw.txt", "--origin", ""], "origin_id must be non-empty"),
])
def test_command_without_input_is_fatal(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    Path("empty.jsonl").write_text("")
    Path("raw.txt").write_text(TRACEROUTE_TEXT)
    assert main([*argv, "-o", "out"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not Path("out").exists()


@pytest.mark.parametrize("command", ["ingest", "pairs"])
@pytest.mark.parametrize("good, bad", [
    ('[1,"T",1.0]', '[true,"T",1.0]'),
    ('[1,"T",1.0]', '[1.0,"T",1.0]'),
    ('[2,"Y",4.0]', '[2,"Y",true]'),
    ('[1,"T",1.0]', '[1,["x"],1.0]'),
    ('"reached":true', '"reached":"yes"'),
    ('"destination":"Y"', '"destination":""'),
    ('"hops":[[1,"T",1.0],[2,"Y",4.0]]', '"hops":[]'),
], ids=["bool-ttl", "float-ttl", "bool-rtt", "list-address", "string-reached",
        "empty-destination", "reached-without-hops"])
def test_wrong_typed_canonical_field_is_fatal(tmp_path, capsys, command, good, bad):
    # these were written back by ingest, turned into a 1.0 ms bound by pairs
    # (a true RTT) or crashed pairs with a traceback (a list address)
    path = Path(origin_traces(tmp_path))
    first, second = path.read_text().splitlines()
    assert second.count(good) == 1
    path.write_text(f"{first}\n{second.replace(good, bad)}\n")
    out = tmp_path / "out.jsonl"
    argv = (["ingest", "--format", "canonical", str(path)] if command == "ingest" else
            ["pairs", "--mode", "host", "--traces", str(path)])
    assert main([*argv, "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: bad trace at line 2: ")
    assert not out.exists()


@pytest.mark.parametrize("eps", ["nan", "-5", "inf"])
@pytest.mark.parametrize("command", ["pairs", "simulate"])
def test_bad_eps_rtt_is_fatal(tmp_path, capsys, command, eps):
    # NaN turned the cumulative-RTT check off and -5 rejected every pair
    out = tmp_path / "out"
    if command == "pairs":
        argv = ["pairs", "--traces", origin_traces(tmp_path)]
    else:
        argv = ["simulate", "--model", "two_tier", "--params", "regions=4,leaves=5",
                "--origins", "4", "--pairs", "150", "--inject", "asymmetry=0.2,delta=40"]
    assert main(["--seed", "1", *argv, f"--eps-rtt={eps}", "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: eps_rtt must be finite and >= 0, got {float(eps)}\n")
    assert not out.exists()


def test_pairs_max_pairs_is_seeded(tmp_path, capsys):
    traces = write_traces(
        tmp_path / "traces.jsonl",
        [
            trace("O1", d, [("T", 1.0), (d, 3.0)])
            for d in ("D1", "D2", "D3", "D4", "D5")
        ],
    )
    outs = []
    for name in ("a.jsonl", "b.jsonl"):
        out = tmp_path / name
        assert main(["--seed", "3", "--quiet", "pairs", "--traces", traces,
                     "--mode", "host", "--max-pairs", "4", "-o", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert len(outs[0].splitlines()) == 4


@pytest.mark.parametrize("argv, flag, value", [
    (["pairs", "--max-pairs", "0"], "max-pairs", 0),
    (["pairs", "--max-pairs", "-1"], "max-pairs", -1),
    (["simulate", "--origins", "0"], "origins", 0),
    (["simulate", "--origins", "-2"], "origins", -2),
    (["simulate", "--pairs", "0"], "pairs", 0),
    (["simulate", "--pairs", "-1"], "pairs", -1),
])
def test_count_below_one_is_fatal(tmp_path, capsys, argv, flag, value):
    # each used to fail on an internal message naming neither flag nor value,
    # or, for --max-pairs 0, to write an empty outcome file
    if argv[0] == "pairs":
        argv += ["--mode", "host", "--traces", origin_traces(tmp_path)]
    else:
        argv += ["--model", "two_tier", "--params", "regions=3,leaves=3"]
    out = tmp_path / "out"
    assert main([*argv, "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --{flag} must be an integer >= 1, got {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("text, pairs", [
    ("a,x\ny,z\n", [["a", "x"], ["y", "z"]]),
    ("# endpoints\n\nA,B\na,x\n", [["a", "x"]]),
    ("a,x\na,b\n", [["a", "x"], ["a", "b"]]),
    # a byte-order mark used to make the header the pair ('\ufeffa', 'b'),
    # and a comment line a fatal "expected two columns"
    ("\ufeffa,b\na,x\n", [["a", "x"]]),
    ("\ufeff# endpoints\na,x\n", [["a", "x"]]),
])
def test_pairs_file_header_is_only_a_first_line_a_b(tmp_path, text, pairs):
    # every line whose first field was a used to be dropped as a header
    traces = write_traces(tmp_path / "traces.jsonl",
                          [trace("O1", d, [("T", 1.0), (d, 3.0)]) for d in "axyz"])
    listed = tmp_path / "pairs.csv"
    listed.write_text(text, encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert main(["--quiet", "pairs", "--traces", traces, "--mode", "host",
                 "--pairs-file", str(listed), "-o", str(out)]) == 0
    assert [json.loads(line)["pair"] for line in out.read_text().splitlines()] == pairs


def test_a_reversed_listed_pair_is_written_canonical(tmp_path):
    # the batch keeps the tuple of a pair listed in order and builds one for
    # a pair listed reversed; either way the file is the same
    traces = write_traces(tmp_path / "traces.jsonl", [
        trace(origin, d, [("T", 1.0), (d, 3.0)]) for origin in ("O1", "O2") for d in "axyz"])
    listed, out = tmp_path / "pairs.csv", tmp_path / "out.jsonl"
    written = []
    for text in ("a,x\ny,z\n", "x,a\nz,y\n", "a,x\nz,y\n"):
        listed.write_text(text)
        assert main(["--quiet", "pairs", "--traces", traces, "--mode", "host",
                     "--pairs-file", str(listed), "-o", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[1] == written[0] and written[2] == written[0]
    assert [json.loads(line)["pair"] for line in written[0].splitlines()] == [
        ["a", "x"], ["y", "z"]]


@pytest.mark.parametrize("text, line, problem", [
    # an equal pair was a distance-0 sample, an empty name a silent reject
    ("a,x\nx,x\n", 2, "both endpoints are 'x'"),
    ("a,x\na,x,y\n", 2, "expected two columns"),
    ("a,\n", 1, "empty endpoint name"),
    (" ,x\n", 1, "empty endpoint name"),
    # a repeated pair would count twice in the distributions
    ("a,x\na,x\n", 2, "pair a,x is listed twice"),
    ("A,B\na,x\n\n# reversed\ny,z\nx,a\n", 6, "pair x,a is listed twice"),
])
def test_pairs_file_bad_row_is_fatal(tmp_path, capsys, text, line, problem):
    traces = write_traces(tmp_path / "traces.jsonl",
                          [trace("O1", d, [("T", 1.0), (d, 3.0)]) for d in "axyz"])
    listed = tmp_path / "pairs.csv"
    listed.write_text(text)
    out = tmp_path / "out.jsonl"
    assert main(["--quiet", "pairs", "--traces", traces, "--mode", "host",
                 "--pairs-file", str(listed), "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {listed}: line {line}: {problem}\n"
    assert not out.exists()


def test_dist_writes_both_metrics(tmp_path, capsys):
    traces = origin_traces(tmp_path)
    outcomes = tmp_path / "outcomes.jsonl"
    main(["--quiet", "pairs", "--traces", traces, "--mode", "host",
          "-o", str(outcomes)])
    prefix = tmp_path / "dist"
    assert main(["dist", "--outcomes", str(outcomes), "-o", str(prefix)]) == 0
    hops = (tmp_path / "dist.hops.tsv").read_text()
    rtt = (tmp_path / "dist.rtt.tsv").read_text()
    assert hops.startswith("# metric=hop_count bin_width=1 n=1")
    assert rtt.startswith("# metric=rtt_ms bin_width=5 n=1")
    out = capsys.readouterr().out
    assert "hop_count: n=1 mean=2.0000" in out


def test_dist_bytes_do_not_depend_on_pair_order(tmp_path, capsys):
    # the same accepted pairs, listed forward and reversed, give the same
    # tables and the same report, stability line included
    rng = random.Random(11)
    outcomes = [
        transit.min_over_origins((f"a{i}", f"b{i}"), ("O1",), (PairEstimate(
            "O1", "t", 1, 1, False, rng.randint(2, 12), rng.uniform(1, 90)),))
        for i in range(300)
    ]
    written = []
    for name, listed in (("forward", outcomes), ("reversed", outcomes[::-1])):
        transit.write_outcomes(listed, tmp_path / f"{name}.jsonl")
        prefix = tmp_path / name
        assert main(["dist", "--outcomes", str(tmp_path / f"{name}.jsonl"),
                     "--stability", "50:4", "-o", str(prefix)]) == 0
        written.append([
            capsys.readouterr().out.replace(str(prefix), "PREFIX"),
            (tmp_path / f"{name}.hops.tsv").read_bytes(),
            (tmp_path / f"{name}.rtt.tsv").read_bytes(),
        ])
    assert written[0] == written[1]


def test_dist_baseline_reads_each_file_once(tmp_path, capsys, monkeypatch):
    traces = origin_traces(tmp_path)
    outcomes = tmp_path / "outcomes.jsonl"
    main(["--quiet", "pairs", "--traces", traces, "--mode", "host",
          "-o", str(outcomes)])
    baseline = tmp_path / "baseline.jsonl"
    baseline.write_bytes(outcomes.read_bytes())
    reads = []
    read_outcomes = transit.read_outcomes
    monkeypatch.setattr(transit, "read_outcomes",
                        lambda path: reads.append(str(path)) or read_outcomes(path))
    assert main(["dist", "--outcomes", str(outcomes), "--baseline", str(baseline),
                 "-o", str(tmp_path / "dist")]) == 0
    assert sorted(reads) == sorted([str(outcomes), str(baseline)])
    out = capsys.readouterr().out
    assert "hop_count vs baseline: mean_shift=0.0000 ks=0.0000" in out
    assert "rtt_ms vs baseline: mean_shift=0.0000 ks=0.0000" in out


def test_dist_bad_outcomes_leaves_no_output(tmp_path, capsys):
    bad = tmp_path / "outcomes.jsonl"
    bad.write_text("not json\n")
    prefix = tmp_path / "dist"
    assert main(["dist", "--outcomes", str(bad), "-o", str(prefix)]) == 2
    assert not list(tmp_path.glob("dist.*"))
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    {"per_origin": []},
    {"best_hop": {"reject": "NoTransit"}},
    {"best_rtt": {"reject": "NoTransit"}},
])
def test_dist_malformed_outcome_record_is_fatal(tmp_path, capsys, edit):
    traces = origin_traces(tmp_path)
    outcomes = tmp_path / "outcomes.jsonl"
    main(["--quiet", "pairs", "--traces", traces, "--mode", "host",
          "-o", str(outcomes)])
    record = json.loads(outcomes.read_text())
    outcomes.write_text(json.dumps({**record, **edit}) + "\n")
    prefix = tmp_path / "dist"
    assert main(["dist", "--outcomes", str(outcomes), "-o", str(prefix)]) == 2
    assert not list(tmp_path.glob("dist.*"))
    assert "bad outcome at line 1" in capsys.readouterr().err


@pytest.mark.parametrize("fields, message", [
    ({"transit": ["T", True, 1.0], "origin_fallback": 0}, "is_origin_fallback 0 is not a bool"),
    ({"transit": ["T", True, 1.0]}, "index_a True is not an int"),
    ({"transit": [5, 1, 1]}, "address 5 is not a string"),
])
def test_dist_mistyped_transit_is_fatal(tmp_path, capsys, fields, message):
    # such an entry used to be read, and written back as ["T",1,1] and false
    traces = origin_traces(tmp_path)
    outcomes = tmp_path / "outcomes.jsonl"
    main(["--quiet", "pairs", "--traces", traces, "--mode", "host", "-o", str(outcomes)])
    record = json.loads(outcomes.read_text())
    record["per_origin"]["O1"].update(fields)
    outcomes.write_text(json.dumps(record) + "\n")
    prefix = tmp_path / "dist"
    assert main(["dist", "--outcomes", str(outcomes), "-o", str(prefix)]) == 2
    assert not list(tmp_path.glob("dist.*"))
    assert f"bad outcome at line 1: {message}" in capsys.readouterr().err


def test_dist_nothing_accepted_is_partial(tmp_path, capsys):
    traces = write_traces(
        tmp_path / "traces.jsonl",
        [
            trace("O1", "X", [("A", 1.0), ("X", 3.0)]),
            trace("O1", "Y", [(None, None), ("Y", 4.0)]),
        ],
    )
    outcomes = tmp_path / "outcomes.jsonl"
    assert main(["--quiet", "pairs", "--traces", traces, "--mode", "host",
                 "-o", str(outcomes)]) == 1
    prefix = tmp_path / "dist"
    assert main(["dist", "--outcomes", str(outcomes), "-o", str(prefix)]) == 1
    assert not list(tmp_path.glob("dist*"))
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["dist", "--outcomes", "{none}"],
    ["dist", "--outcomes", "{some}", "--baseline", "{none}"],
    ["handover", "--outcomes", "{none}"],
    ["handover", "--outcomes", "{none}", "--persistence", "{table}"],
], ids=["dist", "dist-baseline", "handover", "handover-persistence"])
def test_nothing_accepted_is_partial_and_writes_nothing(tmp_path, capsys, argv):
    # the baseline and handover cases used to fail on "empty distribution", exit 2
    some, none = tmp_path / "some.jsonl", tmp_path / "none.jsonl"
    main(["--quiet", "pairs", "--traces", origin_traces(tmp_path), "--mode", "host",
          "-o", str(some)])
    unreached = write_traces(tmp_path / "unreached.jsonl", [
        trace("O1", "X", [("A", 1.0), ("X", 3.0)]),
        trace("O1", "Y", [("A", 1.0)], reached=False),
    ])
    main(["--quiet", "pairs", "--traces", unreached, "--mode", "host", "-o", str(none)])
    table = tmp_path / "persist.csv"
    table.write_text("hop,persist_ratio\n2,0.75\n")
    out = tmp_path / "out"
    files = {"some": some, "none": none, "table": table}
    capsys.readouterr()
    assert main([arg.format(**files) for arg in argv] + ["-o", str(out)]) == 1
    assert capsys.readouterr().err == "error: no pair has an accepted estimate\n"
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("spec, trials", [("1", 2), ("1:3", 3)])
def test_dist_stability_prints_the_trials_it_runs(tmp_path, capsys, spec, trials):
    traces = origin_traces(tmp_path)
    outcomes = tmp_path / "outcomes.jsonl"
    main(["--quiet", "pairs", "--traces", traces, "--mode", "host", "-o", str(outcomes)])
    assert main(["dist", "--outcomes", str(outcomes), "--stability", spec,
                 "-o", str(tmp_path / "dist")]) == 0
    out = capsys.readouterr().out
    assert f"hop_count stability (1 x {trials}): " in out
    assert f"rtt_ms stability (1 x {trials}): " in out


@pytest.mark.parametrize("spec", ["500:x", "x", "0:5", "-1:5", "2:1", "2:0", "2:", ":5",
                                  "2:3:4", "2.5:3", "2:3.0", ""])
def test_dist_bad_stability_is_fatal(tmp_path, capsys, spec):
    traces = origin_traces(tmp_path)
    outcomes = tmp_path / "outcomes.jsonl"
    main(["--quiet", "pairs", "--traces", traces, "--mode", "host", "-o", str(outcomes)])
    assert main(["dist", "--outcomes", str(outcomes), f"--stability={spec}",
                 "-o", str(tmp_path / "dist")]) == 2
    assert capsys.readouterr().err == (
        "error: --stability must be SUBSET[:TRIALS] with integers SUBSET >= 1 "
        f"and TRIALS >= 2, got {spec!r}\n")
    assert not list(tmp_path.glob("dist*"))


@pytest.mark.parametrize("width", ["0", "-5", "nan", "inf"])
@pytest.mark.parametrize("command", ["dist", "handover"])
def test_bad_rtt_bin_width_is_fatal(tmp_path, capsys, command, width):
    # dist wrote its hop file before it failed on 0, -5 and nan; inf binned
    # every sample at a nan lower edge.  handover has no such flag: its curve
    # runs over the raw samples, so a width could not change it.
    traces = origin_traces(tmp_path)
    outcomes = tmp_path / "outcomes.jsonl"
    main(["--quiet", "pairs", "--traces", traces, "--mode", "host",
          "-o", str(outcomes)])
    argv = [command, "--outcomes", str(outcomes), f"--rtt-bin-width={width}",
            "-o", str(tmp_path / "result")]
    if command == "dist":
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: bin_width must be finite and > 0, got {float(width)}\n")
    else:
        with pytest.raises(SystemExit) as refused:
            main(argv)
        assert refused.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"\nedgedist: error: unrecognized arguments: --rtt-bin-width={width}\n")
    assert not list(tmp_path.glob("result*"))


def test_rtt_bin_width_too_small_for_the_values_is_fatal(tmp_path, capsys):
    # 5.0 / 1e-320 is inf, whose floor escaped as an OverflowError traceback
    # with exit 1, the code the README gives partial success
    traces = origin_traces(tmp_path)
    outcomes = tmp_path / "outcomes.jsonl"
    main(["--quiet", "pairs", "--traces", traces, "--mode", "host",
          "-o", str(outcomes)])
    assert main(["dist", "--outcomes", str(outcomes), "--rtt-bin-width=1e-320",
                 "-o", str(tmp_path / "result")]) == 2
    assert capsys.readouterr().err == (
        "error: bin_width 1e-320 is too small for rtt_ms value 5.0\n")
    assert not list(tmp_path.glob("result*"))


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
def test_outputs_follow_the_umask(tmp_path, umask, mode):
    raw = tmp_path / "raw.txt"
    raw.write_text(TRACEROUTE_TEXT)
    traces = origin_traces(tmp_path)
    outcomes = tmp_path / "outcomes.jsonl"
    sim = tmp_path / "sim"
    old = os.umask(umask)
    try:
        for argv in (
            ["ingest", str(raw), "-o", str(tmp_path / "ingested.jsonl")],
            ["pairs", "--traces", traces, "--mode", "host", "-o", str(outcomes)],
            ["dist", "--outcomes", str(outcomes), "-o", str(tmp_path / "dist")],
            ["handover", "--outcomes", str(outcomes), "-o", str(tmp_path / "curve.tsv")],
            ["simulate", "--model", "two_tier", "--params", "regions=3,leaves=3",
             "--origins", "2", "--pairs", "5", "-o", str(sim)],
        ):
            assert main(["--quiet", *argv]) == 0, argv
    finally:
        os.umask(old)
    outputs = [tmp_path / name for name in ("ingested.jsonl", "outcomes.jsonl",
                                            "dist.hops.tsv", "dist.rtt.tsv", "curve.tsv")]
    # the topology, two trace files, pairs.csv and report.tsv
    outputs += sorted(sim.iterdir())
    assert len(outputs) == 10
    for path in outputs:
        assert stat.S_IMODE(path.stat().st_mode) == mode, path


def test_handover_curve_and_argmin(tmp_path, capsys):
    traces = origin_traces(tmp_path)
    outcomes = tmp_path / "outcomes.jsonl"
    main(["--quiet", "pairs", "--traces", traces, "--mode", "host",
          "-o", str(outcomes)])
    curve = tmp_path / "curve.tsv"
    assert main(["handover", "--outcomes", str(outcomes), "--grid", "0:10:1",
                 "-o", str(curve)]) == 0
    lines = curve.read_text().splitlines()
    assert lines[0] == "anticipation_ms\texpected_loss_ms\texpected_packets"
    assert len(lines) == 12
    # single RTT sample of 5 ms -> one-way 2.5 ms; the optimum sits at the
    # first grid point at or above it
    assert "argmin: anticipation=3 ms" in capsys.readouterr().out
    # a one-point curve has no spread
    assert main(["handover", "--outcomes", str(outcomes), "--grid", "0:0:1",
                 "-o", str(curve)]) == 0
    assert capsys.readouterr().out == \
        "argmin: flat curve, no significant anticipation optimum\n"


def test_handover_persistence(tmp_path, capsys):
    traces = origin_traces(tmp_path)
    outcomes = tmp_path / "outcomes.jsonl"
    main(["--quiet", "pairs", "--traces", traces, "--mode", "host",
          "-o", str(outcomes)])
    table = tmp_path / "persist.csv"
    table.write_text("hop,persist_ratio\n2,0.75\n")
    curve = tmp_path / "curve.tsv"
    assert main(["handover", "--outcomes", str(outcomes),
                 "--persistence", str(table), "-o", str(curve)]) == 0
    assert "persistence: 0.7500" in capsys.readouterr().out
    # the same from the distribution files dist writes
    prefix = tmp_path / "dist"
    main(["--quiet", "dist", "--outcomes", str(outcomes), "-o", str(prefix)])
    assert main(["handover", "--dist-tsv", f"{prefix}.rtt.tsv", "--hops-tsv",
                 f"{prefix}.hops.tsv", "--persistence", str(table), "-o", str(curve)]) == 0
    assert "persistence: 0.7500" in capsys.readouterr().out


def test_persistence_byte_order_mark_is_no_data(tmp_path, capsys):
    # the mark used to make the header lack 'hop', a fatal error
    traces = origin_traces(tmp_path)
    outcomes = tmp_path / "outcomes.jsonl"
    main(["--quiet", "pairs", "--traces", traces, "--mode", "host", "-o", str(outcomes)])
    table = tmp_path / "persist.csv"
    table.write_text("\ufeffhop,persist_ratio\n2,0.75\n", encoding="utf-8")
    assert main(["handover", "--outcomes", str(outcomes), "--persistence", str(table),
                 "-o", str(tmp_path / "curve.tsv")]) == 0
    assert "persistence: 0.7500" in capsys.readouterr().out


BYTE_ORDER_MARK_ARGV = {
    "ingest-canonical": ["ingest", "--format", "canonical", "{traces}"],
    "pairs": ["pairs", "--mode", "host", "--traces", "{traces}", "--pairs-file", "{pairs}"],
    "dist": ["dist", "--outcomes", "{outcomes}", "--baseline", "{outcomes}"],
    "handover-outcomes": ["handover", "--outcomes", "{outcomes}", "--persistence", "{persist}"],
    "handover-tsv": ["handover", "--dist-tsv", "{rtt}", "--hops-tsv", "{hops}",
                     "--persistence", "{persist}", "--loss-table", "{loss}", "--grid", "0:10:5"],
}


@pytest.mark.parametrize("argv", BYTE_ORDER_MARK_ARGV.values(), ids=BYTE_ORDER_MARK_ARGV)
def test_every_input_file_byte_order_mark_is_no_data(tmp_path, argv):
    # a marked canonical trace or outcome file used to be fatal ("Unexpected
    # UTF-8 BOM"), and a marked distribution TSV "bad row at line 1"
    traces = origin_traces(tmp_path)
    outcomes = tmp_path / "outcomes.jsonl"
    main(["--quiet", "pairs", "--traces", traces, "--mode", "host", "-o", str(outcomes)])
    main(["--quiet", "dist", "--outcomes", str(outcomes), "-o", str(tmp_path / "dist")])
    texts = {"traces": Path(traces).read_text(), "pairs": "a,b\nX,Y\n",
             "outcomes": outcomes.read_text(),
             "rtt": (tmp_path / "dist.rtt.tsv").read_text(),
             "hops": (tmp_path / "dist.hops.tsv").read_text(),
             "persist": "hop,persist_ratio\n2,0.75\n", "loss": ",0,10\n0,1,2\n10,3,4\n"}
    outputs = []
    for mark in ("", "\ufeff"):
        folder = tmp_path / ("marked" if mark else "plain")
        folder.mkdir()
        paths = {name: folder / name for name in texts}
        for name, text in texts.items():
            paths[name].write_text(mark + text, encoding="utf-8")
        argv_here = [arg.format(**paths) for arg in argv]
        assert main(["--quiet", *argv_here, "-o", str(folder / "result")]) == 0
        outputs.append({p.name: p.read_bytes() for p in folder.glob("result*")})
    assert outputs[0] and outputs[1] == outputs[0]


@pytest.mark.parametrize("inputs, message", [
    (["--outcomes", "{outcomes}", "--dist-tsv", "{missing}"],
     "give --outcomes or --dist-tsv, not both"),
    (["--outcomes", "{outcomes}", "--dist-tsv", "{rtt}", "--persistence", "{persist}"],
     "give --outcomes or --dist-tsv, not both"),
    (["--outcomes", "{outcomes}", "--hops-tsv", "{missing}"],
     "--hops-tsv is read only with --persistence"),
    (["--dist-tsv", "{rtt}", "--hops-tsv", "{hops}"], "--hops-tsv is read only with --persistence"),
    (["--outcomes", "{outcomes}", "--hops-tsv", "{hops}", "--persistence", "{persist}"], None),
], ids=["outcomes-and-dist-tsv", "outcomes-and-dist-tsv-with-persistence",
        "hops-tsv-without-persistence", "dist-tsv-hops-tsv-without-persistence",
        "outcomes-hops-tsv-persistence"])
def test_handover_refuses_an_input_it_would_ignore(tmp_path, capsys, inputs, message):
    # the ignored file used to go unread, even when it did not exist, exit 0
    traces = origin_traces(tmp_path)
    outcomes = tmp_path / "outcomes.jsonl"
    main(["--quiet", "pairs", "--traces", traces, "--mode", "host", "-o", str(outcomes)])
    main(["--quiet", "dist", "--outcomes", str(outcomes), "-o", str(tmp_path / "dist")])
    persist = tmp_path / "persist.csv"
    persist.write_text("hop,persist_ratio\n2,0.75\n")
    paths = {"outcomes": outcomes, "rtt": tmp_path / "dist.rtt.tsv",
             "hops": tmp_path / "dist.hops.tsv", "persist": persist,
             "missing": tmp_path / "missing.tsv"}
    curve = tmp_path / "curve.tsv"
    argv = ["--quiet", "handover", *(arg.format(**paths) for arg in inputs), "-o", str(curve)]
    if message is None:  # the hop TSV and the outcomes' RTTs: both are read
        assert main(argv) == 0 and curve.exists()
        return
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not curve.exists()


def test_handover_bad_persistence_row_is_fatal(tmp_path, capsys):
    traces = origin_traces(tmp_path)
    outcomes = tmp_path / "outcomes.jsonl"
    main(["--quiet", "pairs", "--traces", traces, "--mode", "host",
          "-o", str(outcomes)])
    table = tmp_path / "persist.csv"
    curve = tmp_path / "curve.tsv"
    # a ratio outside [0, 1] was an error naming neither the file nor the line
    for rows, cause in (("2\n", "NoneType"), ("2,most\n", "'most'"),
                        *((f"2,{ratio}\n", f"persist ratio {ratio} at hop 2 outside [0, 1]")
                          for ratio in ("1.5", "-0.25", "nan", "inf")),
                        # a repeated hop kept its last ratio, a negative hop loaded
                        ("1,0.5\n", "hop 1 is listed twice"), ("-1,0.5\n", "negative hop -1"),
                        # numbers are ASCII decimal text: hop \u0663 read as 3, 1_0
                        # as 10 and ratio 0.2_5 as 0.25
                        ("\u0663,0.5\n", "'\u0663'"), ("1_0,0.5\n", "'1_0'"),
                        ("2,0.2_5\n", "'0.2_5'")):
        table.write_text("hop,persist_ratio\n1,1.0\n" + rows, encoding="utf-8")
        assert main(["handover", "--outcomes", str(outcomes),
                     "--persistence", str(table), "-o", str(curve)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {table}: bad row at line 3: ")
        assert cause in err
        assert not curve.exists()
    table.write_text("hops,ratio\n2,0.75\n")
    assert main(["handover", "--outcomes", str(outcomes),
                 "--persistence", str(table), "-o", str(curve)]) == 2
    assert capsys.readouterr().err == \
        f"error: {table}: header must contain ['hop', 'persist_ratio']\n"
    assert not curve.exists()


def test_handover_bad_loss_table_cell_is_fatal(tmp_path, capsys):
    traces = origin_traces(tmp_path)
    outcomes = tmp_path / "outcomes.jsonl"
    main(["--quiet", "pairs", "--traces", traces, "--mode", "host",
          "-o", str(outcomes)])
    table = tmp_path / "loss.csv"
    curve = tmp_path / "curve.tsv"
    # numbers are ASCII decimal text: 1_00 read as 100.0, \u0663\u0660 as 30.0
    for cell in ("thirty", "1_00", "\u0663\u0660"):
        table.write_text(f",0,10\n\n10,10,4\n30,{cell},22\n", encoding="utf-8")
        assert main(["handover", "--outcomes", str(outcomes),
                     "--loss-table", str(table), "-o", str(curve)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {table}: bad row at line 4: ")
        assert repr(cell) in err
        assert not curve.exists()


@pytest.mark.parametrize("flag, message", [
    ("--beta=nan", "beta must be finite and >= 0, got nan"),
    ("--beta=-1", "beta must be finite and >= 0, got -1.0"),
    ("--beta=inf", "beta must be finite and >= 0, got inf"),
    # beta * a overflows from the 20 ms grid point on
    ("--beta=1e307", "expected loss at anticipation 20 ms overflows "
                     "(beta=1e+307, delay_scale=0.5)"),
    ("--delay-scale=nan", "delay_scale must be finite and > 0, got nan"),
    ("--delay-scale=inf", "delay_scale must be finite and > 0, got inf"),
    ("--delay-scale=0", "delay_scale must be finite and > 0, got 0.0"),
    ("--flat-threshold=nan", "flat_threshold must be finite and >= 0, got nan"),
    ("--flat-threshold=-1", "flat_threshold must be finite and >= 0, got -1.0"),
    ("--flat-threshold=inf", "flat_threshold must be finite and >= 0, got inf"),
])
def test_handover_bad_model_parameter_is_fatal(tmp_path, capsys, flag, message):
    # each of these wrote a nan, zero, inf or negative curve and exited 0
    traces = origin_traces(tmp_path)
    outcomes = tmp_path / "outcomes.jsonl"
    main(["--quiet", "pairs", "--traces", traces, "--mode", "host",
          "-o", str(outcomes)])
    curve = tmp_path / "curve.tsv"
    assert main(["handover", "--outcomes", str(outcomes), flag, "-o", str(curve)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not curve.exists()


@pytest.mark.parametrize("table, message", [
    (",0,nan\n0,0,1\n10,10,4\n", "table axes must be finite"),
    (",0,10\n0,0,1\ninf,10,4\n", "table axes must be finite"),
    (",0,10\n0,0,nan\n10,10,4\n", "loss values must be finite and >= 0"),
    (",0,10\n0,0,1\n10,inf,4\n", "loss values must be finite and >= 0"),
    (",0,10\n0,0\n10,10,4\n", "table shape does not match its axes"),
    (",0,10\n", "{path}: table needs a header row and data rows"),
])
def test_handover_non_finite_loss_table_is_fatal(tmp_path, capsys, table, message):
    # each gave nan or inf curve rows and exit 0
    traces = origin_traces(tmp_path)
    outcomes = tmp_path / "outcomes.jsonl"
    main(["--quiet", "pairs", "--traces", traces, "--mode", "host",
          "-o", str(outcomes)])
    path = tmp_path / "loss.csv"
    path.write_text(table)
    curve = tmp_path / "curve.tsv"
    assert main(["handover", "--outcomes", str(outcomes), "--loss-table", str(path),
                 "--grid", "0:10:5", "-o", str(curve)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message.format(path=path)}")
    assert not curve.exists()


def test_handover_from_dist_tsv(tmp_path, capsys):
    traces = origin_traces(tmp_path)
    outcomes = tmp_path / "outcomes.jsonl"
    main(["--quiet", "pairs", "--traces", traces, "--mode", "host",
          "-o", str(outcomes)])
    prefix = tmp_path / "dist"
    main(["--quiet", "dist", "--outcomes", str(outcomes), "-o", str(prefix)])
    curve = tmp_path / "curve.tsv"
    assert main(["handover", "--dist-tsv", str(tmp_path / "dist.rtt.tsv"),
                 "-o", str(curve)]) == 0
    assert curve.exists()


@pytest.mark.parametrize("source, row, message", [
    ("--dist-tsv", "2,0.75", "persistence needs --hops-tsv or --outcomes"),
    ("--outcomes", "3,0.75", "persistence table misses hop distances [2]"),
])
def test_handover_persistence_error_leaves_no_curve(tmp_path, capsys, source, row, message):
    traces = origin_traces(tmp_path)
    outcomes = tmp_path / "outcomes.jsonl"
    main(["--quiet", "pairs", "--traces", traces, "--mode", "host",
          "-o", str(outcomes)])
    prefix = tmp_path / "dist"
    main(["--quiet", "dist", "--outcomes", str(outcomes), "-o", str(prefix)])
    inputs = {"--dist-tsv": tmp_path / "dist.rtt.tsv", "--outcomes": outcomes}
    table = tmp_path / "persist.csv"
    table.write_text(f"hop,persist_ratio\n{row}\n")
    curve = tmp_path / "curve.tsv"
    assert main(["handover", source, str(inputs[source]),
                 "--persistence", str(table), "-o", str(curve)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not curve.exists()


@pytest.mark.parametrize("header, row, message", [
    ("# metric=foo bin_width=1", "0\t1\t1.0", r": unknown metric 'foo'"),
    ("# bin_width=5", "5\t1\t1.0", r": missing metric header$"),
    ("# metric=rtt_ms bin_width=5", "5\t1", r": bad row at line 3: "),
    ("# metric=rtt_ms bin_width=5", "5\tone\t1.0", r": bad row at line 3: .*'one'"),
    ("# metric=rtt_ms bin_width=5", "5\t-3\t1.0", r": bad row at line 3: negative count -3"),
    ("# metric=rtt_ms bin_width=wide", "5\t1\t1.0", r": bad header: .*'wide'"),
    ("# metric=rtt_ms excluded=x", "5\t1\t1.0", r": bad header: .*'x'"),
    # values that parse but are out of range
    ("# metric=rtt_ms bin_width=0", "5\t1\t1.0",
     r": bad header: bin_width must be finite and > 0, got 0.0$"),
    ("# metric=rtt_ms bin_width=nan", "5\t1\t1.0",
     r": bad header: bin_width must be finite and > 0, got nan$"),
    ("# metric=rtt_ms excluded=-3", "5\t1\t1.0", r": bad header: excluded must be >= 0, got -3$"),
    # an infinite edge escaped as an OverflowError traceback with exit 1, a
    # NaN one named neither the file nor the line, and so did no sample
    ("# metric=rtt_ms bin_width=5", "inf\t2\t1.0", r": bad row at line 3: lower_edge inf is not finite$"),
    ("# metric=rtt_ms bin_width=5", "5\t1\t0.5\n-inf\t1\t0.5",
     r": bad row at line 4: lower_edge -inf is not finite$"),
    ("# metric=rtt_ms bin_width=5", "nan\t3\t1.0", r": bad row at line 3: lower_edge nan is not finite$"),
    ("# metric=rtt_ms bin_width=5", "5\t0\t0.0\n10\t0\t0.0", r": empty distribution$"),
    ("# metric=hop_count bin_width=1", "", r": empty distribution$"),
    # a width too small for the values escaped as an OverflowError traceback
    ("# metric=rtt_ms bin_width=1e-320", "5\t1\t1.0",
     r": bin_width 1e-320 is too small for rtt_ms value 5\.0$"),
    # counts that contradict the header's n were trusted: 10**15 samples
    # were an uncaught MemoryError
    ("# metric=rtt_ms bin_width=5 n=1", "0\t1000000000000000\t1.0",
     r": bad row at line 3: the counts reach 1000000000000000, past the header's n=1$"),
    ("# metric=rtt_ms bin_width=5 n=3", "5\t1\t0.5\n10\t1\t0.5",
     r": the counts sum to 2, not the header's n=3$"),
    ("# metric=rtt_ms bin_width=5 n=two", "5\t1\t1.0", r": bad row at line 1: .*'two'"),
    ("# metric=rtt_ms bin_width=5 n=-1", "", r": bad row at line 1: header n=-1 is negative$"),
    # numbers are ASCII decimal text: 1_000 read as 1000, \u0665 as 5
    ("# metric=rtt_ms bin_width=5", "5\t1_000\t1.0", r": bad row at line 3: .*'1_000'"),
    ("# metric=rtt_ms bin_width=5", "\u0665\t1\t1.0", r": bad row at line 3: .*'\u0665'"),
    ("# metric=rtt_ms bin_width=1_0", "5\t1\t1.0", r": bad header: .*'1_0'"),
    ("# metric=rtt_ms excluded=\u0660", "5\t1\t1.0", r": bad header: .*'\u0660'"),
    ("# metric=rtt_ms bin_width=5 n=1_0", "5\t10\t1.0", r": bad row at line 1: .*'1_0'"),
])
def test_handover_bad_dist_tsv_is_fatal(tmp_path, capsys, header, row, message):
    dist = tmp_path / "dist.rtt.tsv"
    dist.write_text(f"{header}\nlower_edge\tcount\tfraction\n{row}\n", encoding="utf-8")
    curve = tmp_path / "curve.tsv"
    assert main(["handover", "--dist-tsv", str(dist), "-o", str(curve)]) == 2
    assert re.match(f"error: {re.escape(str(dist))}{message}", capsys.readouterr().err)
    assert not curve.exists()


def test_handover_bad_grid_is_fatal(tmp_path, capsys):
    traces = origin_traces(tmp_path)
    outcomes = tmp_path / "outcomes.jsonl"
    main(["--quiet", "pairs", "--traces", traces, "--mode", "host",
          "-o", str(outcomes)])
    for grid, message in (("0-10-1", "grid must be start:stop:step, got '0-10-1'"),
                          ("-5:10:5", "anticipation times must be >= 0")):
        assert main(["handover", "--outcomes", str(outcomes), f"--grid={grid}",
                     "-o", str(tmp_path / "curve.tsv")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "curve.tsv").exists()


# the last grid is finite but would hold 1e15 points
@pytest.mark.parametrize("grid", ["0:inf:5", "-inf:10:1", "nan:10:1", "0:nan:1", "0:10:inf",
                                  "0:1e12:1e-3"])
def test_handover_non_finite_grid_is_fatal(tmp_path, grid):
    traces = origin_traces(tmp_path)
    outcomes = tmp_path / "outcomes.jsonl"
    main(["--quiet", "pairs", "--traces", traces, "--mode", "host",
          "-o", str(outcomes)])
    # in a child with capped memory and time: a grid without a finite stop,
    # or with too many points, would otherwise grow until memory runs out
    limit = 512 * 2**20
    done = subprocess.run(
        [sys.executable, "-m", "edgedist.cli", "handover", "--outcomes", str(outcomes),
         f"--grid={grid}", "-o", str(tmp_path / "curve.tsv")],
        env={**os.environ, "PYTHONPATH": str(Path(edgedist.__file__).parents[1])},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stderr) == (2, f"error: bad grid {grid!r}\n")
    assert not (tmp_path / "curve.tsv").exists()


def test_grid_holds_at_most_a_million_points(monkeypatch):
    assert cli.MAX_GRID_POINTS == 1_000_000
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 10)
    assert cli._parse_grid("1:10:1") == [float(i) for i in range(1, 11)]
    with pytest.raises(ValueError, match="^bad grid '1:11:1'$"):
        cli._parse_grid("1:11:1")


@pytest.mark.parametrize("argv, code", [
    (["pairs", "--mode", "host"], 0),
    (["pairs", "--pairs-file", "missing.csv"], 2),
])
@pytest.mark.parametrize("enabled", [True, False])
def test_main_runs_without_cyclic_gc_and_restores_it(tmp_path, monkeypatch, argv, code,
                                                     enabled):
    seen = []
    batch_estimate = transit.batch_estimate

    def recording(*args):
        seen.append(gc.isenabled())
        return batch_estimate(*args)

    monkeypatch.setattr(transit, "batch_estimate", recording)
    monkeypatch.chdir(tmp_path)
    traces = origin_traces(tmp_path)
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["--quiet", *argv, "--traces", traces, "-o", "out.jsonl"]) == code
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert seen == ([False] if code == 0 else [])


def test_simulate_writes_all_outputs(tmp_path, capsys):
    outdir = tmp_path / "sim"
    assert main(["--seed", "11", "simulate", "--model", "two_tier",
                 "--params", "regions=3,leaves=3", "--origins", "2",
                 "--pairs", "10", "-o", str(outdir)]) == 0
    names = sorted(p.name for p in outdir.iterdir())
    assert "topology.jsonl" in names
    assert "pairs.csv" in names
    assert "report.tsv" in names
    # every origin's traces, one per pair endpoint: the batch empties only
    # a copy of the report's mapping
    traced = [n for n in names if n.startswith("traces_")]
    assert len(traced) == 2
    endpoints = {host for line in (outdir / "pairs.csv").read_text().splitlines()
                 for host in line.split(",")}
    for name in traced:
        traces = ingest.read_canonical(outdir / name)
        assert {t.origin_id for t in traces} == {name[len("traces_"):-len(".jsonl")]}
        assert sorted(t.destination for t in traces) == sorted(endpoints)
    out = capsys.readouterr().out
    assert "success_ratio=" in out and "soundness_violations=0" in out


@pytest.mark.parametrize("model, flag, spec, message", [
    ("two_tier", "--params", "region=12,leaves=20", "two_tier has no parameter 'region'"),
    ("ring_of_stars", "--params", "cores=3,regions=2", "ring_of_stars has no parameter 'regions'"),
    ("random_geometric", "--params", "n=20,leaves=2",
     "random_geometric has no parameter 'leaves'"),
    ("two_tier", "--inject", "loop=0.5", "--inject has no fault 'loop'"),
    ("two_tier", "--inject", "loops=0.5,asymetry=0.3", "--inject has no fault 'asymetry'"),
    # NaN jitter used to run with no jitter, a negative delta to fail on a
    # hop's RTT, and a non-integer parameter on int() without its key
    ("two_tier", "--inject", "jitter=nan", "rtt_jitter_ms must be finite and >= 0, got nan"),
    ("two_tier", "--inject", "jitter=-1", "rtt_jitter_ms must be finite and >= 0, got -1.0"),
    ("two_tier", "--inject", "delta=-100,asymmetry=0.5",
     "asymmetry_delta_ms must be finite and >= 0, got -100.0"),
    ("two_tier", "--inject", "delta=inf,asymmetry=0.5",
     "asymmetry_delta_ms must be finite and >= 0, got inf"),
    ("two_tier", "--params", "regions=3,peering=true",
     "--params peering='true' is not a finite number"),
    ("ring_of_stars", "--params", "cores=nan", "--params cores='nan' is not a finite number"),
    ("two_tier", "--params", "regions=3,leaves=inf", "--params leaves='inf' is not a finite number"),
    # a fractional count used to be truncated, a non-numeric fault to fail
    # on float() without its flag or key
    ("two_tier", "--params", "regions=2.5,leaves=2",
     "two_tier parameter regions=2.5 is not a whole number"),
    ("ring_of_stars", "--params", "cores=3,leaves=1.5",
     "ring_of_stars parameter leaves=1.5 is not a whole number"),
    ("random_geometric", "--params", "n=20.5", "random_geometric parameter n=20.5 is not a whole number"),
    ("random_geometric", "--params", "n=20,retries=0.5",
     "random_geometric parameter retries=0.5 is not a whole number"),
    ("two_tier", "--inject", "jitter=abc", "--inject jitter='abc' is not a number"),
    ("two_tier", "--params", "regions", "expected key=value, got 'regions'"),
    ("two_tier", "--params", "leaves=0", "two_tier needs regions >= 1 and leaves >= 1"),
    ("two_tier", "--inject", "block=1.5", "block_probability must be in [0, 1], got 1.5"),
    # a repeated key's last value used to win without a word
    ("two_tier", "--params", "regions=3,leaves=3,regions=4", "--params key 'regions' is listed twice"),
    ("ring_of_stars", "--params", "leaves=2, leaves =2", "--params key 'leaves' is listed twice"),
    ("two_tier", "--inject", "jitter=0.5,jitter=0", "--inject key 'jitter' is listed twice"),
])
def test_simulate_unknown_key_is_fatal(tmp_path, capsys, model, flag, spec, message):
    # a misspelt key used to run the defaults silently; a bad value is as fatal
    outdir = tmp_path / "sim"
    assert main(["simulate", "--model", model, flag, spec, "-o", str(outdir)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not outdir.exists()


def test_simulate_params_take_any_finite_number(tmp_path):
    # 3e0 used to fail on int(); a number is the same whichever way it is written
    outputs = []
    for spec in ("regions=3,leaves=2", "regions=3e0,leaves=2.0", "regions=0.3e1,leaves=2"):
        outdir = tmp_path / spec.replace(",", "_")
        assert main(["--seed", "5", "--quiet", "simulate", "--model", "two_tier",
                     "--params", spec, "--origins", "2", "--pairs", "5",
                     "-o", str(outdir)]) == 0
        outputs.append({p.name: p.read_bytes() for p in outdir.iterdir()})
    assert outputs[0] == outputs[1]


def test_simulate_seeded_rerun_is_byte_identical(tmp_path):
    digests = []
    for name in ("run1", "run2"):
        outdir = tmp_path / name
        assert main(["--seed", "7", "--quiet", "simulate", "--model",
                     "random_geometric", "--params", "n=30", "--origins", "3",
                     "--pairs", "15", "--inject", "asymmetry=0.3,delta=60",
                     "-o", str(outdir)]) == 0
        digests.append(
            {p.name: p.read_bytes() for p in outdir.iterdir()}
        )
    assert digests[0] == digests[1]


@pytest.mark.parametrize("model, params, sha256", [
    ("two_tier", "regions=3,leaves=4,peering=1",
     "61d542e5fac1cdc551ca9ff1f6a5bc0ff09eaba581807ad40f1d773f1c2289e8"),
    ("ring_of_stars", "cores=5,leaves=3",
     "ddf53f5c1c47b43234edfd1b12a64dc3b2aad60aaa2e3bb1676c2c8f6ad5661c"),
])
def test_simulate_report_bytes_are_pinned(tmp_path, model, params, sha256):
    # recorded before the hub models shared one builder and before each
    # trace's corruption was decided once; every confusion cell is non-zero
    outdir = tmp_path / "sim"
    assert main(["--seed", "7", "--quiet", "simulate", "--model", model, "--params", params,
                 "--origins", "4", "--pairs", "60",
                 "--inject", "loops=0.3,asymmetry=0.2,block=0.1", "-o", str(outdir)]) == 0
    assert hashlib.sha256((outdir / "report.tsv").read_bytes()).hexdigest() == sha256


def test_simulate_asymmetry_delta_defaults_to_50_ms(tmp_path):
    # the default lives in SimOptions alone; the command used to supply it
    assert synth.SimOptions().asymmetry_delta_ms == 50.0
    outputs = []
    for inject in ("asymmetry=0.5", "asymmetry=0.5,delta=50", "asymmetry=0.5,delta=5"):
        outdir = tmp_path / inject.replace(",", "_")
        assert main(["--seed", "3", "--quiet", "simulate", "--model", "two_tier",
                     "--params", "regions=3,leaves=3", "--origins", "3", "--pairs", "20",
                     "--inject", inject, "-o", str(outdir)]) == 0
        outputs.append({p.name: p.read_bytes() for p in outdir.iterdir()})
    assert outputs[0] == outputs[1] != outputs[2]


def test_full_pipeline_from_simulated_traces(tmp_path, capsys):
    outdir = tmp_path / "sim"
    main(["--seed", "21", "--quiet", "simulate", "--model", "two_tier",
          "--params", "regions=4,leaves=4", "--origins", "3",
          "--pairs", "30", "-o", str(outdir)])
    trace_files = sorted(str(p) for p in outdir.glob("traces_*.jsonl"))
    outcomes = tmp_path / "outcomes.jsonl"
    assert main(["--quiet", "pairs", "--traces", *trace_files,
                 "--pairs-file", str(outdir / "pairs.csv"),
                 "--allow-origin-fallback", "-o", str(outcomes)]) == 0
    prefix = tmp_path / "dist"
    assert main(["--quiet", "dist", "--outcomes", str(outcomes),
                 "--stability", "10:5", "-o", str(prefix)]) == 0
    curve = tmp_path / "curve.tsv"
    assert main(["handover", "--outcomes", str(outcomes),
                 "-o", str(curve)]) == 0
    assert curve.exists()


def test_pair_at_unranks_combinations():
    for d in range(31):
        items = [f"n{k}" for k in range(d)]
        combos = list(itertools.combinations(items, 2))
        assert [pair_at(items, i) for i in range(len(combos))] == combos
        for outside in (-1, len(combos)):
            with pytest.raises(IndexError):
                pair_at(items, outside)


def test_importing_the_cli_loads_every_module_and_no_dataclasses():
    # dataclasses imports inspect, ast and dis, and builds each class's
    # methods from new source: tens of milliseconds of every command's
    # startup.  Every package module still loads with the cli, where the
    # benchmark's tracer finds it.
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; before = set(sys.modules); import edgedist.cli; "
         "print(*sorted(set(sys.modules) - before))"],
        env={**os.environ, "PYTHONPATH": str(Path(edgedist.__file__).parents[1])},
        capture_output=True, text=True, timeout=60, check=True,
    )
    loaded = set(done.stdout.split())
    assert {"dataclasses", "inspect", "ast", "dis"} & loaded == set()
    package = Path(edgedist.__file__).parent
    assert {f"edgedist.{path.stem}" for path in package.glob("*.py")} - loaded == {
        "edgedist.__init__"}


def test_importing_the_cli_loads_no_typing():
    # the package imports typing names for annotations only; under -S no
    # site hook loads typing first, so its import would be startup time
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys; import edgedist.cli; print('typing' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(Path(edgedist.__file__).parents[1])},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout == "False\n"


def test_every_module_is_reached_from_the_cli():
    package = Path(edgedist.__file__).parent
    reached, todo = set(), ["cli"]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                todo.extend([node.module] if node.module else
                            [alias.name for alias in node.names])
    # __init__ runs on any import of the package; a module only it imports is unreached
    modules = {path.stem for path in package.glob("*.py")} - {"__init__"}
    assert sorted(modules - reached) == []


def test_every_imported_name_is_read():
    # no linter is run on the package, so this stands in for its unused-import rule
    package = Path(edgedist.__file__).parent
    unread = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "__init__":  # its imports are the package's exports
            continue
        tree = ast.parse(path.read_text())
        reads = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                unread += [f"{path.name}:{node.lineno}: {name}" for name in
                           (alias.asname or alias.name.partition(".")[0] for alias in node.names)
                           if name not in reads]
    assert unread == []


def test_private_attributes_are_used_only_off_self_cls_or_a_module():
    # a memo is read and filled by the one method that owns it, not probed
    # from outside (estimate_pair read PreparedTrace._tails beside tail())
    package = Path(edgedist.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        owners = {"self", "cls"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                owners.update(alias.asname or alias.name.partition(".")[0]
                              for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module is None:  # from . import m
                owners.update(alias.asname or alias.name for alias in node.names)
        found += [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                  and not (node.attr.startswith("__") and node.attr.endswith("__"))
                  and not (isinstance(node.value, ast.Name) and node.value.id in owners)]
    assert found == []


def _member_reads(module, tree, scope, defs):
    """(class key or None, name) for each attribute read in ``module``.

    The class is the receiver's where its type is known: ``self`` in a
    method, a parameter annotated with a package class, or a local that is
    only ever assigned from a package constructor."""
    names = scope[module]

    def class_named(node):
        if isinstance(node, ast.Name):
            key = names.get(node.id)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and isinstance(names.get(node.value.id), str)):
            key = (names[node.value.id], node.attr)
        else:
            return None
        return key if isinstance(defs.get(key), ast.ClassDef) else None

    def own_types(func, owner):
        args = func.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                  *filter(None, (args.vararg, args.kwarg))]
        # a parameter shadows the enclosing scope's name, typed or not
        types = {arg.arg: class_named(arg.annotation) if arg.annotation else None
                 for arg in params}
        if owner and params and params[0].arg == "self":
            types["self"] = owner
        built, stored = {}, {}  # the class each `name = Class(...)` target builds
        for node in ast.walk(func):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Call)):
                built[node.targets[0]] = class_named(node.value.func)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.setdefault(node.id, []).append(node)
        for name, targets in stored.items():
            classes = {built.get(target) for target in targets}
            types[name] = classes.pop() if len(classes) == 1 else None
        return types

    def walk(node, types, owner):
        if isinstance(node, ast.ClassDef):
            owner = (module, node.name) if (module, node.name) in defs else None
        elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
            types = {**types, **own_types(node, owner)}
            owner = None  # a nested function sees its method's self, binds none
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            receiver = node.value
            yield types.get(receiver.id) if isinstance(receiver, ast.Name) else None, node.attr
        for child in ast.iter_child_nodes(node):
            yield from walk(child, types, owner)

    return walk(tree, {}, None)


def _member_names(cls):
    """Each method, property and field that ``cls`` declares: a field is
    annotated, named in a ``namedtuple("Name", "a b c")`` base or listed in
    ``__slots__``."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name
        elif isinstance(node, ast.AnnAssign):
            yield node.target.id
        elif (isinstance(node, ast.Assign)
              and [getattr(target, "id", None) for target in node.targets] == ["__slots__"]):
            yield from ast.literal_eval(node.value)
    for base in cls.bases:
        if isinstance(base, ast.Call) and getattr(base.func, "id", None) == "namedtuple":
            yield from ast.literal_eval(base.args[1]).split()


def test_member_names_cover_every_way_a_class_declares_a_field():
    cls = ast.parse(
        'class A(_Value, namedtuple("A", "a b", defaults=(0,))):\n'
        '    __slots__ = ("c", "_d")\n'
        '    e: int\n'
        '    f = 1\n'
        '    def g(self): pass\n'
    ).body[0]
    assert sorted(_member_names(cls)) == ["_d", "a", "b", "c", "e", "g"]
    # the package's own: a tuple value and a slotted class
    package = Path(edgedist.__file__).parent
    classes = {cls.name: cls for cls in ast.parse((package / "transit.py").read_text()).body
               if isinstance(cls, ast.ClassDef)}
    assert {"pair", "origins", "entries", "best_hop", "best_rtt", "__new__", "accepted"} == set(
        _member_names(classes["PairOutcome"]))
    assert {"trace", "options", "endpoint", "positions"} < set(
        _member_names(classes["PreparedTrace"]))


def test_every_public_definition_is_reached_from_the_cli():
    """Walk name references from ``cli.main`` and every module's top-level
    statements, then from each definition reached; imports do not count.
    Each private module-level function and class must be used outside its
    own definition, and each public method, property and field of a class
    (``_member_names``) must be read as an attribute somewhere in the
    package: of that class where the receiver's type is known
    (``_member_reads``), else by name on any receiver."""
    package = Path(edgedist.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    defs, scope = {}, {}
    for module, tree in trees.items():
        names = scope[module] = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[module, node.name] = node
                names[node.name] = (module, node.name)
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    target = (node.module, alias.name) if node.module else alias.name
                    names[alias.asname or alias.name] = target

    def referenced(module, node):
        names = scope[module]
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in names:
                yield names[sub.id]
            elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                  and isinstance(names.get(sub.value.id), str)):
                yield names[sub.value.id], sub.attr

    todo = [("cli", "main")]
    for module, tree in trees.items():
        if module != "__init__":  # its exports are imports, not uses
            for node in tree.body:
                if not isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Import,
                                         ast.ImportFrom)):
                    todo.extend(referenced(module, node))
    reached = set()
    while todo:
        key = todo.pop()
        if key in defs and key not in reached:
            reached.add(key)
            todo.extend(referenced(key[0], defs[key]))
    public = {key for key in defs if not key[1].startswith("_")}
    # kept on purpose: the two oracles that the benchmark traces by name
    # and the tests use as references
    allowed = {("synth", "true_distance"), ("synth", "min_hop_distance")}
    assert sorted(public - reached) == sorted(allowed)

    # a private helper need only be used in the package outside its own
    # body, so one that only tests call fails
    used = set()
    for module, tree in trees.items():
        for node in tree.body:
            own = (module, getattr(node, "name", None))
            used.update(key for key in referenced(module, node) if key != own)
    private = {key for key in defs if key[1].startswith("_")}
    assert sorted(private - used) == []

    members = {
        (module, cls.name, name)
        for module, tree in trees.items() for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for name in _member_names(cls)
        if not name.startswith("_")
    }
    read_by_name, read_of_class = set(), set()
    for module, tree in trees.items():
        for cls, name in _member_reads(module, tree, scope, defs):
            if cls is not None and (*cls, name) in members:
                read_of_class.add((*cls, name))
            else:  # unknown receiver, or a member the class inherits
                read_by_name.add(name)
    assert sorted(key for key in members
                  if key not in read_of_class and key[2] not in read_by_name) == []


def _file_writes(tree):
    """Each node that writes a file other than through ``jsonl.write_lines``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            builtin = isinstance(node.func, ast.Name)
            if (node.func.id if builtin else node.func.attr) == "open":
                # open(path, mode) or path.open(mode); no mode reads
                modes = [*node.args[int(builtin):int(builtin) + 1],
                         *(kw.value for kw in node.keywords if kw.arg == "mode")]
                if any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
                       for m in modes):
                    yield node
        elif isinstance(node, ast.Attribute):
            if node.attr in ("write_text", "write_bytes") or (
                    node.attr == "replace" and isinstance(node.value, ast.Name)
                    and node.value.id == "os"):
                yield node
        elif isinstance(node, ast.Import):
            if any(alias.name == "tempfile" for alias in node.names):
                yield node
        elif isinstance(node, ast.ImportFrom):
            if node.module == "tempfile" or (
                    node.module == "os" and any(a.name == "replace" for a in node.names)):
                yield node


def test_only_write_lines_writes_files():
    # each output is replaced atomically, and only write_lines knows how
    package = Path(edgedist.__file__).parent
    writes = [f"{path.name}:{node.lineno}"
              for path in sorted(package.glob("*.py")) if path.stem != "jsonl"
              for node in _file_writes(ast.parse(path.read_text()))]
    assert writes == []
    jsonl = ast.parse((package / "jsonl.py").read_text())
    assert len(list(_file_writes(jsonl))) >= 3  # the guard sees write_lines itself


def test_only_shared_estimate_builds_estimates():
    # one constructor decides when two bounds may share an object
    package = Path(edgedist.__file__).parent
    builds = set()
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    if called == "PairEstimate":
                        builds.add((path.stem, getattr(top, "name", None)))
    assert builds == {("transit", "_shared_estimate")}
