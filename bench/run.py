"""edgedist benchmark: seeded campaigns through the real CLI, end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed (``gen``), then runs the
workload's ``edgedist`` command sequence as child processes, one at a time,
repeating the whole sequence (a "pass") until S seconds have been measured.
Outputs are checked outside the timed region (``checks``).  With
``--trace 1`` a single pass runs every command under ``trace_cli.py`` and
the per-layer numbers come from its spans.  Every metric is printed as
``name value unit``; the last line is one JSON object with the metrics of
BENCHMARK.json.  See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_FIRST = 5  # set-up probes before the first pass; one more follows each command
TIME_LIMIT_S = 120.0  # start no further pass past this, to end well within 180 s


@dataclass(frozen=True)
class Workload:
    why: str
    spec: gen.CampaignSpec | None = None  # None: the simulate oracle
    ingest_exit: int = 0
    max_pairs: int | None = None
    dist_args: tuple[str, ...] = ()
    sim_args: tuple[str, ...] = ()
    sim_pairs: int = 0


WORKLOADS = {
    "campaign-dense": Workload(
        why="300 hosts x 10 origins, all 44,850 pairs: each trace feeds 299 pairs, "
            "so transit estimation and outcome I/O dominate",
        spec=gen.CampaignSpec(
            regions=10, leaves=30, origins=10,
            faults=gen.Faults(loops=0.05, asymmetry=0.05, delta_ms=40.0),
        ),
        dist_args=("--stability", "500:20"),
    ),
    "ingest-wide": Workload(
        why="2,000 hosts x 12 origins of dirty text, 2,000 sampled pairs: each trace "
            "feeds ~2 pairs, so parsing and canonical trace I/O dominate",
        spec=gen.CampaignSpec(
            regions=40, leaves=50, origins=12,
            faults=gen.Faults(
                loops=0.05, asymmetry=0.05, delta_ms=40.0, block=0.03,
                jitter_ms=0.5, probe_loss=0.02, multi_responder=0.02,
                annotate=0.05, garbage=0.01, names=False,
            ),
        ),
        ingest_exit=1,  # garbage lines make ingest a partial success
        max_pairs=2000,
    ),
    "oracle-sim": Workload(
        why="simulate with 6,000 pairs: the synth ground truth (a Dijkstra and a BFS "
            "per pair) dominates; no text parsing, no outcome I/O",
        sim_args=("--model", "two_tier", "--params", "regions=12,leaves=20",
                  "--origins", "8", "--pairs", "6000",
                  "--inject", "asymmetry=0.1,delta=80,loops=0.05"),
        sim_pairs=6000,
    ),
}

# --trace 0 runs report END_TO_END; --trace 1 runs report per_layer_names()
END_TO_END = ("wall_ref", "setup_s", "peak_rss_mb")
STAGES = ("ingest", "pairs", "dist", "handover", "simulate")
QUALITY = ("accepted_ratio", "sound_ratio", "unsound_ratio", "failed_ratio")
REJECT_KINDS = ("UnreachableDestination", "NoTransit", "AsymmetrySuspected",
                "LoopBeyondTransit", "MissingRttAtTransit")


@dataclass
class Command:
    name: str  # edgedist subcommand
    args: list[str]
    expected_exit: int
    outputs: list[Path]


@dataclass
class Ran:
    command: Command
    start: float
    end: float
    rss_mb: float
    exit_code: int
    digest: str
    spans: dict | None = None
    ref_s: float = 0.0  # CPU time of the reference loop while the command ran

    @property
    def wall_s(self) -> float:
        return self.end - self.start


@dataclass
class Pass:
    ran: list[Ran]

    @property
    def wall_ref(self) -> float:
        """Wall time in reference loops: each command's wall time divided
        by the reference loop time measured while it ran, summed."""
        return sum(r.wall_s / r.ref_s for r in self.ran)

    @property
    def ref_s(self) -> float:
        return statistics.fmean(r.ref_s for r in self.ran)

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.ran)

    @property
    def peak_rss_mb(self) -> float:
        return max(r.rss_mb for r in self.ran)

    def command_s(self, name: str) -> float:
        return sum(r.wall_s for r in self.ran if r.command.name == name)

    @property
    def digest(self) -> str:
        return gen.sha256_text(" ".join(r.digest for r in self.ran))


@dataclass
class Failures:
    """Commands attempted, and the problems of each failed one, keyed by
    (pass number, command index)."""

    attempted: int = 0
    problems: dict[tuple[int, int], list[str]] = field(default_factory=dict)

    def fail(self, key: tuple[int, int], problems: list[str]) -> None:
        if problems:
            self.problems.setdefault(key, []).extend(problems)


def stop(proc: subprocess.Popen) -> None:
    """End a helper process by closing its input, and wait for it."""
    proc.stdin.close()
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


class Launcher:
    """Runs children through ``launcher.py``, started while this process is
    still small, so that each child's peak RSS is its own."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, argv: list[str], stderr: Path) -> tuple[float, float, float, int]:
        """Start and end (``perf_counter``), peak RSS in MB and exit code of
        one command."""
        request = {"argv": argv, "stderr": str(stderr), "cwd": str(ROOT), "env": self.env}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited")
        reply = json.loads(line)
        return reply["start"], reply["end"], reply["rss_mb"], reply["code"]

    def close(self) -> None:
        stop(self.proc)
        self.proc.stdout.close()


class RefSampler:
    """``refloop.py``, sampling the reference loop for the whole run."""

    def __init__(self, log: Path):
        self.log = log
        self.out = open(log, "w", encoding="utf-8")
        self.proc = subprocess.Popen([sys.executable, str(HERE / "refloop.py")],
                                     stdin=subprocess.PIPE, stdout=self.out)

    def close(self) -> list[tuple[float, ...]]:
        """Stop sampling; the samples as (end time, CPU seconds) rows."""
        stop(self.proc)
        self.out.close()
        return [tuple(map(float, line.split()))
                for line in self.log.read_text(encoding="utf-8").splitlines()]


def assign_refs(passes: list[Pass], samples: list[tuple[float, ...]]) -> None:
    """Each command's reference loop time: the mean of the samples taken
    while it ran, plus the one just before and the one just after."""
    if not samples:
        raise RuntimeError("the reference loop sampler recorded nothing")
    ends = [s[0] for s in samples]
    for p in passes:
        for r in p.ran:
            lo = max(bisect.bisect_left(ends, r.start) - 1, 0)
            hi = bisect.bisect_right(ends, r.end) + 1
            window = samples[lo:hi]
            r.ref_s = statistics.fmean(s[1] for s in window)


def cli_argv(spans_to: Path | None, command: str, args: list[str]) -> list[str]:
    if spans_to is None:
        return [sys.executable, "-m", "edgedist.cli", *args]
    return [sys.executable, str(HERE / "trace_cli.py"), str(spans_to), command, "--", *args]


def digest(paths: list[Path]) -> str:
    if not all(p.exists() for p in paths):
        return "missing"
    return gen.digest_files(paths)


def commands(workload: Workload, seed: int, out: Path,
             campaign: gen.Campaign | None) -> list[Command]:
    if workload.spec is None:
        sim = out / "sim"
        outputs = [sim / "topology.jsonl", sim / "pairs.csv", sim / "report.tsv"]
        return [Command("simulate", ["--seed", str(seed), "--quiet", "simulate",
                                     *workload.sim_args, "-o", str(sim)], 0, outputs)]
    cmds = []
    trace_files = []
    for origin, raw in campaign.raw_files.items():
        canon = out / f"traces_{origin}.jsonl"
        trace_files.append(str(canon))
        cmds.append(Command("ingest", ["--quiet", "ingest", str(raw), "--origin", origin,
                                       "-o", str(canon)], workload.ingest_exit, [canon]))
    outcomes = out / "outcomes.jsonl"
    pairs = ["--seed", str(seed), "--quiet", "pairs", "--traces", *trace_files]
    if workload.max_pairs is not None:
        pairs += ["--max-pairs", str(workload.max_pairs)]
    cmds.append(Command("pairs", [*pairs, "-o", str(outcomes)], 0, [outcomes]))
    prefix = out / "dist"
    cmds.append(Command("dist", ["--seed", str(seed), "--quiet", "dist", "--outcomes",
                                 str(outcomes), *workload.dist_args, "-o", str(prefix)],
                        0, [Path(f"{prefix}.hops.tsv"), Path(f"{prefix}.rtt.tsv")]))
    curve = out / "curve.tsv"
    cmds.append(Command("handover", ["--quiet", "handover", "--outcomes", str(outcomes),
                                     "--grid", "0:100:5", "--persistence",
                                     str(campaign.persistence), "-o", str(curve)],
                        0, [curve]))
    return cmds


def run_pass(launcher: Launcher, cmds: list[Command], out: Path, traced: bool,
             setup: list[float]) -> Pass:
    """One pass over the commands; an untraced pass also takes a set-up
    probe after each command, so the set-up samples span the whole run."""
    ran = []
    for k, cmd in enumerate(cmds):
        spans_path = out / f"spans_{k}.json" if traced else None
        start, end, rss, code = launcher.run(cli_argv(spans_path, cmd.name, cmd.args),
                                             out / f"stderr_{k}.txt")
        spans = None
        if spans_path is not None and spans_path.exists():
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
        ran.append(Ran(cmd, start, end, rss, code, digest(cmd.outputs), spans))
        if not traced:
            setup.append(setup_probe(launcher, out))
    return Pass(ran)


def check_pass(workload: Workload, p: Pass, out: Path, campaign,
               failures: Failures) -> checks.Quality:
    """Full output checks on the first pass; returns its quality counts."""
    index = {}
    for k, r in enumerate(p.ran):
        index.setdefault(r.command.name, k)
        if r.exit_code != r.command.expected_exit:
            tail = (out / f"stderr_{k}.txt").read_text(errors="replace")[-300:]
            failures.fail((0, k), [f"{r.command.name} exited {r.exit_code}, expected "
                                   f"{r.command.expected_exit}: {tail.strip()}"])
        if r.digest == "missing":
            failures.fail((0, k), [f"{r.command.name}: output missing"])
        elif r.command.name == "ingest":
            failures.fail((0, k), checks.check_canonical(
                r.command.outputs[0], len(campaign.topology.hosts)))
    if workload.spec is None:
        problems, quality = checks.check_simulate(out / "sim", workload.sim_pairs)
        failures.fail((0, 0), problems)
        return quality
    hosts = len(campaign.topology.hosts)
    requested = workload.max_pairs or hosts * (hosts - 1) // 2
    rtt_tol = 4 * workload.spec.faults.jitter_ms
    problems, quality, rtt_samples = checks.check_outcomes(
        out / "outcomes.jsonl", campaign.topology, requested, rtt_tol)
    failures.fail((0, index["pairs"]), problems)
    failures.fail((0, index["dist"]), checks.check_dist(out / "dist", requested))
    failures.fail((0, index["handover"]),
                  checks.check_handover(out / "curve.tsv", rtt_samples))
    return quality


def compare_digests(first: Pass, other: Pass, n: int, failures: Failures) -> None:
    """Every pass must exit and write exactly as pass 0 did."""
    for k, (a, b) in enumerate(zip(first.ran, other.ran)):
        if a.exit_code != b.exit_code or a.digest != b.digest:
            failures.fail((n, k), [f"{b.command.name}: exit code or output differs "
                                   "from pass 0"])


def setup_probe(launcher: Launcher, out: Path) -> float:
    """Wall time of ``edgedist --help``: interpreter start, imports, argparse."""
    start, end, _, code = launcher.run(cli_argv(None, "help", ["--help"]),
                                       out / "stderr_help.txt")
    if code != 0:
        raise RuntimeError(f"edgedist --help exited {code}")
    return end - start


def layer_metrics(traced: Pass) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of a traced pass, summed over its
    commands.  ``.s`` is self time; rates divide by total span time."""
    fns: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    for r in traced.ran:
        spans = r.spans or {"functions": {}, "counters": {}}
        for name, row in spans["functions"].items():
            acc = fns.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
        for name, value in spans["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def self_s(name):
        return (fns.get(name, {}).get("self_s", 0.0), "s")

    def calls(name):
        return (fns.get(name, {}).get("calls", 0), "count")

    def rate(numerator, name):
        total = fns.get(name, {}).get("total_s", 0.0)
        return (numerator / total if total else 0.0, "1/s")

    def count(counter):
        return (counters.get(counter, 0), "count")

    estimates = calls("transit.estimate_pair")[0]
    records = counters.get("transit.write_outcomes.records", 0)
    m = {
        "ingest.parse_traceroute_text.s": self_s("ingest.parse_traceroute_text"),
        "ingest.parse_traceroute_text.lines_per_s": rate(
            counters.get("ingest.parse_traceroute_text.lines", 0),
            "ingest.parse_traceroute_text"),
        "ingest.parse_traceroute_text.skipped_lines": count(
            "ingest.parse_traceroute_text.skipped_lines"),
        "ingest.parse_traceroute_text.warnings": count("ingest.parse_traceroute_text.warnings"),
        "ingest.write_canonical.s": self_s("ingest.write_canonical"),
        "ingest.write_canonical.traces_per_s": rate(
            counters.get("ingest.write_canonical.traces", 0), "ingest.write_canonical"),
        "ingest.read_canonical.s": self_s("ingest.read_canonical"),
        "ingest.read_canonical.traces_per_s": rate(
            counters.get("ingest.read_canonical.traces", 0), "ingest.read_canonical"),
        "ingest.read_canonical.calls": calls("ingest.read_canonical"),
        "transit.estimate_pair.s": self_s("transit.estimate_pair"),
        "transit.estimate_pair.calls": (estimates, "count"),
        "transit.estimate_pair.per_s": rate(estimates, "transit.estimate_pair"),
        "transit.estimate_pair.accept_ratio": (
            counters.get("transit.estimate_pair.accepted", 0) / estimates
            if estimates else 0.0, "ratio"),
        **{f"transit.reject.{kind}": count(f"transit.reject.{kind}") for kind in REJECT_KINDS},
        "transit.min_over_origins.s": self_s("transit.min_over_origins"),
        "transit.min_over_origins.calls": calls("transit.min_over_origins"),
        "transit.batch_estimate.s": self_s("transit.batch_estimate"),
        "transit.write_outcomes.s": self_s("transit.write_outcomes"),
        "transit.write_outcomes.records_per_s": rate(records, "transit.write_outcomes"),
        "transit.write_outcomes.bytes_per_pair": (
            counters.get("transit.write_outcomes.bytes", 0) / records if records else 0.0,
            "B"),
        "transit.read_outcomes.s": self_s("transit.read_outcomes"),
        "transit.read_outcomes.calls": calls("transit.read_outcomes"),
        "transit.read_outcomes.records_per_s": rate(
            counters.get("transit.read_outcomes.records", 0), "transit.read_outcomes"),
        "stats.build_distribution.s": self_s("stats.build_distribution"),
        "stats.build_distribution.calls": calls("stats.build_distribution"),
        "stats.build_distribution.samples_per_s": rate(
            counters.get("stats.build_distribution.samples", 0), "stats.build_distribution"),
        "stats.resample_stability.s": self_s("stats.resample_stability"),
        "stats.write_distribution_tsv.s": self_s("stats.write_distribution_tsv"),
        "handover.expected_loss_curve.s": self_s("handover.expected_loss_curve"),
        "handover.expected_loss_curve.points_per_s": rate(
            counters.get("handover.expected_loss_curve.points", 0),
            "handover.expected_loss_curve"),
        "handover.multicast_persistence.s": self_s("handover.multicast_persistence"),
        "synth.true_distance.s": self_s("synth.true_distance"),
        "synth.true_distance.calls": calls("synth.true_distance"),
        "synth.min_hop_distance.s": self_s("synth.min_hop_distance"),
        "synth.min_hop_distance.calls": calls("synth.min_hop_distance"),
        "synth.dijkstra.calls": count("synth.dijkstra.calls"),
        "synth.Simulator.trace.s": self_s("synth.Simulator.trace"),
        "synth.Simulator.trace.calls": calls("synth.Simulator.trace"),
        "synth.run_experiment.s": self_s("synth.run_experiment"),
        "synth.save_topology.s": self_s("synth.save_topology"),
    }
    for cmd in STAGES:
        ran = [r for r in traced.ran if r.command.name == cmd]
        m[f"cli.{cmd}.wall_s"] = (traced.command_s(cmd), "s")
        m[f"cli.{cmd}.self_s"] = self_s(f"cli.{cmd}")
        m[f"cli.{cmd}.peak_rss_mb"] = (max((r.rss_mb for r in ran), default=0.0), "MB")
    m["traced_wall_s"] = (traced.wall_s, "s")
    m["traced_wall_ref"] = (traced.wall_ref if traced.ran else 0.0, "loops")
    return m


def per_layer_names() -> list[str]:
    """The metrics a --trace 1 run puts in its result line, in order."""
    return [*layer_metrics(Pass([])), *QUALITY]


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work: Path,
            launcher: Launcher, started: float) -> tuple[dict, Failures, list[Pass], dict]:
    """Generate, run and check passes; metrics as {name: (value, unit)}."""
    inputs, out = work / "inputs", work / "out"
    out.mkdir(parents=True)
    campaign = None
    info = {"inputs_sha256": "simulate builds its inputs from --seed"}
    if workload.spec is not None:
        campaign = gen.generate(workload.spec, seed, inputs)
        info["inputs_sha256"] = campaign.digest
    cmds = commands(workload, seed, out, campaign)
    failures = Failures()
    passes: list[Pass] = []
    sampler = RefSampler(work / "refloop.txt")
    try:
        setup_probe(launcher, out)  # fills the bytecode cache
        info["setup_s"] = setup = [setup_probe(launcher, out) for _ in range(SETUP_FIRST)]
        measure_start = time.perf_counter()
        while True:
            p = run_pass(launcher, cmds, out, trace, setup)
            failures.attempted += len(p.ran)
            if passes:
                compare_digests(passes[0], p, len(passes), failures)
            else:
                quality = check_pass(workload, p, out, campaign, failures)
            passes.append(p)
            now = time.perf_counter()
            if trace or now - measure_start >= seconds or \
                    now - started + 1.5 * p.wall_s > TIME_LIMIT_S:
                break
    finally:
        samples = sampler.close()
    assign_refs(passes, samples)

    m = {
        "wall_ref": (statistics.median(p.wall_ref for p in passes), "loops"),
        "setup_s": (statistics.median(info["setup_s"]), "s"),
        "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in passes), "MB"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
    }
    if trace:
        m.update(layer_metrics(passes[0]))
    else:
        for stage in STAGES:
            m[f"{stage}_s"] = (statistics.median(p.command_s(stage) for p in passes), "s")
    m["accepted_ratio"] = (quality.accepted_ratio, "ratio")
    m["sound_ratio"] = (1.0 - quality.unsound_ratio, "ratio")
    m["unsound_ratio"] = (quality.unsound_ratio, "ratio")
    m["failed_ratio"] = (len(failures.problems) / failures.attempted, "ratio")
    m["requested_pairs"] = (quality.requested, "count")
    m["accepted_pairs"] = (quality.accepted, "count")
    m["unsound_pairs"] = (quality.unsound, "count")
    return m, failures, passes, info


def machine_info() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "edgedist" / "cli.py").is_file():
        print(f"error: no edgedist sources under {SRC}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    launcher = Launcher()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        metrics, failures, passes, info = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
            work, launcher, started)
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    for (n, k), problems in sorted(failures.problems.items()):
        for problem in problems:
            print(f"FAIL pass {n} command {k}: {problem}")
    machine = machine_info()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"inputs_sha256 {info['inputs_sha256']} outputs_sha256 {passes[0].digest}")
    print(f"machine nproc={machine['nproc']} python={machine['python']} cpu={machine['cpu']}")
    print("passes", len(passes), "wall_s", *(f"{p.wall_s:.3f}" for p in passes),
          "ref_loop_s", *(f"{p.ref_s:.6f}" for p in passes),
          "wall_ref", *(f"{p.wall_ref:.1f}" for p in passes))
    print("setup_s samples", *(f"{s:.4f}" for s in info["setup_s"]))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    chosen = per_layer_names() if args.trace else END_TO_END
    result = {
        "correct": not failures.problems,
        "attempted": failures.attempted,
        "failed": len(failures.problems),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in chosen},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
