"""Command-line surface: ingest -> pairs -> dist -> handover, plus simulate.

Exit codes: 0 clean, 1 partial (warnings or nothing accepted), 2 fatal.
All randomness flows from explicit --seed flags.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import math
import random
import sys
from pathlib import Path

from . import handover, ingest, jsonl, stats, synth, transit

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_FATAL = 2
# a longer anticipation grid is taken for a mistyped step, not built
MAX_GRID_POINTS = 1_000_000
# each --inject fault and the SimOptions field it sets
_FAULT_FIELDS = {"block": "block_probability", "asymmetry": "asymmetry_probability",
                 "delta": "asymmetry_delta_ms", "loops": "loop_probability",
                 "jitter": "rtt_jitter_ms"}


class _NothingAccepted(Exception):
    """An outcome file in which no pair has an accepted estimate."""


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _parse_kv(flag: str, spec: str) -> dict[str, str]:
    """``k=v[,k=v...]``, each key listed once."""
    out = {}
    if spec:
        for item in spec.split(","):
            key, _, value = item.partition("=")
            if not value:
                raise ValueError(f"expected key=value, got {item!r}")
            key = key.strip()
            if key in out:
                raise ValueError(f"{flag} key {key!r} is listed twice")
            out[key] = value.strip()
    return out


def _parse_param(key: str, value: str) -> int | float:
    """A ``--params`` value: an int if the text is one, else a finite float."""
    try:
        return int(value)
    except ValueError:
        pass
    try:
        number = float(value)
        if math.isfinite(number):
            return number
    except ValueError:
        pass
    raise ValueError(f"--params {key}={value!r} is not a finite number")


def _parse_grid(spec: str) -> list[float]:
    try:
        start, stop, step = (float(x) for x in spec.split(":"))
    except ValueError as exc:
        raise ValueError(f"grid must be start:stop:step, got {spec!r}") from exc
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
        raise ValueError(f"bad grid {spec!r}")
    grid = []
    value = start
    while value <= stop + 1e-9:
        if len(grid) == MAX_GRID_POINTS:
            raise ValueError(f"bad grid {spec!r}")
        grid.append(round(value, 9))
        value += step
    return grid


def _parse_stability(spec: str) -> tuple[int, int]:
    """``--stability SUBSET[:TRIALS]``, TRIALS 2 when left out."""
    subset, colon, trials = spec.partition(":")
    try:
        subset, trials = int(subset), int(trials) if colon else 2
        if subset >= 1 and trials >= 2:
            return subset, trials
    except ValueError:
        pass
    raise ValueError("--stability must be SUBSET[:TRIALS] with integers SUBSET >= 1 "
                     f"and TRIALS >= 2, got {spec!r}")


def _check_count(flag: str, value: int | None) -> None:
    if value is not None and value < 1:
        raise ValueError(f"--{flag} must be an integer >= 1, got {value}")


def pairs_at(items, indices) -> list:
    """``list(itertools.combinations(items, 2))[i]`` for each of the
    ascending ``indices``, without building the list: the pairs that share
    a first item form a row, and the rows are walked forward once."""
    n = len(items)
    pairs = []
    first, row_start, row_len = 0, 0, n - 1  # the row of first is [row_start, row_start + row_len)
    for i in indices:
        if i < row_start:
            raise IndexError(f"pair index {i} is negative or below an earlier index")
        while i >= row_start + row_len:
            if row_len <= 0:
                raise IndexError(f"pair index {i} out of range for {n} items")
            row_start += row_len
            row_len -= 1
            first += 1
        pairs.append((items[first], items[first + 1 + i - row_start]))
    return pairs


# ---------------------------------------------------------------------------
# subcommands


def cmd_ingest(args) -> int:
    traces = []
    parsed = skipped = 0
    warnings = []
    for input_path in args.inputs:
        if args.format == "canonical":
            traces.extend(ingest.read_canonical(input_path))
        else:
            try:
                text = Path(input_path).read_text(encoding="utf-8-sig")
            except UnicodeDecodeError as exc:
                raise jsonl.not_utf8(input_path, exc) from exc
            more, report = ingest.parse_traceroute_text(text, args.origin)
            traces.extend(more)
            parsed += report.parsed
            skipped += report.skipped_lines
            warnings += report.warnings
    ingest.write_canonical(traces, args.output)
    _say(args, f"wrote {len(traces)} traces to {args.output}")
    if skipped or warnings:
        _say(args, f"parsed={parsed} skipped_lines={skipped} warnings={len(warnings)}")
        if not args.quiet:  # the exit code still tells a partial ingest
            for warning in warnings:
                print(f"warning: {warning}", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def _load_pairs_file(path: str) -> list[tuple[str, str]]:
    """One ``a,b`` pair per CSV row, read by ``jsonl.read_rows``; blank rows
    and rows whose first cell starts with ``#`` are skipped, and the first
    other row is a header when its cells are ``a`` and ``b`` in any case.
    Each pair names two distinct, non-empty endpoints (cells stripped of
    whitespace) and is listed once, in either order."""
    rows = [(lineno, [cell.strip() for cell in row]) for lineno, row in jsonl.read_rows(path)
            if not row[0].lstrip().startswith("#")]
    if rows and [cell.lower() for cell in rows[0][1]] == ["a", "b"]:
        del rows[0]
    pairs = []
    listed = set()
    for lineno, parts in rows:
        if len(parts) != 2:
            problem = "expected two columns"
        elif not all(parts):
            problem = "empty endpoint name"
        elif parts[0] == parts[1]:
            problem = f"both endpoints are {parts[0]!r}"
        elif frozenset(parts) in listed:
            problem = f"pair {parts[0]},{parts[1]} is listed twice"
        else:
            listed.add(frozenset(parts))
            pairs.append((parts[0], parts[1]))
            continue
        raise ValueError(f"{path}: line {lineno}: {problem}")
    return pairs


def _estimate_options(args) -> transit.EstimateOptions:
    return transit.EstimateOptions(
        mode=args.mode,
        allow_origin_fallback=args.allow_origin_fallback,
        eps_rtt=args.eps_rtt,
        couple_metrics=args.couple_metrics,
    )


def cmd_pairs(args) -> int:
    _check_count("max-pairs", args.max_pairs)
    options = _estimate_options(args)
    traces_by_origin: dict[str, list] = {}
    for path in args.traces:
        for trace in ingest.read_canonical(path):
            traces_by_origin.setdefault(trace.origin_id, []).append(trace)
    if not traces_by_origin:
        print("error: no traces in input", file=sys.stderr)
        return EXIT_FATAL
    if args.pairs_file:
        listed = _load_pairs_file(args.pairs_file)
        count = len(listed)
    else:
        destinations = sorted(
            {
                t.destination
                for rows in traces_by_origin.values()
                for t in rows
                if t.reached
            }
        )
        count = len(destinations) * (len(destinations) - 1) // 2
    if args.max_pairs is not None and count > args.max_pairs:
        # the pairs at the indices rng.sample draws, in index order
        indices = sorted(random.Random(args.seed).sample(range(count), args.max_pairs))
        pairs = ([listed[i] for i in indices] if args.pairs_file
                 else pairs_at(destinations, indices))
    elif args.pairs_file:
        pairs = listed
    else:
        # every pair, in pairs_at's order
        pairs = list(itertools.combinations(destinations, 2))
    outcomes, batch = transit.batch_estimate(traces_by_origin, pairs, options)
    transit.write_outcomes(outcomes, args.output)
    _say(args, f"pairs={batch.total_pairs} succeeded={batch.succeeded} "
               f"success_ratio={batch.success_ratio:.2f}")
    total_rejects = sum(batch.reject_counts.values())
    for kind in sorted(batch.reject_counts):
        count = batch.reject_counts[kind]
        _say(args, f"  reject {kind}: {count} ({count / total_rejects:.1%})")
    if batch.succeeded == 0:
        print("error: no pair obtained a valid estimate", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def _accepted_outcomes(path: str) -> list[transit.PairOutcome]:
    """The outcomes of ``path``, which must accept at least one pair."""
    outcomes = transit.read_outcomes(path)
    if not any(oc.accepted for oc in outcomes):
        raise _NothingAccepted("no pair has an accepted estimate")
    return outcomes


def cmd_dist(args) -> int:
    stability = None if args.stability is None else _parse_stability(args.stability)
    outcomes = _accepted_outcomes(args.outcomes)
    baseline = _accepted_outcomes(args.baseline) if args.baseline else None
    # everything that can fail runs before the first file is written
    results = []
    for metric, suffix, width in (
        (stats.HOP_COUNT, "hops", 1.0),
        (stats.RTT_MS, "rtt", args.rtt_bin_width),
    ):
        dist = stats.build_distribution(outcomes, metric, width)
        out_path = f"{args.output}.{suffix}.tsv"
        lines = [f"{metric}: n={dist.n} mean={dist.mean:.4f} std={dist.std:.4f} "
                 f"excluded={dist.excluded} -> {out_path}"]
        if baseline is not None:
            base = stats.build_distribution(baseline, metric, width)
            mean_shift, ks = stats.compare_distributions(dist, base)
            lines.append(f"{metric} vs baseline: mean_shift={mean_shift:.4f} ks={ks:.4f}")
        if stability is not None:
            subset, trials = stability
            mean_dev, std_dev = stats.resample_stability(dist, subset, trials, args.seed)
            lines.append(f"{metric} stability ({subset} x {trials}): "
                         f"max_mean_dev={mean_dev:.4f} max_std_dev={std_dev:.4f}")
        results.append((dist, out_path, lines))
    for dist, out_path, lines in results:
        stats.write_distribution_tsv(dist, out_path)
        for line in lines:
            _say(args, line)
    return EXIT_OK


def _read_distribution_tsv(path: str, flag: str, metric: str) -> stats.EdgeDistribution:
    """The distribution ``path`` holds, which ``flag`` needs to be of ``metric``."""
    dist = stats.read_distribution_tsv(path)
    if dist.metric != metric:
        raise ValueError(f"{path}: {flag} needs the {metric} distribution, "
                         f"the file holds {dist.metric}")
    return dist


def _load_rtt_distribution(args):
    if args.outcomes:
        return stats.build_distribution(_accepted_outcomes(args.outcomes), stats.RTT_MS)
    if args.dist_tsv:
        return _read_distribution_tsv(args.dist_tsv, "--dist-tsv", stats.RTT_MS)
    raise ValueError("need --outcomes or --dist-tsv for the RTT distribution")


def _persistence_ratio(args) -> float | None:
    if not args.persistence:
        return None
    table = handover.load_persistence_table(args.persistence)
    if args.hops_tsv:
        hop_dist = _read_distribution_tsv(args.hops_tsv, "--hops-tsv", stats.HOP_COUNT)
    elif args.outcomes:
        hop_dist = stats.build_distribution(_accepted_outcomes(args.outcomes), stats.HOP_COUNT)
    else:
        raise ValueError("persistence needs --hops-tsv or --outcomes")
    return handover.multicast_persistence(hop_dist, table)


def cmd_handover(args) -> int:
    if args.outcomes and args.dist_tsv:
        raise ValueError("give --outcomes or --dist-tsv, not both")
    if args.hops_tsv and not args.persistence:
        raise ValueError("--hops-tsv is read only with --persistence")
    loss_table = handover.load_loss_table(args.loss_table) if args.loss_table else None
    model = handover.LossModel(beta=args.beta, table=loss_table)
    # everything that can fail runs before the curve is written
    ratio = _persistence_ratio(args)
    rtt_dist = _load_rtt_distribution(args)
    grid = _parse_grid(args.grid)
    curve = handover.expected_loss_curve(rtt_dist, model, grid, args.delay_scale)
    optimum = handover.argmin_anticipation(curve, args.flat_threshold)
    jsonl.write_lines(args.output, [
        "anticipation_ms\texpected_loss_ms\texpected_packets",
        *(f"{a:g}\t{loss!r}\t{packets!r}" for a, loss, packets in curve),
    ])
    if optimum.flat:
        _say(args, "argmin: flat curve, no significant anticipation optimum")
    else:
        _say(args, f"argmin: anticipation={optimum.anticipation_ms:g} ms "
                   f"expected_loss={optimum.expected_loss_ms:.4f} ms")
    if ratio is not None:
        _say(args, f"expected multicast persistence: {ratio:.4f} "
                   f"(invalidation {1 - ratio:.4f})")
    return EXIT_OK


def cmd_simulate(args) -> int:
    _check_count("origins", args.origins)
    _check_count("pairs", args.pairs)
    estimate_options = _estimate_options(args)
    params = _parse_kv("--params", args.params)
    faults = {}  # SimOptions fields
    for key, value in _parse_kv("--inject", args.inject).items():
        if key not in _FAULT_FIELDS:
            raise ValueError(f"--inject has no fault {key!r}")
        try:  # any float: SimOptions checks the range and names the field
            faults[_FAULT_FIELDS[key]] = float(value)
        except ValueError:
            raise ValueError(f"--inject {key}={value!r} is not a number") from None
    topology = synth.generate_topology(
        args.model,
        {k: _parse_param(k, v) for k, v in params.items()},
        args.seed,
    )
    rng = random.Random(args.seed)
    routers = topology.routers
    hosts = topology.hosts
    if len(hosts) < 2:
        raise ValueError(f"{args.model} has hosts={len(hosts)}; "
                         "simulate needs at least 2 hosts to pair")
    n_origins = min(args.origins, len(routers))
    origins = sorted(rng.sample(routers, n_origins))
    count = len(hosts) * (len(hosts) - 1) // 2
    pairs = pairs_at(hosts, sorted(rng.sample(range(count), min(args.pairs, count))))
    options = synth.SimOptions(**faults, seed=args.seed)
    report = synth.run_experiment(topology, origins, pairs, options, estimate_options)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    synth.save_topology(topology, outdir / "topology.jsonl")
    for origin, traces in report.traces_by_origin.items():
        ingest.write_canonical(traces, outdir / f"traces_{origin}.jsonl")
    jsonl.write_lines(outdir / "pairs.csv", (f"{a},{b}" for a, b in pairs))
    jsonl.write_lines(outdir / "report.tsv", report.lines())
    _say(args, f"model={args.model} routers={len(routers)} hosts={len(hosts)} "
               f"origins={len(origins)} pairs={len(pairs)}")
    _say(args, f"success_ratio={report.stats.success_ratio:.2f} "
               f"soundness_violations={report.soundness_violations} "
               f"tight_hits={report.tight_hits}")
    _say(args, f"outputs in {outdir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def _add_estimate_flags(parser):
    parser.add_argument("--mode", choices=[transit.HOST, transit.ACCESS_ROUTER],
                        default=transit.ACCESS_ROUTER)
    parser.add_argument("--allow-origin-fallback", action="store_true")
    parser.add_argument("--eps-rtt", type=float, default=0.0,
                        help="tolerance for cumulative RTT decreases, ms")
    parser.add_argument("--couple-metrics", action="store_true",
                        help="take both best bounds from the hop-minimal origin")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgedist",
        description="Edge network distance estimation and handover analysis",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quiet", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse traceroute output to canonical records")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--format", choices=["traceroute-text", "canonical"],
                   default="traceroute-text")
    p.add_argument("--origin", default="origin", help="scanning origin label")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("pairs", help="estimate pair distance bounds")
    p.add_argument("--traces", nargs="+", required=True,
                   help="canonical trace files, one or more origins")
    p.add_argument("--pairs-file", help="CSV with one endpoint pair per line")
    p.add_argument("--max-pairs", type=int,
                   help="seeded subsample when the pair list is larger")
    _add_estimate_flags(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("dist", help="build edge distance distributions")
    p.add_argument("--outcomes", required=True)
    p.add_argument("--rtt-bin-width", type=float, default=5.0)
    p.add_argument("--baseline", help="outcome file of the random baseline")
    p.add_argument("--stability", metavar="SUBSET[:TRIALS]",
                   help="resampling stability check, e.g. 500:20 (TRIALS defaults to 2)")
    p.add_argument("-o", "--output", required=True, help="output path prefix")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("handover", help="expected loss curve and persistence")
    p.add_argument("--outcomes")
    p.add_argument("--dist-tsv", help="RTT distribution TSV instead of outcomes")
    p.add_argument("--grid", default="0:100:5", help="anticipation grid start:stop:step")
    p.add_argument("--beta", type=float, default=0.1)
    p.add_argument("--delay-scale", type=float, default=0.5)
    p.add_argument("--flat-threshold", type=float, default=0.05)
    p.add_argument("--loss-table", help="CSV loss table instead of the default model")
    p.add_argument("--persistence", help="CSV hop,persist_ratio table")
    p.add_argument("--hops-tsv", help="hop distribution TSV for persistence")
    p.add_argument("-o", "--output", required=True, help="curve TSV path")
    p.set_defaults(func=cmd_handover)

    p = sub.add_parser("simulate", help="synthetic topology experiment")
    p.add_argument("--model", choices=[synth.RING_OF_STARS, synth.RANDOM_GEOMETRIC,
                                       synth.TWO_TIER], default=synth.TWO_TIER)
    p.add_argument("--params", default="", help="model parameters, k=v[,k=v...]")
    p.add_argument("--origins", type=int, default=5)
    p.add_argument("--pairs", type=int, default=50)
    p.add_argument("--inject", default="",
                   help="fault injection: asymmetry=,delta=,loops=,block=,jitter=")
    _add_estimate_flags(p)
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Every command builds acyclic data, which reference counting frees; the
    # cyclic collector would only rescan the live traces and estimates, over
    # and over as they accumulate.  The caller's setting is restored, since
    # main also runs in-process.
    gc_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except _NothingAccepted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARTIAL
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL
    finally:
        if gc_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
