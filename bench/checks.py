"""Output checks for the benchmark, run outside the timed region.

Each check returns a list of problems (strings); an empty list means the
output passed.  Quality ratios are computed against the benchmark's own
ground truth (``gen.Truth``), never against anything the program reports
about itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from gen import Topology, Truth

DELAY_SCALE = 0.5  # the handover command's default --delay-scale


@dataclass
class Quality:
    """Pairs requested, pairs with at least one best bound, and accepted
    pairs whose best bounds undercut the true distance."""

    requested: int = 0
    accepted: int = 0
    unsound: int = 0

    @property
    def accepted_ratio(self) -> float:
        return self.accepted / self.requested if self.requested else 0.0

    @property
    def unsound_ratio(self) -> float:
        return self.unsound / self.accepted if self.accepted else 0.0


def is_unsound(truth: Truth, ra: str, rb: str, hop_bound, rtt_bound, rtt_tol: float) -> bool:
    """A best hop bound below the BFS hop count, or a best RTT bound below
    twice the one-way latency (less ``rtt_tol``), between access routers."""
    if hop_bound is not None and hop_bound < truth.hops(ra, rb):
        return True
    return rtt_bound is not None and rtt_bound < 2 * truth.latency(ra, rb) - rtt_tol - 1e-9


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def check_canonical(path: Path, expected_traces: int) -> list[str]:
    """An ``ingest`` output: one well-formed trace record per host."""
    count = 0
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                rec = json.loads(line)
                if not (rec["origin_id"] and rec["destination"]
                        and isinstance(rec["hops"], list)):
                    return [f"{path.name}: line {lineno}: bad trace record"]
                count += 1
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{path.name}: {exc}"]
    if count != expected_traces:
        return [f"{path.name}: {count} traces, expected {expected_traces}"]
    return []


def _check_record(rec: dict, seen: set, by_address: dict, rtt_samples: list):
    """One outcome record: a problem string, None for a pair without a best
    bound, or (a, b, best hop bound, best RTT bound) for an accepted pair."""
    a, b = rec["pair"]
    if (a, b) in seen or not a < b:
        return f"duplicate or unordered pair {a},{b}"
    seen.add((a, b))
    if a not in by_address or b not in by_address:
        return f"unknown endpoint in {a},{b}"
    best_hop, best_rtt = rec["best_hop"], rec["best_rtt"]
    got_hop = None if best_hop is None else best_hop.get("hop_bound")
    got_rtt = None if best_rtt is None else best_rtt.get("rtt_bound_ms")
    if got_rtt is not None:
        rtt_samples.append(got_rtt)
    accepted = [e for e in rec["per_origin"].values() if "reject" not in e]
    if not all(_finite(e.get("hop_bound")) and _finite(e.get("rtt_bound_ms"))
               for e in accepted + [x for x in (best_hop, best_rtt) if x]):
        return "non-finite or missing bound"
    want_hop = min((e["hop_bound"] for e in accepted), default=None)
    want_rtt = min((e["rtt_bound_ms"] for e in accepted), default=None)
    if got_hop != want_hop or got_rtt != want_rtt:
        return (f"best bounds ({got_hop}, {got_rtt}) != minimum over accepted "
                f"origins ({want_hop}, {want_rtt})")
    if got_hop is None and got_rtt is None:
        return None
    return a, b, got_hop, got_rtt


def check_outcomes(path: Path, topology: Topology, expected_pairs: int,
                   rtt_tol: float) -> tuple[list[str], Quality, list[float]]:
    """Check a ``pairs`` outcome file and score it against the truth.

    Returns the problems, the quality counts, and the best RTT bounds in
    file order (the samples ``dist`` and ``handover`` build on).
    """
    problems: list[str] = []
    quality = Quality(requested=expected_pairs)
    rtt_samples: list[float] = []
    by_address = {addr: node for node, addr in topology.address.items()}
    truth = Truth(topology)
    seen = set()
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        return [f"outcomes unreadable: {exc}"], quality, rtt_samples
    with fh:
        for lineno, line in enumerate(fh, start=1):
            if len(problems) >= 10:
                problems.append("... further problems not listed")
                break
            try:
                problem = _check_record(json.loads(line), seen, by_address, rtt_samples)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                problem = f"malformed record: {exc!r}"
            if isinstance(problem, str):
                problems.append(f"line {lineno}: {problem}")
            elif problem is not None:
                a, b, hop, rtt = problem
                quality.accepted += 1
                ra = topology.attachment[by_address[a]]
                rb = topology.attachment[by_address[b]]
                if is_unsound(truth, ra, rb, hop, rtt, rtt_tol):
                    quality.unsound += 1
    if len(seen) != expected_pairs:
        problems.append(f"{len(seen)} outcome records for {expected_pairs} requested pairs")
    return problems, quality, rtt_samples


def read_tsv_header(path: Path) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
    if not first.startswith("#"):
        raise ValueError(f"{path.name}: missing header comment")
    return dict(tok.split("=", 1) for tok in first[1:].split() if "=" in tok)


def check_dist(prefix: Path, expected_pairs: int) -> list[str]:
    """Both distribution TSVs account for every pair: n + excluded == pairs."""
    problems = []
    for suffix in ("hops", "rtt"):
        path = Path(f"{prefix}.{suffix}.tsv")
        try:
            meta = read_tsv_header(path)
            n, excluded = int(meta["n"]), int(meta["excluded"])
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{path.name}: {exc}")
            continue
        if n + excluded != expected_pairs:
            problems.append(f"{path.name}: n + excluded = {n + excluded}, "
                            f"expected {expected_pairs}")
    return problems


def check_handover(curve: Path, rtt_samples: list[float]) -> list[str]:
    """The reactive point a=0 equals DELAY_SCALE times the RTT mean."""
    try:
        rows = curve.read_text(encoding="utf-8").splitlines()
        a0, loss0, _ = rows[1].split("\t")
        a0, loss0 = float(a0), float(loss0)
    except (OSError, ValueError, IndexError) as exc:
        return [f"{curve.name}: {exc}"]
    if a0 != 0.0 or not rtt_samples:
        return [f"{curve.name}: no a=0 row or no RTT samples"]
    want = DELAY_SCALE * math.fsum(rtt_samples) / len(rtt_samples)
    if not math.isclose(loss0, want, rel_tol=1e-9, abs_tol=1e-12):
        return [f"{curve.name}: loss at a=0 is {loss0}, expected {want}"]
    return []


def load_sim_topology(path: Path) -> Topology:
    """Read the ``topology.jsonl`` that ``simulate`` saves."""
    nodes, edges, attachment = [], {}, {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            kind = rec["type"]
            if kind == "node":
                nodes.append(rec["id"])
            elif kind == "arc":
                edges[(rec["from"], rec["to"])] = float(rec["latency_ms"])
            elif kind == "attach":
                attachment[rec["host"]] = rec["router"]
    return Topology(nodes=nodes, edges=edges, attachment=attachment)


def check_simulate(outdir: Path, expected_pairs: int) -> tuple[list[str], Quality]:
    """Check ``simulate`` outputs against the benchmark's own BFS/Dijkstra."""
    quality = Quality(requested=expected_pairs)
    try:
        topology = load_sim_topology(outdir / "topology.jsonl")
        lines = (outdir / "report.tsv").read_text(encoding="utf-8").splitlines()
        origins = len(list(outdir.glob("traces_*.jsonl")))
    except (OSError, ValueError, KeyError) as exc:
        return [f"simulate outputs unreadable: {exc}"], quality
    truth = Truth(topology)
    problems = []
    rows = [ln.split("\t") for ln in lines[1:] if ln and not ln.startswith("#")]
    footer = dict(
        tok.split("=", 1)
        for ln in lines if ln.startswith("#") for tok in ln[1:].split() if "=" in tok
    )
    if len(rows) != expected_pairs:
        problems.append(f"report has {len(rows)} rows for {expected_pairs} pairs")
    for row in rows:
        if len(problems) >= 10:
            problems.append("... further problems not listed")
            break
        try:
            a, b, true_hops, _, hop_bound, rtt_bound = row[:6]
            ra, rb = topology.attachment[a], topology.attachment[b]
            true_hops = int(true_hops)
            hop = None if hop_bound == "-" else int(hop_bound)
            rtt = None if rtt_bound == "-" else float(rtt_bound)
        except (ValueError, KeyError) as exc:
            problems.append(f"bad report row {row[:2]}: {exc!r}")
            continue
        if true_hops != truth.hops(ra, rb):
            problems.append(f"{a},{b}: report true_hops {true_hops} != BFS {truth.hops(ra, rb)}")
        if rtt is not None and not math.isfinite(rtt):
            problems.append(f"{a},{b}: non-finite rtt bound")
            continue
        if hop is None and rtt is None:
            continue
        quality.accepted += 1
        if is_unsound(truth, ra, rb, hop, rtt, 0.0):
            quality.unsound += 1
    confusion = sum(int(v) for k, v in footer.items() if k.startswith("confusion."))
    if confusion != expected_pairs * origins:
        problems.append(f"confusion total {confusion} != pairs x origins "
                        f"{expected_pairs} x {origins}")
    if footer.get("false_rtt_accepts") != "0":
        problems.append(f"false_rtt_accepts={footer.get('false_rtt_accepts')}")
    return problems, quality
