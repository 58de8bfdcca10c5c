"""Parsing of traceroute output and the canonical line-delimited trace format.

The canonical format is one JSON record per line with fields ``origin_id``,
``destination``, ``timestamp``, ``reached``, ``hops`` (array of
``[ttl, address-or-null, rtt_ms-or-null]``).  Key order is fixed so identical
inputs give byte-identical files; multi-origin campaigns merge by simple file
concatenation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from .jsonl import read_jsonl, write_jsonl
from .model import HopRecord, TraceError, TracePath


@dataclass
class ParseReport:
    parsed: int = 0
    skipped_lines: int = 0
    warnings: list[str] = field(default_factory=list)


_HEADER_RE = re.compile(
    r"^traceroute(?:6)?\s+to\s+(\S+)(?:\s+\((\d+\.\d+\.\d+\.\d+)\))?"
)
_HOP_LINE_RE = re.compile(r"^\s*(\d+)\s+(.*)$")
_IPV4_RE = re.compile(r"^\d+\.\d+\.\d+\.\d+$")


def _parse_hop_body(body: str) -> list[tuple[str | None, float | None]]:
    """Parse the probe sequence of a hop line into (address, rtt) pairs.

    Classic layout: ``name (ip)  t1 ms  t2 ms`` with a new ``name (ip)`` pair
    whenever a later probe was answered by a different node; lone ``*`` marks
    an unanswered probe.  The reverse-DNS name is dropped.  Raises ValueError
    on anything unrecognizable and on a non-finite RTT.
    """
    tokens = body.split()
    probes: list[tuple[str | None, float | None]] = []
    addr: str | None = None
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok == "*":
            probes.append((None, None))
            i += 1
        elif tok.startswith("!"):
            # annotation (!H, !N, ...) attached to the previous probe
            i += 1
        elif tok == "ms":
            raise ValueError("stray 'ms' token")
        elif i + 1 < len(tokens) and tokens[i + 1] == "ms":
            if addr is None:
                raise ValueError("rtt before any address")
            rtt = float(tok)
            if not math.isfinite(rtt):
                raise ValueError(f"non-finite rtt {tok!r}")
            probes.append((addr, rtt))
            i += 2
        else:
            # a responder: either "ip" or "name (ip)"
            if i + 1 < len(tokens) and tokens[i + 1].startswith("("):
                inner = tokens[i + 1].strip("()")
                if not _IPV4_RE.match(inner):
                    raise ValueError(f"bad address {tokens[i + 1]!r}")
                addr = inner
                i += 2
            elif _IPV4_RE.match(tok):
                addr = tok
                i += 1
            else:
                raise ValueError(f"unrecognized token {tok!r}")
    return probes


def _hop_from_probes(ttl, probes) -> HopRecord:
    answered = [probe for probe in probes if probe[1] is not None]
    if not answered:
        return HopRecord(ttl=ttl)
    addr, rtt = min(answered, key=lambda probe: probe[1])
    return HopRecord(ttl=ttl, address=addr, rtt_ms=rtt)


def parse_traceroute_text(text: str, origin_id: str) -> tuple[list[TracePath], ParseReport]:
    """Parse concatenated classic traceroute output into TracePath values.

    Per hop the minimum RTT over responding probes is kept.  A corrupted hop
    line is replaced by an unresponsive hop at its TTL slot and counted in
    ``skipped_lines``; a malformed header skips the whole block.  The stream
    is never aborted.
    """
    if not origin_id:
        raise ValueError("origin_id must be non-empty")
    report = ParseReport()
    traces: list[TracePath] = []

    target: str | None = None
    hops: list[HopRecord] = []

    def flush():
        nonlocal target, hops
        if target is not None:
            reached = bool(hops) and hops[-1].address == target
            try:
                traces.append(
                    TracePath(
                        origin_id=origin_id,
                        destination=target,
                        hops=tuple(hops),
                        reached=reached,
                    )
                )
                report.parsed += 1
            except TraceError as exc:
                report.warnings.append(f"dropped trace to {target}: {exc}")
        target = None
        hops = []

    for line in text.splitlines():
        if not line.strip():
            continue
        header = _HEADER_RE.match(line)
        if header:
            flush()
            target = header.group(2) or header.group(1)
            continue
        hop_match = _HOP_LINE_RE.match(line)
        if hop_match is None:
            report.skipped_lines += 1
            report.warnings.append(f"unrecognized line: {line.strip()!r}")
            continue
        if target is None:
            report.skipped_lines += 1
            report.warnings.append(f"hop line before any header: {line.strip()!r}")
            continue
        ttl = int(hop_match.group(1))
        # fill TTL gaps so hop arithmetic still counts the missing slots
        while len(hops) + 1 < ttl:
            hops.append(HopRecord(ttl=len(hops) + 1))
        if ttl <= len(hops):
            report.skipped_lines += 1
            report.warnings.append(f"out-of-order hop line: {line.strip()!r}")
            continue
        try:
            probes = _parse_hop_body(hop_match.group(2))
            hops.append(_hop_from_probes(ttl, probes))
        except ValueError as exc:
            report.skipped_lines += 1
            report.warnings.append(f"bad hop line ({exc}): {line.strip()!r}")
            hops.append(HopRecord(ttl=ttl))
    flush()
    return traces, report


def trace_to_record(trace: TracePath) -> dict:
    return {
        "origin_id": trace.origin_id,
        "destination": trace.destination,
        "timestamp": trace.timestamp,
        "reached": trace.reached,
        "hops": [[h.ttl, h.address, h.rtt_ms] for h in trace.hops],
    }


def trace_from_record(record: dict) -> TracePath:
    hops = tuple(
        HopRecord(ttl=ttl, address=addr, rtt_ms=rtt)
        for ttl, addr, rtt in record["hops"]
    )
    return TracePath(
        origin_id=record["origin_id"],
        destination=record["destination"],
        hops=hops,
        reached=record["reached"],
        timestamp=record.get("timestamp"),
    )


def write_canonical(traces: list[TracePath], path: str | Path) -> None:
    """Write traces in the canonical format; byte-deterministic for equal input."""
    write_jsonl(path, map(trace_to_record, traces))


def read_canonical(path: str | Path) -> list[TracePath]:
    """Read a canonical trace file; errors name the offending line."""
    return list(read_jsonl(path, trace_from_record, "trace"))
