"""Reference traceroute text parser, kept as a test oracle.

``_parse_hop_body`` and ``_hop_from_probes`` are the two-pass hop parser as
it was before ``ingest._parse_hop``: the first builds the list of every
probe, the second filters the answered ones and takes a lambda-keyed ``min``
(which keeps the earliest of equal RTTs).  ``parse_traceroute_text`` is the
whole-text loop as it was before the package matched the common hop line
whole: it reads every hop line through ``parse_hop``.  The differential
tests compare ``edgedist.ingest`` against them hop line by hop line and
text by text.  ``_address`` checks IPv4 octets by value, where the package
uses one regex.
"""

from __future__ import annotations

import ipaddress
import math
import re

from edgedist.ingest import MAX_TTL, ParseReport
from edgedist.model import TracePath

_HEADER_RE = re.compile(r"traceroute6?\s+to\s+(\S+)(?:\s+\(([^\s()]+)\))?")
_HOP_LINE_RE = re.compile(r"\s*([0-9]+)\s+(.*)")


def _is_ipv4(text: str) -> bool:
    """Four dot-separated octets 0-255 in ASCII digits, with no leading zero."""
    parts = text.split(".")
    return len(parts) == 4 and all(
        part.isascii() and part.isdigit() and int(part) <= 255 and str(int(part)) == part
        for part in parts)


def _address(text: str) -> str | None:
    """``text`` as an address: IPv4 as it is, IPv6 compressed, else None."""
    if _is_ipv4(text):
        return text
    if ":" not in text:
        return None
    try:
        return ipaddress.IPv6Address(text).compressed
    except ValueError:
        return None


def _parse_hop_body(body: str) -> list[tuple[str | None, float | None]]:
    """Parse the probe sequence of a hop line into (address, rtt) pairs.

    Classic layout: ``name (ip)  t1 ms  t2 ms`` with a new ``name (ip)`` pair
    whenever a later probe was answered by a different node; lone ``*`` marks
    an unanswered probe.  The reverse-DNS name is dropped.  Raises ValueError
    on anything unrecognizable, on an RTT that is not in ASCII or holds an
    underscore, and on a non-finite RTT.
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
            if not tok.isascii() or "_" in tok:
                raise ValueError(f"bad rtt {tok!r}")
            rtt = float(tok)
            if not math.isfinite(rtt):
                raise ValueError(f"non-finite rtt {tok!r}")
            probes.append((addr, rtt))
            i += 2
        else:
            # a responder: either "ip" or "name (ip)"
            if i + 1 < len(tokens) and tokens[i + 1].startswith("("):
                addr = _address(tokens[i + 1].strip("()"))
                if addr is None:
                    raise ValueError(f"bad address {tokens[i + 1]!r}")
                i += 2
            else:
                addr = _address(tok)
                if addr is None:
                    raise ValueError(f"unrecognized token {tok!r}")
                i += 1
    return probes


def _hop_from_probes(ttl, probes) -> tuple[str | None, float | None]:
    answered = [probe for probe in probes if probe[1] is not None]
    if not answered:
        return None, None
    addr, rtt = min(answered, key=lambda probe: probe[1])
    if rtt < 0:
        raise ValueError(f"hop {ttl}: rtt {rtt} is negative or not finite")
    return addr, rtt


def parse_hop(ttl: int, body: str) -> tuple[str | None, float | None]:
    """The reference for ``ingest._parse_hop``: the hop's (address, rtt)."""
    return _hop_from_probes(ttl, _parse_hop_body(body))


def parse_traceroute_text(text: str, origin_id: str) -> tuple[list[TracePath], ParseReport]:
    """The reference for ``ingest.parse_traceroute_text``: each hop line is
    read by ``parse_hop``, one TTL slot per line, with silent hops filling
    TTL gaps."""
    if not origin_id:
        raise ValueError("origin_id must be non-empty")
    traces: list[TracePath] = []
    warnings: list[str] = []
    target = None
    hops: list[tuple[str | None, float | None]] = []

    def flush():
        if target is not None:
            reached = bool(hops) and hops[-1][0] == target
            traces.append(TracePath(origin_id, target, tuple(addr for addr, _ in hops),
                                    tuple(rtt for _, rtt in hops), reached))

    for line in text.splitlines():
        hop_match = _HOP_LINE_RE.fullmatch(line)
        if hop_match is None:
            header = _HEADER_RE.match(line)
            if header:
                flush()
                name, paren = header.groups()
                target = (paren and _address(paren)) or _address(name) or name
                hops = []
            elif line.strip():
                warnings.append(f"unrecognized line: {line.strip()!r}")
            continue
        if target is None:
            warnings.append(f"hop line before any header: {line.strip()!r}")
            continue
        digits, body = hop_match.groups()
        ttl = int(digits) if len(digits) <= 3 else 0
        if not 1 <= ttl <= MAX_TTL:
            warnings.append(f"bad hop line (ttl outside 1..{MAX_TTL}): {line.strip()!r}")
            continue
        if ttl <= len(hops):
            warnings.append(f"out-of-order hop line: {line.strip()!r}")
            continue
        hops += [(None, None)] * (ttl - 1 - len(hops))
        try:
            hops.append(parse_hop(ttl, body))
        except ValueError as exc:
            warnings.append(f"bad hop line ({exc}): {line.strip()!r}")
            hops.append((None, None))
    flush()
    return traces, ParseReport(len(traces), len(warnings), warnings)
