"""Parsing of traceroute output and the canonical line-delimited trace format.

The canonical format is one JSON record per line with fields ``origin_id``,
``destination``, ``timestamp``, ``reached``, ``hops`` (array of
``[ttl, address-or-null, rtt_ms-or-null]``).  Key order is fixed so identical
inputs give byte-identical files; multi-origin campaigns merge by simple file
concatenation.
"""

from __future__ import annotations

import ipaddress
import math
import re
from collections import namedtuple
from collections.abc import Callable
from pathlib import Path

from .jsonl import expect_object, read_jsonl, write_jsonl
from .model import TraceError, TracePath, _Value


class ParseReport(_Value, namedtuple("ParseReport", "parsed skipped_lines warnings")):
    """Traces parsed, lines skipped, and the warning for each skipped line."""

    __slots__ = ()
    __hash__ = None  # warnings is a list

    def __new__(cls, parsed: int = 0, skipped_lines: int = 0, warnings: list[str] | None = None):
        return tuple.__new__(cls, (parsed, skipped_lines, [] if warnings is None else warnings))


_HEADER_RE = re.compile(r"^traceroute(?:6)?\s+to\s+(\S+)(?:\s+\(([^\s()]+)\))?")
# numbers are in ASCII digits: \d, int() and float() also take other
# scripts' digits, and float() reads "1_0" as 10.0
_HOP_LINE_RE = re.compile(r"^\s*([0-9]+)\s+(.*)$")
MAX_TTL = 255  # IP TTL and IPv6 hop limit are 8-bit fields
# an octet 0-255 without a leading zero, so each address has one spelling
_OCTET = "(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
_IPV4_RE = re.compile(rf"{_OCTET}\.{_OCTET}\.{_OCTET}\.{_OCTET}")
# the common hop line, whole: "TTL  address  t1 ms  t2 ms  t3 ms", or with
# "name (address)" for the address, in spaces and ASCII digits.  A name is
# never "ms", and starts with no "*", "!" or "(", which the token reader
# would read otherwise; an RTT has at most 9 digits before its point, so
# float() of it is finite.  Whether the TTL is the next one and the address
# is IPv4 is checked in Python.
_RTT = "([0-9]{1,9}(?:\\.[0-9]+)?) ms"
_COMMON_HOP_RE = re.compile(
    rf" *([0-9]+) +(?:([0-9.]+)|(?!ms )[-\w.]+ +\(([0-9.]+)\)) +{_RTT} +{_RTT} +{_RTT} *")
_TTLS = {str(ttl): ttl for ttl in range(1, MAX_TTL + 1)}  # TTL text without leading zeros


def _address(token: str) -> str | None:
    """``token`` as an address: IPv4 text as it is, IPv6 compressed, else None."""
    if _IPV4_RE.fullmatch(token):
        return token
    try:
        return ipaddress.IPv6Address(token).compressed if ":" in token else None
    except ValueError:
        return None


def _parse_hop(ttl: int, body: str,
               share: Callable[[str, str], str]) -> tuple[str | None, float | None]:
    """The (address, RTT) of the hop at ``ttl`` from the probe sequence of
    its line, in one pass; (None, None) when no probe was answered.

    Classic layout: ``name (ip)  t1 ms  t2 ms`` with a new ``name (ip)`` pair
    whenever a later probe was answered by a different node; lone ``*`` marks
    an unanswered probe and ``!H``-style annotations are skipped.  The hop
    keeps the minimum RTT and the earliest responder that gave it, without
    its reverse-DNS name; ``share(address, address)`` gives the address
    string to keep.
    Raises ValueError at the first unrecognizable token, RTT that is not
    ASCII or holds an underscore, or non-finite RTT, and on a negative
    minimum, which ``TracePath`` would refuse.
    """
    addr = best_addr = best_rtt = None
    word = None  # the previous token, whose meaning this one decides
    for tok in body.split():
        if word is not None:
            if tok == "ms":
                if addr is None:
                    raise ValueError("rtt before any address")
                if not word.isascii() or "_" in word:
                    raise ValueError(f"bad rtt {word!r}")
                rtt = float(word)
                if not math.isfinite(rtt):
                    raise ValueError(f"non-finite rtt {word!r}")
                if best_rtt is None or rtt < best_rtt:
                    best_addr, best_rtt = addr, rtt
                word = None
                continue
            if tok[0] == "(":
                # "name (ip)": word was the name
                addr = _address(tok.strip("()"))
                if addr is None:
                    raise ValueError(f"bad address {tok!r}")
                word = None
                continue
            addr = _address(word)
            if addr is None:
                raise ValueError(f"unrecognized token {word!r}")
            word = None
        if tok == "*" or tok[0] == "!":
            continue
        if tok == "ms":
            raise ValueError("stray 'ms' token")
        word = tok
    if word is not None and _address(word) is None:
        raise ValueError(f"unrecognized token {word!r}")
    if best_addr is None:
        return None, None
    if best_rtt < 0:
        raise ValueError(f"hop {ttl}: rtt {best_rtt} is negative or not finite")
    return share(best_addr, best_addr), best_rtt


def parse_traceroute_text(text: str, origin_id: str) -> tuple[list[TracePath], ParseReport]:
    """Parse concatenated classic traceroute output into TracePath values.

    The common hop line, one IPv4 responder answering three probes at the
    next TTL, is matched whole by one regex, which gives the hop that the
    token reader (``_parse_hop``) would; every other line is read token by
    token.
    Addresses are IPv4 or IPv6, kept compressed so that a ``traceroute6``
    header and its last hop compare equal.  Per hop the minimum RTT over
    responding probes is kept.  A corrupted hop line is replaced by an
    unresponsive hop at its TTL slot and counted in ``skipped_lines``; one
    whose TTL is outside 1..``MAX_TTL`` is counted and pads nothing, and a
    malformed header skips the whole block.  The stream is never aborted.
    Each address and destination string is shared, so the traces hold one
    object per distinct string.
    """
    if not origin_id:
        raise ValueError("origin_id must be non-empty")
    traces: list[TracePath] = []
    warnings: list[str] = []  # one per skipped line
    share = {}.setdefault  # one object per distinct string
    ipv4 = {}  # token -> its shared string if it is an IPv4 address, else ""

    target: str | None = None
    addresses, rtts = [], []  # the columns of the trace being read

    def flush():
        nonlocal target, addresses, rtts
        if target is not None:
            # valid by construction: reached only at the target
            reached = bool(addresses) and addresses[-1] == target
            traces.append(TracePath(origin_id, target, tuple(addresses), tuple(rtts), reached))
        target = None
        addresses, rtts = [], []

    for line in text.splitlines():
        common = _COMMON_HOP_RE.fullmatch(line)
        if common is not None and target is not None:
            ttl, plain, named, rtt1, rtt2, rtt3 = common.groups()
            token = plain or named
            address = ipv4.get(token)
            if address is None:
                address = ipv4[token] = share(token, token) if _IPV4_RE.fullmatch(token) else ""
            if address and _TTLS.get(ttl) == len(addresses) + 1:
                # min() of the three, without the call
                rtt, rtt2, rtt3 = float(rtt1), float(rtt2), float(rtt3)
                if rtt2 < rtt:
                    rtt = rtt2
                if rtt3 < rtt:
                    rtt = rtt3
                addresses.append(address)
                rtts.append(rtt)
                continue
        # hop lines come first: no hop line matches a header, nor is blank
        hop_match = _HOP_LINE_RE.match(line)
        if hop_match is None:
            header = _HEADER_RE.match(line)
            if header:
                flush()
                name, paren = header.groups()
                target = (paren and _address(paren)) or _address(name) or name
                target = share(target, target)
            elif line.strip():
                warnings.append(f"unrecognized line: {line.strip()!r}")
            continue
        if target is None:
            warnings.append(f"hop line before any header: {line.strip()!r}")
            continue
        digits, body = hop_match.groups()
        ttl = int(digits) if len(digits) <= 3 else 0  # int() of 5000 digits raises
        if not 1 <= ttl <= MAX_TTL:
            warnings.append(f"bad hop line (ttl outside 1..{MAX_TTL}): {line.strip()!r}")
            continue
        # fill TTL gaps so hop arithmetic still counts the missing slots
        gap = ttl - 1 - len(addresses)
        if gap < 0:
            warnings.append(f"out-of-order hop line: {line.strip()!r}")
            continue
        addresses += [None] * gap
        rtts += [None] * gap
        try:
            address, rtt = _parse_hop(ttl, body, share)
        except ValueError as exc:
            warnings.append(f"bad hop line ({exc}): {line.strip()!r}")
            address = rtt = None
        addresses.append(address)
        rtts.append(rtt)
    flush()
    return traces, ParseReport(len(traces), len(warnings), warnings)


def trace_to_record(trace: TracePath) -> dict:
    # each hop is a (ttl, address, rtt_ms) tuple, which encodes as an array
    addresses = trace.addresses
    return {
        "origin_id": trace.origin_id,
        "destination": trace.destination,
        "timestamp": trace.timestamp,
        "reached": trace.reached,
        "hops": list(zip(range(1, len(addresses) + 1), addresses, trace.rtts)),
    }


def trace_from_record(record: dict, names: dict) -> TracePath:
    """Decode one canonical record.  Each address, origin and destination
    string, and each non-zero float RTT, is shared through ``names``, so a
    file's traces hold one object per distinct string and per distinct
    RTT; any other value is left for validation to reject.  An int RTT and
    a zero stay as read: sharing by value would merge ``5`` with ``5.0``
    and ``0.0`` with ``-0.0``, which encode differently.  Each hop must be
    a ``[ttl, address, rtt]`` array whose ttl is its position."""
    share = names.setdefault
    addresses, rtts = [], []
    for pos, hop in enumerate(expect_object(record)["hops"], start=1):
        if type(hop) is not list or len(hop) != 3:
            raise TraceError(f"hop {pos}: {hop!r} is not a [ttl, address, rtt] array")
        ttl, address, rtt = hop
        if type(ttl) is not int:
            raise TraceError(f"ttl {ttl!r} is not an int")
        if ttl != pos:
            raise TraceError(f"ttl gap at position {pos}: expected ttl {pos}, got {ttl}")
        addresses.append(share(address, address) if type(address) is str else address)
        rtts.append(share(rtt, rtt) if type(rtt) is float and rtt else rtt)
    origin, destination = record["origin_id"], record["destination"]
    return TracePath(
        origin_id=share(origin, origin) if type(origin) is str else origin,
        destination=share(destination, destination) if type(destination) is str else destination,
        addresses=tuple(addresses),
        rtts=tuple(rtts),
        reached=record["reached"],
        timestamp=record.get("timestamp"),
    )


def write_canonical(traces: list[TracePath], path: str | Path) -> None:
    """Write traces in the canonical format; byte-deterministic for equal input."""
    write_jsonl(path, map(trace_to_record, traces))


def read_canonical(path: str | Path) -> list[TracePath]:
    """Read a canonical trace file; errors name the offending line.  The
    traces share their strings and non-zero float RTTs through one table
    per file (see ``trace_from_record``), dropped when the read ends."""
    names: dict = {}
    return list(read_jsonl(path, lambda record: trace_from_record(record, names), "trace"))
