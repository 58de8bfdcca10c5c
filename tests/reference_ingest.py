"""Reference hop-line parser, kept as a test oracle.

``_parse_hop_body`` and ``_hop_from_probes`` are the two-pass hop parser as
it was before ``ingest._parse_hop``: the first builds the list of every
probe, the second filters the answered ones and takes a lambda-keyed ``min``
(which keeps the earliest of equal RTTs).  The differential tests compare
``edgedist.ingest`` against them hop line by hop line and text by text.
``_is_ipv4`` checks the octets by value, where the package uses one regex.
"""

from __future__ import annotations

import math

from edgedist.model import HopRecord


def _is_ipv4(text: str) -> bool:
    """Four dot-separated octets 0-255 in ASCII digits, with no leading zero."""
    parts = text.split(".")
    return len(parts) == 4 and all(
        part.isascii() and part.isdigit() and int(part) <= 255 and str(int(part)) == part
        for part in parts)


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
                inner = tokens[i + 1].strip("()")
                if not _is_ipv4(inner):
                    raise ValueError(f"bad address {tokens[i + 1]!r}")
                addr = inner
                i += 2
            elif _is_ipv4(tok):
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


def parse_hop(ttl: int, body: str) -> HopRecord:
    """The reference for ``ingest._parse_hop``."""
    return _hop_from_probes(ttl, _parse_hop_body(body))
