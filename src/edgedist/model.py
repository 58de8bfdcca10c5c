"""Core domain types shared by all modules.

Addresses are opaque strings (IPv4 dotted quads in real data, symbolic node
ids in synthetic data); two addresses are equal iff their strings are equal.
Hop positions are 1-based, matching traceroute's TTL numbering.
All types are immutable after construction and have no ``__dict__``: a
campaign holds hundreds of thousands of hops and per-origin entries.
``TracePath``, ``PairEstimate`` and ``RejectReason`` are validated tuple
subclasses on ``_Value``, as are the option, result and report values of
the other modules.  A trace holds its hops as an address column and an RTT
column, with no object per hop (a hop's TTL is its position): the 313,899
hops ``pairs`` reads on ``ingest-wide`` hold 16.9 MB with their 24,000
traces (seed 1, ``tracemalloc``), against 38.4 MB as a tuple per hop and
19.5 MB with a float object per RTT, where the reader shares each file's
equal RTTs (190,570 objects for 299,295 RTTs).  An estimate is one flat
value, its transit's fields beside its bounds, and estimates are shared,
one object per distinct value, under the rule of
``transit._shared_estimate``: on the 300-host ``campaign-dense`` benchmark
(seed 1), 305,018 accepted (pair, origin) entries hold 6,134 distinct
estimates.  A ``PairEstimate`` names no endpoints, which the
``PairOutcome`` that holds it already names.  An outcome is one flat tuple
too, its endpoints, origins and best bounds before its entries: with 10
origins it holds 160 bytes, against 256 as an outcome beside a pair tuple
and an entries tuple, so the 44,850 outcomes of ``campaign-dense`` hold
7.2 MB rather than 11.5 MB.  A frozen dataclass sets each
field through ``object.__setattr__``, which makes it about three times as
slow to build (2.7 against 0.9 us for a ``PairEstimate`` with the same
checks, CPython 3.11, 2-core Xeon), and hashes in Python where a tuple
hashes in C.  The package imports no ``dataclasses`` at all: that module
loads ``inspect``, ``ast`` and ``dis`` (about 13 ms) and execs new source
for each class it builds (about 19 ms for 14 classes, against 2 ms for 14
namedtuples), on every command's startup.  Each value keeps the interface
of a dataclass: field names, defaults, keyword construction, the
``Name(field=value, ...)`` repr, read-only attributes, no ordering, and
equality only with a value of the same type; a result or report is not
hashable, nor is a value that holds a list or dict.  The three tuples here
check field types too: no ``true`` or ``2.0`` for an int, no NaN or negative
RTT.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum


class TraceError(ValueError):
    """Invariant violation while constructing a trace value."""


class RejectKind(Enum):
    UNREACHABLE_DESTINATION = "UnreachableDestination"
    NO_TRANSIT = "NoTransit"
    ASYMMETRY_SUSPECTED = "AsymmetrySuspected"
    LOOP_BEYOND_TRANSIT = "LoopBeyondTransit"
    MISSING_RTT_AT_TRANSIT = "MissingRttAtTransit"

    # members are singletons: hash by identity in C, not by name in Python
    __hash__ = object.__hash__


class _Value(tuple):
    """Value semantics of a frozen dataclass for a tuple subclass: equal
    only to a value of the same type, unordered, and validated by
    ``__new__`` however it is built (``_replace`` goes through ``_make``)."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return type(other) is not type(self) or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

    def _unordered(self, other):
        return NotImplemented

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class RejectReason(_Value, namedtuple("RejectReason", "kind detail")):
    """Why one origin gives no bound for a pair."""

    __slots__ = ()

    def __new__(cls, kind: RejectKind, detail: str = ""):
        if type(kind) is not RejectKind:
            raise TraceError(f"reject kind {kind!r} is not a RejectKind")
        if type(detail) is not str:
            raise TraceError(f"detail {detail!r} is not a string")
        return tuple.__new__(cls, (kind, detail))


class TracePath(_Value, namedtuple(
        "TracePath", "origin_id destination addresses rtts reached timestamp")):
    """One traceroute result toward a destination, as two hop columns in TTL
    order: ``addresses``, None for a silent hop ("* * *"), and ``rtts``, the
    cumulative round trip from the origin in ms, the minimum over the hop's
    probes, or None where none was timed (always at a silent hop)."""

    __slots__ = ()

    def __new__(cls, origin_id: str, destination: str, addresses: tuple[str | None, ...],
                rtts: tuple[float | None, ...], reached: bool, timestamp: float | None = None):
        for name, value in (("origin_id", origin_id), ("destination", destination)):
            if type(value) is not str:
                raise TraceError(f"{name} {value!r} is not a string")
            if not value:
                raise TraceError(f"{name} must be non-empty")
        if type(reached) is not bool:
            raise TraceError(f"reached {reached!r} is not a bool")
        if timestamp is not None and (type(timestamp) not in (int, float)
                                      or not math.isfinite(timestamp)):
            raise TraceError(f"timestamp {timestamp!r} is not a finite number")
        for name, column in (("addresses", addresses), ("rtts", rtts)):
            if type(column) is not tuple:
                raise TraceError(f"{name} is a {type(column).__name__}, not a tuple")
        if len(addresses) != len(rtts):
            raise TraceError(f"{len(addresses)} addresses but {len(rtts)} rtts")
        for pos, address, rtt in zip(range(1, len(rtts) + 1), addresses, rtts):
            if address is None:
                if rtt is not None:
                    raise TraceError(f"hop {pos}: rtt without address")
                continue
            if type(address) is not str:
                raise TraceError(f"address {address!r} is not a string")
            if not address:
                raise TraceError("address must be non-empty or None")
            if rtt is not None:
                if type(rtt) is not float and type(rtt) is not int:
                    raise TraceError(f"hop {pos}: rtt {rtt!r} is not a number")
                if not 0 <= rtt < math.inf:
                    raise TraceError(f"hop {pos}: rtt {rtt} is negative or not finite")
        if reached:
            if not addresses:
                raise TraceError("reached trace must have at least one hop")
            if addresses[-1] != destination:
                raise TraceError(
                    f"reached trace must end at {destination}, "
                    f"last hop is {addresses[-1]}"
                )
        return tuple.__new__(cls, (origin_id, destination, addresses, rtts, reached, timestamp))


class PairEstimate(_Value, namedtuple(
        "PairEstimate",
        "origin_id address index_a index_b is_origin_fallback hop_bound rtt_bound_ms")):
    """Upper bound on hop count and RTT between the two endpoints of a pair,
    seen from one origin via a transit, the last common hop of the two
    traces from that origin.

    ``address`` is the transit's, None only for the origin-fallback case,
    where the scanning origin itself serves as transit and both indices are
    0.  ``index_a`` and ``index_b`` are its hop positions in the traces of
    the pair's first and second endpoint, which are those of the
    ``PairOutcome`` that holds the estimate.  The transit's fields are
    checked before the origin and the bounds.
    """

    __slots__ = ()

    def __new__(cls, origin_id: str, address: str | None, index_a: int, index_b: int,
                is_origin_fallback: bool, hop_bound: int, rtt_bound_ms: float):
        if type(is_origin_fallback) is not bool:
            raise TraceError(f"is_origin_fallback {is_origin_fallback!r} is not a bool")
        if address is not None:
            if type(address) is not str:
                raise TraceError(f"address {address!r} is not a string")
            if not address:
                raise TraceError("address must be non-empty or None")
        for name, index in (("index_a", index_a), ("index_b", index_b)):
            if type(index) is not int:
                raise TraceError(f"{name} {index!r} is not an int")
        if is_origin_fallback:
            if index_a != 0 or index_b != 0:
                raise TraceError("origin fallback transit must sit at (0, 0)")
        else:
            if address is None:
                raise TraceError("non-fallback transit needs an address")
            if index_a < 1 or index_b < 1:
                raise TraceError("transit indices are 1-based")
        if type(origin_id) is not str:
            raise TraceError(f"origin_id {origin_id!r} is not a string")
        if type(hop_bound) is not int:
            raise TraceError(f"hop bound {hop_bound!r} is not an int")
        if hop_bound < 0:
            raise TraceError(f"negative hop bound {hop_bound}")
        if type(rtt_bound_ms) is not float and type(rtt_bound_ms) is not int:
            raise TraceError(f"rtt bound {rtt_bound_ms!r} is not a number")
        if not 0 <= rtt_bound_ms < math.inf:
            raise TraceError(f"rtt bound {rtt_bound_ms} is negative or not finite")
        return tuple.__new__(cls, (origin_id, address, index_a, index_b, is_origin_fallback,
                                   hop_bound, rtt_bound_ms))
