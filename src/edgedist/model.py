"""Core domain types shared by all modules.

Addresses are opaque strings (IPv4 dotted quads in real data, symbolic node
ids in synthetic data); two addresses are equal iff their strings are equal.
Hop positions are 1-based, matching traceroute's TTL numbering.
All types are immutable after construction and have no ``__dict__``: a
campaign holds hundreds of thousands of hops and per-origin entries.
``TracePath``, ``HopRecord``, ``TransitPoint``, ``PairEstimate`` and
``RejectReason`` are validated tuple subclasses on ``_Value``, as are the
option, result and report values of the other modules.  Hops are built one
per hop line: about 314,000 on the ``ingest-wide`` benchmark, each read back
by ``pairs``.  Transit points and estimates are shared, one object per
distinct value, under the rule of ``transit._shared_estimate``: on the
300-host ``campaign-dense`` benchmark, 321,206 accepted (pair, origin)
entries hold 11,056 distinct estimates and 234 transits.  A
``PairEstimate`` names no endpoints, which the ``PairOutcome`` that holds it
already names.  A frozen dataclass sets each field through
``object.__setattr__``, which makes it up to twice as slow to build (1.14
against 0.48 us for a ``PairEstimate``, CPython 3.11, 2-core Xeon), and
hashes in Python where a tuple hashes in C.  The package imports no
``dataclasses`` at all: that module loads ``inspect``, ``ast`` and ``dis``
(about 13 ms) and execs new source for each class it builds (about 19 ms
for 14 classes, against 2 ms for 14 namedtuples), on every command's
startup.  Each value keeps the interface of a dataclass: field names,
defaults, keyword construction, the ``Name(field=value, ...)`` repr,
read-only attributes, no ordering, and equality only with a value of the
same type; a result or report is not hashable, nor is a value that holds a
list or dict.  ``TracePath`` and the four tuples here check field types
too: no ``true`` or ``2.0`` for an int.
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


class HopRecord(_Value, namedtuple("HopRecord", "ttl address rtt_ms")):
    """One TTL step of a trace.

    ``address`` is None for an unresponsive hop (the "* * *" case).
    ``rtt_ms`` is the cumulative round trip from the origin, in milliseconds,
    finite and non-negative; when a hop answered multiple probes the minimum
    is stored.
    """

    __slots__ = ()

    def __new__(cls, ttl: int, address: str | None = None, rtt_ms: float | None = None):
        if type(ttl) is not int:
            raise TraceError(f"ttl {ttl!r} is not an int")
        if ttl < 1:
            raise TraceError(f"ttl must be >= 1, got {ttl}")
        if address is not None:
            if type(address) is not str:
                raise TraceError(f"address {address!r} is not a string")
            if not address:
                raise TraceError("address must be non-empty or None")
        if rtt_ms is not None:
            if address is None:
                raise TraceError(f"hop {ttl}: rtt without address")
            if type(rtt_ms) is not float and type(rtt_ms) is not int:
                raise TraceError(f"hop {ttl}: rtt {rtt_ms!r} is not a number")
            if not 0 <= rtt_ms < math.inf:
                raise TraceError(f"hop {ttl}: rtt {rtt_ms} is negative or not finite")
        return tuple.__new__(cls, (ttl, address, rtt_ms))

    @property
    def responsive(self) -> bool:
        return self.address is not None


class TracePath(_Value, namedtuple("TracePath", "origin_id destination hops reached timestamp")):
    """One traceroute result: ordered hops from an origin toward a destination."""

    __slots__ = ()

    def __new__(cls, origin_id: str, destination: str, hops: tuple[HopRecord, ...],
                reached: bool, timestamp: float | None = None):
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
        hops = tuple(hops)
        for i, hop in enumerate(hops, start=1):
            if hop.ttl != i:
                raise TraceError(f"ttl gap at position {i}: expected ttl {i}, got {hop.ttl}")
        if reached:
            if not hops:
                raise TraceError("reached trace must have at least one hop")
            last = hops[-1]
            if last.address != destination:
                raise TraceError(
                    f"reached trace must end at {destination}, "
                    f"last hop is {last.address}"
                )
        return tuple.__new__(cls, (origin_id, destination, hops, reached, timestamp))


class TransitPoint(
    _Value, namedtuple("TransitPoint", "address index_a index_b is_origin_fallback")
):
    """Last common hop of two traces from one origin.

    ``address`` is None only for the origin-fallback case, where the scanning
    origin itself serves as transit and both indices are 0.  The indices are
    hop positions in the traces of the pair's first and second endpoint.
    """

    __slots__ = ()

    def __new__(cls, address: str | None, index_a: int, index_b: int,
                is_origin_fallback: bool = False):
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
        return tuple.__new__(cls, (address, index_a, index_b, is_origin_fallback))


class PairEstimate(
    _Value, namedtuple("PairEstimate", "origin_id transit hop_bound rtt_bound_ms")
):
    """Upper bound on hop count and RTT between the two endpoints of a pair,
    seen from one origin via a transit.  The endpoints are those of the
    ``PairOutcome`` that holds it, in the same order as the transit's
    indices."""

    __slots__ = ()

    def __new__(cls, origin_id: str, transit: TransitPoint, hop_bound: int,
                rtt_bound_ms: float):
        if type(origin_id) is not str:
            raise TraceError(f"origin_id {origin_id!r} is not a string")
        if type(transit) is not TransitPoint:
            raise TraceError(f"transit {transit!r} is not a TransitPoint")
        if type(hop_bound) is not int:
            raise TraceError(f"hop bound {hop_bound!r} is not an int")
        if hop_bound < 0:
            raise TraceError(f"negative hop bound {hop_bound}")
        if type(rtt_bound_ms) is not float and type(rtt_bound_ms) is not int:
            raise TraceError(f"rtt bound {rtt_bound_ms!r} is not a number")
        if not 0 <= rtt_bound_ms < math.inf:
            raise TraceError(f"rtt bound {rtt_bound_ms} is negative or not finite")
        return tuple.__new__(cls, (origin_id, transit, hop_bound, rtt_bound_ms))
