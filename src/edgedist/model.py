"""Core domain types shared by all modules.

Addresses are opaque strings (IPv4 dotted quads in real data, symbolic node
ids in synthetic data); two addresses are equal iff their strings are equal.
Hop positions are 1-based, matching traceroute's TTL numbering.
All types are immutable after construction and have no ``__dict__``: a
campaign holds hundreds of thousands of hops and estimates.  Most are slotted
frozen dataclasses.  ``TransitPoint`` and ``PairEstimate`` are validated tuple
subclasses instead, because a ``PairEstimate`` is built for each accepted
(pair, origin): on the benchmark's 300-host, 10-origin campaign that is
321,206 in ``pairs`` and as many again in each of the three outcome reads of
``dist`` and ``handover``, about 1.28M per pass.  A frozen dataclass sets each
field through ``object.__setattr__``, which makes it more than twice as slow
to build: 1.14 against 0.48 us for a ``PairEstimate`` and 0.92 against 0.43
us for a ``TransitPoint`` (CPython 3.11, 2-core Xeon).  A tuple takes 16
bytes more memory per instance (8 by ``sys.getsizeof``, rounded up by the
allocator), which sharing its field values (one transit point per distinct
transit, one string per origin name) more than pays for.  Both
keep the dataclass interface: field names, defaults, ``repr``, hashing,
read-only attributes, no ordering, and equality only with a value of the
same type.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum


class TraceError(ValueError):
    """Invariant violation while constructing a trace value."""


class RejectKind(Enum):
    UNREACHABLE_DESTINATION = "UnreachableDestination"
    NO_TRANSIT = "NoTransit"
    ASYMMETRY_SUSPECTED = "AsymmetrySuspected"
    LOOP_BEYOND_TRANSIT = "LoopBeyondTransit"
    MISSING_RTT_AT_TRANSIT = "MissingRttAtTransit"


@dataclass(frozen=True, slots=True)
class RejectReason:
    kind: RejectKind
    detail: str = ""


@dataclass(frozen=True, slots=True)
class HopRecord:
    """One TTL step of a trace.

    ``address`` is None for an unresponsive hop (the "* * *" case).
    ``rtt_ms`` is the cumulative round trip from the origin, in milliseconds,
    finite and non-negative; when a hop answered multiple probes the minimum
    is stored.  ``name`` is a reverse-DNS annotation only and never takes
    part in identity.
    """

    ttl: int
    address: str | None = None
    rtt_ms: float | None = None
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.ttl < 1:
            raise TraceError(f"ttl must be >= 1, got {self.ttl}")
        if self.address is not None and not self.address:
            raise TraceError("address must be non-empty or None")
        if self.rtt_ms is not None:
            if self.address is None:
                raise TraceError(f"hop {self.ttl}: rtt without address")
            if not 0 <= self.rtt_ms < math.inf:
                raise TraceError(f"hop {self.ttl}: rtt {self.rtt_ms} is negative or not finite")

    @property
    def responsive(self) -> bool:
        return self.address is not None


@dataclass(frozen=True, slots=True)
class TracePath:
    """One traceroute result: ordered hops from an origin toward a destination."""

    origin_id: str
    destination: str
    hops: tuple[HopRecord, ...]
    reached: bool
    timestamp: float | None = None

    def __post_init__(self):
        if not self.origin_id:
            raise TraceError("origin_id must be non-empty")
        if not self.destination:
            raise TraceError("destination must be non-empty")
        object.__setattr__(self, "hops", tuple(self.hops))
        for i, hop in enumerate(self.hops, start=1):
            if hop.ttl != i:
                raise TraceError(
                    f"ttl gap at position {i}: expected ttl {i}, got {hop.ttl}"
                )
        if self.reached:
            if not self.hops:
                raise TraceError("reached trace must have at least one hop")
            last = self.hops[-1]
            if last.address != self.destination:
                raise TraceError(
                    f"reached trace must end at {self.destination}, "
                    f"last hop is {last.address}"
                )

    def __len__(self) -> int:
        return len(self.hops)

    def hop(self, position: int) -> HopRecord:
        """Hop at 1-based position (== its TTL)."""
        return self.hops[position - 1]


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


class TransitPoint(
    _Value, namedtuple("TransitPoint", "address index_a index_b is_origin_fallback")
):
    """Last common hop of two traces from one origin.

    ``address`` is None only for the origin-fallback case, where the scanning
    origin itself serves as transit and both indices are 0.
    """

    __slots__ = ()

    def __new__(cls, address: str | None, index_a: int, index_b: int,
                is_origin_fallback: bool = False):
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
    _Value,
    namedtuple("PairEstimate",
               "endpoint_a endpoint_b origin_id transit hop_bound rtt_bound_ms"),
):
    """Upper bound on hop count and RTT between two endpoints via a transit."""

    __slots__ = ()

    def __new__(cls, endpoint_a: str, endpoint_b: str, origin_id: str,
                transit: TransitPoint, hop_bound: int, rtt_bound_ms: float):
        if type(hop_bound) is not int:
            raise TraceError(f"hop bound {hop_bound!r} is not an int")
        if hop_bound < 0:
            raise TraceError(f"negative hop bound {hop_bound}")
        if not 0 <= rtt_bound_ms < math.inf:
            raise TraceError(f"rtt bound {rtt_bound_ms} is negative or not finite")
        return tuple.__new__(
            cls, (endpoint_a, endpoint_b, origin_id, transit, hop_bound, rtt_bound_ms))
