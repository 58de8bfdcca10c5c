"""Transit-point discovery and pair distance upper bounds.

For two traces from the same origin, the last common hop acts as a transit
point; composing the two path tails through it bounds the hop count and RTT
between the destinations from above.  Minimizing those bounds over several
origins tightens the estimate.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .jsonl import read_jsonl, write_jsonl
from .model import (
    PairEstimate,
    RejectKind,
    RejectReason,
    TracePath,
    TransitPoint,
)

HOST = "host"
ACCESS_ROUTER = "access_router"

# shared by every result that needs them (both types are frozen)
_ORIGIN_FALLBACK = TransitPoint(address=None, index_a=0, index_b=0, is_origin_fallback=True)
_NO_TRANSIT = RejectReason(RejectKind.NO_TRANSIT, "no common responsive hop")
_NO_TRACE = RejectReason(RejectKind.NO_TRANSIT, "no trace")


@dataclass(frozen=True)
class EstimateOptions:
    mode: str = ACCESS_ROUTER
    allow_origin_fallback: bool = False
    eps_rtt: float = 0.0
    couple_metrics: bool = False

    def __post_init__(self):
        if self.mode not in (HOST, ACCESS_ROUTER):
            raise ValueError(f"unknown endpoint mode {self.mode!r}")
        if not 0 <= self.eps_rtt < math.inf:
            raise ValueError(f"eps_rtt must be finite and >= 0, got {self.eps_rtt}")


@dataclass(slots=True)
class PairOutcome:
    pair: tuple[str, str]
    per_origin: dict[str, PairEstimate | RejectReason]
    best_hop: PairEstimate | None = None
    best_rtt: PairEstimate | None = None

    @property
    def accepted(self) -> bool:
        return self.best_hop is not None or self.best_rtt is not None


@dataclass
class BatchStats:
    total_pairs: int
    succeeded: int
    reject_counts: Counter = field(default_factory=Counter)

    @property
    def success_ratio(self) -> float:
        return self.succeeded / self.total_pairs if self.total_pairs else 0.0


def endpoint_of(trace: TracePath, mode: str = ACCESS_ROUTER) -> int:
    """1-based hop position of the distance endpoint for this trace.

    ``host`` mode uses the destination hop itself; ``access_router`` mode uses
    the last responsive hop strictly before it, falling back to the
    destination hop when no such hop exists.
    """
    if not trace.reached:
        raise ValueError("endpoint_of requires a reached trace")
    n = len(trace.hops)
    if mode == HOST:
        return n
    if mode != ACCESS_ROUTER:
        raise ValueError(f"unknown endpoint mode {mode!r}")
    for pos in range(n - 1, 0, -1):
        if trace.hop(pos).responsive:
            return pos
    return n


def last_common_hop(
    path_a: TracePath,
    path_b: TracePath,
    allow_origin_fallback: bool = False,
    limit_a: int | None = None,
    limit_b: int | None = None,
) -> TransitPoint | RejectReason:
    """Find the transit point for two traces sharing an origin.

    Among addresses responsive in both paths (up to the optional position
    limits) the one maximizing index_a + index_b wins; ties go to the larger
    index_a.  No further tie-break is needed: two candidates with equal
    index_a + index_b and equal index_a have equal index_b too, so they are
    the same hop of path b.  Without a common address the origin itself may
    serve as a (loose) transit at (0, 0).
    """
    if path_a.origin_id != path_b.origin_id:
        raise ValueError(
            f"traces from different origins: {path_a.origin_id} vs {path_b.origin_id}"
        )
    for path in (path_a, path_b):
        if not path.reached:
            return RejectReason(
                RejectKind.UNREACHABLE_DESTINATION,
                f"destination {path.destination} not reached",
            )
    limit_a = len(path_a.hops) if limit_a is None else limit_a
    limit_b = len(path_b.hops) if limit_b is None else limit_b
    best = _join(
        _deepest_positions(path_a, limit_a),
        limit_a,
        _deepest_positions(path_b, limit_b),
    )
    if best is not None:
        return TransitPoint(*best)
    if allow_origin_fallback:
        return _ORIGIN_FALLBACK
    return _NO_TRANSIT


def _deepest_positions(trace: TracePath, limit: int) -> dict[str, int]:
    """Deepest position of each responsive address within hops 1..limit,
    in decreasing position order."""
    if not 0 <= limit <= len(trace.hops):
        raise ValueError(f"position limit {limit} outside a {len(trace.hops)}-hop trace")
    positions: dict[str, int] = {}
    for pos in range(limit, 0, -1):
        address = trace.hops[pos - 1].address
        if address is not None and address not in positions:
            positions[address] = pos
    return positions


def _join(
    positions_a: dict[str, int],
    limit_a: int,
    positions_b: dict[str, int],
) -> tuple[str, int, int] | None:
    """The transit scan shared by last_common_hop and estimate_pair: the
    winning (address, index_a, index_b), or None without a common address.

    Scans b deepest first, so a later candidate with an equal index sum
    has the larger index_a and wins; stops once no index_a up to limit_a
    can reach the best sum.
    """
    best = None
    best_sum = 0
    for address, ib in positions_b.items():
        if ib + limit_a < best_sum:
            break
        ia = positions_a.get(address)
        if ia is not None and ia + ib >= best_sum:
            best_sum = ia + ib
            best = (address, ia, ib)
    return best


def validate_beyond_transit(
    trace: TracePath,
    transit_pos: int,
    endpoint_pos: int,
    eps_rtt: float = 0.0,
) -> RejectReason | None:
    """Check the path segment from transit to endpoint; None means accepted.

    Cumulative RTT over responsive hops must be non-decreasing within
    ``eps_rtt`` (a decrease signals route asymmetry) and no address may
    repeat (a routing loop).  transit_pos 0 means origin fallback and
    validates the whole path.
    """
    if not (0 <= transit_pos <= endpoint_pos <= len(trace.hops)):
        raise ValueError(
            f"bad segment [{transit_pos}, {endpoint_pos}] in a "
            f"{len(trace.hops)}-hop trace"
        )
    if transit_pos >= 1 and trace.hop(transit_pos).rtt_ms is None:
        return RejectReason(
            RejectKind.MISSING_RTT_AT_TRANSIT,
            f"no rtt at transit hop {transit_pos}",
        )
    prev_rtt = None
    seen: set[str] = set()
    for pos in range(max(transit_pos, 1), endpoint_pos + 1):
        hop = trace.hop(pos)
        if not hop.responsive:
            continue
        if hop.address in seen:
            return RejectReason(
                RejectKind.LOOP_BEYOND_TRANSIT,
                f"address {hop.address} repeats at hop {pos}",
            )
        seen.add(hop.address)
        if hop.rtt_ms is not None:
            if prev_rtt is not None and hop.rtt_ms < prev_rtt - eps_rtt:
                return RejectReason(
                    RejectKind.ASYMMETRY_SUSPECTED,
                    f"cumulative rtt drops {prev_rtt} -> {hop.rtt_ms} at hop {pos}",
                )
            prev_rtt = hop.rtt_ms
    return None


class PreparedTrace:
    """The facts ``estimate_pair`` needs from one trace, computed once.

    Holds the endpoint for ``mode`` (None for an unreached trace) and the
    deepest position of each responsive address up to it.  That mapping is
    ordered deepest first, so its items are also the (address, position)
    list the transit scan walks.  ``tail`` memoizes the checks on the
    segment beyond each transit position, for one ``eps_rtt`` at a time.
    """

    __slots__ = ("trace", "mode", "endpoint", "positions", "_tails", "_eps_rtt")

    def __init__(self, trace: TracePath, mode: str = ACCESS_ROUTER):
        self.trace = trace
        self.mode = mode
        self.endpoint = endpoint_of(trace, mode) if trace.reached else None
        self.positions = _deepest_positions(trace, self.endpoint or 0)
        self._tails: dict[int, RejectReason | float | None] = {}
        self._eps_rtt = 0.0

    def tail(self, transit_pos: int, eps_rtt: float) -> RejectReason | float | None:
        """The segment beyond transit_pos, checked: the reject of
        ``validate_beyond_transit`` up to the last hop, else the RTT from
        the transit to the endpoint (negative when it drops), or None when
        the endpoint hop has no RTT.

        One memo entry per transit position holds just that value, so it
        costs no object beyond the RTT; a call with another ``eps_rtt``
        than the last one starts the memo afresh.
        """
        tails = self._tails
        if eps_rtt != self._eps_rtt:
            tails.clear()
            self._eps_rtt = eps_rtt
        elif transit_pos in tails:
            return tails[transit_pos]
        hops = self.trace.hops
        value = validate_beyond_transit(self.trace, transit_pos, len(hops), eps_rtt)
        if value is None:
            end_rtt = hops[self.endpoint - 1].rtt_ms
            if end_rtt is not None:
                value = end_rtt - (hops[transit_pos - 1].rtt_ms if transit_pos else 0.0)
        tails[transit_pos] = value
        return value


def estimate_pair(
    path_a: TracePath | PreparedTrace,
    path_b: TracePath | PreparedTrace,
    options: EstimateOptions = EstimateOptions(),
    transits: dict[tuple[str, int, int], TransitPoint] | None = None,
) -> PairEstimate | RejectReason:
    """Upper-bound the distance between two destinations seen from one origin.

    Symmetric in its two paths: the pair is canonicalized by destination
    address before any tie-breaking happens.  A ``TracePath`` is prepared on
    entry; a ``PreparedTrace`` must have been prepared for ``options.mode``.
    ``transits`` maps (address, index_a, index_b) to its ``TransitPoint``;
    calls that share one table share one object per distinct transit point.
    """
    mode = options.mode
    a = path_a if isinstance(path_a, PreparedTrace) else PreparedTrace(path_a, mode)
    b = path_b if isinstance(path_b, PreparedTrace) else PreparedTrace(path_b, mode)
    if a.mode != mode or b.mode != mode:
        raise ValueError(f"trace prepared for another mode than {mode!r}")
    trace_a, trace_b = a.trace, b.trace
    if trace_a.destination > trace_b.destination:
        a, b, trace_a, trace_b = b, a, trace_b, trace_a
    for p in (a, b):
        if p.endpoint is None:
            return RejectReason(
                RejectKind.UNREACHABLE_DESTINATION,
                f"destination {p.trace.destination} not reached",
            )
    if trace_a.origin_id != trace_b.origin_id:
        raise ValueError(
            f"traces from different origins: {trace_a.origin_id} vs {trace_b.origin_id}"
        )
    best = _join(a.positions, a.endpoint, b.positions)
    if best is not None:
        _, index_a, index_b = best
    elif options.allow_origin_fallback:
        index_a = index_b = 0
    else:
        return _NO_TRANSIT
    # validate the whole remaining path, not just up to the endpoint: a
    # cumulative RTT decrease between the access router and the destination
    # still signals asymmetry on the segment the tail RTTs depend on.
    # Precedence: a's segment, b's segment, a's tail RTT, b's tail RTT.
    rtt_a = a.tail(index_a, options.eps_rtt)
    if isinstance(rtt_a, RejectReason):
        return rtt_a
    rtt_b = b.tail(index_b, options.eps_rtt)
    if isinstance(rtt_b, RejectReason):
        return rtt_b
    for p, rtt in ((a, rtt_a), (b, rtt_b)):
        if rtt is None:
            return RejectReason(
                RejectKind.MISSING_RTT_AT_TRANSIT,
                f"no rtt at endpoint hop {p.endpoint} of {p.trace.destination}",
            )
        if rtt < 0:
            return RejectReason(
                RejectKind.ASYMMETRY_SUSPECTED,
                f"negative rtt difference {rtt} on tail to {p.trace.destination}",
            )
    if best is None:
        transit = _ORIGIN_FALLBACK
    elif transits is None:
        transit = TransitPoint(*best)
    else:
        transit = transits.get(best)
        if transit is None:
            transit = transits[best] = TransitPoint(*best)
    return PairEstimate(
        trace_a.destination,
        trace_b.destination,
        trace_a.origin_id,
        transit,
        (a.endpoint - index_a) + (b.endpoint - index_b),
        rtt_a + rtt_b,
    )


def min_over_origins(
    pair: tuple[str, str],
    per_origin: dict[str, PairEstimate | RejectReason],
    couple_metrics: bool = False,
) -> PairOutcome:
    """Select the minimal upper bounds over all origins, per metric.

    Hop and RTT bounds are minimized independently (each is a valid bound on
    its own), by the keys (hop, rtt, origin) and (rtt, hop, origin); the
    origins are distinct, so neither key ties.  ``couple_metrics`` forces
    both to come from the hop winner.
    """
    if not per_origin:
        raise ValueError("min_over_origins needs at least one origin entry")
    best_hop = best_rtt = hop_key = rtt_key = None
    for origin, est in per_origin.items():
        if isinstance(est, PairEstimate):
            hop, rtt = est.hop_bound, est.rtt_bound_ms
            key = (hop, rtt, origin)
            if hop_key is None or key < hop_key:
                hop_key, best_hop = key, est
            key = (rtt, hop, origin)
            if rtt_key is None or key < rtt_key:
                rtt_key, best_rtt = key, est
    if couple_metrics:
        best_rtt = best_hop
    return PairOutcome(pair=pair, per_origin=dict(per_origin), best_hop=best_hop, best_rtt=best_rtt)


def batch_estimate(
    traces_by_origin: dict[str, list[TracePath]],
    pairs: list[tuple[str, str]],
    options: EstimateOptions = EstimateOptions(),
) -> tuple[list[PairOutcome], BatchStats]:
    """Estimate every pair from every origin and minimize per pair.

    A pair endpoint with no trace from an origin yields a NoTransit reject
    with detail "no trace" for that origin; it never aborts the batch.
    The estimates share one ``TransitPoint`` per distinct transit.
    """
    # per origin, each destination the pairs name -> its prepared trace
    named = {endpoint for pair in pairs for endpoint in pair}
    prepared: dict[str, dict[str, PreparedTrace]] = {}
    for origin in sorted(traces_by_origin):
        chosen: dict[str, TracePath] = {}
        for trace in traces_by_origin[origin]:
            # prefer a reached trace when several target the same destination
            existing = chosen.get(trace.destination)
            if existing is None or (trace.reached and not existing.reached):
                chosen[trace.destination] = trace
        prepared[origin] = {
            dest: PreparedTrace(trace, options.mode)
            for dest, trace in chosen.items() if dest in named
        }

    outcomes = []
    succeeded = 0
    reject_counts: Counter = Counter()
    transits: dict[tuple[str, int, int], TransitPoint] = {}
    for a, b in pairs:
        per_origin: dict[str, PairEstimate | RejectReason] = {}
        for origin, by_dest in prepared.items():
            pa = by_dest.get(a)
            pb = by_dest.get(b)
            if pa is None or pb is None:
                est = _NO_TRACE
            else:
                est = estimate_pair(pa, pb, options, transits)
            per_origin[origin] = est
            if isinstance(est, RejectReason):
                reject_counts[est.kind] += 1
        outcome = min_over_origins(
            (min(a, b), max(a, b)), per_origin, options.couple_metrics
        )
        outcomes.append(outcome)
        if outcome.accepted:
            succeeded += 1
    stats = BatchStats(
        total_pairs=len(pairs),
        succeeded=succeeded,
        reject_counts=Counter({kind.value: n for kind, n in reject_counts.items()}),
    )
    return outcomes, stats


# ---------------------------------------------------------------------------
# line-delimited outcome export, consumed by stats and the CLI


def _estimate_to_obj(est: PairEstimate):
    return {
        "hop_bound": est.hop_bound,
        "rtt_bound_ms": est.rtt_bound_ms,
        "transit": [est.transit.address, est.transit.index_a, est.transit.index_b],
        "origin_fallback": est.transit.is_origin_fallback,
    }


def write_outcomes(outcomes: list[PairOutcome], path: str | Path) -> None:
    """One record per outcome.  Each distinct reject reason is encoded
    once, and a best bound that is its origin's per-origin estimate reuses
    that entry's object."""
    rejects: dict[RejectReason, dict] = {}

    def entry(est: PairEstimate | RejectReason):
        if isinstance(est, PairEstimate):
            return _estimate_to_obj(est)
        obj = rejects.get(est)
        if obj is None:
            obj = rejects[est] = {"reject": est.kind.value, "detail": est.detail}
        return obj

    def best(est: PairEstimate | None, per_origin: dict, objs: dict):
        if est is None:
            return None
        if per_origin.get(est.origin_id) is est:
            return objs[est.origin_id]
        return _estimate_to_obj(est)

    def record(oc: PairOutcome) -> dict:
        per_origin = oc.per_origin
        objs = {origin: entry(per_origin[origin]) for origin in sorted(per_origin)}
        return {
            "pair": list(oc.pair),
            "per_origin": objs,
            "best_hop": best(oc.best_hop, per_origin, objs),
            "best_hop_origin": None if oc.best_hop is None else oc.best_hop.origin_id,
            "best_rtt": best(oc.best_rtt, per_origin, objs),
            "best_rtt_origin": None if oc.best_rtt is None else oc.best_rtt.origin_id,
        }

    write_jsonl(path, map(record, outcomes))


def read_outcomes(path: str | Path) -> list[PairOutcome]:
    """Decode an outcome file written by ``write_outcomes``.

    Each distinct reject reason, transit point and origin name is built
    once per file and shared (all are immutable), and a best bound whose
    entry equals the per-origin entry of the origin it names is that
    entry's estimate.  A malformed record raises ValueError naming its line.
    """
    rejects: dict[tuple, RejectReason] = {}
    transits: dict[tuple, TransitPoint] = {}
    names: dict[str, str] = {}
    share = names.setdefault

    def estimate(obj, a: str, b: str, origin: str) -> PairEstimate | RejectReason:
        if "reject" in obj:
            key = (obj["reject"], obj.get("detail", ""))
            reason = rejects.get(key)
            if reason is None:
                reason = rejects[key] = RejectReason(RejectKind(key[0]), key[1])
            return reason
        address, index_a, index_b = obj["transit"]
        key = (address, index_a, index_b, obj.get("origin_fallback", False))
        transit = transits.get(key)
        if transit is None:
            transit = transits[key] = TransitPoint(*key)
        return PairEstimate(a, b, origin, transit, obj["hop_bound"], obj["rtt_bound_ms"])

    def best(rec: dict, name: str, per_origin: dict, a: str, b: str) -> PairEstimate | None:
        obj = rec[name]
        if obj is None:
            return None
        origin = rec[f"{name}_origin"]
        if obj == rec["per_origin"].get(origin):
            est = per_origin[origin]
        else:
            est = estimate(obj, a, b, share(origin, origin))
        if not isinstance(est, PairEstimate):
            raise ValueError(f"{name} is a reject entry")
        return est

    def outcome(rec: dict) -> PairOutcome:
        a, b = pair = rec["pair"]
        if type(pair) is not list or type(a) is not str or type(b) is not str:
            raise ValueError(f"pair {pair!r} is not two strings")
        objs = rec["per_origin"]
        if not isinstance(objs, dict):
            raise ValueError("per_origin is not an object")
        per_origin = {}
        for origin, obj in objs.items():
            origin = share(origin, origin)
            per_origin[origin] = estimate(obj, a, b, origin)
        return PairOutcome(
            pair=(a, b),
            per_origin=per_origin,
            best_hop=best(rec, "best_hop", per_origin, a, b),
            best_rtt=best(rec, "best_rtt", per_origin, a, b),
        )

    return list(read_jsonl(path, outcome, "outcome"))
