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

from .jsonl import encode, read_jsonl, write_lines
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


class PreparedTrace:
    """The facts ``estimate_pair`` needs from one trace, computed once for
    the ``options`` it is prepared with.

    ``endpoint`` is the 1-based hop position distances are measured to, or
    None for an unreached trace: in ``host`` mode the destination hop, in
    ``access_router`` mode the last responsive hop strictly before it,
    falling back to the destination hop when there is none.  ``positions``
    maps each responsive address up to the endpoint to its deepest
    position, ordered deepest first, so its items are also the (address,
    position) list the transit scan walks.  ``tail`` memoizes the checks on
    the segment beyond each transit position.
    """

    __slots__ = ("trace", "options", "endpoint", "positions", "_tails")

    def __init__(self, trace: TracePath, options: EstimateOptions):
        self.trace = trace
        self.options = options
        hops = trace.hops
        endpoint = n = len(hops)
        if options.mode == ACCESS_ROUTER:
            endpoint = next((pos for pos in range(n - 1, 0, -1) if hops[pos - 1].responsive), n)
        self.endpoint = endpoint if trace.reached else None
        self.positions = positions = {}
        for pos in range(self.endpoint or 0, 0, -1):
            address = hops[pos - 1].address
            if address is not None and address not in positions:
                positions[address] = pos
        self._tails: dict[int, RejectReason | float | None] = {}

    def tail(self, transit_pos: int) -> RejectReason | float | None:
        """The segment from transit_pos to the last hop, checked: a reject,
        else the RTT from the transit to the endpoint (negative when it
        drops), or None when the endpoint hop has no RTT.  Position 0 is the
        origin fallback, whose RTT is 0, and checks the whole path.

        The first reject wins: no RTT at the transit hop, then, walking out
        from it, a repeated address (a routing loop) or a cumulative RTT
        drop beyond ``eps_rtt`` (route asymmetry).  Each memo entry holds
        just the value, so it costs no object beyond the RTT.
        """
        tails = self._tails
        if transit_pos not in tails:
            tails[transit_pos] = self._check_tail(transit_pos)
        return tails[transit_pos]

    def _check_tail(self, transit_pos: int) -> RejectReason | float | None:
        hops = self.trace.hops
        start_rtt = hops[transit_pos - 1].rtt_ms if transit_pos else 0.0
        if start_rtt is None:
            return RejectReason(
                RejectKind.MISSING_RTT_AT_TRANSIT,
                f"no rtt at transit hop {transit_pos}",
            )
        eps_rtt = self.options.eps_rtt
        prev_rtt = None
        seen: set[str] = set()
        for pos in range(max(transit_pos, 1), len(hops) + 1):
            hop = hops[pos - 1]
            address = hop.address
            if address is None:
                continue
            if address in seen:
                return RejectReason(
                    RejectKind.LOOP_BEYOND_TRANSIT,
                    f"address {address} repeats at hop {pos}",
                )
            seen.add(address)
            rtt = hop.rtt_ms
            if rtt is not None:
                if prev_rtt is not None and rtt < prev_rtt - eps_rtt:
                    return RejectReason(
                        RejectKind.ASYMMETRY_SUSPECTED,
                        f"cumulative rtt drops {prev_rtt} -> {rtt} at hop {pos}",
                    )
                prev_rtt = rtt
        end_rtt = hops[self.endpoint - 1].rtt_ms
        return None if end_rtt is None else end_rtt - start_rtt


# Estimates are shared, one object per distinct value, under keys that
# never merge values which compare equal but encode differently: a float
# RTT bound other than zero is keyed by its value and any other by its repr
# (5 against 5.0, 0.0 against -0.0), and the other fields of a key are the
# exactly typed strings, ints and bools that validation requires.


def estimate_pair(
    a: PreparedTrace,
    b: PreparedTrace,
    shared: dict | None = None,
) -> PairEstimate | RejectReason:
    """Upper-bound the distance between two destinations seen from one origin.

    Both traces must be prepared with equal options.  Symmetric in its two
    traces: the pair is canonicalized by destination address before any
    tie-breaking happens.  The transit is the address responsive in both
    traces up to their endpoints that maximizes index_a + index_b, ties
    going to the larger index_a (two such candidates are then the same hop
    of b).  Without one, the origin may serve as a loose transit at (0, 0)
    when the options allow it.  The estimate's transit indices follow the
    canonical order, as the ``PairOutcome`` for the pair names its endpoints.

    ``shared`` maps each (address, index_a, index_b) to its ``TransitPoint``
    and each (origin, address, index_a, index_b, hop bound, RTT bound key)
    to its ``PairEstimate``: calls that share one table share one object per
    distinct transit point and per distinct estimate.
    """
    options = a.options
    if b.options is not options and b.options != options:
        raise ValueError(f"traces prepared with unequal options: {options} vs {b.options}")
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
    # b deepest first, so a later candidate with an equal index sum has the
    # larger index_a and wins; stop once no index_a up to a's endpoint can
    # reach the best sum
    best = None
    best_sum = 0
    positions_a, limit_a = a.positions, a.endpoint
    for address, ib in b.positions.items():
        if ib + limit_a < best_sum:
            break
        ia = positions_a.get(address)
        if ia is not None and ia + ib >= best_sum:
            best_sum = ia + ib
            best = (address, ia, ib)
    if best is None and not options.allow_origin_fallback:
        return _NO_TRANSIT
    address, index_a, index_b = best or (None, 0, 0)  # else the origin fallback
    # validate the whole remaining path, not just up to the endpoint: a
    # cumulative RTT decrease between the access router and the destination
    # still signals asymmetry on the segment the tail RTTs depend on.
    # Precedence: a's segment, b's segment, a's tail RTT, b's tail RTT.
    rtt_a = a.tail(index_a)
    if isinstance(rtt_a, RejectReason):
        return rtt_a
    rtt_b = b.tail(index_b)
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
    origin = trace_a.origin_id
    hop_bound = (a.endpoint - index_a) + (b.endpoint - index_b)
    rtt_bound = rtt_a + rtt_b
    if shared is None:
        shared = {}
    key = (origin, address, index_a, index_b, hop_bound,
           rtt_bound if type(rtt_bound) is float and rtt_bound else repr(rtt_bound))
    est = shared.get(key)
    if est is None:
        if best is None:
            transit = _ORIGIN_FALLBACK
        else:
            transit = shared.get(best)
            if transit is None:
                transit = shared[best] = TransitPoint(*best)
        est = shared[key] = PairEstimate(origin, transit, hop_bound, rtt_bound)
    return est


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
    The outcomes share one ``TransitPoint`` per distinct transit and one
    ``PairEstimate`` per distinct estimate: a dense campaign repeats a few
    thousand bounds over hundreds of thousands of (pair, origin) entries.
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
            dest: PreparedTrace(trace, options)
            for dest, trace in chosen.items() if dest in named
        }

    outcomes = []
    succeeded = 0
    reject_counts: Counter = Counter()
    shared: dict = {}
    for a, b in pairs:
        per_origin: dict[str, PairEstimate | RejectReason] = {}
        for origin, by_dest in prepared.items():
            pa = by_dest.get(a)
            pb = by_dest.get(b)
            if pa is None or pb is None:
                est = _NO_TRACE
            else:
                est = estimate_pair(pa, pb, shared)
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


def _entry_obj(est: PairEstimate | RejectReason) -> dict:
    if isinstance(est, RejectReason):
        return {"reject": est.kind.value, "detail": est.detail}
    transit = est.transit
    return {
        "hop_bound": est.hop_bound,
        "rtt_bound_ms": est.rtt_bound_ms,
        "transit": [transit.address, transit.index_a, transit.index_b],
        "origin_fallback": transit.is_origin_fallback,
    }


def write_outcomes(outcomes: list[PairOutcome], path: str | Path) -> None:
    """One JSON record per outcome: ``pair``, then ``per_origin`` sorted by
    origin, then ``best_hop``, ``best_hop_origin``, ``best_rtt`` and
    ``best_rtt_origin``; a best bound is written as a per-origin entry.

    A campaign repeats a few distinct entries over every (pair, origin), so
    the line is joined from JSON text that is encoded once per call for
    each distinct entry and each endpoint or origin name, which must be a
    string.  A reject is keyed by its reason.  An estimate is keyed by the
    object, never by equal values, since a bound 5 encodes unlike 5.0 and
    0.0 unlike -0.0: ``batch_estimate`` and ``read_outcomes`` share one
    object per distinct estimate, and equal estimates that are separate
    objects are just encoded once each.  Every estimate stays alive in
    ``outcomes`` for the call, so its id names it.
    """
    names: dict[str, str] = {}
    entries: dict = {}

    def name(s: str) -> str:
        text = names.get(s)
        if text is None:
            if not isinstance(s, str):
                raise TypeError(f"name {s!r} is not a string")
            text = names[s] = encode(s)
        return text

    def entry(est: PairEstimate | RejectReason) -> str:
        key = id(est) if isinstance(est, PairEstimate) else est
        text = entries.get(key)
        if text is None:
            text = entries[key] = encode(_entry_obj(est))
        return text

    def best(est: PairEstimate | None) -> tuple[str, str]:
        return ("null", "null") if est is None else (entry(est), name(est.origin_id))

    def line(oc: PairOutcome) -> str:
        per_origin = oc.per_origin
        pair = ",".join(map(name, oc.pair))
        objs = ",".join([f"{name(o)}:{entry(per_origin[o])}" for o in sorted(per_origin)])
        hop, hop_origin = best(oc.best_hop)
        rtt, rtt_origin = best(oc.best_rtt)
        return (f'{{"pair":[{pair}],"per_origin":{{{objs}}},"best_hop":{hop},'
                f'"best_hop_origin":{hop_origin},"best_rtt":{rtt},'
                f'"best_rtt_origin":{rtt_origin}}}')

    write_lines(path, map(line, outcomes))


def read_outcomes(path: str | Path) -> list[PairOutcome]:
    """Decode an outcome file written by ``write_outcomes``.

    Each distinct reject reason, transit point, estimate and origin or
    endpoint name is built once per file and shared (all are immutable), so
    a best bound is the per-origin estimate of the origin it names when
    their entries match.  Values that compare equal but encode differently
    (``5`` and ``5.0``, ``0.0`` and ``-0.0``, ``1`` and ``true``) are never
    shared, and each value is validated when it is first built.  A best bound
    names its origin by a string, and an absent one names none.  A reject's
    kind is a string, and its detail a string or absent for ``""``.  A
    malformed record raises ValueError naming its line.
    """
    rejects: dict[tuple[str, str], RejectReason] = {}
    transits: dict[tuple, TransitPoint] = {}
    estimates: dict[tuple, PairEstimate] = {}
    names: dict[str, str] = {}
    share = names.setdefault

    def estimate(obj, origin: str) -> PairEstimate | RejectReason:
        if "reject" in obj:
            key = (obj["reject"], obj.get("detail", ""))
            if type(key[0]) is not str:
                raise ValueError(f"reject kind {key[0]!r} is not a string")
            if type(key[1]) is not str:
                raise ValueError(f"detail {key[1]!r} is not a string")
            reason = rejects.get(key)
            if reason is None:
                reason = rejects[key] = RejectReason(RejectKind(key[0]), key[1])
            return reason
        address, index_a, index_b = obj["transit"]
        fallback = obj.get("origin_fallback", False)
        hop, rtt = obj["hop_bound"], obj["rtt_bound_ms"]
        if (type(index_a) is not int or type(index_b) is not int or type(hop) is not int
                or type(fallback) is not bool
                or (type(address) is not str and address is not None)):
            # a key could match these with equal values of the right type,
            # so they are built here, and validation refuses them
            transit = TransitPoint(address, index_a, index_b, fallback)
            return PairEstimate(origin, transit, hop, rtt)
        key = (origin, address, index_a, index_b, fallback, hop,
               rtt if type(rtt) is float and rtt else repr(rtt))
        est = estimates.get(key)
        if est is None:
            transit_key = key[1:5]
            transit = transits.get(transit_key)
            if transit is None:
                transit = transits[transit_key] = TransitPoint(*transit_key)
            est = estimates[key] = PairEstimate(origin, transit, hop, rtt)
        return est

    def best(rec: dict, name: str) -> PairEstimate | None:
        obj, origin = rec[name], rec[f"{name}_origin"]
        if obj is None:
            if origin is not None:
                raise ValueError(f"{name}_origin {origin!r} beside a null {name}")
            return None
        if type(origin) is not str:
            raise ValueError(f"{name}_origin {origin!r} is not a string")
        est = estimate(obj, share(origin, origin))
        if not isinstance(est, PairEstimate):
            raise ValueError(f"{name} is a reject entry")
        return est

    def outcome(rec: dict) -> PairOutcome:
        a, b = pair = rec["pair"]
        if type(pair) is not list or type(a) is not str or type(b) is not str:
            raise ValueError(f"pair {pair!r} is not two strings")
        a, b = share(a, a), share(b, b)
        objs = rec["per_origin"]
        if not isinstance(objs, dict):
            raise ValueError("per_origin is not an object")
        per_origin = {}
        for origin, obj in objs.items():
            origin = share(origin, origin)
            per_origin[origin] = estimate(obj, origin)
        return PairOutcome(
            pair=(a, b),
            per_origin=per_origin,
            best_hop=best(rec, "best_hop"),
            best_rtt=best(rec, "best_rtt"),
        )

    return list(read_jsonl(path, outcome, "outcome"))
