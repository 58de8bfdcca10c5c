"""Reference estimator and outcome reader, kept as test oracles.

``estimate_pair`` and ``last_common_hop`` are as they were before per-trace
preparation: every call recomputes the endpoint, the address positions and
the validation verdicts of both traces, and breaks ties on the address with
``_neg_lex``.  The endpoint rule (``endpoint_of`` and ``endpoint_rtt``) and
the segment checks (``validate_beyond_transit`` and ``access_router_loop``)
are this module's own, so a defect in the package's copies shows as a
difference; so is the ``Transit`` it finds, a plain tuple of the fields an
estimate takes from it.  ``read_outcomes`` is as it was before the per-file
decoder: it builds every reject reason and best bound anew.
``write_outcomes`` is as it was before the writer cached JSON text: it
builds a dict per entry and encodes every record whole.
``min_over_origins`` is the two-pass selection: it copies the accepted
entries into a list and takes a lambda-keyed ``min`` per metric.
``batch_estimate`` is the loop as it was before the per-origin sweep: pair
by pair, every origin in turn.  Every function here keeps a pair's entries
in a dict from origin to entry, as outcomes did before the column layout,
and converts at its boundary: ``as_outcome`` turns such a dict into a
``PairOutcome``'s aligned ``origins`` and ``entries`` tuples, in the dict's
order, and ``as_dict`` turns an outcome's columns back into a dict.  The
differential tests compare ``edgedist.transit`` against this module result
for result.
"""

from __future__ import annotations

import json
import math
from collections import Counter, namedtuple

from edgedist.model import (
    PairEstimate,
    RejectKind,
    RejectReason,
    TracePath,
)
from edgedist.jsonl import write_jsonl
from edgedist.transit import BatchStats, EstimateOptions, PairOutcome

# the last common hop of two traces; address None is the origin fallback
Transit = namedtuple("Transit", "address index_a index_b is_origin_fallback",
                     defaults=[False])


def endpoint_of(trace: TracePath, mode: str) -> int:
    """1-based position of the distance endpoint of a reached trace: the
    destination hop in host mode or of a one-hop trace, else the hop before
    it, answered or not."""
    if not trace.reached:
        raise ValueError("endpoint_of requires a reached trace")
    n = len(trace.addresses)
    return n if mode == "host" or n == 1 else n - 1


def endpoint_rtt(trace: TracePath, endpoint: int) -> float | None:
    """The endpoint hop's RTT, or the destination hop's when it is silent."""
    if trace.addresses[endpoint - 1] is None:
        return trace.rtts[-1]
    return trace.rtts[endpoint - 1]


def access_router_loop(trace: TracePath, endpoint: int) -> RejectReason | None:
    """A reject when the access router's address is also at an earlier hop."""
    router = trace.addresses[endpoint - 1]
    if router is None or router not in trace.addresses[:endpoint - 1]:
        return None
    return RejectReason(
        RejectKind.LOOP_BEYOND_TRANSIT,
        f"access router {router} repeats at hop {endpoint}",
    )


def validate_beyond_transit(
    trace: TracePath, transit_pos: int, eps_rtt: float
) -> RejectReason | None:
    """Check the segment from the transit's address where it first occurs
    (the first hop for the origin, transit_pos 0) to the last hop; None
    means accepted.  Rejects a missing RTT at the transit hop, then the
    first repeated address or cumulative RTT drop beyond eps_rtt."""
    if transit_pos >= 1 and trace.rtts[transit_pos - 1] is None:
        return RejectReason(
            RejectKind.MISSING_RTT_AT_TRANSIT,
            f"no rtt at transit hop {transit_pos}",
        )
    addresses = list(trace.addresses)
    first = addresses.index(addresses[transit_pos - 1]) if transit_pos >= 1 else 0
    prev_rtt = None
    seen: set[str] = set()
    for ttl in range(first + 1, len(addresses) + 1):
        address, rtt = addresses[ttl - 1], trace.rtts[ttl - 1]
        if address is None:
            continue
        if address in seen:
            return RejectReason(
                RejectKind.LOOP_BEYOND_TRANSIT,
                f"address {address} repeats at hop {ttl}",
            )
        seen.add(address)
        if rtt is not None:
            if prev_rtt is not None and rtt < prev_rtt - eps_rtt:
                return RejectReason(
                    RejectKind.ASYMMETRY_SUSPECTED,
                    f"cumulative rtt drops {prev_rtt} -> {rtt} at hop {ttl}",
                )
            prev_rtt = rtt
    return None


def last_common_hop(
    path_a: TracePath,
    path_b: TracePath,
    allow_origin_fallback: bool = False,
    limit_a: int | None = None,
    limit_b: int | None = None,
) -> Transit | RejectReason:
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
    limit_a = len(path_a.addresses) if limit_a is None else limit_a
    limit_b = len(path_b.addresses) if limit_b is None else limit_b

    pos_a: dict[str, int] = {}
    for pos in range(1, limit_a + 1):
        address = path_a.addresses[pos - 1]
        if address is not None:
            pos_a[address] = pos
    best: Transit | None = None
    best_key = None
    for pos in range(1, limit_b + 1):
        address = path_b.addresses[pos - 1]
        if address is None or address not in pos_a:
            continue
        ia = pos_a[address]
        key = (ia + pos, ia, _neg_lex(address))
        if best_key is None or key > best_key:
            best_key = key
            best = Transit(address=address, index_a=ia, index_b=pos)
    if best is not None:
        return best
    if allow_origin_fallback:
        return Transit(address=None, index_a=0, index_b=0, is_origin_fallback=True)
    return RejectReason(RejectKind.NO_TRANSIT, "no common responsive hop")


def _neg_lex(address: str):
    return tuple(-ord(c) for c in address)


def estimate_pair(
    path_a: TracePath,
    path_b: TracePath,
    options: EstimateOptions = EstimateOptions(),
) -> PairEstimate | RejectReason:
    if path_a.destination > path_b.destination:
        path_a, path_b = path_b, path_a
    try:
        n_a = endpoint_of(path_a, options.mode)
        n_b = endpoint_of(path_b, options.mode)
    except ValueError:
        bad = path_a if not path_a.reached else path_b
        return RejectReason(
            RejectKind.UNREACHABLE_DESTINATION,
            f"destination {bad.destination} not reached",
        )
    transit = last_common_hop(
        path_a,
        path_b,
        allow_origin_fallback=options.allow_origin_fallback,
        limit_a=n_a,
        limit_b=n_b,
    )
    if isinstance(transit, RejectReason):
        return transit
    for path, t_pos, e_pos in ((path_a, transit.index_a, n_a), (path_b, transit.index_b, n_b)):
        reject = validate_beyond_transit(path, t_pos, options.eps_rtt)
        if reject is None and options.mode == "access_router":
            reject = access_router_loop(path, e_pos)
        if reject is not None:
            return reject

    def tail_rtt(path: TracePath, t_pos: int, e_pos: int) -> float | RejectReason:
        end_rtt = endpoint_rtt(path, e_pos)
        if end_rtt is None:
            return RejectReason(
                RejectKind.MISSING_RTT_AT_TRANSIT,
                f"no rtt at endpoint hop {e_pos} of {path.destination}",
            )
        start_rtt = 0.0 if t_pos == 0 else path.rtts[t_pos - 1]
        diff = end_rtt - start_rtt
        if diff < 0:
            return RejectReason(
                RejectKind.ASYMMETRY_SUSPECTED,
                f"negative rtt difference {diff} on tail to {path.destination}",
            )
        return diff

    rtt_a = tail_rtt(path_a, transit.index_a, n_a)
    if isinstance(rtt_a, RejectReason):
        return rtt_a
    rtt_b = tail_rtt(path_b, transit.index_b, n_b)
    if isinstance(rtt_b, RejectReason):
        return rtt_b
    if not math.isfinite(rtt_a + rtt_b):
        return RejectReason(
            RejectKind.MISSING_RTT_AT_TRANSIT,
            f"rtt bound {rtt_a!r} + {rtt_b!r} overflows",
        )
    return PairEstimate(
        path_a.origin_id,
        *transit,
        hop_bound=(n_a - transit.index_a) + (n_b - transit.index_b),
        rtt_bound_ms=rtt_a + rtt_b,
    )


def as_outcome(pair, per_origin: dict, best_hop=None, best_rtt=None) -> PairOutcome:
    """The ``PairOutcome`` of a pair whose entries are the dict ``per_origin``."""
    return PairOutcome(pair, tuple(per_origin), tuple(per_origin.values()), best_hop, best_rtt)


def as_dict(oc: PairOutcome) -> dict:
    """An outcome's entries as a dict from origin to entry, in its order."""
    return dict(zip(oc.origins, oc.entries))


def _accepted(per_origin):
    return [
        (origin, est)
        for origin, est in per_origin.items()
        if isinstance(est, PairEstimate)
    ]


def min_over_origins(
    pair: tuple[str, str],
    per_origin: dict[str, PairEstimate | RejectReason],
    couple_metrics: bool = False,
) -> PairOutcome:
    if not per_origin:
        raise ValueError("min_over_origins needs at least one origin entry")
    accepted = _accepted(per_origin)
    best_hop = best_rtt = None
    if accepted:
        best_hop = min(
            accepted, key=lambda kv: (kv[1].hop_bound, kv[1].rtt_bound_ms, kv[0])
        )[1]
        if couple_metrics:
            best_rtt = best_hop
        else:
            best_rtt = min(
                accepted, key=lambda kv: (kv[1].rtt_bound_ms, kv[1].hop_bound, kv[0])
            )[1]
    return as_outcome(pair, per_origin, best_hop, best_rtt)


def batch_estimate(traces_by_origin, pairs, options=EstimateOptions()):
    chosen = {}
    for origin in sorted(traces_by_origin):
        by_dest = chosen[origin] = {}
        for path in traces_by_origin[origin]:
            existing = by_dest.get(path.destination)
            if existing is None or (path.reached and not existing.reached):
                by_dest[path.destination] = path
    outcomes = []
    reject_counts = Counter()
    for a, b in pairs:
        per_origin = {}
        for origin, by_dest in chosen.items():
            if a in by_dest and b in by_dest:
                est = estimate_pair(by_dest[a], by_dest[b], options)
            else:
                est = RejectReason(RejectKind.NO_TRANSIT, "no trace")
            if isinstance(est, RejectReason):
                reject_counts[est.kind.value] += 1
            per_origin[origin] = est
        outcomes.append(min_over_origins((min(a, b), max(a, b)), per_origin,
                                         options.couple_metrics))
    succeeded = sum(oc.accepted for oc in outcomes)
    return outcomes, BatchStats(len(pairs), succeeded, reject_counts)


def _estimate_from_obj(obj, origin):
    if "reject" in obj:
        return RejectReason(RejectKind(obj["reject"]), obj.get("detail", ""))
    addr, ia, ib = obj["transit"]
    return PairEstimate(
        origin_id=origin, address=addr, index_a=ia, index_b=ib,
        is_origin_fallback=obj.get("origin_fallback", False),
        hop_bound=obj["hop_bound"], rtt_bound_ms=obj["rtt_bound_ms"],
    )


def read_outcomes(path):
    outcomes = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                pair = tuple(rec["pair"])
                per_origin = {
                    origin: _estimate_from_obj(obj, origin)
                    for origin, obj in rec["per_origin"].items()
                }
                best_hop = best_rtt = None
                if rec["best_hop"] is not None:
                    best_hop = _estimate_from_obj(rec["best_hop"], rec["best_hop_origin"])
                if rec["best_rtt"] is not None:
                    best_rtt = _estimate_from_obj(rec["best_rtt"], rec["best_rtt_origin"])
                outcomes.append(as_outcome(pair, per_origin, best_hop, best_rtt))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}: bad outcome at line {lineno}: {exc}") from exc
    return outcomes


def _estimate_to_obj(est: PairEstimate):
    return {
        "hop_bound": est.hop_bound,
        "rtt_bound_ms": est.rtt_bound_ms,
        "transit": [est.address, est.index_a, est.index_b],
        "origin_fallback": est.is_origin_fallback,
    }


def write_outcomes(outcomes: list[PairOutcome], path) -> None:
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

    def best(est: PairEstimate | None, entries: dict, objs: dict):
        if est is None:
            return None
        if entries.get(est.origin_id) is est:
            return objs[est.origin_id]
        return _estimate_to_obj(est)

    def record(oc: PairOutcome) -> dict:
        entries = as_dict(oc)
        objs = {origin: entry(entries[origin]) for origin in sorted(entries)}
        return {
            "pair": list(oc.pair),
            "per_origin": objs,
            "best_hop": best(oc.best_hop, entries, objs),
            "best_hop_origin": None if oc.best_hop is None else oc.best_hop.origin_id,
            "best_rtt": best(oc.best_rtt, entries, objs),
            "best_rtt_origin": None if oc.best_rtt is None else oc.best_rtt.origin_id,
        }

    write_jsonl(path, map(record, outcomes))
