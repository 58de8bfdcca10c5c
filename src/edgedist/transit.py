"""Transit-point discovery and pair distance upper bounds.

For two traces from the same origin, the last common hop acts as a transit
point; composing the two path tails through it bounds the hop count and RTT
between the destinations from above.  Minimizing those bounds over several
origins tightens the estimate.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from pathlib import Path

from .jsonl import decode, encode, read_lines, scan_string, scan_value, write_lines
from .model import (
    PairEstimate,
    RejectKind,
    RejectReason,
    TraceError,
    TracePath,
    _Value,
)

HOST = "host"
ACCESS_ROUTER = "access_router"

# shared by every result that needs them (the type is frozen)
_NO_TRANSIT = RejectReason(RejectKind.NO_TRANSIT, "no common responsive hop")
_NO_TRACE = RejectReason(RejectKind.NO_TRANSIT, "no trace")


class EstimateOptions(_Value, namedtuple(
        "EstimateOptions", "mode allow_origin_fallback eps_rtt couple_metrics")):
    __slots__ = ()

    def __new__(cls, mode: str = ACCESS_ROUTER, allow_origin_fallback: bool = False,
                eps_rtt: float = 0.0, couple_metrics: bool = False):
        if mode not in (HOST, ACCESS_ROUTER):
            raise ValueError(f"unknown endpoint mode {mode!r}")
        if not 0 <= eps_rtt < math.inf:
            raise ValueError(f"eps_rtt must be finite and >= 0, got {eps_rtt}")
        return tuple.__new__(cls, (mode, allow_origin_fallback, eps_rtt, couple_metrics))


class PairOutcome(_Value, namedtuple("PairOutcome", "pair origins entries best_hop best_rtt")):
    """Each origin's entry for ``pair``, ``entries[i]`` being the estimate
    or reject of ``origins[i]``, and the best hop and RTT bounds among them
    (None where no origin gave one).

    The entries are a column layout: ``origins`` is one tuple shared by
    every outcome of a batch, and by the outcomes of a file that name the
    same origins in the same order, so each pair holds just a tuple of
    entries rather than a dict that repeats the origin keys.  Construction
    checks that ``origins`` and ``entries`` are tuples of one length and
    that the origins are distinct strings: a repeated origin would be
    written as a repeated JSON key, which reads back as one entry.
    ``min_over_origins`` and ``read_outcomes`` build aligned tuples by
    construction and skip the check through ``tuple.__new__``.
    """

    __slots__ = ()
    __hash__ = None  # a result, never a key

    def __new__(cls, pair: tuple[str, str], origins: tuple[str, ...],
                entries: tuple[PairEstimate | RejectReason, ...],
                best_hop: PairEstimate | None = None, best_rtt: PairEstimate | None = None):
        if type(origins) is not tuple or type(entries) is not tuple:
            raise TraceError("origins and entries must be tuples")
        if len(origins) != len(entries):
            raise TraceError(f"{len(origins)} origins but {len(entries)} entries")
        seen = set()
        for origin in origins:
            if type(origin) is not str:
                raise TraceError(f"origin {origin!r} is not a string")
            if origin in seen:
                raise TraceError(f"origin {origin!r} is repeated")
            seen.add(origin)
        return tuple.__new__(cls, (pair, origins, entries, best_hop, best_rtt))

    @property
    def accepted(self) -> bool:
        return self.best_hop is not None or self.best_rtt is not None


class BatchStats(_Value, namedtuple("BatchStats", "total_pairs succeeded reject_counts")):
    """Pair counts of one batch, and its rejects per kind name."""

    __slots__ = ()
    __hash__ = None  # reject_counts is a Counter

    def __new__(cls, total_pairs: int, succeeded: int, reject_counts: Counter | None = None):
        counts = Counter() if reject_counts is None else reject_counts
        return tuple.__new__(cls, (total_pairs, succeeded, counts))

    @property
    def success_ratio(self) -> float:
        return self.succeeded / self.total_pairs if self.total_pairs else 0.0


class PreparedTrace:
    """The facts ``estimate_pair`` needs from one trace, computed once for
    the ``options`` it is prepared with.

    ``endpoint`` is the 1-based hop position distances are measured to, or
    None for an unreached trace: in ``host`` mode the destination hop, in
    ``access_router`` mode the hop just before it (the destination hop of a
    one-hop trace), which is the access router whether or not it answers.
    A silent access router takes the destination hop's RTT, an upper bound
    on its own wherever cumulative RTT rises along the path.  ``positions``
    maps each responsive address up to the endpoint to its deepest
    position, ordered deepest first, so its items are also the (address,
    position) list the transit scan walks.  ``tail`` memoizes the checks on
    the segment beyond each transit position.  ``destination`` and
    ``origin_id`` are the trace's, kept in slots, which read faster than
    tuple fields on every ``estimate_pair`` call.
    """

    __slots__ = ("trace", "destination", "origin_id", "options", "endpoint", "positions",
                 "_tails")

    def __init__(self, trace: TracePath, options: EstimateOptions):
        self.trace = trace
        self.destination, self.origin_id = trace.destination, trace.origin_id
        self.options = options
        addresses = trace.addresses
        endpoint = n = len(addresses)
        if options.mode == ACCESS_ROUTER and n > 1:
            endpoint = n - 1
        self.endpoint = endpoint if trace.reached else None
        self.positions = positions = {}
        for pos in range(self.endpoint or 0, 0, -1):
            address = addresses[pos - 1]
            if address is not None and address not in positions:
                positions[address] = pos
        self._tails: dict[int, RejectReason | float | None] = {}

    def tail(self, transit_pos: int) -> RejectReason | float | None:
        """The segment from transit_pos to the last hop, checked: a reject,
        else the RTT from the transit to the endpoint (negative when it
        drops), or None when the endpoint has no RTT.  Position 0 is the
        origin fallback, whose RTT is 0, and checks the whole path.

        The first reject wins: no RTT at the transit hop; then, walking out
        from the first position of the transit's address, so that a loop
        back to the transit shows, a repeated address (a routing loop) or a
        cumulative RTT drop beyond ``eps_rtt`` (route asymmetry); then, in
        ``access_router`` mode, an access router whose address also occurs
        at an earlier hop, a loop the walk began past.  Each memo entry
        holds just the value, so it costs no object beyond the RTT.
        """
        tails = self._tails
        if transit_pos not in tails:
            tails[transit_pos] = self._check_tail(transit_pos)
        return tails[transit_pos]

    def _check_tail(self, transit_pos: int) -> RejectReason | float | None:
        addresses, rtts = self.trace.addresses, self.trace.rtts
        start_rtt = rtts[transit_pos - 1] if transit_pos else 0.0
        if start_rtt is None:
            return RejectReason(
                RejectKind.MISSING_RTT_AT_TRANSIT,
                f"no rtt at transit hop {transit_pos}",
            )
        start = addresses.index(addresses[transit_pos - 1]) + 1 if transit_pos else 1
        eps_rtt = self.options.eps_rtt
        prev_rtt = None
        seen: set[str] = set()
        for pos in range(start, len(addresses) + 1):
            address = addresses[pos - 1]
            if address is None:
                continue
            if address in seen:
                return RejectReason(
                    RejectKind.LOOP_BEYOND_TRANSIT,
                    f"address {address} repeats at hop {pos}",
                )
            seen.add(address)
            rtt = rtts[pos - 1]
            if rtt is not None:
                if prev_rtt is not None and rtt < prev_rtt - eps_rtt:
                    return RejectReason(
                        RejectKind.ASYMMETRY_SUSPECTED,
                        f"cumulative rtt drops {prev_rtt} -> {rtt} at hop {pos}",
                    )
                prev_rtt = rtt
        end = addresses[self.endpoint - 1]
        if (self.options.mode == ACCESS_ROUTER and end is not None
                and end in addresses[:self.endpoint - 1]):
            return RejectReason(
                RejectKind.LOOP_BEYOND_TRANSIT,
                f"access router {end} repeats at hop {self.endpoint}",
            )
        end_rtt = rtts[self.endpoint - 1] if end is not None else rtts[-1]
        return None if end_rtt is None else end_rtt - start_rtt


def _estimate_key(origin: str, address: str | None, index_a: int, index_b: int,
                  fallback: bool, hop_bound: int, rtt_bound: float) -> tuple:
    """What an estimate is shared by: its own fields, in order.  Keys never
    merge values that compare equal but encode differently: a float RTT
    bound other than zero is keyed by its value and any other by its repr
    (5 against 5.0, 0.0 against -0.0)."""
    return (origin, address, index_a, index_b, fallback, hop_bound,
            rtt_bound if type(rtt_bound) is float and rtt_bound else repr(rtt_bound))


def _shared_estimate(estimates: dict, origin: str, address: str | None, index_a: int,
                     index_b: int, fallback: bool, hop_bound: int,
                     rtt_bound: float) -> PairEstimate:
    """The estimate with these fields, found in or added to ``estimates``
    under ``_estimate_key``; no other code in the package builds one or
    reads or fills an estimate table.

    An index, hop bound, flag or address not exactly of its validated type
    could match a key by value (``true`` against 1), so it is built
    unshared, and validation refuses it.
    """
    if (type(index_a) is not int or type(index_b) is not int or type(hop_bound) is not int
            or type(fallback) is not bool or (type(address) is not str and address is not None)):
        return PairEstimate(origin, address, index_a, index_b, fallback, hop_bound, rtt_bound)
    key = _estimate_key(origin, address, index_a, index_b, fallback, hop_bound, rtt_bound)
    est = estimates.get(key)
    if est is None:
        est = estimates[key] = PairEstimate(origin, address, index_a, index_b, fallback,
                                            hop_bound, rtt_bound)
    return est


def estimate_pair(
    a: PreparedTrace,
    b: PreparedTrace,
    estimates: dict | None = None,
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
    Tail RTTs whose sum overflows to infinity give a MissingRttAtTransit
    reject, since no finite RTT bound exists.

    Each trace's tail is read through ``PreparedTrace.tail``, which fills
    its memo, and the estimate through ``_shared_estimate``: calls that
    pass one ``estimates`` table share one object per distinct estimate.
    """
    options = a.options
    if b.options is not options and b.options != options:
        raise ValueError(f"traces prepared with unequal options: {options} vs {b.options}")
    if a.destination > b.destination:
        a, b = b, a
    end_a, end_b = a.endpoint, b.endpoint
    if end_a is None or end_b is None:
        unreached = a if end_a is None else b
        return RejectReason(
            RejectKind.UNREACHABLE_DESTINATION,
            f"destination {unreached.destination} not reached",
        )
    origin = a.origin_id
    if origin != b.origin_id:
        raise ValueError(f"traces from different origins: {origin} vs {b.origin_id}")
    # b deepest first, so a later candidate with an equal index sum has the
    # larger index_a and wins; stop once no index_a up to a's endpoint can
    # reach the best sum
    best = None
    best_sum = 0
    positions_a = a.positions
    for address, ib in b.positions.items():
        if ib + end_a < best_sum:
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
    if type(rtt_a) is RejectReason:
        return rtt_a
    rtt_b = b.tail(index_b)
    if type(rtt_b) is RejectReason:
        return rtt_b
    if rtt_a is None or rtt_b is None or rtt_a < 0 or rtt_b < 0:
        return _tail_reject(a, rtt_a) or _tail_reject(b, rtt_b)
    rtt = rtt_a + rtt_b
    if rtt == math.inf:  # two finite tails can overflow
        return RejectReason(RejectKind.MISSING_RTT_AT_TRANSIT,
                            f"rtt bound {rtt_a!r} + {rtt_b!r} overflows")
    return _shared_estimate({} if estimates is None else estimates, origin, address,
                            index_a, index_b, best is None,
                            (end_a - index_a) + (end_b - index_b), rtt)


def _tail_reject(p: PreparedTrace, rtt: float | None) -> RejectReason | None:
    """The reject of a checked tail RTT, or None when it is usable."""
    if rtt is None:
        return RejectReason(
            RejectKind.MISSING_RTT_AT_TRANSIT,
            f"no rtt at endpoint hop {p.endpoint} of {p.destination}",
        )
    if rtt < 0:
        return RejectReason(
            RejectKind.ASYMMETRY_SUSPECTED,
            f"negative rtt difference {rtt} on tail to {p.destination}",
        )
    return None


def min_over_origins(
    pair: tuple[str, str],
    origins: tuple[str, ...],
    entries: tuple[PairEstimate | RejectReason, ...],
    couple_metrics: bool = False,
) -> PairOutcome:
    """Select the minimal upper bounds over all origins, per metric, where
    ``entries[i]`` is the estimate or reject of ``origins[i]``.

    Hop and RTT bounds are minimized independently (each is a valid bound on
    its own), by the keys (hop, rtt, origin) and (rtt, hop, origin); the
    origins must be distinct, so neither key ties.  ``couple_metrics``
    forces both to come from the hop winner.  The outcome keeps both tuples
    themselves, so a batch shares one ``origins`` over all its outcomes.
    They must be tuples of one length; the outcome is built without the
    rest of ``PairOutcome``'s check, which costs more than the selection.
    """
    if type(origins) is not tuple or type(entries) is not tuple or len(origins) != len(entries):
        raise ValueError("min_over_origins needs origins and entries as tuples of one length")
    if not entries:
        raise ValueError("min_over_origins needs at least one origin entry")
    best_hop = best_rtt = hop_key = rtt_key = None
    for origin, est in zip(origins, entries):
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
    return tuple.__new__(PairOutcome, (pair, origins, entries, best_hop, best_rtt))


def batch_estimate(
    traces_by_origin: dict[str, list[TracePath]],
    pairs: list[tuple[str, str]],
    options: EstimateOptions = EstimateOptions(),
) -> tuple[list[PairOutcome], BatchStats]:
    """Estimate every pair from every origin and minimize per pair.

    The batch takes ownership of ``traces_by_origin`` and empties it: pass
    a copy to keep the mapping.  The origins are taken one at a time, in
    sorted order (see ``_origin_entries``): each origin's list is popped
    from the mapping and fills its column of entries, one per pair in pair
    order, with one ``estimate_pair`` call per pair whose endpoints both
    have a trace from it.  Its traces and prepared traces are then dropped,
    unless the caller holds them elsewhere, before the next origin's are
    built.  Then each pair gets one ``min_over_origins`` call, in pair
    order, on the sorted origins, one tuple that every outcome shares, and
    its row of the columns.  A pair endpoint with no trace from an origin
    yields a NoTransit reject with detail "no trace" for that origin; it
    never aborts the batch.  An outcome's pair is the caller's tuple when
    it is already in canonical order, else a new one.
    The outcomes share one object per distinct estimate (see
    ``_shared_estimate``): a dense campaign repeats a few thousand bounds
    over hundreds of thousands of (pair, origin) entries.  An estimate's
    key holds its origin, so each origin's estimates are shared through a
    table of its own, dropped with its traces.
    """
    named = {endpoint for pair in pairs for endpoint in pair}
    firsts = [a for a, _ in pairs]
    seconds = [b for _, b in pairs]
    origins = tuple(sorted(traces_by_origin))
    columns = []
    reject_counts: Counter = Counter()
    for origin in origins:
        column = _origin_entries(traces_by_origin.pop(origin), named, firsts, seconds, options)
        reject_counts.update([est.kind for est in column if type(est) is RejectReason])
        columns.append(column)
    # with no origin, each pair has no entry, which min_over_origins refuses
    rows = zip(*columns) if columns else [()] * len(pairs)
    couple_metrics = options.couple_metrics
    outcomes = [
        min_over_origins(pair if a <= b and type(pair) is tuple else (min(a, b), max(a, b)),
                         origins, entries, couple_metrics)
        for pair, a, b, entries in zip(pairs, firsts, seconds, rows)
    ]
    stats = BatchStats(
        total_pairs=len(pairs),
        succeeded=sum(oc.accepted for oc in outcomes),
        reject_counts=Counter({kind.value: n for kind, n in reject_counts.items()}),
    )
    return outcomes, stats


def _origin_entries(traces: list[TracePath], named: set[str],
                    firsts: list[str], seconds: list[str],
                    options: EstimateOptions) -> list[PairEstimate | RejectReason]:
    """One origin's entry for each pair (firsts[i], seconds[i]), in pair
    order, from its ``traces`` to the destinations in ``named``.  Those
    traces are prepared here and, with the origin's estimate table, dropped
    on return."""
    chosen: dict[str, TracePath] = {}
    for trace in traces:
        dest = trace.destination
        if dest in named:
            # prefer a reached trace when several target the same destination
            existing = chosen.get(dest)
            if existing is None or (trace.reached and not existing.reached):
                chosen[dest] = trace
    get = {dest: PreparedTrace(trace, options) for dest, trace in chosen.items()}.get
    estimates: dict = {}
    return [
        _NO_TRACE if pa is None or pb is None else estimate_pair(pa, pb, estimates)
        for pa, pb in zip(map(get, firsts), map(get, seconds))
    ]


# ---------------------------------------------------------------------------
# line-delimited outcome export, consumed by stats and the CLI


def _entry_obj(est: PairEstimate | RejectReason) -> dict:
    if isinstance(est, RejectReason):
        return {"reject": est.kind.value, "detail": est.detail}
    return {
        "hop_bound": est.hop_bound,
        "rtt_bound_ms": est.rtt_bound_ms,
        "transit": [est.address, est.index_a, est.index_b],
        "origin_fallback": est.is_origin_fallback,
    }


def write_outcomes(outcomes: list[PairOutcome], path: str | Path) -> None:
    """One JSON record per outcome: ``pair``, then ``per_origin``, an
    object of each origin's entry sorted by origin, then ``best_hop``,
    ``best_hop_origin``, ``best_rtt`` and ``best_rtt_origin``; a best bound
    is written as a per-origin entry.

    A campaign repeats a few distinct entries over every (pair, origin), so
    the line is joined from JSON text that is encoded once per call for
    each distinct entry and each endpoint or origin name, which must be a
    string.  A reject is keyed by its reason.  An estimate is keyed by the
    object, never by equal values, which may encode differently:
    ``batch_estimate`` and ``read_outcomes`` share one object per distinct
    estimate (see ``_shared_estimate``), and equal estimates that are
    separate objects are just encoded once each.  Every estimate stays
    alive in ``outcomes`` for the call, so its id names it.  The sorted
    order of the origins and their member keys are worked out once per
    distinct ``origins`` tuple, which a batch shares over all its outcomes.
    """
    names: dict[str, str] = {}
    entries: dict = {}
    orders: dict[tuple[str, ...], list[tuple[int, str]]] = {}

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

    def order(origins: tuple[str, ...]) -> list[tuple[int, str]]:
        """(position, member key text) of each origin, sorted by origin."""
        keys = [f"{name(o)}:" for o in origins]
        return [(i, keys[i]) for i in sorted(range(len(origins)), key=origins.__getitem__)]

    def best(est: PairEstimate | None) -> tuple[str, str]:
        return ("null", "null") if est is None else (entry(est), name(est.origin_id))

    def line(oc: PairOutcome) -> str:
        pair, origins, ests, best_hop, best_rtt = oc
        pair = ",".join(map(name, pair))
        members = orders.get(origins)
        if members is None:
            members = orders[origins] = order(origins)
        objs = ",".join([key + entry(ests[i]) for i, key in members])
        hop, hop_origin = best(best_hop)
        rtt, rtt_origin = best(best_rtt)
        return (f'{{"pair":[{pair}],"per_origin":{{{objs}}},"best_hop":{hop},'
                f'"best_hop_origin":{hop_origin},"best_rtt":{rtt},'
                f'"best_rtt_origin":{rtt_origin}}}')

    write_lines(path, map(line, outcomes))


# the fixed text of a write_outcomes line around its names and entries: the
# pair's opening, between its names, after them, between per_origin members,
# and from the last member's closing brace to the tail
_PAIR_HEAD = '{"pair":["'
_PAIR_SEP = ',"'
_ORIGINS_HEAD = '],"per_origin":{"'
_MEMBER_SEP = '},"'
_ORIGINS_END = '}},"best_hop":'
_TAIL_KEYS = ["best_hop", "best_hop_origin", "best_rtt", "best_rtt_origin"]


def read_outcomes(path: str | Path) -> list[PairOutcome]:
    """Decode an outcome file written by ``write_outcomes``.

    Each distinct reject reason and origin or endpoint name is built once
    per file and shared, and so is each distinct estimate, under the rule
    of ``_shared_estimate``: a best bound is the per-origin
    estimate of the origin it names when their entries match, and each
    value is validated when it is first built.  Each distinct sequence of
    ``per_origin`` keys gives one ``origins`` tuple, shared by every
    outcome that names it, in file order; a repeated key keeps its first
    position and its last entry, as a JSON object's member does.  A best
    bound names its origin by a string, and an absent one names none.  A
    reject's kind is a string, and its detail a string or absent for
    ``""``.  A malformed record raises ValueError naming its line.

    The writer repeats a few distinct entries over a whole campaign, so a
    line in its layout is split into its per_origin members and its tail
    (the best bounds and their origins), and each distinct member text and
    tail text is decoded once per file.  A member is decoded by the JSON
    scanners and kept only if its value ends exactly at its last byte, so a
    text found again parses the same wherever it starts a member; the tail
    is decoded whole and kept only if it has just the four keys, in order
    (a repeated one decodes as in the whole line: the last value counts).
    Any line that does not decode that way, and any error, is decoded again
    whole by ``json.loads``, so the result and every error are the ones a
    whole-line decode gives.
    """
    rejects: dict[tuple[str, str], RejectReason] = {}
    estimates: dict = {}
    names: dict[str, str] = {}
    share = names.setdefault
    members: dict[str, tuple[str, PairEstimate | RejectReason]] = {}
    tails: dict[str, tuple[PairEstimate | None, PairEstimate | None]] = {}
    # each origin sequence as a line names it, to the file's tuple of its
    # distinct origins
    origin_sets: dict[tuple[str, ...], tuple[str, ...]] = {}

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
        return _shared_estimate(estimates, origin, address, index_a, index_b,
                                obj.get("origin_fallback", False),
                                obj["hop_bound"], obj["rtt_bound_ms"])

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

    def columns(origins: tuple[str, ...], entries: tuple) -> tuple[tuple, tuple]:
        """The file's origins tuple for ``origins`` as a line names them,
        and ``entries`` aligned with it."""
        distinct = origin_sets.get(origins)
        if distinct is None:
            distinct = tuple(dict.fromkeys(origins))
            distinct = origin_sets[origins] = origin_sets.setdefault(distinct, distinct)
        if len(distinct) != len(entries):  # a repeated origin: its last entry counts
            entries = tuple(dict(zip(origins, entries)).values())
        return distinct, entries

    def outcome(rec: dict) -> PairOutcome:
        a, b = pair = rec["pair"]
        if type(pair) is not list or type(a) is not str or type(b) is not str:
            raise ValueError(f"pair {pair!r} is not two strings")
        a, b = share(a, a), share(b, b)
        objs = rec["per_origin"]
        if not isinstance(objs, dict):
            raise ValueError("per_origin is not an object")
        origins = tuple([share(origin, origin) for origin in objs])
        entries = tuple([estimate(obj, origin) for origin, obj in zip(origins, objs.values())])
        return tuple.__new__(PairOutcome, ((a, b), *columns(origins, entries),
                                           best(rec, "best_hop"), best(rec, "best_rtt")))

    def laid_out(line: str) -> PairOutcome:
        if not line.startswith(_PAIR_HEAD):
            raise ValueError("not in the writer's layout")
        a, end = scan_string(line, len(_PAIR_HEAD))
        if not line.startswith(_PAIR_SEP, end):
            raise ValueError("not in the writer's layout")
        b, end = scan_string(line, end + len(_PAIR_SEP))
        if not line.startswith(_ORIGINS_HEAD, end):
            raise ValueError("not in the writer's layout")
        start = end + len(_ORIGINS_HEAD)
        stop = line.find(_ORIGINS_END, start)
        if stop < 0:
            raise ValueError("not in the writer's layout")
        # each text is a member without its opening quote and closing brace
        texts = line[start:stop].split(_MEMBER_SEP)
        try:
            origins, entries = zip(*map(members.__getitem__, texts))
        except KeyError:
            found = []
            for text in texts:
                member = members.get(text)
                if member is None:
                    origin, end = scan_string(line, start)
                    if not line.startswith(":", end):
                        raise ValueError("no colon after the origin")
                    obj, end = scan_value(line, end + 1)
                    if end != start + len(text) + 1:
                        raise ValueError("the entry does not end the member")
                    origin = share(origin, origin)
                    member = members[text] = (origin, estimate(obj, origin))
                found.append(member)
                start += len(text) + len(_MEMBER_SEP)
            origins, entries = zip(*found)
        distinct, entries = columns(origins, entries)
        tail = line[stop + 3:]  # from '"best_hop":' to the end of the line
        bests = tails.get(tail)
        if bests is None:
            rec = decode("{" + tail)
            if list(rec) != _TAIL_KEYS:
                raise ValueError("not in the writer's layout")
            bests = tails[tail] = (best(rec, "best_hop"), best(rec, "best_rtt"))
        return tuple.__new__(PairOutcome, ((share(a, a), share(b, b)), distinct, entries, *bests))

    def line_outcome(line: str) -> PairOutcome:
        try:
            return laid_out(line)
        except Exception:
            return outcome(decode(line))

    return list(read_lines(path, line_outcome, "outcome"))
