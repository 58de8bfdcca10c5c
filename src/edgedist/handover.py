"""Handover performance measures derived from edge-distance distributions.

Expected packet loss as a function of handover anticipation time, its grid
argmin, and multicast forwarding-state persistence under source mobility.
Packets flow at a constant bit rate of one per 10 ms, so expected packet
counts are loss durations divided by 10.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left
from collections import namedtuple
from pathlib import Path

from .model import _Value
from .stats import HOP_COUNT, RTT_MS, EdgeDistribution, ascii_number

CBR_INTERVAL_MS = 10.0


class LossTable(_Value, namedtuple("LossTable", "delay_axis anticipation_axis values")):
    """Grid of expected loss duration indexed by delay and anticipation:
    ``values[i][j]`` is the loss at ``delay_axis[i]`` and
    ``anticipation_axis[j]``.

    Queries interpolate bilinearly inside the axes and refuse to extrapolate:
    silent extrapolation would fabricate physics.
    """

    __slots__ = ()

    def __new__(cls, delay_axis: tuple[float, ...], anticipation_axis: tuple[float, ...],
                values: tuple[tuple[float, ...], ...]):
        for axis in (delay_axis, anticipation_axis):
            if (len(axis) < 2 or not all(map(math.isfinite, axis))
                    or any(b <= a for a, b in zip(axis, axis[1:]))):
                raise ValueError("table axes must be finite and strictly increasing, length >= 2")
        if len(values) != len(delay_axis) or any(
            len(row) != len(anticipation_axis) for row in values
        ):
            raise ValueError("table shape does not match its axes")
        if not all(0 <= v < math.inf for row in values for v in row):
            raise ValueError("loss values must be finite and >= 0")
        return tuple.__new__(cls, (delay_axis, anticipation_axis, values))

    def total_losses(self, delays_ms: list[float], anticipations: list[float]) -> list[float]:
        """The bilinear loss summed over ``delays_ms`` in their order, per
        anticipation.  Each delay's row and weight, and each anticipation's
        column, is located once; the values and the first error are those of
        lookups point by point in grid order: the first delay, the first
        anticipation, later delays, then later anticipations."""
        if not delays_ms:  # no lookup, so no error
            return [0] * len(anticipations)
        rows = [_locate(self.delay_axis, delays_ms[0], "delay")]
        columns = [_locate(self.anticipation_axis, a, "anticipation") for a in anticipations[:1]]
        rows += [_locate(self.delay_axis, d, "delay") for d in delays_ms[1:]]
        columns += [_locate(self.anticipation_axis, a, "anticipation") for a in anticipations[1:]]
        rows = [(di, 1 - dw, dw) for di, dw in rows]
        totals = []
        for ai, aw in columns:
            # each row blended at this anticipation, as one lookup blends
            # two; _locate never returns an axis's last index, and the cells
            # are finite, so a neighbour at weight 0 adds exactly 0
            blend = [row[ai] * (1 - aw) + row[ai + 1] * aw for row in self.values]
            totals.append(sum([blend[di] * cw + blend[di + 1] * dw for di, cw, dw in rows]))
        return totals


def _locate(axis: tuple[float, ...], value: float, label: str) -> tuple[int, float]:
    if value < axis[0] or value > axis[-1]:
        raise ValueError(
            f"{label} {value} outside table axis [{axis[0]}, {axis[-1]}]"
        )
    if value == axis[-1]:
        return len(axis) - 2, 1.0
    idx = bisect_left(axis, value)
    if axis[idx] == value:
        return idx, 0.0
    idx -= 1
    return idx, (value - axis[idx]) / (axis[idx + 1] - axis[idx])


class LossModel(_Value, namedtuple("LossModel", "beta table")):
    """Conditional expectation of loss duration given delay and anticipation.

    The default parametric form L(d, a) = max(0, d - a) + beta * a captures
    the trade-off: anticipating too little loses in-flight packets, while
    anticipation itself carries a proportional cost.  L(d, 0) = d is the
    reactive handover.  Given a ``table``, the model reproduces that
    externally published curve instead and ignores ``beta``.
    """

    __slots__ = ()

    def __new__(cls, beta: float = 0.1, table: LossTable | None = None):
        if not 0 <= beta < math.inf:
            raise ValueError(f"beta must be finite and >= 0, got {beta}")
        return tuple.__new__(cls, (beta, table))

    def total_losses(self, delays_ms: list[float], anticipations: list[float]) -> list[float]:
        """L(d, a) summed over ``delays_ms`` in their order, per anticipation
        a, with no call per delay; beta * a is taken once per a."""
        if self.table is not None:
            return self.table.total_losses(delays_ms, anticipations)
        # d - a is positive exactly when d > a, so each term is max(0, d - a) + cost
        return [sum([(d - a if d > a else 0.0) + cost for d in delays_ms])
                for a in anticipations for cost in [self.beta * a]]


def load_loss_table(path: str | Path) -> LossTable:
    """CSV with the anticipation axis in the first row and the delay axis in
    the first column; cells are loss durations in ms."""
    rows: list[tuple[float, ...]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for row in filter(None, reader):  # skips blank lines
            # the header row's first cell is a corner label, not a number
            cells = row if rows else row[1:]
            try:
                rows.append(tuple(ascii_number(x) for x in cells))
            except ValueError as exc:
                raise ValueError(f"{path}: bad row at line {reader.line_num}: {exc}") from exc
    if len(rows) < 2:
        raise ValueError(f"{path}: table needs a header row and data rows")
    return LossTable(
        delay_axis=tuple(row[0] for row in rows[1:]),
        anticipation_axis=rows[0],
        values=tuple(row[1:] for row in rows[1:]),
    )


def expected_loss_curve(
    delay_dist: EdgeDistribution,
    model: LossModel,
    anticipation_grid: list[float],
    delay_scale: float = 0.5,
) -> list[tuple[float, float, float]]:
    """Expected loss duration and packet count per anticipation grid point.

    One-way inter-access-router delays come from the RTT distribution via
    ``delay_scale`` (default 0.5).  The expectation runs over the raw RTT
    samples, so the reactive point a=0 equals delay_scale times the
    distribution mean exactly under the default model.  An expected loss
    that is not finite (beta * a or the sum over the samples overflows) is
    a ValueError naming beta and delay_scale.
    """
    if delay_dist.metric != RTT_MS:
        raise ValueError("expected_loss_curve needs an RTT distribution")
    if not anticipation_grid:
        raise ValueError("anticipation grid must be non-empty")
    if any(a < 0 for a in anticipation_grid):
        raise ValueError("anticipation times must be >= 0")
    if not 0 < delay_scale < math.inf:
        raise ValueError(f"delay_scale must be finite and > 0, got {delay_scale}")
    delays = [delay_scale * rtt for rtt in delay_dist.samples]
    losses = [total / delay_dist.n for total in model.total_losses(delays, anticipation_grid)]
    for a, loss in zip(anticipation_grid, losses):
        if not math.isfinite(loss):
            raise ValueError(f"expected loss at anticipation {a:g} ms overflows "
                             f"(beta={model.beta!r}, delay_scale={delay_scale!r})")
    return [(a, loss, loss / CBR_INTERVAL_MS) for a, loss in zip(anticipation_grid, losses)]


class AnticipationOptimum(
    _Value, namedtuple("AnticipationOptimum", "anticipation_ms expected_loss_ms flat")
):
    __slots__ = ()


def argmin_anticipation(
    curve: list[tuple[float, float, float]],
    flat_threshold: float = 0.05,
) -> AnticipationOptimum:
    """Grid point of minimal expected loss; ties go to the smallest
    anticipation.  The curve counts as flat (no significant optimum) when its
    max-min spread is below ``flat_threshold`` times the curve mean."""
    if not curve:
        raise ValueError("empty curve")
    if not 0 <= flat_threshold < math.inf:
        raise ValueError(f"flat_threshold must be finite and >= 0, got {flat_threshold}")
    losses = [loss for _, loss, _ in curve]
    best_a, best_loss, _ = min(curve, key=lambda row: (row[1], row[0]))
    spread = max(losses) - min(losses)
    mean = sum(losses) / len(losses)
    flat = spread < flat_threshold * mean
    return AnticipationOptimum(anticipation_ms=best_a, expected_loss_ms=best_loss, flat=flat)


class PersistenceTable(_Value, namedtuple("PersistenceTable", "entries")):
    """Forwarding-state persistence ratio per hop distance.

    No extrapolation: every hop value carrying probability mass must be
    covered explicitly.
    """

    __slots__ = ()

    def __new__(cls, entries: dict[int, float]):
        for hop, ratio in entries.items():
            _check_entry(hop, ratio)
        return tuple.__new__(cls, (entries,))


def _check_entry(hop: int, ratio: float) -> None:
    if hop < 0:
        raise ValueError(f"negative hop {hop}")
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"persist ratio {ratio} at hop {hop} outside [0, 1]")


def load_persistence_table(path: str | Path) -> PersistenceTable:
    """CSV hop,persist_ratio with header; a leading byte-order mark is
    encoding, not data."""
    entries: dict[int, float] = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"hop", "persist_ratio"}.issubset(reader.fieldnames):
            raise ValueError(f"{path}: header must contain ['hop', 'persist_ratio']")
        for row in reader:
            try:
                hop = ascii_number(row["hop"], int)
                ratio = ascii_number(row["persist_ratio"])
                if hop in entries:
                    raise ValueError(f"hop {hop} is listed twice")
                _check_entry(hop, ratio)
            except (TypeError, ValueError) as exc:
                # TypeError: a short row leaves its missing cells None
                raise ValueError(f"{path}: bad row at line {reader.line_num}: {exc}") from exc
            entries[hop] = ratio
    return PersistenceTable(entries=entries)


def multicast_persistence(
    hop_dist: EdgeDistribution, table: PersistenceTable
) -> float:
    """Expected fraction of multicast forwarding states surviving a source
    handover: sum over hop distances of P(h) * persist_ratio(h)."""
    if hop_dist.metric != HOP_COUNT:
        raise ValueError("multicast_persistence needs a hop-count distribution")
    hops = [int(round(v)) for v in hop_dist.samples]
    missing = sorted({h for h in hops if h not in table.entries})
    if missing:
        raise ValueError(f"persistence table misses hop distances {missing}")
    return math.fsum(table.entries[h] for h in hops) / len(hops)
