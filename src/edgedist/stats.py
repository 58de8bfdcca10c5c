"""Empirical edge-distance distributions and their comparison.

A distribution holds its distinct values with their counts next to the
histogram: mean, std and the ccdf are computed from them, never from bin
centers, each sum by ``multiset_sum``, which no order or grouping can move.
Std is the population standard deviation (divide by n), reported as a
descriptive statistic over the measured set.
"""

from __future__ import annotations

import math
import random
from collections import Counter, namedtuple
from collections.abc import Collection, Iterable, Mapping
from pathlib import Path

from .jsonl import read_lines, write_lines
from .model import _Value
from .transit import PairOutcome

HOP_COUNT = "hop_count"
RTT_MS = "rtt_ms"

DEFAULT_BIN_WIDTH = {HOP_COUNT: 1.0, RTT_MS: 5.0}


class EdgeDistribution(_Value, namedtuple(
        "EdgeDistribution", "metric bin_width bins n mean std values excluded", defaults=(0,))):
    """``n`` samples of ``metric``: ``bins`` and ``values`` hold the ordered
    (lower_edge, count) and (distinct value, count) pairs, and ``excluded``
    the pairs with no accepted estimate."""

    __slots__ = ()

    def fraction_above(self, threshold: float) -> float:
        """Fraction of samples strictly greater than threshold."""
        return sum(count for value, count in self.values if value > threshold) / self.n


def ascii_number(text: str, kind: type = float) -> float | int:
    """``kind(text)`` for a number in an input table, which must be ASCII
    text without ``_``: ``int()`` and ``float()`` also take other scripts'
    digits and read ``1_0`` as 10.  A None cell is a TypeError, as
    ``kind(None)`` gives."""
    value = kind(text)
    if not text.isascii() or "_" in text:
        raise ValueError(f"{text!r} is not an ASCII decimal number")
    return value


def multiset_sum(pairs: Iterable[tuple[float, int]]) -> float:
    """The sum of ``value * count`` over (value, count) pairs, correctly
    rounded whatever their order or grouping: ``value * 2**k`` for each set
    bit k of a count is exact, and ``math.fsum`` rounds their sum once.  A
    term or partial sum past the float range raises OverflowError, as
    ``math.fsum`` does."""
    return math.fsum(math.ldexp(value, k) for value, count in pairs
                     for k in range(count.bit_length()) if count >> k & 1)


def _moments(values: Collection[tuple[float, int]], n: int, metric: str) -> tuple[float, float]:
    """Mean and population std of the ``n`` samples that ``values``
    counts, as (value, count) pairs, of ``metric``.  Finite values can
    still overflow either."""
    if not values:
        raise ValueError("empty distribution")
    try:
        mean = multiset_sum(values) / n
        var = multiset_sum(((v - mean) ** 2, count) for v, count in values) / n
    except OverflowError:  # multiset_sum and a float ** raise where + gives inf
        var = math.inf
    if not var < math.inf:  # also nan, from an infinite mean
        raise ValueError(f"{metric} values overflow the mean or std")
    return mean, math.sqrt(var)


def distribution_from_counts(counts: Mapping[float, int], metric: str,
                             bin_width: float | None = None,
                             excluded: int = 0) -> EdgeDistribution:
    """The distribution that ``counts`` maps from each value to its count."""
    if bin_width is None:
        bin_width = DEFAULT_BIN_WIDTH[metric]
    if not 0 < bin_width < math.inf:
        raise ValueError(f"bin_width must be finite and > 0, got {bin_width}")
    values = sorted((v, count) for v, count in counts.items() if count)
    n = sum(count for _, count in values)
    mean, std = _moments(values, n, metric)
    largest = max(abs(v) for v, _ in values)
    if not math.isfinite(largest / bin_width):  # floor() of it would raise OverflowError
        raise ValueError(f"bin_width {bin_width!r} is too small for {metric} value {largest!r}")
    bins: dict[float, int] = {}
    for v, count in values:
        edge = math.floor(v / bin_width) * bin_width
        bins[edge] = bins.get(edge, 0) + count
    return EdgeDistribution(metric, bin_width, tuple(sorted(bins.items())), n, mean, std,
                            tuple(values), excluded)


def build_distribution(
    outcomes: list[PairOutcome],
    metric: str,
    bin_width: float | None = None,
) -> EdgeDistribution:
    """Histogram of best bounds over accepted pairs; rejected pairs counted
    in ``excluded`` so the success ratio is never hidden."""
    if metric == HOP_COUNT:
        counts = Counter(float(oc.best_hop.hop_bound)
                         for oc in outcomes if oc.best_hop is not None)
    elif metric == RTT_MS:
        counts = Counter(oc.best_rtt.rtt_bound_ms for oc in outcomes if oc.best_rtt is not None)
    else:
        raise ValueError(f"unknown metric {metric!r}")
    return distribution_from_counts(counts, metric, bin_width, len(outcomes) - counts.total())


def compare_distributions(
    a: EdgeDistribution, b: EdgeDistribution
) -> tuple[float, float]:
    """Mean shift a-b, and the KS statistic taken at the bins' lower edges:
    the largest gap between the two fractions of samples above an edge of
    either distribution, not the supremum over every sample value."""
    if a.metric != b.metric:
        raise ValueError(f"metric mismatch: {a.metric} vs {b.metric}")
    if a.bin_width != b.bin_width:
        raise ValueError(f"bin width mismatch: {a.bin_width} vs {b.bin_width}")
    thresholds = sorted({edge for edge, _ in a.bins} | {edge for edge, _ in b.bins})
    ks = max(
        abs(a.fraction_above(t) - b.fraction_above(t)) for t in thresholds
    )
    return a.mean - b.mean, ks


def resample_stability(dist: EdgeDistribution, subset_size: int, trials: int,
                       seed: int) -> tuple[float, float]:
    """Largest absolute deviation of subset mean and std from the full-sample
    values, over ``trials`` without-replacement subsets.  The subsets are
    drawn from the sorted samples, so the outcomes' order cannot move them."""
    if trials < 2:
        raise ValueError("need at least 2 trials")
    if subset_size > dist.n:
        raise ValueError(f"subset size {subset_size} exceeds accepted count {dist.n}")
    values, counts = zip(*dist.values)
    rng = random.Random(seed)
    moments = [_moments(Counter(rng.sample(values, subset_size, counts=counts)).items(),
                        subset_size, dist.metric) for _ in range(trials)]
    return (max(abs(mean - dist.mean) for mean, _ in moments),
            max(abs(std - dist.std) for _, std in moments))


def write_distribution_tsv(dist: EdgeDistribution, path: str | Path) -> None:
    """Plot-ready TSV: lower_edge, count, fraction; stats in a header comment."""
    write_lines(path, [
        f"# metric={dist.metric} bin_width={dist.bin_width:g} n={dist.n} "
        f"mean={dist.mean!r} std={dist.std!r} excluded={dist.excluded}",
        "lower_edge\tcount\tfraction",
        *(f"{edge:g}\t{count}\t{count / dist.n!r}" for edge, count in dist.bins),
    ])


def read_distribution_tsv(path: str | Path) -> EdgeDistribution:
    """Rebuild a distribution from its TSV export.

    Each bin's count is given to one value: its lower edge for integer
    metrics at bin width 1, exact there, and its center otherwise, so
    downstream use is approximate for continuous metrics.  No count is
    expanded into samples.  Numbers are ``ascii_number`` text.  Where the
    header gives ``n``, the counts must sum to it, checked row by row.
    Errors name the file, and a bad row its line.
    """
    meta: dict[str, str] = {}
    n = None
    total = 0

    def row(line: str) -> tuple[float, int] | None:
        nonlocal n, total
        line = line.strip()
        if line.startswith("#"):
            for token in line[1:].split():
                if "=" in token:
                    key, _, value = token.partition("=")
                    meta[key] = value
            if "n" in meta:
                n = ascii_number(meta["n"], int)
                if n < 0:
                    raise ValueError(f"header n={n} is negative")
            return None
        if line.startswith("lower_edge"):
            return None
        edge, count, _ = line.split("\t")
        edge, count = ascii_number(edge), ascii_number(count, int)
        if not math.isfinite(edge):
            raise ValueError(f"lower_edge {edge} is not finite")
        if count < 0:
            raise ValueError(f"negative count {count}")
        total += count
        if n is not None and total > n:
            raise ValueError(f"the counts reach {total}, past the header's n={n}")
        return edge, count

    bins = [b for b in read_lines(path, row, "row") if b is not None]
    if "metric" not in meta:
        raise ValueError(f"{path}: missing metric header")
    metric = meta["metric"]
    if metric not in DEFAULT_BIN_WIDTH:
        raise ValueError(f"{path}: unknown metric {metric!r}")
    try:
        bin_width = (ascii_number(meta["bin_width"]) if "bin_width" in meta
                     else DEFAULT_BIN_WIDTH[metric])
        excluded = ascii_number(meta.get("excluded", "0"), int)
        if not 0 < bin_width < math.inf:
            raise ValueError(f"bin_width must be finite and > 0, got {bin_width}")
        if excluded < 0:
            raise ValueError(f"excluded must be >= 0, got {excluded}")
    except ValueError as exc:
        raise ValueError(f"{path}: bad header: {exc}") from exc
    if n is not None and total != n:
        raise ValueError(f"{path}: the counts sum to {total}, not the header's n={n}")
    exact = metric == HOP_COUNT and bin_width == 1.0
    counts: Counter = Counter()
    for edge, count in bins:
        counts[edge if exact else edge + bin_width / 2] += count
    try:
        return distribution_from_counts(counts, metric, bin_width, excluded)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
