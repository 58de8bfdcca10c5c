"""Empirical edge-distance distributions and their comparison.

Raw samples are retained next to the histogram: mean, std and the ccdf are
computed from samples, never from bin centers.  Std is the population
standard deviation (divide by n), reported as a descriptive statistic over
the measured set.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

from .jsonl import write_lines
from .transit import PairOutcome

HOP_COUNT = "hop_count"
RTT_MS = "rtt_ms"

DEFAULT_BIN_WIDTH = {HOP_COUNT: 1.0, RTT_MS: 5.0}


@dataclass(frozen=True)
class EdgeDistribution:
    metric: str
    bin_width: float
    bins: tuple[tuple[float, int], ...]  # (lower_edge, count), ordered
    n: int
    mean: float
    std: float
    samples: tuple[float, ...]  # sorted raw samples
    excluded: int = 0  # pairs with no accepted estimate

    def fraction_above(self, threshold: float) -> float:
        """Fraction of raw samples strictly greater than threshold."""
        return (self.n - bisect_right(self.samples, threshold)) / self.n


def distribution_from_samples(
    values: list[float],
    metric: str,
    bin_width: float | None = None,
    excluded: int = 0,
) -> EdgeDistribution:
    if bin_width is None:
        bin_width = DEFAULT_BIN_WIDTH[metric]
    if not 0 < bin_width < math.inf:
        raise ValueError(f"bin_width must be finite and > 0, got {bin_width}")
    if not values:
        raise ValueError("empty distribution")
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    counts: dict[float, int] = {}
    for v in values:
        edge = math.floor(v / bin_width) * bin_width
        counts[edge] = counts.get(edge, 0) + 1
    bins = tuple(sorted(counts.items()))
    return EdgeDistribution(
        metric=metric,
        bin_width=bin_width,
        bins=bins,
        n=n,
        mean=mean,
        std=math.sqrt(var),
        samples=tuple(sorted(values)),
        excluded=excluded,
    )


def outcome_values(outcomes: list[PairOutcome], metric: str) -> tuple[list[float], int]:
    """Best-bound values per accepted pair, plus the excluded-pair count."""
    values = []
    excluded = 0
    for oc in outcomes:
        if metric == HOP_COUNT:
            est = oc.best_hop
            value = None if est is None else float(est.hop_bound)
        elif metric == RTT_MS:
            est = oc.best_rtt
            value = None if est is None else est.rtt_bound_ms
        else:
            raise ValueError(f"unknown metric {metric!r}")
        if value is None:
            excluded += 1
        else:
            values.append(value)
    return values, excluded


def build_distribution(
    outcomes: list[PairOutcome],
    metric: str,
    bin_width: float | None = None,
) -> EdgeDistribution:
    """Histogram of best bounds over accepted pairs; rejected pairs counted
    in ``excluded`` so the success ratio is never hidden."""
    values, excluded = outcome_values(outcomes, metric)
    return distribution_from_samples(values, metric, bin_width, excluded)


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


def resample_stability(
    outcomes: list[PairOutcome],
    subset_size: int,
    trials: int,
    seed: int,
    metric: str = HOP_COUNT,
    bin_width: float | None = None,
) -> tuple[float, float]:
    """Largest absolute deviation of subset mean and std from the full-sample
    values, over ``trials`` without-replacement subsets."""
    if trials < 2:
        raise ValueError("need at least 2 trials")
    values, _ = outcome_values(outcomes, metric)
    if subset_size > len(values):
        raise ValueError(
            f"subset size {subset_size} exceeds accepted count {len(values)}"
        )
    full = distribution_from_samples(values, metric, bin_width)
    rng = random.Random(seed)
    max_mean_dev = 0.0
    max_std_dev = 0.0
    for _ in range(trials):
        subset = rng.sample(values, subset_size)
        sub = distribution_from_samples(subset, metric, bin_width)
        max_mean_dev = max(max_mean_dev, abs(sub.mean - full.mean))
        max_std_dev = max(max_std_dev, abs(sub.std - full.std))
    return max_mean_dev, max_std_dev


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

    Raw samples are reconstructed from the bins (exact for integer metrics at
    bin width 1, bin centers otherwise), so downstream use is approximate for
    continuous metrics.  Errors name the file, and a bad row its line.
    """
    meta: dict[str, str] = {}
    bins: list[tuple[float, int]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].split():
                    if "=" in token:
                        key, _, value = token.partition("=")
                        meta[key] = value
                continue
            if line.startswith("lower_edge"):
                continue
            try:
                edge, count, _ = line.split("\t")
                edge, count = float(edge), int(count)
            except ValueError as exc:
                raise ValueError(f"{path}: bad row at line {lineno}: {exc}") from exc
            if not math.isfinite(edge):
                raise ValueError(f"{path}: bad row at line {lineno}: lower_edge {edge} is not finite")
            if count < 0:
                raise ValueError(f"{path}: bad row at line {lineno}: negative count {count}")
            bins.append((edge, count))
    if "metric" not in meta:
        raise ValueError(f"{path}: missing metric header")
    metric = meta["metric"]
    if metric not in DEFAULT_BIN_WIDTH:
        raise ValueError(f"{path}: unknown metric {metric!r}")
    try:
        bin_width = float(meta.get("bin_width", DEFAULT_BIN_WIDTH[metric]))
        excluded = int(meta.get("excluded", 0))
        if not 0 < bin_width < math.inf:
            raise ValueError(f"bin_width must be finite and > 0, got {bin_width}")
        if excluded < 0:
            raise ValueError(f"excluded must be >= 0, got {excluded}")
    except ValueError as exc:
        raise ValueError(f"{path}: bad header: {exc}") from exc
    exact = metric == HOP_COUNT and bin_width == 1.0
    samples: list[float] = []
    for edge, count in bins:
        value = edge if exact else edge + bin_width / 2
        samples.extend([value] * count)
    if not samples:
        raise ValueError(f"{path}: empty distribution")
    return distribution_from_samples(
        samples, metric, bin_width, excluded=excluded
    )
