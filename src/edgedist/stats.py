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
from dataclasses import dataclass
from pathlib import Path

from .jsonl import read_lines, write_lines
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


def _moments(values: list[float]) -> tuple[float, float]:
    """Mean and population std of ``values``."""
    if not values:
        raise ValueError("empty distribution")
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, math.sqrt(var)


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
    mean, std = _moments(values)
    counts: dict[float, int] = {}
    for v in values:
        edge = math.floor(v / bin_width) * bin_width
        counts[edge] = counts.get(edge, 0) + 1
    bins = tuple(sorted(counts.items()))
    return EdgeDistribution(
        metric=metric,
        bin_width=bin_width,
        bins=bins,
        n=len(values),
        mean=mean,
        std=std,
        samples=tuple(sorted(values)),
        excluded=excluded,
    )


def outcome_values(outcomes: list[PairOutcome], metric: str) -> tuple[list[float], int]:
    """Best-bound values per accepted pair, plus the excluded-pair count."""
    if metric == HOP_COUNT:
        values = [float(oc.best_hop.hop_bound) for oc in outcomes if oc.best_hop is not None]
    elif metric == RTT_MS:
        values = [oc.best_rtt.rtt_bound_ms for oc in outcomes if oc.best_rtt is not None]
    else:
        raise ValueError(f"unknown metric {metric!r}")
    return values, len(outcomes) - len(values)


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
    full_mean, full_std = _moments(values)
    rng = random.Random(seed)
    max_mean_dev = 0.0
    max_std_dev = 0.0
    for _ in range(trials):
        mean, std = _moments(rng.sample(values, subset_size))
        max_mean_dev = max(max_mean_dev, abs(mean - full_mean))
        max_std_dev = max(max_std_dev, abs(std - full_std))
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

    def row(line: str) -> tuple[float, int] | None:
        line = line.strip()
        if line.startswith("#"):
            for token in line[1:].split():
                if "=" in token:
                    key, _, value = token.partition("=")
                    meta[key] = value
            return None
        if line.startswith("lower_edge"):
            return None
        edge, count, _ = line.split("\t")
        edge, count = float(edge), int(count)
        if not math.isfinite(edge):
            raise ValueError(f"lower_edge {edge} is not finite")
        if count < 0:
            raise ValueError(f"negative count {count}")
        return edge, count

    bins = [b for b in read_lines(path, row, "row") if b is not None]
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
