import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from edgedist.model import PairEstimate
from edgedist.stats import (
    HOP_COUNT,
    RTT_MS,
    build_distribution,
    compare_distributions,
    distribution_from_samples,
    outcome_values,
    read_distribution_tsv,
    resample_stability,
    write_distribution_tsv,
)
from edgedist.transit import PairOutcome


def ccdf(dist):
    """(threshold, fraction of samples > threshold) per bin lower edge."""
    return [(edge, dist.fraction_above(edge)) for edge, _ in dist.bins]


def make_outcome(i, hop_bound=None, rtt_bound=None):
    origins = entries = ()
    best_hop = best_rtt = None
    if hop_bound is not None or rtt_bound is not None:
        est = PairEstimate(
            "O1", "t", 1, 1, False,
            hop_bound=hop_bound if hop_bound is not None else 0,
            rtt_bound_ms=rtt_bound if rtt_bound is not None else 0.0,
        )
        origins, entries = ("O1",), (est,)
        best_hop = est if hop_bound is not None else None
        best_rtt = est if rtt_bound is not None else None
    return PairOutcome(
        pair=(f"a{i}", f"b{i}"), origins=origins, entries=entries,
        best_hop=best_hop, best_rtt=best_rtt,
    )


def hop_outcomes(bounds):
    return [make_outcome(i, hop_bound=b) for i, b in enumerate(bounds)]


def test_distribution_of_hop_bounds():
    dist = build_distribution(hop_outcomes([8, 8, 9]), HOP_COUNT)
    assert dict(dist.bins) == {8.0: 2, 9.0: 1}
    assert dist.n == 3
    assert dist.mean == pytest.approx(8.3333, abs=1e-4)
    assert dist.std == pytest.approx(0.4714, abs=1e-4)


def test_single_sample():
    dist = build_distribution(hop_outcomes([5]), HOP_COUNT)
    assert dist.mean == 5.0 and dist.std == 0.0


def test_rtt_bin_edges():
    outcomes = [make_outcome(0, rtt_bound=2.0), make_outcome(1, rtt_bound=7.0)]
    dist = build_distribution(outcomes, RTT_MS, 5.0)
    assert dict(dist.bins) == {0.0: 1, 5.0: 1}


def test_excluded_pairs_are_counted():
    outcomes = hop_outcomes([8, 9]) + [make_outcome(99)]
    dist = build_distribution(outcomes, HOP_COUNT)
    assert dist.n == 2 and dist.excluded == 1


def test_empty_distribution_is_error():
    with pytest.raises(ValueError, match="empty distribution"):
        build_distribution([make_outcome(0)], HOP_COUNT)


def test_mean_std_match_two_pass_oracle():
    rng = random.Random(3)
    values = [rng.uniform(0, 300) for _ in range(500)]
    dist = distribution_from_samples(values, RTT_MS)
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    assert abs(dist.mean - mean) <= 1e-9 * abs(mean)
    assert abs(dist.std - math.sqrt(var)) <= 1e-9 * dist.std


def test_ccdf_simple():
    dist = distribution_from_samples([10.0, 20.0, 30.0], HOP_COUNT, 1.0)
    table = dict(ccdf(dist))
    assert table[10.0] == pytest.approx(2 / 3)
    assert table[30.0] == 0.0


def test_ccdf_single_bin():
    dist = distribution_from_samples([4, 4, 4], HOP_COUNT, 1.0)
    assert ccdf(dist) == [(4.0, 0.0)]


def test_ccdf_counting_oracle():
    rng = random.Random(17)
    values = [rng.uniform(0, 200) for _ in range(500)]
    dist = distribution_from_samples(values, RTT_MS, 5.0)
    for threshold, fraction in ccdf(dist):
        direct = sum(1 for v in values if v > threshold) / len(values)
        assert fraction == pytest.approx(direct, abs=0)


def test_ccdf_monotone_non_increasing():
    rng = random.Random(23)
    values = [rng.expovariate(0.05) for _ in range(300)]
    fractions = [f for _, f in ccdf(distribution_from_samples(values, RTT_MS))]
    assert all(b <= a for a, b in zip(fractions, fractions[1:]))


def test_compare_identical():
    dist = distribution_from_samples([1.0, 2.0, 3.0], RTT_MS, 1.0)
    assert compare_distributions(dist, dist) == (0.0, 0.0)


def test_compare_shifted_copy():
    a = distribution_from_samples([10.0, 20.0], RTT_MS, 5.0)
    b = distribution_from_samples([15.0, 25.0], RTT_MS, 5.0)
    mean_shift, ks = compare_distributions(b, a)
    assert mean_shift == pytest.approx(5.0)
    assert ks > 0


def test_compare_metric_mismatch():
    a = distribution_from_samples([1.0], RTT_MS, 5.0)
    b = distribution_from_samples([1.0], HOP_COUNT, 5.0)
    with pytest.raises(ValueError):
        compare_distributions(a, b)


def test_compare_ks_brute_force_oracle():
    rng = random.Random(29)
    xs = [rng.gauss(50, 10) for _ in range(400)]
    ys = [rng.gauss(60, 15) for _ in range(400)]
    a = distribution_from_samples(xs, RTT_MS, 5.0)
    b = distribution_from_samples(ys, RTT_MS, 5.0)
    _, ks = compare_distributions(a, b)
    edges = sorted({e for e, _ in a.bins} | {e for e, _ in b.bins})
    brute = max(
        abs(
            sum(1 for v in xs if v > t) / len(xs)
            - sum(1 for v in ys if v > t) / len(ys)
        )
        for t in edges
    )
    assert ks == pytest.approx(brute, abs=0)


def test_stability_identical_samples():
    outcomes = hop_outcomes([7] * 50)
    assert resample_stability(outcomes, 10, 5, seed=0) == (0.0, 0.0)


def test_stability_full_subset_is_exact_zero():
    outcomes = hop_outcomes([3, 5, 7, 9, 11])
    assert resample_stability(outcomes, 5, 3, seed=0) == (0.0, 0.0)


def test_stability_subset_too_large():
    outcomes = hop_outcomes([1, 2, 3])
    with pytest.raises(ValueError):
        resample_stability(outcomes, 4, 2, seed=0)


def test_stability_monte_carlo():
    rng = random.Random(101)
    bounds = [rng.randint(4, 16) for _ in range(2000)]
    outcomes = hop_outcomes(bounds)
    mean_dev, _ = resample_stability(outcomes, 500, 20, seed=7)
    full_mean = sum(bounds) / len(bounds)
    assert mean_dev < 0.05 * full_mean


@given(st.lists(st.floats(0, 1e6), min_size=1, max_size=40).flatmap(
    lambda values: st.tuples(st.just(values), st.permutations(values))))
# summed in input order, 0.1 + 0.2 + 0.3 is 0.6000000000000001 and
# 0.3 + 0.2 + 0.1 is 0.6
@example(([0.1, 0.2, 0.3], [0.3, 0.2, 0.1]))
def test_moments_are_correctly_rounded_in_any_order(drawn):
    values, shuffled = drawn
    dist = distribution_from_samples(values, RTT_MS)
    again = distribution_from_samples(shuffled, RTT_MS)
    assert repr((dist.mean, dist.std)) == repr((again.mean, again.std))
    # the sum is rounded once, exactly as a Fraction sum is
    n = len(values)
    mean = float(sum(map(Fraction, values))) / n
    assert dist.mean == mean
    assert dist.std == math.sqrt(float(sum(Fraction((v - mean) ** 2) for v in values)) / n)


def test_stability_does_not_depend_on_outcome_order():
    rng = random.Random(41)
    outcomes = [make_outcome(i, rng.randint(2, 12), rng.uniform(1, 90)) for i in range(300)]
    for metric in (HOP_COUNT, RTT_MS):
        forward = resample_stability(outcomes, 40, 5, seed=3, metric=metric)
        assert resample_stability(outcomes[::-1], 40, 5, seed=3, metric=metric) == forward


@pytest.mark.parametrize("values", [[1e200, 3e200], [1.7e308, 1.7e308]])
def test_moments_too_large_for_a_float_name_the_metric(values):
    # the variance's square used to raise OverflowError, and a sum past the
    # largest float gave an infinite mean
    outcomes = [make_outcome(i, rtt_bound=v) for i, v in enumerate(values)]
    with pytest.raises(ValueError, match="^rtt_ms values overflow the mean or std$"):
        build_distribution(outcomes, RTT_MS)
    with pytest.raises(ValueError, match="^rtt_ms values overflow the mean or std$"):
        resample_stability(outcomes, 1, 2, seed=0, metric=RTT_MS)


def test_tsv_round_trip(tmp_path):
    dist = build_distribution(hop_outcomes([8, 8, 9, 12]), HOP_COUNT)
    path = tmp_path / "hops.tsv"
    write_distribution_tsv(dist, path)
    loaded = read_distribution_tsv(path)
    assert loaded.bins == dist.bins
    assert loaded.n == dist.n
    assert loaded.mean == pytest.approx(dist.mean)
    assert loaded.samples == dist.samples  # exact for unit-width hop bins


def test_tsv_format(tmp_path):
    dist = build_distribution(hop_outcomes([8, 9]), HOP_COUNT)
    path = tmp_path / "hops.tsv"
    write_distribution_tsv(dist, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# metric=hop_count")
    assert lines[1] == "lower_edge\tcount\tfraction"
    assert lines[2].split("\t")[0] == "8"
