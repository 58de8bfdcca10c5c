import math
import random
import re
from bisect import bisect_left

import pytest
from hypothesis import given, settings, strategies as st

from edgedist.handover import (
    AnticipationOptimum,
    LossModel,
    LossTable,
    PersistenceTable,
    argmin_anticipation,
    expected_loss_curve,
    load_loss_table,
    load_persistence_table,
    multicast_persistence,
)
from edgedist.stats import HOP_COUNT, RTT_MS

from conftest import distribution_of


def rtt_dist(samples):
    return distribution_of(samples, RTT_MS)


def hop_dist(samples):
    return distribution_of([float(s) for s in samples], HOP_COUNT, 1.0)


# --- loss model ------------------------------------------------------------


def test_default_model_reactive_is_delay():
    model = LossModel(beta=0.1)
    assert model.total_losses([(37.0, 1)], [0.0]) == [37.0]


def test_default_model_tradeoff():
    model = LossModel(beta=0.1)
    assert model.total_losses([(30.0, 1)], [30.0, 40.0, 20.0]) == pytest.approx([3.0, 4.0, 12.0])


def test_table_model_lookup_and_refusal_to_extrapolate(tmp_path):
    path = tmp_path / "loss.csv"
    path.write_text(
        ",0,10,20\n"
        "10,10,4,3\n"
        "30,30,22,14\n"
    )
    table = load_loss_table(path)
    model = LossModel(table=table)
    assert model.total_losses([(10.0, 1)], [10.0]) == [4.0]
    assert model.total_losses([(20.0, 1)], [0.0]) == pytest.approx([20.0])  # bilinear midpoint
    with pytest.raises(ValueError):
        model.total_losses([(50.0, 1)], [0.0])
    with pytest.raises(ValueError):
        model.total_losses([(10.0, 1)], [25.0])


@pytest.mark.parametrize("mark", ["", "\ufeff"], ids=["plain", "marked"])
@pytest.mark.parametrize("blank", ["", "   ", "\t", " , ,"], ids=["empty", "spaces", "tab", "cells"])
def test_a_table_line_of_whitespace_is_skipped(tmp_path, blank, mark):
    # a line of spaces used to be a bad row in either table, a fatal error,
    # and so was any blank line before the persistence header; a marked
    # loss table read its mark into the first line's first cell
    loss = tmp_path / "loss.csv"
    loss.write_text(f"{mark}{blank}\n,0,10\n{blank}\n0,1,2\n{blank}\n10,3,4\n{blank}\n",
                    encoding="utf-8")
    assert load_loss_table(loss) == LossTable((0.0, 10.0), (0.0, 10.0),
                                              ((1.0, 2.0), (3.0, 4.0)))
    persist = tmp_path / "persist.csv"
    persist.write_text(f"{mark}{blank}\nhop,persist_ratio\n{blank}\n2,0.75\n{blank}\n",
                       encoding="utf-8")
    assert load_persistence_table(persist).entries == {2: 0.75}


def test_table_lookup_on_the_axis_edges():
    table = LossTable(delay_axis=(10.0, 30.0), anticipation_axis=(0.0, 10.0, 20.0),
                      values=((10.0, 4.0, 3.0), (30.0, 22.0, 14.0)))
    points = [(10.0, 0.0, 10.0), (30.0, 20.0, 14.0), (30.0, 5.0, 26.0),
              (20.0, 20.0, 8.5), (25.0, 15.0, 14.375)]
    for delay, anticipation, loss in points:
        assert table.total_losses([(delay, 1)], [anticipation]) == [loss]
        assert _lookup(table, delay, anticipation) == loss
    assert table.total_losses([], [0.0, 99.0]) == [0, 0]


def test_table_axes_must_increase():
    with pytest.raises(ValueError):
        LossTable(delay_axis=(10.0, 5.0), anticipation_axis=(0.0, 5.0),
                  values=((1.0, 1.0), (1.0, 1.0)))


# --- expected loss curve ---------------------------------------------------


def test_point_distribution_exact_anticipation():
    dist = rtt_dist([60.0])
    model = LossModel(beta=0.0)
    ((a, loss, packets),) = expected_loss_curve(dist, model, [30.0])
    assert loss == 0.0 and packets == 0.0


def test_reactive_anchor_equals_scaled_mean():
    rng = random.Random(5)
    dist = rtt_dist([rng.uniform(10, 200) for _ in range(300)])
    ((_, loss, _),) = expected_loss_curve(dist, LossModel(beta=0.1), [0.0])
    # exact sums: halving commutes with rounding, so no bit may differ
    assert loss == 0.5 * dist.mean


def test_uniform_three_delay_grid_search_oracle():
    # one-way delays {10, 20, 30} -> RTTs {20, 40, 60}, beta=0.1, step 5
    dist = rtt_dist([20.0, 40.0, 60.0])
    model = LossModel(beta=0.1)
    grid = [5.0 * i for i in range(21)]
    curve = expected_loss_curve(dist, model, grid)

    def oracle(a):
        return sum(max(0.0, d - a) + 0.1 * a for d in (10.0, 20.0, 30.0)) / 3

    for a, loss, packets in curve:
        assert loss == pytest.approx(oracle(a), abs=1e-12)
        assert packets == pytest.approx(loss / 10.0, abs=0)
    optimum = argmin_anticipation(curve)
    assert optimum.anticipation_ms == 30.0
    assert optimum.expected_loss_ms == pytest.approx(3.0)
    assert not optimum.flat


def _locate(axis, value, label):
    if value < axis[0] or value > axis[-1]:
        raise ValueError(f"{label} {value} outside table axis [{axis[0]}, {axis[-1]}]")
    if value == axis[-1]:
        return len(axis) - 2, 1.0
    idx = bisect_left(axis, value)
    if axis[idx] == value:
        return idx, 0.0
    idx -= 1
    return idx, (value - axis[idx]) / (axis[idx + 1] - axis[idx])


def _lookup(table, delay_ms, anticipation_ms):
    """One bilinear table lookup, the float expression the curve must
    reproduce bit for bit."""
    di, dw = _locate(table.delay_axis, delay_ms, "delay")
    ai, aw = _locate(table.anticipation_axis, anticipation_ms, "anticipation")
    near, far = table.values[di], table.values[di + 1]
    top = near[ai] * (1 - aw) + near[ai + 1] * aw
    bottom = far[ai] * (1 - aw) + far[ai + 1] * aw
    return top * (1 - dw) + bottom * dw


def _per_sample_curve(delay_dist, model, grid, delay_scale=0.5):
    """expected_loss_curve as a loop over L(d, a) per sample, each count
    expanded, summed with one rounding: its oracle."""

    def loss_at(delay_ms, anticipation_ms):
        if model.table is not None:
            return _lookup(model.table, delay_ms, anticipation_ms)
        return max(0.0, delay_ms - anticipation_ms) + model.beta * anticipation_ms

    samples = [rtt for rtt, count in delay_dist.values for _ in range(count)]
    curve = []
    for a in grid:
        total = math.fsum(loss_at(delay_scale * rtt, a) for rtt in samples)
        loss = total / delay_dist.n
        curve.append((a, loss, loss / 10.0))
    return curve


CURVE_TABLE = LossTable(delay_axis=(0.0, 30.0, 60.0), anticipation_axis=(0.0, 25.0, 50.0),
                        values=((0.0, 3.0, 6.0), (30.0, 11.5, 9.0), (60.0, 37.25, 12.0)))


@pytest.mark.parametrize("model", [LossModel(), LossModel(beta=0.0), LossModel(beta=0.37),
                                   LossModel(table=CURVE_TABLE)])
@pytest.mark.parametrize("scale", [0.5, 0.7])
def test_curve_equals_the_per_sample_loop(model, scale):
    rng = random.Random(4)
    dist = rtt_dist([0.0, 40.0, 80.0] + [rng.uniform(0, 80) for _ in range(500)])
    # grid points below, on and between the scaled samples, and a negative zero
    grid = [-0.0, 0.0, 3.3, 20.0, 28.0, 40.0, 40.1, 50.0]
    assert expected_loss_curve(dist, model, grid, scale) == \
        _per_sample_curve(dist, model, grid, scale)


def test_curve_outside_the_table_fails_like_the_per_sample_loop():
    dist = rtt_dist([10.0, 130.0])
    model = LossModel(table=CURVE_TABLE)
    for grid in ([0.0], [60.0], [0.0, 60.0]):
        with pytest.raises(ValueError) as expected:
            _per_sample_curve(dist, model, grid)
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            expected_loss_curve(dist, model, grid)


@st.composite
def _tables_and_points(draw):
    """A loss table, delays inside its delay axis and a grid inside its
    anticipation axis, each point an axis value or between two."""
    axis = st.lists(st.floats(0, 500), min_size=2, max_size=5, unique=True).map(sorted)
    delay_axis, anticipation_axis = tuple(draw(axis)), tuple(draw(axis))
    values = tuple(tuple(draw(st.floats(0, 1000)) for _ in anticipation_axis)
                   for _ in delay_axis)

    def inside(ax):
        return st.sampled_from(ax) | st.floats(ax[0], ax[-1])

    delays = draw(st.lists(inside(delay_axis), min_size=1, max_size=30))
    grid = draw(st.lists(inside(anticipation_axis), min_size=1, max_size=8))
    return LossTable(delay_axis, anticipation_axis, values), delays, grid


@settings(max_examples=200, deadline=None)
@given(_tables_and_points())
def test_table_curve_is_the_per_point_lookup_bit_for_bit(case):
    table, delays, grid = case
    dist = rtt_dist([2 * d for d in delays])  # halved back exactly by the default scale
    model = LossModel(table=table)
    assert expected_loss_curve(dist, model, grid) == _per_sample_curve(dist, model, grid)


@pytest.mark.parametrize("rtts, grid, message", [
    # the first delay before the first anticipation
    ([-10.0, 20.0, 130.0], [60.0, 10.0], "delay -5.0 outside table axis [0.0, 60.0]"),
    # the first anticipation before later delays
    ([20.0, 130.0, 140.0], [60.0, 10.0], "anticipation 60.0 outside table axis [0.0, 50.0]"),
    # later delays in order, before later anticipations
    ([20.0, 130.0, 140.0], [10.0, 60.0], "delay 65.0 outside table axis [0.0, 60.0]"),
    # later anticipations in order
    ([20.0, 40.0], [10.0, 55.0, 70.0], "anticipation 55.0 outside table axis [0.0, 50.0]"),
], ids=["first-delay", "first-anticipation", "later-delay", "later-anticipation"])
def test_table_curve_raises_the_first_error_of_the_per_point_lookups(rtts, grid, message):
    dist = rtt_dist(rtts)  # samples are sorted, so the first delay is the smallest
    model = LossModel(table=CURVE_TABLE)
    for curve in (expected_loss_curve, _per_sample_curve):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            curve(dist, model, grid)


@pytest.mark.parametrize("model, message", [
    (LossModel(beta=1e306), "anticipation 100 ms overflows (beta=1e+306, delay_scale=0.5)"),
    (LossModel(table=LossTable((0.0, 50.0), (0.0, 100.0), ((1e308, 1e308), (1e308, 1e308)))),
     "anticipation 0 ms overflows (loss table, delay_scale=0.5)"),
], ids=["default", "table"])
def test_a_loss_sum_past_the_float_range_is_named(model, message):
    # each sample's loss is finite, 1e308, and the sum of the two is not
    with pytest.raises(ValueError, match=f"^expected loss at {re.escape(message)}$"):
        expected_loss_curve(rtt_dist([10.0, 20.0]), model, [0.0, 100.0])


def test_curve_requires_rtt_metric():
    with pytest.raises(ValueError):
        expected_loss_curve(hop_dist([5]), LossModel(), [0.0])


def test_packets_are_loss_over_ten_ms():
    dist = rtt_dist([100.0])
    curve = expected_loss_curve(dist, LossModel(beta=0.1), [0.0, 10.0])
    for _, loss, packets in curve:
        assert packets == loss / 10.0


# --- argmin ----------------------------------------------------------------


def test_argmin_convex_interior():
    curve = [(0.0, 9.0, 0.9), (5.0, 4.0, 0.4), (10.0, 6.0, 0.6)]
    optimum = argmin_anticipation(curve)
    assert optimum.anticipation_ms == 5.0 and not optimum.flat


def test_argmin_constant_curve_is_flat():
    curve = [(a, 7.0, 0.7) for a in (0.0, 5.0, 10.0)]
    assert argmin_anticipation(curve).flat


def test_argmin_tie_takes_smallest_anticipation():
    curve = [(0.0, 5.0, 0.5), (5.0, 2.0, 0.2), (10.0, 2.0, 0.2), (15.0, 9.0, 0.9)]
    assert argmin_anticipation(curve).anticipation_ms == 5.0


def test_argmin_quantile_sandwich_property():
    # the grid argmin of the default model stays within one grid step of the
    # (1-beta)-quantile of the one-way delay distribution
    rng = random.Random(19)
    step = 5.0
    grid = [step * i for i in range(41)]
    for _ in range(25):
        rtts = [rng.uniform(10, 300) for _ in range(rng.randint(20, 200))]
        dist = rtt_dist(rtts)
        for beta in (0.05, 0.1, 0.2):
            curve = expected_loss_curve(dist, LossModel(beta=beta), grid)
            a_star = argmin_anticipation(curve).anticipation_ms
            delays = sorted(0.5 * r for r in rtts)

            def ccdf(t):
                return sum(1 for d in delays if d > t) / len(delays)

            assert ccdf(a_star + step) <= beta + 1e-12
            assert ccdf(a_star - step) >= beta - 1e-12


# --- persistence -----------------------------------------------------------


def test_persistence_point_mass():
    table = PersistenceTable(entries={2: 0.8})
    assert multicast_persistence(hop_dist([2]), table) == pytest.approx(0.8)


def test_persistence_uniform_two_values():
    table = PersistenceTable(entries={1: 1.0, 2: 0.8})
    assert multicast_persistence(hop_dist([1, 2]), table) == pytest.approx(0.9)


def test_persistence_missing_entry_lists_hops():
    table = PersistenceTable(entries={1: 1.0})
    with pytest.raises(ValueError, match=r"\[2\]"):
        multicast_persistence(hop_dist([1, 2]), table)


def test_persistence_direct_sum_oracle():
    rng = random.Random(31)
    hops = [min(40, int(rng.expovariate(0.2)) + 1) for _ in range(1000)]
    table = PersistenceTable(entries={h: max(0.0, 1.0 - 0.02 * h) for h in range(1, 41)})
    got = multicast_persistence(hop_dist(hops), table)
    direct = sum(table.entries[h] for h in hops) / len(hops)
    assert got == pytest.approx(direct, abs=1e-12)


def test_persistence_table_loader(tmp_path):
    path = tmp_path / "persist.csv"
    path.write_text("hop,persist_ratio\n1,1.0\n2,0.8\n")
    table = load_persistence_table(path)
    assert table.entries == {1: 1.0, 2: 0.8}


def test_persistence_ratio_bounds():
    with pytest.raises(ValueError):
        PersistenceTable(entries={1: 1.2})
    with pytest.raises(ValueError, match="negative hop -1"):
        PersistenceTable(entries={-1: 0.5})


def test_persistence_stochastic_monotonicity():
    # A stochastically larger hop distribution never persists better under a
    # non-increasing table
    rng = random.Random(37)
    table = PersistenceTable(entries={h: max(0.2, 1.0 - 0.03 * h) for h in range(1, 61)})
    for _ in range(100):
        base = [rng.randint(1, 30) for _ in range(rng.randint(10, 100))]
        shifted = [b + rng.randint(0, 20) for b in base]
        low = multicast_persistence(hop_dist(base), table)
        high = multicast_persistence(hop_dist(shifted), table)
        assert high <= low + 1e-12
