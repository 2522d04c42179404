import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import min_drops_exhaustive, walk_oracle_reference

from anonrelay import analytic
from anonrelay._util import BatchMeans, batch_stderr, substream
from anonrelay.point_process import (
    EmptyScheduleError,
    GenSpec,
    Schedule,
    ScheduleError,
    gen_poisson,
)
from anonrelay.relay_core import (
    MatchResult,
    RelayPathStats,
    avg_delay_relay,
    bounded_greedy_match,
    match_result_from_text,
    match_result_to_text,
    priority_relay,
    random_walk_oracle,
    stream_relay,
)


def _epochs(values):
    return np.asarray(sorted(set(values)), dtype=float)


def test_match_every_arrival_in_window():
    r = bounded_greedy_match([1.0, 2.0], [1.5, 2.5], 1.0)
    assert r.pairs.tolist() == [[1.0, 1.5], [2.0, 2.5]]
    assert r.n_dropped == 0
    assert r.dummy_departures.size == 0


def test_missed_window_drops_and_dummies():
    r = bounded_greedy_match([1.0], [5.0], 1.0)
    assert r.dropped_arrivals.tolist() == [1.0]
    assert r.dummy_departures.tolist() == [5.0]
    assert r.n_matched == 0


def test_departure_coinciding_with_arrival_is_usable():
    r = bounded_greedy_match([1.0], [1.0], 0.5)
    assert r.pairs.tolist() == [[1.0, 1.0]]


def test_leftover_arrivals_count_as_drops():
    r = bounded_greedy_match([1.0, 2.0, 3.0], [1.5], math.inf)
    assert r.n_matched == 1
    assert r.dropped_arrivals.tolist() == [2.0, 3.0]


epoch_lists = st.lists(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False), min_size=0, max_size=25
)


@given(epoch_lists, epoch_lists, st.floats(min_value=0.0, max_value=10.0))
@settings(max_examples=200, deadline=None)
def test_match_partitions_and_fifo(arr, dep, delay):
    arrivals = _epochs(arr)
    departures = _epochs(dep)
    r = bounded_greedy_match(arrivals, departures, delay)
    # matches plus drops are the arrivals, matches plus dummies the departures
    pairs = r.pairs
    assert np.array_equal(np.sort(np.concatenate([pairs[:, 0], r.dropped_arrivals])), arrivals)
    assert np.array_equal(np.sort(np.concatenate([pairs[:, 1], r.dummy_departures])), departures)
    mask = r.dropped
    assert np.array_equal(mask, np.isin(arrivals, r.dropped_arrivals))
    assert np.array_equal(arrivals[mask], r.dropped_arrivals)
    if r.n_matched:
        d = r.delays
        assert d.min() >= 0.0 and d.max() <= delay


@given(epoch_lists, epoch_lists, st.floats(min_value=0.0, max_value=5.0),
       st.floats(min_value=0.0, max_value=5.0))
@settings(max_examples=150, deadline=None)
def test_drops_nonincreasing_in_window(arr, dep, d1, d2):
    arrivals = _epochs(arr)
    departures = _epochs(dep)
    lo, hi = min(d1, d2), max(d1, d2)
    assert (
        bounded_greedy_match(arrivals, departures, hi).n_dropped
        <= bounded_greedy_match(arrivals, departures, lo).n_dropped
    )


@pytest.mark.parametrize("bad", [
    [0.1, math.nan, 0.9],     # not finite
    [0.1, math.inf],          # not finite
    [-0.5, 1.0],              # negative
    [0.5, 1.0, 1.0, 2.0],     # repeated epoch
    [0.5, 2.0, 1.0],          # out of order
])
@pytest.mark.parametrize("side", ["arrivals", "departures"])
def test_match_rejects_malformed_raw_epochs(bad, side):
    good = [0.25, 0.75, 1.5]
    arrivals, departures = (bad, good) if side == "arrivals" else (good, bad)
    with pytest.raises(ScheduleError):
        bounded_greedy_match(arrivals, departures, 1.0)
    with pytest.raises(ScheduleError):
        bounded_greedy_match(np.asarray(arrivals), np.asarray(departures), 1.0)


def test_greedy_matches_exhaustive_minimum_drops():
    rng = np.random.default_rng(123)
    for _ in range(300):
        n = rng.integers(0, 13)
        m = rng.integers(0, 13)
        arrivals = np.sort(rng.uniform(0, 10, n))
        departures = np.sort(rng.uniform(0, 10, m))
        delay = float(rng.uniform(0, 3))
        got = bounded_greedy_match(arrivals, departures, delay).n_dropped
        assert got == min_drops_exhaustive(arrivals, departures, delay)


def test_single_stream_priority_equals_plain_match():
    h = 5000.0
    s = gen_poisson(GenSpec(1.0, h, 3), node_id="s")
    out = gen_poisson(GenSpec(1.5, h, 4), node_id="b")
    (res,) = priority_relay([s], out, ("s",), 0.8)
    plain = bounded_greedy_match(s, out, 0.8)
    assert np.array_equal(res.pairs, plain.pairs)
    assert np.array_equal(res.dropped_arrivals, plain.dropped_arrivals)


def test_top_priority_stream_sees_departures_alone():
    h = 5000.0
    s1 = gen_poisson(GenSpec(1.0, h, 5), node_id="s1")
    s2 = gen_poisson(GenSpec(0.8, h, 6), node_id="s2")
    out = gen_poisson(GenSpec(1.5, h, 7), node_id="b")
    top, low = priority_relay([s1, s2], out, ("s1", "s2"), 1.0)
    alone = bounded_greedy_match(s1, out, 1.0)
    assert np.array_equal(top.pairs, alone.pairs)
    assert np.array_equal(top.dropped_arrivals, alone.dropped_arrivals)
    # the low stream only ever uses epochs the top stream left unused
    assert set(low.pairs[:, 1]).issubset(set(alone.dummy_departures))


def test_equal_priority_loss_matches_merged_closed_form():
    h = 2e5
    s1 = gen_poisson(GenSpec(1.0, h, 11), node_id="s1")
    s2 = gen_poisson(GenSpec(1.0, h, 12), node_id="s2")
    out = gen_poisson(GenSpec(2.0, h, 13), node_id="b")
    results = priority_relay([s1, s2], out, None, 1.0)
    predicted = analytic.loss_fraction(2.0, 2.0, 1.0)
    for res in results:
        n = res.n_matched + res.n_dropped
        sigma = math.sqrt(predicted * (1 - predicted) / n) * 2.0  # correlated stream margin
        assert res.drop_fraction == pytest.approx(predicted, abs=3 * sigma + 5e-3)


def test_equal_priority_shares_dummy_epochs():
    s1 = Schedule("s1", [1.0, 4.0])
    s2 = Schedule("s2", [2.0])
    out = Schedule("b", [1.5, 2.5, 9.0])
    r1, r2 = priority_relay([s1, s2], out, None, 1.0)
    assert np.array_equal(r1.dummy_departures, r2.dummy_departures)
    used = set(r1.pairs[:, 1]) | set(r2.pairs[:, 1]) | set(r1.dummy_departures)
    assert used == set(out.epochs.tolist())


def test_avg_delay_fast_relay_never_drops():
    h = 2e4
    arrivals = gen_poisson(GenSpec(1.0, h, 31), node_id="in")
    departures = gen_poisson(GenSpec(3.0, h + 100.0, 32), node_id="out")
    res = avg_delay_relay(arrivals, departures, 1.0)
    assert math.isinf(res.delay_bound)
    assert res.n_dropped == 0


def test_avg_delay_meets_mean_bound():
    h = 2e5
    arrivals = gen_poisson(GenSpec(1.0, h, 33), node_id="in")
    departures = gen_poisson(GenSpec(1.2, h, 34), node_id="out")
    res = avg_delay_relay(arrivals, departures, 0.8)
    assert math.isfinite(res.delay_bound)
    sigma = res.delays.std() / math.sqrt(res.n_matched)
    assert res.mean_delay == pytest.approx(0.8, abs=3 * sigma + 1e-3)


def test_avg_delay_never_worse_than_strict_at_mean_bound():
    h = 5e4
    arrivals = gen_poisson(GenSpec(1.0, h, 35), node_id="in")
    departures = gen_poisson(GenSpec(1.1, h, 36), node_id="out")
    relaxed = avg_delay_relay(arrivals, departures, 0.7)
    strict = bounded_greedy_match(arrivals, departures, 0.7)
    assert relaxed.drop_fraction <= strict.drop_fraction


def test_avg_delay_requires_nonempty_inputs():
    with pytest.raises(EmptyScheduleError):
        avg_delay_relay(Schedule("a", []), Schedule("b", [1.0]), 1.0)


def test_walk_oracle_zero_window_loses_everything():
    r = random_walk_oracle(1.0, 1.0, 0.0, steps=20000, seed=1)
    assert r.loss_fraction == pytest.approx(1.0)
    assert math.isnan(r.mean_interior_delay)


def test_walk_oracle_equal_rates():
    r = random_walk_oracle(1.0, 1.0, 1.0, steps=1_000_000, seed=2)
    assert abs(r.loss_fraction - 0.5) <= 3 * r.loss_stderr
    assert abs(r.mean_interior_delay - analytic.mean_delay(1.0, 1.0, 1.0)) \
        <= 3 * r.delay_stderr


def test_walk_oracle_matches_closed_forms():
    for cs, cb, delta in ((1.0, 2.0, 1.0), (2.0, 1.0, 0.5), (0.5, 0.5, 2.0)):
        r = random_walk_oracle(cs, cb, delta, steps=600_000, seed=8)
        assert abs(r.loss_fraction - analytic.loss_fraction(cs, cb, delta)) \
            <= 3 * r.loss_stderr
        assert abs(r.mean_interior_delay - analytic.mean_delay(delta, cs, cb)) \
            <= 3 * r.delay_stderr


def test_walk_oracle_deterministic():
    a = random_walk_oracle(1.0, 1.5, 1.0, steps=50_000, seed=4)
    b = random_walk_oracle(1.0, 1.5, 1.0, steps=50_000, seed=4)
    assert a == b or (a.loss_fraction == b.loss_fraction and a.p_lower == b.p_lower)


@pytest.mark.parametrize("cs,cb,delta,steps,chains", [
    (1.0, 1.0, 1.0, 10_000_000, 1000),  # criterion 02's setting
    (1.0, 2.0, 0.0, 30_000, 512),       # zero window
    (2.0, 1.0, 0.5, 100_003, 512),      # steps not a multiple of chains
    (0.5, 0.5, 2.0, 300, 512),          # fewer steps than chains
    (1.0, 3.0, 1.0, 100_003, 512),      # scales that do not multiply exactly
    (0.7, 1.3, 0.4, 30_000, 1000),
    (1.0, 1.5, 1.0, 3_000, 1),          # one chain, whose column numpy sums pairwise
])
def test_walk_oracle_matches_per_step_loop(cs, cb, delta, steps, chains):
    got = dataclasses.astuple(random_walk_oracle(cs, cb, delta, steps, seed=2024, chains=chains))
    ref = walk_oracle_reference(cs, cb, delta, steps, substream(2024, "walk", cs, cb, delta),
                                chains=chains)
    assert len(got) == 7
    # bit for bit, NaN included
    assert [float(v).hex() for v in got] == [float(v).hex() for v in ref]


_WALK_ARGS = dict(input_rate=1.0, relay_rate=1.0, delay=1.0, steps=100, seed=0)


@pytest.mark.parametrize("arg,bads", [
    ("input_rate", [0.0, -1.0, math.inf, math.nan]),
    ("relay_rate", [0.0, -2.0, math.inf, math.nan]),
    ("delay", [-0.5, math.inf, math.nan]),
    ("steps", [0, -3, 2.5, True, "100"]),
    ("chains", [0, -1, 8.0, False]),
    ("burn_in", [-1, 10.5, True, None]),
])
def test_walk_oracle_rejects_a_bad_argument_by_name(arg, bads):
    for bad in bads:
        with pytest.raises(ValueError, match=arg):
            random_walk_oracle(**{**_WALK_ARGS, arg: bad})


def test_walk_oracle_accepts_no_burn_in_and_numpy_counts():
    r = random_walk_oracle(1.0, 1.0, 1.0, steps=np.int64(1000), seed=0, chains=np.int32(10),
                           burn_in=0)
    assert r.steps == 1000


def test_walk_oracle_memory_is_flat_in_the_steps():
    random_walk_oracle(1.0, 1.0, 1.0, steps=1000, seed=3)  # numpy imports some modules lazily
    peaks = []
    for steps in (1_000_000, 10_000_000):
        tracemalloc.start()
        try:
            random_walk_oracle(1.0, 1.0, 1.0, steps=steps, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 0.5e6, peaks


def test_match_result_text_round_trip():
    r = bounded_greedy_match([0.5, 1.25, 3.0], [1.0, 1.5], 1.0)
    r2 = match_result_from_text(match_result_to_text(r))
    assert np.array_equal(r.pairs, r2.pairs)
    assert np.array_equal(r.dropped_arrivals, r2.dropped_arrivals)
    assert np.array_equal(r.dummy_departures, r2.dummy_departures)
    assert r2.delay_bound == r.delay_bound


def test_match_result_text_rejects_an_epoch_listed_twice():
    text = "match delay 1.0\n[pairs]\n1.0 1.5\n[dropped]\n1.0\n[dummies]\n"
    with pytest.raises(ScheduleError):
        match_result_from_text(text)


def test_match_result_rejects_bad_pairs():
    with pytest.raises(ValueError, match="departs before it arrives"):
        MatchResult.from_index(arrivals=[2.0], departures=[1.0], index=[0], delay_bound=1.0)
    with pytest.raises(ValueError, match="exceeds the delay bound"):
        MatchResult.from_index(arrivals=[0.0], departures=[2.0], index=[0], delay_bound=1.0)
    with pytest.raises(ValueError, match="not in FIFO order"):
        MatchResult.from_index(arrivals=[1.0, 2.0], departures=[2.5, 3.0], index=[1, 0],
                               delay_bound=2.5)
    for arrivals, departures, index in (([1.0], [2.0], [1]), ([1.0], [2.0], [-3]),
                                        ([1.0], [2.0, 3.0], [0])):
        with pytest.raises(ValueError, match="one arrival index, DUMMY or OTHER"):
            MatchResult.from_index(arrivals=arrivals, departures=departures, index=index,
                                   delay_bound=5.0)


# Each fault planted into carried pairs that are otherwise valid: arrivals
# 1, 2, 3 leave at departures 1.5, 2.5, 3.5 (positions 0, 2, 4) within 1.
@pytest.mark.parametrize("carried, slots, message", [
    ([0, 1, 2], [0, 2, 2], "strictly increasing positions"),  # a slot repeated
    ([0, 1, 2], [0, 4, 2], "strictly increasing positions"),  # slots out of order
    ([0, 1, 2], [0, 2, 6], "strictly increasing positions"),  # past the departures
    ([0, 1, 2], [-1, 2, 4], "strictly increasing positions"),
    ([0, 1, 2], [0, 2], "one arrival index per slot"),
    ([0, 1, 3], [0, 2, 4], "one arrival index per slot"),  # past the arrivals
    ([-1, 1, 2], [0, 2, 4], "one arrival index per slot"),
    ([1, 0, 2], [0, 2, 4], "not in FIFO order"),
    ([0, 1, 2], [0, 1, 2], "departs before it arrives"),
    ([0, 1, 2], [0, 2, 5], "exceeds the delay bound"),
])
def test_sparse_match_result_rejects_each_planted_fault(carried, slots, message):
    arrivals, departures = [1.0, 2.0, 3.0], [1.5, 2.0, 2.5, 3.0, 3.5, 4.5]
    MatchResult(arrivals, departures, [0, 1, 2], [0, 2, 4], 1.0)  # the unplanted pairs pass
    with pytest.raises(ValueError, match=message):
        MatchResult(arrivals, departures, carried, slots, 1.0)


def test_drop_tally_of_streamed_steps_equals_the_whole_match():
    # split unevenly, so steps end off batch edges
    rng = substream(9, "tally")
    arr = np.cumsum(rng.exponential(1.0, 150_000))
    dep = np.cumsum(rng.exponential(0.9, 150_000))
    whole = bounded_greedy_match(arr, dep, 1.0)
    for batches in (32, 100):
        flags = BatchMeans(arr.size, batches)
        for step in stream_relay({"in": np.array_split(arr, 13)}, np.array_split(dep, 7),
                                 ("in",), 1.0):
            flags.add(step["in"].dropped)
        st = RelayPathStats.from_flags(flags)
        assert st == RelayPathStats(arr.size, whole.n_dropped,
                                    batch_stderr(whole.dropped, batches))
    assert st.drop_fraction == whole.drop_fraction


def test_drop_tally_of_an_empty_stream_loses_nothing_exactly():
    assert RelayPathStats.from_flags(BatchMeans(0)) == RelayPathStats(0, 0, 0.0)
    assert RelayPathStats.from_flags(BatchMeans(1000, 100)) == RelayPathStats(0, 0, 0.0)
    flags = BatchMeans(1000, 100)
    flags.add(bounded_greedy_match([], [1.0, 2.0], 1.0).dropped)
    assert RelayPathStats.from_flags(flags) == RelayPathStats(0, 0, 0.0)
    assert RelayPathStats.from_flags(flags).drop_fraction == 0.0
