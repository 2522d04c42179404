"""The block-scan matching kernel against the per-departure loops it
replaced (`oracles.greedy_match_reference`, `oracles.joint_match_reference`):
pairs, drops, dummies and drop flags must be equal, element for element,
whether the kernel takes the departures in one pass or in chunks, and
whether the epochs come whole or streamed."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import greedy_match_reference, joint_match_reference

from anonrelay import point_process, relay_core
from anonrelay.point_process import (GenSpec, Schedule, ScheduleError, gen_poisson,
                                     poisson_chunks)
from anonrelay.relay_core import (
    DUMMY,
    OTHER,
    MatchResult,
    _concat_results,
    _joint_match,
    _match_index,
    _matcher,
    bounded_greedy_match,
    priority_relay,
    stream_relay,
)


def _grid(values):
    return np.asarray(sorted(values), dtype=float) / 4.0


# Quarter-unit epochs and delays: arrivals, departures and window cuts
# (t - delay) all land on one grid, so they tie exactly.
def dyadic(max_size=60):
    return st.lists(st.integers(0, 160), max_size=max_size, unique=True).map(_grid)


delays = st.one_of(st.just(0.0), st.integers(1, 40).map(lambda q: q / 4.0), st.just(math.inf))

# Past 2**53 doubles are 2 apart, so t - 1 is no double: rounded to nearest,
# 2**53 + 6 less 1 is 2**53 + 4, while the exact window keeps only arrivals
# at or after 2**53 + 5, so the cut is 2**53 + 6.
BIG = 2.0 ** 53


def assert_same(result, ref):
    pairs, drops, dummies = ref
    assert np.array_equal(result.pairs, pairs)
    assert np.array_equal(result.dropped_arrivals, drops)
    assert np.array_equal(result.dummy_departures, dummies)
    assert np.array_equal(result.dropped, np.isin(result.arrivals, drops))


EMPTY = np.empty(0)


@given(dyadic(), dyadic(), delays)
@settings(max_examples=300, deadline=None)
@example(EMPTY, _grid([1, 2, 3]), 1.0)              # no arrivals: all dummies
@example(_grid([1, 2, 3]), EMPTY, 1.0)              # no departures: all drops
@example(EMPTY, EMPTY, 0.0)
@example(_grid([0, 1, 2]), _grid([40, 41, 42]), 1.0)  # every window expired
@example(_grid([40, 41]), _grid([0, 1, 2]), math.inf)  # departures all early
# The merge keys are float64 bits shifted left by 1, tagged in the low bit:
@example(np.array([-0.0, 1.0]), np.array([-0.0, 1.0]), 0.0)  # -0.0 keys as 0.0
@example(np.array([-0.0]), np.array([0.0, 1.0]), 0.0)
@example(np.array([5e-324, 1e-300, 1.0, 1e300]),              # keys across binades
         np.array([1e-300, 1.0, 2.0, 1e300]), 1.0)
@example(_grid([0, 1, 2, 3]), _grid([1, 8]), 1.0)      # cuts below and above 0
@example(_grid([0, 1]), _grid([4, 5]), 1.0)            # a cut at 0 ties an arrival
@example(BIG + np.array([2.0, 4, 8]), BIG + np.array([2.0, 4, 6, 8]), 1.0)  # cuts past 2**53
@example(np.array([BIG + 4]), np.array([BIG + 6]), 1.0)  # the cut rounds up, not down
def test_kernel_matches_loop(arr, dep, delay):
    assert_same(bounded_greedy_match(arr, dep, delay), greedy_match_reference(arr, dep, delay))


def test_window_cut_is_exact_past_2_53():
    # 2**53 + 4 is 2 old at 2**53 + 6: its window of 1 has expired, though
    # 2**53 + 6 - 1 rounds to it
    res = bounded_greedy_match([BIG + 4], [BIG + 6], 1.0)
    assert res.n_matched == 0
    assert np.array_equal(res.dropped_arrivals, [BIG + 4])
    assert np.array_equal(res.dummy_departures, [BIG + 6])


# Epochs on the quarter grid, where ties are common, or at the edges of the
# merge keys: -0.0, the least subnormal, far binades, past 2**53.
epochs = st.one_of(st.integers(0, 40).map(lambda q: q / 4.0),
                   st.sampled_from([-0.0, 5e-324, 1e-300, 1e300, BIG, BIG + 4]),
                   st.floats(0.0, 1e300))


# Both ways of ranking: the merge, and the binary searches taken past
# _MERGE_MAX_RATIO arrivals per needle (ratio 0 takes them always).
@pytest.mark.parametrize("ratio", [relay_core._MERGE_MAX_RATIO, 0])
@given(st.lists(epochs, max_size=40), st.lists(epochs, min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_ranks_equal_searchsorted(ratio, arr, needles):
    arr = np.sort(np.asarray(arr, dtype=float))  # ties kept, as merged streams can tie
    needles = np.sort(np.asarray(needles, dtype=float))  # ties kept, as cuts can tie
    out = np.empty(needles.size, dtype=np.int64)
    saved, relay_core._MERGE_MAX_RATIO = relay_core._MERGE_MAX_RATIO, ratio
    try:
        for right, side in ((True, "right"), (False, "left")):
            relay_core._ranks(arr, needles, right, out)
            assert np.array_equal(out - np.arange(needles.size),
                                  np.searchsorted(arr, needles, side=side)), side
    finally:
        relay_core._MERGE_MAX_RATIO = saved


# An overloaded relay, 16 arrivals per departure, ranks by binary searches;
# passes of 50 departures put the chunk edges in the backlog.
@pytest.mark.parametrize("delay", [0.75, math.inf])
def test_kernel_matches_loop_when_overloaded(delay, monkeypatch):
    rng = np.random.default_rng(7)
    arr = np.cumsum(rng.exponential(1 / 16, 8000))
    dep = np.cumsum(rng.exponential(1.0, 400))
    monkeypatch.setattr(relay_core, "_CHUNK", 50)
    assert_same(bounded_greedy_match(arr, dep, delay), greedy_match_reference(arr, dep, delay))


# The kernel cuts the departures into blocks of ceil(sqrt(n)); these
# lengths put the last block at its edges (k^2 - 1, k^2, k^2 + 1).
@pytest.mark.parametrize("n", [1, 2, 8, 9, 10, 48, 49, 50, 99, 100, 101])
@pytest.mark.parametrize("delay", [0.0, 0.75, math.inf])
def test_kernel_matches_loop_at_block_edges(n, delay):
    rng = np.random.default_rng(n)
    for n_arr in (n - 1, n, n + 1):
        arr = _grid(rng.choice(4 * n + 4, size=n_arr, replace=False))
        dep = _grid(rng.choice(4 * n + 4, size=n, replace=False))
        assert_same(bounded_greedy_match(arr, dep, delay), greedy_match_reference(arr, dep, delay))


# Up to six streams, as a 6x6 cascade relay merges: three tag bits.
@given(st.lists(dyadic(25), min_size=2, max_size=6), dyadic(), delays,
       st.permutations("uvwxyz"))
@settings(max_examples=200, deadline=None)
def test_joint_kernel_matches_loop(arrs, dep, delay, names):
    streams = dict(zip(names, arrs))
    got = _joint_match(streams, dep, delay)
    ref = joint_match_reference(streams, dep, delay)
    assert got.keys() == ref.keys()
    for k in got:
        assert_same(got[k], ref[k])


def test_kernel_matches_loop_on_poisson_pair():
    h = 200_000.0
    arr = gen_poisson(GenSpec(1.0, h, 21), node_id="in")
    dep = gen_poisson(GenSpec(1.0, h, 22), node_id="out")
    assert_same(bounded_greedy_match(arr, dep, 1.0),
                greedy_match_reference(arr.epochs, dep.epochs, 1.0))


def test_joint_tie_goes_to_first_node_id():
    got = _joint_match({"b": np.array([1.0]), "a": np.array([1.0])}, np.array([1.5]), 1.0)
    assert got["a"].pairs.tolist() == [[1.0, 1.5]]
    assert got["a"].index.tolist() == [0]
    assert got["b"].index.tolist() == [OTHER]
    assert got["b"].n_matched == 0
    assert got["b"].dropped_arrivals.tolist() == [1.0]


def test_index_round_trips_through_the_sparse_form():
    for index in ([0, OTHER, DUMMY, 1], [DUMMY, 0, DUMMY], [], [OTHER, OTHER]):
        dep = np.arange(len(index)) + 1.0
        r = MatchResult.from_index([0.5, 1.5], dep, index, 3.0)
        assert r.index.tolist() == index
        assert r.dummy_departures.tolist() == dep[np.equal(index, DUMMY)].tolist()


def test_joint_empty_stream_shares_dummies():
    got = _joint_match({"a": np.array([1.0]), "z": np.empty(0)}, np.array([1.5, 2.0]), 1.0)
    assert got["z"].pairs.shape == (0, 2)
    assert got["z"].n_dropped == 0
    assert np.shares_memory(got["z"].dummy_departures, got["a"].dummy_departures)
    assert got["z"].dummy_departures.tolist() == [2.0]


def test_joint_without_departures_drops_everything():
    got = _joint_match({"a": np.array([1.0, 2.0]), "b": np.array([1.5])}, np.empty(0), 1.0)
    assert got["a"].dropped_arrivals.tolist() == [1.0, 2.0]
    assert got["b"].dropped_arrivals.tolist() == [1.5]
    assert all(r.n_matched == 0 and r.dummy_departures.size == 0 for r in got.values())


@pytest.mark.parametrize("delay", [-1.0, math.nan])
@pytest.mark.parametrize("order", [("s1", "s2"), None])
def test_priority_relay_rejects_bad_delay(delay, order):
    s1 = Schedule("s1", np.array([0.5, 1.5]))
    s2 = Schedule("s2", np.array([1.0]))
    out = Schedule("b", np.array([1.2, 2.0]))
    with pytest.raises(ValueError, match="delay must be nonnegative"):
        priority_relay([s1, s2], out, order, delay)


# Scratch of the kernel at a million departures, the returned index included,
# in units of one input-sized int64 array (8n bytes).
@pytest.mark.parametrize("delay", [1.0, math.inf])
def test_kernel_scratch_is_bounded(delay):
    _assert_kernel_scratch_is_bounded(delay, 1.0)


# Arrivals at twice the departure rate under no delay bound leave a backlog
# that grows to n / 2 arrivals by the end; a pass must not rank all of it.
# At 16 times, a pass ranks by binary searches.
@pytest.mark.parametrize("rate", [2.0, 16.0])
def test_kernel_scratch_is_bounded_when_overloaded(rate):
    _assert_kernel_scratch_is_bounded(math.inf, rate)


def _assert_kernel_scratch_is_bounded(delay, rate):
    n = 1_000_000
    rng = np.random.default_rng(5)
    arr = np.cumsum(rng.exponential(1.0 / rate, n))
    dep = np.cumsum(rng.exponential(1.0, n))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        index = _match_index(arr, dep, delay)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert index.size == n
    assert peak <= 1.5 * 8 * n, peak / (8 * n)


# Six equal-priority streams over D departures keep each stream's carried
# pairs and one shared dummies array: O(carried + D) bytes, where a
# per-stream index over every departure would keep 6 x 8D.
def test_joint_results_keep_their_carried_pairs_not_an_index_per_stream():
    n = 200_000
    rng = np.random.default_rng(6)
    streams = {k: np.cumsum(rng.exponential(6.0, n // 6)) for k in "abcdef"}
    dep = np.cumsum(rng.exponential(0.8, n))
    _joint_match(streams, dep, 1.0)  # warm up lazily imported numpy code
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = _joint_match(streams, dep, 1.0)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    carried = sum(r.n_matched for r in got.values())
    dummies = got["a"].dummy_departures.size
    assert carried > 0.4 * n and dummies > 0.4 * n
    assert all(np.shares_memory(r.dummy_departures, got["a"].dummy_departures)
               for r in got.values())
    assert kept <= 8 * (2 * carried + dummies) + 100_000, kept


# Kernel passes of a few departures put chunk edges everywhere: on ties, on
# expired windows, between a departure and the arrival it carries.
@pytest.mark.parametrize("chunk", [1, 2, 7])
@given(dyadic(), dyadic(), delays)
@settings(max_examples=100, deadline=None)
@example(_grid([0, 1, 2, 3]), _grid([1, 2, 3, 4, 5, 6, 7, 8]), 0.0)
@example(_grid([4, 4.5, 5, 9]), _grid([1, 2, 3, 4, 5, 6, 7, 8, 9]), math.inf)
def test_chunked_kernel_matches_loop(chunk, arr, dep, delay):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relay_core, "_CHUNK", chunk)
        got = bounded_greedy_match(arr, dep, delay)
    assert_same(got, greedy_match_reference(arr, dep, delay))


@pytest.mark.parametrize("chunk", [1, 2, 7])
@given(st.lists(dyadic(25), min_size=2, max_size=6), dyadic(), delays)
@settings(max_examples=60, deadline=None)
def test_chunked_joint_kernel_matches_loop(chunk, arrs, dep, delay):
    streams = dict(zip("abcdef", arrs))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relay_core, "_CHUNK", chunk)
        got = _joint_match(streams, dep, delay)
    ref = joint_match_reference(streams, dep, delay)
    for k in streams:
        assert_same(got[k], ref[k])


def _pieces(x, cuts):
    """`x` split at the given fractions of its length, empty pieces kept."""
    edges = sorted(int(c * x.size) for c in cuts)
    return np.split(x, edges)


def assert_equal_results(got, want):
    assert np.array_equal(got.arrivals, want.arrivals)
    assert np.array_equal(got.departures, want.departures)
    assert np.array_equal(got.index, want.index)
    assert np.array_equal(got.dummy_departures, want.dummy_departures)


fractions = st.lists(st.floats(0.0, 1.0), max_size=4)


@pytest.mark.parametrize("ordering", [("a", "b"), ("b", "a"), None])
@given(dyadic(30), dyadic(30), dyadic(), delays, fractions, fractions, fractions,
       st.sampled_from([1, 3, 1 << 16]))
@settings(max_examples=120, deadline=None)
def test_streamed_steps_join_to_the_whole_match(ordering, a, b, dep, delay, cut_a, cut_b,
                                                cut_dep, chunk):
    streams = {"a": a, "b": b}
    whole = _matcher(streams, ordering, delay).step(dep, streams, final=True)
    chunks = {"a": _pieces(a, cut_a), "b": _pieces(b, cut_b)}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relay_core, "_CHUNK", chunk)
        steps = list(stream_relay(chunks, _pieces(dep, cut_dep), ordering, delay))
    for k in streams:
        assert_equal_results(_concat_results([s[k] for s in steps], delay), whole[k])


# One read feeds the successive and the equal-priority matcher. Arrivals run
# on for chunks past the last departure, so steps follow once departures run
# out, at the default chunk size as at 1,000 epochs.
@pytest.mark.parametrize("chunk", [1000, None])
def test_one_read_gives_each_matcher_the_steps_it_gets_alone(chunk, monkeypatch):
    if chunk:
        monkeypatch.setattr(point_process, "_CHUNK", chunk)
        monkeypatch.setattr(relay_core, "_CHUNK", chunk)

    def chunks():
        arrivals = {k: poisson_chunks(GenSpec(rate, 140_000.0, 3), node_id=k)
                    for k, rate in (("a", 1.0), ("b", 0.5))}
        return arrivals, poisson_chunks(GenSpec(1.0, 10_000.0, 3), node_id="out")

    orderings = [("a", "b"), None]
    got = list(relay_core._relays(*chunks(), orderings, 1.0))
    assert [j for j, _ in got] == [0, 1] * (len(got) // 2)
    for j, ordering in enumerate(orderings):
        alone = list(stream_relay(*chunks(), ordering, 1.0))
        shared = [step for i, step in got if i == j]
        assert len(shared) == len(alone)
        for s, t in zip(shared, alone):
            assert s.keys() == t.keys() == {"a", "b"}
            for k in s:
                assert_equal_results(s[k], t[k])
        after = [s for s in shared if not s["a"].departures.size]
        assert len(after) >= 3 and sum(s[k].arrivals.size for s in after for k in s) > 100_000


def test_stream_rejects_bad_chunks_and_orderings():
    good = [np.array([1.0, 2.0])]
    with pytest.raises(ScheduleError, match="across chunks"):
        list(stream_relay({"a": [np.array([1.0, 2.0]), np.array([2.0, 3.0])]}, good,
                          ("a",), 1.0))
    with pytest.raises(ScheduleError, match="increasing"):
        list(stream_relay({"a": good}, [np.array([2.0, 1.0])], ("a",), 1.0))
    for ordering in (("a",), ("a", "a")):
        with pytest.raises(ValueError, match="every stream exactly once"):
            list(stream_relay({"a": good, "b": good}, good, ordering, 1.0))
    for ordering in ((), None):  # no streams still check the delay
        with pytest.raises(ValueError, match="delay must be nonnegative"):
            list(stream_relay({}, good, ordering, math.nan))
    with pytest.raises(ValueError, match="delay must be nonnegative"):
        list(stream_relay({"a": good}, good, None, math.nan))
