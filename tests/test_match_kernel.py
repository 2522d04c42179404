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

from anonrelay import relay_core
from anonrelay.point_process import GenSpec, Schedule, ScheduleError, gen_poisson
from anonrelay.relay_core import (
    OTHER,
    PriorityOrder,
    _concat_results,
    _joint_match,
    _match_index,
    _successive_match,
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
def test_kernel_matches_loop(arr, dep, delay):
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


@given(st.lists(dyadic(25), min_size=2, max_size=4), dyadic(), delays, st.permutations("wxyz"))
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
@pytest.mark.parametrize("order", [PriorityOrder.single(("s1", "s2")), None])
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
    n = 1_000_000
    rng = np.random.default_rng(5)
    arr = np.cumsum(rng.exponential(1.0, n))
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
@given(st.lists(dyadic(25), min_size=2, max_size=3), dyadic(), delays)
@settings(max_examples=60, deadline=None)
def test_chunked_joint_kernel_matches_loop(chunk, arrs, dep, delay):
    streams = dict(zip("abc", arrs))
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
    whole = (_joint_match(streams, dep, delay) if ordering is None
             else _successive_match(streams, ordering, dep, delay))
    chunks = {"a": _pieces(a, cut_a), "b": _pieces(b, cut_b)}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relay_core, "_CHUNK", chunk)
        steps = list(stream_relay(chunks, _pieces(dep, cut_dep), ordering, delay))
    for k in streams:
        assert_equal_results(_concat_results([s[k] for s in steps], delay), whole[k])


def test_stream_rejects_bad_chunks_and_orderings():
    good = [np.array([1.0, 2.0])]
    with pytest.raises(ScheduleError, match="across chunks"):
        list(stream_relay({"a": [np.array([1.0, 2.0]), np.array([2.0, 3.0])]}, good,
                          ("a",), 1.0))
    with pytest.raises(ScheduleError, match="increasing"):
        list(stream_relay({"a": good}, [np.array([2.0, 1.0])], ("a",), 1.0))
    with pytest.raises(ValueError, match="every stream exactly once"):
        list(stream_relay({"a": good, "b": good}, good, ("a",), 1.0))
    with pytest.raises(ValueError, match="delay must be nonnegative"):
        list(stream_relay({"a": good}, good, None, math.nan))
