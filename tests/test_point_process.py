import math

import numpy as np
import pytest
from scipy import stats

from anonrelay import point_process
from anonrelay._util import substream
from anonrelay.point_process import (
    EmptyScheduleError,
    GenSpec,
    MissingBoundError,
    RateBound,
    Schedule,
    ScheduleError,
    empirical_rate,
    _epoch_chunks,
    gen_poisson,
    poisson_chunks,
    poisson_epochs,
    poisson_rate,
    schedule_from_text,
    schedule_to_text,
    validate_network_schedule,
)


def test_zero_horizon_gives_empty_schedule():
    s = gen_poisson(GenSpec(rate=1.0, horizon=0.0, seed=7))
    assert len(s) == 0


def test_identical_seed_identical_epochs():
    spec = GenSpec(rate=3.0, horizon=1000.0, seed=42)
    a = gen_poisson(spec, node_id="x")
    b = gen_poisson(spec, node_id="x")
    assert np.array_equal(a.epochs, b.epochs)
    c = gen_poisson(spec, node_id="y")
    assert not np.array_equal(a.epochs[: len(c)], c.epochs[: len(a)])


def test_empirical_rate_examples():
    assert empirical_rate(Schedule("n", [2.0])) == 0.5
    assert empirical_rate(Schedule("n", [1.0, 2.0, 3.0, 4.0])) == 1.0
    with pytest.raises(EmptyScheduleError):
        empirical_rate(Schedule("n", []))


def test_poisson_rate_concentration():
    rate, horizon = 2.0, 1e6
    s = gen_poisson(GenSpec(rate=rate, horizon=horizon, seed=5))
    sigma = math.sqrt(rate / horizon)
    assert abs(empirical_rate(s) - rate) <= 3 * sigma


def test_merged_independent_schedules_add_rates():
    h = 2e5
    a = gen_poisson(GenSpec(rate=1.5, horizon=h, seed=1), node_id="a")
    b = gen_poisson(GenSpec(rate=0.7, horizon=h, seed=2), node_id="b")
    merged = np.sort(np.concatenate([a.epochs, b.epochs]))
    rate = len(merged) / merged[-1]
    sigma = math.sqrt(2.2 / h)
    assert abs(rate - 2.2) <= 3 * sigma


def test_interarrivals_pass_ks_against_exponential():
    rate = 1.3
    s = gen_poisson(GenSpec(rate=rate, horizon=1e5, seed=9))
    inter = np.diff(s.epochs)
    assert inter.size >= 1e5
    p = stats.kstest(inter, "expon", args=(0.0, 1.0 / rate)).pvalue
    assert p >= 0.001


def test_validate_network_schedule():
    ok = Schedule("a", [1.0, 2.0, 3.0, 4.0])
    assert validate_network_schedule([ok], [RateBound("a", 1.0)])
    fast = Schedule("a", [0.5 * k for k in range(1, 9)])  # 8 packets by t=4
    assert not validate_network_schedule([fast], [RateBound("a", 1.0)])
    with pytest.raises(MissingBoundError):
        validate_network_schedule([ok], [RateBound("b", 1.0)])


def test_full_duplex_bounds_are_per_node():
    # both endpoints at their own caps simultaneously is valid
    a = Schedule("a", [1.0, 2.0, 3.0, 4.0])
    b = Schedule("b", [0.5, 1.0, 1.5, 2.0])
    bounds = [RateBound("a", 1.0), RateBound("b", 2.0)]
    assert validate_network_schedule([a, b], bounds)


def test_text_round_trip_is_lossless():
    s = gen_poisson(GenSpec(rate=2.0, horizon=500.0, seed=11), node_id="relay-7")
    bound = RateBound("relay-7", 2.5)
    s2, b2 = schedule_from_text(schedule_to_text(s, bound))
    assert s2.node_id == s.node_id
    assert b2 == bound
    assert np.array_equal(s2.epochs, s.epochs)


def test_schedule_validation():
    with pytest.raises(ScheduleError):
        Schedule("n", [1.0, 1.0])
    with pytest.raises(ScheduleError):
        Schedule("n", [2.0, 1.0])
    with pytest.raises(ScheduleError):
        Schedule("n", [-1.0, 1.0])
    with pytest.raises(ScheduleError):
        GenSpec(rate=0.0, horizon=1.0, seed=0)
    with pytest.raises(ScheduleError):
        GenSpec(rate=1.0, horizon=-2.0, seed=0)
    with pytest.raises(ScheduleError):
        RateBound("n", 0.0)


def _joined(chunks):
    chunks = list(chunks)
    assert all(c.size for c in chunks)
    return np.concatenate(chunks) if chunks else np.empty(0)


@pytest.mark.parametrize("chunk", [1, 1000, 1 << 16])
@pytest.mark.parametrize("rate,horizon", [(1.0, 3000.0), (3.0, 700.0), (0.25, 9000.0),
                                          (1.0, 0.0), (2.0, 1e-9)])
def test_chunked_draw_equals_whole_draw(rate, horizon, chunk, monkeypatch):
    monkeypatch.setattr(point_process, "_CHUNK", chunk)
    spec = GenSpec(rate=rate, horizon=horizon, seed=17)
    whole = gen_poisson(spec, node_id="n").epochs
    assert np.array_equal(_joined(poisson_chunks(spec, node_id="n")), whole)
    if whole.size:
        assert poisson_rate(spec, node_id="n") == empirical_rate(gen_poisson(spec, node_id="n"))
    else:
        with pytest.raises(EmptyScheduleError):
            poisson_rate(spec, node_id="n")


def test_chunked_draw_ending_on_a_chunk_edge(monkeypatch):
    monkeypatch.setattr(point_process, "_CHUNK", 100)
    edge = gen_poisson(GenSpec(rate=1.0, horizon=1000.0, seed=4), node_id="n").epochs[199]
    spec = GenSpec(rate=1.0, horizon=float(edge), seed=4)
    chunks = list(poisson_chunks(spec, node_id="n"))
    assert [c.size for c in chunks] == [100, 100]
    assert chunks[-1][-1] == edge
    assert np.array_equal(np.concatenate(chunks), gen_poisson(spec, node_id="n").epochs)


class _ShortGaps:
    """Draws half-length gaps, so the first block of `poisson_epochs` falls
    short of the horizon and the overflow blocks are drawn."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def exponential(self, scale, size):
        return self.rng.exponential(0.5 * scale, size)


@pytest.mark.parametrize("chunk", [7, 1 << 16])
def test_chunked_draw_equals_whole_draw_through_overflow_blocks(chunk, monkeypatch):
    monkeypatch.setattr(point_process, "_CHUNK", chunk)
    whole = poisson_epochs(1.0, 5000.0, _ShortGaps(3))
    assert whole.size > 5000 + 6 * math.sqrt(5000) + 16  # past the first block
    assert np.array_equal(_joined(_epoch_chunks(1.0, 5000.0, _ShortGaps(3))), whole)


def test_whole_draw_is_cut_at_the_horizon():
    x = poisson_epochs(2.0, 100.0, substream(8, "cut"))
    y = poisson_epochs(2.0, 1e6, substream(8, "cut"))
    assert x[-1] <= 100.0 < y[x.size]
    assert np.array_equal(x, y[:x.size])
