import math

import numpy as np
import pytest
from scipy import stats

from anonrelay import point_process
from anonrelay._util import substream
from anonrelay.point_process import (
    EmptyScheduleError,
    GenSpec,
    RateBound,
    Schedule,
    ScheduleError,
    empirical_rate,
    _epoch_chunks,
    gen_poisson,
    poisson_chunks,
    poisson_epochs,
)
from anonrelay.relay_core import avg_delay_window


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
    # the mean-delay window counts the same streams to the same rates
    out = GenSpec(rate=2.0 * rate, horizon=horizon, seed=17)
    streams = poisson_chunks(spec, node_id="n"), poisson_chunks(out, node_id="out")
    if whole.size:
        _, in_rate, out_rate = avg_delay_window(*streams, 1.0)
        assert in_rate == empirical_rate(gen_poisson(spec, node_id="n"))
        assert out_rate == empirical_rate(gen_poisson(out, node_id="out"))
    else:
        with pytest.raises(EmptyScheduleError):
            avg_delay_window(*streams, 1.0)


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


def _summed_one_at_a_time(gaps, prev):
    """Reference for `_draw`: each epoch is the one before plus its gap, or
    the next float above the one before where the gap adds nothing."""
    out = []
    for g in gaps:
        t = prev + g
        prev = t if t > prev else np.nextafter(prev, np.inf)
        out.append(prev)
    return np.array(out)


@pytest.mark.parametrize("chunk", [7, 1 << 16])
def test_draw_lifts_gaps_too_small_to_add_anything(chunk, monkeypatch):
    # at 4.4e6 the float spacing is 9.3e-10, so gaps of mean 5e-10 mostly tie
    monkeypatch.setattr(point_process, "_CHUNK", chunk)
    n, scale, prev = 300, 5e-10, 4.4e6
    gaps = substream(0, "ties").exponential(scale, n)
    want = _summed_one_at_a_time(gaps, prev)
    ties = [k for k in range(1, n) if want[k - 1] + gaps[k] <= want[k - 1]]
    assert len(ties) > 20
    x = point_process._draw(substream(0, "ties"), scale, n, prev)
    assert np.array_equal(x, want)
    assert x[0] > prev and (np.diff(x) > 0).all()
    # a split into consecutive draws gives the same epochs and leaves the
    # generator where the whole draw does, with a tie on the split or not
    cut_on_tie = ties[len(ties) // 2]
    cut_off_tie = next(k for k in range(1, n) if k not in ties)
    for cut in (cut_on_tie, cut_off_tie):
        rng = substream(0, "ties")
        a = point_process._draw(rng, scale, cut, prev)
        b = point_process._draw(rng, scale, n - cut, a[-1])
        assert np.array_equal(np.concatenate([a, b]), want)
        whole_rng = substream(0, "ties")
        point_process._draw(whole_rng, scale, n, prev)
        assert rng.random() == whole_rng.random()


class _FixedGaps:
    """Hands out the given gaps, scaled, in order."""

    def __init__(self, gaps):
        self.gaps, self.k = np.asarray(gaps, dtype=float), 0

    def exponential(self, scale, size):
        self.k += size
        return scale * self.gaps[self.k - size:self.k]


def test_draw_restarts_on_a_tie_at_either_end_of_a_chunk(monkeypatch):
    # at 4.4e6 the float spacing is 9.3e-10: a gap of 1e-12 ties, one of 1 does not
    monkeypatch.setattr(point_process, "_CHUNK", 5)
    n, prev = 40, 4.4e6
    gaps = np.ones(n)
    # A chunk ends at its first tie, so chunks start at 0, 1, 6, 7, 12, 17,
    # 18 and so on. Ties fall on the first gap of the draw, whose epoch before
    # is `prev` (0); on the last gap of a chunk (5, 11 and 39); on a first gap
    # whose epoch before was lifted (6); and on the first gap of a chunk after
    # one with no tie, whose epoch before is carried in from that chunk (17).
    tie_at = [0, 5, 6, 11, 17, 39]
    gaps[tie_at] = 1e-12
    want = _summed_one_at_a_time(gaps, prev)
    before = np.concatenate([[prev], want[:-1]])
    assert np.flatnonzero(before + gaps <= before).tolist() == tie_at
    x = point_process._draw(_FixedGaps(gaps), 1.0, n, prev)
    assert np.array_equal(x, want)
    assert x[0] > prev and (np.diff(x) > 0).all()
    # a draw cut into pieces, each ending on a tie or starting on one
    rng, got, last = _FixedGaps(gaps), [], prev
    for size in (6, 1, 10, 23):
        got.append(point_process._draw(rng, 1.0, size, last))
        last = got[-1][-1]
    assert np.array_equal(np.concatenate(got), want)


def test_long_streamed_draw_never_repeats_an_epoch():
    # without the lift, departures 13,263,074 and 13,263,075 of this draw
    # were both 4420304.581555256
    last, n = -1.0, 0
    for c in poisson_chunks(GenSpec(3.0, 10_000_100.0, 0), node_id="out"):
        assert c[0] > last and (np.diff(c) > 0).all()
        last, n = c[-1], n + c.size
    assert n > 13_263_075


def test_gen_poisson_keeps_its_draw_without_a_copy():
    # the schedule takes the fresh draw as it is: the peak stays near the
    # epochs it returns, not twice them, and the epochs are those drawn
    import tracemalloc

    spec = GenSpec(rate=1.0, horizon=3e6, seed=7)
    tracemalloc.start()
    try:
        s = gen_poisson(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(s) > 2_900_000
    assert peak <= 1.2 * s.epochs.nbytes
    assert not s.epochs.flags.writeable
    rng = substream(spec.seed, "poisson", "node")
    assert np.array_equal(s.epochs, poisson_epochs(spec.rate, spec.horizon, rng))


def test_schedule_copies_arrays_a_caller_can_write():
    a = np.array([1.0, 2.0, 3.0])
    view = a[:]
    view.flags.writeable = False  # read-only, but `a` can still write it
    for given in (a, view):
        s = Schedule("n", given)
        assert not np.shares_memory(s.epochs, a)
        assert not s.epochs.flags.writeable
    a[0] = 0.5
    assert s.epochs[0] == 1.0
