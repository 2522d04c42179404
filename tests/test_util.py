import math

import numpy as np
import pytest

from anonrelay._util import BatchMeans, batch_stderr, substream
from anonrelay.analytic import two_source_region
from anonrelay.point_process import GenSpec, gen_poisson, poisson_chunks
from anonrelay.relay_core import random_walk_oracle


def _reshape_means(x, batches):
    """Reference batch means: the first b runs of n // b values, each
    averaged on its own."""
    b = min(batches, x.size // 2)
    k = x.size // b
    return x[: k * b].reshape(b, k).mean(axis=1)


def _fed_in_pieces(x, n, batches, rng, pieces):
    acc = BatchMeans(n, batches)
    for part in np.split(x, np.sort(rng.integers(0, x.size + 1, pieces - 1))):
        acc.add(part)
    return acc


@pytest.mark.parametrize("n", [4, 5, 7, 9, 63, 200, 4097, 100_000])
def test_any_split_of_a_stream_gives_the_same_error_bar(n):
    rng = np.random.default_rng(n)
    for x in (rng.exponential(1.0, n), rng.random(n) < 0.3):
        whole = BatchMeans(n, 100).add(x)
        for pieces in (2, 7, 50):
            acc = _fed_in_pieces(x, n, 100, rng, pieces)
            assert (acc.count, acc.total, acc.stderr) == (whole.count, whole.total, whole.stderr)
            assert np.array_equal(acc.edges, whole.edges)


@pytest.mark.parametrize("n", [4, 5, 8, 17, 64, 65, 200, 4097])
def test_batch_means_equal_the_reshape_means(n):
    rng = np.random.default_rng(n)
    for batches in (2, 3, 32, 100):
        for density in (0.0, 0.3, 1.0):
            flags = rng.random(n) < density
            acc = BatchMeans(n, batches).add(flags)
            ref = _reshape_means(flags.astype(float), batches)
            assert np.array_equal(np.diff(acc.edges) / acc.k, ref)  # counts are exact
            assert batch_stderr(flags, batches) == float(ref.std(ddof=1) / np.sqrt(ref.size))
        x = rng.normal(1.0, 0.5, n)
        ref = _reshape_means(x, batches)
        acc = BatchMeans(n, batches).add(x)
        np.testing.assert_allclose(np.diff(acc.edges) / acc.k, ref, rtol=0, atol=1e-12)
        assert batch_stderr(x, batches) == pytest.approx(ref.std(ddof=1) / np.sqrt(ref.size),
                                                         rel=1e-12, abs=0)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_fewer_than_four_values_have_no_error_bar(n):
    x = np.arange(n, dtype=float)
    assert math.isnan(batch_stderr(x))
    assert math.isnan(BatchMeans(n, 2).add(x).stderr)
    # the count the run expects sets the batches, not the count it gets
    assert math.isnan(BatchMeans(n, 2).add(np.arange(100.0)).stderr)
    assert math.isfinite(batch_stderr(np.arange(4.0), 2))


def test_an_empty_stream_has_no_mean():
    acc = BatchMeans(1000, 100)
    assert math.isnan(acc.add([]).mean) and math.isnan(acc.stderr)


def test_expected_count_sets_the_batches():
    rng = np.random.default_rng(5)
    x = rng.exponential(1.0, 1000)
    # values past the last batch count toward the mean only
    longer = BatchMeans(900, 100).add(x)
    assert longer.stderr == batch_stderr(x[:900], 100)
    assert longer.mean == np.add.accumulate(x)[-1] / x.size
    # a batch the stream does not fill is left out: 95 of 100 batches of 10
    shorter = BatchMeans(1000, 100).add(x[:955])
    ref = _reshape_means(x[:950], 95)
    assert shorter.stderr == pytest.approx(ref.std(ddof=1) / np.sqrt(95), rel=1e-12, abs=0)
    # one full batch is not enough to spread
    assert math.isnan(BatchMeans(1000, 100).add(x[:15]).stderr)


def _fed_as_ones(flags, n, batches, cuts):
    """`flags` fed to `add_ones` in the pieces `cuts` splits them into."""
    acc = BatchMeans(n, batches)
    for part in np.split(flags, cuts):
        acc.add_ones(part.size, np.flatnonzero(part == 0))
    return acc


def _same(a, b):
    assert (a.count, a.total) == (b.count, b.total)
    assert float(a.stderr).hex() == float(b.stderr).hex()  # bit for bit, NaN included
    assert np.array_equal(a.edges, b.edges)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 7, 64, 99, 1000, 4097, 100_000])
def test_ones_fed_by_their_zeros_equal_the_flags_fed_whole(n):
    rng = np.random.default_rng(n)
    for batches in (2, 3, 32, 100):
        for density in (0.0, 0.05, 0.5, 1.0):
            flags = rng.random(n) < density
            whole = BatchMeans(n, batches).add(flags)
            for pieces in (1, 2, 7, 50):  # random splits, with empty pieces among the many
                cuts = np.sort(rng.integers(0, n + 1, pieces - 1))
                _same(_fed_as_ones(flags, n, batches, cuts), whole)
            if n < 4:
                assert math.isnan(whole.stderr)


def test_ones_fed_by_their_zeros_at_batch_edges():
    rng = np.random.default_rng(11)
    n, batches = 1003, 10  # 10 batches of 100, and 3 values past the last edge
    flags = rng.random(n) < 0.4
    whole = BatchMeans(n, batches).add(flags)
    k = whole.k
    for cuts in ([k], [k, 2 * k], [k - 1, k + 1], [k + 1], [0, 0, 5 * k, 5 * k, n],
                 [3 * k + 50, 7 * k], list(range(0, n, k))):  # edges on and inside pieces
        _same(_fed_as_ones(flags, n, batches, cuts), whole)
    # a piece that spans several edges
    _same(_fed_as_ones(flags, n, batches, [5, n - 2]), whole)
    # the expected count sets the batches, as it does for `add`
    for expected in (900, 2000):
        _same(_fed_as_ones(flags, expected, batches, [333]),
              BatchMeans(expected, batches).add(flags))


def test_substream_generator_is_pinned():
    # every seeded output (golden hashes, pinned digests, seed-chosen tests)
    # follows from these draws, so a change of generator or of numpy's
    # stream shows here first, under one name
    rng = substream(0, "poisson", "node")
    assert type(rng.bit_generator).__name__ == "PCG64"
    assert [float(x).hex() for x in rng.standard_exponential(4)] == [
        "0x1.9e32325fd1b23p-1", "0x1.14a4b752d5022p+0",
        "0x1.a3c8579be303fp+0", "0x1.0c0e403233e56p-1"]
    assert substream(0, "poisson", "in").random() != substream(0, "poisson", "out").random()


SEEDED = {
    "gen_poisson": lambda seed: gen_poisson(GenSpec(1.0, 5.0, seed)),
    "poisson_chunks": lambda seed: poisson_chunks(GenSpec(1.0, 5.0, seed)),
    "random_walk_oracle": lambda seed: random_walk_oracle(1.0, 2.0, 1.0, 100, seed=seed),
    "two_source_region": lambda seed: two_source_region(1.0, 1.0, 2.0, 1.0, corner_events=100,
                                                        seed=seed),
}


@pytest.mark.parametrize("seed", [1.5, True, -1, "3", float("nan")],
                         ids=["float", "bool", "negative", "str", "nan"])
@pytest.mark.parametrize("entry", list(SEEDED))
def test_every_seeded_entry_point_rejects_a_bad_seed(entry, seed):
    # one truncated to another seed, a bool or a string taken for an int, or
    # numpy's message that does not name the argument, is not a check
    with pytest.raises(ValueError, match="^seed must be an integer of at least 0, got "):
        SEEDED[entry](seed)
