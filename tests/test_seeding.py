"""The batched seeding of the random streams, pinned bit for bit against
numpy's own one-at-a-time seeding: ``default_rng([seed, site])`` for the
noise, ``SeedSequence((master, grid, realization))`` for the noise seeds
and ``default_rng([master, grid, realization, 1])`` for the disorder."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fmosim import _seeding, experiments, model, noise
from fmosim._seeding import entropy_words, seed_words, streams
from fmosim.errors import PhysicsError

# seeds of one, two and three 32-bit words, so that one batch mixes rows
# of several lengths
MASTER = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                   st.integers(2**64, 2**70 - 1))


@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(st.tuples(MASTER, st.integers(0, 63)), min_size=1,
                      max_size=8),
       kind=st.sampled_from(noise.NOISE_KINDS))
def test_site_streams_are_default_rng(pairs, kind):
    # rows as noise.generate_batch builds them: the seed's words, the site
    rows = [entropy_words(seed) + [site] for seed, site in pairs]
    for (seed, site), rng in zip(pairs, streams(rows)):
        ref = np.random.default_rng([seed, site])
        assert rng.bit_generator.state == ref.bit_generator.state
        np.testing.assert_array_equal(_drawn(kind, rng), _drawn(kind, ref))


def _drawn(kind, rng, n=20):
    # what noise.generate_batch takes from one stream: uniform_white rows
    # are the Generator's doubles, the other kinds go through noise._draw
    if kind == "uniform_white":
        return rng.random(n)
    out = np.empty(n)
    noise._draw(kind, rng, out)
    return out


# rows of 1 to 11 words, past the pool of 4, from seeds up to 2**70
ROWS = st.lists(MASTER, min_size=1, max_size=4).map(
    lambda seeds: entropy_words(seeds)[:11])


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(ROWS, min_size=1, max_size=8),
       n=st.sampled_from([1, 2, 20, 88, 521]))
@example(rows=[[0], [2**32 - 1] * 11, entropy_words([2**70 - 1, 2**64])],
         n=521)
def test_random_rows_are_default_rng_doubles(rows, n):
    got = np.empty((len(rows), n))
    _seeding.random_rows(rows, got)
    want = np.array([np.random.default_rng(row).random(n) for row in rows])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("block", [1, 7, 12, 60])
def test_random_rows_in_blocks_of_draws(block, monkeypatch):
    # 3 rows at most `block` elements a block: 1 draw a block (the floor),
    # 2, 4 and all 20 draws, the last block of 20 ragged for 7 and 12
    rows = [[0], entropy_words(2**70 - 1), [5, 6, 7, 8, 9]]
    want = np.array([np.random.default_rng(row).random(20) for row in rows])
    monkeypatch.setattr(_seeding, "DRAW_BLOCK", block)
    got = np.empty((3, 20))
    _seeding.random_rows(rows, got)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_rows", [4, 5, 11])
def test_random_rows_fill_their_rows_in_blocks_of_rows(n_rows, monkeypatch):
    # a generator of rows, read and drawn 4 rows at a time straight into
    # the caller's array: one whole block, a block and one row, and the
    # last of three blocks partial
    monkeypatch.setattr(_seeding, "SEED_BLOCK", 4)
    rows = [entropy_words(2**40 + r) + [r % 7] for r in range(n_rows)]
    want = np.array([np.random.default_rng(row).random(9) for row in rows])
    out = np.full((n_rows, 9), np.nan)
    _seeding.random_rows(iter(rows), out)
    assert out.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(master=MASTER, grid_indices=st.lists(st.integers(0, 20), min_size=1,
                                            max_size=4),
       realizations=st.integers(1, 5))
def test_noise_seeds_are_seed_sequence_words(master, grid_indices,
                                             realizations):
    got = experiments._noise_seeds(master, grid_indices, realizations)
    want = [int(np.random.SeedSequence((master, gi, r)).generate_state(
        1, np.uint64)[0]) for gi in grid_indices for r in range(realizations)]
    assert got == want
    assert all(type(seed) is int for seed in got)


@settings(max_examples=40, deadline=None)
@given(masters=st.lists(MASTER, min_size=1, max_size=6),
       cell=st.tuples(st.integers(0, 20), st.integers(0, 99)),
       gamma=st.floats(0.5, 100.0))
# master seeds that give the disorder rows 4, 5 and 6 entropy words
@example(masters=[2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**70 - 1],
         cell=(3, 7), gamma=10.0)
def test_disorder_streams_are_default_rng(masters, cell, gamma):
    seeds = [(m, *cell, 1) for m in masters]
    assert {len(entropy_words(s)) for s in seeds} <= {4, 5, 6}
    got = model.static_disorder_shifts(9, gamma, seeds)
    rows = [entropy_words(s) for s in seeds]
    for seed, row, rng in zip(seeds, got, streams(rows)):
        ref = np.random.default_rng(list(seed))
        assert rng.bit_generator.state == ref.bit_generator.state
        np.testing.assert_array_equal(row, ref.uniform(0.0, gamma, 9))


@settings(max_examples=60, deadline=None)
@given(masters=st.lists(MASTER, min_size=1, max_size=6),
       cell=st.tuples(st.integers(0, 20), st.integers(0, 99)),
       gamma=st.floats(1e-3, 7.3e5), n=st.sampled_from([1, 7, 87, 107, 521]))
@example(masters=[2**70 - 1], cell=(0, 0), gamma=7.3e5, n=521)
def test_disorder_rows_are_default_rng_uniform_bits(masters, cell, gamma, n):
    # rows of 4 to 6 entropy words, as the studies seed them
    seeds = [(m, *cell, 1) for m in masters]
    got = model.static_disorder_shifts(n, gamma, seeds)
    want = np.array([np.random.default_rng(list(s)).uniform(0.0, gamma, n)
                     for s in seeds])
    assert got.shape == (len(seeds), n) and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


def test_disorder_builds_no_generator(monkeypatch):
    h = model.attach_sink(model.build_fmo_hamiltonian(model.FmoSpec()), 10)
    want = np.random.default_rng([5, 2, 1]).uniform(0.0, 3.0, h.dim)

    def no_generator(*_):
        raise AssertionError("a Generator was built")

    monkeypatch.setattr(_seeding, "streams", no_generator)
    monkeypatch.setattr(np.random, "default_rng", no_generator)
    got = model.apply_static_disorder(h, 3.0, [5, 2, 1]).matrix.diagonal()
    assert got.tobytes() == (h.matrix.diagonal() + want).tobytes()
    rows = model.static_disorder_shifts(h.dim, 3.0, [[5, 2, 1], (7, 0, 0, 1)])
    assert rows[0].tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.lists(st.integers(0, 2**32 - 1), min_size=1,
                              max_size=11), min_size=1, max_size=6),
       n_words=st.integers(1, 9))
def test_seed_words_are_generate_state(rows, n_words):
    # rows longer than the pool run its extra mixing loop
    for row, words in zip(rows, seed_words(rows, n_words)):
        np.testing.assert_array_equal(
            words, np.random.SeedSequence(row).generate_state(n_words,
                                                              np.uint64))


@pytest.mark.parametrize("entropy", [0, 1, 2**32 - 1, 2**32, 2**64 + 1,
                                     [2**70, 0, 5], (3, [4, 2**40])])
def test_entropy_words_are_numpys(entropy):
    from numpy.random.bit_generator import _coerce_to_uint32_array
    assert entropy_words(entropy) == _coerce_to_uint32_array(entropy).tolist()


@pytest.mark.parametrize("entropy,error", [(-1, ValueError), ([3, -2], ValueError),
                                           (1.5, TypeError)])
def test_entropy_words_reject_what_numpy_rejects(entropy, error):
    with pytest.raises(error):
        entropy_words(entropy)
    with pytest.raises(error):
        np.random.default_rng(entropy)


@pytest.mark.parametrize("entropy", [0, 7, 2**64 + 1, (2**70, 3, 99, 1, 5)])
def test_single_row_is_the_batched_row(entropy):
    # one row is seeded as any row of a batch, and is numpy's own stream
    row = entropy_words(entropy)
    assert len(row) > _seeding.POOL_SIZE or not isinstance(entropy, tuple)
    [alone] = [rng.bit_generator.state for rng in streams([row])]
    batched = [rng.bit_generator.state for rng in streams([row, [1]])][0]
    assert alone == batched
    assert alone == np.random.default_rng(entropy).bit_generator.state


def test_streams_seed_an_iterable_in_blocks(monkeypatch):
    # a generator of rows, read and seeded a few rows at a time, the last
    # block partial
    monkeypatch.setattr(_seeding, "SEED_BLOCK", 4)
    rows = [entropy_words(2**40 + r) + [r % 7] for r in range(11)]
    got = [rng.bit_generator.state for rng in streams(iter(rows))]
    assert got == [np.random.default_rng(row).bit_generator.state
                   for row in rows]


def test_interleaved_calls_share_no_state():
    # each call builds its own generator, so two batches drawn in turns
    # give what each gives alone
    a = [[1, s] for s in range(5)]
    b = [entropy_words(2**40) + [s] for s in range(5)]
    alone = [[rng.random(3) for rng in streams(rows)] for rows in (a, b)]
    turns = [(ra.random(3), rb.random(3))
             for ra, rb in zip(streams(a), streams(b))]
    for (x, y), xa, yb in zip(turns, *alone):
        np.testing.assert_array_equal(x, xa)
        np.testing.assert_array_equal(y, yb)


@pytest.mark.parametrize("seed", [-1, 1.5, 2.0, True, "3", None])
def test_check_seed_rejects_non_integers(seed):
    with pytest.raises(PhysicsError, match="seed"):
        _seeding.check_seed(seed)


def test_check_seed_keeps_large_and_numpy_integers():
    assert _seeding.check_seed(2**70) == 2**70
    got = _seeding.check_seed(np.uint64(2**63))
    assert got == 2**63 and type(got) is int


# (config, field, value) of real-number fields given something else
NOT_REALS = [
    (experiments.SweepConfig, "grid", 0.5),
    (experiments.SweepConfig, "grid", None),
    (experiments.SweepConfig, "grid", ("a",)),
    (experiments.SweepConfig, "grid", (1j,)),
    (experiments.SweepConfig, "disorder", "x"),
    (model.FmoSpec, "coupling_scale", "x"),
    (model.FmoSpec, "coupling_scale", None),
    (model.FmoSpec, "site_energy_scale", "x"),
    (model.FmoSpec, "unit_conversion", None),
    (noise.NoiseConfig, "amplitude", "x"),
    (noise.NoiseConfig, "amplitude", 10 ** 400),
    (noise.NoiseConfig, "total_length", None),
    (noise.NoiseConfig, "filter_time_scale", "a"),
]


@pytest.mark.parametrize("config,name,value", NOT_REALS,
                         ids=[f"{c.__name__}-{n}-{v!r:.8}"
                              for c, n, v in NOT_REALS])
def test_real_fields_not_a_real_number_rejected(config, name, value):
    # one checker, _seeding.check_real, names the field
    with pytest.raises(PhysicsError, match=name):
        config(**{name: value})


def test_check_real_reads_numpy_reals_as_floats():
    for value in (np.float32(0.5), np.int64(3), 7):
        got = _seeding.check_real(value, "x")
        assert got == value and type(got) is float
