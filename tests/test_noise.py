"""Tests for detuning-sequence generation across all five families."""

import io
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import bilinear, lfilter

import fmosim
import fmosim.noise as noise_mod
from fmosim.errors import PhysicsError
from fmosim.noise import (
    FILTER_BURN_IN,
    FILTER_DEN,
    FILTER_NUM,
    NOISE_KINDS,
    NoiseConfig,
    NoiseRealization,
    generate,
    generate_batch,
    read_noise_csv,
    resample_amplitude,
    write_noise_csv,
)


def long_config(kind, amplitude=1.0, n=100_000, seed=0):
    return NoiseConfig(kind=kind, amplitude=amplitude, segments=n,
                       total_length=float(n), seed=seed)


class TestConfig:
    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
    def test_seed_not_a_nonnegative_integer_rejected(self, seed):
        with pytest.raises(PhysicsError, match="seed"):
            NoiseConfig(seed=seed)

    def test_seed_of_several_words_is_the_numpy_stream(self):
        # 2**70 splits into three 32-bit words, so [seed, site] has four
        cfg = NoiseConfig(amplitude=1.0, segments=8, seed=2**70)
        got = generate(cfg, n_sites=3).sequences
        for site in range(3):
            want = np.random.default_rng([2**70, site]).uniform(0.0, 1.0, 8)
            np.testing.assert_array_equal(got[site], want)

    def test_sampling_frequency(self):
        cfg = NoiseConfig(segments=20, total_length=20.0)
        assert cfg.sampling_frequency == pytest.approx(1.0)
        cfg = NoiseConfig(segments=50, total_length=100.0)
        assert cfg.sampling_frequency == pytest.approx(0.5)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(PhysicsError):
            NoiseConfig(kind="pink")
        with pytest.raises(PhysicsError):
            NoiseConfig(amplitude=-0.1)
        with pytest.raises(PhysicsError):
            NoiseConfig(segments=0)
        with pytest.raises(PhysicsError):
            NoiseConfig(total_length=0.0)

    def test_numpy_integer_segments_are_an_int(self):
        cfg = NoiseConfig(segments=np.int64(8))
        assert type(cfg.segments) is int and cfg == NoiseConfig(segments=8)

    @pytest.mark.parametrize("value", [8.0, 2.5, True, "8"])
    def test_segments_not_an_integer_rejected(self, value):
        with pytest.raises(PhysicsError, match="segments must be an integer"):
            NoiseConfig(segments=value)

    @pytest.mark.parametrize("field", ["amplitude", "total_length",
                                       "filter_time_scale"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(PhysicsError, match="finite"):
            NoiseConfig(**{field: value})


class TestGenerate:
    def test_uniform_white_mean(self):
        seqs = generate(long_config("uniform_white"), n_sites=1).sequences[0]
        n = len(seqs)
        sigma = 1.0 / math.sqrt(12.0)
        assert abs(seqs.mean() - 0.5) < 3 * sigma / math.sqrt(n)

    def test_uniform_white_variance(self):
        seqs = generate(long_config("uniform_white"), n_sites=1).sequences[0]
        n = len(seqs)
        # var of the sample variance of U(0,1) is (mu4 - sigma^4)/n
        mu4 = 1.0 / 80.0
        sd = math.sqrt((mu4 - (1 / 12.0) ** 2) / n)
        assert abs(seqs.var() - 1.0 / 12.0) < 3 * sd

    @pytest.mark.parametrize("kind", ["colored", "normal_abs", "exponential",
                                      "cauchy"])
    def test_by_max_normalization_exact(self, kind):
        cfg = NoiseConfig(kind=kind, amplitude=0.7, segments=200,
                          total_length=200.0, seed=11)
        for row in generate(cfg, n_sites=3).sequences:
            assert row.max() == pytest.approx(0.7, abs=1e-15)

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_range_invariant(self, kind):
        cfg = NoiseConfig(kind=kind, amplitude=0.9, segments=500,
                          total_length=500.0, seed=4)
        seqs = generate(cfg).sequences
        assert np.all(seqs >= 0.0) and np.all(seqs <= 0.9 + 1e-12)

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_zero_amplitude_all_zero(self, kind):
        cfg = NoiseConfig(kind=kind, amplitude=0.0)
        assert np.all(generate(cfg).sequences == 0.0)

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_zero_amplitude_matches_explicit_zeros(self, kind):
        cfg = NoiseConfig(kind=kind, amplitude=0.0, segments=13, seed=9)
        got = generate(cfg, n_sites=5)
        explicit = NoiseRealization(np.zeros((5, 13)), cfg)
        assert got.sequences.dtype == explicit.sequences.dtype
        assert got.sequences.tobytes() == explicit.sequences.tobytes()
        assert got.config == explicit.config

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_determinism(self, kind):
        cfg = NoiseConfig(kind=kind, amplitude=0.5, seed=42)
        a = generate(cfg).sequences
        b = generate(cfg).sequences
        np.testing.assert_array_equal(a, b)

    def test_site_substreams_independent_of_count(self):
        cfg = NoiseConfig(kind="uniform_white", amplitude=1.0, seed=5)
        few = generate(cfg, n_sites=3).sequences
        many = generate(cfg, n_sites=7).sequences
        np.testing.assert_array_equal(few, many[:3])

    def test_colored_matches_direct_filter_oracle(self):
        cfg = NoiseConfig(kind="colored", amplitude=1.0, segments=40,
                          total_length=40.0, seed=9)
        got = generate(cfg, n_sites=1).sequences[0]
        rng = np.random.default_rng([9, 0])
        white = rng.standard_normal(40 + FILTER_BURN_IN)
        b, a = bilinear(list(FILTER_NUM), list(FILTER_DEN),
                        fs=cfg.sampling_frequency * cfg.filter_time_scale)
        y = np.abs(lfilter(b, a, white)[FILTER_BURN_IN:])
        np.testing.assert_allclose(got, y / y.max(), rtol=1e-12)

    def test_exponential_mean_matches_rate_two(self):
        # the raw draws: dividing by the peak takes the rate out of every
        # generated sequence
        seqs = np.empty(100_000)
        noise_mod._draw("exponential", np.random.default_rng([1, 0]), seqs)
        assert seqs.mean() == pytest.approx(0.5, abs=3 * 0.5 / math.sqrt(len(seqs)))

    def test_cross_site_independence(self):
        from fmosim.analysis import sample_ccf
        total = 0.0
        n_seeds = 100
        for seed in range(n_seeds):
            cfg = NoiseConfig(kind="uniform_white", amplitude=1.0, segments=50,
                              total_length=50.0, seed=seed)
            seqs = generate(cfg, n_sites=2).sequences
            total += abs(sample_ccf(seqs[0], seqs[1], 0))
        assert total / n_seeds < 0.3


TIME_SCALES = (0.05, 0.2, 1.0, 5.0)


class TestColoredFilter:
    """The numpy filter against scipy.signal, which serves as the oracle."""

    @pytest.mark.parametrize("time_scale", TIME_SCALES)
    def test_coefficients_match_scipy_bilinear(self, time_scale):
        b_ref, a_ref = bilinear(list(FILTER_NUM), list(FILTER_DEN),
                                fs=time_scale)
        b, a = noise_mod._filter_coefficients(time_scale)
        np.testing.assert_allclose(b, b_ref, rtol=1e-14, atol=0)
        np.testing.assert_allclose(a, a_ref, rtol=1e-14, atol=0)

    def test_coefficients_are_the_polynomial_construction_bitwise(self):
        # numpy's Polynomial as the oracle, at every rate up to where
        # 2 rate itself overflows: the coefficients overflow to inf and nan
        # far from rate 1, and must overflow the same way
        from numpy.polynomial import Polynomial

        def oracle(rate):
            fac = math.sqrt(2.0 * rate)
            zp1 = Polynomial((1.0, 1.0)) / fac
            zm1 = Polynomial((-1.0, 1.0)) * fac

            def z_domain(coeffs):
                return sum(c * zp1 ** (3 - q) * zm1 ** q
                           for q, c in enumerate(np.asarray(coeffs)[::-1])
                           ).coef[::-1]

            b, a = z_domain(FILTER_NUM), z_domain(FILTER_DEN)
            return np.concatenate([b / a[0], a / a[0]])

        rates = np.concatenate([np.geomspace(1e-4, 1e4, 801),
                                np.geomspace(5e-324, 8e307, 401)])
        finite = 0
        with np.errstate(all="ignore"):
            for rate in rates.tolist():
                got = np.concatenate(noise_mod._filter_coefficients(rate))
                assert got.tobytes() == oracle(rate).tobytes(), rate
                finite += np.isfinite(got).all()
        assert 801 < finite < len(rates)

    def test_colored_noise_loads_no_polynomial_module(self):
        # the coefficients are plain convolutions; whatever `import numpy`
        # loads itself (numpy 1 loads numpy.polynomial eagerly) aside
        src = os.path.dirname(os.path.dirname(fmosim.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        code = ("import sys, numpy; before = set(sys.modules); "
                "from fmosim import noise; "
                "noise.generate_batch(noise.NoiseConfig(kind='colored'), "
                "[0.5, 1.0], [0, 1]); "
                "print(sorted(m for m in set(sys.modules) - before "
                "if m.startswith('numpy.polynomial')))")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("time_scale", TIME_SCALES)
    def test_batched_filter_matches_lfilter(self, time_scale):
        # 6 seven-site realizations are 42 streams, each folded on its own
        seeds = [5, 6, 7, 8, 9, 10]
        cfg = NoiseConfig(kind="colored", segments=30, total_length=30.0,
                          filter_time_scale=time_scale)
        got = generate_batch(cfg, np.ones(len(seeds)), seeds)
        b, a = bilinear(list(FILTER_NUM), list(FILTER_DEN), fs=time_scale)
        for rows, seed in zip(got, seeds):
            for site, row in enumerate(rows):
                white = np.random.default_rng([seed, site]).standard_normal(
                    30 + FILTER_BURN_IN)
                y = np.abs(lfilter(b, a, white)[FILTER_BURN_IN:])
                # relative to the row's peak, which the profile divides by
                np.testing.assert_allclose(row, y / y.max(), rtol=0,
                                           atol=1e-10)

    @pytest.mark.parametrize("time_scale", TIME_SCALES)
    def test_generate_matches_lfilter_oracle(self, time_scale):
        cfg = NoiseConfig(kind="colored", amplitude=1.0, segments=30,
                          total_length=30.0, seed=5,
                          filter_time_scale=time_scale)
        got = generate(cfg, n_sites=3).sequences
        b, a = bilinear(list(FILTER_NUM), list(FILTER_DEN), fs=time_scale)
        for site in range(3):
            white = np.random.default_rng([5, site]).standard_normal(
                30 + FILTER_BURN_IN)
            y = np.abs(lfilter(b, a, white)[FILTER_BURN_IN:])
            np.testing.assert_allclose(got[site], y / y.max(), rtol=0,
                                       atol=1e-10)


#: Amplitudes (zeros included) and seeds of one to three 32-bit words of
#: a batch.
BATCH_AMPLITUDES = (0.0, 0.3, 2.5, 0.0, 0.8, 1.0, 0.3)
BATCH_SEEDS = (0, 7, 2**32 + 5, 2**64 + 1, 2**70, 3, 2**70 - 1)


class TestGenerateBatch:
    def test_rows_equal_single_generation_bitwise(self):
        for kind in NOISE_KINDS:
            for time_scale in (0.2, 1.5):
                # the recipe's own amplitude and seed are not read
                config = NoiseConfig(kind=kind, amplitude=9.0, segments=12,
                                     total_length=7.0, seed=99,
                                     filter_time_scale=time_scale)
                batch = generate_batch(config, BATCH_AMPLITUDES, BATCH_SEEDS,
                                       n_sites=4)
                assert batch.shape == (len(BATCH_SEEDS), 4, 12)
                for row, amplitude, seed in zip(batch, BATCH_AMPLITUDES,
                                                BATCH_SEEDS):
                    one = generate(replace(config, amplitude=amplitude,
                                           seed=seed), n_sites=4)
                    assert row.tobytes() == one.sequences.tobytes()
                    assert (amplitude == 0.0) == (not row.any())

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_batch_is_c_contiguous(self, kind):
        # numpy's reductions round by memory layout, so the studies that
        # reduce a batch need the same layout for every kind
        batch = generate_batch(NoiseConfig(kind=kind), BATCH_AMPLITUDES,
                               BATCH_SEEDS)
        assert batch.flags.c_contiguous

    def test_rows_independent_of_batch_order_and_chunks(self):
        # zeros among the realizations, so a realization's row is computed
        # at a different place, next to different rows, in the two batches
        config = NoiseConfig(kind="colored", segments=9)
        seeds = list(range(72))
        amplitudes = np.array([0.0 if s % 5 == 0 else 0.5 for s in seeds])
        forward = generate_batch(config, amplitudes, seeds, n_sites=2)
        backward = generate_batch(config, amplitudes[::-1], seeds[::-1],
                                  n_sites=2)[::-1]
        assert forward.tobytes() == backward.tobytes()

    def test_colored_rows_span_blocks_of_streams(self):
        # every row is drawn, zero rows too: 13 seven-site realizations
        # are 91 streams
        amplitudes = [0.0 if r in (2, 9) else 0.25 * (r + 1) for r in range(13)]
        seeds = [1000 + 37 * r for r in range(13)]
        config = NoiseConfig(kind="colored", segments=15, total_length=12.0)
        batch = generate_batch(config, amplitudes, seeds)
        for row, amplitude, seed in zip(batch, amplitudes, seeds):
            one = generate(replace(config, amplitude=amplitude, seed=seed))
            assert row.tobytes() == one.sequences.tobytes()
            assert (amplitude == 0.0) == (not row.any())

    @pytest.mark.parametrize("realizations, bound_mb", [(44, 1.0),
                                                        (1000, 3.0)])
    def test_colored_working_set_is_bounded(self, realizations, bound_mb):
        # the output, the kept samples, the filter state and one stream's
        # normals: not the burn-in of every stream at once (1.3 MB of
        # normals at 44 x 7, 29 MB at 1000 x 7)
        config = NoiseConfig(kind="colored")
        amplitudes = np.full(realizations, 0.5)
        seeds = [2**63 + r for r in range(realizations)]
        generate_batch(config, amplitudes[:1], seeds[:1])   # fill the caches
        tracemalloc.start()
        try:
            generate_batch(config, amplitudes, seeds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 1e6

    def test_uniform_working_set_is_bounded(self):
        # the rows are seeded SEED_BLOCK at a time: no list of every row's
        # entropy words, no seed words of every row (7.6 MB at 1000 x 7
        # when they were)
        config = NoiseConfig()
        amplitudes = np.ones(1000)
        seeds = [2**63 + r for r in range(1000)]
        generate_batch(config, amplitudes[:1], seeds[:1])   # fill the caches
        tracemalloc.start()
        try:
            batch = generate_batch(config, amplitudes, seeds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6
        for row, seed in zip(batch, seeds):
            want = [np.random.default_rng([seed, site]).random(20)
                    for site in range(7)]
            assert row.tobytes() == np.array(want).tobytes()

    def test_uniform_batch_grows_by_its_output_only(self):
        # 7,700 and 15,400 rows, many SEED_BLOCKs each: every block is drawn
        # into the batch, so doubling the batch adds its bytes to the peak
        # and no second copy of them
        config = NoiseConfig()
        generate_batch(config, [1.0], [0])   # fill the caches
        peaks, sizes = [], []
        for realizations in (1100, 2200):
            amplitudes, seeds = np.ones(realizations), list(range(realizations))
            tracemalloc.start()
            try:
                batch = generate_batch(config, amplitudes, seeds)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            sizes.append(batch.nbytes)
        assert peaks[1] - peaks[0] < 1.5 * (sizes[1] - sizes[0])

    def test_rejections(self):
        for amplitudes, seeds, n_sites, message in [
                ([0.5], [0], 0, "n_sites"),
                ([], [], 7, "at least one"),
                ([0.5, 0.5], [0], 7, "one seed per amplitude"),
                ([0.5], [0, 1], 7, "one seed per amplitude"),
                ([[0.5]], [1], 7, "must be 1-D"),
                (0.5, [1], 7, "must be 1-D"),
                ([[0.5, 0.5]], [1, 2], 7, "must be 1-D"),
                ([0.5, math.nan], [0, 1], 7, "finite"),
                ([math.inf], [0], 7, "finite"),
                ([0.5, -0.1], [0, 1], 7, "nonnegative"),
                ([0.5, 0.0], [0, -1], 7, "seed"),     # at a zero amplitude
                ([0.5], [1.5], 7, "seed"),
                ([0.5], [True], 7, "seed"),
                ([0.0], [None], 7, "seed")]:
            with pytest.raises(PhysicsError, match=message):
                generate_batch(NoiseConfig(), amplitudes, seeds,
                               n_sites=n_sites)

    @pytest.mark.parametrize("time_scale", [5e-324, 1e300])
    def test_non_finite_filter_rejected(self, time_scale):
        # the bilinear coefficients overflow at these rates
        with np.errstate(all="ignore"), pytest.raises(PhysicsError,
                                                      match="not finite"):
            generate_batch(NoiseConfig(kind="colored",
                                       filter_time_scale=time_scale),
                           [0.5], [0])

    @pytest.mark.parametrize("time_scale", [5e-324, 1e300])
    def test_non_finite_filter_rejected_at_zero_amplitude(self, time_scale):
        # every row is drawn and scaled, so a recipe with no finite filter
        # is rejected whatever its amplitude
        with np.errstate(all="ignore"), pytest.raises(PhysicsError,
                                                      match="not finite"):
            generate(NoiseConfig(kind="colored", amplitude=0.0,
                                 filter_time_scale=time_scale))

    def test_underflowed_numerator_is_rejected_as_not_finite(self,
                                                             monkeypatch):
        # a one-term numerator underflows to a shorter z-polynomial at rate
        # 1e300; the filter must still reach the finiteness check
        def clear():
            noise_mod._filter_coefficients.cache_clear()
            noise_mod._burn_in_map.cache_clear()

        clear()
        monkeypatch.setattr(noise_mod, "FILTER_NUM", (1.0,))
        try:
            b, a = noise_mod._filter_coefficients(1e300)
            assert len(b) == len(a)
            with np.errstate(all="ignore"), pytest.raises(
                    PhysicsError, match="not finite"):
                generate_batch(NoiseConfig(kind="colored",
                                           filter_time_scale=1e300),
                               [0.5], [0])
        finally:
            monkeypatch.undo()
            clear()


class TestResample:
    def test_identity_scale(self):
        nr = generate(NoiseConfig(kind="colored", amplitude=0.5, seed=2))
        same = resample_amplitude(nr, 0.5)
        np.testing.assert_array_equal(same.sequences, nr.sequences)

    def test_round_trip(self):
        nr = generate(NoiseConfig(kind="colored", amplitude=0.5, seed=2))
        back = resample_amplitude(resample_amplitude(nr, 1.0), 0.5)
        np.testing.assert_allclose(back.sequences, nr.sequences, atol=1e-15)

    def test_acf_invariant_under_rescale(self):
        from fmosim.analysis import sample_acf
        nr = generate(NoiseConfig(kind="colored", amplitude=0.5, segments=100,
                                  total_length=100.0, seed=3))
        scaled = resample_amplitude(nr, 2.0)
        for lag in (1, 3, 7):
            assert sample_acf(scaled.sequences[0], lag) == pytest.approx(
                sample_acf(nr.sequences[0], lag), abs=1e-12)

    def test_zero_source_rejected(self):
        nr = generate(NoiseConfig(kind="uniform_white", amplitude=0.0))
        with pytest.raises(PhysicsError):
            resample_amplitude(nr, 1.0)

    @given(st.floats(min_value=1e-3, max_value=10.0))
    @settings(max_examples=20, deadline=None)
    def test_scaling_linearity(self, new_amp):
        nr = generate(NoiseConfig(kind="normal_abs", amplitude=0.5, seed=8))
        scaled = resample_amplitude(nr, new_amp)
        np.testing.assert_allclose(scaled.sequences,
                                   nr.sequences * (new_amp / 0.5), rtol=1e-12)


class _QueuedNormals:
    """A stand-in generator whose standard normals come from a queue."""

    def __init__(self, draws):
        self.draws, self.sizes = list(draws), []

    def standard_normal(self, size):
        self.sizes.append(size)
        out, self.draws = self.draws[:size], self.draws[size:]
        return np.array(out)


def test_cauchy_redraws_zero_denominators():
    # numerators 1..4, then denominators with exact zeros at 0 and 2; the
    # first redraw of those two is (0, 0.5), so one is drawn once more
    rng = _QueuedNormals([1.0, 2.0, 3.0, 4.0, 0.0, 2.0, 0.0, -4.0,
                          0.0, 0.5, -1.0])
    out = np.empty(4)
    noise_mod._draw("cauchy", rng, out)
    assert rng.sizes == [4, 4, 2, 1] and not rng.draws
    assert np.isfinite(out).all()
    np.testing.assert_array_equal(out, [1.0, 1.0, 6.0, 1.0])


class TestCsvRoundTrip:
    def test_round_trip(self):
        nr = generate(NoiseConfig(kind="colored", amplitude=0.5, seed=13))
        buf = io.StringIO()
        write_noise_csv(nr, buf)
        buf.seek(0)
        back = read_noise_csv(buf)
        np.testing.assert_array_equal(back.sequences, nr.sequences)

    def test_bad_header_rejected(self):
        with pytest.raises(PhysicsError):
            read_noise_csv(io.StringIO("a,b,c\n1,0,0.5\n"))

    def test_empty_rejected(self):
        with pytest.raises(PhysicsError):
            read_noise_csv(io.StringIO("site,segment_index,delta_beta\n"))

    @pytest.mark.parametrize("text,match", [
        ("", "line 1: empty noise file"),
        ("site,segment_index,delta_beta\n1,0,0.5\n1,1\n",
         "line 3: malformed noise row"),
        ("site,segment_index,delta_beta\n1,zero,0.5\n",
         "line 2: malformed noise row"),
        ("site,segment_index,delta_beta\n1,0,big\n",
         "line 2: malformed noise row")],
        ids=["empty", "short_row", "non_integer_segment", "non_numeric_value"])
    def test_malformed_file_names_line(self, text, match):
        with pytest.raises(PhysicsError, match=match):
            read_noise_csv(io.StringIO(text))

    def test_negative_segment_index_rejected(self):
        text = ("site,segment_index,delta_beta\n"
                "1,0,0.5\n1,1,0.25\n1,-1,0.75\n")
        with pytest.raises(PhysicsError,
                           match="line 4: negative segment index"):
            read_noise_csv(io.StringIO(text))

    def test_repeated_site_segment_rejected(self):
        text = ("site,segment_index,delta_beta\n"
                "1,0,0.5\n1,1,0.25\n1,0,0.75\n")
        with pytest.raises(PhysicsError,
                           match="line 4: repeated site 1 segment 0"):
            read_noise_csv(io.StringIO(text))

    @pytest.mark.parametrize("rows,match", [
        ("1,0,0.5\n1,2,0.25\n3,0,0.75\n", "no row for site 1 segment 1$"),
        ("1,0,0.5\n1,1,0.25\n3,0,0.75\n3,1,0.5\n", "no row for site 2$"),
        ("2,0,0.5\n2,1,0.25\n", "no row for site 1$"),
        ("1,0,0.5\n1,1,0.25\n2,1,0.75\n", "no row for site 2 segment 0$"),
        ("1,0,0.5\n0,0,0.25\n", "line 3: site below 1")],
        ids=["segment_gap", "site_gap", "no_site_one", "no_segment_zero",
             "site_zero"])
    def test_gap_rejected(self, rows, match):
        # a gap used to be read back as zeros, with the sites renumbered
        text = "site,segment_index,delta_beta\n" + rows
        with pytest.raises(PhysicsError, match=match):
            read_noise_csv(io.StringIO(text))

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "noise.csv"
        path.write_bytes(b"site,segment_index,delta_beta\n1,0,\xff\n")
        with pytest.raises(PhysicsError, match="noise.csv: not UTF-8 text"):
            read_noise_csv(path)


_REALIZATION = generate(NoiseConfig(amplitude=0.5, segments=4,
                                    total_length=4.0))

#: Input that the recipe and the rescaling reject, with a fragment of
#: their messages.
REJECTIONS = {
    "filter-time-scale": (
        lambda: NoiseConfig(kind="colored", filter_time_scale=0.0),
        "filter_time_scale must be positive"),
    "resample-negative": (
        lambda: resample_amplitude(_REALIZATION, -1.0),
        "amplitude must be nonnegative"),
}


@pytest.mark.parametrize("call, fragment", REJECTIONS.values(),
                         ids=REJECTIONS.keys())
def test_rejects_with_a_message(call, fragment):
    with pytest.raises(PhysicsError) as err:
        call()
    assert fragment in str(err.value)
