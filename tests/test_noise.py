"""Tests for detuning-sequence generation across all five families."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import bilinear, lfilter

from fmosim.errors import PhysicsError
from fmosim.noise import (
    FILTER_BURN_IN,
    FILTER_DEN,
    FILTER_NUM,
    NOISE_KINDS,
    NoiseConfig,
    NoiseRealization,
    generate,
    read_noise_csv,
    resample_amplitude,
    write_noise_csv,
)


def long_config(kind, amplitude=1.0, n=100_000, seed=0):
    return NoiseConfig(kind=kind, amplitude=amplitude, segments=n,
                       total_length=float(n), seed=seed)


class TestConfig:
    def test_sampling_frequency(self):
        cfg = NoiseConfig(segments=20, total_length=20.0)
        assert cfg.sampling_frequency == pytest.approx(1.0)
        cfg = NoiseConfig(segments=50, total_length=100.0)
        assert cfg.sampling_frequency == pytest.approx(0.5)

    def test_default_normalization_by_kind(self):
        assert NoiseConfig(kind="uniform_white").normalization == "none"
        for kind in ("colored", "normal_abs", "exponential", "cauchy"):
            assert NoiseConfig(kind=kind).normalization == "by_max"

    def test_invalid_inputs_rejected(self):
        with pytest.raises(PhysicsError):
            NoiseConfig(kind="pink")
        with pytest.raises(PhysicsError):
            NoiseConfig(amplitude=-0.1)
        with pytest.raises(PhysicsError):
            NoiseConfig(segments=0)
        with pytest.raises(PhysicsError):
            NoiseConfig(total_length=0.0)

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
    def test_zero_amplitude_matches_explicit_zeros_without_drawing(
            self, kind, monkeypatch):
        import fmosim.noise as noise_mod

        def no_draw(*_args):
            raise AssertionError("a zero-amplitude realization drew noise")

        monkeypatch.setattr(noise_mod, "_site_rng", no_draw)
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
        cfg = NoiseConfig(kind="exponential", amplitude=1.0, segments=100_000,
                          total_length=100_000.0, seed=1, normalization="none")
        seqs = generate(cfg, n_sites=1).sequences[0]
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
