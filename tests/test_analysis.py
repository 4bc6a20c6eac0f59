"""Tests for estimators and observables, each against an independent oracle."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmosim import analysis, dynamics
from fmosim.analysis import (
    EllipseMask,
    RectMask,
    SpectrumEstimate,
    efficiency_from_intensity_image,
    eigen_site_distribution,
    fit_reorganization_law,
    ipr,
    most_probable_site,
    psd_periodogram,
    read_pixel_matrix,
    reorganization_energy,
    sample_acf,
    sample_ccf,
    transfer_time,
    transport_efficiency,
    variance,
)
from fmosim.dynamics import EvolutionTrace, evolve
from fmosim.errors import PhysicsError
from fmosim.model import FmoSpec, Hamiltonian, attach_sink, build_fmo_hamiltonian
from fmosim.noise import NoiseConfig, generate


def acf_oracle(x, lag):
    """Direct O(n^2)-style summation with the length-n denominator."""
    x = np.asarray(x, float)
    n = len(x)
    m = x.mean()
    num = sum((x[t + lag] - m) * (x[t] - m) for t in range(n - lag)) / n
    den = sum((x[t] - m) ** 2 for t in range(n)) / n
    return num / den


def ccf_oracle(x, y, lag):
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    n = len(x)
    mx, my = x.mean(), y.mean()
    num = sum((x[t + lag] - mx) * (y[t] - my) for t in range(n - lag)) / n
    sx = math.sqrt(sum((v - mx) ** 2 for v in x) / n)
    sy = math.sqrt(sum((v - my) ** 2 for v in y) / n)
    return num / (sx * sy)


def periodogram_oracle(x, f_s, nfft):
    """Direct DFT periodogram with the Parseval-consistent scaling."""
    x = np.asarray(x, float)
    n = len(x)
    xc = x - x.mean()
    padded = np.zeros(nfft)
    padded[:n] = xc
    k_max = nfft // 2
    dens = []
    for k in range(k_max + 1):
        s = sum(padded[t] * np.exp(-2j * np.pi * k * t / nfft)
                for t in range(nfft))
        d = abs(s) ** 2 / (n * f_s)
        if 0 < k < k_max:
            d *= 2.0
        dens.append(d)
    freqs = np.arange(k_max + 1) * f_s / nfft
    return freqs, np.array(dens)


class TestAcfCcf:
    def test_lag_zero_is_one(self):
        rng = np.random.default_rng(0)
        assert sample_acf(rng.uniform(size=50), 0) == 1.0

    def test_hand_series_matches_oracle(self):
        x = [1.0, 3.0, 2.0, 5.0]
        for lag in range(4):
            assert sample_acf(x, lag) == pytest.approx(acf_oracle(x, lag),
                                                       abs=1e-12)

    def test_matches_oracle_random_series(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(64)
        for lag in (1, 5, 13, 40):
            assert sample_acf(x, lag) == pytest.approx(acf_oracle(x, lag),
                                                       abs=1e-9)

    def test_white_series_small_acf(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(size=5000)
        for lag in (1, 2, 10):
            assert abs(sample_acf(x, lag)) < 3 / math.sqrt(len(x))

    def test_ccf_matches_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(40)
        y = rng.standard_normal(40)
        for lag in (0, 1, 7):
            assert sample_ccf(x, y, lag) == pytest.approx(
                ccf_oracle(x, y, lag), abs=1e-9)

    def test_ccf_self_lag0_is_one(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(30)
        assert sample_ccf(x, x, 0) == pytest.approx(1.0, abs=1e-12)

    def test_constant_series_rejected(self):
        with pytest.raises(PhysicsError):
            sample_acf(np.ones(10), 1)

    def test_invalid_lag_rejected(self):
        with pytest.raises(PhysicsError):
            sample_acf(np.arange(5.0), 5)

    @given(st.lists(st.floats(min_value=-10, max_value=10), min_size=5,
                    max_size=40), st.integers(min_value=0, max_value=4))
    @settings(max_examples=50, deadline=None)
    def test_acf_bounded(self, xs, lag):
        x = np.asarray(xs)
        if np.var(x) == 0:
            return
        assert abs(sample_acf(x, lag)) <= 1.0 + 1e-9


class TestPeriodogram:
    def test_matches_direct_dft_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(48)
        est = psd_periodogram(x, f_s=0.5, nfft=64)
        freqs, dens = periodogram_oracle(x, 0.5, 64)
        np.testing.assert_allclose(est.frequencies, freqs, atol=1e-12)
        np.testing.assert_allclose(est.density, dens, atol=1e-9)

    def test_parseval(self):
        rng = np.random.default_rng(9)
        for n in (20, 50, 64):
            x = rng.uniform(size=n)
            est = psd_periodogram(x, f_s=1.0, nfft=128)
            df = est.frequencies[1] - est.frequencies[0]
            assert est.density.sum() * df == pytest.approx(x.var(), abs=1e-9)

    def test_cosine_at_bin_frequency(self):
        nfft = 128
        f_s = 1.0
        k = 16
        t = np.arange(nfft)
        x = np.cos(2 * np.pi * k * t / nfft)
        est = psd_periodogram(x, f_s, nfft)
        peak = est.density[k]
        others = np.delete(est.density, k)
        assert np.all(others < 1e-10 * peak)

    def test_stack_matches_one_sequence_at_a_time(self):
        rows = np.random.default_rng(4).uniform(size=(3, 5, 20))
        est = psd_periodogram(rows, f_s=0.5)
        assert est.density.shape == (3, 5, 65)
        energies = reorganization_energy(est)
        variances = variance(rows)
        assert energies.shape == variances.shape == (3, 5)
        for idx in np.ndindex(3, 5):
            one = psd_periodogram(rows[idx], f_s=0.5)
            np.testing.assert_allclose(est.density[idx], one.density,
                                       rtol=1e-13, atol=1e-16)
            assert energies[idx] == pytest.approx(reorganization_energy(one),
                                                  rel=1e-13)
            assert variances[idx] == variance(rows[idx])

    def test_has_no_site_option(self):
        assert "site" not in {f.name for f in
                              dataclasses.fields(SpectrumEstimate)}
        with pytest.raises(TypeError):
            psd_periodogram(np.ones(8), 1.0, site=2)

    def test_rejections(self):
        with pytest.raises(PhysicsError):
            psd_periodogram([], 1.0)
        with pytest.raises(PhysicsError):
            psd_periodogram(np.ones((3, 0)), 1.0)
        with pytest.raises(PhysicsError):
            psd_periodogram(np.ones(200), 1.0, nfft=128)
        with pytest.raises(PhysicsError):
            psd_periodogram(np.ones(10), 1.0, nfft=100)


class TestReorganizationEnergy:
    def test_zero_spectrum(self):
        est = SpectrumEstimate(np.array([0.0, 1.0, 2.0]), np.zeros(3))
        assert reorganization_energy(est) == 0.0

    def test_single_bin_analytic(self):
        # One positive angular-frequency bin: J(w1)=pi (per unit angular
        # frequency), w1=1, dw=1 -> E = (1/pi)*pi/1*1 = 1.
        dw = 1.0
        df = dw / (2 * np.pi)
        freqs = np.array([0.0, 1.0 / (2 * np.pi)])
        dens = np.array([0.0, np.pi * 2 * np.pi])  # per unit ordinary freq
        est = SpectrumEstimate(freqs, dens)
        assert reorganization_energy(est) == pytest.approx(1.0, abs=1e-12)

    def test_scales_quadratically_with_amplitude(self):
        cfg = NoiseConfig(kind="colored", amplitude=0.5, segments=20,
                          total_length=20.0, seed=3)
        seq = generate(cfg, n_sites=1).sequences[0]
        e1 = reorganization_energy(psd_periodogram(seq, 1.0))
        e2 = reorganization_energy(psd_periodogram(2 * seq, 1.0))
        assert e2 == pytest.approx(4 * e1, rel=1e-9)


class TestVarianceAndFit:
    def test_constant_sequence(self):
        assert variance(np.full(10, 3.3)) == 0.0

    def test_uniform_variance(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(size=100_000)
        assert variance(x) == pytest.approx(1 / 12.0, abs=3e-3)

    def test_exact_line_recovered(self):
        xs = np.array([0.1, 0.5, 1.3, 2.0])
        ys = 2.5 * xs + 0.7
        fit = fit_reorganization_law(np.column_stack([xs, ys]))
        assert fit.slope == pytest.approx(2.5, abs=1e-12)
        assert fit.intercept == pytest.approx(0.7, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_rejected(self):
        pts = [(1.0, 2.0), (1.0, 3.0), (1.0, 4.0)]
        with pytest.raises(PhysicsError):
            fit_reorganization_law(pts)

    def test_too_few_points_rejected(self):
        with pytest.raises(PhysicsError):
            fit_reorganization_law([(0.0, 0.0), (1.0, 1.0)])


def make_trace(amplitude=0.5, seed=0, sink=100, steps_per_segment=2):
    h = attach_sink(build_fmo_hamiltonian(FmoSpec()), sink)
    cfg = NoiseConfig(kind="uniform_white", amplitude=amplitude, segments=20,
                      total_length=20.0, seed=seed)
    det = generate(cfg).sequences if amplitude else np.zeros((7, 20))
    return evolve(h, det, 1.0, steps_per_segment=steps_per_segment)


class TestTransportEfficiency:
    def test_zero_at_injection(self):
        tr = make_trace()
        assert transport_efficiency(tr, z=0.0) == 0.0

    def test_all_in_sink_gives_one(self):
        tr = make_trace(sink=10, steps_per_segment=1)
        amps = np.zeros_like(tr.amplitudes)
        amps[:, tr.sink_indices[0]] = 1.0
        full = EvolutionTrace(amps, tr.fine_step, tr.fmo_indices,
                              tr.sink_indices)
        assert transport_efficiency(full) == pytest.approx(1.0)

    def test_bounds(self):
        tr = make_trace(0.7, seed=5)
        for z in (5.0, 10.0, 20.0):
            eta = transport_efficiency(tr, z=z)
            assert 0.0 <= eta <= 1.0

    def test_no_sink_rejected(self):
        h = build_fmo_hamiltonian(FmoSpec())
        tr = evolve(h, np.zeros((7, 20)), 1.0, steps_per_segment=1)
        with pytest.raises(PhysicsError):
            transport_efficiency(tr)


class TestSinkFraction:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("width", [1, 2, 3, 44])
    def test_each_column_is_a_left_to_right_sum(self, width, order):
        # a fraction sums Re^2 down a column's rows, then Im^2, and adds the
        # two: on the kernel's real state (column 2s Re psi_s, 2s + 1 Im
        # psi_s) and on a trace's samples stored in either memory order
        rng = np.random.default_rng(width)
        psi = np.asarray(rng.normal(size=(width, 107))
                         + 1j * rng.normal(size=(width, 107)), order=order)
        sink = list(range(7, 107))
        state = np.ascontiguousarray(psi.T).view(float)
        got = dynamics._sink_fraction(state, sink)
        tr = EvolutionTrace(psi, 1.0, range(7), sink)
        for s in range(width):
            num, den = [0.0, 0.0], [0.0, 0.0]
            for i, z in enumerate(psi[s].tolist()):
                for part, v in enumerate((z.real, z.imag)):
                    den[part] += v * v
                    if i in sink:
                        num[part] += v * v
            expected = (num[0] + num[1]) / (den[0] + den[1])
            assert got[s] == expected
            assert transport_efficiency(tr, z=float(s)) == expected


class TestTransferTime:
    def test_frozen_sink_state_boundary_value(self):
        # All intensity already in the sink and static: the weighted
        # arrival average collapses to dt/2 by direct substitution.
        amps = np.zeros((11, 8), complex)
        amps[:, 7] = 1.0
        amps[:, 5] = 0.0
        tr = EvolutionTrace(amps, 1.0, range(7), (7,))
        # oracle: tau = -(dt/1)*sum_{j=1}^{N-1} 1 + (T - dt/2) = dt/2
        assert transfer_time(tr) == pytest.approx(0.5, abs=1e-12)

    def test_in_range_for_physical_trace(self):
        tr = make_trace(0.5, seed=1)
        tau = transfer_time(tr)
        assert 0.0 < tau <= 20.0

    def test_refinement_consistency(self):
        coarse = make_trace(0.5, seed=1, steps_per_segment=2)
        fine = make_trace(0.5, seed=1, steps_per_segment=4)
        assert abs(transfer_time(coarse) - transfer_time(fine)) < 0.5

    def test_zero_efficiency_rejected(self):
        amps = np.zeros((3, 8), complex)
        amps[:, 5] = 1.0
        tr = EvolutionTrace(amps, 1.0, range(7), (7,))
        with pytest.raises(PhysicsError):
            transfer_time(tr)


class TestIpr:
    def test_diagonal_gives_minimum(self):
        h = np.diag(np.arange(7.0))
        assert ipr(h) == pytest.approx(1.0 / 7.0)

    def test_uniform_eigenvectors_give_one(self):
        # Circulant ring: every eigenvector has |components| = 1/sqrt(7).
        m = np.zeros((7, 7), complex)
        for i in range(7):
            m[i, (i + 1) % 7] = 1.0
        # Hermitian circulant from the shift: S + S^T has uniform
        # eigenvector magnitudes in the Fourier basis only for the
        # complex DFT vectors; use the projector construction instead.
        f = np.exp(2j * np.pi * np.outer(np.arange(7), np.arange(7)) / 7)
        f /= math.sqrt(7)
        eigvals = np.diag(np.arange(7.0))
        h = f @ eigvals @ f.conj().T
        assert ipr(h) == pytest.approx(1.0, abs=1e-9)

    def test_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.standard_normal((7, 7))
            val = ipr(a + a.T)
            assert 1.0 / 7.0 - 1e-12 <= val <= 1.0 + 1e-12

    def test_restricted_to_network_block(self):
        h = attach_sink(build_fmo_hamiltonian(FmoSpec()), 50)
        val = ipr(h)
        assert 1.0 / 7.0 <= val <= 1.0

    def test_equals_inverse_sum_of_fourth_powers(self):
        # the definition, computed on its own eigendecomposition
        from fmosim.model import apply_static_disorder
        rng = np.random.default_rng(5)
        a = rng.standard_normal((7, 7))
        h7 = build_fmo_hamiltonian(FmoSpec())
        for h in (a + a.T, h7, attach_sink(h7, 20),
                  apply_static_disorder(h7, 10.0, [3, 1])):
            m = h.matrix[:7, :7] if hasattr(h, "matrix") else h
            _, v = np.linalg.eigh(m)
            assert ipr(h) == pytest.approx(1.0 / np.sum(np.abs(v) ** 4),
                                           rel=1e-15)

    def test_disorder_decreases_ipr(self):
        from fmosim.model import apply_static_disorder
        h7 = build_fmo_hamiltonian(FmoSpec())
        means = []
        for gamma in (0.0, 10.0, 100.0):
            vals = [ipr(apply_static_disorder(h7, gamma, [17, k]))
                    for k in range(200)]
            means.append(np.mean(vals))
        assert means[0] > means[1] > means[2]


class TestEigenSiteDistribution:
    def test_rows_sum_to_one(self):
        h = build_fmo_hamiltonian(FmoSpec())
        _, w = eigen_site_distribution(h)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_seven_distinct_eigenvalues(self):
        ev, _ = eigen_site_distribution(build_fmo_hamiltonian(FmoSpec()))
        assert len(ev) == 7
        assert np.all(np.diff(ev) > 1e-9)

    def test_strong_disorder_localizes(self):
        from fmosim.model import apply_static_disorder
        h7 = build_fmo_hamiltonian(FmoSpec())
        maxima = []
        for k in range(101):
            hd = apply_static_disorder(h7, 100.0, [23, k])
            _, w = eigen_site_distribution(hd)
            maxima.append(w.max(axis=1).min())
        assert np.median(maxima) > 0.9


class TestMostProbableSite:
    def test_starts_at_site_six(self):
        tr = make_trace(0.0, steps_per_segment=1)
        assert most_probable_site(tr)[0] == 6

    def test_zero_hamiltonian_stays_at_six(self):
        m = np.zeros((7, 7))
        h = Hamiltonian(m, tuple(f"fmo_site_{i}" for i in range(1, 8)))
        tr = evolve(h, np.zeros((7, 20)), 1.0, steps_per_segment=1)
        assert np.all(most_probable_site(tr) == 6)

    def test_tie_breaks_to_lowest_site(self):
        amps = np.full((1, 7), 1 / math.sqrt(7), complex)
        tr = EvolutionTrace(amps, 1.0, range(7), ())
        assert most_probable_site(tr)[0] == 1


class TestImageIngestion:
    def build_image(self):
        img = np.zeros((40, 60))
        # 30 units inside an ellipse on the left, 70 in a rectangle right
        img[20, 10] = 30.0
        img[10:20, 40:50] = 0.7
        return img

    def test_known_split(self):
        img = self.build_image()
        eta = efficiency_from_intensity_image(
            img, EllipseMask(10, 20, 5, 5), RectMask(40, 10, 10, 10))
        assert eta == pytest.approx(0.7, abs=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(PhysicsError):
            efficiency_from_intensity_image(
                np.zeros((20, 20)), EllipseMask(5, 5, 2, 2),
                RectMask(10, 10, 5, 5))

    def test_overlap_rejected(self):
        with pytest.raises(PhysicsError):
            efficiency_from_intensity_image(
                np.ones((20, 20)), EllipseMask(10, 10, 5, 5),
                RectMask(8, 8, 5, 5))

    def test_background_subtraction_linearity(self):
        img = self.build_image() + 0.25
        eta = efficiency_from_intensity_image(
            img, EllipseMask(10, 20, 5, 5), RectMask(40, 10, 10, 10),
            background=0.25)
        assert eta == pytest.approx(0.7, abs=1e-12)

    def test_ragged_file_rejected(self, tmp_path):
        path = tmp_path / "img.txt"
        path.write_text("1 2 3\n4 5\n")
        with pytest.raises(PhysicsError, match="line 2"):
            read_pixel_matrix(path)

    @pytest.mark.parametrize("pixel", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_pixel_rejected(self, tmp_path, pixel):
        path = tmp_path / "img.txt"
        path.write_text(f"1 2 3\n4 {pixel} 6\n")
        with pytest.raises(PhysicsError, match="line 2: non-finite"):
            read_pixel_matrix(path)

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "img.txt"
        path.write_bytes(b"1 2\n3 \xff\n")
        with pytest.raises(PhysicsError, match="img.txt: not UTF-8 text"):
            read_pixel_matrix(path)

    def test_matrix_file_round_trip(self, tmp_path):
        img = self.build_image()
        path = tmp_path / "img.txt"
        np.savetxt(path, img)
        back = read_pixel_matrix(path)
        np.testing.assert_allclose(back, img)


def _text_file(path, text):
    """``path`` holding ``text``."""
    path.write_text(text)
    return path


#: Input that each public estimator, record or reader rejects, with a
#: fragment of its message; each callable takes a scratch directory.
REJECTIONS = {
    "spectrum-grid-length": (
        lambda d: SpectrumEstimate([0.0, 1.0], [1.0]), "differ in length"),
    "spectrum-grid-order": (
        lambda d: SpectrumEstimate([0.0, 2.0, 1.0], [1.0, 1.0, 1.0]),
        "nonnegative and ascending"),
    "spectrum-negative-density": (
        lambda d: SpectrumEstimate([0.0, 1.0], [1.0, -1e-9]),
        "density must be nonnegative"),
    "fit-r-squared": (
        lambda d: analysis.LinearFitResult(1.0, 0.0, 1.5), "r_squared"),
    "ccf-shape": (
        lambda d: sample_ccf([1.0, 2.0, 3.0], [1.0, 2.0], 0), "equal length"),
    "ccf-lag": (
        lambda d: sample_ccf([1.0, 2.0, 4.0], [3.0, 1.0, 2.0], 3),
        "0 <= lag < n"),
    "ccf-constant": (
        lambda d: sample_ccf([1.0, 1.0, 1.0], [1.0, 2.0, 4.0], 0),
        "constant series"),
    "periodogram-sampling-frequency": (
        lambda d: psd_periodogram([1.0, 2.0, 4.0], 0.0),
        "sampling frequency must be positive"),
    "periodogram-nan-sampling-frequency": (
        lambda d: psd_periodogram([1.0, 2.0, 4.0], math.nan),
        "sampling frequency must be positive and finite"),
    "periodogram-infinite-sampling-frequency": (
        lambda d: psd_periodogram([1.0, 2.0, 4.0], math.inf),
        "sampling frequency must be positive and finite"),
    "reorganization-empty-spectrum": (
        lambda d: reorganization_energy(SpectrumEstimate([], [])),
        "empty spectrum"),
    "variance-empty": (lambda d: variance([]), "no variance"),
    "efficiency-off-grid": (
        lambda d: transport_efficiency(make_trace(sink=2, steps_per_segment=1),
                                       z=0.5),
        "z=0.5 mm is not on the trace grid"),
    "efficiency-nan-z": (
        lambda d: transport_efficiency(make_trace(sink=2, steps_per_segment=1),
                                       z=math.nan),
        "z=nan mm is not on the trace grid"),
    "efficiency-infinite-z": (
        lambda d: transport_efficiency(make_trace(sink=2, steps_per_segment=1),
                                       z=math.inf),
        "z=inf mm is not on the trace grid"),
    "transfer-time-no-sink": (
        lambda d: transfer_time(EvolutionTrace(np.ones((3, 7)), 0.5,
                                               range(7), ())),
        "no sink waveguides"),
    "transfer-time-one-sample": (
        lambda d: transfer_time(EvolutionTrace(np.ones((1, 8)), 0.5,
                                               range(7), (7,))),
        "too short"),
    "eigen-non-hermitian": (
        lambda d: eigen_site_distribution(np.array([[0.0, 1.0], [0.0, 0.0]])),
        "not Hermitian"),
    "most-probable-few-sites": (
        lambda d: most_probable_site(EvolutionTrace(np.ones((2, 4)), 0.5,
                                                    range(3), (3,))),
        "seven network sites"),
    "ellipse-extent": (
        lambda d: EllipseMask(1.0, 1.0, 0.0, 1.0).select((3, 3)),
        "semi-axes must be positive"),
    "rect-extent": (
        lambda d: RectMask(0.0, 0.0, 1.0, -1.0).select((3, 3)),
        "extent must be positive"),
    "pixels-non-numeric": (
        lambda d: read_pixel_matrix(_text_file(d / "img.txt", "1 2\n3 x\n")),
        "line 2: non-numeric pixel value"),
    "pixels-empty": (
        lambda d: read_pixel_matrix(_text_file(d / "img.txt", "\n \n")),
        "empty pixel matrix"),
    "image-not-2d": (
        lambda d: efficiency_from_intensity_image(
            np.ones(9), EllipseMask(1, 1, 1, 1), RectMask(0, 0, 1, 1)),
        "two-dimensional"),
    "image-mask-outside": (
        lambda d: efficiency_from_intensity_image(
            np.ones((4, 4)), EllipseMask(1, 1, 1, 1), RectMask(9, 9, 2, 2)),
        "mask lies outside the image"),
    "image-nan-background": (
        lambda d: efficiency_from_intensity_image(
            np.ones((4, 4)), EllipseMask(1, 1, 1, 1), RectMask(3, 0, 1, 4),
            background=math.nan),
        "must be finite"),
    "image-infinite-pixel": (
        lambda d: efficiency_from_intensity_image(
            np.array([[1.0, 1.0, 1.0, math.inf]] * 4), EllipseMask(1, 1, 1, 1),
            RectMask(3, 0, 1, 4)),
        "must be finite"),
}


@pytest.mark.parametrize("call, fragment", REJECTIONS.values(),
                         ids=REJECTIONS.keys())
def test_rejects_with_a_message(tmp_path, call, fragment):
    with pytest.raises(PhysicsError) as err:
        call(tmp_path)
    assert fragment in str(err.value)


def test_one_bin_spectrum_has_zero_reorganization_energy():
    # a lone bin is the zero frequency, which the sum leaves out
    assert reorganization_energy(SpectrumEstimate([0.0], [2.0])) == 0.0
    stack = reorganization_energy(SpectrumEstimate([0.0], [[2.0], [3.0]]))
    assert stack.shape == (2,) and not stack.any()
