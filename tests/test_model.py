"""Tests for Hamiltonian construction and fabrication calibration maps."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmosim.errors import PhysicsError
from fmosim.model import (
    CM_PER_MM,
    DEFAULT_SINK_COUPLING,
    RAW_SITE_HAMILTONIAN_CM,
    CouplingCalibration,
    FmoSpec,
    Hamiltonian,
    apply_static_disorder,
    attach_sink,
    attach_vibrational_mode,
    build_fmo_hamiltonian,
    coupling_for_spacing,
    delta_beta_for_speed,
    delta_c,
    effective_coupling,
    export_chip_plan,
    lowest_eigengap,
    read_chip_plan,
    spacing_for_coupling,
    speed_for_delta_beta,
    static_disorder_shifts,
    write_chip_plan,
)
from fmosim.noise import NoiseConfig, NoiseRealization, generate

# Eigengap of the seven-site default Hamiltonian, frozen from an
# independent high-precision eigensolve (mpmath-confirmed to 12 digits).
CALIBRATED_EIGENGAP = 0.4936645224134608
REFERENCE_EIGENGAP = 0.4776


class TestBuildFmoHamiltonian:
    def test_coupling_entry_1_2(self):
        h = build_fmo_hamiltonian(FmoSpec())
        assert h.matrix[0, 1].real == pytest.approx(-96.0 * 0.14 * 0.1, abs=1e-12)

    def test_site3_diagonal_is_zero(self):
        h = build_fmo_hamiltonian(FmoSpec())
        assert h.matrix[2, 2] == 0.0

    def test_hermitian(self):
        h = build_fmo_hamiltonian(FmoSpec())
        assert np.abs(h.matrix - h.matrix.conj().T).max() < 1e-12

    def test_weak_couplings_dropped_when_disabled(self):
        h = build_fmo_hamiltonian(FmoSpec(include_weak_couplings=False))
        # raw (1,3) coupling is 5.0 cm^-1, below the 15 cm^-1 cutoff
        assert h.matrix[0, 2] == 0.0
        # strong pair (1,2) survives
        assert h.matrix[0, 1] != 0.0

    def test_seven_strong_pairs_retained(self):
        h = build_fmo_hamiltonian(FmoSpec(include_weak_couplings=False))
        pairs = {(i, j) for i in range(7) for j in range(i + 1, 7)
                 if h.matrix[i, j] != 0}
        assert pairs == {(0, 1), (1, 2), (2, 3), (3, 4), (3, 6), (4, 5), (5, 6)}

    def test_asymmetric_matrix_rejected_with_indices(self):
        raw = RAW_SITE_HAMILTONIAN_CM.copy()
        raw[0, 1] = 1.0
        with pytest.raises(PhysicsError, match=r"\(0, 1\)"):
            FmoSpec(raw_hamiltonian=raw)

    @given(st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=20, deadline=None)
    def test_coupling_scale_linearity(self, s):
        default = build_fmo_hamiltonian(FmoSpec())
        scaled = build_fmo_hamiltonian(FmoSpec(coupling_scale=s))
        off = ~np.eye(7, dtype=bool)
        np.testing.assert_allclose(
            scaled.matrix[off].real, default.matrix[off].real * (s / 0.14),
            rtol=1e-12, atol=1e-15)


class TestAttachSink:
    def test_dimension_107(self):
        h = attach_sink(build_fmo_hamiltonian(FmoSpec()), 100)
        assert h.dim == 107

    def test_dimension_87(self):
        h = attach_sink(build_fmo_hamiltonian(FmoSpec()), 80)
        assert h.dim == 87

    def test_sink_diagonal_equals_drain_diagonal(self):
        h7 = build_fmo_hamiltonian(FmoSpec())
        h = attach_sink(h7, 10)
        drain_diag = h7.matrix[h7.drain_index, h7.drain_index]
        for k in h.sink_indices:
            assert h.matrix[k, k] == drain_diag
        assert np.abs(h.matrix - h.matrix.conj().T).max() < 1e-12

    def test_drain_coupled_to_first_sink(self):
        h = attach_sink(build_fmo_hamiltonian(FmoSpec()), 5,
                        drain_coupling=0.37)
        assert h.matrix[h.drain_index, h.sink_indices[0]] == pytest.approx(0.37)

    def test_default_coupling_documented_value(self):
        assert DEFAULT_SINK_COUPLING == 0.2

    def test_double_attach_rejected(self):
        h = attach_sink(build_fmo_hamiltonian(FmoSpec()), 5)
        with pytest.raises(PhysicsError):
            attach_sink(h, 5)


class TestVibrationalMode:
    def test_auto_coupling_equals_eigengap(self):
        h7 = build_fmo_hamiltonian(FmoSpec())
        h8 = attach_vibrational_mode(h7)
        gap = lowest_eigengap(h7)
        for i in range(7):
            assert h8.matrix[7, i].real == pytest.approx(gap, abs=1e-12)
        assert h8.matrix[7, 7] == 0.0

    def test_dimension_and_hermiticity(self):
        h8 = attach_vibrational_mode(build_fmo_hamiltonian(FmoSpec()))
        assert h8.dim == 8
        assert np.abs(h8.matrix - h8.matrix.conj().T).max() < 1e-12

    def test_zero_coupling_decouples(self):
        h7 = build_fmo_hamiltonian(FmoSpec())
        h8 = attach_vibrational_mode(h7, coupling=0.0)
        np.testing.assert_array_equal(h8.matrix[:7, :7], h7.matrix)
        assert np.all(h8.matrix[7, :7] == 0)

    def test_rejects_non_7site(self):
        h = attach_sink(build_fmo_hamiltonian(FmoSpec()), 3)
        with pytest.raises(PhysicsError):
            attach_vibrational_mode(h)


class TestEigengap:
    def test_diagonal_case(self):
        h = Hamiltonian(np.diag([0.0, 1.54, 3.0, 4, 5, 6, 7]),
                        tuple(f"fmo_site_{i}" for i in range(1, 8)))
        assert lowest_eigengap(h) == pytest.approx(1.54)

    def test_two_level_analytic(self):
        c = 0.7
        m = np.zeros((7, 7))
        m[0, 1] = m[1, 0] = c
        m[np.arange(2, 7), np.arange(2, 7)] = 100.0
        h = Hamiltonian(m, tuple(f"fmo_site_{i}" for i in range(1, 8)))
        assert lowest_eigengap(h) == pytest.approx(2 * c, abs=1e-12)

    def test_calibrated_default_near_reference(self):
        gap = lowest_eigengap(build_fmo_hamiltonian(FmoSpec()))
        assert gap == pytest.approx(CALIBRATED_EIGENGAP, abs=1e-12)
        assert abs(gap - REFERENCE_EIGENGAP) / REFERENCE_EIGENGAP < 0.05


class TestCalibrationMaps:
    def test_coupling_at_zero_spacing(self):
        assert coupling_for_spacing(0.0) == pytest.approx(47.19)

    def test_strongest_pair_spacing(self):
        c = 0.14 * 96.0
        d = spacing_for_coupling(c)
        assert d == pytest.approx(math.log(47.19 / 13.44) / 0.2243, rel=1e-12)
        assert d == pytest.approx(5.5994, abs=5e-4)

    @given(st.floats(min_value=0.0, max_value=30.0))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, d):
        assert spacing_for_coupling(coupling_for_spacing(d)) == pytest.approx(
            d, abs=1e-12)

    def test_inversion_domain_rejected(self):
        with pytest.raises(PhysicsError):
            spacing_for_coupling(0.0)
        with pytest.raises(PhysicsError):
            spacing_for_coupling(47.2)

    def test_speed_map(self):
        assert delta_beta_for_speed(0.0) == 0.0
        assert delta_beta_for_speed(30.0) == pytest.approx(0.6)
        assert speed_for_delta_beta(1.0) == pytest.approx(50.0)

    @given(st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_speed_round_trip(self, dv):
        assert speed_for_delta_beta(delta_beta_for_speed(dv)) == pytest.approx(
            dv, abs=1e-9)


class TestEffectiveCoupling:
    def test_zero_detuning(self):
        assert effective_coupling(1.344, 0.0) == pytest.approx(1.344)
        assert delta_c(1.344, 0.0) == 0.0

    def test_sqrt2_case(self):
        assert effective_coupling(1.0, 2.0) == pytest.approx(math.sqrt(2.0))

    def test_small_detuning_approximation(self):
        c0, db = 1.344, 0.4
        assert delta_c(c0, db) == pytest.approx(db ** 2 / (8 * c0), rel=0.05)

    @given(st.floats(min_value=0.1, max_value=5.0),
           st.floats(min_value=0.0, max_value=0.5))
    @settings(max_examples=50, deadline=None)
    def test_delta_c_nonnegative(self, c0, db):
        assert delta_c(c0, db) >= 0.0

    def test_quadratic_limit(self):
        c0 = 2.0
        db = 0.1 * c0
        ratio = delta_c(c0, db) / (db ** 2 / (8 * c0))
        assert abs(ratio - 1.0) < 0.01


class TestStaticDisorder:
    def test_gamma_zero_identity(self):
        h = build_fmo_hamiltonian(FmoSpec())
        assert apply_static_disorder(h, 0.0, 1) is h

    def test_shift_bounds(self):
        h = build_fmo_hamiltonian(FmoSpec())
        for seed in range(20):
            hd = apply_static_disorder(h, 10.0, seed)
            shifts = np.diag(hd.matrix - h.matrix).real
            assert np.all(shifts >= 0.0) and np.all(shifts <= 10.0)
            off = ~np.eye(7, dtype=bool)
            np.testing.assert_array_equal(hd.matrix[off], h.matrix[off])

    def test_mean_shift_statistics(self):
        h = build_fmo_hamiltonian(FmoSpec())
        gamma = 4.0
        n_draws = 15000  # 7 sites each -> ~1e5 samples
        shifts = []
        for seed in range(n_draws):
            hd = apply_static_disorder(h, gamma, [7, seed])
            shifts.append(np.diag(hd.matrix - h.matrix).real)
        shifts = np.concatenate(shifts)
        sigma = gamma / math.sqrt(12.0)
        assert abs(shifts.mean() - gamma / 2) < 3 * sigma / math.sqrt(len(shifts))

    @pytest.mark.parametrize("sites", ["fmo", "all"])
    @pytest.mark.parametrize("gamma", [0.0, 3.0, 10.0])
    def test_shifts_are_the_disordered_diagonal_bitwise(self, sites, gamma):
        h = attach_sink(attach_vibrational_mode(build_fmo_hamiltonian()), 10)
        idx = h.fmo_indices if sites == "fmo" else np.arange(h.dim)
        for seed in ([5, 0, 1, 1], 17):
            expected = h.matrix.diagonal().real.copy()
            expected[idx] += static_disorder_shifts(len(idx), gamma, seed)
            got = apply_static_disorder(h, gamma, seed, sites=sites)
            np.testing.assert_array_equal(got.matrix.diagonal().real, expected)

    def test_negative_gamma_rejected(self):
        with pytest.raises(PhysicsError):
            static_disorder_shifts(7, -1.0, 0)


class TestChipPlan:
    def test_two_site_plan(self):
        m = np.array([[0.0, 1.344], [1.344, 0.0]])
        h = Hamiltonian(m, ("fmo_site_6", "fmo_site_3"),
                        source_site=6, drain_site=3)
        det = NoiseRealization(np.zeros((2, 4)),
                               NoiseConfig(kind="uniform_white", amplitude=0.0,
                                           segments=4, total_length=4.0,
                                           normalization="none"))
        rows = export_chip_plan(h, det)
        spacing = [r for r in rows if r.record_type == "spacing"]
        speed = [r for r in rows if r.record_type == "speed"]
        assert len(spacing) == 1
        assert spacing[0].value == pytest.approx(5.5994, abs=5e-4)
        assert len(speed) == 8 and all(r.value == 0.0 for r in speed)

    def test_default_seven_spacing_rows(self):
        h = build_fmo_hamiltonian(FmoSpec(include_weak_couplings=False))
        rows = export_chip_plan(h)
        spacing_pairs = [(r.site_a, r.site_b) for r in rows
                         if r.record_type == "spacing"]
        assert spacing_pairs == [(1, 2), (2, 3), (3, 4), (4, 5), (4, 7),
                                 (5, 6), (6, 7)]

    def test_round_trip_couplings(self):
        h = build_fmo_hamiltonian(FmoSpec(include_weak_couplings=False))
        rows = export_chip_plan(h)
        for r in rows:
            if r.record_type != "spacing":
                continue
            c_mm = coupling_for_spacing(r.value) * CM_PER_MM
            i, j = r.site_a - 1, r.site_b - 1
            assert abs(c_mm - abs(h.matrix[i, j].real)) < 1e-9

    def test_excessive_coupling_rejected(self):
        m = np.array([[0.0, 5.0], [5.0, 0.0]])  # 50 cm^-1 > fit amplitude
        h = Hamiltonian(m, ("fmo_site_6", "fmo_site_3"),
                        source_site=6, drain_site=3)
        with pytest.raises(PhysicsError, match=r"\(1, 2\)"):
            export_chip_plan(h)

    def test_csv_round_trip(self):
        h = build_fmo_hamiltonian(FmoSpec(include_weak_couplings=False))
        det = generate(NoiseConfig(kind="uniform_white", amplitude=0.5, seed=5))
        rows = export_chip_plan(h, det)
        buf = io.StringIO()
        write_chip_plan(rows, buf)
        buf.seek(0)
        back = read_chip_plan(buf)
        assert back == rows

    def test_max_speed_for_unit_amplitude(self):
        h = build_fmo_hamiltonian(FmoSpec(include_weak_couplings=False))
        det = generate(NoiseConfig(kind="uniform_white", amplitude=1.0, seed=0))
        rows = export_chip_plan(h, det)
        max_speed = max(r.value for r in rows if r.record_type == "speed")
        assert max_speed <= 50.0 + 1e-9
        assert max_speed > 40.0  # uniform draws approach the amplitude
