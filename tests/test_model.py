"""Tests for Hamiltonian construction and fabrication calibration maps."""

import io
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmosim import _seeding
from fmosim.errors import PhysicsError
from fmosim.model import (
    CM_PER_MM,
    DEFAULT_SINK_COUPLING,
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

    def test_matrix_is_real_float64(self):
        h7 = build_fmo_hamiltonian(FmoSpec())
        for h in (h7, attach_sink(h7, 5), attach_vibrational_mode(h7),
                  apply_static_disorder(h7, 3.0, 1)):
            assert h.matrix.dtype == np.float64

    def test_imaginary_part_rejected_not_dropped(self):
        m = build_fmo_hamiltonian(FmoSpec()).matrix.astype(complex)
        roles = tuple(f"fmo_site_{i}" for i in range(1, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning either
            stored = Hamiltonian(m, roles).matrix
            assert stored.dtype == np.float64
            np.testing.assert_array_equal(stored, m.real)
            m[0, 1] += 1e-3j
            m[1, 0] -= 1e-3j  # Hermitian, but not real
            with pytest.raises(PhysicsError, match="real"):
                Hamiltonian(m, roles)

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

    @pytest.mark.parametrize("s", [0.0, -0.1, 1.0 + 1e-12, np.inf, np.nan])
    def test_coupling_scale_outside_unit_interval_rejected(self, s):
        with pytest.raises(PhysicsError, match="coupling_scale"):
            FmoSpec(coupling_scale=s)

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
        h = attach_sink(build_fmo_hamiltonian(FmoSpec()), 5, coupling=0.37)
        first, second = h.sink_indices[:2]
        assert h.matrix[h.drain_index, first] == pytest.approx(0.37)
        assert h.matrix[first, second] == pytest.approx(0.37)

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


class TestRoleIndices:
    def test_repeated_reads_are_one_object(self):
        h = attach_sink(build_fmo_hamiltonian(FmoSpec()), 5)
        assert h.fmo_indices is h.fmo_indices
        assert h.sink_indices is h.sink_indices

    def test_index_arrays_are_read_only(self):
        h = attach_sink(build_fmo_hamiltonian(FmoSpec()), 5)
        for idx in (h.fmo_indices, h.sink_indices):
            assert not idx.flags.writeable
            with pytest.raises(ValueError):
                idx[0] = 1

    @pytest.mark.parametrize("build, sinks", [
        (lambda h7: attach_sink(h7, 4), range(7, 11)),
        (lambda h7: attach_sink(attach_vibrational_mode(h7), 3), range(8, 11)),
        (lambda h7: attach_vibrational_mode(h7), ()),
        (lambda h7: replace(h7, roles=h7.roles[::-1]), ()),
    ])
    def test_each_hamiltonian_carries_its_own_indices(self, build, sinks):
        h7 = build_fmo_hamiltonian(FmoSpec())
        h = build(h7)
        assert h.fmo_indices.dtype == h.sink_indices.dtype == int
        np.testing.assert_array_equal(h.fmo_indices, range(7))
        np.testing.assert_array_equal(h.sink_indices, list(sinks))
        assert h.source_index == h.roles.index("fmo_site_6")
        assert h.drain_index == h.roles.index("fmo_site_3")
        assert (h7.source_index, h7.drain_index) == (5, 2)
        assert len(h7.sink_indices) == 0

    def test_replaced_sites_move_their_indices(self):
        h = replace(build_fmo_hamiltonian(FmoSpec()), source_site=1, drain_site=7)
        assert (h.source_index, h.drain_index) == (0, 6)

    @pytest.mark.parametrize("sites, message", [
        ({"drain_site": 8}, "drain site 8 not present"),
        ({"source_site": 9}, "source site 9 not present"),
    ])
    def test_missing_site_rejected(self, sites, message):
        h7 = build_fmo_hamiltonian(FmoSpec())
        with pytest.raises(PhysicsError, match=f"^{message}$"):
            Hamiltonian(h7.matrix, h7.roles, **sites)


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

    @pytest.mark.parametrize("c", [1e-320, np.float64(2e-308), 5e-324])
    def test_coupling_without_a_finite_spacing_rejected(self, c):
        # 47.19 / c overflows below about 2.6e-307: no finite spacing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PhysicsError, match=f"coupling {c} cm"):
                spacing_for_coupling(c)
        assert math.isfinite(spacing_for_coupling(3e-307))

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
            shifts = np.diag(hd.matrix - h.matrix)
            assert np.all(shifts >= 0.0) and np.all(shifts <= 10.0)
            off = ~np.eye(7, dtype=bool)
            np.testing.assert_array_equal(hd.matrix[off], h.matrix[off])

    def test_mean_shift_statistics(self):
        gamma = 4.0
        n_draws = 15000  # 7 sites each -> ~1e5 samples
        # the rows apply_static_disorder(h, gamma, [7, seed]) adds
        shifts = static_disorder_shifts(
            7, gamma, [[7, seed] for seed in range(n_draws)]).ravel()
        sigma = gamma / math.sqrt(12.0)
        assert abs(shifts.mean() - gamma / 2) < 3 * sigma / math.sqrt(len(shifts))

    # "fmo": the bare seven-site network, as figS9 passes it; "all": the
    # whole chip, whose vibration and sink diagonals are shifted too
    @pytest.mark.parametrize("system", ["fmo", "all"])
    @pytest.mark.parametrize("gamma", [0.0, 3.0, 10.0])
    def test_shifts_are_the_disordered_diagonal_bitwise(self, system, gamma):
        h = build_fmo_hamiltonian()
        if system == "all":
            h = attach_sink(attach_vibrational_mode(h), 10)
        for seed in ([5, 0, 1, 1], 17):
            expected = h.matrix.diagonal() + static_disorder_shifts(
                h.dim, gamma, [seed])[0]
            got = apply_static_disorder(h, gamma, seed)
            np.testing.assert_array_equal(got.matrix.diagonal(), expected)
            off = ~np.eye(h.dim, dtype=bool)
            np.testing.assert_array_equal(got.matrix[off], h.matrix[off])

    @pytest.mark.parametrize("gamma", [0.0, 3.0])
    def test_no_seeds_give_no_rows(self, gamma):
        assert static_disorder_shifts(7, gamma, []).shape == (0, 7)

    def test_negative_gamma_rejected(self):
        with pytest.raises(PhysicsError):
            static_disorder_shifts(7, -1.0, [0])

    def test_per_seed_strengths_are_each_rows_stream_bitwise(self):
        seeds = [[5, 0, 0, 1], 17, [5, 0, 0, 1], 2**70]
        gammas = [3.0, 0.0, 10.0, 0.25]
        got = static_disorder_shifts(9, gammas, seeds)
        for row, gamma, seed in zip(got, gammas, seeds):
            want = np.random.default_rng(seed).uniform(0.0, gamma, 9)
            assert row.tobytes() == want.tobytes()

    def test_all_zero_strengths_draw_nothing(self, monkeypatch):
        def no_draw(rows, n):
            raise AssertionError("drew disorder at zero strength")

        monkeypatch.setattr(_seeding, "random_rows", no_draw)
        got = static_disorder_shifts(7, [0.0, 0.0, 0.0], [1, 2, 3])
        assert got.shape == (3, 7) and not got.any()

    @pytest.mark.parametrize("gammas", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0],
                                        [[1.0, 2.0, 3.0]]],
                             ids=["short", "long", "2-d"])
    def test_strengths_not_one_per_seed_rejected(self, gammas):
        with pytest.raises(PhysicsError, match="one per seed"):
            static_disorder_shifts(7, gammas, [0, 1, 2])

    @pytest.mark.parametrize("bad, match", [
        (-1.0, "nonnegative"), (math.nan, "finite"), (math.inf, "finite")],
        ids=["negative", "nan", "inf"])
    @pytest.mark.parametrize("row", [0, 2])
    def test_bad_strength_in_any_row_rejected(self, bad, match, row):
        gammas = [1.0, 0.0, 3.0]
        gammas[row] = bad
        with pytest.raises(PhysicsError, match=match):
            static_disorder_shifts(7, gammas, [0, 1, 2])

    # 1e309 parses as inf; each used to leak numpy's OverflowError
    @pytest.mark.parametrize("gamma", [math.nan, math.inf, float("1e309")],
                             ids=["nan", "inf", "1e309"])
    def test_non_finite_gamma_rejected(self, gamma):
        h = build_fmo_hamiltonian()
        with pytest.raises(PhysicsError,
                           match="disorder strength must be finite"):
            static_disorder_shifts(7, gamma, [0])
        with pytest.raises(PhysicsError,
                           match="disorder strength must be finite"):
            apply_static_disorder(h, gamma, 0)


class TestChipPlan:
    def test_two_site_plan(self):
        m = np.array([[0.0, 1.344], [1.344, 0.0]])
        h = Hamiltonian(m, ("fmo_site_6", "fmo_site_3"),
                        source_site=6, drain_site=3)
        det = NoiseRealization(np.zeros((2, 4)),
                               NoiseConfig(kind="uniform_white", amplitude=0.0,
                                           segments=4, total_length=4.0))
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

    @pytest.mark.parametrize("text,match", [
        ("", "line 1: empty chip plan"),
        ("record_type,site_a,site_b,segment_index,value,unit\nspacing,1\n",
         "line 2: malformed chip-plan row"),
        ("record_type,site_a,site_b,segment_index,value,unit\n"
         "spacing,1,2,,5.6,um\nspacing,one,2,,5.6,um\n",
         "line 3: malformed chip-plan row"),
        ("record_type,site_a,site_b,segment_index,value,unit\n"
         "spacing,1,2,,wide,um\n", "line 2: malformed chip-plan row")],
        ids=["empty", "short_row", "non_integer_site", "non_numeric_value"])
    def test_malformed_plan_names_line(self, text, match):
        with pytest.raises(PhysicsError, match=match):
            read_chip_plan(io.StringIO(text))

    def test_non_utf8_plan_rejected(self, tmp_path):
        path = tmp_path / "plan.csv"
        path.write_bytes(b"record_type,site_a,site_b,segment_index,value,unit\n"
                         b"spacing,1,2,,5.6,\xff\n")
        with pytest.raises(PhysicsError, match="plan.csv: not UTF-8 text"):
            read_chip_plan(path)

    def test_max_speed_for_unit_amplitude(self):
        h = build_fmo_hamiltonian(FmoSpec(include_weak_couplings=False))
        det = generate(NoiseConfig(kind="uniform_white", amplitude=1.0, seed=0))
        rows = export_chip_plan(h, det)
        max_speed = max(r.value for r in rows if r.record_type == "speed")
        assert max_speed <= 50.0 + 1e-9
        assert max_speed > 40.0  # uniform draws approach the amplitude
