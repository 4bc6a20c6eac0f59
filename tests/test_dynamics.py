"""Tests for piecewise-constant evolution and the segment propagator."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmosim import dynamics
from fmosim.dynamics import (
    EvolutionTrace,
    PiecewiseHamiltonian,
    evolve,
    propagate,
    segment_propagator,
    site_probabilities,
    spectral_interval,
    write_trace_csv,
)
from fmosim.errors import PhysicsError
from fmosim.model import (FmoSpec, Hamiltonian, apply_static_disorder,
                          attach_sink, attach_vibrational_mode,
                          build_fmo_hamiltonian)
from fmosim.noise import NOISE_KINDS, NoiseConfig, NoiseRealization, generate


def expm_taylor(a, order=30):
    """Scaling-and-squaring Taylor-series matrix exponential oracle."""
    a = np.asarray(a, dtype=complex)
    norm = np.linalg.norm(a, np.inf)
    s = max(0, int(np.ceil(np.log2(max(norm, 1e-300)))) + 1)
    small = a / (2 ** s)
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, order + 1):
        term = term @ small / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def default_piecewise(amplitude=0.5, seed=0, segments=20, sink=100,
                      kind="uniform_white", correction=False):
    h = attach_sink(build_fmo_hamiltonian(FmoSpec()), sink)
    cfg = NoiseConfig(kind=kind, amplitude=amplitude, segments=segments,
                      total_length=20.0, seed=seed)
    if amplitude == 0:
        det = NoiseRealization(np.zeros((7, segments)), cfg)
    else:
        det = generate(cfg)
    return PiecewiseHamiltonian(h, det, segment_length=20.0 / segments,
                                coupling_correction=correction)


class TestSegmentPropagator:
    def test_zero_distance_is_identity(self):
        h = np.array([[1.0, 0.3], [0.3, -0.5]])
        np.testing.assert_allclose(segment_propagator(h, 0.0), np.eye(2),
                                   atol=1e-15)

    def test_rabi_two_mode(self):
        c = 0.8
        h = np.array([[0.0, c], [c, 0.0]])
        for dz in (0.3, 1.0, 2.7):
            u = segment_propagator(h, dz)
            psi = u @ np.array([1.0, 0.0])
            assert abs(psi[1]) ** 2 == pytest.approx(np.sin(c * dz) ** 2,
                                                     abs=1e-12)

    def test_matches_taylor_oracle_on_random_hermitian(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            h = (a + a.conj().T) / 2
            dz = rng.uniform(0.1, 2.0)
            u = segment_propagator(h, dz)
            ref = expm_taylor(-1j * h * dz)
            assert np.abs(u - ref).max() < 1e-9

    def test_unitarity(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((10, 10))
        h = a + a.T
        u = segment_propagator(h, 1.3)
        assert np.abs(u @ u.conj().T - np.eye(10)).max() < 1e-12

    def test_non_hermitian_rejected(self):
        with pytest.raises(PhysicsError):
            segment_propagator(np.array([[0.0, 1.0], [0.5, 0.0]]), 1.0)

    def test_negative_distance_rejected(self):
        with pytest.raises(PhysicsError):
            segment_propagator(np.eye(2), -0.1)


class TestBudgets:
    def test_series_budget_sits_far_above_the_studies(self):
        # figS8's widest study (amplitude 90, disorder 100, 1 mm segments)
        # has a spectral half-width times step of about 97
        assert len(dynamics._chebyshev_weights(97.0)) * 50 < \
            dynamics.MAX_SERIES_TERMS

    @pytest.mark.parametrize("rho", [7000.0, 1e300, np.inf, np.nan])
    def test_series_over_budget_rejected(self, rho):
        with pytest.raises(PhysicsError, match="Chebyshev series"):
            dynamics._chebyshev_weights(rho)

    def test_trace_over_budget_rejected(self):
        ph = default_piecewise(0.0)
        with pytest.raises(PhysicsError, match="samples"):
            evolve(ph, fine_step=20.0 / dynamics.MAX_TRACE_SAMPLES)


class TestEvolve:
    def test_initial_state_is_source_basis_vector(self):
        tr = evolve(default_piecewise(0.0), fine_step=1.0)
        psi0 = tr.amplitudes[0]
        h = attach_sink(build_fmo_hamiltonian(FmoSpec()), 100)
        expected = np.zeros(h.dim)
        expected[h.source_index] = 1.0
        np.testing.assert_array_equal(psi0, expected)
        assert tr.positions[0] == 0.0

    def test_zero_hamiltonian_constant_state(self):
        m = np.zeros((7, 7))
        from fmosim.model import Hamiltonian
        h = Hamiltonian(m, tuple(f"fmo_site_{i}" for i in range(1, 8)))
        det = NoiseRealization(np.zeros((7, 4)),
                               NoiseConfig(amplitude=0.0, segments=4,
                                           total_length=4.0))
        tr = evolve(PiecewiseHamiltonian(h, det, segment_length=1.0,
                                         total_length=4.0), fine_step=0.5)
        for psi in tr.amplitudes:
            np.testing.assert_array_equal(psi, tr.amplitudes[0])

    def test_deterministic_trace(self):
        a = evolve(default_piecewise(0.3, seed=5), fine_step=0.5)
        b = evolve(default_piecewise(0.3, seed=5), fine_step=0.5)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    def test_norm_conservation(self):
        for kind in ("uniform_white", "colored", "cauchy"):
            tr = evolve(default_piecewise(0.8, seed=3, kind=kind),
                        fine_step=0.25)
            norms = np.linalg.norm(tr.amplitudes, axis=1)
            assert np.abs(norms - 1.0).max() < 1e-9

    def test_grid_refinement_identity(self):
        ph = default_piecewise(0.5, seed=1)
        coarse = evolve(ph, fine_step=0.5)
        fine = evolve(ph, fine_step=0.25)
        np.testing.assert_allclose(coarse.amplitudes, fine.amplitudes[::2],
                                   atol=1e-12)

    def test_global_diagonal_shift_invariance(self):
        ph = default_piecewise(0.5, seed=2)
        tr = evolve(ph, fine_step=1.0)
        from fmosim.model import Hamiltonian
        shifted_m = ph.base.matrix + 3.7 * np.eye(ph.base.dim)
        shifted = PiecewiseHamiltonian(
            Hamiltonian(shifted_m, ph.base.roles, ph.base.source_site,
                        ph.base.drain_site),
            ph.detunings, ph.segment_length, ph.total_length)
        tr2 = evolve(shifted, fine_step=1.0)
        assert np.abs(np.abs(tr.amplitudes) ** 2
                      - np.abs(tr2.amplitudes) ** 2).max() < 1e-10

    def test_time_reversal(self):
        ph = default_piecewise(0.5, seed=4)
        tr = evolve(ph, fine_step=1.0)
        psi = tr.amplitudes[-1].copy()
        for k in reversed(range(ph.n_segments)):
            u = segment_propagator(ph.segment_matrix(k), ph.segment_length)
            psi = u.conj().T @ psi
        np.testing.assert_allclose(psi, tr.amplitudes[0], atol=1e-9)

    def test_zeno_freezing_at_strong_noise(self):
        h = attach_sink(build_fmo_hamiltonian(FmoSpec()), 100)
        src = h.source_index
        pops = {}
        for amp in (0.1, 80.0):
            tr = evolve(default_piecewise(amp, seed=6), fine_step=1.0)
            j = int(round(2.0 / tr.fine_step))
            pops[amp] = abs(tr.amplitudes[j][src]) ** 2
        assert pops[80.0] > pops[0.1]

    def test_large_step_rejected(self):
        with pytest.raises(PhysicsError):
            evolve(default_piecewise(0.0), fine_step=2.0)

    def test_non_dividing_step_rejected(self):
        with pytest.raises(PhysicsError):
            evolve(default_piecewise(0.0), fine_step=0.3)

    def test_final_position_is_total_length(self):
        tr = evolve(default_piecewise(0.2, seed=9), fine_step=0.5)
        assert tr.positions[-1] == pytest.approx(20.0)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_norm_conserved_any_seed(self, seed):
        tr = evolve(default_piecewise(1.0, seed=seed, sink=20), fine_step=1.0)
        assert abs(np.linalg.norm(tr.amplitudes[-1]) - 1.0) < 1e-9


class TestCouplingCorrection:
    def test_correction_changes_offdiagonals_only_slightly(self):
        plain = default_piecewise(0.5, seed=1, correction=False)
        corr = default_piecewise(0.5, seed=1, correction=True)
        m0 = plain.segment_matrix(0)
        m1 = corr.segment_matrix(0)
        np.testing.assert_array_equal(np.diag(m0), np.diag(m1))
        diff = np.abs(m1 - m0).max()
        assert 0 < diff < 0.05  # ~db^2/(8 c0) scale

    def test_correction_magnitude_matches_pair_formula(self):
        from fmosim.model import effective_coupling
        ph = default_piecewise(0.5, seed=1, correction=True)
        base = ph.base.matrix
        m = ph.segment_matrix(3)
        d = ph.detunings.sequences[:, 3]
        c0 = abs(base[0, 1])
        expected = -effective_coupling(c0, (d[0] + d[1]) / 2)
        assert m[0, 1].real == pytest.approx(expected, abs=1e-12)


class TestSiteProbabilities:
    def test_z0_source_probability_one(self):
        tr = evolve(default_piecewise(0.0), fine_step=1.0)
        p = site_probabilities(tr, tr.fmo_indices)
        assert p[0, 5] == pytest.approx(1.0)
        assert p[0].sum() == pytest.approx(1.0)

    def test_renormalized_rows_sum_to_one(self):
        tr = evolve(default_piecewise(0.4, seed=2), fine_step=0.5)
        p = site_probabilities(tr, tr.fmo_indices, renormalize=True)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_full_probabilities_sum_to_one(self):
        tr = evolve(default_piecewise(0.4, seed=2), fine_step=0.5)
        p = site_probabilities(tr)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)

    def test_empty_subset_rejected(self):
        tr = evolve(default_piecewise(0.0), fine_step=1.0)
        with pytest.raises(PhysicsError):
            site_probabilities(tr, [])

    def test_zero_subset_probability_rejected_with_position(self):
        m = np.zeros((7, 7))
        from fmosim.model import Hamiltonian
        h = Hamiltonian(m, tuple(f"fmo_site_{i}" for i in range(1, 8)))
        det = NoiseRealization(np.zeros((7, 2)),
                               NoiseConfig(amplitude=0.0, segments=2,
                                           total_length=2.0))
        tr = evolve(PiecewiseHamiltonian(h, det, total_length=2.0),
                    fine_step=1.0)
        with pytest.raises(PhysicsError, match="z="):
            site_probabilities(tr, [0], renormalize=True)


class TestTraceExport:
    def test_csv_columns_and_stride(self, tmp_path):
        tr = evolve(default_piecewise(0.2, seed=1, sink=10), fine_step=1.0)
        path = tmp_path / "trace.csv"
        write_trace_csv(tr, path, stride=5)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "z_mm,site_index,re,im,probability"
        n_z = (len(tr.positions) + 4) // 5
        assert len(lines) == 1 + n_z * tr.amplitudes.shape[1]
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[4]) == pytest.approx(
            float(first[1] == "5") * 1.0)


def batch_inputs(vibration=False, columns=5, sink=20, seed=11, segments=6):
    """A small batch: per-column detunings and static-disorder diagonals."""
    h = build_fmo_hamiltonian(FmoSpec())
    if vibration:
        h = attach_vibrational_mode(h)
    h = attach_sink(h, sink)
    det = np.stack([generate(NoiseConfig(kind="uniform_white", amplitude=a,
                                         segments=segments,
                                         total_length=float(segments),
                                         seed=seed + r)).sequences
                    for r, a in enumerate(np.linspace(0.0, 2.0, columns))])
    diag = np.stack([apply_static_disorder(h, 3.0, [seed, r], sites="all")
                     .matrix.diagonal().real for r in range(columns)], axis=1)
    return h, det, diag


def run_states(h, det, diag, correction, interval=None, steps=2):
    return [psi.copy() for psi in propagate(
        h, det, 1.0, steps, diagonals=diag, coupling_correction=correction,
        interval=interval)]


def spy_term_buffers(monkeypatch):
    """The (terms held, rows, columns) of every term buffer propagate makes."""
    shapes = []
    term_buffer = dynamics._term_buffer

    def spy(n_terms, rows, cols):
        shapes.append((n_terms, rows, cols))
        return term_buffer(n_terms, rows, cols)

    monkeypatch.setattr(dynamics, "_term_buffer", spy)
    return shapes


def b_tail_exact(a, depth, top=400):
    """sum_{k >= depth} a^k / k! as an exact fraction (terms past ``top``
    are below 1e-300 for the a used here)."""
    term, total = Fraction(1), Fraction(0)
    for k in range(top + 1):
        if k:
            term = term * a / k
        if k >= depth:
            total += term
    return total


# (correction, vibration, sink, segments); the long chain over 20 mm is
# wider than its light cone, so the window is narrower than dim
COLUMN_CASES = [(c, v, sink, segments)
                for sink, segments in ((20, 6), (100, 20))
                for c in (False, True) for v in (False, True)]


class TestPropagate:
    @pytest.mark.parametrize(
        "correction,vibration,sink,segments", COLUMN_CASES,
        ids=[f"{c}-{v}" + ("-long_chain" if sink == 100 else "")
             for c, v, sink, _ in COLUMN_CASES])
    def test_column_alone_is_bitwise_equal_to_batch_column(
            self, correction, vibration, sink, segments):
        h, det, diag = batch_inputs(vibration, sink=sink, segments=segments)
        interval = spectral_interval(h, det, diag, correction)
        batch = run_states(h, det, diag, correction, interval)
        for c in range(det.shape[0]):
            alone = run_states(h, det[c:c + 1], diag[:, c:c + 1], correction,
                               interval)
            for a, b in zip(alone, batch):
                np.testing.assert_array_equal(a[:, 0], b[:, c])

    @pytest.mark.parametrize("correction", [False, True])
    def test_batch_width_does_not_change_a_column(self, correction):
        # widths on either side of the einsum loops' vector tails; the
        # long chain over 4 mm keeps the window narrower than dim
        h, det, diag = batch_inputs(columns=33, sink=100, segments=4)
        interval = spectral_interval(h, det, diag, correction)
        full = run_states(h, det, diag, correction, interval)
        for width in (1, 2, 3, 5, 8, 17):
            part = run_states(h, det[-width:], diag[:, -width:], correction,
                              interval)
            for a, b in zip(part, full):
                np.testing.assert_array_equal(a, b[:, -width:])

    @pytest.mark.parametrize("correction", [False, True])
    def test_column_chunks_are_bitwise_equal_to_one_chunk(self, correction,
                                                          monkeypatch):
        h, det, diag = batch_inputs(columns=7, segments=3)
        shapes = spy_term_buffers(monkeypatch)
        whole = run_states(h, det, diag, correction)
        (n_terms, rows, cols), = shapes
        assert cols == 2 * 7
        # room for three realizations: chunks of 3, 3 and 1
        monkeypatch.setattr(dynamics, "TERM_BUFFER_BYTES",
                            3 * n_terms * (rows + 2) * 2 * 8 + 8)
        chunked = run_states(h, det, diag, correction)
        assert shapes[1] == (n_terms, rows, 2 * 3)
        for a, b in zip(chunked, whole):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("correction", [False, True])
    def test_series_longer_than_the_buffer_runs_in_a_ring(self, correction,
                                                          monkeypatch):
        h, det, diag = batch_inputs(columns=3, segments=3)
        interval = spectral_interval(h, det, diag, correction)
        shapes = spy_term_buffers(monkeypatch)
        whole = run_states(h, det, diag, correction, interval)
        (n_terms, rows, _), = shapes
        assert n_terms % 6  # the last sum over six held takes a partial ring
        for held in (4, 6):
            # a budget below one realization's series, with room for
            # held + 1 of its terms: the ring keeps an even count
            monkeypatch.setattr(dynamics, "TERM_BUFFER_BYTES",
                                (held + 1) * (rows + 2) * 2 * 8 + 8)
            ring = run_states(h, det, diag, correction, interval)
            assert shapes[-1] == (held, rows, 2)
            alone = run_states(h, det[1:2], diag[:, 1:2], correction,
                               interval)
            for a, b, c in zip(ring, whole, alone):
                assert np.abs(a - b).max() < 1e-14
                np.testing.assert_array_equal(c[:, 0], a[:, 1])
        # a ring shared by the whole batch
        monkeypatch.undo()
        monkeypatch.setattr(dynamics, "TERMS_HELD", 6)
        shapes = spy_term_buffers(monkeypatch)
        ring = run_states(h, det, diag, correction, interval)
        assert shapes == [(6, rows, 2 * 3)]
        for a, b in zip(ring, whole):
            assert np.abs(a - b).max() < 1e-14

    @pytest.mark.parametrize("n_terms", [1, 3, 40, 149, 10_000])
    @pytest.mark.parametrize("rows", [8, 54, 5823, 70_000])
    def test_term_buffer_stays_within_its_budget(self, n_terms, rows):
        # 5823 rows leave room for an odd count (45) of terms
        term = (rows + 2) * 2 * 8  # one padded term of one realization
        budget = dynamics.TERM_BUFFER_BYTES
        for n_real in (1, 7, 1100):
            held, width = dynamics._buffer_shape(n_terms, rows, n_real)
            assert 1 <= width <= n_real
            assert held * width * term <= max(budget, 4 * term)
            assert held <= min(n_terms, dynamics.TERMS_HELD)
            if held < n_terms:
                assert held >= 4 and held % 2 == 0
            if min(n_terms, dynamics.TERMS_HELD) * term <= budget:
                assert held == min(n_terms, dynamics.TERMS_HELD)
                assert width == min(n_real, budget // (held * term))

    def test_light_cone_depth_is_the_smallest_within_tolerance(self):
        # c = 0.2 mm^-1 over T = 20 mm: 2 c T = 8, as on the default chip
        c, length = Fraction(1, 5), Fraction(20)
        depth = dynamics._light_cone_depth(0.2, 20.0, 100)
        tol = Fraction(dynamics.LIGHT_CONE_TOL)
        assert 0 < depth < 100
        assert c * length * b_tail_exact(2 * c * length, depth) <= tol
        assert c * length * b_tail_exact(2 * c * length, depth - 1) > tol

    def test_short_chain_keeps_every_row(self):
        assert dynamics._light_cone_depth(0.2, 20.0, 20) == 20
        h = attach_sink(build_fmo_hamiltonian(FmoSpec()), 20)
        det = generate(NoiseConfig(amplitude=0.5, seed=3)).sequences[None]
        *_, last = propagate(h, det, 1.0)
        assert last[-1, 0] != 0.0

    def test_rows_past_the_light_cone_are_zero_and_the_cut_is_exact(self):
        h = attach_sink(attach_vibrational_mode(build_fmo_hamiltonian()), 100)
        hd = apply_static_disorder(h, 10.0, [4, 1], sites="all")
        det = generate(NoiseConfig(kind="colored", amplitude=1.0,
                                   segments=20, total_length=20.0, seed=4))
        ph = PiecewiseHamiltonian(hd, det, 1.0, 20.0, coupling_correction=True)
        rows = 8 + dynamics._light_cone_depth(0.2, 20.0, 100)
        assert rows < h.dim
        got = [s[:, 0] for s in propagate(
            h, det.sequences[None], 1.0,
            diagonals=hd.matrix.diagonal().real[:, None],
            coupling_correction=True)]
        psi = np.zeros(h.dim, complex)
        psi[h.source_index] = 1.0
        for k, state in enumerate(got):
            assert not state[rows:].any()
            assert np.abs(state - psi).max() < 1e-12
            if k < ph.n_segments:
                psi = segment_propagator(ph.segment_matrix(k), 1.0) @ psi
        assert got[-1][rows - 1] != 0.0

    def test_interval_encloses_every_segment_spectrum(self):
        h, det, diag = batch_inputs()
        lo, hi = spectral_interval(h, det, diag, coupling_correction=True)
        for c in range(det.shape[0]):
            hd = Hamiltonian(h.matrix - np.diag(h.matrix.diagonal())
                             + np.diag(diag[:, c]), h.roles)
            ph = PiecewiseHamiltonian(
                hd, NoiseRealization(det[c], NoiseConfig(segments=6)),
                total_length=6.0, coupling_correction=True)
            for k in range(ph.n_segments):
                w = np.linalg.eigvalsh(ph.segment_matrix(k))
                assert lo <= w[0] and w[-1] <= hi

    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(NOISE_KINDS),
           amplitude=st.floats(0.0, 80.0),
           disorder=st.floats(0.0, 100.0),
           vibration=st.booleans(), correction=st.booleans(),
           segments=st.integers(1, 10), steps=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_matches_segment_propagator_chain(self, seed, kind, amplitude,
                                              disorder, vibration,
                                              correction, segments, steps):
        h = build_fmo_hamiltonian(FmoSpec())
        if vibration:
            h = attach_vibrational_mode(h)
        h = attach_sink(h, 20)
        hd = apply_static_disorder(h, disorder, [seed, 1], sites="all")
        det = generate(NoiseConfig(kind=kind, amplitude=amplitude,
                                   segments=segments,
                                   total_length=float(segments), seed=seed))
        ph = PiecewiseHamiltonian(hd, det, 1.0, float(segments), correction)
        psi = np.zeros(h.dim, complex)
        psi[h.source_index] = 1.0
        expected = [psi]
        for k in range(segments):
            u = segment_propagator(ph.segment_matrix(k), 1.0 / steps)
            for _ in range(steps):
                psi = u @ psi
                expected.append(psi)
        got = [s[:, 0] for s in propagate(
            h, det.sequences[None], 1.0, steps,
            diagonals=hd.matrix.diagonal().real[:, None],
            coupling_correction=correction)]
        assert np.abs(np.array(got) - np.array(expected)).max() < 1e-12

    def test_zero_hamiltonian_leaves_batch_exactly_constant(self):
        h = Hamiltonian(np.zeros((7, 7)), tuple(f"fmo_site_{i}" for i in range(1, 8)))
        states = [s.copy() for s in propagate(h, np.zeros((3, 7, 4)), 1.0, 3)]
        assert len(states) == 13
        for psi in states:
            np.testing.assert_array_equal(psi, states[0])

    def test_too_narrow_interval_diverges_and_raises(self):
        h, det, diag = batch_inputs()
        with pytest.raises(PhysicsError, match="norm drift"):
            run_states(h, det, diag, False, interval=(0.0, 0.1))

    def test_nan_detuning_rejected(self):
        det = NoiseRealization(np.full((7, 20), np.nan), NoiseConfig())
        h = attach_sink(build_fmo_hamiltonian(FmoSpec()), 10)
        with pytest.raises(PhysicsError, match="finite"):
            evolve(PiecewiseHamiltonian(h, det), fine_step=1.0)

    def test_non_finite_interval_rejected(self):
        h, det, diag = batch_inputs()
        with pytest.raises(PhysicsError, match="interval"):
            run_states(h, det, diag, False, interval=(0.0, np.inf))

    def test_unstructured_hamiltonian_rejected(self):
        h = attach_sink(build_fmo_hamiltonian(FmoSpec()), 10)
        m = h.matrix.copy()
        m[0, 9] = m[9, 0] = 0.1   # a sink waveguide coupled to site 1
        bad = Hamiltonian(m, h.roles)
        with pytest.raises(PhysicsError, match="sink chain"):
            list(propagate(bad, np.zeros((1, 7, 2)), 1.0))
        m = h.matrix.copy()
        m[0, 1], m[1, 0] = 0.1j, -0.1j
        with pytest.raises(PhysicsError, match="real"):
            list(propagate(Hamiltonian(m, h.roles), np.zeros((1, 7, 2)), 1.0))

    def test_bessel_coefficients_match_scipy(self):
        from scipy.special import jv
        for x in (1e-6, 0.3, 3.5, 12.5, 60.0, 150.0):
            n = int(1.5 * x) + 40
            np.testing.assert_allclose(dynamics._bessel_j(x, n),
                                       jv(np.arange(n), x), rtol=0, atol=1e-14)
