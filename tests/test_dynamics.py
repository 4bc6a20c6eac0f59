"""Tests for piecewise-constant evolution and the segment propagator."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmosim import analysis, dynamics, experiments
from fmosim.dynamics import (
    EvolutionTrace,
    segment_propagator,
    site_probabilities,
    traces,
    write_trace_csv,
)
from fmosim.errors import PhysicsError
from fmosim.experiments import SweepConfig
from fmosim.model import (FmoSpec, Hamiltonian, apply_static_disorder,
                          attach_sink, attach_vibrational_mode,
                          build_fmo_hamiltonian, static_disorder_shifts)
from fmosim.noise import NOISE_KINDS, NoiseConfig, generate, generate_batch


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


def default_chip(amplitude=0.5, seed=0, segments=20, sink=100,
                 kind="uniform_white", correction=False):
    """Keyword arguments of :func:`traces` for one realization on the
    default 20 mm chip."""
    h = attach_sink(build_fmo_hamiltonian(FmoSpec()), sink)
    if amplitude == 0:
        det = np.zeros((7, segments))
    else:
        det = generate(NoiseConfig(kind=kind, amplitude=amplitude,
                                   segments=segments, total_length=20.0,
                                   seed=seed)).sequences
    return dict(h=h, detunings=det[None], segment_length=20.0 / segments,
                couplings=corrected_couplings(h, det[None], correction))


def with_diagonal(h, diagonal):
    """``h`` with its (dim,) on-site energies replaced by ``diagonal``."""
    n0 = len(h.block)
    return replace(h, block=h.block - np.diag(h.block.diagonal())
                   + np.diag(diagonal[:n0]), sink_energies=diagonal[n0:])


def corrected_pair(h, det_k, a):
    """The coupling between network sites a and a + 1 under the coupling
    correction: sign(c0) sqrt((d/2)^2 + c0^2), where c0 is the base
    coupling and d the pair's mean detuning ``det_k[a]``, ``det_k[a + 1]``."""
    c0 = h.matrix[h.fmo_indices[a], h.fmo_indices[a + 1]]
    d = 0.5 * (det_k[a] + det_k[a + 1])
    return math.copysign(math.hypot(0.5 * d, c0), c0)


def segment_matrix(h, det_k, correction=False):
    """The dense Hamiltonian of one segment, the reference for the kernel.

    ``det_k`` is the segment's detuning of each network site, added to the
    network diagonals.  With ``correction`` every nonzero nearest-neighbour
    network coupling becomes its :func:`corrected_pair`.  Built entry by
    entry from the dense matrix, with nothing taken from the kernel.
    """
    m = np.array(h.matrix)
    idx = h.fmo_indices
    m[idx, idx] += det_k
    if correction:
        for a in range(len(idx) - 1):
            i, j = idx[a], idx[a + 1]
            if h.matrix[i, j] != 0.0:
                m[i, j] = m[j, i] = corrected_pair(h, det_k, a)
    return m


def corrected_couplings(h, det, correction=True):
    """The ``couplings`` of :func:`traces` that set every (R, sites,
    segments) ``det`` column's network couplings to :func:`segment_matrix`'s
    with ``correction``; none without it."""
    idx = h.fmo_indices
    return {(idx[a], idx[a + 1]): np.array(
                [[corrected_pair(h, det[r, :, k], a)
                  for k in range(det.shape[2])] for r in range(len(det))])
            for a in range(len(idx) - 1)
            if correction and h.matrix[idx[a], idx[a + 1]] != 0.0}


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
        assert len(dynamics._chebyshev_weights(
            97.0, dynamics.STEP_CUT_FLOOR)) * 50 < dynamics.MAX_SERIES_TERMS

    @pytest.mark.parametrize("rho", [7000.0, 1e300, np.inf, np.nan])
    def test_series_over_budget_rejected(self, rho):
        with pytest.raises(PhysicsError, match="Chebyshev series"):
            dynamics._chebyshev_weights(rho, dynamics.STEP_CUT_FLOOR)

    def test_trace_over_budget_rejected(self):
        with pytest.raises(PhysicsError, match="samples"):
            traces(**default_chip(0.0),
                   steps_per_segment=dynamics.MAX_TRACE_SAMPLES // 20)


class TestEvolve:
    """One realization's trace (``traces(h, det[None], ...)[0]``): its
    physics and the checks of its arguments.  The class keeps the name of
    the readout that once recorded one trace, so that its test ids stay
    stable."""

    def test_initial_state_is_source_basis_vector(self):
        tr = traces(**default_chip(0.0), steps_per_segment=1)[0]
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
        [tr] = traces(h, np.zeros((1, 7, 4)), 1.0, 2)
        for psi in tr.amplitudes:
            np.testing.assert_array_equal(psi, tr.amplitudes[0])

    def test_deterministic_trace(self):
        a = traces(**default_chip(0.3, seed=5), steps_per_segment=2)[0]
        b = traces(**default_chip(0.3, seed=5), steps_per_segment=2)[0]
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    def test_norm_conservation(self):
        for kind in ("uniform_white", "colored", "cauchy"):
            tr = traces(**default_chip(0.8, seed=3, kind=kind),
                        steps_per_segment=4)[0]
            norms = np.linalg.norm(tr.amplitudes, axis=1)
            assert np.abs(norms - 1.0).max() < 1e-9

    def test_grid_refinement_identity(self):
        ph = default_chip(0.5, seed=1)
        coarse = traces(**ph, steps_per_segment=2)[0]
        fine = traces(**ph, steps_per_segment=4)[0]
        np.testing.assert_allclose(coarse.amplitudes, fine.amplitudes[::2],
                                   atol=1e-12)

    def test_global_diagonal_shift_invariance(self):
        ph = default_chip(0.5, seed=2)
        tr = traces(**ph, steps_per_segment=1)[0]
        h = ph["h"]
        shifted = with_diagonal(h, h.diagonal + 3.7)
        tr2 = traces(**{**ph, "h": shifted}, steps_per_segment=1)[0]
        assert np.abs(np.abs(tr.amplitudes) ** 2
                      - np.abs(tr2.amplitudes) ** 2).max() < 1e-10

    def test_time_reversal(self):
        ph = default_chip(0.5, seed=4)
        tr = traces(**ph, steps_per_segment=1)[0]
        psi = tr.amplitudes[-1].copy()
        for k in reversed(range(ph["detunings"].shape[2])):
            u = segment_propagator(
                segment_matrix(ph["h"], ph["detunings"][0, :, k]),
                ph["segment_length"])
            psi = u.conj().T @ psi
        np.testing.assert_allclose(psi, tr.amplitudes[0], atol=1e-9)

    def test_zeno_freezing_at_strong_noise(self):
        h = attach_sink(build_fmo_hamiltonian(FmoSpec()), 100)
        src = h.source_index
        pops = {}
        for amp in (0.1, 80.0):
            tr = traces(**default_chip(amp, seed=6), steps_per_segment=1)[0]
            j = int(round(2.0 / tr.fine_step))
            pops[amp] = abs(tr.amplitudes[j][src]) ** 2
        assert pops[80.0] > pops[0.1]

    @pytest.mark.parametrize("steps", [0, -1, 1.5, True, "2", np.float64(2.0),
                                       np.int64(2)], ids=repr)
    def test_steps_per_segment_is_an_integer_of_at_least_one(self, steps):
        chip = default_chip(0.5, seed=3, segments=4, sink=10)
        h, det = chip["h"], chip["detunings"]
        readouts = {
            "traces": lambda s: traces(**chip, steps_per_segment=s)[0]
            .amplitudes,
            "sink_fractions": lambda s: np.array(list(
                dynamics.sink_fractions(h, det, 5.0, s)))}
        for name, readout in readouts.items():
            if isinstance(steps, np.integer):
                # a numpy integer is read as the int it holds
                assert readout(steps).tobytes() == readout(2).tobytes(), name
            else:
                with pytest.raises(PhysicsError, match="steps_per_segment"):
                    readout(steps)

    @pytest.mark.parametrize("shape", [(7, 20), (1, 6, 20), (1, 1, 7, 20),
                                       ()])
    def test_detunings_of_another_shape_rejected(self, shape):
        h = default_chip(0.0)["h"]
        with pytest.raises(PhysicsError, match=r"\(realizations, network "
                           r"sites, segments\)"):
            traces(h, np.zeros(shape), 1.0)

    def test_one_step_a_segment_by_default(self):
        chip = default_chip(0.5, seed=3, segments=4, sink=10)
        [tr] = traces(**chip)
        assert len(tr.positions) == 4 + 1
        assert tr.fine_step == 5.0
        assert tr.amplitudes.tobytes() == \
            traces(**chip, steps_per_segment=1)[0].amplitudes.tobytes()

    def test_final_position_is_total_length(self):
        tr = traces(**default_chip(0.2, seed=9), steps_per_segment=2)[0]
        assert tr.positions[-1] == pytest.approx(20.0)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_norm_conserved_any_seed(self, seed):
        tr = traces(**default_chip(1.0, seed=seed, sink=20),
                    steps_per_segment=1)[0]
        assert abs(np.linalg.norm(tr.amplitudes[-1]) - 1.0) < 1e-9


class TestTraces:
    def test_batch_is_its_lone_columns_in_one_kernel_call(
            self, monkeypatch):
        chips = [default_chip(a, seed=s, sink=20, correction=True)
                 for a, s in ((0.0, 0), (0.5, 1), (2.0, 2))]
        h = chips[0]["h"]
        det = np.concatenate([c["detunings"] for c in chips])
        diagonals = h.matrix.diagonal()[:, None] + static_disorder_shifts(
            h.dim, 3.0, [(1, 0, r, 1) for r in range(len(chips))]).T
        couplings = {k: np.concatenate([c["couplings"][k] for c in chips])
                     for k in chips[0]["couplings"]}
        calls = []
        plan = dynamics._plan

        def spy(*args, **kwargs):
            calls.append(args[1].shape)
            return plan(*args, **kwargs)

        # every kernel call plans once
        monkeypatch.setattr(dynamics, "_plan", spy)
        batch = dynamics.traces(h, det, 1.0, 2, diagonals, couplings)
        assert calls == [det.shape]
        for r, tr in enumerate(batch):
            [alone] = traces(h, det[r:r + 1], 1.0, 2, diagonals[:, r:r + 1],
                             {k: c[r:r + 1] for k, c in couplings.items()})
            assert tr.amplitudes.tobytes() == alone.amplitudes.tobytes()
            assert (tr.fine_step, tr.fmo_indices, tr.sink_indices) == \
                (alone.fine_step, alone.fmo_indices, alone.sink_indices)

    def test_chip_without_a_sink_is_exact_and_batch_free(self,
                                                         monkeypatch):
        # the seven network rows alone, all of them head rows of 2B, two
        # steps a segment
        h = build_fmo_hamiltonian(FmoSpec())
        _, det, diag = batch_inputs()
        diag = diag[:h.dim]
        plan = dynamics._plan(h, det, 1.0, 2, diag, None)
        _, _, head, *_ = plan.segment
        assert not len(h.sink_indices) and len(head) == h.dim
        for budget, bound in budgets(dynamics.TRUNCATION_BUDGET, 1e-12):
            monkeypatch.setattr(dynamics, "TRUNCATION_BUDGET", budget)
            assert_exact_and_batch_free(h, det, 1.0, 2, diag, {}, bound)

    def test_efficiency_at_every_sample_is_its_sink_fraction(self):
        # at the default step a segment, a trace's efficiency is the sink
        # fraction of its column at every sample, bit for bit, on a
        # disordered, coupling-corrected batch
        cfg = SweepConfig(grid=(0.0, 0.5, 2.0), realizations=2, disorder=3.0,
                          coupling_correction=True, sink_length=20)
        base = experiments._base_hamiltonian(cfg)
        det, diagonals, couplings = experiments._study_columns(cfg, base)
        dz = cfg.observe_z / cfg.segments
        eta = np.array(list(dynamics.sink_fractions(
            base, det, dz, diagonals=diagonals, couplings=couplings)))
        batch = traces(base, det, dz, diagonals=diagonals, couplings=couplings)
        assert len(eta) == cfg.segments + 1 and couplings
        for c, tr in enumerate(batch):
            assert [analysis.transport_efficiency(tr, z)
                    for z in tr.positions] == eta[:, c].tolist()


class TestCouplingCorrection:
    @staticmethod
    def kernel_block(k, correction):
        """The kernel's network block of segment ``k`` and its detuning,
        with the couplings a study builds for :func:`traces`."""
        ph = default_chip(0.5, seed=1)
        cfg = SweepConfig(coupling_correction=correction)
        [det], _, couplings = experiments._columns(
            cfg, ph["h"], [0.5], [1], 0.0, [(0, 0)])
        np.testing.assert_array_equal(det, ph["detunings"][0])
        block = dynamics._head_block(ph["h"], len(ph["h"].block) + 1)
        for (i, j), [c] in couplings.items():
            block[i, j] = block[j, i] = c[k]
        return block, det[:, k]

    def test_correction_changes_offdiagonals_only_slightly(self):
        b0, _ = self.kernel_block(0, False)
        b1, _ = self.kernel_block(0, True)
        assert not np.diagonal(b1).any()
        diff = np.abs(b1 - b0).max()
        assert 0 < diff < 0.05  # ~db^2/(8 c0) scale

    def test_correction_magnitude_matches_pair_formula(self):
        from fmosim.model import effective_coupling
        block, d = self.kernel_block(3, True)
        c0 = abs(build_fmo_hamiltonian(FmoSpec()).matrix[0, 1])
        expected = -effective_coupling(c0, (d[0] + d[1]) / 2)
        assert block[0, 1] == pytest.approx(expected, abs=1e-12)


class TestSiteProbabilities:
    def test_z0_source_probability_one(self):
        tr = traces(**default_chip(0.0), steps_per_segment=1)[0]
        p = site_probabilities(tr)
        assert p.shape == (len(tr.positions), 7)
        assert p[0, 5] == pytest.approx(1.0)
        assert p[0].sum() == pytest.approx(1.0)

    def test_renormalized_rows_sum_to_one(self):
        tr = traces(**default_chip(0.4, seed=2), steps_per_segment=2)[0]
        p = site_probabilities(tr)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_zero_subset_probability_rejected_with_position(self):
        # the whole weight sits in the sink at the second sample
        amps = np.zeros((3, 8), complex)
        amps[[0, 1, 2], [5, 7, 0]] = 1.0
        tr = EvolutionTrace(amps, 0.5, range(7), [7])
        with pytest.raises(PhysicsError, match="z=0.5 mm"):
            site_probabilities(tr)


class TestTraceExport:
    def test_csv_columns_and_stride(self, tmp_path):
        tr = traces(**default_chip(0.2, seed=1, sink=10), steps_per_segment=1)[0]
        path = tmp_path / "trace.csv"
        write_trace_csv(tr, path, stride=5)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "z_mm,site_index,re,im,probability"
        n_z = (len(tr.positions) + 4) // 5
        # the seven network rows and one sink row a sample
        assert len(lines) == 1 + n_z * (7 + 1)
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
    diag = np.stack([apply_static_disorder(h, 3.0, [seed, r])
                     .matrix.diagonal() for r in range(columns)], axis=1)
    return h, det, diag


def kernel_states(h, det, segment_length, steps=1, diagonals=None,
                  couplings=None):
    """The (dim, R) states of the batch ``det`` after each of ``steps``
    steps a segment, the initial state first, as :func:`traces` records
    them at one sample a step."""
    batch = dynamics.traces(h, det, segment_length, steps, diagonals,
                            couplings)
    return list(np.stack([tr.amplitudes for tr in batch], axis=2))


def dense_states(h, det, segment_length, steps, diagonals, couplings):
    """The (dim, R) states of :func:`kernel_states`, each column stepped by
    the exact propagator of its dense segment matrices, couplings
    overridden as :func:`traces` reads them."""
    psi = np.zeros((h.dim, len(det)), complex)
    psi[h.source_index] = 1.0
    states = [psi]
    for k in range(det.shape[2]):
        u = []
        for c in range(len(det)):
            hd = with_diagonal(h, diagonals[:, c])
            m = segment_matrix(hd, det[c, :, k])
            for (i, j), v in couplings.items():
                m[i, j] = m[j, i] = v[c, k]
            u.append(segment_propagator(m, segment_length / steps))
        for _ in range(steps):
            psi = np.stack([u[c] @ psi[:, c] for c in range(len(det))],
                           axis=1)
            states.append(psi)
    return states


def assert_exact_and_batch_free(h, det, segment_length, steps, diagonals,
                                couplings, bound):
    """The kernel's states of a batch lie within ``bound`` of
    :func:`dense_states`, and each column's are its lone run's, bit for
    bit."""
    batch = kernel_states(h, det, segment_length, steps, diagonals,
                          couplings)
    expected = dense_states(h, det, segment_length, steps, diagonals,
                            couplings)
    assert len(batch) == det.shape[2] * steps + 1
    assert np.abs(np.array(batch) - np.array(expected)).max() < bound
    for c in range(len(det)):
        alone = kernel_states(h, det[c:c + 1], segment_length, steps,
                              diagonals[:, c:c + 1],
                              {k: v[c:c + 1] for k, v in couplings.items()})
        for a, b in zip(alone, batch):
            assert a[:, 0].tobytes() == b[:, c].tobytes()


def run_states(h, det, diag, correction, steps=2):
    return kernel_states(h, det, 1.0, steps, diag,
                         corrected_couplings(h, det, correction))


def zeroed_mode(h, det):
    """``couplings`` that set the vibration mode's to 0 in every column."""
    mode = h.roles.index("vibration")
    return {(s, mode): np.zeros(det.shape[::2]) for s in h.fmo_indices}


def states_plan(h, det, diag, correction, steps=2):
    """The plan of the kernel call that :func:`run_states` makes."""
    return dynamics._plan(h, det, 1.0, steps, diag,
                          corrected_couplings(h, det, correction))


def buffer_shape(plan):
    """(terms held, rows, columns) of a plan's term buffer, rows being its
    padded rows less two, so that one term of one realization takes
    (rows + 2) * 2 * 8 bytes."""
    held, padded, cols = plan.buffer.shape
    return held, padded - 2, cols


def study_plan(cfg):
    """The plan of a sweep's one kernel call on the chip sweep_dephasing
    builds."""
    base = experiments._base_hamiltonian(cfg)
    det, diag, couplings = experiments._study_columns(cfg, base)
    return dynamics._plan(base, det, cfg.observe_z / cfg.segments, 1, diag,
                          couplings)


def budgets(bound, floor_bound):
    """(TRUNCATION_BUDGET, bound) pairs for a test to run its body under:
    the default budget with ``bound``, then a budget of 0, which clamps
    every step's cut to STEP_CUT_FLOOR (1e-16, the cut the kernel took
    before the budget), with ``floor_bound``.  The test sets each through
    its monkeypatch fixture, which restores the budget however it ends."""
    return [(dynamics.TRUNCATION_BUDGET, bound), (0.0, floor_bound)]


def fraction_bound(error, budget):
    """How far a sink fraction may move from an exact unit state's when
    the state's depth-0 rows (network and vibration mode) move by at most
    ``error`` in norm and its norm by at most ``budget``.  With a = ||P_0
    psi||^2 and b = ||psi||^2, a moves by at most error (2 + error), b by at
    most budget (2 + budget) and is at least (1 - budget)^2, and the
    fraction 1 - a / b moves by at most their sum over that least b."""
    return ((error * (2.0 + error) + budget * (2.0 + budget))
            / (1.0 - budget) ** 2)


def assert_within_gershgorin_union(lo, hi, h, det, diag, correction,
                                   couplings=None):
    """(lo, hi) lies within the union of the Gershgorin discs of every
    whole segment matrix of every column, with ``couplings`` as
    :func:`traces` reads them, up to the rounding of the disc radii,
    which are summed in another order here."""
    g_lo, g_hi = math.inf, -math.inf
    for c in range(det.shape[0]):
        hd = with_diagonal(h, diag[:, c])
        for k in range(det.shape[2]):
            m = segment_matrix(hd, det[c, :, k], correction)
            for (i, j), v in (couplings or {}).items():
                m[i, j] = m[j, i] = v[c, k]
            d = m.diagonal()
            r = np.abs(m - np.diag(d)).sum(axis=1)
            g_lo, g_hi = min(g_lo, (d - r).min()), max(g_hi, (d + r).max())
    slack = 1e-13 * max(1.0, abs(g_lo), abs(g_hi))
    assert g_lo - slack <= lo <= hi <= g_hi + slack


def long_chain_inputs(columns):
    """A batch on a chain of 100 sink waveguides over six 1 mm segments."""
    return batch_inputs(columns=columns, sink=100, segments=6)


# (correction, vibration, sink, segments)
COLUMN_CASES = [(c, v, sink, segments)
                for sink, segments in ((20, 6), (100, 20))
                for c in (False, True) for v in (False, True)]


class TestPropagate:
    """The kernel: its plans (``dynamics._plan``), its run (``_run``) and
    the readouts on it (``traces``, ``sink_fractions`` and
    ``final_sink_fractions``).  The class keeps the name of the readout
    that once held the kernel, so that its test ids stay stable."""

    @pytest.mark.parametrize(
        "correction,vibration,sink,segments", COLUMN_CASES,
        ids=[f"{c}-{v}" + ("-long_chain" if sink == 100 else "")
             for c, v, sink, _ in COLUMN_CASES])
    def test_column_alone_is_bitwise_equal_to_batch_column(
            self, correction, vibration, sink, segments):
        h, det, diag = batch_inputs(vibration, sink=sink, segments=segments)
        batch = run_states(h, det, diag, correction)
        for c in range(det.shape[0]):
            alone = run_states(h, det[c:c + 1], diag[:, c:c + 1], correction)
            for a, b in zip(alone, batch):
                np.testing.assert_array_equal(a[:, 0], b[:, c])

    @pytest.mark.parametrize("correction", [False, True])
    def test_batch_width_does_not_change_a_column(self, correction):
        # widths on either side of the einsum loops' vector tails
        h, det, diag = long_chain_inputs(33)
        full = run_states(h, det, diag, correction)
        for width in (1, 2, 3, 5, 8, 17):
            part = run_states(h, det[-width:], diag[:, -width:], correction)
            for a, b in zip(part, full):
                np.testing.assert_array_equal(a, b[:, -width:])

    @pytest.mark.parametrize("correction", [False, True])
    def test_column_chunks_are_bitwise_equal_to_one_chunk(self, correction,
                                                          monkeypatch):
        h, det, diag = long_chain_inputs(7)
        whole = run_states(h, det, diag, correction)
        n_terms, rows, cols = buffer_shape(states_plan(h, det, diag,
                                                       correction))
        assert cols == 2 * 7
        # room for three realizations: chunks of 3, 3 and 1
        monkeypatch.setattr(dynamics, "TERM_BUFFER_BYTES",
                            3 * n_terms * (rows + 2) * 2 * 8 + 8)
        chunked = run_states(h, det, diag, correction)
        plan = states_plan(h, det, diag, correction)
        assert buffer_shape(plan) == (n_terms, rows, 2 * 3)
        assert [b - a for a, b in plan.chunks] == [3, 3, 1]
        for a, b in zip(chunked, whole):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("correction", [False, True])
    def test_series_longer_than_the_buffer_runs_in_a_ring(self, correction,
                                                          monkeypatch):
        h, det, diag = long_chain_inputs(3)
        whole = run_states(h, det, diag, correction)
        n_terms, rows, _ = buffer_shape(states_plan(h, det, diag, correction))
        # the smallest ring from four up that the series runs past and
        # ends partway through, so that the last sum takes a partial ring
        size = next(k for k in range(4, n_terms) if n_terms % k)
        for held in (3, size):
            # a budget below one realization's series, with room for held
            # of its terms; three, the fewest a ring holds, is the
            # recurrence's two last terms and the one it writes
            monkeypatch.setattr(dynamics, "TERM_BUFFER_BYTES",
                                held * (rows + 2) * 2 * 8 + 8)
            ring = run_states(h, det, diag, correction)
            assert buffer_shape(states_plan(h, det, diag, correction)) == \
                (held, rows, 2)
            alone = run_states(h, det[1:2], diag[:, 1:2], correction)
            for a, b, c in zip(ring, whole, alone):
                assert np.abs(a - b).max() < 1e-14
                np.testing.assert_array_equal(c[:, 0], a[:, 1])
        # a ring shared by the whole batch
        monkeypatch.undo()
        monkeypatch.setattr(dynamics, "TERMS_HELD", size)
        ring = run_states(h, det, diag, correction)
        plan = states_plan(h, det, diag, correction)
        assert buffer_shape(plan) == (size, rows, 2 * 3)
        assert len(plan.chunks) == 1
        for a, b in zip(ring, whole):
            assert np.abs(a - b).max() < 1e-14

    @pytest.mark.parametrize("correction", [False, True])
    @pytest.mark.parametrize("pad", [3, 60])
    def test_trailing_zero_weights_leave_a_column_unchanged(
            self, pad, correction, monkeypatch):
        # zero weights past a column's own series, and the longer ring they
        # bring, add exact zeros to its sums: 3 more terms keep one sum, 60
        # more run past TERMS_HELD into a ring summed each time it fills
        h, det, diag = long_chain_inputs(1)
        own = run_states(h, det, diag, correction)
        n_own = len(states_plan(h, det, diag, correction).buffer)
        weights, lengths = dynamics._chebyshev_weights, set()

        def padded(rho, cut):
            w = weights(rho, cut)
            lengths.add(len(w))
            return np.pad(w, [(0, pad)] + [(0, 0)] * (w.ndim - 1))

        monkeypatch.setattr(dynamics, "_chebyshev_weights", padded)
        longer = run_states(h, det, diag, correction)
        n_longer = len(states_plan(h, det, diag, correction).buffer)
        # a series of K terms in A holds ceil(K / 2) terms in B
        [k] = lengths
        assert n_own == (k + 1) // 2
        assert n_longer == min((k + pad + 1) // 2, dynamics.TERMS_HELD)
        for a, b in zip(longer, own):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n_terms", [1, 3, 40, 149, 10_000])
    @pytest.mark.parametrize("rows", [8, 54, 5823, 70_000])
    def test_term_buffer_stays_within_its_budget(self, n_terms, rows,
                                                 monkeypatch):
        # 70,000 rows leave room for three terms, the fewest a ring holds;
        # plans of a chip of ``rows`` rows, with series of n_terms terms in
        # A, ceil(n_terms / 2) in B
        monkeypatch.setattr(dynamics, "_chebyshev_weights",
                            lambda rho, cut: np.broadcast_to(
                                1.0, (n_terms, len(rho))))
        h = attach_sink(build_fmo_hamiltonian(FmoSpec()), rows - 7,
                        coupling=1e5)
        n_b = (n_terms + 1) // 2
        held_max = min(n_b, dynamics.TERMS_HELD)
        term = (rows + 4) * 2 * 8  # one padded term of one realization
        budget = dynamics.TERM_BUFFER_BYTES
        # the widest batch is 1,100 realizations, or one more than the
        # budget holds single terms of, whichever is fewer: wider than any
        # chunk the budget allows, without a chip-sized batch of wide rows
        for n_real in (1, 7, min(1100, budget // term + 1)):
            plan = dynamics._plan(h, np.zeros((n_real, 7, 1)), 1.0, 1, None,
                                  None)
            held, padded, cols = plan.buffer.shape
            width = cols // 2
            assert padded == rows + 4 and len(plan.weights) == n_b
            assert plan.chunks == [(a, min(a + width, n_real))
                                   for a in range(0, n_real, width)]
            assert 1 <= width <= n_real
            assert held * width * term <= max(budget, 3 * term)
            assert held <= held_max
            if held < held_max:
                assert held >= 3
            if held_max * term <= budget:
                assert held == held_max
                assert width == min(n_real, budget // (held * term))

    def test_term_slots_and_the_odd_sum_share_one_buffer(self, monkeypatch):
        # one padded buffer per plan: the held term slots, then the odd
        # part's sum in its last slot, every view of it numpy's
        h, det, diag = long_chain_inputs(3)
        n_terms, rows, _ = buffer_shape(states_plan(h, det, diag, False))
        # room for two realizations: chunks of 2 and 1
        monkeypatch.setattr(dynamics, "TERM_BUFFER_BYTES",
                            2 * n_terms * (rows + 2) * 2 * 8 + 8)
        plan = states_plan(h, det, diag, False)
        whole = plan.buffer.base
        held = len(plan.buffer)
        assert held == n_terms == min(len(plan.weights), dynamics.TERMS_HELD)
        assert whole.shape == (held + 1, rows + 2, 2 * 2)
        assert plan.buffer.ctypes.data == whole.ctypes.data
        # after a full run, the ghost rows of every slot are still zero,
        # and the run has written every slot's rows
        for _ in dynamics._run(plan):
            pass
        assert not whole[:, :2].any() and not whole[:, -2:].any()
        assert whole[:, 2:-2].any(axis=(1, 2)).all()
        # slot k of padded row p holds 1000 k + p: band j of chain row i
        # reads padded row i + j, and the odd sum's band j padded row
        # i + 1 + j
        whole[...] = (1000 * np.arange(held + 1)[:, None, None]
                      + np.arange(rows + 2)[:, None])
        for *_, slots, _, _, _ in plan.ops:
            terms, term, *_, chain_in, _, (pre, _, pre_chain, *_) = slots
            assert len(term) == len(chain_in) == held
            for view in [terms, pre, *term]:
                assert view.base is whole
            assert (pre == 1000 * held + np.arange(2, rows)[:, None]).all()
            for k, bands in enumerate(chain_in):
                assert (terms[k] == 1000 * k
                        + np.arange(2, rows)[:, None]).all()
                first = rows - 2 - bands.shape[1]   # the first chain row
                i = first + np.arange(bands.shape[1])
                assert (bands == 1000 * k + i[:, None]
                        + np.arange(5)[:, None, None]).all()
            first = rows - 2 - pre_chain.shape[1]
            i = first + np.arange(pre_chain.shape[1])
            assert len(pre_chain) == 3
            assert (pre_chain == 1000 * held + i[:, None] + 1
                    + np.arange(3)[:, None, None]).all()

    def test_buffer_shape_at_the_benchmark_sweeps(self):
        # 25 rows (the sweeps' chip) and 44 realizations: the clean
        # sweep's 17-term series is 9 terms in B, the colored CLI sweep's
        # 34 to 36 are 17 or 18, each held whole
        for shape, held in (("sweep_clean", 9), ("sweep_disorder_cli", 18)):
            cfg = SweepConfig(realizations=4, **self.GATED[shape])
            plan = study_plan(cfg)
            assert plan.buffer.shape == (held, 25 + 4, 2 * 44)
            assert len(plan.chunks) == 1

    def test_plan_work_counts_of_the_clean_sweep(self):
        # 9 B-terms a step (17 in A) and 180 a column, each step with one
        # application of A, on the sweep's 25 rows
        cfg = SweepConfig(realizations=4, **self.GATED["sweep_clean"])
        plan = study_plan(cfg)
        assert len(plan.lengths) == 44 and plan.steps == 1
        assert (plan.lengths == 9).all()
        assert (plan.steps * len(plan.net) * plan.lengths == 180).all()
        assert len(plan.state) == 25
        # rows times terms over the call
        assert (len(plan.state) * plan.steps * len(plan.net) * plan.lengths
                == 4500).all()

    def test_plan_of_figS8_at_the_strongest_disorder(self):
        # figS8's gamma = 100 sweep at seed 0 (fmosim reproduce figS8):
        # 1,100 columns on 25 rows, a 138-term series, 69 terms in B,
        # through a ring of 24 terms, in column chunks of 376, 376 and 348
        cfg = SweepConfig(realizations=100, disorder=100.0, sink_length=80,
                          grid=experiments.FIGS8_GRIDS[100.0])
        plan = study_plan(cfg)
        assert len(plan.lengths) == 1100 and len(plan.state) == 25
        assert len(plan.weights) == plan.lengths.max() == 69
        assert plan.buffer.shape == (24, 25 + 4, 2 * 376)
        assert [b - a for a, b in plan.chunks] == [376, 376, 348]

    def test_colored_series_in_a_ring_matches_holding_every_term(
            self, monkeypatch):
        # the colored CLI sweep's shape: colored noise up to 12 mm^-1,
        # disorder 10 and 80 sink waveguides take more than a ring of 8
        # B-terms a step, under either budget
        h = attach_sink(build_fmo_hamiltonian(FmoSpec()), 80)
        amplitudes = np.repeat(np.geomspace(0.3, 12.0, 4), 2)
        seeds = list(range(len(amplitudes)))
        det = generate_batch(NoiseConfig(kind="colored", segments=20,
                                         total_length=20.0),
                             amplitudes, seeds)
        diag = (h.matrix.diagonal()[:, None]
                + static_disorder_shifts(h.dim, 10.0, seeds).T)
        held = 8
        # both runs share the series, and differ only in how its sums group
        for budget, bound in budgets(1e-14, 1e-14):
            monkeypatch.setattr(dynamics, "TRUNCATION_BUDGET", budget)
            monkeypatch.setattr(dynamics, "TERMS_HELD", held)
            ring = run_states(h, det, diag, False, steps=1)
            n_ring = len(states_plan(h, det, diag, False, steps=1).buffer)
            monkeypatch.setattr(dynamics, "TERMS_HELD",
                                dynamics.MAX_SERIES_TERMS)
            every = run_states(h, det, diag, False, steps=1)
            n_terms = len(states_plan(h, det, diag, False, steps=1).buffer)
            monkeypatch.undo()
            assert n_ring == held < n_terms
            for a, b in zip(ring, every):
                assert np.abs(a - b).max() < bound

    @pytest.mark.parametrize("disorder", [0.0, 100.0])
    def test_sink_fractions_match_segment_propagator_chain(self, disorder,
                                                           monkeypatch):
        # a dense chip of 100 sink waveguides, all of which the kernel
        # evolves: every yield within the truncation's share of the dense
        # chip's sink fraction
        h = attach_sink(build_fmo_hamiltonian(FmoSpec()), 100)
        amplitudes = [0.0, 0.5, 3.0]
        det = generate_batch(NoiseConfig(segments=20, total_length=20.0),
                             amplitudes, [3, 4, 5])
        diag = np.stack([apply_static_disorder(h, disorder, [5, r])
                         .matrix.diagonal() for r in range(len(det))], axis=1)
        expected = []
        for r in range(len(det)):
            hd = with_diagonal(h, diag[:, r])
            psi = np.zeros(h.dim, complex)
            psi[h.source_index] = 1.0
            column = [0.0]
            for k in range(det.shape[2]):
                psi = segment_propagator(segment_matrix(hd, det[r, :, k]),
                                         1.0) @ psi
                p = np.abs(psi) ** 2
                column.append(p[h.sink_indices].sum() / p.sum())
            expected.append(column)
        expected = np.array(expected).T
        b = dynamics.TRUNCATION_BUDGET
        for budget, bound in budgets(fraction_bound(b, b), 1e-12):
            monkeypatch.setattr(dynamics, "TRUNCATION_BUDGET", budget)
            got = np.array(list(dynamics.sink_fractions(
                h, det, 1.0, diagonals=diag)))
            assert got.shape == expected.shape
            assert np.abs(got - expected).max() <= bound
        assert (expected[-1] > 0.0).all()

    @pytest.mark.parametrize("correction", [False, True])
    def test_sink_fractions_of_a_column_alone_are_its_batch_column(
            self, correction):
        h, det, diag = long_chain_inputs(6)
        couplings = corrected_couplings(h, det, correction)

        def fractions(cols):
            return list(dynamics.sink_fractions(
                h, det[cols], 1.0, 2, diagonals=diag[:, cols],
                couplings={k: c[cols] for k, c in couplings.items()}))

        batch = fractions(slice(None))
        assert len(batch) == 13
        for c in range(len(det)):
            for a, b in zip(fractions(slice(c, c + 1)), batch):
                assert a.tobytes() == b[c:c + 1].tobytes()

    @pytest.mark.parametrize("correction", [False, True])
    def test_final_sink_fractions_are_the_last_yield(self, correction):
        h, det, diag = long_chain_inputs(6)
        couplings = corrected_couplings(h, det, correction)
        for cols in (slice(None), slice(2, 3)):
            args = (h, det[cols], 1.0)
            kw = dict(diagonals=diag[:, cols],
                      couplings={k: c[cols] for k, c in couplings.items()})
            *_, last = dynamics.sink_fractions(*args, **kw)
            assert dynamics.final_sink_fractions(*args, **kw).tobytes() \
                == last.tobytes()

    def test_sink_fractions_need_a_sink(self):
        h = build_fmo_hamiltonian(FmoSpec())
        with pytest.raises(PhysicsError, match="no sink"):
            next(dynamics.sink_fractions(h, np.zeros((1, 7, 2)), 1.0))
        with pytest.raises(PhysicsError, match="no sink"):
            dynamics.final_sink_fractions(h, np.zeros((1, 7, 2)), 1.0)

    def test_interval_holds_no_stack_the_size_of_its_inputs(self):
        # figS15's largest sweep: 1,100 columns over 80 segments, no
        # coupling override
        import tracemalloc
        cfg = SweepConfig(segments=80)
        base = experiments._base_hamiltonian(cfg)
        det, diag, couplings = experiments._study_columns(cfg, base)
        assert det.shape == (1100, 7, 80) and not couplings
        tracemalloc.start()
        try:
            dynamics._interval(base, det, diag, couplings)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * (det.nbytes + diag.nbytes)

    def test_short_chain_keeps_every_row(self):
        h = attach_sink(build_fmo_hamiltonian(FmoSpec()), 20)
        det = generate(NoiseConfig(kind="colored", amplitude=0.5,
                                   seed=3)).sequences[None]
        *_, last = kernel_states(h, det, 1.0)
        assert last[-1, 0] != 0.0

    def test_yields_are_fresh_arrays(self, monkeypatch):
        # the steps overwrite one live state in place; each sample of a
        # trace keeps the state as it was when it was recorded
        h, det, diag = long_chain_inputs(3)
        seen, run = [], dynamics._run

        def spy(plan):
            for x in run(plan):
                seen.append(x.copy())
                yield x

        monkeypatch.setattr(dynamics, "_run", spy)
        states = kernel_states(h, det, 1.0, 2, diagonals=diag)
        assert len(states) == len(seen) == 13
        for psi, x in zip(states, seen):
            assert psi.view(float).tobytes() == x.tobytes()

    @given(seed=st.integers(0, 2 ** 32 - 1), n0=st.integers(1, 8),
           chain=st.tuples(st.sampled_from([1, 2, 7, 60]),
                           st.sampled_from([0.0, 0.2, -0.2, -3.0, 25.0])
                           | st.floats(-10.0, 10.0))
           | st.just((0, 0.0)),
           disordered=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_chip_spectrum_encloses_every_chip_and_window(
            self, seed, n0, chain, disordered):
        # any block, drain and chain energies, and a coupling of either
        # sign, 0 included; a chip without a chain has coupling 0
        length, coupling = chain
        rng = np.random.default_rng(seed)
        a = rng.normal(0.0, 2.0, (n0, n0))
        drain = int(rng.integers(1, n0 + 1))
        energies = np.full(length, a[drain - 1, drain - 1])
        if disordered:
            energies += rng.uniform(-3.0, 3.0, length)
        h = Hamiltonian(a + a.T, tuple(f"fmo_site_{i + 1}" for i in range(n0)),
                        source_site=1, drain_site=drain,
                        sink_energies=energies, sink_coupling=coupling)
        lo, hi = dynamics._chip_spectrum(h)
        for rows in range(n0, h.dim + 1):
            w = np.linalg.eigvalsh(h.matrix[:rows, :rows])
            assert lo <= w[0] and w[-1] <= hi

    def test_chip_spectrum_without_a_chain_is_the_blocks(self):
        for h in (build_fmo_hamiltonian(FmoSpec()),
                  attach_vibrational_mode(build_fmo_hamiltonian(FmoSpec()))):
            w = np.linalg.eigvalsh(h.block)
            lo, hi = dynamics._chip_spectrum(h)
            assert 0 <= w[0] - lo < 1e-14 and 0 <= hi - w[-1] < 1e-14

    @pytest.mark.parametrize("vibration", [False, True])
    def test_chip_spectrum_is_tight_on_the_default_chips(self, vibration):
        # 0.019 below and 0.0057 above the exact extremes on the plain
        # chip, 0.015 and 0.0074 with the mode: a wider bound would
        # lengthen the series of the widest columns
        h = build_fmo_hamiltonian(FmoSpec())
        if vibration:
            h = attach_vibrational_mode(h)
        h = attach_sink(h, 34)
        lo, hi = dynamics._chip_spectrum(h)
        w = np.linalg.eigvalsh(h.matrix)
        assert 0 < w[0] - lo < 0.02 and 0 < hi - w[-1] < 0.02

    def test_interval_encloses_every_segment_spectrum(self):
        # the corrected couplings, and those plus the vibration mode's
        # couplings set to 0, which empties the mode row's Gershgorin disc;
        # then a disordered base chip, whose chain is not uniform
        for vibration, disordered in ((False, False), (True, False),
                                      (False, True)):
            h, det, diag = batch_inputs(vibration)
            if disordered:
                h = apply_static_disorder(h, 3.0, [11, 99])
                assert np.ptp(h.sink_energies) > 0
            couplings = corrected_couplings(h, det)
            if vibration:
                couplings.update(zeroed_mode(h, det))
            lo, hi = dynamics._interval(h, det, diag, couplings)
            assert lo.shape == hi.shape == (det.shape[0],)
            for c in range(det.shape[0]):
                hd = with_diagonal(h, diag[:, c])
                for k in range(det.shape[2]):
                    m = segment_matrix(hd, det[c, :, k])
                    for (i, j), v in couplings.items():
                        m[i, j] = m[j, i] = v[c, k]
                    w = np.linalg.eigvalsh(m)
                    assert lo[c] <= w[0] and w[-1] <= hi[c]
                assert_within_gershgorin_union(
                    lo[c], hi[c], h, det[c:c + 1], diag[:, c:c + 1], False,
                    {key: v[c:c + 1] for key, v in couplings.items()})

    @pytest.mark.parametrize("correction", [False, True])
    def test_zeroed_mode_couplings_are_the_chip_without_the_mode(
            self, correction, monkeypatch):
        h, det, diag = batch_inputs(vibration=True)
        h7 = batch_inputs()[0]
        mode = h.roles.index("vibration")
        couplings = corrected_couplings(h, det, correction)
        couplings.update(zeroed_mode(h, det))
        assert np.ptp(diag[h.sink_indices], axis=0).all()   # disorder 3
        # two chips, two series, each within the budget of the same states
        for budget, bound in budgets(2 * dynamics.TRUNCATION_BUDGET, 1e-13):
            monkeypatch.setattr(dynamics, "TRUNCATION_BUDGET", budget)
            dark = kernel_states(h, det, 1.0, 2, diag, couplings)
            without = run_states(h7, det, np.delete(diag, mode, axis=0),
                                 correction)
            assert len(dark) == len(without)
            for a, b in zip(dark, without):
                assert not a[mode].any()
                assert np.abs(np.delete(a, mode, axis=0) - b).max() < bound

    # (couplings, with a value a float filling (R, segments) or a shape
    # filled with 0.1) that the kernel rejects on batch_inputs' chip, whose
    # non-sink rows are 0 .. 6
    BAD_COUPLINGS = {
        "same_row": {(2, 2): 0.1},
        "first_sink": {(2, 7): 0.1},
        "past_the_block": {(0, 30): 0.1},
        "negative_row": {(-1, 2): 0.1},
        "not_a_pair": {(0, 1, 2): 0.1},
        "float_rows": {(0.0, 1.0): 0.1},
        "named_twice": {(0, 1): 0.1, (1, 0): 0.1},
        "one_segment_short": {(0, 1): (5, 5)},
        "one_column": {(0, 1): (6,)},
        "nan": {(0, 1): np.nan},
        "inf": {(0, 1): -np.inf},
    }

    @pytest.mark.parametrize("case", list(BAD_COUPLINGS))
    def test_invalid_couplings_rejected(self, case):
        h, det, diag = batch_inputs()
        shape = det.shape[::2]
        couplings = {k: np.full(v if isinstance(v, tuple) else shape,
                                0.1 if isinstance(v, tuple) else v)
                     for k, v in self.BAD_COUPLINGS[case].items()}
        with pytest.raises(PhysicsError, match="coupling"):
            kernel_states(h, det, 1.0, diagonals=diag, couplings=couplings)
        # a valid override runs
        kernel_states(h, det, 1.0, diagonals=diag,
                      couplings={(0, 1): np.full(shape, 0.1)})

    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(NOISE_KINDS),
           amplitude=st.floats(0.0, 80.0),
           disorder=st.floats(0.0, 100.0),
           vibration=st.booleans(), correction=st.booleans(),
           columns=st.integers(1, 3), segments=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_interval_encloses_every_segment_spectrum_of_any_batch(
            self, seed, kind, amplitude, disorder, vibration, correction,
            columns, segments):
        h = build_fmo_hamiltonian(FmoSpec())
        if vibration:
            h = attach_vibrational_mode(h)
        h = attach_sink(h, 100)
        # column r has amplitude (r + 1) / columns of ``amplitude`` and its
        # own disorder draw
        det = np.stack([generate(NoiseConfig(
            kind=kind, amplitude=amplitude * (r + 1) / columns,
            segments=segments, total_length=float(segments),
            seed=seed + r)).sequences for r in range(columns)])
        disordered = [apply_static_disorder(h, disorder, [seed, r])
                      for r in range(columns)]
        diag = np.stack([hd.matrix.diagonal() for hd in disordered], axis=1)
        lo, hi = dynamics._interval(h, det, diag,
                                    corrected_couplings(h, det, correction))
        for c, hd in enumerate(disordered):
            for k in range(segments):
                w = np.linalg.eigvalsh(segment_matrix(hd, det[c, :, k],
                                                      correction))
                assert lo[c] <= w[0] and w[-1] <= hi[c]
            assert_within_gershgorin_union(lo[c], hi[c], h, det[c:c + 1],
                                           diag[:, c:c + 1], correction)

    def test_strong_disorder_keeps_the_gershgorin_bound(self):
        # a single column at disorder 100, on a chip of 34 sink
        # waveguides: its diagonal offsets spread far wider than the
        # coupling, so Weyl's bound alone would be wider
        h = attach_sink(build_fmo_hamiltonian(FmoSpec()), 34)
        diag = apply_static_disorder(h, 100.0, [7, 0]).matrix.diagonal()
        det = generate(NoiseConfig(amplitude=1.0, segments=20,
                                   total_length=20.0, seed=7)).sequences
        (lo,), (hi,) = dynamics._interval(h, det[None], diag[:, None], {})
        lam = np.linalg.eigvalsh(h.matrix)
        base = h.matrix.diagonal()
        offsets = np.concatenate([diag - base,
                                  (diag[:7, None] + det - base[:7, None])
                                  .ravel()])
        weyl_width = lam[-1] - lam[0] + offsets.max() - offsets.min()
        assert hi - lo < weyl_width - 1.0
        assert_within_gershgorin_union(lo, hi, h, det[None], diag[:, None],
                                       False)

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
        hd = apply_static_disorder(h, disorder, [seed, 1])
        det = generate(NoiseConfig(kind=kind, amplitude=amplitude,
                                   segments=segments,
                                   total_length=float(segments),
                                   seed=seed)).sequences
        psi = np.zeros(h.dim, complex)
        psi[h.source_index] = 1.0
        expected = [psi]
        for k in range(segments):
            u = segment_propagator(segment_matrix(hd, det[:, k], correction),
                                   1.0 / steps)
            for _ in range(steps):
                psi = u @ psi
                expected.append(psi)
        # hypothesis shares one monkeypatch fixture across its examples
        with pytest.MonkeyPatch.context() as patch:
            for budget, bound in budgets(dynamics.TRUNCATION_BUDGET, 1e-12):
                patch.setattr(dynamics, "TRUNCATION_BUDGET", budget)
                got = [s[:, 0] for s in kernel_states(
                    h, det[None], 1.0, steps,
                    diagonals=hd.matrix.diagonal()[:, None],
                    couplings=corrected_couplings(h, det[None], correction))]
                assert np.abs(np.array(got)
                              - np.array(expected)).max() < bound

    # (vibration, sink waveguides, disorder, correction, steps a segment)
    # of the cases of the series in B, on six 1 mm segments
    B_CASES = {"odd_and_even_series": (False, 20, 3.0, False, 1),
               "longer_than_the_ring": (False, 20, 100.0, False, 1),
               "one_sink_waveguide": (False, 1, 3.0, False, 1),
               "overrides_each_segment": (True, 20, 3.0, True, 2),
               "steps_a_segment": (False, 20, 3.0, False, 3)}

    @pytest.mark.parametrize("case", list(B_CASES))
    def test_series_in_b_is_exact_and_batch_free(self, case, monkeypatch):
        # each case against the dense propagator, and each column alone
        # against its batch, bit for bit
        vibration, sink, disorder, correction, steps = self.B_CASES[case]
        h, det, _ = batch_inputs(vibration, sink=sink)
        diag = np.stack([apply_static_disorder(h, disorder, [11, r])
                         .matrix.diagonal() for r in range(len(det))], axis=1)
        couplings = corrected_couplings(h, det, correction)
        plan = dynamics._plan(h, det, 1.0, steps, diag, couplings)
        _, _, head, *_ = plan.segment
        if case == "longer_than_the_ring":
            # 83 or 84 terms in A, 42 in B
            assert plan.lengths.min() > dynamics.TERMS_HELD
        if case == "one_sink_waveguide":
            assert h.dim == len(h.block) + 1 == len(head)
        if case == "overrides_each_segment":
            # every coupling moves from segment to segment in a noisy column
            assert all(np.ptp(v, axis=1).any() for v in couplings.values())
        assert plan.steps == steps
        lengths, weights = [], dynamics._chebyshev_weights

        def spy(rho, cut):
            w = weights(rho, cut)
            lengths.append(len(w))
            return w

        for budget, bound in budgets(dynamics.TRUNCATION_BUDGET, 1e-12):
            monkeypatch.setattr(dynamics, "TRUNCATION_BUDGET", budget)
            monkeypatch.setattr(dynamics, "_chebyshev_weights", spy)
            assert_exact_and_batch_free(h, det, 1.0, steps, diag, couplings,
                                        bound)
        if case == "odd_and_even_series":
            # the lone columns' series in A have both parities
            assert {n % 2 for n in lengths} == {0, 1}

    # (vibration, correction, zeroed mode) of the head refresh's cases
    HEAD_CASES = {"no_overrides": (False, False, False),
                  "overrides_each_segment": (False, True, False),
                  "zeroed_mode_and_correction": (True, True, True)}

    @pytest.mark.parametrize("case", list(HEAD_CASES))
    def test_head_rows_are_the_square_of_each_segment(self, case):
        # after each segment's write, the head rows of 2B that the steps
        # read are (2A_k)^2 - 2 of the dense segment matrix, to a few ulps
        vibration, correction, zeroed = self.HEAD_CASES[case]
        h, det, diag = batch_inputs(vibration)
        couplings = corrected_couplings(h, det, correction)
        if zeroed:
            couplings.update(zeroed_mode(h, det))
        plan = dynamics._plan(h, det, 1.0, 1, diag, couplings)
        [(_, head, *_)] = plan.ops
        rows, cols, _ = head.shape
        center, half = (plan.hi + plan.lo) / 2, (plan.hi - plan.lo) / 2
        eps = np.finfo(float).eps
        run = dynamics._run(plan)
        next(run)   # the state before the first segment's write
        for k, _ in enumerate(run):   # one step a segment
            for c in range(len(det)):
                hd = with_diagonal(h, diag[:, c])
                m = segment_matrix(hd, det[c, :, k])
                for (i, j), v in couplings.items():
                    m[i, j] = m[j, i] = v[c, k]
                a2 = 2.0 * (m - center[c] * np.eye(h.dim)) / half[c]
                square = (a2 @ a2 - 2.0 * np.eye(h.dim))[:rows, :cols]
                size = (np.abs(a2) @ np.abs(a2))[:rows, :cols] + 2.0
                for part in (2 * c, 2 * c + 1):
                    assert (np.abs(head[..., part] - square)
                            <= 4 * eps * size).all()
        assert k == det.shape[2] - 1

    def test_base_overrides_leave_a_column_bitwise_unchanged(self):
        # the vibration comparison's with-mode half: columns whose
        # overrides hold their base couplings, batched with columns whose
        # overrides zero the mode and correct the couplings, read the bits
        # of a call without overrides in every segment's head block and in
        # every state
        h, det, diag = batch_inputs(vibration=True)
        couplings = corrected_couplings(h, det)
        couplings.update(zeroed_mode(h, det))
        for (i, j), v in couplings.items():
            v[:2] = h.block[i, j]
        runs = [dynamics._plan(h, det, 1.0, 2, diag, couplings),
                dynamics._plan(h, det[:2], 1.0, 2, diag[:, :2], None)]
        mixed, base = (plan.segment[2] for plan in runs)
        for k, (x, y) in enumerate(zip(*map(dynamics._run, runs))):
            assert x[:, :4].tobytes() == y.tobytes()
            assert mixed[..., :4].tobytes() == base.tobytes()
        assert k == 2 * det.shape[2]

    def test_block_is_read_from_its_lower_triangle(self):
        # a block symmetric only within HERMITICITY_TOL runs as the chip
        # of its lower triangle, which the spectral bound's eigvalsh reads
        # too, bit for bit
        h, det, diag = batch_inputs()
        skew = replace(h, block=h.block + np.triu(np.full((7, 7), 1e-13), 1))
        assert (skew.block != skew.block.T).any()
        for a, b in zip(kernel_states(skew, det, 1.0, 2, diag),
                        kernel_states(h, det, 1.0, 2, diag)):
            assert a.tobytes() == b.tobytes()

    # SweepConfig fields of the benchmark's gated sweeps, 20 segments each,
    # and of the vibration mode and the coupling correction on them.  The
    # first two mirror the sweep_clean and sweep_disorder_cli studies of
    # bench/studies.py (its FIGS8_GAMMA10_GRID is figS8's grid at disorder
    # 10), and a change to those studies belongs here too.
    GATED = {"sweep_clean": dict(sink_length=100),
             "sweep_disorder_cli": dict(noise_kind="colored", disorder=10.0,
                                        sink_length=80,
                                        grid=experiments.FIGS8_GRIDS[10.0]),
             "vibration": dict(with_vibration=True),
             "correction": dict(noise_kind="colored", disorder=10.0,
                                coupling_correction=True)}

    @pytest.mark.parametrize("shape", list(GATED))
    def test_gated_shapes_stay_within_the_truncation_budget(self, shape):
        # the least and the greatest amplitude of the grid, two
        # realizations each
        cfg = SweepConfig(realizations=2, **self.GATED[shape])
        cfg = replace(cfg, grid=(cfg.grid[0], cfg.grid[-1]))
        base = experiments._base_hamiltonian(cfg)
        det, diag, couplings = experiments._study_columns(cfg, base)
        dz = cfg.observe_z / cfg.segments
        states = kernel_states(base, det, dz, diagonals=diag,
                               couplings=couplings)
        assert len(states) == 21
        for psi in states:
            assert np.abs(np.linalg.norm(psi, axis=0) - 1.0).max() <= \
                dynamics.TRUNCATION_BUDGET
        for c in range(len(det)):
            hd = with_diagonal(base, diag[:, c])
            psi = states[0][:, c]
            for k in range(cfg.segments):
                m = segment_matrix(hd, det[c, :, k])
                for (i, j), v in couplings.items():
                    m[i, j] = m[j, i] = v[c, k]
                psi = segment_propagator(m, dz) @ psi
            assert np.linalg.norm(states[-1][:, c] - psi) <= \
                dynamics.TRUNCATION_BUDGET

    def test_strong_disorder_runs_column_chunks_through_the_ring(self):
        # figS8 at disorder 100 on a chip of 34 sink waveguides, with the
        # fewest realizations whose batch does not fit one chunk: its
        # series is longer than TERMS_HELD, so every chunk runs through the
        # ring of held terms
        cfg = SweepConfig(realizations=23, disorder=100.0, sink_length=80,
                          grid=experiments.FIGS8_GRIDS[100.0])
        base = attach_sink(experiments.network_hamiltonian(cfg), 34)
        det, diag, _ = experiments._study_columns(cfg, base)
        dz = cfg.observe_z / cfg.segments
        states = kernel_states(base, det, dz, diagonals=diag)
        plan = dynamics._plan(base, det, dz, 1, diag, None)
        held, _, cols = plan.buffer.shape
        width = cols // 2
        assert held == dynamics.TERMS_HELD < len(plan.weights)
        assert len(det) - len(cfg.grid) <= width < len(det)
        for psi in states:
            assert np.abs(np.linalg.norm(psi, axis=0) - 1.0).max() <= \
                dynamics.TRUNCATION_BUDGET
        # the first and last column of each chunk
        for c in (0, width - 1, width, len(det) - 1):
            alone = kernel_states(base, det[c:c + 1], dz,
                                  diagonals=diag[:, c:c + 1])
            np.testing.assert_array_equal(alone[-1][:, 0], states[-1][:, c])
            hd = with_diagonal(base, diag[:, c])
            psi = states[0][:, c]
            for k in range(cfg.segments):
                psi = segment_propagator(segment_matrix(hd, det[c, :, k]),
                                         dz) @ psi
            assert np.linalg.norm(states[-1][:, c] - psi) <= \
                dynamics.TRUNCATION_BUDGET

    def test_a_cut_below_the_floor_clamps_and_stops_inside_the_table(self):
        budget, floor = dynamics.TRUNCATION_BUDGET, dynamics.STEP_CUT_FLOOR
        assert 5e-13 <= dynamics._step_cut(20) == budget / 20 <= 1e-12
        steps = math.ceil(budget / floor) + 1
        assert budget / steps < floor == dynamics._step_cut(steps)
        # every rho whose series MAX_SERIES_TERMS admits
        rho = np.concatenate([np.linspace(0.0, 30.0, 61),
                              np.geomspace(30.0, 6640.0, 40)])
        j = dynamics._bessel_columns(rho)
        w = dynamics._chebyshev_weights(rho, floor)
        n = len(w) - (w[::-1] != 0).argmax(axis=0)
        starts = (rho + 10.0 * np.cbrt(rho)).astype(int) + 16
        for r in range(len(rho)):
            assert rho[r] < n[r] <= starts[r]
            assert 2.0 * np.abs(j[n[r]:, r]).sum() < floor

    def test_gated_studies_take_the_budgets_series(self, monkeypatch):
        # every pool seed of the benchmark's gated sweeps takes 17 terms a
        # step on sweep_clean and at most 36 on sweep_disorder_cli (20 and
        # 38 to 41 at the 1e-16 cut the kernel took before the budget)
        calls = []
        weights = dynamics._chebyshev_weights

        def spy(rho, cut):
            w = weights(rho, cut)
            calls.append((len(w), cut))
            return w

        monkeypatch.setattr(dynamics, "_chebyshev_weights", spy)
        lengths = {}
        for shape in ("sweep_clean", "sweep_disorder_cli"):
            cfg = SweepConfig(realizations=4, **self.GATED[shape])
            calls.clear()
            for seed in range(64):
                experiments.sweep_dephasing(replace(cfg, seed=seed))
            lengths[shape] = {n for n, _ in calls}
            assert {cut for _, cut in calls} == {dynamics._step_cut(20)}
        assert lengths["sweep_clean"] == {17}
        assert max(lengths["sweep_disorder_cli"]) <= 36

    def test_zero_hamiltonian_leaves_batch_exactly_constant(self):
        h = Hamiltonian(np.zeros((7, 7)), tuple(f"fmo_site_{i}" for i in range(1, 8)))
        states = kernel_states(h, np.zeros((3, 7, 4)), 1.0, 3)
        assert len(states) == 13
        for psi in states:
            np.testing.assert_array_equal(psi, states[0])

    def test_too_narrow_interval_diverges_and_raises(self, monkeypatch):
        h, det, diag = batch_inputs()
        n = det.shape[0]
        monkeypatch.setattr(dynamics, "_interval",
                            lambda *_: (np.zeros(n), np.full(n, 0.1)))
        with pytest.raises(PhysicsError, match="norm drift"):
            run_states(h, det, diag, False)

    @pytest.mark.parametrize("vibration", [False, True])
    def test_empty_batch_rejected(self, vibration):
        h = build_fmo_hamiltonian(FmoSpec())
        h = attach_sink(attach_vibrational_mode(h) if vibration else h, 10)
        for shape in ((0, 7, 3), (1, 7, 0)):
            with pytest.raises(PhysicsError, match="none of them empty"):
                kernel_states(h, np.zeros(shape), 1.0)

    def test_nan_detuning_rejected(self):
        h = attach_sink(build_fmo_hamiltonian(FmoSpec()), 10)
        with pytest.raises(PhysicsError, match="finite"):
            traces(h, np.full((1, 7, 20), np.nan), 1.0)

    def test_non_finite_interval_rejected(self, monkeypatch):
        # one column's interval is infinite, undefined or empty
        h, det, diag = batch_inputs()
        for bad in (np.inf, np.nan, -1.0):
            hi = np.full(det.shape[0], 9.0)
            hi[3] = bad
            monkeypatch.setattr(dynamics, "_interval",
                                lambda *_, hi=hi: (np.zeros(len(hi)), hi))
            with pytest.raises(PhysicsError,
                               match="interval .* of realization 3"):
                run_states(h, det, diag, False)

    # (h, correction) of the split product's edge cases: a chip with no
    # chain row past the head (a one-waveguide sink), the vibration mode in
    # the head rows (the 9 of 2B that a segment refreshes) and the
    # per-column couplings of the coupling correction
    SPLIT_CASES = {"no_chain_row": (False, 1, False),
                   "vibration": (True, 20, False),
                   "correction": (False, 20, True)}

    @pytest.mark.parametrize("case", list(SPLIT_CASES))
    def test_split_product_edge_cases(self, case, monkeypatch):
        vibration, sink, correction = self.SPLIT_CASES[case]
        h, det, diag = batch_inputs(vibration, sink=sink)
        _, _, head, *_ = states_plan(h, det, diag, correction).segment
        if case == "no_chain_row":
            assert len(head) == h.dim
        if case == "vibration":
            assert len(head) == 9
        expected = np.zeros((2 * det.shape[2] + 1,) + diag.shape, complex)
        expected[0, h.source_index] = 1.0
        for c in range(det.shape[0]):
            hd = with_diagonal(h, diag[:, c])
            for k in range(det.shape[2]):
                u = segment_propagator(
                    segment_matrix(hd, det[c, :, k], correction), 0.5)
                for s in (2 * k + 1, 2 * k + 2):
                    expected[s, :, c] = u @ expected[s - 1, :, c]
        for budget, bound in budgets(dynamics.TRUNCATION_BUDGET, 1e-12):
            monkeypatch.setattr(dynamics, "TRUNCATION_BUDGET", budget)
            got = run_states(h, det, diag, correction)
            assert np.abs(np.array(got) - expected).max() < bound
        monkeypatch.undo()
        whole = run_states(h, det, diag, correction)
        n_terms, n_rows, _ = buffer_shape(states_plan(h, det, diag,
                                                      correction))
        # room for two realizations: chunks of 2, 2 and 1
        monkeypatch.setattr(dynamics, "TERM_BUFFER_BYTES",
                            2 * n_terms * (n_rows + 2) * 2 * 8 + 8)
        chunked = run_states(h, det, diag, correction)
        plan = states_plan(h, det, diag, correction)
        assert buffer_shape(plan) == (n_terms, n_rows, 2 * 2)
        assert [b - a for a, b in plan.chunks] == [2, 2, 1]
        for a, b in zip(chunked, whole):
            np.testing.assert_array_equal(a, b)

    def test_c_einsum_is_numpy_einsum(self):
        # every subscript the kernel calls, on the strided views a plan
        # passes: a column chunk of the band view, the head rows, the held
        # terms of its (held, rows + 4, 10) term buffer and their weights,
        # and the square of 2A's leading block, by columns and by rows
        rng = np.random.default_rng(0)
        plan = states_plan(*long_chain_inputs(5), False)
        terms = plan.buffer
        k, padded, cols = terms.shape
        assert k >= 3 and cols == 10
        terms[:, 2:-2] = rng.standard_normal((k, padded - 4, cols))
        # the step arguments of the first chunk; its slots hold each held
        # term's band view of the chain rows fifth
        bands = plan.ops[0][5][4][1]
        chain = rng.standard_normal(bands.shape)
        head = rng.standard_normal((5, 6, 10))
        off = rng.standard_normal((6, 6, 10))
        w = rng.standard_normal((k, 2, 10))
        cases = [("krc,krc->rc", chain[:, 3:, :7], bands[:, 3:, :7]),
                 ("ijr,jr->ir", head[:, :, :7], terms[1, 2:8, :7]),
                 ("kc,krc->rc", w[:, 1, :7], terms[:, 2:-2, :7]),
                 ("ikr,kjr->ijr", off[:5, :, :7], off[:, :, :7]),
                 ("ikr,jkr->ijr", off[:5, :4, :7], off[:5, :4, :7]),
                 ("ij,ij->j", terms[2, 2:-2], terms[2, 2:-2])]
        for subscripts, *operands in cases:
            expected = np.einsum(subscripts, *operands)
            got, out = np.empty_like(expected), np.empty_like(expected)
            dynamics.c_einsum(subscripts, *operands, out=got)
            np.einsum(subscripts, *operands, out=out)
            np.testing.assert_array_equal(got, out)
            np.testing.assert_array_equal(got, expected)

    def test_bessel_coefficients_match_scipy(self):
        from scipy.special import jv
        x = np.array([0.0, 1e-6, 0.3, 2.404825557695773, 3.5, 12.5, 60.0,
                      150.0])
        j = dynamics._bessel_columns(x)
        np.testing.assert_allclose(j, jv(np.arange(len(j))[:, None], x),
                                   rtol=0, atol=1e-14)

    def test_bessel_columns_do_not_depend_on_each_other(self):
        x = np.random.default_rng(3).uniform(0.0, 40.0, 17)
        j = dynamics._bessel_columns(x)
        for c in range(len(x)):
            alone = dynamics._bessel_columns(x[c:c + 1])[:, 0]
            np.testing.assert_array_equal(alone, j[:len(alone), c])
            assert not j[len(alone):, c].any()
        cut = dynamics._step_cut(20)
        w = dynamics._chebyshev_weights(x, cut)
        for c in range(len(x)):
            alone = dynamics._chebyshev_weights(x[c], cut)[:, 0]
            np.testing.assert_array_equal(alone, w[:len(alone), c])
            assert not w[len(alone):, c].any()


_CHIP = attach_sink(build_fmo_hamiltonian(FmoSpec()), 3)
_DET = np.zeros((1, 7, 2))

#: Input that the propagators, the trace recorder and the trace writer
#: reject, with a fragment of their messages; each callable takes a
#: scratch directory.
REJECTIONS = {
    "propagator-not-square": (
        lambda d: segment_propagator(np.zeros((2, 3)), 1.0), "must be square"),
    "traces-detunings-scalar": (
        lambda d: dynamics.traces(_CHIP, 1.0, 1.0),
        "detunings must have shape (realizations, network sites, segments)"),
    "traces-diagonals-shape": (
        lambda d: dynamics.traces(_CHIP, _DET, 1.0,
                                  diagonals=np.zeros((_CHIP.dim, 2))),
        "diagonals must have shape (dim, realizations)"),
    "sink-fractions-segment-length": (
        lambda d: next(dynamics.sink_fractions(_CHIP, _DET, 0.0)),
        "segment length must be positive and finite"),
    "sink-fractions-steps": (
        lambda d: next(dynamics.sink_fractions(_CHIP, _DET, 1.0,
                                               steps_per_segment=0)),
        "steps_per_segment must be >= 1"),
    "traces-segment-length": (
        lambda d: dynamics.traces(_CHIP, _DET, math.nan),
        "segment length must be positive and finite"),
    "traces-segment-length-zero": (
        lambda d: dynamics.traces(_CHIP, _DET, 0.0),
        "segment length must be positive and finite"),
    "traces-segment-length-negative": (
        lambda d: dynamics.traces(_CHIP, _DET, -1.0),
        "segment length must be positive and finite"),
    "trace-csv-stride": (
        lambda d: write_trace_csv(traces(_CHIP, _DET, 1.0)[0],
                                  d / "trace.csv", stride=0),
        "stride must be >= 1"),
}


@pytest.mark.parametrize("call, fragment", REJECTIONS.values(),
                         ids=REJECTIONS.keys())
def test_rejects_with_a_message(tmp_path, call, fragment):
    with pytest.raises(PhysicsError) as err:
        call(tmp_path)
    assert fragment in str(err.value)
