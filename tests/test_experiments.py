"""Tests for the seeded Monte Carlo studies: determinism, statistics,
and structural invariants on small, fast configurations."""

import json
from dataclasses import fields, replace

import numpy as np
import pytest

from fmosim import analysis, dynamics, experiments, model
from fmosim.analysis import most_probable_site, transport_efficiency
from fmosim.errors import PhysicsError
from fmosim.experiments import (
    DEFAULT_GRID,
    SweepConfig,
    SweepResult,
    _noise_seeds,
    excitation_trace_study,
    noise_distribution_comparison,
    reorganization_curve,
    segment_count_study,
    single_trace,
    sweep_dephasing,
    vibrational_comparison,
    write_manifest,
    write_sweep_csv,
)
from fmosim.model import FmoSpec


def small_cfg(**kw):
    base = dict(grid=(0.0, 0.5, 1.0), realizations=3, sink_length=10,
                seed=7)
    base.update(kw)
    return SweepConfig(**base)


class TestSweepConfig:
    def test_default_grid(self):
        assert DEFAULT_GRID[0] == 0.0
        assert DEFAULT_GRID[-1] == 1.0
        assert len(DEFAULT_GRID) == 11
        np.testing.assert_allclose(np.diff(DEFAULT_GRID), 0.1)

    def test_validation(self):
        with pytest.raises(PhysicsError):
            SweepConfig(realizations=0)
        with pytest.raises(PhysicsError):
            SweepConfig(grid=())
        with pytest.raises(PhysicsError):
            SweepConfig(grid=(1.0, 0.5))
        with pytest.raises(PhysicsError):
            SweepConfig(disorder=-1.0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, None])
    def test_seed_not_a_nonnegative_integer_rejected(self, seed):
        # a negative seed would wrap into another stream under uint64
        with pytest.raises(PhysicsError, match="seed"):
            SweepConfig(seed=seed)

    def test_numpy_integer_seed_is_the_int_seed(self):
        cfg = SweepConfig(seed=np.int64(7))
        assert type(cfg.seed) is int
        assert cfg.config_hash() == SweepConfig(seed=7).config_hash()

    @pytest.mark.parametrize("name", ["realizations", "segments",
                                      "sink_length"])
    def test_numpy_integer_counts_are_ints(self, name, tmp_path):
        cfg = SweepConfig(**{name: np.int64(4)})
        assert type(getattr(cfg, name)) is int
        assert cfg.config_hash() == SweepConfig(**{name: 4}).config_hash()
        write_manifest(cfg, tmp_path / "manifest.json")

    @pytest.mark.parametrize("name", ["realizations", "segments",
                                      "sink_length"])
    @pytest.mark.parametrize("value", [4.0, 2.5, True, "4"])
    def test_counts_not_an_integer_rejected(self, name, value):
        with pytest.raises(PhysicsError, match=f"{name} must be an integer"):
            SweepConfig(**{name: value})

    def test_grid_array_is_read_as_its_tuple(self):
        cfg = SweepConfig(grid=np.array([0.0, 0.5]))
        assert cfg == SweepConfig(grid=(0.0, 0.5))
        assert type(cfg.grid) is tuple and type(cfg.grid[0]) is float
        with pytest.raises(PhysicsError, match="nonempty"):
            SweepConfig(grid=np.array([]))

    def test_hash_stable_and_sensitive(self):
        a = small_cfg()
        b = small_cfg()
        c = small_cfg(seed=8)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()
        assert len(a.config_hash()) == 16

    def test_configs_are_values(self):
        # no field holds an array, so configs compare and hash
        assert SweepConfig() == SweepConfig()
        assert small_cfg() != small_cfg(seed=8)
        assert hash(SweepConfig()) == hash(SweepConfig())
        assert hash(FmoSpec()) == hash(FmoSpec())
        assert len({small_cfg(), small_cfg(), SweepConfig()}) == 2

    def test_canonical_dict_json_serializable(self):
        json.dumps(small_cfg().canonical_dict(), sort_keys=True)

    def test_default_hashes_pinned(self):
        # the sink coupling stays out of the hash at its default, so these
        # configs keep the hashes they had before it was a field
        assert SweepConfig().config_hash() == "5bcf85f44d9e0421"
        assert small_cfg().config_hash() == "4c7f7d2f0bba2143"
        assert small_cfg(sink_coupling=0.2).config_hash() == "4c7f7d2f0bba2143"
        assert "sink_coupling" not in small_cfg().canonical_dict()

    BOOLEAN_FIELDS = {
        "with_vibration": lambda v: SweepConfig(with_vibration=v),
        "coupling_correction": lambda v: SweepConfig(coupling_correction=v),
        "include_weak_couplings":
            lambda v: SweepConfig(fmo=FmoSpec(include_weak_couplings=v))}

    @pytest.mark.parametrize("field", BOOLEAN_FIELDS)
    def test_boolean_fields_take_only_booleans(self, field):
        build = self.BOOLEAN_FIELDS[field]
        for value in ("no", "", 0, 1, 1.0, None):
            with pytest.raises(PhysicsError, match=field):
                build(value)
        # a numpy bool is the Python bool it holds, hash included
        for flag in (False, True):
            assert build(np.bool_(flag)) == build(flag)
            assert build(np.bool_(flag)).config_hash() == \
                build(flag).config_hash()

    @pytest.mark.parametrize("field,value", [
        ("observe_z", 20), ("disorder", 0), ("sink_coupling", 1),
        ("filter_time_scale", 1)])
    def test_int_and_float_spellings_share_a_hash(self, field, value):
        as_int = SweepConfig(**{field: value})
        as_float = SweepConfig(**{field: float(value)})
        assert isinstance(getattr(as_int, field), float)
        assert as_int.config_hash() == as_float.config_hash()

    def test_sink_coupling_changes_hash_and_values(self):
        cfg = small_cfg(sink_coupling=0.9)
        assert cfg.canonical_dict()["sink_coupling"] == 0.9
        assert cfg.config_hash() != small_cfg().config_hash()
        slow = sweep_dephasing(small_cfg(grid=(0.5,)))
        fast = sweep_dephasing(small_cfg(grid=(0.5,), sink_coupling=0.9))
        assert fast.means[0] > slow.means[0]

    @pytest.mark.parametrize("field,value", [
        ("disorder", float("nan")), ("observe_z", float("inf")),
        ("sink_coupling", float("nan")), ("filter_time_scale", float("inf")),
        ("grid", (0.0, float("nan"))), ("sink_coupling", 0.0)])
    def test_non_finite_or_invalid_rejected(self, field, value):
        with pytest.raises(PhysicsError):
            small_cfg(**{field: value})


class TestSweepDephasing:
    def test_deterministic(self):
        a = sweep_dephasing(small_cfg())
        b = sweep_dephasing(small_cfg())
        np.testing.assert_array_equal(a.values, b.values)

    def test_thread_count_does_not_change_bytes(self):
        single = sweep_dephasing(small_cfg(threads=1))
        for threads in (2, 8):
            multi = sweep_dephasing(small_cfg(threads=threads))
            np.testing.assert_array_equal(single.values, multi.values)

    @pytest.mark.parametrize("kind", ["uniform_white", "colored"])
    def test_lone_realization_is_its_batch_column(self, kind):
        # numpy sums a lone column pairwise but a wider array row by row;
        # a realization's efficiency must be the same bits either way
        for seed in range(4):
            cfg = small_cfg(grid=(0.5,), noise_kind=kind, disorder=3.0,
                            sink_length=100, seed=seed)
            lone = sweep_dephasing(replace(cfg, realizations=1)).values
            batch = sweep_dephasing(cfg).values
            assert lone[:, 0].tobytes() == batch[:, 0].tobytes()

    @pytest.mark.parametrize("kw", [
        {}, dict(noise_kind="colored", disorder=10.0),
        dict(coupling_correction=True), dict(noise_kind="cauchy"),
        dict(with_vibration=True)],
        ids=["uniform", "colored-disorder", "correction", "cauchy", "mode"])
    def test_study_is_the_first_realizations_of_a_larger_one(self, kw):
        # every realization's seeds depend on its index alone and a column
        # on its own inputs, so more realizations only add columns
        cfg = small_cfg(**kw)
        more = sweep_dephasing(replace(cfg, realizations=7)).values
        assert sweep_dephasing(cfg).values.tobytes() == \
            more[:, :cfg.realizations].tobytes()

    def test_chain_past_the_light_cone_changes_no_byte(self):
        # the default 20 mm chip evolves 18 sink waveguides at most; a
        # dense chip of 100,000 would have taken 80 GB
        cfg = small_cfg(grid=(0.0, 0.5), realizations=2, sink_length=100)
        short = sweep_dephasing(cfg).values
        long = sweep_dephasing(replace(cfg, sink_length=100_000)).values
        assert long.tobytes() == short.tobytes()
        disordered = [sweep_dephasing(replace(cfg, disorder=3.0,
                                              sink_length=n)).values
                      for n in (40, 100, 400)]
        for values in disordered[1:]:
            assert values.tobytes() == disordered[0].tobytes()

    def test_study_at_the_longest_chain_holds_the_light_cone_only(self):
        # every array of a study spans the 25 rows the light cone reaches,
        # whatever the chain's length: at 10**6 sink waveguides one (dim,
        # 2R) state alone would take 64 MB
        import tracemalloc
        cfg = small_cfg(grid=(0.0, 0.5), realizations=2, disorder=3.0,
                        sink_length=100)
        longest = replace(cfg, sink_length=model.MAX_SINK_LENGTH)
        short = sweep_dephasing(cfg).values
        tracemalloc.start()
        try:
            long = sweep_dephasing(longest).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert long.tobytes() == short.tobytes()
        assert peak < 4e6
        (tr, _), (tr100, _) = (single_trace(c, 0.5, 1)
                               for c in (longest, cfg))
        assert tr.amplitudes.shape[1] == 25
        assert tr.amplitudes.tobytes() == tr100.amplitudes.tobytes()

    def test_light_cone_past_the_longest_chain_rejected(self):
        # 2 c T = 4e6 at chain coupling 1e5 mm^-1 over the 20 mm chip
        cfg = small_cfg(sink_coupling=1e5, sink_length=10 ** 9)
        with pytest.raises(PhysicsError, match="light cone is deeper than "
                           f"MAX_SINK_LENGTH \\({model.MAX_SINK_LENGTH}\\)"):
            sweep_dephasing(cfg)

    def test_deep_light_cone_builds_no_dense_window(self):
        # chain coupling 50 mm^-1 over the 20 mm chip: a 2,171-row light
        # cone, whose dense window alone would take 38 MB; nothing of the
        # study may stay referenced after it returns
        import tracemalloc
        cfg = small_cfg(grid=(0.5,), realizations=1, sink_coupling=50.0,
                        sink_length=10 ** 9)
        sweep_dephasing(replace(cfg, sink_coupling=0.2))   # fill the caches
        tracemalloc.start()
        try:
            sweep_dephasing(cfg)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert kept < 2e5

    def test_zero_amplitude_column_has_zero_std(self):
        res = sweep_dephasing(small_cfg())
        assert res.stds[0] == 0.0

    def test_values_in_unit_interval(self):
        res = sweep_dephasing(small_cfg())
        assert np.all(res.values >= 0.0) and np.all(res.values <= 1.0)

    def test_std_shrinks_with_realizations(self):
        lo = sweep_dephasing(small_cfg(grid=(0.5,), realizations=5))
        hi = sweep_dephasing(small_cfg(grid=(0.5,), realizations=80))
        # standard error of the mean ~ std/sqrt(R); the sample std itself
        # should stabilize, and the estimated mean uncertainty shrink
        assert hi.stds[0] / np.sqrt(80) < lo.stds[0] / np.sqrt(5) + 1e-9

    def test_argmax_property(self):
        res = SweepResult(np.array([0.0, 0.5, 1.0]),
                          np.array([[0.1], [0.9], [0.3]]))
        assert res.argmax_value == 0.5

    def test_computes_no_config_hash(self, monkeypatch):
        def config_hash(cfg):
            raise AssertionError("a sweep hashed its config")

        monkeypatch.setattr(SweepConfig, "config_hash", config_hash)
        sweep_dephasing(small_cfg())

    def test_seed_changes_values(self):
        a = sweep_dephasing(small_cfg(seed=1))
        b = sweep_dephasing(small_cfg(seed=2))
        assert not np.array_equal(a.values[1:], b.values[1:])


class TestReorganizationCurve:
    def test_origin_point_is_exact_zero(self):
        pts, _ = reorganization_curve(small_cfg(noise_kind="colored"))
        assert pts[0, 0] == 0.0 and pts[0, 1] == 0.0

    def test_linear_fit_quality(self):
        cfg = small_cfg(grid=(0.0, 0.25, 0.5, 0.75, 1.0), realizations=20,
                        noise_kind="colored")
        pts, fit = reorganization_curve(cfg)
        assert fit.r_squared > 0.999
        assert fit.slope > 0

    def test_points_scale_quadratically(self):
        cfg = small_cfg(grid=(0.0, 0.5, 1.0), realizations=20,
                        noise_kind="colored")
        pts, _ = reorganization_curve(cfg)
        # variance and reorganization energy are quadratic in amplitude;
        # the grid points use independent seeds, so the comparison is
        # statistical rather than exact
        assert pts[2, 0] == pytest.approx(4 * pts[1, 0], rel=0.2)
        assert pts[2, 1] == pytest.approx(4 * pts[1, 1], rel=0.2)


    def test_equals_the_stacked_spectra_bitwise(self):
        # the whole grid's spectra in one (grid, rows, bins) stack, as the
        # curve was computed before it took them one grid point at a time
        from fmosim import noise
        from fmosim.experiments import noise_config
        cfg = small_cfg(grid=(0.0, 0.3, 0.7, 1.2), realizations=5,
                        noise_kind="colored")
        rows = noise.generate_batch(
            noise_config(cfg, 0.0, 0), np.repeat(cfg.grid, cfg.realizations),
            _noise_seeds(cfg.seed, range(len(cfg.grid)), cfg.realizations)
        ).reshape(len(cfg.grid), -1, cfg.segments)
        spectra = analysis.psd_periodogram(rows, cfg.segments / cfg.observe_z)
        stacked = np.stack(
            [analysis.variance(rows).mean(axis=1),
             analysis.reorganization_energy(spectra).mean(axis=1)], axis=1)
        pts, fit = reorganization_curve(cfg)
        assert pts.tobytes() == stacked.tobytes()
        assert fit == analysis.fit_reorganization_law(stacked)

    def test_working_set_is_one_grid_point(self):
        # fig3b's size: 10 grid points of 100 colored realizations.  The
        # whole grid's complex spectra alone would take 7.3 MB.
        import tracemalloc
        cfg = SweepConfig(noise_kind="colored", realizations=100,
                          grid=experiments.FIG3B_GRID)
        reorganization_curve(replace(cfg, realizations=1))   # fill the caches
        tracemalloc.start()
        try:
            reorganization_curve(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_matches_per_sequence_oracle(self):
        # the loop the batched study replaced: one noise realization and
        # one periodogram per sequence
        from fmosim import analysis
        from fmosim.experiments import noise_config
        from fmosim.noise import generate
        cfg = small_cfg(grid=(0.0, 0.4, 1.0), realizations=4,
                        noise_kind="colored")
        pts, _ = reorganization_curve(cfg)
        for gi, amplitude in enumerate(cfg.grid[1:], start=1):
            var, energy = [], []
            for r in range(cfg.realizations):
                ss = np.random.SeedSequence((cfg.seed, gi, r))
                ncfg = noise_config(
                    cfg, amplitude, int(ss.generate_state(1, np.uint64)[0]))
                for row in generate(ncfg).sequences:
                    var.append(analysis.variance(row))
                    energy.append(analysis.reorganization_energy(
                        analysis.psd_periodogram(row, ncfg.sampling_frequency)))
            assert pts[gi, 0] == pytest.approx(np.mean(var), rel=1e-13)
            assert pts[gi, 1] == pytest.approx(np.mean(energy), rel=1e-13)


def spy_sink_fractions(monkeypatch):
    """(h, detunings, diagonals, couplings) of every dynamics.sink_fractions
    call."""
    calls = []
    sink_fractions = dynamics.sink_fractions

    def spy(h, detunings, *args, diagonals=None, couplings=None, **kwargs):
        calls.append((h, np.asarray(detunings), diagonals, couplings))
        return sink_fractions(h, detunings, *args, diagonals=diagonals,
                              couplings=couplings, **kwargs)

    monkeypatch.setattr(dynamics, "sink_fractions", spy)
    return calls


class TestVibrationalComparison:
    def test_shapes_and_determinism(self):
        cfg = small_cfg(grid=(0.0, 0.5), realizations=2)
        pos, with_v, without_v = vibrational_comparison(cfg)
        assert with_v.shape == (2, len(pos))
        assert without_v.shape == with_v.shape
        pos2, with_v2, _ = vibrational_comparison(cfg)
        np.testing.assert_array_equal(with_v, with_v2)

    def test_without_mode_is_the_same_disordered_chip_minus_its_mode(
            self, monkeypatch):
        cfg = small_cfg(grid=(0.0, 0.6), realizations=2, disorder=3.0)
        calls = spy_sink_fractions(monkeypatch)
        vibrational_comparison(cfg)
        [(h, det, diag, couplings)] = calls
        n = len(cfg.grid) * cfg.realizations
        mode = h.roles.index("vibration")
        assert det.shape[0] == diag.shape[1] == 2 * n
        assert det[n:].tobytes() == det[:n].tobytes()
        assert diag[:, n:].tobytes() == diag[:, :n].tobytes()
        # disorder reaches the sink: its rows differ within every column
        assert np.ptp(diag[h.sink_indices], axis=0).all()
        assert sorted(couplings) == [(s, mode) for s in h.fmo_indices]
        gap = h.matrix[0, mode]
        assert gap > 0
        for c in couplings.values():
            assert c.shape == (2 * n, cfg.segments)
            assert (c[:n] == gap).all() and not c[n:].any()

    @pytest.mark.parametrize("correction", [False, True])
    def test_one_batch_of_both_halves_on_the_with_mode_chip(
            self, correction, monkeypatch):
        cfg = small_cfg(grid=(0.0, 0.6), realizations=2, disorder=3.0,
                        coupling_correction=correction)
        calls = spy_sink_fractions(monkeypatch)
        z, with_mode, _ = vibrational_comparison(cfg)
        [(h, det, _, _)] = calls
        assert det.shape[0] == 2 * len(cfg.grid) * cfg.realizations
        # the with-mode half is bitwise the batch of the with-mode chip alone
        base = experiments._base_hamiltonian(replace(cfg, with_vibration=True))
        assert h.roles == base.roles
        assert h.matrix.tobytes() == base.matrix.tobytes()
        detunings, diagonals, couplings = experiments._study_columns(cfg, base)
        seg = cfg.observe_z / cfg.segments
        eta = np.array(list(dynamics.sink_fractions(
            base, detunings, seg, 4, diagonals=diagonals,
            couplings=couplings)))
        alone = eta.reshape(len(eta), len(cfg.grid), -1).mean(axis=2).T
        assert with_mode.tobytes() == alone.tobytes()
        np.testing.assert_array_equal(z, np.arange(len(eta)) * seg / 4)

    def test_curves_bounded(self):
        cfg = small_cfg(grid=(0.3,), realizations=2)
        _, with_v, without_v = vibrational_comparison(cfg)
        for arr in (with_v, without_v):
            assert np.all(arr >= 0.0) and np.all(arr <= 1.0)
            assert arr[0, 0] == 0.0  # nothing in the sink at z=0


class TestSegmentCountStudy:
    def test_keys_and_consistency(self):
        cfg = small_cfg(grid=(0.5,), realizations=3)
        out = segment_count_study(cfg, segment_counts=(10, 20))
        assert set(out) == {10, 20}
        direct = sweep_dephasing(small_cfg(grid=(0.5,), realizations=3,
                                           segments=10))
        np.testing.assert_array_equal(out[10].values, direct.values)


class TestNoiseDistributionComparison:
    def test_all_kinds_present(self):
        cfg = small_cfg(grid=(0.0, 0.5), realizations=2)
        results, profile_means = noise_distribution_comparison(cfg)
        kinds = {"uniform_white", "colored", "normal_abs", "exponential",
                 "cauchy"}
        assert set(results) == kinds
        assert set(profile_means) == kinds
        for kind in kinds:
            assert 0.0 < profile_means[kind] <= 1.0

    def test_zero_amplitude_identical_across_kinds(self):
        cfg = small_cfg(grid=(0.0,), realizations=2)
        results, _ = noise_distribution_comparison(cfg)
        ref = results["uniform_white"].values
        for res in results.values():
            np.testing.assert_array_equal(res.values, ref)


class TestExcitationTraceStudy:
    def test_keys_and_shapes(self):
        cfg = small_cfg(realizations=1)
        out = excitation_trace_study(cfg, disorders=(0.0, 3.0),
                                     amplitudes=(0.5,))
        assert set(out) == {("disorder", 0.0), ("disorder", 3.0),
                            ("detuning", 0.5)}
        pos, probs, arg = out[("disorder", 0.0)]
        assert probs.shape == (len(pos), 7)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert arg[0] == 6

    def test_zero_disorder_matches_zero_detuning(self):
        cfg = small_cfg(realizations=1)
        out = excitation_trace_study(cfg, disorders=(0.0,), amplitudes=(0.5,))
        out2 = excitation_trace_study(cfg, disorders=(0.0,), amplitudes=(0.5,))
        np.testing.assert_array_equal(out[("disorder", 0.0)][1],
                                      out2[("disorder", 0.0)][1])

    def test_trace_over_budget_rejected(self):
        cfg = small_cfg(realizations=1, segments=25_000)
        with pytest.raises(PhysicsError, match="samples"):
            excitation_trace_study(cfg, disorders=(0.0,), amplitudes=(0.5,))

    def test_figS6_draws_its_disorder_in_one_call(self, monkeypatch):
        cfg = small_cfg(realizations=1)
        calls = []
        shifts = experiments.static_disorder_shifts

        def spy(n, gamma, rng_seeds):
            calls.append((np.asarray(gamma).tolist(), list(rng_seeds)))
            return shifts(n, gamma, rng_seeds)

        monkeypatch.setattr(experiments, "static_disorder_shifts", spy)
        excitation_trace_study(cfg, amplitudes=())
        assert calls == [([0.0, 3.0, 6.0, 10.0], [(cfg.seed, 0, 0, 1)] * 4)]

    @staticmethod
    def assert_members_are_single_traces(cfg, out):
        [seed] = _noise_seeds(cfg.seed, [0], 1)
        for (label, value), (z, probs, mps) in out.items():
            gamma, amplitude = (value, 0.0) if label == "disorder" else \
                (0.0, value)
            tr, _ = single_trace(replace(cfg, disorder=gamma),
                                 amplitude, seed, 4)
            np.testing.assert_array_equal(z, tr.positions)
            np.testing.assert_array_equal(probs, dynamics.site_probabilities(
                tr, tr.fmo_indices, renormalize=True))
            np.testing.assert_array_equal(mps, most_probable_site(tr))

    @pytest.mark.parametrize("kw", [{}, dict(coupling_correction=True,
                                             with_vibration=True)])
    def test_each_member_is_its_single_trace_in_one_kernel_call(
            self, kw, monkeypatch):
        cfg = small_cfg(realizations=1, noise_kind="colored", **kw)
        calls = []
        plan = dynamics._plan

        def spy(*args, **kwargs):
            calls.append(args[1].shape)
            return plan(*args, **kwargs)

        # every kernel call plans once
        monkeypatch.setattr(dynamics, "_plan", spy)
        out = excitation_trace_study(cfg)
        assert calls == [(10, 7, cfg.segments)]
        self.assert_members_are_single_traces(cfg, out)

    def test_each_member_on_a_long_chain_is_its_single_trace(self):
        # past the light cone a member and its single trace run on the
        # same chip of 18 sink waveguides, so they agree bit for bit
        cfg = small_cfg(realizations=1, noise_kind="colored",
                        sink_length=100)
        self.assert_members_are_single_traces(cfg,
                                              excitation_trace_study(cfg))


# colored noise, whose first grid point is not zero, on a clean chip and
# with disorder, the coupling correction and the vibration mode
TRACE_CASES = {
    "clean": {},
    "disorder-correction": dict(disorder=3.0, coupling_correction=True),
    "disorder-vibration": dict(disorder=10.0, with_vibration=True),
    "all": dict(disorder=10.0, coupling_correction=True, with_vibration=True,
                segments=3),
    # chains past the light cone: the trace, as the sweep, evolves 18 sink
    # waveguides of them
    "long-chain": dict(disorder=3.0, sink_length=100),
    "disorder-10-chain-80": dict(disorder=10.0, sink_length=80),
}


class TestSingleTrace:
    @pytest.mark.parametrize("kw", TRACE_CASES.values(), ids=TRACE_CASES)
    def test_trace_is_its_sweep_column(self, kw):
        cfg = small_cfg(grid=(0.7, 1.5), noise_kind="colored", **kw)
        [seed] = _noise_seeds(cfg.seed, [0], 1)
        # one step a segment, as the sweep takes
        dz = cfg.observe_z / cfg.segments
        tr, _ = single_trace(cfg, cfg.grid[0], seed, 1)
        base = experiments._base_hamiltonian(cfg)
        detunings, diagonals, couplings = experiments._study_columns(cfg, base)
        first, *_ = dynamics.traces(base, detunings, dz, 1, diagonals,
                                    couplings)
        np.testing.assert_array_equal(tr.amplitudes, first.amplitudes)
        # the sweep reads the same state through the same norm
        assert transport_efficiency(tr) == sweep_dephasing(cfg).values[0, 0]

    def test_default_step_divides_the_segment(self):
        # the fewest whole steps a segment of at most DEFAULT_FINE_STEP
        # (0.05 mm): 20 on 1 mm segments, 134 on 20/3 mm ones
        step = experiments.DEFAULT_FINE_STEP
        for segments, steps in ((20, 20), (3, 134)):
            cfg = small_cfg(segments=segments)
            tr, _ = single_trace(cfg, 0.5, 1)
            pinned, _ = single_trace(cfg, 0.5, 1, steps)
            assert len(tr.positions) == segments * steps + 1
            assert tr.fine_step == 20.0 / segments / steps <= step
            assert 20.0 / segments / (steps - 1) > step
            assert tr.positions[-1] == pytest.approx(20.0)
            assert tr.amplitudes.tobytes() == pinned.amplitudes.tobytes()


@pytest.mark.parametrize("record,names", [
    (SweepResult, ["grid", "values"]),
    (dynamics.EvolutionTrace,
     ["amplitudes", "fine_step", "fmo_indices", "sink_indices"]),
    (analysis.SpectrumEstimate, ["frequencies", "density"]),
], ids=["SweepResult", "EvolutionTrace", "SpectrumEstimate"])
def test_records_hold_only_fields_their_readers_use(record, names):
    assert [f.name for f in fields(record)] == names


def test_each_study_builds_the_chip_of_the_cone_it_reads(monkeypatch):
    # a chain of 100 lies past the light cone of the default 20 mm chip,
    # so every study's chip holds the cone's 18 sink waveguides
    cfg = small_cfg(grid=(0.5,), realizations=1, sink_length=100)
    chips, rows = [], []
    plan, traces = dynamics._plan, dynamics.traces

    def spy_plan(h, detunings, segment_length, steps, diagonals, *args):
        chips.append((len(h.block), len(h.sink_indices), len(diagonals)))
        return plan(h, detunings, segment_length, steps, diagonals, *args)

    def spy_traces(*args, **kwargs):
        out = traces(*args, **kwargs)
        rows.append({tr.amplitudes.shape[1] for tr in out})
        return out

    monkeypatch.setattr(dynamics, "_plan", spy_plan)
    monkeypatch.setattr(dynamics, "traces", spy_traces)
    sweep_dephasing(cfg)
    vibrational_comparison(cfg)
    assert chips == [(7, 18, 7 + 18), (8, 18, 8 + 18)]
    excitation_trace_study(cfg, disorders=(3.0,), amplitudes=(0.5,))
    single_trace(cfg, 0.5, 1)
    assert rows == [{7 + 18}, {7 + 18}]


# the columns a chip's light cone is checked on
CONE_COLUMNS = {"clean": {}, "disordered": dict(disorder=10.0),
                "colored": dict(noise_kind="colored", disorder=10.0)}


@pytest.mark.parametrize("kw", CONE_COLUMNS.values(), ids=CONE_COLUMNS)
def test_study_chip_is_within_the_cone_bound_of_twice_the_chain(kw):
    # the kernel evolves every row it is given, so a study's light cone is
    # the chip it builds.  The same columns on that chip and on one with
    # twice its chain: with B = TRUNCATION_BUDGET and e = B +
    # LIGHT_CONE_TOL, each chip's network rows are within e of the uncut
    # chip's at every sample, and its sink fractions and chain totals
    # within 2 e + 2 B, to first order; so the two chips agree within
    # twice that
    b, tol = dynamics.TRUNCATION_BUDGET, dynamics.LIGHT_CONE_TOL
    cfg = small_cfg(grid=(0.0, 0.5, 3.0), realizations=2, sink_length=100,
                    **kw)
    dz = cfg.observe_z / cfg.segments
    chip = experiments._base_hamiltonian(cfg)
    longer = model.attach_sink(experiments.network_hamiltonian(cfg),
                               2 * len(chip.sink_indices))
    det, diag, couplings = experiments._study_columns(cfg, longer)
    short, long = (dynamics.final_sink_fractions(
        h, det, dz, diag[:h.dim], couplings) for h in (chip, longer))
    assert np.abs(short - long).max() <= 8 * b + 4 * tol
    net = slice(len(chip.block))
    for short, long in zip(*(dynamics.traces(
            h, det, dz, 20, diag[:h.dim], couplings)
            for h in (chip, longer))):
        assert np.abs(short.amplitudes[:, net]
                      - long.amplitudes[:, net]).max() <= 2 * (b + tol)
        totals = [dynamics.site_probabilities(tr, tr.sink_indices).sum(axis=1)
                  for tr in (short, long)]
        assert np.abs(totals[0] - totals[1]).max() <= 8 * b + 4 * tol


def test_traces_carry_the_hamiltonians_indices():
    # the vibration mode sits between the network sites and the sink
    cfg = small_cfg(with_vibration=True)
    h = experiments._base_hamiltonian(cfg)
    assert h.roles[7] == "vibration"
    tr, _ = single_trace(cfg, 0.5, 1)
    [evolved] = dynamics.traces(h, np.zeros((1, 7, cfg.segments)),
                                cfg.observe_z / cfg.segments)
    for t in (tr, evolved):
        assert t.fmo_indices == tuple(h.fmo_indices)
        assert t.sink_indices == tuple(h.sink_indices)


class TestOutputs:
    def test_sweep_csv_round_trip_values(self, tmp_path):
        res = sweep_dephasing(small_cfg())
        raw = tmp_path / "raw.csv"
        summary = tmp_path / "summary.csv"
        write_sweep_csv(res, raw, summary)
        lines = raw.read_text().strip().split("\n")
        assert lines[0] == "grid_value,realization,efficiency"
        assert len(lines) == 1 + res.values.size
        s_lines = summary.read_text().strip().split("\n")
        assert s_lines[0] == "grid_value,mean,std"
        got_means = [float(l.split(",")[1]) for l in s_lines[1:]]
        np.testing.assert_allclose(got_means, res.means, rtol=1e-14)

    def test_manifest_contents(self, tmp_path):
        cfg = small_cfg()
        path = tmp_path / "manifest.json"
        write_manifest(cfg, path)
        doc = json.loads(path.read_text())
        assert doc["seed"] == 7
        assert doc["config_hash"] == cfg.config_hash()
        assert doc["config"]["realizations"] == 3
        assert "version" in doc

    def test_rerun_manifest_byte_identical(self, tmp_path):
        cfg = small_cfg()
        p1 = tmp_path / "m1.json"
        p2 = tmp_path / "m2.json"
        write_manifest(cfg, p1)
        write_manifest(cfg, p2)
        assert p1.read_bytes() == p2.read_bytes()


def _numpy_streams(rows):
    # numpy's own seeding, one row at a time: a row of uint32 words is the
    # same entropy as the seeds it was split from
    for row in rows:
        yield np.random.default_rng(row)


def _numpy_words(rows, n_words):
    return np.array([np.random.SeedSequence(row).generate_state(n_words,
                                                                np.uint64)
                     for row in rows])


def _numpy_random_rows(rows, out):
    for row, words in zip(out, rows):
        row[:] = np.random.default_rng(words).random(len(row))


class TestSeeding:
    # seeds of one, two, three and three words; the disorder rows then
    # have 4 to 6 words, past SeedSequence's pool of 4
    @pytest.mark.parametrize("seed", [0, 2**32, 2**64 + 1, 2**70])
    def test_study_is_the_one_numpy_seeds_row_by_row(self, seed,
                                                     monkeypatch):
        from fmosim import _seeding
        # colored noise draws from the streams, uniform_white through the
        # vectorized pass
        cfgs = [small_cfg(seed=seed, noise_kind=kind, disorder=3.0,
                          grid=(0.0, 0.6, 1.4))
                for kind in ("colored", "uniform_white")]
        batched = [sweep_dephasing(cfg) for cfg in cfgs]
        points = [reorganization_curve(cfg)[0] for cfg in cfgs]
        monkeypatch.setattr(_seeding, "streams", _numpy_streams)
        monkeypatch.setattr(_seeding, "seed_words", _numpy_words)
        monkeypatch.setattr(_seeding, "random_rows", _numpy_random_rows)
        for cfg, result, curve in zip(cfgs, batched, points):
            oracle = sweep_dephasing(cfg)
            oracle_points, _ = reorganization_curve(cfg)
            assert result.values.tobytes() == oracle.values.tobytes()
            assert curve.tobytes() == oracle_points.tobytes()

    def test_vibrational_comparison_draws_the_noise_once(self, monkeypatch):
        from fmosim import noise
        cfg = small_cfg(grid=(0.0, 0.8), realizations=2, disorder=3.0)
        before = vibrational_comparison(cfg)
        calls = []
        real = noise.generate_batch

        def spy(config, amplitudes, seeds, n_sites=7):
            calls.append(len(seeds))
            return real(config, amplitudes, seeds, n_sites)

        monkeypatch.setattr(noise, "generate_batch", spy)
        after = vibrational_comparison(cfg)
        assert calls == [len(cfg.grid) * cfg.realizations]
        for a, b in zip(before, after):
            assert a.tobytes() == b.tobytes()


#: Input that the study records reject, with a fragment of their messages.
REJECTIONS = {
    "observe-z": (lambda: small_cfg(observe_z=0.0),
                  "observation length must be positive"),
    # 20 segments over 1e-320 mm sample at a rate that overflows to inf
    "reorganization-infinite-sampling-frequency": (
        lambda: reorganization_curve(SweepConfig(
            observe_z=1e-320, realizations=2, grid=(0.1, 0.2, 0.3))),
        "sampling frequency must be positive and finite"),
}


@pytest.mark.parametrize("call, fragment", REJECTIONS.values(),
                         ids=REJECTIONS.keys())
def test_rejects_with_a_message(call, fragment):
    with pytest.raises(PhysicsError) as err:
        call()
    assert fragment in str(err.value)
