"""Tests for the seeded Monte Carlo studies: determinism, statistics,
and structural invariants on small, fast configurations."""

import json

import numpy as np
import pytest

from fmosim.errors import PhysicsError
from fmosim.experiments import (
    DEFAULT_GRID,
    SweepConfig,
    SweepResult,
    excitation_trace_study,
    noise_distribution_comparison,
    reorganization_curve,
    segment_count_study,
    sweep_dephasing,
    vibrational_comparison,
    write_manifest,
    write_sweep_csv,
)


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

    def test_hash_stable_and_sensitive(self):
        a = small_cfg()
        b = small_cfg()
        c = small_cfg(seed=8)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()
        assert len(a.config_hash()) == 16

    def test_canonical_dict_json_serializable(self):
        json.dumps(small_cfg().canonical_dict(), sort_keys=True)

    def test_default_hashes_pinned(self):
        # the sink coupling stays out of the hash at its default, so these
        # configs keep the hashes they had before it was a field
        assert SweepConfig().config_hash() == "5bcf85f44d9e0421"
        assert small_cfg().config_hash() == "4c7f7d2f0bba2143"
        assert small_cfg(sink_coupling=0.2).config_hash() == "4c7f7d2f0bba2143"
        assert "sink_coupling" not in small_cfg().canonical_dict()

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
                          np.array([0.1, 0.9, 0.3]), np.zeros(3),
                          np.zeros((3, 1)), "x", 0)
        assert res.argmax_value == 0.5

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


    def test_matches_per_sequence_oracle(self):
        # the loop the batched study replaced: one noise realization and
        # one periodogram per sequence
        from fmosim import analysis
        from fmosim.experiments import _noise_config
        from fmosim.noise import generate
        cfg = small_cfg(grid=(0.0, 0.4, 1.0), realizations=4,
                        noise_kind="colored")
        pts, _ = reorganization_curve(cfg)
        for gi, amplitude in enumerate(cfg.grid[1:], start=1):
            var, energy = [], []
            for r in range(cfg.realizations):
                ncfg = _noise_config(cfg, amplitude, gi, r)
                for row in generate(ncfg).sequences:
                    var.append(analysis.variance(row))
                    energy.append(analysis.reorganization_energy(
                        analysis.psd_periodogram(row, ncfg.sampling_frequency)))
            assert pts[gi, 0] == pytest.approx(np.mean(var), rel=1e-13)
            assert pts[gi, 1] == pytest.approx(np.mean(energy), rel=1e-13)


class TestVibrationalComparison:
    def test_shapes_and_determinism(self):
        cfg = small_cfg(grid=(0.0, 0.5), realizations=2)
        pos, with_v, without_v = vibrational_comparison(cfg)
        assert with_v.shape == (2, len(pos))
        assert without_v.shape == with_v.shape
        pos2, with_v2, _ = vibrational_comparison(cfg)
        np.testing.assert_array_equal(with_v, with_v2)

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
