"""Tests for the command-line front end: exit codes, config validation,
output artifacts, and rerun determinism."""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fmosim

from fmosim import dynamics, model, noise
from fmosim.cli import (
    CONFIG_KEYS,
    CONFIG_SCHEMA,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_PHYSICS,
    FIGURE_IDS,
    UNREAD_KEYS,
    load_config,
    main,
)
from fmosim.errors import ConfigError
from fmosim.experiments import SweepConfig


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def base_config(**over):
    doc = {
        "schema_version": 1,
        "system": {"sink_length": 10},
        "noise": {"kind": "uniform_white", "amplitude_per_mm": 0.5,
                  "segments": 20, "total_length_mm": 20.0},
        "sweep": {"grid_per_mm": [0.0, 0.5, 1.0], "realizations": 2},
        "seed": 3,
    }
    for key, val in over.items():
        doc[key] = val
    return doc


class TestConfigLoading:
    def test_valid_config_loads(self, tmp_path):
        path = write_config(tmp_path, base_config())
        assert load_config(path)["seed"] == 3

    def test_unknown_key_rejected_with_path(self, tmp_path):
        doc = base_config()
        doc["noise"]["color"] = "pink"
        path = write_config(tmp_path, doc)
        with pytest.raises(ConfigError, match="noise"):
            load_config(path)

    def test_missing_schema_version_rejected(self, tmp_path):
        doc = base_config()
        del doc["schema_version"]
        path = write_config(tmp_path, doc)
        with pytest.raises(ConfigError):
            load_config(path)

    def test_wrong_schema_version_rejected(self, tmp_path):
        path = write_config(tmp_path, base_config(schema_version=2))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(path))

    @pytest.mark.parametrize("where,key,value", [
        ("sweep", "disorder_per_mm", float("nan")),
        ("sweep", "grid_per_mm", [0.0, float("nan")]),
        ("noise", "amplitude_per_mm", float("inf")),
        ("system", "sink_coupling_per_mm", float("-inf"))])
    def test_non_finite_number_exits_two(self, tmp_path, capsys, where, key,
                                         value):
        doc = base_config()
        doc[where][key] = value
        path = write_config(tmp_path, doc)   # json.dumps writes NaN/Infinity
        assert main(["sweep", "--config", path,
                     "--out", str(tmp_path / "run")]) == EXIT_CONFIG
        assert "non-finite number" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_overflowing_number_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"schema_version": 1, "seed": 0, '
                        '"sweep": {"observe_z_mm": 1e999}}')
        with pytest.raises(ConfigError, match="non-finite"):
            load_config(str(path))

    def test_bad_noise_kind_rejected(self, tmp_path):
        doc = base_config()
        doc["noise"]["kind"] = "pink"
        path = write_config(tmp_path, doc)
        with pytest.raises(ConfigError):
            load_config(path)

    def test_schema_constants(self):
        assert CONFIG_SCHEMA["properties"]["schema_version"]["const"] == 1

    def test_schema_is_valid(self):
        # load_config validates against CONFIG_SCHEMA without checking the
        # schema itself, so the check is made here
        import jsonschema
        jsonschema.validators.validator_for(CONFIG_SCHEMA).check_schema(
            CONFIG_SCHEMA)

    def test_same_error_as_jsonschema_validate(self, tmp_path):
        import jsonschema
        doc = base_config()
        doc["sweep"]["realizations"] = 0
        doc["noise"]["segments"] = "20"
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(doc, CONFIG_SCHEMA)
        path = write_config(tmp_path, doc)
        with pytest.raises(ConfigError) as got:
            load_config(path)
        where = "/".join(str(p) for p in expected.value.absolute_path)
        assert str(got.value) == f"{path}: at {where}: {expected.value.message}"


class TestExitCodes:
    def test_config_error_is_two(self, tmp_path):
        path = write_config(tmp_path, base_config(schema_version=99))
        assert main(["simulate", "--config", path,
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == EXIT_IO

    def test_physics_error_is_three(self, tmp_path):
        # a negative sweep grid passes the JSON schema but is rejected by
        # the physics layer
        doc = base_config()
        doc["sweep"]["grid_per_mm"] = [1.0, 0.5]
        path = write_config(tmp_path, doc)
        assert main(["sweep", "--config", path,
                     "--out", str(tmp_path)]) == EXIT_PHYSICS

    def test_unknown_figure_lists_valid_ids(self, tmp_path, capsys):
        assert main(["reproduce", "figZZ",
                     "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        for fid in FIGURE_IDS:
            assert fid in err


class TestSimulate:
    def test_outputs_and_summary(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "run"
        assert main(["simulate", "--config", path,
                     "--out", str(out)]) == EXIT_OK
        assert (out / "trace.csv").exists()
        assert (out / "noise.csv").exists()
        printed = capsys.readouterr().out
        assert "efficiency at z=20 mm:" in printed
        eta = float(printed.strip().rsplit(" ", 1)[-1])
        assert 0.0 <= eta <= 1.0

    def test_rerun_byte_identical(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["simulate", "--config", path,
                         "--out", str(out)]) == EXIT_OK
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (out1 / "noise.csv").read_bytes() == (out2 / "noise.csv").read_bytes()

    def test_zero_amplitude_writes_zero_noise(self, tmp_path):
        doc = base_config()
        doc["noise"]["amplitude_per_mm"] = 0.0
        path = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_OK
        rows = (out / "noise.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 7 * 20
        assert all(float(r.split(",")[2]) == 0.0 for r in rows)

    @pytest.mark.parametrize("segments,per_segment", [(20, 20), (3, 134)])
    def test_sample_step_divides_the_segment(self, tmp_path, segments,
                                             per_segment):
        # 1 mm segments keep the 0.05 mm step; 20/3 mm ones take the
        # largest step below it that puts every segment end on the grid
        doc = base_config()
        doc["noise"]["segments"] = segments
        code, err, out = run_cli(tmp_path, "simulate", doc, "run")
        assert code == EXIT_OK, err
        z = np.unique(np.loadtxt(out / "trace.csv", delimiter=",",
                                 skiprows=1, usecols=0))
        assert len(z) == segments * per_segment + 1
        assert z[-1] == pytest.approx(20.0, abs=1e-12)
        if segments == 20:
            assert z[1] == dynamics.DEFAULT_FINE_STEP

    @pytest.mark.parametrize("length,expected", [(1e-12, EXIT_OK),
                                                 (5e-324, EXIT_PHYSICS)])
    def test_segment_shorter_than_the_step_is_one_sample(self, tmp_path,
                                                        length, expected):
        # 20 segments of 5e-14 mm are sampled at their ends; of 5e-324 mm
        # they underflow to zero length, which is rejected
        doc = base_config()
        doc["noise"]["total_length_mm"] = length
        code, err, out = run_cli(tmp_path, "simulate", doc, "run")
        assert code == expected, err
        if expected == EXIT_OK:
            z = np.unique(np.loadtxt(out / "trace.csv", delimiter=",",
                                     skiprows=1, usecols=0))
            assert len(z) == 21
            assert z[-1] == pytest.approx(length, rel=1e-12)
        else:
            assert "fine step" in err

    def test_seed_flag_overrides_config(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", path, "--out", str(out1)])
        main(["simulate", "--config", path, "--seed", "99",
              "--out", str(out2)])
        assert (out1 / "noise.csv").read_bytes() != (out2 / "noise.csv").read_bytes()


class TestSweep:
    def test_outputs_and_thread_independence(self, tmp_path):
        path = write_config(tmp_path, base_config())
        outs = []
        for threads in ("1", "2", "8"):
            out = tmp_path / f"t{threads}"
            assert main(["sweep", "--config", path, "--threads", threads,
                         "--out", str(out)]) == EXIT_OK
            outs.append(out)
        ref_raw = (outs[0] / "sweep_raw.csv").read_bytes()
        ref_sum = (outs[0] / "sweep_summary.csv").read_bytes()
        ref_man = (outs[0] / "manifest.json").read_bytes()
        for out in outs[1:]:
            assert (out / "sweep_raw.csv").read_bytes() == ref_raw
            assert (out / "sweep_summary.csv").read_bytes() == ref_sum
        manifest = json.loads(ref_man)
        assert manifest["seed"] == 3
        assert manifest["config"]["realizations"] == 2

    def test_sink_coupling_is_honoured(self, tmp_path):
        summaries = []
        for coupling in (0.2, 0.9):
            doc = base_config()
            doc["system"]["sink_coupling_per_mm"] = coupling
            doc["sweep"]["grid_per_mm"] = [0.0, 0.5]
            path = write_config(tmp_path, doc, name=f"c{coupling}.json")
            out = tmp_path / f"s{coupling}"
            assert main(["sweep", "--config", path, "--out", str(out)]) == EXIT_OK
            summaries.append((out / "sweep_summary.csv").read_bytes())
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["config"].get("sink_coupling", 0.2) == coupling
        assert summaries[0] != summaries[1]

    def test_total_length_sets_observation_length(self, tmp_path):
        summaries = []
        for total in (10.0, 20.0):
            doc = base_config()
            doc["noise"]["total_length_mm"] = total
            path = write_config(tmp_path, doc, name=f"t{total}.json")
            out = tmp_path / f"t{total}"
            assert main(["sweep", "--config", path, "--out", str(out)]) == EXIT_OK
            summaries.append((out / "sweep_summary.csv").read_bytes())
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["config"]["observe_z"] == total
        assert summaries[0] != summaries[1]

    def test_int_and_float_observe_z_write_identical_manifests(self, tmp_path):
        manifests = []
        for observe_z in (20, 20.0):
            doc = base_config()
            del doc["noise"]["total_length_mm"]
            doc["sweep"]["observe_z_mm"] = observe_z
            path = write_config(tmp_path, doc, name=f"z{observe_z!r}.json")
            out = tmp_path / f"z{observe_z!r}"
            assert main(["sweep", "--config", path, "--out", str(out)]) == EXIT_OK
            manifests.append((out / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]

    def test_total_length_agreeing_with_observe_z_runs(self, tmp_path):
        doc = base_config()
        doc["sweep"]["observe_z_mm"] = 20.0
        path = write_config(tmp_path, doc)
        assert main(["sweep", "--config", path,
                     "--out", str(tmp_path / "run")]) == EXIT_OK

    def test_total_length_conflicting_with_observe_z_exits_two(
            self, tmp_path, capsys):
        doc = base_config()
        doc["sweep"]["observe_z_mm"] = 10.0
        path = write_config(tmp_path, doc)
        assert main(["sweep", "--config", path,
                     "--out", str(tmp_path / "run")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "observe_z_mm" in err and "total_length_mm" in err
        assert not (tmp_path / "run").exists()

    def test_format_flag_is_gone(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", path, "--format", "json",
                  "--out", str(tmp_path / "run")])
        assert exc.value.code == EXIT_CONFIG
        assert "--format" in capsys.readouterr().err

    def test_summary_consistent_with_raw(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "run"
        main(["sweep", "--config", path, "--out", str(out)])
        raw = (out / "sweep_raw.csv").read_text().strip().split("\n")[1:]
        summary = (out / "sweep_summary.csv").read_text().strip().split("\n")[1:]
        by_grid = {}
        for line in raw:
            g, _, v = line.split(",")
            by_grid.setdefault(g, []).append(float(v))
        for line in summary:
            g, m, _ = line.split(",")
            assert float(m) == pytest.approx(np.mean(by_grid[g]), rel=1e-12)


class TestReproduce:
    def test_figS9_outputs(self, tmp_path):
        out = tmp_path / "s9"
        assert main(["reproduce", "figS9", "--out", str(out)]) == EXIT_OK
        files = sorted(p.name for p in out.iterdir())
        assert "figS9_gamma0.csv" in files
        assert "figS9_gamma100.csv" in files

    def test_fig3b_with_small_ensemble(self, tmp_path, capsys):
        out = tmp_path / "f3b"
        assert main(["reproduce", "fig3b", "--realizations", "3",
                     "--out", str(out)]) == EXIT_OK
        assert (out / "fig3b_points.csv").exists()
        assert (out / "fig3b_fit.csv").exists()
        printed = capsys.readouterr().out
        assert "R^2" in printed


class TestAnalyzeImage:
    def write_image(self, tmp_path):
        img = np.zeros((40, 60))
        img[20, 10] = 30.0
        img[10:20, 40:50] = 0.7
        path = tmp_path / "img.txt"
        np.savetxt(path, img)
        return str(path)

    def test_known_split(self, tmp_path, capsys):
        path = self.write_image(tmp_path)
        assert main(["analyze-image", path, "--ellipse", "10,20,5,5",
                     "--rect", "40,10,10,10"]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "efficiency: 0.7" in printed

    def test_overlap_rejected(self, tmp_path):
        path = self.write_image(tmp_path)
        assert main(["analyze-image", path, "--ellipse", "42,12,5,5",
                     "--rect", "40,10,10,10"]) == EXIT_PHYSICS

    def test_malformed_region_flag(self, tmp_path):
        path = self.write_image(tmp_path)
        assert main(["analyze-image", path, "--ellipse", "1,2,3",
                     "--rect", "40,10,10,10"]) == EXIT_CONFIG

    def test_ragged_image_rejected(self, tmp_path):
        path = tmp_path / "img.txt"
        path.write_text("1 2 3\n4 5\n")
        assert main(["analyze-image", str(path), "--ellipse", "1,1,1,1",
                     "--rect", "2,2,1,1"]) == EXIT_PHYSICS


class TestChipPlan:
    def test_seven_waveguide_plan(self, tmp_path, capsys):
        doc = base_config()
        doc["system"] = {"include_weak_couplings": False}
        path = write_config(tmp_path, doc)
        out = tmp_path / "plan"
        assert main(["chip-plan", "--config", path,
                     "--out", str(out)]) == EXIT_OK
        text = (out / "chip_plan.csv").read_text().strip().split("\n")
        spacing_rows = [l for l in text if l.split(",")[0] == "spacing"]
        assert len(spacing_rows) == 7
        printed = capsys.readouterr().out
        assert "max speed detuning" in printed


def run_cli(tmp_path, command, doc, name, *extra):
    """Exit code, stderr and output directory of one CLI run on ``doc``."""
    path = write_config(tmp_path, doc, name=f"{name}.json")
    out = tmp_path / name
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", path, "--out", str(out), *extra])
    return code, err.getvalue(), out


def leaf_keys(schema, section=None):
    """(section, key) of every leaf of a config schema; top level is None."""
    for key, sub in schema["properties"].items():
        if "properties" in sub:
            yield from leaf_keys(sub, key)
        else:
            yield (section, key)


class TestOneReading:
    """simulate, sweep and chip-plan read a document through one table."""

    def test_every_schema_key_is_read_or_listed_unread(self):
        leaves = set(leaf_keys(CONFIG_SCHEMA))
        unread = set().union(*UNREAD_KEYS.values())
        assert leaves == set(CONFIG_KEYS)
        drawn = {(s, k) for s, keys in _SECTIONS.items() for k in keys}
        assert drawn | {(None, "seed"), (None, "schema_version")} == leaves
        assert unread <= leaves
        fields = {f.name for f in dataclasses.fields(SweepConfig)}
        fmo_fields = {f.name for f in dataclasses.fields(model.FmoSpec)}
        for name in CONFIG_KEYS.values():
            assert (name in (None, "amplitude") or name in fields
                    or name.removeprefix("fmo.") in fmo_fields), name

    @pytest.mark.parametrize("where,key,value", [
        ("sweep", "disorder_per_mm", 10.0),
        ("sweep", "coupling_correction", True)])
    def test_simulate_honours_disorder_and_correction(self, tmp_path, where,
                                                       key, value):
        doc = base_config()
        doc["noise"]["amplitude_per_mm"] = 1.0
        code, _, plain = run_cli(tmp_path, "simulate", doc, "plain")
        assert code == EXIT_OK
        doc[where][key] = value
        code, _, changed = run_cli(tmp_path, "simulate", doc, "changed")
        assert code == EXIT_OK
        assert ((plain / "trace.csv").read_bytes()
                != (changed / "trace.csv").read_bytes())

    def test_simulate_matches_hand_built_oracle(self, tmp_path):
        # oracle: the system, noise and trace built step by step from the
        # model, noise and dynamics calls
        doc = base_config()
        doc["system"].update(with_vibration=True, sink_coupling_per_mm=0.3,
                             coupling_scale=0.2)
        doc["noise"] = {"kind": "colored", "amplitude_per_mm": 0.7,
                        "segments": 10, "total_length_mm": 10,
                        "filter_time_scale": 0.5}
        code, _, out = run_cli(tmp_path, "simulate", doc, "run", "--seed", "8")
        assert code == EXIT_OK
        h = model.attach_vibrational_mode(
            model.build_fmo_hamiltonian(model.FmoSpec(coupling_scale=0.2)))
        h = model.attach_sink(h, 10, drain_coupling=0.3, internal_coupling=0.3)
        det = noise.generate(noise.NoiseConfig(
            kind="colored", amplitude=0.7, segments=10, total_length=10,
            seed=8, filter_time_scale=0.5), n_sites=7)
        tr = dynamics.evolve(dynamics.PiecewiseHamiltonian(
            h, det, segment_length=1.0, total_length=10))
        dynamics.write_trace_csv(tr, tmp_path / "trace.csv")
        noise.write_noise_csv(det, tmp_path / "noise.csv")
        for name in ("trace.csv", "noise.csv"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_chip_plan_matches_hand_built_oracle(self, tmp_path):
        doc = base_config()
        doc["system"] = {"with_vibration": True, "coupling_scale": 0.1}
        doc["noise"]["kind"] = "exponential"
        code, _, out = run_cli(tmp_path, "chip-plan", doc, "run")
        assert code == EXIT_OK
        h = model.attach_vibrational_mode(
            model.build_fmo_hamiltonian(model.FmoSpec(coupling_scale=0.1)))
        det = noise.generate(noise.NoiseConfig(
            kind="exponential", amplitude=0.5, segments=20, total_length=20.0,
            seed=3), n_sites=7)
        model.write_chip_plan(model.export_chip_plan(h, det),
                              tmp_path / "chip_plan.csv")
        assert ((out / "chip_plan.csv").read_bytes()
                == (tmp_path / "chip_plan.csv").read_bytes())

    @pytest.mark.parametrize("command,name", [("simulate", "noise.csv"),
                                              ("chip-plan", "chip_plan.csv")])
    def test_missing_noise_kind_means_uniform_white(self, tmp_path, command,
                                                    name):
        doc = base_config()
        code, _, given_kind = run_cli(tmp_path, command, doc, "given")
        del doc["noise"]["kind"]
        code2, _, default_kind = run_cli(tmp_path, command, doc, "default")
        assert code == code2 == EXIT_OK
        assert ((given_kind / name).read_bytes()
                == (default_kind / name).read_bytes())

    @pytest.mark.parametrize("command,unread", [
        ("sweep", ["noise.amplitude_per_mm"]),
        ("simulate", ["sweep.grid_per_mm", "sweep.realizations"]),
        ("chip-plan", ["system.sink_length", "system.sink_coupling_per_mm",
                       "sweep.grid_per_mm", "sweep.realizations",
                       "sweep.disorder_per_mm", "sweep.coupling_correction"])])
    def test_unread_key_gets_one_note_and_runs(self, tmp_path, command,
                                               unread):
        doc = base_config()
        doc["system"]["sink_coupling_per_mm"] = 0.3
        doc["sweep"].update(disorder_per_mm=1.0, coupling_correction=True)
        code, err, _ = run_cli(tmp_path, command, doc, "run")
        assert code == EXIT_OK
        notes = [line for line in err.splitlines() if line.startswith("note:")]
        assert sorted(notes) == sorted(
            f"note: {command} does not read {key}; ignored" for key in unread)

    @pytest.mark.parametrize("command", ["simulate", "chip-plan"])
    def test_unread_key_does_not_reject(self, tmp_path, command):
        doc = base_config()
        doc["sweep"]["grid_per_mm"] = [1.0, 0.5]
        code, err, _ = run_cli(tmp_path, command, doc, "run")
        assert code == EXIT_OK
        assert "sweep.grid_per_mm; ignored" in err

    @pytest.mark.parametrize("command", ["simulate", "chip-plan"])
    def test_observe_z_conflict_exits_two(self, tmp_path, command):
        doc = base_config()
        doc["sweep"]["observe_z_mm"] = 10.0
        code, err, out = run_cli(tmp_path, command, doc, "run")
        assert code == EXIT_CONFIG
        assert "observe_z_mm" in err and "total_length_mm" in err
        assert not out.exists()


class TestPhysicsRejections:
    """A schema-valid document that cannot run exits 3 with a message: a
    series or a trace too large to allocate, or detunings not finite."""

    @pytest.mark.parametrize("sweep", [
        {"grid_per_mm": [0.5], "realizations": 1, "observe_z_mm": 1e300},
        {"grid_per_mm": [1e300], "realizations": 1}])
    def test_sweep_exits_three(self, tmp_path, sweep):
        doc = {"schema_version": 1, "sweep": sweep, "noise": {"segments": 2},
               "system": {"sink_length": 10}}
        code, err, _ = run_cli(tmp_path, "sweep", doc, "run")
        assert code == EXIT_PHYSICS
        assert "Chebyshev series" in err

    @pytest.mark.parametrize("command", ["simulate", "sweep", "chip-plan"])
    def test_non_finite_colored_filter_exits_three(self, tmp_path, command):
        doc = base_config()
        doc["noise"].update(kind="colored", filter_time_scale=1e300)
        with np.errstate(all="ignore"):
            code, err, out = run_cli(tmp_path, command, doc, "run")
        assert code == EXIT_PHYSICS
        assert "not finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("time_scale", [1e300, 5e-324])
    def test_non_finite_colored_filter_prints_no_warning(self, tmp_path,
                                                         time_scale):
        # a fresh process, so that no warning filter hides numpy's
        doc = base_config()
        doc["noise"].update(kind="colored", filter_time_scale=time_scale)
        path = write_config(tmp_path, doc)
        src = str(Path(fmosim.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        env.pop("PYTHONWARNINGS", None)
        done = subprocess.run(
            [sys.executable, "-m", "fmosim.cli", "simulate", "--config", path,
             "--out", str(tmp_path / "run")],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == EXIT_PHYSICS
        assert "not finite" in done.stderr
        assert "RuntimeWarning" not in done.stderr

    def test_simulate_exits_three(self, tmp_path):
        doc = {"schema_version": 1, "sweep": {"observe_z_mm": 1e300},
               "noise": {"segments": 2}, "system": {"sink_length": 10}}
        code, err, _ = run_cli(tmp_path, "simulate", doc, "run")
        assert code == EXIT_PHYSICS
        assert "samples" in err


def _number(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# Documents drawn over CONFIG_SCHEMA's keys, with values of the schema's
# types, in and out of its ranges.  The bounds on the magnitudes (sink
# length, amplitudes, disorder, lengths, couplings, realizations) only keep
# each run short; they hide no failure.
_SECTIONS = {
    "system": {
        "coupling_scale": _number(-1.0, 2.0),
        "site_energy_scale": _number(-1.0, 1.0),
        "unit_conversion": _number(-1.0, 1.0),
        "include_weak_couplings": st.booleans(),
        "sink_length": st.integers(0, 30),
        "sink_coupling_per_mm": _number(0.0, 100.0),
        "with_vibration": st.booleans(),
    },
    "noise": {
        "kind": st.sampled_from(noise.NOISE_KINDS),
        "amplitude_per_mm": _number(-1.0, 100.0),
        "segments": st.integers(0, 40),
        "total_length_mm": _number(0.0, 20.0),
        "filter_time_scale": _number(0.0, 100.0),
    },
    "sweep": {
        "grid_per_mm": st.lists(_number(-1.0, 100.0), max_size=3),
        "realizations": st.integers(0, 2),
        "disorder_per_mm": _number(-1.0, 100.0),
        "observe_z_mm": _number(0.0, 20.0),
        "coupling_correction": st.booleans(),
    },
}

documents = st.fixed_dictionaries(
    {"schema_version": st.just(1)},
    optional={"seed": st.integers(0, 2 ** 64),
              **{name: st.fixed_dictionaries({}, optional=keys)
                 for name, keys in _SECTIONS.items()}})


@settings(max_examples=40, deadline=None, derandomize=True)
@given(doc=documents)
def test_drawn_documents_exit_with_a_documented_code(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), doc)
        for command in ("simulate", "sweep", "chip-plan"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "--config", path,
                             "--out", os.path.join(tmp, command)])
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_PHYSICS, EXIT_IO)
            assert "Traceback" not in err.getvalue()


def test_runtime_imports_no_scipy():
    src = str(Path(fmosim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, fmosim.cli, fmosim.experiments; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
