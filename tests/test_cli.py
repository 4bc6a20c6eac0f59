"""Tests for the command-line front end: exit codes, config validation,
output artifacts, and rerun determinism."""

import contextlib
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fmosim

from fmosim import analysis, dynamics, experiments, model, noise
from fmosim.cli import (
    CONFIG_KEYS,
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


#: Values of the wrong JSON type for each type of CONFIG_KEYS.
WRONG_TYPES = {
    "integer": [True, 2.0, "2", None],
    "number": [True, "1", [1.0], None],
    "boolean": [1, "true", None],
    "noise kind": ["pink", True, 0],
    "numbers": [True, 0.5, [True], ["0.5"]],
}


def bound_edges(row):
    """(a value just past the bound of ``row``, the value at its edge that
    loads)."""
    if row.op == ">":
        return row.limit, math.nextafter(row.limit, math.inf)
    if row.op == "==":
        return row.limit + 1, row.limit
    below = math.nextafter(row.limit, -math.inf)
    return (row.limit - 1 if row.type == "integer" else below), row.limit


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

    @pytest.mark.parametrize("command", ["sweep", "simulate", "chip-plan"])
    @pytest.mark.parametrize("key,text", [
        ("seed", '"seed": 1, "seed": 4, "sweep": {"realizations": 2}'),
        ("realizations", '"seed": 1, "sweep": {"realizations": 2, '
                         '"realizations": 3}')], ids=["top-level", "section"])
    def test_repeated_key_exits_two(self, tmp_path, capsys, command, key,
                                    text):
        # json.load alone keeps the last value of a repeated key
        path = tmp_path / "cfg.json"
        path.write_text('{"schema_version": 1, "system": {"sink_length": 10}, '
                        '"noise": {"segments": 4, "total_length_mm": 4.0}, '
                        + text + "}")
        assert main([command, "--config", str(path),
                     "--out", str(tmp_path / "run")]) == EXIT_CONFIG
        assert f'key "{key}" is given twice' in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_bad_noise_kind_rejected(self, tmp_path):
        doc = base_config()
        doc["noise"]["kind"] = "pink"
        path = write_config(tmp_path, doc)
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("section,key", CONFIG_KEYS, ids=[
        f"{section}.{key}" if section else key for section, key in CONFIG_KEYS])
    def test_every_key_checks_its_type_and_bound(self, tmp_path, capsys,
                                                 section, key):
        row = CONFIG_KEYS[section, key]
        where = f"{section}/{key}" if section else key
        cases = [(value, f"at {where}: {json.dumps(value)} is not")
                 for value in WRONG_TYPES[row.type]]
        if row.op:
            past, edge = bound_edges(row)
            cases.append((past, f"at {where}: must be {row.op} {row.limit}"))
        for i, (value, message) in enumerate(cases):
            doc = base_config()
            (doc[section] if section else doc)[key] = value
            path = write_config(tmp_path, doc)
            out = tmp_path / f"run{i}"
            assert main(["sweep", "--config", path,
                         "--out", str(out)]) == EXIT_CONFIG
            assert f"{path}: {message}" in capsys.readouterr().err
            assert not out.exists()
        if row.op:
            doc = base_config()
            (doc[section] if section else doc)[key] = edge
            load_config(write_config(tmp_path, doc))

    @pytest.mark.parametrize("text,message", [
        ("[1]", "at (top level): must be a JSON object"),
        ('{"seed": 1}', "at (top level): schema_version is required"),
        ('{"schema_version": 1, "noise": [1]}',
         "at noise: must be a JSON object"),
        ('{"schema_version": 1, "seeds": 1}', "at seeds: unknown key"),
        ('{"schema_version": 1, "sweep": {"grid_per_mm": []}}',
         "at sweep/grid_per_mm: [] is not a non-empty list of numbers"),
        # the first failing key in document order is the one reported
        ('{"schema_version": 1, "sweep": {"realizations": 0}, '
         '"noise": {"segments": "20"}}',
         "at sweep/realizations: must be >= 1, got 0"),
        ('{"schema_version": 1, "noise": {"segments": "20"}, '
         '"sweep": {"realizations": 0}}',
         'at noise/segments: "20" is not an integer')],
        ids=["top-level", "required", "section", "unknown", "empty-grid",
             "first-of-two", "first-of-two-reversed"])
    def test_document_shape_exits_two(self, tmp_path, capsys, text, message):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert main(["sweep", "--config", str(path),
                     "--out", str(tmp_path / "run")]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"configuration error: {path}: {message}\n")

    @pytest.mark.parametrize("command", ["sweep", "simulate", "chip-plan"])
    @pytest.mark.parametrize("section,key", [
        ("system", "sink_length"), ("noise", "segments"),
        ("sweep", "realizations"), (None, "seed")],
        ids=["sink_length", "segments", "realizations", "seed"])
    def test_integral_float_at_integer_key_exits_two(self, tmp_path, command,
                                                     section, key):
        doc = base_config()
        part = doc[section] if section else doc
        part[key] = float(part[key])
        code, err, out = run_cli(tmp_path, command, doc, "run")
        assert code == EXIT_CONFIG
        where = f"{section}/{key}" if section else key
        assert f"at {where}: {part[key]!r} is not an integer" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "simulate", "chip-plan"])
    @pytest.mark.parametrize("section,key,value", [
        ("sweep", "observe_z_mm", 10 ** 400),
        ("sweep", "grid_per_mm", [0.0, 10 ** 400]),
        ("noise", "amplitude_per_mm", 10 ** 400)],
        ids=["observe_z", "grid-item", "amplitude"])
    def test_integer_too_large_for_a_float_exits_two(self, tmp_path, command,
                                                     section, key, value):
        doc = base_config()
        doc[section][key] = value
        code, err, out = run_cli(tmp_path, command, doc, "run")
        assert code == EXIT_CONFIG
        assert f"at {section}/{key}: non-finite number" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "simulate", "chip-plan"])
    @pytest.mark.parametrize("text,message", [
        (b'{"schema_version": 1, "seed": ' + b"1" * 5000 + b"}",
         "invalid JSON: Exceeds the limit"),
        (b'{"schema_version": 1, "seed": 0, "note": "\xff"}',
         "invalid JSON: 'utf-8' codec"),
        (b'{"schema_version": 1, "sweep": ' + b"[" * 200_000
         + b"]" * 200_000 + b"}", "invalid JSON: maximum recursion")],
        ids=["5000-digit-seed", "byte-0xff", "nested-200000-deep"])
    def test_unreadable_document_exits_two(self, tmp_path, capsys, command,
                                           text, message):
        path = tmp_path / "cfg.json"
        path.write_bytes(text)
        out = tmp_path / "run"
        assert main([command, "--config", str(path),
                     "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {path}: {message}")
        assert not out.exists()

    def test_seed_of_any_size_loads(self, tmp_path):
        path = write_config(tmp_path, base_config(seed=10 ** 400))
        assert load_config(path)["seed"] == 10 ** 400


class TestExitCodes:
    def test_config_error_is_two(self, tmp_path):
        path = write_config(tmp_path, base_config(schema_version=99))
        assert main(["simulate", "--config", path,
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == EXIT_IO

    def test_negative_grid_value_is_three(self, tmp_path, capsys):
        doc = base_config()
        doc["sweep"]["grid_per_mm"] = [-0.5, 0.5]
        path = write_config(tmp_path, doc)
        assert main(["sweep", "--config", path,
                     "--out", str(tmp_path / "run")]) == EXIT_PHYSICS
        assert "amplitude must be finite and nonnegative" in (
            capsys.readouterr().err)

    def test_physics_error_is_three(self, tmp_path):
        # a descending sweep grid passes the key table but is rejected by
        # the physics layer
        doc = base_config()
        doc["sweep"]["grid_per_mm"] = [1.0, 0.5]
        path = write_config(tmp_path, doc)
        assert main(["sweep", "--config", path,
                     "--out", str(tmp_path)]) == EXIT_PHYSICS

    @pytest.mark.parametrize("argv", [
        ["sweep", "--seed", "-1"], ["simulate", "--seed", "-1"],
        ["chip-plan", "--seed", "-1"], ["reproduce", "figS9", "--seed", "-1"],
        ["reproduce", "fig4e", "--realizations", "0"],
        ["simulate", "--stride", "0"]], ids=" ".join)
    def test_out_of_range_flag_exits_two_before_any_work(
            self, tmp_path, capsys, argv):
        flag = argv[-2]
        if argv[0] != "reproduce":
            argv = argv + ["--config", write_config(tmp_path, base_config())]
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{flag}: must be >=" in err and "Traceback" not in err
        assert not out.exists()

    def test_unknown_figure_lists_valid_ids(self, tmp_path, capsys):
        assert main(["reproduce", "figZZ",
                     "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        for fid in FIGURE_IDS:
            assert fid in err

    # lengths past model.MAX_SINK_LENGTH (a 6.94 EiB matrix as a dense
    # chip, and one past numpy's size limit): a study builds only the 18
    # sink waveguides the light cone of the 20 mm chip reaches
    @pytest.mark.parametrize("length", [10 ** 9, 10 ** 10])
    @pytest.mark.parametrize("command,table", [("simulate", "trace.csv"),
                                               ("sweep", "sweep_summary.csv")])
    def test_any_sink_length_runs(self, tmp_path, command, table, length):
        runs = {}
        for n in (100, length):
            doc = {"schema_version": 1, "system": {"sink_length": n}}
            code, err, out = run_cli(tmp_path, command, doc, f"run{n}")
            assert code == EXIT_OK and err == ""
            runs[n] = (out / table).read_bytes()
        assert runs[length] == runs[100]

    # a light cone that never reaches the sink chain: every depth is 0, so
    # the study's chip holds one sink waveguide, the fewest a chip has
    @pytest.mark.parametrize("section,values", [
        ("system", {"sink_coupling_per_mm": 1e-20}),
        ("noise", {"segments": 1, "total_length_mm": 1e-300}),
        ("sweep", {"observe_z_mm": 1e-320})],
        ids=["coupling-1e-20", "length-1e-300", "observe-z-1e-320"])
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_light_cone_short_of_the_chain_runs(self, tmp_path, command,
                                                section, values):
        doc = {"schema_version": 1, section: values}
        code, err, _ = run_cli(tmp_path, command, doc, "run")
        assert code == EXIT_OK and err == ""


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

    @pytest.mark.parametrize("vibration", [False, True])
    def test_sink_rows_end_on_the_printed_efficiency(self, tmp_path, capsys,
                                                     vibration):
        # each sample lists the waveguides outside the chain, the mode
        # included, then the chain's total weight, which over the sample's
        # total weight is the sink fraction
        doc = base_config()
        doc["system"].update(sink_length=100, with_vibration=vibration)
        path = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["simulate", "--config", path,
                     "--out", str(out)]) == EXIT_OK
        eta = float(capsys.readouterr().out.strip().rsplit(" ", 1)[-1])
        with open(out / "trace.csv", newline="", encoding="utf-8") as f:
            _, *rows = csv.reader(f)
        samples = [list(g) for _, g in itertools.groupby(rows, lambda r: r[0])]
        assert len(samples) == 20 * 20 + 1
        for sample in samples:
            assert [r[1] for r in sample] == [
                *map(str, range(7 + vibration)), "sink"]
            assert sample[-1][2:4] == ["", ""]
        fractions = [float(s[-1][4]) / sum(float(r[4]) for r in s)
                     for s in samples]
        assert fractions[0] == 0.0
        assert fractions[-1] == pytest.approx(eta, rel=1e-11)

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
            assert z[1] == experiments.DEFAULT_FINE_STEP

    @pytest.mark.parametrize("length,expected", [(1e-12, EXIT_OK),
                                                 (5e-324, EXIT_PHYSICS)])
    def test_segment_shorter_than_the_step_is_one_sample(self, tmp_path,
                                                        length, expected):
        # 20 segments of 5e-14 mm are sampled at their ends; of 5e-324 mm
        # they underflow to zero length, which is rejected as a segment
        # length, not as the sample step derived from it
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
            assert "segment length must be positive and finite" in err

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

    def test_seed_past_64_bits_runs(self, tmp_path):
        # the key table takes any nonnegative seed; 2**70 is three words
        path = write_config(tmp_path, base_config(seed=2**70))
        out = tmp_path / "run"
        assert main(["sweep", "--config", path, "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "manifest.json").read_text())["seed"] == 2**70

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

    def test_figS9_builds_each_chip_through_apply_static_disorder(
            self, tmp_path, monkeypatch):
        calls = []
        apply = model.apply_static_disorder

        def spy(h, gamma, seed):
            calls.append((h.dim, gamma, seed))
            return apply(h, gamma, seed)

        monkeypatch.setattr(model, "apply_static_disorder", spy)
        assert main(["reproduce", "figS9", "--seed", "4",
                     "--out", str(tmp_path / "s9")]) == EXIT_OK
        assert calls == [(7, g, [4, int(g)])
                         for g in (0.0, 1.0, 5.0, 10.0, 50.0, 100.0)]

    def test_figS9_rows_are_each_strengths_own_disorder(self, tmp_path):
        out = tmp_path / "s9"
        assert main(["reproduce", "figS9", "--seed", "4", "--out", str(out)]) == EXIT_OK
        h7 = model.build_fmo_hamiltonian()
        for gamma in (0.0, 1.0, 5.0, 10.0, 50.0, 100.0):
            h = model.apply_static_disorder(h7, gamma, [4, int(gamma)])
            w, dist = analysis.eigen_site_distribution(h)
            expected = "".join(
                ",".join(f"{v:.15g}" for v in (w[a], *dist[:, a])) + "\r\n"
                for a in range(7))
            text = (out / f"figS9_gamma{gamma:g}.csv").read_bytes().decode()
            assert text.split("\r\n", 1)[1] == expected

    def test_fig3b_with_small_ensemble(self, tmp_path, capsys):
        out = tmp_path / "f3b"
        assert main(["reproduce", "fig3b", "--realizations", "3",
                     "--out", str(out)]) == EXIT_OK
        assert (out / "fig3b_points.csv").exists()
        assert (out / "fig3b_fit.csv").exists()
        printed = capsys.readouterr().out
        assert "R^2" in printed

    @pytest.mark.parametrize("fig", FIGURE_IDS)
    def test_realizations_note_only_where_unread(self, tmp_path, fig, capsys):
        assert main(["reproduce", fig, "--realizations", "1",
                     "--out", str(tmp_path / fig)]) == EXIT_OK
        notes = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("note:")]
        unread = fig in ("figS6", "figS7", "figS9")
        assert notes == ([f"note: reproduce {fig} does not read "
                          "--realizations; ignored"] if unread else [])

    @pytest.mark.parametrize("fig", ["figS6", "figS7", "figS9"])
    def test_unread_realizations_change_no_file(self, tmp_path, fig):
        runs = []
        for name, extra in (("plain", []), ("flag", ["--realizations", "50"])):
            out = tmp_path / name
            assert main(["reproduce", fig, "--out", str(out), *extra]) == EXIT_OK
            runs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert runs[0] and runs[0] == runs[1]


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

    @pytest.mark.parametrize("flags", [
        ["--background", "nan"], ["--background=-inf"],
        ["--background", "inf"], ["--ellipse", "nan,0,1,1"],
        ["--ellipse", "10,20,5,inf"], ["--rect", "40,10,-inf,10"]],
        ids=" ".join)
    def test_non_finite_flag_exits_two(self, tmp_path, capsys, flags):
        argv = ["analyze-image", self.write_image(tmp_path),
                "--ellipse", "10,20,5,5", "--rect", "40,10,10,10", *flags]
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"{flags[0].split('=')[0]}: non-finite value" in captured.err
        assert "efficiency" not in captured.out

    def test_non_finite_pixel_exits_three(self, tmp_path, capsys):
        path = tmp_path / "img.txt"
        path.write_text("1 2 3\n4 nan 6\n")
        assert main(["analyze-image", str(path), "--ellipse", "1,1,1,1",
                     "--rect", "2,0,1,1"]) == EXIT_PHYSICS
        assert "line 2: non-finite pixel value" in capsys.readouterr().err

    def test_non_utf8_image_exits_three(self, tmp_path, capsys):
        path = tmp_path / "img.txt"
        path.write_bytes(b"1 2\n3 \xff\n")
        assert main(["analyze-image", str(path), "--ellipse", "1,1,1,1",
                     "--rect", "2,0,1,1"]) == EXIT_PHYSICS
        assert f"{path}: not UTF-8 text" in capsys.readouterr().err


#: analyze-image flags that exit 2, with a fragment of the message.
ANALYZE_IMAGE_REJECTIONS = {
    "ellipse-non-numeric": (["--ellipse", "1,1,1,x"],
                            "--ellipse: non-numeric value"),
}


@pytest.mark.parametrize("flags, fragment", ANALYZE_IMAGE_REJECTIONS.values(),
                         ids=ANALYZE_IMAGE_REJECTIONS.keys())
def test_analyze_image_flag_exits_two(tmp_path, capsys, flags, fragment):
    path = tmp_path / "img.txt"
    path.write_text("1 2 3\n4 5 6\n")
    assert main(["analyze-image", str(path), "--ellipse", "1,1,1,1",
                 "--rect", "2,0,1,1", *flags]) == EXIT_CONFIG
    assert fragment in capsys.readouterr().err


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

    def test_infinite_writing_speed_exits_three(self, tmp_path):
        doc = {"schema_version": 1, "noise": {"amplitude_per_mm": 1e307}}
        code, err, out = run_cli(tmp_path, "chip-plan", doc, "plan")
        assert code == EXIT_PHYSICS
        assert "gives no finite writing speed" in err
        assert not (out / "chip_plan.csv").exists()

    def test_subnormal_coupling_exits_three(self, tmp_path):
        # the spacing of a coupling below about 2.6e-307 overflows to inf
        doc = base_config()
        doc["system"]["coupling_scale"] = 1e-320
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err, out = run_cli(tmp_path, "chip-plan", doc, "plan")
        assert code == EXIT_PHYSICS
        assert "cm^-1 is too small for a finite spacing" in err
        assert "Warning" not in err
        assert not (out / "chip_plan.csv").exists()


def run_cli(tmp_path, command, doc, name, *extra):
    """Exit code, stderr and output directory of one CLI run on ``doc``."""
    path = write_config(tmp_path, doc, name=f"{name}.json")
    out = tmp_path / name
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", path, "--out", str(out), *extra])
    return code, err.getvalue(), out


class TestOneReading:
    """simulate, sweep and chip-plan read a document through one table."""

    def test_every_schema_key_is_read_or_listed_unread(self):
        keys = set(CONFIG_KEYS)
        unread = set().union(*UNREAD_KEYS.values())
        drawn = {(s, k) for s, section in _SECTIONS.items() for k in section}
        assert drawn | {(None, "seed"), (None, "schema_version")} == keys
        assert unread <= keys
        fields = {f.name for f in dataclasses.fields(SweepConfig)}
        fmo_fields = {f.name for f in dataclasses.fields(model.FmoSpec)}
        for row in CONFIG_KEYS.values():
            assert (row.field in (None, "amplitude") or row.field in fields
                    or row.field.removeprefix("fmo.") in fmo_fields), row

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
        h = model.attach_sink(h, 10, coupling=0.3)
        det = noise.generate(noise.NoiseConfig(
            kind="colored", amplitude=0.7, segments=10, total_length=10,
            seed=8, filter_time_scale=0.5), n_sites=7)
        [tr] = dynamics.traces(h, det.sequences[None], 1.0, 20)
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
    """A document the key table accepts that cannot run exits 3 with a
    message: a series or a trace too large to allocate, or detunings not
    finite."""

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

    def test_non_finite_colored_filter_exits_three_at_zero_amplitude(
            self, tmp_path):
        doc = base_config()
        doc["noise"].update(kind="colored", filter_time_scale=1e300,
                            amplitude_per_mm=0.0)
        with np.errstate(all="ignore"):
            code, err, out = run_cli(tmp_path, "simulate", doc, "run")
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

    @pytest.mark.parametrize("length", [1e300, 1.7e308])
    def test_simulate_past_the_sample_cap_exits_three(self, tmp_path, length):
        # one segment of 1.7e308 mm: its default step count lies past the
        # float range, and it is rejected as 1e300 mm is
        doc = {"schema_version": 1, "sweep": {"observe_z_mm": length},
               "noise": {"segments": 1, "total_length_mm": length}}
        code, err, out = run_cli(tmp_path, "simulate", doc, "run")
        assert code == EXIT_PHYSICS
        assert err == (f"rejected: a trace of {length:g} mm would hold more "
                       "than 100000 samples\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_memory_refused_exits_three(self, tmp_path, monkeypatch, command):
        # a study whose arrays the host refuses: the refusal is simulated,
        # never provoked by a real allocation
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.45 GiB")
        # the kernel's plan, which allocates every array of a readout
        monkeypatch.setattr(dynamics, "_plan", refuse)
        doc = {"schema_version": 1, "system": {"sink_length": 10}}
        code, err, out = run_cli(tmp_path, command, doc, "run")
        assert code == EXIT_PHYSICS
        assert err.splitlines() == [
            "rejected: out of memory: Unable to allocate 7.45 GiB"]
        assert not out.exists()


def _integer(lo, hi):
    # an integral float is not a JSON integer
    return st.integers(lo, hi) | st.integers(lo, hi).map(float)


def _number(lo, hi):
    # an integer too large for a float is a non-finite number
    return (st.floats(lo, hi, allow_nan=False, allow_infinity=False)
            | st.integers(2 ** 1024, 2 ** 1100).map(
                lambda n: n if lo >= 0 else -n))


# Documents drawn over CONFIG_KEYS, with values of each key's type, in and
# out of its bounds.  The bounds on the magnitudes (sink length,
# amplitudes, disorder, lengths, couplings, realizations) only keep each
# run short; they hide no failure.
_SECTIONS = {
    "system": {
        "coupling_scale": _number(-1.0, 2.0),
        "site_energy_scale": _number(-1.0, 1.0),
        "unit_conversion": _number(-1.0, 1.0),
        "include_weak_couplings": st.booleans(),
        "sink_length": _integer(0, 30),
        "sink_coupling_per_mm": _number(0.0, 100.0),
        "with_vibration": st.booleans(),
    },
    "noise": {
        "kind": st.sampled_from(noise.NOISE_KINDS),
        "amplitude_per_mm": _number(-1.0, 100.0),
        "segments": _integer(0, 40),
        "total_length_mm": _number(0.0, 20.0),
        "filter_time_scale": _number(0.0, 100.0),
    },
    "sweep": {
        "grid_per_mm": st.lists(_number(-1.0, 100.0), max_size=3),
        "realizations": _integer(0, 2),
        "disorder_per_mm": _number(-1.0, 100.0),
        "observe_z_mm": _number(0.0, 20.0),
        "coupling_correction": st.booleans(),
    },
}

documents = st.fixed_dictionaries(
    {"schema_version": st.just(1)},
    optional={"seed": _integer(0, 2 ** 64),
              **{name: st.fixed_dictionaries({}, optional=keys)
                 for name, keys in _SECTIONS.items()}})


@settings(max_examples=100, deadline=None, derandomize=True)
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


def test_runtime_imports_no_scipy(tmp_path):
    # a sweep run end to end loads neither scipy nor jsonschema
    doc = {"schema_version": 1, "system": {"sink_length": 10},
           "noise": {"kind": "colored", "segments": 2, "total_length_mm": 2},
           "sweep": {"grid_per_mm": [0.0, 0.5], "realizations": 1}}
    argv = ["sweep", "--config", write_config(tmp_path, doc),
            "--out", str(tmp_path / "run")]
    src = str(Path(fmosim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys; from fmosim.cli import main; "
            f"assert main({argv!r}) == 0; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'jsonschema')))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_runs_in_one_process_match_fresh_processes(tmp_path, capsys):
    # the parser is built once a process, so one run must leave nothing
    # behind for the next: the flags of the first sweep (a seed, a thread
    # count) must not reach the second, which sets none
    doc = base_config()
    doc["noise"]["kind"] = "colored"
    doc["sweep"]["disorder_per_mm"] = 3.0
    path = write_config(tmp_path, doc)
    src = str(Path(fmosim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    runs = [("sweep", "--seed", "5", "--threads", "2"),
            ("simulate", "--stride", "2"), ("sweep",)]
    for k, (command, *flags) in enumerate(runs):
        argv = [command, "--config", path, *flags, "--out"]
        here, fresh = tmp_path / f"here{k}", tmp_path / f"fresh{k}"
        assert main(argv + [str(here)]) == EXIT_OK
        printed = capsys.readouterr()
        done = subprocess.run(
            [sys.executable, "-m", "fmosim.cli", *argv, str(fresh)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == EXIT_OK, done.stderr
        assert (done.stdout, done.stderr) == (printed.out, printed.err)
        names = sorted(p.name for p in here.iterdir())
        assert names == sorted(p.name for p in fresh.iterdir())
        for name in names:
            assert (here / name).read_bytes() == (fresh / name).read_bytes()
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"{fmosim.__version__}\n"
