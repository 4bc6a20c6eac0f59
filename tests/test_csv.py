"""Golden bytes of every CSV table fmosim writes, on tiny hand-built inputs.

Each writer's output is pinned byte for byte: the header row, the ``\\r\\n``
line ends, the precision (``.15g`` for sweep and reproduce tables, ``.17g``
for trace, noise and chip-plan files) and the blank fields of the plan
and of the trace's sink rows.
"""

import contextlib
import io

import numpy as np

from fmosim import dynamics, experiments, model, noise
from fmosim.cli import main


SWEEP_RAW = (b"grid_value,realization,efficiency\r\n"
             b"0,0,0.333333333333333\r\n"
             b"0,1,0.333333333333333\r\n"
             b"0.1,0,-0.166666666666667\r\n"
             b"0.1,1,1.16666666666667\r\n")
SWEEP_SUMMARY = (b"grid_value,mean,std\r\n"
                 b"0,0.333333333333333,0\r\n"
                 b"0.1,0.5,0.666666666666667\r\n")


def fake_sweep():
    """A two-point sweep of two realizations each, whose means are 1/3 and
    0.5 and whose stds are 0 and 2/3."""
    return experiments.SweepResult(grid=[0.0, 0.1],
                                   values=[[1 / 3, 1 / 3], [-1 / 6, 7 / 6]])


def test_sweep_tables(tmp_path):
    experiments.write_sweep_csv(fake_sweep(), tmp_path / "raw.csv",
                                tmp_path / "summary.csv")
    assert (tmp_path / "raw.csv").read_bytes() == SWEEP_RAW
    assert (tmp_path / "summary.csv").read_bytes() == SWEEP_SUMMARY


def test_trace_table(tmp_path):
    # one network row, then the two sink rows' summed weight:
    # 1/16 + 1/9 + 1/4 at the second sample
    tr = dynamics.EvolutionTrace(
        [[1.0, 0.0, 0.0], [np.sqrt(0.5), 0.25 + 1j / 3, -0.5j]], 0.1, (0,),
        (1, 2))
    dynamics.write_trace_csv(tr, tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == (
        b"z_mm,site_index,re,im,probability\r\n"
        b"0,0,1,0,1\r\n"
        b"0,sink,,,0\r\n"
        b"0.10000000000000001,0,0.70710678118654757,0,0.50000000000000011\r\n"
        b"0.10000000000000001,sink,,,0.4236111111111111\r\n")


def test_noise_table(tmp_path):
    nr = noise.NoiseRealization([[0.1, -1 / 3], [0.0, 2.5]],
                                noise.NoiseConfig())
    noise.write_noise_csv(nr, tmp_path / "noise.csv")
    assert (tmp_path / "noise.csv").read_bytes() == (
        b"site,segment_index,delta_beta\r\n"
        b"1,0,0.10000000000000001\r\n"
        b"1,1,-0.33333333333333331\r\n"
        b"2,0,0\r\n"
        b"2,1,2.5\r\n")


def test_chip_plan_table(tmp_path):
    rows = [model.ChipPlanRow("spacing", 1, 2, -1, 0.1, "um"),
            model.ChipPlanRow("speed", 3, -1, 0, -1 / 3, "mm/s")]
    model.write_chip_plan(rows, tmp_path / "plan.csv")
    assert (tmp_path / "plan.csv").read_bytes() == (
        b"record_type,site_a,site_b,segment_index,value,unit\r\n"
        b"spacing,1,2,,0.10000000000000001,um\r\n"
        b"speed,3,,0,-0.33333333333333331,mm/s\r\n")


def test_reproduce_tables(tmp_path, monkeypatch):
    sweep = fake_sweep()
    monkeypatch.setattr(
        experiments, "noise_distribution_comparison",
        lambda cfg: ({"colored": sweep}, {"colored": 1 / 3}))
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["reproduce", "figS16", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "figS16_distributions.csv").read_bytes() == (
        b"kind,amplitude,mean,std\r\n"
        b"colored,0,0.333333333333333,0\r\n"
        b"colored,0.1,0.5,0.666666666666667\r\n")
    assert (tmp_path / "figS16_profile_means.csv").read_bytes() == (
        b"kind,normalized_mean\r\n"
        b"colored,0.333333333333333\r\n")


def test_reproduce_segment_table(tmp_path, monkeypatch):
    sweep = fake_sweep()
    monkeypatch.setattr(experiments, "segment_count_study",
                        lambda cfg: {10: sweep, 80: sweep})
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["reproduce", "figS15", "--out", str(tmp_path)])
    assert code == 0
    assert [p.name for p in tmp_path.iterdir()] == ["figS15_segments.csv"]
    assert (tmp_path / "figS15_segments.csv").read_bytes() == (
        b"segments,amplitude,mean,std\r\n"
        b"10,0,0.333333333333333,0\r\n"
        b"10,0.1,0.5,0.666666666666667\r\n"
        b"80,0,0.333333333333333,0\r\n"
        b"80,0.1,0.5,0.666666666666667\r\n")


def test_reproduce_sweep_tables(tmp_path, monkeypatch):
    res = fake_sweep()
    monkeypatch.setattr(experiments, "sweep_dephasing", lambda cfg: res)
    expected = {"fig4e": (["fig4e"], "argmax grid value: 0.1\n"),
                "figS8": (["figS8_gamma0", "figS8_gamma10", "figS8_gamma100"],
                          "gamma=0: argmax 0.1\ngamma=10: argmax 0.1\n"
                          "gamma=100: argmax 0.1\n")}
    for fig, (tags, printed) in expected.items():
        out, stdout = tmp_path / fig, io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["reproduce", fig, "--out", str(out)])
        assert code == 0
        assert stdout.getvalue() == printed
        assert sorted(p.name for p in out.iterdir()) == sorted(
            f"{tag}_{part}.csv" for tag in tags for part in ("raw", "summary"))
        for tag in tags:
            assert (out / f"{tag}_raw.csv").read_bytes() == SWEEP_RAW
            assert (out / f"{tag}_summary.csv").read_bytes() == SWEEP_SUMMARY
