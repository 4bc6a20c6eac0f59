"""The four benchmark studies: inputs built from a study seed, one call into
fmosim, and a check of the outputs against the stored reference.

Every study takes a master seed from a fixed pool (seeds 0 .. pool-1), so
the reference holds one output per pool seed.  ``tiny`` selects a reduced
size used by the self-test; it has its own, smaller reference pool.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from fmosim import experiments

#: Absolute tolerance of every reference comparison.  Efficiencies and the
#: noise statistics are O(1); the tolerance absorbs reordered floating-point
#: sums (BLAS threading, batched kernels) but not a changed result.
ATOL = 1e-8

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

FIG3B_GRID = tuple(round(0.1 * k, 10) for k in range(1, 11))
FIGS5_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
FIGS8_GAMMA10_GRID = tuple(float(g) for g in np.geomspace(0.3, 12.0, 11).round(6))


@dataclass(frozen=True)
class Study:
    """One workload's study: how to run it and how big it is."""

    threads: int        # worker threads the study asks fmosim for
    pool: int           # number of reference seeds
    realizations: int   # Monte Carlo realizations per study call
    run: Callable[[int, Path], dict]   # (seed, scratch dir) -> outputs


def _sweep_outputs(grid, means, argmax_value):
    grid = np.asarray(grid, dtype=float)
    return {"means": np.asarray(means, dtype=float),
            "argmax": np.array(int(np.argmin(np.abs(grid - argmax_value))))}


def _sweep_clean(tiny):
    cfg = experiments.SweepConfig(
        grid=(0.0, 0.5, 1.0) if tiny else experiments.DEFAULT_GRID,
        realizations=1 if tiny else 4, noise_kind="uniform_white",
        segments=20, sink_length=20 if tiny else 100, threads=1)

    def run(seed, _scratch):
        res = experiments.sweep_dephasing(replace(cfg, seed=seed))
        return _sweep_outputs(res.grid, res.means, res.argmax_value)

    return Study(threads=1, pool=4 if tiny else 64,
                 realizations=len(cfg.grid) * cfg.realizations, run=run)


def _sweep_disorder_cli(tiny):
    from fmosim import cli  # only this workload pays the CLI's import cost

    grid = FIGS8_GAMMA10_GRID[::5] if tiny else FIGS8_GAMMA10_GRID
    realizations = 1 if tiny else 4
    threads = 2

    def run(seed, scratch):
        doc = {"schema_version": 1,
               "system": {"sink_length": 20 if tiny else 80},
               "noise": {"kind": "colored", "segments": 20},
               "sweep": {"grid_per_mm": list(grid),
                         "realizations": realizations,
                         "disorder_per_mm": 10.0},
               "seed": seed}
        out = Path(tempfile.mkdtemp(prefix="cli-", dir=scratch))
        try:
            config = out / "config.json"
            config.write_text(json.dumps(doc), encoding="utf-8")
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                code = cli.main(["sweep", "--config", str(config),
                                 "--out", str(out / "run"),
                                 "--threads", str(threads)])
            if code != 0:
                raise RuntimeError(f"fmosim sweep exited with code {code}")
            rows = np.loadtxt(out / "run" / "sweep_summary.csv",
                              delimiter=",", skiprows=1, ndmin=2)
            argmax = float(printed.getvalue().rsplit(":", 1)[1])
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return _sweep_outputs(rows[:, 0], rows[:, 1], argmax)

    return Study(threads=threads, pool=4 if tiny else 64,
                 realizations=len(grid) * realizations, run=run)


def _vib_traces(tiny):
    cfg = experiments.SweepConfig(grid=(0.0, 0.6) if tiny else FIGS5_GRID,
                                  realizations=1 if tiny else 2,
                                  sink_length=20 if tiny else 100)

    def run(seed, _scratch):
        z, with_mode, without = experiments.vibrational_comparison(
            replace(cfg, seed=seed))
        return {"positions": np.asarray(z), "with": np.asarray(with_mode),
                "without": np.asarray(without)}

    # every realization is evolved twice: with and without the mode
    return Study(threads=1, pool=4 if tiny else 64,
                 realizations=2 * len(cfg.grid) * cfg.realizations, run=run)


def _reorg_noise(tiny):
    cfg = experiments.SweepConfig(noise_kind="colored",
                                  grid=FIG3B_GRID[::3] if tiny else FIG3B_GRID,
                                  realizations=3 if tiny else 100)

    def run(seed, _scratch):
        points, fit = experiments.reorganization_curve(replace(cfg, seed=seed))
        return {"points": np.asarray(points),
                "fit": np.array([fit.slope, fit.intercept, fit.r_squared])}

    return Study(threads=1, pool=4 if tiny else 128,
                 realizations=len(cfg.grid) * cfg.realizations, run=run)


STUDIES = {"sweep_clean": _sweep_clean,
            "sweep_disorder_cli": _sweep_disorder_cli,
            "vib_traces": _vib_traces,
            "reorg_noise": _reorg_noise}


def reference_path(name: str, tiny: bool) -> Path:
    return REFERENCE_DIR / f"{name}{'-tiny' if tiny else ''}.npz"


def load_reference(path: Path) -> dict:
    with np.load(path, allow_pickle=False) as data:
        return {k: data[k] for k in data.files}


def mismatches(outputs: dict, reference: dict, index: int) -> list:
    """Names of the outputs that differ from reference entry ``index``.

    A sweep's argmax may differ from the reference only where the two
    grid points' means tie within the tolerance; it counts as a mismatch
    whenever the means themselves are missing or have the wrong shape.
    """
    bad = []
    for key, stacked in reference.items():
        ref = stacked if key == "positions" else stacked[index]
        got = outputs.get(key)
        if got is None or np.shape(got) != np.shape(ref):
            bad.append(key)
        elif key == "argmax":
            means = outputs.get("means")
            if (np.shape(means) != np.shape(reference["means"][index])
                    or abs(means[int(got)] - means[int(ref)]) > ATOL):
                bad.append(key)
        elif not np.allclose(got, ref, rtol=0.0, atol=ATOL):
            bad.append(key)
    return bad
