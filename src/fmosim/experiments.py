"""Seeded Monte Carlo studies: dephasing sweeps under static disorder,
reorganization-energy curves, vibrational-assistance comparisons,
segment-count studies, noise-distribution comparisons, and excitation
traces.

Every study is deterministic given its master seed.  The per-realization
seeds are derived from (master seed, grid index, realization index), and
all the realizations of a study are evolved together as the columns of
one batch (dynamics.propagate), whose columns do not depend on each other.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import analysis, dynamics, noise as noise_mod
from .errors import PhysicsError
from .model import (DEFAULT_SINK_COUPLING, FmoSpec, Hamiltonian,
                    apply_static_disorder, attach_sink,
                    attach_vibrational_mode, build_fmo_hamiltonian,
                    static_disorder_shifts)

__all__ = ["SweepConfig", "SweepResult", "sweep_dephasing",
           "reorganization_curve", "vibrational_comparison",
           "segment_count_study", "noise_distribution_comparison",
           "excitation_trace_study", "network_hamiltonian", "noise_config",
           "single_trace", "write_sweep_csv", "write_manifest"]

DEFAULT_GRID = tuple(round(0.1 * k, 10) for k in range(11))


@dataclass(frozen=True)
class SweepConfig:
    """Parameters of one Monte Carlo sweep over detuning amplitude.

    ``sink_coupling`` (mm^-1) is both the drain-to-chain and the
    within-chain coupling of the sink.  ``threads`` is accepted for
    compatibility only: a study runs as one batch, so the value changes
    neither how it executes nor its results.
    """

    grid: tuple = DEFAULT_GRID
    realizations: int = 100
    fmo: FmoSpec = field(default_factory=FmoSpec)
    noise_kind: str = "uniform_white"
    disorder: float = 0.0
    observe_z: float = 20.0
    seed: int = 0
    sink_length: int = 100
    sink_coupling: float = DEFAULT_SINK_COUPLING
    segments: int = 20
    with_vibration: bool = False
    coupling_correction: bool = False
    filter_time_scale: float = 0.2
    threads: int = 1

    def __post_init__(self):
        if self.realizations < 1:
            raise PhysicsError("realizations must be >= 1")
        if not self.grid:
            raise PhysicsError("grid must be nonempty")
        if any(b < a for a, b in zip(self.grid, self.grid[1:])):
            raise PhysicsError("grid must be sorted ascending")
        for name in ("disorder", "observe_z", "sink_coupling",
                     "filter_time_scale"):
            # 20 and 20.0 are one study, so they must share a hash
            object.__setattr__(self, name, float(getattr(self, name)))
            if not math.isfinite(getattr(self, name)):
                raise PhysicsError(f"{name} must be finite")
        if not all(math.isfinite(g) for g in self.grid):
            raise PhysicsError("grid values must be finite")
        if self.disorder < 0:
            raise PhysicsError("disorder strength must be nonnegative")
        if self.observe_z <= 0:
            raise PhysicsError("observation length must be positive")
        if self.sink_coupling <= 0:
            raise PhysicsError("sink coupling must be positive")
        object.__setattr__(self, "grid", tuple(float(g) for g in self.grid))

    def canonical_dict(self) -> dict:
        d = asdict(self)
        # the thread count changes nothing, so it must not change the hash
        d.pop("threads")
        # left out at its default so that configs from before the field
        # existed keep their hashes
        if self.sink_coupling == DEFAULT_SINK_COUPLING:
            d.pop("sink_coupling")
        fd = asdict(self.fmo)
        fd["raw_hamiltonian"] = np.asarray(fd["raw_hamiltonian"]).tolist()
        d["fmo"] = fd
        return d

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class SweepResult:
    """Per-grid-point observable statistics plus raw realization values."""

    grid: np.ndarray
    means: np.ndarray
    stds: np.ndarray
    values: np.ndarray          # (len(grid), realizations)
    config_hash: str
    seed: int

    def __post_init__(self):
        for name in ("grid", "means", "stds", "values"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if np.any(self.stds < 0):
            raise PhysicsError("standard deviations must be nonnegative")

    @property
    def argmax_value(self) -> float:
        return float(self.grid[int(np.argmax(self.means))])


def network_hamiltonian(cfg: SweepConfig) -> Hamiltonian:
    """The seven network sites of ``cfg.fmo``, plus the vibration mode if
    ``cfg.with_vibration``; no sink."""
    h = build_fmo_hamiltonian(cfg.fmo)
    return attach_vibrational_mode(h) if cfg.with_vibration else h


def _base_hamiltonian(cfg: SweepConfig) -> Hamiltonian:
    return attach_sink(network_hamiltonian(cfg), cfg.sink_length,
                       drain_coupling=cfg.sink_coupling,
                       internal_coupling=cfg.sink_coupling)


def _noise_seed(master: int, grid_index: int, realization: int) -> int:
    ss = np.random.SeedSequence((master, grid_index, realization))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def noise_config(cfg: SweepConfig, amplitude: float,
                 seed: int) -> noise_mod.NoiseConfig:
    """The study's noise recipe at one amplitude, drawn from ``seed``."""
    return noise_mod.NoiseConfig(
        kind=cfg.noise_kind, amplitude=amplitude, segments=cfg.segments,
        total_length=cfg.observe_z, seed=seed,
        filter_time_scale=cfg.filter_time_scale)


def _noise_configs(cfg: SweepConfig, grid_indices):
    """Noise configs of every realization at the given grid points, grid
    point by grid point."""
    return [noise_config(cfg, cfg.grid[gi], _noise_seed(cfg.seed, gi, r))
            for gi in grid_indices for r in range(cfg.realizations)]


def _disorder_seed(cfg: SweepConfig, grid_index: int, realization: int):
    return [cfg.seed, grid_index, realization, 1]


def _evolve_study(cfg: SweepConfig, base: Hamiltonian, steps_per_segment: int):
    """States of all the study's realizations, grid point by grid point,
    one column each, at every step (see dynamics.propagate).  Static
    disorder shifts every waveguide's diagonal (``sites="all"``)."""
    diag = base.matrix.diagonal().real
    diagonals = np.stack(
        [diag + static_disorder_shifts(base.dim, cfg.disorder,
                                       _disorder_seed(cfg, gi, r))
         for gi in range(len(cfg.grid)) for r in range(cfg.realizations)],
        axis=1)
    detunings = noise_mod.generate_batch(
        _noise_configs(cfg, range(len(cfg.grid))), n_sites=len(base.fmo_indices))
    return dynamics.propagate(
        base, detunings, cfg.observe_z / cfg.segments,
        steps_per_segment, diagonals=diagonals,
        coupling_correction=cfg.coupling_correction)


def _sink_fraction(psi: np.ndarray, sink: np.ndarray) -> np.ndarray:
    p = psi.real ** 2 + psi.imag ** 2
    return p[sink].sum(axis=0) / p.sum(axis=0)


def _make_result(cfg: SweepConfig, values: np.ndarray) -> SweepResult:
    # the spread is taken about each row's first value, which is exact
    # (zero) when all the realizations agree, as at amplitude 0
    stds = (values - values[:, :1]).std(axis=1)
    return SweepResult(np.asarray(cfg.grid), values.mean(axis=1), stds,
                       values, cfg.config_hash(), cfg.seed)


def sweep_dephasing(cfg: SweepConfig) -> SweepResult:
    """Mean transport efficiency at z per detuning amplitude on the grid."""
    base = _base_hamiltonian(cfg)
    for psi in _evolve_study(cfg, base, 1):
        pass
    values = _sink_fraction(psi, base.sink_indices)
    return _make_result(cfg, values.reshape(len(cfg.grid), cfg.realizations))


def reorganization_curve(cfg: SweepConfig):
    """(variance, reorganization energy) pairs over the grid plus their fit.

    Pure noise post-processing: sequences are generated at each amplitude,
    their variance and periodogram-based reorganization energy averaged
    over sites and realizations.  Returns (points array, LinearFitResult).
    """
    points = np.zeros((len(cfg.grid), 2))
    live = [gi for gi, amplitude in enumerate(cfg.grid) if amplitude != 0.0]
    if live:
        rows = noise_mod.generate_batch(_noise_configs(cfg, live)).reshape(
            len(live), -1, cfg.segments)
        spectra = analysis.psd_periodogram(rows, cfg.segments / cfg.observe_z)
        points[live, 0] = analysis.variance(rows).mean(axis=1)
        points[live, 1] = analysis.reorganization_energy(spectra).mean(axis=1)
    fit = analysis.fit_reorganization_law(points)
    return points, fit


def vibrational_comparison(cfg: SweepConfig):
    """Mean efficiency vs z with and without the auxiliary vibration mode.

    Returns (positions, mean_with, mean_without), each averaged over the
    realizations at every amplitude on the grid; shapes are
    (n_samples,), (len(grid), n_samples), (len(grid), n_samples).
    """
    steps = 4
    fine = cfg.observe_z / cfg.segments / steps
    curves = []
    for with_vibration in (True, False):
        base = _base_hamiltonian(replace(cfg, with_vibration=with_vibration))
        sink = base.sink_indices
        eta = np.array([_sink_fraction(psi, sink)
                        for psi in _evolve_study(cfg, base, steps)])
        eta = eta.reshape(len(eta), len(cfg.grid), cfg.realizations)
        curves.append(eta.mean(axis=2).T)
    positions = np.arange(curves[0].shape[1]) * fine
    return positions, curves[0], curves[1]


def segment_count_study(cfg: SweepConfig, segment_counts=(10, 20, 40, 60, 80)):
    """Efficiency at the chip end for several segmentations of 20 mm.

    Returns a dict mapping segment count to a SweepResult over cfg.grid.
    """
    out = {}
    for n_seg in segment_counts:
        sub = replace(cfg, segments=int(n_seg))
        out[int(n_seg)] = sweep_dephasing(sub)
    return out


def noise_distribution_comparison(cfg: SweepConfig):
    """Efficiency curve per noise kind plus each kind's normalized mean.

    Returns (results, profile_means): results maps kind -> SweepResult;
    profile_means maps kind -> mean of the unit-amplitude noise profile,
    estimated over the study's realizations.
    """
    results = {}
    profile_means = {}
    for kind in noise_mod.NOISE_KINDS:
        sub = replace(cfg, noise_kind=kind)
        results[kind] = sweep_dephasing(sub)
        profiles = noise_mod.generate_batch(
            [noise_config(sub, 1.0, _noise_seed(sub.seed, 0, r))
             for r in range(cfg.realizations)])
        profile_means[kind] = float(profiles.mean())
    return results, profile_means


def single_trace(cfg: SweepConfig, amplitude: float, seed: int,
                 fine_step: float | None = None):
    """(EvolutionTrace, NoiseRealization) of one realization at
    ``amplitude``, its detunings drawn from ``seed`` as given, its static
    disorder on every waveguide from the study's first disorder stream.

    ``fine_step`` defaults to the largest step of at most
    dynamics.DEFAULT_FINE_STEP that divides the segment length (exactly
    0.05 mm on 1 mm segments)."""
    seg = cfg.observe_z / cfg.segments
    if fine_step is None:
        # the tolerance keeps a quotient that rounds just above an integer
        # from adding a sample per segment
        fine_step = seg / max(
            1, math.ceil(seg / dynamics.DEFAULT_FINE_STEP - 1e-9))
    h = apply_static_disorder(_base_hamiltonian(cfg), cfg.disorder,
                              _disorder_seed(cfg, 0, 0), sites="all")
    det = noise_mod.generate(noise_config(cfg, amplitude, seed),
                             n_sites=len(h.fmo_indices))
    ph = dynamics.PiecewiseHamiltonian(
        h, det, segment_length=seg, total_length=cfg.observe_z,
        coupling_correction=cfg.coupling_correction)
    return dynamics.evolve(ph, fine_step=fine_step), det


def excitation_trace_study(cfg: SweepConfig,
                           disorders=(0.0, 3.0, 6.0, 10.0),
                           amplitudes=(0.1, 0.3, 0.5, 0.7, 1.0, 80.0)):
    """Renormalized seven-site probability tables and most-probable-site
    traces for a disorder family (no detuning) and a detuning family (no
    disorder).  Returns {(label, value): (positions, probs, argmax)}.
    """
    fine = cfg.observe_z / cfg.segments / 4.0
    seed = _noise_seed(cfg.seed, 0, 0)
    out = {}
    for label, value, gamma, amplitude in (
            [("disorder", float(g), float(g), 0.0) for g in disorders]
            + [("detuning", float(a), 0.0, float(a)) for a in amplitudes]):
        tr, _ = single_trace(replace(cfg, disorder=gamma), amplitude, seed, fine)
        probs = dynamics.site_probabilities(tr, tr.fmo_indices, renormalize=True)
        out[(label, value)] = (tr.positions, probs,
                               analysis.most_probable_site(tr))
    return out


def write_sweep_csv(result: SweepResult, raw_path, summary_path) -> None:
    """Emit raw per-realization values and summary statistics as CSV."""
    with open(raw_path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["grid_value", "realization", "efficiency"])
        for gi, g in enumerate(result.grid):
            for r, v in enumerate(result.values[gi]):
                w.writerow([f"{g:.15g}", r, f"{v:.15g}"])
    with open(summary_path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["grid_value", "mean", "std"])
        for g, m, s in zip(result.grid, result.means, result.stds):
            w.writerow([f"{g:.15g}", f"{m:.15g}", f"{s:.15g}"])


def write_manifest(cfg: SweepConfig, path) -> None:
    """Emit a JSON run manifest: config echo, seed, code version."""
    from . import __version__
    doc = {"config": cfg.canonical_dict(), "seed": cfg.seed,
           "config_hash": cfg.config_hash(), "version": __version__}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
