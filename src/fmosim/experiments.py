"""Seeded Monte Carlo studies: dephasing sweeps under static disorder,
reorganization-energy curves, vibrational-assistance comparisons,
segment-count studies, noise-distribution comparisons, and excitation
traces.

Every study is deterministic given its master seed.  The per-realization
seeds are derived from (master seed, grid index, realization index), and
all the realizations of a study are evolved together as the columns of
one kernel batch, whose columns do not depend on each other.

The sink chain only has to look irreversible over the chip, so the light
never reaches its far end.  Every study's chip is the light cone of the
network rows (:func:`_base_hamiltonian`), whatever ``sink_length`` says
past that, and the kernel evolves every row of it, so a longer chain
changes no byte and costs nothing more.  This module is the one place the
light cone is decided: :func:`_light_cone_depth` takes its depth from a
Combes-Thomas bound and proves it, 18 sink waveguides on the default chip
(20 segments of 1 mm, chain coupling 0.2 mm^-1).  The depth depends only
on the chain coupling and the segment ends, never on the detunings or
diagonals.  Every study reads the network rows or the sink as one total,
as ``trace.csv`` does, and the cone bounds both at every sample, though
not the chain's rows one by one.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import _csv, _seeding, analysis, dynamics, noise as noise_mod
from .errors import PhysicsError
from .model import (DEFAULT_SINK_COUPLING, MAX_SINK_LENGTH,
                    RAW_SITE_HAMILTONIAN_CM, FmoSpec, Hamiltonian,
                    attach_sink, attach_vibrational_mode,
                    build_fmo_hamiltonian, effective_coupling,
                    static_disorder_shifts)
# not called here: bench/tracing.py wraps it here by name (ROADMAP item 2)
from .model import apply_static_disorder  # noqa: F401

__all__ = ["SweepConfig", "SweepResult", "sweep_dephasing",
           "reorganization_curve", "vibrational_comparison",
           "segment_count_study", "noise_distribution_comparison",
           "excitation_trace_study", "network_hamiltonian", "noise_config",
           "single_trace", "write_sweep_csv", "write_manifest"]

DEFAULT_GRID = tuple(round(0.1 * k, 10) for k in range(11))

#: The amplitude grids (mm^-1) of fig3b, the default grid without 0, and
#: of figS5.
FIG3B_GRID = DEFAULT_GRID[1:]
FIGS5_GRID = DEFAULT_GRID[::2]

#: figS8's amplitude grid at each static disorder (mm^-1): geometric over
#: the span that holds the disordered chip's optimum.
FIGS8_GRIDS = {0.0: DEFAULT_GRID,
               10.0: tuple(np.geomspace(0.3, 12.0, 11).round(6)),
               100.0: tuple(np.geomspace(3.0, 90.0, 11).round(6))}

#: Longest default sample step of :func:`single_trace` in mm: 20 steps a
#: 1 mm segment resolve the fastest beating frequency present on the chip
#: (~1.344 mm^-1).
DEFAULT_FINE_STEP = 0.05

#: Largest bound on how far cutting the sink chain moves a propagated state.
LIGHT_CONE_TOL = 1e-16


@dataclass(frozen=True)
class SweepConfig:
    """Parameters of one Monte Carlo sweep over detuning amplitude.

    ``sink_coupling`` (mm^-1) is both the drain-to-chain and the
    within-chain coupling of the sink.  ``seed`` is a nonnegative integer
    of any size.  ``threads`` is read by nothing: only the benchmark's
    keyword sets it, and a study runs as one batch.
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
    filter_time_scale: float = noise_mod.NoiseConfig.filter_time_scale
    threads: int = 1

    def __post_init__(self):
        object.__setattr__(self, "seed", _seeding.check_seed(self.seed))
        for name in ("realizations", "segments", "sink_length"):
            object.__setattr__(self, name, _seeding.check_int(
                getattr(self, name), name, 1))
        for name in ("with_vibration", "coupling_correction"):
            object.__setattr__(self, name, _seeding.check_bool(
                getattr(self, name), name))
        try:
            grid = tuple(self.grid)
        except TypeError:
            raise PhysicsError(f"grid must be a sequence of real numbers, "
                               f"got {self.grid!r}") from None
        object.__setattr__(self, "grid", tuple(
            _seeding.check_real(g, "grid") for g in grid))
        if not self.grid:
            raise PhysicsError("grid must be nonempty")
        if any(b < a for a, b in zip(self.grid, self.grid[1:])):
            raise PhysicsError("grid must be sorted ascending")
        for name in ("disorder", "observe_z", "sink_coupling",
                     "filter_time_scale"):
            # 20 and 20.0 are one study, so they must share a hash
            object.__setattr__(self, name, _seeding.check_real(
                getattr(self, name), name))
        if self.disorder < 0:
            raise PhysicsError("disorder strength must be nonnegative")
        if self.observe_z <= 0:
            raise PhysicsError("observation length must be positive")
        if self.sink_coupling <= 0:
            raise PhysicsError("sink coupling must be positive")
        # the noise recipe's own checks (the kind, a positive filter time
        # scale), with the messages a study would raise
        noise_config(self, 0.0, self.seed)

    def canonical_dict(self) -> dict:
        d = asdict(self)
        # the thread count changes nothing, so it must not change the hash
        d.pop("threads")
        # left out at its default so that configs from before the field
        # existed keep their hashes
        if self.sink_coupling == DEFAULT_SINK_COUPLING:
            d.pop("sink_coupling")
        # the fixed raw matrix stays in the record, so config hashes and
        # manifests keep their bytes
        d["fmo"]["raw_hamiltonian"] = RAW_SITE_HAMILTONIAN_CM.tolist()
        return d

    def config_hash(self) -> str:
        return _digest(self.canonical_dict())


def _digest(canonical: dict) -> str:
    """The config hash of a :meth:`SweepConfig.canonical_dict`."""
    blob = json.dumps(canonical, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class SweepResult:
    """Raw realization values per grid point, and their statistics."""

    grid: np.ndarray
    values: np.ndarray          # (len(grid), realizations)

    def __post_init__(self):
        for name in ("grid", "values"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def means(self) -> np.ndarray:
        return self.values.mean(axis=1)

    @property
    def stds(self) -> np.ndarray:
        # the spread is taken about each row's first value, which is exact
        # (zero) when all the realizations agree, as at amplitude 0
        return (self.values - self.values[:, :1]).std(axis=1)

    @property
    def argmax_value(self) -> float:
        return float(self.grid[int(np.argmax(self.means))])


def network_hamiltonian(cfg: SweepConfig) -> Hamiltonian:
    """The seven network sites of ``cfg.fmo``, plus the vibration mode if
    ``cfg.with_vibration``; no sink."""
    h = build_fmo_hamiltonian(cfg.fmo)
    return attach_vibrational_mode(h) if cfg.with_vibration else h


def _cone_log_weight(depth: int, a: float) -> float:
    """log E(depth, t), a = 2 c t: the Combes-Thomas bound on the weight at
    chain depth ``depth`` and beyond (see :func:`_light_cone_depth`).

    E(L, t) = min over mu >= 0 of exp(2 c t sinh mu - mu L), reached at
    cosh mu = L / 2ct, which gives sqrt(L^2 - a^2) - L arccosh(L / a) for
    L > a, and at mu = 0 otherwise, where the bound is 1.
    """
    if depth <= a:
        return 0.0
    return math.sqrt(depth * depth - a * a) - depth * math.acosh(depth / a)


def _light_cone_depth(coupling: float, segment_length: float, segments: int,
                      max_depth: int) -> int:
    """Chain depth L of the light cone of the network rows over
    ``segments`` segments of ``segment_length``, segment k running from
    t_k-1 = segment_length * k to t_k = segment_length * (k + 1).

    L is the smallest depth with c T E(L, t_k) E(L, T - t_k-1) <=
    LIGHT_CONE_TOL in every segment k, capped at ``max_depth`` (the whole
    chain), where c is ``coupling``, the chain's absolute coupling (the
    drain link and every bond), T the last end (the whole propagation) and
    E(L, t) = min over mu >= 0 of exp(2 c t sinh mu - mu L)
    (:func:`_cone_log_weight`), which falls as L grows.  It is 0 if the
    chain is uncoupled, or if the segment length is not positive and
    finite, which the kernel rejects; on the default chip it is 18.

    Only the middle segments, k = (N - 1) // 2 and N // 2 of N, need the
    test, so the depth costs the same at any segment count: log E(L, t) is
    concave in t (its slope in 2 c t is sinh mu at the minimum, which falls
    as t grows, to 0 from 2 c t = L on), t_k + (T - t_k-1) is the same in
    every segment, and the two middle segments mirror each other, so the
    sum of the two logs is largest there.

    Cutting the chain below depth L moves the network rows of every state
    dynamics.traces records by at most LIGHT_CONE_TOL, and so every sink
    fraction that dynamics.sink_fractions yields, the chain's total weight,
    by at most 2 LIGHT_CONE_TOL, truncation aside.  The chain's rows one by
    one are not bounded.  The proof, with t_-1 = 0:

    - Let N be the chain-depth operator: 0 on the network rows and the
      vibration mode, m on the m-th sink waveguide, and P_0 project on
      depth 0.  The network block (the coupling overrides included) and
      every diagonal (detunings and disorder included) commute with N.  So
      e^{mu N} H e^{-mu N} - H = (e^mu - 1) V+ + (e^-mu - 1) V-, where V+
      is the part of H that raises the depth (the drain link and the chain
      bonds, ||V+|| <= c) and V- = V+^T.  Its anti-Hermitian part is
      sinh mu (V+ - V-), of norm at most 2 c sinh mu.  The source is at
      depth 0, so ||e^{mu N} psi(t)|| <= e^{2 c t sinh mu} (Combes &
      Thomas, Commun. Math. Phys. 34, 251 (1973)), and the weight at depth
      L and beyond is at most e^{-mu L} times that, for every mu >= 0: at
      most E(L, t).
    - Let V be the cut bond, between depths L and L + 1.  Duhamel's formula
      writes P_0 (psi(T) - psi_cut(T)) as -i times the integral over s of
      P_0 U_cut(T, s) V psi(s), where psi is the uncut evolution and U_cut
      the cut one.  V psi(s) lies at depth L and beyond, with ||V psi(s)||
      <= c E(L, s).
    - Back to depth 0 (Combes-Thomas with e^{-mu N}): P_0 = P_0 e^{-mu N},
      ||e^{-mu N} U_cut(T, s) e^{mu N}|| <= e^{2 c (T - s) sinh mu}, since
      the cut generator raises the depth by a part of norm at most c too,
      and e^{-mu N} damps what lies at depth L and beyond by e^{-mu L}.
      So ||P_0 U_cut(T, s) V psi(s)|| <= E(L, T - s) ||V psi(s)||.
    - E grows with t, so the depth-0 error at T is at most
      c sum_k Delta_k E(L, t_k) E(L, T - t_k-1) <= LIGHT_CONE_TOL, the
      segment lengths Delta_k summing to T.  At a sample t <= T the same
      sum holds with t for T, and E(L, t - s) <= E(L, T - s).  A sink
      fraction is 1 minus the depth-0 share of the norm, and both states
      are unit vectors, so it moves by at most 2 LIGHT_CONE_TOL.
    """
    if coupling == 0.0 or segments < 1 or not 0 < segment_length < math.inf:
        return 0
    end = segment_length * segments
    budget = math.log(LIGHT_CONE_TOL) - math.log(coupling) - math.log(end)
    depth = 0
    for k in {(segments - 1) // 2, segments // 2}:
        a = 2.0 * coupling * (segment_length * (k + 1))
        back = 2.0 * coupling * (end - segment_length * k)
        while depth < max_depth and (_cone_log_weight(depth, a)
                                     + _cone_log_weight(depth, back)
                                     > budget):
            depth += 1
    return depth


def _base_hamiltonian(cfg: SweepConfig) -> Hamiltonian:
    """The study's chip: :func:`network_hamiltonian` and as many sink
    waveguides as the depth of the light cone over its segments
    (:func:`_light_cone_depth`), at least one and at most
    ``cfg.sink_length``.  A light cone deeper than MAX_SINK_LENGTH is
    rejected."""
    length = max(1, _light_cone_depth(
        cfg.sink_coupling, cfg.observe_z / cfg.segments, cfg.segments,
        min(cfg.sink_length, MAX_SINK_LENGTH + 1)))
    if length > MAX_SINK_LENGTH:
        raise PhysicsError(f"the sink chain's light cone is deeper than "
                           f"MAX_SINK_LENGTH ({MAX_SINK_LENGTH}) waveguides")
    return attach_sink(network_hamiltonian(cfg), length, cfg.sink_coupling)


def _noise_seeds(master: int, grid_indices, realizations: int) -> list:
    """The noise seed of every realization at the given grid points, grid
    point by grid point: ``SeedSequence((master, grid index,
    realization)).generate_state(1, np.uint64)[0]``, seeded in one pass."""
    rows = [_seeding.entropy_words((master, gi, r))
            for gi in grid_indices for r in range(realizations)]
    return _seeding.seed_words(rows, 1)[:, 0].tolist()


def noise_config(cfg: SweepConfig, amplitude: float,
                 seed: int) -> noise_mod.NoiseConfig:
    """The study's noise recipe at one amplitude, drawn from ``seed``."""
    return noise_mod.NoiseConfig(
        kind=cfg.noise_kind, amplitude=amplitude, segments=cfg.segments,
        total_length=cfg.observe_z, seed=seed,
        filter_time_scale=cfg.filter_time_scale)


def _columns(cfg: SweepConfig, base: Hamiltonian, amplitudes, seeds,
             disorders, cells) -> tuple:
    """(detunings, diagonals, couplings) of a batch of kernel columns on
    ``base``, the inputs of one kernel call (dynamics.final_sink_fractions,
    dynamics.sink_fractions or dynamics.traces).

    Column c is driven by detunings at ``amplitudes[c]``, drawn from
    ``seeds[c]`` on the network sites, and by static disorder of strength
    ``disorders`` (one, or one per column), drawn from ``[seed, grid
    index, realization, 1]`` for the (grid index, realization) pair
    ``cells[c]``, which shifts every waveguide.  The whole batch takes one
    noise draw and one disorder draw.  With ``cfg.coupling_correction``,
    each nonzero coupling c0 of consecutive network sites becomes, per
    column and segment, sign(c0) sqrt((d/2)^2 + c0^2), d their mean
    detuning; otherwise ``couplings`` is empty.
    """
    detunings = noise_mod.generate_batch(
        noise_config(cfg, 0.0, 0), amplitudes, seeds,
        n_sites=len(base.fmo_indices))
    shifts = static_disorder_shifts(
        base.dim, disorders, [(cfg.seed, gi, r, 1) for gi, r in cells])
    sites = base.fmo_indices if cfg.coupling_correction else []
    couplings = {
        (i, j): np.sign(c0) * effective_coupling(
            abs(c0), 0.5 * (detunings[:, a] + detunings[:, a + 1]))
        for a, (i, j) in enumerate(zip(sites[:-1], sites[1:]))
        if (c0 := base.block[i, j]) != 0.0}
    return detunings, base.diagonal[:, None] + shifts.T, couplings


def _study_columns(cfg: SweepConfig, base: Hamiltonian) -> tuple:
    """:func:`_columns` of all the study's realizations, grid point by grid
    point."""
    return _columns(
        cfg, base, np.repeat(cfg.grid, cfg.realizations),
        _noise_seeds(cfg.seed, range(len(cfg.grid)), cfg.realizations),
        cfg.disorder,
        [(gi, r) for gi in range(len(cfg.grid))
         for r in range(cfg.realizations)])


def sweep_dephasing(cfg: SweepConfig) -> SweepResult:
    """Mean transport efficiency at z per detuning amplitude on the grid."""
    base = _base_hamiltonian(cfg)
    detunings, diagonals, couplings = _study_columns(cfg, base)
    values = dynamics.final_sink_fractions(
        base, detunings, cfg.observe_z / cfg.segments, diagonals=diagonals,
        couplings=couplings)
    return SweepResult(cfg.grid,
                       values.reshape(len(cfg.grid), cfg.realizations))


def reorganization_curve(cfg: SweepConfig):
    """(variance, reorganization energy) pairs over the grid plus their fit.

    Pure noise post-processing: sequences are generated at each amplitude,
    their variance and periodogram-based reorganization energy averaged
    over sites and realizations.  The periodogram pads each sequence to
    128 points, or to the next power of two past its segments.  Returns
    (points array, LinearFitResult).
    """
    # every row is drawn and scaled, so a zero amplitude gives zeros: its
    # variance and energy are exactly 0
    rows = noise_mod.generate_batch(
        noise_config(cfg, 0.0, 0), np.repeat(cfg.grid, cfg.realizations),
        _noise_seeds(cfg.seed, range(len(cfg.grid)), cfg.realizations)
    ).reshape(len(cfg.grid), -1, cfg.segments)
    f_s = cfg.segments / cfg.observe_z
    nfft = max(128, 1 << (cfg.segments - 1).bit_length())
    # one grid point's spectra at a time, never the whole grid's
    points = np.array([
        (analysis.variance(seqs).mean(),
         analysis.reorganization_energy(
             analysis.psd_periodogram(seqs, f_s, nfft)).mean())
        for seqs in rows])
    fit = analysis.fit_reorganization_law(points)
    return points, fit


def vibrational_comparison(cfg: SweepConfig):
    """Mean efficiency vs z with and without the auxiliary vibration mode.

    Returns (positions, mean_with, mean_without), each averaged over the
    realizations at every amplitude on the grid; shapes are
    (n_samples,), (len(grid), n_samples), (len(grid), n_samples).

    Each realization is one disordered chip with and without its mode,
    two columns of one batch on the with-mode chip: both share the
    detunings and the static disorder, drawn once, and the without-mode
    column sets the mode's seven couplings to 0, which leaves the mode
    waveguide dark.
    """
    steps = 4
    seg = cfg.observe_z / cfg.segments
    base = _base_hamiltonian(replace(cfg, with_vibration=True))
    detunings, diagonals, couplings = _study_columns(cfg, base)
    n, mode = len(detunings), base.roles.index("vibration")
    # columns n .. 2n - 1 repeat columns 0 .. n - 1 with the mode's couplings 0
    couplings = {k: np.concatenate([c, c]) for k, c in couplings.items()}
    couplings.update({(s, mode): np.kron([[base.block[s, mode]], [0.0]],
                                         np.ones((n, cfg.segments)))
                      for s in base.fmo_indices})
    eta = np.array(list(dynamics.sink_fractions(
        base, np.concatenate([detunings, detunings]), seg, steps,
        diagonals=np.hstack([diagonals, diagonals]), couplings=couplings)))
    curves = eta.reshape(len(eta), 2, len(cfg.grid), -1).mean(axis=3)
    return np.arange(len(eta)) * (seg / steps), curves[:, 0].T, curves[:, 1].T


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
            noise_config(sub, 0.0, 0), np.ones(cfg.realizations),
            _noise_seeds(sub.seed, [0], cfg.realizations))
        profile_means[kind] = float(profiles.mean())
    return results, profile_means


def _traces(cfg: SweepConfig, amplitudes, seeds, disorders,
            steps_per_segment) -> tuple:
    """(traces, detunings) of the kernel columns :func:`_columns` builds
    from ``amplitudes``, ``seeds`` and ``disorders``, each with the static
    disorder draw of the sweep's first column, ``steps_per_segment`` steps
    a segment, in one dynamics.traces call on the study's chip."""
    base = _base_hamiltonian(cfg)
    det, diagonals, couplings = _columns(cfg, base, amplitudes, seeds,
                                         disorders, [(0, 0)] * len(seeds))
    return dynamics.traces(base, det, cfg.observe_z / cfg.segments,
                           steps_per_segment, diagonals, couplings), det


def single_trace(cfg: SweepConfig, amplitude: float, seed: int,
                 steps_per_segment: int | None = None):
    """(EvolutionTrace, NoiseRealization) of one realization at
    ``amplitude``, its detunings drawn from ``seed`` as given.  It is
    built as a sweep builds each column, on the sweep's chip, with the
    static disorder of the sweep's first column.  At ``cfg.grid[0]``, that
    column's noise seed and one step a segment, it is, bit for bit, the
    first trace dynamics.traces records of the sweep's columns, and its
    efficiency is the sweep's first value.

    ``steps_per_segment`` is read as by dynamics.traces; by default it is
    the fewest steps whose step is at most DEFAULT_FINE_STEP (20 on 1 mm
    segments, 134 on 20/3 mm ones), the resolution of ``fmosim simulate``.
    """
    if steps_per_segment is None:
        # the tolerance keeps a quotient that rounds just above an integer
        # from adding a step per segment.  A quotient past MAX_TRACE_SAMPLES
        # is capped there, so that it cannot overflow: the trace is rejected
        # either way, by the plan, before it sizes a series
        steps_per_segment = max(1, math.ceil(min(
            cfg.observe_z / cfg.segments / DEFAULT_FINE_STEP - 1e-9,
            dynamics.MAX_TRACE_SAMPLES)))
    [tr], [det] = _traces(cfg, [amplitude], [seed], cfg.disorder,
                          steps_per_segment)
    return tr, noise_mod.NoiseRealization(det, noise_config(cfg, amplitude,
                                                            seed))


def excitation_trace_study(cfg: SweepConfig,
                           disorders=(0.0, 3.0, 6.0, 10.0),
                           amplitudes=(0.1, 0.3, 0.5, 0.7, 1.0, 80.0)):
    """Renormalized seven-site probability tables and most-probable-site
    traces for a disorder family (no detuning) and a detuning family (no
    disorder), four steps a segment.  Returns {(label, value):
    (positions, probs, argmax)}.

    Every member is a trace of one dynamics.traces call at the study's
    first noise seed, bit for bit its :func:`single_trace` at four steps a
    segment, and reads only the network rows' renormalized probabilities.
    A study reads one realization of each member, whatever
    ``cfg.realizations`` says.
    """
    [seed] = _noise_seeds(cfg.seed, [0], 1)
    members = ([("disorder", float(g), float(g), 0.0) for g in disorders]
               + [("detuning", float(a), 0.0, float(a)) for a in amplitudes])
    traces, _ = _traces(cfg, [a for *_, a in members], [seed] * len(members),
                        [gamma for _, _, gamma, _ in members], 4)
    return {(label, value): (tr.positions,
                             dynamics.site_probabilities(tr),
                             analysis.most_probable_site(tr))
            for (label, value, _, _), tr in zip(members, traces)}


def write_sweep_csv(result: SweepResult, raw_path, summary_path) -> None:
    """Emit raw per-realization values and summary statistics as CSV."""
    _csv.write_table(raw_path, ["grid_value", "realization", "efficiency"],
                     ([f"{g:.15g}", r, f"{v:.15g}"]
                      for gi, g in enumerate(result.grid)
                      for r, v in enumerate(result.values[gi])))
    _csv.write_table(summary_path, ["grid_value", "mean", "std"],
                     ([f"{g:.15g}", f"{m:.15g}", f"{s:.15g}"]
                      for g, m, s in zip(result.grid, result.means, result.stds)))


def write_manifest(cfg: SweepConfig, path) -> None:
    """Emit a JSON run manifest: config echo, seed, code version."""
    from . import __version__
    config = cfg.canonical_dict()
    doc = {"config": config, "seed": cfg.seed, "config_hash": _digest(config),
           "version": __version__}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
