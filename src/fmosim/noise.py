"""Stochastic per-site detuning sequences for piecewise-constant dephasing.

Each realization holds one detuning sequence per site, one value per
segment, in mm^-1.  Five distribution families are supported; the
"colored" family filters Gaussian white noise through the rational
response 1/(10 s + 1) + 1/(100 s^2 + 10 s + 1) and therefore carries
memory across segments, unlike the white families.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
from scipy.signal import bilinear, cont2discrete, lfilter

from .errors import PhysicsError

__all__ = ["NoiseConfig", "NoiseRealization", "generate", "resample_amplitude",
           "write_noise_csv", "read_noise_csv"]

NOISE_KINDS = ("uniform_white", "colored", "normal_abs", "exponential", "cauchy")

#: Exponential-family rate parameter (Exp(2), mean 1/2).
EXPONENTIAL_RATE = 2.0

#: Rational response shaping the colored family, as (numerator, denominator)
#: polynomial coefficients of the combined single fraction.
FILTER_NUM = (100.0, 20.0, 2.0)
FILTER_DEN = (1000.0, 200.0, 20.0, 1.0)

#: Samples discarded before the start of every colored sequence so the
#: filter state is approximately stationary.
FILTER_BURN_IN = 500


@dataclass(frozen=True)
class NoiseConfig:
    """Recipe for one ensemble member of detuning sequences.

    ``amplitude`` is the detuning amplitude in mm^-1, ``segments`` the
    sequence length and ``total_length`` the evolution length in mm, so
    the sampling frequency is ``segments / total_length``.

    ``normalization`` defaults to "none" for uniform_white (whose samples
    already live on [0, amplitude]) and "by_max" for the other kinds.

    The colored filter is discretized at rate ``sampling_frequency *
    filter_time_scale``; the default factor 0.2 keeps the memory to a few
    segments so the sequences fluctuate visibly within a 20-segment chip
    while the power still concentrates at low frequency.
    ``filter_discretization`` selects the bilinear (default) or
    zero-order-hold digital mapping.
    """

    kind: str = "colored"
    amplitude: float = 0.5
    segments: int = 20
    total_length: float = 20.0
    seed: int = 0
    normalization: str = ""
    filter_time_scale: float = 0.2
    filter_discretization: str = "bilinear"

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise PhysicsError(f"unknown noise kind {self.kind!r}; choose from {NOISE_KINDS}")
        for name in ("amplitude", "total_length", "filter_time_scale"):
            if not math.isfinite(getattr(self, name)):
                raise PhysicsError(f"{name} must be finite")
        if self.amplitude < 0:
            raise PhysicsError("amplitude must be nonnegative")
        if self.segments < 1:
            raise PhysicsError("segment count must be >= 1")
        if self.total_length <= 0:
            raise PhysicsError("total length must be positive")
        if self.filter_time_scale <= 0:
            raise PhysicsError("filter_time_scale must be positive")
        if self.filter_discretization not in ("bilinear", "zoh"):
            raise PhysicsError("filter_discretization must be 'bilinear' or 'zoh'")
        if not self.normalization:
            default = "none" if self.kind == "uniform_white" else "by_max"
            object.__setattr__(self, "normalization", default)
        if self.normalization not in ("by_max", "none"):
            raise PhysicsError("normalization must be 'by_max' or 'none'")

    @property
    def sampling_frequency(self) -> float:
        """Samples per mm."""
        return self.segments / self.total_length


@dataclass(frozen=True)
class NoiseRealization:
    """Per-site detuning sequences (sites x segments, mm^-1)."""

    sequences: np.ndarray
    config: NoiseConfig

    def __post_init__(self):
        seqs = np.asarray(self.sequences, dtype=float)
        seqs.setflags(write=False)
        object.__setattr__(self, "sequences", seqs)

    @property
    def n_sites(self) -> int:
        return self.sequences.shape[0]


@lru_cache(maxsize=None)
def _filter_coefficients(time_scale: float, discretization: str):
    if discretization == "bilinear":
        b, a = bilinear(list(FILTER_NUM), list(FILTER_DEN), fs=time_scale)
    else:
        b, a, _ = cont2discrete((list(FILTER_NUM), list(FILTER_DEN)), 1.0 / time_scale)
        b = b.ravel()
    return np.asarray(b), np.asarray(a)


def _site_rng(seed: int, site: int) -> np.random.Generator:
    # Substream per (seed, site): generation order across sites is irrelevant.
    return np.random.default_rng([seed, site])


def _raw_profile(cfg: NoiseConfig, rng: np.random.Generator) -> np.ndarray:
    n = cfg.segments
    if cfg.kind == "uniform_white":
        return rng.uniform(0.0, 1.0, n)
    if cfg.kind == "colored":
        b, a = _filter_coefficients(
            cfg.sampling_frequency * cfg.filter_time_scale,
            cfg.filter_discretization)
        white = rng.standard_normal(n + FILTER_BURN_IN)
        return np.abs(lfilter(b, a, white)[FILTER_BURN_IN:])
    if cfg.kind == "normal_abs":
        return np.abs(rng.standard_normal(n))
    if cfg.kind == "exponential":
        return rng.exponential(1.0 / EXPONENTIAL_RATE, n)
    # cauchy: |quotient of two independent standard normals|
    numer = rng.standard_normal(n)
    denom = rng.standard_normal(n)
    zero = denom == 0.0
    while np.any(zero):  # probability-zero guard; redraw the exact zeros
        denom[zero] = rng.standard_normal(int(zero.sum()))
        zero = denom == 0.0
    return np.abs(numer / denom)


def generate(config: NoiseConfig, n_sites: int = 7) -> NoiseRealization:
    """Draw one seed-deterministic realization for ``n_sites`` sites.

    At amplitude 0 every sequence is zero and nothing is drawn.
    """
    if n_sites < 1:
        raise PhysicsError("n_sites must be >= 1")
    if config.amplitude == 0.0:
        return NoiseRealization(np.zeros((n_sites, config.segments)), config)
    seqs = np.empty((n_sites, config.segments))
    for site in range(n_sites):
        profile = _raw_profile(config, _site_rng(config.seed, site))
        if config.normalization == "by_max":
            peak = profile.max()
            profile = profile / peak if peak > 0 else profile
        seqs[site] = config.amplitude * profile
    return NoiseRealization(seqs, config)


def resample_amplitude(nr: NoiseRealization, new_amplitude: float) -> NoiseRealization:
    """Rescale a realization to a new amplitude, keeping its profile."""
    old = nr.config.amplitude
    if old == 0:
        raise PhysicsError("cannot rescale a zero-amplitude realization")
    if new_amplitude < 0:
        raise PhysicsError("amplitude must be nonnegative")
    return NoiseRealization(
        nr.sequences * (new_amplitude / old), replace(nr.config, amplitude=new_amplitude)
    )


_NOISE_HEADER = ["site", "segment_index", "delta_beta"]


def write_noise_csv(nr: NoiseRealization, path_or_file) -> None:
    """Write sequences as CSV rows (site, segment_index, delta_beta)."""
    own = isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__")
    f = open(path_or_file, "w", newline="", encoding="utf-8") if own else path_or_file
    try:
        w = csv.writer(f)
        w.writerow(_NOISE_HEADER)
        for site in range(nr.n_sites):
            for seg, value in enumerate(nr.sequences[site]):
                w.writerow([site + 1, seg, f"{value:.17g}"])
    finally:
        if own:
            f.close()


def read_noise_csv(path_or_file, config: NoiseConfig | None = None) -> NoiseRealization:
    """Read sequences written by :func:`write_noise_csv`.

    A replayed schedule keeps whatever config it is given (used only as
    metadata); by default a config echoing the file's shape is built.
    """
    own = isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__")
    f = open(path_or_file, newline="", encoding="utf-8") if own else path_or_file
    try:
        reader = csv.reader(f)
        header = next(reader)
        if header != _NOISE_HEADER:
            raise PhysicsError(f"unexpected noise header: {header}")
        data: dict = {}
        for rec in reader:
            data.setdefault(int(rec[0]), {})[int(rec[1])] = float(rec[2])
    finally:
        if own:
            f.close()
    if not data:
        raise PhysicsError("noise file contains no rows")
    sites = sorted(data)
    n = max(max(segs) for segs in data.values()) + 1
    seqs = np.zeros((len(sites), n))
    for row, site in enumerate(sites):
        for seg, value in data[site].items():
            seqs[row, seg] = value
    amplitude = float(np.abs(seqs).max())
    if config is None:
        config = NoiseConfig(
            kind="uniform_white",
            amplitude=amplitude if amplitude > 0 else 0.0,
            segments=n,
            total_length=float(n),
            normalization="none",
        )
    return NoiseRealization(seqs, config)
