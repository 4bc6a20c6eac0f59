"""Stochastic per-site detuning sequences for piecewise-constant dephasing.

Each realization holds one detuning sequence per site, one value per
segment, in mm^-1.  Five distribution families are supported; the
"colored" family filters Gaussian white noise through the rational
response 1/(10 s + 1) + 1/(100 s^2 + 10 s + 1) and therefore carries
memory across segments, unlike the white families.

Every (seed, site) pair draws from its own stream, so a realization does
not depend on which others are generated with it.  :func:`generate_batch`
draws all the realizations of a study at once; the colored filter is plain
numpy (bilinear discretization, then a third-order recurrence applied to
the whole batch elementwise), so each row is bit-for-bit the same as when
its config is generated alone with :func:`generate`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import PhysicsError

__all__ = ["NoiseConfig", "NoiseRealization", "generate", "generate_batch",
           "resample_amplitude", "write_noise_csv", "read_noise_csv"]

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

    The colored filter is discretized with the bilinear (Tustin) map at
    rate ``sampling_frequency * filter_time_scale``; the default factor 0.2
    keeps the memory to a few segments so the sequences fluctuate visibly
    within a 20-segment chip while the power still concentrates at low
    frequency.  The discrete filter runs from rest over
    ``FILTER_BURN_IN + segments`` white samples and the first
    ``FILTER_BURN_IN`` outputs are discarded.
    """

    kind: str = "colored"
    amplitude: float = 0.5
    segments: int = 20
    total_length: float = 20.0
    seed: int = 0
    normalization: str = ""
    filter_time_scale: float = 0.2

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


@lru_cache(maxsize=64)
def _filter_coefficients(rate: float):
    """Digital (b, a) of the colored filter at ``rate`` samples per unit
    time, as tuples of floats with a[0] = 1.

    The bilinear map s = 2 rate (z - 1)/(z + 1), built as scipy.signal's
    ``bilinear`` builds it: each s^q becomes (z - 1)^q (z + 1)^(N - q), with
    the factor 2 rate split evenly between the two polynomials.

    At a rate far from 1 the coefficients overflow to inf or nan without
    a warning; :func:`generate_batch` rejects the sequences they give.
    """
    fac = math.sqrt(2.0 * rate)
    zp1 = np.polynomial.Polynomial((1.0, 1.0)) / fac
    zm1 = np.polynomial.Polynomial((-1.0, 1.0)) * fac
    order = len(FILTER_DEN) - 1

    def z_domain(coeffs):
        # coefficients in descending powers, as FILTER_NUM and FILTER_DEN
        s_poly = sum(c * zp1 ** (order - q) * zm1 ** q
                     for q, c in enumerate(np.asarray(coeffs)[::-1]))
        return s_poly.coef[::-1]

    with np.errstate(all="ignore"):
        b, a = z_domain(FILTER_NUM), z_domain(FILTER_DEN)
        b, a = b / a[0], a / a[0]
    return tuple(float(v) for v in b), tuple(float(v) for v in a)


@lru_cache(maxsize=64)
def _burn_in_map(rate: float) -> np.ndarray:
    """The (3, FILTER_BURN_IN) map from the burn-in inputs to the filter
    state after them, starting from rest.

    In the transposed direct form the state update is s' = A s + B x, so
    the input at step k reaches the final state as A^(FILTER_BURN_IN-1-k) B.
    """
    b, a = _filter_coefficients(rate)
    v = [b[k] - a[k] * b[0] for k in (1, 2, 3)]     # B
    out = np.empty((3, FILTER_BURN_IN))
    for k in range(FILTER_BURN_IN - 1, -1, -1):
        out[:, k] = v
        v = [v[1] - a[1] * v[0], v[2] - a[2] * v[0], -a[3] * v[0]]   # A v
    out.setflags(write=False)
    return out


def _colored_filter(white: np.ndarray, rate: float) -> np.ndarray:
    """The colored filter's output on each row of ``white``, burn-in dropped.

    Equal, up to rounding, to ``scipy.signal.lfilter(b, a, white,
    axis=1)[:, FILTER_BURN_IN:]``.  The state after the burn-in comes from
    :func:`_burn_in_map`; the kept samples then run through the recurrence.
    Only elementwise operations and per-row sums are used (no BLAS), so a
    row's result does not depend on the other rows of the batch.
    """
    b, a = _filter_coefficients(rate)
    burn = white[:, :FILTER_BURN_IN]
    s0, s1, s2 = ((burn * m).sum(axis=1) for m in _burn_in_map(rate))
    x = np.ascontiguousarray(white[:, FILTER_BURN_IN:].T)
    y = np.empty_like(x)
    for n, xn in enumerate(x):
        y[n] = yn = s0 + b[0] * xn
        s0 = (s1 + b[1] * xn) - a[1] * yn
        s1 = (s2 + b[2] * xn) - a[2] * yn
        s2 = b[3] * xn - a[3] * yn
    return y.T


def _site_rng(seed: int, site: int) -> np.random.Generator:
    # Substream per (seed, site): generation order across sites is irrelevant.
    return np.random.default_rng([seed, site])


def _draw(kind: str, rng: np.random.Generator, n: int) -> np.ndarray:
    """One site's raw samples; for "colored", the white input of the
    filter, burn-in included."""
    if kind == "uniform_white":
        return rng.uniform(0.0, 1.0, n)
    if kind == "colored":
        return rng.standard_normal(n + FILTER_BURN_IN)
    if kind == "normal_abs":
        return np.abs(rng.standard_normal(n))
    if kind == "exponential":
        return rng.exponential(1.0 / EXPONENTIAL_RATE, n)
    # cauchy: |quotient of two independent standard normals|
    numer = rng.standard_normal(n)
    denom = rng.standard_normal(n)
    zero = denom == 0.0
    while np.any(zero):  # probability-zero guard; redraw the exact zeros
        denom[zero] = rng.standard_normal(int(zero.sum()))
        zero = denom == 0.0
    return np.abs(numer / denom)


#: Configs drawn and filtered together at most, which bounds the memory a
#: large batch takes (128 seven-site colored configs draw 3.7 MB of white
#: noise).
_BATCH_CHUNK = 128


def _scaled_profiles(configs, kind: str, rate, n_sites: int,
                     segments: int) -> np.ndarray:
    """(len(configs), n_sites, segments) sequences of configs that are all
    of ``kind`` and, if colored, filtered at ``rate``."""
    draws = np.stack([_draw(kind, _site_rng(c.seed, site), segments)
                      for c in configs for site in range(n_sites)])
    if kind == "colored":
        draws = np.abs(_colored_filter(draws, rate))
    profiles = draws.reshape(len(configs), n_sites, segments)
    by_max = np.array([c.normalization == "by_max" for c in configs])
    peak = profiles.max(axis=2, keepdims=True)
    # dividing by 1 leaves a profile exactly as it is
    profiles = profiles / np.where(by_max[:, None, None] & (peak > 0), peak, 1.0)
    return np.array([c.amplitude for c in configs])[:, None, None] * profiles


def generate_batch(configs, n_sites: int = 7) -> np.ndarray:
    """Sequences of many realizations at once, shape (R, n_sites, segments).

    Row r is bit-for-bit ``generate(configs[r], n_sites).sequences``.  The
    configs must share the segment count; a zero-amplitude config gives
    zeros and draws nothing.
    """
    configs = list(configs)
    if n_sites < 1:
        raise PhysicsError("n_sites must be >= 1")
    if not configs:
        raise PhysicsError("a batch needs at least one config")
    segments = configs[0].segments
    if any(c.segments != segments for c in configs):
        raise PhysicsError("the configs of a batch must share the segment count")
    out = np.zeros((len(configs), n_sites, segments))
    # rows drawn the same way: one kind and, for colored, one filter rate
    groups: dict = {}
    for r, c in enumerate(configs):
        if c.amplitude != 0.0:
            rate = (c.sampling_frequency * c.filter_time_scale
                    if c.kind == "colored" else None)
            groups.setdefault((c.kind, rate), []).append(r)
    for (kind, rate), rows in groups.items():
        for start in range(0, len(rows), _BATCH_CHUNK):
            chunk = rows[start:start + _BATCH_CHUNK]
            out[chunk] = _scaled_profiles([configs[r] for r in chunk], kind,
                                          rate, n_sites, segments)
    if not np.isfinite(out).all():
        # a colored filter at a rate far from 1 has no finite coefficients
        raise PhysicsError("the detuning sequences are not finite; bring "
                           "filter_time_scale * sampling frequency closer to 1")
    return out


def generate(config: NoiseConfig, n_sites: int = 7) -> NoiseRealization:
    """Draw one seed-deterministic realization for ``n_sites`` sites.

    At amplitude 0 every sequence is zero and nothing is drawn.
    """
    return NoiseRealization(generate_batch([config], n_sites)[0], config)


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
