"""Stochastic per-site detuning sequences for piecewise-constant dephasing.

Each realization holds one detuning sequence per site, one value per
segment, in mm^-1.  Five distribution families are supported; the
"colored" family filters Gaussian white noise through the rational
response 1/(10 s + 1) + 1/(100 s^2 + 10 s + 1) and therefore carries
memory across segments, unlike the white families.  Every kind but
uniform_white is divided by its peak on each site.

Every (seed, site) pair draws from its own stream,
``default_rng([seed, site])``, so a realization does not depend on which
others are generated with it; the streams of a batch are seeded in
passes of many rows, and uniform_white rows drawn in one vectorized PCG64
pass, bit for bit as ``default_rng`` draws them one at a time
(``_seeding``).  :func:`generate_batch` draws all the realizations of a
study at once, one recipe with an amplitude and a seed each.  The colored
filter is plain numpy (bilinear discretization): a block of streams at a
time draws its normals and folds their burn-in into the filter state,
then a third-order recurrence runs over the whole batch's kept samples
elementwise, so each row is bit-for-bit the same as when it is generated
alone with :func:`generate`, and the working set grows with the kept
samples only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, reduce

import numpy as np

from . import _csv, _seeding
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
    the sampling frequency is ``segments / total_length``.  ``seed`` is a
    nonnegative integer of any size.  A uniform_white sequence lives on
    [0, amplitude]; every other kind peaks at ``amplitude`` on each site.

    The colored filter is discretized with the bilinear (Tustin) map at
    rate ``sampling_frequency * filter_time_scale``; the default factor 0.2
    keeps the memory to a few segments so the sequences fluctuate visibly
    within a 20-segment chip while the power still concentrates at low
    frequency.  The discrete filter runs from rest over
    ``FILTER_BURN_IN + segments`` white samples and the first
    ``FILTER_BURN_IN`` outputs are discarded.
    """

    kind: str = "uniform_white"
    amplitude: float = 0.5
    segments: int = 20
    total_length: float = 20.0
    seed: int = 0
    filter_time_scale: float = 0.2

    def __post_init__(self):
        object.__setattr__(self, "seed", _seeding.check_seed(self.seed))
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
    the factor 2 rate split evenly between the two polynomials.  scipy
    builds them with numpy's ``Polynomial``; here the same operations run
    in the same order on plain arrays: (z + 1) / sqrt(2 rate) and
    (z - 1) sqrt(2 rate), each raised to its power by repeated
    convolution; each term scaled by its coefficient, then convolved; the
    terms summed in q order; both sums divided by a[0].  So the
    coefficients are ``Polynomial``'s bits, without loading
    ``numpy.polynomial``.

    At a rate far from 1 the coefficients overflow to inf or nan without
    a warning; :func:`generate_batch` rejects the sequences they give.
    """
    fac = math.sqrt(2.0 * rate)
    zp1 = np.array((1.0, 1.0)) / fac
    zm1 = np.array((-1.0, 1.0)) * fac
    order = len(FILTER_DEN) - 1

    def power(p, k):
        return reduce(np.convolve, [p] * k, np.ones(1))

    def z_domain(coeffs):
        # coefficients in descending powers, as FILTER_NUM and FILTER_DEN
        return sum(np.convolve(c * power(zp1, order - q), power(zm1, q))
                   for q, c in enumerate(coeffs[::-1]))[::-1]

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


def _burn_in_state(burn: np.ndarray, rate: float) -> np.ndarray:
    """The (3, rows) filter state after the burn-in inputs ``burn`` (rows,
    FILTER_BURN_IN), from rest, through :func:`_burn_in_map`.

    Per-row sums only (no BLAS), so a row's state does not depend on the
    other rows.
    """
    weighted = np.empty_like(burn)    # one temporary for the three folds
    return np.array([np.multiply(burn, m, out=weighted).sum(axis=1)
                     for m in _burn_in_map(rate)])


def _run_filter(state: np.ndarray, x: np.ndarray, rate: float) -> None:
    """Run the samples ``x`` (samples, rows) through the filter's
    transposed-direct-form recurrence from ``state`` (3, rows), writing
    each output over its input.  Elementwise over the rows."""
    b, a = _filter_coefficients(rate)
    s0, s1, s2 = state
    for xn in x:
        yn = s0 + b[0] * xn
        s0 = (s1 + b[1] * xn) - a[1] * yn
        s1 = (s2 + b[2] * xn) - a[2] * yn
        s2 = b[3] * xn - a[3] * yn
        xn[...] = yn


#: Colored streams drawn and burned in together at most: a block holds
#: 32 x (FILTER_BURN_IN + segments) normals (133 kB at 20 segments) and
#: is reused for the whole batch, so only the kept samples grow with it.
_STREAM_BLOCK = 32


def _colored_rows(rows, n_rows: int, segments: int,
                  rate: float) -> np.ndarray:
    """(n_rows, segments): the colored filter's output on the normals
    of each stream, burn-in dropped; up to rounding, ``scipy.signal.lfilter
    (b, a, white)[FILTER_BURN_IN:]`` on each stream's white noise.

    The streams are drawn a block of ``_STREAM_BLOCK`` at a time, and each
    block's burn-in is folded into the filter state
    (:func:`_burn_in_state`); the recurrence (:func:`_run_filter`) then
    runs once over every row's kept samples.
    """
    kept = np.empty((segments, n_rows))
    state = np.empty((3, n_rows))
    block = np.empty((min(_STREAM_BLOCK, n_rows), FILTER_BURN_IN + segments))
    streams = _seeding.streams(rows)
    for start in range(0, n_rows, len(block)):
        white = block[:n_rows - start]
        for row, rng in zip(white, streams):
            _draw("colored", rng, row)
        stop = start + len(white)
        state[:, start:stop] = _burn_in_state(white[:, :FILTER_BURN_IN], rate)
        kept[:, start:stop] = white[:, FILTER_BURN_IN:].T
    _run_filter(state, kept, rate)
    return kept.T


def _draw(kind: str, rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill ``out`` with one site's raw samples of a kind other than
    uniform_white (whose rows :func:`_seeding.random_rows` draws all at
    once); for "colored", the white input of the filter, burn-in included.
    """
    if kind == "colored":
        rng.standard_normal(out=out)
    elif kind == "normal_abs":
        np.abs(rng.standard_normal(out=out), out=out)
    elif kind == "exponential":
        out[:] = rng.exponential(1.0 / EXPONENTIAL_RATE, len(out))
    else:
        # cauchy: |quotient of two independent standard normals|
        numer = rng.standard_normal(len(out))
        denom = rng.standard_normal(len(out))
        zero = denom == 0.0
        while np.any(zero):  # probability-zero guard; redraw the exact zeros
            denom[zero] = rng.standard_normal(int(zero.sum()))
            zero = denom == 0.0
        np.abs(numer / denom, out=out)


def generate_batch(config: NoiseConfig, amplitudes, seeds,
                   n_sites: int = 7) -> np.ndarray:
    """Sequences of R realizations of one recipe, shape (R, n_sites,
    config.segments), realization r at ``amplitudes[r]`` from ``seeds[r]``.

    Row r is bit-for-bit ``generate(replace(config, amplitude=amplitudes[r],
    seed=seeds[r]), n_sites).sequences``.  Every row is drawn and scaled,
    so a zero amplitude gives zeros.
    """
    seeds = [_seeding.check_seed(seed) for seed in seeds]
    amplitudes = np.asarray(amplitudes, dtype=float)
    if n_sites < 1:
        raise PhysicsError("n_sites must be >= 1")
    if not seeds:
        raise PhysicsError("a batch needs at least one realization")
    if len(amplitudes) != len(seeds):
        raise PhysicsError("a batch needs one seed per amplitude")
    if not (np.isfinite(amplitudes) & (amplitudes >= 0)).all():
        raise PhysicsError("amplitude must be finite and nonnegative")
    kind, segments = config.kind, config.segments
    # the entropy of stream (seed, site): the seed's words, then the site's
    # one word, built as the streams are seeded
    rows = (words + [site]
            for words in map(_seeding.entropy_words, seeds)
            for site in range(n_sites))
    if kind == "uniform_white":
        # the bits of rng.uniform(0.0, 1.0, segments) on each stream
        draws = _seeding.random_rows(rows, segments)
    elif kind == "colored":
        draws = _colored_rows(
            rows, len(seeds) * n_sites, segments,
            config.sampling_frequency * config.filter_time_scale)
        np.abs(draws, out=draws)
    else:
        draws = np.empty((len(seeds) * n_sites, segments))
        for row, rng in zip(draws, _seeding.streams(rows)):
            _draw(kind, rng, row)
    # elementwise and per row from here on, in place
    profiles = draws.reshape(len(seeds), n_sites, segments)
    if kind != "uniform_white":
        peak = profiles.max(axis=2, keepdims=True)
        profiles /= np.where(peak > 0, peak, 1.0)
    profiles *= amplitudes[:, None, None]
    if not np.isfinite(profiles).all():
        # a colored filter at a rate far from 1 has no finite coefficients
        raise PhysicsError("the detuning sequences are not finite; bring "
                           "filter_time_scale * sampling frequency closer to 1")
    return profiles


def generate(config: NoiseConfig, n_sites: int = 7) -> NoiseRealization:
    """Draw one seed-deterministic realization for ``n_sites`` sites.

    Every sequence is drawn and scaled, so at amplitude 0 it is zero.
    """
    batch = generate_batch(config, [config.amplitude], [config.seed], n_sites)
    return NoiseRealization(batch[0], config)


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
    _csv.write_table(path_or_file, _NOISE_HEADER,
                     ([site + 1, seg, f"{value:.17g}"]
                      for site in range(nr.n_sites)
                      for seg, value in enumerate(nr.sequences[site])))


def read_noise_csv(path_or_file) -> NoiseRealization:
    """Read sequences written by :func:`write_noise_csv`.

    The realization's config echoes the file's shape: a uniform_white
    recipe with one segment per mm, at the largest absolute value read.
    The file must hold each ``(site, segment_index)`` pair exactly once,
    for every site 1..n and every segment 0..m-1; a file with a gap is
    rejected, naming the first missing site or segment.
    """
    data: dict = {}
    for line, rec in _csv.read_table(path_or_file, _NOISE_HEADER, "noise",
                                     "noise file"):
        try:
            site, seg, value = int(rec[0]), int(rec[1]), float(rec[2])
        except (IndexError, ValueError) as exc:
            raise PhysicsError(f"line {line}: malformed noise row {rec}") from exc
        if seg < 0:
            raise PhysicsError(
                f"line {line}: negative segment index in noise row {rec}")
        if site < 1:
            raise PhysicsError(f"line {line}: site below 1 in noise row {rec}")
        segs = data.setdefault(site, {})
        if seg in segs:
            raise PhysicsError(
                f"line {line}: repeated site {site} segment {seg} in noise "
                f"row {rec}")
        segs[seg] = value
    if not data:
        raise PhysicsError("noise file contains no rows")
    n_sites = max(data)
    n = max(max(segs) for segs in data.values()) + 1
    seqs = np.empty((n_sites, n))
    for site in range(1, n_sites + 1):
        if site not in data:
            raise PhysicsError(f"noise file has no row for site {site}")
        for seg in range(n):
            if seg not in data[site]:
                raise PhysicsError(
                    f"noise file has no row for site {site} segment {seg}")
            seqs[site - 1, seg] = data[site][seg]
    amplitude = float(np.abs(seqs).max())
    config = NoiseConfig(
        kind="uniform_white",
        amplitude=amplitude if amplitude > 0 else 0.0,
        segments=n,
        total_length=float(n),
    )
    return NoiseRealization(seqs, config)
