"""Estimators and observables: correlations, spectra, reorganization
energy, transport efficiency, transfer time, localization measures, and
intensity-image readout.

Correlation estimators divide by the full series length n (not n - lag)
and remove the sample mean, so they match the biased sample definition
used for characterizing the writing-speed sequences.  Efficiencies sum
|psi|^2 with the kernel's dynamics._norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PhysicsError
from .dynamics import (EvolutionTrace, _norms, _real_rows, _sink_fraction,
                       site_probabilities)

__all__ = ["SpectrumEstimate", "LinearFitResult", "sample_acf", "sample_ccf",
           "psd_periodogram", "reorganization_energy", "variance",
           "fit_reorganization_law", "transport_efficiency", "transfer_time",
           "ipr", "eigen_site_distribution", "most_probable_site",
           "efficiency_from_intensity_image", "intensity_image_sums",
           "read_pixel_matrix",
           "EllipseMask", "RectMask"]


@dataclass(frozen=True)
class SpectrumEstimate:
    """One-sided power spectral density on an ascending frequency grid;
    ``density`` may hold a stack of them along its leading axes."""

    frequencies: np.ndarray   # mm^-1 (ordinary frequency grid)
    density: np.ndarray       # power per unit frequency

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        d = np.asarray(self.density, dtype=float)
        if f.ndim != 1 or f.shape != d.shape[-1:]:
            raise PhysicsError("frequency and density grids differ in length")
        if np.any(f < 0) or np.any(np.diff(f) <= 0):
            raise PhysicsError("frequencies must be nonnegative and ascending")
        if np.any(d < -1e-12):
            raise PhysicsError("spectral density must be nonnegative")
        f.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "density", np.maximum(d, 0.0))


@dataclass(frozen=True)
class LinearFitResult:
    """Ordinary least-squares line with goodness of fit."""

    slope: float
    intercept: float
    r_squared: float

    def __post_init__(self):
        if not -1e-12 <= self.r_squared <= 1 + 1e-12:
            raise PhysicsError("r_squared must lie in [0, 1]")


def _autocovariance(x: np.ndarray, lag: int) -> float:
    n = len(x)
    xc = x - x.mean()
    return float(np.dot(xc[lag:], xc[: n - lag]) / n)


def sample_acf(seq, lag: int) -> float:
    """Normalized sample autocorrelation at the given lag.

    Uses the length-n denominator with the sample mean removed:
    Acov(tau) = (1/n) sum_{t} (x_{t+tau} - xbar)(x_t - xbar).
    """
    x = np.asarray(seq, dtype=float)
    if not 0 <= lag < len(x):
        raise PhysicsError("lag must satisfy 0 <= lag < n")
    c0 = _autocovariance(x, 0)
    if c0 == 0:
        raise PhysicsError("constant series has undefined autocorrelation")
    return _autocovariance(x, lag) / c0


def sample_ccf(x, y, lag: int) -> float:
    """Normalized sample cross-correlation of two equal-length series."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise PhysicsError("series must have equal length")
    n = len(x)
    if not 0 <= lag < n:
        raise PhysicsError("lag must satisfy 0 <= lag < n")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = np.sqrt(np.dot(xc, xc) / n)
    sy = np.sqrt(np.dot(yc, yc) / n)
    if sx == 0 or sy == 0:
        raise PhysicsError("constant series has undefined cross-correlation")
    return float(np.dot(xc[lag:], yc[: n - lag]) / n) / (sx * sy)


def psd_periodogram(seq, f_s: float, nfft: int = 128) -> SpectrumEstimate:
    """One-sided rectangular-window periodogram of a mean-removed sequence.

    The sequence is zero-padded to ``nfft`` points.  The density is
    scaled so that sum(J) * df equals the sample variance of the input
    (Parseval-consistent), with the one-sided folding applied to all
    interior bins.  A stack of sequences (time along the last axis) gives
    one density per sequence, of shape (..., nfft // 2 + 1).
    """
    x = np.asarray(seq, dtype=float)
    n = x.shape[-1] if x.ndim else 0
    if n == 0:
        raise PhysicsError("empty sequence has no spectrum")
    if n > nfft:
        raise PhysicsError("sequence longer than nfft")
    if nfft & (nfft - 1):
        raise PhysicsError("nfft must be a power of two")
    if not (np.isfinite(f_s) and f_s > 0):
        raise PhysicsError("sampling frequency must be positive and finite")
    xc = x - x.mean(axis=-1, keepdims=True)
    spec = np.fft.rfft(xc, n=nfft)
    # Two-sided density |X|^2 / (n f_s); folding doubles interior bins.
    dens = (np.abs(spec) ** 2) / (n * f_s)
    dens[..., 1:-1] *= 2.0
    freqs = np.fft.rfftfreq(nfft, d=1.0 / f_s)
    return SpectrumEstimate(freqs, dens)


def reorganization_energy(spec: SpectrumEstimate):
    """(1/pi) * sum_{w>0} J(w)/w * dw over the positive angular-frequency bins.

    The zero-frequency bin is excluded: mean removal makes it an
    estimation artifact and the 1/w weight is singular there.  A float for
    one density; an array, one value per density, for a stack.
    """
    if len(spec.frequencies) == 0:
        raise PhysicsError("empty spectrum")
    omega = 2.0 * np.pi * spec.frequencies
    # Density per unit angular frequency; d_omega = 2 pi df.
    j_omega = spec.density / (2.0 * np.pi)
    if len(omega) < 2:
        return 0.0 if j_omega.ndim == 1 else np.zeros(j_omega.shape[:-1])
    d_omega = omega[1] - omega[0]
    pos = omega > 0
    energy = np.sum(j_omega[..., pos] / omega[pos], axis=-1) * d_omega / np.pi
    return float(energy) if energy.ndim == 0 else energy


def variance(seq):
    """Population variance of a sequence: a float, or an array with one
    value per sequence for a stack (time along the last axis)."""
    x = np.asarray(seq, dtype=float)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise PhysicsError("empty sequence has no variance")
    var = np.var(x, axis=-1)
    return float(var) if var.ndim == 0 else var


def fit_reorganization_law(points) -> LinearFitResult:
    """Least-squares line through (variance, reorganization energy) pairs."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise PhysicsError("need at least 3 (variance, energy) pairs")
    x, y = pts[:, 0], pts[:, 1]
    if np.ptp(x) == 0:
        raise PhysicsError("degenerate fit: all variances equal")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return LinearFitResult(float(slope), float(intercept), max(0.0, min(1.0, r2)))


def _index_at(tr: EvolutionTrace, z: float) -> int:
    j = z / tr.fine_step
    if not (np.isfinite(j) and abs(j - round(j)) <= 1e-9
            and 0 <= round(j) < len(tr.positions)):
        raise PhysicsError(f"z={z:g} mm is not on the trace grid")
    return int(round(j))


def transport_efficiency(tr: EvolutionTrace, z: float | None = None) -> float:
    """Fraction of intensity that has reached the sink chain at z (by
    default the end of the trace), as dynamics.sink_fractions reads it."""
    sink = list(tr.sink_indices)
    if not sink:
        raise PhysicsError("trace has no sink waveguides")
    j = len(tr.positions) - 1 if z is None else _index_at(tr, z)
    return float(_sink_fraction(_real_rows(tr.amplitudes[[j]]), sink)[0])


def transfer_time(tr: EvolutionTrace) -> float:
    """Mean arrival distance of the intensity that reaches the sink by the
    end of the trace, T.

    tau = -(dt/eta_N) * sum_{j=1}^{N-1} P_sink(j dt) + (T - dt/2), where
    eta_N is the sink fraction at T and dt the trace sampling step.
    """
    sink = list(tr.sink_indices)
    if not sink:
        raise PhysicsError("trace has no sink waveguides")
    t_total = tr.positions[-1]
    n = len(tr.positions) - 1
    if n < 1:
        raise PhysicsError("trace too short for a transfer time")
    dt = tr.fine_step
    p_sink = _norms(_real_rows(tr.amplitudes)[sink])
    eta_n = transport_efficiency(tr)
    if eta_n <= 0:
        raise PhysicsError("zero terminal efficiency: transfer time undefined")
    return float(-(dt / eta_n) * p_sink[1:n].sum() + (t_total - dt / 2.0))


def ipr(h) -> float:
    """Inverse participation ratio of the eigenstates on the network block.

    IPR = 1 / sum |<i|E_a>|^4, from the weights of
    :func:`eigen_site_distribution` on the same block.
    """
    _, weights = eigen_site_distribution(h)
    return float(1.0 / np.sum(weights ** 2))


def eigen_site_distribution(h):
    """Eigenvalues (ascending) and the |<i|E_a>|^2 weight matrix.

    A :class:`~fmosim.model.Hamiltonian` is restricted to its network
    block (the seven FMO sites); a bare matrix is taken whole.  Returns
    (eigenvalues, weights) where weights[i, a] is site i's probability in
    eigenstate a; every row sums to 1 by completeness.
    """
    from .model import Hamiltonian
    if isinstance(h, Hamiltonian):
        idx = h.fmo_indices
        block = h.block[np.ix_(idx, idx)]
    else:
        block = np.asarray(h)
    if np.abs(block - block.conj().T).max() > 1e-10:
        raise PhysicsError("Hamiltonian block is not Hermitian")
    w, v = np.linalg.eigh(block)
    return w, np.abs(v) ** 2


def most_probable_site(tr: EvolutionTrace) -> np.ndarray:
    """Per-sample 1-based network site with the largest renormalized
    probability; ties break toward the lowest site number."""
    fmo = list(tr.fmo_indices)
    if len(fmo) < 7:
        raise PhysicsError("trace does not cover the seven network sites")
    p = site_probabilities(tr, fmo, renormalize=True)
    return np.argmax(p, axis=1) + 1


@dataclass(frozen=True)
class EllipseMask:
    """Ellipse in pixel units: center (cx, cy), semi-axes (rx, ry)."""

    cx: float
    cy: float
    rx: float
    ry: float

    def select(self, shape):
        ny, nx = shape
        if self.rx <= 0 or self.ry <= 0:
            raise PhysicsError("ellipse semi-axes must be positive")
        y, x = np.mgrid[0:ny, 0:nx]
        return ((x - self.cx) / self.rx) ** 2 + ((y - self.cy) / self.ry) ** 2 <= 1.0


@dataclass(frozen=True)
class RectMask:
    """Axis-aligned rectangle: corner (x, y), extent (w, h), in pixels."""

    x: float
    y: float
    w: float
    h: float

    def select(self, shape):
        ny, nx = shape
        if self.w <= 0 or self.h <= 0:
            raise PhysicsError("rectangle extent must be positive")
        y, x = np.mgrid[0:ny, 0:nx]
        return (x >= self.x) & (x < self.x + self.w) & (y >= self.y) & (y < self.y + self.h)


def read_pixel_matrix(path) -> np.ndarray:
    """Parse a whitespace-separated ASCII matrix, one row per line."""
    rows = []
    width = None
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise PhysicsError(f"{path}: not UTF-8 text") from exc
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            row = [float(tok) for tok in line.split()]
        except ValueError as exc:
            raise PhysicsError(f"line {lineno}: non-numeric pixel value") from exc
        if not np.isfinite(row).all():
            raise PhysicsError(f"line {lineno}: non-finite pixel value")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise PhysicsError(
                f"line {lineno}: ragged row ({len(row)} values, expected {width})")
        rows.append(row)
    if not rows:
        raise PhysicsError("empty pixel matrix")
    return np.asarray(rows)


def efficiency_from_intensity_image(pixels, fmo_mask: EllipseMask,
                                    sink_mask: RectMask,
                                    background: float = 0.0) -> float:
    """Sink fraction of masked intensity after background subtraction."""
    return intensity_image_sums(pixels, fmo_mask, sink_mask, background)[2]


def intensity_image_sums(pixels, fmo_mask: EllipseMask, sink_mask: RectMask,
                         background: float = 0.0) -> tuple:
    """(network sum, sink sum, sink fraction) of the background-subtracted
    pixels under the two masks, as :func:`efficiency_from_intensity_image`
    reads them."""
    img = np.asarray(pixels, dtype=float)
    if img.ndim != 2:
        raise PhysicsError("pixel matrix must be two-dimensional")
    if not (np.isfinite(img).all() and np.isfinite(background)):
        raise PhysicsError("pixel values and background must be finite")
    m_fmo = fmo_mask.select(img.shape)
    m_sink = sink_mask.select(img.shape)
    if not m_fmo.any() or not m_sink.any():
        raise PhysicsError("mask lies outside the image")
    if (m_fmo & m_sink).any():
        raise PhysicsError("network and sink masks overlap")
    net = img - background
    s_fmo = float(net[m_fmo].sum())
    s_sink = float(net[m_sink].sum())
    total = s_fmo + s_sink
    if total <= 0:
        raise PhysicsError("zero total masked intensity")
    return s_fmo, s_sink, s_sink / total
