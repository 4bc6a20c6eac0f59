"""Piecewise-constant single-excitation evolution on the waveguide array.

The array Hamiltonian is held fixed within each writing segment; per-site
detunings shift the seven network diagonals segment by segment while the
sink and the optional vibration waveguide stay undetuned.

:func:`propagate` evolves a whole batch of realizations at once, one
column of the state array per realization.  Within a segment it applies
exp(-i H dz) as a Chebyshev series (Tal-Ezer & Kosloff, J. Chem. Phys. 81,
3967 (1984)) on a spectral interval bounded by Gershgorin discs, truncated
where the Bessel coefficients fall below 1e-16; a step agrees with the
exact propagator to about 1e-14.  The matrix-vector product follows the
array's structure (a dense block over the network sites and the optional
vibration mode, then a nearest-neighbour sink chain) and is written as
elementwise operations and one reduction only, so a column's result does
not depend on which other columns share its batch.

The sink chain only has to look irreversible over the chip, so the light
never reaches its far end.  :func:`propagate` evolves only the light cone:
the network rows and the first L chain waveguides, where L is the
smallest depth whose cut moves the state by at most LIGHT_CONE_TOL over
the whole propagation (a Lieb-Robinson-style bound; Lieb & Robinson,
Commun. Math. Phys. 28, 251 (1972)).  The rows past the window are exact
zeros in the yielded states.  L depends only on the chain couplings and
the propagation length, never on the detunings or diagonals.

:func:`segment_propagator` builds the exact propagator from a Hermitian
eigendecomposition; it is the reference the kernel is tested against.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import PhysicsError
from .model import HERMITICITY_TOL, Hamiltonian, effective_coupling
from .noise import NoiseRealization

__all__ = ["PiecewiseHamiltonian", "EvolutionTrace", "segment_propagator",
           "spectral_interval", "propagate", "evolve", "site_probabilities",
           "write_trace_csv"]

#: Default fine sampling step in mm: 20 samples per 1 mm segment resolves
#: the fastest beating frequency present on the chip (~1.344 mm^-1).
DEFAULT_FINE_STEP = 0.05

#: Chebyshev terms whose coefficient falls below this are dropped.
SERIES_TOL = 1e-16

#: Most Chebyshev terms one step may take; the count grows linearly with
#: the spectral half-width times the step (149 terms for figS8's widest
#: study: amplitude 90 and disorder 100 mm^-1 over 1 mm segments).
MAX_SERIES_TERMS = 10_000

#: Most samples one trace may record (5,000 mm at the default fine step).
MAX_TRACE_SAMPLES = 100_000

#: Largest |1 - ||psi||^2| accepted at any sample of a propagation.
NORM_TOL = 1e-9

#: Largest bound on how far cutting the sink chain moves a propagated state.
LIGHT_CONE_TOL = 1e-16


@dataclass(frozen=True)
class PiecewiseHamiltonian:
    """A base array Hamiltonian plus a per-segment detuning schedule.

    ``detunings.sequences`` has one row per network site (applied to the
    first seven diagonals only) and one column per segment of length
    ``segment_length`` mm.  With ``coupling_correction`` enabled, each
    nearest-neighbour network coupling is replaced segment-wise by the
    effective value sqrt((d/2)^2 + C0^2) built from the pair's mean
    detuning d; by default only the diagonals are detuned.
    """

    base: Hamiltonian
    detunings: NoiseRealization
    segment_length: float = 1.0
    total_length: float = 20.0
    coupling_correction: bool = False

    def __post_init__(self):
        n_seg = self.detunings.sequences.shape[1]
        if abs(n_seg * self.segment_length - self.total_length) > 1e-9:
            raise PhysicsError(
                f"{n_seg} segments of {self.segment_length} mm do not tile "
                f"{self.total_length} mm")
        if self.detunings.n_sites != len(self.base.fmo_indices):
            raise PhysicsError("one detuning sequence per network site is required")

    @property
    def n_segments(self) -> int:
        return self.detunings.sequences.shape[1]

    def segment_matrix(self, k: int) -> np.ndarray:
        """Effective Hamiltonian of segment ``k`` (0-based)."""
        h = self.base.matrix.copy()
        idx = np.asarray(self.base.fmo_indices)
        d = self.detunings.sequences[:, k]
        h[idx, idx] += d
        if self.coupling_correction:
            for a in range(len(idx) - 1):
                i, j = idx[a], idx[a + 1]
                c0 = self.base.matrix[i, j]
                if c0 == 0.0:
                    continue
                ceff = np.sign(c0) * effective_coupling(
                    abs(c0), 0.5 * (d[a] + d[a + 1]))
                h[i, j] = h[j, i] = ceff
        return h


@dataclass(frozen=True)
class EvolutionTrace:
    """Amplitude samples psi(z_j) on a uniform grid of step ``fine_step``."""

    positions: np.ndarray
    amplitudes: np.ndarray  # (n_samples, dim) complex
    roles: tuple
    source_site: int
    drain_site: int
    fine_step: float

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        amp = np.asarray(self.amplitudes, dtype=complex)
        pos.setflags(write=False)
        amp.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def fmo_indices(self):
        return tuple(i for i, r in enumerate(self.roles) if r.startswith("fmo_site"))

    @property
    def sink_indices(self):
        return tuple(i for i, r in enumerate(self.roles) if r.startswith("sink"))


def segment_propagator(h_eff: np.ndarray, dz: float) -> np.ndarray:
    """Unitary exp(-i h_eff dz) via spectral decomposition."""
    h = np.asarray(h_eff)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise PhysicsError("segment Hamiltonian must be square")
    if np.abs(h - h.conj().T).max() > HERMITICITY_TOL:
        raise PhysicsError("segment Hamiltonian is not Hermitian")
    if dz < 0:
        raise PhysicsError("propagation distance must be nonnegative")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * dz)) @ v.conj().T


@dataclass(frozen=True)
class _Structure:
    """A Hamiltonian split into the parts the structured product uses."""

    block: np.ndarray      # (n0, n0) couplings among the non-sink indices
    chain: np.ndarray      # (n_sinks - 1, 1) couplings along the sink chain
    link: float            # drain-to-first-sink coupling
    drain: int
    sites: np.ndarray      # network-site indices, all below n0
    outer_radius: np.ndarray  # (dim,) Gershgorin radius outside the block

    @property
    def n0(self) -> int:
        return self.block.shape[0]


def _structure(h: Hamiltonian) -> _Structure:
    m = h.matrix
    if np.any(m.imag != 0.0):
        raise PhysicsError("propagation needs a real symmetric Hamiltonian")
    m = m.real
    dim = h.dim
    sinks = h.sink_indices
    n0 = dim - len(sinks)
    if not np.array_equal(sinks, np.arange(n0, dim)):
        raise PhysicsError("the sink waveguides must be the last indices")
    block = m[:n0, :n0].copy()
    np.fill_diagonal(block, 0.0)
    chain = np.diag(m, 1)[n0:].copy()
    drain = h.drain_index
    link = float(m[drain, n0]) if len(sinks) else 0.0
    outer = np.zeros_like(m)
    i = np.arange(n0, dim - 1)
    outer[i, i + 1] = outer[i + 1, i] = chain
    if len(sinks):
        outer[drain, n0] = outer[n0, drain] = link
    rebuilt = outer.copy()
    rebuilt[:n0, :n0] += block
    np.fill_diagonal(rebuilt, np.diag(m))
    if not np.array_equal(rebuilt, m):
        raise PhysicsError(
            "propagation needs a network block plus a nearest-neighbour sink "
            "chain linked to the drain site only")
    return _Structure(block, chain[:, None], link, drain, h.fmo_indices,
                      np.abs(outer).sum(axis=1))


def _batch(h: Hamiltonian, detunings, diagonals):
    """Validated (R, sites, segments) detunings and (dim, R) diagonals."""
    det = np.asarray(detunings, dtype=float)
    if det.ndim != 3 or det.shape[0] < 1 or det.shape[1] != len(h.fmo_indices):
        raise PhysicsError(
            "detunings must have shape (realizations, network sites, segments)")
    if diagonals is None:
        diag = np.repeat(h.matrix.diagonal().real[:, None], det.shape[0], axis=1)
    else:
        diag = np.asarray(diagonals, dtype=float)
        if diag.shape != (h.dim, det.shape[0]):
            raise PhysicsError("diagonals must have shape (dim, realizations)")
    if not (np.isfinite(det).all() and np.isfinite(diag).all()):
        raise PhysicsError("detunings and diagonals must be finite")
    return det, diag


def _segment(st: _Structure, diag, det_k, coupling_correction: bool):
    """Diagonal (dim, R) and block (n0, n0, R or 1) of one segment.

    ``det_k`` is the segment's (sites, R) detuning.  Without the coupling
    correction every column shares the base block.
    """
    d = diag.copy()
    d[st.sites] += det_k
    block = st.block[:, :, None]
    if coupling_correction:
        block = np.repeat(block, det_k.shape[1], axis=2)
        for a in range(len(st.sites) - 1):
            i, j = st.sites[a], st.sites[a + 1]
            c0 = st.block[i, j]
            if c0 == 0.0:
                continue
            ceff = np.sign(c0) * effective_coupling(
                abs(c0), 0.5 * (det_k[a] + det_k[a + 1]))
            block[i, j] = block[j, i] = ceff
    return d, block


def spectral_interval(h: Hamiltonian, detunings, diagonals=None,
                      coupling_correction: bool = False) -> tuple:
    """(lo, hi) enclosing the spectrum of every segment of every column.

    The bound is the union of the Gershgorin discs of all the segment
    matrices, so it depends on the whole batch; pass it to
    :func:`propagate` to run a subset of the columns on the same interval.
    """
    st = _structure(h)
    det, diag = _batch(h, detunings, diagonals)
    lo, hi = math.inf, -math.inf
    for k in range(det.shape[2]):
        d, block = _segment(st, diag, det[:, :, k].T, coupling_correction)
        r = np.repeat(st.outer_radius[:, None], d.shape[1], axis=1)
        r[:st.n0] += np.abs(block).sum(axis=1)
        lo = min(lo, float((d - r).min()))
        hi = max(hi, float((d + r).max()))
    return lo, hi


def _bessel_j(x: float, n: int) -> np.ndarray:
    """J_0(x) .. J_{n-1}(x) for x >= 0 by Miller's backward recurrence.

    J_{k-1} = (2k/x) J_k - J_{k+1} is run downward from an order far above
    both n and x, where J is negligible, rescaling to avoid overflow, and
    the result is normalized by J_0 + 2 (J_2 + J_4 + ...) = 1.
    """
    out = np.zeros(n)
    if x < 1e-30:  # J_1(x) ~ x/2 is far below any resolvable coefficient
        out[0] = 1.0
        return out
    m = max(n, int(x))
    top = m + int(math.sqrt(160.0 * m)) + 16
    top += top % 2
    above, here, total = 0.0, 1e-300, 0.0   # J_{k+1}, J_k, even-order sum
    for k in range(top, 0, -1):
        above, here = here, 2.0 * k / x * here - above
        if abs(here) > 1e250:
            above, here, total = above * 1e-250, here * 1e-250, total * 1e-250
            out *= 1e-250
        if k - 1 < n:
            out[k - 1] = here
        if k > 1 and (k - 1) % 2 == 0:
            total += 2.0 * here
    return out / (total + here)


def _chebyshev_weights(rho: float) -> np.ndarray:
    """Weights w_k of exp(-i rho t) on t in [-1, 1].

    exp(-i rho t) = sum_{k even} w_k T_k(t) - i sum_{k odd} w_k T_k(t),
    with w_k = (2 - [k = 0]) (-1)^(k // 2) J_k(rho), truncated at the first
    order past rho whose coefficient is below SERIES_TOL.
    """
    if not 1.5 * rho + 40 <= MAX_SERIES_TERMS:
        raise PhysicsError(
            f"the Chebyshev series for rho={rho:g} (spectral half-width "
            f"times step) may need more than {MAX_SERIES_TERMS} terms")
    n = int(1.5 * rho) + 40
    j = _bessel_j(rho, n)
    k = np.arange(n)
    small = np.nonzero((k > rho) & (2.0 * np.abs(j) < SERIES_TOL))[0]
    if not small.size:
        raise PhysicsError(f"Chebyshev series for rho={rho:g} did not converge")
    w = 2.0 * j[:small[0]]
    w[0] = j[0]
    w[(k[:small[0]] // 2) % 2 == 1] *= -1.0
    return w


def _check_norm(x: np.ndarray) -> None:
    sq = x * x
    norms = sq[:, 0::2].sum(axis=0) + sq[:, 1::2].sum(axis=0)
    drift = float(np.abs(1.0 - norms).max())
    if not drift <= NORM_TOL:
        raise PhysicsError(
            f"norm drift {drift:.3g} exceeds {NORM_TOL:g} (the series "
            "diverges on a spectral interval that is too narrow)")


def _light_cone_depth(coupling: float, length: float, max_depth: int) -> int:
    """Smallest chain depth L with coupling * length * B(L) <= LIGHT_CONE_TOL.

    B(L) = sum_{k >= L} a^k / k!, a = 2 coupling length, bounds the part
    of the state at depth L (see :func:`propagate`).  It is summed from its
    high-order end, which bounds the terms past ``max_depth`` by a geometric
    series, so no partial sum is subtracted from exp(a).  Returns
    ``max_depth`` (the whole chain) when no shallower cut is small enough.
    """
    scale = coupling * length
    a = 2.0 * scale
    if scale == 0.0 or max_depth == 0:
        return 0
    if a >= max_depth:  # then B(L) >= a^L / L! >= 1 for every L < max_depth
        return max_depth
    log_a = math.log(a)
    term = math.exp(max_depth * log_a - math.lgamma(max_depth + 1))
    tail = term / (1.0 - a / (max_depth + 1))  # B(max_depth)
    for depth in range(max_depth - 1, -1, -1):
        tail += math.exp(depth * log_a - math.lgamma(depth + 1))
        if scale * tail > LIGHT_CONE_TOL:
            return depth + 1
    return 0


def _chebyshev_step(x, matvec, weights, cos_t, sin_t):
    """exp(-i H dt) x, with ``matvec`` applying 2 (H - center) / half."""
    even = weights[0] * x
    odd = np.zeros_like(x)
    prev, cur = x, None
    for k in range(1, len(weights)):
        if k == 1:
            cur = 0.5 * matvec(x)
        else:
            nxt = matvec(cur)
            nxt -= prev
            prev, cur = cur, nxt
        if k % 2:
            odd += weights[k] * cur
        else:
            even += weights[k] * cur
    # (cos - i sin) (even - i odd), written out on the real/imaginary columns
    re = even[:, 0::2] + odd[:, 1::2]
    im = even[:, 1::2] - odd[:, 0::2]
    out = np.empty_like(x)
    out[:, 0::2] = cos_t * re + sin_t * im
    out[:, 1::2] = cos_t * im - sin_t * re
    return out


def propagate(h: Hamiltonian, detunings, segment_length: float,
              steps_per_segment: int = 1, diagonals=None,
              coupling_correction: bool = False, interval=None):
    """Evolve a batch of realizations; yield the states at every step.

    ``detunings`` has shape (R, network sites, segments): column r of the
    batch adds ``detunings[r, :, k]`` to the network diagonals during
    segment k.  ``diagonals`` (dim, R) replaces the diagonal of ``h`` per
    column (static disorder); by default every column keeps it.  With
    ``coupling_correction`` the network couplings are corrected per column
    and segment as in :meth:`PiecewiseHamiltonian.segment_matrix`.

    Every column starts with a unit excitation at the source site.  The
    generator yields a fresh (dim, R) complex array: the initial state,
    then the state after each of ``steps_per_segment`` equal steps per
    segment.  ``interval`` defaults to :func:`spectral_interval` of the
    batch.  Raises PhysicsError if any column's norm drifts by more than
    NORM_TOL.

    Only the light cone of the sink chain is evolved: rows ``[:n0 + L]``,
    where n0 counts the non-sink rows, and every row past them holds an
    exact zero.  With c the largest absolute coupling on the drain link
    and along the chain and T the propagation length, L is the smallest
    depth with c T B(L) <= LIGHT_CONE_TOL, B(L) = sum_{k >= L} (2 c T)^k /
    k!.  The bound: the network block, the vibration mode and every
    diagonal (detunings, disorder and the coupling correction included)
    keep the chain depth fixed, while the link and the chain bonds, of norm
    at most 2 c together, change it by exactly 1.  The source is at depth
    0, so in the interaction-picture Dyson series the state at depth m
    has norm at most B(m), and cutting the bond below depth L moves the
    state by at most c T B(L).  The window is a leading principal
    submatrix, whose spectrum lies inside the interval of the full matrix.
    L depends on c and T only, so a column run alone and in a batch share
    the window.
    """
    st = _structure(h)
    det, diag = _batch(h, detunings, diagonals)
    if not (math.isfinite(segment_length) and segment_length > 0):
        raise PhysicsError("segment length must be positive and finite")
    if steps_per_segment < 1:
        raise PhysicsError("steps_per_segment must be >= 1")
    if interval is None:
        interval = spectral_interval(h, det, diag, coupling_correction)
    lo, hi = (float(v) for v in interval)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise PhysicsError(f"invalid spectral interval ({lo:g}, {hi:g})")
    center, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    dt = segment_length / steps_per_segment
    weights = _chebyshev_weights(half * dt)
    cos_t, sin_t = math.cos(center * dt), math.sin(center * dt)
    scale = 2.0 / half if half > 0 else 0.0
    n0 = st.n0
    coupling = max(abs(st.link), float(np.abs(st.chain).max(initial=0.0)))
    depth = _light_cone_depth(coupling, det.shape[2] * segment_length,
                              h.dim - n0)
    rows = n0 + depth
    diag = diag[:rows]
    chain, link = st.chain[:max(depth - 1, 0)] * scale, st.link * scale

    def padded(x):
        out = np.zeros((h.dim, x.shape[1]))
        out[:rows] = x
        return out.view(complex)

    # The state is real: column 2r holds Re psi_r and column 2r + 1 Im psi_r,
    # which the real operator 2 (H - center) / half acts on alike.
    x = np.zeros((rows, 2 * det.shape[0]))
    x[h.source_index, 0::2] = 1.0
    yield padded(x)
    for k in range(det.shape[2]):
        d, block = _segment(st, diag, det[:, :, k].T, coupling_correction)
        d = np.repeat((d - center) * scale, 2, axis=1)
        block = block * scale
        if block.shape[2] > 1:
            block = np.repeat(block, 2, axis=2)

        def matvec(v):
            y = d * v
            y[:n0] += (block * v[None, :n0]).sum(axis=1)
            if depth:
                y[n0 + 1:] += chain * v[n0:-1]
                y[n0:-1] += chain * v[n0 + 1:]
                y[st.drain] += link * v[n0]
                y[n0] += link * v[st.drain]
            return y

        for _ in range(steps_per_segment):
            x = _chebyshev_step(x, matvec, weights, cos_t, sin_t)
            _check_norm(x)
            yield padded(x)


def evolve(ph: PiecewiseHamiltonian, fine_step: float = DEFAULT_FINE_STEP) -> EvolutionTrace:
    """Propagate a unit excitation at the source site across all segments.

    Amplitudes are recorded every ``fine_step`` mm; the step must divide
    the segment length so segment boundaries land on the grid.  This is
    :func:`propagate` on a batch of one.
    """
    dt = ph.segment_length
    if fine_step <= 0 or fine_step > dt + 1e-15:
        raise PhysicsError("fine step must lie in (0, segment_length]")
    per_seg = dt / fine_step
    if not ph.n_segments * per_seg < MAX_TRACE_SAMPLES:
        raise PhysicsError(f"a trace of {ph.total_length:g} mm would hold "
                           f"more than {MAX_TRACE_SAMPLES} samples")
    if abs(per_seg - round(per_seg)) > 1e-9:
        raise PhysicsError("fine step must divide the segment length")
    states = propagate(ph.base, ph.detunings.sequences[None], dt,
                       int(round(per_seg)),
                       coupling_correction=ph.coupling_correction)
    amps = np.array([psi[:, 0] for psi in states])
    positions = np.arange(len(amps)) * fine_step
    return EvolutionTrace(positions, amps, ph.base.roles,
                          ph.base.source_site, ph.base.drain_site, fine_step)


def site_probabilities(tr: EvolutionTrace, subset=None, renormalize: bool = False) -> np.ndarray:
    """Probability series |psi_i(z_j)|^2 for the chosen indices.

    Returns an array of shape (n_samples, len(subset)).  With
    ``renormalize`` the rows are divided by their subset totals, as used
    for seven-site excitation traces.
    """
    if subset is None:
        subset = range(tr.amplitudes.shape[1])
    subset = list(subset)
    if not subset:
        raise PhysicsError("subset must be nonempty")
    p = np.abs(tr.amplitudes[:, subset]) ** 2
    if renormalize:
        totals = p.sum(axis=1)
        bad = np.nonzero(totals == 0)[0]
        if bad.size:
            raise PhysicsError(
                f"subset probability is zero at z={tr.positions[bad[0]]:g} mm")
        p = p / totals[:, None]
    return p


def write_trace_csv(tr: EvolutionTrace, path, stride: int = 1) -> None:
    """Write (z, site_index, re, im, probability) rows, optionally strided."""
    if stride < 1:
        raise PhysicsError("stride must be >= 1")
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["z_mm", "site_index", "re", "im", "probability"])
        for j in range(0, len(tr.positions), stride):
            z = tr.positions[j]
            for i, a in enumerate(tr.amplitudes[j]):
                w.writerow([f"{z:.17g}", i, f"{a.real:.17g}", f"{a.imag:.17g}",
                            f"{abs(a) ** 2:.17g}"])
