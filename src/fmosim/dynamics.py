"""Piecewise-constant single-excitation evolution on the waveguide array.

The array Hamiltonian is held fixed within each writing segment; per-site
detunings shift the seven network diagonals segment by segment while the
sink and the optional vibration waveguide stay undetuned.

The kernel evolves a whole batch of realizations at once, one column of
the state array per realization.  Within a segment it applies
exp(-i H dz) as a Chebyshev series (Tal-Ezer & Kosloff, J. Chem. Phys. 81,
3967 (1984)) on each column's own spectral interval.  One budget bounds
what truncating the series costs: over a whole call of N steps, every
step drops Bessel weights summing below TRUNCATION_BUDGET / N, so the
truncation moves each column's state by at most TRUNCATION_BUDGET (2e-11)
in norm, rounding aside.  The per-step cut never goes below
STEP_CUT_FLOOR (1e-16), so a call of more than TRUNCATION_BUDGET /
STEP_CUT_FLOOR (200,000) steps may drop up to N * 1e-16 in all (see
:func:`_step_cut`).  A series of K terms in the column's scaled
Hamiltonian A runs as ceil(K / 2) terms of one recurrence in B = T_2(A) =
2 A^2 - I, plus one application of A for its odd part (:func:`_b_weights`).
Each B-term costs three numpy calls that follow the array's structure
(:func:`_chebyshev_step`): a dense head, five bands on the chain, and the
recurrence, none through BLAS, whose blocked sums may depend on the batch
width.  A column's interval, series and weights come from its own inputs,
and its weights are exact zeros past its own series, so its result is the
same bits in any batch.

The kernel evolves every row of the chip it is given, and builds no
dense chip matrix.  A column's spectral interval is the intersection of a
Weyl bound (the base chip's spectral bound moved by the column's diagonal
offsets) and the Gershgorin discs of its rows.

Every readout is a plan and a run.  :func:`_plan` checks a call's inputs
and returns a frozen record (:class:`_Plan`) of all it will do: each
column's interval, weights and series length, the operands, the column
chunks and their one padded term buffer, whose last slot holds the odd
part's sum, and the views each term reads and writes, all of them
numpy's slices and band windows, built once.  :func:`_run` is the loop:
each segment writes its diagonals and couplings into 2A's leading block
and squares that block into the head rows of 2B, by one formula with or
without coupling overrides (:func:`_write_segment`); then it steps every
chunk, checks the norm and yields the live state.  The work counts (terms
a step, and rows times terms per column) are plan fields, exact on any
host.
:func:`sink_fractions` and :func:`final_sink_fractions` each run a plan
and read out the fractions they hand back, through the norm check's
:func:`_norms`.  :func:`traces` writes each live state straight into one
:class:`EvolutionTrace` array for the whole batch.  Every readout takes
one step a segment unless told otherwise.  :func:`segment_propagator`
builds the exact propagator from a Hermitian eigendecomposition; the
tests check the kernel against it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _csv, _seeding
from .errors import PhysicsError
from .model import HERMITICITY_TOL, Hamiltonian

# np.einsum without ``optimize`` calls this behind a ~2 us Python wrapper
if int(np.__version__.split(".")[0]) >= 2:
    from numpy._core.multiarray import c_einsum
else:
    from numpy.core.multiarray import c_einsum

__all__ = ["EvolutionTrace", "segment_propagator", "sink_fractions",
           "final_sink_fractions", "traces", "site_probabilities",
           "write_trace_csv"]

#: Largest norm by which truncating the Chebyshev series may move a state
#: over a whole kernel call (see :func:`_step_cut`).  The studies' means
#: have standard errors of 1e-3 to 1e-2; at 20 steps a step drops 1e-12.
TRUNCATION_BUDGET = 2e-11

#: Least weight a step's series may drop: the Bessel table meets no smaller
#: cut (see :func:`_chebyshev_weights`).
STEP_CUT_FLOOR = 1e-16

#: Most Chebyshev terms one step may take; the count grows linearly with
#: the spectral half-width times the step (138 terms for figS8's widest
#: study: amplitude 90 and disorder 100 mm^-1 over 1 mm segments).
MAX_SERIES_TERMS = 10_000

#: Most samples one trace may record (5,000 mm of 1 mm segments by default).
MAX_TRACE_SAMPLES = 100_000

#: Largest |1 - ||psi||^2| accepted at any sample of a propagation.
NORM_TOL = 1e-9

#: Most B-terms (see :func:`_b_weights`) of a realization one step holds at
#: once; a longer series runs through them as a ring, summed with its
#: weights each time it fills.  The clean sweep's 9 (17 in A) and the
#: colored CLI sweep's 17 or 18 (34 to 36 in A) sum once; figS8's widest
#: study, 69 (138 in A), sums three times.
TERMS_HELD = 24

#: Most bytes the held terms of one step may take.  A batch that would need
#: more runs as column chunks in lockstep.  The buffer's one slot past the
#: held terms, the odd part's sum, lies outside the budget.  The
#: benchmark's sweeps fit in one chunk on their 25-row chips (0.18 MiB on
#: sweep_clean, 0.35 MiB on sweep_disorder_cli).
TERM_BUFFER_BYTES = 4 << 20


@dataclass(frozen=True)
class EvolutionTrace:
    """Amplitude samples psi(z_j) at z_j = j * ``fine_step``, with the
    indices of the network sites and of the sink waveguides, as
    :class:`~fmosim.model.Hamiltonian` gives them."""

    amplitudes: np.ndarray  # (n_samples, dim) complex
    fine_step: float
    fmo_indices: tuple
    sink_indices: tuple

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)
        for name in ("fmo_indices", "sink_indices"):
            object.__setattr__(self, name,
                               tuple(int(i) for i in getattr(self, name)))

    @property
    def positions(self) -> np.ndarray:
        return np.arange(len(self.amplitudes)) * self.fine_step


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
    return np.einsum("ik,jk->ij", v * np.exp(-1j * w * dz), v.conj())


def _head_block(h: Hamiltonian, rows: int) -> np.ndarray:
    """(rows, rows) couplings, diagonal zeroed, among the first ``rows`` rows
    of ``h``, at least its non-sink rows: the block's, read from its lower
    triangle as ``eigvalsh`` reads it so that they are exactly symmetric,
    the drain link and the chain bonds among the sink waveguides there."""
    n0 = len(h.block)
    hb = np.zeros((rows, rows))
    hb[:n0, :n0] = np.tril(h.block, -1) + np.tril(h.block, -1).T
    chain = np.arange(n0, rows)
    above = np.append(h.drain_index, chain)[:len(chain)]
    hb[chain, above] = hb[above, chain] = h.sink_coupling
    return hb


def _chip_spectrum(h: Hamiltonian) -> tuple:
    """(lo, hi) about the spectrum of the chip, moved outward by their
    rounding: lo = min(min e - 2c, lambda_min(B - c P)) and
    hi = max(max e + 2c, lambda_max(B + c P)), for the block B,
    P = e_d e_d^T at the drain, the chain's energies e and its |coupling| c.
    Proof for hi (lo mirrors it): an eigenvalue lambda > max e + 2c, past
    the chain's band, is a lambda_j(B + s P) with s = c^2 g(lambda), g the
    chain's end continued fraction g_m = 1 / (lambda - e_m - c^2 g_m+1),
    0 past its end; as lambda - e_m >= 2c, 0 <= g_m+1 <= 1/c gives 0 < g_m
    <= 1/c, so 0 < s <= c, and lambda_j grows with s.  This holds for any
    chain energies and length, so for every disordered chip."""
    d, e, c = h.drain_index, h.sink_energies, abs(h.sink_coupling)
    m = np.array([h.block] * 2)
    m[:, d, d] += (-c, c)
    lam = np.linalg.eigvalsh(m)
    lo = min(float(lam[0, 0]), e.min(initial=math.inf) - 2 * c)
    hi = max(float(lam[1, -1]), e.max(initial=-math.inf) + 2 * c)
    slack = (len(m[0]) + 1) * np.finfo(float).eps * max(abs(lo), abs(hi))
    return lo - slack, hi + slack


def _interval(h: Hamiltonian, det, diag, couplings) -> tuple:
    """(lo, hi), each of shape (R,): column r's interval encloses the
    spectrum of every segment matrix of column r, its couplings overridden
    by ``couplings``.

    It is the intersection of two enclosures, each reduced over the rows
    and segments of a column, never over columns:

    - Weyl: a segment matrix is the base chip plus a diagonal offset
      (detunings, disorder) and the coupling overrides' change; so its
      eigenvalues lie in :func:`_chip_spectrum` moved by the extremes of
      the offset plus the change, which by Gershgorin lie within each
      row's offset widened by its sum of |c - c0| over its overrides.
    - Gershgorin: the union of the discs of the rows, each radius moved by
      its row's sum of |c| - |c0|.

    Weyl beats the Gershgorin union unless the offsets spread far wider
    than the coupling (strong disorder).  A min or a max is exact in any
    order, so a non-sink row's extremes are taken over the segments first.
    """
    n0 = len(h.block)
    net = np.repeat(diag[None, :n0], det.shape[2], axis=0)   # (S, n0, R)
    net[:, list(h.fmo_indices)] += det.transpose(2, 1, 0)
    low = np.stack([diag] * 2)                            # (2, dim, R)
    high = low.copy()
    low[:, :n0], high[:, :n0] = net.min(axis=0), net.max(axis=0)
    # per overridden row, the sums over its overrides of |c - c0| (Weyl)
    # and of |c| - |c0| (Gershgorin): (2, S, R)
    grow = {}
    for (i, j), c in couplings.items():
        c0 = h.block[i, j]
        dc = np.array([np.abs(c - c0), np.abs(c) - abs(c0)]).transpose(0, 2, 1)
        for row in (i, j):
            grow[row] = grow.get(row, 0.0) + dc
    for row, g in grow.items():
        low[:, row] = (net[:, row] - g).min(axis=1)
        high[:, row] = (net[:, row] + g).max(axis=1)
    # a chain row's bonds within the chain first, then the head rows' sums;
    # a sum that overflows to inf (a chain coupling near the float range,
    # say) leaves an interval that the caller rejects, with its own message
    depth = np.arange(len(h.sink_indices))
    hb = _head_block(h, min(h.dim, n0 + 1))
    radius = np.zeros((h.dim, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        radius[n0:, 0] = abs(h.sink_coupling) * (
            1.0 * (depth > 0) + (depth < len(h.sink_indices) - 1))
        radius[:len(hb), 0] += np.abs(hb).sum(axis=1)
        lo_g = (low[1] - radius).min(axis=0)
        hi_g = (high[1] + radius).max(axis=0)
    (lam_lo, lam_hi), base = _chip_spectrum(h), h.diagonal[:, None]
    lo_w = lam_lo + (low[0] - base).min(axis=0)
    hi_w = lam_hi + (high[0] - base).max(axis=0)
    return np.maximum(lo_g, lo_w), np.minimum(hi_g, hi_w)


def _bessel_columns(x: np.ndarray) -> np.ndarray:
    """(M + 1, R) table of J_k(x_r), k = 0 .. M, for x_r >= 0, with M the
    largest start order m_r.

    Column r runs the backward ratio recurrence r_k = J_k / J_{k-1} =
    x / (2k - x r_{k+1}) from r = 0 past its own start order
    m_r = int(x_r + 10 x_r^(1/3)) + 16, where 2 |J| is below
    STEP_CUT_FLOOR, and keeps zeros past m_r; J_k / J_0 is the running
    product of the ratios, normalized by J_0 + 2 (J_2 + J_4 + ...) = 1.
    Every product and sum runs in order along k, so a column depends on
    its own x_r only.
    """
    top = (x + 10.0 * np.cbrt(x)).astype(int) + 16
    ratio = np.zeros((int(top.max()) + 2, len(x)))
    for k in range(len(ratio) - 2, 0, -1):
        np.copyto(ratio[k], x / (2.0 * k - x * ratio[k + 1]), where=k <= top)
    ratio[0] = 1.0
    p = np.cumprod(ratio[:-1], axis=0)                    # J_k / J_0
    total = 2.0 * np.cumsum(p[2::2], axis=0)[-1] + 1.0
    return p / total


def _step_cut(steps: int) -> float:
    """The weight each step of a ``steps``-step propagation may drop from
    its series: TRUNCATION_BUDGET / steps, and at least STEP_CUT_FLOOR.

    On a column's interval the spectrum of A = (H - center) / half lies in
    [-1, 1], so ||T_k(A)|| <= 1 and a step that drops weights summing to at
    most c is within c of the exact propagator.  N such steps compose to
    within (1 + c)^N - 1 <= e^{Nc} - 1 of the exact product: above the
    floor, e^B - 1, which is the budget B to a relative 1e-11.
    """
    return max(STEP_CUT_FLOOR, TRUNCATION_BUDGET / steps)


def _chebyshev_weights(rho, cut: float) -> np.ndarray:
    """(K, R) weights w_k of exp(-i rho_r t) on t in [-1, 1], for each of
    the R values ``rho`` (a scalar is one).

    exp(-i rho t) = sum_{k even} w_k T_k(t) - i sum_{k odd} w_k T_k(t),
    with w_k = (2 - [k = 0]) (-1)^(k // 2) J_k(rho), truncated at the first
    order n past rho whose dropped weights 2 (|J_n| + |J_n+1| + ...) sum
    below ``cut``.  Past 1.5 rho the Bessel ratio J_k+1 / J_k < rho /
    (2k + 2 - rho) is below 1/2, so the sum is under twice the first
    dropped weight there.  Only for rho above about 70 does a cut of at
    least STEP_CUT_FLOOR fall nearer rho, where the ratio nears 1 and the
    sum, which the test reads, can be several times that weight.  For any
    cut of at least STEP_CUT_FLOOR, n comes at or before the Bessel
    table's start order m for every rho within MAX_SERIES_TERMS, where the
    table's dropped sum is 2 |J_m(rho)| < 6.1e-17 (up to rho = 6,700); a
    smaller cut could find no order, and argmax would return 0.  K is the
    longest series; a column's weights past its own are exact zeros.
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    over = rho[~(1.5 * rho + 40 <= MAX_SERIES_TERMS)]
    if over.size:
        raise PhysicsError(
            f"the Chebyshev series for rho={over[0]:g} (spectral half-width "
            f"times step) may need more than {MAX_SERIES_TERMS} terms")
    j = _bessel_columns(rho)
    k = np.arange(len(j))[:, None]
    # summed from the far end, a column's zeros past its own table first
    dropped = 2.0 * np.cumsum(np.abs(j[::-1]), axis=0)[::-1]
    n = ((k > rho) & (dropped < cut)).argmax(axis=0)
    k = k[:n.max()]
    w = j[:len(k)] * np.where(k % 4 < 2, 2.0, -2.0)
    w[0] = j[0]
    w[k >= n] = 0.0
    return w


def _norms(x: np.ndarray) -> np.ndarray:
    """(R,) squared norms of the real (rows, 2R) state ``x``, column 2r
    Re psi_r and 2r + 1 Im psi_r: every sum of |psi|^2 in the package.
    einsum sums each column of C-ordered rows row by row, two or more
    columns at a time, so a norm is the same bits in any batch."""
    sq = c_einsum("ij,ij->j", x, x)
    return sq[0::2] + sq[1::2]


def _check_norm(x: np.ndarray) -> None:
    drift = float(np.abs(1.0 - _norms(x)).max())
    if not drift <= NORM_TOL:
        raise PhysicsError(
            f"norm drift {drift:.3g} exceeds {NORM_TOL:g} (the series "
            "diverges on a spectral interval that is too narrow)")


def _sink_fraction(x: np.ndarray, sink) -> np.ndarray:
    """(R,) norms of the rows ``sink`` of ``x`` over its norms."""
    return _norms(x[sink]) / _norms(x)


def _chain_rows(h: Hamiltonian) -> slice:
    """The rows of the sink chain of ``h``; PhysicsError if it has none."""
    if not len(h.sink_indices):
        raise PhysicsError("the chip has no sink waveguides")
    return slice(len(h.block), None)


def _b_weights(w: np.ndarray) -> np.ndarray:
    """(M, 2, R) weights of the series in B = T_2(A) = 2 A^2 - I that sums
    to exp(-i rho A) x = sum_k w_k T_k(A) x, for the (K, R) weights ``w``
    and M = ceil(K / 2) terms S_j = T_j(B) x = T_2j(A) x.

    Row 0 of term j is the even part's w_2j.  Row 1 is b_j / 2, with the
    odd part A sum_j b_j S_j: T_2m+1(A) = A V_m(B) for the third-kind V_m =
    (-1)^m T_0 + 2 sum_{j=1..m} (-1)^(m-j) T_j, so b_j = 2 (-1)^j sum_{m>=j}
    (-1)^m w_2m+1 for j >= 1 and b_0 is half that sum (Mason & Handscomb,
    Chebyshev Polynomials, 2003).  The half makes the odd part 2A times the
    sum, with 2A the kernel's operand.  (-1)^m w_2m+1 = 2 J_2m+1(rho), so
    b_j / 2 is +-2 times a tail of Bessel values, summed from the far end,
    where a column's exact zeros past its own series add nothing.
    """
    m, half_m = (len(w) + 1) // 2, len(w) // 2
    b = np.zeros((m, 2, w.shape[1]))
    b[:, 0] = w[0::2]
    sign = np.where(np.arange(half_m) % 2, -1.0, 1.0)[:, None]
    b[:half_m, 1] = sign * np.cumsum((sign * w[1::2])[::-1], axis=0)[::-1]
    b[0, 1] *= 0.5
    return b


def _chebyshev_step(x, head, chain, a_head, a_chain, slots, weights, cos_t,
                    sin_t):
    """Overwrite the (rows, C) real columns ``x`` with exp(-i H dt) x.

    With A = (H - center) / half for each column's own center and
    half-width, the series sum_k w_k T_k(A) x runs as M = ceil(K / 2)
    terms S_j = T_j(B) x of B = 2 A^2 - I (see :func:`_b_weights`).  2B is
    split by rows: on the first rows it is ``head``, the per-column
    couplings among the leading rows, diagonal included; past them it is
    ``chain``, the five bands of the chain rows, from two rows below to
    two rows above.  Term j is written into slot j % held of the
    ring ``slots`` (see :func:`_plan`) by three numpy calls: the head
    einsum, the banded chain einsum and the recurrence.  The held terms
    are summed with the (terms, 2, C) ``weights`` when the ring fills and
    after the last term, into the even part and into the sum that 2A,
    ``a_head`` over the first rows and the three bands ``a_chain`` past
    them, then maps to the odd part.  ``cos_t`` and ``sin_t`` are each
    realization's phase.  Every call is an elementwise loop over the
    columns that sums in term order, so a column depends on its own
    operands and weights alone, and its zero weights add exact zeros.
    """
    terms, term, head_in, head_out, chain_in, chain_out, odd = slots
    pre, pre_head, pre_chain, out, out_head, out_chain = odd
    held, n_terms = len(term), len(weights)
    for k in range(n_terms):
        s = k % held
        if k == 0:
            np.copyto(term[0], x)
        else:
            p = (k - 1) % held
            c_einsum("ijr,jr->ir", head, head_in[p], out=head_out[s])
            c_einsum("krc,krc->rc", chain, chain_in[p], out=chain_out[s])
            if k == 1:
                term[1] *= 0.5  # S_1 = B x; then S_j = 2 B S_j-1 - S_j-2
            else:
                term[s] -= term[(k - 2) % held]
        if s == held - 1 or k == n_terms - 1:
            w, ts = weights[k - s:k + 1], terms[:s + 1]
            if k == s:
                even = c_einsum("kc,krc->rc", w[:, 0], ts)
                c_einsum("kc,krc->rc", w[:, 1], ts, out=pre)
            else:
                even += c_einsum("kc,krc->rc", w[:, 0], ts)
                pre += c_einsum("kc,krc->rc", w[:, 1], ts)
    c_einsum("ijr,jr->ir", a_head, pre_head, out=out_head)
    c_einsum("krc,krc->rc", a_chain, pre_chain, out=out_chain)
    # x = (cos - i sin) (even - i odd); term 0 already holds x's copy
    re = even[:, 0::2] + out[:, 1::2]
    im = even[:, 1::2] - out[:, 0::2]
    x[:, 0::2] = cos_t * re + sin_t * im
    x[:, 1::2] = cos_t * im - sin_t * re


def _write_segment(values, corner, written, head, fixed, rows):
    """Write one segment's ``values`` into the 2A ``corner`` at
    ``written``, and refresh ``head``, the leading (nb, nb) block of the
    head rows of 2B = (2A)^2 - 2, nb the first n0 + 1 rows or every row.

    There (2A)^2 - 2 is ``fixed``, the sum over the rows from n0 on less 2,
    which no segment writes, plus the sum of corner[i, k] corner[j, k] over
    the rows k below n0, read through ``rows``, the plan's view
    corner[:nb, :n0] (the corner is exactly symmetric, see
    :func:`_head_block`, and numpy loops over its rows faster); outside the
    block no row below n0 adds a term.  Every segment runs this on its
    column's own corner, so a column that writes its base values gets the
    same bits as one that writes none.
    """
    corner[written] = values
    c_einsum("ikr,jkr->ijr", rows, rows, out=head)
    head += fixed


class _Plan(namedtuple("_Plan", "steps lo hi lengths weights net "
                       "segment chunks buffer state ops")):
    """What one kernel call will do, as :func:`_plan` builds it; :func:`_run`
    runs it, once.

    ``steps`` is the steps a segment takes.  Per realization r, ``lo[r]``
    and ``hi[r]`` bound its spectral interval, and ``weights`` (M, 2, 2R)
    holds every column's weights of the series in B (:func:`_b_weights`),
    exact zeros past its own series.  Segment k writes ``net[k]``, the
    network diagonals and the overridden couplings, through
    :func:`_write_segment` with the arguments ``segment``, which refreshes
    the head rows of 2B (see :func:`_chebyshev_step`).  ``chunks`` holds the
    realization bounds (a, b) of each column chunk; the chunks share one
    padded buffer in turn, each running through the longest series of its
    own columns.  ``buffer`` is its held term slots, (held, dim + 4, C);
    its one slot past them holds the odd part's sum.  ``state`` is the live
    real state, and ``ops`` holds per chunk the arguments of
    :func:`_chebyshev_step`, every one a view numpy builds.

    The work counts are the same on any host: on realization r the run
    spends ``lengths[r]`` B-terms a step, its chunk's longest series, and
    one application of A, over ``steps`` times ``len(net)`` steps on
    ``len(state)`` rows.
    """


def _plan(h: Hamiltonian, detunings, segment_length: float,
          steps_per_segment: int, diagonals, couplings,
          max_samples=math.inf) -> _Plan:
    """Check the arguments of :func:`traces`, read as there, and plan
    the kernel call on them (see :class:`_Plan`).  A call of
    ``max_samples`` steps or more is rejected before any series is sized.

    The term buffer holds TERMS_HELD B-terms of a realization, or the whole
    series if shorter, or the most from three up that fit in
    TERM_BUFFER_BYTES if fewer fit; then as many realizations share it as
    fit, and at least one.  So the held terms take at most
    TERM_BUFFER_BYTES unless three terms of one realization take more
    (from 87,378 rows on).  The terms held depend on the series and the
    chip only, never on the batch, so a column's sums do not depend on its
    batch either.  The buffer has one slot more, its last, for the sum that
    2A maps to the odd part.  Each slot carries two zero ghost rows above
    and two below the chip.  numpy's ``sliding_window_view`` gives the
    band view (held + 1, 5, dim, C), where band j of row i is padded row
    i + j, so bands 0 to 4 hold row i - 2 to row i + 2, and the ghost rows
    stand in past either end; the odd sum's three bands are its bands 1
    to 3.
    """
    n0, rows, sites = len(h.block), h.dim, list(h.fmo_indices)
    det = np.asarray(detunings, dtype=float)
    if det.ndim != 3 or 0 in det.shape or det.shape[1] != len(sites):
        raise PhysicsError("detunings must have shape (realizations, network "
                           "sites, segments), none of them empty")
    n_real = det.shape[0]
    if diagonals is None:
        diag = np.repeat(h.diagonal[:, None], n_real, axis=1)
    else:
        diag = np.asarray(diagonals, dtype=float)
        if diag.shape != (rows, n_real):
            raise PhysicsError("diagonals must have shape (dim, realizations)")
    if not (np.isfinite(det).all() and np.isfinite(diag).all()):
        raise PhysicsError("detunings and diagonals must be finite")
    pairs = {}
    for key, c in (couplings or {}).items():
        ij, c = np.asarray(key), np.asarray(c, dtype=float)
        if not (ij.shape == (2,) and ij.dtype.kind in "iu" and ij[0] != ij[1]
                and ((0 <= ij) & (ij < n0)).all()
                and tuple(ij[::-1].tolist()) not in pairs
                and c.shape == det.shape[::2] and np.isfinite(c).all()):
            raise PhysicsError(
                f"coupling {key!r} must join two distinct rows below {n0}, "
                "once, by a finite (realizations, segments) array")
        pairs[tuple(ij.tolist())] = c
    if not (math.isfinite(segment_length) and segment_length > 0):
        raise PhysicsError("segment length must be positive and finite")
    steps_per_segment = _seeding.check_int(steps_per_segment,
                                           "steps_per_segment", 1)
    if not det.shape[2] * steps_per_segment < max_samples:
        raise PhysicsError(
            f"a trace of {det.shape[2] * segment_length:g} mm would hold "
            f"more than {max_samples} samples")
    lo, hi = _interval(h, det, diag, pairs)
    bad = np.flatnonzero(~(np.isfinite(lo) & np.isfinite(hi) & (lo <= hi)))
    if bad.size:
        raise PhysicsError(f"invalid spectral interval ({lo[bad[0]]:g}, "
                           f"{hi[bad[0]]:g}) of realization {bad[0]}")
    center, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    dt = segment_length / steps_per_segment
    # a step whose half * dt overflows to inf (one 1.7e308 mm segment, say)
    # is rejected by the series bound, with its own message
    with np.errstate(over="ignore"):
        rho = half * dt
    w = _chebyshev_weights(rho, _step_cut(det.shape[2] * steps_per_segment))
    weights = np.repeat(_b_weights(w), 2, axis=2)
    # each column's own series: its weights past the last nonzero are zeros
    length = (len(w) + 1 - (w[::-1] != 0).argmax(axis=0)) // 2
    # libm per realization: the same bits at any batch width
    cos_t, sin_t = (np.array([f(a) for a in (center * dt).tolist()])
                    for f in (math.cos, math.sin))
    # per column, 0 if half is 0
    scale = np.repeat(2.0 / np.where(half > 0, half, math.inf), 2)

    # 2A = 2 (H - center) / half per column: g its diagonal and `corner`
    # its leading (cb, cb) block, which holds every entry a segment
    # writes.  2A's head rows are its first nb, 2B's its first rb; here
    # 2B's take the sum over the rows from n0 on, less 2, and each segment
    # adds the rest in their leading block, `fixed` (see _write_segment)
    nb = min(rows, n0 + 1)
    rb, cb = min(rows, nb + 1), min(rows, nb + 3)
    g = np.repeat((diag - center), 2, axis=1) * scale
    corner = _head_block(h, cb)[:, :, None] * scale
    corner[range(cb), range(cb)] = g[:cb]
    head = c_einsum("ikr,kjr->ijr", corner[:rb, n0:], corner[n0:])
    head[range(rb), range(rb)] -= 2.0
    fixed = head[:nb, :nb].copy()
    # the chain bond from each row to the next, 0 from the last row on;
    # past nb every row has a chain bond below it
    up = np.zeros((rows + 1, 2 * n_real))
    up[n0:rows - 1] = h.sink_coupling * scale
    a_chain = np.stack([up[nb - 1:rows - 1], g[nb:], up[nb:rows]])
    # (2B)_i,i+d for d = -2 .. 2 on the chain rows past rb, fixed for the
    # whole call
    i = np.arange(rb, rows)
    lo_1, lo_2, hi_1, hi_2 = up[i - 1], up[i - 2], up[i], up[i + 1]
    g_0, g_lo, g_hi = g[i], g[i - 1], g[np.minimum(i + 1, rows - 1)]
    chain = np.stack([lo_1 * lo_2, lo_1 * (g_lo + g_0),
                      lo_1 * lo_1 + hi_1 * hi_1 + g_0 * g_0 - 2.0,
                      hi_1 * (g_0 + g_hi), hi_1 * hi_2])
    # per segment, the (sites + 2 overrides, 2R) entries it writes: the
    # network diagonals, then each override at (i, j) and at (j, i)
    ii, jj = [[pair[k] for pair in pairs] for k in (0, 1)]
    over = [(c * scale[::2, None]).T[:, None] for c in pairs.values()]
    net = np.repeat(np.concatenate(
        [(diag[sites] + det.transpose(2, 1, 0) - center) * scale[::2]]
        + over * 2, axis=1), 2, axis=2)
    written = tuple(np.array(sites + ij) for ij in (ii + jj, jj + ii))
    segment = (corner, written, head[:nb, :nb], fixed, corner[:nb, :n0])

    term = (rows + 4) * 2 * 8  # one padded term of one realization
    held = min(len(weights), TERMS_HELD, max(3, TERM_BUFFER_BYTES // term))
    width = max(1, min(n_real, TERM_BUFFER_BYTES // (held * term)))
    # one buffer: the held terms, then in slot held, outside the budget,
    # the sum `pre` that 2A maps to the odd part `out`.  Band j of row i is
    # padded row i + j, so pre's three bands (row i - 1 to row i + 1) are
    # its bands 1 to 3
    buffer = np.zeros((held + 1, rows + 4, 2 * width))
    bands = np.moveaxis(sliding_window_view(buffer, 5, axis=1), 3, 1)
    pre, out = buffer[held], np.empty((rows, 2 * width))
    # column chunks of at most `width` realizations share the term buffer,
    # each running through the longest series of its own columns
    chunks = [(a, min(a + width, n_real)) for a in range(0, n_real, width)]
    run = np.concatenate([[length[a:b].max()] * (b - a) for a, b in chunks])

    # The state is real: column 2r holds Re psi_r and column 2r + 1 Im psi_r,
    # which the real operators act on alike; each step writes it in place.
    # The views of `head` and `corner` see every segment's writes.  Per
    # chunk and slot of the ring: the term, its cb leading rows, its first
    # rb rows, the band view of its chain rows past them, and those rows
    x = np.zeros((rows, 2 * n_real))
    x[h.source_index, 0::2] = 1.0
    ops = []
    for a, b in chunks:
        cols, c = slice(2 * a, 2 * b), slice(0, 2 * (b - a))
        t = buffer[:held, :, c]
        odd = (pre[2:-2, c], pre[2:rb + 2, c], bands[held, 1:4, nb:, c],
               out[:, c], out[:nb, c], out[nb:, c])
        slots = (t[:, 2:-2], list(t[:, 2:-2]), list(t[:, 2:cb + 2]),
                 list(t[:, 2:rb + 2]), list(bands[:held, :, rb:, c]),
                 list(t[:, rb + 2:-2]), odd)
        ops.append((x[:, cols], head[..., cols], chain[..., cols],
                    corner[:nb, :rb, cols], a_chain[..., cols], slots,
                    weights[:run[a], :, cols], cos_t[a:b], sin_t[a:b]))
    return _Plan(steps_per_segment, lo, hi, run, weights, list(net),
                 segment, chunks, buffer[:held], x, ops)


def _run(plan: _Plan):
    """Run ``plan``: yield its live real state, column 2r the real and
    2r + 1 the imaginary part of realization r, before the first step and
    after each step; the next step overwrites it in place.  Each segment
    writes its network diagonals and couplings (:func:`_write_segment`),
    then each of its steps steps every chunk and checks the norm.
    """
    yield plan.state
    for values in plan.net:
        _write_segment(values, *plan.segment)
        for _ in range(plan.steps):
            for args in plan.ops:
                _chebyshev_step(*args)
            _check_norm(plan.state)
            yield plan.state


def traces(h: Hamiltonian, detunings, segment_length: float,
           steps_per_segment: int = 1, diagonals=None,
           couplings=None) -> list:
    """Evolve a batch of realizations, recorded as one EvolutionTrace per
    column.

    ``detunings`` has shape (R, network sites, segments): column r of the
    batch adds ``detunings[r, :, k]`` to the network diagonals during
    segment k.  ``diagonals`` (dim, R) replaces the diagonal of ``h`` per
    column (static disorder); by default every column keeps it.
    ``couplings`` maps a pair (i, j) of distinct non-sink rows, named once,
    to an (R, segments) array that replaces their coupling per column and
    segment; by default every column keeps the couplings of ``h``.

    Each segment takes ``steps_per_segment`` equal steps, an integer of at
    least 1, one by default.  A trace's ``fine_step`` is the segment length
    over the steps; it holds at most MAX_TRACE_SAMPLES samples.

    Every column starts with a unit excitation at the source site.  The
    batch runs as one kernel call, one step a sample, on every row of
    ``h``: one real state serves the whole call, each step overwrites it in
    place, and each live state is written straight into one
    (samples, dim, R) array, of which each trace views its column: the
    initial state, then the state after each step.  Every step drops
    Chebyshev weights summing below :func:`_step_cut` of the call's step
    count, so truncation moves each recorded state by at most
    TRUNCATION_BUDGET.  Raises PhysicsError if any column's norm drifts by
    more than NORM_TOL.  A column is the same bits in any batch and any
    column chunk (see :func:`_plan`).
    """
    plan = _plan(h, detunings, segment_length, steps_per_segment, diagonals,
                 couplings, MAX_TRACE_SAMPLES)
    segments, n_real = len(plan.net), len(plan.lo)
    amps = np.empty((segments * plan.steps + 1, h.dim, n_real), complex)
    for sample, x in zip(amps.view(float), _run(plan)):
        sample[...] = x
    return [EvolutionTrace(amps[:, :, c], segment_length / plan.steps,
                           h.fmo_indices, h.sink_indices)
            for c in range(n_real)]


def sink_fractions(h: Hamiltonian, detunings, segment_length: float,
                   steps_per_segment: int = 1, diagonals=None,
                   couplings=None):
    """Yield the (R,) sink fractions of a batch at every step.

    Every argument is read as by :func:`traces`, and the fractions are
    yielded where it records its states: before the first step, then after
    each step, with no cap on their count.  A fraction is
    its column's chain rows' norm over its norm (:func:`_sink_fraction`),
    the same bits in any batch.  The kernel is :func:`traces`', norm check
    included.  Raises PhysicsError if the chip has no sink waveguide.
    """
    chain = _chain_rows(h)
    for x in _run(_plan(h, detunings, segment_length, steps_per_segment,
                        diagonals, couplings)):
        yield _sink_fraction(x, chain)


def final_sink_fractions(h: Hamiltonian, detunings, segment_length: float,
                         diagonals=None, couplings=None) -> np.ndarray:
    """The (R,) sink fractions at the end of a batch's propagation, one
    step a segment: bit for bit the last yield of :func:`sink_fractions`,
    whose arguments it reads, without computing the fractions of the
    steps before it, which a sweep never reads.

    Raises PhysicsError if the chip has no sink waveguide.
    """
    chain = _chain_rows(h)
    *_, x = _run(_plan(h, detunings, segment_length, 1, diagonals,
                       couplings))
    return _sink_fraction(x, chain)


# Not part of the API, and called by nothing here: bench/tracing.py wraps
# the name until the benchmark reads a hook of the library (ROADMAP item 2b).
evolve = traces


def _real_rows(amplitudes: np.ndarray) -> np.ndarray:
    """The complex (samples, rows) ``amplitudes`` as a C-ordered real
    (rows, 2 samples) copy in the kernel's layout, column 2j the real and
    2j + 1 the imaginary part of sample j: how :func:`_norms` reads a
    trace."""
    return np.ascontiguousarray(amplitudes.T).view(float)


def site_probabilities(tr: EvolutionTrace) -> np.ndarray:
    """(n_samples, network sites) probabilities |psi_i(z_j)|^2 of the
    network sites, each sample's divided by their total there: the rows a
    study's chip bounds at every sample, unlike the chain's rows one by
    one.  A probability is Re^2 + Im^2 and a total is :func:`_norms` of the
    network rows, as every sum of |psi|^2.  Raises PhysicsError where the
    total is zero."""
    x = _real_rows(tr.amplitudes[:, list(tr.fmo_indices)])
    totals = _norms(x)
    bad = np.nonzero(totals == 0)[0]
    if bad.size:
        raise PhysicsError(f"network probability is zero at "
                           f"z={tr.positions[bad[0]]:g} mm")
    return (x[:, 0::2] ** 2 + x[:, 1::2] ** 2).T / totals[:, None]


def write_trace_csv(tr: EvolutionTrace, path, stride: int = 1) -> None:
    """Write (z, site_index, re, im, probability) rows, optionally strided:
    per sample, every waveguide outside the sink chain, then, if there is
    a chain, one row ``z, sink, , , total`` of its summed weight
    (:func:`_norms`), which a study's chip bounds, as it does not bound the
    chain's rows one by one (experiments._light_cone_depth)."""
    if stride < 1:
        raise PhysicsError("stride must be >= 1")
    amps, sink = tr.amplitudes[::stride], list(tr.sink_indices)
    rows = [i for i in range(amps.shape[1]) if i not in sink]
    totals = _norms(_real_rows(amps[:, sink]))

    def table():
        for z, net, total in zip(tr.positions[::stride], amps[:, rows],
                                 totals):
            z = f"{z:.17g}"
            for i, a in zip(rows, net):
                yield [z, i, f"{a.real:.17g}", f"{a.imag:.17g}",
                       f"{abs(a) ** 2:.17g}"]
            if sink:
                yield [z, "sink", "", "", f"{total:.17g}"]

    _csv.write_table(path, ["z_mm", "site_index", "re", "im", "probability"],
                     table())
