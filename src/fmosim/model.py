"""On-chip Hamiltonian construction for the seven-site light-harvesting network.

The seven pigment sites are mapped onto a waveguide array: coupling
coefficients become evanescent couplings set by waveguide spacing, site
energies become propagation-constant offsets.  A Hamiltonian (mm^-1,
float64) is a dense real symmetric block of the network sites and the
optional vibration mode, plus an optional sink chain held as its on-site
energies and one coupling.

Calibration note: the default site-energy convention scales the raw
site-energy offsets (cm^-1) by 0.014 and keeps the full coupling matrix.
With these defaults the gap between the two lowest eigenvalues of the
seven-site Hamiltonian is 0.4937 mm^-1, within 5% of the 0.4776 mm^-1
used for the auxiliary vibrational mode.  Dropping the weak couplings
(``include_weak_couplings=False``, the fabrication-table convention)
raises the gap to 0.594 mm^-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _csv, _seeding
from .errors import PhysicsError

__all__ = [
    "RAW_SITE_HAMILTONIAN_CM",
    "WEAK_COUPLING_CUTOFF_CM",
    "CM_PER_MM",
    "DEFAULT_SINK_COUPLING",
    "MAX_SINK_LENGTH",
    "COUPLING_AMPLITUDE",
    "COUPLING_DECAY",
    "DELTA_BETA_PER_SPEED",
    "FmoSpec",
    "Hamiltonian",
    "ChipPlanRow",
    "build_fmo_hamiltonian",
    "attach_sink",
    "attach_vibrational_mode",
    "lowest_eigengap",
    "coupling_for_spacing",
    "spacing_for_coupling",
    "delta_beta_for_speed",
    "speed_for_delta_beta",
    "effective_coupling",
    "delta_c",
    "static_disorder_shifts",
    "apply_static_disorder",
    "export_chip_plan",
    "write_chip_plan",
    "read_chip_plan",
]

# Seven-site Hamiltonian of the C. tepidum complex, cm^-1 (upper triangle
# mirrored).  Diagonal: site energies; off-diagonal: dipole-dipole couplings.
_RAW_UPPER = np.array(
    [
        [12410.0, -96.0, 5.0, -4.4, 4.7, -12.6, -6.2],
        [0.0, 12530.0, 33.1, 6.8, 4.5, 7.4, -0.3],
        [0.0, 0.0, 12210.0, -51.1, 0.8, -8.4, 7.6],
        [0.0, 0.0, 0.0, 12320.0, -76.6, -14.2, -67.0],
        [0.0, 0.0, 0.0, 0.0, 12480.0, 78.3, -0.1],
        [0.0, 0.0, 0.0, 0.0, 0.0, 12630.0, 38.3],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 12440.0],
    ]
)
RAW_SITE_HAMILTONIAN_CM = _RAW_UPPER + np.triu(_RAW_UPPER, 1).T
RAW_SITE_HAMILTONIAN_CM.setflags(write=False)

#: Couplings below this raw magnitude are dropped from the chip layout.
WEAK_COUPLING_CUTOFF_CM = 15.0

#: Unit bridge between tabulated couplings (cm^-1) and chip dynamics (mm^-1).
CM_PER_MM = 0.1

HERMITICITY_TOL = 1e-12

#: Default sink-chain coupling (mm^-1), both drain-to-chain and within the
#: chain.  Chosen so the sink drains slowly enough that moderate dephasing
#: measurably helps transport on a 20 mm chip (see attach_sink).
DEFAULT_SINK_COUPLING = 0.2

#: Most sink waveguides a chain may hold (16 bytes each).  A study attaches
#: only the chain's light cone (experiments._light_cone_depth), at most
#: about 2 c T deep for chain coupling c over a chip of length T: 18 on the
#: default chip, 100,400 at c = 10 mm^-1 over the longest trace (5,000 mm)
#: in one segment, so a longer chain would change no output.
#: So this guards direct callers of attach_sink, whose whole chain the
#: kernel evolves, and studies whose light cone is deeper than 10**6.
MAX_SINK_LENGTH = 10 ** 6

#: Fabrication calibration of the chip: the evanescent coupling decays with
#: waveguide spacing as C(d) = COUPLING_AMPLITUDE * exp(-COUPLING_DECAY * d)
#: (C in cm^-1, d in um), and a writing-speed offset (mm/s) detunes the
#: propagation constant by DELTA_BETA_PER_SPEED mm^-1 per mm/s.
COUPLING_AMPLITUDE = 47.19
COUPLING_DECAY = 0.2243
DELTA_BETA_PER_SPEED = 0.02


@dataclass(frozen=True)
class FmoSpec:
    """Recipe for the seven-site on-chip Hamiltonian, built from
    ``RAW_SITE_HAMILTONIAN_CM``.

    ``site_energy_scale`` multiplies the min-subtracted raw site energies
    (in cm^-1) before the cm^-1 -> mm^-1 conversion.  The default 0.014
    together with ``include_weak_couplings=True`` is the calibrated
    convention (see module docstring).
    """

    coupling_scale: float = 0.14
    unit_conversion: float = CM_PER_MM
    site_energy_scale: float = 0.014
    include_weak_couplings: bool = True

    def __post_init__(self):
        # checked, not stored as floats: an int spelling keeps its hash
        for name in ("coupling_scale", "unit_conversion", "site_energy_scale"):
            _seeding.check_real(getattr(self, name), name)
        name = "include_weak_couplings"
        object.__setattr__(self, name,
                           _seeding.check_bool(getattr(self, name), name))
        if not 0 < self.coupling_scale <= 1:
            raise PhysicsError(f"coupling_scale must be in (0, 1], got {self.coupling_scale}")


@dataclass(frozen=True)
class Hamiltonian:
    """A chip (mm^-1): a real symmetric float64 ``block`` of the non-sink
    waveguides, whose ``roles`` are ``"fmo_site_1"`` .. ``"fmo_site_7"`` and
    ``"vibration"`` (complex input only with zero imaginary parts), then a
    sink chain: the (L,) ``sink_energies`` and ``sink_coupling``, the
    drain-to-chain link and every bond, 0 without a chain.  The dense
    :attr:`matrix` is built on request.  ``source_site`` and ``drain_site``
    are site numbers (1-based, defaults 6 and 3), mapped to the ints
    ``source_index`` and ``drain_index`` on construction, as are the roles
    to the read-only int arrays ``fmo_indices`` and ``sink_indices``.  Every
    entry is finite.
    """

    block: np.ndarray
    roles: tuple
    source_site: int = 6
    drain_site: int = 3
    sink_energies: np.ndarray = ()
    sink_coupling: float = 0.0
    fmo_indices: np.ndarray = field(init=False, repr=False, compare=False)
    sink_indices: np.ndarray = field(init=False, repr=False, compare=False)
    source_index: int = field(init=False, repr=False, compare=False)
    drain_index: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.block)
        if np.iscomplexobj(m) and np.any(m.imag != 0.0):
            raise PhysicsError("the matrix must be real symmetric")
        m = np.array(m.real, dtype=float)
        sink = np.array(self.sink_energies, dtype=float)
        n0 = len(self.roles)
        fmo = np.array([i for i, r in enumerate(self.roles)
                        if r.startswith("fmo_site_")])
        sinks = np.arange(n0, n0 + len(sink))
        for name, value in (("block", m), ("sink_energies", sink),
                            ("fmo_indices", fmo), ("sink_indices", sinks)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "roles", tuple(self.roles))
        if m.shape != (n0, n0) or sink.ndim != 1:
            raise PhysicsError("role labels must match matrix dimension")
        if not all(np.isfinite(v).all() for v in (m, sink, self.sink_coupling)):
            raise PhysicsError("chip energies and couplings must be finite")
        if self.sink_coupling != 0 and not len(sink):
            raise PhysicsError("a nonzero sink_coupling needs sink_energies "
                               "(at least one sink waveguide)")
        if np.max(np.abs(m - m.T)) > HERMITICITY_TOL:
            raise PhysicsError("matrix is not symmetric within tolerance")
        if f"fmo_site_{self.drain_site}" not in self.roles:
            raise PhysicsError(f"drain site {self.drain_site} not present")
        if f"fmo_site_{self.source_site}" not in self.roles:
            raise PhysicsError(f"source site {self.source_site} not present")
        object.__setattr__(self, "source_index", self.roles.index(f"fmo_site_{self.source_site}"))
        object.__setattr__(self, "drain_index", self.roles.index(f"fmo_site_{self.drain_site}"))

    @property
    def dim(self) -> int:
        return len(self.block) + len(self.sink_energies)

    @property
    def diagonal(self) -> np.ndarray:
        """(dim,) on-site energies: the block's, then the chain's."""
        return np.concatenate([self.block.diagonal(), self.sink_energies])

    @property
    def matrix(self) -> np.ndarray:
        """The dense (dim, dim) matrix, read-only, built on each read."""
        m = np.pad(self.block, (0, len(self.sink_energies)))
        m[self.sink_indices, self.sink_indices] = self.sink_energies
        bonds = np.concatenate(([self.drain_index], self.sink_indices))
        m[bonds[:-1], bonds[1:]] = m[bonds[1:], bonds[:-1]] = self.sink_coupling
        m.setflags(write=False)
        return m


def build_fmo_hamiltonian(spec: FmoSpec = FmoSpec()) -> Hamiltonian:
    """Construct the seven-site chip Hamiltonian from a spec.

    Off-diagonals: raw coupling * coupling_scale * unit_conversion, with
    raw couplings below the weak-coupling cutoff zeroed unless
    ``include_weak_couplings``.  Diagonal: (raw energy - min raw energy)
    * site_energy_scale * unit_conversion, so the lowest site sits at 0.
    """
    raw = RAW_SITE_HAMILTONIAN_CM
    n = raw.shape[0]
    off = raw.copy()
    np.fill_diagonal(off, 0.0)
    if not spec.include_weak_couplings:
        off[np.abs(off) < WEAK_COUPLING_CUTOFF_CM] = 0.0
    # a scale that overflows an entry to inf leaves a chip that Hamiltonian
    # rejects as not finite, with its own message
    with np.errstate(over="ignore"):
        diag = (np.diag(raw) - np.diag(raw).min()) * spec.site_energy_scale
        matrix = ((off * spec.coupling_scale + np.diag(diag))
                  * spec.unit_conversion)
    roles = tuple(f"fmo_site_{i + 1}" for i in range(n))
    return Hamiltonian(block=matrix, roles=roles)


def attach_sink(h: Hamiltonian, sink_length: int,
                coupling: float = DEFAULT_SINK_COUPLING) -> Hamiltonian:
    """Append a nearest-neighbour chain of absorbing waveguides.

    The chain hangs off the drain site; every sink waveguide gets the
    drain site's diagonal energy, so the chain is resonant with it.
    ``coupling`` is both the drain-to-chain link and every bond within the
    chain.  The default of 0.2 mm^-1 makes the chain a slow, effectively
    irreversible drain on the 20 mm chip, which is what lets moderate
    dephasing visibly assist transport; fabricated-chip values are not
    published, so this default is a documented modelling choice.  The
    chain costs O(sink_length), and past MAX_SINK_LENGTH it is rejected.
    """
    if len(h.sink_indices):
        raise PhysicsError("sink already attached")
    if sink_length < 1:
        raise PhysicsError("sink_length must be >= 1")
    if sink_length > MAX_SINK_LENGTH:
        raise PhysicsError(f"sink_length {sink_length}: more than "
                           f"MAX_SINK_LENGTH ({MAX_SINK_LENGTH}) sink waveguides")
    if coupling <= 0:
        raise PhysicsError("sink coupling must be positive")
    drain = h.block[h.drain_index, h.drain_index]
    return replace(h, sink_energies=np.full(sink_length, drain),
                   sink_coupling=coupling)


def attach_vibrational_mode(h7: Hamiltonian, coupling="auto") -> Hamiltonian:
    """Add an auxiliary mode coupled equally to all seven sites.

    With ``coupling="auto"`` the strength is the gap between the two
    lowest eigenvalues of the seven-site Hamiltonian.  The mode's own
    diagonal entry is 0.
    """
    if h7.dim != 7 or len(h7.fmo_indices) != 7:
        raise PhysicsError(f"expected a bare 7-site Hamiltonian, got dim {h7.dim}")
    c = lowest_eigengap(h7) if coupling == "auto" else float(coupling)
    m = np.pad(h7.block, (0, 1))
    m[7, :7] = m[:7, 7] = c
    roles = h7.roles + ("vibration",)
    return Hamiltonian(m, roles, h7.source_site, h7.drain_site)


def lowest_eigengap(h: Hamiltonian) -> float:
    """Difference between the two smallest eigenvalues, mm^-1."""
    ev = np.linalg.eigvalsh(h.matrix)
    return float(ev[1] - ev[0])


def coupling_for_spacing(d: float) -> float:
    """Evanescent coupling (cm^-1) at centre-to-centre spacing d (um)."""
    if d < 0:
        raise PhysicsError("spacing must be nonnegative")
    return COUPLING_AMPLITUDE * np.exp(-COUPLING_DECAY * d)


def spacing_for_coupling(c: float) -> float:
    """Spacing (um) realising coupling c (cm^-1); exact inverse of the fit.
    A c below about 2.6e-307 overflows it and is rejected."""
    if c <= 0 or c > COUPLING_AMPLITUDE:
        raise PhysicsError(
            f"coupling must be in (0, {COUPLING_AMPLITUDE}] cm^-1 for inversion, got {c}"
        )
    ratio = COUPLING_AMPLITUDE / float(c)
    if not math.isfinite(ratio):
        raise PhysicsError(f"coupling {c} cm^-1 is too small for a finite spacing")
    return float(np.log(ratio) / COUPLING_DECAY)


def delta_beta_for_speed(dv: float) -> float:
    """Propagation-constant detuning (mm^-1) for a writing-speed offset (mm/s)."""
    if dv < 0:
        raise PhysicsError("speed detuning must be nonnegative")
    db = DELTA_BETA_PER_SPEED * dv
    if not math.isfinite(db):
        raise PhysicsError(f"speed detuning {dv:g} mm/s gives no finite "
                           "detuning")
    return db


def speed_for_delta_beta(db: float) -> float:
    """Writing-speed offset (mm/s) producing detuning db (mm^-1).

    Higher writing speed lowers the propagation constant; the exported
    schedule reports the magnitude of the speed offset.
    """
    if db < 0:
        raise PhysicsError("detuning must be nonnegative")
    dv = db / DELTA_BETA_PER_SPEED
    if not math.isfinite(dv):
        raise PhysicsError(f"detuning {db:g} mm^-1 gives no finite writing "
                           "speed")
    return dv


def effective_coupling(c0: float, db):
    """Coupling of a detuned waveguide pair: sqrt((db/2)^2 + c0^2).

    ``db`` may be an array of detunings; the result then has its shape.
    """
    if c0 <= 0:
        raise PhysicsError("base coupling must be positive")
    return np.hypot(np.divide(db, 2.0), c0)


def delta_c(c0: float, db: float) -> float:
    """Exact coupling shift due to a detuning db; ~ db^2/(8 c0) for small db."""
    if c0 <= 0:
        raise PhysicsError("base coupling must be positive")
    return effective_coupling(c0, db) - c0


def static_disorder_shifts(n: int, gamma, rng_seeds) -> np.ndarray:
    """(len(rng_seeds), n) one-sided uniform site-energy shifts U(0, gamma),
    one row per seed; ``gamma`` is one strength or one per seed.

    This is the one definition of the disorder stream: row i is bit for
    bit ``default_rng(rng_seeds[i]).uniform(0.0, gamma_i, n)`` (each seed a
    nonnegative int or a sequence of them), gamma_i times the doubles of
    one :func:`_seeding.random_rows` pass over all the rows; none are
    drawn (all are zero) when every strength is 0.  A strength that is
    negative or not finite is rejected.
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape not in ((), (len(rng_seeds),)):
        raise PhysicsError("disorder strength must be one value or one per seed")
    if not np.isfinite(gamma).all():
        raise PhysicsError("disorder strength must be finite")
    if (gamma < 0).any():
        raise PhysicsError("disorder strength must be nonnegative")
    shifts = np.zeros((len(rng_seeds), n))
    if gamma.any():
        _seeding.random_rows(
            (_seeding.entropy_words(seed) for seed in rng_seeds), shifts)
        shifts *= gamma[..., None]
    return shifts


def apply_static_disorder(h: Hamiltonian, gamma: float, rng_seed) -> Hamiltonian:
    """``h`` with the :func:`static_disorder_shifts` added to every diagonal.

    Every waveguide of ``h`` is shifted, sink and vibration included: a
    disordered chip mis-writes every waveguide.  The studies follow the
    same convention, passing the shifts to the kernel as its
    ``diagonals``.
    """
    shifts = static_disorder_shifts(h.dim, gamma, [rng_seed])[0]
    if gamma == 0:
        return h
    n0 = len(h.block)
    return replace(h, block=h.block + np.diag(shifts[:n0]),
                   sink_energies=h.sink_energies + shifts[n0:])


@dataclass(frozen=True)
class ChipPlanRow:
    """One record of a fabrication plan (spacing or speed schedule)."""

    record_type: str  # "spacing" | "speed"
    site_a: int
    site_b: int  # -1 for speed rows
    segment_index: int  # -1 for spacing rows
    value: float
    unit: str


def export_chip_plan(h: Hamiltonian, noise=None):
    """Translate a Hamiltonian plus a noise realization into a chip plan.

    Spacing rows: one per coupled pair, spacing in um from the inverse of
    the exponential coupling fit.  Speed rows: one per FMO site per noise
    segment, writing-speed detuning in mm/s.  Rows are ordered by record
    type, then indices, so the output is deterministic.
    """
    n0, chain = len(h.block), h.sink_indices.tolist()
    pairs = [(i, j, h.block[i, j]) for i in range(n0) for j in range(i + 1, n0)]
    # the drain-to-chain link and the chain bonds, checked in index order
    pairs += zip([h.drain_index] + chain[:-1], chain, [h.sink_coupling] * len(chain))
    rows = []
    for i, j, c in sorted(pairs):
        c_mm = abs(c)
        if c_mm == 0:
            continue
        c_cm = c_mm / CM_PER_MM
        if c_cm > COUPLING_AMPLITUDE:
            raise PhysicsError(
                f"coupling for pair ({i + 1}, {j + 1}) exceeds the fit amplitude "
                f"({c_cm:.4g} > {COUPLING_AMPLITUDE} cm^-1)"
            )
        rows.append(
            ChipPlanRow("spacing", i + 1, j + 1, -1, spacing_for_coupling(c_cm), "um")
        )
    if noise is not None:
        for site, seq in enumerate(noise.sequences, start=1):
            for seg, db in enumerate(seq):
                rows.append(
                    ChipPlanRow("speed", site, -1, seg, speed_for_delta_beta(float(db)), "mm/s")
                )
    rows.sort(key=lambda r: (r.record_type, r.site_a, r.site_b, r.segment_index))
    return rows


_PLAN_HEADER = ["record_type", "site_a", "site_b", "segment_index", "value", "unit"]


def write_chip_plan(rows, path_or_file) -> None:
    """Write plan rows as UTF-8 CSV with a header row."""
    _csv.write_table(path_or_file, _PLAN_HEADER,
                     ([r.record_type, r.site_a,
                       "" if r.site_b < 0 else r.site_b,
                       "" if r.segment_index < 0 else r.segment_index,
                       f"{r.value:.17g}", r.unit] for r in rows))


def read_chip_plan(path_or_file):
    """Read plan rows from CSV written by :func:`write_chip_plan`."""
    rows = []
    for line, rec in _csv.read_table(path_or_file, _PLAN_HEADER, "chip-plan",
                                     "chip plan"):
        try:
            rows.append(ChipPlanRow(rec[0], int(rec[1]),
                                    int(rec[2]) if rec[2] else -1,
                                    int(rec[3]) if rec[3] else -1,
                                    float(rec[4]), rec[5]))
        except (IndexError, ValueError) as exc:
            raise PhysicsError(
                f"line {line}: malformed chip-plan row {rec}") from exc
    return rows
