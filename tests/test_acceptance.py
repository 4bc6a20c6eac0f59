"""Acceptance gate.

One criterion per test, one printed PASS/FAIL line per criterion (run
with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete).  Each line reports the measured quantities so a failure is
diagnosable from the output alone.
"""

import json
import time

import numpy as np
import pytest

from fmosim import analysis, dynamics, model, noise as noise_mod
from fmosim.cli import main as cli_main
from fmosim.experiments import (
    FIGS5_GRID,
    FIGS8_GRIDS,
    SweepConfig,
    reorganization_curve,
    segment_count_study,
    sweep_dephasing,
    vibrational_comparison,
)
from fmosim.model import FmoSpec, apply_static_disorder, build_fmo_hamiltonian

from test_analysis import acf_oracle, periodogram_oracle
from test_dynamics import default_chip, expm_taylor

THREADS = 4
_CACHE = {}


def cached_sweep(**kw):
    cfg = SweepConfig(realizations=100, threads=THREADS, **kw)
    key = cfg.config_hash()
    if key not in _CACHE:
        _CACHE[key] = sweep_dephasing(cfg)
    return _CACHE[key]


def report(name, failures, detail, elapsed, budget):
    if elapsed >= budget:
        failures = failures + [f"runtime {elapsed:.1f}s >= budget {budget}s"]
    status = "PASS" if not failures else "FAIL"
    print(f"{name}: {status} [{elapsed:.1f}s] {detail}"
          + ("" if not failures else " | " + "; ".join(failures)),
          flush=True)
    assert not failures, f"{name}: " + "; ".join(failures)


def test_a01_enaqt_peak_clean_lattice():
    t0 = time.time()
    failures = []
    details = []
    for kind in ("uniform_white", "colored"):
        res = cached_sweep(noise_kind=kind)
        arg = res.argmax_value
        rise = res.means[int(np.argmax(res.means))] - res.means[0]
        droop = res.means[int(np.argmax(res.means))] - res.means[-1]
        details.append(f"{kind}: argmax={arg:g} rise={rise:.3f} "
                       f"droop={droop:.3f}")
        if not 0.3 <= arg <= 0.7:
            failures.append(f"{kind} argmax {arg:g} outside [0.3, 0.7]")
        if rise <= 0.05:
            failures.append(f"{kind} rise {rise:.3f} <= 0.05")
        if droop <= 0:
            failures.append(f"{kind} no droop at the top of the grid")
    report("A1", failures, "; ".join(details), time.time() - t0, 180)


def test_a02_disorder_shifted_peaks():
    t0 = time.time()
    failures = []
    details = []
    cases = ((10.0, FIGS8_GRIDS[10.0], 1.5, 3.5),
             (100.0, FIGS8_GRIDS[100.0], 15.0, 35.0))
    for gamma, grid, lo, hi in cases:
        res = cached_sweep(disorder=gamma, grid=grid, sink_length=80)
        arg = res.argmax_value
        details.append(f"gamma={gamma:g}: argmax={arg:g}")
        if not lo <= arg <= hi:
            failures.append(f"gamma={gamma:g} argmax {arg:g} outside "
                            f"[{lo:g}, {hi:g}]")
    report("A2", failures, "; ".join(details), time.time() - t0, 300)


def test_a03_reorganization_linearity():
    t0 = time.time()
    failures = []
    cfg = SweepConfig(grid=tuple(round(0.1 * k, 10) for k in range(11)),
                      realizations=100, noise_kind="colored")
    pts, fit = reorganization_curve(cfg)
    if pts[0, 1] != 0.0:
        failures.append(f"reorganization energy at zero amplitude is "
                        f"{pts[0, 1]:g}, not 0")
    if fit.r_squared < 0.95:
        failures.append(f"R^2 {fit.r_squared:.4f} < 0.95")
    report("A3", failures, f"R^2={fit.r_squared:.6f} slope={fit.slope:.4f}",
           time.time() - t0, 10)


def test_a04_noise_spectra():
    t0 = time.time()
    failures = []
    n_seeds = 100
    # white flatness at f_s = 2 (128 segments over 64 mm): the flat
    # one-sided density then equals the sample variance target A^2/12
    dens = np.zeros(65)
    for seed in range(n_seeds):
        cfg = noise_mod.NoiseConfig(kind="uniform_white", amplitude=1.0,
                                    segments=128, total_length=64.0,
                                    seed=seed)
        seq = noise_mod.generate(cfg, n_sites=1).sequences[0]
        dens += analysis.psd_periodogram(seq, cfg.sampling_frequency).density
    dens /= n_seeds
    interior = dens[1:-1]   # DC is removed with the mean; Nyquist is an
    # un-doubled edge bin at half the interior density by construction
    target = 1.0 / 12.0
    ratio = interior.max() / interior.min()
    if interior.min() < 0.5 * target or interior.max() > 1.5 * target:
        failures.append(
            f"white bins in [{interior.min():.4f}, {interior.max():.4f}] "
            f"not within +-50% of {target:.4f}")
    if ratio >= 3:
        failures.append(f"white max/min ratio {ratio:.2f} >= 3")

    dens_c = np.zeros(65)
    for seed in range(n_seeds):
        cfg = noise_mod.NoiseConfig(kind="colored", amplitude=1.0,
                                    segments=128, total_length=64.0,
                                    seed=seed)
        seq = noise_mod.generate(cfg, n_sites=1).sequences[0]
        dens_c += analysis.psd_periodogram(seq,
                                           cfg.sampling_frequency).density
    peak_bin = int(np.argmax(dens_c))
    if peak_bin > 1:
        failures.append(f"colored spectral peak at bin {peak_bin}, "
                        "not the lowest frequencies")

    # lag structure at f_s = 0.5 over 100 mm
    acf_c = 0.0
    white_acfs = np.zeros(49)
    for seed in range(n_seeds):
        c_cfg = noise_mod.NoiseConfig(kind="colored", amplitude=1.0,
                                      segments=50, total_length=100.0,
                                      seed=seed)
        acf_c += analysis.sample_acf(
            noise_mod.generate(c_cfg, n_sites=1).sequences[0], 10)
        w_cfg = noise_mod.NoiseConfig(kind="uniform_white", amplitude=1.0,
                                      segments=50, total_length=100.0,
                                      seed=seed)
        w_seq = noise_mod.generate(w_cfg, n_sites=1).sequences[0]
        white_acfs += [analysis.sample_acf(w_seq, lag)
                       for lag in range(1, 50)]
    acf_c /= n_seeds
    white_max = float(np.abs(white_acfs / n_seeds).max())
    if acf_c < 0.2:
        failures.append(f"colored mean lag-10 ACF {acf_c:.3f} < 0.2")
    if white_max > 0.2:
        failures.append(f"white mean |ACF| max {white_max:.3f} > 0.2")
    report("A4", failures,
           f"white ratio={ratio:.2f} colored peak bin={peak_bin} "
           f"colored ACF(10)={acf_c:.3f} white |ACF|max={white_max:.3f}",
           time.time() - t0, 10)


def test_a05_numerical_core():
    t0 = time.time()
    failures = []
    for kind in noise_mod.NOISE_KINDS:
        tr = dynamics.evolve(**default_chip(1.0, seed=3, kind=kind),
                             steps_per_segment=1)
        drift = float(np.abs(np.linalg.norm(tr.amplitudes, axis=1) - 1.0).max())
        if drift >= 1e-9:
            failures.append(f"{kind} norm drift {drift:.2e} >= 1e-9")
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(100):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = (a + a.conj().T) / 2
        dz = rng.uniform(0.1, 2.0)
        u = dynamics.segment_propagator(h, dz)
        worst = max(worst, float(np.abs(u - expm_taylor(-1j * h * dz)).max()))
    if worst >= 1e-9:
        failures.append(f"propagator vs series oracle {worst:.2e} >= 1e-9")
    x = rng.standard_normal(64)
    acf_err = max(abs(analysis.sample_acf(x, lag) - acf_oracle(x, lag))
                  for lag in range(64))
    if acf_err >= 1e-9:
        failures.append(f"ACF vs direct oracle {acf_err:.2e} >= 1e-9")
    y = rng.standard_normal(48)
    est = analysis.psd_periodogram(y, 0.5, nfft=64)
    _, ref = periodogram_oracle(y, 0.5, 64)
    psd_err = float(np.abs(est.density - ref).max())
    if psd_err >= 1e-9:
        failures.append(f"periodogram vs DFT oracle {psd_err:.2e} >= 1e-9")
    report("A5", failures,
           f"propagator err={worst:.1e} acf err={acf_err:.1e} "
           f"psd err={psd_err:.1e}", time.time() - t0, 5)


def test_a06_calibrated_eigengap():
    t0 = time.time()
    gap = model.lowest_eigengap(build_fmo_hamiltonian(FmoSpec()))
    reference = 0.4776
    dev = abs(gap - reference) / reference
    failures = []
    if dev > 0.05:
        failures.append(f"default eigengap {gap:.4f} deviates "
                        f"{100 * dev:.1f}% from {reference}")
    report("A6", failures, f"gap={gap:.6f} deviation={100 * dev:.2f}%",
           time.time() - t0, 5)


def test_a07_vibrational_assistance():
    t0 = time.time()
    failures = []
    cfg = SweepConfig(grid=FIGS5_GRID, realizations=100,
                      noise_kind="colored")
    pos, with_v, without_v = vibrational_comparison(cfg)
    diff = with_v - without_v
    gains = diff[:, pos <= 5.0].mean(axis=1)
    onset = diff[:, pos <= 2.0].mean(axis=1)
    for g, gain in zip(cfg.grid, gains):
        if gain < -1e-12:
            failures.append(f"amplitude {g:g}: z<=5 window deficit "
                            f"{gain:.4f}")
    report("A7", failures,
           "z<=5 gains: " + ", ".join(f"{g:+.4f}" for g in gains)
           + " | z<=2 gains: " + ", ".join(f"{g:+.4f}" for g in onset),
           time.time() - t0, 120)


def test_a08_localization():
    t0 = time.time()
    failures = []
    h7 = build_fmo_hamiltonian(FmoSpec())
    n_draws = 1000
    ipr_means = {}
    medians = {}
    for gamma in (0.0, 10.0, 100.0):
        iprs = []
        loc = []
        for k in range(n_draws):
            hd = apply_static_disorder(h7, gamma, [31, k])
            iprs.append(analysis.ipr(hd))
            if gamma == 100.0:
                _, w = analysis.eigen_site_distribution(hd)
                loc.append(w.max(axis=1).min())
        ipr_means[gamma] = float(np.mean(iprs))
        if loc:
            medians[gamma] = float(np.median(loc))
    if not ipr_means[0.0] > ipr_means[10.0] > ipr_means[100.0]:
        failures.append(f"mean IPR not strictly decreasing: {ipr_means}")
    if medians[100.0] <= 0.9:
        failures.append(f"median per-level site localization "
                        f"{medians[100.0]:.3f} <= 0.9 at gamma=100")
    report("A8", failures,
           f"IPR means={{0: {ipr_means[0.0]:.3f}, 10: {ipr_means[10.0]:.3f}, "
           f"100: {ipr_means[100.0]:.3f}}} median max-prob="
           f"{medians[100.0]:.3f}", time.time() - t0, 30)


def test_a09_coupling_correction_marginal():
    t0 = time.time()
    plain = cached_sweep(noise_kind="uniform_white")
    corrected = cached_sweep(noise_kind="uniform_white",
                             coupling_correction=True)
    diff = float(np.abs(plain.means - corrected.means).max())
    failures = []
    if diff >= 0.02:
        failures.append(f"pointwise mean difference {diff:.4f} >= 0.02")
    report("A9", failures, f"max |difference|={diff:.5f}",
           time.time() - t0, 180)


def test_a10_segment_count_insensitive():
    t0 = time.time()
    cfg = SweepConfig(grid=(0.5,), realizations=100, threads=THREADS)
    out = segment_count_study(cfg, segment_counts=(20, 80))
    m20, s20 = out[20].means[0], out[20].stds[0]
    m80, s80 = out[80].means[0], out[80].stds[0]
    pooled = float(np.sqrt((s20 ** 2 + s80 ** 2) / 2))
    failures = []
    if not m20 >= m80 - pooled:
        failures.append(f"mean(20 seg)={m20:.4f} < mean(80 seg)-pooled std "
                        f"= {m80 - pooled:.4f}")
    report("A10", failures,
           f"mean20={m20:.4f} mean80={m80:.4f} pooled std={pooled:.4f}",
           time.time() - t0, 120)


def test_a11_image_ingestion(tmp_path):
    t0 = time.time()
    failures = []
    img = np.zeros((40, 60))
    img[20, 10] = 30.0
    img[10:18, 40:50] = 0.875   # 80 binary-exact pixels summing to 70
    eta = analysis.efficiency_from_intensity_image(
        img, analysis.EllipseMask(10, 20, 5, 5),
        analysis.RectMask(40, 10, 10, 8))
    if eta != 0.7:
        failures.append(f"30/70 fixture gave {eta!r}, not exactly 0.7")
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("1 2 3\n4 5\n")
    try:
        analysis.read_pixel_matrix(ragged)
        failures.append("ragged pixel file was not rejected")
    except Exception:
        pass
    try:
        analysis.efficiency_from_intensity_image(
            img, analysis.EllipseMask(42, 12, 5, 5),
            analysis.RectMask(40, 10, 10, 10))
        failures.append("overlapping masks were not rejected")
    except Exception:
        pass
    report("A11", failures, f"fixture efficiency={eta!r}",
           time.time() - t0, 1)


def test_a12_thread_count_determinism(tmp_path):
    t0 = time.time()
    failures = []
    doc = {
        "schema_version": 1,
        "system": {"sink_length": 20},
        "noise": {"kind": "uniform_white", "segments": 20,
                  "total_length_mm": 20.0},
        "sweep": {"grid_per_mm": [0.0, 0.5, 1.0], "realizations": 10},
        "seed": 5,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    artifacts = ("sweep_raw.csv", "sweep_summary.csv", "manifest.json")
    blobs = {}
    for threads in (1, 2, 8):
        out = tmp_path / f"t{threads}"
        code = cli_main(["sweep", "--config", str(cfg_path),
                         "--threads", str(threads), "--out", str(out)])
        if code != 0:
            failures.append(f"threads={threads}: exit code {code}")
            continue
        blobs[threads] = tuple((out / a).read_bytes() for a in artifacts)
    if len(blobs) == 3 and not blobs[1] == blobs[2] == blobs[8]:
        failures.append("artifacts differ across 1/2/8 worker threads")
    report("A12", failures, "sweep artifacts compared for 1/2/8 threads",
           time.time() - t0, 60)
