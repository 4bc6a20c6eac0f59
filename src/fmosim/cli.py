"""Command-line front end.

Subcommands: ``simulate`` (single evolution trace), ``sweep`` (Monte
Carlo dephasing sweep), ``reproduce`` (named preset studies),
``analyze-image`` (efficiency from an intensity image), and
``chip-plan`` (fabrication plan export).  Configuration documents are
JSON with unit-suffixed field names and a versioned schema; unknown keys
are rejected with a path to the offending field.

Exit codes: 0 success, 2 configuration error, 3 physics rejection,
4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from functools import cache

import numpy as np

from . import __version__, analysis, dynamics, experiments, model
from . import noise as noise_mod
from .errors import ConfigError, PhysicsError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_IO = 4

SCHEMA_VERSION = 1

_SYSTEM_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "coupling_scale": {"type": "number"},
        "site_energy_scale": {"type": "number"},
        "unit_conversion": {"type": "number"},
        "include_weak_couplings": {"type": "boolean"},
        "sink_length": {"type": "integer", "minimum": 1},
        "sink_coupling_per_mm": {"type": "number", "exclusiveMinimum": 0},
        "with_vibration": {"type": "boolean"},
    },
}

_NOISE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "kind": {"enum": list(noise_mod.NOISE_KINDS)},
        "amplitude_per_mm": {"type": "number", "minimum": 0},
        "segments": {"type": "integer", "minimum": 1},
        "total_length_mm": {"type": "number", "exclusiveMinimum": 0},
        "filter_time_scale": {"type": "number", "exclusiveMinimum": 0},
    },
}

_SWEEP_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "grid_per_mm": {"type": "array", "items": {"type": "number"},
                        "minItems": 1},
        "realizations": {"type": "integer", "minimum": 1},
        "disorder_per_mm": {"type": "number", "minimum": 0},
        "observe_z_mm": {"type": "number", "exclusiveMinimum": 0},
        "coupling_correction": {"type": "boolean"},
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "system": _SYSTEM_SCHEMA,
        "noise": _NOISE_SCHEMA,
        "sweep": _SWEEP_SCHEMA,
        "seed": {"type": "integer", "minimum": 0},
    },
    "required": ["schema_version"],
}

FIGURE_IDS = ("fig3b", "fig3c", "fig4e", "figS3", "figS5", "figS6", "figS7",
              "figS8", "figS9", "figS15", "figS16")


def _reject_non_finite(text: str):
    raise ConfigError(f"non-finite number {text} is not allowed")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        _reject_non_finite(text)
    return value


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f, parse_constant=_reject_non_finite,
                            parse_float=_finite_float)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    from jsonschema.exceptions import best_match
    # the error jsonschema.validate would raise, without its per-call
    # check of the schema itself (the tests check the schema once)
    error = best_match(_config_validator().iter_errors(doc))
    if error is not None:
        where = "/".join(str(p) for p in error.absolute_path) or "(top level)"
        raise ConfigError(f"{path}: at {where}: {error.message}")
    return doc


@cache
def _config_validator():
    # imported on first use, so that importing the CLI does not pay for it
    import jsonschema
    return jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


def _fmo_spec(doc: dict) -> model.FmoSpec:
    sys_doc = doc.get("system", {})
    kwargs = {k: sys_doc[k] for k in
              ("coupling_scale", "site_energy_scale", "unit_conversion",
               "include_weak_couplings") if k in sys_doc}
    return model.FmoSpec(**kwargs)


def _noise_config(doc: dict, seed: int) -> noise_mod.NoiseConfig:
    nd = doc.get("noise", {})
    kwargs = {"seed": seed}
    if "kind" in nd:
        kwargs["kind"] = nd["kind"]
    if "amplitude_per_mm" in nd:
        kwargs["amplitude"] = nd["amplitude_per_mm"]
    if "segments" in nd:
        kwargs["segments"] = nd["segments"]
    if "total_length_mm" in nd:
        kwargs["total_length"] = nd["total_length_mm"]
    if "filter_time_scale" in nd:
        kwargs["filter_time_scale"] = nd["filter_time_scale"]
    return noise_mod.NoiseConfig(**kwargs)


def _system(doc: dict, with_sink: bool = True) -> model.Hamiltonian:
    sys_doc = doc.get("system", {})
    h = model.build_fmo_hamiltonian(_fmo_spec(doc))
    if sys_doc.get("with_vibration", False):
        h = model.attach_vibrational_mode(h)
    if with_sink:
        coupling = sys_doc.get("sink_coupling_per_mm", model.DEFAULT_SINK_COUPLING)
        h = model.attach_sink(h, sys_doc.get("sink_length", 100),
                              drain_coupling=coupling, internal_coupling=coupling)
    return h


def _sweep_config(doc: dict, threads: int) -> experiments.SweepConfig:
    sd = doc.get("sweep", {})
    nd = doc.get("noise", {})
    kwargs = {
        "fmo": _fmo_spec(doc),
        "seed": doc.get("seed", 0),
        "threads": threads,
    }
    sys_doc = doc.get("system", {})
    if "sink_length" in sys_doc:
        kwargs["sink_length"] = sys_doc["sink_length"]
    if "sink_coupling_per_mm" in sys_doc:
        kwargs["sink_coupling"] = sys_doc["sink_coupling_per_mm"]
    if "with_vibration" in sys_doc:
        kwargs["with_vibration"] = sys_doc["with_vibration"]
    if "kind" in nd:
        kwargs["noise_kind"] = nd["kind"]
    if "segments" in nd:
        kwargs["segments"] = nd["segments"]
    if "filter_time_scale" in nd:
        kwargs["filter_time_scale"] = nd["filter_time_scale"]
    if "grid_per_mm" in sd:
        kwargs["grid"] = tuple(sd["grid_per_mm"])
    if "realizations" in sd:
        kwargs["realizations"] = sd["realizations"]
    if "disorder_per_mm" in sd:
        kwargs["disorder"] = sd["disorder_per_mm"]
    if "total_length_mm" in nd:
        kwargs["observe_z"] = float(nd["total_length_mm"])
    if "observe_z_mm" in sd:
        if "observe_z" in kwargs and kwargs["observe_z"] != sd["observe_z_mm"]:
            raise ConfigError(
                f"sweep.observe_z_mm ({sd['observe_z_mm']:g}) and "
                f"noise.total_length_mm ({nd['total_length_mm']:g}) disagree; "
                "give one of them, or the same value for both")
        kwargs["observe_z"] = sd["observe_z_mm"]
    if "coupling_correction" in sd:
        kwargs["coupling_correction"] = sd["coupling_correction"]
    return experiments.SweepConfig(**kwargs)


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def cmd_simulate(args) -> int:
    doc = load_config(args.config)
    seed = args.seed if args.seed is not None else doc.get("seed", 0)
    h = _system(doc)
    ncfg = _noise_config(doc, seed)
    det = noise_mod.generate(ncfg, n_sites=len(h.fmo_indices))
    ph = dynamics.PiecewiseHamiltonian(
        h, det, segment_length=ncfg.total_length / ncfg.segments,
        total_length=ncfg.total_length)
    tr = dynamics.evolve(ph)
    out = _outdir(args)
    dynamics.write_trace_csv(tr, os.path.join(out, "trace.csv"),
                             stride=args.stride)
    noise_mod.write_noise_csv(det, os.path.join(out, "noise.csv"))
    eta = analysis.transport_efficiency(tr)
    print(f"efficiency at z={tr.positions[-1]:g} mm: {eta:.12g}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    doc = load_config(args.config)
    cfg = _sweep_config(doc, args.threads)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    result = experiments.sweep_dephasing(cfg)
    out = _outdir(args)
    experiments.write_sweep_csv(result, os.path.join(out, "sweep_raw.csv"),
                                os.path.join(out, "sweep_summary.csv"))
    experiments.write_manifest(cfg, os.path.join(out, "manifest.json"))
    print(f"argmax grid value: {result.argmax_value:.12g}")
    return EXIT_OK


def _write_table(path, header, rows):
    import csv
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{v:.15g}" if isinstance(v, float) else v for v in row])


def cmd_reproduce(args) -> int:
    fig = args.figure_id
    if fig not in FIGURE_IDS:
        raise ConfigError(
            f"unknown figure id {fig!r}; valid ids: {', '.join(FIGURE_IDS)}")
    out = _outdir(args)
    seed = args.seed if args.seed is not None else 0
    r_override = args.realizations
    base = experiments.SweepConfig(seed=seed, threads=args.threads)

    def with_r(cfg, default_r):
        return replace(cfg, realizations=r_override or default_r)

    if fig == "fig3b":
        cfg = with_r(replace(base, noise_kind="colored",
                             grid=tuple(round(0.1 * k, 10) for k in range(1, 11))), 100)
        points, fit = experiments.reorganization_curve(cfg)
        _write_table(os.path.join(out, f"{fig}_points.csv"),
                     ["variance", "reorganization_energy"],
                     [tuple(map(float, p)) for p in points])
        _write_table(os.path.join(out, f"{fig}_fit.csv"),
                     ["slope", "intercept", "r_squared"],
                     [(fit.slope, fit.intercept, fit.r_squared)])
        print(f"linear fit R^2: {fit.r_squared:.6f}")
    elif fig in ("fig3c", "figS5"):
        grid = (0.5,) if fig == "fig3c" else (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
        cfg = with_r(replace(base, grid=grid), 100)
        z, with_mode, without = experiments.vibrational_comparison(cfg)
        rows = []
        for gi, g in enumerate(cfg.grid):
            for j, zj in enumerate(z):
                rows.append((float(g), float(zj), float(with_mode[gi, j]),
                             float(without[gi, j])))
        _write_table(os.path.join(out, f"{fig}_traces.csv"),
                     ["amplitude", "z_mm", "eta_with_mode", "eta_without_mode"],
                     rows)
        print(f"wrote vibrational comparison for {len(cfg.grid)} amplitudes")
    elif fig == "fig4e":
        cfg = with_r(replace(base, noise_kind="colored"), 100)
        res = experiments.sweep_dephasing(cfg)
        experiments.write_sweep_csv(res, os.path.join(out, f"{fig}_raw.csv"),
                                    os.path.join(out, f"{fig}_summary.csv"))
        print(f"argmax grid value: {res.argmax_value:.12g}")
    elif fig == "figS3":
        cfg = with_r(base, 30)
        res_plain = experiments.sweep_dephasing(cfg)
        res_corr = experiments.sweep_dephasing(
            replace(cfg, coupling_correction=True))
        rows = [(float(g), float(a), float(b))
                for g, a, b in zip(cfg.grid, res_plain.means, res_corr.means)]
        _write_table(os.path.join(out, f"{fig}_comparison.csv"),
                     ["amplitude", "eta_diagonal_only", "eta_with_correction"],
                     rows)
        diff = float(np.abs(res_plain.means - res_corr.means).max())
        print(f"max |difference|: {diff:.6f}")
    elif fig in ("figS6", "figS7"):
        cfg = replace(base, realizations=1)
        studies = experiments.excitation_trace_study(cfg)
        family = "disorder" if fig == "figS6" else "detuning"
        for (label, value), (z, probs, mps) in studies.items():
            if label != family:
                continue
            rows = []
            for j, zj in enumerate(z):
                rows.append((float(zj), *[float(p) for p in probs[j]],
                             int(mps[j])))
            _write_table(
                os.path.join(out, f"{fig}_{label}_{value:g}.csv"),
                ["z_mm"] + [f"p_site{i}" for i in range(1, 8)] + ["most_probable"],
                rows)
        print(f"wrote {family} excitation traces")
    elif fig == "figS8":
        for gamma, grid in ((0.0, tuple(round(0.1 * k, 10) for k in range(11))),
                            (10.0, tuple(np.geomspace(0.3, 12.0, 11).round(6))),
                            (100.0, tuple(np.geomspace(3.0, 90.0, 11).round(6)))):
            cfg = with_r(replace(base, disorder=gamma, grid=grid,
                                 sink_length=80), 100)
            res = experiments.sweep_dephasing(cfg)
            tag = f"{fig}_gamma{gamma:g}"
            experiments.write_sweep_csv(res, os.path.join(out, f"{tag}_raw.csv"),
                                        os.path.join(out, f"{tag}_summary.csv"))
            print(f"gamma={gamma:g}: argmax {res.argmax_value:.12g}")
    elif fig == "figS9":
        h7 = model.build_fmo_hamiltonian(model.FmoSpec())
        for gamma in (0.0, 1.0, 5.0, 10.0, 50.0, 100.0):
            h = model.apply_static_disorder(h7, gamma, [seed, int(gamma)])
            w, dist = analysis.eigen_site_distribution(h)
            rows = [(float(w[a]), *[float(dist[i, a]) for i in range(7)])
                    for a in range(7)]
            _write_table(os.path.join(out, f"{fig}_gamma{gamma:g}.csv"),
                         ["eigenvalue"] + [f"w_site{i}" for i in range(1, 8)],
                         rows)
        print("wrote eigen-level site distributions")
    elif fig == "figS15":
        cfg = with_r(base, 100)
        res = experiments.segment_count_study(cfg)
        rows = []
        for n_seg, sweep in res.items():
            for g, m, s in zip(sweep.grid, sweep.means, sweep.stds):
                rows.append((int(n_seg), float(g), float(m), float(s)))
        _write_table(os.path.join(out, f"{fig}_segments.csv"),
                     ["segments", "amplitude", "mean", "std"], rows)
        print("wrote segment study")
    elif fig == "figS16":
        cfg = with_r(base, 100)
        results, profile_means = experiments.noise_distribution_comparison(cfg)
        rows = []
        for kind, sweep in results.items():
            for g, m, s in zip(sweep.grid, sweep.means, sweep.stds):
                rows.append((kind, float(g), float(m), float(s)))
        _write_table(os.path.join(out, f"{fig}_distributions.csv"),
                     ["kind", "amplitude", "mean", "std"], rows)
        _write_table(os.path.join(out, f"{fig}_profile_means.csv"),
                     ["kind", "normalized_mean"],
                     [(k, float(v)) for k, v in profile_means.items()])
        print("wrote noise-distribution comparison")
    return EXIT_OK


def _parse_floats(text: str, n: int, flag: str):
    parts = text.split(",")
    if len(parts) != n:
        raise ConfigError(f"{flag} expects {n} comma-separated numbers")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"{flag}: non-numeric value") from exc


def cmd_analyze_image(args) -> int:
    cx, cy, rx, ry = _parse_floats(args.ellipse, 4, "--ellipse")
    x, y, w, h = _parse_floats(args.rect, 4, "--rect")
    pixels = analysis.read_pixel_matrix(args.image)
    fmo_mask = analysis.EllipseMask(cx, cy, rx, ry)
    sink_mask = analysis.RectMask(x, y, w, h)
    eta = analysis.efficiency_from_intensity_image(
        pixels, fmo_mask, sink_mask, background=args.background)
    net = pixels - args.background
    s_fmo = float(net[fmo_mask.select(pixels.shape)].sum())
    s_sink = float(net[sink_mask.select(pixels.shape)].sum())
    print(f"network sum: {s_fmo:.12g}")
    print(f"sink sum: {s_sink:.12g}")
    print(f"efficiency: {eta:.12g}")
    return EXIT_OK


def cmd_chip_plan(args) -> int:
    doc = load_config(args.config)
    seed = args.seed if args.seed is not None else doc.get("seed", 0)
    h = _system(doc, with_sink=False)
    ncfg = _noise_config(doc, seed)
    det = noise_mod.generate(ncfg, n_sites=len(h.fmo_indices))
    rows = model.export_chip_plan(h, det)
    out = _outdir(args)
    path = os.path.join(out, "chip_plan.csv")
    model.write_chip_plan(rows, path)
    speeds = [r.value for r in rows if r.record_type == "speed"]
    print(f"wrote {len(rows)} rows to {path}")
    if speeds:
        print(f"max speed detuning: {max(speeds):.12g} mm/s")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fmosim",
        description="Photonic-lattice transport simulation toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        if config_required:
            p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="master seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; a study runs as "
                            "one batch, so the value changes neither "
                            "execution nor results")

    p = sub.add_parser("simulate", help="single evolution trace")
    common(p)
    p.add_argument("--stride", type=int, default=1,
                   help="trace down-sampling stride")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="Monte Carlo dephasing sweep")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("reproduce", help="run a named preset study")
    p.add_argument("figure_id", help=f"one of: {', '.join(FIGURE_IDS)}")
    common(p, config_required=False)
    p.add_argument("--realizations", type=int, default=None,
                   help="override ensemble size")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("analyze-image", help="efficiency from intensity image")
    p.add_argument("image", help="whitespace-separated ASCII pixel matrix")
    p.add_argument("--ellipse", required=True, metavar="CX,CY,RX,RY")
    p.add_argument("--rect", required=True, metavar="X,Y,W,H")
    p.add_argument("--background", type=float, default=0.0)
    p.set_defaults(func=cmd_analyze_image)

    p = sub.add_parser("chip-plan", help="export fabrication plan CSV")
    common(p)
    p.set_defaults(func=cmd_chip_plan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PhysicsError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
