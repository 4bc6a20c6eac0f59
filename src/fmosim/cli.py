"""Command-line front end.

Subcommands: ``simulate`` (single evolution trace), ``sweep`` (Monte
Carlo dephasing sweep), ``reproduce`` (named preset studies),
``analyze-image`` (efficiency from an intensity image), and
``chip-plan`` (fabrication plan export).

Configuration documents are JSON with unit-suffixed field names.
``simulate``, ``sweep`` and ``chip-plan`` check and read a document
through one table, :data:`CONFIG_KEYS` (each key's field, JSON type and
bound; an unknown key is rejected with its path), into an
``experiments.SweepConfig``, whose defaults fill the keys left out (no
``noise.kind`` means ``uniform_white``).  A key the subcommand does not read
(:data:`UNREAD_KEYS`) gets one ``note:`` line on stderr; the run goes on.
So does ``reproduce --realizations`` for the figures that do not read it
(None in :data:`FIGURES`, which gives each figure's default).

Exit codes: 0 success, 2 configuration error, 3 physics rejection (also a
series or trace over the ``dynamics.MAX_*`` budgets, or a study whose
arrays the host refuses to allocate), 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import os
import sys
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from . import __version__, _csv, analysis, dynamics, experiments, model
from . import noise as noise_mod
from .errors import ConfigError, PhysicsError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_IO = 4

SCHEMA_VERSION = 1

#: Each preset figure of ``reproduce`` -> its default ``--realizations``.
#: None marks the figures of one trace per setting (figS6, figS7) or of no
#: ensemble at all (figS9): ``--realizations`` gets a note and changes nothing.
FIGURES = {"fig3b": 100, "fig3c": 100, "fig4e": 100, "figS3": 30, "figS5": 100,
           "figS6": None, "figS7": None, "figS8": 100, "figS9": None,
           "figS15": 100, "figS16": 100}
FIGURE_IDS = tuple(FIGURES)


def _int_at_least(low: int):
    """An argparse type: an integer of at least ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


class Key(NamedTuple):
    """One row of :data:`CONFIG_KEYS`: the field a key sets, the key's JSON
    type (a name in :data:`_TYPES`) and its bound, ``value op limit``."""

    field: str | None
    type: str
    op: str = ""
    limit: int = 0


#: The one description of a config document: (section, key) -> the
#: SweepConfig field the key sets, "fmo.<field>" for a FmoSpec field, or
#: "amplitude" for the detuning amplitude of a single trace (simulate and
#: chip-plan), with the key's JSON type and bound.  Top-level keys have
#: section None; None as the field marks a key that is only checked.  Two
#: keys that set one field must agree.
CONFIG_KEYS = {
    ("system", "coupling_scale"): Key("fmo.coupling_scale", "number"),
    ("system", "site_energy_scale"): Key("fmo.site_energy_scale", "number"),
    ("system", "unit_conversion"): Key("fmo.unit_conversion", "number"),
    ("system", "include_weak_couplings"):
        Key("fmo.include_weak_couplings", "boolean"),
    ("system", "sink_length"): Key("sink_length", "integer", ">=", 1),
    ("system", "sink_coupling_per_mm"): Key("sink_coupling", "number", ">", 0),
    ("system", "with_vibration"): Key("with_vibration", "boolean"),
    ("noise", "kind"): Key("noise_kind", "noise kind"),
    ("noise", "amplitude_per_mm"): Key("amplitude", "number", ">=", 0),
    ("noise", "segments"): Key("segments", "integer", ">=", 1),
    ("noise", "total_length_mm"): Key("observe_z", "number", ">", 0),
    ("noise", "filter_time_scale"): Key("filter_time_scale", "number", ">", 0),
    ("sweep", "grid_per_mm"): Key("grid", "numbers"),
    ("sweep", "realizations"): Key("realizations", "integer", ">=", 1),
    ("sweep", "disorder_per_mm"): Key("disorder", "number", ">=", 0),
    ("sweep", "observe_z_mm"): Key("observe_z", "number", ">", 0),
    ("sweep", "coupling_correction"): Key("coupling_correction", "boolean"),
    (None, "seed"): Key("seed", "integer", ">=", 0),
    (None, "schema_version"): Key(None, "number", "==", SCHEMA_VERSION),
}

_SECTIONS = {section for section, _ in CONFIG_KEYS} - {None}


def _is_number(value) -> bool:
    """Whether ``value`` is a JSON number (a boolean is not); NaN, an
    infinity and an integer too large for a float are rejected."""
    if type(value) not in (int, float):
        return False
    try:
        if math.isfinite(value):
            return True
    except OverflowError:
        pass
    raise ConfigError(f"non-finite number {value} is not allowed")


#: JSON type of a config key -> (test of a parsed value, its name in errors).
#: An integer is a JSON integer: 10.0 and 1e2 are not.
_TYPES = {
    "integer": (lambda v: type(v) is int, "an integer"),
    "number": (_is_number, "a number"),
    "boolean": (lambda v: type(v) is bool, "a boolean"),
    "noise kind": (lambda v: v in noise_mod.NOISE_KINDS,
                   "one of " + ", ".join(noise_mod.NOISE_KINDS)),
    "numbers": (lambda v: type(v) is list and v != [] and all(map(_is_number, v)),
                "a non-empty list of numbers"),
}

_BOUNDS = {">=": operator.ge, ">": operator.gt, "==": operator.eq}


def _check_value(row: Key | None, value) -> None:
    if row is None:
        raise ConfigError("unknown key")
    is_type, name = _TYPES[row.type]
    if not is_type(value):
        raise ConfigError(f"{json.dumps(value)} is not {name}")
    if row.op and not _BOUNDS[row.op](value, row.limit):
        raise ConfigError(f"must be {row.op} {row.limit}, got {value}")


def _check(doc) -> None:
    """Raise ConfigError at the first key of ``doc``, in document order,
    that :data:`CONFIG_KEYS` rejects."""
    if type(doc) is not dict:
        raise ConfigError("at (top level): must be a JSON object")
    if "schema_version" not in doc:
        raise ConfigError("at (top level): schema_version is required")
    for key, value in doc.items():
        if key not in _SECTIONS:
            leaves = [(key, CONFIG_KEYS.get((None, key)), value)]
        elif type(value) is dict:
            leaves = [(f"{key}/{sub}", CONFIG_KEYS.get((key, sub)), item)
                      for sub, item in value.items()]
        else:
            raise ConfigError(f"at {key}: must be a JSON object")
        for where, row, item in leaves:
            try:
                _check_value(row, item)
            except ConfigError as exc:
                raise ConfigError(f"at {where}: {exc}") from None


def _object(pairs) -> dict:
    """A JSON object that gives no key twice (``json.load`` would keep
    the last value)."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(
                f"key {json.dumps(key)} is given twice in one object")
        doc[key] = value
    return doc


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f, object_pairs_hook=_object)
        _check(doc)
    except (ValueError, RecursionError) as exc:
        # besides a syntax error: bytes that are not UTF-8, an integer past
        # Python's int-string digit limit, or nesting deeper than the parser
        # recurses
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return doc


_ENSEMBLE_KEYS = {("sweep", "grid_per_mm"), ("sweep", "realizations")}

#: Keys each subcommand does not read: a document that sets one gets a
#: note on stderr, and the key is left out of the study.
UNREAD_KEYS = {
    "sweep": {("noise", "amplitude_per_mm")},
    "simulate": _ENSEMBLE_KEYS,
    "chip-plan": _ENSEMBLE_KEYS | {
        ("system", "sink_length"), ("system", "sink_coupling_per_mm"),
        ("sweep", "disorder_per_mm"), ("sweep", "coupling_correction")},
}


def _study(doc: dict, args):
    """(SweepConfig, single-trace amplitude) of a validated document, as
    the subcommand ``args.command`` reads it; ``--seed`` overrides the
    document's seed."""
    kwargs, source = {}, {}
    for (section, key), (name, *_) in CONFIG_KEYS.items():
        part = doc.get(section, {}) if section else doc
        if name is None or key not in part:
            continue
        where = f"{section}.{key}" if section else key
        if (section, key) in UNREAD_KEYS[args.command]:
            print(f"note: {args.command} does not read {where}; ignored",
                  file=sys.stderr)
            continue
        if kwargs.setdefault(name, part[key]) != part[key]:
            raise ConfigError(
                f"{where} ({part[key]:g}) and {source[name]} "
                f"({kwargs[name]:g}) disagree; give one of them, or the "
                "same value for both")
        source[name] = where
    fmo = {name[4:]: kwargs.pop(name) for name in list(kwargs)
           if name.startswith("fmo.")}
    amplitude = kwargs.pop("amplitude", noise_mod.NoiseConfig.amplitude)
    if args.seed is not None:
        kwargs["seed"] = args.seed
    return experiments.SweepConfig(fmo=model.FmoSpec(**fmo),
                                   **kwargs), amplitude


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def cmd_simulate(args) -> int:
    cfg, amplitude = _study(load_config(args.config), args)
    tr, det = experiments.single_trace(cfg, amplitude, cfg.seed)
    out = _outdir(args)
    dynamics.write_trace_csv(tr, os.path.join(out, "trace.csv"),
                             stride=args.stride)
    noise_mod.write_noise_csv(det, os.path.join(out, "noise.csv"))
    eta = analysis.transport_efficiency(tr)
    print(f"efficiency at z={tr.positions[-1]:g} mm: {eta:.12g}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg, _ = _study(load_config(args.config), args)
    result = experiments.sweep_dephasing(cfg)
    out = _outdir(args)
    experiments.write_sweep_csv(result, os.path.join(out, "sweep_raw.csv"),
                                os.path.join(out, "sweep_summary.csv"))
    experiments.write_manifest(cfg, os.path.join(out, "manifest.json"))
    print(f"argmax grid value: {result.argmax_value:.12g}")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    fig = args.figure_id
    if fig not in FIGURES:
        raise ConfigError(
            f"unknown figure id {fig!r}; valid ids: {', '.join(FIGURE_IDS)}")
    realizations = FIGURES[fig]
    if realizations is None and args.realizations is not None:
        print(f"note: reproduce {fig} does not read --realizations; ignored",
              file=sys.stderr)
    out = _outdir(args)
    seed = args.seed if args.seed is not None else 0
    base = experiments.SweepConfig(seed=seed)
    if realizations is not None:
        base = replace(base, realizations=args.realizations or realizations)

    def path(name):
        return os.path.join(out, f"{fig}_{name}.csv")

    def table(name, header, rows):
        _csv.write_table(path(name), header, (
            [f"{v:.15g}" if isinstance(v, (float, np.floating)) else v
             for v in row] for row in rows))

    def sweep(cfg, prefix, label):
        res = experiments.sweep_dephasing(cfg)
        experiments.write_sweep_csv(res, path(f"{prefix}raw"),
                                    path(f"{prefix}summary"))
        print(f"{label}{res.argmax_value:.12g}")

    def curves(results):
        """(key, amplitude, mean, std) rows of a {key: SweepResult} study."""
        return [(key, g, m, s) for key, res in results.items()
                for g, m, s in zip(res.grid, res.means, res.stds)]

    if fig == "fig3b":
        points, fit = experiments.reorganization_curve(replace(
            base, noise_kind="colored", grid=experiments.FIG3B_GRID))
        table("points", ["variance", "reorganization_energy"], points)
        table("fit", ["slope", "intercept", "r_squared"],
              [(fit.slope, fit.intercept, fit.r_squared)])
        print(f"linear fit R^2: {fit.r_squared:.6f}")
    elif fig in ("fig3c", "figS5"):
        grid = (0.5,) if fig == "fig3c" else experiments.FIGS5_GRID
        z, with_mode, without = experiments.vibrational_comparison(
            replace(base, grid=grid))
        table("traces",
              ["amplitude", "z_mm", "eta_with_mode", "eta_without_mode"],
              [(g, zj, a, b) for g, row_a, row_b in zip(grid, with_mode, without)
               for zj, a, b in zip(z, row_a, row_b)])
        print(f"wrote vibrational comparison for {len(grid)} amplitudes")
    elif fig == "fig4e":
        sweep(replace(base, noise_kind="colored"), "", "argmax grid value: ")
    elif fig == "figS3":
        res_plain = experiments.sweep_dephasing(base)
        res_corr = experiments.sweep_dephasing(
            replace(base, coupling_correction=True))
        table("comparison",
              ["amplitude", "eta_diagonal_only", "eta_with_correction"],
              zip(base.grid, res_plain.means, res_corr.means))
        diff = float(np.abs(res_plain.means - res_corr.means).max())
        print(f"max |difference|: {diff:.6f}")
    elif fig in ("figS6", "figS7"):
        if fig == "figS6":
            family = "disorder"
            studies = experiments.excitation_trace_study(base, amplitudes=())
        else:
            family = "detuning"
            studies = experiments.excitation_trace_study(base, disorders=())
        for (label, value), (z, probs, mps) in studies.items():
            table(f"{label}_{value:g}",
                  ["z_mm"] + [f"p_site{i}" for i in range(1, 8)] + ["most_probable"],
                  [(zj, *p, m) for zj, p, m in zip(z, probs, mps)])
        print(f"wrote {family} excitation traces")
    elif fig == "figS8":
        for gamma, grid in experiments.FIGS8_GRIDS.items():
            sweep(replace(base, disorder=gamma, grid=grid, sink_length=80),
                  f"gamma{gamma:g}_", f"gamma={gamma:g}: argmax ")
    elif fig == "figS9":
        h7 = experiments.network_hamiltonian(base)
        for gamma in (0.0, 1.0, 5.0, 10.0, 50.0, 100.0):
            w, dist = analysis.eigen_site_distribution(
                model.apply_static_disorder(h7, gamma, [seed, int(gamma)]))
            table(f"gamma{gamma:g}",
                  ["eigenvalue"] + [f"w_site{i}" for i in range(1, 8)],
                  [(wa, *col) for wa, col in zip(w, dist.T)])
        print("wrote eigen-level site distributions")
    elif fig == "figS15":
        table("segments", ["segments", "amplitude", "mean", "std"],
              curves(experiments.segment_count_study(base)))
        print("wrote segment study")
    elif fig == "figS16":
        results, profile_means = experiments.noise_distribution_comparison(base)
        table("distributions", ["kind", "amplitude", "mean", "std"],
              curves(results))
        table("profile_means", ["kind", "normalized_mean"],
              profile_means.items())
        print("wrote noise-distribution comparison")
    return EXIT_OK


def _parse_floats(text: str, n: int, flag: str):
    parts = text.split(",")
    if len(parts) != n:
        raise ConfigError(f"{flag} expects {n} comma-separated numbers")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"{flag}: non-numeric value") from exc
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{flag}: non-finite value")
    return values


def cmd_analyze_image(args) -> int:
    cx, cy, rx, ry = _parse_floats(args.ellipse, 4, "--ellipse")
    x, y, w, h = _parse_floats(args.rect, 4, "--rect")
    [background] = _parse_floats(args.background, 1, "--background")
    s_fmo, s_sink, eta = analysis.intensity_image_sums(
        analysis.read_pixel_matrix(args.image),
        analysis.EllipseMask(cx, cy, rx, ry), analysis.RectMask(x, y, w, h),
        background)
    print(f"network sum: {s_fmo:.12g}")
    print(f"sink sum: {s_sink:.12g}")
    print(f"efficiency: {eta:.12g}")
    return EXIT_OK


def cmd_chip_plan(args) -> int:
    cfg, amplitude = _study(load_config(args.config), args)
    h = experiments.network_hamiltonian(cfg)
    det = noise_mod.generate(experiments.noise_config(cfg, amplitude, cfg.seed),
                             n_sites=len(h.fmo_indices))
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
        p.add_argument("--seed", type=_int_at_least(0), default=None,
                       help="master seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; a study runs as "
                            "one batch, so the value changes neither "
                            "execution nor results")

    p = sub.add_parser("simulate", help="single evolution trace")
    common(p)
    p.add_argument("--stride", type=_int_at_least(1), default=1,
                   help="trace down-sampling stride")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="Monte Carlo dephasing sweep")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("reproduce", help="run a named preset study")
    p.add_argument("figure_id", help=f"one of: {', '.join(FIGURE_IDS)}")
    common(p, config_required=False)
    p.add_argument("--realizations", type=_int_at_least(1), default=None,
                   help="override ensemble size")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("analyze-image", help="efficiency from intensity image")
    p.add_argument("image", help="whitespace-separated ASCII pixel matrix")
    p.add_argument("--ellipse", required=True, metavar="CX,CY,RX,RY")
    p.add_argument("--rect", required=True, metavar="X,Y,W,H")
    p.add_argument("--background", default="0")
    p.set_defaults(func=cmd_analyze_image)

    p = sub.add_parser("chip-plan", help="export fabrication plan CSV")
    common(p)
    p.set_defaults(func=cmd_chip_plan)
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: it holds no state between calls, since
    each parse fills a new namespace."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PhysicsError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except MemoryError as exc:
        print(f"rejected: out of memory: {str(exc) or 'an allocation failed'}",
              file=sys.stderr)
        return EXIT_PHYSICS
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
