"""Spans around the calls into each fmosim layer, recorded from outside.

``Tracer.install`` replaces public functions at the names their callers look
them up by (module attributes), so no fmosim source changes.  Each call
records a span (id, parent id, study id, name, start, end, work) in memory;
``work`` holds counts computed at the same boundary, such as the floating
point operations a propagator needs for its matrix size.  Per-layer metrics
are derived from the spans of one study by ``layer_metrics``.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from pathlib import Path

from fmosim import analysis, dynamics, experiments, noise


def propagator_flops(n: int) -> int:
    """Real floating-point operations of one size-n segment propagator.

    Computed, not counted: a complex Hermitian eigendecomposition with
    vectors (~9 n^3 real-equivalent operations, x4 for complex arithmetic)
    plus the complex product V diag(e) V^H (8 n^3).
    """
    return 44 * n ** 3


def _evolve_work(_args, trace):
    return {"samples": len(trace.positions), "bytes": trace.amplitudes.nbytes}


def _propagator_work(args, _result):
    return {"flops": propagator_flops(len(args[0]))}


def _cli_work(args, _result):
    argv = list(args[0])
    out = Path(argv[argv.index("--out") + 1])
    return {"bytes": sum(p.stat().st_size for p in out.rglob("*") if p.is_file())}


MODEL_NAMES = ("apply_static_disorder", "attach_sink", "build_fmo_hamiltonian",
               "attach_vibrational_mode")
STUDY_NAMES = ("sweep_dephasing", "reorganization_curve", "vibrational_comparison")


def _targets():
    """(module, attribute, span name, work function) for every traced call."""
    out = [(dynamics, "segment_propagator", "dynamics.segment_propagator",
            _propagator_work),
           (dynamics, "evolve", "dynamics.evolve", _evolve_work),
           (noise, "generate", "noise.generate", None)]
    out += [(analysis, n, f"analysis.{n}", None) for n in analysis.__all__
            if inspect.isfunction(getattr(analysis, n))]
    # experiments imports the model functions by name, so wrap them there
    out += [(experiments, n, f"model.{n}", None) for n in MODEL_NAMES]
    out += [(experiments, n, f"experiments.{n}", None) for n in STUDY_NAMES]
    cli = sys.modules.get("fmosim.cli")
    if cli is not None:
        out.append((cli, "main", "cli.main", _cli_work))
    return out


class Tracer:
    """In-memory span recorder; create one per process."""

    def __init__(self):
        self.spans = []
        self.study = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = self._local.stack = []
        self._saved = []

    def _wrap(self, name, fn, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            # a pool thread's first span belongs to the call that is
            # blocked on the pool in the main thread
            parent = stack[-1] if stack else (self._main[-1] if self._main else 0)
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            # list.append is atomic, so pool threads need no lock here
            self.spans.append((sid, parent, self.study, name, t0, t1,
                               work(args, result) if work else None))
            return result
        return traced

    def install(self):
        for module, attr, name, work in _targets():
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, work))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write(self, path: Path):
        """Write the spans as JSON lines: id, parent, study, name, start, end, work."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def _union_length(intervals):
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def layer_metrics(spans, threads: int) -> dict:
    """Per-layer metrics of one study from its spans.

    Busy times sum span durations, so calls made concurrently from pool
    threads add up (thread-seconds).  A layer's calls and busy time count
    only its outermost spans, those whose parent lies in another layer.
    """
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)

    def layer(span):
        return span[3].split(".", 1)[0]

    def dur(span):
        return span[5] - span[4]

    def named(name):
        return [s for s in spans if s[3] == name]

    def outer(lay):
        return [s for s in spans if layer(s) == lay
                and (s[1] not in by_id or layer(by_id[s[1]]) != lay)]

    def self_time(span):
        kids = [(max(c[4], span[4]), min(c[5], span[5]))
                for c in children.get(span[0], ())]
        return dur(span) - _union_length(kids)

    def work(name, key):
        return sum(s[6][key] for s in named(name))

    prop = named("dynamics.segment_propagator")
    evol = named("dynamics.evolve")
    prop_busy = sum(map(dur, prop))
    evolve_busy = sum(map(dur, evol))
    exp = outer("experiments")
    exp_wall = sum(map(dur, exp))
    wall = sum(dur(s) for s in spans if s[1] not in by_id)
    cli = named("cli.main")
    out = {
        "dynamics.propagator_calls": len(prop),
        "dynamics.propagator_busy_s": prop_busy,
        "dynamics.propagator_flops": work("dynamics.segment_propagator", "flops"),
        "dynamics.propagator_share": prop_busy / wall if wall else 0.0,
        "dynamics.evolve_calls": len(evol),
        "dynamics.evolve_self_s": evolve_busy - prop_busy,
        "dynamics.samples_recorded": work("dynamics.evolve", "samples"),
        "dynamics.trace_bytes": work("dynamics.evolve", "bytes"),
        "experiments.self_s": sum(map(self_time, exp)),
        "experiments.worker_util": (evolve_busy / (exp_wall * threads)
                                    if exp_wall else 0.0),
        "cli.self_s": sum(map(dur, cli)) - exp_wall if cli else 0.0,
        "cli.bytes_written": work("cli.main", "bytes"),
    }
    for prefix, lay in (("noise.generate_", "noise"), ("analysis.", "analysis"),
                        ("model.", "model")):
        top = outer(lay)
        out[prefix + "calls"] = len(top)
        out[prefix + "busy_s"] = sum(map(dur, top))
    return out
