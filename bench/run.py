"""fmosim benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload vib_traces --seed 0 --seconds 40 --trace 0

Runs the workload in WORKERS fresh processes one after another, each with
the thread-count variables OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and
MKL_NUM_THREADS removed, so the library defaults users get are measured.
Each process imports fmosim from ``src/``, runs one discarded warm-up study
and then studies back to back for its share of ``--seconds``.  Every study
is checked against the stored reference.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
the per-layer metrics from spans around the calls into each fmosim module.
Human-readable lines come first; the last line is one JSON object with the
keys correct, attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("sweep_clean", "sweep_disorder_cli", "vib_traces", "reorg_noise")

#: Fresh processes per run; set-up time is the median over them.
WORKERS = 3
#: Fresh-process imports of fmosim.noise timed in a traced run.
IMPORT_PROBES = 3
#: Wall-clock limit on a whole run, so a run ends within 180 s.
RUN_TIMEOUT_S = 170

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (("realizations_per_s", "1/s"), ("study_s_p50", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"), ("pass_frac", "frac"))

PER_LAYER = (
    ("dynamics.propagator_calls", "count"),
    ("dynamics.propagator_busy_s", "s"),
    ("dynamics.propagator_flops", "flop"),
    ("dynamics.propagator_share", "frac"),
    ("dynamics.evolve_calls", "count"),
    ("dynamics.evolve_self_s", "s"),
    ("dynamics.samples_recorded", "count"),
    ("dynamics.trace_bytes", "B"),
    ("noise.generate_calls", "count"),
    ("noise.generate_busy_s", "s"),
    ("noise.import_s", "s"),
    ("analysis.calls", "count"),
    ("analysis.busy_s", "s"),
    ("model.calls", "count"),
    ("model.busy_s", "s"),
    ("experiments.self_s", "s"),
    ("experiments.worker_util", "frac"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "B"),
    ("trace.overhead_frac", "frac"),
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fmosim").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_worker(args, index: int, workers: int, budget: float, scratch: Path,
               deadline: float):
    """Run one worker process; return (set-up seconds, its JSON report)."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--index", str(index), "--workers", str(workers),
           "--budget", repr(budget), "--trace", str(args.trace),
           "--scratch", str(scratch)]
    if args.tiny:
        cmd.append("--tiny")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE,
                            cwd=ROOT)
    try:
        ready_at, out = read_output(proc, deadline)
        proc.wait(timeout=max(deadline - time.perf_counter(), 0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"run exceeded {RUN_TIMEOUT_S} s") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = out.splitlines()
    if not lines or lines[0] != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {index} failed (exit code {proc.returncode})")
    return ready_at - t0, json.loads(lines[-1])


def read_output(proc, deadline: float):
    """Read a worker's stdout to the end; return (when its first line
    arrived, the text).  Raises TimeoutExpired past the deadline."""
    fd = proc.stdout.fileno()
    data = b""
    ready_at = None
    while True:
        left = deadline - time.perf_counter()
        if left <= 0:
            raise subprocess.TimeoutExpired(proc.args, RUN_TIMEOUT_S)
        if not select.select([fd], [], [], left)[0]:
            continue
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return ready_at, data.decode()
        data += chunk
        if ready_at is None and b"\n" in data:
            ready_at = time.perf_counter()


def import_probe(deadline: float) -> float:
    code = ("import time; t = time.perf_counter(); import fmosim.noise; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                         capture_output=True, text=True, cwd=ROOT,
                         timeout=max(deadline - time.perf_counter(), 0))
    if out.returncode != 0:
        raise BenchError(f"importing fmosim.noise failed: {out.stderr.strip()}")
    return float(out.stdout)


def end_to_end(setups, reports, attempted: int, failed: int) -> dict:
    timed = [s["wall"] for r in reports for s in r["studies"] if not s["traced"]]
    realizations = reports[0]["realizations"]
    return {
        "realizations_per_s": statistics.median(realizations / w for w in timed),
        "study_s_p50": statistics.median(timed),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in reports) / 1024,
        "pass_frac": (attempted - failed) / attempted,
    }


def per_layer(reports, deadline: float) -> dict:
    traced = [s for r in reports for s in r["studies"] if s["traced"]]
    plain = [s["wall"] for r in reports for s in r["studies"] if not s["traced"]]
    out = {name: statistics.median(s["layers"][name] for s in traced)
           for name in traced[0]["layers"]}
    out["noise.import_s"] = statistics.median(
        import_probe(deadline) for _ in range(IMPORT_PROBES))
    out["trace.overhead_frac"] = (statistics.median(s["wall"] for s in traced)
                                  / statistics.median(plain) - 1.0)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="seconds of timed studies, shared by the processes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="reduced study sizes, one process, for the self-test")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not (SRC / "fmosim" / "__init__.py").is_file():
        print(f"error: no fmosim package under {SRC}", file=sys.stderr)
        return 2

    scratch = HERE / "out"
    scratch.mkdir(exist_ok=True)
    workers = 1 if args.tiny else WORKERS
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    try:
        results = [run_worker(args, i, workers, args.seconds / workers, scratch,
                              deadline)
                   for i in range(workers)]
        setups = [s for s, _ in results]
        reports = [r for _, r in results]
        attempted = sum(r["attempted"] for r in reports)
        failed = sum(r["failed"] for r in reports)
        metrics, units = (
            (per_layer(reports, deadline), PER_LAYER) if args.trace
            else (end_to_end(setups, reports, attempted, failed), END_TO_END))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    timed = sum(not s["traced"] for r in reports for s in r["studies"])
    env = reports[0]
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}{' tiny' if args.tiny else ''}")
    print(f"# nproc {len(os.sched_getaffinity(0))} python {platform.python_version()} "
          f"numpy {env['numpy']} scipy {env['scipy']} commit {git_commit()} "
          f"src {source_digest()}")
    print(f"# blas {env['blas']}")
    used_up = sum(r["pool_used_up"] for r in reports)
    if used_up:
        print(f"# {used_up} of {workers} processes ran every reference seed once "
              f"and stopped before their share of --seconds")
    notes = {"study_s_p50": f"(n={timed} studies)",
             "setup_s": f"(n={workers} processes)",
             "realizations_per_s": f"({env['realizations']} per study)"}
    for name, unit in units:
        print(f"{name:<28} {metrics[name]:<14.6g} {unit:<6} {notes.get(name, '')}")
    print(f"{'failed_frac':<28} {failed / attempted:<14.6g} {'frac':<6} "
          f"({failed} of {attempted} studies)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
