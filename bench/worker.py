"""One benchmark process: import fmosim, run a discarded warm-up study, then
run studies back to back (closed loop) for a time budget.

Started by run.py with a cleaned environment.  Prints ``ready`` once the
warm-up study has returned, so the parent can time set-up from process
start, and then one JSON line with every study's wall time, the
reference-check counts and the process's peak resident memory.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import studies
import tracing


def study_order(workload_seed: int, pool: int, index: int, workers: int):
    """Reference seeds in the order worker ``index`` runs them.

    The workload seed fixes a permutation of the pool; each worker starts
    at its own offset and goes once round the pool, so no seed repeats
    within a process.
    """
    order = np.random.default_rng(workload_seed).permutation(pool)
    start = index * pool // workers
    return [int(order[(start + k) % pool]) for k in range(pool)]


def blas_info() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without dict-mode show_config
        return "unknown"
    config = blas.get("openblas configuration", "")
    return f"{blas.get('name')} {blas.get('version')} {config}".strip()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(studies.STUDIES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--budget", type=float, required=True,
                   help="seconds of timed studies after the warm-up")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--scratch", type=Path, required=True)
    args = p.parse_args(argv)

    study = studies.STUDIES[args.workload](args.tiny)
    reference = studies.load_reference(
        studies.reference_path(args.workload, args.tiny))
    seeds = iter(study_order(args.seed, study.pool, args.index, args.workers))
    tracer = tracing.Tracer() if args.trace else None
    attempted = failed = 0

    def run_one(traced: bool) -> float:
        """Run and check one study; return its wall time.  An exception,
        in the study or in its check, counts as a failed study."""
        nonlocal attempted, failed
        seed = next(seeds)
        attempted += 1
        if traced:
            tracer.study = attempted
            tracer.install()
        t0 = time.perf_counter()
        try:
            outputs = study.run(seed, args.scratch)
        except Exception:
            traceback.print_exc()
            outputs = None
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        try:
            # names of the outputs that differ from the reference
            bad = (["the study raised"] if outputs is None
                   else studies.mismatches(outputs, reference, seed))
        except Exception:
            traceback.print_exc()
            bad = ["the check raised"]
        if bad:
            failed += 1
            print(f"{args.workload} seed {seed} failed: {', '.join(bad)}",
                  file=sys.stderr)
        return wall

    run_one(False)
    print("ready", flush=True)

    # Alternate untraced and traced studies in a traced run, so the two
    # sets see the same conditions and their ratio is the tracing cost.
    records = []
    minimum = 2 if args.trace else 1
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(records) % 2 == 1
        wall = run_one(traced)
        records.append({"wall": wall, "traced": traced, "study": attempted})
        elapsed = time.perf_counter() - start
        # stop when the next study would most likely end past the budget,
        # or when every pool seed has been used once in this process
        if len(records) >= minimum and (elapsed + 0.5 * wall > args.budget
                                        or attempted == study.pool):
            break

    if tracer is not None:
        per_study = {}
        for span in tracer.spans:
            per_study.setdefault(span[2], []).append(span)
        for rec in records:
            if rec["traced"]:
                rec["layers"] = tracing.layer_metrics(
                    per_study.get(rec["study"], []), study.threads)
        tracer.write(args.scratch / f"spans-{args.workload}-{args.index}.jsonl")

    print(json.dumps({
        "studies": records,
        "attempted": attempted,
        "failed": failed,
        "pool_used_up": attempted == study.pool,
        "realizations": study.realizations,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
