"""Regenerate the stored reference outputs of the benchmark studies.

The references pin the outputs of the commit that defined the benchmark;
regenerate them only when a change is meant to alter study results, and say
so in that change.  Usage, from the repository root:

    PYTHONPATH=src python3 bench/make_reference.py [--tiny] [workload ...]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import studies  # noqa: E402


def build(name: str, tiny: bool, scratch: Path) -> Path:
    study = studies.STUDIES[name](tiny)
    runs = []
    for seed in range(study.pool):
        t0 = time.perf_counter()
        runs.append(study.run(seed, scratch))
        print(f"{name} seed {seed}: {time.perf_counter() - t0:.2f} s",
              file=sys.stderr, flush=True)
    arrays = {key: (runs[0][key] if key == "positions"
                    else np.stack([r[key] for r in runs]))
              for key in runs[0]}
    path = studies.reference_path(name, tiny)
    path.parent.mkdir(exist_ok=True)
    np.savez_compressed(path, **arrays)
    return path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workloads", nargs="*", default=list(studies.STUDIES))
    p.add_argument("--tiny", action="store_true",
                   help="write the self-test's reduced-size references")
    args = p.parse_args(argv)
    scratch = HERE / "out"
    scratch.mkdir(exist_ok=True)
    for name in args.workloads:
        print(build(name, args.tiny, scratch))
    return 0


if __name__ == "__main__":
    sys.exit(main())
