"""Self-test of the benchmark, at reduced study sizes (about a minute).

    python3 bench/selftest.py

Checks that every workload run.py offers, untraced and traced, prints every
metric that BENCHMARK.json names with its unit and passes its reference
check; that a corrupted reference makes the studies fail (failed_frac > 0),
as do missing outputs or outputs of the wrong shape; and that the benchmark
refuses to run, without printing a result, in a directory that holds only
BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402

SCRATCH = HERE / "out" / "selftest"

failures = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def bench(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "0", "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return lines, (json.loads(lines[-1]) if lines else None)


def check_metrics(workload, trace, spec):
    proc = bench(workload, trace)
    lines, res = result_of(proc)
    tag = f"{workload} trace={trace}"
    check(proc.returncode == 0 and res is not None, f"{tag}: exits 0 with a result")
    if res is None:
        return
    check(set(res) == {"correct", "attempted", "failed", "metrics"},
          f"{tag}: result has exactly correct/attempted/failed/metrics")
    expected = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    check(got == expected, f"{tag}: metric names and units match BENCHMARK.json")
    printed = all(any(line.split()[:1] == [name] and unit in line.split()
                      for line in lines[:-1]) for name, unit in expected.items())
    check(printed, f"{tag}: every metric printed by name with its unit")
    check(any(line.startswith("failed_frac ") for line in lines),
          f"{tag}: failed_frac printed")
    check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 2,
          f"{tag}: every study matches the reference")


def check_wrong_shapes() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import studies

    ref = studies.load_reference(studies.reference_path("sweep_clean", True))
    short = {"means": ref["means"][0][:-1], "argmax": ref["argmax"][0]}
    check(studies.mismatches(short, ref, 0) == ["means", "argmax"],
          "means of the wrong length fail the means and argmax checks")
    check(studies.mismatches({}, ref, 0) == ["means", "argmax"],
          "missing outputs fail the check")


def copy_benchmark(dest: Path, spec: dict) -> None:
    """Copy BENCHMARK.json and the benchmark's own files to ``dest``."""
    for rel in spec["paths"]:
        shutil.copytree(ROOT / rel, dest / rel,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)


def corrupt_references(directory: Path) -> None:
    """Shift one stored output of every tiny reference in ``directory``."""
    for path in directory.glob("*-tiny.npz"):
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        key = next(k for k in arrays if k not in ("positions", "argmax"))
        arrays[key] = arrays[key] + 1e-3
        np.savez(path, **arrays)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    shutil.rmtree(SCRATCH, ignore_errors=True)

    # a copy of the benchmark whose references are corrupted, run on the
    # real source tree
    corrupt = SCRATCH / "corrupt"
    copy_benchmark(corrupt, spec)
    (corrupt / "src").symlink_to(ROOT / "src", target_is_directory=True)
    corrupt_references(corrupt / "bench" / "reference")

    check_wrong_shapes()
    for workload in WORKLOADS:
        check_metrics(workload, 0, spec["end_to_end"])
        check_metrics(workload, 1, spec["per_layer"])

        proc = bench(workload, 0, cwd=corrupt)
        lines, res = result_of(proc)
        frac = next((float(line.split()[1]) for line in lines
                     if line.startswith("failed_frac ")), 0.0)
        check(res is not None and res["failed"] > 0 and not res["correct"]
              and frac > 0, f"{workload}: corrupted reference gives failed_frac > 0")

    bare = SCRATCH / "bare"
    copy_benchmark(bare, spec)
    proc = bench(spec["workloads"][0]["name"], 0, cwd=bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the source tree: nonzero exit, no result")
    shutil.rmtree(SCRATCH, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
