"""Every ``fmosim reproduce`` figure's tables, pinned under ``tests/golden/``.

Each figure runs in-process at ``--realizations 3 --seed 0``, and every CSV
it writes must equal the committed one byte for byte.  With the environment
variable ``FMOSIM_GOLDEN_RTOL`` set (the numpy-floor CI job, whose FFT,
LAPACK and reduction loops may round differently), a table that differs in
its bytes passes if it has the same text cells and its numbers agree within
that relative tolerance of the table's largest magnitude.

Run this file as a script to regenerate the goldens after a deliberate
output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import csv
import io
import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from fmosim.cli import FIGURE_IDS, main

GOLDEN = Path(__file__).parent / "golden"
REGENERATE = "PYTHONPATH=src python tests/test_golden.py"


def _reproduce(fig: str, out: Path) -> None:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["reproduce", fig, "--realizations", "3", "--seed", "0",
                     "--out", str(out)])
    assert code == 0, f"fmosim reproduce {fig} exited {code}"


def _cells(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _close(got: Path, want: Path, rtol: float) -> bool:
    """Whether two tables have the same shape and text cells, and numbers
    within ``rtol`` of the larger table's largest magnitude."""
    a, b = _cells(got), _cells(want)
    if [len(r) for r in a] != [len(r) for r in b]:
        return False
    pairs = []
    for x, y in zip((c for r in a for c in r), (c for r in b for c in r)):
        fx, fy = _number(x), _number(y)
        if fx is None or fy is None:
            if x != y:
                return False
        else:
            pairs.append((fx, fy))
    x, y = np.array(pairs).reshape(-1, 2).T
    scale = max(np.abs(x).max(initial=0.0), np.abs(y).max(initial=0.0))
    return bool(np.all(np.abs(x - y) <= rtol * scale))


@pytest.mark.parametrize("fig", FIGURE_IDS)
def test_reproduce_matches_golden(fig, tmp_path):
    _reproduce(fig, tmp_path)
    got = sorted(p.name for p in tmp_path.iterdir())
    want = sorted(p.name for p in (GOLDEN / fig).iterdir())
    assert got == want, (f"{fig} wrote {got}, the goldens hold {want}; "
                         f"regenerate with: {REGENERATE}")
    rtol = os.environ.get("FMOSIM_GOLDEN_RTOL")
    for name in got:
        new, old = tmp_path / name, GOLDEN / fig / name
        if new.read_bytes() == old.read_bytes():
            continue
        assert rtol is not None and _close(new, old, float(rtol)), (
            f"{fig}/{name} differs from its golden; if the change is "
            f"deliberate, regenerate with: {REGENERATE}")


if __name__ == "__main__":
    for fig in FIGURE_IDS:
        shutil.rmtree(GOLDEN / fig, ignore_errors=True)
        _reproduce(fig, GOLDEN / fig)
        print(f"wrote {GOLDEN / fig}", file=sys.stderr)
