#!/usr/bin/env python3
"""Static disorder shifts the optimal noise strength upward.

Frozen fabrication disorder (a random positive detuning on every
waveguide, drawn once per realization) localizes the eigenstates; the
stronger the disorder, the more dynamic detuning it takes to undo the
localization. Sweeping the detuning amplitude on log grids shows the
optimum moving to larger amplitudes as the disorder strength grows from
0 to 10 per mm. At 100 per mm the disorder (std ~29 per mm, far beyond
every coupling) localizes the whole array and almost nothing reaches
the sink at any detuning strength.

Run:  python3 demos/02_disordered_lattice.py [--realizations N]
"""

import argparse

from fmosim.experiments import FIGS8_GRIDS, SweepConfig, sweep_dephasing


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--realizations", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    for gamma, grid in FIGS8_GRIDS.items():
        cfg = SweepConfig(grid=grid, disorder=gamma, sink_length=80,
                          realizations=args.realizations, seed=args.seed)
        res = sweep_dephasing(cfg)
        print(f"\n=== disorder strength {gamma:g} /mm (87 waveguides) ===")
        for g, m in zip(res.grid, res.means):
            marker = "  <-- peak" if g == res.argmax_value else ""
            print(f"  amplitude {g:8.3f}: efficiency {m:.4f}{marker}")
        print(f"  optimal detuning amplitude: {res.argmax_value:g} /mm")


if __name__ == "__main__":
    main()
