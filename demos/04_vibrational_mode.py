#!/usr/bin/env python3
"""An eighth waveguide tuned to the lowest eigengap speeds up arrival.

Attaching one auxiliary guide whose coupling matches the lowest gap of
the seven-mode network opens an extra resonant pathway. The effect is an
onset phenomenon: in the first couple of millimetres the extra pathway
delivers light to the sink faster, while over longer distances the
auxiliary guide holds population of its own and the advantage inverts.
The table below shows both windows.

Run:  python3 demos/04_vibrational_mode.py [--realizations N]
"""

import argparse

from fmosim.experiments import FIGS5_GRID, SweepConfig, vibrational_comparison


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--realizations", type=int, default=20)
    args = ap.parse_args()

    cfg = SweepConfig(grid=FIGS5_GRID,
                      realizations=args.realizations, noise_kind="colored")
    pos, with_v, without_v = vibrational_comparison(cfg)
    diff = with_v - without_v
    onset = pos <= 2.0
    window = pos <= 5.0
    print("mean sink-population gain from the auxiliary mode:")
    print(f"{'amplitude':>10} {'z<=2 mm':>10} {'z<=5 mm':>10}")
    for gi, g in enumerate(cfg.grid):
        print(f"{g:10.1f} {diff[gi, onset].mean():+10.4f} "
              f"{diff[gi, window].mean():+10.4f}")
    print("\nassistance is confined to the onset of the evolution: the")
    print("z<=2 column stays positive, the z<=5 column does not.")


if __name__ == "__main__":
    main()
