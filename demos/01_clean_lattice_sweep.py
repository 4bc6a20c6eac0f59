#!/usr/bin/env python3
"""Dephasing helps: transport efficiency versus detuning amplitude.

A single excitation is injected at site 6 of the seven-site network and
drained through a 100-guide sink chain attached to site 3. With no
detuning the excitation stays partly trapped by interference; random
segment-wise detuning (our stand-in for environmental dephasing) breaks
that interference and pushes population into the sink — up to a point.
Past the optimum the detuning freezes the excitation in place instead.

Run:  python3 demos/01_clean_lattice_sweep.py [--realizations N]
"""

import argparse

import numpy as np

from fmosim.experiments import SweepConfig, sweep_dephasing


def bar(value, scale=50):
    return "#" * int(round(value * scale))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--realizations", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    for kind in ("uniform_white", "colored"):
        cfg = SweepConfig(noise_kind=kind, realizations=args.realizations,
                          seed=args.seed)
        res = sweep_dephasing(cfg)
        print(f"\n=== {kind} detuning, {args.realizations} realizations, "
              "107 waveguides, z = 20 mm ===")
        print(f"{'amplitude':>10} {'efficiency':>11}  (mean +- std)")
        for g, m, s in zip(res.grid, res.means, res.stds):
            print(f"{g:10.1f} {m:11.4f}  {bar(m)} (+-{s:.3f})")
        print(f"optimal amplitude: {res.argmax_value:g} /mm   "
              f"enhancement over zero noise: "
              f"{res.means.max() - res.means[0]:+.4f}")


if __name__ == "__main__":
    main()
