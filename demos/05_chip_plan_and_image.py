#!/usr/bin/env python3
"""From model to fabrication plan, and from camera image to efficiency.

Part 1 converts the seven-mode Hamiltonian into waveguide spacings (via
the exponential coupling-vs-distance calibration) and converts one
detuning realization into writing-speed modulations — the two numbers a
laser-writing setup needs.

Part 2 goes the other way: given an output-facet intensity image, sum
the pixels inside an elliptical network region and a rectangular sink
region and report the fraction delivered to the sink.

Run:  python3 demos/05_chip_plan_and_image.py
"""

import numpy as np

from fmosim.analysis import (EllipseMask, RectMask,
                             efficiency_from_intensity_image)
from fmosim.model import (FmoSpec, build_fmo_hamiltonian, export_chip_plan,
                          lowest_eigengap)
from fmosim.noise import NoiseConfig, generate


def main():
    h = build_fmo_hamiltonian(FmoSpec(include_weak_couplings=False))
    det = generate(NoiseConfig(kind="colored", amplitude=0.5, seed=7))
    rows = export_chip_plan(h, det)
    spacings = [r for r in rows if r.record_type == "spacing"]
    speeds = [r.value for r in rows if r.record_type == "speed"]
    print("=== fabrication plan (strong couplings only) ===")
    for r in spacings:
        print(f"  guides {r.site_a}-{r.site_b}: spacing {r.value:.3f} um")
    print(f"  speed modulation rows: {len(speeds)}, "
          f"max detuning speed {max(speeds):.3f} mm/s")
    print(f"  lowest eigengap of the full network: "
          f"{lowest_eigengap(build_fmo_hamiltonian(FmoSpec())):.4f} /mm")

    print("\n=== efficiency from a synthetic output image ===")
    img = np.zeros((40, 60))
    img[18:23, 8:13] = 1.2     # light left in the network region
    img[10:20, 40:50] = 0.7    # light delivered to the sink region
    eta = efficiency_from_intensity_image(
        img, EllipseMask(10, 20, 6, 6), RectMask(40, 10, 10, 10))
    print(f"  network sum {img[18:23, 8:13].sum():.1f}, "
          f"sink sum {img[10:20, 40:50].sum():.1f} "
          f"-> efficiency {eta:.4f}")


if __name__ == "__main__":
    main()
