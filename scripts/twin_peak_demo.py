#!/usr/bin/env python3
"""Twin-peak output spectrum with its components, on the si-figure preset.

Writes spectrum CSVs into ./out_twin_peak and prints the peak bookkeeping
(single-Lorentzian values, finite-separation corrections, integrated
asymmetry). Run from the repository root:

    python scripts/twin_peak_demo.py
"""

from pathlib import Path

import numpy as np

from sideband_lab.dataio import write_components_csv
from sideband_lab.model import TWO_PI
from sideband_lab.multitone import (
    averaged_occupation,
    full_rwa_spectrum,
    multitone_spectra,
    peak_ratio_correction,
    sideband_weights,
)
from sideband_lab.presets import preset
from sideband_lab.scattering import noise_floor


def main() -> None:
    params, baths, config = preset("si-figure")
    out = Path("out_twin_peak")
    out.mkdir(exist_ok=True)

    delta = config.delta(params)
    grid = np.linspace(-4.0 * delta, 4.0 * delta, 4001)
    write_components_csv(out / "full_rwa.csv", full_rwa_spectrum(params, baths, config, grid))

    gamma_tot = config.gamma_tot(params)
    local = np.linspace(-25.0, 25.0, 2001) * gamma_tot
    write_components_csv(out / "single_lorentzians.csv",
                         multitone_spectra(params, baths, config, "symmetrized", local))

    n_bar = averaged_occupation(params, baths, config)
    n_eff = baths.n_eff(params)
    w_anti, w_stokes = sideband_weights(params, baths, config)
    print(f"gamma_tot/2pi = {gamma_tot / TWO_PI:.1f} Hz, n_bar = {n_bar:.2f}, "
          f"n_eff = {n_eff:.3f}")
    print(f"floor = {noise_floor(params, baths):.4f} quanta")
    print(f"weights: anti-Stokes {w_anti:.4g}, Stokes {w_stokes:.4g} rad/s")
    print(f"integrated asymmetry = {w_stokes - w_anti:.4g}")
    for side in ("anti_stokes", "stokes"):
        corr = peak_ratio_correction(params, baths, config, side)
        print(f"finite-separation correction ({side}): {corr - 1.0:+.3e}")
    print(f"wrote {out}/full_rwa.csv and {out}/single_lorentzians.csv")


if __name__ == "__main__":
    main()
