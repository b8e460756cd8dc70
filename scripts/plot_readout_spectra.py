#!/usr/bin/env python3
"""Render the readout spectra as SVG panels.

Writes four files into --out (default spectra_out/):
  polarized.svg          antiphase multiplets straight from the FID
  polarized_doubled.svg  the same signal after four J-doubling rounds
  thermal.svg            the in-phase thermal reference, tanh(B/2)/2 per spin
  polarized_noisy.svg    one noisy realization for visual comparison

The doubled panel is the one worth staring at: the antiphase components
separate cleanly instead of chewing into each other.
"""

import argparse
from pathlib import Path

from spinpair.channels import apply, hard_pulse, selective_pulse
from spinpair.spectro import (
    ReadoutConfig, add_noise, component_regions, fourier, j_double, synthesize_fid)
from spinpair.states import SpinSystemParams, make_pseudo_pure, make_singlet, make_thermal
from spinpair.svgplot import write_spectrum_svg


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="spectra_out")
    ap.add_argument("--epsilon", type=float, default=0.916)
    ap.add_argument("--noise-sigma", type=float, default=2e-3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    params = SpinSystemParams()
    readout = ReadoutConfig()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    regions = component_regions(params)

    n, dwell_s = readout.n_points, readout.dwell_s
    # the pseudo-pure singlet after the selective readout pulse
    rho_p = apply(selective_pulse(readout.target_spin, params),
                  make_pseudo_pure(args.epsilon, make_singlet()))
    fid_p = synthesize_fid(rho_p, params, n, dwell_s)
    doubled = j_double(fid_p, params.j_hz, readout.j_double_rounds)
    # the exact thermal state after a hard 90 about +y
    rho_t = apply(hard_pulse(90.0, 90.0), make_thermal(params))
    fid_t = synthesize_fid(rho_t, params, n, dwell_s)
    noisy = add_noise(fid_p, args.noise_sigma, args.seed)

    jobs = [
        ("polarized.svg", fid_p, "antiphase readout"),
        ("polarized_doubled.svg", doubled, "after 4 doubling rounds"),
        ("thermal.svg", fid_t, "thermal reference"),
        ("polarized_noisy.svg", noisy, f"noisy, sigma={args.noise_sigma:g}"),
    ]
    for name, fid, title in jobs:
        path = out / name
        write_spectrum_svg(path, fourier(fid), regions, params, title=title)
        print(path)


if __name__ == "__main__":
    main()
