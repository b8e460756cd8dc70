"""Synthesized FIDs the tests compare the linear maps of spinpair against.

run_pipeline reads both of its acquisitions through spectro's
(4, 16) maps on vec(rho), and measured_recovery reads its doublet through
a closed form; these builders make the time-domain signals those shortcuts
stand for."""

import numpy as np

from spinpair.channels import apply, hard_pulse, selective_pulse
from spinpair.spectro import Fid, ReadoutConfig, synthesize_fid
from spinpair.states import SpinSystemParams, make_pseudo_pure, make_singlet, make_thermal


def polarized_fid(params: SpinSystemParams, epsilon: float,
                  readout: ReadoutConfig = ReadoutConfig()) -> Fid:
    """FID of the pseudo-pure singlet after the selective readout pulse."""
    rho = make_pseudo_pure(epsilon, make_singlet())
    prepared = apply(selective_pulse(readout.target_spin, params), rho)
    return synthesize_fid(prepared, params, readout.n_points, readout.dwell_s)


def thermal_fid(params: SpinSystemParams,
                readout: ReadoutConfig = ReadoutConfig()) -> Fid:
    """FID of the exact thermal state after a hard 90 about +y."""
    rho = apply(hard_pulse(90.0, 90.0), make_thermal(params, mode="exact"))
    return synthesize_fid(rho, params, readout.n_points, readout.dwell_s)


def antiphase_test_fid(j_hz: float, fwhm_hz: float, center_hz: float,
                       n: int = 65536, dwell_s: float = 1.0 / 1024.0) -> Fid:
    """Synthetic single-spin antiphase doublet: i sin(pi J t) modulation on
    a Lorentzian envelope of the given FWHM, line areas +-1/2."""
    t = np.arange(n) * dwell_s
    s = (1j * np.sin(np.pi * j_hz * t)
         * np.exp(2j * np.pi * center_hz * t)
         * np.exp(-np.pi * fwhm_hz * t))
    return Fid(samples=s, dwell_s=dwell_s)
