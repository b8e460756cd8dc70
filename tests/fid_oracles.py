"""Synthesized FIDs the tests compare the linear maps of spinpair against.

run_pipeline reads both of its acquisitions through spectro's
(4, 16) maps on vec(rho), and measured_recovery reads its doublet through
a closed form; these builders make the time-domain signals those shortcuts
stand for. The per-coherence loops below are the FID synthesis and the
acquisition map as they were before spectro._fid_modes returned the modes
as arrays; the arithmetic did not change, so they must agree bit for bit.
folded_acquisition_map keeps the channel-by-channel product the
acquisition map took before it took the pulses as one composed
superoperator."""

import numpy as np

from spinpair.channels import _propagator, apply, hard_pulse, selective_pulse
from spinpair.spectro import F_PLUS, Fid, ReadoutConfig, synthesize_fid
from spinpair.states import (
    _OFF_DIAG,
    SpinSystemParams,
    make_pseudo_pure,
    make_singlet,
    make_thermal,
)


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


def _loop_modes(params: SpinSystemParams, dwell_s: float) -> tuple:
    """(v, v_inv, f_read, log_z): the propagator's eigenvectors V and
    V^-1, f_read = (V^-1 F+ V).T and the per-dwell log factors."""
    lam, v = np.linalg.eig(_propagator(dwell_s, params))
    v_inv = np.linalg.inv(v)
    f_read = (v_inv @ F_PLUS @ v).T
    log_z = np.log(np.outer(lam, lam.conj())) - dwell_s / params.t2_s
    return v, v_inv, f_read, log_z


def loop_fid_samples(rho, params: SpinSystemParams, n: int, dwell_s: float) -> np.ndarray:
    """synthesize_fid's samples, one read coherence at a time."""
    v, v_inv, f_read, log_z = _loop_modes(params, dwell_s)
    amp = (v_inv @ rho.matrix @ v) * f_read * _OFF_DIAG
    k = np.arange(n)
    out = np.zeros(n, dtype=complex)
    for a, b in zip(*np.nonzero(amp)):
        out += amp[a, b] * np.exp(log_z[a, b] * k)
    return out


def _loop_read_map(params: SpinSystemParams, w: np.ndarray, dwell_s: float) -> np.ndarray:
    """The (len(w), 16) map of the FID modes read through w, before any
    pulse, one read coherence at a time."""
    v, v_inv, f_read, log_z = _loop_modes(params, dwell_s)
    k = np.arange(w.shape[1])
    out = np.zeros((len(w), 16), dtype=complex)
    for a, b in zip(*np.nonzero(f_read * _OFF_DIAG)):
        out += np.outer(f_read[a, b] * (w @ np.exp(log_z[a, b] * k)),
                        np.outer(v_inv[a], v[:, b]).ravel())
    return out


def _without_identity(out: np.ndarray) -> np.ndarray:
    vec_i = np.eye(4).ravel()
    return out - np.outer(out @ vec_i, vec_i) / 4


def loop_acquisition_map(params: SpinSystemParams, superop: np.ndarray, w: np.ndarray,
                         dwell_s: float) -> np.ndarray:
    """spectro._acquisition_map, one read coherence at a time."""
    return _without_identity(_loop_read_map(params, w, dwell_s) @ superop)


def folded_acquisition_map(params: SpinSystemParams, channels: tuple, w: np.ndarray,
                           dwell_s: float) -> np.ndarray:
    """The acquisition map as it was built before the pulses entered as one
    composed superoperator: each channel's superoperator taken on the
    right, last channel first."""
    out = _loop_read_map(params, w, dwell_s)
    for ch in reversed(channels):
        out = out @ ch.superop
    return _without_identity(out)
