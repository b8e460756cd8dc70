"""FID synthesis, spectra, J-doubling, integration, and calibration.

Signal convention: s(t) = tr(rho(t) (I+ + S+)) under weak-coupling free
evolution, with T2 decay on every coherence. The FID is written in closed
form as a sum of damped exponentials, one per coherence that F+ reads, in
the eigenbasis of the one-dwell propagator (the Zeeman basis for weak
coupling). The transform halves the first point, zero-fills once, and
scales by 2*dwell, which makes the integral of an isolated absorptive line
equal the envelope amplitude of its time-domain component: a unit-area
Lorentzian integrates to 1 over the full axis. Line full-width at half
maximum is 1/(pi*T2) plus any apodization broadening.

Every step of an acquisition (the pulses before it, FID, J-doubling,
transform, integration) is linear in rho, so one builder,
_acquisition_map, folds them into a single complex map A on vec(rho), the
row-major flattening of the density matrix: the integrals are
Re(A @ vec(rho)). A is blind to the identity part of rho, which has no
coherence to read. The selective population readout is the cached (4, 16)
map of _readout_map; the thermal reference of run_pipeline is the same
builder after a hard 90. No FID is synthesized and no transform is taken
to read a state out; fourier and integrate remain for spectra that are
shown.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .channels import _propagator, selective_pulse
from .states import (
    _OFF_DIAG,
    BELL_BASIS,
    BellPopulations,
    DensityMatrix,
    IX, IY, SX, SY,
    SpinSystemParams,
    StateValidationError,
)

F_PLUS = (IX + 1j * IY) + (SX + 1j * SY)


class SpectroError(ValueError):
    pass


def _is_pow2(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Fid:
    """Complex time-domain signal sampled every dwell_s seconds."""

    samples: np.ndarray
    dwell_s: float

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.ndim != 1 or len(s) < 2:
            raise SpectroError("FID needs at least 2 samples in a 1-d array")
        if not self.dwell_s > 0:
            raise SpectroError("dwell must be positive")
        if not np.isfinite(s).all():
            raise SpectroError("FID contains non-finite samples")
        s = np.array(s)
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def times_s(self) -> np.ndarray:
        return np.arange(self.n) * self.dwell_s


@dataclass(frozen=True)
class Spectrum:
    """Frequency axis (rotating-frame offsets, Hz) and complex values;
    the real part is absorptive for data synthesized here."""

    freqs_hz: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.freqs_hz, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        if f.shape != v.shape or f.ndim != 1:
            raise SpectroError("axis and values must be 1-d and the same length")
        if not (np.diff(f) > 0).all():
            raise SpectroError("frequency axis must be strictly increasing")
        f = np.array(f); f.setflags(write=False)
        v = np.array(v); v.setflags(write=False)
        object.__setattr__(self, "freqs_hz", f)
        object.__setattr__(self, "values", v)


def _fid_modes(params: SpinSystemParams, dwell_s: float) -> tuple:
    """(v, v_inv, f_read, log_z) of synthesize_fid: the eigenvectors V of
    the one-dwell propagator and V^-1, f_read = (V^-1 F+ V).T, and
    log_z[a, b] = log(lam_a conj(lam_b)) - dwell/T2, the per-dwell log
    factor of coherence (a, b)."""
    lam, v = np.linalg.eig(_propagator(dwell_s, params))
    v_inv = np.linalg.inv(v)
    f_read = (v_inv @ F_PLUS @ v).T
    log_z = np.log(np.outer(lam, lam.conj())) - dwell_s / params.t2_s
    return v, v_inv, f_read, log_z


def synthesize_fid(rho0: DensityMatrix, params: SpinSystemParams,
                   n: int, dwell_s: float) -> Fid:
    """Weak-coupling FID of rho0 with T2 decay on every coherence.

    In the eigenbasis V of the one-dwell propagator (eigenvalues lam) the
    coherence rho[a, b] picks up z[a, b] = lam_a conj(lam_b) exp(-dwell/T2)
    per dwell, so s_k = sum over a != b of (V^-1 rho V)[a, b]
    (V^-1 F+ V)[b, a] z[a, b]**k. For weak coupling V is the Zeeman basis,
    the basis the T2 decay is defined in, and F+ reads at most four
    coherences. The propagator is free_evolution's, so delta_nu <= J
    raises ChannelError and delta_nu <= 5J warns."""
    if not _is_pow2(n):
        raise SpectroError(f"n must be a power of two >= 2, got {n}")
    v, v_inv, f_read, log_z = _fid_modes(params, dwell_s)
    amp = (v_inv @ rho0.matrix @ v) * f_read * _OFF_DIAG
    k = np.arange(n)
    out = np.zeros(n, dtype=complex)
    for a, b in zip(*np.nonzero(amp)):
        out += amp[a, b] * np.exp(log_z[a, b] * k)
    return Fid(samples=out, dwell_s=dwell_s)


def check_noise_sigma(sigma: float) -> None:
    """Raise SpectroError unless sigma is finite and non-negative."""
    if not 0 <= sigma < np.inf:
        raise SpectroError(f"noise sigma must be finite and non-negative, got {sigma!r}")


def check_seed(seed: int | np.random.SeedSequence) -> None:
    """Raise SpectroError if seed is a negative integer, which
    np.random.default_rng refuses."""
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise SpectroError(f"seed must be a non-negative integer, got {seed!r}")


def add_noise(fid: Fid, sigma: float,
              seed: int | np.random.SeedSequence) -> Fid:
    """Additive complex Gaussian noise, explicitly seeded. A negative or
    non-finite sigma, or a negative integer seed, raises SpectroError."""
    check_noise_sigma(sigma)
    check_seed(seed)
    rng = np.random.default_rng(seed)
    noise = rng.normal(0, sigma, fid.n) + 1j * rng.normal(0, sigma, fid.n)
    return Fid(samples=fid.samples + noise, dwell_s=fid.dwell_s)


def j_double(fid: Fid, j_apparent_hz: float, rounds: int) -> Fid:
    """Each round multiplies by 2cos(pi*J_app*t) and doubles J_app, turning
    an antiphase doublet of splitting J into one of splitting 2J. In-phase
    doublets come out as 1:2:1 triplets instead, so apply this to antiphase
    data only."""
    if rounds < 0:
        raise SpectroError("rounds must be >= 0")
    if not j_apparent_hz > 0:
        raise SpectroError("apparent J must be positive")
    return Fid(samples=fid.samples * _j_modulation(j_apparent_hz, rounds, fid.times_s),
               dwell_s=fid.dwell_s)


def _j_modulation(j_hz: float, rounds: int, t: np.ndarray) -> np.ndarray:
    """The real factor j_double multiplies samples at times t by: the
    product of 2cos(pi * J * 2^r * t) over rounds r."""
    out = np.ones(len(t))
    for r in range(rounds):
        out *= 2 * np.cos(np.pi * (j_hz * 2 ** r) * t)
    return out


def fourier(fid: Fid, apodize_hz: float = 0.0) -> Spectrum:
    """Discrete transform with first-point halving, x2 zero-fill, and
    2*dwell scaling (line integral == time-domain envelope amplitude).
    apodize_hz adds Lorentzian broadening to every line's FWHM."""
    if not _is_pow2(fid.n):
        raise SpectroError(f"transform needs a power-of-two length, got {fid.n}")
    if apodize_hz < 0:
        raise SpectroError("apodization must be non-negative")
    x = np.array(fid.samples)
    if apodize_hz > 0:
        x = x * np.exp(-np.pi * apodize_hz * fid.times_s)
    x[0] *= 0.5
    x = np.concatenate([x, np.zeros(fid.n, dtype=complex)])
    values = 2 * fid.dwell_s * np.fft.fft(x)
    freqs = np.fft.fftfreq(2 * fid.n, fid.dwell_s)
    return Spectrum(freqs_hz=np.fft.fftshift(freqs), values=np.fft.fftshift(values))


def _trapezoid_weights(freqs_hz: np.ndarray, lo_hz: float, hi_hz: float) -> np.ndarray:
    """Weights w over the axis with integrate(spectrum, lo, hi) equal to
    w @ spectrum.values.real: the trapezoid rule on the points in [lo, hi],
    all zero when fewer than 2 points fall inside."""
    if not lo_hz < hi_hz:
        raise SpectroError(f"need lo < hi, got [{lo_hz}, {hi_hz}]")
    if lo_hz < freqs_hz[0] or hi_hz > freqs_hz[-1]:
        raise SpectroError(
            f"region [{lo_hz}, {hi_hz}] outside axis [{freqs_hz[0]}, {freqs_hz[-1]}]")
    idx = np.flatnonzero((freqs_hz >= lo_hz) & (freqs_hz <= hi_hz))
    half = np.diff(freqs_hz[idx]) / 2
    w = np.zeros(len(freqs_hz))
    w[idx[:-1]] += half
    w[idx[1:]] += half
    return w


def integrate(spectrum: Spectrum, lo_hz: float, hi_hz: float) -> float:
    """Trapezoidal integral of the real part over [lo, hi]."""
    return float(_trapezoid_weights(spectrum.freqs_hz, lo_hz, hi_hz)
                 @ spectrum.values.real)


def component_regions(params: SpinSystemParams) -> tuple:
    """Four wide integration windows, one per multiplet component: each
    doublet at -+delta_nu/2 is split at its center, windows a quarter of
    delta_nu wide. Wide windows keep Lorentzian tail truncation negligible
    for both original and J-doubled splittings."""
    span = params.delta_nu_hz / 4
    out = []
    for center in (-params.delta_nu_hz / 2, +params.delta_nu_hz / 2):
        out.append((center - span, center))
        out.append((center, center + span))
    return tuple(out)


def component_integrals(spectrum: Spectrum, params: SpinSystemParams) -> np.ndarray:
    """Integrals over the four component_regions, in their order."""
    return np.array([integrate(spectrum, lo, hi) for lo, hi in component_regions(params)])


@functools.lru_cache(maxsize=2)
def _integral_map(regions: tuple, n: int, dwell_s: float) -> np.ndarray:
    """Read-only (len(regions), n) complex W with Re(W @ fid.samples) equal
    to the integrals of fourier(fid) over regions, in their order, for
    every n-point fid sampled at dwell_s; regions is a tuple of (lo, hi)
    pairs in Hz. The last two maps built stay cached.

    Each row is the transform of that region's trapezoid weights, read back
    onto the samples: the zero fill drops out, and the first-point halving
    and the 2*dwell scale fold into W. The ascending axis is fftfreq's own
    arithmetic, so it equals fourier's axis bit for bit."""
    freqs = np.arange(-n, n) * (1.0 / (2 * n * dwell_s))
    w = np.array([np.fft.ifftshift(_trapezoid_weights(freqs, lo, hi))
                  for lo, hi in regions])
    out = 2 * dwell_s * np.fft.rfft(w)[:, :n]
    out[:, 0] *= 0.5
    out.setflags(write=False)
    return out


def _noisy_integrals(y: np.ndarray, lo: np.ndarray, sigma: float,
                     z: np.ndarray) -> np.ndarray:
    """Draws of Re(W @ (fid + noise)) for the noise add_noise adds, given
    the noise-free y = Re(W @ fid.samples), the Cholesky factor L of
    Re(W W^H) (see _noise_factors) and standard normals z of shape
    (..., len(W)).

    With independent N(0, sigma^2) real and imaginary parts per sample,
    Re(W @ noise) is Gaussian with covariance sigma^2 Re(W W^H) = sigma^2
    L L^T, so y + sigma * z @ L.T has exactly the law of the integrals of
    the noisy FID, with len(W) normals per draw instead of 2n."""
    return y + sigma * z @ lo.T


@dataclass(frozen=True)
class CalibrationResult:
    """Polarization estimate and its inputs. corrected_ratio is exactly
    raw_ratio * f_active; epsilon = corrected_ratio / max_enhancement."""

    epsilon: float
    epsilon_err: float
    raw_ratio: float
    corrected_ratio: float
    max_enhancement: float

    def __post_init__(self):
        if not (-1e-9 <= self.epsilon <= 1.05):
            raise SpectroError(
                f"epsilon {self.epsilon:.4f} outside [0, 1] beyond tolerance")

    def as_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "epsilon_err": self.epsilon_err,
            "raw_ratio": self.raw_ratio,
            "corrected_ratio": self.corrected_ratio,
            "max_enhancement": self.max_enhancement,
        }


def calibrate(ph2_integrals, thermal_integrals, scan_norm: float,
              params: SpinSystemParams,
              max_enhancement: float | None = None) -> CalibrationResult:
    """Polarization from hyperpolarized vs thermal multiplet integrals.

    Signals are summed absolute component integrals. scan_norm rescales for
    unequal averaging between the two acquisitions (1 when both are single
    simulated shots). max_enhancement defaults to 2/B from params; passing
    an externally quoted value reproduces someone else's arithmetic.
    epsilon_err is 0; run_pipeline's bootstrap replaces it.
    """
    sig_ph2 = float(np.abs(np.asarray(ph2_integrals, dtype=float)).sum())
    sig_th = float(np.abs(np.asarray(thermal_integrals, dtype=float)).sum())
    if sig_th <= 0:
        raise SpectroError("thermal integrals must not be all zero")
    if not scan_norm > 0:
        raise SpectroError("scan_norm must be positive")
    raw = sig_ph2 * scan_norm / sig_th
    corrected = raw * params.f_active
    max_enh = 2.0 / params.b_factor if max_enhancement is None else max_enhancement
    if not max_enh > 0:
        raise SpectroError("max_enhancement must be positive")
    return CalibrationResult(
        epsilon=corrected / max_enh,
        epsilon_err=0.0,
        raw_ratio=raw,
        corrected_ratio=corrected,
        max_enhancement=max_enh,
    )


@dataclass(frozen=True)
class ReadoutConfig:
    """Acquisition and processing settings for the population readout."""

    n_points: int = 16384
    dwell_s: float = 1.0 / 4096.0
    j_double_rounds: int = 4
    target_spin: str = "I"

    def __post_init__(self):
        if not _is_pow2(self.n_points):
            raise SpectroError(
                f"n_points must be a power of two >= 2, got {self.n_points}")
        if not self.dwell_s > 0:
            raise SpectroError(f"dwell must be positive, got {self.dwell_s}")
        if self.j_double_rounds < 0:
            raise SpectroError(
                f"j_double_rounds must be >= 0, got {self.j_double_rounds}")
        if self.target_spin not in ("I", "S"):
            raise SpectroError(
                f"target_spin must be 'I' or 'S', got {self.target_spin!r}")


@functools.lru_cache(maxsize=2)
def _readout_modulation(j_hz: float, rounds: int, n: int, dwell_s: float) -> np.ndarray:
    """Read-only _j_modulation on the n sample times of the readout."""
    out = _j_modulation(j_hz, rounds, np.arange(n) * dwell_s)
    out.setflags(write=False)
    return out


def _doubled_map(params: SpinSystemParams, readout: ReadoutConfig) -> np.ndarray:
    """(4, n) complex W_p with Re(W_p @ fid.samples) equal to the
    component_integrals of fourier(j_double(fid, J, rounds)) for every
    n-point readout fid: the component _integral_map times the doubling
    modulation."""
    n, dwell_s = readout.n_points, readout.dwell_s
    return (_integral_map(component_regions(params), n, dwell_s)
            * _readout_modulation(params.j_hz, readout.j_double_rounds, n, dwell_s))


def _noise_factors(params: SpinSystemParams, readout: ReadoutConfig) -> tuple:
    """Cholesky factors (L_p, L_t) of Re(W W^H) for the doubled map W_p of
    the selective readout and the component map W_t of the thermal
    reference, the factors _noisy_integrals takes."""
    n, dwell_s = readout.n_points, readout.dwell_s
    return tuple(np.linalg.cholesky((w @ w.conj().T).real)
                 for w in (_doubled_map(params, readout),
                           _integral_map(component_regions(params), n, dwell_s)))


def _acquisition_map(params: SpinSystemParams, channels: tuple, w: np.ndarray,
                     dwell_s: float) -> np.ndarray:
    """Read-only (len(w), 16) complex A with Re(A @ vec(rho)) equal to
    Re(w @ synthesize_fid(P, params, n, dwell_s).samples), where P is rho
    after the channels, first channel first, and w is an (m, n) map on the
    samples.

    P enters the FID through the read coherences (a, b) of synthesize_fid,
    each as f_read[a, b] (V^-1 P V)[a, b] z_ab^k, so its integrals are the
    sum over (a, b) of f_read[a, b] (w @ z_ab^k) (V^-1 P V)[a, b], one
    n-point exponential at a time. vec(P) is the channels' superoperators
    applied to vec(rho), so A takes them on the right in reverse order.

    A is blind to the identity: vec(I) has no read coherence, and only a
    superoperator's rounding (up to 1.5e-16 off the diagonal for a hard
    90) would let the I/4 part of a state leak into the integrals."""
    v, v_inv, f_read, log_z = _fid_modes(params, dwell_s)
    k = np.arange(w.shape[1])
    out = np.zeros((len(w), 16), dtype=complex)
    for a, b in zip(*np.nonzero(f_read * _OFF_DIAG)):
        # (V^-1 P V)[a, b] = sum over (i, j) of v_inv[a, i] P[i, j] v[j, b]
        out += np.outer(f_read[a, b] * (w @ np.exp(log_z[a, b] * k)),
                        np.outer(v_inv[a], v[:, b]).ravel())
    for ch in reversed(channels):
        out = out @ ch.superop
    vec_i = np.eye(4).ravel()
    out -= np.outer(out @ vec_i, vec_i) / 4
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=8)
def _readout_map(params: SpinSystemParams, readout: ReadoutConfig) -> np.ndarray:
    """Read-only (4, 16) complex R with readout_integrals(rho) equal to
    Re(R @ rho.matrix.ravel()): the _acquisition_map of the selective
    pulse and the doubled map. The last eight maps built stay cached."""
    return _acquisition_map(params, selective_pulse(readout.target_spin, params).channels,
                            _doubled_map(params, readout), readout.dwell_s)


def readout_integrals(rho: DensityMatrix, params: SpinSystemParams,
                      readout: ReadoutConfig = ReadoutConfig()) -> np.ndarray:
    """The four component_regions integrals of the selective readout of
    rho: selective 90, FID, J-doubling, transform and integration, all
    linear in rho, read as one product Re(R @ vec(rho)) with the cached
    (4, 16) map of _readout_map. It equals the integrals of
    fourier(j_double(synthesize_fid(...))) to rounding."""
    return (_readout_map(params, readout) @ rho.matrix.ravel()).real


# vec of the Bell projectors |b_k><b_k|, one per column
_BELL_PROJECTORS = np.einsum("ik,jk->ijk", BELL_BASIS, BELL_BASIS.conj()).reshape(16, 4)


def _readout_matrix(params: SpinSystemParams, readout: ReadoutConfig) -> np.ndarray:
    """Columns are the component integrals of each singlet-triplet basis
    state pushed through the readout: R applied to the Bell projectors."""
    return (_readout_map(params, readout) @ _BELL_PROJECTORS).real


# orthonormal basis of the sum-zero subspace of R^4; any population vector
# is p = (1/4,1/4,1/4,1/4) + N q, which bakes the unit-trace constraint
# into the inversion below
_SUM_ZERO_BASIS = np.linalg.qr(
    np.array([[1.0, 0, 0], [-1, 1, 0], [0, -1, 1], [0, 0, -1]]))[0]


def imbalance_to_populations(component_integrals, params: SpinSystemParams,
                             readout: ReadoutConfig = ReadoutConfig()) -> BellPopulations:
    """Invert the linear map from singlet-triplet populations to the four
    component integrals of the selective readout.

    Any trace-preserving readout is blind to the maximally mixed state, so
    the bare 4x4 map is rank 3; the inversion solves on the physical slice
    of unit-trace population vectors, where the map is well conditioned.
    A readout whose antiphase terms never develop (J effectively zero)
    leaves the slice map rank deficient and raises.
    """
    y = np.asarray(component_integrals, dtype=float)
    if y.shape != (4,):
        raise SpectroError("expected exactly four component integrals")
    m = _readout_matrix(params, readout)
    reduced = m @ _SUM_ZERO_BASIS
    svals = np.linalg.svd(reduced, compute_uv=False)
    if svals[0] == 0 or svals[-1] < 1e-8 * svals[0]:
        raise SpectroError(
            "degenerate readout: population differences do not reach the "
            "component integrals (is J resolvable?)")
    p0 = np.full(4, 0.25)
    q, *_ = np.linalg.lstsq(reduced, y - m @ p0, rcond=None)
    p = p0 + _SUM_ZERO_BASIS @ q
    try:
        return BellPopulations(pS=float(p[0]), pT0=float(p[1]),
                               pTplus=float(p[2]), pTminus=float(p[3]),
                               offBell=0.0)
    except StateValidationError as exc:
        raise SpectroError(
            f"component integrals are inconsistent with any Bell-diagonal "
            f"state: {exc}") from exc
