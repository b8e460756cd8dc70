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
Re(A @ vec(rho)). The pulses enter as their one composed superoperator. A
is blind to the identity part of rho, which has no coherence to read. One
cached builder per (params, ReadoutConfig), _acquisition_maps, computes
the FID modes once and yields the (4, 16) map of the selective population
readout and the four integrals of run_pipeline's thermal reference, read
after a hard 90 from the closed-form traceless part of the exact thermal
state. No FID is synthesized and no transform is taken to read a state
out; fourier and integrate remain for spectra that are shown.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import asdict, dataclass

import numpy as np

from .channels import _propagator, hard_pulse, selective_pulse
from .states import (
    _BELL_PROJECTORS,
    _OFF_DIAG,
    BellPopulations,
    DensityMatrix,
    IX, IY, IZ, SX, SY, SZ,
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


def _fid_modes(params: SpinSystemParams, n: int, dwell_s: float) -> tuple:
    """The modes (c, e) of synthesize_fid, one row per coherence (a, b)
    that F+ reads: the n samples are the sum over rows r of
    (c @ vec(rho))[r] e[r]. Row r of the (r, 16) c is f_read[a, b]
    vec(outer(V^-1[a], V[:, b])), with f_read = (V^-1 F+ V).T, and row r of
    the (r, n) e is z[a, b]**k for k < n.

    A T2 decay dwell/T2 per dwell that overflows over n dwells raises
    SpectroError: the exponents log(z) k would not be finite."""
    decay = dwell_s / params.t2_s
    if not decay * n < np.inf:
        raise SpectroError(
            f"t2_s = {params.t2_s!r} s is too short for the dwell {dwell_s!r} s: "
            f"the T2 decay over {n} points overflows")
    lam, v = np.linalg.eig(_propagator(dwell_s, params))
    v_inv = np.linalg.inv(v)
    f_read = (v_inv @ F_PLUS @ v).T
    log_z = np.log(np.outer(lam, lam.conj())) - decay
    a, b = np.nonzero(f_read * _OFF_DIAG)
    c = f_read[a, b, None] * (v_inv[a, :, None] * v.T[b, None, :]).reshape(len(a), 16)
    return c, np.exp(log_z[a, b, None] * np.arange(n))


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
    c, e = _fid_modes(params, n, dwell_s)
    return Fid(samples=((c @ rho0.matrix.ravel())[:, None] * e).sum(axis=0),
               dwell_s=dwell_s)


def check_noise_sigma(sigma: float) -> None:
    """Raise SpectroError unless sigma is finite and non-negative."""
    if not 0 <= sigma < np.inf:
        raise SpectroError(f"noise sigma must be finite and non-negative, got {sigma!r}")


def check_seed(seed: int | np.random.SeedSequence) -> None:
    """Raise SpectroError unless seed is a SeedSequence or a non-negative
    integer, the two seeds np.random.default_rng is given here."""
    if not isinstance(seed, np.random.SeedSequence) and _integer("seed", seed) < 0:
        raise SpectroError(f"seed must be a non-negative integer, got {seed!r}")


def add_noise(fid: Fid, sigma: float,
              seed: int | np.random.SeedSequence) -> Fid:
    """Additive complex Gaussian noise, explicitly seeded. A negative or
    non-finite sigma, or a seed that is neither a non-negative integer nor
    a SeedSequence, raises SpectroError."""
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


def _check_axis(n: int, dwell_s: float) -> None:
    """Refuse a dwell whose 2n-point axis, up to n / (2 n dwell_s), overflows."""
    if not n * (1.0 / (2 * n * dwell_s)) < np.inf:
        raise SpectroError(
            f"dwell {dwell_s!r} s is too short: the frequency axis of "
            f"{2 * n} points overflows")


def fourier(fid: Fid, apodize_hz: float = 0.0) -> Spectrum:
    """Discrete transform with first-point halving, x2 zero-fill, and
    2*dwell scaling (line integral == time-domain envelope amplitude).
    apodize_hz adds Lorentzian broadening to every line's FWHM. A dwell so
    short that the frequency axis overflows raises SpectroError."""
    if not _is_pow2(fid.n):
        raise SpectroError(f"transform needs a power-of-two length, got {fid.n}")
    if apodize_hz < 0:
        raise SpectroError("apodization must be non-negative")
    _check_axis(fid.n, fid.dwell_s)
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
        return asdict(self)


def calibrate(ph2_integrals, thermal_integrals, scan_norm: float,
              params: SpinSystemParams,
              max_enhancement: float | None = None) -> CalibrationResult:
    """Polarization from hyperpolarized vs thermal multiplet integrals.

    Signals are summed absolute component integrals. scan_norm rescales for
    unequal averaging between the two acquisitions (1 when both are single
    simulated shots). max_enhancement defaults to 2/B from params; passing
    an externally quoted value reproduces someone else's arithmetic.
    epsilon_err is 0; run_pipeline's bootstrap replaces it. A signal that
    is not finite (an infinite or NaN integral, or a sum that overflows)
    raises SpectroError.
    """
    with np.errstate(over="ignore"):
        sig_ph2 = float(np.abs(np.asarray(ph2_integrals, dtype=float)).sum())
        sig_th = float(np.abs(np.asarray(thermal_integrals, dtype=float)).sum())
    if not (np.isfinite(sig_ph2) and np.isfinite(sig_th)):
        raise SpectroError(
            f"summed integrals must be finite, got {sig_ph2} and {sig_th}")
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


def _integer(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise SpectroError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class ReadoutConfig:
    """Acquisition and processing settings for the population readout."""

    n_points: int = 16384
    dwell_s: float = 1.0 / 4096.0
    j_double_rounds: int = 4
    target_spin: str = "I"

    def __post_init__(self):
        if not _is_pow2(_integer("n_points", self.n_points)):
            raise SpectroError(
                f"n_points must be a power of two >= 2, got {self.n_points}")
        if not 0 < self.dwell_s < np.inf:
            raise SpectroError(f"dwell must be positive and finite, got {self.dwell_s}")
        _check_axis(self.n_points, self.dwell_s)
        if _integer("j_double_rounds", self.j_double_rounds) < 0:
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
    reference, the factors _noisy_integrals takes.

    Re(W W^H) = V V^T exactly, where V = W.view(float) is the (4, 2n) real
    view of the C-contiguous complex W with real and imaginary parts
    interleaved, so each Gram matrix is one real GEMM on W's own buffer:
    no conjugate copy of W, and no imaginary half computed to be dropped."""
    n, dwell_s = readout.n_points, readout.dwell_s
    return tuple(np.linalg.cholesky(v @ v.T)
                 for v in (_doubled_map(params, readout).view(float),
                           _integral_map(component_regions(params), n, dwell_s).view(float)))


def _acquisition_map(params: SpinSystemParams, pairs: tuple, dwell_s: float) -> tuple:
    """One read-only (len(w), 16) complex A per (superop, w) pair of pairs,
    in their order, with Re(A @ vec(rho)) equal to
    Re(w @ synthesize_fid(P, params, n, dwell_s).samples), where vec(P) is
    superop @ vec(rho), the pulses before the acquisition composed into one
    16x16 map, and w is an (m, n) map on the samples; every w has the same n.

    With the modes (c, e) of _fid_modes, built once for all pairs, the
    integrals of P are the sum over r of (w @ e[r]) (c @ vec(P))[r], one
    n-point matvec per mode (a single w @ e.T sums in another order, which
    moves epsilon by rel 1e-12), so A is that sum times superop.

    A is blind to the identity: vec(I) has no read coherence, and only a
    superoperator's rounding (up to 1.5e-16 off the diagonal for a hard
    90) would let the I/4 part of a state leak into the integrals."""
    c, e = _fid_modes(params, pairs[0][1].shape[1], dwell_s)
    vec_i = np.eye(4).ravel()
    maps = []
    for sup, w in pairs:
        out = np.stack([w @ z for z in e], axis=1) @ c @ sup
        out -= np.outer(out @ vec_i, vec_i) / 4
        out.setflags(write=False)
        maps.append(out)
    return tuple(maps)


@functools.lru_cache(maxsize=8)
def _acquisition_maps(params: SpinSystemParams, readout: ReadoutConfig) -> tuple:
    """The read-only (R, y_t) of both acquisitions, from one _acquisition_map
    call and so one set of FID modes: R is the (4, 16) map of the selective
    pulse and the doubled map, y_t the component integrals of the exact
    thermal state after a hard 90 about +y. The last eight stay cached.

    y_t reads only the traceless part (t/2)(Iz + Sz) + t^2 IzSz of the
    thermal state (1 + t 2Iz)(1 + t 2Sz)/4, t = tanh(B/2), which has no
    I/4 for the hard 90's rounding to leak into the integrals."""
    # each pulse, then its sample map, all built before the mode array and
    # held by the pairs alone: so built, the freed maps go back to the
    # system; held by local names, they left 1.1 MB of freed heap resident
    # (peak RSS +1.1 MB on the ensemble benchmark)
    n, dwell_s = readout.n_points, readout.dwell_s
    r, a_t = _acquisition_map(params, (
        (selective_pulse(readout.target_spin, params).superop, _doubled_map(params, readout)),
        (hard_pulse(90.0, 90.0).superop, _integral_map(component_regions(params), n, dwell_s)),
    ), dwell_s)
    t = math.tanh(params.b_factor / 2)
    y_t = (a_t @ ((t / 2) * (IZ + SZ) + t ** 2 * (IZ @ SZ)).ravel()).real
    y_t.setflags(write=False)
    return r, y_t


def readout_integrals(rho: DensityMatrix, params: SpinSystemParams,
                      readout: ReadoutConfig = ReadoutConfig()) -> np.ndarray:
    """The four component_regions integrals of the selective readout of
    rho: selective 90, FID, J-doubling, transform and integration, all
    linear in rho, read as one product Re(R @ vec(rho)) with the cached
    (4, 16) map R of _acquisition_maps. It equals the integrals of
    fourier(j_double(synthesize_fid(...))) to rounding."""
    return (_acquisition_maps(params, readout)[0] @ rho.matrix.ravel()).real


def _readout_matrix(params: SpinSystemParams, readout: ReadoutConfig) -> np.ndarray:
    """Columns are the component integrals of each singlet-triplet basis
    state pushed through the readout: R applied to the Bell projectors."""
    return (_acquisition_maps(params, readout)[0] @ _BELL_PROJECTORS.T).real


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
        return BellPopulations(*p.tolist(), offBell=0.0)
    except StateValidationError as exc:
        raise SpectroError(
            f"component integrals are inconsistent with any Bell-diagonal "
            f"state: {exc}") from exc
