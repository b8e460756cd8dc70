"""FID synthesis, spectra, J-doubling, integration, and calibration.

Signal convention: s(t) = tr(rho(t) (I+ + S+)) under weak-coupling free
evolution, with T2 decay on every coherence. The FID is written in closed
form as a sum of damped exponentials, one per coherence that F+ reads:
weak-coupling evolution is diagonal in the Zeeman basis, so each coherence
turns by a phase read off the diagonal of the one-dwell propagator, its
n powers multiplied out of two sqrt(n)-point tables (_power_tables). The
transform halves the first point, zero-fills once, and scales by 2*dwell,
which makes the integral of an isolated absorptive line equal the envelope
amplitude of its time-domain component: a unit-area Lorentzian integrates
to 1 over the full axis. Line FWHM is 1/(pi*T2) plus any apodization.

Every step of an acquisition (the pulses before it, FID, J-doubling,
transform, integration) is linear in rho, so one builder,
_acquisition_map, folds them into a single complex map A on vec(rho), the
row-major flattening of the density matrix: the integrals are
Re(A @ vec(rho)). The pulses enter as their one composed superoperator. A
is blind to the identity part of rho, which has no coherence to read. One
cached readout_model per (params, ReadoutConfig) computes the FID modes
once and returns its Readout: the (4, 16) map of the selective population
readout, its population inverse, the thermal reference's integrals (a
hard 90 on the exact thermal state's closed-form traceless part), and the
component map and doubling modulation that the bootstrap's noise law
reads from it. Neither reading a state out nor building its maps
synthesizes a FID or takes a transform (_integral_map is in closed form);
fourier and integrate serve shown spectra. measured_recovery reads the
J-doubling recovery of a synthetic antiphase doublet through one row of
_integral_map, with no FID and no doubling modulation.
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
    IX, IY, SX, SY,
    SpinSystemParams,
    StateValidationError,
    _frozen, _thermal_deviation,
)

F_PLUS = (IX + 1j * IY) + (SX + 1j * SY)


class SpectroError(ValueError):
    pass


@dataclass(frozen=True)
class Fid:
    """Complex time-domain signal sampled every dwell_s seconds."""

    samples: np.ndarray
    dwell_s: float

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.ndim != 1 or len(s) < 2:
            raise SpectroError("FID needs at least 2 samples in a 1-d array")
        if not 0 < self.dwell_s < np.inf:
            raise SpectroError(f"dwell must be positive and finite, got {self.dwell_s}")
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


# the coherences rho[a, b] that F+ reads, (1, 0), (2, 0), (3, 1) and (3, 2),
# each with weight F+[b, a] = 1, and the one-hot rows selecting them from vec(rho)
_READ_A, _READ_B = np.nonzero(F_PLUS.T * _OFF_DIAG)
_READ_ROWS = _frozen(np.eye(16, dtype=complex)[4 * _READ_A + _READ_B])


def _power_tables(log_z: np.ndarray, n: int) -> tuple:
    """Tables (hi, lo) of the powers exp(log_z k), k < n, of each complex
    log_z, for n a power of two: with b = 2^floor(log2(n) / 2),
    exp(log_z k) = hi[..., k // b] * lo[..., k % b], where
    lo = exp(log_z [0, 1, .., b - 1]) and hi = exp(log_z [0, b, .., n - b]).
    So b + n/b exponentials stand for n, and the one product adds a
    rounding that the rounding of log_z k, in both forms, outweighs."""
    b = 1 << (n.bit_length() - 1) // 2
    lo = np.exp(log_z[..., None] * np.arange(b))
    hi = np.exp(log_z[..., None] * (b * np.arange(n // b)))
    return hi, lo


def _fid_modes(params: SpinSystemParams, n: int, dwell_s: float) -> tuple:
    """The modes (c, hi, lo) of synthesize_fid, one row per coherence
    (a, b) that F+ reads: the n samples are the sum over rows r of
    (c @ vec(rho))[r] z[a, b]**k, z[a, b]**k = hi[r, k // b] lo[r, k % b]
    from the _power_tables of z[a, b] = lam_a conj(lam_b) exp(-dwell/T2).
    The one-dwell propagator is diagonal, with diagonal lam, so the (r, 16)
    c is the constant one-hot selector of those coherences.

    A T2 decay dwell/T2 per dwell that overflows over n dwells raises
    SpectroError: the exponents log(z) k would not be finite."""
    decay = dwell_s / params.t2_s
    if not decay * n < np.inf:
        raise SpectroError(
            f"t2_s = {params.t2_s!r} s is too short for the dwell {dwell_s!r} s: "
            f"the T2 decay over {n} points overflows")
    lam = np.diag(_propagator(dwell_s, params))
    log_z = np.log(lam[_READ_A] * lam[_READ_B].conj()) - decay
    return (_READ_ROWS, *_power_tables(log_z, n))


def synthesize_fid(rho0: DensityMatrix, params: SpinSystemParams,
                   n: int, dwell_s: float) -> Fid:
    """Weak-coupling FID of rho0 with T2 decay on every coherence.

    Weak-coupling evolution is a phase lam_a per dwell on each Zeeman
    state, so the coherence rho[a, b] picks up z[a, b] =
    lam_a conj(lam_b) exp(-dwell/T2) per dwell and s_k is the sum of
    rho[a, b] z[a, b]**k over the four coherences F+ reads. The
    propagator is free_evolution's, so delta_nu <= J raises ChannelError
    and delta_nu <= 5J warns."""
    check_points(n)
    c, hi, lo = _fid_modes(params, n, dwell_s)
    e = (hi[:, :, None] * lo[:, None, :]).reshape(len(hi), n)
    return Fid(samples=((c @ rho0.matrix.ravel())[:, None] * e).sum(axis=0),
               dwell_s=dwell_s)


def check_points(n: int) -> None:
    """Raise SpectroError unless the integer point count n is a power of
    two >= 2, as the transform and the power tables need."""
    if not (n >= 2 and n & (n - 1) == 0):
        raise SpectroError(f"point count must be a power of two >= 2, got {n}")


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
    a SeedSequence, raises SpectroError; so does Fid, on draws that overflow."""
    check_noise_sigma(sigma)
    check_seed(seed)
    rng = np.random.default_rng(seed)
    # set part by part: 1j * an overflowed draw would be a NaN with a warning
    noise = np.empty(fid.n, dtype=complex)
    noise.real = rng.normal(0, sigma, fid.n)
    noise.imag = rng.normal(0, sigma, fid.n)
    return Fid(samples=fid.samples + noise, dwell_s=fid.dwell_s)


def j_double(fid: Fid, j_apparent_hz: float, rounds: int) -> Fid:
    """Each round multiplies by 2cos(pi*J_app*t) and doubles J_app, turning
    an antiphase doublet of splitting J into one of splitting 2J. In-phase
    doublets come out as 1:2:1 triplets instead, so apply this to antiphase
    data only. A rounds that is not a non-negative integer, or an apparent
    J that is not positive and finite, or one whose doubling overflows,
    raises SpectroError."""
    if _integer("rounds", rounds) < 0:
        raise SpectroError("rounds must be >= 0")
    return Fid(samples=fid.samples * _j_modulation(j_apparent_hz, rounds, fid.times_s),
               dwell_s=fid.dwell_s)


def _check_doubled_j(j_hz: float, rounds: int, t_end: float) -> None:
    """Refuse a J that is not positive and finite, and J-doubling that
    overflows over times up to t_end, for j_double, the readout's doubled
    map and measured_recovery alike: each power 2^r, doubled J and phase
    they form is at most x 2^rounds, x = max(1, J) max(1, pi t_end) =
    m 2^e, m < 1, so e + rounds <= 1024 keeps every one finite."""
    if not 0 < j_hz < math.inf:
        raise SpectroError(f"apparent J must be positive and finite, got {j_hz!r}")
    x = max(1.0, j_hz) * max(1.0, math.pi * t_end)
    if not (x < math.inf and math.frexp(x)[1] + rounds <= 1024):
        raise SpectroError(f"J-doubling overflows: {rounds} rounds of J = {j_hz!r} Hz")


def _j_modulation(j_hz: float, rounds: int, t: np.ndarray) -> np.ndarray:
    """The real factor j_double multiplies samples at ascending times t
    by: the product of 2cos(pi * J * 2^r * t) over rounds r."""
    _check_doubled_j(j_hz, rounds, t[-1])
    out = np.ones(len(t))
    for r in range(rounds):
        out *= 2 * np.cos(np.pi * (j_hz * 2 ** r) * t)
    return out


@functools.lru_cache(maxsize=1)
def _recovery_carrier(n: int, dwell_s: float) -> np.ndarray:
    """Read-only real c = -Im(W) for the _integral_map row W of the region
    [0, 400] Hz, so that Re(W @ (i sin(pi J t) e(t))) = c @ (sin(pi J t) e(t))
    for every real e(t). The last carrier built stays cached."""
    out = -_integral_map(((0.0, 400.0),), n, dwell_s)[0].imag
    out.setflags(write=False)
    return out


def measured_recovery(j_hz: float, fwhm_hz: float | np.ndarray,
                      rounds: int) -> float | np.ndarray:
    """Integrate one component of a synthetic antiphase doublet, after the
    given number of doubling rounds, relative to its true area of 1/2.

    fwhm_hz may be an array; the result then has its shape, and is a float
    for a scalar. The doublet is i sin(pi J t) at the origin on a
    Lorentzian envelope of the given FWHM (line areas +-1/2), read over
    [0, 400] Hz; by the shift theorem this equals the same doublet at
    100 Hz read over [100, 500] Hz, as 100 Hz is a whole number of bins
    of the 1/128 Hz axis. The doubling is j_double's, but neither is
    built: since sin(a) * prod over r < R of 2cos(2^r a) = sin(2^R a),
    R rounds turn the doublet of splitting J into the undoubled one of
    splitting 2^R J. Its integral is then Im(c @ z^k) with the cached
    real carrier c of _recovery_carrier and log z = (i pi 2^R J - pi
    fwhm) dwell, read through the _power_tables of z: no sine and no
    n-point array per width. A rounds that is not a non-negative
    integer, a width not in [0, inf) or one whose decay over the n
    points overflows, a J that is not positive and finite or an
    overflowing doubled J raises SpectroError."""
    if _integer("rounds", rounds) < 0:
        raise SpectroError("rounds must be >= 0")
    widths = np.ravel(fwhm_hz)
    if not ((0 <= widths) & (widths < np.inf)).all():
        raise SpectroError(f"width must be finite and >= 0, got {fwhm_hz!r}")
    n, dwell_s = 65536, 1.0 / 1024.0
    widest = float(widths.max(initial=0.0))
    if not math.pi * widest * dwell_s * n < math.inf:
        raise SpectroError(
            f"width {widest!r} Hz is too broad for the dwell {dwell_s!r} s: "
            f"its decay over {n} points overflows")
    _check_doubled_j(j_hz, rounds, (n - 1) * dwell_s)
    # the carrier first: a cold build peaks while no n-point array is held
    c = _recovery_carrier(n, dwell_s)
    # sum over k = b j + i of c_k hi_j lo_i, with lo as a real (b, 2 widths)
    # view: one real GEMM on c's own buffer, no complex copy of c
    hi, lo = _power_tables(
        (1j * np.pi * (j_hz * 2 ** rounds) - np.pi * widths) * dwell_s, n)
    m = (c.reshape(hi.shape[1], -1) @ lo.T.copy().view(float)).view(complex)
    out = np.einsum("wj,jw->w", hi, m).imag / 0.5
    return float(out[0]) if np.ndim(fwhm_hz) == 0 else out.reshape(np.shape(fwhm_hz))


def _check_axis(n: int, dwell_s: float) -> None:
    """Refuse a dwell whose 2n-point axis, up to n / (2 n dwell_s), overflows."""
    if not n * (1.0 / (2 * n * dwell_s)) < np.inf:
        raise SpectroError(
            f"dwell {dwell_s!r} s is too short: the frequency axis of "
            f"{2 * n} points overflows")


def fourier(fid: Fid, apodize_hz: float = 0.0) -> Spectrum:
    """Discrete transform with first-point halving, x2 zero-fill, and
    2*dwell scaling (line integral == time-domain envelope amplitude).
    apodize_hz adds Lorentzian broadening to every line's FWHM. An
    apodize_hz that is not finite and non-negative, or a frequency axis
    or a transform that overflows, raises SpectroError."""
    check_points(fid.n)
    if not 0 <= apodize_hz < np.inf:
        raise SpectroError(
            f"apodization must be finite and non-negative, got {apodize_hz!r}")
    _check_axis(fid.n, fid.dwell_s)
    x = np.array(fid.samples)
    if apodize_hz > 0:
        x = x * np.exp(-np.pi * apodize_hz * fid.times_s)
    x[0] *= 0.5
    x = np.concatenate([x, np.zeros(fid.n, dtype=complex)])
    with np.errstate(over="ignore", invalid="ignore"):
        values = 2 * fid.dwell_s * np.fft.fft(x)
    if not np.isfinite(values).all():
        raise SpectroError("the transform overflows: the spectrum is not finite")
    freqs = np.fft.fftfreq(2 * fid.n, fid.dwell_s)
    return Spectrum(freqs_hz=np.fft.fftshift(freqs), values=np.fft.fftshift(values))


def _trapezoid_weights(freqs_hz: np.ndarray, lo_hz: float, hi_hz: float) -> tuple:
    """The slice inside of the ascending axis that holds the points in
    [lo, hi], and their trapezoid weights w, with integrate(spectrum, lo,
    hi) equal to w @ spectrum.values.real[inside]; all zero below 2 points."""
    if not lo_hz < hi_hz:
        raise SpectroError(f"need lo < hi, got [{lo_hz}, {hi_hz}]")
    if lo_hz < freqs_hz[0] or hi_hz > freqs_hz[-1]:
        raise SpectroError(
            f"region [{lo_hz}, {hi_hz}] outside axis [{freqs_hz[0]}, {freqs_hz[-1]}]")
    inside = slice(np.searchsorted(freqs_hz, lo_hz), np.searchsorted(freqs_hz, hi_hz, "right"))
    half = np.diff(freqs_hz[inside]) / 2
    w = np.zeros(len(freqs_hz[inside]))
    w[:-1] += half
    w[1:] += half
    return inside, w


def integrate(spectrum: Spectrum, lo_hz: float, hi_hz: float) -> float:
    """Trapezoidal integral of the real part over [lo, hi], from its own
    points alone; fewer than 2 points there raise SpectroError."""
    inside, w = _trapezoid_weights(spectrum.freqs_hz, lo_hz, hi_hz)
    if len(w) < 2:
        raise SpectroError(
            f"region [{lo_hz}, {hi_hz}] Hz holds fewer than 2 spectral points; "
            "acquire more points or a longer dwell")
    return float(w @ spectrum.values.real[inside])


def component_regions(params: SpinSystemParams) -> tuple:
    """Four wide integration windows, one per multiplet component: each
    doublet at -+delta_nu/2 is split at its center, windows a quarter of
    delta_nu wide. Wide windows keep Lorentzian tail truncation negligible
    for both original and J-doubled splittings."""
    span, half = params.delta_nu_hz / 4, params.delta_nu_hz / 2
    return tuple(w for c in (-half, half) for w in ((c - span, c), (c, c + span)))


def component_integrals(spectrum: Spectrum, params: SpinSystemParams) -> np.ndarray:
    """Integrals over the four component_regions, in their order."""
    return np.array([integrate(spectrum, lo, hi) for lo, hi in component_regions(params)])


def _integral_map(regions: tuple, n: int, dwell_s: float) -> np.ndarray:
    """Read-only (len(regions), n) complex W with Re(W @ fid.samples) equal
    to the integrals of fourier(fid) over regions, in their order, for
    every n-point fid sampled at dwell_s; regions is a tuple of (lo, hi)
    pairs in Hz.

    Each row is the transform of that region's trapezoid weights, a boxcar
    with half-weight ends on the points a..z of fourier's own axis (signed
    indices), with the first-point halving and the 2*dwell scale folded
    in: W[0] = (z - a)/2n, W[k] = exp(-i pi (a + z) k/2n) sin(pi (z - a)
    k/2n) cot(pi k/2n) / n, zero below 2 points. No transform is taken."""
    freqs = np.arange(-n, n, dtype=float)
    freqs *= 1.0 / (2 * n * dwell_s)
    b = 1 << (n.bit_length() - 1) // 2

    def powers(e: int, out: np.ndarray) -> np.ndarray:
        # exp(-i pi e k/2n), k < n, into out, from two tables split as in
        # _power_tables: (-i)^q exp(-i pi r/2n) for e k = q n + r mod 4n, |r| <= n/2
        m = e * np.r_[0:n:b, :b] & 4 * n - 1
        q = (m + n // 2) // n
        r = np.array([1, -1j, -1, 1j, 1])[q] * np.exp(-0.5j * np.pi / n * (m - q * n))
        return np.multiply(r[:n // b, None], r[n // b:], out=out.reshape(-1, b)).ravel()
    buf = np.empty(n, dtype=complex)
    sines = powers(-1, buf)[1:].imag
    cot = sines[::-1] / sines / n
    out = np.zeros((len(regions), n), dtype=complex)
    for row, (lo_hz, hi_hz) in zip(out, regions):
        inside, weights = _trapezoid_weights(freqs, lo_hz, hi_hz)
        if len(weights) >= 2:
            a, z = inside.start - n, inside.stop - 1 - n
            powers(a + z, row)
            row[1:] *= powers(a - z, buf)[1:].imag * cot
            row[0] = (z - a) / (2 * n)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class CalibrationResult:
    """Polarization estimate and its inputs. corrected_ratio is exactly
    raw_ratio * f_active; epsilon = corrected_ratio / max_enhancement,
    the thermal state's ceiling 1/tanh(B/2) unless one was passed."""

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


def _signal(integrals: np.ndarray) -> np.ndarray:
    """calibrate's signal, and Readout.replicate_signals': the summed
    absolute component integrals along the last axis."""
    return np.abs(integrals).sum(axis=-1)


def calibrate(ph2_integrals, thermal_integrals, scan_norm: float,
              params: SpinSystemParams,
              max_enhancement: float | None = None) -> CalibrationResult:
    """Polarization from hyperpolarized vs thermal multiplet integrals.

    Signals are summed absolute component integrals. scan_norm rescales for
    unequal averaging between the two acquisitions (1 when both are single
    simulated shots). max_enhancement defaults to the thermal state's
    ceiling 1/tanh(B/2) from params, inf where B/2 underflows; passing an
    externally quoted value reproduces someone else's arithmetic.
    epsilon_err is 0; run_pipeline's bootstrap replaces it. An empty list
    of integrals on either side, a signal that is not finite (an infinite
    or NaN integral, or a sum that overflows), or a passed max_enhancement
    that is not positive and finite raises SpectroError.
    """
    ph2, th = (np.ravel(np.asarray(y, dtype=float)) for y in (ph2_integrals, thermal_integrals))
    if not (ph2.size and th.size):
        raise SpectroError("need at least one integral on each side")
    with np.errstate(over="ignore"):
        sig_ph2, sig_th = float(_signal(ph2)), float(_signal(th))
    if not (np.isfinite(sig_ph2) and np.isfinite(sig_th)):
        raise SpectroError(
            f"summed integrals must be finite, got {sig_ph2} and {sig_th}")
    if sig_th <= 0:
        raise SpectroError("thermal integrals must not be all zero")
    if not scan_norm > 0:
        raise SpectroError("scan_norm must be positive")
    raw = sig_ph2 * scan_norm / sig_th
    corrected = raw * params.f_active
    if max_enhancement is None:
        t = math.tanh(params.b_factor / 2)
        max_enhancement = 1 / t if t else math.inf
    elif not 0 < max_enhancement < math.inf:
        raise SpectroError(
            f"max_enhancement must be positive and finite, got {max_enhancement!r}")
    return CalibrationResult(
        epsilon=corrected / max_enhancement,
        epsilon_err=0.0,
        raw_ratio=raw,
        corrected_ratio=corrected,
        max_enhancement=max_enhancement,
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
        check_points(_integer("n_points", self.n_points))
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


def _acquisition_map(params: SpinSystemParams, pairs: tuple, dwell_s: float) -> tuple:
    """One read-only (len(w), 16) complex A per (superop, w) pair of pairs,
    in their order, with Re(A @ vec(rho)) equal to
    Re(w @ synthesize_fid(P, params, n, dwell_s).samples), where vec(P) is
    superop @ vec(rho), the pulses before the acquisition composed into one
    16x16 map, and w is an (m, n) map on the samples; every w has the same n.

    With the modes (c, hi, lo) of _fid_modes, built once for all pairs,
    the integrals of P are the sum over r of (w @ e[r]) (c @ vec(P))[r],
    w @ e[r] the sum over j of hi[r, j] (w_j @ lo[r]) for the sqrt(n)-point
    blocks w_j of w: one GEMM per map, no (4, n) e (against one n-point
    matvec per mode, epsilon moves by <= rel 1.8e-14 at delta_nu 420-580
    Hz), so A is that sum times superop.

    A is blind to the identity: vec(I) has no read coherence, and only a
    superoperator's rounding (up to 1.5e-16 off the diagonal for a hard
    90) would let the I/4 part of a state leak into the integrals."""
    c, hi, lo = _fid_modes(params, pairs[0][1].shape[1], dwell_s)
    vec_i = np.eye(4).ravel()
    maps = []
    for sup, w in pairs:
        blocks = w.reshape(len(w), hi.shape[1], lo.shape[1]) @ lo.T
        out = np.einsum("mjr,rj->mr", blocks, hi) @ c @ sup
        out -= np.outer(out @ vec_i, vec_i) / 4
        out.setflags(write=False)
        maps.append(out)
    return tuple(maps)


# orthonormal basis N of the sum-zero subspace of R^4: every unit-trace
# population vector is 1/4 + N q
_SUM_ZERO_BASIS = np.linalg.qr(np.eye(4, 3) - np.eye(4, 3, -1))[0]


@dataclass(frozen=True, eq=False)
class Readout:
    """What readout_model builds for (params, config), all read-only: the
    map r, the thermal reference's integrals, the population inverse or
    None, and the two sample maps of the noise law: the (4, n) complex
    _integral_map w_t of the component_regions, which reads the thermal
    reference, and the real J-doubling modulation of the n samples, so
    that w_t * modulation reads the selective one."""

    r: np.ndarray
    thermal: np.ndarray
    inverse: np.ndarray | None
    w_t: np.ndarray
    modulation: np.ndarray

    def noise_factors(self) -> tuple:
        """Cholesky factors (L_p, L_t) of Re(W W^H) for the doubled map
        W_p = w_t * modulation of the selective readout and the component
        map W_t = w_t of the thermal reference, the factors
        replicate_signals draws with.

        Re(W W^H) = V V^T exactly, where V = W.view(float) is the (4, 2n) real
        view of the C-contiguous complex W with real and imaginary parts
        interleaved, so each Gram matrix is one real GEMM on W's own buffer:
        no conjugate copy of W, and no imaginary half computed to be dropped."""
        return tuple(np.linalg.cholesky(v @ v.T)
                     for v in ((self.w_t * self.modulation).view(float),
                               self.w_t.view(float)))

    def replicate_signals(self, y_p: np.ndarray, sigma: float,
                          seed: int | np.random.SeedSequence, n_boot: int) -> tuple:
        """The calibrate signals (sig_p, sig_t) of n_boot replicates of the
        selective integrals y_p and of thermal, each as if add_noise had
        noised its FID; empty when sigma or n_boot is 0. A channel's
        integrals Re(W @ fid.samples) are linear in its FID, so N(0, sigma^2)
        noise on each real and imaginary part moves them by a Gaussian of
        covariance sigma^2 Re(W W^H) = sigma^2 L L^T, L from noise_factors:
        y + sigma * z @ L.T has exactly their law, with four normals z per
        draw instead of 2n. Replicate i takes the normals [i, 0] (polarized)
        and [i, 1] (thermal) of default_rng(seed).standard_normal((n_boot,
        2, 4)), so it does not depend on n_boot. A sigma or seed that
        add_noise refuses, an n_boot that is negative or not an integer,
        n_boot = 1 with noise (no spread), or a sigma that overflows a
        signal raises SpectroError."""
        check_noise_sigma(sigma)
        check_seed(seed)
        if _integer("n_boot", n_boot) < 0:
            raise SpectroError(f"n_boot must be >= 0, got {n_boot}")
        if sigma > 0 and n_boot == 1:
            raise SpectroError("n_boot = 1 has no spread: use 0 for a "
                               "noise-free call or at least 2 replicates")
        if not (sigma > 0 and n_boot > 0):
            return np.empty(0), np.empty(0)
        z = np.random.default_rng(seed).standard_normal((n_boot, 2, 4))
        # a sigma near the float limit overflows the draws; refused below
        with np.errstate(over="ignore", invalid="ignore"):
            sig_p, sig_t = (_signal(y + sigma * zc @ lo.T) for y, lo, zc in zip(
                (y_p, self.thermal), self.noise_factors(), z.transpose(1, 0, 2)))
        if not (np.isfinite(sig_p).all() and np.isfinite(sig_t).all()):
            raise SpectroError(f"noise sigma {sigma!r} overflows the replicate signals")
        return sig_p, sig_t


@functools.lru_cache(maxsize=2)
def readout_model(params: SpinSystemParams, readout: ReadoutConfig) -> Readout:
    """The Readout of (params, readout), from one component map w_t, one
    doubling modulation and one set of FID modes: r is the (4, 16) map of
    the selective pulse and the doubled map w_t * modulation, thermal the
    component integrals of states._thermal_deviation (no I/4 for a
    pulse's rounding to leak) after a hard 90 about +y, and inverse the P
    of p = 1/4 + P y for M = Re(r @ _BELL_PROJECTORS.T), rank 3, on the
    unit-trace slice 1/4 + N q: P = N pinv(M N) from one SVD, None where M N
    is rank deficient (J effectively zero). The last two stay cached."""
    n, dwell_s = readout.n_points, readout.dwell_s
    w_t = _integral_map(component_regions(params), n, dwell_s)
    modulation = _readout_modulation(params.j_hz, readout.j_double_rounds, n, dwell_s)
    r, a_t = _acquisition_map(params, (
        (selective_pulse(readout.target_spin, params).superop, w_t * modulation),
        (hard_pulse(90.0, 90.0).superop, w_t),
    ), dwell_s)
    y_t = (a_t @ _thermal_deviation(params).ravel()).real
    y_t.setflags(write=False)
    u, s, vt = np.linalg.svd((r @ _BELL_PROJECTORS.T).real @ _SUM_ZERO_BASIS,
                             full_matrices=False)
    if s[0] == 0 or s[-1] < 1e-8 * s[0]:
        return Readout(r, y_t, None, w_t, modulation)
    inverse = _SUM_ZERO_BASIS @ (vt.T / s) @ u.T
    inverse.setflags(write=False)
    return Readout(r, y_t, inverse, w_t, modulation)


def readout_integrals(rho: DensityMatrix, params: SpinSystemParams,
                      readout: ReadoutConfig = ReadoutConfig()) -> np.ndarray:
    """The four component_regions integrals of the selective readout of
    rho: selective 90, FID, J-doubling, transform and integration, all
    linear in rho, read as one product Re(r @ vec(rho)) with the cached
    (4, 16) map r of readout_model. It equals the integrals of
    fourier(j_double(synthesize_fid(...))) to rounding."""
    return (readout_model(params, readout).r @ rho.matrix.ravel()).real


def imbalance_to_populations(component_integrals, params: SpinSystemParams,
                             readout: ReadoutConfig = ReadoutConfig()) -> BellPopulations:
    """Invert the linear map from singlet-triplet populations to the four
    component integrals of the selective readout: p = 1/4 + P y, one
    product with the population inverse P of readout_model, least
    squares on the unit-trace slice. A readout whose antiphase terms never
    develop (J effectively zero) has no inverse and raises."""
    y = np.asarray(component_integrals, dtype=float)
    if y.shape != (4,):
        raise SpectroError("expected exactly four component integrals")
    inverse = readout_model(params, readout).inverse
    if inverse is None:
        raise SpectroError(
            "degenerate readout: population differences do not reach the "
            "component integrals (is J resolvable?)")
    p = 0.25 + inverse @ y
    try:
        return BellPopulations(*p.tolist(), offBell=0.0)
    except StateValidationError as exc:
        raise SpectroError(
            f"component integrals are inconsistent with any Bell-diagonal "
            f"state: {exc}") from exc
