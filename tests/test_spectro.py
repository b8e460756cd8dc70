import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinpair import spectro
from spinpair.channels import (
    ChannelError,
    apply,
    hard_pulse,
    selective_pulse,
)
from spinpair.spectro import (
    CalibrationResult,
    Fid,
    ReadoutConfig,
    Spectrum,
    SpectroError,
    add_noise,
    calibrate,
    component_integrals,
    component_regions,
    fourier,
    imbalance_to_populations,
    integrate,
    j_double,
    readout_integrals,
    synthesize_fid,
)
from spinpair.states import (
    BELL_BASIS,
    IX, IY, IZ, SX, SY, SZ,
    DensityMatrix,
    SpinSystemParams,
    bell_diagonal,
    make_pseudo_pure,
    make_singlet,
    make_thermal,
)

from conftest import random_density
from fid_oracles import folded_acquisition_map, loop_acquisition_map, loop_fid_samples


def lorentzian_fid(amp, f0_hz, t2_s, n=16384, dwell=1 / 4096.0):
    t = np.arange(n) * dwell
    return Fid(samples=amp * np.exp(2j * np.pi * f0_hz * t) * np.exp(-t / t2_s),
               dwell_s=dwell)


def test_fid_validation():
    with pytest.raises(SpectroError):
        Fid(samples=np.zeros(3, complex).reshape(1, 3), dwell_s=1.0)
    with pytest.raises(SpectroError):
        Fid(samples=np.zeros(1, complex), dwell_s=1.0)
    with pytest.raises(SpectroError):
        Fid(samples=np.zeros(4, complex), dwell_s=0.0)
    with pytest.raises(SpectroError):
        Fid(samples=np.array([1.0, np.nan, 0, 0], complex), dwell_s=1.0)


def test_spectrum_validation():
    with pytest.raises(SpectroError):
        Spectrum(freqs_hz=np.array([0.0, 0.0, 1.0]),
                 values=np.zeros(3, complex))
    with pytest.raises(SpectroError):
        Spectrum(freqs_hz=np.array([0.0, 1.0]), values=np.zeros(3, complex))


def test_synthesize_requires_power_of_two(params):
    rho = make_thermal(params)
    with pytest.raises(SpectroError):
        synthesize_fid(rho, params, 1000, 1 / 4096)
    synthesize_fid(rho, params, 64, 1 / 4096)
    # the FID is always weak coupling, under free_evolution's validity rules
    with pytest.raises(ChannelError, match="weak coupling needs delta_nu > J"):
        synthesize_fid(rho, SpinSystemParams(delta_nu_hz=4.0, j_hz=5.0), 64, 1 / 4096)
    with pytest.warns(UserWarning, match="secular approximation is marginal"):
        synthesize_fid(rho, SpinSystemParams(delta_nu_hz=20.0, j_hz=5.0), 64, 1 / 4096)


def test_thermal_fid_closed_form(params):
    # two in-phase doublets at -+delta_nu/2, J split, T2 decay:
    # s(t) = (B/2) cos(pi delta_nu t) cos(pi J t) exp(-t/T2)
    b = params.b_factor
    rho = apply(hard_pulse(90.0, 90.0), make_thermal(params))
    fid = synthesize_fid(rho, params, 256, 1 / 4096)
    t = fid.times_s
    oracle = (b / 2) * np.cos(np.pi * params.delta_nu_hz * t) \
        * np.cos(np.pi * params.j_hz * t) * np.exp(-t / params.t2_s)
    assert np.abs(fid.samples - oracle).max() < 1e-15


def test_singlet_antiphase_fid_closed_form(params):
    # after a selective 90 on I the singlet gives pure antiphase on both
    # spins: s(t) = -sin(pi J t) sin(pi delta_nu t) exp(-t/T2)
    rho = apply(selective_pulse("I", params), make_singlet())
    fid = synthesize_fid(rho, params, 256, 1 / 4096)
    t = fid.times_s
    oracle = -np.sin(np.pi * params.j_hz * t) \
        * np.sin(np.pi * params.delta_nu_hz * t) * np.exp(-t / params.t2_s)
    assert np.abs(fid.samples - oracle).max() < 1e-13
    assert np.abs(fid.samples[0]) < 1e-15  # no net transverse signal


def stepping_fid(matrices, params, n, dwell_s):
    """Reference FIDs by direct stepping, one row per state: record
    tr(rho F+), evolve one dwell, decay off-diagonals by exp(-dwell/T2),
    repeat. The synthesis loop spinpair used before the closed form,
    broadcast over a stack of density matrices."""
    f_plus = (IX + 1j * IY) + (SX + 1j * SY)
    offdiag = 1.0 - np.eye(4)
    # the weak-coupling Hamiltonian is diagonal in the Zeeman basis
    h = 2 * np.pi * (params.delta_nu_hz / 2 * (SZ - IZ) + params.j_hz * IZ @ SZ)
    step = np.diag(np.exp(-1j * dwell_s * h.diagonal().real))
    step_h = step.conj().T
    decay = float(np.exp(-dwell_s / params.t2_s))
    m = np.array(matrices, dtype=complex)
    out = np.empty((len(m), n), dtype=complex)
    for k in range(n):
        out[:, k] = np.trace(m @ f_plus, axis1=-2, axis2=-1)
        m = step @ m @ step_h
        m = m * np.eye(4) + (m * offdiag) * decay
    return out


@pytest.mark.parametrize("p, dwell_s", [
    (SpinSystemParams(), 1 / 4096),
    (SpinSystemParams(delta_nu_hz=310.0, j_hz=11.5, t2_s=0.09), 1 / 1500),
])
def test_synthesize_fid_matches_stepping_oracle(p, dwell_s):
    rng = np.random.default_rng(20260819)
    states = [
        apply(selective_pulse("I", p), make_singlet()),
        apply(hard_pulse(90.0, 90.0), make_thermal(p, mode="exact")),
        apply(hard_pulse(60.0, 0.0), make_pseudo_pure(0.916, make_singlet())),
    ] + [random_density(rng) for _ in range(20)]
    oracle = stepping_fid([s.matrix for s in states], p, 16384, dwell_s)
    for n in (2, 256, 16384):
        for rho, want in zip(states, oracle[:, :n]):
            got = synthesize_fid(rho, p, n, dwell_s).samples
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("p, dwell_s", [
    (SpinSystemParams(), 1 / 4096),
    (SpinSystemParams(delta_nu_hz=310.0, j_hz=11.5, t2_s=0.09), 1 / 1500),
])
def test_fid_modes_match_per_coherence_loops(p, dwell_s):
    # the modes as arrays do the loops' arithmetic, so the bits agree
    rng = np.random.default_rng(7)
    for rho in [apply(selective_pulse("I", p), make_singlet())] + [
            random_density(rng) for _ in range(5)]:
        assert np.array_equal(synthesize_fid(rho, p, 4096, dwell_s).samples,
                              loop_fid_samples(rho, p, 4096, dwell_s))
    w = spectro._integral_map(component_regions(p), 4096, dwell_s)
    for sup in [np.eye(16), hard_pulse(90.0, 90.0).superop, selective_pulse("S", p).superop]:
        assert np.array_equal(spectro._acquisition_map(p, ((sup, w),), dwell_s)[0],
                              loop_acquisition_map(p, sup, w, dwell_s))


@pytest.mark.parametrize("p, ro", [
    (SpinSystemParams(), ReadoutConfig()),
    (SpinSystemParams(delta_nu_hz=310.0, j_hz=11.5, t2_s=0.09),
     ReadoutConfig(n_points=4096, dwell_s=1 / 1500, j_double_rounds=2, target_spin="S")),
])
def test_shared_acquisition_maps_equal_separate_builds(p, ro):
    r, y_t = spectro._acquisition_maps(p, ro)
    assert r.shape == (4, 16) and y_t.shape == (4,)
    assert not r.flags.writeable and not y_t.flags.writeable
    selective = selective_pulse(ro.target_spin, p)
    hard_90 = hard_pulse(90.0, 90.0)
    w_p = spectro._doubled_map(p, ro)
    w_t = spectro._integral_map(component_regions(p), ro.n_points, ro.dwell_s)
    a_t = spectro._acquisition_map(p, ((hard_90.superop, w_t),), ro.dwell_s)[0]
    t = math.tanh(p.b_factor / 2)
    assert np.array_equal(r, spectro._acquisition_map(
        p, ((selective.superop, w_p),), ro.dwell_s)[0])
    assert np.array_equal(y_t, (a_t @ ((t / 2) * (IZ + SZ) + t ** 2 * (IZ @ SZ)).ravel()).real)
    assert np.array_equal(r, loop_acquisition_map(p, selective.superop, w_p, ro.dwell_s))
    assert np.array_equal(a_t, loop_acquisition_map(p, hard_90.superop, w_t, ro.dwell_s))
    # the composed pulses against the channel-by-channel product
    for got, channels, w in ((r, selective.channels, w_p), (a_t, (hard_90,), w_t)):
        want = folded_acquisition_map(p, channels, w, ro.dwell_s)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_fourier_line_integral_equals_amplitude():
    # envelope normalization: a decaying line of amplitude A integrates to A
    fid = lorentzian_fid(1.7, 100.0, 0.58)
    spec = fourier(fid)
    total = integrate(spec, spec.freqs_hz[0], spec.freqs_hz[-1])
    assert total == pytest.approx(1.7, rel=1e-6)


def test_fourier_peak_position_and_width():
    fid = lorentzian_fid(1.0, 100.0, 0.58)
    spec = fourier(fid, apodize_hz=1.0)
    i = int(np.argmax(spec.values.real))
    bin_hz = spec.freqs_hz[1] - spec.freqs_hz[0]
    assert abs(spec.freqs_hz[i] - 100.0) <= bin_hz
    # full width at half height = natural 1/(pi T2) plus apodization
    half = spec.values.real[i] / 2
    above = spec.freqs_hz[spec.values.real >= half]
    fwhm = above[-1] - above[0]
    expect = 1 / (math.pi * 0.58) + 1.0
    assert fwhm == pytest.approx(expect, rel=0.05)


def test_fourier_rejects_non_power_of_two():
    t = np.arange(1000) / 4096
    with pytest.raises(SpectroError):
        fourier(Fid(samples=np.exp(-t) + 0j, dwell_s=1 / 4096))


@pytest.mark.parametrize("n, dwell_s", [(2, 5e-324), (64, 1e-310)])
def test_fourier_refuses_an_overflowing_axis_without_warning(n, dwell_s):
    # fftfreq divided by the dwell and overflowed, with a RuntimeWarning
    fid = Fid(samples=np.ones(n, dtype=complex), dwell_s=dwell_s)
    with pytest.raises(SpectroError, match="frequency axis .* overflows"):
        fourier(fid)


def test_synthesize_fid_refuses_a_t2_decay_that_overflows(params):
    # dwell/T2 overflowed, and the modes multiplied -inf by k = 0: NaN
    # samples behind a RuntimeWarning
    p = dataclasses.replace(params, t2_s=5e-324)
    with pytest.raises(SpectroError, match="t2_s = 5e-324 s is too short for the dwell"):
        synthesize_fid(make_singlet(), p, 1024, 1 / 4096)
    p = dataclasses.replace(params, t2_s=1e-310)
    with pytest.raises(SpectroError, match="over 64 points overflows"):
        synthesize_fid(make_singlet(), p, 64, 1e-2)


def test_fourier_linearity():
    a = lorentzian_fid(1.0, -50.0, 0.58)
    b = lorentzian_fid(0.5, 120.0, 0.3)
    combo = Fid(samples=2 * a.samples + b.samples, dwell_s=a.dwell_s)
    sa, sb, sc = fourier(a), fourier(b), fourier(combo)
    assert np.allclose(sc.values, 2 * sa.values + sb.values, atol=1e-12)


def test_fourier_energy_identity():
    # with S = 2*dwell*FFT(x_halved zero-filled to 2n):
    # sum |S|^2 / (2n * dwell) = 4 * dwell * sum |x_halved|^2
    fid = lorentzian_fid(1.3, 75.0, 0.4, n=4096)
    spec = fourier(fid)
    x = fid.samples.copy()
    x[0] *= 0.5
    lhs = float(np.sum(np.abs(spec.values) ** 2)) / (len(spec.values) * fid.dwell_s)
    rhs = 4 * fid.dwell_s * float(np.sum(np.abs(x) ** 2))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def argsort_fourier(fid):
    """fourier as it ordered its axis, with np.argsort of fftfreq."""
    x = np.array(fid.samples)
    x[0] *= 0.5
    values = 2 * fid.dwell_s * np.fft.fft(np.concatenate([x, np.zeros(fid.n, dtype=complex)]))
    freqs = np.fft.fftfreq(2 * fid.n, fid.dwell_s)
    order = np.argsort(freqs)
    return freqs[order], values[order]


@pytest.mark.parametrize("m", [4, 8, 64, 1024, 32768, 131072])
def test_fftshift_is_fftfreq_ascending_order(m):
    for dwell_s in (1 / 4096, 1 / 1024, 1e-3):
        assert np.array_equal(np.fft.fftshift(np.arange(m)),
                              np.argsort(np.fft.fftfreq(m, dwell_s)))
        # the ascending axis _integral_map builds without fftfreq
        assert np.array_equal(np.arange(-(m // 2), m // 2) * (1.0 / (m * dwell_s)),
                              np.sort(np.fft.fftfreq(m, dwell_s)))
    fid = lorentzian_fid(1.0, 100.0, 0.5, n=m // 2)
    spec = fourier(fid)
    freqs, values = argsort_fourier(fid)
    assert np.array_equal(spec.freqs_hz, freqs)
    assert np.array_equal(spec.values, values)


def test_component_regions_layout(params):
    regs = component_regions(params)
    q = params.delta_nu_hz / 4
    c = params.delta_nu_hz / 2
    expect = ((-c - q, -c), (-c, -c + q), (c - q, c), (c, c + q))
    assert np.allclose(np.asarray(regs), np.asarray(expect))


def test_integrate_validation():
    spec = fourier(lorentzian_fid(1.0, 0.0, 0.5))
    with pytest.raises(SpectroError):
        integrate(spec, 10.0, 5.0)
    with pytest.raises(SpectroError):
        integrate(spec, -1e9, 0.0)
    # degenerate window with fewer than two bins integrates to zero
    assert integrate(spec, 0.0, 0.01) == 0.0


def test_thermal_component_integrals(params):
    b = params.b_factor
    rho = apply(hard_pulse(90.0, 90.0), make_thermal(params))
    spec = fourier(synthesize_fid(rho, params, 16384, 1 / 4096))
    ints = component_integrals(spec, params)
    # four in-phase components of B/8 each, small tail losses only
    for v in ints:
        assert v == pytest.approx(b / 8, rel=2e-3)
    assert ints[0] == pytest.approx(ints[3], rel=1e-9)
    assert ints[1] == pytest.approx(ints[2], rel=1e-9)


def test_antiphase_component_integrals(params):
    rho = apply(selective_pulse("I", params), make_pseudo_pure(0.916, make_singlet()))
    spec = fourier(synthesize_fid(rho, params, 16384, 1 / 4096))
    ints = component_integrals(spec, params)
    # antiphase pattern +,-,-,+ with per-component amplitude
    # 0.916/4 times the half-multiplet coverage (2/pi) atan(J/fwhm)
    fwhm = 1 / (math.pi * params.t2_s)
    expect = 0.916 / 4 * (2 / math.pi) * math.atan(params.j_hz / fwhm)
    signs = [1, -1, -1, 1]
    for v, s in zip(ints, signs):
        assert v == pytest.approx(s * expect, rel=1e-3)
    # whole multiplets cancel exactly by symmetry
    assert ints[0] + ints[1] == pytest.approx(0.0, abs=1e-6)
    assert sum(ints) == pytest.approx(0.0, abs=1e-6)


def test_add_noise_deterministic():
    fid = lorentzian_fid(1.0, 10.0, 0.5, n=256)
    a = add_noise(fid, 0.1, seed=7)
    b = add_noise(fid, 0.1, seed=7)
    c = add_noise(fid, 0.1, seed=8)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)
    assert np.std((a.samples - fid.samples).real) == pytest.approx(0.1, rel=0.2)


def test_add_noise_refuses_negative_seed():
    fid = lorentzian_fid(1.0, 10.0, 0.5, n=256)
    for seed in (-1, np.int64(-3)):
        with pytest.raises(SpectroError, match=re.escape(f"non-negative integer, got {seed!r}")):
            add_noise(fid, 0.1, seed=seed)
    assert np.array_equal(add_noise(fid, 0.1, seed=0).samples,
                          add_noise(fid, 0.1, seed=np.random.SeedSequence(0)).samples)


@pytest.mark.parametrize("seed", [1.5, "3"])
def test_add_noise_refuses_a_non_integer_seed(seed):
    fid = lorentzian_fid(1.0, 10.0, 0.5, n=256)
    with pytest.raises(SpectroError, match=re.escape(f"seed must be an integer, got {seed!r}")):
        add_noise(fid, 1e-3, seed)


def test_j_double_modulates_samples():
    fid = lorentzian_fid(1.0, 100.0, 0.5, n=256)
    t = fid.times_s
    once = j_double(fid, 5.0, rounds=1)
    assert np.allclose(once.samples, fid.samples * 2 * np.cos(np.pi * 5.0 * t))
    twice = j_double(fid, 5.0, rounds=2)
    expect = fid.samples * 2 * np.cos(np.pi * 5.0 * t) * 2 * np.cos(np.pi * 10.0 * t)
    assert np.allclose(twice.samples, expect)
    zero = j_double(fid, 5.0, rounds=0)
    assert np.array_equal(zero.samples, fid.samples)


def antiphase_pair_fid(j_hz, fwhm_hz, center_hz=100.0, n=65536, dwell=1 / 1024.0):
    t = np.arange(n) * dwell
    s = 1j * np.sin(np.pi * j_hz * t) * np.exp(2j * np.pi * center_hz * t) \
        * np.exp(-np.pi * fwhm_hz * t)
    return Fid(samples=s, dwell_s=dwell)


def half_multiplet_coverage(splitting_hz, fwhm_hz):
    # each Lorentzian component leaks (1/pi) atan tails across the center;
    # integrating one half of an antiphase pair captures this fraction
    return (2 / math.pi) * math.atan(splitting_hz / fwhm_hz)


@pytest.mark.parametrize("j,w,rounds", [
    (5.0, 2.0, 0), (5.0, 2.0, 4), (5.0, 5.0, 0), (5.0, 5.0, 4),
    (5.0, 3.0, 2),
])
def test_recovery_matches_arctan_oracle(j, w, rounds):
    fid = antiphase_pair_fid(j, w)
    doubled = j_double(fid, j, rounds=rounds)
    spec = fourier(doubled)
    got = integrate(spec, 100.0, 500.0) / 0.5
    expect = half_multiplet_coverage(j * 2 ** rounds, w)
    assert got == pytest.approx(expect, rel=2e-3)


def test_recovery_reference_points():
    assert half_multiplet_coverage(5.0, 2.0) == pytest.approx(
        0.7577621168183132, abs=1e-12)
    assert half_multiplet_coverage(80.0, 2.0) == pytest.approx(
        0.9840878201759484, abs=1e-12)
    assert half_multiplet_coverage(5.0, 5.0) == pytest.approx(0.5, abs=1e-12)


def test_readout_integrals_shape(params):
    vals = readout_integrals(make_singlet(), params, ReadoutConfig())
    assert len(vals) == 4
    assert vals[0] > 0 > vals[1]


def fourier_readout_integrals(rho, params, readout):
    """The readout as it was computed before it became one (4, 16) map:
    selective pulse, FID, J-doubling, transform, four integrals."""
    prepared = apply(selective_pulse(readout.target_spin, params), rho)
    fid = synthesize_fid(prepared, params, readout.n_points, readout.dwell_s)
    fid = j_double(fid, params.j_hz, readout.j_double_rounds)
    return component_integrals(fourier(fid), params)


@pytest.mark.parametrize("n", [4096, 16384])
@pytest.mark.parametrize("rounds", [0, 2, 4])
@pytest.mark.parametrize("target", ["I", "S"])
@pytest.mark.parametrize("delta_nu", [420.0, 500.0, 580.0])
def test_readout_map_matches_fourier_path(delta_nu, target, rounds, n):
    params = SpinSystemParams(delta_nu_hz=delta_nu)
    ro = ReadoutConfig(n_points=n, j_double_rounds=rounds, target_spin=target)
    r = spectro._acquisition_maps(params, ro)[0]
    assert r.shape == (4, 16) and not r.flags.writeable
    bell = [DensityMatrix(np.outer(k, k.conj())) for k in BELL_BASIS.T]
    want = np.column_stack([fourier_readout_integrals(b, params, ro) for b in bell])
    got = spectro._readout_matrix(params, ro)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    rng = np.random.default_rng(int(delta_nu) + 10 * rounds + n)
    for _ in range(20):
        rho = random_density(rng)
        want = fourier_readout_integrals(rho, params, ro)
        got = readout_integrals(rho, params, ro)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("field, value, match", [
    ("n_points", 1000, "power of two"),
    ("n_points", 1, "power of two"),
    ("dwell_s", -1 / 4096, "dwell"),
    ("dwell_s", 0.0, "dwell"),
    ("j_double_rounds", -1, "j_double_rounds"),
    ("target_spin", "X", "target_spin"),
    ("n_points", 16384.0, "n_points must be an integer"),
    ("j_double_rounds", 2.5, "j_double_rounds must be an integer"),
    ("dwell_s", float("inf"), "dwell"),
    # the axis of _integral_map overflowed, with a RuntimeWarning, once
    # readout_integrals read through the config; fourier refuses the same
    ("dwell_s", 5e-324, "frequency axis of 32768 points overflows"),
    ("dwell_s", 1e-310, "frequency axis of 32768 points overflows"),
])
def test_readout_config_refuses_invalid_fields(field, value, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SpectroError, match=match):
            ReadoutConfig(**{field: value})


def test_imbalance_recovers_singlet(params):
    ro = ReadoutConfig()
    pops = imbalance_to_populations(
        readout_integrals(make_singlet(), params, ro), params, ro)
    assert pops.as_tuple() == pytest.approx((1.0, 0.0, 0.0, 0.0), abs=1e-6)


def test_imbalance_recovers_zq_mixture(params):
    ro = ReadoutConfig()
    rho = bell_diagonal(0.5, 0.5, 0.0, 0.0)
    pops = imbalance_to_populations(
        readout_integrals(rho, params, ro), params, ro)
    assert pops.as_tuple() == pytest.approx((0.5, 0.5, 0.0, 0.0), abs=1e-6)


def test_imbalance_recovers_reported_mixture(params):
    ro = ReadoutConfig()
    target = (0.937, 0.045, 0.009, 0.009)
    rho = bell_diagonal(*target)
    pops = imbalance_to_populations(
        readout_integrals(rho, params, ro), params, ro)
    assert pops.as_tuple() == pytest.approx(target, abs=1e-6)


@settings(max_examples=15, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_imbalance_round_trip_random_simplex(a, b, c):
    params = SpinSystemParams()
    total = a + b + c + 1.0
    pops = (a / total, b / total, c / total, 1.0 / total)
    ro = ReadoutConfig(n_points=4096, dwell_s=1 / 4096)
    got = imbalance_to_populations(
        readout_integrals(bell_diagonal(*pops), params, ro), params, ro)
    assert got.as_tuple() == pytest.approx(pops, abs=5e-4)
    assert sum(got.as_tuple()) == pytest.approx(1.0, abs=1e-12)


def test_imbalance_rejects_degenerate_readout():
    # with no resolvable J splitting the four component integrals collapse
    # pairwise and the population map loses rank
    params = SpinSystemParams(j_hz=1e-9)
    ro = ReadoutConfig()
    with pytest.raises(SpectroError, match="degenerate"):
        imbalance_to_populations([0.1, -0.1, -0.1, 0.1], params, ro)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_imbalance_refuses_non_finite_integrals(params, bad):
    # the least-squares populations come out NaN, which BellPopulations refuses
    with pytest.raises(SpectroError, match="inconsistent with any Bell-diagonal state"):
        imbalance_to_populations([bad, 0.0, 0.0, 0.0], params)


def test_calibrate_quoted_ratio(params):
    res = calibrate([77000.0], [1.0], scan_norm=1.0, params=params,
                    max_enhancement=31028.0)
    assert res.raw_ratio == 77000.0
    assert res.corrected_ratio == 77000.0 * 0.368
    assert res.epsilon == pytest.approx(0.9132396545056078, abs=1e-12)


def test_calibrate_default_ceiling_is_2_over_b(params):
    res = calibrate([20000.0], [1.0], scan_norm=1.0, params=params)
    assert res.max_enhancement == pytest.approx(2 / params.b_factor)
    assert res.max_enhancement == pytest.approx(30734.013206908174, abs=1e-6)


def test_calibrate_scan_norm_and_signs(params):
    a = calibrate([100.0, -100.0], [10.0, 10.0], scan_norm=1.0, params=params,
                  max_enhancement=1000.0)
    b = calibrate([100.0, -100.0], [10.0, 10.0], scan_norm=2.0, params=params,
                  max_enhancement=1000.0)
    # magnitudes are summed so antiphase input does not cancel
    assert a.raw_ratio == pytest.approx(10.0)
    assert b.raw_ratio == pytest.approx(20.0)
    assert b.epsilon == pytest.approx(2 * a.epsilon)


def test_calibrate_rejects_unphysical(params):
    with pytest.raises(SpectroError):
        calibrate([1e9], [1.0], scan_norm=1.0, params=params,
                  max_enhancement=31028.0)
    with pytest.raises(SpectroError):
        calibrate([1.0], [0.0], scan_norm=1.0, params=params)


@pytest.mark.parametrize("ph2, thermal", [
    ([1e308, 1e308], [1.0]), ([1.0], [1e308, 1e308]),
    ([np.inf], [1.0]), ([1.0], [np.inf]), ([np.nan], [1.0]), ([1.0], [np.nan]),
])
def test_calibrate_refuses_a_signal_that_is_not_finite(params, ph2, thermal):
    # an overflowing sum is refused without a numpy warning (pytest turns
    # RuntimeWarning into an error); an infinite thermal signal would
    # otherwise calibrate to epsilon 0
    with pytest.raises(SpectroError, match="summed integrals must be finite"):
        calibrate(ph2, thermal, 1.0, params)


def test_calibration_result_dict(params):
    res = dataclasses.replace(calibrate([1000.0], [1.0], scan_norm=1.0, params=params),
                              epsilon_err=0.019)
    d = res.as_dict()
    assert set(d) == {"epsilon", "epsilon_err", "raw_ratio",
                      "corrected_ratio", "max_enhancement"}
    assert d["epsilon_err"] == 0.019
