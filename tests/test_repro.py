import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import count_exp_values
from fid_oracles import antiphase_test_fid, noise_maps, polarized_fid, thermal_fid
from spinpair import repro, spectro
from spinpair.channels import apply, filtration_sequence, hard_pulse
from spinpair.cli import main
from spinpair.repro import (
    antiphase_recovery_fraction,
    format_repro_table,
    measured_recovery,
    paper_repro,
    run_pipeline,
)
from spinpair.spectro import Fid, ReadoutConfig
from spinpair.states import (
    IX,
    IZ,
    SX,
    SZ,
    DensityMatrix,
    SpinSystemParams,
    make_pseudo_pure,
    make_singlet,
    make_thermal,
    to_bell_populations,
)

DATA = Path(__file__).parent / "data"
RESIDUE_ROWS = ("filtration: max off-diagonal residue over 1000 states",
                "filtration: max |pT+1 - pT-1| over 1000 states",
                "population inversion: max deviation from reported fractions",
                "zq dephasing: max deviation from equal S0/T0 mixture")


def polarized_integrals(params, readout, epsilon=0.916):
    """The noise-free selective integrals of run_pipeline's pseudo-singlet."""
    return spectro.readout_integrals(make_pseudo_pure(epsilon, make_singlet()),
                                     params, readout)


def test_fid_builders(params):
    ro = ReadoutConfig(n_points=1024, dwell_s=1 / 4096)
    fp = polarized_fid(params, 0.916, ro)
    ft = thermal_fid(params, ro)
    assert fp.n == ft.n == 1024
    # polarized channel carries order-one signal, thermal carries order-B
    assert np.abs(fp.samples).max() > 1e3 * np.abs(ft.samples).max()


def test_run_pipeline_noise_free(params):
    res = run_pipeline(params, epsilon=0.916, noise_sigma=0.0, n_boot=0)
    assert res.epsilon == pytest.approx(0.916, abs=0.01)
    assert res.epsilon_err == 0.0


def test_run_pipeline_epsilon_scales(params):
    full = run_pipeline(params, epsilon=0.916, n_boot=0).epsilon
    half = run_pipeline(params, epsilon=0.458, n_boot=0).epsilon
    assert half == pytest.approx(full / 2, rel=1e-9)


def test_run_pipeline_bootstrap_deterministic(params):
    a = run_pipeline(params, noise_sigma=1e-4, seed=3, n_boot=20)
    b = run_pipeline(params, noise_sigma=1e-4, seed=3, n_boot=20)
    c = run_pipeline(params, noise_sigma=1e-4, seed=4, n_boot=20)
    # the central value comes from the noise-free synthesis; only the
    # bootstrap spread depends on the seed
    assert a.epsilon == b.epsilon == c.epsilon
    assert a.epsilon_err == b.epsilon_err
    assert a.epsilon_err > 0.0
    assert a.epsilon_err != c.epsilon_err


@pytest.mark.parametrize("noise_sigma, n_boot", [
    (-1.0, 100), (float("nan"), 100), (float("inf"), 100), (1e-3, -5)])
def test_run_pipeline_refuses_bad_noise_inputs(params, noise_sigma, n_boot):
    with pytest.raises(spectro.SpectroError):
        run_pipeline(params, noise_sigma=noise_sigma, n_boot=n_boot)


@pytest.mark.parametrize("n_boot", [float("nan"), 2.5, None, "3", 100.0])
def test_run_pipeline_refuses_a_non_integer_n_boot(params, n_boot):
    with pytest.raises(spectro.SpectroError, match="n_boot must be an integer"):
        run_pipeline(params, noise_sigma=1e-3, n_boot=n_boot)


def test_run_pipeline_epsilon_does_not_depend_on_temperature():
    # the ceiling 1/tanh(B/2) cancels the exact thermal state's
    # polarization at any B; 2/B would scale epsilon by (B/2)/tanh(B/2)
    want = run_pipeline(SpinSystemParams(), n_boot=0).epsilon
    for temp_k in (1.0, 0.1, 1e-2, 1e-3):
        got = run_pipeline(SpinSystemParams(temp_k=temp_k), n_boot=0).epsilon
        assert got == pytest.approx(want, rel=1e-12), temp_k


@pytest.mark.parametrize("temp_k", [295.0, 1e-3])
def test_calibrate_cli_agrees_with_run_pipeline(tmp_path, capsys, temp_k):
    # spinpair calibrate, fed the integrals run_pipeline reads, recovers
    # its epsilon: both take the thermal state's ceiling 1/tanh(B/2). The
    # CLI's old default 2/B was off by (B/2)/tanh(B/2), rel 3.5e-10 at
    # 295 K and a factor 9.6 at 1 mK
    params = SpinSystemParams(temp_k=temp_k, f_active=1.0)
    readout = ReadoutConfig()
    y_p = polarized_integrals(params, readout)
    y_t = spectro.readout_model(params, readout).thermal
    argv = ["calibrate", "--ph2-integrals=" + ",".join(map(repr, y_p.tolist())),
            "--thermal-integrals=" + ",".join(map(repr, y_t.tolist())),
            "--temp-k", repr(temp_k), "--f-active", "1", "--out", str(tmp_path)]
    assert main(argv) == 0
    got = json.loads(capsys.readouterr().out)["epsilon"]
    assert got == pytest.approx(run_pipeline(params).epsilon, rel=1e-12, abs=0)


def test_run_pipeline_refuses_a_b_whose_half_underflows():
    params = SpinSystemParams(nu_hz=1e-290, temp_k=1e23)
    assert params.b_factor > 0 and params.b_factor / 2 == 0
    with pytest.raises(spectro.SpectroError, match="thermal integrals must not be all zero"):
        run_pipeline(params, n_boot=0)


@pytest.mark.parametrize("noise_sigma", [0.0, 1e-3])
def test_run_pipeline_refuses_negative_seed(params, noise_sigma):
    with pytest.raises(spectro.SpectroError, match="seed must be a non-negative integer, got -1"):
        run_pipeline(params, noise_sigma=noise_sigma, seed=-1)


@pytest.mark.parametrize("seed", [1.5, "3"])
def test_run_pipeline_refuses_a_non_integer_seed(params, seed):
    with pytest.raises(spectro.SpectroError, match="seed must be an integer"):
        run_pipeline(params, noise_sigma=1e-3, n_boot=2, seed=seed)


def test_run_pipeline_takes_a_seed_sequence(params):
    got = run_pipeline(params, noise_sigma=1e-3, n_boot=4, seed=np.random.SeedSequence(3))
    assert got == run_pipeline(params, noise_sigma=1e-3, n_boot=4, seed=3)


def test_run_pipeline_refuses_one_noisy_replicate(params):
    # one replicate has no spread: epsilon_err 0.0 would read as a
    # noise-free measurement
    with pytest.raises(spectro.SpectroError, match="n_boot = 1 has no spread"):
        run_pipeline(params, noise_sigma=1e-3, n_boot=1)


def test_run_pipeline_refuses_an_overflowing_noise_sigma_without_warning(params):
    # the replicate integrals overflowed and epsilon_err came out NaN, with
    # overflow and invalid-value warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(spectro.SpectroError, match="overflows the replicate signals"):
            run_pipeline(params, noise_sigma=1e308, n_boot=4)


@pytest.mark.parametrize("noise_sigma, n_boot", [(0.0, 100), (1e-3, 0), (0.0, 1)])
def test_run_pipeline_zero_noise_or_replicates_is_noise_free(params, noise_sigma, n_boot):
    res = run_pipeline(params, noise_sigma=noise_sigma, n_boot=n_boot)
    assert res == run_pipeline(params, n_boot=0)
    assert res.epsilon_err == 0.0
    model = spectro.readout_model(params, ReadoutConfig())
    signals = model.replicate_signals(model.thermal, noise_sigma, 0, n_boot)
    assert [s.shape for s in signals] == [(0,), (0,)]


def complex_gram_factors(params, readout):
    """Cholesky factors of Re(W W^H) for the two noise maps, formed as
    run_pipeline formed them before its real Gram products: a complex
    GEMM on W and its conjugate copy, the imaginary half dropped."""
    return tuple(np.linalg.cholesky((w @ w.conj().T).real)
                 for w in noise_maps(params, readout))


@pytest.mark.parametrize("readout", [
    ReadoutConfig(), ReadoutConfig(n_points=4096, j_double_rounds=3, target_spin="S")])
def test_noise_factors_match_complex_gram_oracle(params, readout):
    for got, want in zip(spectro.readout_model(params, readout).noise_factors(),
                         complex_gram_factors(params, readout), strict=True):
        assert np.array_equal(got, np.tril(got))
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_noise_law_reads_the_maps_the_readout_holds(params, monkeypatch):
    # the Readout holds its two sample maps: once it is built, neither its
    # noise factors nor a noisy run_pipeline rebuilds a map or a modulation
    ro = ReadoutConfig(n_points=4096, j_double_rounds=3)
    model = spectro.readout_model(params, ro)
    want_factors = model.noise_factors()
    want = dataclasses.astuple(run_pipeline(params, 0.916, 1e-3, 3, 100, ro))

    def refuse(*args, **kwargs):
        raise AssertionError("the noise law rebuilt a sample map")

    for name in ("_integral_map", "_readout_modulation", "_j_modulation"):
        monkeypatch.setattr(spectro, name, refuse)
    for got, factor in zip(model.noise_factors(), want_factors, strict=True):
        assert np.array_equal(got, factor)
    got = dataclasses.astuple(run_pipeline(params, 0.916, 1e-3, 3, 100, ro))
    assert np.array_equal(got, want) and want[1] > 0


def uncached_run_pipeline(params, epsilon, noise_sigma, seed, n_boot, readout):
    """(epsilon, epsilon_err) of run_pipeline with nothing cached: the
    thermal acquisition map, its read of the exact thermal state's
    traceless part and both Cholesky factors, from complex Gram
    matrices, built on every call."""
    cal_params = dataclasses.replace(params, f_active=1.0)
    y_p = spectro.readout_integrals(make_pseudo_pure(epsilon, make_singlet()),
                                    params, readout)
    w_t = spectro._integral_map(spectro.component_regions(params),
                                readout.n_points, readout.dwell_s)
    a_t, = spectro._acquisition_map(params, ((hard_pulse(90.0, 90.0).superop, w_t),),
                                    readout.dwell_s)
    t = math.tanh(params.b_factor / 2)
    y_t = (a_t @ ((t / 2) * (IZ + SZ) + t ** 2 * (IZ @ SZ)).ravel()).real
    result = spectro.calibrate(y_p, y_t, scan_norm=1.0, params=cal_params,
                               max_enhancement=1 / t)
    err = 0.0
    if noise_sigma > 0 and n_boot > 0:
        z = np.random.default_rng(seed).standard_normal((n_boot, 2, 4))
        ph2, th = (y + noise_sigma * zc @ lo.T
                   for y, lo, zc in zip((y_p, y_t), complex_gram_factors(params, readout),
                                        (z[:, 0], z[:, 1])))
        reps = np.abs(ph2).sum(axis=1) / np.abs(th).sum(axis=1) / result.max_enhancement
        err = float(np.std(reps, ddof=1)) if n_boot > 1 else 0.0
    return result.epsilon, err


@pytest.mark.parametrize("epsilon, sigma, seed, n_boot", [
    (0.916, 0.0, 0, 100), (0.8, 0.01, 5, 100), (0.6, 1e-4, 3, 20), (0.3, 2e-2, 12345, 100)])
def test_run_pipeline_matches_uncached_oracle(params, epsilon, sigma, seed, n_boot):
    ro = ReadoutConfig()
    want = uncached_run_pipeline(params, epsilon, sigma, seed, n_boot, ro)
    # the factors come from real Gram products V V^T, the oracle's from
    # complex ones: the same matrices up to the last digit
    for _ in range(2):  # the first call may fill the caches, the second reads them
        got = run_pipeline(params, epsilon, sigma, seed, n_boot, ro)
        assert got.epsilon == want[0]
        assert got.epsilon_err == pytest.approx(want[1], rel=1e-14, abs=0)


@pytest.mark.parametrize("sigma", [1e-4, 1e-3])
@pytest.mark.parametrize("seed", [0, 7])
def test_run_pipeline_estimator_matches_its_two_former_copies(params, seed, sigma):
    # calibrate and the replicates read one abs-sum signal; epsilon and
    # epsilon_err equal, bit for bit, the two copies of it they replaced.
    # The replicates follow replicate_signals' law and stream layout:
    # y + sigma * z @ L.T, the polarized channel on z[:, 0], the thermal on z[:, 1]
    ro = ReadoutConfig()
    model = spectro.readout_model(params, ro)
    y_p, y_t = polarized_integrals(params, ro), model.thermal
    ceiling = 1 / math.tanh(params.b_factor / 2)
    z = np.random.default_rng(seed).standard_normal((100, 2, 4))
    ph2, th = (y + sigma * zc @ lo.T for y, lo, zc in zip(
        (y_p, y_t), model.noise_factors(), (z[:, 0], z[:, 1])))
    reps = np.abs(ph2).sum(axis=1) / np.abs(th).sum(axis=1) / ceiling
    got = run_pipeline(params, 0.916, sigma, seed, 100, ro)
    assert got.epsilon == float(np.abs(y_p).sum()) * 1.0 / float(np.abs(y_t).sum()) / ceiling
    assert got.epsilon_err == float(np.std(reps, ddof=1))


def test_warm_run_pipeline_synthesizes_no_fid(monkeypatch):
    # a (params, readout) pair no other test uses, so the first calls are
    # cold; neither they nor the warm ones may build an FID
    def refuse(*args, **kwargs):
        raise AssertionError("a run_pipeline call built an FID or applied a channel")

    monkeypatch.setattr(spectro, "synthesize_fid", refuse)
    monkeypatch.setattr(repro, "apply", refuse)
    params = SpinSystemParams(delta_nu_hz=511.0)
    ro = ReadoutConfig(n_points=4096, j_double_rounds=3)
    calls = [(0.916, 0.0, 0, 0), (0.8, 1e-3, 5, 50), (0.6, 0.0, 0, 100)]
    cold = [run_pipeline(params, *args, readout=ro) for args in calls]
    warm = [run_pipeline(params, *args, readout=ro) for args in calls]
    assert warm == cold


@pytest.fixture
def fid_mode_builds(monkeypatch):
    """Records the arguments of every spectro._fid_modes call, with the
    acquisition caches emptied first so that the next call is cold."""
    calls = []
    build = spectro._fid_modes

    def recording(*args):
        calls.append(args)
        return build(*args)

    spectro.readout_model.cache_clear()
    monkeypatch.setattr(spectro, "_fid_modes", recording)
    return calls


def test_cold_run_pipeline_builds_the_fid_modes_once(fid_mode_builds):
    params = SpinSystemParams(delta_nu_hz=437.0)
    ro = ReadoutConfig()
    cold = run_pipeline(params, noise_sigma=1e-3, n_boot=20, readout=ro)
    assert fid_mode_builds == [(params, ro.n_points, ro.dwell_s)]
    warm = run_pipeline(params, noise_sigma=1e-3, n_boot=20, readout=ro)
    assert len(fid_mode_builds) == 1
    assert warm == cold


def test_cold_paper_repro_builds_the_fid_modes_once(fid_mode_builds):
    paper_repro(SpinSystemParams(delta_nu_hz=463.0), n_random_states=10)
    assert len(fid_mode_builds) == 1


@pytest.mark.parametrize("n", [1024, 4096, 16384])
@pytest.mark.parametrize("delta_nu", [300.0, 420.0, 492.0, 511.0, 580.0])
def test_thermal_integrals_match_exact_reference(delta_nu, n):
    # the exact Boltzmann state is (1 + t 2Iz)(1 + t 2Sz)/4 with
    # t = tanh(B/2), and an exact 90 about +y turns each z into an x
    params = SpinSystemParams(delta_nu_hz=delta_nu)
    ro = ReadoutConfig(n_points=n)
    t = np.tanh(params.b_factor / 2)
    exact = np.eye(4) / 4 + (t / 2) * (IX + SX) + t ** 2 * (IX @ SX)
    pulsed = apply(hard_pulse(90.0, 90.0), make_thermal(params, mode="exact"))
    assert np.abs(pulsed.matrix - exact).max() <= 1e-15
    w_t = spectro._integral_map(spectro.component_regions(params), n, ro.dwell_s)
    ref = (w_t @ spectro.synthesize_fid(DensityMatrix(exact), params, n,
                                        ro.dwell_s).samples).real

    def rel(y):
        return np.abs(y - ref).max() / np.abs(ref).max()

    got = rel(spectro.readout_model(params, ro).thermal)
    # the FID of the pulsed state carries the identity leak of the pulse
    oracle = rel((w_t @ thermal_fid(params, ro).samples).real)
    assert got <= 1e-14
    assert got <= oracle / 10, (got, oracle)


def test_cached_thermal_integrals_are_read_only(params):
    ro = ReadoutConfig(n_points=1024)
    run_pipeline(params, readout=ro)
    cached = spectro.readout_model(params, ro).thermal
    with pytest.raises(ValueError):
        cached[0] = 1.0


def test_run_pipeline_noise_streams_independent_across_seeds(params):
    # every replicate draws its own normals on every channel, over two seeds
    ro = ReadoutConfig(n_points=4096)
    model = spectro.readout_model(params, ro)
    y_p = polarized_integrals(params, ro)
    signals = [s for seed in (0, 2) for s in model.replicate_signals(y_p, 1e-3, seed, 4)]
    assert [s.shape for s in signals] == [(4,)] * 4
    assert len(set(np.concatenate(signals).tolist())) == 16


def test_run_pipeline_replicates_do_not_depend_on_n_boot(params):
    model = spectro.readout_model(params, ReadoutConfig())
    y_p = polarized_integrals(params, ReadoutConfig())
    short = model.replicate_signals(y_p, 2e-3, 7, 20)
    long = model.replicate_signals(y_p, 2e-3, 7, 100)
    for a, b in zip(short, long, strict=True):
        assert a.shape == (20,) and b.shape == (100,)
        assert np.array_equal(a, b[:20])


def test_run_pipeline_bootstrap_keeps_replicates_past_epsilon_one(params, monkeypatch):
    # scaling the first replicate's polarized signal by 1.6 calibrates it
    # well past epsilon = 1; it widens the spread instead of aborting the run
    def replicate_signals(model, y_p, sigma, seed, n_boot):
        return np.abs(y_p).sum() * np.array([1.6, 1.0]), np.abs(model.thermal).sum() * np.ones(2)

    monkeypatch.setattr(spectro.Readout, "replicate_signals", replicate_signals)
    res = run_pipeline(params, noise_sigma=1e-4, n_boot=2,
                       readout=ReadoutConfig(n_points=4096))
    assert res.epsilon_err == pytest.approx(0.6 * res.epsilon / np.sqrt(2), rel=1e-9)


def test_noisy_integrals_factor_the_gram_matrix(params):
    # the factors replicate_signals draws the noisy integrals with, polarized then thermal
    maps = noise_maps(params, ReadoutConfig())
    for lo, w in zip(spectro.readout_model(params, ReadoutConfig()).noise_factors(), maps,
                     strict=True):
        gram = w.real @ w.real.T + w.imag @ w.imag.T
        assert np.array_equal(lo, np.tril(lo))
        assert np.abs(lo @ lo.T - gram).max() <= 1e-12 * np.abs(gram).max()


def test_integral_noise_law_matches_time_domain_draws(params):
    # K add_noise draws at 1024 points; their integrals Re(W @ noise),
    # whitened by the factor L, must have sample mean 0 and sample
    # covariance I. The standard error of a whitened sample mean is
    # 1/sqrt(K), of a sample variance sqrt(2/K) and of a sample covariance
    # 1/sqrt(K), so every entry is held to 5 * sqrt(2/K) = 0.129
    k, sigma = 3000, 1e-3
    ro = ReadoutConfig(n_points=1024)
    zero = Fid(samples=np.zeros(1024), dwell_s=ro.dwell_s)
    noise = np.array([spectro.add_noise(zero, sigma, seed).samples for seed in range(k)])
    tol = 5 * np.sqrt(2 / k)
    maps = noise_maps(params, ro)
    for lo, w in zip(spectro.readout_model(params, ro).noise_factors(), maps, strict=True):
        white = np.linalg.solve(sigma * lo, (noise @ w.T).real.T).T
        assert np.abs(white.mean(axis=0)).max() <= tol
        assert np.abs(np.cov(white, rowvar=False) - np.eye(4)).max() <= tol


def fourier_path_epsilon_err(params, epsilon, sigma, seed, n_boot, readout):
    """Reference bootstrap spread: every replicate adds time-domain noise to
    both FIDs, then J-doubles, transforms and integrates them, as
    run_pipeline did before it drew the integrals from their Gaussian law."""
    fid_p = polarized_fid(params, epsilon, readout)
    fid_t = thermal_fid(params, readout)
    streams = np.random.SeedSequence(seed).spawn(2 * n_boot)
    reps = []
    for sp, st in zip(streams[::2], streams[1::2]):
        doubled = spectro.j_double(spectro.add_noise(fid_p, sigma, sp),
                                   params.j_hz, readout.j_double_rounds)
        ph2 = spectro.component_integrals(spectro.fourier(doubled), params)
        th = spectro.component_integrals(
            spectro.fourier(spectro.add_noise(fid_t, sigma, st)), params)
        reps.append(np.abs(ph2).sum() / np.abs(th).sum() * np.tanh(params.b_factor / 2))
    return float(np.std(reps, ddof=1))


@pytest.mark.parametrize("epsilon, sigma, seed", [
    (0.916, 1e-4, 3), (0.6, 2e-3, 11), (0.3, 2e-2, 12345)])
def test_run_pipeline_bootstrap_matches_fourier_path(params, epsilon, sigma, seed):
    ro = ReadoutConfig()
    y_p = polarized_integrals(params, ro, epsilon)
    y_t = spectro.readout_model(params, ro).thermal
    w_p, w_t = noise_maps(params, ro)
    # exact: the integrals of fid + n are y + Re(W n) for the same noise n
    sp, st = np.random.SeedSequence(seed).spawn(2)
    for fid, y, w, stream, rounds in (
            (polarized_fid(params, epsilon, ro), y_p, w_p, sp, ro.j_double_rounds),
            (thermal_fid(params, ro), y_t, w_t, st, 0)):
        noisy = spectro.add_noise(fid, sigma, stream)
        got = y + (w @ (noisy.samples - fid.samples)).real
        if rounds:
            noisy = spectro.j_double(noisy, params.j_hz, rounds)
        want = spectro.component_integrals(spectro.fourier(noisy), params)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_run_pipeline_bootstrap_spread_matches_fourier_path(params):
    # statistical: the spread of n_f = 400 time-domain replicates against
    # the spread of n_i = 20000 replicates drawn from the law, at 1024
    # points. The standard error of a sample standard deviation s over n
    # draws with kurtosis kappa is s * sqrt((kappa - 1) / (4 n)); kappa is
    # taken from the law's replicates, and the two spreads must agree
    # within 4 standard errors of their difference
    ro = ReadoutConfig(n_points=1024)
    n_f, n_i = 400, 20000
    for epsilon, sigma, seed in ((0.916, 1e-5, 5), (0.6, 2e-3, 11)):
        got = run_pipeline(params, epsilon=epsilon, noise_sigma=sigma, seed=seed,
                           n_boot=n_i, readout=ro)
        sig_p, sig_t = spectro.readout_model(params, ro).replicate_signals(
            polarized_integrals(params, ro, epsilon), sigma, seed, n_i)
        reps = sig_p / sig_t / got.max_enhancement
        assert got.epsilon_err == float(np.std(reps, ddof=1))
        kappa = np.mean((reps - reps.mean()) ** 4) / reps.var() ** 2
        se = got.epsilon_err * np.sqrt((kappa - 1) / 4 * (1 / n_f + 1 / n_i))
        want = fourier_path_epsilon_err(params, epsilon, sigma, seed, n_f, ro)
        assert abs(got.epsilon_err - want) <= 4 * se, (epsilon, sigma, kappa)


@pytest.mark.parametrize("n, dwell_s", [(16384, 1 / 4096), (1024, 1 / 2048), (64, 1 / 1024),
                                        (65536, 1 / 1024)])
def test_integral_map_matches_fourier_then_integrate(params, n, dwell_s):
    # the component regions of run_pipeline, the one region of
    # measured_recovery and the 100 Hz region of its oracles
    for regions in (spectro.component_regions(params), ((0.0, 400.0),), ((100.0, 500.0),)):
        w = spectro._integral_map(regions, n, dwell_s)
        assert w.shape == (len(regions), n)
        assert not w.flags.writeable
        rng = np.random.default_rng(n)
        for _ in range(5):
            fid = Fid(samples=rng.normal(size=n) + 1j * rng.normal(size=n),
                      dwell_s=dwell_s)
            spec = spectro.fourier(fid)
            want = np.array([spectro.integrate(spec, lo, hi) for lo, hi in regions])
            assert np.abs((w @ fid.samples).real - want).max() <= 1e-12 * np.abs(want).max()


def test_integral_map_rejects_regions_outside_axis(params):
    # a 600 Hz spectral window cannot hold the regions out to 1.5 * 246 Hz
    spec = spectro.fourier(Fid(samples=np.ones(1024), dwell_s=1 / 600))
    with pytest.raises(spectro.SpectroError, match="outside axis") as ref:
        spectro.component_integrals(spec, params)
    with pytest.raises(spectro.SpectroError) as got:
        spectro._integral_map(spectro.component_regions(params), 1024, 1 / 600)
    assert str(got.value) == str(ref.value)


def test_recovery_helpers_agree():
    got = measured_recovery(5.0, 2.0, rounds=0)
    want = antiphase_recovery_fraction(5.0, 2.0)
    assert got == pytest.approx(want, rel=2e-3)
    assert antiphase_recovery_fraction(5.0, 2.0) == pytest.approx(
        0.7577621168183132, abs=1e-12)


def test_measured_recovery_broadcasts_over_widths():
    widths = np.array([[0.6, 0.8, 1.0], [0.2, 1.5, 3.0]]) * 5.0
    for rounds in (0, 1, 4):
        got = measured_recovery(5.0, widths, rounds)
        assert got.shape == widths.shape
        want = [[measured_recovery(5.0, w, rounds) for w in row] for row in widths]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def fid_path_epsilon(params, epsilon, readout):
    """Noise-free run_pipeline as it read the polarized channel: the
    pulsed FID, then the component map times the J-doubling of ones. The
    thermal reference is the FID of the exact thermal state after an exact
    90 about +y, I/4 + (t/2)(Ix + Sx) + t^2 IxSx with t = tanh(B/2), built
    with no pulse and so with no identity leak, and the ceiling is 1/t."""
    w_t = spectro._integral_map(spectro.component_regions(params),
                                readout.n_points, readout.dwell_s)
    ones = Fid(samples=np.ones(readout.n_points), dwell_s=readout.dwell_s)
    w_p = w_t * spectro.j_double(ones, params.j_hz, readout.j_double_rounds).samples
    y_p = (w_p @ polarized_fid(params, epsilon, readout).samples).real
    t = np.tanh(params.b_factor / 2)
    pulsed = DensityMatrix(np.eye(4) / 4 + (t / 2) * (IX + SX) + t ** 2 * (IX @ SX))
    y_t = (w_t @ spectro.synthesize_fid(pulsed, params, readout.n_points,
                                        readout.dwell_s).samples).real
    cal_params = dataclasses.replace(params, f_active=1.0)
    return spectro.calibrate(y_p, y_t, scan_norm=1.0, params=cal_params,
                             max_enhancement=1 / t).epsilon


@pytest.mark.parametrize("delta_nu, epsilon, readout", [
    (492.0, 0.916, ReadoutConfig()),
    (420.0, 0.6, ReadoutConfig(n_points=4096, j_double_rounds=2)),
    (580.0, 0.3, ReadoutConfig(target_spin="S", j_double_rounds=0)),
])
def test_run_pipeline_matches_fid_path(delta_nu, epsilon, readout):
    params = SpinSystemParams(delta_nu_hz=delta_nu)
    got = run_pipeline(params, epsilon=epsilon, n_boot=0, readout=readout).epsilon
    assert got == pytest.approx(fid_path_epsilon(params, epsilon, readout), rel=1e-14)


def test_paper_repro_rows_and_formatting(params):
    rows, ok = paper_repro(params, n_random_states=50)
    assert ok
    names = [r["name"] for r in rows]
    assert len(names) == len(set(names))  # no duplicate row labels
    table = format_repro_table(rows)
    assert table.count("PASS") == len(rows)
    assert f"{len(rows)}/{len(rows)} rows pass" in table


def test_paper_repro_flags_wrong_volume_fraction():
    rows, ok = paper_repro(SpinSystemParams(f_active=0.5), n_random_states=50)
    assert not ok
    failed = [r["name"] for r in rows if not r["pass"]]
    assert failed and all("polarization" in n for n in failed)
    table = format_repro_table(rows)
    assert "FAIL" in table


def looped_filtration_sweep(params, n, seed):
    """The filtration sweep as paper_repro ran it, one state at a time:
    draw, DensityMatrix, apply, to_bell_populations. Returns the states
    and the two residues."""
    filt = filtration_sequence(params)
    rng = np.random.default_rng(seed)
    states = []
    max_off = max_imb = 0.0
    for _ in range(n):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = a @ a.conj().T
        states.append(DensityMatrix(m / m.trace()))
        pops = to_bell_populations(apply(filt, states[-1]))
        max_off = max(max_off, pops.offBell)
        max_imb = max(max_imb, abs(pops.pTplus - pops.pTminus))
    return states, (max_off, max_imb)


@pytest.mark.parametrize("n, seed", [(1000, 20260819), (37, 5), (0, 1)])
def test_filtration_sweep_matches_per_state_loop(params, n, seed, monkeypatch):
    # the residues are rounding noise whatever the states, so the states
    # the sweep draws are compared as well
    stacks = []

    def recording_apply(program, rho):
        if isinstance(rho, np.ndarray):
            stacks.append(rho)
        return apply(program, rho)

    monkeypatch.setattr(repro, "apply", recording_apply)
    rows, _ = paper_repro(params, n_random_states=n, rng_seed=seed)
    got = [r["value"] for r in rows if r["name"].startswith("filtration: max")]
    states, want = looped_filtration_sweep(params, n, seed)
    assert len(got) == 2
    assert np.abs(np.subtract(got, want)).max() <= 1e-14
    assert len(stacks) == 1 and stacks[0].shape == (n, 4, 4)
    if n:
        assert np.abs(stacks[0] - [rho.matrix for rho in states]).max() <= 1e-15


def fourier_recovery(j_hz, fwhm_hz, rounds):
    """measured_recovery through the transform and the trapezoid integral."""
    fid = antiphase_test_fid(j_hz, fwhm_hz, 100.0)
    if rounds:
        fid = spectro.j_double(fid, j_hz, rounds)
    return spectro.integrate(spectro.fourier(fid), 100.0, 500.0) / 0.5


@pytest.mark.parametrize("rounds", range(5))
def test_measured_recovery_matches_fourier_then_integrate(rounds):
    for w in (0.6, 0.8, 1.0):
        got = measured_recovery(5.0, w * 5.0, rounds)
        assert type(got) is float
        assert got == pytest.approx(fourier_recovery(5.0, w * 5.0, rounds), rel=1e-12)


def doubled_fid_recovery(j_hz, fwhm_hz, rounds):
    """measured_recovery as it read before the doubling identity: the
    integral map times the undamped test FID, times the doubling
    modulation, then one envelope and one dot product per width."""
    center, n, dwell_s = 100.0, 65536, 1.0 / 1024.0
    w = spectro._integral_map(((center, center + 400.0),), n, dwell_s)[0]
    g = (w * antiphase_test_fid(j_hz, 0.0, center, n, dwell_s).samples).real.copy()
    t = np.arange(n) * dwell_s
    g *= spectro._j_modulation(j_hz, rounds, t)
    out = np.array([g @ np.exp(-np.pi * f * t) for f in np.ravel(fwhm_hz)]) / 0.5
    return float(out[0]) if np.ndim(fwhm_hz) == 0 else out.reshape(np.shape(fwhm_hz))


@pytest.mark.parametrize("rounds", range(6))
@pytest.mark.parametrize("j_hz", [2.0, 5.0, 7.3])
def test_measured_recovery_matches_doubled_fid_oracle(j_hz, rounds):
    widths = np.linspace(0.3, 2.0, 7) * j_hz
    got = measured_recovery(j_hz, widths, rounds)
    want = doubled_fid_recovery(j_hz, widths, rounds)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # R rounds on splitting J are no rounds on splitting 2^R J
    assert got == pytest.approx(measured_recovery(2 ** rounds * j_hz, widths, 0), rel=1e-12)


def test_measured_recovery_builds_no_fid_and_no_modulation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("measured_recovery must not build this")

    widths = np.array([3.0, 5.0])
    want = [doubled_fid_recovery(5.0, widths, rounds) for rounds in (0, 4)]
    monkeypatch.setattr(spectro, "_j_modulation", refuse)
    got = [measured_recovery(5.0, widths, rounds) for rounds in (0, 4)]
    assert np.abs(np.subtract(got, want)).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("rounds", [0, 4])
def test_measured_recovery_takes_no_sine_and_two_root_n_exponentials_per_width(
        monkeypatch, rounds):
    widths = np.array([3.0, 4.0, 5.0, 0.0])
    want = measured_recovery(5.0, widths, rounds)  # also builds the carrier

    def refuse(*args, **kwargs):
        raise AssertionError("measured_recovery took a sine")

    monkeypatch.setattr(np, "sin", refuse)
    sizes = count_exp_values(monkeypatch)
    got = measured_recovery(5.0, widths, rounds)
    # b = 256 for the 65536-point recovery: tables of 256 + 256 per width
    assert sum(sizes) <= 2 * 256 * len(widths)
    assert np.array_equal(got, want)


def test_recovery_carrier_is_read_only_and_cached():
    measured_recovery(5.0, 4.0, 1)
    c = spectro._recovery_carrier(65536, 1.0 / 1024.0)
    assert c.dtype == float and c.shape == (65536,)
    assert not c.flags.writeable
    assert spectro._recovery_carrier(65536, 1.0 / 1024.0) is c
    with pytest.raises(ValueError):
        c[0] = 1.0


def test_recovery_carrier_is_the_100_hz_carrier_shifted_to_the_origin(monkeypatch):
    # the carrier as it was built: the [100, 500] Hz row times the 100 Hz
    # phase on the time axis; 100 Hz is 12800 bins of the 1/128 Hz axis
    n, dwell_s = 65536, 1.0 / 1024.0
    w = spectro._integral_map(((100.0, 500.0),), n, dwell_s)[0]
    want = -(w * np.exp(2j * np.pi * 100.0 * np.arange(n) * dwell_s)).imag
    spectro._recovery_carrier.cache_clear()

    ranges, arange = [], np.arange

    def recording(*args, **kwargs):
        ranges.append(args)
        return arange(*args, **kwargs)

    sizes = count_exp_values(monkeypatch)
    monkeypatch.setattr(np, "arange", recording)
    got = spectro._recovery_carrier(n, dwell_s)
    monkeypatch.undo()
    # no time axis, and only _integral_map's root-of-unity tables: three
    # of 256 + 256 values
    assert (n,) not in ranges
    assert sum(sizes) <= 3 * 2 * 256
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_measured_recovery_is_spectros():
    assert repro.measured_recovery is spectro.measured_recovery


def test_measured_recovery_refuses_rounds_whose_doubled_j_overflows():
    # 5.0 * 2 ** 1100 raised a bare OverflowError; at 1020 rounds the
    # phase overflowed and sin gave NaN behind a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rounds in (1020, 1100):
            with pytest.raises(spectro.SpectroError, match="J-doubling overflows"):
                measured_recovery(5.0, 3.0, rounds)


def test_measured_recovery_refuses_bad_rounds():
    with pytest.raises(spectro.SpectroError, match="rounds must be >= 0"):
        measured_recovery(5.0, 4.0, -1)
    # j_double's rule: a float, even 2.0, is not an integer number of rounds
    for rounds in (1.5, 2.0):
        with pytest.raises(spectro.SpectroError, match="rounds must be an integer"):
            measured_recovery(5.0, 4.0, rounds)
        with pytest.raises(spectro.SpectroError, match="rounds must be an integer"):
            spectro.j_double(Fid(samples=np.ones(8), dwell_s=1.0), 5.0, rounds)
    assert measured_recovery(5.0, 4.0, np.int64(2)) == measured_recovery(5.0, 4.0, 2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fwhm", [-100.0, math.inf, math.nan])
def test_measured_recovery_refuses_a_width_that_is_negative_or_not_finite(fwhm):
    # each returned NaN, after an overflow or invalid-value warning or none
    for widths in (fwhm, np.array([2.0, fwhm])):
        with pytest.raises(spectro.SpectroError, match="width must be finite and >= 0"):
            measured_recovery(5.0, widths, 0)
    assert measured_recovery(5.0, 0.0, 0) == measured_recovery(5.0, -0.0, 0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("widths", [1e306, 1e308, np.array([3.0, 1e306])])
def test_measured_recovery_refuses_a_width_whose_decay_overflows(widths):
    # 1e306 returned 0.0 after an overflow in the power tables, and 1e308
    # NaN after an overflow and an invalid value
    with pytest.raises(spectro.SpectroError, match="decay over 65536 points overflows"):
        measured_recovery(5.0, widths, 0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("j_hz", [math.nan, -5.0, 0.0])
def test_measured_recovery_refuses_a_j_that_is_not_positive_and_finite(j_hz):
    # NaN gave NaN and -5 gave -0.976, silently: the overflow check read
    # max(1, |J|), which is 1 for NaN; j_double refused both already
    with pytest.raises(spectro.SpectroError, match="apparent J must be positive and finite"):
        measured_recovery(j_hz, 3.0, 4)


@pytest.mark.parametrize("golden, argv", [
    ("paper_repro.json", []),
    ("paper_repro_420.json", ["--delta-nu-hz", "420"]),
    ("paper_repro_580.json", ["--delta-nu-hz", "580"]),
], ids=["default", "420", "580"])
def test_paper_repro_matches_recorded_table(tmp_path, capsys, golden, argv):
    # paper_repro_420.json and paper_repro_580.json are `spinpair
    # paper-repro` at the ends of the delta_nu range the benchmark draws
    # from, recorded before the integral maps were written in closed form
    # and before the sample maps met the FID modes through their tables.
    # tests/data/paper_repro.json is `spinpair paper-repro` at the default
    # parameters, recorded before the grid, the sweep and the recoveries
    # were batched and before the readout became one (4, 16) map, except
    # the end-to-end polarization, recorded once the thermal reference
    # was read from the exact state's traceless part and calibrated
    # against that state's ceiling 1/tanh(B/2), and the two thermal
    # readout rows, recorded once the exact state became the only thermal
    # state (value and reference tanh(B/2)/2 moved by rel 3.5e-10); the two
    # filtration residues, the inversion residual and the zq-dephasing
    # deviation are rounding noise, pinned absolutely
    assert main(["paper-repro", *argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    got = json.loads((tmp_path / "paper_repro.json").read_text(encoding="utf-8"))
    want = json.loads((DATA / golden).read_text(encoding="utf-8"))
    assert got["all_pass"] is want["all_pass"] is True
    assert [r["name"] for r in got["rows"]] == [r["name"] for r in want["rows"]]
    for g, w in zip(got["rows"], want["rows"]):
        assert {k: v for k, v in g.items() if k != "value"} == \
            {k: v for k, v in w.items() if k != "value"}, g["name"]
        if g["name"] in RESIDUE_ROWS:
            assert abs(g["value"] - w["value"]) <= 1e-14
        elif isinstance(w["value"], str):
            assert g["value"] == w["value"]
        else:
            assert g["value"] == pytest.approx(w["value"], rel=1e-12, abs=0), g["name"]
