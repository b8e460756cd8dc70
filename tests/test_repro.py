import numpy as np
import pytest

from spinpair import spectro
from spinpair.repro import (
    antiphase_recovery_fraction,
    format_repro_table,
    measured_recovery,
    paper_repro,
    polarized_fid,
    run_pipeline,
    thermal_fid,
)
from spinpair.spectro import Fid, ReadoutConfig
from spinpair.states import SpinSystemParams


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


def test_run_pipeline_noise_streams_independent_across_seeds(params, monkeypatch):
    noises = []
    real_add_noise = spectro.add_noise

    def recording_add_noise(fid, sigma, seed):
        noisy = real_add_noise(fid, sigma, seed)
        noises.append((noisy.samples - fid.samples).tobytes())
        return noisy

    monkeypatch.setattr(spectro, "add_noise", recording_add_noise)
    ro = ReadoutConfig(n_points=4096)
    for seed in (0, 2):
        run_pipeline(params, noise_sigma=1e-3, seed=seed, n_boot=4, readout=ro)
    assert len(noises) == 16
    assert len(set(noises)) == len(noises)


def test_run_pipeline_bootstrap_keeps_replicates_past_epsilon_one(params, monkeypatch):
    # scaling the first replicate's polarized signal by 1.6 calibrates it
    # well past epsilon = 1; it widens the spread instead of aborting the run
    scales = iter([1.6, 1.0, 1.0, 1.0])
    monkeypatch.setattr(spectro, "add_noise", lambda fid, sigma, seed:
                        Fid(samples=fid.samples * next(scales), dwell_s=fid.dwell_s))
    res = run_pipeline(params, noise_sigma=1e-4, n_boot=2,
                       readout=ReadoutConfig(n_points=4096))
    assert res.epsilon_err == pytest.approx(0.6 * res.epsilon / np.sqrt(2), rel=1e-9)


def fourier_path_epsilon_err(params, epsilon, sigma, seed, n_boot, readout):
    """Reference bootstrap spread: every replicate J-doubles, transforms and
    integrates its own noisy FIDs, as run_pipeline did before it folded
    those steps into one linear map."""
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
        reps.append(np.abs(ph2).sum() / np.abs(th).sum() * params.b_factor / 2)
    return float(np.std(reps, ddof=1))


@pytest.mark.parametrize("epsilon, sigma, seed", [
    (0.916, 1e-4, 3), (0.6, 2e-3, 11), (0.3, 2e-2, 12345)])
def test_run_pipeline_bootstrap_matches_fourier_path(params, epsilon, sigma, seed):
    ro = ReadoutConfig()
    got = run_pipeline(params, epsilon=epsilon, noise_sigma=sigma, seed=seed,
                       n_boot=20, readout=ro).epsilon_err
    want = fourier_path_epsilon_err(params, epsilon, sigma, seed, 20, ro)
    assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("n, dwell_s", [(16384, 1 / 4096), (1024, 1 / 2048), (64, 1 / 1024)])
def test_integral_map_matches_fourier_then_integrate(params, n, dwell_s):
    w = spectro._integral_map(params, n, dwell_s)
    assert w.shape == (4, n)
    rng = np.random.default_rng(n)
    for _ in range(5):
        fid = Fid(samples=rng.normal(size=n) + 1j * rng.normal(size=n), dwell_s=dwell_s)
        want = spectro.component_integrals(spectro.fourier(fid), params)
        assert np.abs((w @ fid.samples).real - want).max() <= 1e-12 * np.abs(want).max()


def test_integral_map_rejects_regions_outside_axis(params):
    # a 600 Hz spectral window cannot hold the regions out to 1.5 * 246 Hz
    spec = spectro.fourier(Fid(samples=np.ones(1024), dwell_s=1 / 600))
    with pytest.raises(spectro.SpectroError, match="outside axis") as ref:
        spectro.component_integrals(spec, params)
    with pytest.raises(spectro.SpectroError) as got:
        spectro._integral_map(params, 1024, 1 / 600)
    assert str(got.value) == str(ref.value)


def test_recovery_helpers_agree():
    got = measured_recovery(5.0, 2.0, rounds=0)
    want = antiphase_recovery_fraction(5.0, 2.0)
    assert got == pytest.approx(want, rel=2e-3)
    assert antiphase_recovery_fraction(5.0, 2.0) == pytest.approx(
        0.7577621168183132, abs=1e-12)


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
