import json
from pathlib import Path

import numpy as np
import pytest

from spinpair import repro, spectro
from spinpair.channels import apply, filtration_sequence
from spinpair.cli import main
from spinpair.repro import (
    antiphase_recovery_fraction,
    antiphase_test_fid,
    format_repro_table,
    measured_recovery,
    paper_repro,
    polarized_fid,
    run_pipeline,
    thermal_fid,
)
from spinpair.spectro import Fid, ReadoutConfig
from spinpair.states import DensityMatrix, SpinSystemParams, to_bell_populations

GOLDEN = Path(__file__).parent / "data" / "paper_repro.json"
RESIDUE_ROWS = ("filtration: max off-diagonal residue over 1000 states",
                "filtration: max |pT+1 - pT-1| over 1000 states")


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


@pytest.mark.parametrize("n, dwell_s", [(16384, 1 / 4096), (1024, 1 / 2048), (64, 1 / 1024),
                                        (65536, 1 / 1024)])
def test_integral_map_matches_fourier_then_integrate(params, n, dwell_s):
    # the component regions of run_pipeline and the one region of
    # measured_recovery
    for regions in (spectro.component_regions(params), ((100.0, 500.0),)):
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


def test_paper_repro_matches_recorded_table(tmp_path, capsys):
    # tests/data/paper_repro.json is `spinpair paper-repro` at the default
    # parameters, recorded before the grid, the sweep and the recoveries
    # were batched; the two residues are rounding noise, pinned absolutely
    assert main(["paper-repro", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    got = json.loads((tmp_path / "paper_repro.json").read_text(encoding="utf-8"))
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
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
