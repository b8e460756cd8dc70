"""End-to-end simulated pipeline and the headline-number reproduction table.

run_pipeline drives the whole chain: pseudo-pure singlet -> selective
readout -> FID -> J-doubling -> integration, thermal reference -> hard 90 ->
FID -> integration, then calibration of the polarization from the ratio.
Both acquisitions are linear in the state, so each is read through a
(4, 16) map on vec(rho), blind to the identity, and run_pipeline never
synthesizes an FID. spectro._acquisition_maps, one cached builder per
(params, readout) that computes the FID modes once, yields the selective
readout's map and the thermal reference's integrals, which depend only on
(params, readout).
Simulated acquisitions see the entire sample, so calibration inside the
pipeline always runs with f_active = 1 regardless of the experiment value
carried in params.

paper_repro builds the full table of reproduced quantities with their
reference values and tolerances; every row must pass for the package to
call itself a faithful reproduction. Its J-doubling rows come from
measured_recovery, which rests on the identity
sin(a) * prod over r < R of 2cos(2^r a) = sin(2^R a): R doubling rounds
turn an antiphase doublet of splitting J into the undoubled doublet of
splitting 2^R J, so no test FID and no doubling modulation is built.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator

import numpy as np

from . import analysis, spectro
from .channels import apply, filtration_sequence, hard_pulse, selective_pulse, zq_dephase
from .spectro import CalibrationResult, ReadoutConfig
from .states import (
    SpinSystemParams,
    bell_diagonal,
    bell_frame,
    fidelity,
    make_pseudo_pure,
    make_singlet,
    make_thermal,
    to_product_operators,
)

PAPER_BELL_FRACTIONS = (0.937, 0.045, 0.009, 0.009)


def run_pipeline(params: SpinSystemParams | None = None, epsilon: float = 0.916,
                 noise_sigma: float = 0.0, seed: int = 0, n_boot: int = 100,
                 readout: ReadoutConfig = ReadoutConfig()) -> CalibrationResult:
    """Recover the polarization of a simulated pseudo-singlet against a
    simulated thermal reference. With noise_sigma > 0, epsilon_err is the
    standard deviation over n_boot noisy replicates, as if each had added
    add_noise's complex Gaussian noise to both FIDs.

    J-doubling, the transform and the integration are linear in the FID,
    so both channels reduce to one (4, n) map W each, and a channel's
    noisy integrals are Gaussian with covariance noise_sigma^2 Re(W W^H).
    The noise-free integrals of both channels come from a (4, 16) map on
    vec(rho), so no call synthesizes an FID: the polarized ones from
    readout_integrals, the thermal ones read from the exact thermal
    state's closed form by spectro._acquisition_maps, cached per
    (params, readout). Each replicate draws its four integrals per
    channel from that exact law (spectro._noisy_integrals, with the
    Cholesky factors of spectro._noise_factors): replicate i takes the
    normals [i, 0] (polarized) and [i, 1] (thermal) of
    default_rng(seed).standard_normal((n_boot, 2, 4)), so it does not
    depend on n_boot. A noise_sigma that is negative or not finite, a
    seed that is neither a non-negative integer nor a SeedSequence, an
    n_boot that is negative or not an integer, or n_boot = 1 with
    noise_sigma > 0 (one replicate has no spread) raises SpectroError;
    noise_sigma = 0 or n_boot = 0 is a noise-free call with epsilon_err 0.
    The ceiling is the exact thermal state's 1/tanh(B/2), not calibrate's
    linearized 2/B, whose (B/2)/tanh(B/2) would scale epsilon (rel 3.5e-10
    at 295 K, past 1 below about 10 mK).

    epsilon_err is the spread of the abs-sum estimator, not a symmetric
    error bar around epsilon: noise adds to every absolute component
    integral, so when the thermal signal-to-noise ratio is low the
    replicates are biased low (mean 0.43 against 0.913 at sigma = 1e-4)."""
    spectro.check_noise_sigma(noise_sigma)
    spectro.check_seed(seed)
    if spectro._integer("n_boot", n_boot) < 0:
        raise spectro.SpectroError(f"n_boot must be >= 0, got {n_boot}")
    if noise_sigma > 0 and n_boot == 1:
        raise spectro.SpectroError("n_boot = 1 has no spread: use 0 for a "
                                   "noise-free call or at least 2 replicates")
    params = params or SpinSystemParams()
    cal_params = dataclasses.replace(params, f_active=1.0)
    y_p = spectro.readout_integrals(make_pseudo_pure(epsilon, make_singlet()),
                                    params, readout)
    y_t = spectro._acquisition_maps(params, readout)[1]
    # where B/2 underflows, y_t is all zero and calibrate refuses it
    t = math.tanh(params.b_factor / 2)
    result = spectro.calibrate(y_p, y_t, scan_norm=1.0, params=cal_params,
                               max_enhancement=1 / t if t else math.inf)
    if noise_sigma > 0 and n_boot > 0:
        l_p, l_t = spectro._noise_factors(params, readout)
        z = np.random.default_rng(seed).standard_normal((n_boot, 2, 4))
        ph2 = spectro._noisy_integrals(y_p, l_p, noise_sigma, z[:, 0])
        th = spectro._noisy_integrals(y_t, l_t, noise_sigma, z[:, 1])
        # calibrate's arithmetic at scan_norm = f_active = 1, without its
        # range check: a noisy replicate past epsilon = 1 is a sample of
        # the spread, not a calibration to refuse
        reps = np.abs(ph2).sum(axis=1) / np.abs(th).sum(axis=1) / result.max_enhancement
        err = float(np.std(reps, ddof=1))
        result = dataclasses.replace(result, epsilon_err=err)
    return result


def antiphase_recovery_fraction(splitting_hz: float, fwhm_hz: float) -> float:
    """Closed-form fraction of an antiphase Lorentzian component's area
    captured by integrating one half of the multiplet: the two tails cancel
    to (2/pi) arctan(splitting / fwhm)."""
    return (2 / math.pi) * math.atan(splitting_hz / fwhm_hz)


@functools.lru_cache(maxsize=1)
def _recovery_carrier(center_hz: float, n: int, dwell_s: float) -> np.ndarray:
    """Read-only real c = -Im(W * exp(2 pi i center t)) for the
    _integral_map row W of the region [center, center + 400] Hz, so that
    Re(W @ (i sin(pi J t) exp(2 pi i center t) e(t))) = c @ (sin(pi J t) e(t))
    for every real e(t). The last carrier built stays cached."""
    # the map first: its build peaks while no n-point array is held
    w = spectro._integral_map(((center_hz, center_hz + 400.0),), n, dwell_s)[0]
    t = np.arange(n) * dwell_s
    out = -(w * np.exp(2j * np.pi * center_hz * t)).imag
    out.setflags(write=False)
    return out


def measured_recovery(j_hz: float, fwhm_hz: float | np.ndarray,
                      rounds: int) -> float | np.ndarray:
    """Integrate one component of a synthetic antiphase doublet, after the
    given number of doubling rounds, relative to its true area of 1/2.

    fwhm_hz may be an array; the result then has its shape, and is a float
    for a scalar. The doublet is i sin(pi J t) exp(2 pi i 100 t) on a
    Lorentzian envelope of the given FWHM (line areas +-1/2) and the
    doubling is j_double's, but neither is built: since
    sin(a) * prod over r < R of 2cos(2^r a) = sin(2^R a), R rounds turn
    the doublet of splitting J into the undoubled one of splitting 2^R J.
    Its integral is then c @ (sin(pi 2^R J t) exp(-pi fwhm t)) with the
    cached real carrier c of _recovery_carrier, so each call costs one
    sine and each width one envelope and one dot product. A rounds that
    is not an integer raises TypeError, and rounds < 0 SpectroError."""
    if operator.index(rounds) < 0:
        raise spectro.SpectroError("rounds must be >= 0")
    center, n, dwell_s = 100.0, 65536, 1.0 / 1024.0
    # the carrier first: a cold build peaks while no n-point array is held
    c = _recovery_carrier(center, n, dwell_s)
    t = np.arange(n) * dwell_s
    g = c * np.sin(np.pi * (j_hz * 2 ** rounds) * t)
    # exp is slow where it underflows; flooring the envelope at e^-700
    # moves the sum by less than 1e-298
    out = np.array([g @ np.exp(np.maximum(-np.pi * f * t, -700.0))
                    for f in np.ravel(fwhm_hz)]) / 0.5
    return float(out[0]) if np.ndim(fwhm_hz) == 0 else out.reshape(np.shape(fwhm_hz))


def _row(name, value, reference, tol, kind, passed=None, note=""):
    if passed is None:
        if kind == "abs":
            passed = abs(value - reference) <= tol
        elif kind == "rel":
            passed = abs(value - reference) <= tol * abs(reference)
        else:
            raise ValueError(kind)
    return {
        "name": name,
        "value": value,
        "reference": reference,
        "tolerance": f"{kind} {tol:g}" if kind in ("abs", "rel") else str(tol),
        "pass": bool(passed),
        "note": note,
    }


def _bound_row(name, value, bound, op, note=""):
    passed = value >= bound if op == ">=" else value <= bound
    return {"name": name, "value": value, "reference": bound,
            "tolerance": op, "pass": bool(passed), "note": note}


def paper_repro(params: SpinSystemParams | None = None,
                readout: ReadoutConfig = ReadoutConfig(),
                n_random_states: int = 1000, rng_seed: int = 20260819):
    """All headline quantities with reference values and pass/fail.

    Returns (rows, all_pass). The f_active and other fields of params feed
    the quoted-arithmetic rows, so perturbing them shows up as failures.
    """
    params = params or SpinSystemParams()
    rows = []
    b = params.b_factor

    # selective readout on the singlet: antiphase coefficient pair
    rho = apply(selective_pulse("I", params), make_singlet())
    c = to_product_operators(rho)
    rows.append(_row("selective readout: coefficient of 2IxSz",
                     c["x", "z"], -0.5, 1e-9, "abs"))
    rows.append(_row("selective readout: coefficient of 2IzSx",
                     c["z", "x"], +0.5, 1e-9, "abs"))

    # hard 90 about y on the linearized thermal state: B/4 on Ix and Sx
    rho = apply(hard_pulse(90.0, 90.0), make_thermal(params, mode="linearized"))
    ct = to_product_operators(rho)
    rows.append(_row("thermal readout: coefficient of Ix",
                     ct["x", "e"], b / 4, 1e-12, "abs"))
    rows.append(_row("thermal readout: coefficient of Sx",
                     ct["e", "x"], b / 4, 1e-12, "abs"))

    # enhancement ceiling and quoted-arithmetic polarization
    max_enh = analysis.max_enhancement(params)
    rows.append(_row("maximum enhancement 2/B", max_enh, 30736.0, 2e-4, "rel",
                     note="reference rounded from slightly different constants"))
    rows.append(_row("maximum enhancement vs quoted 31028", max_enh, 31028.0,
                     0.02, "rel"))
    try:
        quoted_eps = spectro.calibrate([77000.0], [1.0], 1.0, params,
                                       max_enhancement=31028.0).epsilon
        quoted_note = ""
    except spectro.SpectroError as exc:
        # an out-of-range calibration is itself a failed reproduction
        quoted_eps = math.inf
        quoted_note = str(exc)
    rows.append(_row("polarization from quoted ratio 77000",
                     quoted_eps, 0.913, 5e-4, "abs", note=quoted_note))
    rows.append(_row("quoted-ratio polarization vs 0.916 +- 0.019",
                     quoted_eps, 0.916, 0.019, "abs", note=quoted_note))

    # entanglement chain on the reported fractions
    mix = bell_diagonal(*PAPER_BELL_FRACTIONS)
    rows.append(_row("concurrence of reported mixture",
                     analysis.concurrence(mix), 0.874, 1e-3, "abs"))
    rows.append(_row("entanglement of formation of reported mixture",
                     analysis.eof(mix), 0.822, 1e-3, "abs"))

    # Werner threshold at 1/3
    def werner(eps):
        return make_pseudo_pure(eps, make_singlet())
    rows.append(_row("Werner state min PT eigenvalue at 1/3",
                     analysis.min_pt_eigenvalue(werner(1 / 3)), 0.0, 1e-10, "abs"))
    below = analysis.min_pt_eigenvalue(werner(1 / 3 - 0.01))
    above = analysis.min_pt_eigenvalue(werner(1 / 3 + 0.01))
    rows.append(_bound_row("Werner min PT eigenvalue at 1/3 - 0.01",
                           below, 1e-10, ">="))
    rows.append(_bound_row("Werner min PT eigenvalue at 1/3 + 0.01",
                           above, -1e-10, "<="))

    # singlet-fraction threshold on the grid
    a, x = np.meshgrid(np.linspace(0.0, 1.0, 51), np.linspace(0.0, 0.5, 51),
                       indexing="ij")
    grid_ok = bool(np.array_equal(analysis.singlet_mixture_entangled(a, x), a > 0.5))
    rows.append({"name": "entangled iff singlet fraction > 1/2 (51x51 grid)",
                 "value": "no exceptions" if grid_ok else "exceptions found",
                 "reference": "no exceptions", "tolerance": "exact",
                 "pass": grid_ok, "note": "x grid spans [0, 0.5]"})

    # equivalent conditions
    eq = analysis.effective_conditions(0.916, params)
    rows.append(_row("equivalent field at 295 K (T)",
                     eq.field_t_at_temp, 0.45e6, 0.03, "rel"))
    rows.append(_row("equivalent temperature at 400 MHz (K)",
                     eq.temp_k_at_field, 6.4e-3, 0.10, "rel",
                     note="constant-derived value is ~6.1 mK"))

    # filtration
    filt = filtration_sequence(params)
    singlet = make_singlet()
    fid_fidelity = fidelity(apply(filt, singlet), singlet)
    rows.append(_bound_row("filtration: singlet fidelity", fid_fidelity,
                           1 - 1e-9, ">="))
    # draws in the order of one state at a time: real part, then imaginary
    g = np.random.default_rng(rng_seed).normal(size=(max(n_random_states, 0), 2, 4, 4))
    a = g[:, 0] + 1j * g[:, 1]
    m = a @ a.conj().swapaxes(-1, -2)
    pops, off = bell_frame(apply(filt, m / m.trace(axis1=-2, axis2=-1)[:, None, None]))
    max_off = float(off.max(initial=0.0))
    max_imb = float(np.abs(pops[:, 2] - pops[:, 3]).max(initial=0.0))
    rows.append(_bound_row(
        f"filtration: max off-diagonal residue over {n_random_states} states",
        max_off, 1e-9, "<="))
    rows.append(_bound_row(
        f"filtration: max |pT+1 - pT-1| over {n_random_states} states",
        max_imb, 1e-9, "<="))

    # slow-addition dephasing of the singlet
    dephased = apply(zq_dephase(), singlet)
    target = bell_diagonal(0.5, 0.5, 0.0, 0.0)
    rows.append(_row("zq dephasing: max deviation from equal S0/T0 mixture",
                     float(np.abs(dephased.matrix - target.matrix).max()),
                     0.0, 1e-12, "abs"))
    rows.append(_bound_row("zq dephasing: min PT eigenvalue (separable)",
                           analysis.min_pt_eigenvalue(dephased), -1e-10, ">="))

    # J-doubling recovery across linewidths up to J
    j0 = 5.0
    widths = np.array([0.6, 0.8, 1.0]) * j0
    worst_before = float(measured_recovery(j0, widths, 0).max())
    worst_after = float(measured_recovery(j0, widths, 4).min())
    rows.append(_bound_row("J-doubling: worst component recovery before",
                           worst_before, 0.70, "<=",
                           note="linewidths 0.6J..J, FWHM convention"))
    rows.append(_bound_row("J-doubling: worst component recovery after 4 rounds",
                           worst_after, 0.95, ">="))

    # end-to-end polarization recovery
    e2e = run_pipeline(params, epsilon=0.916, readout=readout)
    rows.append(_row("end-to-end recovered polarization",
                     e2e.epsilon, 0.916, 0.01, "abs"))

    # population imbalance inversion on the reported fractions
    mix_int = spectro.readout_integrals(mix, params, readout)
    rec = spectro.imbalance_to_populations(mix_int, params, readout)
    dev = max(abs(r - p) for r, p in zip(rec.as_tuple(), PAPER_BELL_FRACTIONS))
    rows.append(_row("population inversion: max deviation from reported fractions",
                     dev, 0.0, 1e-6, "abs"))

    # ortho/para statistics
    rows.append(_bound_row("para fraction at 20 K",
                           analysis.para_fraction(20.0), 0.998, ">="))
    rows.append(_row("para fraction at 1000 K",
                     analysis.para_fraction(1000.0), 0.25, 3e-3, "abs"))

    return rows, all(r["pass"] for r in rows)


def format_repro_table(rows) -> str:
    """Fixed-width text table with a delta column for failed rows."""
    out = []
    name_w = max(len(r["name"]) for r in rows)
    for r in rows:
        val = r["value"]
        ref = r["reference"]
        val_s = f"{val:.6g}" if isinstance(val, float) else str(val)
        ref_s = f"{ref:.6g}" if isinstance(ref, float) else str(ref)
        status = "PASS" if r["pass"] else "FAIL"
        line = f"{status}  {r['name']:<{name_w}}  value={val_s}  ref={ref_s}  tol={r['tolerance']}"
        if not r["pass"] and isinstance(val, float) and isinstance(ref, float):
            line += f"  delta={val - ref:+.6g}"
        if r.get("note"):
            line += f"  ({r['note']})"
        out.append(line)
    n_pass = sum(r["pass"] for r in rows)
    out.append(f"{n_pass}/{len(rows)} rows pass")
    return "\n".join(out) + "\n"
