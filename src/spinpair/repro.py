"""End-to-end simulated pipeline and the headline-number reproduction table.

run_pipeline drives the whole chain: pseudo-pure singlet -> selective
readout -> FID -> J-doubling -> integration, thermal reference -> hard 90 ->
FID -> integration, then calibration of the polarization from the ratio.
Both acquisitions are linear in the state, so run_pipeline reads both
from the cached spectro.readout_model and never synthesizes an FID.
Simulated acquisitions see the entire sample, so calibration inside the
pipeline always runs with f_active = 1 regardless of the experiment value
carried in params.

paper_repro builds the full table of reproduced quantities with their
reference values and tolerances; every row must pass for the package to
call itself a faithful reproduction. Its J-doubling rows come from
spectro.measured_recovery, which repro re-exports.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import analysis, spectro
from .channels import apply, filtration_sequence, hard_pulse, selective_pulse, zq_dephase
from .spectro import CalibrationResult, ReadoutConfig, measured_recovery
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
    simulated thermal reference, both read from spectro.readout_model.
    With noise, epsilon_err is the standard deviation over the n_boot
    replicates of Readout.replicate_signals, which refuses a bad
    noise_sigma, seed or n_boot; it is 0 at noise_sigma = 0 or n_boot = 0.

    epsilon_err is the spread of the abs-sum estimator, not a symmetric
    error bar around epsilon: noise adds to every absolute component
    integral, so when the thermal signal-to-noise ratio is low the
    replicates are biased low (mean 0.43 against 0.913 at sigma = 1e-4)."""
    params = params or SpinSystemParams()
    model = spectro.readout_model(params, readout)
    y_p = spectro.readout_integrals(make_pseudo_pure(epsilon, make_singlet()),
                                    params, readout)
    sig_p, sig_t = model.replicate_signals(y_p, noise_sigma, seed, n_boot)
    result = spectro.calibrate(y_p, model.thermal, scan_norm=1.0,
                               params=dataclasses.replace(params, f_active=1.0))
    if len(sig_p):
        # calibrate's arithmetic without its range check: a replicate past
        # epsilon = 1 is a sample of the spread, not a calibration to refuse
        reps = sig_p / sig_t / result.max_enhancement
        result = dataclasses.replace(result, epsilon_err=float(np.std(reps, ddof=1)))
    return result


def antiphase_recovery_fraction(splitting_hz: float, fwhm_hz: float) -> float:
    """Closed-form fraction of an antiphase Lorentzian component's area
    captured by integrating one half of the multiplet: the two tails cancel
    to (2/pi) arctan(splitting / fwhm)."""
    return (2 / math.pi) * math.atan(splitting_hz / fwhm_hz)


def _row(name, value, reference, tol, kind, note=""):
    """A row that passes when |value - reference| is within tol, absolute
    for kind "abs" and relative to |reference| for kind "rel"."""
    bound = tol * abs(reference) if kind == "rel" else tol
    return {
        "name": name,
        "value": value,
        "reference": reference,
        "tolerance": f"{kind} {tol:g}",
        "pass": bool(abs(value - reference) <= bound),
        "note": note,
    }


def _bound_row(name, value, bound, op, note=""):
    passed = value >= bound if op == ">=" else value <= bound
    return {"name": name, "value": value, "reference": bound,
            "tolerance": op, "pass": bool(passed), "note": note}


def paper_repro(params: SpinSystemParams | None = None,
                n_random_states: int = 1000, rng_seed: int = 20260819):
    """All headline quantities with reference values and pass/fail.

    Returns (rows, all_pass). The f_active and other fields of params feed
    the quoted-arithmetic rows, so perturbing them shows up as failures.
    """
    params = params or SpinSystemParams()
    rows = []

    # selective readout on the singlet: antiphase coefficient pair
    rho = apply(selective_pulse("I", params), make_singlet())
    c = to_product_operators(rho)
    rows.append(_row("selective readout: coefficient of 2IxSz",
                     c["x", "z"], -0.5, 1e-9, "abs"))
    rows.append(_row("selective readout: coefficient of 2IzSx",
                     c["z", "x"], +0.5, 1e-9, "abs"))

    # hard 90 about y on the thermal state: tanh(B/2)/2 on Ix and Sx
    ct = to_product_operators(apply(hard_pulse(90.0, 90.0), make_thermal(params)))
    half_t = math.tanh(params.b_factor / 2) / 2
    rows.append(_row("thermal readout: coefficient of Ix",
                     ct["x", "e"], half_t, 1e-12, "abs"))
    rows.append(_row("thermal readout: coefficient of Sx",
                     ct["e", "x"], half_t, 1e-12, "abs"))

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
    e2e = run_pipeline(params, epsilon=0.916)
    rows.append(_row("end-to-end recovered polarization",
                     e2e.epsilon, 0.916, 0.01, "abs"))

    # population imbalance inversion on the reported fractions
    mix_int = spectro.readout_integrals(mix, params)
    rec = spectro.imbalance_to_populations(mix_int, params)
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
