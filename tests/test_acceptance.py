"""Acceptance gate: thirteen headline behaviors, one printed line each.

Each test computes its verdict first, prints ACCEPTANCE NN PASS/FAIL on the
real terminal (bypassing capture), then asserts. Tolerances are pinned
here and nowhere else.
"""

import math

import numpy as np
import pytest

from spinpair.analysis import (
    analyze,
    concurrence,
    effective_conditions,
    eof,
    max_enhancement,
    min_pt_eigenvalue,
    para_fraction,
    singlet_mixture_entangled,
)
from spinpair.channels import (
    apply,
    filtration_sequence,
    hard_pulse,
    selective_pulse,
    zq_dephase,
)
from spinpair.repro import measured_recovery, run_pipeline
from spinpair.seqdsl import SequenceSyntaxError, format as seq_format, parse
from spinpair.spectro import calibrate
from spinpair.states import (
    DensityMatrix,
    SpinSystemParams,
    bell_diagonal,
    fidelity,
    make_pseudo_pure,
    make_singlet,
    make_thermal,
    to_bell_populations,
    to_product_operators,
)


def report(capsys, num, ok, desc):
    with capsys.disabled():
        print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}  {desc}")


def test_criterion_01_selective_readout_is_exact_antiphase(capsys):
    c = to_product_operators(apply(selective_pulse("I", SpinSystemParams()),
                                   make_singlet()))
    # the readout content is (-2IxSz + 2IzSx)/2; a unitary must also keep
    # the non-observable -2IySy/2 remnant or purity would drop
    devs = []
    for a in "exyz":
        for b in "exyz":
            want = {("e", "e"): 0.25, ("x", "z"): -0.5, ("z", "x"): 0.5,
                    ("y", "y"): -0.5}.get((a, b), 0.0)
            devs.append(abs(c[(a, b)] - want))
    ok = max(devs) <= 1e-9
    report(capsys, 1, ok,
           "selective 90 turns the singlet into (-2IxSz + 2IzSx)/2 within "
           "1e-9 (plus the silent -2IySy/2 a unitary must keep)")
    assert ok, f"max coefficient deviation {max(devs):.3e}"


def test_criterion_02_thermal_readout_inphase(capsys):
    p = SpinSystemParams()
    t = math.tanh(p.b_factor / 2)
    c = to_product_operators(apply(hard_pulse(90.0, 90.0),
                                           make_thermal(p)))
    devs = []
    for a in "exyz":
        for bb in "exyz":
            want = {("e", "e"): 0.25, ("x", "e"): t / 2, ("e", "x"): t / 2,
                    ("x", "x"): t ** 2 / 2}.get((a, bb), 0.0)
            devs.append(abs(c[(a, bb)] - want))
    ok = max(devs) <= 1e-12
    report(capsys, 2, ok,
           "hard 90 turns the thermal state into (t/2)(Ix + Sx) + (t^2/2) 2IxSx, "
           "t = tanh(B/2), within 1e-12")
    assert ok, f"max coefficient deviation {max(devs):.3e}"


def test_criterion_03_enhancement_calibration(capsys):
    p = SpinSystemParams()
    ceiling = max_enhancement(p)
    res = calibrate([77000.0], [1.0], scan_norm=1.0, params=p,
                    max_enhancement=31028.0)
    ok = (abs(ceiling - 30736.0) <= 2e-4 * 30736.0
          and abs(ceiling - 31028.0) <= 0.02 * 31028.0
          and abs(res.epsilon - 0.913) <= 5e-4
          and abs(res.epsilon - 0.916) <= 0.019)
    report(capsys, 3, ok,
           "2/B at 400 MHz / 295 K is 30736 (2e-4), within 2% of 31028; "
           "ratio 77000 with f_active 0.368 calibrates to 0.913, "
           "inside 0.916 +- 0.019")
    assert ok, (ceiling, res.epsilon)


def test_criterion_04_entanglement_chain(capsys):
    rho = bell_diagonal(0.937, 0.045, 0.009, 0.009)
    c = concurrence(rho.matrix)
    e = eof(rho.matrix)
    ok = abs(c - 0.874) <= 1e-3 and abs(e - 0.822) <= 1e-3
    report(capsys, 4, ok,
           "populations (0.937, 0.045, 0.009, 0.009) give concurrence "
           "0.874 +- 0.001 and formation entanglement 0.822 +- 0.001")
    assert ok, (c, e)


def test_criterion_05_werner_threshold(capsys):
    s = make_singlet()
    at = min_pt_eigenvalue(make_pseudo_pure(1 / 3, s).matrix)
    below = min_pt_eigenvalue(make_pseudo_pure(1 / 3 - 0.01, s).matrix)
    above = min_pt_eigenvalue(make_pseudo_pure(1 / 3 + 0.01, s).matrix)
    ok = abs(at) <= 1e-10 and below > 0 and above < 0
    report(capsys, 5, ok,
           "singlet Werner mixture crosses the partial-transpose zero "
           "exactly at polarization 1/3 (sign flips at 1/3 +- 0.01)")
    assert ok, (at, below, above)


def test_criterion_06_singlet_fraction_grid(capsys):
    bad = []
    for a in np.linspace(0.0, 1.0, 51):
        for x in np.linspace(0.0, 0.5, 51):
            got = singlet_mixture_entangled(float(a), float(x))
            if got != (a > 0.5):
                bad.append((float(a), float(x)))
    ok = not bad
    report(capsys, 6, ok,
           "51x51 mixture grid: entangled exactly when the singlet "
           "fraction exceeds 1/2, no exceptions")
    assert ok, f"{len(bad)} grid exceptions, first {bad[:3]}"


def test_criterion_07_effective_conditions(capsys):
    cond = effective_conditions(0.916, SpinSystemParams())
    ok = (abs(cond.field_t_at_temp - 0.45e6) <= 0.03 * 0.45e6
          and abs(cond.temp_k_at_field - 6.4e-3) <= 0.10 * 6.4e-3)
    report(capsys, 7, ok,
           "polarization 0.916 matches a 0.45 MT field at 295 K (3%) and "
           "a 6.4 mK temperature at 400 MHz (10%)")
    assert ok, (cond.field_t_at_temp, cond.temp_k_at_field)


def test_criterion_08_filtration(capsys, random_states):
    p = SpinSystemParams()
    prog = filtration_sequence(p)
    s = make_singlet()
    fid = fidelity(apply(prog, s), s)
    worst_off = 0.0
    worst_imb = 0.0
    for rho in random_states:
        pops = to_bell_populations(apply(prog, rho))
        worst_off = max(worst_off, pops.offBell)
        worst_imb = max(worst_imb, abs(pops.pTplus - pops.pTminus))
    ok = fid >= 1 - 1e-9 and worst_off <= 1e-9 and worst_imb <= 1e-9
    report(capsys, 8, ok,
           "filtration keeps the singlet (fidelity >= 1 - 1e-9) and on 1000 "
           "random states leaves off-diagonal <= 1e-9 with balanced T+1/T-1")
    assert ok, (fid, worst_off, worst_imb)


def test_criterion_09_zero_quantum_dephasing(capsys):
    out = apply(zq_dephase(), make_singlet())
    target = bell_diagonal(0.5, 0.5, 0.0, 0.0)
    dev = float(np.abs(out.matrix - target.matrix).max())
    rep = analyze(out)
    ok = dev <= 1e-12 and not rep.entangled and rep.min_pt_eigenvalue >= -1e-10
    report(capsys, 9, ok,
           "zero-quantum dephasing maps the singlet to the equal "
           "singlet/T0 mixture, which is separable")
    assert ok, (dev, rep.min_pt_eigenvalue)


def test_criterion_10_j_doubling_recovery(capsys):
    j = 5.0
    before = [measured_recovery(j, w * j, rounds=0) for w in (0.6, 0.8, 1.0)]
    after = [measured_recovery(j, w * j, rounds=4) for w in (0.6, 0.8, 1.0)]
    ok = max(before) < 0.70 and min(after) >= 0.95
    report(capsys, 10, ok,
           "for linewidths up to J, four doubling rounds raise antiphase "
           "component recovery from below 70% to at least 95%")
    assert ok, (before, after)


def test_criterion_11_end_to_end_polarization(capsys):
    res = run_pipeline(epsilon=0.916, noise_sigma=0.0, n_boot=0)
    ok = abs(res.epsilon - 0.916) <= 0.01
    report(capsys, 11, ok,
           "noise-free simulated pipeline returns polarization within "
           "0.01 of the prepared 0.916")
    assert ok, res.epsilon


def test_criterion_12_ortho_para_statistics(capsys):
    p20 = para_fraction(20.0)
    p1000 = para_fraction(1000.0)
    ok = p20 >= 0.998 and abs(p1000 - 0.25) <= 0.003
    report(capsys, 12, ok,
           "para fraction is at least 0.998 at 20 K and within 0.003 "
           "of 1/4 at 1000 K")
    assert ok, (p20, p1000)


def test_criterion_13_property_suites(capsys, random_states):
    p = SpinSystemParams()
    failures = []

    # channel battery preserves valid states (trace, hermiticity, positivity)
    battery = [hard_pulse(90, 0), hard_pulse(45, 210), zq_dephase()]
    from spinpair.channels import free_evolution, relax, zeeman_dephase
    battery += [free_evolution(0.01, p), zeeman_dephase(), relax(0.4, p)]
    for i, rho in enumerate(random_states):
        for ch in battery:
            try:
                out = apply(ch, rho)
            except Exception as exc:  # noqa: BLE001 - recorded, not hidden
                failures.append(f"channel {ch.label} state {i}: {exc}")
                continue
            if abs(np.trace(out.matrix).real - 1.0) > 1e-10:
                failures.append(f"channel {ch.label} state {i}: trace drift")

    # parser round-trip and crash-freedom on a deterministic fuzz sample
    rng = np.random.default_rng(99)
    alphabet = list("abcdefghij0123456789 .#-_\n\tpulse delay acquire nu")
    for _ in range(300):
        text = "".join(rng.choice(alphabet)
                       for _ in range(int(rng.integers(0, 80))))
        try:
            ast = parse(text)
        except SequenceSyntaxError:
            continue
        except Exception as exc:  # noqa: BLE001
            failures.append(f"parser crash on {text!r}: {exc}")
            continue
        if parse(seq_format(ast)) != ast:
            failures.append(f"round trip changed {text!r}")

    # the two exact two-qubit entanglement criteria must agree
    for i, rho in enumerate(random_states):
        mpt = min_pt_eigenvalue(rho.matrix)
        c = concurrence(rho.matrix)
        if c > 1e-8 and mpt >= 0:
            failures.append(f"state {i}: concurrence {c} but PPT")
        if mpt < -1e-8 and c == 0:
            failures.append(f"state {i}: NPT {mpt} but zero concurrence")

    ok = not failures
    report(capsys, 13, ok,
           "property sweeps (channel validity on 1000 states, parser "
           "fuzz round-trip, PPT vs concurrence agreement) report zero "
           "failures")
    assert ok, failures[:5]
