import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from spinpair import channels
from spinpair.channels import (
    CP_TOL,
    Channel,
    ChannelError,
    ChannelProgram,
    apply,
    filtration_sequence,
    free_evolution,
    gradient_period,
    hard_pulse,
    relax,
    selective_pulse,
    zeeman_dephase,
    zq_dephase,
)
from spinpair.seqdsl import SequenceAst, Statement, compile as seq_compile
from spinpair.states import (
    DensityMatrix,
    SpinSystemParams,
    StateValidationError,
    fidelity,
    make_named_state,
    make_singlet,
    make_thermal,
    to_bell_populations,
    to_product_operators,
)

from conftest import random_density

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
IX, IY, IZ = (np.kron(m, ID2) / 2 for m in (SX, SY, SZ))
KX, KY, KZ = (np.kron(ID2, m) / 2 for m in (SX, SY, SZ))



def ap(ch, mat):
    """Apply a channel to a raw matrix, returning a raw matrix."""
    return apply(ch, DensityMatrix(mat)).matrix


def unitary_superop(u):
    """The map rho -> u rho u^H on the row-major vec(rho)."""
    return np.kron(u, u.conj())


def hamiltonian(params, coupling="weak"):
    h = 2 * math.pi * (-params.delta_nu_hz / 2) * IZ \
        + 2 * math.pi * (params.delta_nu_hz / 2) * KZ
    if coupling == "strong":
        h = h + 2 * math.pi * params.j_hz * (IX @ KX + IY @ KY + IZ @ KZ)
    elif coupling == "weak":
        h = h + 2 * math.pi * params.j_hz * (IZ @ KZ)
    return h


def pulse_generator(angle_deg, phase_deg):
    a = math.radians(angle_deg)
    p = math.radians(phase_deg)
    axis = math.cos(p) * (IX + KX) + math.sin(p) * (IY + KY)
    return a * axis


def test_hard_pulse_matches_expm_oracle():
    for angle, phase in [(90, 0), (90, 90), (180, 0), (45, 135), (30, 270)]:
        ch = hard_pulse(angle, phase)
        u_oracle = scipy.linalg.expm(-1j * pulse_generator(angle, phase))
        assert np.allclose(ch.superop, unitary_superop(u_oracle), atol=1e-12)


def test_free_evolution_matches_expm_oracle():
    p = SpinSystemParams()
    for t in (1e-4, 5.08130081300813e-4, 0.01, 0.37):
        ch = free_evolution(t, p)
        u_oracle = scipy.linalg.expm(-1j * t * hamiltonian(p))
        assert np.allclose(ch.superop, unitary_superop(u_oracle), atol=1e-10)
        ch_nj = free_evolution(t, p, coupling="off")
        u_nj = scipy.linalg.expm(-1j * t * hamiltonian(p, "off"))
        assert np.allclose(ch_nj.superop, unitary_superop(u_nj), atol=1e-10)


def test_free_evolution_strong_coupling_oracle():
    p = SpinSystemParams(delta_nu_hz=6000.0)
    ch = free_evolution(2e-4, p, coupling="strong")
    u_oracle = scipy.linalg.expm(-1j * 2e-4 * hamiltonian(p, "strong"))
    assert np.allclose(ch.superop, unitary_superop(u_oracle), atol=1e-10)


def test_free_evolution_weak_coupling_validity_enforced():
    with pytest.raises(ChannelError):
        free_evolution(1e-3, SpinSystemParams(delta_nu_hz=4.0, j_hz=5.0))
    with pytest.warns(UserWarning):
        free_evolution(1e-3, SpinSystemParams(delta_nu_hz=20.0, j_hz=5.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        free_evolution(1e-3, SpinSystemParams(delta_nu_hz=492.0, j_hz=5.0))
        # no check at all when J is idle
        free_evolution(1e-3, SpinSystemParams(delta_nu_hz=4.0, j_hz=5.0),
                       coupling="off")
        # nor at strong coupling, which keeps the whole I.S
        free_evolution(1e-3, SpinSystemParams(delta_nu_hz=4.0, j_hz=5.0),
                       coupling="strong")


def test_free_evolution_refuses_an_unknown_coupling():
    with pytest.raises(ChannelError, match="unknown coupling 'bogus'"):
        free_evolution(1e-3, SpinSystemParams(), coupling="bogus")


def test_pulse_inverse_composition(rng):
    rho = random_density(rng)
    fwd = hard_pulse(90, 0)
    back = hard_pulse(90, 180)
    out = ap(back, ap(fwd, rho.matrix))
    assert np.allclose(out, rho.matrix, atol=1e-12)


def test_unitarity_validation():
    bad = np.eye(4, dtype=complex)
    bad[0, 0] = 1.1
    with pytest.raises(ChannelError):
        Channel("bad", np.kron(bad, bad.conj()))


def test_channels_preserve_state_validity(random_states):
    p = SpinSystemParams()
    chans = [hard_pulse(90, 0), free_evolution(0.01, p), zeeman_dephase(),
             zq_dephase(), relax(0.25, p)]
    for rho in random_states:
        for ch in chans:
            out = ap(ch, rho.matrix)
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)


def test_zeeman_dephase_keeps_equal_m_coherences(rng):
    rho = random_density(rng).matrix
    out = ap(zeeman_dephase(), rho)
    # total-m per basis state: 1, 0, 0, -1; only the 01/10 block and the
    # diagonal survive
    keep = np.array([[1, 0, 0, 0],
                     [0, 1, 1, 0],
                     [0, 1, 1, 0],
                     [0, 0, 0, 1]], dtype=bool)
    assert np.allclose(out[~keep], 0.0)
    assert np.allclose(out[keep], rho[keep])


def test_zq_dephase_is_diagonal_pinch(rng):
    rho = random_density(rng).matrix
    out = ap(zq_dephase(), rho)
    assert np.allclose(out, np.diag(np.diag(rho)))


def test_dephasing_idempotent(rng):
    rho = random_density(rng).matrix
    for ch in (zeeman_dephase(), zq_dephase()):
        once = ap(ch, rho)
        twice = ap(ch, once)
        assert np.allclose(once, twice, atol=1e-15)


def test_relax_decays_to_exact_thermal():
    p = SpinSystemParams()
    rho = make_singlet()
    out = ap(relax(1e4, p), rho.matrix)
    eq = make_thermal(p, mode="exact").matrix
    assert np.allclose(out, eq, atol=1e-12)


def test_relax_off_diagonal_t2(rng):
    # each spin's transverse magnetization decays by exp(-t/T2); the zero-
    # and double-quantum coherences, coherences of both spins, by its square
    p = SpinSystemParams()
    rho = random_density(rng).matrix
    t = 0.7
    out = ap(relax(t, p), rho)
    decay = math.exp(-t / p.t2_s)
    for op in (IX, IY, KX, KY):
        assert abs(np.trace(op @ out) - decay * np.trace(op @ rho)) <= 1e-14
    for i, j in ((1, 2), (0, 3)):
        assert abs(out[i, j] - decay ** 2 * rho[i, j]) <= 1e-14


def test_relax_diagonal_t1_exponential(rng):
    # each spin's z magnetization relaxes to its thermal value by
    # exp(-t/T1), and the populations by the one-spin map on each spin
    p = SpinSystemParams()
    rho = random_density(rng).matrix
    t = 0.9
    out = ap(relax(t, p), rho)
    eq = make_thermal(p, mode="exact").matrix
    f = math.exp(-t / p.t1_s)
    for op in (IZ, KZ):
        expect = np.trace(op @ eq) + f * (np.trace(op @ rho) - np.trace(op @ eq))
        assert abs(np.trace(op @ out) - expect) <= 1e-14
    one_spin = f * np.eye(2) + (1 - f) * np.outer(one_spin_thermal(p), np.ones(2))
    expect = np.kron(one_spin, one_spin) @ rho.diagonal()
    assert np.abs(out.diagonal() - expect).max() <= 1e-14


def test_relax_semigroup(rng):
    p = SpinSystemParams()
    rho = random_density(rng).matrix
    both = ap(relax(0.8, p), rho)
    split = ap(relax(0.5, p), ap(relax(0.3, p), rho))
    assert np.allclose(both, split, atol=1e-13)


def test_selective_pulse_on_singlet():
    p = SpinSystemParams()
    s = make_singlet()
    rho_i = apply(selective_pulse("I", p), s)
    c = to_product_operators(rho_i)
    assert c[("x", "z")] == pytest.approx(-0.5, abs=1e-9)
    assert c[("z", "x")] == pytest.approx(0.5, abs=1e-9)
    rho_s = apply(selective_pulse("S", p), s)
    cs = to_product_operators(rho_s)
    assert cs[("x", "z")] == pytest.approx(0.5, abs=1e-9)
    assert cs[("z", "x")] == pytest.approx(-0.5, abs=1e-9)


def test_selective_pulse_spectator_thermal():
    # a selective 90 on one spin turns its z into x and leaves the other
    # spin's z term alone
    p = SpinSystemParams()
    th = make_thermal(p)
    b4 = p.b_factor / 4
    ci = to_product_operators(apply(selective_pulse("I", p), th))
    assert ci[("x", "e")] == pytest.approx(b4, abs=1e-12)
    assert ci[("y", "e")] == pytest.approx(0.0, abs=1e-12)
    assert ci[("z", "e")] == pytest.approx(0.0, abs=1e-12)
    assert ci[("e", "z")] == pytest.approx(b4, abs=1e-12)
    cs = to_product_operators(apply(selective_pulse("S", p), th))
    assert cs[("e", "x")] == pytest.approx(b4, abs=1e-12)
    assert cs[("z", "e")] == pytest.approx(b4, abs=1e-12)


def test_selective_pulse_structure():
    p = SpinSystemParams()
    prog = selective_pulse("I", p)
    tau = 1 / (4 * p.delta_nu_hz)
    assert [c.label for c in prog.channels] == [
        "pulse(90,135)", f"evolve({tau:g},off)", "pulse(90,0)"]
    assert prog.channels[1].t_s == pytest.approx(tau)
    with pytest.raises(ValueError):
        selective_pulse("Q", p)


def test_gradient_period_structure_and_effect(rng):
    p = SpinSystemParams()
    chans = gradient_period(p)
    assert len(chans) == 2
    assert chans[0].t_s == pytest.approx(1 / p.delta_nu_hz)
    assert chans[1].label == "zeeman_dephase"
    # the delta-nu evolution over 1/delta-nu then zeeman dephasing leaves
    # singlet and T0 populations untouched
    rho = random_density(rng)
    before = to_bell_populations(rho)
    out = rho.matrix
    for ch in chans:
        out = ap(ch, out)
    after = to_bell_populations(DensityMatrix(out))
    assert after.pS == pytest.approx(before.pS, abs=1e-12)
    assert after.pT0 == pytest.approx(before.pT0, abs=1e-12)


def test_filtration_fixed_point_singlet():
    p = SpinSystemParams()
    s = make_singlet()
    out = apply(filtration_sequence(p), s)
    assert fidelity(out, s) == pytest.approx(1.0, abs=1e-12)


def test_filtration_produces_bell_diagonal_with_equal_t_pm(random_states):
    p = SpinSystemParams()
    prog = filtration_sequence(p)
    for rho in random_states[:200]:
        pops = to_bell_populations(apply(prog, rho))
        assert pops.offBell == pytest.approx(0.0, abs=1e-9)
        assert pops.pTplus == pytest.approx(pops.pTminus, abs=1e-9)


def test_filtration_preserves_singlet_fraction(random_states):
    p = SpinSystemParams()
    prog = filtration_sequence(p)
    for rho in random_states[:200]:
        before = to_bell_populations(rho).pS
        after = to_bell_populations(apply(prog, rho)).pS
        assert after == pytest.approx(before, abs=1e-9)


def test_filtration_channel_count():
    p = SpinSystemParams()
    prog = filtration_sequence(p)
    assert len(prog.channels) == 5
    evolve = f"evolve({1 / p.delta_nu_hz:g},off)"
    labels = [c.label for c in prog.channels]
    assert labels == [evolve, "zeeman_dephase", "pulse(90,0)", evolve,
                      "zeeman_dephase"]


def test_apply_rejects_negative_duration():
    with pytest.raises(ChannelError):
        free_evolution(-1.0, SpinSystemParams())
    with pytest.raises(ChannelError):
        relax(-0.1, SpinSystemParams())


NO_RELAXATION = SpinSystemParams(t1_s=math.inf, t2_s=math.inf)


@pytest.mark.parametrize("build, message", [
    (lambda: relax(math.inf, NO_RELAXATION), "relaxation time t_s = inf s"),
    (lambda: relax(math.nan, SpinSystemParams()), "relaxation time t_s = nan s"),
    (lambda: free_evolution(math.nan, SpinSystemParams()), "evolution time t_s = nan s"),
    (lambda: free_evolution(math.inf, SpinSystemParams()), "evolution time t_s = inf s"),
    (lambda: Channel("id", np.eye(16), t_s=math.nan), "duration t_s = nan s"),
    (lambda: Channel("id", np.eye(16), t_s=math.inf), "duration t_s = inf s"),
], ids=["relax-inf-no-relaxation", "relax-nan", "evolve-nan", "evolve-inf",
        "channel-nan", "channel-inf"])
def test_non_finite_duration_is_refused_by_name(build, message):
    # the refusal names the duration, not the NaN map or phase it would
    # build (relax(inf) at T1 = T2 = inf has the factor exp(-inf/inf))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ChannelError, match=re.escape(message) + " must be finite"):
            build()


def test_program_total_duration():
    p = SpinSystemParams()
    prog = selective_pulse("I", p)
    assert prog.total_duration_s == pytest.approx(1 / (4 * p.delta_nu_hz))


@settings(max_examples=40, deadline=None)
@given(st.floats(0, 360), st.floats(0, 360))
def test_hard_pulse_unitary_property(angle, phase):
    sup = hard_pulse(angle, phase).superop
    assert np.allclose(sup @ sup.conj().T, np.eye(16), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(1e-6, 10.0))
def test_free_evolution_time_additivity(t):
    p = SpinSystemParams()
    s1 = free_evolution(t, p).superop
    s2 = free_evolution(2 * t, p).superop
    assert np.allclose(s1 @ s1, s2, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 3.0))
def test_relax_is_positive_map(seed, t):
    rho = random_density(np.random.default_rng(seed))
    apply(relax(t, SpinSystemParams()), rho)


# The per-kind formulas, built from each constructor's inputs, and the loop
# that revalidated every intermediate state, as channels ran them before
# superoperators; oracles below.
_M_TOTAL = np.array([1.0, 0.0, 0.0, -1.0])
_ZEEMAN_MASK = (_M_TOTAL[:, None] == _M_TOTAL[None, :]).astype(float)


def unitary_oracle(u):
    return lambda m: u @ m @ u.conj().T


def pulse_oracle(angle_deg, phase_deg):
    return unitary_oracle(scipy.linalg.expm(-1j * pulse_generator(angle_deg, phase_deg)))


def evolution_oracle(t, params, coupling="weak"):
    return unitary_oracle(scipy.linalg.expm(-1j * t * hamiltonian(params, coupling)))


def mask_oracle(mask):
    return lambda m: m * mask


def relax_formula(f1, f2, eq_diag):
    def oracle(m):
        # populations refill toward eq_diag in proportion to the trace, so
        # the map is linear, not affine
        diag = m.diagonal()
        relaxed = f1 * diag + (1 - f1) * eq_diag * diag.sum()
        return np.diag(relaxed) + (m * (1.0 - np.eye(4))) * f2
    return oracle


def relax_oracle(t, params):
    """relax as it was before the Lindblad model: every coherence decays by
    exp(-t/T2) and the populations relax to the exact thermal diagonal by
    exp(-t/T1) as one block. It is not completely positive once T2 exceeds
    about 4/3 T1; its single-spin magnetizations are the new model's."""
    return relax_formula(math.exp(-t / params.t1_s), math.exp(-t / params.t2_s),
                         make_thermal(params, mode="exact").matrix.diagonal().real)


def one_spin_thermal(params):
    """Thermal populations (up, down) of one spin, exp(+-B/2) normalized."""
    up = 1 / (1 + math.exp(-params.b_factor))
    return np.array([up, 1 - up])


def lindblad_superop(t, params):
    """exp(t D) by scipy's expm, with D built from each spin's jump
    operators: sqrt(p / T1) times the lowering (p = up population) and the
    raising (p = down population) operator, and sqrt(g) sigma_z with
    g = (1/T2 - 1/(2 T1)) / 2. A rho B on the row-major vec(rho) is
    kron(A, B^T) vec(rho)."""
    up, down = one_spin_thermal(params)
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    g = (1 / params.t2_s - 1 / (2 * params.t1_s)) / 2
    jumps = [math.sqrt(up / params.t1_s) * lower, math.sqrt(down / params.t1_s) * lower.T,
             math.sqrt(g) * SZ]
    d = np.zeros((16, 16), dtype=complex)
    for op in [np.kron(j, ID2) for j in jumps] + [np.kron(ID2, j) for j in jumps]:
        oo = op.conj().T @ op
        d += (np.kron(op, op.conj()) - np.kron(oo, np.eye(4)) / 2
              - np.kron(np.eye(4), oo.T) / 2)
    return scipy.linalg.expm(t * d)


def lindblad_oracle(t, params):
    sup = lindblad_superop(t, params)
    return lambda m: (sup @ m.reshape(16)).reshape(4, 4)


def superop_of(oracle):
    """The 16x16 matrix on the row-major vec(rho) of a map on 4x4 matrices:
    column 4k + l is the image of |k><l|."""
    units = np.eye(16, dtype=complex).reshape(16, 4, 4)
    return np.array([oracle(e).reshape(16) for e in units]).T


def statement_oracles(program):
    """One oracle per channel of a compiled program, in order, rebuilt from
    its source statements and params."""
    p = program.params
    out = []
    for op, *args in program.statements:
        if op == "pulse":
            out.append(pulse_oracle(*args))
        elif op == "selective":
            first, second = {"I": (135.0, 0.0), "S": (45.0, 180.0)}[args[0]]
            out += [pulse_oracle(90.0, first),
                    evolution_oracle(1 / (4 * p.delta_nu_hz), p, "off"),
                    pulse_oracle(90.0, second)]
        elif op == "delay":
            out.append(evolution_oracle(args[0], p))
        elif op == "gradient_period":
            out += [evolution_oracle(1 / p.delta_nu_hz, p, "off"),
                    mask_oracle(_ZEEMAN_MASK)]
        elif op == "zqdephase":
            out.append(mask_oracle(np.eye(4)))
        elif op == "relax":
            out.append(lindblad_oracle(args[0], p))
        else:
            raise AssertionError(op)
    assert len(out) == len(program.channels)
    return out


def oracle_apply(program, rho):
    for ch, oracle in zip(program.channels, statement_oracles(program)):
        try:
            rho = DensityMatrix(oracle(rho.matrix))
        except StateValidationError as exc:
            raise ChannelError(
                f"channel {ch.label} broke state invariants: {exc}") from exc
    return rho


# T2 = 2 T1, the edge of relaxation's Lindblad form, and T2 = 1.4 T1, where
# relax_oracle is already not completely positive
AT_2T1 = SpinSystemParams(t1_s=0.5, t2_s=1.0)
AT_1P4T1 = SpinSystemParams(t1_s=0.5, t2_s=0.7)


def every_constructor():
    """(channel, oracle) pairs covering every constructor and input kind."""
    p = SpinSystemParams()
    strong = SpinSystemParams(delta_nu_hz=6000.0)
    pulses = [(hard_pulse(a, ph), pulse_oracle(a, ph))
              for a, ph in ((90, 0), (45, 135), (217.3, 31.0))]
    eq = make_thermal(p, mode="exact").matrix
    relaxes = [(relax(t, q), lindblad_oracle(t, q))
               for t, q in ((0.0, p), (0.25, p), (0.1, AT_2T1), (0.1, AT_1P4T1))]
    # after 1e4 s, where expm loses 1.7e-13, the thermal state times the trace
    relaxes.append((relax(1e4, p), lambda m: np.trace(m) * eq))
    return pulses + [
        (free_evolution(0.01, p), evolution_oracle(0.01, p)),
        (free_evolution(0.37, p, coupling="off"), evolution_oracle(0.37, p, "off")),
        (free_evolution(2e-4, strong, coupling="strong"),
         evolution_oracle(2e-4, strong, "strong")),
        (zeeman_dephase(), mask_oracle(_ZEEMAN_MASK)),
        (zq_dephase(), mask_oracle(np.eye(4))),
    ] + relaxes


def test_superoperators_match_per_kind_oracle(random_states):
    for ch, oracle in every_constructor():
        for rho in random_states[:100]:
            got = ch.apply_matrix(rho.matrix)
            assert np.abs(got - oracle(rho.matrix)).max() <= 1e-13, ch.label


def test_complete_positivity_flag():
    # every builder's map is accepted; relax_oracle's map at T2 = 1.4 T1
    # is not completely positive and is refused as a channel
    p = SpinSystemParams()
    for ch in (hard_pulse(90, 0), free_evolution(0.01, p), zeeman_dephase(),
               zq_dephase(), relax(0.25, p), relax(0.1, AT_2T1)):
        assert isinstance(ch, Channel)
    Channel("relax_oracle(0)", superop_of(relax_oracle(0.0, AT_1P4T1)))
    with pytest.raises(ChannelError, match=r"relax_oracle\(0\.1\) is not completely positive"):
        Channel("relax_oracle(0.1)", superop_of(relax_oracle(0.1, AT_1P4T1)))


def eigvalsh_cp(sup):
    """The refusal rule for complete positivity without the Cholesky
    certificate: the smallest eigenvalue of the Choi matrix of the 16x16
    map sup against -CP_TOL; kept as the oracle."""
    choi = sup.reshape(4, 4, 4, 4).transpose(2, 0, 3, 1).reshape(16, 16)
    return bool(np.linalg.eigvalsh(choi).min() >= -CP_TOL)


def built(sup):
    """Whether Channel accepts sup; any refusal must name complete
    positivity."""
    try:
        Channel("probe", sup)
    except ChannelError as exc:
        assert "not completely positive" in str(exc)
        return False
    return True


def test_complete_positivity_flag_matches_eigvalsh_rule():
    p = SpinSystemParams()
    for ch in (*(ch for ch, _ in every_constructor()),
               *selective_pulse("S", p).channels, *filtration_sequence(p).channels):
        assert eigvalsh_cp(ch.superop), ch.label
    # relax_oracle's maps are refused exactly where the eigenvalues say
    accepted = []
    for ratio in np.linspace(0.1, 4.0, 79):
        q = SpinSystemParams(t1_s=0.5, t2_s=0.5 * ratio)
        for t in (0.0, 1e-3, 0.1, 1.0, 30.0):
            sup = superop_of(relax_oracle(t, q))
            assert built(sup) == eigvalsh_cp(sup), (ratio, t)
            accepted.append(built(sup))
    assert 0 < sum(accepted) < len(accepted)


def test_relax_is_refused_beyond_t2_twice_t1():
    # t2_s = 0.5 ratio > 2 t1_s = 1 exactly when ratio > 2
    for ratio in np.linspace(0.1, 4.0, 79):
        q = SpinSystemParams(t1_s=0.5, t2_s=0.5 * ratio)
        for t in (0.0, 1e-3, 0.1, 1.0, 30.0):
            if ratio <= 2:
                assert eigvalsh_cp(relax(t, q).superop), (ratio, t)
            else:
                with pytest.raises(ChannelError, match=r"t2_s <= 2 \* t1_s, got t1_s = 0\.5"):
                    relax(t, q)
    # where relax_oracle is not completely positive, the new map is
    for ratio in (1.4, 1.6, 1.9, 2.0):
        q = SpinSystemParams(t1_s=0.5, t2_s=0.5 * ratio)
        assert not eigvalsh_cp(superop_of(relax_oracle(0.1, q)))
        assert eigvalsh_cp(relax(0.1, q).superop)
    # a finite T1 with no dephasing has no Lindblad form; no T1 and no T2
    # is no relaxation, and no T1 alone is pure dephasing
    with pytest.raises(ChannelError, match="t2_s = inf"):
        relax(0.1, SpinSystemParams(t2_s=math.inf))
    inf = SpinSystemParams(t1_s=math.inf, t2_s=math.inf)
    assert np.array_equal(relax(0.7, inf).superop, np.eye(16))
    dephase = SpinSystemParams(t1_s=math.inf)
    assert np.abs(relax(0.7, dephase).superop - lindblad_superop(0.7, dephase)).max() <= 1e-13


def test_relax_matches_lindblad_expm_oracle():
    grid = [SpinSystemParams(), AT_2T1, AT_1P4T1, SpinSystemParams(t1_s=0.5, t2_s=0.05),
            SpinSystemParams(temp_k=1.0, nu_hz=1e9), SpinSystemParams(t1_s=math.inf)]
    for q in grid:
        for t in (0.0, 1e-3, 0.2, 0.7, 30.0):
            got = relax(t, q).superop
            assert np.abs(got - lindblad_superop(t, q)).max() <= 1e-13, (q, t)


def test_relax_single_spin_magnetizations_match_relax_oracle(random_states):
    # per-spin relaxation changes only the two-spin orders
    single = [("x", "e"), ("y", "e"), ("z", "e"), ("e", "x"), ("e", "y"), ("e", "z")]
    for q in (SpinSystemParams(), AT_2T1, AT_1P4T1):
        for t in (0.2, 0.7):
            ch, oracle = relax(t, q), relax_oracle(t, q)
            for rho in random_states[:50]:
                got = to_product_operators(DensityMatrix(ch.apply_matrix(rho.matrix)))
                want = to_product_operators(DensityMatrix(oracle(rho.matrix)))
                for key in single:
                    assert abs(got[key] - want[key]) <= 1e-15, (q, t, key)


def test_relax_fixed_point_is_the_exact_thermal_state():
    for q in (SpinSystemParams(), AT_2T1, SpinSystemParams(temp_k=1.0, nu_hz=1e9)):
        eq = make_thermal(q, mode="exact").matrix
        for t in (0.1, 1.0, 1e4):
            assert np.abs(relax(t, q).apply_matrix(eq) - eq).max() <= 1e-15, (q, t)


def channel_with_choi_min_eigenvalue(s):
    """A trace-preserving channel whose 16x16 Choi matrix, sum over k, l of
    |k><l| (x) Phi(|k><l|), is the identity channel's plus s I (x) Z with
    the traceless Z = diag(1, -1, 1, -1): its smallest eigenvalue is -s,
    on every |k>|i> with k != i and Z_ii = -1."""
    choi = np.outer(np.eye(4).ravel(), np.eye(4).ravel()) + s * np.kron(
        np.eye(4), np.diag([1.0, -1.0, 1.0, -1.0]))
    sup = choi.reshape(4, 4, 4, 4).transpose(1, 3, 0, 2).reshape(16, 16)
    return Channel(f"choi_min({-s:g})", sup)


@pytest.mark.parametrize("factor", [0.0, 0.9, 1.1, 10.0])
def test_complete_positivity_flag_at_the_tolerance(factor):
    # below the tolerance the map is accepted, above it refused
    if factor < 1:
        ch = channel_with_choi_min_eigenvalue(factor * CP_TOL)
        assert eigvalsh_cp(ch.superop)
    else:
        with pytest.raises(ChannelError, match="not completely positive: Choi matrix has "
                                               "eigenvalue -1"):
            channel_with_choi_min_eigenvalue(factor * CP_TOL)


def test_complete_positivity_flag_without_the_certificate(monkeypatch):
    # with every Cholesky certificate refused, eigvalsh alone decides
    monkeypatch.setattr(channels, "_cholesky_certifies", lambda h, shift: False)
    every_constructor()
    channel_with_choi_min_eigenvalue(0.9 * CP_TOL)
    with pytest.raises(ChannelError, match="not completely positive"):
        channel_with_choi_min_eigenvalue(1.1 * CP_TOL)


def test_channel_with_a_non_hermitian_choi_matrix_is_refused():
    # rho -> rho + c tr(rho) i sigma_x on spin I preserves trace; its Choi
    # matrix is not Hermitian, and Cholesky reads only its lower triangle
    c = 1e-3
    for sign in (1, -1):
        sup = np.eye(16, dtype=complex) + sign * c * 1j * np.outer(
            np.kron(SX, ID2).ravel(), np.eye(4).ravel())
        with pytest.raises(ChannelError, match="non-Hermitian part 2.000e-03"):
            Channel("skew", sup)


def trace_drift(f):
    """A completely positive map within TP_TOL of trace preserving: the
    identity scaled by 1 + f TP_TOL. Twice at f = 0.9 it moves a state's
    trace past TRACE_TOL."""
    return Channel(f"drift({f:g})", (1 + f * channels.TP_TOL) * np.eye(16))


def test_channel_not_trace_preserving_is_refused():
    with pytest.raises(ChannelError, match="leaky.*not trace preserving"):
        Channel("leaky", superop_of(relax_formula(0.5, 0.5, np.full(4, 0.3))), t_s=1.0)
    # a NaN deviation fails the check rather than passing it
    with pytest.raises(ChannelError, match="nan.*not trace preserving"):
        Channel("nan", np.full((16, 16), np.nan))


@pytest.mark.parametrize("t, p, coupling", [
    (1e307, SpinSystemParams(), "weak"),
    (1.7e308, SpinSystemParams(), "weak"),
    (1e-3, SpinSystemParams(delta_nu_hz=1.7e308), "weak"),
    (0.0, SpinSystemParams(delta_nu_hz=1.7e308), "weak"),
    (1e-3, SpinSystemParams(j_hz=1e308), "strong"),
], ids=["delay-1e307", "delay-max", "delta-nu-max", "delta-nu-max-t0", "strong-j-max"])
def test_overflowing_evolution_is_refused_without_warning(t, p, coupling):
    # the generator overflowed with a RuntimeWarning, and its NaN map then
    # broke the Choi eigensolver with LinAlgError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ChannelError, match="overflows the phase of the propagator"):
            free_evolution(t, p, coupling=coupling)


@pytest.mark.parametrize("tail", [(), (zq_dephase(),)])
def test_non_cp_relax_breaking_a_state_names_the_channel(tail):
    # relax_oracle at T2 = 3 T1 broke this state; that map is now refused
    # as a channel, and relax refuses that T2
    ket = np.array([1, 1, 0, 0]) / math.sqrt(2)
    rho = DensityMatrix(np.outer(ket, ket))
    p = SpinSystemParams(t1_s=0.5, t2_s=1.5)
    with pytest.raises(ChannelError, match="not completely positive"):
        Channel("relax_oracle(0.1)", superop_of(relax_oracle(0.1, p)))
    with pytest.raises(ChannelError, match="t2_s <= 2"):
        relax(0.1, p)
    # at T2 = 2 T1 it stays a state; broken by the trace tolerance that two
    # accepted maps add up, a state names the program's last channel
    apply(ChannelProgram(channels=(relax(0.1, AT_2T1),) + tail, params=AT_2T1), rho)
    drift = trace_drift(0.9)
    prog = ChannelProgram(channels=(drift, relax(0.1, AT_2T1), drift) + tail, params=AT_2T1)
    last = re.escape(prog.channels[-1].label)
    with pytest.raises(ChannelError, match=rf"channel {last} broke state invariants: trace"):
        apply(prog, rho)


@st.composite
def relaxing_program(draw):
    """A compiled .pseq program with relax steps, T2 anywhere up to the
    2 T1 that relaxation allows."""
    t1 = draw(st.floats(0.2, 3.0))
    headers = (("t1", t1), ("t2", t1 * draw(st.floats(0.1, 2.0))))
    stmts = [Statement(op="relax", args=(draw(st.floats(0.01, 0.5)),))]
    for _ in range(draw(st.integers(0, 5))):
        op = draw(st.sampled_from(
            ["pulse", "selective", "delay", "gradient_period", "zqdephase", "relax"]))
        if op == "pulse":
            args = (draw(st.floats(0, 360)), draw(st.floats(0, 360)))
        elif op == "selective":
            args = (draw(st.sampled_from(["I", "S"])),)
        elif op in ("delay", "relax"):
            args = (draw(st.floats(0, 0.5)),)
        else:
            args = ()
        stmts.insert(draw(st.integers(0, len(stmts))), Statement(op=op, args=args))
    program, _ = seq_compile(SequenceAst(headers=headers, statements=tuple(stmts)),
                             SpinSystemParams())
    return program


@settings(max_examples=200, deadline=None)
@given(relaxing_program(), st.integers(0, 2 ** 32 - 1), st.integers(2, 5))
def test_apply_matches_revalidating_oracle_on_sequences(program, seed, rank):
    # rank 2 and 3 are pure states over 2 or 3 Zeeman kets, the kind a
    # relax that is not completely positive would break; 4 is a pure and
    # 5 a full-rank mixed state. Every step keeps a state.
    rng = np.random.default_rng(seed)
    if rank == 5:
        rho = random_density(rng)
    else:
        ket = rng.normal(size=4) + 1j * rng.normal(size=4)
        ket[rng.permutation(4)[rank:]] = 0
        rho = DensityMatrix(np.outer(ket, ket.conj()) / np.vdot(ket, ket).real)
    want = oracle_apply(program, rho)
    assert np.abs(apply(program, rho).matrix - want.matrix).max() <= 1e-12


def test_apply_on_a_stack_matches_per_state_apply(random_states):
    stack = np.array([rho.matrix for rho in random_states[:200]])
    p = SpinSystemParams()
    programs = [filtration_sequence(p), selective_pulse("S", p),
                ChannelProgram(channels=tuple(ch for ch, _ in every_constructor()), params=p),
                relax(0.25, p)]
    for prog in programs:
        got = apply(prog, stack.reshape(20, 10, 4, 4))
        assert isinstance(got, np.ndarray) and got.shape == (20, 10, 4, 4)
        want = np.array([apply(prog, rho).matrix for rho in random_states[:200]])
        assert np.abs(got.reshape(200, 4, 4) - want).max() <= 1e-15
        for ch in (prog,) if isinstance(prog, Channel) else prog.channels:
            single = np.array([ch.apply_matrix(m) for m in stack])
            assert np.abs(ch.apply_matrix(stack) - single).max() <= 1e-15
    # an empty program returns the checked stack itself
    assert np.array_equal(apply(ChannelProgram(channels=(), params=p), stack), stack)


def test_apply_on_a_stack_names_the_breaking_channel(random_states):
    ket = np.array([1, 1, 0, 0]) / math.sqrt(2)
    breaking = np.outer(ket, ket).astype(complex)
    stack = np.array([random_states[0].matrix, breaking, random_states[1].matrix])
    drift = trace_drift(0.9)
    prog = ChannelProgram(channels=(drift, drift, relax(0.1, AT_2T1)), params=AT_2T1)
    # every member's trace drifts; the message is the first member's
    with pytest.raises(ChannelError) as want:
        apply(prog, random_states[0])
    with pytest.raises(ChannelError) as got:
        apply(prog, stack)
    assert str(got.value) == str(want.value)
    assert "channel relax(0.1) broke state invariants: trace" in str(got.value)
    # an invalid input is a state error, as building a DensityMatrix is
    stack[2, 0, 1] = 0.3
    with pytest.raises(StateValidationError, match="not Hermitian"):
        apply(prog, stack)


def batched_matvec_apply(sup, m):
    """_apply_superop as one 16x16 matrix-vector product per matrix, before
    it became one product of the (..., 16) stack with sup transposed;
    oracle."""
    return (sup @ m.reshape(m.shape[:-2] + (16, 1))).reshape(m.shape)


def test_apply_superop_matches_batched_matvec_oracle(random_states):
    # one product sums in another order than the batched matvecs: 1e-15
    # is a few units in the last place of entries of order 1
    stack = np.array([rho.matrix for rho in random_states[:100]])
    for ch, _ in every_constructor():
        for m in (stack, stack.reshape(4, 25, 4, 4), stack[0]):
            got = channels._apply_superop(ch.superop, m)
            assert got.shape == m.shape
            assert np.abs(got - batched_matvec_apply(ch.superop, m)).max() <= 1e-15, ch.label


def loop_apply(program, rho):
    """apply as it ran before composition: each channel's map in turn, and
    the state validated after the last, a broken state named after the
    last channel; the oracle of the composed apply."""
    chans = (program,) if isinstance(program, Channel) else program.channels
    if isinstance(rho, DensityMatrix):
        m, check = rho.matrix, DensityMatrix
    else:
        m, check = channels.check_density(rho), channels.check_density
    for ch in chans:
        m = ch.apply_matrix(m)
    try:
        return check(m)
    except StateValidationError as exc:
        raise ChannelError(
            f"channel {chans[-1].label} broke state invariants: {exc}") from exc


def programs_for_composition():
    """Programs of the builders, and programs with one or two relax steps
    at T2 = 2 T1, first, in the middle and last."""
    p = SpinSystemParams()
    every = tuple(ch for ch, _ in every_constructor())
    r1, r2 = relax(0.1, AT_2T1), relax(0.05, AT_2T1)
    filt = filtration_sequence(p).channels
    sel = selective_pulse("I", p).channels
    return [filtration_sequence(p), selective_pulse("S", p),
            ChannelProgram(channels=every, params=p),
            ChannelProgram(channels=(r1,) + filt, params=AT_2T1),
            ChannelProgram(channels=filt + (r1,) + sel, params=AT_2T1),
            ChannelProgram(channels=sel + (r1,), params=AT_2T1),
            ChannelProgram(channels=sel + (r1,) + filt + (r2,) + sel, params=AT_2T1),
            ChannelProgram(channels=(r1, r2) + every, params=AT_2T1)]


def test_composed_apply_matches_loop(random_states):
    stack = np.array([rho.matrix for rho in random_states[:100]])
    for prog in programs_for_composition():
        for rho in random_states[:100]:
            got, want = apply(prog, rho), loop_apply(prog, rho)
            assert isinstance(got, DensityMatrix)
            assert np.abs(got.matrix - want.matrix).max() <= 1e-15
        got = apply(prog, stack.reshape(10, 10, 4, 4))
        want = loop_apply(prog, stack.reshape(10, 10, 4, 4))
        assert got.shape == (10, 10, 4, 4)
        assert np.abs(got - want).max() <= 1e-15


def test_composed_apply_matches_loop_on_every_constructor(random_states):
    p = SpinSystemParams()
    stack = np.array([rho.matrix for rho in random_states[:100]])
    for ch, _ in every_constructor():
        prog = ChannelProgram(channels=(ch,), params=p)
        for target in (ch, prog):
            for rho in random_states[:100]:
                assert apply(target, rho) == loop_apply(ch, rho), ch.label
            assert np.array_equal(apply(target, stack), loop_apply(ch, stack)), ch.label
        # a one-channel program's map is the channel's own, read-only
        assert np.array_equal(prog.superop, ch.superop) and not prog.superop.flags.writeable
    empty = ChannelProgram(channels=(), params=p)
    assert np.array_equal(empty.superop, np.eye(16)) and not empty.superop.flags.writeable


@pytest.fixture
def validation_counts(monkeypatch):
    """Counts of check_density calls made by apply on a stack and of
    DensityMatrix validations, whoever makes them."""
    counts = {"check_density": 0, "DensityMatrix": 0}
    check, post_init = channels.check_density, DensityMatrix.__post_init__

    def counting_check(m):
        counts["check_density"] += 1
        return check(m)

    def counting_post_init(self):
        counts["DensityMatrix"] += 1
        post_init(self)

    monkeypatch.setattr(channels, "check_density", counting_check)
    monkeypatch.setattr(DensityMatrix, "__post_init__", counting_post_init)
    return counts


def test_composed_apply_validates_where_the_loop_does(random_states, validation_counts):
    # one validation per apply, after the one map; an array is also
    # checked on entry
    rho = random_states[0]
    stack = np.array([r.matrix for r in random_states[:8]])
    programs = programs_for_composition() + [
        ChannelProgram(channels=(), params=SpinSystemParams()), relax(0.1, AT_2T1)]
    for prog in programs:
        for run in (apply, loop_apply):
            validation_counts.update(check_density=0, DensityMatrix=0)
            run(prog, rho)
            assert validation_counts == {"check_density": 0, "DensityMatrix": 1}
            validation_counts.update(check_density=0, DensityMatrix=0)
            run(prog, stack)
            assert validation_counts == {"check_density": 2, "DensityMatrix": 0}


def test_composed_apply_names_the_same_breaking_channel():
    # two maps within TP_TOL of trace preserving break every state; the
    # program's last channel is named, whichever channel that is
    drift = trace_drift(0.9)
    first, second = relax(0.1, AT_2T1), relax(0.2, AT_2T1)
    sel = selective_pulse("S", AT_2T1).channels
    programs = [ChannelProgram(channels=(drift, first) + sel + (drift, second), params=AT_2T1),
                ChannelProgram(channels=sel + (drift,) + sel + (first, drift, zq_dephase()),
                               params=AT_2T1),
                # one drift keeps the trace within TRACE_TOL
                ChannelProgram(channels=(hard_pulse(90, 0), drift, first, hard_pulse(90, 180)),
                               params=AT_2T1),
                ChannelProgram(channels=(relax(0.01, AT_2T1),) + sel + (second,), params=AT_2T1)]
    named = set()
    for prog in programs:
        for ket in ([1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 0, 1], [1, 0, 0, 0]):
            ket = np.array(ket) / np.linalg.norm(ket)
            rho = DensityMatrix(np.outer(ket, ket))
            try:
                loop_apply(prog, rho)
            except ChannelError as exc:
                with pytest.raises(ChannelError) as got:
                    apply(prog, rho)
                assert str(got.value).split(":")[0] == str(exc).split(":")[0]
                with pytest.raises(ChannelError) as got_stack:
                    apply(prog, rho.matrix[None])
                assert str(got_stack.value).split(":")[0] == str(exc).split(":")[0]
                named.add(str(exc).split(":")[0])
            else:
                assert np.abs(apply(prog, rho).matrix
                              - loop_apply(prog, rho).matrix).max() <= 1e-15
    assert named == {"channel relax(0.2) broke state invariants",
                     "channel zq_dephase broke state invariants"}
