import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from spinpair.channels import (
    Channel,
    ChannelError,
    ChannelProgram,
    apply,
    apply_channel,
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
    return apply_channel(ch, DensityMatrix(mat)).matrix

def hamiltonian(params, include_j=True, strong=False):
    h = 2 * math.pi * (-params.delta_nu_hz / 2) * IZ \
        + 2 * math.pi * (params.delta_nu_hz / 2) * KZ
    if include_j:
        if strong:
            h = h + 2 * math.pi * params.j_hz * (IX @ KX + IY @ KY + IZ @ KZ)
        else:
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
        assert np.allclose(ch.u, u_oracle, atol=1e-12)


def test_free_evolution_matches_expm_oracle():
    p = SpinSystemParams()
    for t in (1e-4, 5.08130081300813e-4, 0.01, 0.37):
        ch = free_evolution(t, p)
        u_oracle = scipy.linalg.expm(-1j * t * hamiltonian(p))
        assert np.allclose(ch.u, u_oracle, atol=1e-10)
        ch_nj = free_evolution(t, p, include_j=False)
        u_nj = scipy.linalg.expm(-1j * t * hamiltonian(p, include_j=False))
        assert np.allclose(ch_nj.u, u_nj, atol=1e-10)


def test_free_evolution_strong_coupling_oracle():
    p = SpinSystemParams(delta_nu_hz=6000.0)
    ch = free_evolution(2e-4, p, coupling_mode="strong")
    u_oracle = scipy.linalg.expm(-1j * 2e-4 * hamiltonian(p, strong=True))
    assert np.allclose(ch.u, u_oracle, atol=1e-10)


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
                       include_j=False)


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
        Channel(kind="unitary", label="bad", u=bad)


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
    p = SpinSystemParams()
    rho = random_density(rng).matrix
    t = 0.7
    out = ap(relax(t, p), rho)
    decay = math.exp(-t / p.t2_s)
    off = ~np.eye(4, dtype=bool)
    assert np.allclose(out[off], rho[off] * decay, atol=1e-14)


def test_relax_diagonal_t1_exponential(rng):
    p = SpinSystemParams()
    rho = random_density(rng).matrix
    t = 0.9
    out = ap(relax(t, p), rho)
    eq = make_thermal(p, mode="exact").matrix
    f = math.exp(-t / p.t1_s)
    expect = eq.diagonal() + f * (rho.diagonal() - eq.diagonal())
    assert np.allclose(out.diagonal(), expect, atol=1e-14)


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
    assert len(prog.channels) == 3
    assert prog.channels[0].kind == "unitary"
    assert prog.channels[1].kind == "delay"
    assert prog.channels[1].t_s == pytest.approx(1 / (4 * p.delta_nu_hz))
    assert prog.channels[2].kind == "unitary"
    with pytest.raises(ValueError):
        selective_pulse("Q", p)


def test_gradient_period_structure_and_effect(rng):
    p = SpinSystemParams()
    chans = gradient_period(p)
    assert len(chans) == 2
    assert chans[0].t_s == pytest.approx(1 / p.delta_nu_hz)
    assert chans[1].kind == "zeeman_dephase"
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
    prog = filtration_sequence(SpinSystemParams())
    assert len(prog.channels) == 5
    kinds = [c.kind for c in prog.channels]
    assert kinds == ["delay", "zeeman_dephase", "unitary", "delay",
                     "zeeman_dephase"]


def test_apply_rejects_negative_duration():
    with pytest.raises(ChannelError):
        free_evolution(-1.0, SpinSystemParams())
    with pytest.raises(ChannelError):
        relax(-0.1, SpinSystemParams())


def test_program_total_duration():
    p = SpinSystemParams()
    prog = selective_pulse("I", p)
    assert prog.total_duration_s == pytest.approx(1 / (4 * p.delta_nu_hz))


@settings(max_examples=40, deadline=None)
@given(st.floats(0, 360), st.floats(0, 360))
def test_hard_pulse_unitary_property(angle, phase):
    ch = hard_pulse(angle, phase)
    assert np.allclose(ch.u @ ch.u.conj().T, np.eye(4), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(1e-6, 10.0))
def test_free_evolution_time_additivity(t):
    p = SpinSystemParams()
    u1 = free_evolution(t, p).u
    u2 = free_evolution(2 * t, p).u
    assert np.allclose(u1 @ u1, u2, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 3.0))
def test_relax_is_positive_map(seed, t):
    rho = random_density(np.random.default_rng(seed))
    apply_channel(relax(t, SpinSystemParams()), rho)


# The per-kind dispatch and the loop that revalidated every intermediate
# state, as channels ran them before superoperators; oracles below.
_M_TOTAL = np.array([1.0, 0.0, 0.0, -1.0])
_ZEEMAN_MASK = (_M_TOTAL[:, None] == _M_TOTAL[None, :]).astype(float)


def oracle_apply_matrix(ch, m):
    if ch.kind in ("unitary", "delay"):
        return ch.u @ m @ ch.u.conj().T
    if ch.kind == "zeeman_dephase":
        return m * _ZEEMAN_MASK
    if ch.kind == "zq_dephase":
        return m * np.eye(4)
    if ch.kind == "relax":
        diag = m.diagonal().real
        relaxed = ch.eq_diag + (diag - ch.eq_diag) * ch.f1
        return np.diag(relaxed.astype(complex)) + (m * (1.0 - np.eye(4))) * ch.f2
    raise AssertionError(ch.kind)


def oracle_apply(program, rho):
    for ch in program.channels:
        try:
            rho = DensityMatrix(oracle_apply_matrix(ch, rho.matrix))
        except StateValidationError as exc:
            raise ChannelError(
                f"channel {ch.label} broke state invariants: {exc}") from exc
    return rho


NON_CP = SpinSystemParams(t1_s=0.5, t2_s=1.0)


def every_constructor():
    p = SpinSystemParams()
    strong = SpinSystemParams(delta_nu_hz=6000.0)
    return [hard_pulse(90, 0), hard_pulse(45, 135), hard_pulse(217.3, 31.0),
            free_evolution(0.01, p), free_evolution(0.37, p, include_j=False),
            free_evolution(2e-4, strong, coupling_mode="strong"),
            zeeman_dephase(), zq_dephase(),
            relax(0.0, p), relax(0.25, p), relax(1e4, p),
            relax(0.1, NON_CP), relax(0.1, SpinSystemParams(t1_s=0.5, t2_s=1.5))]


def test_superoperators_match_per_kind_oracle(random_states):
    for ch in every_constructor():
        for rho in random_states[:100]:
            got = ch.apply_matrix(rho.matrix)
            assert np.abs(got - oracle_apply_matrix(ch, rho.matrix)).max() <= 1e-13, ch.label


def test_complete_positivity_flag():
    p = SpinSystemParams()
    assert hard_pulse(90, 0).cp and free_evolution(0.01, p).cp
    assert zeeman_dephase().cp and zq_dephase().cp
    assert relax(0.25, p).cp and relax(0.0, NON_CP).cp
    # T2 = 2 T1: off-diagonals outlive the populations they hang between
    assert not relax(0.1, NON_CP).cp


def test_channel_not_trace_preserving_is_refused():
    with pytest.raises(ChannelError, match="leaky.*not trace preserving"):
        Channel(kind="relax", label="leaky", t_s=1.0, f1=0.5, f2=0.5,
                eq_diag=np.full(4, 0.3))


@pytest.mark.parametrize("tail", [(), (zq_dephase(),)])
def test_non_cp_relax_breaking_a_state_names_the_channel(tail):
    # a trailing zq_dephase would hide the negative intermediate state
    p = SpinSystemParams(t1_s=0.5, t2_s=1.5)
    ket = np.array([1, 1, 0, 0]) / math.sqrt(2)
    rho = DensityMatrix(np.outer(ket, ket))
    prog = ChannelProgram(channels=(relax(0.1, p),) + tail, params=p)
    with pytest.raises(ChannelError, match=r"channel relax\(0\.1\) broke state invariants"):
        apply(prog, rho)


@st.composite
def relaxing_program(draw):
    """A compiled .pseq program whose T2 often exceeds 4/3 T1, so that
    non-CP relax steps, and states they break, are common."""
    t1 = draw(st.floats(0.2, 3.0))
    headers = (("t1", t1), ("t2", t1 * draw(st.floats(0.1, 4.0))))
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
    # non-CP relax breaks; 4 is a pure and 5 a full-rank mixed state
    rng = np.random.default_rng(seed)
    if rank == 5:
        rho = random_density(rng)
    else:
        ket = rng.normal(size=4) + 1j * rng.normal(size=4)
        ket[rng.permutation(4)[rank:]] = 0
        rho = DensityMatrix(np.outer(ket, ket.conj()) / np.vdot(ket, ket).real)
    try:
        want = oracle_apply(program, rho)
    except ChannelError as exc:
        with pytest.raises(ChannelError) as got:
            apply(program, rho)
        assert str(got.value).split(":")[0] == str(exc).split(":")[0]
        return
    assert np.abs(apply(program, rho).matrix - want.matrix).max() <= 1e-12


def test_apply_on_a_stack_matches_per_state_apply(random_states):
    stack = np.array([rho.matrix for rho in random_states[:200]])
    p = SpinSystemParams()
    programs = [filtration_sequence(p), selective_pulse("S", p),
                ChannelProgram(channels=tuple(every_constructor()[:-1]), params=p)]
    for prog in programs:
        got = apply(prog, stack.reshape(20, 10, 4, 4))
        assert isinstance(got, np.ndarray) and got.shape == (20, 10, 4, 4)
        want = np.array([apply(prog, rho).matrix for rho in random_states[:200]])
        assert np.abs(got.reshape(200, 4, 4) - want).max() <= 1e-15
        for ch in prog.channels:
            single = np.array([ch.apply_matrix(m) for m in stack])
            assert np.abs(ch.apply_matrix(stack) - single).max() <= 1e-15
    # an empty program returns the checked stack itself
    assert np.array_equal(apply(ChannelProgram(channels=(), params=p), stack), stack)


def test_apply_on_a_stack_names_the_breaking_channel(random_states):
    p = SpinSystemParams(t1_s=0.5, t2_s=1.5)
    ket = np.array([1, 1, 0, 0]) / math.sqrt(2)
    breaking = np.outer(ket, ket).astype(complex)
    stack = np.array([random_states[0].matrix, breaking, random_states[1].matrix])
    prog = ChannelProgram(channels=(relax(0.1, p), zq_dephase()), params=p)
    with pytest.raises(ChannelError) as want:
        apply(prog, DensityMatrix(breaking))
    with pytest.raises(ChannelError) as got:
        apply(prog, stack)
    assert str(got.value) == str(want.value)
    assert "channel relax(0.1) broke state invariants" in str(got.value)
    # an invalid input is a state error, as building a DensityMatrix is
    stack[2, 0, 1] = 0.3
    with pytest.raises(StateValidationError, match="not Hermitian"):
        apply(prog, stack)
