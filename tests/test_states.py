import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinpair import spectro, states
from spinpair.channels import apply, filtration_sequence, hard_pulse
from spinpair.constants import BOLTZMANN_K, PLANCK_H
from spinpair.states import (
    BELL_BASIS,
    EIG_TOL,
    HERM_TOL,
    TRACE_TOL,
    BellPopulations,
    DensityMatrix,
    NAMED_STATES,
    SpinSystemParams,
    StateValidationError,
    bell_frame,
    check_density,
    bell_diagonal,
    fidelity,
    from_product_operators,
    make_named_state,
    make_pseudo_pure,
    make_singlet,
    make_thermal,
    purity,
    to_bell_populations,
    to_product_operators,
)

from conftest import random_density

# Pauli matrices written out independently of the package definitions.
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
PAULI = {"e": ID2, "x": SX, "y": SY, "z": SZ}


def test_bell_basis_is_orthonormal():
    assert np.allclose(BELL_BASIS.conj().T @ BELL_BASIS, np.eye(4))


def test_bell_basis_column_order():
    # columns: singlet, T0, T+1=|11>, T-1=|00>
    s = (np.array([0, 1, 0, 0]) - np.array([0, 0, 1, 0])) / np.sqrt(2)
    t0 = (np.array([0, 1, 0, 0]) + np.array([0, 0, 1, 0])) / np.sqrt(2)
    assert np.allclose(BELL_BASIS[:, 0], s)
    assert np.allclose(BELL_BASIS[:, 1], t0)
    assert np.allclose(BELL_BASIS[:, 2], [0, 0, 0, 1])
    assert np.allclose(BELL_BASIS[:, 3], [1, 0, 0, 0])


def test_density_matrix_validation():
    with pytest.raises(StateValidationError):
        DensityMatrix(np.eye(3))
    with pytest.raises(StateValidationError):
        DensityMatrix(np.eye(4) / 2)  # trace 2
    nonherm = np.eye(4) / 4 + 0j
    nonherm[0, 1] = 0.2
    with pytest.raises(StateValidationError):
        DensityMatrix(nonherm)
    negative = np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex)
    with pytest.raises(StateValidationError):
        DensityMatrix(negative)


def test_density_matrix_is_frozen():
    rho = make_singlet()
    with pytest.raises((ValueError, AttributeError)):
        rho.matrix[0, 0] = 1.0


def test_singlet_matrix():
    psi = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    assert np.allclose(make_singlet().matrix, np.outer(psi, psi.conj()))


def test_singlet_product_operators():
    c = to_product_operators(make_singlet())
    assert c[("e", "e")] == pytest.approx(0.25)
    for ax in "xyz":
        assert c[(ax, ax)] == pytest.approx(-0.5)
        assert c[(ax, "e")] == pytest.approx(0.0, abs=1e-15)
        assert c[("e", ax)] == pytest.approx(0.0, abs=1e-15)


def test_product_operator_round_trip(random_states):
    for rho in random_states[:50]:
        back = from_product_operators(to_product_operators(rho))
        assert np.allclose(back.matrix, rho.matrix, atol=1e-12)


def test_product_operator_extraction_matches_trace_formula(rng):
    # c_ab = tr(rho (sa x sb)) / 2 for every non-identity pair
    rho = random_density(rng)
    c = to_product_operators(rho)
    for a in "exyz":
        for b in "exyz":
            op = np.kron(PAULI[a], PAULI[b])
            expect = np.trace(rho.matrix @ op).real
            expect *= 0.25 if (a, b) == ("e", "e") else 0.5
            assert c[(a, b)] == pytest.approx(expect, abs=1e-12)


def kron_to_product_operators(rho):
    """The double np.kron loop to_product_operators used to run; oracle."""
    m = rho.matrix
    table = np.empty((4, 4))
    for i, a in enumerate("exyz"):
        for j, b in enumerate("exyz"):
            op = np.kron(PAULI[a], PAULI[b])
            if a == "e" and b == "e":
                table[i, j] = m.trace().real / 4
            else:
                table[i, j] = np.trace(m @ op).real / 2
    return table


def kron_from_product_operators(table):
    """The double np.kron loop from_product_operators used to run; oracle."""
    m = np.zeros((4, 4), dtype=complex)
    for i, a in enumerate("exyz"):
        for j, b in enumerate("exyz"):
            c = table[i, j]
            if c == 0.0:
                continue
            op = np.kron(PAULI[a], PAULI[b])
            if a == "e" and b == "e":
                m += c * op
            else:
                m += c * op / 2
    return m


def test_product_operators_match_kron_oracle(random_states):
    for rho in random_states[:300]:
        c = to_product_operators(rho)
        assert np.abs(c.table - kron_to_product_operators(rho)).max() <= 1e-15
        back = from_product_operators(c).matrix
        assert np.abs(back - kron_from_product_operators(c.table)).max() <= 1e-15


def einsum_to_product_operators(m):
    """The einsum over the 16 Pauli products that to_product_operators ran
    before its (16, 16) map on vec(rho); oracle."""
    return np.einsum("abij,ji->ab", states.PAULI_PRODUCTS, m).real * states._PO_SCALE


def test_product_operator_map_matches_einsum_oracle(random_states):
    for rho in random_states:
        got = to_product_operators(rho).table
        assert np.abs(got - einsum_to_product_operators(rho.matrix)).max() <= 2.3e-16


def adjoint_basis_bell_frame(m):
    """bell_frame as two batched 4x4 products B^H m B, before it became one
    (16, 16) map on vec(rho); oracle."""
    r = BELL_BASIS.conj().T @ m @ BELL_BASIS
    off = (r * (1 - np.eye(4))).view(float)
    return r.diagonal(axis1=-2, axis2=-1).real, np.sqrt((off * off).sum(axis=(-2, -1)))


def adjoint_basis_bell_diagonal(pops):
    """bell_diagonal_matrices as B diag(pops) B^H, before it became one
    product with the (4, 16) projector map; oracle."""
    return (BELL_BASIS * pops[..., None, :]) @ BELL_BASIS.conj().T


def test_bell_frame_matches_adjoint_basis_oracle(random_states, rng):
    # the map sums in another order than the two products: 1e-15 is a few
    # units in the last place of entries of order 1
    stack = np.array([rho.matrix for rho in random_states])
    want_p, want_o = adjoint_basis_bell_frame(stack)
    diag, res = bell_frame(stack.reshape(50, 20, 4, 4))
    assert diag.shape == (50, 20, 4) and res.shape == (50, 20)
    assert np.abs(diag.reshape(1000, 4) - want_p).max() <= 1e-15
    assert np.abs(res.reshape(1000) - want_o).max() <= 1e-15
    # one state at a time agrees with the stack
    for rho, p, o in zip(random_states[:100], diag.reshape(1000, 4), res.reshape(1000)):
        d1, r1 = bell_frame(rho.matrix)
        assert d1.shape == (4,) and r1.shape == ()
        assert np.abs(d1 - p).max() <= 1e-15 and abs(r1 - o) <= 1e-15
    pops = rng.dirichlet(np.ones(4), size=(50, 3))
    got = states.bell_diagonal_matrices(pops)
    assert got.shape == (50, 3, 4, 4)
    assert np.abs(got - adjoint_basis_bell_diagonal(pops)).max() <= 1e-15
    one = states.bell_diagonal_matrices(pops[0, 0])
    assert np.abs(one - adjoint_basis_bell_diagonal(pops[0, 0])).max() <= 1e-15
    assert np.abs(one - got[0, 0]).max() <= 1e-15


def test_bell_projector_map_is_the_frame_populations():
    # the (4, 16) projector map builds the states whose populations the
    # first four columns of the frame map read, and spectro reads it too
    assert spectro._BELL_PROJECTORS is states._BELL_PROJECTORS
    assert np.abs(states._BELL_PROJECTORS @ states._BELL_FRAME[:, :4] - np.eye(4)).max() <= 1e-15
    assert np.abs(states._BELL_PROJECTORS @ states._BELL_FRAME[:, 4:]).max() <= 1e-15


def test_thermal_exact_boltzmann():
    p = SpinSystemParams()
    b = p.b_factor
    m = np.array([1.0, 0.0, 0.0, -1.0])
    w = np.exp(b * m)
    expect = np.diag(w / w.sum()).astype(complex)
    rho = make_thermal(p, mode="exact")
    assert np.allclose(rho.matrix, expect, atol=1e-15)
    assert b == pytest.approx(6.507448235072842e-05)


def test_thermal_exact_deep_cryo_ground_population():
    # B = 3.127 puts nearly all weight on |00>
    h_over_k = PLANCK_H / BOLTZMANN_K
    temp = h_over_k * 400e6 / 3.127
    p = SpinSystemParams(temp_k=temp)
    rho = make_thermal(p, mode="exact")
    g = rho.matrix[0, 0].real
    w = np.exp(3.127 * np.array([1.0, 0.0, 0.0, -1.0]))
    assert g == pytest.approx(w[0] / w.sum(), rel=1e-9)
    assert g == pytest.approx(0.9177502642126417, abs=1e-12)


def test_thermal_linearized_rejects_large_b():
    h_over_k = PLANCK_H / BOLTZMANN_K
    p = SpinSystemParams(temp_k=h_over_k * 400e6 / 0.2)  # B = 0.2
    with pytest.raises(ValueError):
        make_thermal(p, mode="linearized")
    make_thermal(p, mode="exact")  # exact mode has no such limit


def test_thermal_state_past_the_exp_overflow_is_the_zeeman_ground_state():
    # the Boltzmann weights exp(B) overflowed past B = 709.78 and were
    # refused; tanh(B/2) rounds to 1 far below that, and the state is then
    # exactly |00><00|, with no numpy warning (pytest turns RuntimeWarning
    # into an error)
    h_over_k = PLANCK_H / BOLTZMANN_K
    ground = np.diag([1.0, 0.0, 0.0, 0.0])
    for temp_k in (h_over_k * 400e6 / 40.0, h_over_k * 400e6 / 709.0, 1e-300):
        assert np.array_equal(make_thermal(SpinSystemParams(temp_k=temp_k)).matrix, ground)


def test_thermal_state_is_the_product_of_spin_polarizations():
    # E/4 plus the one traceless part spectro reads too, equal to
    # (1 + t 2Iz)(1 + t 2Sz)/4 with t = tanh(B/2) at every B
    h_over_k = PLANCK_H / BOLTZMANN_K
    cases = [SpinSystemParams(nu_hz=1e-290, temp_k=1e23)]  # B = 5e-324
    cases += [SpinSystemParams(temp_k=h_over_k * 400e6 / b)
              for b in (1e-12, 6.5e-5, 0.1, 3.127, 40.0)]
    for p in cases:
        t = math.tanh(p.b_factor / 2)
        rho = make_thermal(p).matrix
        assert np.array_equal(rho, states.E4 / 4 + states._thermal_deviation(p))
        product = np.kron(np.diag([1 + t, 1 - t]), np.diag([1 + t, 1 - t])) / 4
        assert np.abs(rho - product).max() <= 1e-16


@pytest.mark.parametrize("nu_hz, temp_k", [(400e6, 1e-320), (1e-300, 295.0),
                                           (1e-200, 1e200), (1e300, 1e-300)])
def test_params_refuse_an_underflowing_b_factor(nu_hz, temp_k):
    # B must be in (0, inf): k*T == 0 would divide by zero in b_factor,
    # B == 0 in 2/B, and B == inf made 2/B zero
    with pytest.raises(ValueError, match="underflows to 0, or B overflows"):
        SpinSystemParams(nu_hz=nu_hz, temp_k=temp_k)


def test_thermal_unknown_mode():
    # "exact" is the only mode; the linearized state is gone
    for mode in ("quadratic", "linearized"):
        with pytest.raises(ValueError, match="unknown thermal mode"):
            make_thermal(SpinSystemParams(), mode=mode)


def test_pseudo_pure_bell_fractions():
    rho = make_pseudo_pure(0.916, make_singlet())
    pops = to_bell_populations(rho)
    assert pops.pS == pytest.approx(0.916 + 0.084 / 4)
    assert pops.pT0 == pytest.approx(0.084 / 4)
    assert pops.offBell == pytest.approx(0.0, abs=1e-12)


def test_pseudo_pure_limits():
    mixed = make_pseudo_pure(0.0, make_singlet())
    assert np.allclose(mixed.matrix, np.eye(4) / 4)
    pure = make_pseudo_pure(1.0, make_singlet())
    assert np.allclose(pure.matrix, make_singlet().matrix)
    with pytest.raises(ValueError):
        make_pseudo_pure(1.2, make_singlet())
    with pytest.raises(ValueError):
        make_pseudo_pure(-0.1, make_singlet())


def test_named_states():
    for name in NAMED_STATES:
        rho = make_named_state(name)
        assert purity(rho) == pytest.approx(1.0 if name != "MaximallyMixed" else 0.25)
    t0 = make_named_state("T0")
    assert to_bell_populations(t0).pT0 == pytest.approx(1.0)
    assert np.allclose(make_named_state("ZeemanGround").matrix,
                       np.diag([1, 0, 0, 0]).astype(complex))
    phip = make_named_state("PhiPlus")
    psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    assert np.allclose(phip.matrix, np.outer(psi, psi.conj()))
    with pytest.raises(ValueError, match="T0"):
        make_named_state("bogus")


def test_bell_diagonal_and_populations_round_trip():
    rho = bell_diagonal(0.937, 0.045, 0.009, 0.009)
    pops = to_bell_populations(rho)
    assert pops.as_tuple() == pytest.approx((0.937, 0.045, 0.009, 0.009))
    assert pops.offBell == pytest.approx(0.0, abs=1e-14)


def test_bell_populations_validation():
    with pytest.raises(ValueError):
        BellPopulations(pS=0.9, pT0=0.3, pTplus=0.0, pTminus=0.0, offBell=0.0)
    with pytest.raises(ValueError):
        BellPopulations(pS=1.1, pT0=-0.1, pTplus=0.0, pTminus=0.0, offBell=0.0)
    # each check tests that its condition holds, so NaN fails it
    for pops in ((math.nan,) * 4, (0.5, 0.5, math.nan, 0.0)):
        with pytest.raises(StateValidationError, match="populations sum to nan"):
            BellPopulations(*pops, 0.0)
    for off in (math.nan, math.inf):
        with pytest.raises(StateValidationError, match="offBell must be finite"):
            BellPopulations(0.25, 0.25, 0.25, 0.25, off)


def test_off_bell_measures_coherence(rng):
    rho = random_density(rng)
    pops = to_bell_populations(rho)
    # frobenius norm of the off-diagonal Bell-frame block, computed directly
    tilde = BELL_BASIS.conj().T @ rho.matrix @ BELL_BASIS
    off = tilde - np.diag(np.diag(tilde))
    assert pops.offBell == pytest.approx(np.linalg.norm(off), abs=1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        SpinSystemParams(j_hz=0.0)
    with pytest.raises(ValueError):
        SpinSystemParams(f_active=0.0)
    with pytest.raises(ValueError):
        SpinSystemParams(f_active=1.2)
    with pytest.raises(ValueError):
        SpinSystemParams(t2_s=-1.0)
    for name in ("nu_hz", "delta_nu_hz", "j_hz", "temp_k"):
        with pytest.raises(ValueError, match=name):
            SpinSystemParams(**{name: float("inf")})
    SpinSystemParams(f_active=1.0)
    # no relaxation is allowed
    SpinSystemParams(t1_s=float("inf"), t2_s=float("inf"))


def test_fidelity_pure_target(rng):
    rho = random_density(rng)
    s = make_singlet()
    expect = np.real(np.trace(rho.matrix @ s.matrix))
    assert fidelity(rho, s) == pytest.approx(expect, abs=1e-10)
    assert fidelity(s, s) == pytest.approx(1.0)


def test_fidelity_symmetric_and_bounded(rng):
    a, b = random_density(rng), random_density(rng)
    f = fidelity(a, b)
    assert fidelity(b, a) == pytest.approx(f, abs=1e-10)
    assert -1e-10 <= f <= 1 + 1e-10


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_bell_diagonal_any_simplex_point_is_valid(a, b, c):
    total = a + b + c
    if total > 1.0:
        a, b, c = a / total, b / total, c / total
        total = 1.0
    rho = bell_diagonal(a, b, c, 1.0 - total)
    assert np.trace(rho.matrix).real == pytest.approx(1.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 1.0))
def test_pseudo_pure_purity_monotone(eps):
    rho = make_pseudo_pure(eps, make_singlet())
    assert purity(rho) == pytest.approx(0.25 + 0.75 * eps * eps, abs=1e-12)


def _refusal(make, *args):
    with pytest.raises(StateValidationError) as exc:
        make(*args)
    return str(exc.value)


def _nonherm(dev):
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = dev
    return m


def _with_entry(i, j, value):
    m = np.eye(4, dtype=complex) / 4
    m[i, j] = value
    return m


@pytest.mark.parametrize("bad, worse", [
    (_nonherm(0.2), _nonherm(0.4)),
    (np.eye(4, dtype=complex) * (1 + 1e-9) / 4, np.eye(4, dtype=complex) * (1 + 2e-9) / 4),
    (np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex),
     np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)),
    (_with_entry(0, 0, np.nan), _with_entry(2, 3, -np.inf)),
], ids=["nonherm", "trace", "negative", "nonfinite"])
def test_check_density_refuses_what_density_matrix_refuses(random_states, bad, worse):
    stack = np.array([rho.matrix for rho in random_states[:20]])
    assert np.array_equal(check_density(stack), stack)
    stack[7] = bad
    # same refusal as DensityMatrix gives that member alone, and the same
    # for the member on its own as a 4x4 input
    want = _refusal(DensityMatrix, bad)
    assert _refusal(check_density, stack) == want
    assert _refusal(check_density, stack.reshape(4, 5, 4, 4)) == want
    assert _refusal(check_density, bad) == want
    for rho in stack[np.arange(20) != 7]:
        DensityMatrix(rho)
    # with two members failing the same check, the message is the first's
    stack[12] = worse
    assert _refusal(DensityMatrix, worse) != want
    assert _refusal(check_density, stack) == want


def _symmetric_pair(value):
    m = _with_entry(0, 1, value)
    m[1, 0] = value
    return m


@pytest.mark.parametrize("m, message", [
    (_with_entry(0, 0, np.nan), r"non-finite entry \(nan\+0j\) at \[0, 0\]"),
    (_with_entry(1, 1, complex(0.25, np.nan)), r"non-finite entry .*nanj\) at \[1, 1\]"),
    (_with_entry(0, 0, np.inf), r"non-finite entry \(inf\+0j\) at \[0, 0\]"),
    (_with_entry(2, 3, -np.inf), r"non-finite entry \(-inf\+0j\) at \[2, 3\]"),
    (_symmetric_pair(np.inf), r"non-finite entry \(inf\+0j\) at \[0, 1\]"),
    (np.full((4, 4), np.nan, dtype=complex), r"non-finite entry \(nan\+0j\) at \[0, 0\]"),
], ids=["nan", "nan-imag", "inf-diagonal", "inf-off-diagonal", "inf-symmetric-pair",
        "all-nan"])
def test_non_finite_entries_are_refused(m, message):
    # inf - inf in the Hermiticity deviation is NaN, which the check
    # refuses; numpy must not warn about it on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StateValidationError, match=message):
            DensityMatrix(m)
        with pytest.raises(StateValidationError, match=message):
            check_density(np.array([np.eye(4) / 4, m]))


def test_entries_near_the_float_limit_are_refused():
    # finite and Hermitian with unit trace, but the symmetrized sum
    # overflows and the eigensolver does not converge
    m = _with_entry(0, 1, 1.7e308)
    m[1, 0] = 1.7e308
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(StateValidationError, match="eigenvalues not computable"):
            DensityMatrix(m)


def eigvalsh_check_density(m):
    """check_density with every positivity decision made by eigvalsh, as
    before the Cholesky certificate; kept as the oracle."""
    m = np.asarray(m, dtype=complex)
    mh = m.conj().swapaxes(-1, -2)
    with np.errstate(invalid="ignore", over="ignore"):
        dev = np.abs(m - mh).max(axis=(-2, -1))
        h = (m + mh) / 2
    ok = np.asarray(dev <= HERM_TOL)
    if not ok.all():
        member = m[~ok][0] if m.ndim > 2 else m
        nonfinite = np.argwhere(~np.isfinite(member))
        if len(nonfinite):
            i, j = nonfinite[0]
            raise StateValidationError(f"non-finite entry {member[i, j]} at [{i}, {j}]")
        raise StateValidationError(f"not Hermitian: max deviation {np.asarray(dev)[~ok][0]:.3e}")
    tr = m.trace(axis1=-2, axis2=-1)
    ok = np.asarray(abs(tr - 1.0) <= TRACE_TOL)
    if not ok.all():
        raise StateValidationError(
            f"trace {np.asarray(tr)[~ok][0]} differs from 1 beyond tolerance")
    try:
        eigmin = np.linalg.eigvalsh(h).min(axis=-1)
    except np.linalg.LinAlgError as exc:
        raise StateValidationError(f"eigenvalues not computable: {exc}") from None
    ok = np.asarray(eigmin >= -EIG_TOL)
    if not ok.all():
        raise StateValidationError(f"negative eigenvalue {np.asarray(eigmin)[~ok][0]:.3e}")
    return m


def _outcome(check, m):
    """None when check accepts m, else its refusal message."""
    try:
        check(m)
    except StateValidationError as exc:
        return str(exc)
    return None


def _with_smallest_eigenvalue(rng, lam_min, n):
    """n Hermitian unit-trace matrices with random eigenvectors, smallest
    eigenvalue lam_min and the rest of the trace spread at random."""
    g = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
    q = np.linalg.qr(g)[0]
    lam = np.concatenate([np.full((n, 1), lam_min),
                          rng.dirichlet(np.ones(3), size=n) * (1 - lam_min)], axis=1)
    m = (q * lam[:, None, :]) @ q.conj().swapaxes(-1, -2)
    return (m + m.conj().swapaxes(-1, -2)) / 2


@pytest.fixture(params=["certificate", "eigvalsh-only"])
def certificate(request, monkeypatch):
    """Runs a test as is, and once with both Cholesky certificates refused,
    the single-matrix one and the stack one, so that the eigvalsh fallback
    alone decides."""
    if request.param == "eigvalsh-only":
        monkeypatch.setattr(states, "_certifies_stack", lambda m: False)
        monkeypatch.setattr(states, "_certifies_one", lambda m: False)


def _valid_and_kicked(seed):
    """1000 random states, and the same states each given a traceless
    Hermitian kick from 1e-12 to 1 in size: small ones keep the state,
    large ones push eigenvalues below zero."""
    rng = np.random.default_rng(seed)
    valid = np.array([random_density(rng).matrix for _ in range(1000)])
    g = rng.normal(size=(1000, 4, 4)) + 1j * rng.normal(size=(1000, 4, 4))
    kick = g + g.conj().swapaxes(-1, -2)
    kick -= kick.trace(axis1=-2, axis2=-1)[:, None, None] * np.eye(4) / 4
    return valid, valid + 10 ** rng.uniform(-12, 0, size=(1000, 1, 1)) * kick


def test_check_density_matches_eigvalsh_rule_on_random_inputs(certificate):
    valid, kicked = _valid_and_kicked(13)
    refused = [_outcome(eigvalsh_check_density, m) is not None for m in kicked]
    assert 100 < sum(refused) < 900
    for m in np.concatenate([valid, kicked]):
        assert _outcome(check_density, m) == _outcome(eigvalsh_check_density, m)
    assert np.array_equal(check_density(valid), valid)
    for stack in (kicked, kicked.reshape(10, 100, 4, 4), *kicked.reshape(100, 10, 4, 4)):
        assert _outcome(check_density, stack) == _outcome(eigvalsh_check_density, stack)


@pytest.mark.parametrize("factor", [1 - 1e-3, 1 + 1e-3])
def test_check_density_matches_eigvalsh_rule_at_the_tolerance(certificate, factor):
    # 1e-3 EIG_TOL is far above the rounding of either rule; within about
    # 1e-15 of the tolerance both rules are decided by rounding
    m = _with_smallest_eigenvalue(np.random.default_rng(17), -EIG_TOL * factor, 200)
    want = None if factor < 1 else "negative eigenvalue"
    for member in m:
        got = _outcome(check_density, member)
        assert got == _outcome(eigvalsh_check_density, member)
        assert got == want or got.startswith(want)
    assert _outcome(check_density, m) == _outcome(eigvalsh_check_density, m)


@pytest.mark.parametrize("position", [0, 13, 999])
def test_stack_with_one_member_below_the_tolerance_names_it(random_states, position):
    stack = np.array([rho.matrix for rho in random_states])
    stack[position] = _with_smallest_eigenvalue(np.random.default_rng(position),
                                                 -3.21e-10, 1)[0]
    assert _outcome(check_density, stack) == "negative eigenvalue -3.210e-10"
    assert _outcome(check_density, stack) == _outcome(DensityMatrix, stack[position])


@pytest.mark.parametrize("m", [
    _with_entry(0, 0, np.nan), _with_entry(1, 1, complex(0.25, np.nan)),
    _with_entry(0, 0, np.inf), _with_entry(2, 3, -np.inf), _symmetric_pair(np.inf),
    np.full((4, 4), np.nan, dtype=complex),
    _with_entry(0, 1, 1.7e308) + _with_entry(1, 0, 1.7e308) - np.eye(4) / 4,
], ids=["nan", "nan-imag", "inf-diagonal", "inf-off-diagonal", "inf-symmetric-pair",
        "all-nan", "float-limit"])
def test_check_density_matches_eigvalsh_rule_on_extreme_entries(m):
    want = _outcome(eigvalsh_check_density, m)
    assert want is not None
    assert _outcome(check_density, m) == want
    assert _outcome(check_density, np.array([np.eye(4) / 4, m])) == want


def _at_every_position(value):
    return [_with_entry(i, j, value) for i in range(4) for j in range(4)]


@pytest.mark.parametrize("cases", [
    _at_every_position(np.nan), _at_every_position(np.inf), _at_every_position(-np.inf),
    _at_every_position(complex(0.25, np.nan)), _at_every_position(1.5e308 + 1.5e308j),
    [_symmetric_pair(1.5e308 + 1.5e308j), _with_entry(0, 0, 1e308 + 1e308j)],
], ids=["nan", "inf", "-inf", "nan-imag", "overflowing-modulus", "float-limit"])
def test_scalar_hazards_match_eigvalsh_rule_without_warnings(cases):
    # Python scalars raise where numpy gives inf (abs of a complex whose
    # modulus overflows), and NaN compares false: the single-matrix
    # certificate refuses each case quietly and numpy words the refusal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in cases:
            want = _outcome(eigvalsh_check_density, m)
            assert want is not None
            assert _outcome(check_density, m) == want
            assert _outcome(check_density, np.array([np.eye(4) / 4, m])) == want


def _ensemble_kinds(rng, n):
    """n states of each kind the ensemble benchmark draws: Ginibre, pure,
    Werner near the 1/3 threshold and Bell-diagonal near weight 1/2."""
    out = []
    for _ in range(n):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        d = rng.uniform(-0.05, 0.05)
        w = np.insert((0.5 - d) * rng.dirichlet(np.ones(3)), rng.integers(4), 0.5 + d)
        for m in (a @ a.conj().T, np.outer(v, v.conj()),
                  (1 / 3 + d) * make_singlet().matrix + (2 / 3 - d) * np.eye(4) / 4,
                  bell_diagonal(*w).matrix):
            m = (m + m.conj().T) / 2
            out.append(m / m.trace().real)
    return out


def test_one_state_is_certified_without_numpy_linear_algebra(random_states, monkeypatch):
    rng = np.random.default_rng(31)
    ensemble = _ensemble_kinds(rng, 64)
    program = filtration_sequence(SpinSystemParams())

    def refuse(*args, **kwargs):
        raise AssertionError("a single state reached numpy's linear algebra")

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for m in [rho.matrix for rho in random_states] + ensemble:
        assert np.array_equal(DensityMatrix(m).matrix, m)
        assert isinstance(apply(program, DensityMatrix(m)), DensityMatrix)


@pytest.mark.parametrize("factor", [None, 1 - 1e-3, 1 + 1e-3],
                         ids=["kicked", "inside-tolerance", "outside-tolerance"])
def test_single_matrix_certificate_accepts_only_what_the_oracle_accepts(factor):
    if factor is None:
        m = _valid_and_kicked(19)[1]
    else:
        m = _with_smallest_eigenvalue(np.random.default_rng(23), -EIG_TOL * factor, 200)
    certified = [states._certifies_one(member) for member in m]
    accepted = [_outcome(eigvalsh_check_density, member) is None for member in m]
    assert certified == accepted


def lapack_stack_certifies(m):
    """The stack certificate before the unrolled one: the Hermiticity and
    trace checks, then one LAPACK Cholesky factorization of the whole
    symmetrized stack plus EIG_TOL I with a finite factor; kept as the
    oracle."""
    mh = m.conj().swapaxes(-1, -2)
    with np.errstate(invalid="ignore", over="ignore"):
        if not ((np.abs(m - mh).max(axis=(-2, -1)) <= HERM_TOL).all()
                and (abs(m.trace(axis1=-2, axis2=-1) - 1.0) <= TRACE_TOL).all()):
            return False
        h = (m + mh) / 2
    try:
        return bool(np.isfinite(np.linalg.cholesky(h + EIG_TOL * np.eye(4))).all())
    except np.linalg.LinAlgError:
        return False


def test_stack_certificate_accepts_only_what_the_oracle_accepts():
    valid, kicked = _valid_and_kicked(13)
    stacks = [valid, kicked]
    for m in (valid, kicked):
        stacks += [m.reshape(10, 100, 4, 4), *m.reshape(100, 10, 4, 4)]
    certified = [states._certifies_stack(stack) for stack in stacks]
    accepted = [_outcome(eigvalsh_check_density, stack) is None for stack in stacks]
    by_lapack = [lapack_stack_certifies(stack) for stack in stacks]
    assert 10 < sum(certified) < len(stacks) - 10
    assert all(a for c, a in zip(certified, accepted) if c)
    assert all(c for c, a, o in zip(certified, accepted, by_lapack) if a and o)
    # member by member, the stack certificate is the single-matrix one
    members = kicked.reshape(1000, 1, 4, 4)
    assert ([states._certifies_stack(m) for m in members]
            == [states._certifies_one(m[0]) for m in members])


def test_stack_certificate_on_empty_and_nested_stacks():
    assert states._certifies_stack(np.zeros((0, 4, 4), dtype=complex))
    nested = _valid_and_kicked(29)[0][:6].reshape(2, 3, 4, 4)
    assert states._certifies_stack(nested)
    assert np.array_equal(check_density(nested), nested)
    nested[1, 2] = _with_smallest_eigenvalue(np.random.default_rng(29), -3.21e-10, 1)[0]
    assert not states._certifies_stack(nested)
    assert _outcome(check_density, nested) == "negative eigenvalue -3.210e-10"


def test_member_within_herm_tol_but_past_the_halved_sum_takes_the_fallback(monkeypatch):
    # a Hermiticity sum in (HERM_TOL / 2, HERM_TOL] is outside the
    # certificate but inside check_density's rule: eigvalsh accepts it
    stack = _valid_and_kicked(31)[0][:8].copy()
    stack[5, 0, 1] += 0.7 * HERM_TOL
    assert HERM_TOL / 2 < np.abs(stack[5] - stack[5].conj().T).sum() / 2 <= HERM_TOL
    assert not states._certifies_stack(stack)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: calls.append(h) or eigvalsh(h))
    assert np.array_equal(check_density(stack), stack) and len(calls) == 1


def test_a_valid_stack_is_certified_without_numpy_linear_algebra(monkeypatch):
    valid = _valid_and_kicked(37)[0]

    def refuse(*args, **kwargs):
        raise AssertionError("a valid stack reached numpy's linear algebra")

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for stack in (valid, valid.reshape(10, 100, 4, 4), valid[:1]):
        assert np.array_equal(check_density(stack), stack)


def test_check_density_shapes():
    assert check_density(np.zeros((0, 4, 4))).shape == (0, 4, 4)
    for shape in [(4,), (3, 3), (2, 4, 3)]:
        with pytest.raises(StateValidationError, match="expected 4x4"):
            check_density(np.zeros(shape))
    with pytest.raises(StateValidationError, match="expected 4x4 matrix"):
        DensityMatrix(np.array([np.eye(4) / 4] * 2))


def loop_bell_populations(m):
    """to_bell_populations as it was written for one matrix at a time."""
    r_bell = BELL_BASIS.conj().T @ m @ BELL_BASIS
    off = r_bell - np.diag(r_bell.diagonal())
    return r_bell.diagonal().real, float(np.linalg.norm(off))


def test_bell_frame_matches_per_state_oracle(random_states):
    stack = np.array([rho.matrix for rho in random_states])
    pops, off = bell_frame(stack)
    assert pops.shape == (1000, 4) and off.shape == (1000,)
    for rho, p, o in zip(random_states, pops, off):
        want_p, want_o = loop_bell_populations(rho.matrix)
        assert np.abs(p - want_p).max() <= 1e-15
        assert abs(o - want_o) <= 1e-15
        got = to_bell_populations(rho)
        assert np.abs(np.subtract(got.as_tuple(), want_p)).max() <= 1e-15
        assert abs(got.offBell - want_o) <= 1e-15


def test_bell_diagonal_matches_diag_product(rng):
    for _ in range(200):
        p = rng.dirichlet(np.ones(4))
        want = BELL_BASIS @ np.diag(p.astype(complex)) @ BELL_BASIS.conj().T
        assert np.abs(bell_diagonal(*p).matrix - want).max() <= 1e-15


def uncached_fidelity(rho, sigma):
    """The Uhlmann fidelity through the full square root of sigma, as
    fidelity computed it before reading through sigma's support; oracle."""
    w, v = np.linalg.eigh(sigma.matrix)
    w = np.clip(w, 0, None)
    sqrt_sigma = v @ np.diag(np.sqrt(w)) @ v.conj().T
    inner = sqrt_sigma @ rho.matrix @ sqrt_sigma
    vals = np.clip(np.linalg.eigvalsh((inner + inner.conj().T) / 2), 0, None)
    return float(np.sqrt(vals).sum() ** 2)


def test_fidelity_with_cached_root_matches_uncached(random_states):
    # the cached support map is reused across calls and targets; it sums
    # in another order than the full square root, so the values agree to
    # 1e-14, not bit for bit
    targets = [make_singlet(), random_states[0], make_singlet(), random_states[1]]
    for sigma in targets:
        for rho in random_states[:100]:
            assert abs(fidelity(rho, sigma) - uncached_fidelity(rho, sigma)) <= 1e-14


def rotated_ket(ket, angle_deg, phase_deg):
    """kron(u, u) ket for the one-spin rotation u = exp(-i theta (cos(phi)
    sigma_x + sin(phi) sigma_y) / 2), written out in closed form."""
    theta, phi = np.deg2rad(angle_deg), np.deg2rad(phase_deg)
    u = (math.cos(theta / 2) * ID2
         - 1j * math.sin(theta / 2) * (math.cos(phi) * SX + math.sin(phi) * SY))
    return np.kron(u, u) @ ket


@pytest.mark.parametrize("ket", [states.SINGLET_KET, states.KET_00], ids=["singlet", "00"])
def test_fidelity_against_rotated_pure_target_is_the_overlap(rng, ket):
    # eigh leaves the null space of a rotated pure target as rounding noise
    # of a few eps, whose square roots (~3e-9) entered sqrt(sigma)
    target = DensityMatrix(np.outer(ket, ket.conj()))
    worst = 0.0
    for _ in range(300):
        angle, phase = rng.uniform(-360, 360, size=2)
        sigma = apply(hard_pulse(angle, phase), target)
        psi = rotated_ket(ket, angle, phase)
        rho = random_density(rng)
        overlap = (psi.conj() @ rho.matrix @ psi).real
        worst = max(worst, abs(fidelity(rho, sigma) - overlap))
    assert worst <= 1e-14


def test_pure_target_fidelity_runs_no_eigensolver(monkeypatch, rng):
    rhos = [random_density(rng) for _ in range(20)]
    # as many targets as the support-map cache holds
    targets = [make_singlet()] + [make_named_state(n) for n in ("T0", "PhiPlus", "Tplus")]
    for sigma in targets:
        fidelity(rhos[0], sigma)  # builds the support map once

    def refuse(*args, **kwargs):
        raise AssertionError("fidelity against a pure target ran an eigensolver")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for sigma in targets:
        for rho in rhos:
            want = np.trace(rho.matrix @ sigma.matrix).real
            assert abs(fidelity(rho, sigma) - want) <= 1e-15


def support_fidelity_oracle(rho, weights, kets):
    """(sum of the singular values of sqrt(rho) sqrt(sigma))^2 for
    sigma = sum_k weights[k] |kets[k]><kets[k]| with orthonormal kets:
    sqrt(sigma) comes from the construction, with exact zeros off its
    support."""
    w, v = np.linalg.eigh(rho.matrix)
    sqrt_rho = (v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T
    sqrt_sigma = (kets * np.sqrt(weights)) @ kets.conj().T
    return float(np.linalg.svd(sqrt_rho @ sqrt_sigma, compute_uv=False).sum() ** 2)


@pytest.mark.parametrize("rank", [2, 3])
def test_fidelity_on_rank_deficient_targets_matches_oracle(rng, rank):
    for _ in range(100):
        kets = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0][:, :rank]
        weights = rng.dirichlet(np.ones(rank))
        sigma = DensityMatrix((kets * weights) @ kets.conj().T)
        rho = random_density(rng)
        want = support_fidelity_oracle(rho, weights, kets)
        assert abs(fidelity(rho, sigma) - want) <= 1e-14
        assert abs(fidelity(sigma, sigma) - 1.0) <= 1e-14
