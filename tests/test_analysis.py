import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from spinpair import analysis
from spinpair.analysis import (
    TEMP_CEILING_K,
    analyze,
    concurrence,
    effective_conditions,
    eof,
    max_enhancement,
    min_pt_eigenvalue,
    para_fraction,
    partial_transpose,
    singlet_mixture_entangled,
)
from spinpair.channels import apply, filtration_sequence
from spinpair.constants import BOLTZMANN_K, GAMMA_1H_HZ_PER_T, PLANCK_H
from spinpair.states import (
    DensityMatrix,
    SpinSystemParams,
    bell_diagonal,
    bell_diagonal_matrices,
    make_named_state,
    make_pseudo_pure,
    make_singlet,
)

from conftest import random_density

SY2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
YY = np.kron(SY2, SY2)


def wootters_concurrence(rho):
    # independent route via the principal square roots
    rt = scipy.linalg.sqrtm(rho)
    tilde = YY @ rho.conj() @ YY
    r = scipy.linalg.sqrtm(rt @ tilde @ rt)
    lam = np.sort(np.linalg.eigvalsh(np.real_if_close(r)))[::-1]
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def binary_entropy(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def eof_from_concurrence(c):
    return binary_entropy((1 + math.sqrt(1 - min(1.0, c) ** 2)) / 2)


def werner(w):
    return make_pseudo_pure(w, make_singlet())


def test_partial_transpose_involution(rng):
    rho = random_density(rng).matrix
    assert np.allclose(partial_transpose(partial_transpose(rho)), rho)
    # transposes the second factor of a product operator
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.allclose(partial_transpose(np.kron(a, b)), np.kron(a, b.T))


def test_partial_transpose_preserves_trace_and_hermiticity(rng):
    rho = random_density(rng).matrix
    pt = partial_transpose(rho)
    assert np.trace(pt) == pytest.approx(1.0)
    assert np.allclose(pt, pt.conj().T)


def test_singlet_extremes():
    s = make_singlet()
    assert min_pt_eigenvalue(s.matrix) == pytest.approx(-0.5, abs=1e-12)
    assert concurrence(s.matrix) == pytest.approx(1.0, abs=1e-12)
    assert eof(s.matrix) == pytest.approx(1.0, abs=1e-12)


def test_maximally_mixed_is_separable():
    m = np.eye(4, dtype=complex) / 4
    assert min_pt_eigenvalue(m) == pytest.approx(0.25, abs=1e-14)
    assert concurrence(m) == pytest.approx(0.0, abs=1e-12)
    assert eof(m) == 0.0


def test_werner_closed_forms():
    # w singlet + (1-w)/4 identity: min PT eigenvalue (1-3w)/4,
    # concurrence max(0, (3w-1)/2); an X state, so both are read in
    # closed form (the eigen routes were up to 1.5e-15 off)
    for w in np.linspace(0.0, 1.0, 101):
        rho = werner(float(w)).matrix
        assert analysis._x_entries(rho) is not None
        assert min_pt_eigenvalue(rho) == pytest.approx((1 - 3 * w) / 4, abs=1e-15)
        assert concurrence(rho) == pytest.approx(
            max(0.0, (3 * w - 1) / 2), abs=1e-15)


def test_werner_threshold():
    third = 1.0 / 3.0
    assert abs(min_pt_eigenvalue(werner(third).matrix)) < 1e-10
    assert min_pt_eigenvalue(werner(third - 0.01).matrix) > 1e-10
    assert min_pt_eigenvalue(werner(third + 0.01).matrix) < -1e-10
    assert not analyze(werner(third - 0.01)).entangled
    assert analyze(werner(third + 0.01)).entangled


def test_concurrence_against_sqrtm_route(random_states):
    for rho in random_states[:50]:
        got = concurrence(rho.matrix)
        want = wootters_concurrence(rho.matrix)
        assert got == pytest.approx(want, abs=1e-8)


def test_spin_flip_matches_kron_conjugation(rng):
    # the signed index reversal is the product by YY on both sides exactly
    mats = rng.normal(size=(2000, 4, 4)) + 1j * rng.normal(size=(2000, 4, 4))
    for m in mats:
        assert np.array_equal(analysis._spin_flip(m), YY @ m.conj() @ YY)
    stack = mats.reshape(20, 100, 4, 4)
    assert np.array_equal(analysis._spin_flip(stack), YY @ stack.conj() @ YY)


def test_ppt_and_concurrence_agree(random_states):
    # for two qubits both criteria are exact: entangled iff C > 0 iff PT < 0
    for rho in random_states:
        mpt = min_pt_eigenvalue(rho.matrix)
        c = concurrence(rho.matrix)
        if c > 1e-8:
            assert mpt < 0
        if mpt < -1e-8:
            assert c > 0


def test_product_states_stay_ppt(rng):
    for _ in range(200):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        ra = a @ a.conj().T
        rb = b @ b.conj().T
        rho = np.kron(ra / np.trace(ra).real, rb / np.trace(rb).real)
        assert min_pt_eigenvalue(rho) >= -1e-12
        assert concurrence(rho) <= 1e-8


def test_eof_matches_binary_entropy_formula():
    for c in np.linspace(0.0, 1.0, 1001):
        rho = bell_diagonal((1 + c) / 2, (1 - c) / 2, 0.0, 0.0)
        assert concurrence(rho.matrix) == pytest.approx(c, abs=1e-10)
        assert eof(rho.matrix) == pytest.approx(eof_from_concurrence(c), abs=1e-9)


def test_eof_monotone_in_concurrence():
    cs = np.linspace(0.0, 1.0, 1001)
    vals = [eof_from_concurrence(c) for c in cs]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_reported_mixture_numbers():
    rho = bell_diagonal(0.937, 0.045, 0.009, 0.009)
    rep = analyze(rho)
    assert rep.entangled
    assert rep.concurrence == pytest.approx(0.874, abs=1e-3)
    assert rep.eof == pytest.approx(0.8222422287582869, abs=1e-9)
    assert rep.bell.pS == pytest.approx(0.937)
    d = rep.as_dict()
    assert d["bell"]["pS"] == pytest.approx(0.937)
    assert set(d) == {"min_pt_eigenvalue", "entangled", "concurrence",
                      "eof", "bell"}


def test_analyze_flags_threshold_consistently(random_states):
    for rho in random_states[:100]:
        rep = analyze(rho)
        assert rep.entangled == (rep.min_pt_eigenvalue < -1e-10)


def test_analyze_reports_concurrence_and_eof_exactly(random_states, rng):
    # analyze derives the EoF from its one concurrence; both must equal
    # the standalone functions bit for bit, on entangled states too
    states = list(random_states[:50])
    states += [make_pseudo_pure(e, make_singlet()) for e in np.linspace(0.3, 1.0, 15)]
    for _ in range(50):
        ket = rng.normal(size=4) + 1j * rng.normal(size=4)
        states.append(DensityMatrix(np.outer(ket, ket.conj()) / np.vdot(ket, ket).real))
    assert any(concurrence(rho) > 0.1 for rho in states)
    for rho in states:
        rep = analyze(rho)
        assert rep.concurrence == concurrence(rho)
        assert rep.eof == eof(rho)


def test_singlet_mixture_verdict_closed_form():
    # family: pS=a, pT0=(1-a)x, pT+-=(1-a)(1-x)/2 each. Bell-diagonal states
    # are entangled iff their largest population exceeds 1/2.
    for a in np.linspace(0.0, 1.0, 51):
        for x in np.linspace(0.0, 1.0, 51):
            want = max(a, (1 - a) * x) > 0.5 + 1e-12
            got = singlet_mixture_entangled(float(a), float(x))
            assert got == want, (a, x)


def test_singlet_mixture_threshold_in_singlet_fraction():
    # on the triplet-balanced slice x <= 1/2 the verdict reduces to a > 1/2
    for x in np.linspace(0.0, 0.5, 26):
        assert not singlet_mixture_entangled(0.5, float(x))
        assert not singlet_mixture_entangled(0.49, float(x))
        assert singlet_mixture_entangled(0.51, float(x))


def test_singlet_mixture_input_validation():
    for a, x in ((-0.1, 0.5), (1.1, 0.5), (0.5, -0.1), (0.5, 1.1)):
        with pytest.raises(ValueError):
            singlet_mixture_entangled(a, x)


def test_effective_conditions_match_atanh_closed_form(params):
    eps = 0.916
    cond = effective_conditions(eps, params)
    t_closed = PLANCK_H * params.nu_hz / (2 * BOLTZMANN_K * math.atanh(eps))
    nu_closed = 2 * BOLTZMANN_K * params.temp_k * math.atanh(eps) / PLANCK_H
    assert cond.temp_k_at_field == pytest.approx(t_closed, rel=1e-9)
    assert cond.field_t_at_temp == pytest.approx(
        nu_closed / GAMMA_1H_HZ_PER_T, rel=1e-9)
    assert cond.gamma_hz_per_t == GAMMA_1H_HZ_PER_T


def test_effective_conditions_reference_values(params):
    cond = effective_conditions(0.916, params)
    assert cond.temp_k_at_field == pytest.approx(0.006138752355376928, rel=1e-9)
    assert cond.field_t_at_temp == pytest.approx(451462.55585786, rel=1e-6)
    # reported rounded values
    assert cond.temp_k_at_field == pytest.approx(6.4e-3, rel=0.10)
    assert cond.field_t_at_temp == pytest.approx(0.45e6, rel=0.03)


@settings(max_examples=50, deadline=None)
@given(st.floats(1e-6, 1.0 - 1e-9))
def test_effective_conditions_round_trip(eps):
    params = SpinSystemParams()
    cond = effective_conditions(eps, params)
    if cond.temp_k_at_field < TEMP_CEILING_K:
        back = math.tanh(PLANCK_H * params.nu_hz
                         / (2 * BOLTZMANN_K * cond.temp_k_at_field))
        assert back == pytest.approx(eps, rel=1e-9)
    back_f = math.tanh(PLANCK_H * cond.field_t_at_temp * GAMMA_1H_HZ_PER_T
                       / (2 * BOLTZMANN_K * params.temp_k))
    assert back_f == pytest.approx(eps, rel=1e-9)


def test_effective_conditions_ceiling_sentinel(params):
    for eps in (1e-15, 1e-30, math.ulp(0.0)):
        cond = effective_conditions(eps, params)
        assert cond.temp_k_at_field == TEMP_CEILING_K
        assert 0 < cond.field_t_at_temp < math.inf


def _bisect_log(f, lo, hi, rel_tol=1e-12, max_iter=400):
    """Root of monotone f on [lo, hi] by bisection in log space: the solver
    effective_conditions used before its closed form."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise ArithmeticError("root not bracketed")
    llo, lhi = math.log(lo), math.log(hi)
    for _ in range(max_iter):
        lmid = (llo + lhi) / 2
        mid = math.exp(lmid)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            llo = lmid
        else:
            lhi = lmid
        if (lhi - llo) <= rel_tol:
            return math.exp((llo + lhi) / 2)
    raise ArithmeticError("bisection failed to converge")


def bisected_conditions(eps, params):
    """(temperature, frequency) solving tanh(h*nu/2kT) = eps by bisection."""
    def pol_at_temp(t):
        return math.tanh(PLANCK_H * params.nu_hz / (2 * BOLTZMANN_K * t)) - eps

    def pol_at_nu(nu):
        return math.tanh(PLANCK_H * nu / (2 * BOLTZMANN_K * params.temp_k)) - eps

    if pol_at_temp(TEMP_CEILING_K) >= 0:
        temp = TEMP_CEILING_K
    else:
        temp = _bisect_log(pol_at_temp, 1e-9, TEMP_CEILING_K)
    return temp, _bisect_log(pol_at_nu, 1e-3, 1e30)


# above 0.9999 tanh saturates and the bisection itself loses precision
@pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.916,
                                 0.99, 0.999, 0.9999])
def test_effective_conditions_match_bisection_oracle(params, eps):
    cond = effective_conditions(eps, params)
    temp, nu = bisected_conditions(eps, params)
    assert cond.temp_k_at_field == pytest.approx(temp, rel=1e-10)
    assert cond.field_t_at_temp * GAMMA_1H_HZ_PER_T == pytest.approx(nu, rel=1e-10)


def test_effective_conditions_finite_below_one(params):
    cond = effective_conditions(math.nextafter(1.0, 0.0), params)
    assert 0 < cond.temp_k_at_field <= TEMP_CEILING_K
    assert 0 < cond.field_t_at_temp < math.inf


def test_effective_conditions_input_validation(params):
    for eps in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            effective_conditions(eps, params)


def test_max_enhancement(params):
    assert max_enhancement(params) == pytest.approx(2 / params.b_factor)
    assert max_enhancement(params) == pytest.approx(30734.013206908174, abs=1e-6)


def test_para_fraction_reference_values():
    assert para_fraction(20.0) == pytest.approx(0.9985900293469946, rel=1e-12)
    assert para_fraction(1000.0) == pytest.approx(0.25, abs=3e-3)


def test_para_fraction_brute_force_partition_sum():
    # direct rotational partition function with theta = 87.6 K
    theta = 87.6
    for temp in (15.0, 25.0, 77.0, 295.0):
        para = sum((2 * j + 1) * math.exp(-j * (j + 1) * theta / temp)
                   for j in range(0, 80, 2))
        ortho = 3 * sum((2 * j + 1) * math.exp(-j * (j + 1) * theta / temp)
                        for j in range(1, 81, 2))
        assert para_fraction(temp) == pytest.approx(
            para / (para + ortho), rel=1e-10)


def test_para_fraction_limits_and_monotonicity():
    assert para_fraction(1e-3) == pytest.approx(1.0, abs=1e-12)
    temps = np.linspace(5.0, 500.0, 60)
    vals = [para_fraction(float(t)) for t in temps]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0.25  # approaches 1/4 from above
    with pytest.raises(ValueError):
        para_fraction(0.0)


def looped_partial_transpose(m):
    """partial_transpose as it was written for one matrix at a time."""
    return np.asarray(m).reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def looped_min_pt_eigenvalue(m):
    """min_pt_eigenvalue as it was written for one matrix at a time."""
    return float(np.linalg.eigvalsh(looped_partial_transpose(m)).min())


def looped_singlet_mixture_entangled(a, x):
    """singlet_mixture_entangled as it was written for one point: a
    validated bell_diagonal state per (a, x)."""
    if not (0 <= a <= 1 and 0 <= x <= 1):
        raise ValueError("a and x must lie in [0, 1]")
    rest = 1 - a
    rho = bell_diagonal(a, rest * x, rest * (1 - x) / 2, rest * (1 - x) / 2)
    return looped_min_pt_eigenvalue(rho.matrix) < -1e-10


def test_min_pt_eigenvalue_on_a_stack_matches_per_matrix(random_states):
    stack = np.array([rho.matrix for rho in random_states])
    got = min_pt_eigenvalue(stack)
    assert got.shape == (1000,)
    assert np.array_equal(got, [looped_min_pt_eigenvalue(m) for m in stack])
    assert np.array_equal(min_pt_eigenvalue(stack.reshape(10, 100, 4, 4)),
                          got.reshape(10, 100))
    for rho, v in zip(random_states[:50], got):
        single = min_pt_eigenvalue(rho)
        assert type(single) is float and single == v
    assert np.array_equal(partial_transpose(stack.reshape(10, 100, 4, 4)).reshape(1000, 4, 4),
                          [looped_partial_transpose(m) for m in stack])
    with pytest.raises(ValueError, match="expected a 4x4 matrix"):
        min_pt_eigenvalue(np.zeros((5, 3, 3)))
    with pytest.raises(ValueError, match="expected a 4x4 matrix"):
        concurrence(stack)


def test_singlet_mixture_grid_matches_per_point_oracle(rng):
    a = np.linspace(0.0, 1.0, 51)[:, None]
    for x in (np.linspace(0.0, 0.5, 51), np.linspace(0.0, 1.0, 51)):
        got = singlet_mixture_entangled(a, x)
        assert got.shape == (51, 51) and got.dtype == bool
        want = [[looped_singlet_mixture_entangled(ai, xj) for xj in x] for ai in a[:, 0]]
        assert np.array_equal(got, want)
    pts = rng.uniform(size=(2, 500))
    assert np.array_equal(singlet_mixture_entangled(*pts),
                          [looped_singlet_mixture_entangled(*p) for p in pts.T])
    xs = np.linspace(0.0, 1.0, 101)
    assert np.array_equal(singlet_mixture_entangled(0.5, xs),
                          [looped_singlet_mixture_entangled(0.5, x) for x in xs])
    for a0, x0 in [(0.5, 0.0), (0.5, 0.5), (0.51, 0.2), (0.0, 1.0)]:
        got = singlet_mixture_entangled(a0, x0)
        assert type(got) is bool and got == looped_singlet_mixture_entangled(a0, x0)


@pytest.mark.parametrize("a, x", [
    (1.5, 0.2), (0.5, -0.1), (np.nan, 0.2), ([0.2, 1.2], 0.3), (0.4, [0.1, np.nan])])
def test_singlet_mixture_entangled_refuses_values_outside_unit_interval(a, x):
    with pytest.raises(ValueError, match="must lie in"):
        singlet_mixture_entangled(a, x)


# the diagonal and the anti-diagonal
X_PATTERN = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]


def eigen_concurrence(m):
    """concurrence as it was computed for every state before the X-state
    closed form: the eigenvalues of rho rho~ from eigvals."""
    r = m @ analysis._spin_flip(m)
    lams = np.sqrt(np.maximum(np.linalg.eigvals(r).real, 0.0))
    lams.sort()
    return float(max(0.0, lams[3] - lams[2] - lams[1] - lams[0]))


def mp_concurrence(m, dps=50):
    """Concurrence from the eigenvalues of rho rho~ at dps digits, with
    the double entries of m taken as exact."""
    mpmath = pytest.importorskip("mpmath")
    s = (-1, 1, 1, -1)
    with mpmath.workdps(dps):
        rho = mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in m])
        tilde = mpmath.matrix(4, 4)
        for i in range(4):
            for j in range(4):
                tilde[i, j] = s[i] * s[j] * mpmath.conj(rho[3 - i, 3 - j])
        ev = mpmath.eig(rho * tilde, left=False, right=False)
        lams = sorted(mpmath.sqrt(max(mpmath.re(e), 0)) for e in ev)
        return float(max(0, lams[3] - lams[2] - lams[1] - lams[0]))


@pytest.fixture(scope="module")
def filtered_states(random_states):
    """The 1000 Ginibre states after the filtration sequence: X states,
    since its last gradient crush multiplies the masked entries by 0.0."""
    stack = np.array([rho.matrix for rho in random_states])
    return apply(filtration_sequence(SpinSystemParams()), stack)


def test_filtered_states_are_x_states(filtered_states):
    assert not filtered_states[:, ~X_PATTERN].any()
    for m in filtered_states[:20]:
        assert analysis._x_entries(m) is not None
    # filtration leaves S0/T0 coherence at rounding level, so a
    # Bell-diagonal test would need a tolerance; the X test needs none
    assert np.abs(filtered_states[:, 1, 2] - filtered_states[:, 2, 1]).max() > 0


def test_x_closed_forms_match_eigen_routes_on_filtered_states(filtered_states):
    assert any(concurrence(m) > 0.01 for m in filtered_states)
    for m in filtered_states:
        assert concurrence(m) == pytest.approx(eigen_concurrence(m), abs=1e-15, rel=0)
        assert min_pt_eigenvalue(m) == pytest.approx(
            looped_min_pt_eigenvalue(m), abs=1e-15, rel=0)
    got = min_pt_eigenvalue(filtered_states)
    assert np.array_equal(got, [min_pt_eigenvalue(m) for m in filtered_states])


def test_bell_diagonal_stack_matches_one_matrix_results(rng):
    pops = rng.dirichlet(np.ones(4), size=(20, 50))
    pops[0, :4] = np.eye(4)  # the four pure Bell states
    stack = bell_diagonal_matrices(pops)
    mpt = min_pt_eigenvalue(stack)
    conc = analysis._x_concurrence(*analysis._x_entries(stack))
    assert mpt.shape == conc.shape == (20, 50)
    for idx in np.ndindex(20, 50):
        m = stack[idx]
        assert mpt[idx] == min_pt_eigenvalue(m)
        assert conc[idx] == concurrence(m)


@pytest.mark.parametrize("name, mpt, c", [
    ("T0", -0.5, 1.0), ("Tplus", 0.0, 0.0), ("Tminus", 0.0, 0.0),
    ("PhiPlus", -0.5, 1.0), ("PhiMinus", -0.5, 1.0), ("ZeemanGround", 0.0, 0.0),
    ("MaximallyMixed", 0.25, 0.0)])
def test_named_states_are_read_in_closed_form(name, mpt, c):
    rho = make_named_state(name)
    assert analysis._x_entries(rho.matrix) is not None
    assert min_pt_eigenvalue(rho) == pytest.approx(mpt, abs=1e-15)
    assert concurrence(rho) == pytest.approx(c, abs=1e-15)



def test_x_concurrence_clips_a_diagonal_entry_validated_below_zero():
    # DensityMatrix admits an eigenvalue down to -EIG_TOL, so a*d may be
    # a tiny negative number under the square root
    m = make_singlet().matrix.copy()
    m[0, 0], m[3, 3] = -5e-11, 5e-11
    rho = DensityMatrix(m)
    assert concurrence(rho) == pytest.approx(eigen_concurrence(m), abs=1e-15)
    assert min_pt_eigenvalue(rho) == pytest.approx(looped_min_pt_eigenvalue(m), abs=1e-15)
    assert analyze(rho).eof == pytest.approx(1.0, abs=1e-15)


def test_x_concurrence_matches_high_precision_eigenvalues_near_the_singlet(rng):
    # singlets with an X-state admixture of at most 1e-3: the eigvals
    # route takes square roots of near-zero eigenvalues of rho rho~ and is
    # off by up to about 1e-11 here, the closed form by a few ulps
    x = filtration_sequence(SpinSystemParams())
    s = make_singlet().matrix
    for _ in range(100):
        mix = apply(x, random_density(rng)).matrix
        mix = (mix + mix.conj().T) / 2  # Hermitian to the last bit
        p = rng.uniform(0.0, 1e-3)
        m = (1 - p) * s + p * mix
        assert concurrence(m) == pytest.approx(mp_concurrence(m), abs=1e-15, rel=0)


@pytest.mark.parametrize("i, j", [tuple(map(int, ij)) for ij in np.argwhere(~X_PATTERN)])
def test_one_tiny_entry_outside_the_x_pattern_takes_the_eigen_routes(filtered_states, i, j):
    for m in filtered_states[:20]:
        m = m.copy()
        m[i, j] = 1e-300
        assert analysis._x_entries(m) is None
        assert concurrence(m) == eigen_concurrence(m)
        assert min_pt_eigenvalue(m) == looped_min_pt_eigenvalue(m)
        rep = analyze(DensityMatrix(m))
        assert rep.concurrence == eigen_concurrence(m)
        assert rep.min_pt_eigenvalue == looped_min_pt_eigenvalue(m)
    # one such member sends the whole stack through eigvalsh
    stack = filtered_states[:50].copy()
    stack[7, i, j] = 1e-300
    assert np.array_equal(min_pt_eigenvalue(stack),
                          np.linalg.eigvalsh(partial_transpose(stack)).min(axis=-1))
