"""Exact two-spin-1/2 state representations, named states, and state metrics.

Basis convention, fixed once and used everywhere: the Zeeman product basis
is ordered |00>, |01>, |10>, |11> where 0 means spin up (m = +1/2, the lower
Zeeman level at positive gyromagnetic ratio). The first label is spin I,
the second is spin S.

Singlet-triplet labels follow the energy ordering at positive field:
T-1 = |00> (both up), T+1 = |11> (both down). The Bell-population order
used throughout is (S0, T0, T+1, T-1).
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .constants import BOLTZMANN_K, PLANCK_H

HERM_TOL = 1e-12
TRACE_TOL = 1e-12
EIG_TOL = 1e-10

# Pauli matrices and the 16-element product-operator basis.
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_E = np.eye(2, dtype=complex)

IX = np.kron(SIGMA_X, SIGMA_E) / 2
IY = np.kron(SIGMA_Y, SIGMA_E) / 2
IZ = np.kron(SIGMA_Z, SIGMA_E) / 2
SX = np.kron(SIGMA_E, SIGMA_X) / 2
SY = np.kron(SIGMA_E, SIGMA_Y) / 2
SZ = np.kron(SIGMA_E, SIGMA_Z) / 2
E4 = np.eye(4, dtype=complex)

# Zeeman kets and the singlet-triplet basis vectors.
KET_00 = np.array([1, 0, 0, 0], dtype=complex)
KET_01 = np.array([0, 1, 0, 0], dtype=complex)
KET_10 = np.array([0, 0, 1, 0], dtype=complex)
KET_11 = np.array([0, 0, 0, 1], dtype=complex)

SINGLET_KET = (KET_01 - KET_10) / math.sqrt(2)
T0_KET = (KET_01 + KET_10) / math.sqrt(2)
TPLUS_KET = KET_11
TMINUS_KET = KET_00
PHI_PLUS_KET = (KET_00 + KET_11) / math.sqrt(2)
PHI_MINUS_KET = (KET_00 - KET_11) / math.sqrt(2)

# total m = mI + mS per Zeeman basis index; +1/2 for |0>
_M_TOTAL = np.array([1.0, 0.0, 0.0, -1.0])
# ones on the off-diagonal elements, the coherences, of a 4x4 matrix
_OFF_DIAG = 1.0 - np.eye(4)

# Columns in the fixed Bell-population order (S0, T0, T+1, T-1).
BELL_BASIS = np.column_stack([SINGLET_KET, T0_KET, TPLUS_KET, TMINUS_KET])
# row k is vec(|b_k><b_k|), the projector onto column k of BELL_BASIS, so
# pops @ _BELL_PROJECTORS is the vec of the Bell-diagonal mixture pops
_BELL_PROJECTORS = np.einsum("ik,jk->kij", BELL_BASIS, BELL_BASIS.conj()).reshape(4, 16)
_BELL_PROJECTORS.setflags(write=False)
# the change of basis into the singlet-triplet frame on the row-major
# vec(rho): vec(B^H rho B) = vec(rho) @ kron(conj(B), B). Its columns are
# reordered so the four populations (B^H rho B)[k, k] come first and the
# twelve coherences (B^H rho B)[k, l], k != l, after them
_BELL_FRAME = np.kron(BELL_BASIS.conj(), BELL_BASIS)[
    :, np.concatenate([np.flatnonzero(np.eye(4)), np.flatnonzero(_OFF_DIAG)])]
_BELL_FRAME.setflags(write=False)

PRODUCT_AXES = ("e", "x", "y", "z")
_PAULIS = (SIGMA_E, SIGMA_X, SIGMA_Y, SIGMA_Z)
# PAULI_PRODUCTS[a, b] = sigma_a x sigma_b, indexed like PRODUCT_AXES
PAULI_PRODUCTS = np.array([[np.kron(a, b) for b in _PAULIS] for a in _PAULIS])
PAULI_PRODUCTS.setflags(write=False)
# c[a, b] = tr(rho P[a, b]) * _PO_SCALE[a, b]; each P[a, b] squares to the
# identity, so rho = sum of c[a, b] P[a, b] / (4 _PO_SCALE[a, b])
_PO_SCALE = np.full((4, 4), 0.5)
_PO_SCALE[0, 0] = 0.25
# the coefficients as one map on the row-major vec(rho): tr(rho P) is the
# sum over (j, i) of P[i, j] rho[j, i], so row (a, b) is P[a, b] transposed
# and flattened, times the power-of-two scale
_PO_MAP = (PAULI_PRODUCTS.transpose(0, 1, 3, 2).reshape(16, 16)
           * _PO_SCALE.reshape(16, 1))
_PO_MAP.setflags(write=False)


class StateValidationError(ValueError):
    """Raised when a candidate matrix is not a valid density matrix."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr)
    out.setflags(write=False)
    return out


def check_density(m) -> np.ndarray:
    """m as a complex (..., 4, 4) array, once every 4x4 matrix in it is a
    density matrix: Hermitian to HERM_TOL, unit trace to TRACE_TOL and no
    eigenvalue below -EIG_TOL.

    The checks run in that order over the whole stack; the first one that
    fails raises StateValidationError with the value of the first member
    failing it, the message DensityMatrix gives for that member alone.

    Each matrix is first certified by an unrolled Cholesky factorization
    (_certifies_one): one 4x4 matrix in Python scalars, free of numpy's
    per-call overhead on 16 numbers, and a stack by the same certificate
    in numpy over every member at once (_certifies_stack). What it does
    not accept takes the numpy checks below, the one source of every
    refusal and its message, where the eigenvalues decide positivity.

    Each check tests that its condition holds, so NaN fails it. A
    non-finite entry makes the Hermiticity deviation NaN or inf, so it
    fails the first check, which then names the entry."""
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (4, 4):
        raise StateValidationError(f"expected 4x4 matrices, got {m.shape}")
    if _certifies_stack(m) if m.ndim > 2 else _certifies_one(m):
        return m
    mh = m.conj().swapaxes(-1, -2)
    # inf - inf is NaN, which fails below. h is the symmetrized matrix
    # whose eigenvalues are checked (the Hermiticity slack is 1e-12);
    # finite entries near the float limit overflow in its sum
    with np.errstate(invalid="ignore", over="ignore"):
        dev = np.abs(m - mh).max(axis=(-2, -1))
        h = (m + mh) / 2
    ok = dev <= HERM_TOL
    if not ok.all():
        member = _first_failing(m, ok)
        nonfinite = np.argwhere(~np.isfinite(member))
        if len(nonfinite):
            i, j = nonfinite[0]
            raise StateValidationError(f"non-finite entry {member[i, j]} at [{i}, {j}]")
        raise StateValidationError(f"not Hermitian: max deviation {_first_failing(dev, ok):.3e}")
    tr = m.trace(axis1=-2, axis2=-1)
    ok = abs(tr - 1.0) <= TRACE_TOL
    if not ok.all():
        raise StateValidationError(f"trace {_first_failing(tr, ok)} differs from 1 beyond tolerance")
    try:
        eigmin = np.linalg.eigvalsh(h).min(axis=-1)
    except np.linalg.LinAlgError as exc:
        raise StateValidationError(f"eigenvalues not computable: {exc}") from None
    ok = eigmin >= -EIG_TOL
    if not ok.all():
        raise StateValidationError(f"negative eigenvalue {_first_failing(eigmin, ok):.3e}")
    return m


def _certifies_one(m: np.ndarray) -> bool:
    """True when the one (4, 4) complex matrix m passes check_density's
    three checks, decided in Python scalars on one .tolist() read: the
    moduli |m[i][j] - conj(m[j][i])| over the lower triangle sum to at most
    HERM_TOL / 2, |trace - 1| is at most TRACE_TOL / 2, and an unrolled
    Cholesky factorization of (m + m^H)/2 + EIG_TOL I has every pivot in
    (0, inf), which holds exactly when that matrix is numerically positive
    definite (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., ch. 10). The halved bounds leave room for numpy's own rounding of
    the moduli and of the trace (whose diagonal the factorization bounds),
    so the first two checks hold in numpy's arithmetic too. False decides
    nothing. Overflow gives inf, and NaN fails every test; only abs of a
    complex raises (OverflowError) where numpy gives inf, so it alone sits
    in a try."""
    ((a00, a01, a02, a03), (a10, a11, a12, a13),
     (a20, a21, a22, a23), (a30, a31, a32, a33)) = m.tolist()
    try:
        dev = (abs(a10 - a01.conjugate()) + abs(a20 - a02.conjugate())
               + abs(a21 - a12.conjugate()) + abs(a30 - a03.conjugate())
               + abs(a31 - a13.conjugate()) + abs(a32 - a23.conjugate())
               + 2 * (abs(a00.imag) + abs(a11.imag) + abs(a22.imag) + abs(a33.imag)))
        trace_dev = abs(a00 + a11 + a22 + a33 - 1.0)
    except OverflowError:
        return False
    if not (dev <= HERM_TOL / 2 and trace_dev <= TRACE_TOL / 2):
        return False
    # column by column: l_ij the factor below the diagonal, p the pivot
    # whose root is the diagonal entry; |l|^2 is (l * conj(l)).real
    p = a00.real + EIG_TOL
    if not 0 < p < math.inf:
        return False
    s = math.sqrt(p)
    l10 = (a10 + a01.conjugate()) * 0.5 / s
    l20 = (a20 + a02.conjugate()) * 0.5 / s
    l30 = (a30 + a03.conjugate()) * 0.5 / s
    c10 = l10.conjugate()
    p = a11.real + EIG_TOL - (l10 * c10).real
    if not 0 < p < math.inf:
        return False
    s = math.sqrt(p)
    l21 = ((a21 + a12.conjugate()) * 0.5 - l20 * c10) / s
    l31 = ((a31 + a13.conjugate()) * 0.5 - l30 * c10) / s
    c20, c21 = l20.conjugate(), l21.conjugate()
    p = a22.real + EIG_TOL - (l20 * c20).real - (l21 * c21).real
    if not 0 < p < math.inf:
        return False
    l32 = ((a32 + a23.conjugate()) * 0.5 - l30 * c20 - l31 * c21) / math.sqrt(p)
    p = (a33.real + EIG_TOL - (l30 * l30.conjugate()).real
         - (l31 * l31.conjugate()).real - (l32 * l32.conjugate()).real)
    return 0 < p < math.inf


def _certifies_stack(m: np.ndarray) -> bool:
    """True when every matrix of the complex (..., 4, 4) stack m passes
    _certifies_one's certificate: the same sums and pivots, written as a
    loop over the factor's columns and evaluated in numpy on the (...)
    arrays of m's sixteen entries (|a_ii - conj(a_ii)| is the 2 |Im a_ii|
    of its sum). Overflow and NaN fail the tests quietly, as they do
    there. False decides nothing."""
    a = [list(row) for row in np.moveaxis(m, (-2, -1), (0, 1))]
    with np.errstate(all="ignore"):
        dev = sum(abs(a[i][j] - a[j][i].conj()) for i in range(4) for j in range(i + 1))
        ok = ((dev <= HERM_TOL / 2)
              & (abs(a[0][0] + a[1][1] + a[2][2] + a[3][3] - 1.0) <= TRACE_TOL / 2))
        low = {}  # (i, j): the factor's entry below the diagonal
        for j in range(4):
            p = a[j][j].real + EIG_TOL - sum((low[j, k] * low[j, k].conj()).real
                                             for k in range(j))
            ok &= (0 < p) & (p < np.inf)
            s = np.sqrt(p)
            for i in range(j + 1, 4):
                low[i, j] = ((a[i][j] + a[j][i].conj()) * 0.5
                             - sum(low[i, k] * low[j, k].conj() for k in range(j))) / s
    return bool(ok.all())


def _first_failing(values, ok):
    return np.asarray(values)[~ok][0]


@dataclass(frozen=True)
class DensityMatrix:
    """A 4x4 complex Hermitian, unit-trace, positive matrix (read-only)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise StateValidationError(f"expected 4x4 matrix, got {m.shape}")
        object.__setattr__(self, "matrix", _frozen(check_density(m)))

    def __eq__(self, other):
        if not isinstance(other, DensityMatrix):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)

    def __hash__(self):
        return hash(self.matrix.tobytes())


@dataclass(frozen=True)
class ProductOperatorCoeffs:
    """Real coefficient table over {E, Ix, Iy, Iz} x {E, Sx, Sy, Sz}.

    table[a, b] is the coefficient of the basis operator indexed by
    PRODUCT_AXES: E for ("e","e"), Ia for ("a","e"), Sb for ("e","b"),
    and 2IaSb for the nine bilinear entries. A valid state always has
    c[e,e] = 1/4. Textbook expressions written as a global 1/2 times
    (1/2 E + sum of terms) land here with the global factor multiplied
    through: a listed coefficient q on 2IaSb inside such a bracket is
    stored as q/2.
    """

    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if t.shape != (4, 4):
            raise ValueError(f"expected 4x4 coefficient table, got {t.shape}")
        object.__setattr__(self, "table", _frozen(t))

    def __getitem__(self, key):
        a, b = key
        return float(self.table[PRODUCT_AXES.index(a), PRODUCT_AXES.index(b)])

    def as_dict(self) -> dict:
        return {
            f"{a},{b}": float(self.table[i, j])
            for i, a in enumerate(PRODUCT_AXES)
            for j, b in enumerate(PRODUCT_AXES)
        }

    def __eq__(self, other):
        if not isinstance(other, ProductOperatorCoeffs):
            return NotImplemented
        return np.array_equal(self.table, other.table)


@dataclass(frozen=True)
class BellPopulations:
    """Populations in the (S0, T0, T+1, T-1) basis plus coherence residue.

    offBell is the Frobenius norm of the off-diagonal part of the state
    written in that basis; zero means singlet-triplet diagonal. Each check
    tests that its condition holds, so NaN fails it.
    """

    pS: float
    pT0: float
    pTplus: float
    pTminus: float
    offBell: float

    def __post_init__(self):
        pops = (self.pS, self.pT0, self.pTplus, self.pTminus)
        if not abs(sum(pops) - 1.0) <= 1e-10:
            raise StateValidationError(f"populations sum to {sum(pops)}, not 1")
        for p in pops:
            if not -1e-10 <= p <= 1 + 1e-10:
                raise StateValidationError(f"population {p} outside [0, 1]")
        if not 0 <= self.offBell < np.inf:
            raise StateValidationError(
                f"offBell must be finite and non-negative, got {self.offBell}")

    def as_tuple(self):
        return (self.pS, self.pT0, self.pTplus, self.pTminus)

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SpinSystemParams:
    """Spectrometer and molecule constants for one two-spin experiment.

    Frequencies in Hz, times in seconds, temperature in K. f_active is
    the fraction of the sample inside the detection coil, in (0, 1]. Every
    other field is positive and finite, except that t1_s or t2_s may be
    inf, which means no relaxation. B = h*nu/(k*T) of nu_hz and temp_k
    must neither divide by zero, underflow to 0 nor overflow in floats.
    Defaults are the dihydride experiment values; j_hz has no measured
    literature value for this system and the 5 Hz default is only a
    demo-grade stand-in (any quantitative spectrum should set it).
    """

    nu_hz: float = 400e6
    delta_nu_hz: float = 492.0
    j_hz: float = 5.0
    temp_k: float = 295.0
    t1_s: float = 1.7
    t2_s: float = 0.58
    f_active: float = 0.368

    def __post_init__(self):
        for name in ("nu_hz", "delta_nu_hz", "j_hz", "temp_k", "t1_s", "t2_s"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")
        for name in ("nu_hz", "delta_nu_hz", "j_hz", "temp_k"):
            if getattr(self, name) == math.inf:
                raise ValueError(f"{name} must be finite")
        # b_factor would divide by zero, be zero or be inf in floats
        kt = BOLTZMANN_K * self.temp_k
        if kt == 0 or not 0 < PLANCK_H * self.nu_hz / kt < math.inf:
            raise ValueError(f"k*T or B = h*nu/(k*T) underflows to 0, or B "
                             f"overflows, at nu_hz={self.nu_hz!r}, temp_k={self.temp_k!r}")
        if not (0 < self.f_active <= 1):
            raise ValueError("f_active must be in (0, 1]")

    @property
    def b_factor(self) -> float:
        """Dimensionless thermal polarization parameter h*nu/(k*T)."""
        return PLANCK_H * self.nu_hz / (BOLTZMANN_K * self.temp_k)


def make_singlet() -> DensityMatrix:
    """Projector onto the two-spin singlet |01> - |10> (normalized)."""
    return DensityMatrix(np.outer(SINGLET_KET, SINGLET_KET.conj()))


_NAMED_KETS = {
    "T0": T0_KET,
    "Tplus": TPLUS_KET,
    "Tminus": TMINUS_KET,
    "PhiPlus": PHI_PLUS_KET,
    "PhiMinus": PHI_MINUS_KET,
    "ZeemanGround": KET_00,
}

NAMED_STATES = (*_NAMED_KETS, "MaximallyMixed")


def make_named_state(name: str) -> DensityMatrix:
    if name == "MaximallyMixed":
        return DensityMatrix(E4 / 4)
    try:
        ket = _NAMED_KETS[name]
    except KeyError:
        raise ValueError(
            f"unknown state {name!r}; valid names: {', '.join(NAMED_STATES)}"
        ) from None
    return DensityMatrix(np.outer(ket, ket.conj()))


def make_pseudo_pure(epsilon: float, target: DensityMatrix) -> DensityMatrix:
    """(1 - eps) * 1/4 + eps * target. eps is the polarization."""
    if not (0 <= epsilon <= 1):
        raise ValueError(f"epsilon {epsilon} outside [0, 1]")
    return DensityMatrix((1 - epsilon) * E4 / 4 + epsilon * target.matrix)


def _thermal_deviation(params: SpinSystemParams) -> np.ndarray:
    """The traceless part (t/2)(Iz + Sz) + t^2 IzSz, t = tanh(B/2), of the
    thermal state (1 + t 2Iz)(1 + t 2Sz)/4."""
    t = math.tanh(params.b_factor / 2)
    return (t / 2) * (IZ + SZ) + t ** 2 * (IZ @ SZ)


def make_thermal(params: SpinSystemParams, mode: str = "exact") -> DensityMatrix:
    """Thermal equilibrium state at params.temp_k and params.nu_hz: the
    Boltzmann diagonal over the Zeeman energies -h*nu*(mI + mS), written
    as E/4 plus _thermal_deviation, finite for every B (exactly |00><00|
    once tanh(B/2) rounds to 1). The J correction to the energies is ~8
    orders of magnitude below the Zeeman term and is ignored. mode
    "exact" is the only one; any other raises ValueError.
    """
    if mode != "exact":
        raise ValueError(f"unknown thermal mode {mode!r}")
    return DensityMatrix(E4 / 4 + _thermal_deviation(params))


def to_product_operators(rho: DensityMatrix) -> ProductOperatorCoeffs:
    """Expand rho over the product-operator basis.

    The basis operators are E, Ia = sigma_a/2 x 1, Sb = 1 x sigma_b/2 and
    2IaSb = (sigma_a x sigma_b)/2; all but E have unit Frobenius norm
    squared, so the coefficients are plain Hilbert-Schmidt projections:
    tr(rho sigma_a x sigma_b) / 2, and tr(rho) / 4 for E.
    """
    return ProductOperatorCoeffs((_PO_MAP @ rho.matrix.reshape(16)).real.reshape(4, 4))


def from_product_operators(coeffs: ProductOperatorCoeffs) -> DensityMatrix:
    """Inverse of to_product_operators: E enters with weight 1, every other
    sigma_a x sigma_b with weight 1/2."""
    return DensityMatrix(np.einsum("ab,abij->ij", coeffs.table / (4 * _PO_SCALE),
                                   PAULI_PRODUCTS))


def bell_frame(m) -> tuple:
    """Each 4x4 matrix of a (..., 4, 4) stack in the singlet-triplet basis:
    its (..., 4) populations in the (S0, T0, T+1, T-1) order and its (...)
    offBell residue, the Frobenius norm of the off-diagonal part. One
    product of the stack's vec(rho) with the (16, 16) _BELL_FRAME."""
    m = np.asarray(m)
    r = m.reshape(m.shape[:-2] + (16,)) @ _BELL_FRAME
    off = r[..., 4:].view(float)  # real and imaginary parts side by side
    return r[..., :4].real, np.sqrt((off * off).sum(axis=-1))


def to_bell_populations(rho: DensityMatrix) -> BellPopulations:
    diag, off = bell_frame(rho.matrix)
    return BellPopulations(*diag.tolist(), offBell=float(off))


def bell_diagonal_matrices(pops) -> np.ndarray:
    """(..., 4, 4) mixtures of the four singlet-triplet projectors with the
    (..., 4) weights pops, in the (S0, T0, T+1, T-1) order; unvalidated.
    One product pops @ _BELL_PROJECTORS, read back as matrices."""
    pops = np.asarray(pops)
    return (pops @ _BELL_PROJECTORS).reshape(pops.shape[:-1] + (4, 4))


def bell_diagonal(pS: float, pT0: float, pTplus: float, pTminus: float) -> DensityMatrix:
    """Mixture of the four singlet-triplet projectors with given weights."""
    return DensityMatrix(bell_diagonal_matrices(np.array([pS, pT0, pTplus, pTminus])))


# eigenvalues of sigma at or below this multiple of eps times the largest
# are taken as zero: the rounding eigh leaves on a null space (about 2 eps
# at most over 6000 rotated pure targets), not a physics tolerance
_RANK_CUT = 16 * np.finfo(float).eps


@functools.lru_cache(maxsize=4)
def _support_map(sigma: DensityMatrix) -> np.ndarray:
    """The read-only (16, r*r) K with vec(rho) @ K = vec(B rho B^H), for
    the r x 4 support map B = sqrt(w) V^H over the r eigenpairs (w, V) of
    sigma above _RANK_CUT times its largest eigenvalue."""
    w, v = np.linalg.eigh(sigma.matrix)
    keep = w > _RANK_CUT * w[-1]
    b = np.sqrt(w[keep])[:, None] * v[:, keep].conj().T
    return _frozen(np.kron(b, b.conj()).T)


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(sigma) rho sqrt(sigma)))^2, read
    through the support of sigma: the nonzero eigenvalues of
    sqrt(sigma) rho sqrt(sigma) are those of the r x r B rho B^H of
    _support_map. For a pure sigma (r = 1) that is the single entry
    <psi|rho|psi> and no eigensolver runs (Jozsa, J. Mod. Opt. 41, 2315
    (1994)). The map is cached for the last few sigmas seen."""
    inner = rho.matrix.reshape(16) @ _support_map(sigma)
    if len(inner) == 1:
        return max(float(inner[0].real), 0.0)
    r = math.isqrt(len(inner))
    vals = np.maximum(np.linalg.eigvalsh(inner.reshape(r, r)), 0.0)
    return float(np.sqrt(vals).sum() ** 2)


def purity(rho: DensityMatrix) -> float:
    return float(np.trace(rho.matrix @ rho.matrix).real)
