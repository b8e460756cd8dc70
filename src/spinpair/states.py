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
from dataclasses import dataclass

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

# Columns in the fixed Bell-population order (S0, T0, T+1, T-1).
BELL_BASIS = np.column_stack([SINGLET_KET, T0_KET, TPLUS_KET, TMINUS_KET])

PRODUCT_AXES = ("e", "x", "y", "z")
_PAULIS = (SIGMA_E, SIGMA_X, SIGMA_Y, SIGMA_Z)
# PAULI_PRODUCTS[a, b] = sigma_a x sigma_b, indexed like PRODUCT_AXES
PAULI_PRODUCTS = np.array([[np.kron(a, b) for b in _PAULIS] for a in _PAULIS])
PAULI_PRODUCTS.setflags(write=False)
# c[a, b] = tr(rho P[a, b]) * _PO_SCALE[a, b]; each P[a, b] squares to the
# identity, so rho = sum of c[a, b] P[a, b] / (4 _PO_SCALE[a, b])
_PO_SCALE = np.full((4, 4), 0.5)
_PO_SCALE[0, 0] = 0.25


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

    Each check tests that its condition holds, so NaN fails it. A
    non-finite entry makes the Hermiticity deviation NaN or inf, so it
    fails the first check, which then names the entry."""
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (4, 4):
        raise StateValidationError(f"expected 4x4 matrices, got {m.shape}")
    mh = m.conj().swapaxes(-1, -2)
    dev = np.abs(m - mh).max(axis=(-2, -1))
    ok = dev <= HERM_TOL
    if not _all(ok):
        member = _first_failing(m, ok)
        nonfinite = np.argwhere(~np.isfinite(member))
        if len(nonfinite):
            i, j = nonfinite[0]
            raise StateValidationError(f"non-finite entry {member[i, j]} at [{i}, {j}]")
        raise StateValidationError(f"not Hermitian: max deviation {_first_failing(dev, ok):.3e}")
    tr = m.trace(axis1=-2, axis2=-1)
    ok = abs(tr - 1.0) <= TRACE_TOL
    if not _all(ok):
        raise StateValidationError(f"trace {_first_failing(tr, ok)} differs from 1 beyond tolerance")
    # eigvalsh on the symmetrized matrix: the Hermiticity slack is 1e-12.
    # Finite entries near the float limit overflow in the sum
    try:
        eigmin = np.linalg.eigvalsh((m + mh) / 2).min(axis=-1)
    except np.linalg.LinAlgError as exc:
        raise StateValidationError(f"eigenvalues not computable: {exc}") from None
    ok = eigmin >= -EIG_TOL
    if not _all(ok):
        raise StateValidationError(f"negative eigenvalue {_first_failing(eigmin, ok):.3e}")
    return m


def _all(mask) -> bool:
    # bool() of the 0-d mask of one matrix costs a tenth of .all()
    return bool(mask) if mask.ndim == 0 else bool(mask.all())


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
    written in that basis; zero means singlet-triplet diagonal.
    """

    pS: float
    pT0: float
    pTplus: float
    pTminus: float
    offBell: float

    def __post_init__(self):
        pops = (self.pS, self.pT0, self.pTplus, self.pTminus)
        if abs(sum(pops) - 1.0) > 1e-10:
            raise StateValidationError(f"populations sum to {sum(pops)}, not 1")
        for p in pops:
            if p < -1e-10 or p > 1 + 1e-10:
                raise StateValidationError(f"population {p} outside [0, 1]")
        if self.offBell < 0:
            raise StateValidationError("offBell must be non-negative")

    def as_tuple(self):
        return (self.pS, self.pT0, self.pTplus, self.pTminus)

    def as_dict(self) -> dict:
        return {
            "pS": self.pS,
            "pT0": self.pT0,
            "pTplus": self.pTplus,
            "pTminus": self.pTminus,
            "offBell": self.offBell,
        }


@dataclass(frozen=True)
class SpinSystemParams:
    """Spectrometer and molecule constants for one two-spin experiment.

    Frequencies in Hz, times in seconds, temperature in K. f_active is
    the fraction of the sample inside the detection coil, in (0, 1].
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

NAMED_STATES = ("T0", "Tplus", "Tminus", "PhiPlus", "PhiMinus",
                "ZeemanGround", "MaximallyMixed")


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


def make_thermal(params: SpinSystemParams, mode: str = "linearized") -> DensityMatrix:
    """Thermal equilibrium state at params.temp_k and params.nu_hz.

    linearized: 1/4 E + (B/4)(Iz + Sz), the leading order in B = h*nu/kT.
    Rejected for B > 0.1 where the expansion is no longer meaningful.
    exact: Boltzmann diagonal over the Zeeman energies -h*nu*(mI + mS);
    the J correction to the energies is ~8 orders of magnitude below the
    Zeeman term and is ignored.
    """
    b = params.b_factor
    if mode == "linearized":
        if b > 0.1:
            raise ValueError(
                f"B = {b:.3g} is outside the high-temperature regime (B <= 0.1)"
            )
        return DensityMatrix(E4 / 4 + (b / 4) * (IZ + SZ))
    if mode == "exact":
        m_total = np.array([1.0, 0.0, 0.0, -1.0])
        weights = np.exp(b * m_total)
        return DensityMatrix(np.diag(weights / weights.sum()).astype(complex))
    raise ValueError(f"unknown thermal mode {mode!r}")


def to_product_operators(rho: DensityMatrix) -> ProductOperatorCoeffs:
    """Expand rho over the product-operator basis.

    The basis operators are E, Ia = sigma_a/2 x 1, Sb = 1 x sigma_b/2 and
    2IaSb = (sigma_a x sigma_b)/2; all but E have unit Frobenius norm
    squared, so the coefficients are plain Hilbert-Schmidt projections:
    tr(rho sigma_a x sigma_b) / 2, and tr(rho) / 4 for E.
    """
    traces = np.einsum("abij,ji->ab", PAULI_PRODUCTS, rho.matrix).real
    return ProductOperatorCoeffs(traces * _PO_SCALE)


def from_product_operators(coeffs: ProductOperatorCoeffs) -> DensityMatrix:
    """Inverse of to_product_operators: E enters with weight 1, every other
    sigma_a x sigma_b with weight 1/2."""
    return DensityMatrix(np.einsum("ab,abij->ij", coeffs.table / (4 * _PO_SCALE),
                                   PAULI_PRODUCTS))


_OFF_DIAG = 1.0 - np.eye(4)


def bell_frame(m) -> tuple:
    """Each 4x4 matrix of a (..., 4, 4) stack in the singlet-triplet basis:
    its (..., 4) populations in the (S0, T0, T+1, T-1) order and its (...)
    offBell residue, the Frobenius norm of the off-diagonal part."""
    r = BELL_BASIS.conj().T @ m @ BELL_BASIS
    off = (r * _OFF_DIAG).view(float)  # real and imaginary parts side by side
    return r.diagonal(axis1=-2, axis2=-1).real, np.sqrt((off * off).sum(axis=(-2, -1)))


def to_bell_populations(rho: DensityMatrix) -> BellPopulations:
    diag, off = bell_frame(rho.matrix)
    return BellPopulations(
        pS=float(diag[0]),
        pT0=float(diag[1]),
        pTplus=float(diag[2]),
        pTminus=float(diag[3]),
        offBell=float(off),
    )


def bell_diagonal_matrices(pops) -> np.ndarray:
    """(..., 4, 4) mixtures of the four singlet-triplet projectors with the
    (..., 4) weights pops, in the (S0, T0, T+1, T-1) order; unvalidated."""
    return (BELL_BASIS * np.asarray(pops)[..., None, :]) @ BELL_BASIS.conj().T


def bell_diagonal(pS: float, pT0: float, pTplus: float, pTminus: float) -> DensityMatrix:
    """Mixture of the four singlet-triplet projectors with given weights."""
    return DensityMatrix(bell_diagonal_matrices(np.array([pS, pT0, pTplus, pTminus])))


@functools.lru_cache(maxsize=4)
def _sqrt_state(sigma: DensityMatrix) -> np.ndarray:
    # eigendecomposition route avoids a scipy dependency for sqrtm
    w, v = np.linalg.eigh(sigma.matrix)
    w = np.clip(w, 0, None)
    return _frozen(v @ np.diag(np.sqrt(w)) @ v.conj().T)


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity; reduces to <psi|rho|psi> for a pure sigma. The
    square root of sigma is cached for the last few sigmas seen."""
    sqrt_sigma = _sqrt_state(sigma)
    inner = sqrt_sigma @ rho.matrix @ sqrt_sigma
    vals = np.clip(np.linalg.eigvalsh((inner + inner.conj().T) / 2), 0, None)
    return float(np.sqrt(vals).sum() ** 2)


def purity(rho: DensityMatrix) -> float:
    return float(np.trace(rho.matrix @ rho.matrix).real)
