"""Entanglement certification, closed-form equivalent conditions, and
ortho/para statistics.

Entanglement of formation is reported in bits (base-2 entropy). The
polarization-to-temperature/field mapping uses single-spin polarization
tanh(h*nu/2kT); a two-spin ground-population mapping gives a noticeably
different field figure and is not what the quoted equivalent conditions
mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import BOLTZMANN_K, GAMMA_1H_HZ_PER_T, H2_ROT_THETA_K, PLANCK_H
from .states import (
    BellPopulations,
    DensityMatrix,
    SpinSystemParams,
    bell_diagonal_matrices,
    to_bell_populations,
)

ENTANGLE_TOL = 1e-10

# temperatures above this are reported as the sentinel itself, meaning
# "effectively infinite" (reached only as epsilon -> 0)
TEMP_CEILING_K = 1e9


@dataclass(frozen=True)
class EntanglementReport:
    min_pt_eigenvalue: float
    entangled: bool
    concurrence: float
    eof: float
    bell: BellPopulations

    def as_dict(self) -> dict:
        return {
            "min_pt_eigenvalue": self.min_pt_eigenvalue,
            "entangled": self.entangled,
            "concurrence": self.concurrence,
            "eof": self.eof,
            "bell": self.bell.as_dict(),
        }


@dataclass(frozen=True)
class EquivalentConditions:
    temp_k_at_field: float
    field_t_at_temp: float
    gamma_hz_per_t: float

    def __post_init__(self):
        if not (self.temp_k_at_field > 0 and self.field_t_at_temp > 0):
            raise ValueError("equivalent conditions must be positive")

    def as_dict(self) -> dict:
        return {
            "temp_k_at_field": self.temp_k_at_field,
            "field_t_at_temp": self.field_t_at_temp,
            "gamma_hz_per_t": self.gamma_hz_per_t,
        }


def _as_matrix(rho, stack: bool = False) -> np.ndarray:
    """rho as a complex 4x4 array, or with stack, a (..., 4, 4) array."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, complex)
    if m.shape[-2:] != (4, 4) or (m.ndim > 2 and not stack):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    return m


def partial_transpose(rho) -> np.ndarray:
    """Transpose on the second spin's indices. Accepts a DensityMatrix, a
    plain 4x4 matrix or a (..., 4, 4) stack of them; the output of a state
    is Hermitian but not necessarily positive, so it comes back as a plain
    array of the input's shape."""
    m = _as_matrix(rho, stack=True)
    return (m.reshape(m.shape[:-2] + (2, 2, 2, 2))
            .swapaxes(-3, -1)
            .reshape(m.shape))


def min_pt_eigenvalue(rho):
    """Smallest eigenvalue of the partial transpose: a float for one
    matrix, an array over the leading axes for a (..., 4, 4) stack."""
    vals = np.linalg.eigvalsh(partial_transpose(rho)).min(axis=-1)
    return float(vals) if vals.ndim == 0 else vals


_SY_SY = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))


def concurrence(rho) -> float:
    """Wootters concurrence from the spin-flipped product
    rho (sy x sy) rho* (sy x sy)."""
    m = _as_matrix(rho)
    r = m @ _SY_SY @ m.conj() @ _SY_SY
    # r is similar to a positive matrix; eigenvalues are real >= 0 up to noise
    lams = np.sqrt(np.clip(np.linalg.eigvals(r).real, 0.0, None))
    lams.sort()
    return float(max(0.0, lams[3] - lams[2] - lams[1] - lams[0]))


def _h2(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def _eof_from_concurrence(c: float) -> float:
    if c >= 1.0:
        return 1.0
    return _h2((1 + math.sqrt(1 - c * c)) / 2)


def eof(rho) -> float:
    """Entanglement of formation in bits."""
    return _eof_from_concurrence(concurrence(rho))


def analyze(rho: DensityMatrix) -> EntanglementReport:
    mpt = min_pt_eigenvalue(rho)
    c = concurrence(rho)
    return EntanglementReport(
        min_pt_eigenvalue=mpt,
        entangled=mpt < -ENTANGLE_TOL,
        concurrence=c,
        eof=_eof_from_concurrence(c),
        bell=to_bell_populations(rho),
    )


def singlet_mixture_entangled(a, x):
    """Entanglement verdict (by partial transpose) for the mixture
    a*S0 + (1-a)*[x*T0 + (1-x)*(T+1 + T-1)/2].

    a and x broadcast against each other: scalars give a bool, arrays a
    bool array. Every value must lie in [0, 1], which makes each mixture a
    valid state, so the mixtures are not validated one by one."""
    a, x = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(x, dtype=float))
    if not ((0 <= a) & (a <= 1) & (0 <= x) & (x <= 1)).all():
        raise ValueError("a and x must lie in [0, 1]")
    rest = 1 - a
    pops = np.stack([a, rest * x, rest * (1 - x) / 2, rest * (1 - x) / 2], axis=-1)
    entangled = min_pt_eigenvalue(bell_diagonal_matrices(pops)) < -ENTANGLE_TOL
    return bool(entangled) if a.ndim == 0 else entangled


def effective_conditions(epsilon: float, params: SpinSystemParams,
                         gamma_hz_per_t: float = GAMMA_1H_HZ_PER_T) -> EquivalentConditions:
    """Temperature (at params.nu_hz) and magnetic field (at params.temp_k)
    at which thermal single-spin polarization tanh(h*nu/2kT) equals epsilon:
    with x = atanh(epsilon), T = h*nu / (2k*x) and nu = 2k*T*x / h.

    Temperatures are capped at TEMP_CEILING_K; anything at the cap means
    "effectively infinite" (epsilon ~ 0).
    """
    if not (0 < epsilon < 1):
        raise ValueError("epsilon must be strictly inside (0, 1)")
    x = math.atanh(epsilon)
    # fold the constants before touching x: for subnormal x, 2k*x and
    # 2k*T*x underflow to zero (a zero divisor, a zero field)
    temp = min(PLANCK_H * params.nu_hz / (2 * BOLTZMANN_K) / x, TEMP_CEILING_K)
    nu = 2 * BOLTZMANN_K * params.temp_k / PLANCK_H * x
    return EquivalentConditions(
        temp_k_at_field=temp,
        field_t_at_temp=nu / gamma_hz_per_t,
        gamma_hz_per_t=gamma_hz_per_t,
    )


def max_enhancement(params: SpinSystemParams) -> float:
    """Largest signal gain over thermal: 2/B with B = h*nu/kT."""
    return 2.0 / params.b_factor


def para_fraction(temp_k: float) -> float:
    """Equilibrium para fraction of H2 from nuclear-spin statistics:
    even rotational levels pair with the singlet (weight 1), odd with the
    triplet (weight 3). Series truncated once terms drop below 1e-15."""
    if not temp_k > 0:
        raise ValueError("temperature must be positive")
    even = odd = 0.0
    j = 0
    while True:
        term = (2 * j + 1) * math.exp(-H2_ROT_THETA_K * j * (j + 1) / temp_k)
        if j > 0 and term < 1e-15:
            break
        if j % 2 == 0:
            even += term
        else:
            odd += term
        j += 1
    return even / (even + 3 * odd)
