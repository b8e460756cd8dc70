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
from dataclasses import asdict, dataclass

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
        return asdict(self)


@dataclass(frozen=True)
class EquivalentConditions:
    temp_k_at_field: float
    field_t_at_temp: float
    gamma_hz_per_t: float

    def __post_init__(self):
        if not (self.temp_k_at_field > 0 and self.field_t_at_temp > 0):
            raise ValueError("equivalent conditions must be positive")

    def as_dict(self) -> dict:
        return asdict(self)


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


# the eight entries outside the diagonal and the anti-diagonal
_OFF_X = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])
_OFF_X.setflags(write=False)


def _x_entries(m: np.ndarray):
    """(a, b, c, d, |rho_12|, |rho_03|), the diagonal and the anti-diagonal
    moduli, when every entry outside them is exactly zero (an X state):
    floats for one matrix, arrays over the leading axes for a stack.
    None when some such entry is not zero."""
    if m.ndim == 2:
        # one .tolist() read is several times cheaper than array indexing
        r0, r1, r2, r3 = m.tolist()
        if r0[1] or r0[2] or r1[0] or r1[3] or r2[0] or r2[3] or r3[1] or r3[2]:
            return None
        return (r0[0].real, r1[1].real, r2[2].real, r3[3].real,
                abs(r1[2]), abs(r0[3]))
    if m[..., _OFF_X].any():
        return None
    return (*(m[..., i, i].real for i in range(4)),
            np.abs(m[..., 1, 2]), np.abs(m[..., 0, 3]))


def _x_min_pt(a, b, c, d, z, w):
    """Smallest partial-transpose eigenvalue of an X state: the transpose
    swaps the two anti-diagonal coherences, leaving two 2x2 blocks."""
    return np.minimum((a + d) / 2 - np.hypot((a - d) / 2, z),
                      (b + c) / 2 - np.hypot((b - c) / 2, w))


def _x_concurrence(a, b, c, d, z, w):
    """Wootters concurrence of an X state (Yu & Eberly, Quantum Inf.
    Comput. 7, 459 (2007)). ad and bc are clipped at 0, because a
    validated diagonal entry may sit at -EIG_TOL."""
    return 2 * np.maximum(0.0, np.maximum(z - np.sqrt(np.maximum(a * d, 0.0)),
                                          w - np.sqrt(np.maximum(b * c, 0.0))))


def min_pt_eigenvalue(rho):
    """Smallest eigenvalue of the partial transpose: a float for one
    matrix, an array over the leading axes for a (..., 4, 4) stack. An X
    state, or a stack of them, is read in closed form; any other input
    goes through eigvalsh."""
    m = _as_matrix(rho, stack=True)
    x = _x_entries(m)
    if x is None:
        vals = np.linalg.eigvalsh(partial_transpose(m)).min(axis=-1)
    else:
        vals = _x_min_pt(*x)
    return float(vals) if vals.ndim == 0 else vals


# sy x sy is the anti-diagonal (-1, 1, 1, -1), so conjugating by it
# reverses both indices and multiplies entry [i, j] by s_i s_j
_FLIP_S = np.array([-1.0, 1.0, 1.0, -1.0])
_FLIP_SIGN = np.outer(_FLIP_S, _FLIP_S)
_FLIP_SIGN.setflags(write=False)


def _spin_flip(m: np.ndarray) -> np.ndarray:
    """(sy x sy) m* (sy x sy) for each 4x4 matrix of a (..., 4, 4) stack,
    as a signed reversal of both indices."""
    return m.conj()[..., ::-1, ::-1] * _FLIP_SIGN


def concurrence(rho) -> float:
    """Wootters concurrence: in closed form for an X state, otherwise from
    the eigenvalues of the spin-flipped product rho (sy x sy) rho* (sy x sy)."""
    m = _as_matrix(rho)
    x = _x_entries(m)
    if x is not None:
        return float(_x_concurrence(*x))
    r = m @ _spin_flip(m)
    # r is similar to a positive matrix; eigenvalues are real >= 0 up to noise
    lams = np.sqrt(np.maximum(np.linalg.eigvals(r).real, 0.0))
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
    triplet (weight 3). Series truncated once terms drop below 1e-15. A
    temp_k that is not positive and finite raises ValueError."""
    if not 0 < temp_k < math.inf:
        raise ValueError(f"temperature must be positive and finite, got {temp_k!r}")
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
