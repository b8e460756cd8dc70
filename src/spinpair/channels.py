"""Completely positive, trace-preserving linear maps on two-spin states.

A channel is its 16x16 superoperator acting on vec(rho), the row-major
flattening of the 4x4 density matrix: the matrix form of an NMR channel
(Havel, J. Math. Phys. 44, 534 (2003)). A stack of states is read as the
(..., 16) array of its vec(rho) rows and mapped by one product with the
transposed superoperator. Each builder computes its own map once. Pulses
and free evolution are exact 4x4 unitaries U, built by eigendecomposition
of their generators, acting as kron(U, conj(U)). Gradients are modeled as
ideal instantaneous dephasing of every coherence connecting different
total-m subspaces; spatial averaging over the sample is not simulated.
Relaxation is the closed-form Lindblad semigroup of independent per-spin
T1/T2 relaxation toward the exact thermal state, for T2 <= 2 T1.

Each channel is checked at construction through its Choi matrix
(Choi, Linear Algebra Appl. 10, 285 (1975)): a map that is not trace
preserving or not completely positive is refused. So a program is one
composed map, and apply validates the state once, after it.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .states import (
    _M_TOTAL, _cholesky_certifies, _frozen,
    DensityMatrix,
    SpinSystemParams,
    StateValidationError,
    IX, IY, IZ, SX, SY, SZ,
    check_density,
    make_thermal,
)

TP_TOL = 1e-12
CP_TOL = 1e-12
# CP_TOL I, the shift of the Cholesky certificate on the Choi matrix
_CP_SHIFT = CP_TOL * np.eye(16)


class ChannelError(ValueError):
    """A channel produced (or was built from) an invalid state or input."""


# keep only elements within one total-m subspace (diagonal + the 01/10 block)
_ZEEMAN_MASK = (_M_TOTAL[:, None] == _M_TOTAL[None, :]).astype(float)
_DIAG_MASK = np.eye(4)
# the J operator of each coupling: the secular IzSz, the full I.S, or none
_J_OPERATORS = {"weak": IZ @ SZ, "strong": IX @ SX + IY @ SY + IZ @ SZ, "off": None}


def _check_duration(name: str, t_s: float) -> None:
    """Raise ChannelError naming the duration unless 0 <= t_s < inf; NaN fails."""
    if not 0 <= t_s < np.inf:
        raise ChannelError(f"{name} t_s = {t_s!r} s must be finite and non-negative")


def _unitary_from_generator(gen: np.ndarray) -> np.ndarray:
    """exp(-i * gen) for Hermitian gen, via eigendecomposition."""
    w, v = np.linalg.eigh(gen)
    return v @ np.diag(np.exp(-1j * w)) @ v.conj().T


@dataclass(frozen=True, eq=False)
class Channel:
    """One completely positive, trace-preserving map, held as its 16x16
    matrix on vec(rho).

    superop is stored as a read-only copy; t_s is the duration, None for
    an instantaneous map, and one that is negative or not finite raises
    ChannelError. A map that is not trace preserving (for a unitary
    kron(u, conj(u)), u^H u = 1), or whose Choi matrix is not Hermitian to
    CP_TOL or has an eigenvalue below -CP_TOL, raises ChannelError. One
    Cholesky factorization certifies positivity; only when it fails do the
    eigenvalues decide the refusal and its message."""

    label: str
    superop: np.ndarray = field(repr=False)
    t_s: float | None = None

    def __post_init__(self):
        if self.t_s is not None:
            _check_duration("duration", self.t_s)
        sup = _frozen(np.asarray(self.superop, dtype=complex))
        # Choi[(k, i), (l, j)] = Phi(|k><l|)[i, j]; tracing out the
        # output pair (i = j) gives the identity iff Phi preserves trace
        choi = sup.reshape(4, 4, 4, 4).transpose(2, 0, 3, 1)
        tp_dev = np.abs(np.einsum("kili->kl", choi) - np.eye(4)).max()
        if not tp_dev <= TP_TOL:
            raise ChannelError(
                f"channel {self.label} is not trace preserving: Choi partial "
                f"trace deviates from identity by {tp_dev:.3e}")
        choi = choi.reshape(16, 16)
        herm_dev = np.abs(choi - choi.conj().T).max()
        if not (herm_dev <= CP_TOL and _cholesky_certifies(choi, _CP_SHIFT)):
            eigmin = np.linalg.eigvalsh((choi + choi.conj().T) / 2).min()
            if not (herm_dev <= CP_TOL and eigmin >= -CP_TOL):
                raise ChannelError(
                    f"channel {self.label} is not completely positive: Choi matrix has "
                    f"eigenvalue {eigmin:.3e} and non-Hermitian part {herm_dev:.3e}")
        object.__setattr__(self, "superop", sup)

    def apply_matrix(self, m: np.ndarray) -> np.ndarray:
        """The map on a 4x4 matrix or a (..., 4, 4) stack of them."""
        return _apply_superop(self.superop, np.asarray(m))


def _apply_superop(sup: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The 16x16 map sup on each 4x4 matrix of the (..., 4, 4) array m:
    one product of the stack's (..., 16) vec(rho) with sup transposed."""
    return (m.reshape(m.shape[:-2] + (16,)) @ sup.T).reshape(m.shape)


@dataclass(frozen=True)
class ChannelProgram:
    """Ordered channel list with the params snapshot it was built against.

    statements, when present, holds the source-statement tuples that let the
    program serialize back to sequence text (see seqdsl.program_to_text).
    """

    channels: tuple
    params: SpinSystemParams
    statements: tuple | None = None

    @property
    def total_duration_s(self) -> float:
        return sum(c.t_s for c in self.channels if c.t_s is not None)

    @functools.cached_property
    def superop(self) -> np.ndarray:
        """The read-only 16x16 map of the channels composed first to last
        (the identity for none)."""
        sups = [ch.superop for ch in self.channels] or [np.eye(16, dtype=complex)]
        return _frozen(functools.reduce(lambda acc, s: s @ acc, sups))


def hard_pulse(angle_deg: float, phase_deg: float) -> Channel:
    """Non-selective rotation of both spins: exp(-i*theta*(cos(phi)Fx + sin(phi)Fy))."""
    theta = np.deg2rad(angle_deg)
    phi = np.deg2rad(phase_deg)
    u = _unitary_from_generator(
        theta * (np.cos(phi) * (IX + SX) + np.sin(phi) * (IY + SY)))
    return Channel(f"pulse({angle_deg:g},{phase_deg:g})", np.kron(u, u.conj()))


def _propagator(t_s: float, params: SpinSystemParams,
                coupling: str = "weak") -> np.ndarray:
    """The 4x4 unitary exp(-i H t_s) of free_evolution, which FID
    synthesis shares. Weak coupling raises when delta_nu <= J and warns
    when delta_nu <= 5J. An unknown coupling, a time t_s that is negative
    or not finite, or a generator H t_s that overflows, raises
    ChannelError."""
    _check_duration("evolution time", t_s)
    if coupling not in _J_OPERATORS:
        raise ChannelError(f"unknown coupling {coupling!r}")
    dnu, j = params.delta_nu_hz, params.j_hz
    if coupling == "weak":
        if dnu <= j:
            raise ChannelError(
                f"weak coupling needs delta_nu > J, got {dnu} <= {j}")
        if dnu <= 5 * j:
            warnings.warn(
                f"weak-coupling evolution with delta_nu = {dnu} <= 5*J = {5*j}; "
                "secular approximation is marginal", stacklevel=2)
    # a frequency or time near the float limit overflows; refused below
    with np.errstate(over="ignore", invalid="ignore"):
        h = 2 * np.pi * (-dnu / 2) * IZ + 2 * np.pi * (dnu / 2) * SZ
        if _J_OPERATORS[coupling] is not None:
            h = h + 2 * np.pi * j * _J_OPERATORS[coupling]
        gen = h * t_s
    if not np.isfinite(gen).all():
        raise ChannelError(
            f"evolution for {t_s!r} s at delta_nu = {dnu!r} Hz, J = {j!r} Hz "
            "overflows the phase of the propagator")
    return _unitary_from_generator(gen)


def free_evolution(t_s: float, params: SpinSystemParams,
                   coupling: str = "weak") -> Channel:
    """Rotating-frame evolution at the doublet midpoint carrier.

    Spin I sits at offset -delta_nu/2, spin S at +delta_nu/2. The coupling
    is "weak", the secular 2*pi*J*IzSz; "strong", the full 2*pi*J*I.S; or
    "off", none (the selective-pulse delay and the gradient periods).
    """
    u = _propagator(t_s, params, coupling)
    return Channel(f"evolve({t_s:g},{coupling})", np.kron(u, u.conj()), t_s=t_s)


def zeeman_dephase() -> Channel:
    """Ideal gradient crush: zero every element connecting different total m."""
    return Channel("zeeman_dephase", np.diag(_ZEEMAN_MASK.reshape(16)))


def zq_dephase() -> Channel:
    """Slow-addition model: additionally dephases the zero-quantum 01/10
    block, leaving only the Zeeman diagonal."""
    return Channel("zq_dephase", np.diag(_DIAG_MASK.reshape(16)))


def relax(t_s: float, params: SpinSystemParams) -> Channel:
    """exp(t_s D) for the Lindblad dissipator D of independent per-spin
    relaxation (Lindblad, CMP 48, 119 (1976); Gorini, Kossakowski &
    Sudarshan, JMP 17, 821 (1976)): amplitude damping at 1/T1 toward the
    exact thermal state and sigma_z dephasing at 1/T2 - 1/(2 T1). In closed
    form it is E (x) E, where E takes one spin's populations p to
    f1 p + (1 - f1) eq_1 and its coherence c to f2 c, for f1 = exp(-t/T1),
    f2 = exp(-t/T2) and eq_1 the one-spin marginal of the exact thermal
    state. T2 > 2 T1, where no Lindblad form exists, or a time t_s that is
    negative or not finite raises ChannelError; T1 = T2 = inf is the
    identity."""
    _check_duration("relaxation time", t_s)
    if params.t2_s > 2 * params.t1_s:
        raise ChannelError(
            f"relaxation needs t2_s <= 2 * t1_s, got t1_s = {params.t1_s!r}, "
            f"t2_s = {params.t2_s!r}")
    eq_1 = make_thermal(params).matrix.diagonal().real.reshape(2, 2).sum(axis=1)
    f1, f2 = math.exp(-t_s / params.t1_s), math.exp(-t_s / params.t2_s)
    # E on the one-spin row-major vec: populations at 0 and 3, coherences
    # at 1 and 2; populations refill toward eq_1 in proportion to the trace
    e = np.diag([f1, f2, f2, f1])
    e[np.ix_((0, 3), (0, 3))] += (1 - f1) * eq_1[:, None]
    # E (x) E with rho[(a, c), (b, d)] for spin I's a, b and spin S's c, d
    e = e.reshape(2, 2, 2, 2)
    sup = np.einsum("abij,cdkl->acbdikjl", e, e).reshape(16, 16)
    return Channel(f"relax({t_s:g})", sup, t_s=t_s)


# Phase pairs (first, second) of the two hard 90s, per target spin. Pinned
# by the readout-sign test: on the singlet the target-I pair must produce
# coefficients -1/2 on 2IxSz and +1/2 on 2IzSx while a thermal spectator
# keeps its z term. The relative phase is 135 degrees in magnitude; its
# sign flips with the target.
_SELECTIVE_PHASES = {"I": (135.0, 0.0), "S": (45.0, 180.0)}


def selective_pulse(target_spin: str, params: SpinSystemParams) -> ChannelProgram:
    """90-degree rotation of one spin about its +y axis, built from two hard
    90s separated by 1/(4*delta_nu) of chemical-shift evolution. The other
    spin returns to its initial z alignment up to a z phase."""
    if target_spin not in _SELECTIVE_PHASES:
        raise ChannelError(f"target must be 'I' or 'S', got {target_spin!r}")
    p1, p2 = _SELECTIVE_PHASES[target_spin]
    tau = 1.0 / (4.0 * params.delta_nu_hz)
    chans = (
        hard_pulse(90.0, p1),
        free_evolution(tau, params, "off"),
        hard_pulse(90.0, p2),
    )
    return ChannelProgram(channels=chans, params=params,
                          statements=(("selective", target_spin),))


def gradient_period(params: SpinSystemParams) -> tuple:
    """One filtration half: 1/delta_nu of shift evolution under a crush
    gradient, modeled as evolution followed by ideal m-subspace dephasing."""
    tau = 1.0 / params.delta_nu_hz
    return (free_evolution(tau, params, "off"), zeeman_dephase())


def filtration_sequence(params: SpinSystemParams) -> ChannelProgram:
    """Two gradient periods of length 1/delta_nu around a hard 90.

    Projects any input toward singlet-triplet diagonal form with equal
    T+1/T-1 weights while leaving the singlet itself untouched.
    """
    g1 = gradient_period(params)
    g2 = gradient_period(params)
    chans = g1 + (hard_pulse(90.0, 0.0),) + g2
    return ChannelProgram(
        channels=chans, params=params,
        statements=(("gradient_period",), ("pulse", 90.0, 0.0), ("gradient_period",)),
    )


def apply(program: Channel | ChannelProgram, rho):
    """The program's one composed map, or the channel's map, applied to rho.

    rho is a DensityMatrix, and the result is one, or a (..., 4, 4) stack
    of density matrices, checked on entry and returned as an array. Every
    channel is completely positive, so the state is validated once, after
    the map; a broken state raises ChannelError naming the last channel."""
    if isinstance(rho, DensityMatrix):
        m, check = rho.matrix, DensityMatrix
    else:
        m, check = check_density(rho), check_density
    try:
        return check(_apply_superop(program.superop, m))
    except StateValidationError as exc:
        last = program if isinstance(program, Channel) else program.channels[-1]
        raise ChannelError(f"channel {last.label} broke state invariants: {exc}") from exc
