"""Trace-preserving linear maps on two-spin states.

A channel is its 16x16 superoperator acting on vec(rho), the row-major
flattening of the 4x4 density matrix: the matrix form of an NMR channel
(Havel, J. Math. Phys. 44, 534 (2003)). Each builder computes its own map
once. Pulses and free evolution are exact 4x4 unitaries U, built by
eigendecomposition of their generators, acting as kron(U, conj(U)).
Gradients are modeled as ideal instantaneous dephasing of every coherence
connecting different total-m subspaces; spatial averaging over the sample
is not simulated. Relaxation is a product of independent T1/T2
exponentials relaxing toward the exact thermal diagonal.

Each channel is checked at construction through its Choi matrix
(Choi, Linear Algebra Appl. 10, 285 (1975)): a map that is not trace
preserving is refused, and complete positivity is recorded in Channel.cp.
Relaxation stops being completely positive once T2 exceeds about 4/3 T1,
so such channels are accepted and apply revalidates the state after them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .states import (
    _M_TOTAL,
    DensityMatrix,
    SpinSystemParams,
    StateValidationError,
    IX, IY, IZ, SX, SY, SZ,
    check_density,
    make_thermal,
)

TP_TOL = 1e-12
CP_TOL = 1e-12


class ChannelError(ValueError):
    """A channel produced (or was built from) an invalid state or input."""


# keep only elements within one total-m subspace (diagonal + the 01/10 block)
_ZEEMAN_MASK = (_M_TOTAL[:, None] == _M_TOTAL[None, :]).astype(float)
_DIAG_MASK = np.eye(4)
# positions of the populations rho[i, i] in vec(rho)
_VEC_DIAG = np.arange(4) * 5


def _unitary_from_generator(gen: np.ndarray) -> np.ndarray:
    """exp(-i * gen) for Hermitian gen, via eigendecomposition."""
    w, v = np.linalg.eigh(gen)
    return v @ np.diag(np.exp(-1j * w)) @ v.conj().T


@dataclass(frozen=True, eq=False)
class Channel:
    """One trace-preserving map, held as its 16x16 matrix on vec(rho).

    superop is stored as a read-only copy; t_s is the duration, None for
    an instantaneous map. A map that is not trace preserving raises
    ChannelError; for a unitary kron(u, conj(u)) that is exactly the
    condition u^H u = 1. cp says whether the map is completely positive
    (its Choi matrix is positive semidefinite to CP_TOL)."""

    label: str
    superop: np.ndarray = field(repr=False)
    t_s: float | None = None
    cp: bool = field(init=False, repr=False)

    def __post_init__(self):
        if self.t_s is not None and self.t_s < 0:
            raise ChannelError("negative duration")
        sup = np.array(self.superop, dtype=complex)
        sup.setflags(write=False)
        # Choi[(k, i), (l, j)] = Phi(|k><l|)[i, j]; tracing out the
        # output pair (i = j) gives the identity iff Phi preserves trace
        choi = sup.reshape(4, 4, 4, 4).transpose(2, 0, 3, 1)
        tp_dev = np.abs(np.einsum("kili->kl", choi) - np.eye(4)).max()
        if tp_dev > TP_TOL:
            raise ChannelError(
                f"channel {self.label} is not trace preserving: Choi partial "
                f"trace deviates from identity by {tp_dev:.3e}")
        object.__setattr__(self, "superop", sup)
        # every builder here gives an exactly Hermitian Choi matrix
        object.__setattr__(self, "cp", bool(
            np.linalg.eigvalsh(choi.reshape(16, 16)).min() >= -CP_TOL))

    def apply_matrix(self, m: np.ndarray) -> np.ndarray:
        """The map on a 4x4 matrix or a (..., 4, 4) stack of them."""
        m = np.asarray(m)
        return (self.superop @ m.reshape(m.shape[:-2] + (16, 1))).reshape(m.shape)


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


def hard_pulse(angle_deg: float, phase_deg: float) -> Channel:
    """Non-selective rotation of both spins: exp(-i*theta*(cos(phi)Fx + sin(phi)Fy))."""
    theta = np.deg2rad(angle_deg)
    phi = np.deg2rad(phase_deg)
    u = _unitary_from_generator(
        theta * (np.cos(phi) * (IX + SX) + np.sin(phi) * (IY + SY)))
    return Channel(f"pulse({angle_deg:g},{phase_deg:g})", np.kron(u, u.conj()))


def _propagator(t_s: float, params: SpinSystemParams,
                coupling_mode: str = "weak", include_j: bool = True) -> np.ndarray:
    """The 4x4 unitary exp(-i H t_s) of free_evolution, which FID
    synthesis shares. Weak coupling with J active raises when
    delta_nu <= J and warns when delta_nu <= 5J."""
    if t_s < 0:
        raise ChannelError("negative evolution time")
    if coupling_mode not in ("weak", "strong"):
        raise ChannelError(f"unknown coupling mode {coupling_mode!r}")
    dnu, j = params.delta_nu_hz, params.j_hz
    if include_j and coupling_mode == "weak":
        if dnu <= j:
            raise ChannelError(
                f"weak coupling needs delta_nu > J, got {dnu} <= {j}")
        if dnu <= 5 * j:
            warnings.warn(
                f"weak-coupling evolution with delta_nu = {dnu} <= 5*J = {5*j}; "
                "secular approximation is marginal", stacklevel=2)
    h = 2 * np.pi * (-dnu / 2) * IZ + 2 * np.pi * (dnu / 2) * SZ
    if include_j:
        if coupling_mode == "weak":
            h = h + 2 * np.pi * j * (IZ @ SZ)
        else:
            h = h + 2 * np.pi * j * (IX @ SX + IY @ SY + IZ @ SZ)
    return _unitary_from_generator(h * t_s)


def free_evolution(t_s: float, params: SpinSystemParams,
                   coupling_mode: str = "weak", include_j: bool = True) -> Channel:
    """Rotating-frame evolution at the doublet midpoint carrier.

    Spin I sits at offset -delta_nu/2, spin S at +delta_nu/2. weak keeps
    only the secular 2*pi*J*IzSz coupling; strong uses the full 2*pi*J*I.S.
    include_j=False drops the coupling entirely (selective-pulse delays
    always assume this separation, gradient periods by default).
    """
    u = _propagator(t_s, params, coupling_mode, include_j)
    tag = coupling_mode if include_j else "nocoupling"
    return Channel(f"evolve({t_s:g},{tag})", np.kron(u, u.conj()), t_s=t_s)


def zeeman_dephase() -> Channel:
    """Ideal gradient crush: zero every element connecting different total m."""
    return Channel("zeeman_dephase", np.diag(_ZEEMAN_MASK.reshape(16)))


def zq_dephase() -> Channel:
    """Slow-addition model: additionally dephases the zero-quantum 01/10
    block, leaving only the Zeeman diagonal."""
    return Channel("zq_dephase", np.diag(_DIAG_MASK.reshape(16)))


def relax(t_s: float, params: SpinSystemParams) -> Channel:
    """Off-diagonals decay with T2; populations relax to the exact thermal
    diagonal with T1. relax(t1) then relax(t2) equals relax(t1+t2)."""
    if t_s < 0:
        raise ChannelError("negative relaxation time")
    eq = make_thermal(params, mode="exact").matrix.diagonal().real
    f1 = float(np.exp(-t_s / params.t1_s))
    f2 = float(np.exp(-t_s / params.t2_s))
    # off-diagonals decay by f2; populations by f1, refilled toward eq in
    # proportion to the trace: linear, not affine
    sup = np.diag(np.full(16, f2, dtype=complex))
    sup[np.ix_(_VEC_DIAG, _VEC_DIAG)] = f1 * np.eye(4) + (1 - f1) * eq[:, None]
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
        free_evolution(tau, params, include_j=False),
        hard_pulse(90.0, p2),
    )
    return ChannelProgram(channels=chans, params=params,
                          statements=(("selective", target_spin),))


def gradient_period(params: SpinSystemParams,
                    j_during_gradient: bool = False) -> tuple:
    """One filtration half: 1/delta_nu of shift evolution under a crush
    gradient, modeled as evolution followed by ideal m-subspace dephasing."""
    tau = 1.0 / params.delta_nu_hz
    return (free_evolution(tau, params, include_j=j_during_gradient),
            zeeman_dephase())


def filtration_sequence(params: SpinSystemParams,
                        j_during_gradients: bool = False) -> ChannelProgram:
    """Two gradient periods of length 1/delta_nu around a hard 90.

    Projects any input toward singlet-triplet diagonal form with equal
    T+1/T-1 weights while leaving the singlet itself untouched.
    """
    g1 = gradient_period(params, j_during_gradients)
    g2 = gradient_period(params, j_during_gradients)
    chans = g1 + (hard_pulse(90.0, 0.0),) + g2
    return ChannelProgram(
        channels=chans, params=params,
        statements=(("gradient_period",), ("pulse", 90.0, 0.0), ("gradient_period",)),
    )


def apply(program: Channel | ChannelProgram, rho):
    """Left-to-right composition of the superoperators of a program's
    channels, or of one channel.

    rho is a DensityMatrix, and the result is one, or a (..., 4, 4) stack
    of density matrices, checked on entry and returned as an array.
    The state is revalidated after every channel that is not completely
    positive, the only kind that can take a valid state to an invalid one,
    and always after the last channel; a broken state raises ChannelError
    naming the channel after which it was found."""
    channels = (program,) if isinstance(program, Channel) else program.channels
    if isinstance(rho, DensityMatrix):
        m, check = rho.matrix, DensityMatrix
    else:
        rho = m = check_density(rho)
        check = check_density
    last = len(channels) - 1
    for i, ch in enumerate(channels):
        m = ch.apply_matrix(m)
        if not ch.cp or i == last:
            rho = _checked(ch, m, check)
    return rho


def _checked(channel: Channel, m: np.ndarray, check):
    try:
        return check(m)
    except StateValidationError as exc:
        raise ChannelError(f"channel {channel.label} broke state invariants: {exc}") from exc
