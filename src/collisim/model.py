"""Physical ingredients: qubit Hamiltonians, thermal ancillas, couplings.

Basis convention: the qubit basis is (|e>, |g>) with sigma_z = diag(+1, -1),
so H = (omega/2) sigma_z puts the excited state at energy +omega/2 and the
thermal state diag((1 - tanh(beta omega/2))/2, (1 + tanh(beta omega/2))/2)
has the smaller entry first. Figure labels |1> and |0> map to |e> and |g>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import dagger, exp_minus_i, hermitize, kron

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
PAULI_PAIRS = np.array([[kron(a, b) for b in PAULIS] for a in PAULIS])  # [l, m] = sigma_l (x) sigma_m

KET_E = np.array([1, 0], dtype=complex)
KET_G = np.array([0, 1], dtype=complex)


@dataclass(frozen=True)
class QubitHamiltonian:
    """Free qubit Hamiltonian (omega/2) sigma_z, hbar = 1."""

    omega: float

    def __post_init__(self):
        if not math.isfinite(self.omega):
            raise ValueError("omega must be finite")

    def matrix(self) -> np.ndarray:
        return (self.omega / 2) * SIGMA_Z


@dataclass(frozen=True)
class AncillaPrep:
    """Thermal ancilla preparation: inverse temperature and frequency.

    beta may be +-inf (zero-temperature limits) or an array (a stack of
    ancillas); omega_a must be finite.
    """

    beta: float
    omega_a: float = 1.0

    def __post_init__(self):
        if np.any(np.isnan(self.beta)):
            raise ValueError("beta must be a real number or +-inf")
        if not math.isfinite(self.omega_a):
            raise ValueError("omega_a must be finite")

    def hamiltonian(self) -> QubitHamiltonian:
        return QubitHamiltonian(self.omega_a)

    def state(self) -> np.ndarray:
        return gibbs_state(QubitHamiltonian(self.omega_a), self.beta)


@dataclass(frozen=True, eq=False)
class CouplingSpec:
    """Two-body coupling sum_lm J_lm sigma_l (x) sigma_m with collision time dt.

    The J_lm are the g0-level constants; with scaling='sqrt_dt' the built
    interaction carries the extra dt**-0.5 so the induced master equation is
    dt-independent. scaling='none' uses the J_lm verbatim. A (..., 3, 3)
    stack of J describes a stack of couplings that share dt.
    """

    j: np.ndarray            # 3x3 real, (x,y,z) x (x,y,z)
    dt: float
    scaling: str = "sqrt_dt"

    def __post_init__(self):
        jm = np.array(self.j, dtype=float)
        if jm.shape[-2:] != (3, 3):
            raise ValueError("j must be a 3x3 real matrix")
        if not np.all(np.isfinite(jm)):
            raise ValueError("all J_lm must be finite")
        object.__setattr__(self, "j", jm)
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError("dt must be positive and finite")
        if self.scaling not in ("sqrt_dt", "none"):
            raise ValueError(f"unknown scaling {self.scaling!r}")
        self.j.setflags(write=False)

    @property
    def scale(self) -> float:
        return self.dt ** -0.5 if self.scaling == "sqrt_dt" else 1.0


def diagonal_coupling(j_x: float, j_y: float, dt: float, scaling: str = "sqrt_dt") -> CouplingSpec:
    """J_x sigma_x sigma_x + J_y sigma_y sigma_y family (arrays give a stack)."""
    j = np.zeros(np.broadcast_shapes(np.shape(j_x), np.shape(j_y)) + (3, 3))
    j[..., 0, 0], j[..., 1, 1] = j_x, j_y
    return CouplingSpec(j, dt, scaling)


def ssc_coupling(j_x: float, j_y: float, j_zy: float, dt: float,
                 scaling: str = "sqrt_dt") -> CouplingSpec:
    """Coherence-generating family: diagonal XX+YY plus a sigma_z sigma_y term."""
    j = np.zeros(np.broadcast_shapes(np.shape(j_x), np.shape(j_y), np.shape(j_zy)) + (3, 3))
    j[..., 0, 0], j[..., 1, 1], j[..., 2, 1] = j_x, j_y, j_zy
    return CouplingSpec(j, dt, scaling)


@dataclass(frozen=True)
class SscAngles:
    """Angle parameterization of the coherence-generating coupling.

    J_x = m cos(alpha) cos(gamma), J_y = m cos(alpha) sin(gamma),
    J_zy = m sin(alpha); alpha in [0, pi/2] measures the weight of the
    dephasing (parallel) term against the diagonal (perpendicular) one, up
    to the pure sigma_z sigma_y member at alpha = pi/2. Arrays give a stack.
    """

    alpha: float
    gamma: float
    magnitude: float = 1.0

    def __post_init__(self):
        if not np.all((0 <= self.alpha) & (self.alpha <= np.pi / 2)):
            raise ValueError("alpha must lie in [0, pi/2]")
        if not np.all((-np.pi <= self.gamma) & (self.gamma <= np.pi)):
            raise ValueError("gamma must lie in [-pi, pi]")

    def j_values(self) -> tuple[float, float, float]:
        m = self.magnitude
        return (m * np.cos(self.alpha) * np.cos(self.gamma),
                m * np.cos(self.alpha) * np.sin(self.gamma),
                m * np.sin(self.alpha))


def ssc_to_coupling(angles: SscAngles, dt: float, scaling: str = "sqrt_dt") -> CouplingSpec:
    """CouplingSpec with exactly the three SSC entries set."""
    j_x, j_y, j_zy = angles.j_values()
    return ssc_coupling(j_x, j_y, j_zy, dt, scaling)


def gibbs_state(h, beta: float) -> np.ndarray:
    """Thermal state exp(-beta H)/Z of a Hamiltonian.

    Accepts a QubitHamiltonian or any Hermitian matrix, and an array of beta
    for a stack of states. beta = +inf returns the ground-state projector
    (-inf the top one); a degenerate extremal eigenspace at infinite beta is
    an error because the limit depends on the approach path.
    """
    hm = h.matrix() if isinstance(h, QubitHamiltonian) else np.asarray(h, dtype=complex)
    w, v = np.linalg.eigh(hm)
    beta = np.asarray(beta, dtype=float)[..., None]
    finite = np.isfinite(beta)
    # subtract the max exponent for overflow safety at large |beta|
    x = -np.where(finite, beta, 0.0) * w
    x = x - np.max(x, axis=-1, keepdims=True)
    pops = np.exp(x)
    pops /= pops.sum(axis=-1, keepdims=True)
    if not finite.all():
        target = np.where(beta > 0, w[0], w[-1])
        sel = np.abs(w - target) <= 1e-12 * max(1.0, np.max(np.abs(w)))
        if np.any(~finite & (sel.sum(axis=-1, keepdims=True) > 1)):
            raise ValueError("ill-defined zero-temperature limit: extremal eigenspace degenerate")
        pops = np.where(finite, pops, sel)
    return (v * pops[..., None, :]) @ dagger(v)


def build_interaction(spec: CouplingSpec) -> np.ndarray:
    """4x4 interaction Hamiltonian s * sum_lm J_lm sigma_l (x) sigma_m (a stack for stacked J)."""
    return hermitize(np.einsum("...lm,lmij->...ij", spec.j, PAULI_PAIRS)) * spec.scale


def collision_unitary(hs: QubitHamiltonian, ha: QubitHamiltonian,
                      hsa: np.ndarray, dt: float) -> np.ndarray:
    """Joint propagator exp(-i dt (H_S + H_A + H_SA)) of one collision (or a stack)."""
    if hsa.shape[-2:] != (4, 4):
        raise ValueError("interaction must act on the 4-dimensional joint space")
    return exp_minus_i(kron(hs.matrix(), I2) + kron(I2, ha.matrix()) + hsa, dt)


def bloch_state(x: float, y: float, z: float) -> np.ndarray:
    """rho = (I + x sx + y sy + z sz)/2; the Bloch vector must have norm <= 1."""
    n = math.sqrt(x * x + y * y + z * z)
    if n > 1 + 1e-12:
        raise ValueError(f"Bloch vector norm {n} exceeds 1")
    return (I2 + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z) / 2


def pure_state(theta: float, phi: float = 0.0) -> np.ndarray:
    """|psi><psi| with |psi> = cos(theta)|e> + e^{i phi} sin(theta)|g>."""
    ket = np.array([np.cos(theta), np.exp(1j * phi) * np.sin(theta)], dtype=complex)
    return np.outer(ket, ket.conj())


# Initial state of the transient figure panels: cos(15pi/16)|1> + sin(15pi/16)|0>.
FIG3_THETA = 15 * np.pi / 16

NAMED_STATES = {
    "ground": lambda: np.outer(KET_G, KET_G.conj()),
    "excited": lambda: np.outer(KET_E, KET_E.conj()),
    "plus": lambda: pure_state(np.pi / 4),
    "maximally_mixed": lambda: I2 / 2,
    "fig3": lambda: pure_state(FIG3_THETA),
}
