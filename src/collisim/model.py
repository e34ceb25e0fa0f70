"""Physical ingredients: qubit Hamiltonians, thermal ancillas, couplings.

Basis convention: the qubit basis is (|e>, |g>) with sigma_z = diag(+1, -1),
so H = (omega/2) sigma_z puts the excited state at energy +omega/2 and the
thermal state, Bloch vector (0, 0, -tanh(beta omega/2)), has the smaller
population on |e>. Figure labels |1> and |0> map to |e> and |g>. States are
Bloch vectors; the constructors here are where they enter. Every scalar
(omega, beta, dt) may be an array of stack axes, which lead in what it builds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import exp_minus_i, kron

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI4 = np.array((I2, SIGMA_X, SIGMA_Y, SIGMA_Z))   # sigma_mu, mu = 0 the identity
PAULIS = PAULI4[1:]
PAULI_PAIRS = np.array([[kron(a, b) for b in PAULIS] for a in PAULIS])  # [l, m] = sigma_l (x) sigma_m
SIGMA_S = kron(PAULIS, I2)                         # [l] = sigma_l (x) I, the system Paulis
SZ_S, SZ_A = SIGMA_S[2], kron(I2, SIGMA_Z)         # sigma_z of the system, of the ancilla


@dataclass(frozen=True)
class QubitHamiltonian:
    """Free qubit Hamiltonian (omega/2) sigma_z, hbar = 1."""

    omega: float

    def __post_init__(self):
        if not np.isfinite(self.omega).all():
            raise ValueError("omega must be finite")

    def matrix(self) -> np.ndarray:
        return (np.asarray(self.omega)[..., None, None] / 2) * SIGMA_Z


@dataclass(frozen=True)
class AncillaPrep:
    """Thermal ancilla preparation: inverse temperature and frequency.

    beta may be +-inf (zero-temperature limits); omega_a must be finite.
    Either may be an array: a stack of ancillas.
    """

    beta: float
    omega_a: float = 1.0

    def __post_init__(self):
        if np.isnan(self.beta).any():
            raise ValueError("beta must be a real number or +-inf")
        if not np.isfinite(self.omega_a).all():
            raise ValueError("omega_a must be finite")

    def hamiltonian(self) -> QubitHamiltonian:
        return QubitHamiltonian(self.omega_a)

    @functools.cached_property
    def state(self) -> np.ndarray:
        """Bloch vector of the thermal ancilla, built once per instance: the
        kernel and the iteration of one `steady` command share it."""
        return gibbs_state(self.hamiltonian(), self.beta)


@dataclass(frozen=True, eq=False)
class CouplingSpec:
    """Two-body coupling sum_lm J_lm sigma_l (x) sigma_m with collision time dt.

    The J_lm are the g0-level constants; the built interaction carries the
    extra dt**-0.5, so the induced master equation is dt-independent. A
    (..., 3, 3) stack of J and an array of dt broadcast to a stack of couplings.
    """

    j: np.ndarray            # 3x3 real, (x,y,z) x (x,y,z)
    dt: float

    def __post_init__(self):
        jm = np.array(self.j, dtype=float)
        if jm.shape[-2:] != (3, 3):
            raise ValueError("j must be a 3x3 real matrix")
        if not np.all(np.isfinite(jm)):
            raise ValueError("all J_lm must be finite")
        object.__setattr__(self, "j", jm)
        if not ((self.dt > 0) & np.isfinite(self.dt)).all():
            raise ValueError("dt must be positive and finite")
        self.j.setflags(write=False)


def diagonal_coupling(j_x: float, j_y: float, dt: float) -> CouplingSpec:
    """J_x sigma_x sigma_x + J_y sigma_y sigma_y family (arrays give a stack)."""
    j = np.zeros(np.broadcast_shapes(np.shape(j_x), np.shape(j_y)) + (3, 3))
    j[..., 0, 0], j[..., 1, 1] = j_x, j_y
    return CouplingSpec(j, dt)


def ssc_coupling(j_x: float, j_y: float, j_zy: float, dt: float) -> CouplingSpec:
    """Coherence-generating family: diagonal XX+YY plus a sigma_z sigma_y term."""
    j = np.zeros(np.broadcast_shapes(np.shape(j_x), np.shape(j_y), np.shape(j_zy)) + (3, 3))
    j[..., 0, 0], j[..., 1, 1], j[..., 2, 1] = j_x, j_y, j_zy
    return CouplingSpec(j, dt)


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


def ssc_to_coupling(angles: SscAngles, dt: float) -> CouplingSpec:
    """CouplingSpec with exactly the three SSC entries set."""
    return ssc_coupling(*angles.j_values(), dt)


def gibbs_state(h: QubitHamiltonian, beta: float) -> np.ndarray:
    """Bloch vector (0, 0, -tanh(beta omega/2)) of the thermal state exp(-beta H)/Z.

    Arrays of beta and omega give a stack of states. beta = +inf gives the
    ground state (-inf the top one); at omega = 0 an infinite beta is an
    error, because the limit depends on the approach path.
    """
    beta = np.asarray(beta, dtype=float)
    if (np.isinf(beta) & (h.omega == 0)).any():
        raise ValueError("ill-defined zero-temperature limit: extremal eigenspace degenerate")
    x = beta * h.omega / 2
    r = np.zeros(x.shape + (3,))
    r[..., 2] = -np.tanh(x)
    return r


def coupling_operator(j: np.ndarray) -> np.ndarray:
    """V = sum_lm J_lm sigma_l (x) sigma_m, 4x4 (a stack for stacked J).

    Hermitian exactly: entry (j, i) sums the conjugates of the terms of (i, j).
    """
    return np.einsum("...lm,lmij->...ij", j, PAULI_PAIRS)


def build_interaction(spec: CouplingSpec) -> np.ndarray:
    """The interaction Hamiltonian H_SA = V / sqrt(dt) (a stack for stacked J or dt).

    An entry beyond the float range is inf; collision_unitary rejects it.
    """
    # Python's pow per value, as for a scalar dt: numpy's can round the last bit differently
    scale = np.asarray(np.asarray(spec.dt, dtype=object) ** -0.5, dtype=float)
    with np.errstate(over="ignore"):
        return coupling_operator(spec.j) * scale[..., None, None]


def free_hamiltonians(hs: QubitHamiltonian, ha: QubitHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """H_0 = H_S (x) I + I (x) H_A and I (x) H_A, whose changes in one
    collision are the switching work and the heat (U conserves H_0 + H_SA)."""
    h_a = np.asarray(ha.omega)[..., None, None] / 2 * SZ_A
    return np.asarray(hs.omega)[..., None, None] / 2 * SZ_S + h_a, h_a


def collision_unitary(hs: QubitHamiltonian, ha: QubitHamiltonian,
                      hsa: np.ndarray, dt: float) -> np.ndarray:
    """Joint propagator exp(-i dt (H_S + H_A + H_SA)) of one collision (or a stack)."""
    if hsa.shape[-2:] != (4, 4):
        raise ValueError("interaction must act on the 4-dimensional joint space")
    h = free_hamiltonians(hs, ha)[0] + hsa
    if not np.isfinite(h).all():
        raise np.linalg.LinAlgError("collision Hamiltonian is not finite (coupling overflow)")
    return exp_minus_i(h, dt)


def bloch_state(x: float, y: float, z: float) -> np.ndarray:
    """The Bloch vector (x, y, z) of rho = (I + x sx + y sy + z sz)/2; its norm must be <= 1."""
    n = math.sqrt(x * x + y * y + z * z)
    if n > 1 + 1e-12:
        raise ValueError(f"Bloch vector norm {n} exceeds 1")
    return np.array([x, y, z], dtype=float)


def pure_state(theta: float, phi: float = 0.0) -> np.ndarray:
    """Bloch vector of |psi> = cos(theta)|e> + e^{i phi} sin(theta)|g>, or a stack of
    them, each by math's sin and cos as alone: numpy's can round the last bit differently."""
    sin, cos = np.frompyfunc(math.sin, 1, 1), np.frompyfunc(math.cos, 1, 1)
    s = sin(2 * theta)
    r = np.broadcast_arrays(s * cos(phi), s * sin(phi), cos(2 * theta))
    return np.stack(r, axis=-1).astype(float)


def density_matrix(r: np.ndarray) -> np.ndarray:
    """rho = (I + r . sigma)/2 of a Bloch vector (or of each of a stack)."""
    return (I2 + np.einsum("...l,lij->...ij", r, PAULIS)) / 2


# Initial state of the transient figure panels: cos(15pi/16)|1> + sin(15pi/16)|0>.
FIG3_THETA = 15 * np.pi / 16

NAMED_STATES = {
    "ground": (0.0, 0.0, -1.0),
    "excited": (0.0, 0.0, 1.0),
    "plus": (1.0, 0.0, 0.0),
    "maximally_mixed": (0.0, 0.0, 0.0),
    "fig3": tuple(pure_state(FIG3_THETA)),
}
