"""Repeated-interaction dynamics: fresh thermal ancilla, joint unitary, trace.

The joint unitary and the ancilla state fix one collision map, the same at
every collision: on Bloch vectors it is the real affine map r -> M r + c.
A trajectory is the stack of its iterates, and the ledger is evaluated on
that stack. A stack of configurations runs as one stack of trajectories,
and a single configuration is a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import observables
from .lindblad import kernel_state
from .linalg import check_density, clamp_to_density, dagger, trace_distance
from .model import (SIGMA_S, AncillaPrep, CouplingSpec, QubitHamiltonian,
                    build_interaction, collision_unitary, free_hamiltonians)
from .thermo import (ThermoLedger, affine_functional, bloch_entropy, change_functional,
                     expectation)


# T has entries of order 1: below this, s(T - I) and 1 - |lambda| are round-off.
FIXED_POINT_FLOOR = 16 * np.finfo(float).eps

I4 = np.eye(4)


class NoSteadyStateError(RuntimeError):
    """The iterated state has no limit, or its fixed point misses the tolerance."""

    def __init__(self, msg: str, residual: float):
        super().__init__(msg)
        self.residual = residual


@dataclass(frozen=True, eq=False)
class CollisionConfig:
    """Everything one repeated-interaction run needs.

    Every model scalar (hs.omega, ancilla.beta and omega_a, coupling.dt),
    coupling.j and the Bloch vector rho0 may carry stack axes that broadcast
    together: a grid of runs for `run` and `propagate_collisions`.
    """

    hs: QubitHamiltonian
    ancilla: AncillaPrep
    coupling: CouplingSpec
    n_collisions: int
    rho0: np.ndarray
    convergence_tol: float = 1e-10

    def __post_init__(self):
        if self.n_collisions < 1:
            raise ValueError("n_collisions must be >= 1")
        if not self.convergence_tol > 0:
            raise ValueError("convergence_tol must be positive")
        if self.rho0.shape[-1:] != (3,):
            raise ValueError("rho0 must be a Bloch vector")
        check_density(self.rho0, "rho0")

    def unitary(self) -> np.ndarray:
        return collision_unitary(self.hs, self.ancilla.hamiltonian(),
                                 build_interaction(self.coupling), self.coupling.dt)


@dataclass
class Trajectory:
    """Recorded states r(0), r(dt), ... plus the thermodynamic ledger.

    states is an (..., n + 1, 3) stack of Bloch vectors, with the stack axes
    of the config leading.
    """

    dt: float
    states: np.ndarray
    ledger: ThermoLedger

    @property
    def final(self) -> np.ndarray:
        return self.states[..., -1, :]


def _lift(r: np.ndarray) -> np.ndarray:
    """(1, r): a Bloch vector in the coordinates that the map T acts on."""
    return np.concatenate([np.ones(r.shape[:-1] + (1,)), r], axis=-1)


def run(config: CollisionConfig) -> Trajectory:
    """Propagate rho0 through n_collisions applications of the map, with the ledger.

    A stacked config (any of its model scalars, J or rho0 with stack axes)
    runs as one stack of trajectories: states (..., n + 1, 3) and ledger arrays
    (..., n). The states are checked once, as a stack, and never repaired:
    a Bloch vector longer than 1 + 2 PSD_TOL raises NotAStateError.
    Deterministic: identical configs give identical output.
    """
    u = config.unitary()
    r_a = config.ancilla.state
    t = collision_map_superoperator(u, r_a)
    batch = np.broadcast_shapes(t.shape[:-2], config.rho0.shape[:-1])
    lifted = np.empty(batch + (config.n_collisions + 1, 4))
    lifted[..., 0, :] = _lift(config.rho0)
    for n in range(config.n_collisions):
        np.matmul(t, lifted[..., n, :, None], out=lifted[..., n + 1, :, None])
    states = lifted[..., 1:]

    entropies = bloch_entropy(check_density(states, "trajectory state"))
    # E_S = Tr[H_S rho] = (omega/2) z, with omega against the time axis; + 0.0 makes no -0.0
    energies = np.asarray(config.hs.omega)[..., None] / 2 * states[..., 2] + 0.0
    before = states[..., :-1, :]
    # W and Q are the changes of the free Hamiltonians H_0 and I (x) H_A
    k_w, k_q = (change_functional(u, x, r_a)
                for x in free_hamiltonians(config.hs, config.ancilla.hamiltonian()))
    ledger = ThermoLedger(beta=config.ancilla.beta)
    # the functionals carry the config's stack axes, not the time axis
    ledger.record(w=expectation(k_w[..., None, :], before),
                  q=expectation(k_q[..., None, :], before),
                  de_s=np.diff(energies), ds=np.diff(entropies))
    return Trajectory(dt=config.coupling.dt, states=states, ledger=ledger)


def collision_map_superoperator(u: np.ndarray, r_a: np.ndarray) -> np.ndarray:
    """One collision as the affine map r -> M r + c on Bloch vectors.

    Returned as the real 4x4 T = [[1, 0], [c, M]] acting on (1, r). Row l
    of (c, M) is the affine functional of the Heisenberg-evolved system
    Pauli, r'_l = Tr[U^dag (sigma_l (x) I) U (rho (x) rho_a)], the contraction
    that also gives the ledger and the currents; the first row (trace
    preservation) is set exactly. Built from the joint unitary u and the
    ancilla Bloch vector r_a, or stacks of them; n collisions are the n-th
    matrix power. It is the map that `run` applies.
    """
    u = u[..., None, :, :]     # against the stack axis of the three Paulis
    rows = affine_functional(dagger(u) @ SIGMA_S @ u, r_a[..., None, :])
    t = np.empty(rows.shape[:-2] + (4, 4))
    t[..., 0, :] = (1.0, 0.0, 0.0, 0.0)
    t[..., 1:, :] = rows
    return t


def propagate_collisions(config: CollisionConfig, n: int) -> np.ndarray:
    """State after n collisions via the matrix power of the collision map.

    Identical (to round-off) to running the loop, without the per-step
    ledger; used by figure grids, where only the final states matter: a
    stacked config gives the stack of final states in one matrix power.
    """
    t = collision_map_superoperator(config.unitary(), config.ancilla.state)
    out = np.linalg.matrix_power(t, n) @ _lift(config.rho0)[..., None]
    return clamp_to_density(out[..., 1:, 0])


def steady_state_by_iteration(config: CollisionConfig) -> "observables.SteadyStateReport":
    """The limit of iterating the map from rho0, solved directly: r* = (I - M)^-1 c.

    A degenerate eigenvalue-1 space gives the spectral projection of rho0
    onto it. Weight of rho0 on another eigenvalue of modulus 1 never
    decays: there is no limit (NoSteadyStateError). residual bounds the
    distance to the fixed point by trace_distance(M r* + c, r*) / (1 - |l2|),
    l2 the largest decaying eigenvalue of M outside that space. As for a
    converged iteration, one collision must move the state by less than
    config.convergence_tol * dt, or NoSteadyStateError is raised.
    """
    tol = config.convergence_tol
    dt = config.coupling.dt
    t = collision_map_superoperator(config.unitary(), config.ancilla.state)
    m, c = t[1:, 1:], t[1:, 0]
    r, dim = kernel_state(t - I4, config.rho0, FIXED_POINT_FLOOR)
    # the eigenvalues of M outside the eigenvalue-1 space of T (whose first
    # dimension is the trace), and those of them that never decay
    lam, vecs = np.linalg.eig(m)
    rest = np.argsort(abs(lam - 1))[dim - 1:]
    moduli = abs(lam[rest])
    rotating = 1 - moduli <= FIXED_POINT_FLOOR
    for mu in lam[rest[rotating]]:
        # M is a contraction, so the eigenvectors of an eigenvalue of modulus 1
        # are orthogonal to all others and its spectral projection is orthogonal;
        # the motion is the Hilbert-Schmidt distance ||d rho||_2 = |d r|/sqrt(2)
        q, _ = np.linalg.qr(vecs[:, abs(lam - mu) <= FIXED_POINT_FLOOR])
        motion = abs(mu - 1) * np.linalg.norm(q.conj().T @ (config.rho0 - r)) / math.sqrt(2)
        if motion >= tol * dt:
            raise NoSteadyStateError(f"no steady state: rho0 rotates by {motion:.3e} per collision"
                                     f" at the eigenvalue {mu:.6g} of modulus 1", motion / dt)
    step = trace_distance(m @ r + c, r)
    residual = step / (1 - moduli[~rotating].max(initial=0.0))
    if step >= tol * dt:
        raise NoSteadyStateError(
            f"fixed point moves {step:.3e} under one collision, not below tol * dt", residual)
    return observables.make_report(r, config.hs, method="iteration",
                                   residual=residual, degenerate=dim > 1)
