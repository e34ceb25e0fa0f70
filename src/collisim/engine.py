"""Repeated-interaction dynamics: fresh thermal ancilla, joint unitary, trace.

The joint unitary and the ancilla state fix one linear map Phi on the qubit
state, the same at every collision; a trajectory is the stack of its
iterates, and the ledger is evaluated on that stack. A stack of
configurations runs as one stack of trajectories, and a single
configuration is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import observables
from .lindblad import kernel_part, kernel_state
from .linalg import clamp_to_density, check_density, trace_distance, vec, unvec
from .model import (AncillaPrep, CouplingSpec, QubitHamiltonian,
                    build_interaction, collision_unitary)
from .thermo import (ThermoLedger, expectation, heat_operator, spectral_entropy,
                     work_operator)


# Phi has entries of order 1: below this, s(Phi - I) and 1 - |lambda| are round-off.
FIXED_POINT_FLOOR = 16 * np.finfo(float).eps


class NoSteadyStateError(RuntimeError):
    """The iterated state has no limit, or its fixed point misses the tolerance."""

    def __init__(self, msg: str, residual: float):
        super().__init__(msg)
        self.residual = residual


@dataclass(frozen=True, eq=False)
class CollisionConfig:
    """Everything one repeated-interaction run needs.

    coupling.j, ancilla.beta and rho0 may carry stack axes that broadcast
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
        if self.rho0.shape[-2:] != (2, 2):
            raise ValueError("rho0 must be a 2x2 density matrix")
        check_density(self.rho0, "rho0")

    def unitary(self) -> np.ndarray:
        hsa = build_interaction(self.coupling)
        return collision_unitary(self.hs, self.ancilla.hamiltonian(), hsa,
                                 self.coupling.dt)


@dataclass
class Trajectory:
    """Recorded states rho_S(0), rho_S(dt), ... plus the thermodynamic ledger.

    states is an (..., n + 1, 2, 2) stack, with the stack axes of the config
    leading.
    """

    dt: float
    states: np.ndarray
    ledger: ThermoLedger

    @property
    def final(self) -> np.ndarray:
        return self.states[..., -1, :, :]


def run(config: CollisionConfig) -> Trajectory:
    """Propagate rho0 through n_collisions applications of Phi, with the ledger.

    A stacked config (coupling.j, ancilla.beta or rho0 with stack axes) runs
    as one stack of trajectories: states (..., n + 1, 2, 2) and ledger
    arrays (..., n). The states are checked once, as a stack, and never
    repaired: any eigenvalue below -PSD_TOL, trace error or Hermiticity
    error raises NotAStateError. Deterministic: identical configs give
    identical output.
    """
    u = config.unitary()
    rho_a = config.ancilla.state()
    phi = collision_map_superoperator(u, rho_a)
    v0 = vec(config.rho0.astype(complex))
    batch = np.broadcast_shapes(phi.shape[:-2], v0.shape[:-1])
    vecs = np.empty(batch + (config.n_collisions + 1, 4), dtype=complex)
    vecs[..., 0, :] = v0
    for n in range(config.n_collisions):
        np.matmul(phi, vecs[..., n, :, None], out=vecs[..., n + 1, :, None])
    states = unvec(vecs)

    entropies = spectral_entropy(check_density(states, "trajectory state"))
    energies = expectation(config.hs.matrix(), states)
    before = states[..., :-1, :, :]
    k_w = work_operator(u, build_interaction(config.coupling), rho_a)
    k_q = heat_operator(u, config.ancilla.hamiltonian().matrix(), rho_a)
    ledger = ThermoLedger(dt=config.coupling.dt, beta=config.ancilla.beta)
    # the one-body operators carry the config's stack axes, not the time axis
    ledger.record(w=expectation(k_w[..., None, :, :], before),
                  q=expectation(k_q[..., None, :, :], before),
                  de_s=np.diff(energies), ds=np.diff(entropies))
    return Trajectory(dt=config.coupling.dt, states=states, ledger=ledger)


def collision_map_superoperator(u: np.ndarray, rho_a: np.ndarray) -> np.ndarray:
    """4x4 matrix of one collision acting on the column-stacked system state.

    Built from the joint unitary u and the ancilla state rho_a, or stacks of
    them. The map is linear and identical at every step, so n collisions are
    the n-th matrix power. It is the map that `run` applies.
    """
    u = u.reshape(u.shape[:-2] + (2, 2, 2, 2))
    # out[i, j] = sum U[i,a,k,b] rho[k,l] rho_a[b,c] conj(U[j,a,l,c])
    phi = np.einsum("...iakb,...bc,...jalc->...jilk", u, rho_a, u.conj())
    return phi.reshape(phi.shape[:-4] + (4, 4))


def propagate_collisions(config: CollisionConfig, n: int) -> np.ndarray:
    """State after n collisions via the matrix power of the collision map.

    Identical (to round-off) to running the loop, without the per-step
    ledger; used by figure grids, where only the final states matter: a
    stacked config gives the stack of final states in one matrix power.
    """
    phi = collision_map_superoperator(config.unitary(), config.ancilla.state())
    out = np.linalg.matrix_power(phi, n) @ vec(config.rho0.astype(complex))[..., None]
    return clamp_to_density(unvec(out[..., 0]))


def steady_state_by_iteration(config: CollisionConfig,
                              tol: float | None = None) -> "observables.SteadyStateReport":
    """The limit of Phi^n rho0, solved directly as the kernel of Phi - I.

    A degenerate eigenvalue-1 space of Phi gives the spectral projection of
    rho0 onto it. Weight of rho0 on another eigenvalue of modulus 1 never
    decays: there is no limit (NoSteadyStateError). residual bounds the
    distance to the fixed point by trace_distance(Phi rho, rho) / (1 - |l2|),
    l2 the largest decaying eigenvalue of Phi outside that space. As for a
    converged iteration, one collision must move the state by less than
    tol * dt, or NoSteadyStateError is raised.
    """
    tol = config.convergence_tol if tol is None else tol
    if tol <= 0:
        raise ValueError("tol must be positive")
    dt = config.coupling.dt
    phi = collision_map_superoperator(config.unitary(), config.ancilla.state())
    rho, dim = kernel_state(phi - np.eye(4), config.rho0, FIXED_POINT_FLOOR)
    # the eigenvalues of Phi outside its eigenvalue-1 space, and those that never decay
    w = np.linalg.eigvals(phi)
    w = w[np.argsort(np.abs(w - 1))[max(dim, 1):]]
    rotating = 1 - np.abs(w) <= FIXED_POINT_FLOOR
    for lam in w[rotating]:
        part = kernel_part(phi - lam * np.eye(4), vec(config.rho0), FIXED_POINT_FLOOR)
        motion = abs(lam - 1) * np.linalg.norm(part)
        if motion >= tol * dt:
            raise NoSteadyStateError(f"no steady state: rho0 rotates by {motion:.3e} per collision"
                                     f" at the eigenvalue {lam:.6g} of modulus 1", motion / dt)
    step = trace_distance(unvec(phi @ vec(rho)), rho)
    residual = float(step / (1 - np.max(np.abs(w[~rotating]), initial=0.0)))
    if step >= tol * dt:
        raise NoSteadyStateError(
            f"fixed point moves {step:.3e} under one collision, not below tol * dt", residual)
    return observables.make_report(rho, config.hs, method="iteration",
                                   residual=residual, degenerate=dim > 1)
