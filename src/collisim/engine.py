"""Repeated-interaction dynamics: fresh thermal ancilla, joint unitary, trace.

Every collision applies the same linear map Phi to the qubit state; a
trajectory is the stack of its iterates, and the ledger is evaluated on that
stack. Distinct configurations are independent and safe to run concurrently
(all inputs are immutable and the engine keeps no global state).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import observables
from .linalg import (clamp_to_density, check_density, dagger, kron,
                     matrices_close, partial_trace, trace_distance, vec, unvec)
from .model import (AncillaPrep, CouplingSpec, QubitHamiltonian,
                    build_interaction, collision_unitary)
from .thermo import (ThermoLedger, expectation, heat_operator, spectral_entropy,
                     work_operator)


class NoSteadyStateError(RuntimeError):
    """Iteration hit the collision budget before meeting the tolerance."""

    def __init__(self, msg: str, residual: float):
        super().__init__(msg)
        self.residual = residual


MAX_COLLISIONS = 10 ** 6


@dataclass(frozen=True, eq=False)
class CollisionConfig:
    """Everything one repeated-interaction run needs."""

    hs: QubitHamiltonian
    ancilla: AncillaPrep
    coupling: CouplingSpec
    n_collisions: int
    rho0: np.ndarray
    convergence_tol: float = 1e-10

    def __post_init__(self):
        if self.n_collisions < 1:
            raise ValueError("n_collisions must be >= 1")
        if self.rho0.shape != (2, 2):
            raise ValueError("rho0 must be a 2x2 density matrix")
        check_density(self.rho0, "rho0")

    def unitary(self) -> np.ndarray:
        hsa = build_interaction(self.coupling)
        return collision_unitary(self.hs, self.ancilla.hamiltonian(), hsa,
                                 self.coupling.dt)


@dataclass
class Trajectory:
    """Recorded states rho_S(0), rho_S(dt), ... plus the thermodynamic ledger.

    states is an (n + 1, 2, 2) stack.
    """

    dt: float
    states: np.ndarray
    ledger: ThermoLedger
    converged_at: Optional[int] = None

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(len(self.states))

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def collide_once(rho_s: np.ndarray, rho_a: np.ndarray,
                 u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One collision: joint unitary on rho_s (x) rho_a, then trace out the ancilla.

    The single-collision reference that the map Phi reproduces.
    """
    if not matrices_close(dagger(u) @ u, np.eye(u.shape[0]), 1e-10):
        raise ValueError("invalid propagator: u is not unitary within 1e-10")
    joint_after = u @ kron(rho_s, rho_a) @ dagger(u)
    rho_next = clamp_to_density(partial_trace(joint_after, (2, 2), "S"))
    return rho_next, joint_after


def run(config: CollisionConfig, early_stop: bool = False) -> Trajectory:
    """Propagate rho0 through n_collisions applications of Phi, with the ledger.

    The states are checked once, as a stack, and never repaired: any
    eigenvalue below -PSD_TOL, trace error or Hermiticity error raises
    NotAStateError. Deterministic: identical configs give identical output.
    converged_at is the first collision whose per-unit-time update falls
    below convergence_tol; with early_stop the trajectory ends there.
    """
    dt = config.coupling.dt
    phi = collision_map_superoperator(config)
    vecs = np.empty((config.n_collisions + 1, 4), dtype=complex)
    vecs[0] = vec(config.rho0.astype(complex))
    for n in range(config.n_collisions):
        vecs[n + 1] = phi @ vecs[n]
    states = unvec(vecs)

    below = np.flatnonzero(trace_distance(states[1:], states[:-1])
                           < config.convergence_tol * dt)
    converged_at = int(below[0]) + 1 if below.size else None
    if early_stop and converged_at is not None:
        states = states[:converged_at + 1]

    entropies = spectral_entropy(check_density(states, "trajectory state"))
    energies = expectation(config.hs.matrix(), states)
    u = config.unitary()
    rho_a = config.ancilla.state()
    before = states[:-1]
    ledger = ThermoLedger(dt=dt, beta=config.ancilla.beta)
    ledger.record(
        w=expectation(work_operator(u, build_interaction(config.coupling), rho_a), before),
        q=expectation(heat_operator(u, config.ancilla.hamiltonian().matrix(), rho_a), before),
        de_s=np.diff(energies), ds=np.diff(entropies))
    return Trajectory(dt=dt, states=states, ledger=ledger, converged_at=converged_at)


def collision_map_superoperator(config: CollisionConfig) -> np.ndarray:
    """4x4 matrix of one collision acting on the column-stacked system state.

    The collision map is linear and identical at every step, so n collisions
    are the n-th matrix power. It is the map that `run` applies.
    """
    u = config.unitary().reshape(2, 2, 2, 2)
    rho_a = config.ancilla.state()
    # out[i, j] = sum U[i,a,k,b] rho[k,l] rho_a[b,c] conj(U[j,a,l,c])
    phi = np.einsum("iakb,bc,jalc->jilk", u, rho_a, u.conj())
    return phi.reshape(4, 4)


def propagate_collisions(config: CollisionConfig, n: int) -> np.ndarray:
    """State after n collisions via the matrix power of the collision map.

    Identical (to round-off) to running the loop, without the per-step
    ledger; used by sweeps and figure grids where only the final state
    matters.
    """
    phi = collision_map_superoperator(config)
    out = unvec(np.linalg.matrix_power(phi, n) @ vec(config.rho0.astype(complex)))
    return clamp_to_density(out)


def steady_state_by_iteration(config: CollisionConfig,
                              tol: Optional[float] = None) -> "observables.SteadyStateReport":
    """Iterate collisions until the per-unit-time update drops below tol.

    Convergence criterion: trace_distance(rho_{n+1}, rho_n) < tol * dt, so
    the detected state does not depend on the dt resolution. Collisions are
    applied in blocks through powers of the (exact) one-collision map; the
    criterion is evaluated on consecutive states. A budget of 10^6
    collisions is never exceeded.
    """
    if tol is None:
        tol = config.convergence_tol
    if tol <= 0:
        raise ValueError("tol must be positive")
    dt = config.coupling.dt
    phi = collision_map_superoperator(config)
    rho = config.rho0.astype(complex)
    n_done = 0
    block = 1
    residual = math.inf
    while n_done < MAX_COLLISIONS:
        block = min(block, MAX_COLLISIONS - n_done)
        phi_block = np.linalg.matrix_power(phi, block)
        rho_prev_vec = vec(rho)
        rho_block = unvec(phi_block @ rho_prev_vec)
        # one extra collision on top of the block gives the consecutive pair
        rho_next = unvec(phi @ vec(rho_block))
        n_done += block + 1
        step = trace_distance(clamp_to_density(rho_next), clamp_to_density(rho_block))
        residual = step / dt
        rho = clamp_to_density(rho_next)
        if step < tol * dt:
            return observables.make_report(rho, config.hs, method="iteration",
                                           residual=residual, degenerate=False)
        if block < 2 ** 16:
            block *= 2
    raise NoSteadyStateError(
        f"no steady state within budget: residual {residual:.3e} after {n_done} collisions",
        residual,
    )
