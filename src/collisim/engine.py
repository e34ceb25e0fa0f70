"""Repeated-interaction dynamics: fresh thermal ancilla, joint unitary, trace.

The joint unitary and the ancilla state fix one collision map, the same at
every collision: on Bloch vectors it is the real affine map r -> M r + c.
A trajectory is the stack of its iterates, built by doubling: the states
2^k .. 2^(k+1) - 1 are T^(2^k) applied to the states 0 .. 2^k - 1, so n
collisions take ceil(log2(n + 1)) stacked matmuls and no loop over
collisions. The ledger is evaluated on that stack. A stack of
configurations runs as one stack of trajectories, and a single
configuration is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import observables
from .lindblad import kernel_state
from .linalg import check_density, clamp_to_density, dagger, gram_projection, lift, trace_distance
from .model import (SIGMA_S, SZ_A, AncillaPrep, CouplingSpec, QubitHamiltonian,
                    build_interaction, collision_unitary)
from .thermo import (ThermoLedger, affine_functional, bloch_entropy, energy_functionals,
                     expectation)


# T has entries of order 1: below this, s(T - I) and 1 - |lambda| are round-off.
FIXED_POINT_FLOOR = 16 * np.finfo(float).eps

I4 = np.eye(4)


class NoSteadyStateError(RuntimeError):
    """The iterated state has no limit, or its fixed point misses the tolerance, at the
    points of the stack that the boolean array failed marks; residual is over the stack."""

    def __init__(self, msg: str, residual: np.ndarray, failed: np.ndarray):
        super().__init__(msg)
        self.residual, self.failed = residual, failed


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
        if not np.asarray(self.convergence_tol > 0).all():
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


def run(config: CollisionConfig) -> Trajectory:
    """Propagate rho0 through n_collisions applications of the map, with the ledger.

    The iterates are built by doubling: with p = T^m, one stacked matmul fills
    the states m .. 2m - 1 from the states 0 .. m - 1, then p becomes T^(2m).
    A stacked config (any of its model scalars, J or rho0 with stack axes)
    runs as one stack of trajectories: states (..., n + 1, 3) and ledger arrays
    (..., n). The states are checked once, as a stack, and never repaired:
    a Bloch vector longer than 1 + 2 PSD_TOL raises NotAStateError.
    Deterministic: identical configs give identical output.
    """
    u = config.unitary()
    r_a = config.ancilla.state
    t = collision_map_superoperator(u, r_a)
    n, batch = config.n_collisions, np.broadcast_shapes(t.shape[:-2], config.rho0.shape[:-1])
    lifted = np.empty(batch + (n + 1, 4))
    lifted[..., 0, :] = lift(config.rho0)
    p, m = t, 1
    while m <= n:
        k = min(m, n + 1 - m)
        np.matmul(lifted[..., :k, :], p.swapaxes(-1, -2), out=lifted[..., m:m + k, :])
        m *= 2
        if m <= n:      # the last power is never used
            p = p @ p
    states = lifted[..., 1:]

    entropies = bloch_entropy(check_density(states, "trajectory state"))
    # E_S = Tr[H_S rho] = (omega/2) z, with omega against the time axis; + 0.0 makes no -0.0
    energies = np.asarray(config.hs.omega)[..., None] / 2 * states[..., 2] + 0.0
    before = states[..., :-1, :]
    # W and Q from the changes of sigma_z (x) I, row 3 of T, and of I (x) sigma_z
    k_w, k_q = energy_functionals(t[..., 3, :] - (0, 0, 0, 1),
                                  affine_functional(dagger(u) @ SZ_A @ u - SZ_A, r_a),
                                  config.hs.omega, config.ancilla.omega_a)
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
    Pauli, r'_l = Tr[U^dag (sigma_l (x) I) U (rho (x) rho_a)]; row 3, less
    (0, 0, 0, 1), is the change of sigma_z (x) I that `run`'s work takes. The first
    row (trace preservation) is set exactly. Built from the joint unitary u and
    the ancilla Bloch vector r_a, or stacks of them; n collisions are the n-th
    matrix power. It is the map that `run` applies.
    """
    u = u[..., None, :, :]     # against the stack axis of the three Paulis
    rows = affine_functional(dagger(u) @ SIGMA_S @ u, r_a[..., None, :])
    t = np.empty(rows.shape[:-2] + (4, 4))
    t[..., 0, :] = (1.0, 0.0, 0.0, 0.0)
    t[..., 1:, :] = rows
    return t


def propagate_collisions(config: CollisionConfig) -> np.ndarray:
    """State after config.n_collisions collisions via the matrix power of the collision map.

    Identical (to round-off) to the last state of `run`, without the other
    states or the ledger; used by figure grids, where only the final states
    matter: a stacked config gives the stack of final states in one matrix
    power.
    """
    t = collision_map_superoperator(config.unitary(), config.ancilla.state)
    out = np.linalg.matrix_power(t, config.n_collisions) @ lift(config.rho0)[..., None]
    return clamp_to_density(out[..., 1:, 0])


def steady_state_by_iteration(config: CollisionConfig) -> "observables.SteadyStateReport":
    """The limit of iterating the map from rho0, solved directly: r* = (I - M)^-1 c.

    A degenerate eigenvalue-1 space gives the spectral projection of rho0
    onto it. Weight of rho0 on another eigenvalue of modulus 1 never decays:
    there is no limit. residual bounds the distance to the fixed point by
    trace_distance(M r* + c, r*) / (1 - |l2|), l2 the largest decaying
    eigenvalue of M outside that space. As for a converged iteration, one
    collision must move the state by less than config.convergence_tol * dt,
    or NoSteadyStateError is raised: for a stack (of T, rho0 or tol), if any point fails.
    """
    tol_dt = config.convergence_tol * config.coupling.dt
    t = collision_map_superoperator(config.unitary(), config.ancilla.state)
    stack = np.broadcast_shapes(t.shape[:-2], config.rho0.shape[:-1], np.shape(tol_dt))
    t = np.broadcast_to(t, stack + (4, 4))
    m, c = t[..., 1:, 1:], t[..., 1:, 0]
    r, dim = kernel_state(t - I4, config.rho0, FIXED_POINT_FLOOR)
    # the moduli of the eigenvalues of M outside the eigenvalue-1 space of T
    # (whose first dimension is the trace; 0 inside it), and those that never decay
    lam, vecs = np.linalg.eig(m)
    moduli = np.where(abs(lam - 1).argsort().argsort() >= (dim - 1)[..., None], abs(lam), 0.0)
    rotating = 1 - moduli <= FIXED_POINT_FLOOR
    step = trace_distance((m @ r[..., None])[..., 0] + c, r)
    residual = step / (1 - np.where(rotating, 0.0, moduli).max(axis=-1))
    motion = np.zeros(step.shape)
    if rotating.any():
        # M is a contraction: eigenvectors of modulus 1 are orthogonal to all others, so
        # P is orthogonal; the motion is the trace distance |(M - I) P (rho0 - r*)|/2
        p = gram_projection(vecs, dagger(vecs), rotating, config.rho0 - r)
        motion = np.linalg.norm((m - I4[1:, 1:]) @ p[..., None], axis=(-2, -1)) / 2
    excess = np.maximum(motion, step) / tol_dt
    if (excess >= 1).any():
        k = tuple(map(int, np.unravel_index(excess.argmax(), excess.shape)))    # the worst point
        rotates = motion >= tol_dt
        mu = lam[k][np.argmax(np.where(rotating[k], abs(lam[k] - 1), -1))]
        msg = (f"no steady state: rho0 rotates by {motion[k]:.3e} per collision at the eigenvalue"
               f" {mu:.6g} of modulus 1" if rotates[k] else
               f"fixed point moves {step[k]:.3e} under one collision, not below tol * dt")
        raise NoSteadyStateError(msg + (f" at stack index {k}" if k else ""), np.where(
            rotates, motion / config.coupling.dt, residual), excess >= 1)
    return observables.make_report(r, config.hs, method="iteration",
                                   residual=residual, degenerate=dim > 1)
