"""Thermodynamic ledger of the collision dynamics.

Sign conventions (fixed once, used everywhere):
  * W(dt) = Tr[(U^dag H_0 U - H_0) rho_S (x) rho_A], H_0 = H_S + H_A, is the
    energy injected by the agent that switches the interaction on and off;
    positive when the switching costs work. U conserves H_0 + H_SA, so it
    is also the decrease of the interaction energy, H_SA - U^dag H_SA U.
  * Q(dt) = Tr[(U^dag H_A U - H_A) rho_S (x) rho_A] is the energy gained by
    the ancilla; positive when heat is dumped into the environment.
  * First law: dE_S = W - Q, exact for every unitary collision.
  * dS = S(after) - S(before); entropy production Sigma = dS + beta * Q. It
    equals D(rho_SA' || rho_S' (x) rho_A^th) and I(S:A)' + D(rho_A' || rho_A^th)
    (Esposito et al., NJP 12, 013013 (2010)), the forms the tests check.
  * Every collision quantity is Tr[M (rho_S (x) rho_A)] for a fixed joint
    operator M, so it is an affine functional k0 + k . r of the system's
    Bloch vector r, with k_mu = Tr[M (sigma_mu (x) rho_A)]/2 (sigma_0 = I),
    and evaluates over a whole stack of states at once.

All entropies are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import dagger, kron
from .model import (PAULI4, AncillaPrep, CouplingSpec, QubitHamiltonian,
                    coupling_operator, density_matrix, free_hamiltonians)

# At beta = +-inf a heat below this is round-off and counts as zero.
INF_BETA_HEAT_TOL = 1e-14


def bloch_entropy(length: np.ndarray) -> np.ndarray:
    """Von Neumann entropy h((1 + |r|)/2) of states of Bloch length |r|; 0 ln 0 = 0.

    A length just above 1 (round-off) has a negative eigenvalue, counted as 0.
    """
    w = np.stack([(1 + length) / 2, (1 - length) / 2], axis=-1)
    pos = w > 0
    return -np.sum(np.where(pos, w * np.log(np.where(pos, w, 1.0)), 0.0), axis=-1)


def entropy_production(ds, q, beta):
    """Sigma = dS + beta * Q, elementwise; beta broadcasts against ds and q.

    At beta = +-inf any real heat exchange makes beta * Q diverge: Sigma is
    dS where |Q| <= INF_BETA_HEAT_TOL (round-off) and +inf elsewhere.
    """
    finite = np.isfinite(beta)
    sigma = ds + np.where(finite, beta, 0.0) * q
    return np.where(finite, sigma, np.where(np.abs(q) <= INF_BETA_HEAT_TOL, ds, math.inf))


def affine_functional(m: np.ndarray, r_a: np.ndarray) -> np.ndarray:
    """(k0, kx, ky, kz) with Tr[M (rho (x) rho_a)] = k0 + k . r for every state r.

    k_mu = Tr[M (sigma_mu (x) rho_a)]/2 for a joint operator M and the
    ancilla Bloch vector r_a, or stacks of them.
    """
    pairs = kron(PAULI4, density_matrix(r_a)[..., None, :, :])
    return 0.5 * np.einsum("...ij,...mji->...m", m, pairs).real


def expectation(k: np.ndarray, r: np.ndarray) -> np.ndarray:
    """k0 + k . r for stacks of functionals and states that broadcast."""
    return k[..., 0] + np.einsum("...i,...i->...", k[..., 1:], r)


def change_functional(u: np.ndarray, x: np.ndarray, r_a: np.ndarray) -> np.ndarray:
    """Functional of the change of the joint observable x in one collision, U^dag X U - X.

    Of H_0 it is the switching work, of I (x) H_A the heat (free_hamiltonians).
    """
    return affine_functional(dagger(u) @ x @ u - x, r_a)


def generator_functional(v: np.ndarray, h0: np.ndarray, x: np.ndarray,
                         r_a: np.ndarray) -> np.ndarray:
    """Functional of L^dag(X) = i[H_0, X] + V X V - (1/2){V^2, X}, the continuum
    twin of change_functional, for the g0-level coupling operator V.

    Of the system Paulis it gives the generator's rows, of H_0 and I (x) H_A
    the work and heat currents (there i[H_0, X] vanishes exactly).
    """
    # The first-order term i[V, X]/sqrt(dt) of one collision is left out
    # (ROADMAP item 2). Over the ancilla it is the field sum_l (J r_A)_l sigma_l,
    # zero only when J has no sigma_z column or beta omega_a = 0.
    v2 = v @ v
    return affine_functional(1j * (h0 @ x - x @ h0) + v @ x @ v - 0.5 * (v2 @ x + x @ v2),
                             r_a)


def current_evaluators(coupling: CouplingSpec, hs: QubitHamiltonian,
                       ancilla: AncillaPrep):
    """Continuous-limit (work, heat) currents as a function of the system state.

    Returns f(r) -> (w_dot, q_dot) for one Bloch vector or a stack of them
    (g0-level J units): the functionals of L^dag(H_0) and L^dag(I (x) H_A)
    (generator_functional), built once with the stack axes of the config,
    against which r broadcasts. A coupling whose square overflows raises
    ValueError, as the rate matrix of the same coupling does.
    """
    h0, ha = free_hamiltonians(hs, ancilla.hamiltonian())
    with np.errstate(over="ignore", invalid="ignore"):
        v = coupling_operator(coupling.j)
        k_w, k_q = (generator_functional(v, h0, x, ancilla.state) for x in (h0, ha))
    if not (np.isfinite(k_w).all() and np.isfinite(k_q).all()):
        raise ValueError("current kernels are not finite (coupling overflow)")

    def currents(r: np.ndarray):
        return expectation(k_w, r), expectation(k_q, r)

    return currents


@dataclass
class ThermoLedger:
    """Per-collision thermodynamic records of a trajectory or a stack of them.

    Each record is an (..., n) array, one entry per collision, with the
    stack axes of the trajectories leading; beta broadcasts against them.
    Rates are records over dt, as the trajectory table writes them.
    """

    beta: float | np.ndarray
    w: np.ndarray = field(default_factory=lambda: np.empty(0))
    q: np.ndarray = field(default_factory=lambda: np.empty(0))
    de_s: np.ndarray = field(default_factory=lambda: np.empty(0))
    ds: np.ndarray = field(default_factory=lambda: np.empty(0))
    sigma: np.ndarray = field(default_factory=lambda: np.empty(0))

    def record(self, w, q, de_s, ds) -> None:
        """Set the entries of every collision, as (..., n) arrays."""
        self.w, self.q, self.de_s, self.ds = (np.asarray(x, dtype=float)
                                              for x in (w, q, de_s, ds))
        self.sigma = entropy_production(self.ds, self.q, np.asarray(self.beta)[..., None])

    def first_law_residuals(self) -> np.ndarray:
        """dE_S - W + Q per collision; zero up to round-off by unitarity."""
        return self.de_s - self.w + self.q
