"""Thermodynamic ledger of the collision dynamics.

Sign conventions (fixed once, used everywhere):
  * W(dt) = Tr[(H_SA - U^dag H_SA U) rho_S (x) rho_A] is the energy injected
    by the agent that switches the interaction on and off; positive when the
    switching costs work.
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

from .linalg import dagger, kron, per_state
from .model import (I2, PAULI4, AncillaPrep, CouplingSpec, QubitHamiltonian,
                    build_interaction, density_matrix)

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


def expectation(k: np.ndarray, r: np.ndarray):
    """k0 + k . r for one state (a float) or stacks that broadcast (an array)."""
    return per_state(k[..., 0] + np.einsum("...i,...i->...", k[..., 1:], r))


def work_operator(u: np.ndarray, h_sa: np.ndarray, r_a: np.ndarray) -> np.ndarray:
    """Functional of the switching work: decrease of the interaction energy."""
    return affine_functional(h_sa - dagger(u) @ h_sa @ u, r_a)


def heat_operator(u: np.ndarray, h_a: np.ndarray, r_a: np.ndarray) -> np.ndarray:
    """Functional of the heat into the ancilla (h_a is 2x2)."""
    ha_full = kron(I2, h_a)
    return affine_functional(dagger(u) @ ha_full @ u - ha_full, r_a)


def _current_kernel(v: np.ndarray, h: np.ndarray) -> np.ndarray:
    """V H V - (1/2){V^2, H}; equals -(1/2)[V,[V,H]]."""
    v2 = v @ v
    return v @ h @ v - 0.5 * (v2 @ h + h @ v2)


def current_evaluators(coupling: CouplingSpec, hs: QubitHamiltonian,
                       ancilla: AncillaPrep):
    """Continuous-limit (work, heat) currents as a function of the system state.

    Returns f(r) -> (w_dot, q_dot) for one Bloch vector or a stack of them
    (g0-level J units); the kernels are built once, as affine functionals
    with the stack axes of the config, against which r broadcasts.
    """
    v = build_interaction(CouplingSpec(coupling.j, coupling.dt, "none"))
    ha = kron(I2, ancilla.hamiltonian().matrix())
    h0 = kron(hs.matrix(), I2) + ha
    k_w = affine_functional(_current_kernel(v, h0), ancilla.state)
    k_q = affine_functional(_current_kernel(v, ha), ancilla.state)

    def currents(r: np.ndarray):
        return expectation(k_w, r), expectation(k_q, r)

    return currents


@dataclass
class ThermoLedger:
    """Per-collision thermodynamic records of a trajectory or a stack of them.

    Each record is an (..., n) array, one entry per collision, with the
    stack axes of the trajectories leading; beta broadcasts against them.
    """

    dt: float
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

    def rates(self, key: str) -> np.ndarray:
        return getattr(self, key) / self.dt

    def first_law_residuals(self) -> np.ndarray:
        """dE_S - W + Q per collision; zero up to round-off by unitarity."""
        return self.de_s - self.w + self.q
