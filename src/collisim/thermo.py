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
    operator M, so it is Tr[K rho_S] for the one-body K = Tr_A[M (I (x) rho_A)]
    and evaluates over a whole stack of states at once.

All entropies are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import dagger, kron, partial_trace, per_state
from .model import I2, AncillaPrep, CouplingSpec, QubitHamiltonian, build_interaction


# At beta = +-inf a heat below this is round-off and counts as zero.
INF_BETA_HEAT_TOL = 1e-14


def spectral_entropy(w: np.ndarray) -> np.ndarray:
    """-sum w ln w over the last axis of an eigenvalue array; 0 ln 0 = 0."""
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


def reduced_operator(m: np.ndarray, rho_a: np.ndarray) -> np.ndarray:
    """K = Tr_A[M (I (x) rho_a)], so that Tr[M (rho (x) rho_a)] = Tr[K rho]."""
    return partial_trace(m @ kron(I2, rho_a), (2, 2), "S")


def expectation(k: np.ndarray, rho: np.ndarray):
    """Tr[K rho] for one state (a float) or stacks that broadcast (an array)."""
    return per_state(np.einsum("...ij,...ji->...", k, rho).real)


def work_operator(u: np.ndarray, h_sa: np.ndarray, rho_a: np.ndarray) -> np.ndarray:
    """One-body operator of the switching work: decrease of the interaction energy."""
    return reduced_operator(h_sa - dagger(u) @ h_sa @ u, rho_a)


def heat_operator(u: np.ndarray, h_a: np.ndarray, rho_a: np.ndarray) -> np.ndarray:
    """One-body operator of the heat into the ancilla (h_a is 2x2)."""
    ha_full = kron(I2, h_a)
    return reduced_operator(dagger(u) @ ha_full @ u - ha_full, rho_a)


def _current_kernel(v: np.ndarray, h: np.ndarray) -> np.ndarray:
    """V H V - (1/2){V^2, H}; equals -(1/2)[V,[V,H]]."""
    v2 = v @ v
    return v @ h @ v - 0.5 * (v2 @ h + h @ v2)


def current_evaluators(coupling: CouplingSpec, hs: QubitHamiltonian,
                       ancilla: AncillaPrep):
    """Continuous-limit (work, heat) currents as a function of the system state.

    Returns f(rho_s) -> (w_dot, q_dot) for one state or a stack of them
    (g0-level J units); the kernels are built once, as one-body operators
    with the stack axes of the config, against which rho_s broadcasts.
    """
    v = build_interaction(CouplingSpec(coupling.j, coupling.dt, "none"))
    ha = kron(I2, ancilla.hamiltonian().matrix())
    h0 = kron(hs.matrix(), I2) + ha
    rho_th = ancilla.state()
    k_w = reduced_operator(_current_kernel(v, h0), rho_th)
    k_q = reduced_operator(_current_kernel(v, ha), rho_th)

    def currents(rho_s: np.ndarray):
        return expectation(k_w, rho_s), expectation(k_q, rho_s)

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
