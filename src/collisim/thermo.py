"""Thermodynamic ledger of the collision dynamics.

Sign conventions (fixed once, used everywhere):
  * W(dt) = Tr[(H_SA - U^dag H_SA U) rho_S (x) rho_A] is the energy injected
    by the agent that switches the interaction on and off; positive when the
    switching costs work.
  * Q(dt) = Tr[(U^dag H_A U - H_A) rho_S (x) rho_A] is the energy gained by
    the ancilla; positive when heat is dumped into the environment.
  * First law: dE_S = W - Q, exact for every unitary collision.
  * dS = S(after) - S(before); entropy production Sigma = dS + beta * Q,
    equal to the relative entropy between the post-collision joint state and
    the product of its system marginal with a fresh thermal ancilla.
  * Every collision quantity is Tr[M (rho_S (x) rho_A)] for a fixed joint
    operator M, so it is Tr[K rho_S] for the one-body K = Tr_A[M (I (x) rho_A)]
    and evaluates over a whole stack of states at once.

All entropies are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import dagger, hermitize, kron, partial_trace, per_state
from .model import I2, AncillaPrep, CouplingSpec, QubitHamiltonian, build_interaction, gibbs_state


# At beta = +-inf a heat below this is round-off and counts as zero.
INF_BETA_HEAT_TOL = 1e-14


def spectral_entropy(w: np.ndarray) -> np.ndarray:
    """-sum w ln w over the last axis of an eigenvalue array; 0 ln 0 = 0."""
    pos = w > 0
    return -np.sum(np.where(pos, w * np.log(np.where(pos, w, 1.0)), 0.0), axis=-1)


def entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy -Tr[rho ln rho] in nats, of a state or a stack."""
    return per_state(spectral_entropy(np.linalg.eigvalsh(hermitize(rho))))


def entropy_production(ds, q, beta):
    """Sigma = dS + beta * Q, elementwise; beta broadcasts against ds and q.

    At beta = +-inf any real heat exchange makes beta * Q diverge: Sigma is
    dS where |Q| <= INF_BETA_HEAT_TOL (round-off) and +inf elsewhere.
    """
    finite = np.isfinite(beta)
    sigma = ds + np.where(finite, beta, 0.0) * q
    return np.where(finite, sigma, np.where(np.abs(q) <= INF_BETA_HEAT_TOL, ds, math.inf))


def _log_psd(rho: np.ndarray) -> tuple[np.ndarray, bool]:
    """Matrix log restricted to the support; flags rank deficiency."""
    w, v = np.linalg.eigh(hermitize(rho))
    deficient = bool(np.any(w <= 1e-14))
    w = np.clip(w, 1e-300, None)
    return (v * np.log(w)) @ v.conj().T, deficient


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """D(rho || sigma) = Tr[rho (ln rho - ln sigma)], +inf on support mismatch."""
    wr, vr = np.linalg.eigh(hermitize(rho))
    ws, vs = np.linalg.eigh(hermitize(sigma))
    # support check: rho must not populate the kernel of sigma
    ker = np.abs(ws) <= 1e-14
    if np.any(ker):
        overlap = vs[:, ker].conj().T @ hermitize(rho) @ vs[:, ker]
        if np.max(np.abs(overlap)) > 1e-12:
            return math.inf
    log_sigma, _ = _log_psd(sigma)
    s_rho = -float(np.sum(wr[wr > 0] * np.log(wr[wr > 0])))
    return float(-s_rho - np.trace(hermitize(rho) @ log_sigma).real)


def mutual_information(joint: np.ndarray, dims: tuple[int, int]) -> float:
    """I(S:A) = S(rho_S) + S(rho_A) - S(rho_SA) >= 0."""
    rho_s = partial_trace(joint, dims, "S")
    rho_a = partial_trace(joint, dims, "A")
    return entropy(rho_s) + entropy(rho_a) - entropy(joint)


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


def collision_work(u: np.ndarray, h_sa: np.ndarray, rho_s: np.ndarray,
                   rho_a: np.ndarray) -> float:
    """Switching work of one collision: decrease of the interaction energy."""
    return expectation(work_operator(u, h_sa, rho_a), rho_s)


def collision_heat(u: np.ndarray, h_a: np.ndarray, rho_s: np.ndarray,
                   rho_a: np.ndarray) -> float:
    """Heat dissipated into the ancilla during one collision (h_a is 2x2)."""
    return expectation(heat_operator(u, h_a, rho_a), rho_s)


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


def work_current(coupling: CouplingSpec, hs: QubitHamiltonian, ancilla: AncillaPrep,
                 rho_s: np.ndarray) -> float:
    """Continuous-limit work current at state rho_s (g0-level J units)."""
    return current_evaluators(coupling, hs, ancilla)(rho_s)[0]


def heat_current(coupling: CouplingSpec, ancilla: AncillaPrep, rho_s: np.ndarray) -> float:
    """Continuous-limit heat current into the ancilla at state rho_s."""
    # the heat kernel does not involve H_S
    return current_evaluators(coupling, QubitHamiltonian(0.0), ancilla)(rho_s)[1]


def entropy_production_collision(rho_s_before: np.ndarray, joint_after: np.ndarray,
                                 ancilla: AncillaPrep,
                                 check_identities: bool = True) -> tuple[float, dict]:
    """Entropy production of one collision, with its two equivalent forms.

    Returns (sigma, checks) where sigma = dS_sys + beta * Q and checks
    carries the joint-relative-entropy and mutual-information evaluations
    (empty when check_identities is False or the ancilla is at infinite
    beta, where the relative entropies are +inf).
    """
    rho_th = ancilla.state()
    rho_s_after = partial_trace(joint_after, (2, 2), "S")
    rho_a_after = partial_trace(joint_after, (2, 2), "A")
    ds = entropy(rho_s_after) - entropy(rho_s_before)
    q = float(np.trace(ancilla.hamiltonian().matrix() @ (rho_a_after - rho_th)).real)
    sigma = float(entropy_production(ds, q, ancilla.beta))
    if math.isinf(ancilla.beta):
        return sigma, {"skipped": "infinite beta: relative entropy support mismatch"}
    checks: dict = {}
    if check_identities:
        checks["joint_relative_entropy"] = relative_entropy(
            joint_after, kron(rho_s_after, rho_th))
        checks["mutual_information_form"] = (
            mutual_information(joint_after, (2, 2))
            + relative_entropy(rho_a_after, rho_th))
    return sigma, checks


def weak_coupling_sigma_rate(traj, hs: QubitHamiltonian, beta: float,
                             dt: float | None = None) -> np.ndarray:
    """Weak-coupling diagnostic rate -d/dt D(rho_S(t) || gibbs(beta, H_S)).

    Finite-difference estimate (central in the interior) on a uniformly
    sampled trajectory; accepts a Trajectory or a list of states plus dt.
    Only valid as the entropy production rate in the weak-coupling limit;
    for the collision ledger it is a diagnostic, and the comparison against
    the per-collision sigma exposes where the weak-coupling formulas stop
    applying.
    """
    if hasattr(traj, "states"):
        states, dt = traj.states, traj.dt
    else:
        states = traj
        if dt is None:
            raise ValueError("dt required when passing a bare state list")
    ref = gibbs_state(hs, beta)
    d = np.array([relative_entropy(rho, ref) for rho in states])
    return -np.gradient(d, dt)


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
