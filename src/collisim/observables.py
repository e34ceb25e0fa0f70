"""Steady-state characterization: effective temperature, coherence, ergotropy.

Each observable is a closed form of the Bloch vector r = (x, y, z), whose
state has populations (1 +- z)/2 and eigenvalues (1 +- |r|)/2. Each takes a
stack of states (..., 3), against whose stack axes omega broadcasts, and
returns a numpy array over them, 0-d for one state; so do a report's fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import QubitHamiltonian

# A population-only effective temperature is misleading for a coherent state;
# beta_eff is suppressed above this much l1-coherence.
COHERENCE_THRESHOLD = 1e-6


def effective_beta(r: np.ndarray, omega_s: float | np.ndarray) -> np.ndarray:
    """Inverse temperature of the Gibbs state matching the population ratio.

    beta_eff = ln(p_g / p_e) / omega_s = ln((1 - z)/(1 + z)) / omega_s;
    negative for inverted populations. A vanishing population gives the
    limit of the log-ratio: p_e = 0 gives +inf / omega_s, that is +inf for
    omega_s > 0 and -inf for omega_s < 0 (all weight on the top level is
    beta = -inf), and p_g = 0 the opposite sign. nan where omega_s = 0, where
    no temperature is defined.
    """
    z = r[..., 2]
    omega_s = np.where(omega_s == 0, math.nan, omega_s)
    # |z| may pass 1 by round-off: that population is 0
    with np.errstate(divide="ignore", over="ignore"):
        return np.log(np.maximum(1 - z, 0.0) / np.maximum(1 + z, 0.0)) / omega_s


def l1_coherence(r: np.ndarray) -> np.ndarray:
    """Sum of |off-diagonal| entries in the energy basis: sqrt(x^2 + y^2)."""
    return np.hypot(r[..., 0], r[..., 1])


def ergotropy(r: np.ndarray, omega: float | np.ndarray) -> np.ndarray:
    """Maximum work extractable by a cyclic unitary under H = (omega/2) sigma_z.

    Tr[rho H] minus the energy of the passive state, which puts the larger
    eigenvalue (1 + |r|)/2 on the lower level: (omega z + |omega| |r|)/2.
    Nonnegative by construction.
    """
    length = np.sqrt((r * r).sum(axis=-1))
    return np.maximum(omega * r[..., 2] + abs(omega) * length, 0.0) / 2


@dataclass(frozen=True, eq=False)
class SteadyStateReport:
    """Steady state (Bloch vector r_star) plus its thermodynamic characterization.

    Every field but method is a numpy array over the stack axes of r_star,
    0-d for one state: both methods solve a stack in one call. beta_eff is
    nan where the state carries more than COHERENCE_THRESHOLD of l1-coherence
    (populations alone do not define a temperature then) or where omega_s = 0.
    residual is ||L(rho*)||_max for the kernel method; for iteration, the bound
    trace_distance(M r* + c, r*) / (1 - |l2|) on each point's distance to the
    fixed point of the collision map (see steady_state_by_iteration).
    degenerate marks a non-unique steady state (initial-state dependent).
    """

    r_star: np.ndarray
    beta_eff: np.ndarray
    coherence_l1: np.ndarray
    ergotropy: np.ndarray
    residual: np.ndarray
    degenerate: np.ndarray
    method: str


def make_report(r_star: np.ndarray, hs: QubitHamiltonian, method: str,
                residual: np.ndarray, degenerate: np.ndarray) -> SteadyStateReport:
    """Characterize steady states r_star (one or a stack) under H_S = (omega/2) sigma_z."""
    coh = l1_coherence(r_star)
    return SteadyStateReport(
        r_star=r_star,
        beta_eff=np.where(coh <= COHERENCE_THRESHOLD, effective_beta(r_star, hs.omega), math.nan),
        coherence_l1=coh,
        ergotropy=ergotropy(r_star, hs.omega),
        residual=np.asarray(residual),
        degenerate=np.asarray(degenerate),
        method=method,
    )
