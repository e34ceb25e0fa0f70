"""Steady-state characterization: effective temperature, coherence, ergotropy."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import hermitize, per_state
from .model import QubitHamiltonian

# A population-only effective temperature is misleading for a coherent state;
# beta_eff is suppressed above this much l1-coherence.
COHERENCE_THRESHOLD = 1e-6


def effective_beta(rho: np.ndarray, omega_s: float) -> float:
    """Inverse temperature of the Gibbs state matching the population ratio.

    beta_eff = ln(p_g / p_e) / omega_s; negative for inverted populations,
    +-inf when one population vanishes (sign set by which one). Takes one
    state or a stack of them.
    """
    if omega_s == 0:
        raise ValueError("effective temperature undefined for a degenerate Hamiltonian")
    p_e, p_g = rho[..., 0, 0].real, rho[..., 1, 1].real
    inf = math.copysign(math.inf, omega_s)
    with np.errstate(all="ignore"):
        out = np.log(p_g / p_e) / omega_s
    return per_state(np.where(p_e <= 0, inf, np.where(p_g <= 0, -inf, out)))


def l1_coherence(rho: np.ndarray) -> float:
    """Sum of |off-diagonal| entries in the energy (computational) basis."""
    mag = np.abs(rho)
    return per_state(np.sum(mag, axis=(-2, -1))
                     - np.sum(np.diagonal(mag, axis1=-2, axis2=-1), axis=-1))


def ergotropy(rho: np.ndarray, h: np.ndarray) -> float:
    """Maximum work extractable by a cyclic unitary: Tr[rho H] - Tr[rho_p H].

    The passive pairing (largest population on the lowest energy) settles
    the index convention; round-off scales with the energy span of h, so
    values in [-1e-12 max(1, span), 0) clamp to 0. Takes one state or a
    stack of them.
    """
    rho = hermitize(rho)
    pops = np.linalg.eigvalsh(rho)[..., ::-1]
    energies = np.linalg.eigvalsh(hermitize(h))
    e_now = np.einsum("...ij,ji->...", rho, h).real
    out = e_now - pops @ energies
    if np.min(out) < -1e-12 * max(1.0, energies[-1] - energies[0]):
        raise ValueError(f"ergotropy {np.min(out):.3e} below round-off floor; invalid inputs")
    return per_state(np.maximum(out, 0.0))


@dataclass(frozen=True, eq=False)
class SteadyStateReport:
    """Steady state plus its thermodynamic characterization.

    beta_eff is None when the state carries more than COHERENCE_THRESHOLD
    of l1-coherence (populations alone do not define a temperature then).
    residual is ||L(rho*)||_max for the kernel method; for iteration, the
    bound trace_distance(Phi rho*, rho*) / (1 - |l2|) on the distance to the
    fixed point of the collision map (see steady_state_by_iteration).
    degenerate marks a non-unique steady state (initial-state dependent). A
    report on a stack holds arrays, with nan for a suppressed beta_eff.
    """

    rho_star: np.ndarray
    beta_eff: Optional[float]
    coherence_l1: float
    ergotropy: float
    residual: float
    degenerate: bool
    method: str


def make_report(rho_star: np.ndarray, hs: QubitHamiltonian, method: str,
                residual: float, degenerate: bool) -> SteadyStateReport:
    coh = l1_coherence(rho_star)
    beta_eff = np.where(np.asarray(coh) <= COHERENCE_THRESHOLD,
                        effective_beta(rho_star, hs.omega) if hs.omega != 0 else math.nan,
                        math.nan)
    if beta_eff.ndim == 0:
        beta_eff = None if math.isnan(beta_eff) else float(beta_eff)
    return SteadyStateReport(
        rho_star=rho_star,
        beta_eff=beta_eff,
        coherence_l1=coh,
        ergotropy=ergotropy(rho_star, hs.matrix()),
        residual=per_state(residual),
        degenerate=bool(degenerate) if np.ndim(degenerate) == 0 else degenerate,
        method=method,
    )
