"""GKSL generator induced by the collision coupling, and its steady states.

The continuous-time limit of the collision map (Ciccarello, Lorenzo,
Giovannetti & Palma, Phys. Rep. 954, 1 (2022)) is, with g0 absorbed in J,
    drho/dt = -i[H_S, rho] + Tr_A[V (rho (x) rho_A) V - (1/2){V^2, rho (x) rho_A}]
for V = sum_lm J_lm sigma_l (x) sigma_m. Its rows dr_l/dt are built as
those of the collision map: the affine functional of the adjoint generator
on the system Pauli, L^dag(sigma_l (x) I) (thermo.generator_functional).
In jump form its rates are gamma_jk = Tr[A_k^dag A_j rho_A] with
A_j = sum_m J_jm sigma_m, a Gram matrix in a state-weighted inner product:
Hermitian and PSD, so the generator is a valid GKSL one. Stacked couplings
or ancillas give stacks of generators and steady states.
"""

from __future__ import annotations

import numpy as np

from .linalg import clamp_to_density, dagger
from .model import (PAULIS, SIGMA_S, AncillaPrep, CouplingSpec, QubitHamiltonian,
                    coupling_operator, density_matrix, free_hamiltonians)
from .observables import SteadyStateReport, make_report
from .thermo import generator_functional

# Two smallest superoperator singular values below this fraction of the total
# decay rate mark a degenerate (non-unique, initial-state dependent) family.
DEGENERACY_TOL = 1e-8

I3 = np.eye(3)


def rate_matrix(coupling: CouplingSpec, ancilla: AncillaPrep) -> np.ndarray:
    """Rates gamma_jk = Tr[A_k^dag A_j rho_A] of the jumps sigma_x, sigma_y, sigma_z (or stacks).

    Raises ValueError unless gamma is finite (else the coupling overflowed),
    Hermitian and PSD, the CPTP guarantee of the generator, within
    tolerances that scale with the total rate Tr gamma.
    """
    a = np.einsum("...jm,mab->...jab", coupling.j, PAULIS)
    with np.errstate(over="ignore", invalid="ignore"):
        gamma = np.einsum("...kba,...jbc,...ca->...jk", a.conj(), a, density_matrix(ancilla.state))
        total = gamma.trace(axis1=-2, axis2=-1).real
    if not (np.isfinite(gamma).all() and np.isfinite(total).all()):
        raise ValueError("rate matrix is not finite (coupling overflow)")
    scale = np.maximum(1.0, total)
    if (np.abs(gamma - dagger(gamma)).max(axis=(-2, -1)) > 1e-12 * scale).any():
        raise ValueError("rate matrix must be Hermitian")
    w = np.linalg.eigvalsh(gamma)[..., 0] / scale
    if w.min() < -1e-10:
        raise ValueError(f"rate matrix not PSD: eigenvalue {w.min():.3e} times the total rate")
    return gamma


def build_generator(coupling: CouplingSpec, hs: QubitHamiltonian,
                    ancilla: AncillaPrep) -> np.ndarray:
    """The real 4x4 [[0, 0], [b, A]] of dr/dt = A r + b on (1, r), once rate_matrix passes.

    Row l of (b, A) is the functional of L^dag(sigma_l (x) I), as row l of
    engine.collision_map_superoperator is that of U^dag (sigma_l (x) I) U;
    the first row is exactly zero. It is L on column-stacked states in the
    orthonormal Pauli basis {I, sx, sy, sz}/sqrt(2), with the singular
    values of L, and dt-independent for the g0-level J. A coupling whose
    square overflows raises ValueError, as in current_evaluators.
    """
    rate_matrix(coupling, ancilla)
    h0 = free_hamiltonians(hs, ancilla.hamiltonian())[0][..., None, :, :]
    with np.errstate(over="ignore", invalid="ignore"):
        # against the stack axis of the three Paulis
        v = coupling_operator(coupling.j)[..., None, :, :]
        rows = generator_functional(v, h0, SIGMA_S, ancilla.state[..., None, :])
    if not np.isfinite(rows).all():
        raise ValueError("generator is not finite (coupling overflow)")
    return np.concatenate([np.zeros_like(rows[..., :1, :]), rows], axis=-2)


def kernel_state(g: np.ndarray, r_ref: np.ndarray | None = None,
                 floor: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Steady states r* = -A^-1 b of g = [[0, 0], [b, A]] (or of each of a stack).

    g is a generator's matrix (dr/dt = A r + b), or a collision map T minus
    the identity (A = M - I, b = c). Its singular values are those of the
    map on column-stacked states. Those <= floor count as zero, and the
    kernel has their number as its dimension (at least 1: the first row of
    g vanishes). The default floor, DEGENERACY_TOL times the total decay
    rate -Tr A (4 Tr gamma for Pauli jumps), judges weak couplings on their
    own scale. A kernel of dimension above 1 is degenerate; there r* is the
    spectral projection of r_ref, or of the maximally mixed state when none
    is given: R (L^T R)^-1 L^T (1, r_ref), with R and L the right and left
    singular vectors of the zero singular values. Returns r* and the
    dimension of each kernel.
    """
    a, b = g[..., 1:, 1:], g[..., 1:, 0]
    if floor is None:
        floor = -DEGENERACY_TOL * a.trace(axis1=-2, axis2=-1)
    s = np.linalg.svd(g[..., 1:, :], compute_uv=False)
    dim = 1 + (s <= np.asarray(floor)[..., None]).sum(axis=-1)
    degenerate = dim > 1
    # a degenerate A is replaced by I here, and its state projected below
    r = -np.linalg.solve(np.where(degenerate[..., None, None], I3, a), b[..., None])[..., 0]
    if degenerate.any():
        ref = np.broadcast_to(np.zeros(3) if r_ref is None else r_ref, r.shape)
        for idx in map(tuple, np.argwhere(degenerate)):
            u, _, vh = np.linalg.svd(g[idx])
            k = dim[idx]
            right, left = vh[-k:].T, u[:, -k:].T
            p = right @ np.linalg.solve(left @ right, left @ np.r_[1.0, ref[idx]])
            # the first row of g vanishes, so the projection keeps the trace p[0] = 1
            r[idx] = p[1:] / p[0]
    return clamp_to_density(r), dim


def steady_state_of(coupling: CouplingSpec, hs: QubitHamiltonian,
                    ancilla: AncillaPrep) -> SteadyStateReport:
    """Steady state of the coupling's generator (or of each of a stack), by kernel_state.

    A degenerate report holds the projection of the maximally mixed state onto
    the kernel: pick by iteration from a definite initial state instead.
    """
    g = build_generator(coupling, hs, ancilla)
    r, dim = kernel_state(g)
    d = (g[..., 1:, 1:] @ r[..., None])[..., 0] + g[..., 1:, 0]
    # ||L(rho*)||_max: the largest entry of (d . sigma)/2
    residual = np.maximum(np.abs(d[..., 2]), np.hypot(d[..., 0], d[..., 1])) / 2
    return make_report(r, hs, method="kernel", residual=residual, degenerate=dim > 1)
