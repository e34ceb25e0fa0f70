"""GKSL generator induced by the collision coupling, and its steady states.

The second-order expansion of the collision unitary gives
    drho/dt = -i[H_S, rho] + sum_jk gamma_jk (S_j rho S_k^dag
              - (1/2){S_k^dag S_j, rho}),
with jumps S_j = sigma_j the Pauli system factors of the interaction and rates
    gamma_jk = Tr[A_k^dag A_j rho_A^th],   A_j = sum_m J_jm sigma_m,
the thermal auto-correlations of the ancilla factors (g0 absorbed in J).
For an ancilla of Bloch vector r_A this is gamma = J (I - i E) J^T with
E_mn = eps_mnl r_A,l. The rate matrix is a Gram matrix in a state-weighted
inner product, hence Hermitian and positive semidefinite: the generator is
a valid GKSL one. On Bloch vectors it is the affine dr/dt = A r + b with
    A = 2 (Re gamma - Tr(Re gamma) I) + omega_s (z rotation),
    b_l = -2 sum_jk eps_jkl Im gamma_jk.
Stacked couplings or ancillas give stacks of generators and steady states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import clamp_to_density, dagger
from .model import AncillaPrep, CouplingSpec, QubitHamiltonian
from .observables import SteadyStateReport, make_report

# Two smallest superoperator singular values below this fraction of the total
# decay rate mark a degenerate (non-unique, initial-state dependent) family.
DEGENERACY_TOL = 1e-8

LEVI_CIVITA = np.zeros((3, 3, 3))
LEVI_CIVITA[[0, 1, 2], [1, 2, 0], [2, 0, 1]] = 1.0
LEVI_CIVITA[[0, 2, 1], [2, 1, 0], [1, 0, 2]] = -1.0

I3 = np.eye(3)

# -i[(omega/2) sigma_z, rho] on Bloch vectors: dr/dt = omega (e_z x r)
Z_ROTATION = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


@dataclass(frozen=True, eq=False)
class GKSLGenerator:
    """System frequency (H_S = (omega/2) sigma_z) and the Hermitian PSD rate
    matrix over the jumps (sigma_x, sigma_y, sigma_z)."""

    omega: float
    rates: np.ndarray

    def __post_init__(self):
        if self.rates.shape[-2:] != (3, 3):
            raise ValueError("rate matrix must be 3x3, over the three Pauli jumps")
        if not np.isfinite(self.rates).all():
            raise ValueError("rate matrix is not finite (coupling overflow)")
        if np.abs(self.rates - dagger(self.rates)).max() > 1e-12:
            raise ValueError("rate matrix must be Hermitian")
        w = np.linalg.eigvalsh(self.rates)
        if w.min() < -1e-10:
            raise ValueError(f"rate matrix not PSD: eigenvalue {w.min():.3e}")

    def matrix(self) -> np.ndarray:
        """The real 4x4 [[0, 0], [b, A]] of dr/dt = A r + b, acting on (1, r).

        It is L on column-stacked states written in the orthonormal Pauli
        basis {I, sx, sy, sz}/sqrt(2), so it has the singular values of L.
        """
        re, im = self.rates.real, self.rates.imag
        a = 2 * (re - re.trace(axis1=-2, axis2=-1)[..., None, None] * I3)
        g = np.zeros(a.shape[:-2] + (4, 4))
        g[..., 1:, 1:] = a + self.omega * Z_ROTATION
        g[..., 1:, 0] = -2 * np.einsum("jkl,...jk->...l", LEVI_CIVITA, im)
        return g


def build_generator(coupling: CouplingSpec, hs: QubitHamiltonian,
                    ancilla: AncillaPrep) -> GKSLGenerator:
    """Generator induced by a coupling spec on a thermal ancilla (or stacks).

    Expects g0-level (sqrt_dt-scaled) couplings so that the rates are
    dt-independent; a Pauli with a zero row of J gets zero rates.
    """
    e = np.einsum("mnl,...l->...mn", LEVI_CIVITA, ancilla.state)
    with np.errstate(over="ignore", invalid="ignore"):
        gamma = coupling.j @ (I3 - 1j * e) @ coupling.j.swapaxes(-1, -2)
        return GKSLGenerator(omega=hs.omega, rates=(gamma + dagger(gamma)) / 2)


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


def steady_state_kernel(g: np.ndarray,
                        hs: QubitHamiltonian | None = None) -> SteadyStateReport:
    """Steady state from kernel_state of a generator's matrix g (or a stack).

    A degenerate report holds the projection of the maximally mixed state onto
    the kernel: pick by iteration from a definite initial state instead.
    """
    r, dim = kernel_state(g)
    d = (g[..., 1:, 1:] @ r[..., None])[..., 0] + g[..., 1:, 0]
    # ||L(rho*)||_max: the largest entry of (d . sigma)/2
    residual = np.maximum(np.abs(d[..., 2]), np.hypot(d[..., 0], d[..., 1])) / 2
    return make_report(r, hs or QubitHamiltonian(0.0), method="kernel",
                       residual=residual, degenerate=dim > 1)


def steady_state_of(coupling: CouplingSpec, hs: QubitHamiltonian,
                    ancilla: AncillaPrep) -> SteadyStateReport:
    """Convenience: build the generator and solve its kernel in one call."""
    return steady_state_kernel(build_generator(coupling, hs, ancilla).matrix(), hs)
