"""GKSL generator induced by the collision coupling, and its steady states.

The second-order expansion of the collision unitary gives
    drho/dt = -i[H_S, rho] + sum_jk gamma_jk (S_j rho S_k^dag
              - (1/2){S_k^dag S_j, rho}),
with jumps S_j the Pauli system factors of the interaction and rates
    gamma_jk = Tr[A_k^dag A_j rho_A^th],   A_j = sum_m J_jm sigma_m,
the thermal auto-correlations of the ancilla factors (g0 absorbed in J).
The rate matrix is a Gram matrix in a state-weighted inner product, hence
Hermitian and positive semidefinite: the generator is a valid GKSL one.
Stacked couplings or ancillas give stacks of generators and steady states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import clamp_to_density, dagger, hermitize, kron, unvec, vec
from .model import PAULIS, AncillaPrep, CouplingSpec, QubitHamiltonian
from .observables import SteadyStateReport, make_report

# Two smallest superoperator singular values below this fraction of the total
# decay rate mark a degenerate (non-unique, initial-state dependent) family.
DEGENERACY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class GKSLGenerator:
    """Coherent part, jump operators, and Hermitian PSD rate matrix."""

    h_sys: np.ndarray
    jumps: tuple[np.ndarray, ...]
    rates: np.ndarray

    def __post_init__(self):
        if len(self.jumps) != self.rates.shape[-1]:
            raise ValueError("rate matrix size must match the jump list")
        if self.rates.size == 0:
            return
        if np.max(np.abs(self.rates - dagger(self.rates))) > 1e-12:
            raise ValueError("rate matrix must be Hermitian")
        w = np.linalg.eigvalsh(self.rates)
        if w.min() < -1e-10:
            raise ValueError(f"rate matrix not PSD: eigenvalue {w.min():.3e}")


def build_generator(coupling: CouplingSpec, hs: QubitHamiltonian,
                    ancilla: AncillaPrep) -> GKSLGenerator:
    """Generator induced by a coupling spec on a thermal ancilla.

    Jumps are the Pauli system factors with a nonzero row in J (in any
    coupling of a stack); rows that vanish are pruned. Expects g0-level
    (sqrt_dt-scaled) couplings so that the rates are dt-independent.
    """
    rows = [l for l in range(3) if np.any(coupling.j[..., l, :] != 0.0)]
    # A_j = sum_m J_jm sigma_m with j on axis -4; swapped, the index k is on axis -3
    a = np.einsum("...jm,mab->...jab", coupling.j[..., rows, :], PAULIS)[..., None, :, :]
    rho_th = ancilla.state()[..., None, None, :, :]
    rates = hermitize(np.trace(dagger(a.swapaxes(-3, -4)) @ a @ rho_th, axis1=-2, axis2=-1))
    return GKSLGenerator(h_sys=hs.matrix(), jumps=tuple(PAULIS[l] for l in rows), rates=rates)


def vectorize(gen: GKSLGenerator) -> np.ndarray:
    """L as a d^2 x d^2 matrix on column-stacked states: vec(A rho B) = (B^T kron A) vec(rho)."""
    d = gen.h_sys.shape[0]
    eye = np.eye(d, dtype=complex)
    h = gen.h_sys
    s = np.array(gen.jumps, dtype=complex).reshape(-1, d, d)
    s_j, s_k = s[:, None], s[None, :]
    sks = dagger(s_k) @ s_j
    # the dissipator term of rates[j, k]
    terms = kron(s_k.conj(), s_j) - 0.5 * (kron(eye, sks) + kron(sks.swapaxes(-1, -2), eye))
    m = -1j * (kron(eye, h) - kron(h.T, eye))
    return m + np.einsum("...jk,jkab->...ab", gen.rates, terms)


def kernel_part(m: np.ndarray, v: np.ndarray, floor: float) -> np.ndarray:
    """Spectral projection of v onto the kernel of one matrix m, along its other
    invariant subspaces: R (L^dag R)^-1 L^dag v, with R and L the right and left
    singular vectors of the singular values <= floor (at least one). The zero
    eigenvalue must be semisimple, as the eigenvalues of modulus 1 of a channel are.
    """
    u, s, vh = np.linalg.svd(m)
    k = max(int(np.sum(s <= floor)), 1)
    r, l = dagger(vh[-k:]), dagger(u[:, -k:])
    return r @ np.linalg.solve(l @ r, l @ v)


def kernel_state(m: np.ndarray, rho_ref: np.ndarray | None = None,
                 floor: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Steady states as the kernel of m (or of each of a stack), via one SVD.

    m is a generator L, or a collision map minus the identity. rho* is the
    right-singular vector of the smallest singular value, Hermitized and
    trace-normalized. Singular values <= floor count as zero; the default
    floor, DEGENERACY_TOL times the total decay rate -Re Tr m (4 Tr gamma for
    Pauli jumps of L), judges weak couplings on their own scale. A kernel of
    dimension above 1 is degenerate; there rho* is the spectral projection of
    rho_ref, or of I/d when none is given. Returns rho* and the dimension of
    each kernel.
    """
    _, s, vh = np.linalg.svd(m)
    if floor is None:
        floor = DEGENERACY_TOL * -np.trace(m, axis1=-2, axis2=-1).real
    dim = np.sum(s <= np.asarray(floor)[..., None], axis=-1)
    raw = vh[..., -1, :].conj()
    if np.any(dim > 1):
        # tr is a left null vector of a trace-preserving m: projections keep the trace
        d = unvec(raw).shape[-1]
        ref = np.broadcast_to(vec(np.eye(d) / d if rho_ref is None else rho_ref), raw.shape)
        floor = np.broadcast_to(floor, dim.shape)
        for idx in map(tuple, np.argwhere(dim > 1)):
            raw[idx] = kernel_part(m[idx], ref[idx], floor[idx])
    raw = hermitize(unvec(raw))
    tr = np.trace(raw, axis1=-2, axis2=-1).real
    if np.min(np.abs(tr)) < 1e-12:
        raise ValueError("kernel vector has vanishing trace; cannot normalize to a state")
    return clamp_to_density(raw / tr[..., None, None]), dim


def steady_state_kernel(m: np.ndarray,
                        hs: QubitHamiltonian | None = None) -> SteadyStateReport:
    """Steady state from kernel_state of the vectorized generator m (or a stack).

    A degenerate report holds the projection of the maximally mixed state onto
    the kernel: pick by iteration from a definite initial state instead.
    """
    rho, dim = kernel_state(m)
    residual = np.max(np.abs(m @ vec(rho)[..., None]), axis=(-2, -1))
    return make_report(rho, hs or QubitHamiltonian(0.0), method="kernel",
                       residual=residual, degenerate=dim > 1)


def steady_state_of(coupling: CouplingSpec, hs: QubitHamiltonian,
                    ancilla: AncillaPrep) -> SteadyStateReport:
    """Convenience: build, vectorize, and solve the kernel in one call."""
    return steady_state_kernel(vectorize(build_generator(coupling, hs, ancilla)), hs)


def evolve_continuous(gen: GKSLGenerator, rho0: np.ndarray, t: float) -> np.ndarray:
    """exp(t L) applied to rho0.

    Uses the general-matrix exponential of the vectorized generator
    (scipy.linalg.expm: Al-Mohy/Higham scaling-and-squaring with degree-13
    Pade approximant).
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    prop = scipy.linalg.expm(t * vectorize(gen))
    return clamp_to_density(unvec(prop @ vec(rho0.astype(complex))))
