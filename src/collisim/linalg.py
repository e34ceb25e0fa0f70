"""Small dense primitives: 2x2 / 4x4 operators, and qubit states as Bloch vectors.

Operators (Hamiltonians, unitaries) are plain complex numpy arrays in
row-major storage. A qubit state is its real Bloch vector r, with
rho = (I + r . sigma)/2: Hermiticity and unit trace hold by construction,
and the eigenvalues of rho are (1 +- |r|)/2. Helpers on states take stacks
(..., 3) and return arrays, 0-d for one state; these validate and repair them.
"""

from __future__ import annotations

import logging

import numpy as np

logger = logging.getLogger(__name__)

# The smallest eigenvalue (1 - |r|)/2 of a state may dip to -PSD_TOL
# (|r| <= 1 + 2 PSD_TOL) by round-off; below that it is not a state.
PSD_TOL = 1e-10


class NotAStateError(ValueError):
    """Raised when a Bloch vector lies outside the Bloch ball beyond round-off."""


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each matrix of a stack)."""
    return a.conj().swapaxes(-1, -2)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product, system factor first, ancilla second (of each pair of a stack)."""
    out = np.einsum("...ij,...kl->...ikjl", a, b)
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def exp_minus_i(h: np.ndarray, t: float) -> np.ndarray:
    """Unitary exp(-i h t) for Hermitian h, or a stack of h and of t.

    Eigendecomposition keeps the result unitary to round-off, unlike a
    truncated series.
    """
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * np.asarray(t)[..., None])[..., None, :]) @ dagger(v)


def check_density(r: np.ndarray, what: str = "state") -> np.ndarray:
    """Validate a Bloch vector or a stack of them; returns the lengths |r|.

    The smallest eigenvalue (1 - |r|)/2 of the state must be >= -PSD_TOL,
    that is |r| <= 1 + 2 PSD_TOL. A non-finite vector fails too.
    """
    length = np.sqrt((r * r).sum(axis=-1))
    worst = length.max(initial=0.0)     # nan if any vector is
    if not worst <= 1 + 2 * PSD_TOL:
        raise NotAStateError(f"{what}: eigenvalue {(1 - worst) / 2:.3e} below -{PSD_TOL:g}")
    return length


def clamp_to_density(r: np.ndarray, what: str = "state") -> np.ndarray:
    """Project Bloch vectors just outside the ball (one or a stack) back onto it.

    A length in (1, 1 + 2 PSD_TOL], a negative eigenvalue of round-off size,
    is rescaled to 1 (logged): that is the state with the eigenvalue clamped
    to zero and the trace renormalized. Every other vector is returned as
    it is, so each result of a stack equals that of clamping it alone.
    """
    length = check_density(r, what)
    if length.max(initial=0.0) > 1:
        logger.debug("clamping negative eigenvalue %.3e of %s to 0", (1 - length.max()) / 2, what)
        return r / np.maximum(length, 1.0)[..., None]
    return r


def trace_distance(r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(1/2) ||rho - sigma||_1 of states (or stacks): half the distance of their Bloch vectors."""
    d = r - s
    return np.sqrt((d * d).sum(axis=-1)) / 2
