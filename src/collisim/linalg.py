"""Dense complex-matrix primitives for small (2x2 / 4x4) operators.

All operators are plain complex numpy arrays in row-major storage; the
helpers that take states also take stacks (..., d, d) of them. States
(density matrices) are Hermitian, unit-trace, positive-semidefinite up to a
small numerical slack; the helpers here validate and repair them.
"""

from __future__ import annotations

import logging

import numpy as np

logger = logging.getLogger(__name__)

# Tolerances used across the package.
HERM_TOL = 1e-12      # max-norm slack for Hermiticity at construction
TRACE_TOL = 1e-10     # |Tr rho - 1| slack
PSD_TOL = 1e-10       # eigenvalues in [-PSD_TOL, 0) are clamped to 0


class NotAStateError(ValueError):
    """Raised when a matrix fails the density-matrix invariants."""


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each matrix of a stack)."""
    return a.conj().swapaxes(-1, -2)


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (a + a^dag)/2."""
    return (a + dagger(a)) / 2


def per_state(x):
    """A result over one state as a float, over a stack as an array."""
    return float(x) if np.ndim(x) == 0 else x


def matrices_close(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """Max-norm comparison with an explicit absolute tolerance (never ==)."""
    return bool(np.max(np.abs(np.asarray(a) - np.asarray(b))) <= tol)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product, system factor first, ancilla second."""
    return np.kron(a, b)


def partial_trace(rho: np.ndarray, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Trace out one tensor factor of a (d_S * d_A)-dimensional operator.

    Parameters
    ----------
    rho : square array of dimension d_S * d_A
    dims : (d_S, d_A)
    keep : 'S' keeps the first factor, 'A' the second.
    """
    d_s, d_a = dims
    if rho.shape != (d_s * d_a, d_s * d_a):
        raise ValueError(
            f"incompatible factorization: operator is {rho.shape}, dims {dims}")
    r = rho.reshape(d_s, d_a, d_s, d_a)
    if keep in ("S", "s", "system"):
        return np.einsum("ikjk->ij", r)
    if keep in ("A", "a", "ancilla"):
        return np.einsum("kikj->ij", r)
    raise ValueError(f"unknown subsystem tag {keep!r}")


def herm_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, unitary of column eigenvectors) with
    h = V diag(w) V^dag.
    """
    w, v = np.linalg.eigh(h)
    return w, v


def exp_minus_i(h: np.ndarray, t: float) -> np.ndarray:
    """Unitary exp(-i h t) for Hermitian h, via eigendecomposition.

    Eigendecomposition keeps the result unitary to round-off, unlike a
    truncated series.
    """
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def check_density(rho: np.ndarray, what: str = "state") -> np.ndarray:
    """Validate the density-matrix invariants of a state or a stack of them.

    Checks without repairing; returns the eigenvalues (ascending, per state).
    """
    if np.max(np.abs(rho - dagger(rho))) > HERM_TOL:
        raise NotAStateError(f"{what} is not Hermitian within {HERM_TOL:g}")
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    worst = np.max(np.abs(tr - 1.0))
    if worst > TRACE_TOL:
        raise NotAStateError(f"{what}: trace deviates from 1 by {worst:.3e}, beyond {TRACE_TOL:g}")
    w = np.linalg.eigvalsh(hermitize(rho))
    if w.min() < -PSD_TOL:
        raise NotAStateError(f"{what}: eigenvalue {w.min():.3e} below -{PSD_TOL:g}")
    return w


def clamp_to_density(rho: np.ndarray, what: str = "state") -> np.ndarray:
    """Project a slightly-off matrix back onto valid density matrices.

    Hermitizes, clamps eigenvalues in [-PSD_TOL, 0) to zero (logged), and
    renormalizes the trace. Eigenvalues below -PSD_TOL are an error, not
    round-off, and raise.
    """
    h = hermitize(rho)
    w, v = np.linalg.eigh(h)
    if w.min() < -PSD_TOL:
        raise NotAStateError(f"{what}: eigenvalue {w.min():.3e} below -{PSD_TOL:g}")
    if w.min() < 0:
        logger.debug("clamping negative eigenvalue %.3e of %s to 0", w.min(), what)
        w = np.clip(w, 0.0, None)
        h = (v * w) @ v.conj().T
    tr = np.trace(h).real
    if tr <= 0:
        raise NotAStateError(f"{what}: non-positive trace {tr}")
    return h / tr


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(1/2) ||rho - sigma||_1 via the eigenvalues of the difference."""
    w = np.linalg.eigvalsh(hermitize(rho - sigma))
    return per_state(0.5 * np.sum(np.abs(w), axis=-1))


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization: vec(A rho B) = (B^T kron A) vec(rho)."""
    return m.swapaxes(-1, -2).reshape(m.shape[:-2] + (-1,))


def unvec(v: np.ndarray) -> np.ndarray:
    d = int(round(np.sqrt(v.shape[-1])))
    return v.reshape(v.shape[:-1] + (d, d)).swapaxes(-1, -2)
