import importlib.util
import math
import os
import time

import numpy as np
import pytest
import scipy.linalg

from collisim.cli import cmd_ergotropy_surface, cmd_fig3, cmd_fig5
from collisim.linalg import clamp_to_density, dagger, kron
from collisim.model import PAULI4, SscAngles, density_matrix, free_hamiltonians, gibbs_state
from collisim.thermo import affine_functional, change_functional, entropy_production, expectation

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Columns: the column-stacked I, sigma_x, sigma_y, sigma_z. Over sqrt(2) they
# are an orthonormal basis, in which rho = (I + r . sigma)/2 reads (1, r)/sqrt(2);
# unscaled, their entries are exact. lindblad.build_generator is L written in it.
PAULI_BASIS = PAULI4.swapaxes(-1, -2).reshape(4, 4).T


def _load(name: str, path: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The benchmark's physics, rebuilt with numpy and scipy.linalg.expm apart from collisim.
reference = _load("perfbench_reference", os.path.join(ROOT, "perfbench", "reference.py"))


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (a + a^dag)/2."""
    return (a + dagger(a)) / 2


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """(x, y, z) with rho = (I + x sx + y sy + z sz)/2, of a 2x2 matrix or a stack."""
    return np.stack([2 * rho[..., 0, 1].real, -2 * rho[..., 0, 1].imag,
                     (rho[..., 0, 0] - rho[..., 1, 1]).real], axis=-1)


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random Hermitian matrix with entries of order `scale`."""
    a = rng.uniform(-scale, scale, (dim, dim)) + 1j * rng.uniform(-scale, scale, (dim, dim))
    return hermitize(a)


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix (Hilbert-Schmidt-like measure)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_bloch(rng: np.random.Generator) -> np.ndarray:
    """Bloch vector of a full-rank random state (the measure of random_density)."""
    return bloch_vector(random_density(2, rng))


def work_heat(u: np.ndarray, hs, ha, r_a: np.ndarray, r: np.ndarray) -> tuple:
    """The library's switching work and heat of one collision from the state r:
    the changes of H_0 and of I (x) H_A."""
    return tuple(expectation(change_functional(u, x, r_a), r) for x in free_hamiltonians(hs, ha))


# ----------------------------------------------------------------------------
# References the tests compare the library against. The CLI needs none of
# them: each recomputes on density matrices, the joint state, eigenvalues or
# a matrix exponential what the library gets in closed form from Bloch
# vectors, the affine collision map and the affine functionals.

def matrices_close(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """Max-norm comparison with an explicit absolute tolerance (never ==)."""
    return bool(np.max(np.abs(np.asarray(a) - np.asarray(b))) <= tol)


def partial_trace(rho: np.ndarray, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Trace out one tensor factor of a (d_S * d_A)-dimensional operator (or a stack).

    keep = 'S' keeps the first factor, 'A' the second.
    """
    d_s, d_a = dims
    if rho.shape[-2:] != (d_s * d_a, d_s * d_a):
        raise ValueError(
            f"incompatible factorization: operator is {rho.shape}, dims {dims}")
    r = rho.reshape(rho.shape[:-2] + (d_s, d_a, d_s, d_a))
    if keep == "S":
        return np.einsum("...ikjk->...ij", r)
    if keep == "A":
        return np.einsum("...kikj->...ij", r)
    raise ValueError(f"unknown subsystem tag {keep!r}")


def collide_once(rho_s: np.ndarray, rho_a: np.ndarray,
                 u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One collision: joint unitary on rho_s (x) rho_a, then trace out the ancilla
    (of each of a stack).

    The single-collision reference that the affine map (M, c) reproduces, on
    density matrices. Returns the next system state and the joint state
    after the collision.
    """
    if not matrices_close(dagger(u) @ u, np.eye(u.shape[-1]), 1e-10):
        raise ValueError("invalid propagator: u is not unitary within 1e-10")
    joint_after = u @ kron(rho_s, rho_a) @ dagger(u)
    return hermitize(partial_trace(joint_after, (2, 2), "S")), joint_after


def interaction_work(u: np.ndarray, h_sa: np.ndarray, r_a: np.ndarray) -> np.ndarray:
    """Functional of the switching work in its definition form, the decrease
    of the interaction energy H_SA - U^dag H_SA U. The library takes the change
    of H_0 instead, equal because U conserves H_0 + H_SA; this form loses the
    work to round-off once H_SA dwarfs H_0."""
    return affine_functional(h_sa - dagger(u) @ h_sa @ u, r_a)


def apply_map(t: np.ndarray, r: np.ndarray) -> np.ndarray:
    """M r + c of collision maps T = [[1, 0], [c, M]] (stacks broadcast)."""
    return (t[..., 1:, 1:] @ r[..., None])[..., 0] + t[..., 1:, 0]


def evolve_continuous(gen: np.ndarray, r0: np.ndarray, t: float) -> np.ndarray:
    """The Bloch vector exp(t L) r0, with scipy.linalg.expm of the generator's 4x4 matrix."""
    prop = scipy.linalg.expm(t * gen)
    return clamp_to_density((prop @ np.r_[1.0, r0])[1:])


def eigen_entropy(w: np.ndarray) -> np.ndarray:
    """-sum w ln w over the last axis of an eigenvalue array; 0 ln 0 = 0."""
    pos = w > 0
    return -np.sum(np.where(pos, w * np.log(np.where(pos, w, 1.0)), 0.0), axis=-1)


def entropy(rho: np.ndarray) -> np.ndarray:
    """Von Neumann entropy -Tr[rho ln rho] in nats, from the eigenvalues (of each of a stack)."""
    return eigen_entropy(np.linalg.eigvalsh(hermitize(rho)))


def eigen_trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(1/2) ||rho - sigma||_1 from the eigenvalues of the difference."""
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(hermitize(rho - sigma)))))


def eigen_ergotropy(rho: np.ndarray, h: np.ndarray) -> float:
    """Tr[rho H] - Tr[rho_p H], with the passive state pairing the largest
    population with the lowest energy, from eigendecompositions."""
    pops = np.linalg.eigvalsh(hermitize(rho))[::-1]
    energies = np.linalg.eigvalsh(hermitize(h))
    return float(np.trace(rho @ h).real - pops @ energies)


def population_beta_eff(rho: np.ndarray, omega_s: float) -> float:
    """ln(rho_gg / rho_ee) / omega_s from the diagonal entries (inf at a zero
    population, with the sign of the limit), nan at omega_s = 0."""
    if omega_s == 0:
        return math.nan
    p_e, p_g = np.maximum(np.diagonal(rho).real, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        return float(np.log(p_g / p_e) / omega_s)


def entry_l1_coherence(rho: np.ndarray) -> float:
    """Sum of the moduli of the off-diagonal entries."""
    return float(abs(rho[0, 1]) + abs(rho[1, 0]))


def _log_psd(rho: np.ndarray) -> np.ndarray:
    """Matrix log on the support (of each of a stack); eigenvalues off it floored at 1e-300."""
    w, v = np.linalg.eigh(hermitize(rho))
    return (v * np.log(np.clip(w, 1e-300, None))[..., None, :]) @ dagger(v)


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """D(rho || sigma) = Tr[rho (ln rho - ln sigma)] of each pair of a stack; +inf on a
    support mismatch."""
    rho = hermitize(rho)
    ws, vs = np.linalg.eigh(hermitize(sigma))
    # support check, per pair: rho must not populate the kernel of sigma
    ker = np.abs(ws) <= 1e-14
    overlap = np.abs(dagger(vs) @ rho @ vs) * (ker[..., :, None] & ker[..., None, :])
    mismatch = overlap.max(axis=(-2, -1)) > 1e-12
    d = -entropy(rho) - np.trace(rho @ _log_psd(sigma), axis1=-2, axis2=-1).real
    return np.where(mismatch, math.inf, d)


def mutual_information(joint: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """I(S:A) = S(rho_S) + S(rho_A) - S(rho_SA) >= 0 (of each of a stack)."""
    return (entropy(partial_trace(joint, dims, "S")) + entropy(partial_trace(joint, dims, "A"))
            - entropy(joint))


def entropy_production_collision(rho_s_before: np.ndarray, joint_after: np.ndarray,
                                 ancilla) -> tuple[np.ndarray, dict]:
    """Entropy production of one collision (or of each of a stack), with its two
    information forms.

    Returns (sigma, checks): sigma = dS_sys + beta * Q from the joint state,
    and checks holds D(rho_SA' || rho_S' (x) rho_A^th) and
    I(S:A)' + D(rho_A' || rho_A^th) (Esposito, Lindenberg & Van den Broeck,
    NJP 12, 013013 (2010)). At infinite beta the relative entropies are +inf
    and checks says so instead.
    """
    rho_th = density_matrix(ancilla.state)
    rho_s_after = partial_trace(joint_after, (2, 2), "S")
    rho_a_after = partial_trace(joint_after, (2, 2), "A")
    ds = entropy(rho_s_after) - entropy(rho_s_before)
    q = np.trace(ancilla.hamiltonian().matrix() @ (rho_a_after - rho_th), axis1=-2, axis2=-1).real
    sigma = entropy_production(ds, q, ancilla.beta)
    if np.isinf(ancilla.beta).any():
        return sigma, {"skipped": "infinite beta: relative entropy support mismatch"}
    return sigma, {
        "joint_relative_entropy": relative_entropy(joint_after, kron(rho_s_after, rho_th)),
        "mutual_information_form": (mutual_information(joint_after, (2, 2))
                                    + relative_entropy(rho_a_after, rho_th)),
    }


def weak_coupling_sigma_rate(states, hs, beta: float, dt: float) -> np.ndarray:
    """Weak-coupling diagnostic rate -d/dt D(rho_S(t) || gibbs(beta, H_S)).

    Finite differences (central in the interior) over Bloch vectors sampled
    every dt. It is the entropy production rate only in the weak-coupling
    limit; against the per-collision sigma it shows where that limit stops
    applying.
    """
    ref = density_matrix(gibbs_state(hs, beta))
    return -np.gradient(relative_entropy(density_matrix(states), ref), dt)


def coupling_to_ssc(spec) -> SscAngles:
    """Recover (alpha, gamma, magnitude) from an SSC-family CouplingSpec."""
    j_x, j_y, j_zy = spec.j[0, 0], spec.j[1, 1], spec.j[2, 1]
    perp = math.hypot(j_x, j_y)
    return SscAngles(math.atan2(j_zy, perp), math.atan2(j_y, j_x), math.hypot(perp, j_zy))


@pytest.fixture(scope="session")
def figure_outputs(tmp_path_factory):
    """Run the three figure commands once and share their outputs."""
    out = tmp_path_factory.mktemp("figures")
    timings = {}
    t0 = time.perf_counter()
    fig3_paths = cmd_fig3(str(out))
    timings["fig3"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    fig5_paths = cmd_fig5(str(out))
    timings["fig5"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    ergo_paths = cmd_ergotropy_surface(str(out))
    timings["ergotropy"] = time.perf_counter() - t0
    return {"dir": out, "fig3": fig3_paths, "fig5": fig5_paths,
            "ergotropy": ergo_paths, "timings": timings}
