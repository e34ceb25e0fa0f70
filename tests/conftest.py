import importlib.util
import math
import os
import time

import numpy as np
import pytest
import scipy.linalg

from collisim.cli import cmd_ergotropy_surface, cmd_fig3, cmd_fig5
from collisim.lindblad import vectorize
from collisim.linalg import clamp_to_density, dagger, hermitize, kron, partial_trace, unvec, vec
from collisim.model import SscAngles, gibbs_state
from collisim.thermo import entropy_production, spectral_entropy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name: str, path: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The benchmark's physics, rebuilt with numpy and scipy.linalg.expm apart from collisim.
reference = _load("perfbench_reference", os.path.join(ROOT, "perfbench", "reference.py"))


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random Hermitian matrix with entries of order `scale`."""
    a = rng.uniform(-scale, scale, (dim, dim)) + 1j * rng.uniform(-scale, scale, (dim, dim))
    return hermitize(a)


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix (Hilbert-Schmidt-like measure)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


# ----------------------------------------------------------------------------
# References the tests compare the library against. The CLI needs none of
# them: each recomputes on the joint state, or by a matrix exponential, what
# the library gets from the collision map Phi and the one-body operators.

def matrices_close(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """Max-norm comparison with an explicit absolute tolerance (never ==)."""
    return bool(np.max(np.abs(np.asarray(a) - np.asarray(b))) <= tol)


def collide_once(rho_s: np.ndarray, rho_a: np.ndarray,
                 u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One collision: joint unitary on rho_s (x) rho_a, then trace out the ancilla.

    The single-collision reference that the map Phi reproduces. Returns the
    next system state and the joint state after the collision.
    """
    if not matrices_close(dagger(u) @ u, np.eye(u.shape[0]), 1e-10):
        raise ValueError("invalid propagator: u is not unitary within 1e-10")
    joint_after = u @ kron(rho_s, rho_a) @ dagger(u)
    return clamp_to_density(partial_trace(joint_after, (2, 2), "S")), joint_after


def evolve_continuous(gen, rho0: np.ndarray, t: float) -> np.ndarray:
    """exp(t L) rho0, with scipy.linalg.expm of the vectorized generator."""
    prop = scipy.linalg.expm(t * vectorize(gen))
    return clamp_to_density(unvec(prop @ vec(rho0.astype(complex))))


def entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy -Tr[rho ln rho] in nats."""
    return float(spectral_entropy(np.linalg.eigvalsh(hermitize(rho))))


def _log_psd(rho: np.ndarray) -> np.ndarray:
    """Matrix log on the support; eigenvalues off it are floored at 1e-300."""
    w, v = np.linalg.eigh(hermitize(rho))
    return (v * np.log(np.clip(w, 1e-300, None))) @ dagger(v)


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """D(rho || sigma) = Tr[rho (ln rho - ln sigma)], +inf on support mismatch."""
    ws, vs = np.linalg.eigh(hermitize(sigma))
    # support check: rho must not populate the kernel of sigma
    ker = np.abs(ws) <= 1e-14
    if np.any(ker):
        overlap = dagger(vs[:, ker]) @ hermitize(rho) @ vs[:, ker]
        if np.max(np.abs(overlap)) > 1e-12:
            return math.inf
    return -entropy(rho) - float(np.trace(hermitize(rho) @ _log_psd(sigma)).real)


def mutual_information(joint: np.ndarray, dims: tuple[int, int]) -> float:
    """I(S:A) = S(rho_S) + S(rho_A) - S(rho_SA) >= 0."""
    return (entropy(partial_trace(joint, dims, "S")) + entropy(partial_trace(joint, dims, "A"))
            - entropy(joint))


def entropy_production_collision(rho_s_before: np.ndarray, joint_after: np.ndarray,
                                 ancilla) -> tuple[float, dict]:
    """Entropy production of one collision, with its two information forms.

    Returns (sigma, checks): sigma = dS_sys + beta * Q from the joint state,
    and checks holds D(rho_SA' || rho_S' (x) rho_A^th) and
    I(S:A)' + D(rho_A' || rho_A^th) (Esposito, Lindenberg & Van den Broeck,
    NJP 12, 013013 (2010)). At infinite beta the relative entropies are +inf
    and checks says so instead.
    """
    rho_th = ancilla.state()
    rho_s_after = partial_trace(joint_after, (2, 2), "S")
    rho_a_after = partial_trace(joint_after, (2, 2), "A")
    ds = entropy(rho_s_after) - entropy(rho_s_before)
    q = float(np.trace(ancilla.hamiltonian().matrix() @ (rho_a_after - rho_th)).real)
    sigma = float(entropy_production(ds, q, ancilla.beta))
    if math.isinf(ancilla.beta):
        return sigma, {"skipped": "infinite beta: relative entropy support mismatch"}
    return sigma, {
        "joint_relative_entropy": relative_entropy(joint_after, kron(rho_s_after, rho_th)),
        "mutual_information_form": (mutual_information(joint_after, (2, 2))
                                    + relative_entropy(rho_a_after, rho_th)),
    }


def weak_coupling_sigma_rate(states, hs, beta: float, dt: float) -> np.ndarray:
    """Weak-coupling diagnostic rate -d/dt D(rho_S(t) || gibbs(beta, H_S)).

    Finite differences (central in the interior) over states sampled every
    dt. It is the entropy production rate only in the weak-coupling limit;
    against the per-collision sigma it shows where that limit stops applying.
    """
    ref = gibbs_state(hs, beta)
    return -np.gradient(np.array([relative_entropy(rho, ref) for rho in states]), dt)


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
