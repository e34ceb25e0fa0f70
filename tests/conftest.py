import time

import numpy as np
import pytest

from collisim.cli import cmd_ergotropy_surface, cmd_fig3, cmd_fig5
from collisim.linalg import hermitize


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random Hermitian matrix with entries of order `scale`."""
    a = rng.uniform(-scale, scale, (dim, dim)) + 1j * rng.uniform(-scale, scale, (dim, dim))
    return hermitize(a)


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix (Hilbert-Schmidt-like measure)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


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
