"""Reference physics built apart from collisim, for the output checks.

Everything here is written from the conventions in the repository README
(basis (|e>, |g>), H = (omega/2) sigma_z, H_SA = s * sum J_lm sigma_l (x) sigma_m
with s = dt**-0.5, ledger signs W = Tr[(H_SA - U^dag H_SA U) rho (x) rho_A],
Q = Tr[(U^dag H_A U - H_A) rho (x) rho_A]) with numpy and scipy.linalg.expm.
It imports nothing from collisim.

States are handled as row-major 4-vectors (rho.ravel()); every linear map
or functional of the state is a 4x4 matrix or a 4-vector in that basis.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

I2 = np.eye(2, dtype=complex)
PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]], dtype=complex),
         np.array([[1, 0], [0, -1]], dtype=complex))
BASIS = [np.eye(4, dtype=complex)[k].reshape(2, 2) for k in range(4)]


def thermal(omega: float, beta: float) -> np.ndarray:
    """diag(p_e, p_g) with p_e / p_g = exp(-beta * omega); finite beta only."""
    p_e = 0.5 * (1.0 - math.tanh(beta * omega / 2.0))
    return np.diag([p_e, 1.0 - p_e]).astype(complex)


def j_matrix(coupling: dict) -> np.ndarray:
    """3x3 J from a run config's coupling section (Pauli-pair keys or SSC angles)."""
    j = np.zeros((3, 3))
    if "ssc" in coupling:
        s = coupling["ssc"]
        m = s.get("magnitude", 1.0)
        j[0, 0] = m * math.cos(s["alpha"]) * math.cos(s["gamma"])
        j[1, 1] = m * math.cos(s["alpha"]) * math.sin(s["gamma"])
        j[2, 1] = m * math.sin(s["alpha"])
    else:
        for key, value in coupling["j"].items():
            j["xyz".index(key[0]), "xyz".index(key[1])] = value
    return j


def interaction(j: np.ndarray) -> np.ndarray:
    return sum(j[l, m] * np.kron(PAULI[l], PAULI[m])
               for l in range(3) for m in range(3))


def _ptrace_a(x: np.ndarray) -> np.ndarray:
    return x.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)


class Model:
    """One collision of a qubit with a fresh thermal ancilla, built with expm."""

    def __init__(self, omega_s: float, omega_a: float, beta: float,
                 j: np.ndarray, dt: float):
        self.omega_s, self.beta, self.dt = omega_s, beta, dt
        hs = omega_s / 2 * PAULI[2]
        ha_full = np.kron(I2, omega_a / 2 * PAULI[2])
        v0 = interaction(j)                 # g0-level coupling
        v = v0 / math.sqrt(dt)              # sqrt_dt scaling
        h0 = np.kron(hs, I2) + ha_full
        u = scipy.linalg.expm(-1j * dt * (h0 + v))
        ud = u.conj().T
        self.rho_a = thermal(omega_a, beta)
        # one-collision map on row-major state vectors
        self.phi = np.column_stack(
            [_ptrace_a(u @ np.kron(e, self.rho_a) @ ud).ravel() for e in BASIS])
        # linear functionals rho -> Tr[M (rho (x) rho_A)] as row vectors

        def functional(m):
            return np.array([np.trace(m @ np.kron(e, self.rho_a)) for e in BASIS])
        self.k_w = functional(v - ud @ v @ u)
        self.k_q = functional(ud @ ha_full @ u - ha_full)

        def current_kernel(h):
            v2 = v0 @ v0
            return v0 @ h @ v0 - 0.5 * (v2 @ h + h @ v2)
        self.k_cw = functional(current_kernel(h0))
        self.k_cq = functional(current_kernel(ha_full))
        # continuous-limit generator -i[H_S, .] - (1/2) Tr_A[V0, [V0, . (x) rho_A]]

        def gen(e):
            x = np.kron(e, self.rho_a)
            inner = v0 @ x - x @ v0
            return -1j * (hs @ e - e @ hs) - 0.5 * _ptrace_a(v0 @ inner - inner @ v0)
        self.generator = np.column_stack([gen(e).ravel() for e in BASIS])

    def states(self, rho0: np.ndarray, n: int) -> np.ndarray:
        """(n+1, 4) array of rho_0 ... rho_n by repeated application of the map."""
        out = np.empty((n + 1, 4), dtype=complex)
        out[0] = rho0.ravel()
        phi = self.phi
        for k in range(n):
            out[k + 1] = phi @ out[k]
        return out

    def final_state(self, rho0: np.ndarray, n: int) -> np.ndarray:
        return (np.linalg.matrix_power(self.phi, n) @ rho0.ravel()).reshape(2, 2)

    def columns(self, rho0: np.ndarray, n: int) -> dict[str, np.ndarray]:
        """Every trajectory column, computed from this model alone."""
        st = self.states(rho0, n)
        p_e, p_g, c = st[:, 0].real, st[:, 3].real, st[:, 1]
        x, y, z = 2 * c.real, -2 * c.imag, p_e - p_g
        r = np.sqrt(x * x + y * y + z * z)
        dt, w_s = self.dt, self.omega_s
        zero = np.zeros(1)
        w = np.concatenate([zero, self._apply(self.k_w, st[:-1])])
        q = np.concatenate([zero, self._apply(self.k_q, st[:-1])])
        energy = w_s / 2 * z
        entropy = bloch_entropy(r)
        de_s = np.concatenate([zero, np.diff(energy)])
        ds = np.concatenate([zero, np.diff(entropy)])
        sigma = ds + self.beta * q
        with np.errstate(divide="ignore", invalid="ignore"):
            beta_eff = (np.log(p_g / p_e) / w_s if w_s != 0
                        else np.full(n + 1, math.nan))
        cols = {
            "n": np.arange(n + 1, dtype=float), "t": np.arange(n + 1) * dt,
            "pop_e": p_e, "pop_g": p_g, "coh_re": c.real, "coh_im": c.imag,
            "beta_eff": beta_eff, "coherence_l1": 2 * np.abs(c),
            "ergotropy": bloch_ergotropy(w_s, z, r),
            "w": w, "q": q, "de_s": de_s, "ds": ds, "sigma": sigma,
            "cum_w": np.cumsum(w), "cum_q": np.cumsum(q), "cum_sigma": np.cumsum(sigma),
            "rate_w": w / dt, "rate_q": q / dt, "rate_sigma": sigma / dt,
            "current_w": self._apply(self.k_cw, st), "current_q": self._apply(self.k_cq, st),
        }
        return cols

    @staticmethod
    def _apply(k: np.ndarray, st: np.ndarray) -> np.ndarray:
        return (st @ k).real

    def fixed_point_step(self, rho: np.ndarray) -> float:
        """Trace distance between rho and one more collision applied to it."""
        return trace_distance((self.phi @ rho.ravel()).reshape(2, 2), rho)


def bloch_entropy(r: np.ndarray) -> np.ndarray:
    """Von Neumann entropy from the Bloch length, eigenvalues (1 +- r)/2."""
    out = np.zeros_like(r)
    for sign in (1.0, -1.0):
        lam = (1.0 + sign * r) / 2.0
        pos = lam > 0
        out[pos] -= lam[pos] * np.log(lam[pos])
    return out


def bloch_ergotropy(omega: float, z, r):
    """(omega/2)(z + |r|) for omega > 0; zero for a degenerate Hamiltonian."""
    if omega == 0:
        return np.zeros_like(np.asarray(r, dtype=float))
    return omega / 2 * (np.asarray(z) + np.asarray(r))


def state_ergotropy(rho: np.ndarray, omega: float) -> float:
    z = (rho[0, 0] - rho[1, 1]).real
    r = math.sqrt(z * z + 4 * abs(rho[0, 1]) ** 2)
    return float(bloch_ergotropy(omega, z, r))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of the difference of two 2x2 Hermitian matrices."""
    d = a - b
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh((d + d.conj().T) / 2))))


def beta_eff_closed_form(beta: float, ratio: float) -> float:
    """Kernel beta_eff of J_x sxsx + J_y sysy at omega_s = omega_a = 1, r = J_y/J_x."""
    a, b = (1 + ratio) ** 2, (1 - ratio) ** 2
    e = math.exp(-beta)
    return math.log((a + b * e) / (a * e + b))
