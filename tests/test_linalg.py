import numpy as np
import pytest

from collisim.linalg import (NotAStateError, check_density, clamp_to_density,
                             exp_minus_i, herm_eig, kron, matrices_close,
                             partial_trace, trace_distance, unvec, vec)
from collisim.model import I2, SIGMA_X, SIGMA_Z

from conftest import random_density, random_hermitian

I4 = np.eye(4, dtype=complex)


def test_kron_identity():
    assert matrices_close(kron(I2, I2), I4, 1e-15)


def test_kron_sigma_z_identity():
    assert matrices_close(kron(SIGMA_Z, I2), np.diag([1, 1, -1, -1]), 1e-15)


def test_kron_sigma_x_sigma_x():
    # hand expansion: (sx)_{ij} (sx)_{kl} puts ones on the antidiagonal
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3] = expected[1, 2] = expected[2, 1] = expected[3, 0] = 1
    assert matrices_close(kron(SIGMA_X, SIGMA_X), expected, 1e-15)


def test_kron_index_convention():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    k = kron(a, b)
    for i in range(2):
        for j in range(2):
            for l in range(2):
                for m in range(2):
                    assert k[i * 2 + l, j * 2 + m] == pytest.approx(a[i, j] * b[l, m])


def test_kron_associative():
    rng = np.random.default_rng(10)
    a, b, c = (random_hermitian(2, rng) for _ in range(3))
    assert matrices_close(kron(kron(a, b), c), kron(a, kron(b, c)), 1e-12)


def test_kron_trace_multiplicative():
    rng = np.random.default_rng(12)
    for _ in range(50):
        a = random_hermitian(2, rng)
        b = random_hermitian(2, rng)
        assert np.trace(kron(a, b)) == pytest.approx(np.trace(a) * np.trace(b), abs=1e-12)


def test_partial_trace_product_state():
    rng = np.random.default_rng(13)
    for _ in range(20):
        rho_s = random_density(2, rng)
        rho_a = random_density(2, rng)
        joint = kron(rho_s, rho_a)
        assert matrices_close(partial_trace(joint, (2, 2), "S"), rho_s, 1e-12)
        assert matrices_close(partial_trace(joint, (2, 2), "A"), rho_a, 1e-12)


def test_partial_trace_bell_state():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    assert matrices_close(partial_trace(rho, (2, 2), "S"), I2 / 2, 1e-12)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(14)
    for _ in range(100):
        rho = random_density(4, rng)
        red = partial_trace(rho, (2, 2), "S")
        assert np.trace(red).real == pytest.approx(np.trace(rho).real, abs=1e-12)


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError, match="incompatible factorization"):
        partial_trace(np.eye(3, dtype=complex), (2, 2), "S")


def test_herm_eig_pauli_z():
    w, v = herm_eig(SIGMA_Z)
    assert np.allclose(w, [-1, 1])
    # ascending order: first column is |g>, second |e>, up to phase
    assert abs(v[1, 0]) == pytest.approx(1.0)
    assert abs(v[0, 1]) == pytest.approx(1.0)


def test_herm_eig_degenerate_identity():
    w, v = herm_eig(I2)
    assert np.allclose(w, [1, 1])
    assert matrices_close(v.conj().T @ v, I2, 1e-12)


def test_herm_eig_reconstruction_batch():
    rng = np.random.default_rng(15)
    for _ in range(1000):
        h = random_hermitian(4, rng, scale=10.0)
        w, v = herm_eig(h)
        assert np.all(np.diff(w) >= 0)
        recon = (v * w) @ v.conj().T
        assert matrices_close(recon, h, 1e-10)
        assert matrices_close(v.conj().T @ v, I4, 1e-10)


def test_exp_minus_i_zero_time():
    rng = np.random.default_rng(16)
    h = random_hermitian(4, rng)
    assert matrices_close(exp_minus_i(h, 0.0), I4, 1e-14)


def test_exp_minus_i_sigma_z_closed_form():
    # diag(e^{-it}, e^{+it}): -i sigma_z at t = pi/2, -I at t = pi
    assert matrices_close(exp_minus_i(SIGMA_Z, np.pi / 2),
                          np.diag([-1j, 1j]), 1e-12)
    assert matrices_close(exp_minus_i(SIGMA_Z, np.pi), -I2, 1e-12)


def test_exp_minus_i_sigma_x_half_pi():
    # cos(pi/2) I - i sin(pi/2) sx = -i sx
    assert matrices_close(exp_minus_i(SIGMA_X, np.pi / 2), -1j * SIGMA_X, 1e-12)


def test_exp_minus_i_group_property():
    rng = np.random.default_rng(17)
    for _ in range(50):
        h = random_hermitian(4, rng)
        s, t = rng.uniform(-3, 3, 2)
        assert matrices_close(exp_minus_i(h, s) @ exp_minus_i(h, t),
                              exp_minus_i(h, s + t), 1e-9)


def test_exp_minus_i_unitary():
    rng = np.random.default_rng(18)
    for _ in range(100):
        u = exp_minus_i(random_hermitian(4, rng, scale=5.0), rng.uniform(0, 2))
        assert matrices_close(u.conj().T @ u, I4, 1e-10)


def test_check_density_rejects_trace():
    with pytest.raises(NotAStateError):
        check_density(np.diag([0.6, 0.6]).astype(complex))


def test_clamp_to_density_fixes_round_off():
    rho = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
    fixed = clamp_to_density(rho)
    w = np.linalg.eigvalsh(fixed)
    assert w.min() >= 0
    assert np.trace(fixed).real == pytest.approx(1.0, abs=1e-14)


def test_clamp_to_density_rejects_genuinely_negative():
    with pytest.raises(NotAStateError):
        clamp_to_density(np.diag([1.2, -0.2]).astype(complex))


def test_trace_distance_basics():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert trace_distance(a, b) == pytest.approx(1.0)
    assert trace_distance(a, a) == pytest.approx(0.0)


def test_vec_unvec_roundtrip_and_convention():
    rng = np.random.default_rng(19)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = random_density(2, rng)
    assert matrices_close(unvec(vec(rho)), rho, 1e-15)
    # column stacking: vec(A rho B) = (B^T kron A) vec(rho)
    lhs = vec(a @ rho @ b)
    rhs = kron(b.T, a) @ vec(rho)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
