import numpy as np
import pytest

from collisim.linalg import (PSD_TOL, NotAStateError, check_density, clamp_to_density,
                             exp_minus_i, kron, trace_distance)
from collisim.model import I2, PAULI4, SIGMA_X, SIGMA_Z, density_matrix

from conftest import (PAULI_BASIS, bloch_vector, eigen_trace_distance, matrices_close,
                      partial_trace, random_bloch, random_density, random_hermitian)

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


@pytest.mark.parametrize("keep", ["system", "s", "ancilla", "a", "B"])
def test_partial_trace_accepts_only_s_and_a_tags(keep):
    with pytest.raises(ValueError, match="unknown subsystem tag"):
        partial_trace(np.eye(4, dtype=complex) / 4, (2, 2), keep)


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


def test_check_density_rejects_a_vector_outside_the_ball():
    # eigenvalues (1 +- |r|)/2: |r| = 1.2 has the eigenvalue -0.1
    with pytest.raises(NotAStateError, match="eigenvalue -1.000e-01"):
        check_density(np.array([0.0, 0.72, 0.96]))
    with pytest.raises(NotAStateError):
        check_density(np.array([[0.0, 0.0, 0.5], [np.nan, 0.0, 0.0]]))
    assert check_density(np.array([0.0, 0.0, 1.0 + 2 * PSD_TOL])) == pytest.approx(1.0)


def test_clamp_to_density_fixes_round_off():
    r = np.array([0.0, 0.0, 1.0 + 1e-10])     # eigenvalues 1 + 5e-11 and -5e-11
    fixed = clamp_to_density(r)
    assert np.linalg.eigvalsh(density_matrix(fixed)).min() >= -1e-16
    assert np.linalg.norm(fixed) == pytest.approx(1.0, abs=1e-15)
    inside = np.array([0.3, -0.2, 0.1])
    assert clamp_to_density(inside) is inside


def test_clamp_to_density_rejects_genuinely_negative():
    with pytest.raises(NotAStateError):
        clamp_to_density(np.array([0.0, 0.0, 1.4]))     # eigenvalue -0.2


def test_trace_distance_basics():
    a, b = np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])
    assert trace_distance(a, b) == pytest.approx(1.0)
    assert trace_distance(a, a) == pytest.approx(0.0)
    rng = np.random.default_rng(20)
    for _ in range(20):
        rho, sigma = random_density(2, rng), random_density(2, rng)
        assert trace_distance(bloch_vector(rho), bloch_vector(sigma)) == pytest.approx(
            eigen_trace_distance(rho, sigma), abs=1e-14)


def test_vec_unvec_roundtrip_and_convention():
    # the generator's matrix is L on column-stacked states written in the
    # orthonormal PAULI_BASIS / sqrt(2), in which rho = (I + r . sigma)/2
    # reads (1, r)/sqrt(2)
    rng = np.random.default_rng(19)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = random_density(2, rng)

    def vec(m):
        return m.T.ravel()
    # column stacking: vec(A rho B) = (B^T kron A) vec(rho)
    assert np.max(np.abs(vec(a @ rho @ b) - kron(b.T, a) @ vec(rho))) < 1e-12
    basis = PAULI_BASIS / np.sqrt(2)
    assert matrices_close(basis.conj().T @ basis, np.eye(4), 1e-15)
    for mu in range(4):
        assert np.array_equal(PAULI_BASIS[:, mu], vec(PAULI4[mu]))
    r = random_bloch(rng)
    assert np.max(np.abs(basis.conj().T @ vec(density_matrix(r))
                         - np.r_[1.0, r] / np.sqrt(2))) < 1e-15
    assert matrices_close(density_matrix(bloch_vector(rho)), rho, 1e-15)
