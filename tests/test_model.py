import numpy as np
import pytest

import scipy.linalg

from collisim.linalg import kron
from collisim.model import (I2, SIGMA_X, AncillaPrep, CouplingSpec,
                            QubitHamiltonian, SscAngles, bloch_state,
                            build_interaction, collision_unitary, density_matrix,
                            diagonal_coupling, gibbs_state, pure_state,
                            ssc_coupling, ssc_to_coupling)

from conftest import coupling_to_ssc, matrices_close, partial_trace, random_density

SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)  # |g><e|
SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=complex)   # |e><g|

TANH_HALF = np.tanh(0.5)  # 0.46211715726...


def test_gibbs_infinite_temperature():
    assert matrices_close(density_matrix(gibbs_state(QubitHamiltonian(1.0), 0.0)), I2 / 2, 1e-14)


def test_gibbs_closed_form_beta_one():
    assert matrices_close(gibbs_state(QubitHamiltonian(1.0), 1.0), [0.0, 0.0, -TANH_HALF], 1e-16)
    rho = density_matrix(gibbs_state(QubitHamiltonian(1.0), 1.0))
    expected = np.diag([(1 - TANH_HALF) / 2, (1 + TANH_HALF) / 2])
    assert matrices_close(rho, expected, 1e-12)
    assert rho[0, 0].real == pytest.approx(0.268941, abs=1e-6)
    assert rho[1, 1].real == pytest.approx(0.731059, abs=1e-6)


def test_gibbs_zero_temperature_projects_on_ground():
    rho = density_matrix(gibbs_state(QubitHamiltonian(1.0), np.inf))
    assert matrices_close(rho, np.diag([0.0, 1.0]), 1e-14)


def test_gibbs_negative_infinite_beta():
    rho = density_matrix(gibbs_state(QubitHamiltonian(1.0), -np.inf))
    assert matrices_close(rho, np.diag([1.0, 0.0]), 1e-14)


def test_gibbs_infinite_beta_degenerate_errors():
    with pytest.raises(ValueError, match="ill-defined zero-temperature"):
        gibbs_state(QubitHamiltonian(0.0), np.inf)


def test_gibbs_negative_beta_inverts_populations():
    rho = density_matrix(gibbs_state(QubitHamiltonian(1.0), -2.0))
    assert rho[0, 0].real > rho[1, 1].real


def test_gibbs_large_beta_no_overflow():
    rho = density_matrix(gibbs_state(QubitHamiltonian(3.0), 500.0))
    assert np.all(np.isfinite(rho))
    assert rho[1, 1].real == pytest.approx(1.0, abs=1e-12)


def test_gibbs_commutes_with_hamiltonian():
    # the closed form against exp(-beta H)/Z, which commutes with H
    rng = np.random.default_rng(21)
    for _ in range(20):
        h = QubitHamiltonian(rng.uniform(-3, 3))
        beta = rng.uniform(-3, 3)
        rho = density_matrix(gibbs_state(h, beta))
        expected = scipy.linalg.expm(-beta * h.matrix())
        assert matrices_close(rho, expected / np.trace(expected), 1e-12)
        assert matrices_close(h.matrix() @ rho, rho @ h.matrix(), 1e-12)


def test_build_interaction_single_term():
    spec = diagonal_coupling(1.0, 0.0, dt=1.0, scaling="none")
    assert matrices_close(build_interaction(spec), kron(SIGMA_X, SIGMA_X), 1e-15)


def test_build_interaction_energy_preserving_form():
    # sx sx + sy sy expands to 2(s+ s- + s- s+)
    spec = diagonal_coupling(1.0, 1.0, dt=1.0, scaling="none")
    expected = 2 * (kron(SIGMA_PLUS, SIGMA_MINUS) + kron(SIGMA_MINUS, SIGMA_PLUS))
    assert matrices_close(build_interaction(spec), expected, 1e-15)


def test_build_interaction_sqrt_dt_scaling():
    spec = diagonal_coupling(1.0, 0.0, dt=0.04, scaling="sqrt_dt")
    assert matrices_close(build_interaction(spec), 5.0 * kron(SIGMA_X, SIGMA_X), 1e-12)


def test_interaction_zero_thermal_odd_moment():
    # families without a sigma_z ancilla column have traceless ancilla factors
    rng = np.random.default_rng(22)
    rho_th = density_matrix(gibbs_state(QubitHamiltonian(1.0), 1.3))
    for _ in range(25):
        j = np.zeros((3, 3))
        j[:, 0] = rng.uniform(-2, 2, 3)
        j[:, 1] = rng.uniform(-2, 2, 3)
        spec = CouplingSpec(j, dt=1.0, scaling="none")
        v = build_interaction(spec)
        first_moment = partial_trace(v @ kron(I2, rho_th), (2, 2), "S")
        assert np.max(np.abs(first_moment)) < 1e-12


def test_ssc_angles_to_coupling_diagonal_case():
    spec = ssc_to_coupling(SscAngles(0.0, np.pi / 4, np.sqrt(2)), dt=1.0)
    assert spec.j[0, 0] == pytest.approx(1.0)
    assert spec.j[1, 1] == pytest.approx(1.0)
    assert spec.j[2, 1] == pytest.approx(0.0, abs=1e-15)


def test_ssc_angles_near_parallel_limit():
    spec = ssc_to_coupling(SscAngles(np.pi / 2 - 1e-9, 0.0), dt=1.0)
    assert spec.j[2, 1] == pytest.approx(1.0, abs=1e-9)
    assert abs(spec.j[0, 0]) < 1e-8


def test_ssc_fig5_geometry():
    # alpha = pi/4, gamma = atan(1/2), perpendicular norm 1 -> J_zy = 1, J_x = 2 J_y
    gamma = np.arctan(0.5)
    spec = ssc_to_coupling(SscAngles(np.pi / 4, gamma, np.sqrt(2)), dt=1.0)
    assert np.hypot(spec.j[0, 0], spec.j[1, 1]) == pytest.approx(1.0)
    assert spec.j[2, 1] == pytest.approx(1.0)
    assert spec.j[0, 0] == pytest.approx(2 * spec.j[1, 1])


def test_ssc_roundtrip():
    rng = np.random.default_rng(23)
    for _ in range(50):
        angles = SscAngles(rng.uniform(0, np.pi / 2 * 0.999),
                           rng.uniform(-np.pi, np.pi),
                           rng.uniform(0.1, 3.0))
        spec = ssc_to_coupling(angles, dt=0.1)
        back = coupling_to_ssc(spec)
        assert back.alpha == pytest.approx(angles.alpha, abs=1e-12)
        assert back.gamma == pytest.approx(angles.gamma, abs=1e-12)
        assert back.magnitude == pytest.approx(angles.magnitude, abs=1e-12)


def test_ssc_roundtrip_pure_parallel_member():
    # the pure sigma_z sigma_y coupling sits at alpha = pi/2, inside the range
    spec = ssc_coupling(0.0, 0.0, 1.0, dt=0.05)
    angles = coupling_to_ssc(spec)
    assert angles.alpha == np.pi / 2
    assert angles.magnitude == 1.0
    assert matrices_close(ssc_to_coupling(angles, dt=0.05).j, spec.j, 1e-15)


def _total_hamiltonian(hs, ha, hsa):
    """H_S (x) I + I (x) H_A + H_SA, whose exp(-i dt .) collision_unitary must give."""
    return kron(hs.matrix(), I2) + kron(I2, ha.matrix()) + hsa


def test_collision_unitary_factorizes_without_interaction():
    hs, ha = QubitHamiltonian(1.3), QubitHamiltonian(0.7)
    dt = 0.25
    u = collision_unitary(hs, ha, np.zeros((4, 4), dtype=complex), dt)
    from collisim.linalg import exp_minus_i
    expected = kron(exp_minus_i(hs.matrix(), dt), exp_minus_i(ha.matrix(), dt))
    assert matrices_close(u, expected, 1e-12)


def test_collision_unitary_zero_time():
    hs = QubitHamiltonian(1.0)
    hsa = build_interaction(diagonal_coupling(1.0, 0.5, dt=1.0, scaling="none"))
    assert matrices_close(collision_unitary(hs, hs, hsa, 0.0), np.eye(4), 1e-14)


def test_collision_unitary_commutes_with_generator():
    hs, ha = QubitHamiltonian(1.0), QubitHamiltonian(1.0)
    spec = diagonal_coupling(0.8, 0.3, dt=0.05)
    hsa = build_interaction(spec)
    htot = _total_hamiltonian(hs, ha, hsa)
    u = collision_unitary(hs, ha, hsa, spec.dt)
    assert matrices_close(u @ htot, htot @ u, 1e-10)


def test_energy_preserving_interaction_commutes_with_bare_hamiltonian():
    hs = QubitHamiltonian(1.0)
    hsa = build_interaction(diagonal_coupling(1.0, 1.0, dt=0.05))
    h0 = _total_hamiltonian(hs, hs, np.zeros((4, 4), dtype=complex))
    comm = hsa @ h0 - h0 @ hsa
    assert np.max(np.abs(comm)) < 1e-10
    u = collision_unitary(hs, hs, hsa, 0.05)
    assert matrices_close(u.conj().T @ h0 @ u, h0, 1e-10)


def test_collision_unitary_conserves_total_energy():
    rng = np.random.default_rng(24)
    hs, ha = QubitHamiltonian(1.0), QubitHamiltonian(1.0)
    spec = ssc_coupling(0.9, -0.4, 0.6, dt=0.05)
    hsa = build_interaction(spec)
    htot = _total_hamiltonian(hs, ha, hsa)
    u = collision_unitary(hs, ha, hsa, spec.dt)
    for _ in range(20):
        rho = random_density(4, rng)
        before = np.trace(htot @ rho).real
        after = np.trace(htot @ (u @ rho @ u.conj().T)).real
        assert after == pytest.approx(before, abs=1e-10)


def test_bloch_state_validation():
    rho = density_matrix(bloch_state(0.0, 0.0, 1.0))
    assert matrices_close(rho, np.diag([1.0, 0.0]), 1e-14)
    with pytest.raises(ValueError, match="norm"):
        bloch_state(1.0, 1.0, 1.0)


def test_pure_state_fig3_angle():
    theta = 15 * np.pi / 16
    rho = density_matrix(pure_state(theta, 0.7))
    ket = np.array([np.cos(theta), np.exp(0.7j) * np.sin(theta)])
    assert matrices_close(rho, np.outer(ket, ket.conj()), 1e-15)
    assert rho[0, 0].real == pytest.approx(np.cos(theta) ** 2)
    assert np.trace(rho @ rho).real == pytest.approx(1.0)


def test_coupling_spec_validation():
    with pytest.raises(ValueError):
        CouplingSpec(np.zeros((2, 2)), dt=0.1)
    with pytest.raises(ValueError):
        CouplingSpec(np.zeros((3, 3)), dt=-0.1)
    with pytest.raises(ValueError):
        CouplingSpec(np.full((3, 3), np.nan), dt=0.1)
    with pytest.raises(ValueError):
        CouplingSpec(np.zeros((3, 3)), dt=0.1, scaling="linear")


def test_ancilla_prep_state_matches_gibbs():
    prep = AncillaPrep(beta=2.0, omega_a=1.5)
    assert matrices_close(prep.state, gibbs_state(QubitHamiltonian(1.5), 2.0), 1e-14)
    assert prep.state is prep.state     # built once per ancilla
