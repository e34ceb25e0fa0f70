import numpy as np
import pytest

from collisim.lindblad import steady_state_of
from collisim.model import (I2, SIGMA_Z, AncillaPrep, QubitHamiltonian,
                            diagonal_coupling, gibbs_state, pure_state,
                            ssc_coupling)
from collisim.observables import (effective_beta, ergotropy, is_passive,
                                  l1_coherence, make_report)

HS = QubitHamiltonian(1.0)


def detailed_balance_beta_eff(j_x, j_y, beta, omega_a=1.0, omega_s=1.0):
    """Independent oracle: population ratio of the two dissipative channels.

    The xx+yy coupling decomposes into sigma-+ channels with thermal weights
    a = (J_x+J_y)^2 on the co-rotating and b = (J_x-J_y)^2 on the
    counter-rotating part, giving
        beta_eff * omega_s = ln[(a p_g + b p_e) / (a p_e + b p_g)]
    with (p_e, p_g) the ancilla thermal populations.
    """
    a = (j_x + j_y) ** 2
    b = (j_x - j_y) ** 2
    t = np.tanh(beta * omega_a / 2)
    p_e, p_g = (1 - t) / 2, (1 + t) / 2
    return np.log((a * p_g + b * p_e) / (a * p_e + b * p_g)) / omega_s


def test_effective_beta_maximally_mixed():
    assert effective_beta(I2 / 2, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_effective_beta_gibbs_roundtrip():
    for beta in np.linspace(-5, 5, 21):
        rho = gibbs_state(HS, float(beta))
        assert effective_beta(rho, 1.0) == pytest.approx(beta, abs=1e-10)


def test_effective_beta_sentinels():
    assert effective_beta(np.diag([0.0, 1.0]).astype(complex), 1.0) == np.inf
    assert effective_beta(np.diag([1.0, 0.0]).astype(complex), 1.0) == -np.inf


def test_effective_beta_degenerate_hamiltonian_errors():
    with pytest.raises(ValueError, match="degenerate"):
        effective_beta(I2 / 2, 0.0)


def test_effective_beta_matches_detailed_balance_oracle():
    # J_y/J_x = 1/2 at beta = 1: the rate-ratio formula gives 0.776
    anc = AncillaPrep(beta=1.0, omega_a=1.0)
    rep = steady_state_of(diagonal_coupling(1.0, 0.5, dt=0.05), HS, anc)
    oracle = detailed_balance_beta_eff(1.0, 0.5, 1.0)
    assert oracle == pytest.approx(0.776, abs=5e-4)
    assert rep.beta_eff == pytest.approx(oracle, abs=1e-10)


def test_effective_beta_bound_on_ratio_grid():
    # |beta_eff / beta| <= 1 for every coupling ratio and temperature
    for beta in (1.0, 3.0, 5.0):
        anc = AncillaPrep(beta=beta, omega_a=1.0)
        for ratio in np.linspace(-3, 3, 21):
            rep = steady_state_of(diagonal_coupling(1.0, float(ratio), dt=0.05),
                                  HS, anc)
            assert abs(rep.beta_eff / beta) <= 1 + 1e-6


def test_l1_coherence_diagonal_is_zero():
    assert l1_coherence(np.diag([0.3, 0.7]).astype(complex)) == 0.0


def test_l1_coherence_plus_state():
    assert l1_coherence(pure_state(np.pi / 4)) == pytest.approx(1.0, abs=1e-12)


def test_l1_coherence_zero_iff_diagonal():
    rho = np.array([[0.5, 1e-13], [1e-13, 0.5]], dtype=complex)
    assert l1_coherence(rho) < 1e-12
    rho2 = np.array([[0.5, 1e-3], [1e-3, 0.5]], dtype=complex)
    assert l1_coherence(rho2) == pytest.approx(2e-3)


def test_ssc_coherence_appears_only_with_both_components():
    anc = AncillaPrep(beta=1.0, omega_a=1.0)
    perp = np.hypot(1.0, 0.5)
    at = lambda j_zy: steady_state_of(ssc_coupling(1.0, 0.5, j_zy, dt=0.05),
                                      HS, anc).coherence_l1
    assert at(0.0) < 1e-10                 # no parallel term
    assert at(perp) > 0.3                  # balanced: alpha = pi/4
    # dephasing-dominated limit: coherence decays again
    assert at(20 * perp) < at(perp)


def test_ergotropy_thermal_states_are_passive():
    for beta in (0.5, 1.0, 3.0):
        rho = gibbs_state(HS, beta)
        assert ergotropy(rho, HS.matrix()) <= 1e-12
        assert is_passive(rho, HS.matrix())


def test_ergotropy_inverted_state():
    rho = np.diag([1.0, 0.0]).astype(complex)
    assert ergotropy(rho, HS.matrix()) == pytest.approx(1.0, abs=1e-14)


def test_ergotropy_plus_state():
    rho = pure_state(np.pi / 4)
    assert ergotropy(rho, 0.5 * SIGMA_Z) == pytest.approx(0.5, abs=1e-12)


def test_ergotropy_maximally_mixed_passive():
    assert is_passive(I2 / 2, HS.matrix())


def test_ergotropy_invariant_under_commuting_unitaries():
    rng = np.random.default_rng(71)
    for _ in range(20):
        rho = np.diag(sorted(rng.dirichlet([1, 1]))).astype(complex)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        u = np.diag([phase, 1.0])  # commutes with sigma_z
        rotated = u @ rho @ u.conj().T
        assert ergotropy(rotated, HS.matrix()) == pytest.approx(
            ergotropy(rho, HS.matrix()), abs=1e-12)


def test_ergotropy_zero_iff_passive_on_diagonal_grid():
    for p_e in np.linspace(0.0, 1.0, 21):
        rho = np.diag([p_e, 1 - p_e]).astype(complex)
        e = ergotropy(rho, HS.matrix())
        if p_e <= 0.5:
            assert e <= 1e-12
        else:
            assert e == pytest.approx(2 * p_e - 1, abs=1e-12)


def test_inverted_ness_is_active():
    anc = AncillaPrep(beta=1.0, omega_a=1.0)
    rep = steady_state_of(diagonal_coupling(1.0, -0.5, dt=0.05), HS, anc)
    assert rep.beta_eff < 0
    assert not is_passive(rep.rho_star, HS.matrix())


def test_report_suppresses_beta_eff_for_coherent_states():
    rho = pure_state(np.pi / 3)
    rep = make_report(rho, HS, method="kernel", residual=0.0, degenerate=False)
    assert rep.beta_eff is None
    assert rep.coherence_l1 > 0.5
    rep2 = make_report(gibbs_state(HS, 1.0), HS, method="kernel",
                       residual=0.0, degenerate=False)
    assert rep2.beta_eff == pytest.approx(1.0, abs=1e-12)
