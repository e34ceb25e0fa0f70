import math

import numpy as np
import pytest

import collisim.cli as cli
from collisim.lindblad import steady_state_of
from collisim.model import (AncillaPrep, QubitHamiltonian, bloch_state,
                            diagonal_coupling, gibbs_state, pure_state,
                            ssc_coupling)
from collisim.observables import effective_beta, ergotropy, l1_coherence, make_report

MIXED = np.zeros(3)

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
    assert effective_beta(MIXED, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_effective_beta_gibbs_roundtrip():
    for beta in np.linspace(-5, 5, 21):
        r = gibbs_state(HS, float(beta))
        assert effective_beta(r, 1.0) == pytest.approx(beta, abs=1e-10)


def test_effective_beta_sentinels():
    assert effective_beta(bloch_state(0.0, 0.0, -1.0), 1.0) == np.inf    # p_e = 0
    assert effective_beta(bloch_state(0.0, 0.0, 1.0), 1.0) == -np.inf    # p_g = 0


def test_effective_beta_degenerate_hamiltonian_is_nan():
    # no temperature without level splitting, for a report and for a trajectory row
    assert math.isnan(effective_beta(MIXED, 0.0))
    assert np.all(np.isnan(effective_beta(np.array([MIXED, [0.0, 0.0, 1.0]]), 0.0)))
    rep = make_report(gibbs_state(HS, 1.0), QubitHamiltonian(0.0), method="kernel",
                      residual=0.0, degenerate=False)
    assert np.isnan(rep.beta_eff)
    # the trajectory table's column goes through the same function
    assert cli._safe_beta_eff is effective_beta


@pytest.mark.parametrize("omega_s", [2.0, -2.0])
def test_effective_beta_negative_frequency_and_vanishing_populations(omega_s):
    # ln(p_g/p_e)/omega_s; at a vanishing population the sign is that of the
    # limit, so for omega_s < 0 (|e> the lower level) a state with p_e = 0,
    # all weight on the upper level, has beta_eff = -inf
    sign = math.copysign(1.0, omega_s)
    r = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0 + 1e-10],
                  [0.0, 0.0, 0.5], [0.6, 0.0, 0.0]])
    got = effective_beta(r, omega_s)
    assert got[0] == sign * np.inf
    assert got[1] == got[2] == -sign * np.inf     # |z| past 1 by round-off: p_g = 0
    assert got[3] == pytest.approx(math.log(0.25 / 0.75) / omega_s, rel=1e-15)
    assert got[4] == 0.0
    # a Gibbs state of H = (omega_s/2) sigma_z at beta has beta_eff = beta, either sign of omega_s
    for beta in (-3.0, 0.5, 4.0):
        assert effective_beta(gibbs_state(QubitHamiltonian(omega_s), beta), omega_s) == \
            pytest.approx(beta, rel=1e-12)


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
    assert l1_coherence(bloch_state(0.0, 0.0, -0.4)) == 0.0


def test_l1_coherence_plus_state():
    assert l1_coherence(pure_state(np.pi / 4)) == pytest.approx(1.0, abs=1e-12)


def test_l1_coherence_zero_iff_diagonal():
    # off-diagonal entries (x - i y)/2 and (x + i y)/2
    assert l1_coherence(bloch_state(2e-13, 0.0, 0.0)) < 1e-12
    assert l1_coherence(bloch_state(2e-3, 0.0, 0.0)) == pytest.approx(2e-3)
    assert l1_coherence(bloch_state(0.0, 1.2e-3, 0.0)) == pytest.approx(1.2e-3)


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
        r = gibbs_state(HS, beta)
        assert ergotropy(r, HS.omega) <= 1e-12
        assert ergotropy(r, HS.omega) <= 1e-10


def test_ergotropy_inverted_state():
    assert ergotropy(bloch_state(0.0, 0.0, 1.0), HS.omega) == pytest.approx(1.0, abs=1e-14)


def test_ergotropy_plus_state():
    # H = 0.5 sigma_z is omega = 1
    assert ergotropy(pure_state(np.pi / 4), 1.0) == pytest.approx(0.5, abs=1e-12)


def test_ergotropy_maximally_mixed_passive():
    assert ergotropy(MIXED, HS.omega) <= 1e-10


def test_ergotropy_invariant_under_commuting_unitaries():
    # a unitary commuting with sigma_z rotates the Bloch vector about z
    rng = np.random.default_rng(71)
    for _ in range(20):
        r = rng.normal(size=3)
        r *= rng.uniform(0, 1) / np.linalg.norm(r)
        phase = rng.uniform(0, 2 * np.pi)
        c, s = np.cos(phase), np.sin(phase)
        rotated = np.array([c * r[0] - s * r[1], s * r[0] + c * r[1], r[2]])
        assert ergotropy(rotated, HS.omega) == pytest.approx(ergotropy(r, HS.omega), abs=1e-12)


def test_ergotropy_zero_iff_passive_on_diagonal_grid():
    for p_e in np.linspace(0.0, 1.0, 21):
        e = ergotropy(bloch_state(0.0, 0.0, 2 * p_e - 1), HS.omega)
        if p_e <= 0.5:
            assert e <= 1e-12
        else:
            assert e == pytest.approx(2 * p_e - 1, abs=1e-12)


def test_inverted_ness_is_active():
    anc = AncillaPrep(beta=1.0, omega_a=1.0)
    rep = steady_state_of(diagonal_coupling(1.0, -0.5, dt=0.05), HS, anc)
    assert rep.beta_eff < 0
    assert ergotropy(rep.r_star, HS.omega) > 1e-10


def test_report_suppresses_beta_eff_for_coherent_states():
    rho = pure_state(np.pi / 3)
    rep = make_report(rho, HS, method="kernel", residual=0.0, degenerate=False)
    assert np.isnan(rep.beta_eff)
    assert rep.coherence_l1 > 0.5
    rep2 = make_report(gibbs_state(HS, 1.0), HS, method="kernel",
                       residual=0.0, degenerate=False)
    assert rep2.beta_eff == pytest.approx(1.0, abs=1e-12)
