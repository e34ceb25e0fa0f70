import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collisim.config import parse_run_config
from collisim.engine import CollisionConfig, run
from collisim.linalg import kron
from collisim.model import (I2, PAULIS, AncillaPrep, CouplingSpec,
                            QubitHamiltonian, bloch_state, build_interaction,
                            collision_unitary, density_matrix, diagonal_coupling,
                            gibbs_state, pure_state)
from collisim.thermo import current_evaluators

from conftest import (bloch_vector, collide_once, entropy, entropy_production_collision,
                      mutual_information, random_bloch, random_density, relative_entropy,
                      weak_coupling_sigma_rate, work_heat)

MIXED = np.zeros(3)

TANH_HALF = np.tanh(0.5)


def _random_coupling(rng, dt, zero_odd=True, scale=1.0):
    j = np.zeros((3, 3))
    cols = 2 if zero_odd else 3
    j[:, :cols] = rng.uniform(-scale, scale, (3, cols))
    return CouplingSpec(j, dt=dt)


def _collision_operators(coupling, omega_s=1.0, omega_a=1.0):
    hs, ha = QubitHamiltonian(omega_s), QubitHamiltonian(omega_a)
    hsa = build_interaction(coupling)
    u = collision_unitary(hs, ha, hsa, coupling.dt)
    return hs, ha, hsa, u


# ---------------------------------------------------------------- entropies

def test_entropy_maximally_mixed():
    assert entropy(I2 / 2) == pytest.approx(np.log(2), abs=1e-12)


def test_relative_entropy_of_itself_is_zero():
    rng = np.random.default_rng(31)
    for _ in range(10):
        rho = random_density(2, rng)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)


def test_relative_entropy_nonnegative():
    rng = np.random.default_rng(32)
    for _ in range(50):
        d = relative_entropy(random_density(2, rng), random_density(2, rng))
        assert d >= -1e-12


def test_relative_entropy_support_mismatch_is_inf():
    pure = np.diag([1.0, 0.0]).astype(complex)
    other = np.diag([0.0, 1.0]).astype(complex)
    assert relative_entropy(other, pure) == np.inf


def test_mutual_information_product_state_is_zero():
    rng = np.random.default_rng(33)
    joint = kron(random_density(2, rng), random_density(2, rng))
    assert mutual_information(joint, (2, 2)) == pytest.approx(0.0, abs=1e-12)


# ------------------------------------------------------- per-collision W, Q

def test_work_and_heat_vanish_for_identity_propagator():
    rng = np.random.default_rng(34)
    rho_s = random_bloch(rng)
    h = QubitHamiltonian(1.0)
    rho_a = gibbs_state(h, 1.0)
    u = np.eye(4, dtype=complex)
    assert work_heat(u, h, h, rho_a, rho_s) == (0.0, 0.0)


def test_energy_preserving_work_is_machine_zero():
    # [H_SA, H_S + H_A] = 0 exactly, so U^dag H_0 U = H_0 to round-off
    rng = np.random.default_rng(35)
    for dt in (0.5, 0.05, 0.001):
        coupling = diagonal_coupling(1.0, 1.0, dt=dt)
        hs, ha, hsa, u = _collision_operators(coupling)
        for _ in range(20):
            w, _ = work_heat(u, hs, ha, gibbs_state(ha, 1.0), random_bloch(rng))
            assert abs(w) < 1e-12


def test_first_law_random_couplings():
    # dE_S = W - Q exactly, any coupling (including nonzero odd moments)
    rng = np.random.default_rng(36)
    for _ in range(300):
        dt = 10 ** rng.uniform(-4, -0.5)
        coupling = _random_coupling(rng, dt, zero_odd=bool(rng.integers(2)), scale=1.5)
        hs, ha, hsa, u = _collision_operators(coupling)
        rho_s = random_density(2, rng)
        beta = rng.uniform(-3, 3)
        r_a = gibbs_state(ha, beta)
        w, q = work_heat(u, hs, ha, r_a, bloch_vector(rho_s))
        rho_next, _ = collide_once(rho_s, density_matrix(r_a), u)
        de_s = np.trace(hs.matrix() @ (rho_next - rho_s)).real
        assert abs(de_s - w + q) < 1e-11


def test_work_rate_matches_current_at_small_dt():
    # J_x-only model at rho = I/2: W(dt)/dt -> tanh(beta omega/2)
    coupling = diagonal_coupling(1.0, 0.0, dt=1e-4)
    hs, ha, hsa, u = _collision_operators(coupling)
    w, q = work_heat(u, hs, ha, gibbs_state(ha, 1.0), MIXED)
    assert w / coupling.dt == pytest.approx(TANH_HALF, abs=1e-3)
    assert q / coupling.dt == pytest.approx(TANH_HALF, abs=1e-3)


# ------------------------------------------------------- continuum currents

def test_currents_vanish_for_zero_coupling():
    coupling = diagonal_coupling(0.0, 0.0, dt=0.05)
    anc = AncillaPrep(beta=1.0, omega_a=1.0)
    assert current_evaluators(coupling, QubitHamiltonian(1.0), anc)(MIXED) == (0.0, 0.0)


def test_work_current_energy_preserving_is_zero_everywhere():
    # [V, H_S + H_A] = 0 makes the work current vanish identically; the heat
    # current vanishes only once the system sits at the thermal state
    rng = np.random.default_rng(37)
    coupling = diagonal_coupling(1.0, 1.0, dt=0.05)
    anc = AncillaPrep(beta=1.0, omega_a=1.0)
    hs = QubitHamiltonian(1.0)
    currents = current_evaluators(coupling, hs, anc)
    for _ in range(20):
        assert abs(currents(random_bloch(rng))[0]) < 1e-12
    assert abs(currents(gibbs_state(hs, 1.0))[1]) < 1e-12


def test_work_current_closed_form_jx_only():
    # -(1/2)[V,[V,H0]] = -(omega_S sz(x)I + omega_A I(x)sz) for V = sx(x)sx,
    # so W_dot = omega_A tanh(beta omega_A/2) - omega_S <sz>_s
    coupling = diagonal_coupling(1.0, 0.0, dt=0.05)
    anc = AncillaPrep(beta=1.0, omega_a=1.0)
    currents = current_evaluators(coupling, QubitHamiltonian(1.0), anc)
    for z in (-0.7, 0.0, 0.4):
        expected = TANH_HALF - 1.0 * z
        assert currents(bloch_state(0.0, 0.0, z))[0] == pytest.approx(expected, abs=1e-12)
    assert currents(MIXED)[1] == pytest.approx(TANH_HALF, abs=1e-12)


def test_work_current_equals_double_commutator_form():
    # independent evaluation through -(1/2) Tr[[V,[V,H]] rho], V = sqrt(dt) H_SA
    rng = np.random.default_rng(38)
    anc = AncillaPrep(beta=1.3, omega_a=0.8)
    hs = QubitHamiltonian(1.1)
    for _ in range(25):
        coupling = _random_coupling(rng, 0.05, zero_odd=False)
        v = build_interaction(coupling) * math.sqrt(coupling.dt)
        h0 = kron(hs.matrix(), I2) + kron(I2, anc.hamiltonian().matrix())
        rho = random_density(2, rng)
        joint = kron(rho, density_matrix(anc.state))
        inner = v @ h0 - h0 @ v
        dbl = v @ inner - inner @ v
        expected = -0.5 * np.trace(dbl @ joint).real
        assert current_evaluators(coupling, hs, anc)(bloch_vector(rho))[0] == pytest.approx(
            expected, abs=1e-11)


@settings(max_examples=40, deadline=None)
@given(j=st.lists(st.floats(-1.5, 1.5), min_size=36, max_size=36),
       beta=st.one_of(st.floats(-5.0, 5.0), st.sampled_from([math.inf, -math.inf])),
       omega_s=st.floats(-2.0, 2.0), omega_a=st.floats(0.2, 2.0),
       bloch=st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12))
def test_both_currents_equal_double_commutator_forms(j, beta, omega_s, omega_a, bloch):
    # a stack of four J (sigma_z columns included) against -(1/2) Tr[[V,[V,X]] rho (x) rho_A]
    # for X = H_0 (work) and X = I (x) H_A (heat), with V and X built here from the Paulis
    j = np.reshape(j, (4, 3, 3))
    r = np.reshape(bloch, (4, 3))
    r = r / np.maximum(1.0, np.linalg.norm(r, axis=-1, keepdims=True))
    anc, hs = AncillaPrep(beta=beta, omega_a=omega_a), QubitHamiltonian(omega_s)
    w_dot, q_dot = current_evaluators(CouplingSpec(j, dt=0.05), hs, anc)(r)
    h_a = kron(I2, omega_a / 2 * PAULIS[2])
    h0 = kron(omega_s / 2 * PAULIS[2], I2) + h_a
    for k in range(4):
        v = sum(j[k, a, b] * kron(PAULIS[a], PAULIS[b]) for a in range(3) for b in range(3))
        joint = kron(density_matrix(r[k]), density_matrix(anc.state))
        for x, current in ((h0, w_dot), (h_a, q_dot)):
            inner = v @ x - x @ v
            expected = -0.5 * np.trace((v @ inner - inner @ v) @ joint).real
            assert current[k] == pytest.approx(expected, abs=1e-11)


def test_current_evaluators_match_single_shot_functions():
    rng = np.random.default_rng(44)
    anc = AncillaPrep(beta=0.7, omega_a=1.2)
    hs = QubitHamiltonian(0.9)
    coupling = _random_coupling(rng, 0.05, zero_odd=False)
    # one call on a stack of states gives each state's currents, and the heat
    # kernel does not involve H_S
    currents = current_evaluators(coupling, hs, anc)
    without_hs = current_evaluators(coupling, QubitHamiltonian(0.0), anc)
    rhos = np.array([random_bloch(rng) for _ in range(10)])
    for rho, w_dot, q_dot in zip(rhos, *currents(rhos)):
        assert w_dot == pytest.approx(currents(rho)[0], abs=1e-13)
        assert q_dot == pytest.approx(without_hs(rho)[1], abs=1e-13)


def test_heat_current_independent_of_system_state_jx_only():
    coupling = diagonal_coupling(1.0, 0.0, dt=0.05)
    anc = AncillaPrep(beta=1.0, omega_a=1.0)
    rng = np.random.default_rng(39)
    currents = current_evaluators(coupling, QubitHamiltonian(1.0), anc)
    vals = [currents(random_bloch(rng))[1] for _ in range(10)]
    assert np.ptp(vals) < 1e-12
    assert vals[0] == pytest.approx(TANH_HALF, abs=1e-12)


def test_current_convergence_halving():
    # |W(dt)/dt - W_dot| should halve with dt (same for heat)
    rng = np.random.default_rng(40)
    hs = QubitHamiltonian(1.0)
    anc = AncillaPrep(beta=1.0, omega_a=1.0)
    for _ in range(5):
        coupling = _random_coupling(rng, 1.0, zero_odd=True)
        rho_s = random_bloch(rng)
        w_ref, q_ref = current_evaluators(coupling, hs, anc)(rho_s)
        errs_w, errs_q = [], []
        for dt in (0.02, 0.01, 0.005):
            _, ha, hsa, u = _collision_operators(CouplingSpec(coupling.j, dt))
            w, q = work_heat(u, hs, ha, anc.state, rho_s)
            errs_w.append(abs(w / dt - w_ref))
            errs_q.append(abs(q / dt - q_ref))
        for errs in (errs_w, errs_q):
            assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.6)
            assert errs[1] / errs[2] == pytest.approx(2.0, abs=0.6)


# ------------------------------------------------------- entropy production

def test_heat_sign_during_thermalization_transient():
    # a system hotter than the bath dumps heat into the ancillas; the flow
    # dies out as the thermal state is approached
    cfg = CollisionConfig(
        hs=QubitHamiltonian(1.0), ancilla=AncillaPrep(beta=1.0, omega_a=1.0),
        coupling=diagonal_coupling(1.0, 1.0, dt=0.05), n_collisions=600,
        rho0=bloch_state(0.0, 0.0, -0.1))  # hotter than gibbs(1)
    traj = run(cfg)
    assert traj.ledger.q[0] > 0
    assert abs(traj.ledger.q[-1]) < 1e-10
    assert abs(traj.ledger.sigma[-1]) < 1e-10


def test_steady_sigma_rate_equals_beta_heat_current():
    # at the kernel steady state the entropy rate of the system vanishes,
    # so the continuum sigma rate reduces to beta * Q_dot
    from collisim.lindblad import build_generator, steady_state_of
    rng = np.random.default_rng(45)
    hs = QubitHamiltonian(1.0)
    anc = AncillaPrep(beta=1.0, omega_a=1.0)
    for _ in range(10):
        coupling = _random_coupling(rng, 0.05, zero_odd=True)
        rep = steady_state_of(coupling, hs, anc)
        if rep.degenerate:
            continue
        gen = build_generator(coupling, hs, anc)
        w, v = np.linalg.eigh(density_matrix(rep.r_star))
        log_rho = (v * np.log(np.clip(w, 1e-300, None))) @ v.conj().T
        l_rho = density_matrix((gen @ np.r_[1.0, rep.r_star])[1:]) - I2 / 2
        ds_dt = -np.trace(l_rho @ log_rho).real
        q_dot = current_evaluators(coupling, hs, anc)(rep.r_star)[1]
        sigma_rate = ds_dt + anc.beta * q_dot
        assert abs(sigma_rate - anc.beta * q_dot) < 1e-8


def test_sigma_zero_for_identity_collision():
    rng = np.random.default_rng(41)
    rho_s = random_density(2, rng)
    anc = AncillaPrep(beta=1.0, omega_a=1.0)
    joint = kron(rho_s, density_matrix(anc.state))
    sigma, checks = entropy_production_collision(rho_s, joint, anc)
    assert sigma == pytest.approx(0.0, abs=1e-12)
    assert checks["joint_relative_entropy"] == pytest.approx(0.0, abs=1e-12)


def test_sigma_three_forms_agree_and_nonnegative():
    rng = np.random.default_rng(42)
    for _ in range(200):
        dt = 10 ** rng.uniform(-3, -1)
        coupling = _random_coupling(rng, dt, zero_odd=bool(rng.integers(2)))
        hs, ha, hsa, u = _collision_operators(coupling)
        beta = rng.uniform(-4, 4)
        anc = AncillaPrep(beta=beta, omega_a=1.0)
        rho_s = random_density(2, rng)
        _, joint_after = collide_once(rho_s, density_matrix(anc.state), u)
        sigma, checks = entropy_production_collision(rho_s, joint_after, anc)
        assert sigma >= -1e-11
        assert checks["joint_relative_entropy"] == pytest.approx(sigma, abs=1e-10)
        assert checks["mutual_information_form"] == pytest.approx(sigma, abs=1e-10)


def test_sigma_rate_jx_only_steady_state():
    # at rho* = I/2 the system entropy is stationary: sigma/dt -> beta Q_dot
    coupling = diagonal_coupling(1.0, 0.0, dt=1e-4)
    hs, ha, hsa, u = _collision_operators(coupling)
    anc = AncillaPrep(beta=1.0, omega_a=1.0)
    _, joint_after = collide_once(I2 / 2, density_matrix(anc.state), u)
    sigma, _ = entropy_production_collision(I2 / 2, joint_after, anc)
    assert sigma / coupling.dt == pytest.approx(TANH_HALF, abs=1e-3)


def test_sigma_infinite_beta_skips_identity_checks():
    coupling = diagonal_coupling(1.0, 1.0, dt=0.05)
    hs, ha, hsa, u = _collision_operators(coupling)
    anc = AncillaPrep(beta=np.inf, omega_a=1.0)
    rho_s = np.diag([0.9, 0.1]).astype(complex)  # hotter than the bath
    _, joint_after = collide_once(rho_s, density_matrix(anc.state), u)
    sigma, checks = entropy_production_collision(rho_s, joint_after, anc)
    assert "skipped" in checks
    assert sigma == np.inf  # finite heat into a zero-temperature bath


@pytest.mark.parametrize("beta, omega_s", [("-inf", 1.0), ("inf", 0.0), ("inf", 1.0)])
def test_ledger_sigma_at_infinite_beta_is_never_nan_or_negative(beta, omega_s):
    # beta * Q at beta = +-inf: round-off heat counts as zero, real heat gives +inf
    doc = {"model": {"omega_s": omega_s, "omega_a": 1.0, "beta": beta},
           "coupling": {"j": {"xx": 1.0, "yy": 1.0}, "dt": 0.05},
           "run": {"n_collisions": 400, "rho0": "excited"}}
    sigma = np.array(run(parse_run_config(doc).collision).ledger.sigma)
    assert not np.any(np.isnan(sigma))
    assert np.min(sigma) >= -1e-12


# ------------------------------------------------ steady-state current laws

def test_steady_currents_equal_work_and_heat():
    from collisim.lindblad import steady_state_of
    rng = np.random.default_rng(43)
    hs = QubitHamiltonian(1.0)
    anc = AncillaPrep(beta=1.0, omega_a=1.0)
    for _ in range(10):
        coupling = _random_coupling(rng, 0.05, zero_odd=True)
        rep = steady_state_of(coupling, hs, anc)
        if rep.degenerate:
            continue
        w_dot, q_dot = current_evaluators(coupling, hs, anc)(rep.r_star)
        assert abs(w_dot - q_dot) < 1e-8


def test_ledger_first_law_and_sigma_sign():
    # W is the change of H_0, so it stays bounded and the first law exact even
    # where H_SA is astronomically large and H_SA - U^dag H_SA U is round-off
    cases = [(diagonal_coupling(1.0, 0.4, dt=0.05), bloch_state(0.0, 0.0, 0.7))] + [
        (diagonal_coupling(j, 0.0, dt=0.05), pure_state(0.3)) for j in (1e8, 1e50, 1e150)]
    for coupling, rho0 in cases:
        traj = run(CollisionConfig(
            hs=QubitHamiltonian(1.0), ancilla=AncillaPrep(beta=1.0, omega_a=1.0),
            coupling=coupling, n_collisions=200, rho0=rho0))
        assert np.max(np.abs(traj.ledger.first_law_residuals())) <= 1e-12
        assert np.max(np.abs(traj.ledger.w)) <= 10
        assert min(traj.ledger.sigma) >= -1e-11


# -------------------------------------------------- weak-coupling diagnostic

def test_weak_coupling_rate_zero_on_stationary_trajectory():
    hs = QubitHamiltonian(1.0)
    states = [gibbs_state(hs, 1.0)] * 20
    rates = weak_coupling_sigma_rate(states, hs, beta=1.0, dt=0.05)
    assert np.max(np.abs(rates)) < 1e-12


def test_weak_coupling_rate_nonnegative_for_energy_preserving():
    cfg = CollisionConfig(
        hs=QubitHamiltonian(1.0), ancilla=AncillaPrep(beta=1.0, omega_a=1.0),
        coupling=diagonal_coupling(1.0, 1.0, dt=0.05), n_collisions=300,
        rho0=bloch_state(0.0, 0.0, 0.8))
    traj = run(cfg)
    rates = weak_coupling_sigma_rate(traj.states, cfg.hs, beta=1.0, dt=traj.dt)
    assert np.min(rates) > -1e-9


def test_weak_coupling_rate_disagrees_off_the_thermal_track():
    # J_x-only: the collision ledger shows a steady positive sigma rate while
    # the weak-coupling formula sees a stationary relative entropy
    cfg = CollisionConfig(
        hs=QubitHamiltonian(1.0), ancilla=AncillaPrep(beta=1.0, omega_a=1.0),
        coupling=diagonal_coupling(1.0, 0.0, dt=0.05), n_collisions=400,
        rho0=bloch_state(0.0, 0.0, 0.8))
    traj = run(cfg)
    wc = weak_coupling_sigma_rate(traj.states, cfg.hs, beta=1.0, dt=traj.dt)
    ledger_rate = traj.ledger.sigma / traj.dt
    # late-time: ledger rate stays near beta * Q_dot, weak-coupling rate decays
    assert ledger_rate[-1] == pytest.approx(TANH_HALF, rel=0.05)
    assert abs(wc[-1]) < 0.05 * ledger_rate[-1]
