import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collisim.engine import (CollisionConfig, NoSteadyStateError, collide_once,
                             collision_map_superoperator, propagate_collisions,
                             run, steady_state_by_iteration)
from collisim.linalg import NotAStateError, kron, matrices_close, trace_distance
from collisim.model import (I2, AncillaPrep, CouplingSpec, QubitHamiltonian,
                            bloch_state, build_interaction, diagonal_coupling,
                            gibbs_state, pure_state, ssc_coupling)
from collisim.thermo import collision_heat, collision_work, entropy

from conftest import random_density

SWAP = np.array([[1, 0, 0, 0],
                 [0, 0, 1, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1]], dtype=complex)


def _config(coupling, beta=1.0, n=100, rho0=None, omega_s=1.0, omega_a=1.0, **kw):
    return CollisionConfig(
        hs=QubitHamiltonian(omega_s), ancilla=AncillaPrep(beta=beta, omega_a=omega_a),
        coupling=coupling, n_collisions=n,
        rho0=np.diag([0.9, 0.1]).astype(complex) if rho0 is None else rho0, **kw)


def test_collide_once_identity():
    rng = np.random.default_rng(51)
    rho_s, rho_a = random_density(2, rng), random_density(2, rng)
    rho_next, joint = collide_once(rho_s, rho_a, np.eye(4, dtype=complex))
    assert matrices_close(rho_next, rho_s, 1e-12)
    assert matrices_close(joint, kron(rho_s, rho_a), 1e-12)


def test_collide_once_swap():
    rng = np.random.default_rng(52)
    rho_s, rho_a = random_density(2, rng), random_density(2, rng)
    rho_next, _ = collide_once(rho_s, rho_a, SWAP)
    assert matrices_close(rho_next, rho_a, 1e-12)


def test_collide_once_rejects_non_unitary():
    rng = np.random.default_rng(53)
    with pytest.raises(ValueError, match="invalid propagator"):
        collide_once(random_density(2, rng), random_density(2, rng),
                     np.eye(4, dtype=complex) * 1.001)


def test_collide_once_preserves_traces():
    rng = np.random.default_rng(54)
    cfg = _config(ssc_coupling(0.7, -0.4, 0.5, dt=0.05))
    u = cfg.unitary()
    for _ in range(20):
        rho_s = random_density(2, rng)
        rho_next, joint = collide_once(rho_s, cfg.ancilla.state(), u)
        assert np.trace(joint).real == pytest.approx(1.0, abs=1e-12)
        assert np.trace(rho_next).real == pytest.approx(1.0, abs=1e-12)


def test_thermal_state_is_collision_fixed_point():
    # energy-preserving resonant: gibbs(beta) is exactly stationary
    cfg = _config(diagonal_coupling(1.0, 1.0, dt=0.05))
    g = gibbs_state(cfg.hs, 1.0)
    rho_next, _ = collide_once(g, cfg.ancilla.state(), cfg.unitary())
    assert trace_distance(rho_next, g) < 1e-10


def test_run_energy_preserving_thermalizes():
    cfg = _config(diagonal_coupling(1.0, 1.0, dt=0.05), n=1000,
                  rho0=pure_state(15 * np.pi / 16))
    traj = run(cfg)
    assert trace_distance(traj.final, gibbs_state(cfg.hs, 1.0)) < 1e-4
    assert len(traj.states) == 1001


def test_run_jx_only_reaches_maximally_mixed():
    cfg = _config(diagonal_coupling(1.0, 0.0, dt=0.05), n=1000,
                  rho0=pure_state(0.3))
    traj = run(cfg)
    assert trace_distance(traj.final, I2 / 2) < 1e-4


def test_run_zero_coupling_keeps_populations():
    cfg = _config(diagonal_coupling(0.0, 0.0, dt=0.05), n=10,
                  rho0=bloch_state(0.6, 0.0, 0.3))
    traj = run(cfg)
    for rho in traj.states:
        assert rho[0, 0].real == pytest.approx(0.65, abs=1e-12)
        assert abs(rho[0, 1]) == pytest.approx(0.3, abs=1e-12)


def test_run_is_deterministic():
    cfg = _config(ssc_coupling(0.8, 0.3, 0.4, dt=0.05), n=50)
    a, b = run(cfg), run(cfg)
    for ra, rb in zip(a.states, b.states):
        assert np.array_equal(ra, rb)
    assert a.ledger.w == b.ledger.w


def test_run_semigroup_in_collision_number():
    cfg = _config(ssc_coupling(0.8, -0.2, 0.5, dt=0.05), n=60)
    full = run(cfg)
    first = run(_config(ssc_coupling(0.8, -0.2, 0.5, dt=0.05), n=25))
    rest = run(_config(ssc_coupling(0.8, -0.2, 0.5, dt=0.05), n=35,
                       rho0=first.final))
    assert matrices_close(rest.final, full.final, 1e-12)


def test_run_records_valid_states_throughout():
    from collisim.linalg import check_density
    cfg = _config(ssc_coupling(1.2, 0.7, -0.9, dt=0.08), n=200,
                  rho0=pure_state(0.1))
    for rho in run(cfg).states:
        check_density(rho)


def test_halving_dt_leaves_state_at_fixed_time_invariant():
    # scaling = sqrt_dt: rho(t) at t = 10 differs O(dt) between dt and dt/2
    base = ssc_coupling(1.0, 0.5, 0.3, dt=1.0)
    t_phys = 10.0
    dists = []
    for dt in (0.04, 0.02):
        a = run(_config(base.with_dt(dt), n=int(round(t_phys / dt)))).final
        b = run(_config(base.with_dt(dt / 2), n=int(round(2 * t_phys / dt)))).final
        dists.append(trace_distance(a, b))
    assert dists[0] < 1.0 * 0.04
    assert dists[1] < 1.0 * 0.02
    assert 1.4 < dists[0] / dists[1] < 2.8


def test_propagate_collisions_matches_run():
    cfg = _config(ssc_coupling(0.9, 0.2, -0.5, dt=0.05), n=137)
    assert matrices_close(propagate_collisions(cfg, 137), run(cfg).final, 1e-12)


def test_collision_map_superoperator_matches_collide_once():
    rng = np.random.default_rng(55)
    cfg = _config(ssc_coupling(0.6, -0.8, 0.4, dt=0.07))
    phi = collision_map_superoperator(cfg)
    u = cfg.unitary()
    for _ in range(20):
        rho = random_density(2, rng)
        direct, _ = collide_once(rho, cfg.ancilla.state(), u)
        via_super = phi @ rho.flatten(order="F")
        assert np.max(np.abs(via_super - direct.flatten(order="F"))) < 1e-12


def test_steady_state_iteration_energy_preserving():
    cfg = _config(diagonal_coupling(1.0, 1.0, dt=0.05), rho0=pure_state(0.3))
    rep = steady_state_by_iteration(cfg)
    assert trace_distance(rep.rho_star, gibbs_state(cfg.hs, 1.0)) < 1e-6
    assert rep.method == "iteration"
    assert rep.beta_eff == pytest.approx(1.0, abs=1e-4)


def test_steady_state_iteration_inverted_populations():
    cfg = _config(diagonal_coupling(1.0, -1.0, dt=0.01), rho0=pure_state(0.3))
    rep = steady_state_by_iteration(cfg)
    assert rep.beta_eff == pytest.approx(-1.0, abs=1e-2)


def test_pure_dephasing_keeps_initial_populations():
    # only J_zy: diagonal states are fixed points, so distinct diagonal
    # initial states land on distinct steady states
    coupling = ssc_coupling(0.0, 0.0, 1.0, dt=0.05)
    rep_a = steady_state_by_iteration(_config(coupling, rho0=np.diag([0.8, 0.2]).astype(complex)))
    rep_b = steady_state_by_iteration(_config(coupling, rho0=np.diag([0.3, 0.7]).astype(complex)))
    assert rep_a.rho_star[0, 0].real == pytest.approx(0.8, abs=1e-6)
    assert rep_b.rho_star[0, 0].real == pytest.approx(0.3, abs=1e-6)
    assert trace_distance(rep_a.rho_star, rep_b.rho_star) > 0.4


def test_iteration_runs_out_of_budget_without_dissipation():
    # coherent precession never meets a per-unit-time criterion
    cfg = _config(diagonal_coupling(0.0, 0.0, dt=0.05), rho0=pure_state(0.4))
    with pytest.raises(NoSteadyStateError) as err:
        steady_state_by_iteration(cfg)
    assert err.value.residual > 0


def test_config_validation():
    with pytest.raises(ValueError, match="n_collisions"):
        _config(diagonal_coupling(1.0, 1.0, dt=0.05), n=0)
    with pytest.raises(ValueError):
        _config(diagonal_coupling(1.0, 1.0, dt=0.05),
                rho0=np.diag([0.8, 0.8]).astype(complex))


def test_early_stop_truncates_states():
    cfg = _config(diagonal_coupling(1.0, 1.0, dt=0.05), n=1000,
                  rho0=pure_state(0.3), convergence_tol=1e-8)
    traj = run(cfg, early_stop=True)
    assert traj.converged_at is not None
    assert len(traj.states) == traj.converged_at + 1
    assert len(traj.states) < 1001


@settings(max_examples=60, deadline=None)
@given(j=st.lists(st.floats(-1.5, 1.5), min_size=9, max_size=9),
       beta=st.one_of(st.floats(-5.0, 5.0), st.sampled_from([math.inf, -math.inf])),
       dt=st.floats(1e-3, 0.3),
       omegas=st.tuples(st.floats(-2.0, 2.0), st.floats(0.2, 2.0)),
       bloch=st.tuples(*(st.floats(-1.0, 1.0),) * 3),
       n=st.integers(1, 25))
def test_run_matches_stepping_collide_once(j, beta, dt, omegas, bloch, n):
    # the map-driven trajectory against the joint-state oracle, collision by collision
    r = np.array(bloch)
    r = r / max(1.0, float(np.linalg.norm(r)))
    cfg = _config(CouplingSpec(np.reshape(j, (3, 3)), dt=dt), beta=beta, n=n,
                  rho0=bloch_state(*r), omega_s=omegas[0], omega_a=omegas[1])
    traj = run(cfg)
    u, rho_a = cfg.unitary(), cfg.ancilla.state()
    h_sa, h_a, h_s = (build_interaction(cfg.coupling), cfg.ancilla.hamiltonian().matrix(),
                      cfg.hs.matrix())
    led = traj.ledger
    rho = cfg.rho0
    for k in range(n):
        nxt, _ = collide_once(rho, rho_a, u)
        assert matrices_close(traj.states[k + 1], nxt, 1e-12)
        assert led.w[k] == pytest.approx(collision_work(u, h_sa, rho, rho_a), abs=1e-12)
        assert led.q[k] == pytest.approx(collision_heat(u, h_a, rho, rho_a), abs=1e-12)
        assert led.de_s[k] == pytest.approx(np.trace(h_s @ (nxt - rho)).real, abs=1e-12)
        assert led.ds[k] == pytest.approx(entropy(nxt) - entropy(rho), abs=1e-12)
        rho = nxt
    assert np.max(np.abs(led.first_law_residuals())) <= 1e-12


def test_run_rejects_a_map_that_leaves_the_state_space(monkeypatch):
    # the states are checked once, over the whole stack, and never repaired
    import collisim.engine as engine
    leaky = np.diag([1.0, 1.0, 1.0, 1.001]).astype(complex)  # trace grows each step
    monkeypatch.setattr(engine, "collision_map_superoperator", lambda config: leaky)
    with pytest.raises(NotAStateError, match="trace"):
        run(_config(diagonal_coupling(1.0, 1.0, dt=0.05), n=5))
