import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collisim.cli import main
from collisim.config import parse_run_config
from collisim.engine import (CollisionConfig, NoSteadyStateError,
                             collision_map_superoperator, propagate_collisions,
                             run, steady_state_by_iteration)
from collisim.linalg import NotAStateError, check_density, kron, trace_distance
from collisim.model import (AncillaPrep, CouplingSpec, QubitHamiltonian,
                            bloch_state, build_interaction, density_matrix,
                            diagonal_coupling, gibbs_state, pure_state, ssc_coupling)
from collisim.thermo import expectation, heat_operator, work_operator

from conftest import (apply_map, bloch_vector, collide_once, eigen_trace_distance, entropy,
                      matrices_close, random_density, reference)

SWAP = np.array([[1, 0, 0, 0],
                 [0, 0, 1, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1]], dtype=complex)


def _config(coupling, beta=1.0, n=100, rho0=None, omega_s=1.0, omega_a=1.0, **kw):
    return CollisionConfig(
        hs=QubitHamiltonian(omega_s), ancilla=AncillaPrep(beta=beta, omega_a=omega_a),
        coupling=coupling, n_collisions=n,
        rho0=bloch_state(0.0, 0.0, 0.8) if rho0 is None else rho0, **kw)


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
        rho_next, joint = collide_once(rho_s, density_matrix(cfg.ancilla.state), u)
        assert np.trace(joint).real == pytest.approx(1.0, abs=1e-12)
        assert np.trace(rho_next).real == pytest.approx(1.0, abs=1e-12)


def test_collide_once_matches_the_benchmark_reference_map():
    # the joint-state oracle against perfbench/reference.py, whose collision
    # map is built with scipy.linalg.expm and numpy alone
    rng = np.random.default_rng(56)
    for _ in range(20):
        j = rng.uniform(-1.5, 1.5, (3, 3))
        dt, beta = 10 ** rng.uniform(-3, -0.5), rng.uniform(-3.0, 3.0)
        omega_s, omega_a = rng.uniform(-2.0, 2.0), rng.uniform(0.2, 2.0)
        cfg = _config(CouplingSpec(j, dt=dt), beta=beta, omega_s=omega_s, omega_a=omega_a)
        phi = reference.Model(omega_s, omega_a, beta, j, dt).phi
        rho = random_density(2, rng)
        direct, _ = collide_once(rho, density_matrix(cfg.ancilla.state), cfg.unitary())
        assert matrices_close(direct, (phi @ rho.ravel()).reshape(2, 2), 1e-12)


def test_thermal_state_is_collision_fixed_point():
    # energy-preserving resonant: gibbs(beta) is exactly stationary
    cfg = _config(diagonal_coupling(1.0, 1.0, dt=0.05))
    g = density_matrix(gibbs_state(cfg.hs, 1.0))
    rho_next, _ = collide_once(g, density_matrix(cfg.ancilla.state), cfg.unitary())
    assert eigen_trace_distance(rho_next, g) < 1e-10


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
    assert trace_distance(traj.final, np.zeros(3)) < 1e-4


def test_run_zero_coupling_keeps_populations():
    cfg = _config(diagonal_coupling(0.0, 0.0, dt=0.05), n=10,
                  rho0=bloch_state(0.6, 0.0, 0.3))
    traj = run(cfg)
    for rho in density_matrix(traj.states):
        assert rho[0, 0].real == pytest.approx(0.65, abs=1e-12)
        assert abs(rho[0, 1]) == pytest.approx(0.3, abs=1e-12)


def test_run_is_deterministic():
    cfg = _config(ssc_coupling(0.8, 0.3, 0.4, dt=0.05), n=50)
    a, b = run(cfg), run(cfg)
    for ra, rb in zip(a.states, b.states):
        assert np.array_equal(ra, rb)
    assert np.array_equal(a.ledger.w, b.ledger.w)


def test_run_semigroup_in_collision_number():
    cfg = _config(ssc_coupling(0.8, -0.2, 0.5, dt=0.05), n=60)
    full = run(cfg)
    first = run(_config(ssc_coupling(0.8, -0.2, 0.5, dt=0.05), n=25))
    rest = run(_config(ssc_coupling(0.8, -0.2, 0.5, dt=0.05), n=35,
                       rho0=first.final))
    assert matrices_close(rest.final, full.final, 1e-12)


def test_run_records_valid_states_throughout():
    cfg = _config(ssc_coupling(1.2, 0.7, -0.9, dt=0.08), n=200,
                  rho0=pure_state(0.1))
    for r in run(cfg).states:
        check_density(r)
        assert np.linalg.eigvalsh(density_matrix(r)).min() >= -1e-10


def test_halving_dt_leaves_state_at_fixed_time_invariant():
    # scaling = sqrt_dt: rho(t) at t = 10 differs O(dt) between dt and dt/2
    base = ssc_coupling(1.0, 0.5, 0.3, dt=1.0)
    t_phys = 10.0
    dists = []
    for dt in (0.04, 0.02):
        a = run(_config(CouplingSpec(base.j, dt, base.scaling), n=int(round(t_phys / dt)))).final
        b = run(_config(CouplingSpec(base.j, dt / 2, base.scaling), n=int(round(2 * t_phys / dt)))).final
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
    u = cfg.unitary()
    t = collision_map_superoperator(u, cfg.ancilla.state)
    assert np.array_equal(t[0], [1.0, 0.0, 0.0, 0.0])     # trace preservation, exactly
    for _ in range(20):
        rho = random_density(2, rng)
        direct, _ = collide_once(rho, density_matrix(cfg.ancilla.state), u)
        via_map = density_matrix(apply_map(t, bloch_vector(rho)))
        assert np.max(np.abs(via_map - direct)) < 1e-12


def test_steady_state_iteration_energy_preserving():
    cfg = _config(diagonal_coupling(1.0, 1.0, dt=0.05), rho0=pure_state(0.3))
    rep = steady_state_by_iteration(cfg)
    assert trace_distance(rep.r_star, gibbs_state(cfg.hs, 1.0)) < 1e-6
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
    rep_a = steady_state_by_iteration(_config(coupling, rho0=bloch_state(0.0, 0.0, 0.6)))
    rep_b = steady_state_by_iteration(_config(coupling, rho0=bloch_state(0.0, 0.0, -0.4)))
    assert (1 + rep_a.r_star[2]) / 2 == pytest.approx(0.8, abs=1e-6)
    assert (1 + rep_b.r_star[2]) / 2 == pytest.approx(0.3, abs=1e-6)
    assert trace_distance(rep_a.r_star, rep_b.r_star) > 0.4


def test_iteration_has_no_limit_for_a_precessing_state_without_dissipation():
    # without coupling, the coherence of rho0 precesses forever: Phi^n rho0
    # has no limit, because rho0 has weight on eigenvalues exp(-+i omega dt)
    cfg = _config(diagonal_coupling(0.0, 0.0, dt=0.05), rho0=pure_state(0.4))
    with pytest.raises(NoSteadyStateError, match="modulus 1") as err:
        steady_state_by_iteration(cfg)
    assert err.value.residual > 0


def test_steady_without_coupling_keeps_a_diagonal_state_and_fails_a_coherent_one(tmp_path):
    # a pure rotation: populations are conserved and coherences precess
    doc = {"model": {"omega_s": 1.0, "omega_a": 1.0, "beta": 1.0},
           "coupling": {"j": {}, "dt": 0.05},
           "run": {"n_collisions": 10, "rho0": {"bloch": [0.0, 0.0, 0.6]}},
           "output": {"path": "free.json"}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["steady", "--config", str(cfg_path), "--method", "both",
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "free_steady.json").read_text())["iteration"]
    assert report["rho_star"] == [[[0.8, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.2, 0.0]]]
    assert report["degenerate"] and report["residual"] == 0.0
    doc["run"]["rho0"] = "plus"
    cfg_path.write_text(json.dumps(doc))
    assert main(["steady", "--config", str(cfg_path), "--method", "both",
                 "--out", str(tmp_path)]) == 3


def test_iteration_under_pure_dephasing_is_the_limit_of_many_collisions():
    # only J_zy: the eigenvalue-1 space holds the diagonal states, and the
    # coherence decays; the answer is the spectral projection of rho0
    cfg = _config(ssc_coupling(0.0, 0.0, 1.0, dt=0.05), rho0=pure_state(0.4))
    rep = steady_state_by_iteration(cfg)
    t = collision_map_superoperator(cfg.unitary(), cfg.ancilla.state)
    limit = density_matrix((np.linalg.matrix_power(t, 10 ** 6) @ np.r_[1.0, cfg.rho0])[1:])
    rho_star = density_matrix(rep.r_star)
    assert rep.degenerate
    # the power carries round-off of about 10^6 eps on the populations
    assert np.max(np.abs(rho_star - limit)) <= 1e-9
    assert abs(limit[0, 1]) <= 1e-15
    assert rho_star[0, 0].real == pytest.approx(math.cos(0.4) ** 2, abs=1e-12)


# Weakly coupled configs whose relaxation gap 1 - |l2(Phi)| is 1.5e-6 to
# 6.3e-6: iterating collisions to a per-step criterion cannot reach them
WEAK_COUPLINGS = (
    {"j": {"xx": 0.01, "yy": 0.005}},
    {"j": {"xx": 0.005, "yy": 0.002}},
    {"j": {"xx": 0.007, "yy": 0.007}},
    {"j": {"xx": 0.004, "yy": 0.004}},
    {"ssc": {"alpha": 0.7, "gamma": 0.4, "magnitude": 0.01}},
    {"ssc": {"alpha": 0.3, "gamma": -1.2, "magnitude": 0.006}},
    {"j": {"xx": 0.006, "xy": -0.003, "yy": 0.004, "zy": 0.002, "zz": 0.003}},
    {"j": {"xx": -0.004, "yz": 0.005, "yy": 0.006, "zx": 0.003}},
)


@pytest.mark.parametrize("coupling", WEAK_COUPLINGS)
def test_weak_coupling_steady_state_is_a_fixed_point(tmp_path, coupling):
    doc = {"model": {"omega_s": 1.0, "omega_a": 1.0, "beta": 1.0},
           "coupling": dict(coupling, dt=0.05, scaling="sqrt_dt"),
           "run": {"n_collisions": 1000, "rho0": "fig3"},
           "output": {"path": "weak.json"}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["steady", "--config", str(cfg_path), "--method", "both",
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "weak_steady.json").read_text())["iteration"]
    rho = np.array([[complex(*report["rho_star"][r][c]) for c in range(2)] for r in range(2)])
    cfg = parse_run_config(doc).collision_config()
    t = collision_map_superoperator(cfg.unitary(), cfg.ancilla.state)
    r = bloch_vector(rho)
    assert trace_distance(apply_map(t, r), r) <= 1e-14
    assert 0.0 <= report["residual"] < 1e-6


def test_config_validation():
    with pytest.raises(ValueError, match="n_collisions"):
        _config(diagonal_coupling(1.0, 1.0, dt=0.05), n=0)
    with pytest.raises(ValueError, match="eigenvalue"):
        _config(diagonal_coupling(1.0, 1.0, dt=0.05), rho0=bloch_state(0.0, 0.0, 1.0) * 1.6)
    with pytest.raises(ValueError, match="Bloch vector"):
        _config(diagonal_coupling(1.0, 1.0, dt=0.05), rho0=np.diag([0.8, 0.2]))


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
    u, r_a = cfg.unitary(), cfg.ancilla.state
    rho_a = density_matrix(r_a)
    h_sa, h_a, h_s = (build_interaction(cfg.coupling), cfg.ancilla.hamiltonian().matrix(),
                      cfg.hs.matrix())
    k_w, k_q = work_operator(u, h_sa, r_a), heat_operator(u, h_a, r_a)
    led = traj.ledger
    rho = density_matrix(cfg.rho0)
    for k in range(n):
        nxt, joint = collide_once(rho, rho_a, u)
        assert matrices_close(density_matrix(traj.states[k + 1]), nxt, 1e-12)
        # the functionals against the joint-state traces they stand for
        w = np.trace((h_sa - u.conj().T @ h_sa @ u) @ kron(rho, rho_a)).real
        q = np.trace(kron(np.eye(2), h_a) @ (joint - kron(rho, rho_a))).real
        assert expectation(k_w, bloch_vector(rho)) == pytest.approx(w, abs=1e-12)
        assert expectation(k_q, bloch_vector(rho)) == pytest.approx(q, abs=1e-12)
        assert led.w[k] == pytest.approx(w, abs=1e-12)
        assert led.q[k] == pytest.approx(q, abs=1e-12)
        assert led.de_s[k] == pytest.approx(np.trace(h_s @ (nxt - rho)).real, abs=1e-12)
        assert led.ds[k] == pytest.approx(entropy(nxt) - entropy(rho), abs=1e-12)
        rho = nxt
    assert np.max(np.abs(led.first_law_residuals())) <= 1e-12


def test_run_rejects_a_map_that_leaves_the_state_space(monkeypatch):
    # the states are checked once, over the whole stack, and never repaired
    import collisim.engine as engine
    leaky = np.diag([1.0, 1.0, 1.0, 1.1])   # the Bloch vector grows each step
    monkeypatch.setattr(engine, "collision_map_superoperator", lambda u, r_a: leaky)
    with pytest.raises(NotAStateError, match="eigenvalue"):
        run(_config(diagonal_coupling(1.0, 1.0, dt=0.05), n=5))
