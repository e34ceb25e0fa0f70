import numpy as np
import pytest

from collisim.engine import CollisionConfig, run, steady_state_by_iteration
from collisim.lindblad import (GKSLGenerator, apply_generator, build_generator,
                               evolve_continuous, steady_state_kernel,
                               steady_state_of, vectorize)
from collisim.linalg import kron, matrices_close, trace_distance, vec
from collisim.model import (I2, SIGMA_X, AncillaPrep, CouplingSpec,
                            QubitHamiltonian, diagonal_coupling, gibbs_state,
                            pure_state, ssc_coupling)

from conftest import random_density

HS = QubitHamiltonian(1.0)
ANC = AncillaPrep(beta=1.0, omega_a=1.0)
TANH_HALF = np.tanh(0.5)


def _random_coupling(rng, scale=1.0):
    j = np.zeros((3, 3))
    j[:, :2] = rng.uniform(-scale, scale, (3, 2))
    return CouplingSpec(j, dt=0.05)


def test_generator_jx_only_single_unit_rate():
    gen = build_generator(diagonal_coupling(1.0, 0.0, dt=0.05), HS, ANC)
    assert len(gen.jumps) == 1
    assert matrices_close(gen.jumps[0], SIGMA_X, 1e-15)
    assert gen.rates[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_generator_zero_coupling_is_hamiltonian_only():
    gen = build_generator(diagonal_coupling(0.0, 0.0, dt=0.05), HS, ANC)
    assert gen.jumps == ()
    rng = np.random.default_rng(61)
    rho = random_density(2, rng)
    expected = -1j * (HS.matrix() @ rho - rho @ HS.matrix())
    assert matrices_close(apply_generator(gen, rho), expected, 1e-14)


def test_generator_zero_temperature_gives_pure_decay():
    # J_x = J_y = 1 on a ground-state ancilla: diagonalizing the rate matrix
    # leaves a single decay channel sigma_minus at rate 4 (sigma_plus at 0)
    gen = build_generator(diagonal_coupling(1.0, 1.0, dt=0.05), HS,
                          AncillaPrep(beta=np.inf, omega_a=1.0))
    w, v = np.linalg.eigh(gen.rates)
    assert w[0] == pytest.approx(0.0, abs=1e-12)
    assert w[1] == pytest.approx(2.0, abs=1e-12)
    jump = sum(v[j, 1] * gen.jumps[j] for j in range(len(gen.jumps)))
    # the decay channel is proportional to sigma_minus, |e><g| part vanishes
    assert abs(jump[0, 1]) < 1e-12
    scale = abs(jump[1, 0]) ** 2
    assert w[1] * scale == pytest.approx(4.0, abs=1e-12)


def test_rate_matrix_hermitian_psd_for_random_couplings():
    rng = np.random.default_rng(62)
    for _ in range(50):
        j = rng.uniform(-2, 2, (3, 3))  # arbitrary couplings, z-columns too
        gen = build_generator(CouplingSpec(j, dt=0.05), HS,
                              AncillaPrep(beta=rng.uniform(-3, 3), omega_a=1.0))
        assert np.max(np.abs(gen.rates - gen.rates.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(gen.rates).min() >= -1e-10


def test_generator_rejects_non_psd_rates():
    with pytest.raises(ValueError, match="PSD"):
        GKSLGenerator(h_sys=HS.matrix(), jumps=(SIGMA_X,),
                      rates=np.array([[-1.0]], dtype=complex))


def test_generator_is_trace_free():
    rng = np.random.default_rng(63)
    for _ in range(20):
        gen = build_generator(_random_coupling(rng), HS, ANC)
        out = apply_generator(gen, random_density(2, rng))
        assert abs(np.trace(out)) < 1e-14
        assert matrices_close(out, out.conj().T, 1e-13)


def test_thermal_state_in_kernel_energy_preserving():
    gen = build_generator(diagonal_coupling(1.0, 1.0, dt=0.05), HS, ANC)
    out = apply_generator(gen, gibbs_state(HS, 1.0))
    assert np.max(np.abs(out)) < 1e-12


def test_maximally_mixed_in_kernel_jx_only():
    gen = build_generator(diagonal_coupling(1.0, 0.0, dt=0.05), HS, ANC)
    assert np.max(np.abs(apply_generator(gen, I2 / 2))) < 1e-12


def test_vectorize_hamiltonian_only():
    gen = build_generator(diagonal_coupling(0.0, 0.0, dt=0.05), HS, ANC)
    h = HS.matrix()
    expected = -1j * (kron(I2, h) - kron(h.T, I2))
    assert matrices_close(vectorize(gen).matrix, expected, 1e-14)


def test_vectorize_zero_generator():
    gen = GKSLGenerator(h_sys=np.zeros((2, 2), dtype=complex), jumps=(),
                        rates=np.zeros((0, 0), dtype=complex))
    assert np.max(np.abs(vectorize(gen).matrix)) == 0.0


def test_vectorize_agrees_with_direct_application():
    rng = np.random.default_rng(64)
    gen = build_generator(ssc_coupling(1.0, -0.4, 0.7, dt=0.05), HS, ANC)
    superop = vectorize(gen)
    for _ in range(100):
        rho = random_density(2, rng)
        direct = apply_generator(gen, rho)
        via = superop.matrix @ vec(rho)
        assert np.max(np.abs(via - vec(direct))) < 1e-12


def test_kernel_energy_preserving_thermal_values():
    rep = steady_state_of(diagonal_coupling(1.0, 1.0, dt=0.05), HS, ANC)
    assert not rep.degenerate
    assert rep.rho_star[0, 0].real == pytest.approx(0.268941, abs=1e-6)
    assert rep.rho_star[1, 1].real == pytest.approx(0.731059, abs=1e-6)
    assert rep.residual < 1e-10
    assert rep.beta_eff == pytest.approx(1.0, abs=1e-10)


def test_kernel_jx_only_maximally_mixed():
    rep = steady_state_of(diagonal_coupling(1.0, 0.0, dt=0.05), HS, ANC)
    assert matrices_close(rep.rho_star, I2 / 2, 1e-10)
    assert rep.beta_eff == pytest.approx(0.0, abs=1e-10)


def test_kernel_flags_pure_dephasing_as_degenerate():
    rep = steady_state_of(ssc_coupling(0.0, 0.0, 1.0, dt=0.05), HS, ANC)
    assert rep.degenerate


def test_kernel_unique_for_ssc_family():
    rep = steady_state_of(ssc_coupling(1.0, 0.5, 1.0, dt=0.05), HS, ANC)
    assert not rep.degenerate
    assert rep.coherence_l1 > 0.1  # steady-state coherence present
    assert rep.beta_eff is None    # suppressed for coherent states


def test_evolve_zero_time_is_identity():
    rng = np.random.default_rng(65)
    gen = build_generator(_random_coupling(rng), HS, ANC)
    rho = random_density(2, rng)
    assert matrices_close(evolve_continuous(gen, rho, 0.0), rho, 1e-12)


def test_evolve_long_time_thermalizes():
    gen = build_generator(diagonal_coupling(1.0, 1.0, dt=0.05), HS, ANC)
    out = evolve_continuous(gen, pure_state(0.3), 40.0)
    assert trace_distance(out, gibbs_state(HS, 1.0)) < 1e-8


def test_evolve_semigroup_property():
    rng = np.random.default_rng(66)
    gen = build_generator(ssc_coupling(0.8, 0.3, -0.5, dt=0.05), HS, ANC)
    rho = random_density(2, rng)
    for t1, t2 in ((0.5, 1.3), (2.0, 0.7)):
        a = evolve_continuous(gen, evolve_continuous(gen, rho, t2), t1)
        b = evolve_continuous(gen, rho, t1 + t2)
        assert matrices_close(a, b, 1e-9)


def test_collision_run_converges_to_continuous_evolution():
    coupling = ssc_coupling(1.0, 0.4, 0.3, dt=0.01)
    rho0 = pure_state(0.4)
    gen = build_generator(coupling, HS, ANC)
    target = evolve_continuous(gen, rho0, 10.0)
    cfg = CollisionConfig(hs=HS, ancilla=ANC, coupling=coupling,
                          n_collisions=1000, rho0=rho0)
    assert trace_distance(run(cfg).final, target) < 5e-3


def test_discrete_to_continuum_halving_ratio():
    coupling = ssc_coupling(1.0, 0.4, 0.3, dt=1.0)
    rho0 = pure_state(0.4)
    gen = build_generator(coupling, HS, ANC)
    t_phys = 10.0
    dists = []
    for dt in (0.04, 0.02, 0.01):
        cfg = CollisionConfig(hs=HS, ancilla=ANC, coupling=coupling.with_dt(dt),
                              n_collisions=int(round(t_phys / dt)), rho0=rho0)
        dists.append(trace_distance(run(cfg).final,
                                    evolve_continuous(gen, rho0, t_phys)))
    assert 1.6 < dists[0] / dists[1] < 2.6
    assert 1.6 < dists[1] / dists[2] < 2.6


def iterate_with_dt_ladder(coupling, hs, anc, rho0, dts=(1e-3, 1e-4, 1e-5),
                           tol=1e-7):
    """Iterated steady state at the smallest dt, warm-started down a dt ladder.

    The discrete fixed point sits O(dt) from the continuum one, so each stage
    seeds the next (smaller-dt) iteration with its predecessor's answer; every
    stage is an ordinary bounded-budget iteration of the collision map.
    """
    rho = rho0
    rep = None
    for dt in dts:
        cfg = CollisionConfig(hs=hs, ancilla=anc, coupling=coupling.with_dt(dt),
                              n_collisions=1, rho0=rho)
        rep = steady_state_by_iteration(cfg, tol=tol)
        rho = rep.rho_star
    return rep


def test_kernel_matches_iteration_smoke():
    rng = np.random.default_rng(67)
    checked = 0
    for _ in range(5):
        coupling = _random_coupling(rng)
        if np.hypot(coupling.j[0, 0], coupling.j[1, 1]) < 0.5:
            continue  # keep the relaxation gap away from zero
        rep_k = steady_state_of(coupling, HS, ANC)
        if rep_k.degenerate:
            continue
        rep_i = iterate_with_dt_ladder(coupling, HS, ANC, I2 / 2)
        assert trace_distance(rep_k.rho_star, rep_i.rho_star) < 1e-6
        checked += 1
    assert checked >= 2


def test_generator_matches_basis_free_expansion():
    # independent route: the defining second-order collision expansion
    # L(rho) = -i[H_S, rho] + Tr_A[V (rho x rho_th) V] - (1/2) Tr_A[{V^2, rho x rho_th}]
    # evaluated without any jump-basis choice must equal the Pauli-basis build
    from collisim.linalg import partial_trace
    from collisim.model import build_interaction
    rng = np.random.default_rng(68)
    for _ in range(20):
        j = np.zeros((3, 3))
        j[:, :2] = rng.uniform(-1.5, 1.5, (3, 2))
        coupling = CouplingSpec(j, dt=0.05)
        gen = build_generator(coupling, HS, ANC)
        v = build_interaction(CouplingSpec(coupling.j, coupling.dt, "none"))
        rho_th = ANC.state()
        for _ in range(5):
            rho = random_density(2, rng)
            joint = kron(rho, rho_th)
            v2 = v @ v
            direct = (-1j * (HS.matrix() @ rho - rho @ HS.matrix())
                      + partial_trace(v @ joint @ v, (2, 2), "S")
                      - 0.5 * partial_trace(v2 @ joint + joint @ v2, (2, 2), "S"))
            assert matrices_close(apply_generator(gen, rho), direct, 1e-12)


def test_kernel_without_hamiltonian_reports_zero_residual_state():
    gen = build_generator(diagonal_coupling(1.0, 0.5, dt=0.05), HS, ANC)
    rep = steady_state_kernel(vectorize(gen))
    assert rep.residual < 1e-10
    out = apply_generator(gen, rep.rho_star)
    assert np.max(np.abs(out)) < 1e-10
