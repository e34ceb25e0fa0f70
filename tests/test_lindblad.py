import numpy as np
import pytest
import scipy.linalg

from collisim.engine import CollisionConfig, run, steady_state_by_iteration
from collisim.lindblad import (GKSLGenerator, build_generator, steady_state_kernel,
                               steady_state_of)
from collisim.linalg import dagger, kron, trace_distance
from collisim.model import (I2, PAULIS, AncillaPrep, CouplingSpec,
                            QubitHamiltonian, density_matrix, diagonal_coupling,
                            gibbs_state, pure_state, ssc_coupling)

from conftest import (PAULI_BASIS, bloch_vector, evolve_continuous, matrices_close,
                      partial_trace, random_bloch, random_density, reference)

HS = QubitHamiltonian(1.0)
ANC = AncillaPrep(beta=1.0, omega_a=1.0)
TANH_HALF = np.tanh(0.5)


def apply_generator(gen, rho):
    """L(rho) = (dr/dt . sigma)/2 through the generator's matrix on (1, r)."""
    r_dot = (gen.matrix() @ np.r_[1.0, bloch_vector(rho)])[1:]
    return density_matrix(r_dot) - I2 / 2


def looped_generator(gen, rho):
    """L(rho) term by term from the GKSL form: the reference for gen.matrix()."""
    h = gen.omega / 2 * PAULIS[2]
    out = -1j * (h @ rho - rho @ h)
    for jj, s_j in enumerate(PAULIS):
        for kk, s_k in enumerate(PAULIS):
            sks = dagger(s_k) @ s_j
            out = out + gen.rates[jj, kk] * (s_j @ rho @ dagger(s_k) - 0.5 * (sks @ rho + rho @ sks))
    return out


def _random_coupling(rng, scale=1.0):
    j = np.zeros((3, 3))
    j[:, :2] = rng.uniform(-scale, scale, (3, 2))
    return CouplingSpec(j, dt=0.05)


def test_generator_jx_only_single_unit_rate():
    gen = build_generator(diagonal_coupling(1.0, 0.0, dt=0.05), HS, ANC)
    # one jump, sigma_x, at unit rate; the y and z jumps have zero rates
    assert gen.rates[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert matrices_close(gen.rates, np.diag([gen.rates[0, 0], 0.0, 0.0]), 0.0)


def test_generator_zero_coupling_is_hamiltonian_only():
    gen = build_generator(diagonal_coupling(0.0, 0.0, dt=0.05), HS, ANC)
    assert not np.any(gen.rates)
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
    assert np.max(np.abs(w[:2])) == pytest.approx(0.0, abs=1e-12)
    assert w[2] == pytest.approx(2.0, abs=1e-12)
    jump = sum(v[j, 2] * PAULIS[j] for j in range(3))
    # the decay channel is proportional to sigma_minus, |e><g| part vanishes
    assert abs(jump[0, 1]) < 1e-12
    scale = abs(jump[1, 0]) ** 2
    assert w[2] * scale == pytest.approx(4.0, abs=1e-12)


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
        GKSLGenerator(omega=1.0, rates=np.diag([-1.0, 0.0, 0.0]).astype(complex))


def test_generator_is_trace_free():
    rng = np.random.default_rng(63)
    for _ in range(20):
        gen = build_generator(_random_coupling(rng), HS, ANC)
        out = apply_generator(gen, random_density(2, rng))
        assert abs(np.trace(out)) < 1e-14
        assert matrices_close(out, out.conj().T, 1e-13)


def test_thermal_state_in_kernel_energy_preserving():
    gen = build_generator(diagonal_coupling(1.0, 1.0, dt=0.05), HS, ANC)
    out = apply_generator(gen, density_matrix(gibbs_state(HS, 1.0)))
    assert np.max(np.abs(out)) < 1e-12


def test_maximally_mixed_in_kernel_jx_only():
    gen = build_generator(diagonal_coupling(1.0, 0.0, dt=0.05), HS, ANC)
    assert np.max(np.abs(apply_generator(gen, I2 / 2))) < 1e-12


def test_vectorize_hamiltonian_only():
    # gen.matrix() is L on column-stacked states in the orthonormal Pauli basis:
    # here -i[H, .], a rotation about z at omega
    gen = build_generator(diagonal_coupling(0.0, 0.0, dt=0.05), HS, ANC)
    h = HS.matrix()
    vectorized = -1j * (kron(I2, h) - kron(h.T, I2))
    basis = PAULI_BASIS / np.sqrt(2)
    assert matrices_close(gen.matrix(), basis.conj().T @ vectorized @ basis, 1e-14)
    expected = np.zeros((4, 4))
    expected[1, 2], expected[2, 1] = -HS.omega, HS.omega
    assert matrices_close(gen.matrix(), expected, 1e-15)


def test_vectorize_zero_generator():
    gen = GKSLGenerator(omega=0.0, rates=np.zeros((3, 3), dtype=complex))
    assert np.max(np.abs(gen.matrix())) == 0.0


def test_vectorize_agrees_with_direct_application():
    rng = np.random.default_rng(64)
    gen = build_generator(ssc_coupling(1.0, -0.4, 0.7, dt=0.05), HS, ANC)
    assert np.array_equal(gen.matrix()[0], np.zeros(4))     # trace preserving
    for _ in range(100):
        rho = random_density(2, rng)
        assert np.max(np.abs(apply_generator(gen, rho) - looped_generator(gen, rho))) < 1e-12


def test_kernel_energy_preserving_thermal_values():
    rep = steady_state_of(diagonal_coupling(1.0, 1.0, dt=0.05), HS, ANC)
    assert not rep.degenerate
    rho = density_matrix(rep.r_star)
    assert rho[0, 0].real == pytest.approx(0.268941, abs=1e-6)
    assert rho[1, 1].real == pytest.approx(0.731059, abs=1e-6)
    assert rep.residual < 1e-10
    assert rep.beta_eff == pytest.approx(1.0, abs=1e-10)


def test_kernel_jx_only_maximally_mixed():
    rep = steady_state_of(diagonal_coupling(1.0, 0.0, dt=0.05), HS, ANC)
    assert matrices_close(density_matrix(rep.r_star), I2 / 2, 1e-10)
    assert rep.beta_eff == pytest.approx(0.0, abs=1e-10)


def test_kernel_flags_pure_dephasing_as_degenerate():
    rep = steady_state_of(ssc_coupling(0.0, 0.0, 1.0, dt=0.05), HS, ANC)
    assert rep.degenerate


def test_kernel_weak_coupling_not_flagged_degenerate():
    # singular values [1, 1, 2.7e-10, 2e-18]: tiny on an absolute scale, but
    # the second one is of the order of the decay rates, so rho* is unique
    m = 1e-5
    rep = steady_state_of(ssc_coupling(m, 0.5 * m, 0.3 * m, dt=0.05), HS, ANC)
    assert not rep.degenerate
    assert rep.residual < 1e-15


def test_kernel_unique_for_ssc_family():
    rep = steady_state_of(ssc_coupling(1.0, 0.5, 1.0, dt=0.05), HS, ANC)
    assert not rep.degenerate
    assert rep.coherence_l1 > 0.1  # steady-state coherence present
    assert rep.beta_eff is None    # suppressed for coherent states


def test_evolve_zero_time_is_identity():
    rng = np.random.default_rng(65)
    gen = build_generator(_random_coupling(rng), HS, ANC)
    r = random_bloch(rng)
    assert matrices_close(evolve_continuous(gen, r, 0.0), r, 1e-12)


def test_evolve_long_time_thermalizes():
    gen = build_generator(diagonal_coupling(1.0, 1.0, dt=0.05), HS, ANC)
    out = evolve_continuous(gen, pure_state(0.3), 40.0)
    assert trace_distance(out, gibbs_state(HS, 1.0)) < 1e-8


def test_evolve_semigroup_property():
    rng = np.random.default_rng(66)
    gen = build_generator(ssc_coupling(0.8, 0.3, -0.5, dt=0.05), HS, ANC)
    rho = random_bloch(rng)
    for t1, t2 in ((0.5, 1.3), (2.0, 0.7)):
        a = evolve_continuous(gen, evolve_continuous(gen, rho, t2), t1)
        b = evolve_continuous(gen, rho, t1 + t2)
        assert matrices_close(a, b, 1e-9)


def test_kernel_matches_long_time_reference_evolution():
    # the kernel of L against exp(tL) rho0 at t = 200, with L built apart from
    # collisim by perfbench/reference.py (row-major states) and exponentiated
    # by scipy.linalg.expm; the ancilla factors avoid sigma_z, where both agree
    rng = np.random.default_rng(69)
    checked = 0
    for _ in range(20):
        coupling = _random_coupling(rng, scale=1.5)
        beta = rng.uniform(-3.0, 3.0)
        anc = AncillaPrep(beta=beta, omega_a=1.0)
        gen = reference.Model(1.0, 1.0, beta, coupling.j, coupling.dt).generator
        rates = np.sort(-np.linalg.eigvals(gen).real)
        if rates[1] < 0.2:
            continue  # keep exp(-gap t) far below the bound
        rep = steady_state_of(coupling, HS, anc)
        rho0 = random_density(2, rng)
        late = (scipy.linalg.expm(200.0 * gen) @ rho0.ravel()).reshape(2, 2)
        assert not rep.degenerate
        assert trace_distance(rep.r_star, bloch_vector(late)) < 1e-10
        checked += 1
    assert checked >= 10


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
        cfg = CollisionConfig(hs=HS, ancilla=ANC,
                              coupling=CouplingSpec(coupling.j, dt),
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
        cfg = CollisionConfig(hs=hs, ancilla=anc,
                              coupling=CouplingSpec(coupling.j, dt),
                              n_collisions=1, rho0=rho, convergence_tol=tol)
        rep = steady_state_by_iteration(cfg)
        rho = rep.r_star
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
        rep_i = iterate_with_dt_ladder(coupling, HS, ANC, np.zeros(3))
        assert trace_distance(rep_k.r_star, rep_i.r_star) < 1e-6
        checked += 1
    assert checked >= 2


def test_generator_matches_basis_free_expansion():
    # independent route: the defining second-order collision expansion
    # L(rho) = -i[H_S, rho] + Tr_A[V (rho x rho_th) V] - (1/2) Tr_A[{V^2, rho x rho_th}]
    # evaluated without any jump-basis choice must equal the Pauli-basis build
    from collisim.model import build_interaction
    rng = np.random.default_rng(68)
    for _ in range(20):
        j = np.zeros((3, 3))
        j[:, :2] = rng.uniform(-1.5, 1.5, (3, 2))
        coupling = CouplingSpec(j, dt=0.05)
        gen = build_generator(coupling, HS, ANC)
        v = build_interaction(coupling) * np.sqrt(coupling.dt)     # the g0-level V
        rho_th = density_matrix(ANC.state)
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
    rep = steady_state_kernel(gen.matrix())
    assert rep.residual < 1e-10
    out = apply_generator(gen, density_matrix(rep.r_star))
    assert np.max(np.abs(out)) < 1e-10
