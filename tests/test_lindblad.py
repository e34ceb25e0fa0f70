import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from collisim.engine import (FIXED_POINT_FLOOR, CollisionConfig, collision_map_superoperator,
                             run, steady_state_by_iteration)
from collisim.lindblad import build_generator, kernel_state, rate_matrix, steady_state_of
from collisim.linalg import dagger, kron, trace_distance
from collisim.model import (I2, PAULIS, AncillaPrep, CouplingSpec, QubitHamiltonian,
                            build_interaction, collision_unitary, density_matrix,
                            diagonal_coupling, gibbs_state, pure_state, ssc_coupling)

from conftest import (PAULI_BASIS, bloch_vector, evolve_continuous, matrices_close,
                      partial_trace, random_bloch, random_density, reference)

HS = QubitHamiltonian(1.0)
ANC = AncillaPrep(beta=1.0, omega_a=1.0)
TANH_HALF = np.tanh(0.5)


def apply_generator(gen, rho):
    """L(rho) = (dr/dt . sigma)/2 through the generator's matrix on (1, r)."""
    r_dot = (gen @ np.r_[1.0, bloch_vector(rho)])[1:]
    return density_matrix(r_dot) - I2 / 2


def looped_generator(omega, rates, rho):
    """L(rho) term by term from the GKSL form of the system frequency and the
    rate matrix: the reference for build_generator."""
    h = omega / 2 * PAULIS[2]
    out = -1j * (h @ rho - rho @ h)
    for jj, s_j in enumerate(PAULIS):
        for kk, s_k in enumerate(PAULIS):
            sks = dagger(s_k) @ s_j
            out = out + rates[jj, kk] * (s_j @ rho @ dagger(s_k) - 0.5 * (sks @ rho + rho @ sks))
    return out


def _random_coupling(rng, scale=1.0):
    j = np.zeros((3, 3))
    j[:, :2] = rng.uniform(-scale, scale, (3, 2))
    return CouplingSpec(j, dt=0.05)


def test_generator_jx_only_single_unit_rate():
    rates = rate_matrix(diagonal_coupling(1.0, 0.0, dt=0.05), ANC)
    # one jump, sigma_x, at unit rate; the y and z jumps have zero rates
    assert rates[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert matrices_close(rates, np.diag([rates[0, 0], 0.0, 0.0]), 0.0)


def test_generator_zero_coupling_is_hamiltonian_only():
    gen = build_generator(diagonal_coupling(0.0, 0.0, dt=0.05), HS, ANC)
    assert not np.any(rate_matrix(diagonal_coupling(0.0, 0.0, dt=0.05), ANC))
    rng = np.random.default_rng(61)
    rho = random_density(2, rng)
    expected = -1j * (HS.matrix() @ rho - rho @ HS.matrix())
    assert matrices_close(apply_generator(gen, rho), expected, 1e-14)


def test_generator_zero_temperature_gives_pure_decay():
    # J_x = J_y = 1 on a ground-state ancilla: diagonalizing the rate matrix
    # leaves a single decay channel sigma_minus at rate 4 (sigma_plus at 0)
    rates = rate_matrix(diagonal_coupling(1.0, 1.0, dt=0.05),
                        AncillaPrep(beta=np.inf, omega_a=1.0))
    w, v = np.linalg.eigh(rates)
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
        rates = rate_matrix(CouplingSpec(j, dt=0.05),
                            AncillaPrep(beta=rng.uniform(-3, 3), omega_a=1.0))
        assert np.max(np.abs(rates - rates.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(rates).min() >= -1e-10


def test_rate_matrix_checks_scale_with_the_coupling():
    # a pure ancilla gives gamma an exact zero eigenvalue, which round-off puts
    # near -1e-16 Tr gamma: at J ~ 1e4 that is far below -1e-10, yet no defect
    rng = np.random.default_rng(70)
    for _ in range(50):
        coupling = CouplingSpec(rng.uniform(-1e4, 1e4, (3, 3)), dt=0.05)
        anc = AncillaPrep(beta=rng.choice([np.inf, -np.inf]), omega_a=1.0)
        rates = rate_matrix(coupling, anc)
        total = np.trace(rates).real
        assert np.linalg.eigvalsh(rates).min() >= -1e-10 * total
        assert np.isfinite(build_generator(coupling, HS, anc)).all()


def test_generator_overflow_raises_where_the_rates_are_finite():
    # V^2 overflows before gamma does: a ValueError (exit 3), not an SVD failure
    coupling = CouplingSpec(np.full((3, 3), 3e153), dt=0.05)
    assert np.isfinite(rate_matrix(coupling, ANC)).all()
    with pytest.raises(ValueError, match="generator is not finite"):
        build_generator(coupling, HS, ANC)


def test_generator_rejects_non_psd_rates():
    # an ancilla "state" of Bloch length 3 is no state: its rates 1 +- 3 of
    # the J_x = J_y = 1 coupling include a negative one
    anc = AncillaPrep(beta=1.0, omega_a=1.0)
    anc.__dict__["state"] = np.array([0.0, 0.0, -3.0])
    with pytest.raises(ValueError, match="PSD"):
        build_generator(diagonal_coupling(1.0, 1.0, dt=0.05), HS, anc)


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
    # the generator is L on column-stacked states in the orthonormal Pauli basis:
    # here -i[H, .], a rotation about z at omega
    gen = build_generator(diagonal_coupling(0.0, 0.0, dt=0.05), HS, ANC)
    h = HS.matrix()
    vectorized = -1j * (kron(I2, h) - kron(h.T, I2))
    basis = PAULI_BASIS / np.sqrt(2)
    assert matrices_close(gen, basis.conj().T @ vectorized @ basis, 1e-14)
    expected = np.zeros((4, 4))
    expected[1, 2], expected[2, 1] = -HS.omega, HS.omega
    assert matrices_close(gen, expected, 1e-15)


def test_vectorize_zero_generator():
    gen = build_generator(diagonal_coupling(0.0, 0.0, dt=0.05), QubitHamiltonian(0.0), ANC)
    assert np.max(np.abs(gen)) == 0.0


def test_vectorize_agrees_with_direct_application():
    rng = np.random.default_rng(64)
    coupling = ssc_coupling(1.0, -0.4, 0.7, dt=0.05)
    gen = build_generator(coupling, HS, ANC)
    rates = rate_matrix(coupling, ANC)
    assert np.array_equal(gen[0], np.zeros(4))     # trace preserving
    for _ in range(100):
        rho = random_density(2, rng)
        want = looped_generator(HS.omega, rates, rho)
        assert np.max(np.abs(apply_generator(gen, rho) - want)) < 1e-12


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
    assert np.isnan(rep.beta_eff)  # suppressed for coherent states


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


DT_LADDER = np.array([1e-2, 1e-3, 1e-4, 1e-5])


def ladder(j, beta, omega_s, omega_a):
    """The generator L and the collision maps T(dt) along DT_LADDER, one stack."""
    hs, anc = QubitHamiltonian(omega_s), AncillaPrep(beta=beta, omega_a=omega_a)
    gen = build_generator(CouplingSpec(j, dt=1.0), hs, anc)
    hsa = build_interaction(CouplingSpec(j, DT_LADDER))
    u = collision_unitary(hs, anc.hamiltonian(), hsa, DT_LADDER)
    return gen, collision_map_superoperator(u, anc.state)


def continuum_gaps(j, beta, omega_s, omega_a):
    """max |(T(dt) - I)/dt - L| at each dt: the collision map against the
    generator, with no reference between them."""
    gen, t = ladder(j, beta, omega_s, omega_a)
    return np.max(np.abs((t - np.eye(4)) / DT_LADDER[:, None, None] - gen), axis=(-2, -1))


def fixed_point_gaps(j, beta, omega_s, omega_a):
    """Trace distance of the fixed point of T(dt), judged as the iteration
    judges it, from the steady state of L at each dt."""
    _, t = ladder(j, beta, omega_s, omega_a)
    fixed, _ = kernel_state(t - np.eye(4), floor=FIXED_POINT_FLOOR)
    steady = steady_state_of(CouplingSpec(j, dt=1.0), QubitHamiltonian(omega_s),
                             AncillaPrep(beta=beta, omega_a=omega_a))
    return trace_distance(fixed, steady.r_star)


def assert_gaps_shrink_like_dt(gaps):
    # at least 3x per decade of dt; (T - I)/dt carries the round-off of T
    # over dt, about 1e-11 at dt = 1e-5, so gaps below 1e-9 count as zero
    for earlier, later in zip(gaps, gaps[1:]):
        assert later <= max(earlier / 3, 1e-9), gaps


def assert_fixed_points_approach_the_kernel(gaps):
    # O(dt): at least 3x per decade, 27x from the largest distance on the
    # ladder to the one at dt = 1e-5. Rung by rung the check would fail where
    # the O(dt) and O(dt^2) shifts cancel. Solved from T - I = O(dt), the
    # fixed point carries the round-off of T over dt: below 1e-8 it is zero.
    assert gaps[-1] <= max(gaps.max() / 27, 1e-8), gaps


@settings(max_examples=100, deadline=None)
@given(j=st.lists(st.floats(-1.5, 1.5), min_size=6, max_size=6),
       beta=st.one_of(st.floats(-5.0, 5.0), st.sampled_from([math.inf, -math.inf])),
       omega_s=st.floats(-2.0, 2.0),
       omega_a=st.one_of(st.floats(-2.0, -0.2), st.floats(0.2, 2.0)))
def test_collision_map_approaches_the_generator_without_sigma_z_column(j, beta, omega_s, omega_a):
    # xz = yz = zz = 0: no first-order term, so (T(dt) - I)/dt = L + O(dt)
    j = np.column_stack([np.reshape(j, (3, 2)), np.zeros(3)])
    assert_gaps_shrink_like_dt(continuum_gaps(j, beta, omega_s, omega_a))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the generator omits the first-order "
                   "term i[V, X]/sqrt(dt) of a coupling with a sigma_z column")
def test_collision_map_approaches_the_generator_with_sigma_z_column():
    # the gap grows from 6.97 to 221.5 over dt = 1e-2 ... 1e-5, as dt^(-1/2)
    j = np.array([[-0.83, -0.07, 0.03], [-0.14, 0.22, 0.62], [0.17, 0.23, 0.08]])
    assert_gaps_shrink_like_dt(continuum_gaps(j, 1.28, 1.0, 1.0))


def away_from_zero(lo, hi):
    return st.one_of(st.floats(-hi, -lo), st.floats(lo, hi))


# Every J entry, beta and omega_s away from zero: there the steady state is
# unique and its O(dt) shift does not vanish. Where it does (a zero entry of
# J, beta = 0, omega_s = 0), the distance is round-off or O(dt^2), and the
# two orders can cancel at one rung of the ladder.
@settings(max_examples=100, deadline=None)
@given(j=st.lists(away_from_zero(0.2, 1.5), min_size=6, max_size=6),
       beta=st.one_of(away_from_zero(0.2, 5.0), st.sampled_from([math.inf, -math.inf])),
       omega_s=away_from_zero(0.2, 2.0), omega_a=away_from_zero(0.2, 2.0))
def test_fixed_point_approaches_the_kernel_without_sigma_z_column(j, beta, omega_s, omega_a):
    # the fixed point of T(dt) = I + dt L + O(dt^2) is the kernel state + O(dt)
    j = np.column_stack([np.reshape(j, (3, 2)), np.zeros(3)])
    assert_fixed_points_approach_the_kernel(fixed_point_gaps(j, beta, omega_s, omega_a))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the generator omits the first-order "
                   "term i[V, X]/sqrt(dt) of a coupling with a sigma_z column")
def test_fixed_point_approaches_the_kernel_with_sigma_z_column():
    # the distance stays near 0.15: 0.159, 0.149, 0.145, 0.144 over dt = 1e-2 ... 1e-5
    j = np.array([[-0.83, -0.07, 0.03], [-0.14, 0.22, 0.62], [0.17, 0.23, 0.08]])
    assert_fixed_points_approach_the_kernel(fixed_point_gaps(j, 1.28, 1.0, 1.0))


def test_kernel_without_hamiltonian_reports_zero_residual_state():
    coupling = diagonal_coupling(1.0, 0.5, dt=0.05)
    gen = build_generator(coupling, HS, ANC)
    rep = steady_state_of(coupling, QubitHamiltonian(0.0), ANC)
    assert rep.residual < 1e-10
    out = apply_generator(gen, density_matrix(rep.r_star))
    assert np.max(np.abs(out)) < 1e-10
