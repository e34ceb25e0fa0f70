"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import csv
import math
import time
from collections import defaultdict

import numpy as np

from collisim.engine import CollisionConfig, run, steady_state_by_iteration
from collisim.lindblad import steady_state_of
from collisim.linalg import trace_distance
from collisim.model import (AncillaPrep, CouplingSpec, QubitHamiltonian,
                            build_interaction, collision_unitary, density_matrix,
                            diagonal_coupling, gibbs_state, pure_state,
                            ssc_coupling)
from collisim.observables import ergotropy
from collisim.thermo import current_evaluators, expectation

from conftest import (bloch_vector, collide_once, entropy_production_collision, interaction_work,
                      random_density, work_heat)

HS = QubitHamiltonian(1.0)
ANC = AncillaPrep(beta=1.0, omega_a=1.0)
TANH_HALF = np.tanh(0.5)  # 0.4621171572600098


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return rows


def test_criterion_1_thermalization():
    t0 = time.perf_counter()
    cfg = CollisionConfig(hs=HS, ancilla=ANC,
                          coupling=diagonal_coupling(1.0, 1.0, dt=0.05),
                          n_collisions=1000, rho0=pure_state(15 * np.pi / 16))
    traj = run(cfg)
    elapsed = time.perf_counter() - t0
    dist = trace_distance(traj.final, gibbs_state(HS, 1.0))
    w_max = max(abs(w) for w in traj.ledger.w)
    ok = dist <= 1e-4 and w_max <= 1e-12 and elapsed < 1.0
    report(1, ok, f"td(rho_final, gibbs) = {dist:.2e} (<=1e-4), "
                  f"max|W| = {w_max:.2e} (<=1e-12), runtime {elapsed:.2f}s (<1s)")


def test_criterion_2_effective_temperature_endpoints():
    t0 = time.perf_counter()
    rep0 = steady_state_of(diagonal_coupling(1.0, 0.0, dt=0.05), HS, ANC)
    rep_m1 = steady_state_of(diagonal_coupling(1.0, -1.0, dt=0.05), HS, ANC)
    rep_half = steady_state_of(diagonal_coupling(1.0, 0.5, dt=0.05), HS, ANC)

    # derived oracle: channel-rate ratio with a = (Jx+Jy)^2, b = (Jx-Jy)^2
    a, b = (1 + 0.5) ** 2, (1 - 0.5) ** 2
    p_e, p_g = (1 - TANH_HALF) / 2, (1 + TANH_HALF) / 2
    oracle = math.log((a * p_g + b * p_e) / (a * p_e + b * p_g))

    # cross-check the 0.776 value by iterating collisions at decreasing dt
    rho = np.zeros(3)
    for dt in (1e-3, 1e-4, 1e-5):
        cfg = CollisionConfig(hs=HS, ancilla=ANC,
                              coupling=diagonal_coupling(1.0, 0.5, dt=dt),
                              n_collisions=1, rho0=rho, convergence_tol=1e-7)
        rep_it = steady_state_by_iteration(cfg)
        rho = rep_it.r_star
    elapsed = time.perf_counter() - t0

    ok = (abs(rep0.beta_eff) <= 1e-6
          and abs(rep_m1.beta_eff + 1.0) <= 1e-3
          and abs(rep_half.beta_eff - 0.776) / 0.776 <= 0.01
          and abs(rep_half.beta_eff - oracle) <= 1e-10
          and abs(rep_it.beta_eff - oracle) <= 1e-5
          and elapsed < 5.0)
    report(2, ok, f"beta_eff(0) = {rep0.beta_eff:.2e}, "
                  f"beta_eff(-1) = {rep_m1.beta_eff:.6f}, "
                  f"beta_eff(1/2) = {rep_half.beta_eff:.6f} "
                  f"(oracle {oracle:.6f}, iteration {rep_it.beta_eff:.6f}), "
                  f"runtime {elapsed:.2f}s (<5s)")


def test_criterion_3_off_resonant_renormalization():
    hs2 = QubitHamiltonian(2.0)
    devs = []
    for beta in (1.0, 5.0, 9.0):
        anc = AncillaPrep(beta=beta, omega_a=1.0)
        rep = steady_state_of(diagonal_coupling(1.0, 1.0, dt=0.05), hs2, anc)
        devs.append(abs(rep.beta_eff * 2.0 - beta * 1.0))
    ok = max(devs) <= 1e-3
    report(3, ok, f"max |beta_eff*omega_S - beta*omega_A| = {max(devs):.2e} (<=1e-3)")


def test_criterion_4_effective_temperature_bound():
    worst = 0.0
    for beta in (1.0, 3.0, 5.0, 7.0, 9.0):
        anc = AncillaPrep(beta=beta, omega_a=1.0)
        for ratio in np.linspace(-3.0, 3.0, 61):
            rep = steady_state_of(diagonal_coupling(1.0, float(ratio), dt=0.05),
                                  HS, anc)
            worst = max(worst, abs(rep.beta_eff / beta))
    ok = worst <= 1 + 1e-6
    report(4, ok, f"max |beta_eff/beta| over 61x5 grid = {worst:.9f} (<=1+1e-6)")


def test_criterion_5_first_law_identity():
    # the library's W (change of H_0) also against its definition form, the
    # decrease of H_SA, on the same samples
    rng = np.random.default_rng(12345)
    worst = worst_def = 0.0
    for _ in range(10_000):
        j = rng.uniform(-1.5, 1.5, (3, 3))
        dt = 10 ** rng.uniform(-4, -0.3)
        omega_s = rng.uniform(0.5, 2.0)
        omega_a = rng.uniform(0.5, 2.0)
        beta = rng.uniform(-3.0, 3.0)
        hs, ha = QubitHamiltonian(omega_s), QubitHamiltonian(omega_a)
        coupling = CouplingSpec(j, dt=dt)
        hsa = build_interaction(coupling)
        u = collision_unitary(hs, ha, hsa, dt)
        rho_s = random_density(2, rng)
        r_a = gibbs_state(ha, beta)
        w, q = work_heat(u, hs, ha, r_a, bloch_vector(rho_s))
        rho_next, _ = collide_once(rho_s, density_matrix(r_a), u)
        de_s = float(np.trace(hs.matrix() @ (rho_next - rho_s)).real)
        worst = max(worst, abs(de_s - w + q))
        worst_def = max(worst_def, abs(w - expectation(interaction_work(u, hsa, r_a),
                                                       bloch_vector(rho_s))))
    ok = worst <= 1e-11 and worst_def <= 1e-12
    report(5, ok, f"max |dE_S - W + Q| over 10^4 samples = {worst:.2e} (<=1e-11), "
                  f"max |W - (H_SA - U^dag H_SA U)| = {worst_def:.2e} (<=1e-12)")


def test_criterion_6_entropy_production_forms():
    rng = np.random.default_rng(23456)
    worst_sigma = math.inf
    worst_dev = 0.0
    for _ in range(1_000):
        j = np.zeros((3, 3))
        j[:, :2] = rng.uniform(-1.2, 1.2, (3, 2))
        if rng.random() < 0.5:
            j[:, 2] = rng.uniform(-1.2, 1.2, 3)
        dt = 10 ** rng.uniform(-3, -1)
        beta = rng.uniform(-4.0, 4.0)
        anc = AncillaPrep(beta=beta, omega_a=1.0)
        coupling = CouplingSpec(j, dt=dt)
        u = collision_unitary(HS, anc.hamiltonian(), build_interaction(coupling), dt)
        rho_s = random_density(2, rng)
        _, joint_after = collide_once(rho_s, density_matrix(anc.state), u)
        sigma, checks = entropy_production_collision(rho_s, joint_after, anc)
        worst_sigma = min(worst_sigma, sigma)
        worst_dev = max(worst_dev,
                        abs(checks["joint_relative_entropy"] - sigma),
                        abs(checks["mutual_information_form"] - sigma))
    ok = worst_sigma >= -1e-11 and worst_dev <= 1e-10
    report(6, ok, f"min sigma = {worst_sigma:.2e} (>=-1e-11), "
                  f"max |form deviation| = {worst_dev:.2e} (<=1e-10) over 10^3 samples")


def test_criterion_7_current_convergence():
    rng = np.random.default_rng(2024)
    ratios = []
    for _ in range(20):
        j = np.zeros((3, 3))
        j[:, :2] = rng.uniform(-1.2, 1.2, (3, 2))
        coupling = CouplingSpec(j, dt=1.0)
        rho_s = bloch_vector(random_density(2, rng))
        w_ref, q_ref = current_evaluators(coupling, HS, ANC)(rho_s)
        errs_w, errs_q = [], []
        for dt in (0.02, 0.01, 0.005):
            hsa = build_interaction(CouplingSpec(coupling.j, dt))
            u = collision_unitary(HS, ANC.hamiltonian(), hsa, dt)
            w, q = work_heat(u, HS, ANC.hamiltonian(), ANC.state, rho_s)
            errs_w.append(abs(w / dt - w_ref))
            errs_q.append(abs(q / dt - q_ref))
        ratios += [errs_w[0] / errs_w[1], errs_w[1] / errs_w[2],
                   errs_q[0] / errs_q[1], errs_q[1] / errs_q[2]]
    ok = all(1.6 <= r <= 2.6 for r in ratios)
    report(7, ok, f"halving ratios in [{min(ratios):.2f}, {max(ratios):.2f}] "
                  f"(required within [1.6, 2.6]) for 20 couplings, work and heat")


def test_criterion_8_derived_steady_current():
    coupling = diagonal_coupling(1.0, 0.0, dt=1e-4)
    rep = steady_state_of(coupling, HS, ANC)
    r_star = rep.r_star
    w_dot, q_dot = current_evaluators(coupling, HS, ANC)(r_star)
    hsa = build_interaction(coupling)
    u = collision_unitary(HS, ANC.hamiltonian(), hsa, coupling.dt)
    w_rate, q_rate = (x / coupling.dt for x in work_heat(u, HS, ANC.hamiltonian(), ANC.state,
                                                           r_star))
    rho_star = density_matrix(r_star)
    _, joint_after = collide_once(rho_star, density_matrix(ANC.state), u)
    sigma, _ = entropy_production_collision(rho_star, joint_after, ANC)
    sigma_rate = sigma / coupling.dt
    devs = [abs(x - TANH_HALF) for x in (w_dot, q_dot, w_rate, q_rate)]
    sig_dev = abs(sigma_rate - 1.0 * q_dot)
    ok = max(devs) <= 1e-3 and sig_dev <= 1e-3
    report(8, ok, f"steady W_dot = {w_dot:.6f}, Q_dot = {q_dot:.6f}, "
                  f"W(dt)/dt = {w_rate:.6f}, Q(dt)/dt = {q_rate:.6f} "
                  f"vs 0.462117 (<=1e-3); |sigma_rate - beta*Q_dot| = {sig_dev:.2e}")


def _iterate_dt_ladder(coupling, rho0, dts=(1e-3, 1e-4, 1e-5), tol=1e-7):
    rho = rho0
    rep = None
    for dt in dts:
        cfg = CollisionConfig(hs=HS, ancilla=ANC,
                              coupling=CouplingSpec(coupling.j, dt),
                              n_collisions=1, rho0=rho, convergence_tol=tol)
        rep = steady_state_by_iteration(cfg)
        rho = rep.r_star
    return rep


def test_criterion_9_kernel_vs_iteration():
    rng = np.random.default_rng(99)
    dists = []
    while len(dists) < 50:
        mags = rng.uniform(0.5, 1.2, 3)
        signs = rng.choice([-1.0, 1.0], 3)
        j_x, j_y, j_zy = mags * signs
        if rng.random() < 0.3:
            j_zy = 0.0
        coupling = ssc_coupling(j_x, j_y, j_zy, dt=0.05)
        rep_k = steady_state_of(coupling, HS, ANC)
        if rep_k.degenerate:
            continue
        rep_i = _iterate_dt_ladder(coupling, np.zeros(3))
        dists.append(trace_distance(rep_k.r_star, rep_i.r_star))
    rep_deg = steady_state_of(ssc_coupling(0.0, 0.0, 1.0, dt=0.05), HS, ANC)
    ok = max(dists) <= 1e-6 and rep_deg.degenerate
    report(9, ok, f"max kernel-vs-iteration td over 50 couplings = {max(dists):.2e} "
                  f"(<=1e-6); pure-J_zy degeneracy flag = {rep_deg.degenerate}")


def test_criterion_10_ssc_structure(figure_outputs):
    rows = read_csv(figure_outputs["dir"] / "fig5a_coherence.csv")
    by_beta = defaultdict(list)
    for row in rows:
        by_beta[float(row["beta"])].append((float(row["alpha"]),
                                            float(row["coherence_l1"])))
    c_at_zero = {b: dict(v)[0.0] for b, v in by_beta.items()}
    curve9 = by_beta[9.0]
    alpha_max = max(curve9, key=lambda p: p[1])[0]
    maxima = {b: max(c for _, c in v) for b, v in by_beta.items()}
    betas_desc = sorted(maxima, reverse=True)
    strictly_decreasing = all(maxima[betas_desc[i]] > maxima[betas_desc[i + 1]]
                              for i in range(len(betas_desc) - 1))
    elapsed = figure_outputs["timings"]["fig5"]
    ok = (max(c_at_zero.values()) <= 1e-8
          and abs(alpha_max - math.pi / 4) <= math.pi / 128 + 1e-12
          and strictly_decreasing
          and elapsed < 120.0)
    report(10, ok, f"max C(alpha=0) = {max(c_at_zero.values()):.2e} (<=1e-8); "
                   f"argmax alpha at beta=9 is {alpha_max:.5f} "
                   f"(pi/4 +- pi/128); maxima by beta {maxima}; "
                   f"fig5 runtime {elapsed:.1f}s (<120s)")


def test_criterion_11_ergotropy(figure_outputs):
    e_gibbs = ergotropy(gibbs_state(HS, 1.0), HS.omega)
    e_inverted = ergotropy(pure_state(0.0), HS.omega)

    rows = read_csv(figure_outputs["dir"] / "ergotropy_surface.csv")
    surface = defaultdict(dict)
    for row in rows:
        key = (float(row["alpha"]), float(row["gamma"]))
        surface[key][row["rho0"]] = float(row["ergotropy"])
    ground_max_key = max(surface, key=lambda k: surface[k]["ground"])
    split_by_alpha = defaultdict(float)
    for (alpha, _), vals in surface.items():
        split_by_alpha[alpha] = max(split_by_alpha[alpha],
                                    abs(vals["ground"] - vals["excited"]))
    low_split = max(v for a, v in split_by_alpha.items() if a <= math.pi / 4 + 1e-12)
    high_split = max(v for a, v in split_by_alpha.items() if a > math.pi / 4 + 1e-12)
    elapsed = figure_outputs["timings"]["ergotropy"]

    ok = (e_gibbs <= 1e-12
          and e_inverted == 1.0
          and abs(ground_max_key[0] - 0.0) <= 1e-12
          and abs(ground_max_key[1] + math.pi / 4) <= 1e-12
          and low_split <= 1e-3
          and high_split > 1e-3
          and elapsed < 180.0)
    report(11, ok, f"E(gibbs) = {e_gibbs:.1e} (<=1e-12); E(|e><e|) = {e_inverted} "
                   f"(=1); surface max at (alpha, gamma) = {ground_max_key} "
                   f"(expect (0, -pi/4)); split <= {low_split:.1e} for alpha<=pi/4, "
                   f"max {high_split:.2e} beyond; runtime {elapsed:.1f}s (<180s)")


def test_criterion_12_figure3_current_traces(figure_outputs):
    steady = {}
    for ratio, name in ((-0.5, "-0.50"), (0.0, "+0.00"), (0.5, "+0.50"), (1.0, "+1.00")):
        rows = read_csv(figure_outputs["dir"] / f"fig3_traj_ratio_{name}.csv")
        tail = rows[-100:]
        q_vals = [float(r["current_q"]) for r in tail]
        w_vals = [float(r["current_w"]) for r in tail]
        steady[ratio] = (np.mean(w_vals), np.mean(q_vals),
                         np.std(q_vals), max(abs(float(r["w"])) for r in rows))
    w1, q1, _, w_col_max = steady[1.0]
    nonzero_ok = all(abs(steady[r][1]) > 0.05 and steady[r][2] < 1e-6
                     for r in (-0.5, 0.0, 0.5))
    ordering_ok = (abs(steady[0.0][1]) > abs(steady[0.5][1])
                   and abs(steady[0.0][1]) > abs(steady[-0.5][1]))
    ok = (abs(w1) <= 1e-8 and abs(q1) <= 1e-8 and w_col_max <= 1e-12
          and nonzero_ok and ordering_ok)
    report(12, ok, f"steady currents: ratio 1 -> ({w1:.1e}, {q1:.1e}) ~ 0 "
                   f"(W column max {w_col_max:.1e}); ratio 0 -> {steady[0.0][1]:.4f}, "
                   f"ratio +-1/2 -> {steady[0.5][1]:.4f}/{steady[-0.5][1]:.4f} "
                   f"(constant, nonzero, largest at 0)")
